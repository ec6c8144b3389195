//! A blocking client for the sweep service protocol.
//!
//! One TCP connection, line-delimited JSON both ways (see
//! [`crate::protocol`]). [`Client`] is the single-connection primitive;
//! [`ResilientClient`] wraps it with deterministic bounded-backoff
//! reconnection, idempotent re-submission, and sequence-numbered
//! stream resume, so a severed connection (or a restarted server)
//! costs a reconnect, never a lost session. Neither panics on
//! malformed server output — everything surfaces as a [`ServiceError`].

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use unxpec_harness::RunPolicy;
use unxpec_telemetry::json::Value;
use unxpec_telemetry::{Event, Telemetry};

use crate::error::ServiceError;
use crate::protocol::{self, parse_response, read_frame, render_request, Request, MAX_FRAME_BYTES};

/// What `submit` returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Submitted {
    /// Server-assigned job id.
    pub job: String,
    /// Enumerated trial count.
    pub trials: u64,
}

/// Job counters as reported by `status` / the final `stream` line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RemoteStatus {
    /// Job id.
    pub job: String,
    /// Total trials.
    pub total: u64,
    /// Trials resolved with an output.
    pub done: u64,
    /// Of those, served from the cache (or coalesced).
    pub cached: u64,
    /// Failed trials.
    pub failed: u64,
    /// Skipped (cancelled) trials.
    pub skipped: u64,
    /// Trials still pending or running.
    pub open: u64,
    /// Whether every trial reached a terminal state.
    pub finished: bool,
}

/// A connected client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

fn num(doc: &Value, field: &str) -> u64 {
    doc.get(field).and_then(Value::as_u64).unwrap_or(0)
}

fn status_from(doc: &Value) -> RemoteStatus {
    RemoteStatus {
        job: doc
            .get("job")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        total: num(doc, "total"),
        done: num(doc, "done"),
        cached: num(doc, "cached"),
        failed: num(doc, "failed"),
        skipped: num(doc, "skipped"),
        open: num(doc, "open"),
        finished: matches!(doc.get("finished"), Some(Value::Bool(true))),
    }
}

impl Client {
    /// Connects to a running service at `addr` (e.g. `127.0.0.1:9733`),
    /// with `TCP_NODELAY` set.
    pub fn connect(addr: &str) -> Result<Client, ServiceError> {
        let stream = protocol::connect(addr)?;
        let reader = stream
            .try_clone()
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        Ok(Client {
            writer: stream,
            reader: BufReader::new(reader),
        })
    }

    fn round_trip(&mut self, request: &Request) -> Result<Value, ServiceError> {
        self.writer
            .write_all(render_request(request).as_bytes())
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        self.read_line()
    }

    fn read_line(&mut self) -> Result<Value, ServiceError> {
        // The same bounded reader the server uses: a garbled or
        // hostile peer cannot make the client buffer unbounded bytes,
        // and a mid-frame cut is the typed FrameTruncated.
        match read_frame(&mut self.reader, MAX_FRAME_BYTES)? {
            Some(line) => parse_response(line.trim_end()),
            None => Err(ServiceError::Io("server closed the connection".to_string())),
        }
    }

    /// Submits `spec` (harness `key=value` text) for `tenant`.
    pub fn submit(&mut self, tenant: &str, spec: &str) -> Result<Submitted, ServiceError> {
        let doc = self.round_trip(&Request::Submit {
            tenant: tenant.to_string(),
            spec: spec.to_string(),
        })?;
        let job = doc
            .get("job")
            .and_then(Value::as_str)
            .ok_or_else(|| ServiceError::Parse("submit response missing job".to_string()))?
            .to_string();
        Ok(Submitted {
            job,
            trials: num(&doc, "trials"),
        })
    }

    /// Fetches the job's counters.
    pub fn status(&mut self, job: &str) -> Result<RemoteStatus, ServiceError> {
        let doc = self.round_trip(&Request::Status {
            job: job.to_string(),
        })?;
        Ok(status_from(&doc))
    }

    /// Polls `status` until the job finishes and returns the final
    /// counters. On deadline expiry returns the typed
    /// [`ServiceError::WaitTimeout`] — mirroring the server-side
    /// `Service::wait` contract, a still-running job can never be
    /// mistaken for a finished one.
    pub fn wait(&mut self, job: &str, timeout: Duration) -> Result<RemoteStatus, ServiceError> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status(job)?;
            if status.finished {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(ServiceError::WaitTimeout {
                    job: job.to_string(),
                    waited_ms: timeout.as_millis() as u64,
                });
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Streams per-trial events until the job finishes; calls
    /// `on_progress` with `(done, total)` per event and returns the
    /// final status.
    pub fn stream(
        &mut self,
        job: &str,
        mut on_progress: impl FnMut(u64, u64),
    ) -> Result<RemoteStatus, ServiceError> {
        let mut seq = 0;
        self.stream_from(job, &mut seq, |doc| {
            on_progress(num(doc, "done"), num(doc, "total"));
        })
    }

    /// Streams per-trial events starting at sequence `*seq`, advancing
    /// `*seq` past every event received — the resume cursor a caller
    /// keeps across reconnects so a re-issued stream replays exactly
    /// the missed events. `on_event` sees each raw event document.
    pub fn stream_from(
        &mut self,
        job: &str,
        seq: &mut u64,
        mut on_event: impl FnMut(&Value),
    ) -> Result<RemoteStatus, ServiceError> {
        self.writer
            .write_all(
                render_request(&Request::Stream {
                    job: job.to_string(),
                    from: *seq,
                })
                .as_bytes(),
            )
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        loop {
            let doc = self.read_line()?;
            if doc.get("event").and_then(Value::as_str).is_some() {
                *seq = num(&doc, "seq") + 1;
                on_event(&doc);
                continue;
            }
            return Ok(status_from(&doc));
        }
    }

    /// Fetches the deterministic result document of a finished job.
    pub fn results(&mut self, job: &str) -> Result<String, ServiceError> {
        let doc = self.round_trip(&Request::Results {
            job: job.to_string(),
        })?;
        doc.get("text")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServiceError::Parse("results response missing text".to_string()))
    }

    /// Cancels the job's pending trials; returns how many were skipped.
    pub fn cancel(&mut self, job: &str) -> Result<u64, ServiceError> {
        let doc = self.round_trip(&Request::Cancel {
            job: job.to_string(),
        })?;
        Ok(num(&doc, "skipped"))
    }
}

/// A session-resuming client: [`Client`] plus deterministic bounded
/// reconnection.
///
/// Transport failures (dead connection, truncated frame, wire-garbled
/// response — a correct server never emits invalid JSON, so a parse
/// failure on a response is transport damage) trigger a reconnect
/// after the [`RunPolicy`]'s exponential backoff for that attempt —
/// the same bounded-backoff machinery the sweep pool retries trials
/// with. Typed [`ServiceError::Overloaded`] rejections instead honour
/// the *server's* `retry_after_ms` hint and do not consume the
/// connection. Everything else (bad spec, unknown job, version skew)
/// is returned immediately — retrying can't fix semantics.
///
/// What makes blind retry *safe* is the server's idempotent submit
/// (same tenant + same submission digest re-attaches to the existing
/// job) and the sequence-numbered stream (a re-issued `stream` with
/// the kept cursor replays exactly the missed events).
pub struct ResilientClient {
    addr: String,
    policy: RunPolicy,
    telemetry: Telemetry,
    conn: Option<Client>,
}

impl ResilientClient {
    /// Wraps `addr` with reconnect policy `policy` (only `retries`,
    /// `backoff_base`, and `backoff_cap` are used; `deadline` is the
    /// pool's concern, not the wire's).
    pub fn new(addr: &str, policy: RunPolicy) -> Self {
        ResilientClient {
            addr: addr.to_string(),
            policy,
            telemetry: Telemetry::disabled(),
            conn: None,
        }
    }

    /// Attaches an event sink; reconnects emit
    /// [`Event::ClientReconnect`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    fn transport_damage(error: &ServiceError) -> bool {
        matches!(
            error,
            ServiceError::Io(_) | ServiceError::FrameTruncated { .. } | ServiceError::Parse(_)
        )
    }

    /// Runs `op` against a live connection, reconnecting (with the
    /// policy's backoff) on transport damage and honouring the server's
    /// retry hint on overload, up to `retries` recoveries total.
    /// `resumed_seq` is the caller's live stream cursor (zero for
    /// non-stream ops); it labels reconnect events.
    fn with_conn<T>(
        &mut self,
        resumed_seq: &std::cell::Cell<u64>,
        mut op: impl FnMut(&mut Client) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let mut attempt: u32 = 0;
        loop {
            let result = match self.conn.as_mut() {
                Some(client) => op(client),
                None => match Client::connect(&self.addr) {
                    Ok(mut client) => {
                        let r = op(&mut client);
                        self.conn = Some(client);
                        r
                    }
                    Err(e) => Err(e),
                },
            };
            let error = match result {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            attempt += 1;
            if attempt > self.policy.retries {
                return Err(error);
            }
            if let ServiceError::Overloaded { retry_after_ms, .. } = &error {
                // The connection is fine; the server chose the wait.
                std::thread::sleep(Duration::from_millis(*retry_after_ms));
            } else if Self::transport_damage(&error) {
                self.conn = None;
                std::thread::sleep(self.policy.backoff_for(attempt));
                self.telemetry.emit(Event::ClientReconnect {
                    attempt: u64::from(attempt),
                    resumed_seq: resumed_seq.get(),
                });
            } else {
                return Err(error);
            }
        }
    }

    /// Submits (or re-attaches to) `spec` for `tenant`.
    pub fn submit(&mut self, tenant: &str, spec: &str) -> Result<Submitted, ServiceError> {
        self.with_conn(&std::cell::Cell::new(0), |c| c.submit(tenant, spec))
    }

    /// Streams `job` to completion across however many connections it
    /// takes, calling `on_progress` with `(done, total)` per event.
    /// The sequence cursor survives reconnects — each retry re-issues
    /// `stream` with `from` set to the cursor, so no event is ever
    /// delivered twice or skipped.
    pub fn stream(
        &mut self,
        job: &str,
        mut on_progress: impl FnMut(u64, u64),
    ) -> Result<RemoteStatus, ServiceError> {
        let seq = std::cell::Cell::new(0u64);
        self.with_conn(&seq, |c| {
            let mut cursor = seq.get();
            let result = c.stream_from(job, &mut cursor, |doc| {
                on_progress(num(doc, "done"), num(doc, "total"));
            });
            // Keep whatever advanced before a failure: the retry
            // resumes exactly there.
            seq.set(cursor);
            result
        })
    }

    /// Fetches the deterministic result document of a finished job.
    pub fn results(&mut self, job: &str) -> Result<String, ServiceError> {
        self.with_conn(&std::cell::Cell::new(0), |c| c.results(job))
    }

    /// Fetches the job's counters.
    pub fn status(&mut self, job: &str) -> Result<RemoteStatus, ServiceError> {
        self.with_conn(&std::cell::Cell::new(0), |c| c.status(job))
    }

    /// Polls `status` (reconnecting as needed) until the job finishes;
    /// a deadline expiry is the typed [`ServiceError::WaitTimeout`].
    pub fn wait(&mut self, job: &str, timeout: Duration) -> Result<RemoteStatus, ServiceError> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status(job)?;
            if status.finished {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(ServiceError::WaitTimeout {
                    job: job.to_string(),
                    waited_ms: timeout.as_millis() as u64,
                });
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Cancels the job's pending trials.
    pub fn cancel(&mut self, job: &str) -> Result<u64, ServiceError> {
        self.with_conn(&std::cell::Cell::new(0), |c| c.cancel(job))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn connect_sets_nodelay() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = Client::connect(&addr).unwrap();
        assert!(matches!(client.writer.nodelay(), Ok(true)));
    }
}
