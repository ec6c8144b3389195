//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line (the `stream` op sends
//! several lines, ending with a `"done"` event). Every request carries
//! an explicit `"v"` field so version skew fails with a typed
//! [`ServiceError::Version`] instead of a confusing parse error.
//!
//! Requests:
//!
//! ```text
//! {"v": 1, "op": "submit",  "tenant": "alice", "spec": "scale=quick\nexperiments=timing"}
//! {"v": 1, "op": "status",  "job": "j1"}
//! {"v": 1, "op": "results", "job": "j1"}
//! {"v": 1, "op": "stream",  "job": "j1", "from": 0}
//! {"v": 1, "op": "cancel",  "job": "j1"}
//! ```
//!
//! Frames are read through the bounded [`read_frame`] reader: a frame
//! over [`MAX_FRAME_BYTES`] is a typed `frame-too-large` error instead
//! of unbounded buffering, and a stream that ends mid-frame (a dead
//! peer, a chaos fault) is a typed `frame-truncated` error. The
//! `stream` op's `from` field is the per-job event sequence number to
//! resume from, so a reconnecting client replays exactly the trial
//! events it missed.
//!
//! Responses are `{"ok": true, ...}` on success and
//! `{"ok": false, "code": "<ServiceError code>", "error": "..."}` on
//! failure. The `results` payload contains only deterministic content
//! (trial keys, digests, metrics, rendered text in enumeration order),
//! which is what makes cache-served results byte-identical to a fresh
//! run; execution metadata (timings, cached counts) lives in `status`.
//!
//! Both ends set `TCP_NODELAY`: every frame is one small write that
//! the peer answers, the pattern where Nagle's algorithm and delayed
//! ACKs stall each exchange by tens of ms.

use std::io::BufRead;
use std::net::TcpStream;

use unxpec_telemetry::json::{self, escape, Value};

use crate::error::ServiceError;

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// The bounded reader's default frame limit. Specs are a few hundred
/// bytes and result documents a few hundred KiB at paper scale; 1 MiB
/// leaves an order of magnitude of headroom while keeping the worst
/// case a hostile peer can make either side buffer strictly bounded.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Opens a protocol connection to `addr` (e.g. `127.0.0.1:9733`) with
/// `TCP_NODELAY` set, so a request frame leaves at once instead of
/// waiting for the ACK of the previous one.
pub(crate) fn connect(addr: &str) -> Result<TcpStream, ServiceError> {
    let io = |e: std::io::Error| ServiceError::Io(e.to_string());
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    Ok(stream)
}

/// Reads one `\n`-terminated frame from `reader`, refusing to buffer
/// more than `limit` bytes.
///
/// * clean EOF at a frame boundary → `Ok(None)`;
/// * EOF inside an unterminated frame (the peer died, or a chaos fault
///   cut the line mid-frame) → typed [`ServiceError::FrameTruncated`];
/// * more than `limit` bytes without a newline → typed
///   [`ServiceError::FrameTooLarge`], raised *while* buffering, so a
///   hostile peer cannot make the reader hold unbounded memory.
///
/// Invalid UTF-8 is replaced rather than fatal: the JSON parse that
/// follows gives the garbled frame a typed `parse` error of its own.
pub fn read_frame(reader: &mut impl BufRead, limit: usize) -> Result<Option<String>, ServiceError> {
    let mut frame: Vec<u8> = Vec::new();
    loop {
        let chunk = reader
            .fill_buf()
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        if chunk.is_empty() {
            if frame.is_empty() {
                return Ok(None);
            }
            return Err(ServiceError::FrameTruncated { got: frame.len() });
        }
        if let Some(newline) = chunk.iter().position(|&b| b == b'\n') {
            frame.extend_from_slice(&chunk[..newline]);
            reader.consume(newline + 1);
            if frame.len() > limit {
                return Err(ServiceError::FrameTooLarge {
                    limit,
                    got: frame.len(),
                });
            }
            return Ok(Some(String::from_utf8_lossy(&frame).into_owned()));
        }
        frame.extend_from_slice(chunk);
        let consumed = chunk.len();
        reader.consume(consumed);
        if frame.len() > limit {
            return Err(ServiceError::FrameTooLarge {
                limit,
                got: frame.len(),
            });
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a sweep: the spec is the harness's `key=value` text.
    Submit {
        /// Tenant the job is accounted to (fair-share scheduling key).
        tenant: String,
        /// `SweepSpec::parse` input.
        spec: String,
    },
    /// Job progress and execution metadata.
    Status {
        /// Job id as returned by submit.
        job: String,
    },
    /// Deterministic result payload for a finished job.
    Results {
        /// Job id as returned by submit.
        job: String,
    },
    /// Per-trial events until the job finishes, starting from a
    /// sequence number so a reconnecting client can replay exactly the
    /// events it missed.
    Stream {
        /// Job id as returned by submit.
        job: String,
        /// First event sequence number to send (0 = from the start).
        from: u64,
    },
    /// Cancel a job's pending trials.
    Cancel {
        /// Job id as returned by submit.
        job: String,
    },
}

fn field<'a>(doc: &'a Value, name: &str) -> Result<&'a str, ServiceError> {
    doc.get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| ServiceError::Parse(format!("request missing string field {name:?}")))
}

/// Parses one request line, enforcing the protocol version first.
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let doc = json::parse(line).map_err(ServiceError::Parse)?;
    let got = doc
        .get("v")
        .and_then(Value::as_u64)
        .ok_or_else(|| ServiceError::Parse("request missing version field \"v\"".to_string()))?;
    if got != u64::from(PROTOCOL_VERSION) {
        return Err(ServiceError::Version {
            expected: PROTOCOL_VERSION,
            got,
        });
    }
    let op = field(&doc, "op")?;
    match op {
        "submit" => Ok(Request::Submit {
            tenant: field(&doc, "tenant")?.to_string(),
            spec: field(&doc, "spec")?.to_string(),
        }),
        "status" => Ok(Request::Status {
            job: field(&doc, "job")?.to_string(),
        }),
        "results" => Ok(Request::Results {
            job: field(&doc, "job")?.to_string(),
        }),
        "stream" => Ok(Request::Stream {
            job: field(&doc, "job")?.to_string(),
            // Absent on pre-resume clients: replay from the start.
            from: doc.get("from").and_then(Value::as_u64).unwrap_or(0),
        }),
        "cancel" => Ok(Request::Cancel {
            job: field(&doc, "job")?.to_string(),
        }),
        other => Err(ServiceError::UnknownOp(other.to_string())),
    }
}

/// Renders a request line (the client side of [`parse_request`]).
pub fn render_request(request: &Request) -> String {
    match request {
        Request::Submit { tenant, spec } => format!(
            "{{\"v\": {PROTOCOL_VERSION}, \"op\": \"submit\", \"tenant\": \"{}\", \"spec\": \"{}\"}}\n",
            escape(tenant),
            escape(spec)
        ),
        Request::Status { job } => op_line("status", job),
        Request::Results { job } => op_line("results", job),
        Request::Stream { job, from } => format!(
            "{{\"v\": {PROTOCOL_VERSION}, \"op\": \"stream\", \"job\": \"{}\", \"from\": {from}}}\n",
            escape(job)
        ),
        Request::Cancel { job } => op_line("cancel", job),
    }
}

fn op_line(op: &str, job: &str) -> String {
    format!(
        "{{\"v\": {PROTOCOL_VERSION}, \"op\": \"{op}\", \"job\": \"{}\"}}\n",
        escape(job)
    )
}

/// The error-response line for `error`. Beyond the stable `code` and
/// the human-readable `error` text, structured variants carry their
/// fields as top-level JSON values so the client can reconstruct the
/// *typed* error — an `Overloaded` client honours `retry_after_ms`
/// without scraping it out of prose, and a version mismatch reports
/// both versions on both ends.
pub fn error_response(error: &ServiceError) -> String {
    let mut extra = String::new();
    match error {
        ServiceError::UnknownJob(job) | ServiceError::NotFinished(job) => {
            extra = format!(", \"job\": \"{}\"", escape(job));
        }
        ServiceError::WaitTimeout { job, waited_ms } => {
            extra = format!(", \"job\": \"{}\", \"waited_ms\": {waited_ms}", escape(job));
        }
        ServiceError::Version { expected, got } => {
            extra = format!(", \"expected\": {expected}, \"got\": {got}");
        }
        ServiceError::FrameTooLarge { limit, got } => {
            extra = format!(", \"limit\": {limit}, \"got\": {got}");
        }
        ServiceError::FrameTruncated { got } => {
            extra = format!(", \"got\": {got}");
        }
        ServiceError::Overloaded {
            retry_after_ms,
            reason,
        } => {
            extra = format!(
                ", \"retry_after_ms\": {retry_after_ms}, \"reason\": \"{}\"",
                escape(reason)
            );
        }
        _ => {}
    }
    format!(
        "{{\"ok\": false, \"code\": \"{}\", \"error\": \"{}\"{extra}}}\n",
        error.code(),
        escape(&error.to_string())
    )
}

/// Rebuilds the typed [`ServiceError`] from an error response's code
/// and structured fields — the client-side inverse of
/// [`error_response`]. Codes without a structured mapping (and codes
/// from future servers) degrade to [`ServiceError::Remote`].
fn typed_remote_error(doc: &Value) -> ServiceError {
    let code = doc.get("code").and_then(Value::as_str).unwrap_or("remote");
    let message = doc
        .get("error")
        .and_then(Value::as_str)
        .unwrap_or("unspecified failure");
    let str_field = |name: &str| {
        doc.get(name)
            .and_then(Value::as_str)
            .unwrap_or(message)
            .to_string()
    };
    let num_field = |name: &str| doc.get(name).and_then(Value::as_u64).unwrap_or(0);
    match code {
        "unknown-job" => ServiceError::UnknownJob(str_field("job")),
        "not-finished" => ServiceError::NotFinished(str_field("job")),
        "wait-timeout" => ServiceError::WaitTimeout {
            job: str_field("job"),
            waited_ms: num_field("waited_ms"),
        },
        "version" => ServiceError::Version {
            expected: num_field("expected") as u32,
            got: num_field("got"),
        },
        "frame-too-large" => ServiceError::FrameTooLarge {
            limit: num_field("limit") as usize,
            got: num_field("got") as usize,
        },
        "frame-truncated" => ServiceError::FrameTruncated {
            got: num_field("got") as usize,
        },
        "overloaded" => ServiceError::Overloaded {
            retry_after_ms: num_field("retry_after_ms"),
            reason: str_field("reason"),
        },
        "spec" => ServiceError::Spec(message.to_string()),
        "parse" => ServiceError::Parse(message.to_string()),
        _ => ServiceError::Remote(format!("[{code}] {message}")),
    }
}

/// Parses one response line; `{"ok": false}` becomes the typed
/// [`ServiceError`] the server raised (reconstructed from the response's
/// structured fields), falling back to [`ServiceError::Remote`] for
/// codes this build doesn't know.
pub fn parse_response(line: &str) -> Result<Value, ServiceError> {
    let doc = json::parse(line).map_err(ServiceError::Parse)?;
    match doc.get("ok") {
        Some(Value::Bool(true)) => Ok(doc),
        Some(Value::Bool(false)) => Err(typed_remote_error(&doc)),
        _ => Ok(doc), // stream events carry no "ok" field
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit {
                tenant: "alice".into(),
                spec: "scale=quick\nexperiments=timing".into(),
            },
            Request::Status { job: "j1".into() },
            Request::Results { job: "j2".into() },
            Request::Stream {
                job: "j3".into(),
                from: 0,
            },
            Request::Stream {
                job: "j3".into(),
                from: 17,
            },
            Request::Cancel { job: "j4".into() },
        ];
        for req in reqs {
            let line = render_request(&req);
            assert_eq!(parse_request(line.trim_end()).expect("parse"), req);
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let err = parse_request("{\"v\": 2, \"op\": \"status\", \"job\": \"j1\"}")
            .expect_err("must reject");
        assert_eq!(err.code(), "version");
        assert!(matches!(
            err,
            ServiceError::Version {
                expected: 1,
                got: 2
            }
        ));
    }

    #[test]
    fn garbage_and_unknown_ops_are_typed() {
        assert_eq!(
            parse_request("not json").expect_err("parse").code(),
            "parse"
        );
        assert_eq!(
            parse_request("{\"v\": 1, \"op\": \"frobnicate\"}")
                .expect_err("op")
                .code(),
            "unknown-op"
        );
        assert_eq!(
            parse_request("{\"v\": 1, \"op\": \"submit\", \"tenant\": \"t\"}")
                .expect_err("missing spec")
                .code(),
            "parse"
        );
    }

    #[test]
    fn error_responses_reconstruct_typed_errors() {
        let errors = [
            ServiceError::UnknownJob("j9".into()),
            ServiceError::NotFinished("j2".into()),
            ServiceError::WaitTimeout {
                job: "j3".into(),
                waited_ms: 450,
            },
            ServiceError::Version {
                expected: 1,
                got: 7,
            },
            ServiceError::FrameTooLarge {
                limit: 1 << 20,
                got: (1 << 20) + 9,
            },
            ServiceError::FrameTruncated { got: 33 },
            ServiceError::Overloaded {
                retry_after_ms: 250,
                reason: "tenant".into(),
            },
        ];
        for original in errors {
            let line = error_response(&original);
            let rebuilt = parse_response(line.trim_end()).expect_err("error response");
            assert_eq!(
                rebuilt, original,
                "round trip must preserve the typed error: {line:?}"
            );
        }
    }

    #[test]
    fn version_mismatch_response_reports_both_versions() {
        let line = error_response(&ServiceError::Version {
            expected: 1,
            got: 9,
        });
        assert!(line.contains("\"expected\": 1"));
        assert!(line.contains("\"got\": 9"));
        let text = parse_response(line.trim_end())
            .expect_err("version")
            .to_string();
        assert!(text.contains("v9") && text.contains("v1"), "{text}");
    }

    #[test]
    fn unknown_codes_degrade_to_remote() {
        let err = parse_response(
            "{\"ok\": false, \"code\": \"from-the-future\", \"error\": \"no idea\"}",
        )
        .expect_err("remote");
        assert_eq!(err.code(), "remote");
        assert!(err.to_string().contains("from-the-future"));
    }

    #[test]
    fn read_frame_returns_whole_lines_and_clean_eof() {
        let mut reader = std::io::BufReader::new("{\"a\": 1}\n{\"b\": 2}\n".as_bytes());
        assert_eq!(
            read_frame(&mut reader, 64).expect("frame"),
            Some("{\"a\": 1}".to_string())
        );
        assert_eq!(
            read_frame(&mut reader, 64).expect("frame"),
            Some("{\"b\": 2}".to_string())
        );
        assert_eq!(read_frame(&mut reader, 64).expect("eof"), None);
    }

    #[test]
    fn read_frame_bounds_are_typed() {
        let mut oversized = std::io::BufReader::new("xxxxxxxxxx\n".as_bytes());
        let err = read_frame(&mut oversized, 4).expect_err("too large");
        assert_eq!(err.code(), "frame-too-large");
        assert!(matches!(err, ServiceError::FrameTooLarge { limit: 4, .. }));

        let mut torn = std::io::BufReader::new("{\"op\": \"subm".as_bytes());
        let err = read_frame(&mut torn, 64).expect_err("truncated");
        assert_eq!(err.code(), "frame-truncated");
        assert!(matches!(err, ServiceError::FrameTruncated { got: 12 }));
    }

    #[test]
    fn read_frame_refuses_unbounded_buffering_mid_frame() {
        // No newline at all and far more bytes than the limit: the
        // reader must give up while buffering, not after.
        let endless = vec![b'z'; 4096];
        let mut reader = std::io::BufReader::new(&endless[..]);
        let err = read_frame(&mut reader, 128).expect_err("bounded");
        assert!(matches!(err, ServiceError::FrameTooLarge { limit: 128, got } if got <= 4096+128));
    }
}
