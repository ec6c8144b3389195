//! A deterministic network-chaos proxy for the sweep protocol.
//!
//! [`ChaosProxy`] sits between a client and the server, forwarding
//! line-delimited JSON frames both ways and injecting faults — delays,
//! frame splits, truncations, byte garbling, and connection severs —
//! decided *entirely* by a seed: fault `k` of direction `d` on
//! connection `c` is a pure function of
//! `indexed(seed, "chaos:<d>:<c>", k)`, never of wall-clock timing.
//! Run the same client workload through the same seed twice and the
//! same frames are damaged the same way, which is what lets the chaos
//! test matrix assert *byte-identical* sweep documents under every
//! fault kind instead of merely "it didn't crash".
//!
//! The proxy is frame-aware (it buffers up to a newline before rolling
//! for a fault) so damage lands on protocol-meaningful boundaries:
//! a truncation is a cut mid-frame, a split is a flush mid-frame, a
//! garble stamps a detectably-invalid byte over the frame opener (see
//! [`ChaosConfig::GARBLE_BYTE`]). Severing closes both stream halves,
//! so the peer observes a dead connection, exactly like a crashed
//! network path.
//!
//! The faults the proxy injects are precisely what the robustness
//! machinery claims to absorb: truncations exercise the bounded frame
//! reader's typed `FrameTruncated`, garbles exercise the client's
//! transport-damage reclassification of parse failures, severs
//! exercise reconnect + idempotent re-submit + sequence-resumed
//! streams, and delays exercise nothing but patience.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use unxpec::experiments::seeding::indexed;

use crate::error::ServiceError;
use crate::protocol;

/// Per-frame fault probabilities, in permille (0–1000). The rolls are
/// evaluated in declaration order against one uniform draw, so the
/// sum must stay ≤ 1000; anything left over is a clean forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Root seed every fault decision derives from.
    pub seed: u64,
    /// Chance a frame is delayed by up to [`ChaosConfig::max_delay_ms`].
    pub delay_permille: u16,
    /// Chance a frame is written in two flushes (partial-read torture).
    pub split_permille: u16,
    /// Chance a frame is cut mid-line and the connection severed.
    pub truncate_permille: u16,
    /// Chance the frame opener is corrupted before forwarding.
    pub garble_permille: u16,
    /// Chance the connection is severed before the frame is sent.
    pub sever_permille: u16,
    /// Upper bound for injected delays, in milliseconds.
    pub max_delay_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            delay_permille: 0,
            split_permille: 0,
            truncate_permille: 0,
            garble_permille: 0,
            sever_permille: 0,
            max_delay_ms: 20,
        }
    }
}

/// What the proxy decided to do to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Forward untouched.
    Clean,
    /// Forward after a bounded, seed-chosen delay.
    Delay,
    /// Forward in two separately flushed chunks.
    Split,
    /// Forward a prefix of the frame, then sever the connection.
    Truncate,
    /// Corrupt the frame's opening byte, then forward it whole.
    Garble,
    /// Sever the connection without forwarding the frame.
    Sever,
}

impl FaultKind {
    /// Stable label (metrics, test matrix names).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Clean => "clean",
            FaultKind::Delay => "delay",
            FaultKind::Split => "split",
            FaultKind::Truncate => "truncate",
            FaultKind::Garble => "garble",
            FaultKind::Sever => "sever",
        }
    }
}

impl ChaosConfig {
    /// The deterministic fault decision for frame `frame` of stream
    /// `label` (e.g. `"chaos:c2s:0"`). Pure: same config, same label,
    /// same index → same fault, independent of timing or interleaving.
    pub fn decide(&self, label: &str, frame: u64) -> FaultKind {
        let roll = (indexed(self.seed, label, frame) % 1000) as u16;
        let mut bound = self.delay_permille;
        if roll < bound {
            return FaultKind::Delay;
        }
        bound = bound.saturating_add(self.split_permille);
        if roll < bound {
            return FaultKind::Split;
        }
        bound = bound.saturating_add(self.truncate_permille);
        if roll < bound {
            return FaultKind::Truncate;
        }
        bound = bound.saturating_add(self.garble_permille);
        if roll < bound {
            return FaultKind::Garble;
        }
        bound = bound.saturating_add(self.sever_permille);
        if roll < bound {
            return FaultKind::Sever;
        }
        FaultKind::Clean
    }

    /// The seed-chosen delay for a [`FaultKind::Delay`] on this frame.
    pub fn delay_for(&self, label: &str, frame: u64) -> Duration {
        let bound = self.max_delay_ms.max(1);
        Duration::from_millis(indexed(self.seed, label, frame.wrapping_add(0x5de1)) % bound)
    }

    /// The byte a [`FaultKind::Garble`] stamps over the frame's first
    /// position: 0xFE is invalid UTF-8 *and* can never open a JSON
    /// value, so a garbled frame always fails the peer's parse as a
    /// typed error. The proxy deliberately injects only *detectable*
    /// corruption — a checksum-less JSON protocol cannot survive a
    /// silent mid-payload bit flip that happens to stay valid JSON,
    /// and a chaos fault that could silently alter results would make
    /// the matrix's byte-identity assertion meaningless.
    pub const GARBLE_BYTE: u8 = 0xfe;

    /// How many bytes of the frame a [`FaultKind::Truncate`] lets
    /// through (modulo length).
    pub fn truncate_for(&self, label: &str, frame: u64) -> usize {
        indexed(self.seed, label, frame.wrapping_add(0x7c01)) as usize
    }
}

/// A running chaos proxy: one listener, one forwarding pair of threads
/// per accepted connection.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `listen` (port 0 for ephemeral) and forwards every
    /// connection to `upstream` under `config`'s fault streams.
    pub fn start(
        listen: &str,
        upstream: &str,
        config: ChaosConfig,
    ) -> Result<ChaosProxy, ServiceError> {
        let listener = TcpListener::bind(listen).map_err(|e| ServiceError::Bind {
            addr: listen.to_string(),
            error: e.to_string(),
        })?;
        let addr = listener.local_addr().map_err(|e| ServiceError::Bind {
            addr: listen.to_string(),
            error: e.to_string(),
        })?;
        let upstream = upstream.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let conn_counter = Arc::new(AtomicU64::new(0));
        let thread = std::thread::Builder::new()
            .name("chaos-acceptor".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = conn else { continue };
                    // Both legs without Nagle, like the service's own
                    // ends: the proxy must not add a stall they removed.
                    let server = client
                        .set_nodelay(true)
                        .ok()
                        .and_then(|()| protocol::connect(&upstream).ok());
                    let Some(server) = server else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    let conn_id = conn_counter.fetch_add(1, Ordering::SeqCst);
                    Self::pump_pair(client, server, config, conn_id);
                }
            })
            .map_err(|e| ServiceError::Accept(e.to_string()))?;
        Ok(ChaosProxy {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The proxy's listening address — point the client here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn pump_pair(client: TcpStream, server: TcpStream, config: ChaosConfig, conn_id: u64) {
        let pair = client.try_clone().ok().zip(server.try_clone().ok());
        let Some((client2, server2)) = pair else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return;
        };
        let c2s = format!("chaos:c2s:{conn_id}");
        let s2c = format!("chaos:s2c:{conn_id}");
        let _ = std::thread::Builder::new()
            .name("chaos-c2s".to_string())
            .spawn(move || Self::pump(client, server, config, c2s));
        let _ = std::thread::Builder::new()
            .name("chaos-s2c".to_string())
            .spawn(move || Self::pump(server2, client2, config, s2c));
    }

    /// Forwards frames from `from` to `to`, one fault roll per frame.
    /// Returns when either side dies or a fault severs the path; both
    /// stream halves are shut down on the way out so the peers observe
    /// a clean kill rather than a half-open socket.
    fn pump(from: TcpStream, mut to: TcpStream, config: ChaosConfig, label: String) {
        let mut reader = BufReader::new(match from.try_clone() {
            Ok(r) => r,
            Err(_) => return,
        });
        let mut frame_index: u64 = 0;
        loop {
            let mut frame: Vec<u8> = Vec::new();
            match reader.read_until(b'\n', &mut frame) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let fault = config.decide(&label, frame_index);
            let survived = match fault {
                FaultKind::Clean => to.write_all(&frame).is_ok(),
                FaultKind::Delay => {
                    std::thread::sleep(config.delay_for(&label, frame_index));
                    to.write_all(&frame).is_ok()
                }
                FaultKind::Split => {
                    let cut = (frame.len() / 2).max(1).min(frame.len());
                    to.write_all(&frame[..cut]).is_ok()
                        && to.flush().is_ok()
                        && to.write_all(&frame[cut..]).is_ok()
                }
                FaultKind::Truncate => {
                    // Cut strictly inside the frame (never the whole
                    // line, which would be a clean forward).
                    let keep = if frame.len() > 1 {
                        config.truncate_for(&label, frame_index) % (frame.len() - 1)
                    } else {
                        0
                    };
                    let _ = to.write_all(&frame[..keep]);
                    let _ = to.flush();
                    false
                }
                FaultKind::Garble => {
                    // Stamp the detectably-invalid byte over the frame
                    // opener (never the trailing newline) — the frame
                    // still parses as a *frame*, never as valid JSON.
                    if frame.len() > 1 {
                        frame[0] = ChaosConfig::GARBLE_BYTE;
                    }
                    to.write_all(&frame).is_ok()
                }
                FaultKind::Sever => false,
            };
            frame_index += 1;
            if !survived {
                break;
            }
        }
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    }

    /// Stops accepting. Existing pumps die with their connections.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    fn lossy(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            delay_permille: 100,
            split_permille: 100,
            truncate_permille: 100,
            garble_permille: 100,
            sever_permille: 100,
            max_delay_ms: 5,
        }
    }

    #[test]
    fn decisions_are_deterministic_and_label_scoped() {
        let config = lossy(42);
        for frame in 0..64 {
            assert_eq!(
                config.decide("chaos:c2s:0", frame),
                config.decide("chaos:c2s:0", frame),
                "same stream, same frame, same fault"
            );
        }
        let a: Vec<FaultKind> = (0..64).map(|f| config.decide("chaos:c2s:0", f)).collect();
        let b: Vec<FaultKind> = (0..64).map(|f| config.decide("chaos:s2c:0", f)).collect();
        let c: Vec<FaultKind> = (0..64).map(|f| config.decide("chaos:c2s:1", f)).collect();
        assert_ne!(a, b, "directions draw from independent streams");
        assert_ne!(a, c, "connections draw from independent streams");
        let other = lossy(43);
        let d: Vec<FaultKind> = (0..64).map(|f| other.decide("chaos:c2s:0", f)).collect();
        assert_ne!(a, d, "the seed moves every stream");
    }

    #[test]
    fn every_fault_kind_is_reachable_at_these_rates() {
        let config = lossy(7);
        let mut seen = std::collections::HashSet::new();
        for conn in 0..8 {
            for frame in 0..256 {
                seen.insert(config.decide(&format!("chaos:c2s:{conn}"), frame));
            }
        }
        for kind in [
            FaultKind::Clean,
            FaultKind::Delay,
            FaultKind::Split,
            FaultKind::Truncate,
            FaultKind::Garble,
            FaultKind::Sever,
        ] {
            assert!(seen.contains(&kind), "never rolled {:?}", kind.label());
        }
    }

    #[test]
    fn zero_rates_mean_clean_passthrough() {
        let config = ChaosConfig {
            seed: 9,
            ..ChaosConfig::default()
        };
        for frame in 0..128 {
            assert_eq!(config.decide("chaos:c2s:0", frame), FaultKind::Clean);
        }
    }

    #[test]
    fn garbled_frames_can_never_be_silently_accepted() {
        // The stamped opener must fail JSON parsing no matter what the
        // original frame was — otherwise a garble could silently alter
        // a results document instead of surfacing as a typed error.
        for original in ["{\"ok\": true}", "[1, 2]", "\"text\"", "12345"] {
            let mut frame = original.as_bytes().to_vec();
            frame.push(b'\n');
            frame[0] = ChaosConfig::GARBLE_BYTE;
            let line = String::from_utf8_lossy(&frame);
            assert!(
                unxpec_telemetry::json::parse(line.trim_end()).is_err(),
                "garbled frame parsed as JSON: {line:?}"
            );
        }
    }
}
