//! The long-running multi-tenant sweep service (see `docs/service.md`).
//!
//! ```text
//! serve [--addr HOST:PORT] [--cache-dir DIR] [--cache-max-bytes N]
//!       [--journal FILE] [--jobs N] [--retries N] [--deadline-ms N]
//!       [--backoff-ms N] [--quarantine-after N] [--max-tenant-inflight N]
//!       [--max-open-jobs N] [--max-pending-bytes N] [--max-tenant-jobs N]
//!       [--retry-after-ms N] [--drain-timeout-ms N]
//!       [--chaos-listen ADDR] [--chaos-seed N] [--chaos-delay N]
//!       [--chaos-split N] [--chaos-truncate N] [--chaos-garble N]
//!       [--chaos-sever N] [--chaos-max-delay-ms N]
//!       [--serve-metrics ADDR] [--once]
//! ```
//!
//! Clients speak the line-delimited JSON protocol on `--addr`
//! (default `127.0.0.1:9733`; port 0 picks an ephemeral port, printed
//! on startup). With `--cache-dir`, every trial result is persisted
//! under its cell digest and repeated cells are served from disk —
//! byte-identical to a fresh run, across restarts. `--cache-max-bytes`
//! bounds the cache with LRU eviction (0 = unbounded).
//!
//! **Crash safety**: `--journal FILE` write-ahead-journals every
//! accepted submission, per-cell completion, and cancel. On restart
//! the journal replays: jobs resume under their original ids, finished
//! cells resolve through the cache, and only unfinished cells re-run —
//! a `kill -9` costs zero completed trials (`docs/service.md`,
//! "Crash recovery").
//!
//! **Backpressure**: `--max-open-jobs`, `--max-pending-bytes`, and
//! `--max-tenant-jobs` bound admitted work; a submission over budget
//! is refused with the typed `overloaded` error carrying
//! `--retry-after-ms` as the client's backoff hint. On SIGTERM/SIGINT
//! the server drains gracefully: it stops admitting, waits up to
//! `--drain-timeout-ms` (default 30 s) for in-flight jobs (anything
//! unfinished is already journaled for the next lifetime), and exits 0.
//!
//! **Chaos**: `--chaos-listen` starts the deterministic network-chaos
//! proxy on a second address, forwarding to `--addr` while injecting
//! seed-derived frame faults (`--chaos-delay`/`-split`/`-truncate`/
//! `-garble`/`-sever`, each in permille).
//!
//! `--serve-metrics` exposes `service.jobs.*`, `service.cache.*`,
//! `service.journal.*`, `service.admission.*`, and per-tenant
//! queue-latency histograms at `/metrics`. `--once` exits after the
//! first idle moment with at least one job served (CI smoke mode);
//! without it the server runs until killed or drained.
//!
//! Exit codes: 0 clean (or drained) shutdown, 2 on usage or bind
//! errors.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use unxpec::telemetry::{MetricsHub, MetricsServer};
use unxpec_harness::{default_jobs, Registry};
use unxpec_service::{CacheConfig, ChaosConfig, ChaosProxy, Service, ServiceConfig, TcpFront};

fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs an integer, got {value:?}");
        std::process::exit(2);
    })
}

/// Set by the SIGTERM/SIGINT handler; polled by the serve loops. The
/// handler itself only flips the atomic — everything else (drain,
/// journal flush, exit) happens on the main thread.
static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn request_drain(_signum: i32) {
    DRAIN_REQUESTED.store(true, Ordering::SeqCst);
}

/// Installs the drain handler for SIGTERM (15) and SIGINT (2) via the
/// C library's `signal` — the vendored stub crates have no libc crate,
/// but the symbol itself is always there on the platforms we run on.
fn install_drain_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = request_drain as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

fn main() {
    let mut addr = "127.0.0.1:9733".to_string();
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_max_bytes: u64 = 0;
    let mut serve_metrics: Option<String> = None;
    let mut once = false;
    let mut drain_timeout_ms: u64 = 30_000;
    let mut chaos_listen: Option<String> = None;
    let mut chaos = ChaosConfig::default();
    let mut config = ServiceConfig {
        jobs: default_jobs(),
        ..ServiceConfig::default()
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--once" {
            once = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| {
            eprintln!("{arg} needs an argument");
            std::process::exit(2);
        });
        match arg.as_str() {
            "--addr" => addr = value,
            "--cache-dir" => cache_dir = Some(std::path::PathBuf::from(value)),
            "--cache-max-bytes" => cache_max_bytes = parsed(&arg, &value),
            "--jobs" => config.jobs = parsed(&arg, &value),
            "--retries" => config.retries = parsed(&arg, &value),
            "--deadline-ms" => config.deadline_ms = parsed(&arg, &value),
            "--backoff-ms" => config.backoff_ms = parsed(&arg, &value),
            "--quarantine-after" => config.quarantine_after = parsed(&arg, &value),
            "--max-tenant-inflight" => config.max_tenant_inflight = parsed(&arg, &value),
            "--journal" => config.journal = Some(std::path::PathBuf::from(value)),
            "--max-open-jobs" => config.admission.max_open_jobs = parsed(&arg, &value),
            "--max-pending-bytes" => config.admission.max_pending_bytes = parsed(&arg, &value),
            "--max-tenant-jobs" => config.admission.max_tenant_open_jobs = parsed(&arg, &value),
            "--retry-after-ms" => config.admission.retry_after_ms = parsed(&arg, &value),
            "--drain-timeout-ms" => drain_timeout_ms = parsed(&arg, &value),
            "--chaos-listen" => chaos_listen = Some(value),
            "--chaos-seed" => chaos.seed = parsed(&arg, &value),
            "--chaos-delay" => chaos.delay_permille = parsed(&arg, &value),
            "--chaos-split" => chaos.split_permille = parsed(&arg, &value),
            "--chaos-truncate" => chaos.truncate_permille = parsed(&arg, &value),
            "--chaos-garble" => chaos.garble_permille = parsed(&arg, &value),
            "--chaos-sever" => chaos.sever_permille = parsed(&arg, &value),
            "--chaos-max-delay-ms" => chaos.max_delay_ms = parsed(&arg, &value),
            "--serve-metrics" => serve_metrics = Some(value),
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    config.cache = cache_dir.map(|dir| CacheConfig {
        dir,
        max_bytes: cache_max_bytes,
    });

    let mut metrics_server = None;
    if let Some(metrics_addr) = &serve_metrics {
        let hub = MetricsHub::new();
        match MetricsServer::serve(metrics_addr, hub.clone()) {
            Ok(s) => {
                eprintln!("serving live metrics on http://{}/metrics", s.addr());
                config.hub = Some(hub);
                metrics_server = Some(s);
            }
            Err(e) => {
                eprintln!("--serve-metrics {metrics_addr}: {e}");
                std::process::exit(2);
            }
        }
    }

    let mut service = match Service::new(Registry::builtin(), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("service: {e}");
            std::process::exit(2);
        }
    };
    service.start_worker();
    let service = Arc::new(service);

    let front = match TcpFront::start(Arc::clone(&service), &addr) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!("sweep service listening on {}", front.addr());

    let mut chaos_proxy = None;
    if let Some(listen) = &chaos_listen {
        let upstream = front.addr().to_string();
        match ChaosProxy::start(listen, &upstream, chaos) {
            Ok(proxy) => {
                eprintln!(
                    "chaos proxy on {} -> {upstream} (seed {:#x})",
                    proxy.addr(),
                    chaos.seed
                );
                chaos_proxy = Some(proxy);
            }
            Err(e) => {
                eprintln!("--chaos-listen {listen}: {e}");
                std::process::exit(2);
            }
        }
    }

    install_drain_handler();

    if once {
        // CI smoke mode: wait until at least one job was submitted and
        // everything submitted so far has finished, then exit cleanly.
        loop {
            std::thread::sleep(Duration::from_millis(100));
            if DRAIN_REQUESTED.load(Ordering::SeqCst) || service_idle(&service) {
                break;
            }
        }
    } else {
        // Run until SIGTERM/SIGINT requests a drain.
        while !DRAIN_REQUESTED.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    // Graceful drain: stop admitting, give in-flight jobs a bounded
    // window to finish (everything unfinished is already journaled for
    // the next lifetime), then tear the listeners down and exit 0.
    service.begin_drain();
    let drained = service.drain(Duration::from_millis(drain_timeout_ms));
    eprintln!(
        "drain {} after up to {drain_timeout_ms} ms",
        if drained {
            "complete"
        } else {
            "timed out (remainder journaled)"
        }
    );
    drop(front);
    drop(chaos_proxy);
    if let Some(s) = metrics_server.as_mut() {
        s.shutdown();
    }
}

/// Whether at least one job exists and none are open (smoke-mode stop
/// condition). Uses only public service surface: probing job ids in
/// submission order until one is unknown.
fn service_idle(service: &Service) -> bool {
    let mut any = false;
    for n in 1u64.. {
        match service.status(&format!("j{n}")) {
            Ok(status) => {
                any = true;
                if !status.finished() {
                    return false;
                }
            }
            Err(_) => break,
        }
    }
    any
}
