//! Parallel sharded sweeps over the experiment grid, with
//! checkpoint/resume and fault containment (see `docs/harness.md`).
//!
//! ```text
//! sweep [--experiments a,b,..] [--variants x,y] [--scale quick|paper]
//!       [--seeds N] [--root-seed S] [--spec <file>]
//!       [--jobs N] [--retries N] [--state-dir <dir>]
//!       [--deadline-ms N] [--backoff-ms N] [--quarantine-after N]
//!       [--diagnostics-dir <dir>] [--serve-metrics ADDR]
//!       [--self-profile-ms N] [--profile-out <file>]
//!       [--trace-out <file>] [--metrics-out <file>] [--list]
//! ```
//!
//! The identity flags (`--experiments`, `--variants`, `--scale`,
//! `--seeds`, `--root-seed`, or a `--spec` key=value file they
//! override) define *what* runs; the remaining flags only change
//! *how*. Per-trial seeds derive from the root seed and the trial's
//! identity, so any `--jobs` value produces the same aggregates and
//! the same aggregate digest. The sweep runs in process on the service
//! scheduler (`unxpec_service::run_sweep`). With `--state-dir`, that
//! scheduler keeps its job journal (`journal.log`) and its result
//! cache (`cache/`) there: each finished trial is cached and
//! journaled, and rerunning against the same directory serves every
//! finished trial from it, reusing shared cells even when the spec
//! grew or changed. `serve --cache-dir <dir>/cache` serves the same
//! cells to remote clients.
//! `--deadline-ms` turns slow trials into typed timeouts,
//! `--backoff-ms` paces panic retries, `--quarantine-after` benches
//! cells that keep failing across resumes, and `--diagnostics-dir`
//! writes one reproduction bundle per failing trial (see
//! `docs/fault_injection.md`). `--trace-out` writes
//! per-trial wall-clock spans as Chrome/Perfetto trace JSON (one track
//! per worker) and `--metrics-out` the pool counters (`.csv` extension
//! selects CSV, anything else JSON). `--serve-metrics ADDR` (e.g.
//! `127.0.0.1:9184`) exposes live progress at `/metrics` (Prometheus
//! text) and `/metrics.json` while the sweep runs — scraping never
//! perturbs results. `--self-profile-ms N` samples what every worker
//! is doing each N ms; `--profile-out` writes the resulting wall-clock
//! profile as collapsed stacks (flamegraph.pl / speedscope input), and
//! the ASCII tree prints with the report (see
//! `docs/observability.md`).
//!
//! Exit codes: 0 clean, 1 when any trial poisoned, timed out, or was
//! quarantined, 2 on usage or I/O errors.

use std::path::PathBuf;

use unxpec::experiments::Scale;
use unxpec::telemetry::{MetricsHub, MetricsServer};
use unxpec_harness::{default_jobs, spec::parse_seed, Registry, SweepOptions, SweepSpec};
use unxpec_service::run_sweep;

fn main() {
    let registry = Registry::builtin();
    let mut spec = SweepSpec::quick();
    let mut opts = SweepOptions {
        jobs: default_jobs(),
        retries: 1,
        ..SweepOptions::default()
    };
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut serve_metrics: Option<String> = None;
    let mut profile_out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--list" {
            for (name, variants) in registry.listing() {
                println!("{name}: {}", variants.join(", "));
            }
            return;
        }
        let value = args.next().unwrap_or_else(|| {
            eprintln!("{arg} needs an argument");
            std::process::exit(2);
        });
        match arg.as_str() {
            "--spec" => {
                let text = std::fs::read_to_string(&value).unwrap_or_else(|e| {
                    eprintln!("read {value}: {e}");
                    std::process::exit(2);
                });
                spec = SweepSpec::parse(&text).unwrap_or_else(|e| {
                    eprintln!("{value}: {e}");
                    std::process::exit(2);
                });
            }
            "--experiments" => {
                spec.experiments = value.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--variants" => {
                spec.variants = Some(value.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--scale" => match value.as_str() {
                "quick" => {
                    spec.scale = Scale::quick();
                    spec.scale_name = "quick".to_string();
                }
                "paper" => {
                    spec.scale = Scale::paper();
                    spec.scale_name = "paper".to_string();
                }
                other => {
                    eprintln!("--scale must be quick or paper, got {other:?}");
                    std::process::exit(2);
                }
            },
            "--seeds" => {
                spec.seeds = value.parse().unwrap_or_else(|_| {
                    eprintln!("--seeds needs a positive integer, got {value:?}");
                    std::process::exit(2);
                });
            }
            "--root-seed" => {
                spec.root_seed = parse_seed(&value).unwrap_or_else(|| {
                    eprintln!("--root-seed needs a u64 (decimal or 0x hex), got {value:?}");
                    std::process::exit(2);
                });
            }
            "--jobs" => {
                opts.jobs = value.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs needs a positive integer, got {value:?}");
                    std::process::exit(2);
                });
            }
            "--retries" => {
                opts.retries = value.parse().unwrap_or_else(|_| {
                    eprintln!("--retries needs an integer, got {value:?}");
                    std::process::exit(2);
                });
            }
            "--deadline-ms" => {
                let ms: u64 = value.parse().unwrap_or_else(|_| {
                    eprintln!("--deadline-ms needs an integer, got {value:?}");
                    std::process::exit(2);
                });
                opts.deadline_ms = Some(ms);
            }
            "--backoff-ms" => {
                opts.backoff_ms = value.parse().unwrap_or_else(|_| {
                    eprintln!("--backoff-ms needs an integer, got {value:?}");
                    std::process::exit(2);
                });
            }
            "--quarantine-after" => {
                opts.quarantine_after = value.parse().unwrap_or_else(|_| {
                    eprintln!("--quarantine-after needs an integer, got {value:?}");
                    std::process::exit(2);
                });
            }
            "--diagnostics-dir" => opts.diagnostics_dir = Some(PathBuf::from(value)),
            "--state-dir" => opts.state_dir = Some(PathBuf::from(value)),
            "--serve-metrics" => serve_metrics = Some(value),
            "--self-profile-ms" => {
                let ms: u64 = value.parse().unwrap_or_else(|_| {
                    eprintln!("--self-profile-ms needs an integer, got {value:?}");
                    std::process::exit(2);
                });
                opts.self_profile_ms = Some(ms);
            }
            "--profile-out" => profile_out = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--metrics-out" => metrics_out = Some(PathBuf::from(value)),
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    // --profile-out implies sampling even if no interval was given.
    if profile_out.is_some() && opts.self_profile_ms.is_none() {
        opts.self_profile_ms = Some(5);
    }
    // Live exposition: bind before the sweep starts so a scraper can
    // watch from trial zero. The hub only ever sees harness-side
    // bookkeeping, so results stay byte-identical with it attached.
    let mut server = None;
    if let Some(addr) = &serve_metrics {
        let hub = MetricsHub::new();
        match MetricsServer::serve(addr, hub.clone()) {
            Ok(s) => {
                eprintln!("serving live metrics on http://{}/metrics", s.addr());
                opts.live = Some(hub);
                server = Some(s);
            }
            Err(e) => {
                eprintln!("--serve-metrics {addr}: {e}");
                std::process::exit(2);
            }
        }
    }

    let report = match run_sweep(&spec, registry, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(2);
        }
    };
    // Leave the endpoint up until after the final counters land, then
    // shut it down explicitly (Drop would too; this orders the log).
    if let Some(s) = server.as_mut() {
        s.shutdown();
    }
    print!("{report}");
    if let Some(profile) = &report.self_profile {
        print!("self-profile (sample counts):\n{}", profile.render_ascii());
        if let Some(path) = &profile_out {
            if let Err(e) = std::fs::write(path, profile.collapsed()) {
                eprintln!("write profile {}: {e}", path.display());
                std::process::exit(2);
            }
            println!("(wrote {})", path.display());
        }
    }
    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, report.chrome_trace()) {
            eprintln!("write trace {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("(wrote {})", path.display());
    }
    if let Some(path) = &metrics_out {
        let m = report.metrics_registry();
        let body = if path.extension().is_some_and(|e| e == "csv") {
            m.to_csv()
        } else {
            m.to_json()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("write metrics {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("(wrote {})", path.display());
    }
    let failures = report.poisoned.len() + report.timed_out.len() + report.quarantined.len();
    if failures > 0 {
        eprintln!(
            "sweep finished with {} poisoned, {} timed-out, {} quarantined trial(s)",
            report.poisoned.len(),
            report.timed_out.len(),
            report.quarantined.len()
        );
        std::process::exit(1);
    }
}
