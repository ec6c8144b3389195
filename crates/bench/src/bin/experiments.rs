//! Regenerates every table and figure of the unXpec paper.
//!
//! ```text
//! experiments [--quick] [--jobs N] [--seed S] [--list]
//!             [--csv <dir>] [--svg <dir>] [--serve-metrics ADDR]
//!             [--trace-out <file>] [--metrics-out <file>] [<name>...]
//! ```
//!
//! With no names, runs everything. Names: table1, fig2, fig3, fig6,
//! fig7, fig8, fig9, fig10, fig11, rate, fig12, fig13, votes,
//! defense-costs, robustness, timeline, trace, triggers, workloads,
//! scorecard, ablations, all (`--list` prints them). `--quick` uses
//! reduced sample counts (CI-friendly); the default matches the
//! paper's sample sizes. `--jobs N` runs that many experiments
//! concurrently on the harness worker pool (default: available
//! parallelism; `--jobs 1` preserves the serial behavior exactly);
//! each experiment's output block still prints whole and in command
//! order because per-experiment seeds derive from the root `--seed`
//! and the experiment's *name*, never from execution order.
//! `--csv <dir>` writes raw data as CSV; `--svg <dir>` writes rendered
//! figures. `--trace-out <file>` writes the `trace` experiment's
//! Chrome/Perfetto trace-event JSON (open in `chrome://tracing` or
//! <https://ui.perfetto.dev>) and `--metrics-out <file>` its metrics
//! registry (`.csv` extension selects CSV, anything else JSON); either
//! flag adds `trace` to the run list if absent. `--serve-metrics ADDR`
//! exposes live run progress (`experiments.progress.*`, per-experiment
//! latency) at `/metrics` and `/metrics.json` while the batch runs —
//! see `docs/observability.md`. The sections themselves render in the
//! `unxpec_bench` library ([`unxpec_bench::run_one`]).

use std::path::PathBuf;

use unxpec::experiments::seeding::DEFAULT_ROOT_SEED;
use unxpec::telemetry::{MetricsHub, MetricsServer};
use unxpec_bench::{all_experiments, run_one, Options, EXPERIMENTS};
use unxpec_harness::{default_jobs, run_tasks_with, RunPolicy, TaskEvent, TaskOutcome};

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut names: Vec<String> = Vec::new();
    let mut quick = false;
    let mut jobs = default_jobs();
    let mut root_seed = DEFAULT_ROOT_SEED;
    let mut csv_dir = None;
    let mut svg_dir = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut serve_metrics: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--list" => {
                for name in EXPERIMENTS {
                    println!("{name}");
                }
                return;
            }
            "--jobs" | "--seed" | "--csv" | "--svg" | "--trace-out" | "--metrics-out"
            | "--serve-metrics" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("{arg} needs an argument");
                    std::process::exit(2);
                });
                match arg.as_str() {
                    "--jobs" => {
                        jobs = value.parse().unwrap_or_else(|_| {
                            eprintln!("--jobs needs a positive integer, got {value:?}");
                            std::process::exit(2);
                        });
                        if jobs == 0 {
                            eprintln!("--jobs must be >= 1");
                            std::process::exit(2);
                        }
                    }
                    "--seed" => {
                        root_seed = unxpec_harness::spec::parse_seed(&value).unwrap_or_else(|| {
                            eprintln!("--seed needs a u64 (decimal or 0x hex), got {value:?}");
                            std::process::exit(2);
                        });
                    }
                    "--csv" => csv_dir = Some(PathBuf::from(value)),
                    "--svg" => svg_dir = Some(PathBuf::from(value)),
                    "--trace-out" => trace_out = Some(PathBuf::from(value)),
                    "--serve-metrics" => serve_metrics = Some(value),
                    _ => metrics_out = Some(PathBuf::from(value)),
                }
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() || names.iter().any(|n| n == "all") {
        names = all_experiments();
    }
    for name in &names {
        if !EXPERIMENTS.contains(&name.as_str()) {
            eprintln!("unknown experiment {name:?}; known: {EXPERIMENTS:?}");
            std::process::exit(2);
        }
    }
    // The exporter flags imply the experiment that feeds them.
    if (trace_out.is_some() || metrics_out.is_some()) && !names.iter().any(|n| n == "trace") {
        names.push("trace".to_string());
    }
    for dir in [&csv_dir, &svg_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("create output dir {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let opts = Options {
        csv_dir,
        svg_dir,
        trace_out,
        metrics_out,
        ..Options::new(quick, root_seed)
    };

    // Live exposition: bound before the pool starts so a scraper can
    // watch from experiment zero. The hub only sees pool bookkeeping —
    // experiment output is untouched by it.
    let mut live: Option<MetricsHub> = None;
    let mut server = None;
    if let Some(addr) = &serve_metrics {
        let hub = MetricsHub::new();
        match MetricsServer::serve(addr, hub.clone()) {
            Ok(s) => {
                eprintln!("serving live metrics on http://{}/metrics", s.addr());
                hub.update(|m| {
                    m.set("experiments.progress.total", names.len() as u64);
                    m.set("experiments.progress.done", 0);
                    m.set("experiments.progress.jobs", jobs as u64);
                });
                live = Some(hub);
                server = Some(s);
            }
            Err(e) => {
                eprintln!("--serve-metrics {addr}: {e}");
                std::process::exit(2);
            }
        }
    }

    // Run the experiments on the harness pool. Each task renders into
    // its own buffer; with --jobs 1 blocks stream as they finish (the
    // pool runs inline, in order), otherwise they print afterwards in
    // command order — identical content either way, because every
    // experiment's seed comes from (root seed, name) alone.
    let serial = jobs == 1;
    let (outcomes, _, _) = run_tasks_with(
        jobs,
        names.len(),
        &RunPolicy::default(),
        |i| {
            let mut out = String::new();
            if let Err(e) = run_one(&names[i], &opts, &mut out) {
                eprintln!("{e}");
                std::process::exit(2);
            }
            out
        },
        |event| {
            let TaskEvent::Finished {
                index,
                outcome,
                timing,
                ..
            } = event
            else {
                return;
            };
            if let Some(hub) = &live {
                hub.update(|m| {
                    m.inc("experiments.progress.done", 1);
                    if matches!(outcome, TaskOutcome::Poisoned { .. }) {
                        m.inc("experiments.progress.poisoned", 1);
                    }
                    m.observe(
                        &format!("experiments.{}.latency_us", names[index]),
                        timing.dur_us,
                    );
                });
            }
            if serial {
                if let TaskOutcome::Done { value, .. } = outcome {
                    print!("{value}");
                }
            }
        },
    );
    if let Some(s) = server.as_mut() {
        s.shutdown();
    }
    let mut failed = false;
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            TaskOutcome::Done { value, .. } => {
                if !serial {
                    print!("{value}");
                }
            }
            TaskOutcome::Poisoned { error, .. } => {
                eprintln!("experiment {:?} panicked: {error}", names[i]);
                failed = true;
            }
            TaskOutcome::TimedOut { error, .. } => {
                eprintln!("experiment {:?} timed out: {error}", names[i]);
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
