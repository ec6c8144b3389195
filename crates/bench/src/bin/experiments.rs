//! Regenerates every table and figure of the unXpec paper.
//!
//! ```text
//! experiments [--quick] [--fast-forward] [--jobs N] [--seed S] [--list]
//!             [--csv <dir>] [--svg <dir>] [--serve-metrics ADDR]
//!             [--trace-out <file>] [--metrics-out <file>] [<name>...]
//! ```
//!
//! `--fast-forward` runs the workload-suite experiments (fig12,
//! defense-costs, workloads) on the two-speed fast-forward core; the
//! attack-channel experiments spend their cycles inside speculative
//! episodes, where the two-speed core is detailed by construction.
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
//! see `docs/observability.md`.

use std::fmt::Write as _;
use std::path::PathBuf;

use unxpec::cpu::ExecMode;
use unxpec::experiments::seeding::{self, DEFAULT_ROOT_SEED};
use unxpec::experiments::{
    ablations, defense_costs, leakage, overhead, pdf, rate, resolution, robustness, rollback,
    scorecard, secret_pattern, table1, timeline, trace, triggers, votes, workload_profile, Scale,
};
use unxpec::telemetry::{MetricsHub, MetricsServer};
use unxpec_bench::{timed_to, EXPERIMENTS};
use unxpec_harness::{default_jobs, run_tasks_with, RunPolicy, TaskEvent, TaskOutcome};

struct Options {
    scale: Scale,
    quick: bool,
    mode: ExecMode,
    root_seed: u64,
    csv_dir: Option<PathBuf>,
    svg_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut names: Vec<String> = Vec::new();
    let mut quick = false;
    let mut mode = ExecMode::Detailed;
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
            "--fast-forward" => mode = ExecMode::FastForward,
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
        names = EXPERIMENTS
            .iter()
            .filter(|&&n| n != "all")
            .map(|&n| n.to_string())
            .collect();
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
        scale: if quick {
            Scale::quick()
        } else {
            Scale::paper()
        },
        quick,
        mode,
        root_seed,
        csv_dir,
        svg_dir,
        trace_out,
        metrics_out,
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
            run_one(&names[i], &opts, &mut out);
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

fn write_csv(opts: &Options, out: &mut String, name: &str, csv: String) {
    if let Some(dir) = &opts.csv_dir {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("write csv {}: {e}", path.display());
            std::process::exit(2);
        }
        let _ = writeln!(out, "(wrote {})", path.display());
    }
}

fn write_svg(opts: &Options, out: &mut String, name: &str, svg: String) {
    if let Some(dir) = &opts.svg_dir {
        let path = dir.join(format!("{name}.svg"));
        if let Err(e) = std::fs::write(&path, svg) {
            eprintln!("write svg {}: {e}", path.display());
            std::process::exit(2);
        }
        let _ = writeln!(out, "(wrote {})", path.display());
    }
}

fn run_one(name: &str, opts: &Options, out: &mut String) {
    let scale = &opts.scale;
    // Each experiment gets its own deterministic stream off the root
    // seed; execution order and --jobs cannot change it.
    let seed = seeding::stream(opts.root_seed, name);
    match name {
        "table1" => {
            timed_to(
                out,
                "Table I — simulated machine configuration",
                table1::run,
            );
        }
        "fig2" => {
            let r = timed_to(out, "Fig. 2 — branch resolution time", || {
                resolution::run(scale.timing_samples.min(20), seed)
            });
            write_csv(opts, out, "fig2", r.to_csv());
        }
        "fig3" => {
            let r = timed_to(
                out,
                "Fig. 3 — rollback timing difference (no eviction sets)",
                || rollback::run(false, 8, scale.timing_samples, seed),
            );
            write_csv(opts, out, "fig3", r.to_csv());
            write_svg(opts, out, "fig3", r.to_svg());
        }
        "fig6" => {
            let r = timed_to(
                out,
                "Fig. 6 — rollback timing difference (eviction sets)",
                || rollback::run(true, 8, scale.timing_samples, seed),
            );
            write_csv(opts, out, "fig6", r.to_csv());
            write_svg(opts, out, "fig6", r.to_svg());
        }
        "fig7" => {
            let r = timed_to(out, "Fig. 7 — latency PDF (no eviction sets)", || {
                pdf::run(false, scale.pdf_samples, seed)
            });
            write_csv(opts, out, "fig7", r.to_csv());
            write_svg(opts, out, "fig7", r.to_svg());
        }
        "fig8" => {
            let r = timed_to(out, "Fig. 8 — latency PDF (eviction sets)", || {
                pdf::run(true, scale.pdf_samples, seed)
            });
            write_csv(opts, out, "fig8", r.to_csv());
            write_svg(opts, out, "fig8", r.to_svg());
        }
        "fig9" => {
            timed_to(out, "Fig. 9 — 1000-bit random secret", || {
                secret_pattern::run(scale.leak_bits, seed)
            });
        }
        "fig10" => {
            let r = timed_to(out, "Fig. 10 — secret leakage (no eviction sets)", || {
                leakage::run(false, scale.leak_bits, seed)
            });
            write_csv(opts, out, "fig10", r.to_csv());
            write_svg(opts, out, "fig10", r.to_svg());
        }
        "fig11" => {
            let r = timed_to(out, "Fig. 11 — secret leakage (eviction sets)", || {
                leakage::run(true, scale.leak_bits, seed)
            });
            write_csv(opts, out, "fig11", r.to_csv());
            write_svg(opts, out, "fig11", r.to_svg());
        }
        "rate" => {
            let _ = writeln!(out, "==== §VI-B — leakage rate ====");
            let start = std::time::Instant::now();
            let (no_es, es) = rate::run(scale.timing_samples.max(40), seed);
            let _ = writeln!(out, "{no_es}{es}");
            let _ = writeln!(out, "(leakage rate took {:.2?})\n", start.elapsed());
        }
        "fig12" => {
            let r = timed_to(out, "Fig. 12 — constant-time rollback overhead", || {
                overhead::run_with_mode(scale.workload_warmup, scale.workload_measure, opts.mode)
            });
            write_csv(opts, out, "fig12", r.to_csv());
            write_svg(opts, out, "fig12", r.to_svg());
        }
        "fig13" => {
            let r = timed_to(
                out,
                "Fig. 13 — branch resolution under host-like noise",
                || resolution::run_host_like(scale.timing_samples.min(20), seed),
            );
            write_csv(opts, out, "fig13", r.to_csv());
        }
        "triggers" => {
            timed_to(out, "Extension — trigger-agnosticism matrix", || {
                triggers::run(scale.timing_samples.min(30), seed)
            });
        }
        "workloads" => {
            timed_to(out, "Extension — workload suite profile", || {
                workload_profile::run_with_mode(
                    scale.workload_warmup,
                    scale.workload_measure,
                    opts.mode,
                )
            });
        }
        "timeline" => {
            let _ = writeln!(out, "==== Fig. 1 — measured CleanupSpec timeline ====");
            let (t0, t1) = timeline::run(false, seed);
            let _ = writeln!(out, "{t0}{t1}");
            let (_, t1es) = timeline::run(true, seed);
            let _ = writeln!(out, "with eviction sets:\n{t1es}");
        }
        "trace" => {
            let r = timed_to(out, "Observability — instrumented attack round", || {
                trace::run(false, 1 << 15, seed)
            });
            if let Some(path) = &opts.trace_out {
                if let Err(e) = std::fs::write(path, r.chrome_trace()) {
                    eprintln!("write trace {}: {e}", path.display());
                    std::process::exit(2);
                }
                let _ = writeln!(out, "(wrote {})", path.display());
            }
            if let Some(path) = &opts.metrics_out {
                let body = if path.extension().is_some_and(|e| e == "csv") {
                    r.metrics.to_csv()
                } else {
                    r.metrics.to_json()
                };
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("write metrics {}: {e}", path.display());
                    std::process::exit(2);
                }
                let _ = writeln!(out, "(wrote {})", path.display());
            }
        }
        "robustness" => {
            let (n, samples, bits) = if opts.quick {
                (4, 8, 60)
            } else {
                (10, 40, 300)
            };
            timed_to(out, "Extension — seed-sweep robustness", || {
                robustness::run(n, samples, bits, seed)
            });
        }
        "defense-costs" => {
            let r = timed_to(out, "Extension — defense landscape costs", || {
                defense_costs::run_with_mode(
                    scale.workload_warmup,
                    scale.workload_measure,
                    opts.mode,
                )
            });
            write_csv(opts, out, "defense_costs", r.to_csv());
        }
        "votes" => {
            let r = timed_to(out, "Extension — accuracy vs samples per bit", || {
                votes::run(false, scale.leak_bits / 2, seed)
            });
            write_csv(opts, out, "votes", r.to_csv());
        }
        "scorecard" => {
            timed_to(out, "Reproduction scorecard", || {
                scorecard::run(opts.quick, seed)
            });
        }
        "ablations" => {
            let samples = if opts.quick { 8 } else { 40 };
            timed_to(out, "Ablation — defense matrix", || {
                ablations::defense_matrix(samples, seed)
            });
            timed_to(out, "Ablation — fuzzy cleanup", || {
                ablations::fuzzy_evaluation(60, if opts.quick { 40 } else { 200 }, 7, seed)
            });
            timed_to(out, "Ablation — mistraining effort", || {
                ablations::mistrain_sweep(samples, seed)
            });
            timed_to(out, "Ablation — fenced measurement tightness", || {
                ablations::fence_ablation(samples, seed)
            });
            let _ = writeln!(
                out,
                "==== Extension — multi-level (2 bits/round) channel ===="
            );
            let mut ml = unxpec::attack::MultiLevelChannel::new(8);
            let cal = ml.calibrate(samples.max(8));
            let _ = writeln!(
                out,
                "level means (0/1/3/8 transient misses): {:.0} / {:.0} / {:.0} / {:.0} cycles",
                cal.level_means[0], cal.level_means[1], cal.level_means[2], cal.level_means[3]
            );
            let symbols: Vec<u8> = (0..64).map(|i| (i % 4) as u8).collect();
            let (_, acc) = ml.leak(&symbols);
            let _ = writeln!(
                out,
                "symbol accuracy over 64 symbols: {:.1}%\n",
                acc * 100.0
            );
        }
        "chaos" => {
            use unxpec::cache::FaultKind;
            use unxpec::experiments::chaos::{self, ChaosMode};
            let _ = writeln!(
                out,
                "==== Robustness — seeded fault injection, sanitizer armed ===="
            );
            for mode in [
                ChaosMode::Control,
                ChaosMode::Mixed,
                ChaosMode::Single(FaultKind::WedgeFill),
                ChaosMode::Sabotage,
            ] {
                let _ = writeln!(out, "{}", chaos::run(mode, 100, seed));
            }
        }
        other => unreachable!("names are validated in main: {other:?}"),
    }
}
