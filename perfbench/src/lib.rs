//! End-to-end and per-layer benchmark of the unxpec workspace.
//!
//! One run runs ops in a closed loop on one thread for a fixed number
//! of seconds, checking every op's output, and sets the workload up
//! several times spread over the run (reporting the fastest set-up).
//! An untraced run
//! reports the end-to-end metrics; a traced run records spans around
//! every call into a layer on every other op and reports the per-layer
//! metrics. Both check the simulated counts against the pinned ones in
//! `golden_counts.txt`. See `NOTES.md` for the workloads and what each
//! metric should move.

pub mod counts;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use counts::Counts;
use trace::{Tracer, NO_OP};
use unxpec::stats::{percentile, Summary};
use workloads::{Bench, Kind};

/// Share of the timed loop spent setting the workload up again;
/// `setup_s` is the fastest of all the set-ups of a run.
pub const SETUP_SHARE: f64 = 0.1;
/// Untimed ops before the timed loop.
pub const WARMUP_OPS: u64 = 1;
/// Ops whose counts the per-layer metrics report (from op 0), so the
/// counts are a fixed function of the seed whatever the run length.
pub const COUNT_OPS: u64 = 8;

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// The input seed.
    pub seed: u64,
    /// Length of the timed loop in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for the span dump and the service's files.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops run, warm-up included.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Counts summed over the first [`COUNT_OPS`] ops.
    pub counts: Counts,
    /// Whether `counts` equal the pinned counts of this workload and
    /// seed; `None` when none are pinned.
    pub counts_match: Option<bool>,
    /// Every span of a traced run.
    pub spans_json: Option<String>,
}

impl Report {
    /// Whether every op passed its check and the counts match the
    /// pinned ones, where there are any.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.counts_match != Some(false)
    }

    /// The result line: `{"correct","attempted","failed","metrics"}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let mut tr = Tracer::new(opts.trace);

    // Set-up runs once before the loop and then again whenever the
    // set-ups so far took less than SETUP_SHARE of the loop, so they are
    // spread over the run like the ops whose best time is reported, but
    // never inside the count window. Each new instance replaces the last
    // one, which is dropped first, and runs the ops from there on.
    let mut setup_s = Vec::new();
    let mut bench = set_up(opts, &mut tr, &mut setup_s)?;

    // The closed loop. The traced run records spans on even ops only,
    // so the odd ops measure the same work untraced.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut window = Counts::default();
    let mut traced_us = Vec::new();
    let mut untraced_us = Vec::new();
    let mut cells = Vec::new();
    let mut best_cells: Vec<f64> = Vec::new();
    let mut loop_start = Instant::now();
    let mut index = 0u64;
    loop {
        if index == WARMUP_OPS {
            loop_start = Instant::now();
        }
        bench.prepare(index)?;
        let traced = opts.trace && index.is_multiple_of(2);
        tr.set_enabled(traced);
        tr.set_op(index);
        let mut counts = Counts::default();
        cells.clear();
        let t0 = Instant::now();
        let open = tr.enter("op");
        let outcome = bench.op(index, &mut tr, &mut counts, &mut cells);
        tr.exit(open);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        attempted += 1;
        let ok = outcome.is_ok();
        if let Err(why) = outcome {
            failed += 1;
            eprintln!("perfbench: {} op {index} failed: {why}", opts.kind.name());
        }
        if index < COUNT_OPS {
            window.add(&counts);
        }
        if index >= WARMUP_OPS {
            if traced {
                traced_us.push(us);
            } else {
                untraced_us.push(us);
            }
            if !traced && ok {
                if cells.is_empty() {
                    cells.push(us);
                }
                if best_cells.len() != cells.len() {
                    best_cells = vec![f64::MAX; cells.len()];
                }
                for (best, us) in best_cells.iter_mut().zip(&cells) {
                    *best = best.min(*us);
                }
            }
        }
        index += 1;
        if index < COUNT_OPS {
            continue;
        }
        let elapsed = loop_start.elapsed().as_secs_f64();
        if elapsed >= opts.seconds {
            break;
        }
        if setup_s.iter().sum::<f64>() < SETUP_SHARE * elapsed {
            drop(bench);
            bench = set_up(opts, &mut tr, &mut setup_s)?;
        }
    }
    tr.set_enabled(opts.trace);
    tr.set_op(NO_OP);

    // End to end, op time is the best op of the run, cell by cell: the
    // sum over an op's cells of each cell's fastest time (min-of-N, the
    // repository's comparison discipline; an op of one cell is its
    // fastest op). On a shared host the speed of a whole run swings
    // with other tenants' load, and the best time tracks the code far
    // more steadily than the median does.
    let metrics = if opts.trace {
        layer_metrics(
            &mut *bench,
            &tr,
            &window,
            &traced_us,
            &untraced_us,
            best_cells.iter().sum(),
            setup_s.len(),
        )
    } else {
        vec![
            metric("setup_s", Summary::of(&setup_s).min, "s"),
            metric("op_us.best", best_cells.iter().sum(), "us"),
            metric("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MiB"),
        ]
    };
    let counts_match =
        counts::golden(opts.kind.name(), opts.seed).map(|want| want == window.render());
    Ok(Report {
        attempted,
        failed,
        metrics,
        counts: window,
        counts_match,
        spans_json: opts.trace.then(|| tr.to_json()),
    })
}

/// One timed set-up of the workload, its spans recorded outside any op.
fn set_up(
    opts: &Options,
    tr: &mut Tracer,
    setup_s: &mut Vec<f64>,
) -> Result<Box<dyn Bench>, String> {
    tr.set_enabled(opts.trace);
    tr.set_op(NO_OP);
    let t0 = Instant::now();
    let bench = opts.kind.setup(opts.seed, &opts.out_dir, tr)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    Ok(bench)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The per-layer metrics of a traced run. Times are per op, averaged
/// over the traced timed ops; counts are per op over the first
/// [`COUNT_OPS`] ops. A metric of a layer the workload does not use
/// reads 0. The `bench.ops_per_s` and `bench.op_us.*` figures come from
/// the run's untraced (odd) ops. `setups` is how many set-ups the run
/// made.
fn layer_metrics(
    bench: &mut dyn Bench,
    tr: &Tracer,
    window: &Counts,
    traced_us: &[f64],
    untraced_us: &[f64],
    best_op_us: f64,
    setups: usize,
) -> Vec<Metric> {
    let timed = |op: u64| op != NO_OP && op >= WARMUP_OPS;
    let n_traced = traced_us.len().max(1) as f64;
    let span_us = tr.totals_by_name(timed);
    let per_op_us = |name: &str| span_us.get(name).copied().unwrap_or(0) as f64 / 1e3 / n_traced;
    let setup_us = tr.totals_by_name(|op| op == NO_OP);
    let calibrate_us =
        setup_us.get("attack.calibrate").copied().unwrap_or(0) as f64 / 1e3 / setups as f64;
    let other_us = tr.self_ns("op", timed) as f64 / 1e3 / n_traced;

    let extras = bench.traced_extras(best_op_us);
    let extra = |name: &str| {
        extras
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };

    // Counts are per op over the count window; a ratio over a zero
    // base (a layer the workload does not use) reads 0.
    let c = window;
    let per = |v: u64| v as f64 / COUNT_OPS as f64;
    let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let ratio = |a: u64, b: u64| div(a as f64, b as f64);
    let run_us = per_op_us("cpu.run");
    let ff_run_us = per_op_us("cpu.ff.run");
    let leak_us = per_op_us("attack.leak");
    let summary = |us: &[f64]| (!us.is_empty()).then(|| Summary::of(us));
    let untraced = summary(untraced_us);
    let untraced_mean = untraced.map_or(0.0, |s| s.mean);
    let p90 = if untraced_us.is_empty() {
        0.0
    } else {
        percentile(untraced_us, 90.0)
    };
    let accuracy = if c.bits == 0 {
        0.0
    } else {
        1.0 - ratio(c.bit_errors, c.bits)
    };

    let m = metric;
    vec![
        m("cpu.new_us", per_op_us("cpu.new"), "us"),
        m("workloads.install_us", per_op_us("workloads.install"), "us"),
        m("cpu.run_us", run_us, "us"),
        m(
            "cpu.ns_per_sim_cycle",
            div(run_us * 1e3, per(c.sim_cycles)),
            "ns",
        ),
        m(
            "cpu.sim_cycles_per_s",
            div(per(c.sim_cycles) * 1e6, untraced_mean),
            "1/s",
        ),
        m("cpu.ff.run_us", ff_run_us, "us"),
        m(
            "cpu.ff.ns_per_inst",
            div(ff_run_us * 1e3, per(c.committed_insts)),
            "ns",
        ),
        m(
            "cpu.ff.coverage",
            ratio(c.ff_committed_insts, c.committed_insts),
            "ratio",
        ),
        m("cpu.ff.regions", per(c.ff_regions), "count"),
        m("cpu.ff.speedup", extra("cpu.ff.speedup"), "x"),
        m("cpu.sim_cycles", per(c.sim_cycles), "cycles"),
        m("cpu.committed_insts", per(c.committed_insts), "count"),
        m("cpu.squashed_insts", per(c.squashed_insts), "count"),
        m(
            "cpu.wasted_ratio",
            ratio(c.squashed_insts, c.committed_insts + c.squashed_insts),
            "ratio",
        ),
        m("cpu.runs_per_op", per(c.runs), "count"),
        m("cache.l1.misses", per(c.l1_misses), "count"),
        m("cache.l2.misses", per(c.l2_misses), "count"),
        m("cache.l1.invalidations", per(c.l1_invalidations), "count"),
        m("cache.l1.restores", per(c.l1_restores), "count"),
        m("cache.mshr.allocated", per(c.mshr_allocated), "count"),
        m("cache.mshr.peak_occupancy", c.mshr_peak as f64, "count"),
        m("defense.squashes", per(c.squashes), "count"),
        m(
            "defense.cleanup_stall_cycles",
            per(c.cleanup_stall_cycles),
            "cycles",
        ),
        m(
            "defense.cleanup_share",
            ratio(c.cleanup_stall_cycles, c.sim_cycles),
            "ratio",
        ),
        m("attack.calibrate_us", calibrate_us, "us"),
        m("attack.leak_us", leak_us, "us"),
        m("attack.rounds", per(c.rounds), "count"),
        m("attack.round_us", div(leak_us, per(c.rounds)), "us"),
        m("attack.bit_errors", per(c.bit_errors), "count"),
        m("attack.accuracy", accuracy, "ratio"),
        m("service.submit_us", per_op_us("service.submit"), "us"),
        m("service.stream_us", per_op_us("service.stream"), "us"),
        m("service.results_us", per_op_us("service.results"), "us"),
        m(
            "service.cache.hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "ratio",
        ),
        m("service.journal_bytes", per(c.journal_bytes), "bytes"),
        m("service.result_bytes", per(c.result_bytes), "bytes"),
        m("service.inproc_us", extra("service.inproc_us"), "us"),
        m("service.transport_us", extra("service.transport_us"), "us"),
        m(
            "telemetry.ring_overhead",
            extra("telemetry.ring_overhead"),
            "ratio",
        ),
        m("bench.ops_per_s", div(1e6, untraced_mean), "1/s"),
        m("bench.op_us.p50", untraced.map_or(0.0, |s| s.median), "us"),
        m("bench.op_us.p90", p90, "us"),
        m("bench.other_us", other_us, "us"),
        m(
            "trace.overhead",
            div(summary(traced_us).map_or(0.0, |s| s.mean), untraced_mean) - 1.0,
            "ratio",
        ),
    ]
}
