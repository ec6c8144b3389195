//! The sweep's options and its report.
//!
//! A sweep runs on the service scheduler (`unxpec_service::run_sweep`
//! submits its spec in process and drives the scheduler until the job
//! finishes). This module holds what that run is configured with,
//! [`SweepOptions`], and what it produces, [`SweepReport`]: results in
//! *enumeration* order, the failure lists, and the per-cell metric
//! aggregates over the seed axis, computed with
//! [`unxpec_stats::Summary`] — which is what makes the aggregates (and
//! [`SweepReport::aggregate_digest`]) byte-identical regardless of
//! worker count.

use std::path::PathBuf;

use unxpec::experiments::seeding::Fnv64;
use unxpec_stats::Summary;
use unxpec_telemetry::{spans_to_chrome_json, MetricsHub, MetricsRegistry, Span, SpanNode};

use crate::experiment::TrialOutput;
use crate::pool::PoolStats;
use crate::spec::Trial;

/// Execution options — everything about *how* to run a spec that does
/// not change *what* it computes (and so stays out of the spec digest).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 or 1 runs serially on the caller thread.
    pub jobs: usize,
    /// Retries per panicking trial before it is poisoned.
    pub retries: u32,
    /// State directory for checkpoint/resume: the service's job
    /// journal (`journal.log`) and its unbounded result cache
    /// (`cache/`). `None` disables both.
    pub state_dir: Option<PathBuf>,
    /// Per-trial wall-clock deadline in milliseconds; 0 or `None`
    /// means unbounded. Checked cooperatively after each attempt (see
    /// [`RunPolicy::deadline`](crate::pool::RunPolicy::deadline)).
    pub deadline_ms: Option<u64>,
    /// Base pause in milliseconds before the first panic retry; each
    /// further retry doubles it (bounded). 0 retries immediately.
    pub backoff_ms: u64,
    /// Quarantine a trial cell once it has failed in this many
    /// consecutive runs (poisoned or timed out, counted across resumes
    /// beside the cell's cache entry in the state directory).
    /// Quarantined cells are skipped and reported — a repeatedly
    /// failing cell stops burning retries on every resume. 0 disables
    /// quarantine.
    pub quarantine_after: u32,
    /// Directory for per-failure diagnostics bundles: one JSON file
    /// per poisoned/timed-out/quarantined trial, carrying everything
    /// needed to reproduce it (trial identity, derived seed, root
    /// seed, scale, error, diagnostics lines). `None` disables.
    pub diagnostics_dir: Option<PathBuf>,
    /// Live metrics hub to stream progress into while the sweep runs
    /// (`sweep.progress.*`, per-worker throughput, per-experiment
    /// latency histograms). Updates happen only on the harness's
    /// bookkeeping path — never inside a trial — so attaching a hub
    /// (and scraping it) leaves results byte-identical. `None`
    /// disables.
    pub live: Option<MetricsHub>,
    /// Sampling interval in milliseconds for the wall-clock
    /// self-profiler ([`crate::profiler::SelfProfiler`]). `None`
    /// disables; the profile lands in [`SweepReport::self_profile`].
    pub self_profile_ms: Option<u64>,
}

/// One completed trial in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The enumerated trial.
    pub trial: Trial,
    /// Its output.
    pub output: TrialOutput,
    /// Digest of the output.
    pub digest: u64,
    /// Attempts used (1 = first try; 0 = served from the state
    /// directory without running).
    pub attempts: u32,
    /// Whether the result was served from the state directory.
    pub resumed: bool,
}

/// A trial that failed in one run: it exhausted its retry budget
/// ([`PoisonedTrial`]) or blew the per-trial wall-clock deadline
/// ([`TimedOutTrial`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FailedTrial {
    /// Trial identity.
    pub key: String,
    /// The final panic message, or what the deadline check observed.
    pub error: String,
    /// Attempts made.
    pub attempts: u32,
    /// Consecutive runs (this one included) in which the cell failed.
    pub failures: u32,
}

/// A trial that exhausted its retry budget.
pub type PoisonedTrial = FailedTrial;

/// A trial that blew the per-trial wall-clock deadline.
pub type TimedOutTrial = FailedTrial;

/// A trial cell failed often enough that resumed runs skip it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedTrial {
    /// Trial identity.
    pub key: String,
    /// The most recent failure's message.
    pub error: String,
    /// Failing runs accumulated before quarantine.
    pub failures: u32,
}

/// A per-(experiment, variant, metric) summary across the seed axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Experiment name.
    pub experiment: String,
    /// Variant name.
    pub variant: String,
    /// Metric name.
    pub metric: String,
    /// Summary over the seed axis (completed trials only).
    pub summary: Summary,
}

/// Everything a sweep produced.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Digest of the spec that ran.
    pub spec_digest: u64,
    /// Completed trials in enumeration order.
    pub results: Vec<TrialResult>,
    /// Poisoned trials in enumeration order.
    pub poisoned: Vec<PoisonedTrial>,
    /// Timed-out trials in enumeration order — both pool-deadline
    /// blowouts and limit-truncated simulations (`RunResult::hit_limit`
    /// surfaced through [`TrialOutput::truncated`]). Excluded from the
    /// aggregates: a truncated number is not a measurement.
    pub timed_out: Vec<TimedOutTrial>,
    /// Quarantined trial keys skipped this run.
    pub quarantined: Vec<QuarantinedTrial>,
    /// Recoveries and other non-fatal conditions encountered while
    /// running (e.g. a torn journal line or a corrupt cache entry
    /// salvaged on resume).
    pub warnings: Vec<String>,
    /// Per-cell metric summaries in enumeration order.
    pub aggregates: Vec<Aggregate>,
    /// FNV-1a over every trial's digest (poisoned trials contribute
    /// their key + error) in enumeration order — one number that two
    /// runs match on iff they produced identical results.
    pub aggregate_digest: u64,
    /// How many trials came from the state directory instead of
    /// running.
    pub resumed: usize,
    /// Pool counters (jobs, retries, utilization…) of the sweep's one
    /// scheduler run.
    pub stats: PoolStats,
    /// One wall-clock span per executed trial, on per-worker tracks.
    pub spans: Vec<Span>,
    /// Sampling self-profile of the pool (sample-count weights), when
    /// [`SweepOptions::self_profile_ms`] was set.
    pub self_profile: Option<SpanNode>,
}

/// Groups completed trials by (experiment, variant) and summarizes
/// each metric across the seed axis, all in enumeration order. The
/// sweep report and the service's result document both aggregate this
/// way — a cache-served job must render exactly like a freshly
/// computed one.
pub fn aggregate(results: &[TrialResult]) -> Vec<Aggregate> {
    let mut cells: Vec<(String, String)> = Vec::new();
    for r in results {
        let cell = (r.trial.experiment.clone(), r.trial.variant.clone());
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    let mut out = Vec::new();
    for (experiment, variant) in cells {
        let in_cell: Vec<&TrialResult> = results
            .iter()
            .filter(|r| r.trial.experiment == experiment && r.trial.variant == variant)
            .collect();
        // The first trial fixes the metric row order for the cell.
        let Some(first) = in_cell.first() else {
            continue;
        };
        for (metric, _) in &first.output.metrics {
            let values: Vec<f64> = in_cell
                .iter()
                .filter_map(|r| {
                    r.output
                        .metrics
                        .iter()
                        .find(|(name, _)| name == metric)
                        .map(|(_, v)| *v)
                })
                .collect();
            if values.is_empty() {
                continue;
            }
            out.push(Aggregate {
                experiment: experiment.clone(),
                variant: variant.clone(),
                metric: metric.clone(),
                summary: Summary::of(&values),
            });
        }
    }
    out
}

/// FNV-1a chain over every trial outcome in enumeration order: the
/// value of [`SweepReport::aggregate_digest`].
pub fn aggregate_digest(
    results: &[TrialResult],
    poisoned: &[PoisonedTrial],
    timed_out: &[TimedOutTrial],
    quarantined: &[QuarantinedTrial],
) -> u64 {
    let mut h = Fnv64::new();
    for r in results {
        h.mix_str(&r.trial.key).mix(r.digest);
    }
    for p in poisoned {
        h.mix_str(&p.key).mix_str(&p.error);
    }
    for t in timed_out {
        h.mix_str(&t.key).mix_str(&t.error);
    }
    for q in quarantined {
        h.mix_str(&q.key).mix(u64::from(q.failures));
    }
    h.finish()
}

/// One worker's share of a sweep, derived from the trial spans: which
/// worker ran how many trials and for how long. This is what a
/// `--jobs N` run reports as per-worker throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerLoad {
    /// Worker index (the span track).
    pub worker: u64,
    /// Trials whose final attempt ran on this worker.
    pub trials: u64,
    /// Microseconds this worker spent inside trials.
    pub busy_us: u64,
}

impl WorkerLoad {
    /// Completed trials per second of busy time.
    pub fn trials_per_sec(&self) -> f64 {
        if self.busy_us == 0 {
            return 0.0;
        }
        self.trials as f64 * 1e6 / self.busy_us as f64
    }
}

impl SweepReport {
    /// Every enumerated trial: completed, poisoned, timed out (the
    /// truncated ones included) and quarantined.
    pub fn trials_total(&self) -> usize {
        self.results.len() + self.poisoned.len() + self.timed_out.len() + self.quarantined.len()
    }

    /// Per-worker throughput, sorted by worker index.
    pub fn worker_loads(&self) -> Vec<WorkerLoad> {
        let mut loads: Vec<WorkerLoad> = Vec::new();
        for s in &self.spans {
            match loads.iter_mut().find(|l| l.worker == s.track) {
                Some(l) => {
                    l.trials += 1;
                    l.busy_us += s.dur_us;
                }
                None => loads.push(WorkerLoad {
                    worker: s.track,
                    trials: 1,
                    busy_us: s.dur_us,
                }),
            }
        }
        loads.sort_by_key(|l| l.worker);
        loads
    }

    /// The report's Chrome/Perfetto trace document (one track per
    /// worker).
    pub fn chrome_trace(&self) -> String {
        let mut tracks: Vec<(u64, String)> = Vec::new();
        for s in &self.spans {
            if !tracks.iter().any(|(t, _)| *t == s.track) {
                tracks.push((s.track, format!("worker-{}", s.track)));
            }
        }
        tracks.sort_by_key(|(t, _)| *t);
        spans_to_chrome_json("unxpec-sweep", &tracks, &self.spans)
    }

    /// The report's counters and trial-duration histogram as a
    /// [`MetricsRegistry`] (for `--metrics-out`).
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.inc("sweep.trials_total", self.trials_total() as u64);
        m.inc("sweep.trials_resumed", self.resumed as u64);
        m.inc("sweep.trials_poisoned", self.poisoned.len() as u64);
        m.inc("sweep.trials_timed_out", self.timed_out.len() as u64);
        m.inc("sweep.trials_quarantined", self.quarantined.len() as u64);
        m.inc("sweep.pool.jobs", self.stats.jobs as u64);
        m.inc("sweep.pool.executed", self.stats.executed);
        m.inc("sweep.pool.retried", self.stats.retried);
        m.inc("sweep.pool.panicked", self.stats.panicked);
        m.inc("sweep.pool.timed_out", self.stats.timed_out);
        m.inc("sweep.pool.busy_us", self.stats.busy_us);
        m.inc("sweep.pool.wall_us", self.stats.wall_us);
        m.inc(
            "sweep.pool.utilization_millipct",
            (self.stats.utilization() * 100_000.0) as u64,
        );
        for t in &self.spans {
            m.observe("sweep.trial_duration_us", t.dur_us);
        }
        for l in self.worker_loads() {
            m.inc(&format!("sweep.worker{}.trials", l.worker), l.trials);
            m.inc(&format!("sweep.worker{}.busy_us", l.worker), l.busy_us);
        }
        m
    }
}

impl std::fmt::Display for SweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for w in &self.warnings {
            writeln!(f, "WARNING {w}")?;
        }
        writeln!(
            f,
            "sweep {:#018x} — {} trial(s), {} resumed, {} poisoned, {} timed out, {} quarantined",
            self.spec_digest,
            self.trials_total(),
            self.resumed,
            self.poisoned.len(),
            self.timed_out.len(),
            self.quarantined.len()
        )?;
        writeln!(
            f,
            "pool: {} job(s), {} retried, utilization {:.0}%, wall {:.1} ms",
            self.stats.jobs,
            self.stats.retried,
            self.stats.utilization() * 100.0,
            self.stats.wall_us as f64 / 1000.0
        )?;
        for l in self.worker_loads() {
            writeln!(
                f,
                "  worker {}: {} trial(s), busy {:.1} ms, {:.1} trials/s",
                l.worker,
                l.trials,
                l.busy_us as f64 / 1000.0,
                l.trials_per_sec()
            )?;
        }
        let mut cell = (String::new(), String::new());
        for a in &self.aggregates {
            if (a.experiment.clone(), a.variant.clone()) != cell {
                cell = (a.experiment.clone(), a.variant.clone());
                writeln!(f, "{}/{}:", a.experiment, a.variant)?;
            }
            writeln!(
                f,
                "  {:<28} mean {:>12.4}  std {:>10.4}  min {:>12.4}  max {:>12.4}  n {}",
                a.metric,
                a.summary.mean,
                a.summary.std_dev,
                a.summary.min,
                a.summary.max,
                a.summary.n
            )?;
        }
        for p in &self.poisoned {
            writeln!(
                f,
                "POISONED {} after {} attempt(s): {}",
                p.key, p.attempts, p.error
            )?;
        }
        for t in &self.timed_out {
            writeln!(
                f,
                "TIMEOUT {} after {} attempt(s): {}",
                t.key, t.attempts, t.error
            )?;
        }
        for q in &self.quarantined {
            writeln!(
                f,
                "QUARANTINED {} after {} failing run(s): {}",
                q.key, q.failures, q.error
            )?;
        }
        writeln!(f, "aggregate digest {:#018x}", self.aggregate_digest)
    }
}
