//! The sweep: one spec run to completion on the service scheduler, in
//! process.
//!
//! [`run_sweep`] is a thin client of [`Service`]: no worker thread and
//! no [`TcpFront`](crate::TcpFront). It renders the spec as the text
//! [`SweepSpec::parse`] reads, submits it under one tenant, drives
//! [`Service::tick`]'s pass until nothing is left to schedule, and
//! reads the job's slots back into a [`SweepReport`] in enumeration
//! order — which is what makes the aggregates and the aggregate digest
//! byte-identical at every worker count. Retries, the deadline, the
//! backoff and quarantine are the scheduler's own.
//!
//! Checkpoint/resume is the service's journal plus its result cache,
//! both kept in [`SweepOptions::state_dir`]:
//!
//! * a rerun of the same spec re-attaches to the job the journal
//!   replays (by submission digest), whose finished cells come back
//!   from the cache without running;
//! * a grown or different spec reuses every shared cell by its
//!   [`cell_digest`](unxpec_harness::cell_digest);
//! * every other unfinished job the journal replays is cancelled (and
//!   the cancel journaled) before the sweep submits, so a resume never
//!   runs another spec's cells;
//! * each cell's consecutive-failure count and last error sit beside
//!   its cache entry, so quarantine spans runs.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use unxpec_harness::spec::SpecError;
use unxpec_harness::{
    aggregate, aggregate_digest, submission_digest, FailedTrial, PoolStats, QuarantinedTrial,
    Registry, SelfProfiler, SweepOptions, SweepReport, SweepSpec, TaskEvent, TaskOutcome,
    TaskTiming, Trial, TrialResult,
};
use unxpec_telemetry::{json::escape, MetricsHub, Span};

use crate::cache::CacheConfig;
use crate::error::ServiceError;
use crate::server::{lock, BatchItem, BatchObserver, Service, ServiceConfig, Slot, TaskValue};

/// The tenant every sweep job runs under.
const SWEEP_TENANT: &str = "sweep";

/// What a truncated output reports as its timeout error.
const TRUNCATION_ERROR: &str = "simulation truncated: run ended on its cycle/instruction limit \
                                (RunResult::hit_limit)";

/// Why a sweep could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The spec failed to enumerate or cannot be written as spec text.
    Spec(SpecError),
    /// The state directory's journal or cache could not be opened or
    /// written.
    Service(ServiceError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Spec(e) => write!(f, "{e}"),
            SweepError::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<SpecError> for SweepError {
    fn from(e: SpecError) -> Self {
        SweepError::Spec(e)
    }
}

impl From<ServiceError> for SweepError {
    fn from(e: ServiceError) -> Self {
        SweepError::Service(e)
    }
}

/// Runs `spec`'s trials from `registry` under `opts` on an in-process
/// [`Service`].
pub fn run_sweep(
    spec: &SweepSpec,
    registry: Registry,
    opts: &SweepOptions,
) -> Result<SweepReport, SweepError> {
    let trials = spec.enumerate(&registry)?;
    let text = spec.render()?;
    let state_dir = opts.state_dir.as_deref();
    let service = Service::new(
        registry,
        ServiceConfig {
            jobs: opts.jobs.max(1),
            retries: opts.retries,
            deadline_ms: opts.deadline_ms.unwrap_or(0),
            backoff_ms: opts.backoff_ms,
            quarantine_after: opts.quarantine_after,
            cache: state_dir.map(|dir| CacheConfig {
                dir: dir.join("cache"),
                max_bytes: 0,
            }),
            journal: state_dir.map(|dir| dir.join("journal.log")),
            ..ServiceConfig::default()
        },
    )?;

    // A resume never runs another spec's cells: cancel every other
    // unfinished job the journal brought back.
    let ours = submission_digest(spec);
    let foreign: Vec<String> = service.with_state(|st| {
        st.jobs
            .iter()
            .filter(|j| !j.finished() && (j.tenant != SWEEP_TENANT || j.sub_digest != ours))
            .map(|j| j.id.clone())
            .collect()
    });
    for id in &foreign {
        service.cancel(id)?;
    }
    let (job_id, _) = service.submit(SWEEP_TENANT, &text)?;
    let job = service
        .with_state(|st| st.job_index(&job_id))
        .ok_or_else(|| ServiceError::UnknownJob(job_id.clone()))?;

    let live = opts.live.as_ref();
    if let Some(hub) = live {
        hub.set("sweep.progress.total", trials.len() as u64);
        hub.set("sweep.progress.jobs", opts.jobs.max(1) as u64);
        publish_progress(&service, job, hub);
    }
    let profiler = opts
        .self_profile_ms
        .map(|ms| SelfProfiler::start(opts.jobs.max(1), Duration::from_millis(ms.max(1))));
    let progress = Progress {
        job,
        trials: &trials,
        live,
        profiler: profiler.as_ref(),
        epoch: Instant::now(),
        recorded: Mutex::new((Vec::new(), PoolStats::default())),
    };
    // Every other job is finished or cancelled, so the passes schedule
    // only this job's cells and stop when none is left.
    while service.tick_observed(&progress) > 0 {
        if let Some(hub) = live {
            publish_progress(&service, job, hub);
        }
    }
    let (spans, stats) = progress
        .recorded
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    let self_profile = profiler.map(SelfProfiler::stop);

    let outcome = service.with_state(|st| {
        let entry = &st.jobs[job];
        let failures = |cell: &u64| st.cell_failures.get(cell);
        let mut out = Outcome::default();
        for ((trial, slot), cell) in trials.iter().zip(&entry.slots).zip(&entry.cells) {
            let failed = |error: &str, attempts: u32| FailedTrial {
                key: trial.key.clone(),
                error: error.to_string(),
                attempts,
                failures: failures(cell).map_or(1, |f| f.failures),
            };
            match slot {
                Slot::Done {
                    output,
                    digest,
                    cached,
                    attempts,
                } => {
                    out.resumed += usize::from(*cached);
                    if output.truncated {
                        // A truncated number is not a measurement: the
                        // trial stays cached (a rerun would truncate
                        // again) but reports as a timeout.
                        let record = FailedTrial {
                            failures: 1,
                            ..failed(TRUNCATION_ERROR, *attempts)
                        };
                        out.bundle(trial, "truncated", &record, &output.diagnostics);
                        out.timed_out.push(record);
                    } else {
                        out.results.push(TrialResult {
                            trial: trial.clone(),
                            output: output.clone(),
                            digest: *digest,
                            attempts: *attempts,
                            resumed: *cached,
                        });
                    }
                }
                Slot::Failed {
                    kind: "quarantined",
                    ..
                } => {
                    let (failures, error) = failures(cell).map_or_else(
                        || (opts.quarantine_after.max(1), String::new()),
                        |f| (f.failures, f.error.clone()),
                    );
                    let record = FailedTrial {
                        key: trial.key.clone(),
                        error,
                        attempts: 0,
                        failures,
                    };
                    out.bundle(trial, "quarantined", &record, &[]);
                    out.quarantined.push(QuarantinedTrial {
                        key: record.key,
                        error: record.error,
                        failures,
                    });
                }
                Slot::Failed {
                    kind: "timed-out",
                    error,
                    attempts,
                } => {
                    let record = failed(error, *attempts);
                    out.bundle(trial, "timed_out", &record, &[]);
                    out.timed_out.push(record);
                }
                Slot::Failed {
                    error, attempts, ..
                } => {
                    let record = failed(error, *attempts);
                    out.bundle(trial, "poisoned", &record, &[]);
                    out.poisoned.push(record);
                }
                Slot::Pending | Slot::Running | Slot::Skipped => out.open += 1,
            }
        }
        out
    });
    if outcome.open > 0 {
        return Err(ServiceError::NotFinished(job_id).into());
    }

    let mut warnings = Vec::new();
    let dropped = service.with_state(|st| st.journal_dropped);
    if let (Some(dir), true) = (state_dir, dropped > 0) {
        warnings.push(format!(
            "journal {}: recovered by dropping {dropped} damaged or stale record(s)",
            dir.join("journal.log").display()
        ));
    }
    let corrupt = service.cache_stats().map_or(0, |s| s.corrupt);
    if let (Some(dir), true) = (state_dir, corrupt > 0) {
        warnings.push(format!(
            "result cache {}: recovered by dropping {corrupt} corrupt entr(ies) and rerunning them",
            dir.join("cache").display()
        ));
    }
    if let Some(dir) = &opts.diagnostics_dir {
        match std::fs::create_dir_all(dir) {
            Ok(()) => warnings.extend(
                outcome
                    .bundles
                    .iter()
                    .filter_map(|b| b.write(dir, spec, &trials[b.index]).err()),
            ),
            Err(e) => warnings.push(format!("diagnostics dir {}: {e}", dir.display())),
        }
    }

    let Outcome {
        results,
        poisoned,
        timed_out,
        quarantined,
        resumed,
        ..
    } = outcome;
    Ok(SweepReport {
        spec_digest: spec.digest(),
        aggregates: aggregate(&results),
        aggregate_digest: aggregate_digest(&results, &poisoned, &timed_out, &quarantined),
        results,
        poisoned,
        timed_out,
        quarantined,
        warnings,
        resumed,
        stats,
        spans,
        self_profile,
    })
}

/// The job's slots sorted into the report's lists, in enumeration
/// order.
#[derive(Default)]
struct Outcome {
    results: Vec<TrialResult>,
    poisoned: Vec<FailedTrial>,
    timed_out: Vec<FailedTrial>,
    quarantined: Vec<QuarantinedTrial>,
    /// One reproduction bundle per failing trial.
    bundles: Vec<Bundle>,
    resumed: usize,
    open: usize,
}

impl Outcome {
    fn bundle(&mut self, trial: &Trial, outcome: &'static str, f: &FailedTrial, diag: &[String]) {
        self.bundles.push(Bundle {
            index: trial.index,
            outcome,
            error: f.error.clone(),
            attempts: f.attempts,
            failures: f.failures,
            diagnostics: diag.to_vec(),
        });
    }
}

/// Sets the progress series read off the job's slots after each
/// scheduling pass: finished, resumed and quarantined trials.
fn publish_progress(service: &Service, job: usize, hub: &MetricsHub) {
    let (done, resumed, quarantined) = service.with_state(|st| {
        st.jobs[job]
            .slots
            .iter()
            .fold((0u64, 0u64, 0u64), |(d, r, q), slot| match slot {
                Slot::Done { cached, .. } => (d + 1, r + u64::from(*cached), q),
                Slot::Failed {
                    kind: "quarantined",
                    ..
                } => (d + 1, r, q + 1),
                Slot::Failed { .. } | Slot::Skipped => (d + 1, r, q),
                Slot::Pending | Slot::Running => (d, r, q),
            })
    });
    hub.update(|m| {
        m.set("sweep.progress.done", done);
        m.set("sweep.progress.resumed", resumed);
        m.set("sweep.progress.quarantined", quarantined);
    });
}

/// The sweep's [`BatchObserver`]: live progress and the self-profiler
/// from the pool's events, spans and summed pool counters from each
/// batch.
struct Progress<'a> {
    /// The sweep job's index in the job table.
    job: usize,
    trials: &'a [Trial],
    live: Option<&'a MetricsHub>,
    profiler: Option<&'a SelfProfiler>,
    /// Span time zero.
    epoch: Instant,
    recorded: Mutex<(Vec<Span>, PoolStats)>,
}

impl Progress<'_> {
    fn trial(&self, item: &BatchItem) -> Option<&Trial> {
        self.trials.get(item.slot).filter(|_| item.job == self.job)
    }
}

impl BatchObserver for Progress<'_> {
    fn event(&self, batch: &[BatchItem], event: &TaskEvent<'_, TaskValue>) {
        match event {
            TaskEvent::Started { index, worker } => {
                if let (Some(p), Some(trial)) = (self.profiler, self.trial(&batch[*index])) {
                    p.worker_started(*worker, &trial.key);
                }
            }
            TaskEvent::Finished {
                index,
                worker,
                outcome,
                timing,
            } => {
                if let Some(p) = self.profiler {
                    p.worker_finished(*worker);
                }
                let (Some(hub), Some(trial)) = (self.live, self.trial(&batch[*index])) else {
                    return;
                };
                hub.update(|m| {
                    match outcome {
                        TaskOutcome::Done { .. } => {}
                        TaskOutcome::Poisoned { .. } => m.inc("sweep.progress.poisoned", 1),
                        TaskOutcome::TimedOut { .. } => m.inc("sweep.progress.timed_out", 1),
                    }
                    m.inc(
                        "sweep.progress.retries",
                        u64::from(outcome.attempts().saturating_sub(1)),
                    );
                    m.inc(&format!("sweep.worker{worker}.trials"), 1);
                    m.inc(&format!("sweep.worker{worker}.busy_us"), timing.dur_us);
                    m.observe("sweep.trial_duration_us", timing.dur_us);
                    m.observe(
                        &format!("sweep.exp.{}.latency_us", trial.experiment),
                        timing.dur_us,
                    );
                });
            }
        }
    }

    fn batch(
        &self,
        batch: &[BatchItem],
        started: Instant,
        timings: &[TaskTiming],
        stats: &PoolStats,
    ) {
        let offset_us = started.saturating_duration_since(self.epoch).as_micros() as u64;
        let mut recorded = lock(&self.recorded);
        let (spans, total) = &mut *recorded;
        for t in timings {
            let Some(trial) = self.trial(&batch[t.index]) else {
                continue;
            };
            spans.push(Span {
                name: trial.key.clone(),
                track: t.worker as u64,
                start_us: offset_us + t.start_us,
                dur_us: t.dur_us,
                args: vec![("attempts".to_string(), u64::from(t.attempts))],
            });
        }
        total.jobs = total.jobs.max(stats.jobs);
        total.executed += stats.executed;
        total.stolen += stats.stolen;
        total.retried += stats.retried;
        total.panicked += stats.panicked;
        total.timed_out += stats.timed_out;
        total.max_queue_depth = total.max_queue_depth.max(stats.max_queue_depth);
        total.busy_us += stats.busy_us;
        total.wall_us += stats.wall_us;
    }
}

/// One failing trial's reproduction bundle.
struct Bundle {
    /// The trial's enumeration index.
    index: usize,
    outcome: &'static str,
    error: String,
    attempts: u32,
    failures: u32,
    diagnostics: Vec<String>,
}

impl Bundle {
    /// Writes `<dir>/<key with '/' -> '_'>.json` carrying the trial
    /// identity, the derived and root seeds, the scale identity, the
    /// outcome, and any diagnostics lines the trial recorded (fault
    /// schedule, trailing telemetry events). Everything needed to
    /// reproduce the trial lives in this one file.
    fn write(&self, dir: &Path, spec: &SweepSpec, trial: &Trial) -> Result<(), String> {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"key\": \"{}\",\n", escape(&trial.key)));
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n  \"variant\": \"{}\",\n  \"seed_index\": {},\n",
            escape(&trial.experiment),
            escape(&trial.variant),
            trial.seed_index
        ));
        out.push_str(&format!(
            "  \"seed\": \"{:#x}\",\n  \"root_seed\": \"{:#x}\",\n  \"spec_digest\": \"{:#x}\",\n",
            trial.seed,
            spec.root_seed,
            spec.digest()
        ));
        out.push_str(&format!(
            "  \"scale\": \"{}\",\n  \"config\": \"{}\",\n",
            escape(&spec.scale_name),
            escape(&spec.canonical_string())
        ));
        out.push_str(&format!(
            "  \"outcome\": \"{}\",\n  \"error\": \"{}\",\n  \"attempts\": {},\n  \"failures\": {},\n",
            escape(self.outcome),
            escape(&self.error),
            self.attempts,
            self.failures
        ));
        out.push_str("  \"diagnostics\": [");
        for (i, line) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\"", escape(line)));
        }
        out.push_str("\n  ]\n}\n");
        let path = dir.join(format!("{}.json", trial.key.replace('/', "_")));
        std::fs::write(&path, out).map_err(|e| format!("bundle {}: {e}", path.display()))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use std::path::PathBuf;

    use unxpec_harness::{FnExperiment, TrialOutput};
    use unxpec_stats::Summary;

    use super::*;
    use crate::cache::ResultCache;

    fn toy_registry() -> Registry {
        let mut r = Registry::new();
        r.register(FnExperiment::new("mul", &["x2", "x3"], |ctx| {
            let factor = if ctx.variant == "x2" { 2 } else { 3 };
            let v = (ctx.seed % 1000) * factor;
            TrialOutput::new(format!("v={v}"), vec![("v", v as f64)])
        }));
        r
    }

    fn toy_spec() -> SweepSpec {
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["mul".into()];
        spec.seeds = 4;
        spec
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("unxpec-sweep-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn in_dir(dir: &Path) -> SweepOptions {
        SweepOptions {
            state_dir: Some(dir.to_path_buf()),
            ..SweepOptions::default()
        }
    }

    /// The failure records in `dir`'s cache.
    fn failure_records(dir: &Path) -> Vec<crate::CellFailures> {
        ResultCache::open(&CacheConfig {
            dir: dir.join("cache"),
            max_bytes: 0,
        })
        .unwrap()
        .take_failures()
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let spec = toy_spec();
        let serial = run_sweep(
            &spec,
            toy_registry(),
            &SweepOptions {
                jobs: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = run_sweep(
            &spec,
            toy_registry(),
            &SweepOptions {
                jobs: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.aggregate_digest, parallel.aggregate_digest);
        assert_eq!(serial.aggregates, parallel.aggregates);
        assert_eq!(serial.results.len(), parallel.results.len());
        for (a, b) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(a.trial.key, b.trial.key);
            assert_eq!(a.output, b.output);
        }
    }

    #[test]
    fn aggregates_summarize_the_seed_axis() {
        let report = run_sweep(&toy_spec(), toy_registry(), &SweepOptions::default()).unwrap();
        assert_eq!(report.aggregates.len(), 2); // one metric x two variants
        let a = &report.aggregates[0];
        assert_eq!((a.experiment.as_str(), a.variant.as_str()), ("mul", "x2"));
        assert_eq!(a.summary.n, 4);
        // The mean is exactly what the identity-derived seeds predict.
        let expected: Vec<f64> = (0..4)
            .map(|i| {
                let seed = unxpec::experiments::seeding::indexed(toy_spec().root_seed, "mul/x2", i);
                (seed % 1000) as f64 * 2.0
            })
            .collect();
        assert_eq!(a.summary, Summary::of(&expected));
    }

    #[test]
    fn report_renders_and_exports() {
        let report = run_sweep(&toy_spec(), toy_registry(), &SweepOptions::default()).unwrap();
        let text = report.to_string();
        assert!(text.contains("mul/x2:"));
        assert!(text.contains("aggregate digest"));
        unxpec_telemetry::json::validate(&report.chrome_trace()).expect("trace JSON");
        let metrics = report.metrics_registry().to_json();
        assert!(metrics.contains("sweep.pool.executed"));
        assert_eq!(report.spans.len(), 8, "one span per executed trial");
        assert_eq!(report.stats.executed, 8);
    }

    #[test]
    fn unknown_experiment_is_a_spec_error() {
        let mut spec = toy_spec();
        spec.experiments = vec!["ghost".into()];
        match run_sweep(&spec, toy_registry(), &SweepOptions::default()) {
            Err(SweepError::Spec(SpecError::UnknownExperiment(name))) => {
                assert_eq!(name, "ghost")
            }
            other => panic!("expected UnknownExperiment, got {other:?}"),
        }
    }

    /// One variant always panics, the other computes.
    fn flaky_registry() -> Registry {
        let mut r = Registry::new();
        r.register(FnExperiment::new("flaky", &["good", "bad"], |ctx| {
            assert!(ctx.variant != "bad", "cell is broken");
            TrialOutput::new("ok".into(), vec![("v", 1.0)])
        }));
        r
    }

    fn flaky_spec() -> SweepSpec {
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["flaky".into()];
        spec.seeds = 1;
        spec
    }

    fn limit_registry() -> Registry {
        let mut r = Registry::new();
        r.register(FnExperiment::new("limit", &["clean", "hit"], |ctx| {
            TrialOutput::new("partial".into(), vec![("v", 1.0)])
                .with_truncated(ctx.variant == "hit")
                .with_diagnostics(vec!["fault fill_wedge @ cycle 100".into()])
        }));
        r
    }

    #[test]
    fn truncated_outputs_become_typed_timeouts_not_aggregates() {
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["limit".into()];
        spec.seeds = 2;
        let report = run_sweep(&spec, limit_registry(), &SweepOptions::default()).unwrap();
        assert_eq!(report.results.len(), 2, "only clean trials aggregate");
        assert_eq!(
            report.timed_out.len(),
            2,
            "truncated trials are typed timeouts"
        );
        assert!(report.timed_out[0].error.contains("hit_limit"));
        assert!(
            report.aggregates.iter().all(|a| a.variant == "clean"),
            "no truncated cell in aggregates"
        );
        let text = report.to_string();
        assert!(text.contains("TIMEOUT limit/hit/s0"), "{text}");
    }

    #[test]
    fn truncated_trials_checkpoint_and_stay_timeouts_on_resume() {
        let dir = temp_dir("truncated-resume");
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["limit".into()];
        spec.variants = Some(vec!["hit".into()]);
        spec.seeds = 1;
        let first = run_sweep(&spec, limit_registry(), &in_dir(&dir)).unwrap();
        assert_eq!(first.timed_out.len(), 1);
        let mut cache = ResultCache::open(&CacheConfig {
            dir: dir.join("cache"),
            max_bytes: 0,
        })
        .unwrap();
        assert_eq!(cache.len(), 1, "truncated trials checkpoint");
        assert!(cache.take_failures().is_empty(), "not a retryable failure");
        let second = run_sweep(&spec, limit_registry(), &in_dir(&dir)).unwrap();
        assert_eq!(second.resumed, 1, "resumed from the checkpoint");
        assert_eq!(second.timed_out.len(), 1, "still surfaced as a timeout");
        assert_eq!(first.aggregate_digest, second.aggregate_digest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_failures_are_quarantined_with_diagnostics_bundles() {
        let dir = temp_dir("quarantine");
        let bundles = dir.join("diag");
        let opts = SweepOptions {
            quarantine_after: 2,
            diagnostics_dir: Some(bundles.clone()),
            ..in_dir(&dir)
        };
        // Run 1 and 2: the bad cell poisons (failures 1, then 2).
        let r1 = run_sweep(&flaky_spec(), flaky_registry(), &opts).unwrap();
        assert_eq!(r1.poisoned.len(), 1);
        assert_eq!(r1.poisoned[0].failures, 1);
        assert!(r1.quarantined.is_empty());
        let r2 = run_sweep(&flaky_spec(), flaky_registry(), &opts).unwrap();
        assert_eq!(r2.poisoned[0].failures, 2);
        // Run 3: the cell has hit the quarantine threshold — skipped,
        // recorded, reported.
        let r3 = run_sweep(&flaky_spec(), flaky_registry(), &opts).unwrap();
        assert!(r3.poisoned.is_empty(), "quarantined cell must not run");
        assert_eq!(r3.quarantined.len(), 1);
        assert_eq!(r3.quarantined[0].key, "flaky/bad/s0");
        assert_eq!(r3.quarantined[0].failures, 2);
        assert!(r3.quarantined[0].error.contains("cell is broken"));
        let saved = failure_records(&dir);
        assert_eq!(saved.len(), 1);
        assert_eq!(saved[0].failures, 2);
        // Run 4: quarantine persists beside the cache.
        let r4 = run_sweep(&flaky_spec(), flaky_registry(), &opts).unwrap();
        assert_eq!(r4.quarantined.len(), 1);
        // Each failure wrote a reproducible diagnostics bundle.
        let bundle = bundles.join("flaky_bad_s0.json");
        let text = std::fs::read_to_string(&bundle).unwrap();
        unxpec_telemetry::json::validate(&text).expect("bundle is valid JSON");
        let doc = unxpec_telemetry::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("key").and_then(|v| v.as_str()),
            Some("flaky/bad/s0")
        );
        assert_eq!(
            doc.get("outcome").and_then(|v| v.as_str()),
            Some("quarantined")
        );
        assert!(doc.get("seed").is_some());
        assert!(doc.get("config").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn or flipped journal line costs only itself: the sweep
    /// warns, and the cells it no longer names come back from the
    /// cache, reproducing the run.
    #[test]
    fn a_corrupt_journal_recovers_with_a_warning_instead_of_failing() {
        for damage in ["tear", "flip"] {
            let dir = temp_dir(&format!("recover-{damage}"));
            let journal = dir.join("journal.log");
            let first = run_sweep(&toy_spec(), toy_registry(), &in_dir(&dir)).unwrap();
            assert!(first.warnings.is_empty());
            let mut bytes = std::fs::read(&journal).unwrap();
            if damage == "tear" {
                // Cut the file mid-record, as a crash during a plain
                // write would.
                bytes.truncate(bytes.len() * 2 / 3);
            } else {
                let at = bytes.len() / 2;
                bytes[at] ^= 0x01;
            }
            std::fs::write(&journal, bytes).unwrap();
            let second = run_sweep(&toy_spec(), toy_registry(), &in_dir(&dir)).unwrap();
            assert_eq!(second.warnings.len(), 1, "{damage}: recovery must warn");
            assert!(
                second.warnings[0].contains("recovered"),
                "{}",
                second.warnings[0]
            );
            assert_eq!(second.resumed, 8, "{damage}: every cell is still cached");
            assert_eq!(
                first.aggregate_digest, second.aggregate_digest,
                "recovery plus rerun reproduces the run"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Resume never trusts a record whose own checksum fails. One
    /// changed metric digit inside one cache entry drops exactly that
    /// entry; the trial reruns and the run reproduces the uninterrupted
    /// digest.
    #[test]
    fn a_tampered_cache_entry_is_dropped_and_rerun() {
        let dir = temp_dir("tamper");
        let first = run_sweep(&toy_spec(), toy_registry(), &in_dir(&dir)).unwrap();
        let target = first
            .results
            .iter()
            .find(|r| r.trial.key == "mul/x3/s1")
            .unwrap();
        let cell = unxpec_harness::cell_digest(&toy_spec(), "mul", "x3", 1);
        let path = dir
            .join("cache")
            .join(format!("{:02x}", cell & 0xff))
            .join(format!("{cell:016x}.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let metric = format!("\"v\": {}", target.output.metrics[0].1);
        let digit = metric.chars().last().unwrap();
        let bumped = char::from_digit((digit.to_digit(10).unwrap() + 1) % 10, 10).unwrap();
        let tampered = format!("{}{bumped}", &metric[..metric.len() - 1]);
        assert!(text.contains(&metric), "tamper target must exist");
        std::fs::write(&path, text.replacen(&metric, &tampered, 1)).unwrap();

        let second = run_sweep(&toy_spec(), toy_registry(), &in_dir(&dir)).unwrap();
        assert_eq!(second.warnings.len(), 1, "dropping the entry must warn");
        assert!(
            second.warnings[0].contains("recovered"),
            "{}",
            second.warnings[0]
        );
        let rerun: Vec<&str> = second
            .results
            .iter()
            .filter(|r| !r.resumed)
            .map(|r| r.trial.key.as_str())
            .collect();
        assert_eq!(rerun, ["mul/x3/s1"], "only the tampered trial reruns");
        assert_eq!(second.aggregate_digest, first.aggregate_digest);
        assert_eq!(second.aggregates, first.aggregates);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn slow_registry() -> Registry {
        let mut r = Registry::new();
        r.register(FnExperiment::new("slow", &["default"], |_| {
            std::thread::sleep(Duration::from_millis(30));
            TrialOutput::new("late".into(), vec![])
        }));
        r
    }

    fn slow_spec() -> SweepSpec {
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["slow".into()];
        spec.seeds = 1;
        spec
    }

    #[test]
    fn pool_deadline_timeouts_are_recorded_and_retried_on_resume() {
        let dir = temp_dir("deadline");
        let strict = SweepOptions {
            deadline_ms: Some(1),
            ..in_dir(&dir)
        };
        let report = run_sweep(&slow_spec(), slow_registry(), &strict).unwrap();
        assert_eq!(report.timed_out.len(), 1);
        assert_eq!(report.stats.timed_out, 1);
        let saved = failure_records(&dir);
        assert_eq!(saved.len(), 1, "pool timeouts are recorded for retry");
        assert!(saved[0].error.contains("deadline exceeded"), "{saved:?}");
        // Resume with a sane deadline: the trial reruns and completes.
        let relaxed = SweepOptions {
            deadline_ms: Some(60_000),
            ..in_dir(&dir)
        };
        let report = run_sweep(&slow_spec(), slow_registry(), &relaxed).unwrap();
        assert!(report.timed_out.is_empty());
        assert_eq!(report.results.len(), 1);
        assert!(failure_records(&dir).is_empty(), "the success cleared it");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `sweep.trials_total` in `--metrics-out` counts what the summary
    /// line counts, timeouts included.
    #[test]
    fn trials_total_agrees_with_the_summary_line() {
        let mut spec = slow_spec();
        spec.seeds = 2;
        let opts = SweepOptions {
            deadline_ms: Some(1),
            ..SweepOptions::default()
        };
        let report = run_sweep(&spec, slow_registry(), &opts).unwrap();
        assert_eq!(report.timed_out.len(), 2);
        let text = report.to_string();
        let summary: u64 = text
            .lines()
            .find_map(|l| l.split("— ").nth(1)?.split(" trial(s)").next())
            .and_then(|n| n.parse().ok())
            .expect("summary line");
        assert_eq!(summary, 2, "{text}");
        assert_eq!(
            report.metrics_registry().counter("sweep.trials_total"),
            summary
        );
    }
}
