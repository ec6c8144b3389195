//! Integration tests for the sweep: parallel-equals-serial
//! determinism, the pinned aggregate digest, checkpoint/resume from a
//! state directory (the service's journal plus its result cache), and
//! panic containment with bounded retry (`docs/harness.md`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use unxpec_harness::{FnExperiment, Registry, SweepOptions, SweepSpec, TrialOutput};
use unxpec_service::{
    run_sweep, CacheConfig, Journal, JournalRecord, ResultCache, Service, ServiceConfig,
};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unxpec-harness-it-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn state(dir: &Path) -> SweepOptions {
    SweepOptions {
        state_dir: Some(dir.to_path_buf()),
        ..SweepOptions::default()
    }
}

/// The state directory's journal records.
fn journal_records(dir: &Path) -> Vec<JournalRecord> {
    let text = std::fs::read_to_string(dir.join("journal.log")).expect("journal");
    Journal::salvage(&text).records
}

/// jobs=1 and jobs=8 must produce identical results, aggregates, and
/// digests on real paper experiments — the acceptance property of the
/// whole harness.
#[test]
fn parallel_sweep_equals_serial_sweep_on_real_experiments() {
    let registry = Registry::builtin();
    let mut spec = SweepSpec::quick();
    // timeline is the cheapest seeded experiment with two variants.
    spec.experiments = vec!["timeline".into(), "secret-pattern".into()];
    spec.seeds = 3;

    let serial = run_sweep(
        &spec,
        registry,
        &SweepOptions {
            jobs: 1,
            ..Default::default()
        },
    )
    .expect("serial sweep");
    let parallel = run_sweep(
        &spec,
        Registry::builtin(),
        &SweepOptions {
            jobs: 8,
            ..Default::default()
        },
    )
    .expect("parallel sweep");

    assert_eq!(serial.aggregate_digest, parallel.aggregate_digest);
    assert_eq!(serial.aggregates, parallel.aggregates);
    assert_eq!(serial.results.len(), parallel.results.len());
    for (a, b) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(a.trial.key, b.trial.key, "enumeration order differs");
        assert_eq!(a.trial.seed, b.trial.seed, "derived seed differs");
        assert_eq!(a.output, b.output, "trial {} output differs", a.trial.key);
        assert_eq!(a.digest, b.digest);
    }
    assert!(serial.poisoned.is_empty() && parallel.poisoned.is_empty());
}

/// The sweep aggregate digest BENCH.md records for
/// `sweep --experiments rollback,pdf,leakage,timeline --scale quick
/// --seeds 4`. Every trial's output digest feeds it, so any change to
/// a simulated result, to `output_digest` or to the digest chain moves
/// it; it must not move with the worker count.
#[test]
fn sweep_aggregate_digest_is_pinned_at_every_job_count() {
    let mut spec = SweepSpec::quick();
    spec.experiments = ["rollback", "pdf", "leakage", "timeline"]
        .map(String::from)
        .to_vec();
    spec.seeds = 4;
    for jobs in [1, 2] {
        let report = run_sweep(
            &spec,
            Registry::builtin(),
            &SweepOptions {
                jobs,
                ..SweepOptions::default()
            },
        )
        .expect("sweep");
        assert_eq!(
            report.aggregate_digest, 0xec58_6dd9_4b11_5859,
            "aggregate digest moved at --jobs {jobs}"
        );
    }
}

fn counting_registry(runs: Arc<AtomicUsize>) -> Registry {
    let mut r = Registry::new();
    r.register(FnExperiment::new("count", &["default"], move |ctx| {
        runs.fetch_add(1, Ordering::Relaxed);
        TrialOutput::new(
            format!("seed {}", ctx.seed),
            vec![("seed_mod", (ctx.seed % 97) as f64)],
        )
    }));
    r
}

fn count_spec(seeds: u64) -> SweepSpec {
    let mut spec = SweepSpec::quick();
    spec.experiments = vec!["count".into()];
    spec.seeds = seeds;
    spec
}

#[test]
fn resume_from_state_dir_skips_completed_trials() {
    let dir = tmpdir("resume");
    let runs = Arc::new(AtomicUsize::new(0));
    let mut spec = count_spec(5);
    let opts = SweepOptions {
        jobs: 2,
        retries: 0,
        ..state(&dir)
    };

    let first = run_sweep(&spec, counting_registry(runs.clone()), &opts).expect("first run");
    assert_eq!(runs.load(Ordering::Relaxed), 5);
    assert_eq!(first.resumed, 0);
    assert!(dir.join("journal.log").exists(), "journal checkpointed");

    // Second run: every trial comes from the state directory, nothing
    // executes, and the aggregates are byte-identical.
    let second = run_sweep(&spec, counting_registry(runs.clone()), &opts).expect("resumed run");
    assert_eq!(runs.load(Ordering::Relaxed), 5, "no trial re-ran");
    assert_eq!(second.resumed, 5);
    assert_eq!(second.aggregate_digest, first.aggregate_digest);
    assert_eq!(second.aggregates, first.aggregates);

    // Growing the seed axis only runs the new trials.
    spec.seeds = 8;
    let third = run_sweep(&spec, counting_registry(runs.clone()), &opts).expect("grown run");
    assert_eq!(runs.load(Ordering::Relaxed), 8, "only 3 new trials ran");
    assert_eq!(third.resumed, 5);
    assert_eq!(third.results.len(), 8);

    std::fs::remove_dir_all(&dir).ok();
}

/// A cell that failed and then succeeded carries no failure history:
/// the success deletes the failure record beside its cache entry, so
/// even quarantine after one failing run never quarantines it.
#[test]
fn an_appended_completion_supersedes_a_compacted_poisoning() {
    let dir = tmpdir("last-wins");
    let spec = count_spec(2);
    let runs = Arc::new(AtomicUsize::new(0));
    let uninterrupted = run_sweep(
        &spec,
        counting_registry(runs.clone()),
        &SweepOptions::default(),
    )
    .expect("reference");
    // `count`, except that s0 panics while `armed` is set.
    let s0 = uninterrupted.results[0].trial.seed;
    let armed = Arc::new(AtomicBool::new(true));
    let flaky = || {
        let (armed, runs) = (armed.clone(), runs.clone());
        let mut r = Registry::new();
        r.register(FnExperiment::new("count", &["default"], move |ctx| {
            runs.fetch_add(1, Ordering::Relaxed);
            assert!(
                !(ctx.seed == s0 && armed.load(Ordering::Relaxed)),
                "earlier run"
            );
            TrialOutput::new(
                format!("seed {}", ctx.seed),
                vec![("seed_mod", (ctx.seed % 97) as f64)],
            )
        }));
        r
    };
    let failures_on_disk = || {
        ResultCache::open(&CacheConfig {
            dir: dir.join("cache"),
            max_bytes: 0,
        })
        .expect("cache")
        .take_failures()
        .len()
    };

    // Run 1: s0 is poisoned, and its failure is recorded.
    let first = run_sweep(&spec, flaky(), &state(&dir)).expect("failing run");
    assert_eq!(first.poisoned.len(), 1);
    assert_eq!(first.poisoned[0].key, "count/default/s0");
    assert_eq!(first.poisoned[0].failures, 1);
    assert_eq!(failures_on_disk(), 1);

    // Run 2: the failed slot reruns (failures are not journaled) and
    // succeeds, which deletes the failure record.
    armed.store(false, Ordering::Relaxed);
    let second = run_sweep(&spec, flaky(), &state(&dir)).expect("recovering run");
    assert!(second.poisoned.is_empty());
    assert_eq!(second.resumed, 1, "s1 came from the state directory");
    assert_eq!(failures_on_disk(), 0, "the success cleared the history");

    // Run 3 on a fresh journal, so every cell is dispatched again: with
    // quarantine after one failing run, a surviving record would
    // quarantine s0 ahead of its cache hit.
    std::fs::remove_file(dir.join("journal.log")).expect("drop journal");
    armed.store(true, Ordering::Relaxed);
    let runs_before = runs.load(Ordering::Relaxed);
    let opts = SweepOptions {
        quarantine_after: 1,
        ..state(&dir)
    };
    let report = run_sweep(&spec, flaky(), &opts).expect("resumed run");
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    assert_eq!(report.resumed, 2, "both cells resume as completed");
    assert_eq!(runs.load(Ordering::Relaxed), runs_before, "nothing ran");
    assert!(report.quarantined.is_empty() && report.poisoned.is_empty());
    assert_eq!(report.aggregate_digest, uninterrupted.aggregate_digest);
    std::fs::remove_dir_all(&dir).ok();
}

/// A second spec over the same state directory reuses every cell the
/// two share, and an unfinished job of another spec that the journal
/// replays is cancelled, not run.
#[test]
fn a_second_spec_reuses_shared_cells_and_cancels_a_foreign_job() {
    let dir = tmpdir("second-spec");
    let runs = Arc::new(AtomicUsize::new(0));
    let opts = SweepOptions {
        jobs: 1,
        retries: 0,
        ..state(&dir)
    };
    run_sweep(&count_spec(2), counting_registry(runs.clone()), &opts).expect("first run");
    assert_eq!(runs.load(Ordering::Relaxed), 2);

    // An unfinished foreign job: submitted to the journal, never run.
    let mut foreign = count_spec(6);
    foreign.root_seed ^= 0xffff;
    let service = Service::new(
        counting_registry(runs.clone()),
        ServiceConfig {
            jobs: 1,
            cache: Some(CacheConfig {
                dir: dir.join("cache"),
                max_bytes: 0,
            }),
            journal: Some(dir.join("journal.log")),
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let (foreign_job, _) = service
        .submit("alice", &foreign.render().unwrap())
        .expect("submit");
    drop(service);

    // A different spec sharing cells s0 and s1 with the first.
    let grown = count_spec(4);
    let report = run_sweep(&grown, counting_registry(runs.clone()), &opts).expect("second spec");
    assert_eq!(runs.load(Ordering::Relaxed), 4, "only s2 and s3 ran");
    assert_eq!(report.resumed, 2, "the shared cells were reused");
    assert_eq!(report.results.len(), 4);

    // The foreign job's cancel is journaled before the sweep's submit.
    let records = journal_records(&dir);
    let num: u64 = foreign_job[1..].parse().unwrap();
    let cancel = records
        .iter()
        .position(|r| *r == JournalRecord::Cancel { job: num })
        .expect("cancel journaled");
    let last_submit = records
        .iter()
        .rposition(|r| matches!(r, JournalRecord::Submit { .. }))
        .unwrap();
    assert!(cancel < last_submit, "cancelled before the sweep submitted");
    std::fs::remove_dir_all(&dir).ok();
}

/// Tier-1: a sweep's cells are the service's cells. A fresh service
/// over the sweep's cache, with a new journal, serves the same spec
/// text from another tenant entirely from the cache, and its result
/// document's aggregates equal the sweep report's.
#[test]
fn a_sweeps_cells_are_the_services_cells() {
    let dir = tmpdir("sweep-service");
    let runs = Arc::new(AtomicUsize::new(0));
    let spec = count_spec(4);
    let report = run_sweep(&spec, counting_registry(runs.clone()), &state(&dir)).expect("sweep");
    assert_eq!(runs.load(Ordering::Relaxed), 4);

    let service = Service::new(
        counting_registry(runs.clone()),
        ServiceConfig {
            jobs: 2,
            cache: Some(CacheConfig {
                dir: dir.join("cache"),
                max_bytes: 0,
            }),
            journal: Some(dir.join("other-journal.log")),
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let (job, total) = service
        .submit("someone-else", &spec.render().unwrap())
        .expect("submit");
    while service.tick() > 0 {}
    let status = service.status(&job).expect("status");
    assert!(status.finished());
    assert_eq!((status.cached, status.total), (total, 4));
    assert_eq!(runs.load(Ordering::Relaxed), 4, "zero executions");

    let doc = service.results(&job).expect("results");
    let lines: Vec<&str> = doc
        .lines()
        .filter(|l| l.starts_with("aggregate "))
        .collect();
    let expected: Vec<String> = report
        .aggregates
        .iter()
        .map(|a| {
            format!(
                "aggregate {} {} {} mean {} std {} min {} max {} n {}",
                a.experiment,
                a.variant,
                a.metric,
                a.summary.mean,
                a.summary.std_dev,
                a.summary.min,
                a.summary.max,
                a.summary.n
            )
        })
        .collect();
    assert!(!lines.is_empty());
    assert_eq!(lines, expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_panic_is_contained_and_reported() {
    let mut registry = Registry::new();
    registry.register(FnExperiment::new("mixed", &["ok", "boom"], |ctx| {
        if ctx.variant == "boom" {
            panic!("injected failure for seed {}", ctx.seed);
        }
        TrialOutput::new("fine".into(), vec![("one", 1.0)])
    }));
    let mut spec = SweepSpec::quick();
    spec.experiments = vec!["mixed".into()];
    spec.seeds = 3;
    let report = run_sweep(
        &spec,
        registry,
        &SweepOptions {
            jobs: 4,
            retries: 1,
            ..SweepOptions::default()
        },
    )
    .expect("sweep survives panicking trials");

    assert_eq!(report.results.len(), 3, "ok trials all completed");
    assert_eq!(report.poisoned.len(), 3, "boom trials all poisoned");
    for p in &report.poisoned {
        assert!(p.key.starts_with("mixed/boom/"), "key {}", p.key);
        assert!(p.error.contains("injected failure"), "error {}", p.error);
        assert_eq!(p.attempts, 2, "1 try + 1 retry");
    }
    assert_eq!(report.stats.panicked, 6);
    assert_eq!(report.stats.retried, 3);
    // The report renders the poisoned trials.
    let text = report.to_string();
    assert!(text.contains("POISONED mixed/boom/s0"));
}

/// Regression: a trial that panics once and then succeeds must be
/// counted exactly once everywhere — one attempt chain in the pool
/// counters (`retried == panicked == 1`), one journaled completion and
/// one cache entry, and no poisoned or failure record.
#[test]
fn panic_once_then_succeed_is_not_double_counted() {
    let dir = tmpdir("flaky-accounting");
    let tries = Arc::new(AtomicUsize::new(0));
    let mut registry = Registry::new();
    let tries_in = tries.clone();
    registry.register(FnExperiment::new("once", &["default"], move |_| {
        if tries_in.fetch_add(1, Ordering::Relaxed) == 0 {
            panic!("first attempt dies");
        }
        TrialOutput::new("second attempt fine".into(), vec![("v", 1.0)])
    }));
    let mut spec = SweepSpec::quick();
    spec.experiments = vec!["once".into()];
    spec.seeds = 1;
    let report = run_sweep(
        &spec,
        registry,
        &SweepOptions {
            jobs: 2,
            retries: 2,
            ..state(&dir)
        },
    )
    .expect("sweep");

    // Pool counters: one panicking attempt, one retry, nothing more.
    assert_eq!(report.stats.panicked, 1, "one attempt panicked");
    assert_eq!(report.stats.retried, 1, "one retry, not one per counter");
    assert_eq!(report.stats.executed, 1);
    assert!(report.poisoned.is_empty(), "the trial ultimately succeeded");
    assert_eq!(report.results.len(), 1);
    assert_eq!(report.results[0].attempts, 2, "1 panic + 1 success");

    // Metrics export mirrors the counters rather than re-deriving them.
    let metrics = report.metrics_registry();
    assert_eq!(metrics.counter("sweep.pool.retried"), 1);
    assert_eq!(metrics.counter("sweep.pool.panicked"), 1);
    assert_eq!(metrics.counter("sweep.trials_poisoned"), 0);
    assert_eq!(metrics.counter("sweep.trials_total"), 1);

    // State directory: exactly one journaled completion and one cache
    // entry for one trial, and no failure record for the panic the
    // retry absorbed.
    let done = journal_records(&dir)
        .iter()
        .filter(|r| matches!(r, JournalRecord::CellDone { .. }))
        .count();
    assert_eq!(done, 1, "one record for one trial");
    let mut cache = ResultCache::open(&CacheConfig {
        dir: dir.join("cache"),
        max_bytes: 0,
    })
    .expect("cache");
    assert_eq!(cache.len(), 1);
    assert!(cache.take_failures().is_empty());

    // The trial span reports the full attempt chain once.
    assert_eq!(report.spans.len(), 1);
    assert_eq!(report.spans[0].args, vec![("attempts".to_string(), 2)]);

    // Per-worker throughput covers the one executed trial.
    let loads = report.worker_loads();
    assert_eq!(loads.iter().map(|l| l.trials).sum::<u64>(), 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flaky_trial_recovers_within_the_retry_budget() {
    let tries = Arc::new(AtomicUsize::new(0));
    let mut registry = Registry::new();
    let tries_in = tries.clone();
    registry.register(FnExperiment::new("flaky", &["default"], move |_| {
        if tries_in.fetch_add(1, Ordering::Relaxed) < 2 {
            panic!("transient fault");
        }
        TrialOutput::new("recovered".into(), vec![])
    }));
    let mut spec = SweepSpec::quick();
    spec.experiments = vec!["flaky".into()];
    spec.seeds = 1;
    let report = run_sweep(
        &spec,
        registry,
        &SweepOptions {
            jobs: 1,
            retries: 3,
            ..SweepOptions::default()
        },
    )
    .expect("sweep");
    assert!(report.poisoned.is_empty());
    assert_eq!(report.results[0].attempts, 3);
    assert_eq!(report.results[0].output.rendered, "recovered");
}
