//! The benchmark's own tests: seed-determinism of every workload's
//! inputs, and a short run of every workload passing its checks.

#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use std::path::PathBuf;

use perfbench::workloads::{ff_suite, service_spec, spec_suite, Kind, ServiceWarm, UnxpecLeak};
use perfbench::{run, Options, Report, COUNT_OPS};

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn short_run(kind: Kind, seed: u64, trace: bool) -> Report {
    let opts = Options {
        kind,
        seed,
        seconds: 0.2,
        trace,
        out_dir: out_dir(&format!("{}-{seed}-{trace}", kind.name())),
    };
    let report = run(&opts).expect("set-up succeeds");
    assert_eq!(report.failed, 0, "{}: an op failed its check", kind.name());
    assert_ne!(
        report.counts_match,
        Some(false),
        "{}: counts differ from golden_counts.txt",
        kind.name()
    );
    assert!(report.attempted >= COUNT_OPS);
    report
}

#[test]
fn generators_are_deterministic_in_the_seed() {
    let specs = |seed| {
        spec_suite(seed)
            .iter()
            .map(|k| *k.spec())
            .collect::<Vec<_>>()
    };
    assert_eq!(specs(7), specs(7));
    assert_ne!(specs(7), specs(8));
    let programs = |seed| {
        ff_suite(seed)
            .expect("unroll table matches the suite")
            .iter()
            .map(|k| k.program().clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(programs(7), programs(7));
    assert_ne!(programs(7), programs(8));
    assert_eq!(UnxpecLeak::secret(7, 3), UnxpecLeak::secret(7, 3));
    assert_ne!(UnxpecLeak::secret(7, 3), UnxpecLeak::secret(7, 4));
    assert_ne!(UnxpecLeak::secret(7, 3), UnxpecLeak::secret(8, 3));
    assert_eq!(service_spec(7), service_spec(7));
    assert_ne!(service_spec(7), service_spec(8));
    assert_ne!(ServiceWarm::tenant(7, 1), ServiceWarm::tenant(7, 2));
}

#[test]
fn every_workload_passes_its_checks_and_repeats_its_counts() {
    for kind in Kind::ALL {
        for seed in [1, 7919] {
            assert!(
                perfbench::counts::golden(kind.name(), seed).is_some(),
                "{}: no pinned counts at seed {seed}",
                kind.name()
            );
        }
        // Seed 1 is pinned, so `short_run` also checks the counts
        // against golden_counts.txt.
        let untraced = short_run(kind, 1, false);
        assert_eq!(untraced.counts_match, Some(true));
        let traced = short_run(kind, 1, true);
        assert_eq!(
            untraced.counts,
            traced.counts,
            "{}: tracing changed a simulated count",
            kind.name()
        );
        for name in ["setup_s", "op_us.best", "peak_rss_mb"] {
            let v = untraced.metric(name).expect("end-to-end metric present");
            assert!(v > 0.0, "{}: {name} = {v}", kind.name());
        }
        assert!(traced.metric("trace.overhead").is_some());
        assert!(traced.metric("bench.other_us").is_some_and(|v| v > 0.0));
    }
}

#[test]
fn service_ops_are_new_jobs_served_from_the_cache() {
    let report = short_run(Kind::ServiceWarm, 5, true);
    assert_eq!(report.metric("service.cache.hit_ratio"), Some(1.0));
    assert!(report.metric("service.inproc_us").is_some_and(|v| v > 0.0));

    // Resubmitting under an op's tenant re-attaches to its job, which
    // the op check must refuse.
    let dir = out_dir("reattach");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut tr = perfbench::trace::Tracer::new(false);
    let mut bench = Kind::ServiceWarm
        .setup(5, &dir, &mut tr)
        .expect("set-up succeeds");
    let mut counts = perfbench::counts::Counts::default();
    let mut cells = Vec::new();
    assert!(bench.op(1, &mut tr, &mut counts, &mut cells).is_ok());
    assert_eq!(counts.cache_hits, 40);
    assert_eq!(counts.cache_misses, 0);
    let again = bench.op(1, &mut tr, &mut counts, &mut cells);
    assert!(again.is_err_and(|why| why.contains("not the next new job")));
}
