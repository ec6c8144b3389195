//! Integration tests for the multi-tenant sweep service
//! (`docs/service.md`): fair cross-tenant scheduling, cache-hit
//! results byte-identical to cold runs, cache survival across a
//! server restart, the TCP protocol end-to-end, a pinned golden cell
//! digest, corruption robustness of the on-disk cache and the job
//! journal, crash-resume with zero re-simulation, idempotent
//! re-submission, admission control with the server-chosen retry
//! hint, graceful drain, and sequence-cursor stream resume.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use unxpec_harness::{
    cell_digest, FnExperiment, Registry, RunPolicy, SweepSpec, TrialOutput, DIGEST_VERSION,
};
use unxpec_service::{
    AdmissionConfig, CacheConfig, Client, DigestedOutput, Journal, JournalRecord, ResilientClient,
    ResultCache, Service, ServiceConfig, ServiceError, TcpFront,
};
use unxpec_telemetry::{Event, MetricsHub, Telemetry};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unxpec-service-it-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A deterministic two-variant experiment that counts executions, so
/// tests can prove cache hits never re-run the simulator. The metric
/// exercises the f64 round-trip with a non-terminating binary fraction.
fn counting_registry(counter: Arc<AtomicUsize>) -> Registry {
    let mut registry = Registry::new();
    registry.register(FnExperiment::new("count", &["a", "b"], move |ctx| {
        counter.fetch_add(1, Ordering::SeqCst);
        let mut out = TrialOutput::new(
            format!("variant {} seed {:#x}", ctx.variant, ctx.seed),
            vec![],
        );
        out.metrics = vec![
            ("seed_tenth".into(), (ctx.seed % 1000) as f64 / 10.0),
            ("neg".into(), -0.3),
        ];
        out
    }));
    registry
}

fn drive(service: &Service) {
    while service.tick() > 0 {}
}

const SPEC: &str = "experiments = count\nseeds = 4\nroot-seed = 0x5eed";
/// Same shape as [`SPEC`] but disjoint cells — used where in-batch
/// coalescing of identical cells would hide the scheduling order.
const SPEC_B: &str = "experiments = count\nseeds = 4\nroot-seed = 0xb0b";

#[test]
fn two_tenants_interleave_fairly_and_both_complete() {
    let counter = Arc::new(AtomicUsize::new(0));
    let service = Service::new(
        counting_registry(Arc::clone(&counter)),
        ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service");

    let (alice_job, alice_trials) = service.submit("alice", SPEC).expect("submit alice");
    let (bob_job, bob_trials) = service.submit("bob", SPEC_B).expect("submit bob");
    assert_eq!(alice_trials, 8); // 2 variants x 4 seeds
    assert_eq!(bob_trials, 8);
    drive(&service);

    let alice = service.status(&alice_job).expect("status");
    let bob = service.status(&bob_job).expect("status");
    assert!(alice.finished() && bob.finished(), "both tenants complete");
    assert_eq!(alice.done, 8);
    assert_eq!(bob.done, 8);

    // Fairness: while both tenants have pending trials the scheduler
    // alternates strictly, even though alice submitted first.
    let log = service.dispatch_log();
    let tenants: Vec<&str> = log.iter().map(|(t, _)| t.as_str()).collect();
    assert!(tenants.len() >= 8, "dispatch log records pool dispatches");
    for pair in tenants[..8.min(tenants.len())].windows(2) {
        assert_ne!(
            pair[0], pair[1],
            "dispatches must alternate tenants while both are pending: {tenants:?}"
        );
    }
}

#[test]
fn cache_hits_are_byte_identical_and_skip_execution() {
    let dir = tmpdir("byteident");
    let counter = Arc::new(AtomicUsize::new(0));
    let hub = MetricsHub::new();
    let service = Service::new(
        counting_registry(Arc::clone(&counter)),
        ServiceConfig {
            jobs: 3,
            cache: Some(CacheConfig {
                dir: dir.clone(),
                max_bytes: 0,
            }),
            hub: Some(hub.clone()),
            ..ServiceConfig::default()
        },
    )
    .expect("service");

    let (cold, _) = service.submit("alice", SPEC).expect("submit cold");
    drive(&service);
    let cold_text = service.results(&cold).expect("cold results");
    let cold_runs = counter.load(Ordering::SeqCst);
    assert_eq!(cold_runs, 8, "cold job executes every trial");

    // Second submission of the same spec (different tenant, same
    // cells): all hits, zero executions, byte-identical document.
    let (warm, _) = service.submit("bob", SPEC).expect("submit warm");
    drive(&service);
    let warm_text = service.results(&warm).expect("warm results");
    assert_eq!(counter.load(Ordering::SeqCst), cold_runs, "no re-execution");
    assert_eq!(
        warm_text, cold_text,
        "cache-served results are byte-identical"
    );
    let status = service.status(&warm).expect("status");
    assert_eq!(status.cached, status.total, "every trial was a cache hit");

    // The hub mirrors the cache counters.
    let snapshot = hub.snapshot();
    assert_eq!(snapshot.counter("service.cache.hits"), 8);
    assert!(snapshot.counter("service.cache.bytes") > 0);
    assert_eq!(snapshot.counter("service.jobs.completed"), 2);
    assert_eq!(snapshot.counter("service.trials.executed"), 8);
    assert_eq!(snapshot.counter("service.trials.cached"), 8);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restarting_the_server_preserves_the_cache() {
    let dir = tmpdir("restart");
    let cache = Some(CacheConfig {
        dir: dir.clone(),
        max_bytes: 0,
    });

    // First server lifetime: run the sweep cold, then drop the server.
    let cold_text = {
        let counter = Arc::new(AtomicUsize::new(0));
        let service = Service::new(
            counting_registry(counter),
            ServiceConfig {
                jobs: 2,
                cache: cache.clone(),
                ..ServiceConfig::default()
            },
        )
        .expect("first server");
        let (job, _) = service.submit("alice", SPEC).expect("submit");
        drive(&service);
        service.results(&job).expect("results")
    };

    // Second lifetime over the same directory: resubmission is served
    // entirely from disk — the fresh counter never moves.
    let counter = Arc::new(AtomicUsize::new(0));
    let service = Service::new(
        counting_registry(Arc::clone(&counter)),
        ServiceConfig {
            jobs: 2,
            cache,
            ..ServiceConfig::default()
        },
    )
    .expect("second server");
    let (job, _) = service.submit("carol", SPEC).expect("resubmit");
    drive(&service);
    assert_eq!(counter.load(Ordering::SeqCst), 0, "restart re-ran nothing");
    let warm_text = service.results(&job).expect("results");
    assert_eq!(
        warm_text, cold_text,
        "restart-served results byte-identical"
    );
    let status = service.status(&job).expect("status");
    assert_eq!(status.cached, status.total);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcp_protocol_serves_concurrent_clients_end_to_end() {
    let counter = Arc::new(AtomicUsize::new(0));
    let mut service = Service::new(
        counting_registry(counter),
        ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    service.start_worker();
    let service = Arc::new(service);
    let front = TcpFront::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = front.addr().to_string();

    let addr2 = addr.clone();
    let bob = std::thread::spawn(move || {
        let mut client = Client::connect(&addr2).expect("bob connects");
        let submitted = client.submit("bob", SPEC).expect("bob submits");
        let status = client
            .stream(&submitted.job, |_done, _total| {})
            .expect("bob streams");
        assert!(status.finished);
        client.results(&submitted.job).expect("bob results")
    });

    let mut client = Client::connect(&addr).expect("alice connects");
    let submitted = client.submit("alice", SPEC).expect("alice submits");
    assert_eq!(submitted.trials, 8);
    let status = client
        .stream(&submitted.job, |_done, _total| {})
        .expect("alice streams");
    assert!(status.finished);
    assert_eq!(status.done, 8);
    let alice_text = client.results(&submitted.job).expect("alice results");
    let bob_text = bob.join().expect("bob thread");
    assert_eq!(alice_text, bob_text, "same spec, same document");

    // Protocol-level errors come back as reconstructed *typed* errors
    // with their distinct codes, not as dropped sockets or generic
    // remote strings.
    let err = client.results("j999").expect_err("unknown job");
    assert_eq!(err.code(), "unknown-job");
    assert!(
        matches!(err, unxpec_service::ServiceError::UnknownJob(ref job) if job == "j999"),
        "{err}"
    );
    let err = client
        .submit("alice", "scale = warp9")
        .expect_err("bad spec");
    assert_eq!(err.code(), "spec");
}

/// A frame of nested brackets far deeper than any thread stack could
/// recurse, yet well under the frame limit, is a typed parse error:
/// the connection keeps serving and the service still answers a
/// submit.
#[test]
fn a_deeply_nested_frame_is_a_typed_error_not_an_abort() {
    use std::io::{BufRead, BufReader, Write};

    let service = Arc::new(
        Service::new(
            counting_registry(Arc::new(AtomicUsize::new(0))),
            ServiceConfig::default(),
        )
        .expect("service"),
    );
    let front = TcpFront::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = front.addr().to_string();

    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut frame = "[".repeat(400 * 1024);
    frame.push('\n');
    writer.write_all(frame.as_bytes()).expect("send frame");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    let doc = unxpec_telemetry::json::parse(&line).expect("response is JSON");
    let text = |name| {
        doc.get(name)
            .and_then(unxpec_telemetry::json::Value::as_str)
    };
    assert_eq!(
        doc.get("ok"),
        Some(&unxpec_telemetry::json::Value::Bool(false))
    );
    assert_eq!(text("code"), Some("parse"), "{line}");
    assert!(
        text("error").is_some_and(|e| e.contains("nesting deeper than 128 at byte 128")),
        "{line}"
    );

    // The same connection still serves.
    let submit = unxpec_service::render_request(&unxpec_service::Request::Submit {
        tenant: "alice".into(),
        spec: SPEC.into(),
    });
    writer.write_all(submit.as_bytes()).expect("send submit");
    line.clear();
    reader.read_line(&mut line).expect("submit response");
    assert!(line.starts_with("{\"ok\": true"), "{line}");

    let mut client = Client::connect(&addr).expect("connect again");
    let submitted = client.submit("bob", SPEC_B).expect("bob submits");
    assert_eq!(submitted.trials, 8);
}

/// The pinned digest of the golden spec's first cell
/// (`timeline`, first variant, seed index 0). If this assertion ever
/// fails without an intentional `DIGEST_VERSION` bump, the cache key
/// derivation changed and every persisted cache would silently miss
/// (or worse, collide).
const GOLDEN_CELL_DIGEST: u64 = 0x6104_1e1f_3bbe_4317;

#[test]
fn golden_spec_cell_digest_is_pinned() {
    assert_eq!(
        DIGEST_VERSION, 2,
        "bumping DIGEST_VERSION invalidates GOLDEN_CELL_DIGEST; re-pin it"
    );
    let text = std::fs::read_to_string("tests/golden/service_spec.txt").expect("golden spec");
    let spec = SweepSpec::parse(&text).expect("parse");
    let trials = spec.enumerate(&Registry::builtin()).expect("enumerate");
    let first = &trials[0];
    assert_eq!(first.experiment, "timeline");
    assert_eq!(first.seed_index, 0);
    let digest = cell_digest(&spec, &first.experiment, &first.variant, first.seed_index);
    assert_eq!(
        digest, GOLDEN_CELL_DIGEST,
        "cell digest of the committed golden spec changed: {digest:#018x}"
    );
}

fn seeded_entry(dir: &Path) -> (ResultCache, TrialOutput) {
    let config = CacheConfig {
        dir: dir.to_path_buf(),
        max_bytes: 0,
    };
    let mut cache = ResultCache::open(&config).expect("open");
    let mut output = TrialOutput::new("rendered line\nsecond line".into(), vec![]);
    output.metrics = vec![("diff".into(), 22.5), ("frac".into(), 0.1)];
    cache
        .put(0xfeed, &DigestedOutput::new(output.clone()))
        .expect("put");
    (cache, output)
}

fn entry_path(dir: &std::path::Path) -> PathBuf {
    dir.join(format!("{:02x}", 0xfeedu64 & 0xff))
        .join(format!("{:016x}.json", 0xfeedu64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single-byte corruption of a cache entry either leaves a
    /// byte-identical valid entry (flips that don't change the stored
    /// document, e.g. restoring the same byte) or falls back to a
    /// counted miss — never a panic, never a wrong result.
    #[test]
    fn bit_flipped_entries_fall_back_to_resimulation(pos in 0usize..4096, flip in 1u8..=255) {
        let dir = tmpdir(&format!("prop-flip-{pos}-{flip}"));
        let (mut cache, original) = seeded_entry(&dir);
        let path = entry_path(&dir);
        let mut bytes = std::fs::read(&path).expect("entry bytes");
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).expect("tamper");
        match cache.get(0xfeed) {
            Some((served, digest)) => {
                // Only a semantically identical document may be served.
                prop_assert_eq!(digest, unxpec_harness::output_digest(&original));
                prop_assert_eq!(served.rendered, original.rendered);
                prop_assert_eq!(served.metrics, original.metrics);
                prop_assert_eq!(cache.stats().corrupt, 0);
            }
            None => {
                prop_assert_eq!(cache.stats().corrupt, 1);
                prop_assert!(!path.exists(), "damaged entry must be deleted");
                // The recompute path repopulates the slot.
                cache.put(0xfeed, &DigestedOutput::new(original.clone())).expect("re-put");
                prop_assert!(cache.get(0xfeed).is_some());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating an entry at any point is detected the same way.
    #[test]
    fn truncated_entries_fall_back_to_resimulation(cut in 0usize..4096) {
        let dir = tmpdir(&format!("prop-cut-{cut}"));
        let (mut cache, original) = seeded_entry(&dir);
        let path = entry_path(&dir);
        let bytes = std::fs::read(&path).expect("entry bytes");
        let cut = cut % bytes.len(); // strictly shorter than the file
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        prop_assert!(cache.get(0xfeed).is_none(), "truncated entry must miss");
        prop_assert_eq!(cache.stats().corrupt, 1);
        cache.put(0xfeed, &DigestedOutput::new(original.clone())).expect("re-put");
        prop_assert!(cache.get(0xfeed).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn completed_cells_are_memoized_across_jobs_without_a_disk_cache() {
    let counter = Arc::new(AtomicUsize::new(0));
    let hub = MetricsHub::new();
    let service = Service::new(
        counting_registry(Arc::clone(&counter)),
        ServiceConfig {
            jobs: 2,
            hub: Some(hub.clone()),
            ..ServiceConfig::default()
        },
    )
    .expect("service");

    let (cold, _) = service.submit("alice", SPEC).expect("submit cold");
    drive(&service);
    assert_eq!(counter.load(Ordering::SeqCst), 8, "cold job executes all");
    let cold_text = service.results(&cold).expect("cold results");

    // Same cells from another tenant: served from the in-memory
    // completed-cell table — no disk cache, still zero re-execution.
    let (warm, _) = service.submit("bob", SPEC).expect("submit warm");
    drive(&service);
    assert_eq!(
        counter.load(Ordering::SeqCst),
        8,
        "memo skips re-simulation"
    );
    let status = service.status(&warm).expect("status");
    assert_eq!(status.cached, status.total, "all trials memo-served");
    assert_eq!(
        service.results(&warm).expect("warm results"),
        cold_text,
        "memo-served results byte-identical"
    );
    assert_eq!(hub.snapshot().counter("service.trials.memoized"), 8);
}

#[test]
fn concurrent_duplicate_jobs_add_no_extra_cache_misses() {
    let dir = tmpdir("zeromiss");
    let counter = Arc::new(AtomicUsize::new(0));
    let hub = MetricsHub::new();
    let service = Service::new(
        counting_registry(Arc::clone(&counter)),
        ServiceConfig {
            jobs: 2,
            cache: Some(CacheConfig {
                dir: dir.clone(),
                max_bytes: 0,
            }),
            hub: Some(hub.clone()),
            ..ServiceConfig::default()
        },
    )
    .expect("service");

    // Both tenants queue the same spec before any scheduling happens,
    // so every one of bob's cells duplicates a cell that is either
    // inflight or already completed — never a fresh cache lookup.
    let (alice, _) = service.submit("alice", SPEC).expect("submit alice");
    let (bob, _) = service.submit("bob", SPEC).expect("submit bob");
    drive(&service);

    assert_eq!(counter.load(Ordering::SeqCst), 8, "8 unique cells run once");
    assert!(service.status(&alice).expect("status").finished());
    let bob_status = service.status(&bob).expect("status");
    assert!(bob_status.finished());
    assert_eq!(bob_status.done, 8);
    let snapshot = hub.snapshot();
    assert_eq!(
        snapshot.counter("service.cache.misses"),
        8,
        "duplicate cells must not probe the disk cache again"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wait_deadline_is_a_typed_timeout_not_a_stale_status() {
    let counter = Arc::new(AtomicUsize::new(0));
    let service = Service::new(
        counting_registry(counter),
        ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let (job, _) = service.submit("alice", SPEC).expect("submit");

    // Nothing ticks the scheduler, so the deadline must expire — and
    // surface as the typed error, never as a half-finished status.
    let err = service
        .wait(&job, Duration::from_millis(50))
        .expect_err("deadline must expire");
    assert_eq!(err.code(), "wait-timeout");
    assert!(err.to_string().contains(&job), "{err}");

    drive(&service);
    let status = service.wait(&job, Duration::from_secs(5)).expect("wait");
    assert!(status.finished());
    assert_eq!(status.done, 8);
}

#[test]
fn cancel_skips_pending_trials_and_results_reflect_it() {
    let counter = Arc::new(AtomicUsize::new(0));
    let service = Service::new(
        counting_registry(counter),
        ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let (job, trials) = service.submit("alice", SPEC).expect("submit");
    service.tick(); // run one batch, leave the rest pending
    let skipped = service.cancel(&job).expect("cancel");
    assert!(skipped > 0 && skipped < trials, "some trials were skipped");
    let status = service.wait(&job, Duration::from_secs(5)).expect("wait");
    assert!(status.finished());
    assert_eq!(status.skipped, skipped);
    let text = service.results(&job).expect("results");
    assert!(
        text.contains("skipped"),
        "document marks skipped trials:\n{text}"
    );
}

#[test]
fn truncated_trials_keep_their_lines_but_leave_the_aggregates() {
    let mut registry = Registry::new();
    registry.register(FnExperiment::new("cut", &["hit", "clean"], |ctx| {
        TrialOutput::new(
            format!("seed {:#x}", ctx.seed),
            vec![("m", (ctx.seed % 7) as f64)],
        )
        .with_truncated(ctx.variant == "hit")
    }));
    let service = Service::new(
        registry,
        ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let (job, _) = service
        .submit("alice", "experiments = cut\nseeds = 2\nroot-seed = 0x5eed")
        .expect("submit");
    drive(&service);
    let text = service.results(&job).expect("results");
    for seed in 0..2 {
        let hit = format!("trial cut/hit/s{seed} digest ");
        let line = text
            .lines()
            .find(|l| l.starts_with(&hit))
            .expect("hit line");
        assert!(line.ends_with(" truncated"), "{text}");
    }
    assert_eq!(text.matches("  metric m ").count(), 4, "{text}");
    assert!(!text.contains("aggregate cut hit "), "{text}");
    assert!(text.contains("aggregate cut clean m "), "{text}");
}

// ---------------------------------------------------------------------------
// Pinned dispatch order: the exact ring walk of `Service::tick`
// ---------------------------------------------------------------------------

/// A spec of the `count` experiment over `variants` with its own root
/// seed, so no two specs in a test share a cell: every trial goes to
/// the pool (no coalescing, no memo hits) and shows in the dispatch log.
fn ring_spec(variants: &str, seeds: u64, root: u64) -> String {
    format!("experiments = count\nvariants = {variants}\nseeds = {seeds}\nroot-seed = {root:#x}")
}

fn ring_service(jobs: usize, max_tenant_inflight: usize) -> Service {
    Service::new(
        counting_registry(Arc::new(AtomicUsize::new(0))),
        ServiceConfig {
            jobs,
            max_tenant_inflight,
            ..ServiceConfig::default()
        },
    )
    .expect("service")
}

fn dispatches(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(tenant, key)| (tenant.to_string(), format!("count/{key}")))
        .collect()
}

#[test]
fn dispatch_order_skips_finished_tenants_ahead_in_the_ring() {
    let service = ring_service(2, 0);
    let finished: Vec<String> = (0..12).map(|i| format!("f{i:02}")).collect();
    for (i, tenant) in finished.iter().enumerate() {
        service
            .submit(tenant, &ring_spec("a", 1, 0x100 + i as u64))
            .expect("submit finished tenant");
    }
    drive(&service);
    let history = service.dispatch_log();
    let expected: Vec<(String, String)> = finished
        .iter()
        .map(|t| (t.clone(), "count/a/s0".to_string()))
        .collect();
    assert_eq!(history, expected, "one trial per tenant, in ring order");

    // Twelve finished tenants now sit ahead of the active ones, and
    // the ring cursor is back at the first of them.
    service.submit("x", &ring_spec("a", 3, 0x200)).expect("x");
    service.submit("y", &ring_spec("b", 2, 0x201)).expect("y");
    service.submit("z", &ring_spec("a", 3, 0x202)).expect("z");
    drive(&service);
    let log = service.dispatch_log();
    assert_eq!(
        log[history.len()..],
        dispatches(&[
            ("x", "a/s0"),
            ("y", "b/s0"),
            ("z", "a/s0"),
            ("x", "a/s1"),
            ("y", "b/s1"),
            ("z", "a/s1"),
            ("x", "a/s2"),
            ("z", "a/s2"),
        ])[..]
    );
}

#[test]
fn dispatch_order_passes_over_a_job_cancelled_mid_queue() {
    let service = ring_service(2, 0);
    service
        .submit("alice", &ring_spec("a", 1, 0x301))
        .expect("a1");
    let (middle, _) = service
        .submit("alice", &ring_spec("b", 3, 0x302))
        .expect("a2");
    service
        .submit("alice", &ring_spec("a", 2, 0x303))
        .expect("a3");
    let (partial, _) = service
        .submit("bob", &ring_spec("b", 4, 0x304))
        .expect("b1");
    service
        .submit("bob", &ring_spec("a", 1, 0x305))
        .expect("b2");

    // Alice's second job is cancelled before it ever reaches the
    // front of her queue; bob's first job after one of its trials ran.
    assert_eq!(service.cancel(&middle).expect("cancel middle"), 3);
    assert_eq!(service.tick(), 2);
    assert_eq!(service.cancel(&partial).expect("cancel partial"), 3);
    drive(&service);
    assert_eq!(
        service.dispatch_log(),
        dispatches(&[
            ("alice", "a/s0"),
            ("bob", "b/s0"),
            ("alice", "a/s0"),
            ("bob", "a/s0"),
            ("alice", "a/s1"),
        ])
    );
    let status = service.status(&partial).expect("status");
    assert_eq!((status.done, status.skipped), (1, 3));
}

#[test]
fn dispatch_order_keeps_a_returning_tenants_ring_position() {
    // One trial per batch, so every tick shows where the cursor is.
    let service = ring_service(1, 0);
    service
        .submit("alice", &ring_spec("a", 1, 0x401))
        .expect("alice 1");
    drive(&service);
    service
        .submit("bob", &ring_spec("a", 3, 0x402))
        .expect("bob");
    service
        .submit("carol", &ring_spec("a", 3, 0x403))
        .expect("carol");
    assert_eq!(service.tick(), 1);
    // Alice comes back after her first job finished: she keeps ring
    // position 0, ahead of bob and carol, and is not appended after them.
    service
        .submit("alice", &ring_spec("b", 3, 0x404))
        .expect("alice 2");
    drive(&service);
    assert_eq!(
        service.dispatch_log(),
        dispatches(&[
            ("alice", "a/s0"),
            ("bob", "a/s0"),
            ("carol", "a/s0"),
            ("alice", "b/s0"),
            ("bob", "a/s1"),
            ("carol", "a/s1"),
            ("alice", "b/s1"),
            ("bob", "a/s2"),
            ("carol", "a/s2"),
            ("alice", "b/s2"),
        ])
    );
}

#[test]
fn dispatch_order_holds_each_tenant_to_one_trial_per_batch() {
    // Four pool slots but three tenants at one trial each: a batch
    // stops at three rather than giving alice a second trial.
    let service = ring_service(4, 1);
    service
        .submit("alice", &ring_spec("a", 3, 0x501))
        .expect("alice");
    service
        .submit("bob", &ring_spec("b", 1, 0x502))
        .expect("bob");
    service
        .submit("carol", &ring_spec("a", 3, 0x503))
        .expect("carol");
    assert_eq!(service.tick(), 3);
    assert_eq!(service.tick(), 2);
    assert_eq!(service.tick(), 2);
    assert_eq!(service.tick(), 0);
    assert_eq!(
        service.dispatch_log(),
        dispatches(&[
            ("alice", "a/s0"),
            ("bob", "b/s0"),
            ("carol", "a/s0"),
            ("alice", "a/s1"),
            ("carol", "a/s1"),
            ("alice", "a/s2"),
            ("carol", "a/s2"),
        ])
    );
}

// ---------------------------------------------------------------------------
// Crash safety: the write-ahead job journal
// ---------------------------------------------------------------------------

#[test]
fn journal_replay_resumes_partial_jobs_with_zero_reexecution() {
    let dir = tmpdir("journal-resume");
    let journal = dir.join("journal.log");
    let cache = Some(CacheConfig {
        dir: dir.join("cache"),
        max_bytes: 0,
    });

    // Reference document from an undisturbed, journal-less run.
    let reference = {
        let service = Service::new(
            counting_registry(Arc::new(AtomicUsize::new(0))),
            ServiceConfig {
                jobs: 2,
                ..ServiceConfig::default()
            },
        )
        .expect("reference service");
        let (job, _) = service.submit("alice", SPEC).expect("submit");
        drive(&service);
        service.results(&job).expect("results")
    };

    // First lifetime: accept the job, finish part of it, then "crash"
    // (drop mid-job — every completed cell is already journaled and
    // flushed, so an abrupt exit loses nothing).
    let first_runs = {
        let counter = Arc::new(AtomicUsize::new(0));
        let service = Service::new(
            counting_registry(Arc::clone(&counter)),
            ServiceConfig {
                jobs: 2,
                cache: cache.clone(),
                journal: Some(journal.clone()),
                ..ServiceConfig::default()
            },
        )
        .expect("first lifetime");
        let (job, trials) = service.submit("alice", SPEC).expect("submit");
        assert_eq!(job, "j1");
        assert_eq!(trials, 8);
        service.tick(); // one batch, then the crash
        let runs = counter.load(Ordering::SeqCst);
        assert!(runs > 0 && runs < 8, "want partial progress, got {runs}");
        runs
    };

    // Second lifetime over the same journal and cache: the job is back
    // under its original id, journaled-done cells replay from the
    // cache, and only the remainder re-runs — zero duplicated and zero
    // lost simulation.
    let counter = Arc::new(AtomicUsize::new(0));
    let hub = MetricsHub::new();
    let telemetry = Telemetry::ring(64);
    let service = Service::new(
        counting_registry(Arc::clone(&counter)),
        ServiceConfig {
            jobs: 2,
            cache,
            journal: Some(journal),
            hub: Some(hub.clone()),
            telemetry: telemetry.clone(),
            ..ServiceConfig::default()
        },
    )
    .expect("second lifetime");
    assert_eq!(counter.load(Ordering::SeqCst), 0, "replay executes nothing");
    let status = service.status("j1").expect("job survives the crash");
    assert_eq!(status.done, first_runs, "journaled cells came back done");
    assert_eq!(status.cached, first_runs, "replayed cells are cache-served");
    assert_eq!(status.open, 8 - first_runs, "the remainder is requeued");

    drive(&service);
    assert_eq!(
        counter.load(Ordering::SeqCst),
        8 - first_runs,
        "only the unfinished remainder re-ran"
    );
    let resumed = service.results("j1").expect("results");
    assert_eq!(resumed, reference, "resumed document is byte-identical");

    let snapshot = hub.snapshot();
    assert_eq!(
        snapshot.counter("service.journal.replayed"),
        first_runs as u64
    );
    assert_eq!(
        snapshot.counter("service.journal.requeued"),
        (8 - first_runs) as u64
    );
    assert_eq!(snapshot.counter("service.journal.dropped"), 0);
    let events = telemetry.snapshot();
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::JournalReplay { replayed, requeued, .. }
                if *replayed == first_runs as u64 && *requeued == (8 - first_runs) as u64
        )),
        "replay emits its telemetry event: {events:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_replay_restores_finished_jobs_and_reattaches_across_lifetimes() {
    let dir = tmpdir("journal-finished");
    let journal = dir.join("journal.log");
    let cache = Some(CacheConfig {
        dir: dir.join("cache"),
        max_bytes: 0,
    });

    let first_text = {
        let service = Service::new(
            counting_registry(Arc::new(AtomicUsize::new(0))),
            ServiceConfig {
                jobs: 2,
                cache: cache.clone(),
                journal: Some(journal.clone()),
                ..ServiceConfig::default()
            },
        )
        .expect("first lifetime");
        let (job, _) = service.submit("alice", SPEC).expect("submit");
        drive(&service);
        service.results(&job).expect("results")
    };

    let counter = Arc::new(AtomicUsize::new(0));
    let hub = MetricsHub::new();
    let service = Service::new(
        counting_registry(Arc::clone(&counter)),
        ServiceConfig {
            jobs: 2,
            cache,
            journal: Some(journal),
            hub: Some(hub.clone()),
            ..ServiceConfig::default()
        },
    )
    .expect("second lifetime");
    let status = service.status("j1").expect("finished job survives");
    assert!(status.finished());
    assert_eq!(status.cached, status.total, "replay resolved via the cache");
    assert_eq!(counter.load(Ordering::SeqCst), 0, "nothing re-ran");
    assert_eq!(
        service.results("j1").expect("results"),
        first_text,
        "replayed document is byte-identical"
    );

    // A client that lost the submit response re-submits the same spec:
    // it re-attaches to the journaled job instead of re-running it.
    let (job, trials) = service.submit("alice", SPEC).expect("re-attach");
    assert_eq!(job, "j1");
    assert_eq!(trials, 8);
    assert_eq!(counter.load(Ordering::SeqCst), 0);
    assert_eq!(hub.snapshot().counter("service.jobs.reattached"), 1);

    // Another tenant's identical spec is still a distinct job, numbered
    // after everything the journal brought back.
    let (job, _) = service.submit("bob", SPEC).expect("fresh job");
    assert_eq!(job, "j2");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journaled_spec_with_a_mode_key_is_dropped_and_the_rest_is_served() {
    // A spec that names an execution mode no longer parses: every trial
    // runs on the detailed core. A journal written when it did parse
    // must still replay, dropping that job and everything after it
    // that refers to it, while other journaled jobs resume.
    let dir = tmpdir("journal-mode-key");
    let journal = dir.join("journal.log");
    let mode_spec = format!("{SPEC}\nmode = fast-forward");
    let history: String = [
        JournalRecord::Submit {
            job: 1,
            tenant: "alice".to_string(),
            spec_text: mode_spec.clone(),
        },
        JournalRecord::CellDone {
            job: 1,
            slot: 0,
            cell: 0xdead_beef,
        },
        JournalRecord::Submit {
            job: 2,
            tenant: "bob".to_string(),
            spec_text: SPEC_B.to_string(),
        },
    ]
    .iter()
    .map(JournalRecord::render)
    .collect();
    std::fs::write(&journal, history).expect("write journal");

    let counter = Arc::new(AtomicUsize::new(0));
    let hub = MetricsHub::new();
    let service = Service::new(
        counting_registry(Arc::clone(&counter)),
        ServiceConfig {
            jobs: 2,
            journal: Some(journal),
            hub: Some(hub.clone()),
            ..ServiceConfig::default()
        },
    )
    .expect("a journal can never brick the server");
    let snapshot = hub.snapshot();
    assert_eq!(snapshot.counter("service.journal.dropped"), 2);
    assert_eq!(snapshot.counter("service.journal.jobs"), 1);
    assert!(service.status("j1").is_err(), "the mode job is gone");
    assert_eq!(service.status("j2").expect("bob's job resumes").open, 8);

    assert!(matches!(
        service.submit("alice", &mode_spec),
        Err(ServiceError::Spec(_))
    ));
    let (job, trials) = service.submit("carol", SPEC).expect("submit");
    assert_eq!((job.as_str(), trials), ("j3", 8));
    drive(&service);
    assert!(service.status("j2").expect("status").finished());
    assert!(service.status("j3").expect("status").finished());
    assert_eq!(counter.load(Ordering::SeqCst), 16);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_finished_job_is_fully_journaled_before_status_shows_it() {
    let dir = tmpdir("journal-visibility");
    let journal = dir.join("journal.log");
    let mut service = Service::new(
        counting_registry(Arc::new(AtomicUsize::new(0))),
        ServiceConfig {
            jobs: 2,
            cache: Some(CacheConfig {
                dir: dir.join("cache"),
                max_bytes: 0,
            }),
            journal: Some(journal.clone()),
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    service.start_worker();

    // Pairs of jobs over one spec: alice's cells are fresh (pool runs
    // and cache puts), bob's are cache hits. Neither may show finished
    // while any of its `done` records is still missing from the file.
    for i in 0..500u64 {
        let spec = format!(
            "experiments = count\nseeds = 2\nroot-seed = {:#x}",
            0x1000 + i / 2
        );
        let tenant = if i % 2 == 0 { "alice" } else { "bob" };
        // The job's records all land after this offset.
        let start = std::fs::metadata(&journal).map_or(0, |m| m.len() as usize);
        let (job, trials) = service.submit(tenant, &spec).expect("submit");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !service.status(&job).expect("status").finished() {
            assert!(Instant::now() < deadline, "{job} never finished");
            std::thread::yield_now();
        }
        let num: u64 = job[1..].parse().expect("job number");
        let text = std::fs::read_to_string(&journal).expect("read journal");
        let done = Journal::salvage(&text[start..])
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::CellDone { job, .. } if *job == num))
            .count();
        assert_eq!(done, trials, "{job} showed finished before its journal");
    }
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_timeout_leaves_the_remainder_journaled_for_the_next_lifetime() {
    let dir = tmpdir("drain-journal");
    let journal = dir.join("journal.log");
    let cache = Some(CacheConfig {
        dir: dir.join("cache"),
        max_bytes: 0,
    });

    // Lifetime 1 drains on a zero budget mid-job: the drain reports
    // failure, but everything accepted is already journaled.
    {
        let counter = Arc::new(AtomicUsize::new(0));
        let service = Service::new(
            counting_registry(counter),
            ServiceConfig {
                jobs: 2,
                cache: cache.clone(),
                journal: Some(journal.clone()),
                ..ServiceConfig::default()
            },
        )
        .expect("first lifetime");
        service.submit("alice", SPEC).expect("submit");
        service.tick();
        service.begin_drain();
        assert!(
            !service.drain(Duration::ZERO),
            "zero-budget drain cannot finish an open job"
        );
    }

    // Lifetime 2 finishes what lifetime 1 journaled.
    let counter = Arc::new(AtomicUsize::new(0));
    let service = Service::new(
        counting_registry(Arc::clone(&counter)),
        ServiceConfig {
            jobs: 2,
            cache,
            journal: Some(journal),
            ..ServiceConfig::default()
        },
    )
    .expect("second lifetime");
    drive(&service);
    let status = service.status("j1").expect("job resumed");
    assert!(status.finished());
    assert_eq!(status.failed, 0);
    assert!(
        counter.load(Ordering::SeqCst) < 8,
        "the drained lifetime's completed cells were not re-run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Idempotent submission and admission control
// ---------------------------------------------------------------------------

#[test]
fn resubmission_is_idempotent_per_tenant() {
    let service = Service::new(
        counting_registry(Arc::new(AtomicUsize::new(0))),
        ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service");

    let (first, trials) = service.submit("alice", SPEC).expect("submit");
    let (again, trials_again) = service.submit("alice", SPEC).expect("duplicate");
    assert_eq!(first, again, "same tenant + same spec re-attaches");
    assert_eq!(trials, trials_again);

    let (bob, _) = service.submit("bob", SPEC).expect("other tenant");
    assert_ne!(bob, first, "idempotency is scoped to the tenant");

    // A cancelled job is not a re-attach target: the tenant asked for
    // a fresh run, not the corpse of the old one.
    service.cancel(&first).expect("cancel");
    let (fresh, _) = service.submit("alice", SPEC).expect("resubmit");
    assert_ne!(fresh, first, "cancelled jobs don't capture resubmissions");
}

#[test]
fn admission_rejects_over_budget_submissions_with_the_retry_hint() {
    let hub = MetricsHub::new();
    let telemetry = Telemetry::ring(16);
    let service = Service::new(
        counting_registry(Arc::new(AtomicUsize::new(0))),
        ServiceConfig {
            jobs: 2,
            admission: AdmissionConfig {
                max_open_jobs: 1,
                retry_after_ms: 123,
                ..AdmissionConfig::default()
            },
            hub: Some(hub.clone()),
            telemetry: telemetry.clone(),
            ..ServiceConfig::default()
        },
    )
    .expect("service");

    let (first, _) = service.submit("alice", SPEC).expect("fills the budget");
    let err = service.submit("bob", SPEC_B).expect_err("over budget");
    assert_eq!(err.code(), "overloaded");
    assert!(
        matches!(
            &err,
            ServiceError::Overloaded { retry_after_ms: 123, reason } if reason == "jobs"
        ),
        "{err}"
    );

    // A duplicate of the open job is a re-attach — exempt from budgets.
    let (again, _) = service.submit("alice", SPEC).expect("re-attach exempt");
    assert_eq!(again, first);

    // The budget frees as jobs finish.
    drive(&service);
    service.submit("bob", SPEC_B).expect("admitted after drain");

    let snapshot = hub.snapshot();
    assert_eq!(snapshot.counter("service.admission.rejected"), 1);
    assert_eq!(snapshot.counter("service.admission.rejected.jobs"), 1);
    assert!(
        telemetry.snapshot().iter().any(|e| matches!(
            e,
            Event::AdmissionReject {
                reason_code: 1,
                retry_after_ms: 123
            }
        )),
        "rejection emits its telemetry event"
    );
}

#[test]
fn tenant_and_byte_budgets_are_enforced_separately() {
    let per_tenant = Service::new(
        counting_registry(Arc::new(AtomicUsize::new(0))),
        ServiceConfig {
            jobs: 2,
            admission: AdmissionConfig {
                max_tenant_open_jobs: 1,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    per_tenant.submit("alice", SPEC).expect("first job");
    let err = per_tenant
        .submit("alice", SPEC_B)
        .expect_err("tenant quota");
    assert!(
        matches!(&err, ServiceError::Overloaded { reason, .. } if reason == "tenant"),
        "{err}"
    );
    per_tenant
        .submit("bob", SPEC_B)
        .expect("other tenants unaffected");

    let by_bytes = Service::new(
        counting_registry(Arc::new(AtomicUsize::new(0))),
        ServiceConfig {
            jobs: 2,
            admission: AdmissionConfig {
                max_pending_bytes: SPEC.len() + 1,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    by_bytes.submit("alice", SPEC).expect("fits the budget");
    let err = by_bytes.submit("bob", SPEC_B).expect_err("byte budget");
    assert!(
        matches!(&err, ServiceError::Overloaded { reason, .. } if reason == "bytes"),
        "{err}"
    );
}

#[test]
fn draining_refuses_new_work_but_not_resuming_sessions() {
    let service = Service::new(
        counting_registry(Arc::new(AtomicUsize::new(0))),
        ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let (job, _) = service.submit("alice", SPEC).expect("submit");

    service.begin_drain();
    assert!(service.is_draining());
    let err = service.submit("bob", SPEC_B).expect_err("draining");
    assert!(
        matches!(&err, ServiceError::Overloaded { reason, .. } if reason == "draining"),
        "{err}"
    );
    // The resuming client still finds its job mid-drain...
    let (again, _) = service.submit("alice", SPEC).expect("re-attach");
    assert_eq!(again, job);

    // ...and in-flight work runs to completion, which drain observes.
    drive(&service);
    assert!(service.drain(Duration::from_secs(5)), "drain completes");
    let status = service.status(&job).expect("status");
    assert!(status.finished());
    assert_eq!(status.failed, 0);
    service.results(&job).expect("results still served");
}

#[test]
fn resilient_client_honours_the_server_retry_hint() {
    let counter = Arc::new(AtomicUsize::new(0));
    let hub = MetricsHub::new();
    let service = Service::new(
        counting_registry(counter),
        ServiceConfig {
            jobs: 2,
            admission: AdmissionConfig {
                max_open_jobs: 1,
                retry_after_ms: 80,
                ..AdmissionConfig::default()
            },
            hub: Some(hub.clone()),
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let service = Arc::new(service);
    let front = TcpFront::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    // Fill the budget with a job that stays open until the driver
    // thread ticks the scheduler ~120 ms from now.
    let (first, _) = service.submit("alice", SPEC).expect("fills the budget");
    let driver = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            drive(&service);
        })
    };

    let mut client = ResilientClient::new(
        &front.addr().to_string(),
        RunPolicy {
            retries: 50,
            deadline: None,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
        },
    );
    let started = Instant::now();
    let submitted = client
        .submit("bob", SPEC_B)
        .expect("admitted once the backlog drains");
    let waited = started.elapsed();
    driver.join().expect("driver thread");
    assert!(
        waited >= Duration::from_millis(80),
        "client slept at least the server's hint, waited {waited:?}"
    );
    assert!(
        hub.snapshot().counter("service.admission.rejected") >= 1,
        "the wait really was a typed overload rejection"
    );

    drive(&service);
    let status = client
        .wait(&submitted.job, Duration::from_secs(5))
        .expect("bob's job finishes");
    assert!(status.finished);
    let _ = service.status(&first).expect("alice's job still known");
}

// ---------------------------------------------------------------------------
// Sequence-cursor stream resume
// ---------------------------------------------------------------------------

#[test]
fn stream_replays_exactly_the_missed_events_from_a_cursor() {
    let service = Service::new(
        counting_registry(Arc::new(AtomicUsize::new(0))),
        ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let (job, _) = service.submit("alice", SPEC).expect("submit");
    drive(&service);
    let service = Arc::new(service);
    let front = TcpFront::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = front.addr().to_string();

    // A full stream delivers every trial event exactly once, in
    // sequence order, and leaves the cursor one past the last event.
    let mut client = Client::connect(&addr).expect("connect");
    let mut seq = 0u64;
    let mut seen: Vec<u64> = Vec::new();
    let status = client
        .stream_from(&job, &mut seq, |doc| {
            seen.push(
                doc.get("seq")
                    .and_then(unxpec_telemetry::json::Value::as_u64)
                    .expect("event carries seq"),
            );
        })
        .expect("stream");
    assert!(status.finished);
    assert_eq!(seen, (0..8).collect::<Vec<u64>>());
    assert_eq!(seq, 8);

    // A reconnecting client resumes from its kept cursor and receives
    // only what it missed — no duplicates, no gaps.
    let mut resumed = Client::connect(&addr).expect("reconnect");
    let mut seq = 5u64;
    let mut replayed: Vec<u64> = Vec::new();
    let status = resumed
        .stream_from(&job, &mut seq, |doc| {
            replayed.push(
                doc.get("seq")
                    .and_then(unxpec_telemetry::json::Value::as_u64)
                    .expect("event carries seq"),
            );
        })
        .expect("resumed stream");
    assert!(status.finished);
    assert_eq!(replayed, vec![5, 6, 7]);
    assert_eq!(seq, 8);

    // A cursor already at the end yields no events, just the status.
    let mut done = Client::connect(&addr).expect("connect");
    let mut seq = 8u64;
    let status = done
        .stream_from(&job, &mut seq, |_| panic!("no events past the end"))
        .expect("empty stream");
    assert!(status.finished);
    assert_eq!(seq, 8);
}

// ---------------------------------------------------------------------------
// Journal corruption robustness (mirrors the cache proptests above)
// ---------------------------------------------------------------------------

/// Deterministic journal content with every record type and
/// escaping-hostile text. ASCII-only so byte positions are char
/// boundaries and the truncation proptest can slice anywhere.
fn sample_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Submit {
            job: 1,
            tenant: "alice".to_string(),
            spec_text: SPEC.to_string(),
        },
        JournalRecord::CellDone {
            job: 1,
            slot: 0,
            cell: 0xdead_beef,
        },
        JournalRecord::CellDone {
            job: 1,
            slot: 3,
            cell: 0x1234,
        },
        JournalRecord::Submit {
            job: 2,
            tenant: "bob \"the\" builder".to_string(),
            spec_text: "experiments = count\nseeds = 2\nroot-seed = 0xb0b".to_string(),
        },
        JournalRecord::Cancel { job: 2 },
        JournalRecord::CellDone {
            job: 1,
            slot: 7,
            cell: u64::MAX,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-byte corruption of the journal salvages line by
    /// line: recovered records are an order-preserving subsequence of
    /// what was written (corruption can drop lines, never invent or
    /// alter records — the checksum sees to that), anything missing is
    /// visible in the dropped count, and nothing panics.
    #[test]
    fn journal_salvage_survives_any_single_byte_flip(pos in 0usize..4096, flip in 1u8..=255) {
        let records = sample_records();
        let text: String = records.iter().map(JournalRecord::render).collect();
        let mut bytes = text.clone().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        let tampered = String::from_utf8_lossy(&bytes).into_owned();
        let recovery = Journal::salvage(&tampered);
        let mut rest = records.iter();
        for got in &recovery.records {
            prop_assert!(
                rest.any(|r| r == got),
                "salvage produced a record never written: {got:?}"
            );
        }
        if recovery.records.len() < records.len() {
            prop_assert!(
                recovery.dropped >= 1,
                "missing records must be counted as dropped"
            );
        }
    }

    /// A torn tail (power cut mid-append) salvages exactly the records
    /// whose full line survives; the partial line is at most one
    /// counted drop.
    #[test]
    fn journal_truncation_salvages_the_intact_prefix(cut in 0usize..4096) {
        let records = sample_records();
        let text: String = records.iter().map(JournalRecord::render).collect();
        let cut = cut % text.len();
        let recovery = Journal::salvage(&text[..cut]);
        let keep = text[..cut].matches('\n').count();
        prop_assert_eq!(recovery.records.as_slice(), &records[..keep]);
        prop_assert!(recovery.dropped <= 1, "at most the torn line drops");
    }
}
