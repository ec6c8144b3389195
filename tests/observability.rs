//! Integration tests for the live observability plane: the metrics
//! exposition endpoint must never perturb sweep results (the cardinal
//! rule — observation outside the trial path), the harness progress
//! series must reconcile with the report, and ring-sink drop
//! accounting must surface on the scraped text page.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use unxpec::experiments::trace;
use unxpec::telemetry::{prometheus_text, scrape, MetricsHub, MetricsServer};
use unxpec_harness::{Registry, SweepOptions, SweepSpec};
use unxpec_service::run_sweep;

fn observed_spec() -> SweepSpec {
    let mut spec = SweepSpec::quick();
    spec.experiments = vec!["timeline".into(), "rollback".into()];
    spec.seeds = 2;
    spec
}

/// The acceptance property of the whole tentpole: a sweep with the
/// endpoint active — and hammered by a scraper thread the entire time —
/// produces byte-identical results to a sweep without it.
#[test]
fn scraped_live_endpoint_never_perturbs_sweep_results() {
    let spec = observed_spec();

    let plain = run_sweep(
        &spec,
        Registry::builtin(),
        &SweepOptions {
            jobs: 4,
            ..Default::default()
        },
    )
    .expect("plain sweep");

    let hub = MetricsHub::new();
    let mut server = MetricsServer::serve("127.0.0.1:0", hub.clone()).expect("bind");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut ok = 0u64;
            while !stop.load(Ordering::SeqCst) {
                if scrape(addr, "/metrics").is_ok() {
                    ok += 1;
                }
                if scrape(addr, "/metrics.json").is_ok() {
                    ok += 1;
                }
            }
            ok
        })
    };
    let live = run_sweep(
        &spec,
        Registry::builtin(),
        &SweepOptions {
            jobs: 4,
            live: Some(hub.clone()),
            self_profile_ms: Some(1),
            ..Default::default()
        },
    )
    .expect("live sweep");
    stop.store(true, Ordering::SeqCst);
    let scrapes = scraper.join().expect("scraper thread");
    server.shutdown();

    assert!(
        scrapes > 0,
        "the scraper must actually have hit the endpoint"
    );
    assert_eq!(
        plain.aggregate_digest, live.aggregate_digest,
        "scraping changed the results"
    );
    assert_eq!(plain.aggregates, live.aggregates);
    assert_eq!(plain.results.len(), live.results.len());
    for (a, b) in plain.results.iter().zip(&live.results) {
        assert_eq!(a.trial.key, b.trial.key);
        assert_eq!(a.digest, b.digest, "trial {} output differs", a.trial.key);
    }

    // The self-profiler rode along; its samples are all attributed to
    // the workers the sweep actually used.
    let profile = live.self_profile.expect("self profile requested");
    assert!(profile
        .children
        .iter()
        .all(|w| w.name.starts_with("worker-")));
}

/// After a sweep, the live hub's progress series must reconcile
/// exactly with the final report.
#[test]
fn progress_series_reconcile_with_the_final_report() {
    let spec = observed_spec();
    let hub = MetricsHub::new();
    let report = run_sweep(
        &spec,
        Registry::builtin(),
        &SweepOptions {
            jobs: 2,
            live: Some(hub.clone()),
            ..Default::default()
        },
    )
    .expect("sweep");

    let snap = hub.snapshot();
    let total = report.results.len() + report.poisoned.len() + report.timed_out.len();
    assert_eq!(snap.counter("sweep.progress.total"), total as u64);
    assert_eq!(snap.counter("sweep.progress.done"), total as u64);
    assert_eq!(snap.counter("sweep.progress.poisoned"), 0);
    assert_eq!(snap.counter("sweep.progress.timed_out"), 0);
    assert_eq!(snap.counter("sweep.progress.jobs"), 2);
    // Per-worker throughput series sum to the executed-trial count.
    let per_worker: u64 = (0..2)
        .map(|w| snap.counter(&format!("sweep.worker{w}.trials")))
        .sum();
    assert_eq!(per_worker, total as u64);
    // Every trial observed into the latency histograms.
    let text = prometheus_text(&snap);
    assert!(text.contains("sweep_trial_duration_us_count"));
    assert!(text.contains("sweep_exp_timeline_latency_us{quantile=\"0.9\"}"));
}

/// Satellite: overflowing a tiny ring must surface as a
/// `telemetry.dropped_events` counter all the way out on the scraped
/// text page, not only via a by-hand `tel.dropped()` call.
#[test]
fn ring_overflow_surfaces_on_the_scraped_text_page() {
    // An 8-event ring cannot hold an instrumented attack round: the
    // trace experiment's dump must carry the spill.
    let cap = trace::run(false, 8, 0x5eed);
    let dropped = cap.metrics.counter("telemetry.dropped_events");
    assert!(dropped > 0, "an 8-event ring must overflow");
    assert_eq!(cap.metrics.counter("telemetry.retained_events"), 16);

    let hub = MetricsHub::new();
    hub.update(|reg| reg.merge(&cap.metrics));
    let mut server = MetricsServer::serve("127.0.0.1:0", hub).expect("bind");
    let text = scrape(server.addr(), "/metrics").expect("scrape");
    server.shutdown();
    assert!(
        text.contains(&format!("telemetry_dropped_events {dropped}")),
        "drop accounting missing from the text page:\n{text}"
    );
}

/// A generously sized ring, by contrast, reports zero drops.
#[test]
fn big_ring_reports_zero_drops() {
    let cap = trace::run(false, 1 << 15, 0x5eed);
    assert_eq!(cap.metrics.counter("telemetry.dropped_events"), 0);
    assert_eq!(
        cap.metrics.counter("telemetry.retained_events") as usize,
        cap.secret0.len() + cap.secret1.len()
    );
}
