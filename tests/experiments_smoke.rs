//! Smoke tests: every experiment driver runs at quick scale, renders,
//! and lands in the loose band the paper reports.

use unxpec::experiments::{
    leakage, overhead, pdf, rate, resolution, rollback, secret_pattern, table1, Figures, Scale,
};

#[test]
fn table1_renders() {
    assert!(table1::run().to_string().contains("Module"));
}

#[test]
fn fig2_fig13_shapes() {
    let quiet = resolution::run(4, 0x5eed);
    let noisy = resolution::run_host_like(4, 1);
    for sweep in [&quiet, &noisy] {
        assert!(sweep.mean_for_fn(3) > sweep.mean_for_fn(1) + 100.0);
    }
    assert!(!quiet.noisy);
    assert!(noisy.noisy);
}

#[test]
fn fig3_and_fig6_bands() {
    let no_es = rollback::run(false, 3, 4, 0x5eed);
    let es = rollback::run(true, 3, 4, 0x5eed);
    let d0 = no_es.single_load_difference();
    let d1 = es.single_load_difference();
    assert!((15.0..=30.0).contains(&d0), "{d0}");
    assert!((25.0..=45.0).contains(&d1), "{d1}");
}

#[test]
fn fig7_fig8_thresholds_order() {
    let p7 = pdf::run(false, 50, 1);
    let p8 = pdf::run(true, 50, 1);
    assert!(p8.mean_difference() > p7.mean_difference());
    assert!(!p7.to_string().is_empty());
}

#[test]
fn fig9_pattern() {
    let p = secret_pattern::run(1000, 0x9);
    assert_eq!(p.bits.len(), 1000);
}

#[test]
fn fig10_fig11_accuracies() {
    let l10 = leakage::run(false, 160, 1);
    let l11 = leakage::run(true, 160, 1);
    assert!(
        (0.72..=0.97).contains(&l10.accuracy()),
        "{}",
        l10.accuracy()
    );
    assert!(l11.accuracy() >= l10.accuracy() - 0.02);
}

#[test]
fn rate_bands() {
    let (no_es, es) = rate::run(24, 1);
    assert!(no_es.raw_bps > 1e6, "{}", no_es.raw_bps);
    let kbps = no_es.artifact_equivalent_bps / 1e3;
    assert!((100.0..=170.0).contains(&kbps), "{kbps}");
    assert!(es.cycles_per_round >= no_es.cycles_per_round * 0.8);
}

#[test]
fn fig12_quick_band() {
    let scale = Scale {
        workload_warmup: 4_000,
        workload_measure: 12_000,
        ..Scale::quick()
    };
    let e = Figures::new(scale, 1).fig12();
    let o25 = overhead::mean_overhead_for_constant(&e, 25);
    let o65 = overhead::mean_overhead_for_constant(&e, 65);
    assert!(o65 > o25, "{o25} vs {o65}");
    assert!(e.0.rows.len() == 12);
    assert!(e.to_string().contains("geomean"));
}
