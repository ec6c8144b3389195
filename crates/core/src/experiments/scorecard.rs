//! The reproduction scorecard: every headline claim of the paper,
//! measured and checked against its expected band in one run.
//!
//! This is the "did the reproduction work?" button: it re-derives each
//! quantity from scratch (no caching between checks) and prints
//! paper-value / measured / verdict rows.

use std::fmt;

use unxpec_stats::ascii;

use super::seeding::stream;
use super::{leakage, overhead, pdf, rate, resolution, rollback, triggers};

/// One checked claim.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being checked.
    pub claim: String,
    /// The paper's value, as quoted.
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// The accepted band.
    pub band: String,
    /// Whether the measurement lands in the band.
    pub pass: bool,
}

/// The full scorecard.
#[derive(Debug, Clone)]
pub struct Scorecard {
    /// All checks, in paper order.
    pub checks: Vec<Check>,
}

impl Scorecard {
    /// Whether every check passed.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Number of passing checks.
    pub fn passed(&self) -> usize {
        self.checks.iter().filter(|c| c.pass).count()
    }
}

fn check(
    checks: &mut Vec<Check>,
    claim: &str,
    paper: &str,
    measured: f64,
    unit: &str,
    band: std::ops::RangeInclusive<f64>,
) {
    checks.push(Check {
        claim: claim.to_string(),
        paper: paper.to_string(),
        measured: format!("{measured:.1}{unit}"),
        band: format!("{:.1}..{:.1}{unit}", band.start(), band.end()),
        pass: band.contains(&measured),
    });
}

/// Runs every check. `quick` trades sample counts for speed; `seed` is
/// the root seed every per-check stream derives from (see
/// [`super::seeding`]).
pub fn run(quick: bool, seed: u64) -> Scorecard {
    let (timing_samples, pdf_samples, bits) = if quick {
        (10, 80, 200)
    } else {
        (50, 500, 1000)
    };
    let mut checks = Vec::new();

    // Fig. 2: resolution flat in loads, linear in f(N).
    let sweep = resolution::run(timing_samples.min(8), stream(seed, "fig2"));
    check(
        &mut checks,
        "Fig.2: resolution spread across in-branch loads (f(1))",
        "relatively constant",
        sweep.spread_for_fn(1),
        " cy",
        0.0..=10.0,
    );
    check(
        &mut checks,
        "Fig.2: f(2) - f(1) resolution step",
        "~1 memory RT",
        sweep.mean_for_fn(2) - sweep.mean_for_fn(1),
        " cy",
        90.0..=160.0,
    );

    // Figs. 3/6: the headline differences.
    let no_es = rollback::run(false, 8, timing_samples, stream(seed, "fig3"));
    check(
        &mut checks,
        "Fig.3: single-load timing difference",
        "22 cy",
        no_es.single_load_difference(),
        " cy",
        15.0..=30.0,
    );
    let es = rollback::run(true, 8, timing_samples, stream(seed, "fig6"));
    check(
        &mut checks,
        "Fig.6: single-load difference with eviction sets",
        "32 cy",
        es.single_load_difference(),
        " cy",
        25.0..=45.0,
    );
    check(
        &mut checks,
        "Fig.6: eight-load difference with eviction sets",
        "~64 cy",
        es.points[7].difference(),
        " cy",
        50.0..=80.0,
    );

    // Figs. 7/8 under noise.
    let p7 = pdf::run(false, pdf_samples, stream(seed, "fig7"));
    check(
        &mut checks,
        "Fig.7: mean difference under noise",
        "22 cy",
        p7.mean_difference(),
        " cy",
        15.0..=30.0,
    );
    let p8 = pdf::run(true, pdf_samples, stream(seed, "fig8"));
    check(
        &mut checks,
        "Fig.8: mean difference with eviction sets",
        "32 cy",
        p8.mean_difference(),
        " cy",
        25.0..=45.0,
    );

    // Figs. 10/11: single-sample accuracies.
    check(
        &mut checks,
        "Fig.10: single-sample accuracy",
        "86.7%",
        leakage::run(false, bits, stream(seed, "fig10")).accuracy() * 100.0,
        "%",
        78.0..=93.0,
    );
    check(
        &mut checks,
        "Fig.11: accuracy with eviction sets",
        "91.6%",
        leakage::run(true, bits, stream(seed, "fig11")).accuracy() * 100.0,
        "%",
        86.0..=97.0,
    );

    // §VI-B: rate.
    let (rate_no_es, _) = rate::run(40, stream(seed, "rate"));
    check(
        &mut checks,
        "VI-B: artifact-equivalent leakage rate",
        "140 Kbps",
        rate_no_es.artifact_equivalent_bps / 1e3,
        " Kbps",
        100.0..=170.0,
    );

    // Fig. 12: constant-time rollback.
    let (warm, meas) = if quick {
        (8_000, 25_000)
    } else {
        (30_000, 90_000)
    };
    let fig12 = overhead::run(warm, meas);
    check(
        &mut checks,
        "Fig.12: average slowdown at const=25",
        "22.4%",
        fig12.average_overhead(2) * 100.0,
        "%",
        12.0..=35.0,
    );
    check(
        &mut checks,
        "Fig.12: average slowdown at const=65",
        "72.8%",
        fig12.average_overhead(6) * 100.0,
        "%",
        45.0..=95.0,
    );
    check(
        &mut checks,
        "Fig.12: CleanupSpec without constant",
        "~5%",
        fig12.average_overhead(1) * 100.0,
        "%",
        0.0..=12.0,
    );

    // Trigger-agnosticism (extension).
    let m = triggers::run(timing_samples.min(10), stream(seed, "triggers"));
    check(
        &mut checks,
        "ext: channel through a v2 trigger",
        "(n/a)",
        m.cleanupspec_diff("v2 (BTB poisoning)"),
        " cy",
        12.0..=35.0,
    );
    check(
        &mut checks,
        "ext: channel through an RSB trigger",
        "(n/a)",
        m.cleanupspec_diff("RSB (return misprediction)"),
        " cy",
        12.0..=35.0,
    );

    Scorecard { checks }
}

impl fmt::Display for Scorecard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Reproduction scorecard: {}/{} checks pass",
            self.passed(),
            self.checks.len()
        )?;
        let rows: Vec<Vec<String>> = self
            .checks
            .iter()
            .map(|c| {
                vec![
                    if c.pass { "PASS" } else { "FAIL" }.to_string(),
                    c.claim.clone(),
                    c.paper.clone(),
                    c.measured.clone(),
                    c.band.clone(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            ascii::table(&["", "claim", "paper", "measured", "accepted band"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::seeding::DEFAULT_ROOT_SEED;

    #[test]
    fn display_shows_verdicts() {
        let card = run(true, DEFAULT_ROOT_SEED);
        let text = card.to_string();
        assert!(text.contains("PASS"));
        assert!(text.contains("Fig.3"));
    }
}
