//! The reproduction scorecard: every headline claim of the paper,
//! checked against its expected band in one run.
//!
//! This is the "did the reproduction work?" button: it reads each
//! quantity from the run's [`Figures`], so a claim prints the value
//! its figure section prints, and prints paper-value / measured /
//! verdict rows.

use std::fmt;

use unxpec_stats::ascii;

use super::Figures;

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

/// Checks every claim against the figures [`Figures::for_scorecard`]
/// picks out of `figures`, computing only the ones no one has read yet.
pub fn run(figures: &Figures) -> Scorecard {
    let figs = figures.for_scorecard();
    let mut checks = Vec::new();

    // Fig. 2: resolution flat in loads, linear in f(N).
    let sweep = figs.fig2();
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
    check(
        &mut checks,
        "Fig.3: single-load timing difference",
        "22 cy",
        figs.fig3().single_load_difference(),
        " cy",
        15.0..=30.0,
    );
    let es = figs.fig6();
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
    check(
        &mut checks,
        "Fig.7: mean difference under noise",
        "22 cy",
        figs.fig7().mean_difference(),
        " cy",
        15.0..=30.0,
    );
    check(
        &mut checks,
        "Fig.8: mean difference with eviction sets",
        "32 cy",
        figs.fig8().mean_difference(),
        " cy",
        25.0..=45.0,
    );

    // Figs. 10/11: single-sample accuracies.
    check(
        &mut checks,
        "Fig.10: single-sample accuracy",
        "86.7%",
        figs.fig10().accuracy() * 100.0,
        "%",
        78.0..=93.0,
    );
    check(
        &mut checks,
        "Fig.11: accuracy with eviction sets",
        "91.6%",
        figs.fig11().accuracy() * 100.0,
        "%",
        86.0..=97.0,
    );

    // §VI-B: rate.
    let (rate_no_es, _) = figs.rate();
    check(
        &mut checks,
        "VI-B: artifact-equivalent leakage rate",
        "140 Kbps",
        rate_no_es.artifact_equivalent_bps / 1e3,
        " Kbps",
        100.0..=170.0,
    );

    // Fig. 12: constant-time rollback.
    let fig12 = figs.fig12();
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
    let m = figs.triggers();
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
    use crate::experiments::Scale;

    #[test]
    fn display_shows_verdicts() {
        let card = run(&Figures::new(Scale::quick(), DEFAULT_ROOT_SEED));
        let text = card.to_string();
        assert!(text.contains("PASS"));
        assert!(text.contains("Fig.3"));
    }
}
