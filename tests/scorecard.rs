//! The reproduction scorecard at quick scale: every headline claim of
//! the paper, measured from scratch and checked against its band.

use unxpec::experiments::scorecard;
use unxpec::experiments::seeding::DEFAULT_ROOT_SEED;

#[test]
fn quick_scorecard_passes_everything() {
    let card = scorecard::run(true, DEFAULT_ROOT_SEED);
    assert!(
        card.all_pass(),
        "failing checks:\n{}",
        card.checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| format!("  {} = {} (band {})", c.claim, c.measured, c.band))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(card.checks.len(), 15);
}
