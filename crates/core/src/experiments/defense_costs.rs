//! The defense landscape's cost (§I / §II-B of the paper): why Undo
//! schemes exist at all.
//!
//! The paper motivates CleanupSpec by cost: InvisiSpec slows execution
//! ~17% (two reads per speculative load), delay-on-miss ~11%, while
//! CleanupSpec pays only on the rare mis-speculation (~5%). This
//! experiment reproduces that ordering on the workload suite — the same
//! ordering that makes breaking the *cheap* defense (unXpec's
//! contribution) matter.

use std::fmt;

use unxpec_cpu::UnsafeBaseline;
use unxpec_defense::{CleanupSpec, DelayOnMiss, InvisiSpec};
use unxpec_stats::ascii;
use unxpec_workloads::DefenseFactory;

use super::overhead::SuiteGrid;

/// Mean overheads of a [`run`] grid as `(cleanupspec, delay_on_miss,
/// invisispec)`.
pub fn ordering(grid: &SuiteGrid) -> (f64, f64, f64) {
    (
        grid.average_overhead(1),
        grid.average_overhead(2),
        grid.average_overhead(3),
    )
}

/// Runs the suite under every defense class: unsafe, cleanupspec,
/// delay-on-miss (with value prediction), invisispec, delay-on-miss
/// without value prediction.
pub fn run(warmup: u64, measure: u64) -> SuiteGrid {
    let unsafe_f: DefenseFactory = &|| Box::new(UnsafeBaseline);
    let cleanup: DefenseFactory = &|| Box::new(CleanupSpec::new());
    let dom: DefenseFactory = &|| Box::new(DelayOnMiss::new());
    let dom_naive: DefenseFactory = &|| Box::new(DelayOnMiss::naive());
    let invisi: DefenseFactory = &|| Box::new(InvisiSpec::new());
    SuiteGrid::measure(
        &[
            ("unsafe", unsafe_f),
            ("cleanupspec", cleanup),
            ("delay-on-miss", dom),
            ("invisispec", invisi),
            ("dom-no-vp", dom_naive),
        ],
        warmup,
        measure,
        render,
    )
}

/// The defense-landscape table: percentage slowdowns and their average.
fn render(grid: &SuiteGrid, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    writeln!(f, "Defense landscape — slowdown vs the unsafe baseline")?;
    let mut headers = vec!["workload"];
    headers.extend(grid.schemes.iter().skip(1).map(|s| s.as_str()));
    let mut rows = Vec::new();
    for row in &grid.rows {
        let mut cells = vec![row.workload.clone()];
        for idx in 1..grid.schemes.len() {
            cells.push(format!("{:+.1}%", row.overhead(idx) * 100.0));
        }
        rows.push(cells);
    }
    let mut avg = vec!["average".to_string()];
    for idx in 1..grid.schemes.len() {
        avg.push(format!("{:+.1}%", grid.average_overhead(idx) * 100.0));
    }
    rows.push(avg);
    write!(f, "{}", ascii::table(&headers, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undo_is_the_cheapest_defense() {
        let e = run(8_000, 25_000);
        let (cleanup, dom, invisi) = ordering(&e);
        // The paper's motivation: Undo << Invisible.
        assert!(
            cleanup < dom && cleanup < invisi,
            "CleanupSpec must be cheapest: {cleanup:.3} vs dom {dom:.3} / invisi {invisi:.3}"
        );
        assert!(
            (0.0..0.15).contains(&cleanup),
            "CleanupSpec mean {cleanup} should be a few percent"
        );
        assert!(
            invisi > 0.02,
            "InvisiSpec pays on every speculative load: {invisi}"
        );
    }

    #[test]
    fn display_has_average_row() {
        let text = run(3_000, 8_000).to_string();
        assert!(text.contains("average"));
        assert!(text.contains("delay-on-miss"));
    }
}
