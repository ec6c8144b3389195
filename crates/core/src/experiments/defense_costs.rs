//! The defense landscape's cost (§I / §II-B of the paper): why Undo
//! schemes exist at all.
//!
//! The paper motivates CleanupSpec by cost: InvisiSpec slows execution
//! ~17% (two reads per speculative load), delay-on-miss ~11%, while
//! CleanupSpec pays only on the rare mis-speculation (~5%). This
//! experiment reproduces that ordering on the workload suite — the same
//! ordering that makes breaking the *cheap* defense (unXpec's
//! contribution) matter.
//!
//! [`Figures::defense_costs`](super::Figures::defense_costs) reads the
//! grid from the suite cells, sharing Fig. 12's unsafe and CleanupSpec
//! cells.

use std::fmt;

use unxpec_stats::ascii;

use super::overhead::SuiteGrid;

/// The defense landscape's grid: every workload under unsafe,
/// cleanupspec, delay-on-miss (with value prediction), invisispec and
/// delay-on-miss without value prediction, in that column order.
#[derive(Debug, Clone)]
pub struct Landscape(pub SuiteGrid);

/// Mean overheads of the landscape as `(cleanupspec, delay_on_miss,
/// invisispec)`.
pub fn ordering(landscape: &Landscape) -> (f64, f64, f64) {
    let grid = &landscape.0;
    (
        grid.average_overhead(1),
        grid.average_overhead(2),
        grid.average_overhead(3),
    )
}

/// The defense-landscape table: percentage slowdowns and their average.
impl fmt::Display for Landscape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let grid = &self.0;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Figures, Scale};

    /// The landscape with `warmup` and `measure` instructions per cell.
    fn landscape(warmup: u64, measure: u64) -> Landscape {
        let scale = Scale {
            workload_warmup: warmup,
            workload_measure: measure,
            ..Scale::quick()
        };
        Figures::new(scale, 0).defense_costs()
    }

    #[test]
    fn undo_is_the_cheapest_defense() {
        let e = landscape(8_000, 25_000);
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
        let text = landscape(3_000, 8_000).to_string();
        assert!(text.contains("average"));
        assert!(text.contains("delay-on-miss"));
    }
}
