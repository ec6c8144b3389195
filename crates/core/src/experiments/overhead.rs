//! Fig. 12: performance overhead of constant-time rollback on the
//! SPEC-2017-like suite.
//!
//! [`Figures::fig12`](super::Figures::fig12) reads the grid from the
//! suite cells it shares with the defense landscape.

use std::fmt;

use unxpec_stats::ascii;
use unxpec_workloads::{arith_mean_overhead, mean_overhead, OverheadRow};

/// The constants the paper sweeps (cycles).
pub const CONSTANTS: [u64; 5] = [25, 30, 35, 45, 65];

/// Per-workload cycle counts of the SPEC-like suite under a set of
/// schemes, column 0 being the unsafe baseline. Fig. 12 ([`Fig12`]) and
/// the defense landscape
/// ([`Landscape`](super::defense_costs::Landscape)) each wrap one and
/// render their own table.
#[derive(Debug, Clone)]
pub struct SuiteGrid {
    /// Scheme names in column order, the unsafe baseline first.
    pub schemes: Vec<String>,
    /// Per-workload cycle counts.
    pub rows: Vec<OverheadRow>,
}

impl SuiteGrid {
    /// Geometric-mean overhead of scheme column `idx` vs the unsafe
    /// baseline (column 0).
    pub fn mean_overhead(&self, idx: usize) -> f64 {
        mean_overhead(&self.rows, idx)
    }

    /// Arithmetic-mean overhead ("average slowdown" in the paper).
    pub fn average_overhead(&self, idx: usize) -> f64 {
        arith_mean_overhead(&self.rows, idx)
    }

    /// CSV rows: `workload,<scheme cycles...>,<scheme slowdowns...>`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("workload");
        for s in &self.schemes {
            out.push_str(&format!(",{s}_cycles"));
        }
        for s in self.schemes.iter().skip(1) {
            out.push_str(&format!(",{s}_slowdown"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.workload);
            for (_, c) in &row.cycles {
                out.push_str(&format!(",{c}"));
            }
            for idx in 1..self.schemes.len() {
                out.push_str(&format!(",{:.4}", 1.0 + row.overhead(idx)));
            }
            out.push('\n');
        }
        out
    }
}

/// Fig. 12's grid: every workload under unsafe, plain CleanupSpec
/// ("no-const") and relaxed constant-time rollback at each of
/// [`CONSTANTS`], in that column order.
#[derive(Debug, Clone)]
pub struct Fig12(pub SuiteGrid);

/// Mean overhead of Fig. 12's `const = c` column.
///
/// # Panics
///
/// Panics if `c` is not one of [`CONSTANTS`].
pub fn mean_overhead_for_constant(fig: &Fig12, c: u64) -> f64 {
    let idx = CONSTANTS
        .iter()
        .position(|&x| x == c)
        .expect("unknown constant")
        + 2;
    fig.0.mean_overhead(idx)
}

/// Renders the grouped-bar figure (Fig. 12).
pub fn to_svg(fig: &Fig12) -> String {
    let grid = &fig.0;
    let categories: Vec<String> = grid.rows.iter().map(|r| r.workload.clone()).collect();
    let series: Vec<(&str, Vec<f64>)> = (1..grid.schemes.len())
        .map(|idx| {
            (
                grid.schemes[idx].as_str(),
                grid.rows.iter().map(|r| 1.0 + r.overhead(idx)).collect(),
            )
        })
        .collect();
    unxpec_stats::svg::grouped_bar_chart(
        "Fig. 12 - constant-time rollback slowdown",
        "normalized execution time",
        &categories,
        &series,
    )
}

/// Fig. 12's table: slowdown ratios, then geomean and average rows.
impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let grid = &self.0;
        writeln!(
            f,
            "Fig. 12 — slowdown vs the unsafe baseline (execution-time ratio)"
        )?;
        let mut headers: Vec<&str> = vec!["workload"];
        headers.extend(grid.schemes.iter().skip(1).map(|s| s.as_str()));
        let mut table_rows = Vec::new();
        for row in &grid.rows {
            let mut cells = vec![row.workload.clone()];
            for idx in 1..grid.schemes.len() {
                cells.push(format!("{:.3}", 1.0 + row.overhead(idx)));
            }
            table_rows.push(cells);
        }
        let mut mean_cells = vec!["geomean".to_string()];
        for idx in 1..grid.schemes.len() {
            mean_cells.push(format!("{:.3}", 1.0 + grid.mean_overhead(idx)));
        }
        table_rows.push(mean_cells);
        let mut avg_cells = vec!["average".to_string()];
        for idx in 1..grid.schemes.len() {
            avg_cells.push(format!("{:.3}", 1.0 + grid.average_overhead(idx)));
        }
        table_rows.push(avg_cells);
        write!(f, "{}", ascii::table(&headers, &table_rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Figures, Scale};

    /// Fig. 12 with `warmup` and `measure` instructions per cell.
    fn fig12(warmup: u64, measure: u64) -> Fig12 {
        let scale = Scale {
            workload_warmup: warmup,
            workload_measure: measure,
            ..Scale::quick()
        };
        Figures::new(scale, 0).fig12()
    }

    fn quick() -> Fig12 {
        fig12(6_000, 20_000)
    }

    #[test]
    fn overhead_grows_with_the_constant() {
        let e = quick().0;
        let mut prev = e.mean_overhead(2);
        for idx in 3..e.schemes.len() {
            let o = e.mean_overhead(idx);
            assert!(
                o >= prev - 0.01,
                "overhead must not shrink with a larger constant: {prev} -> {o}"
            );
            prev = o;
        }
    }

    #[test]
    fn cleanupspec_alone_is_cheap() {
        let o = quick().0.mean_overhead(1);
        assert!((-0.02..0.15).contains(&o), "no-const overhead {o} ~ 5%");
    }

    #[test]
    fn extreme_constants_bracket_the_paper_band() {
        let e = quick();
        let o25 = mean_overhead_for_constant(&e, 25);
        let o65 = mean_overhead_for_constant(&e, 65);
        assert!((0.10..=0.40).contains(&o25), "const-25 mean {o25} ~ 22.4%");
        assert!((0.40..=1.00).contains(&o65), "const-65 mean {o65} ~ 72.8%");
    }

    #[test]
    fn display_has_all_workloads_and_geomean() {
        let text = fig12(3_000, 8_000).to_string();
        for name in ["perlbench_r", "mcf_r", "lbm_r", "geomean"] {
            assert!(text.contains(name), "missing {name}");
        }
    }
}
