//! Fig. 12: performance overhead of constant-time rollback on the
//! SPEC-2017-like suite.

use std::fmt;

use unxpec_cpu::UnsafeBaseline;
use unxpec_defense::{CleanupSpec, ConstantTimeRollback};
use unxpec_stats::ascii;
use unxpec_workloads::{
    arith_mean_overhead, mean_overhead, measure_overheads, spec2017_like_suite, DefenseFactory,
    OverheadRow,
};

/// The constants the paper sweeps (cycles).
pub const CONSTANTS: [u64; 5] = [25, 30, 35, 45, 65];

/// Per-workload cycle counts of the SPEC-like suite under a set of
/// schemes, column 0 being the unsafe baseline. Fig. 12 and the
/// defense-costs extension both measure one; each renders its own
/// table.
#[derive(Debug, Clone)]
pub struct SuiteGrid {
    /// Scheme names in column order, the unsafe baseline first.
    pub schemes: Vec<String>,
    /// Per-workload cycle counts.
    pub rows: Vec<OverheadRow>,
    /// The owning experiment's table renderer, which `Display` calls.
    render: fn(&SuiteGrid, &mut fmt::Formatter<'_>) -> fmt::Result,
}

impl SuiteGrid {
    /// Runs every suite workload under every `(name, factory)` scheme,
    /// rendering as `render` does.
    pub fn measure(
        schemes: &[(&str, DefenseFactory<'_>)],
        warmup: u64,
        measure: u64,
        render: fn(&SuiteGrid, &mut fmt::Formatter<'_>) -> fmt::Result,
    ) -> Self {
        SuiteGrid {
            schemes: schemes.iter().map(|(n, _)| n.to_string()).collect(),
            rows: measure_overheads(&spec2017_like_suite(), schemes, warmup, measure),
            render,
        }
    }

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

impl fmt::Display for SuiteGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.render)(self, f)
    }
}

/// Mean overhead of Fig. 12's `const = c` column.
///
/// # Panics
///
/// Panics if `c` is not one of [`CONSTANTS`].
pub fn mean_overhead_for_constant(grid: &SuiteGrid, c: u64) -> f64 {
    let idx = CONSTANTS
        .iter()
        .position(|&x| x == c)
        .expect("unknown constant")
        + 2;
    grid.mean_overhead(idx)
}

/// Runs the full sweep: every workload under unsafe, plain CleanupSpec,
/// and relaxed constant-time rollback at each constant.
pub fn run(warmup: u64, measure: u64) -> SuiteGrid {
    let unsafe_f: DefenseFactory = &|| Box::new(UnsafeBaseline);
    let no_const: DefenseFactory = &|| Box::new(CleanupSpec::new());
    let c25: DefenseFactory = &|| Box::new(ConstantTimeRollback::new(25));
    let c30: DefenseFactory = &|| Box::new(ConstantTimeRollback::new(30));
    let c35: DefenseFactory = &|| Box::new(ConstantTimeRollback::new(35));
    let c45: DefenseFactory = &|| Box::new(ConstantTimeRollback::new(45));
    let c65: DefenseFactory = &|| Box::new(ConstantTimeRollback::new(65));
    SuiteGrid::measure(
        &[
            ("unsafe", unsafe_f),
            ("no-const", no_const),
            ("const=25", c25),
            ("const=30", c30),
            ("const=35", c35),
            ("const=45", c45),
            ("const=65", c65),
        ],
        warmup,
        measure,
        render,
    )
}

/// Renders the grouped-bar figure (Fig. 12).
pub fn to_svg(grid: &SuiteGrid) -> String {
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
fn render(grid: &SuiteGrid, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SuiteGrid {
        run(6_000, 20_000)
    }

    #[test]
    fn overhead_grows_with_the_constant() {
        let e = quick();
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
        let e = quick();
        let o = e.mean_overhead(1);
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
        let e = run(3_000, 8_000);
        let text = e.to_string();
        for name in ["perlbench_r", "mcf_r", "lbm_r", "geomean"] {
            assert!(text.contains(name), "missing {name}");
        }
    }
}
