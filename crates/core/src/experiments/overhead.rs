//! Fig. 12: performance overhead of constant-time rollback on the
//! SPEC-2017-like suite.

use std::fmt;

use unxpec_cpu::UnsafeBaseline;
use unxpec_defense::{CleanupSpec, ConstantTimeRollback};
use unxpec_stats::ascii;
use unxpec_workloads::{
    arith_mean_overhead, mean_overhead, measure_overheads, spec2017_like_suite, OverheadRow,
};

/// The constants the paper sweeps (cycles).
pub const CONSTANTS: [u64; 5] = [25, 30, 35, 45, 65];

/// The Fig. 12 experiment result.
#[derive(Debug, Clone)]
pub struct OverheadExperiment {
    /// Scheme names in column order: unsafe, no-const CleanupSpec, then
    /// one per constant.
    pub schemes: Vec<String>,
    /// Per-workload cycle counts.
    pub rows: Vec<OverheadRow>,
}

impl OverheadExperiment {
    /// Geometric-mean overhead of scheme column `idx` vs the unsafe
    /// baseline (column 0).
    pub fn mean_overhead(&self, idx: usize) -> f64 {
        mean_overhead(&self.rows, idx)
    }

    /// Arithmetic-mean overhead ("average slowdown" in the paper).
    pub fn average_overhead(&self, idx: usize) -> f64 {
        arith_mean_overhead(&self.rows, idx)
    }

    /// Mean overhead of the `const = c` column.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not one of [`CONSTANTS`].
    pub fn mean_overhead_for_constant(&self, c: u64) -> f64 {
        let idx = CONSTANTS
            .iter()
            .position(|&x| x == c)
            .expect("unknown constant")
            + 2;
        self.mean_overhead(idx)
    }
}

impl OverheadExperiment {
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

/// Runs the full sweep: every workload under unsafe, plain CleanupSpec,
/// and relaxed constant-time rollback at each constant.
pub fn run(warmup: u64, measure: u64) -> OverheadExperiment {
    let suite = spec2017_like_suite();
    let unsafe_f: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> = &|| Box::new(UnsafeBaseline);
    let no_const: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> = &|| Box::new(CleanupSpec::new());
    let c25: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> =
        &|| Box::new(ConstantTimeRollback::new(25));
    let c30: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> =
        &|| Box::new(ConstantTimeRollback::new(30));
    let c35: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> =
        &|| Box::new(ConstantTimeRollback::new(35));
    let c45: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> =
        &|| Box::new(ConstantTimeRollback::new(45));
    let c65: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> =
        &|| Box::new(ConstantTimeRollback::new(65));
    let schemes: Vec<(&str, _)> = vec![
        ("unsafe", unsafe_f),
        ("no-const", no_const),
        ("const=25", c25),
        ("const=30", c30),
        ("const=35", c35),
        ("const=45", c45),
        ("const=65", c65),
    ];
    let rows = measure_overheads(&suite, &schemes, warmup, measure);
    OverheadExperiment {
        schemes: schemes.iter().map(|(n, _)| n.to_string()).collect(),
        rows,
    }
}

impl OverheadExperiment {
    /// Renders the grouped-bar figure (Fig. 12).
    pub fn to_svg(&self) -> String {
        let categories: Vec<String> = self.rows.iter().map(|r| r.workload.clone()).collect();
        let series: Vec<(&str, Vec<f64>)> = (1..self.schemes.len())
            .map(|idx| {
                (
                    self.schemes[idx].as_str(),
                    self.rows.iter().map(|r| 1.0 + r.overhead(idx)).collect(),
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
}

impl fmt::Display for OverheadExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 12 — slowdown vs the unsafe baseline (execution-time ratio)"
        )?;
        let mut headers: Vec<&str> = vec!["workload"];
        headers.extend(self.schemes.iter().skip(1).map(|s| s.as_str()));
        let mut table_rows = Vec::new();
        for row in &self.rows {
            let mut cells = vec![row.workload.clone()];
            for idx in 1..self.schemes.len() {
                cells.push(format!("{:.3}", 1.0 + row.overhead(idx)));
            }
            table_rows.push(cells);
        }
        let mut mean_cells = vec!["geomean".to_string()];
        for idx in 1..self.schemes.len() {
            mean_cells.push(format!("{:.3}", 1.0 + self.mean_overhead(idx)));
        }
        table_rows.push(mean_cells);
        let mut avg_cells = vec!["average".to_string()];
        for idx in 1..self.schemes.len() {
            avg_cells.push(format!("{:.3}", 1.0 + self.average_overhead(idx)));
        }
        table_rows.push(avg_cells);
        write!(f, "{}", ascii::table(&headers, &table_rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> OverheadExperiment {
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
        let o25 = e.mean_overhead_for_constant(25);
        let o65 = e.mean_overhead_for_constant(65);
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
