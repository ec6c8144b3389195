//! Suite runner: per-workload cycles under a set of defense schemes.

use unxpec_cpu::{Core, Cycle, Defense};

use crate::kernels::Workload;

/// A factory producing a fresh defense instance per run.
pub type DefenseFactory<'a> = &'a dyn Fn() -> Box<dyn Defense>;

/// One workload's cycle counts across all schemes.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Workload name.
    pub workload: String,
    /// `(scheme name, measured-window cycles)` in scheme order; index 0
    /// is the baseline.
    pub cycles: Vec<(String, Cycle)>,
}

impl OverheadRow {
    /// Overhead of scheme `idx` relative to scheme 0, as a fraction
    /// (0.25 = 25% slowdown).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn overhead(&self, idx: usize) -> f64 {
        let base = self.cycles[0].1 as f64;
        self.cycles[idx].1 as f64 / base - 1.0
    }
}

/// Runs every workload under every scheme; `schemes[0]` is the
/// baseline the others are normalized against (the paper uses the
/// unsafe machine).
///
/// Each `(workload, scheme)` pair gets a fresh Table-I machine, a table
/// install, `warmup` committed instructions of warmup and `measure`
/// committed instructions of measurement — the paper's `maxinst` /
/// `startinst` methodology.
pub fn measure_overheads(
    suite: &[Workload],
    schemes: &[(&str, DefenseFactory<'_>)],
    warmup: u64,
    measure: u64,
) -> Vec<OverheadRow> {
    suite
        .iter()
        .map(|w| {
            let cycles = schemes
                .iter()
                .map(|(name, factory)| {
                    let mut core = Core::table_i();
                    core.set_defense(factory());
                    (name.to_string(), w.measure(&mut core, warmup, measure))
                })
                .collect();
            OverheadRow {
                workload: w.name().to_string(),
                cycles,
            }
        })
        .collect()
}

/// Arithmetic-mean overhead of scheme `idx` across `rows` (what the
/// paper's "average slowdown" quotes).
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn arith_mean_overhead(rows: &[OverheadRow], idx: usize) -> f64 {
    assert!(!rows.is_empty(), "no rows to aggregate");
    rows.iter().map(|r| r.overhead(idx)).sum::<f64>() / rows.len() as f64
}

/// Geometric-mean overhead of scheme `idx` across `rows` (SPEC-style
/// aggregation).
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn mean_overhead(rows: &[OverheadRow], idx: usize) -> f64 {
    assert!(!rows.is_empty(), "no rows to aggregate");
    let log_sum: f64 = rows
        .iter()
        .map(|r| (1.0 + r.overhead(idx)).ln())
        .sum::<f64>();
    (log_sum / rows.len() as f64).exp() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{KernelSpec, Workload};
    use unxpec_cpu::UnsafeBaseline;
    use unxpec_defense::{CleanupSpec, ConstantTimeRollback};

    fn mini_suite() -> Vec<Workload> {
        vec![Workload::new(KernelSpec {
            name: "branchy",
            working_set_lines: 256,
            branch_mask: 1,
            pointer_chase: false,
            extra_alus: 2,
            loads_per_iter: 1,
            stores: false,
            tail_alus: 3,
            cold_mask: 0,
            seed: 11,
        })]
    }

    #[test]
    fn constant_time_overhead_grows_with_the_constant() {
        let suite = mini_suite();
        let unsafe_f: DefenseFactory<'_> = &|| Box::new(UnsafeBaseline);
        let c25: DefenseFactory<'_> = &|| Box::new(ConstantTimeRollback::new(25));
        let c65: DefenseFactory<'_> = &|| Box::new(ConstantTimeRollback::new(65));
        let rows = measure_overheads(
            &suite,
            &[("unsafe", unsafe_f), ("const25", c25), ("const65", c65)],
            20_000,
            40_000,
        );
        let o25 = rows[0].overhead(1);
        let o65 = rows[0].overhead(2);
        assert!(
            o25 > 0.03,
            "25-cycle constant must cost something, got {o25}"
        );
        assert!(
            o65 > o25 * 1.5,
            "65 cycles must cost much more ({o25} vs {o65})"
        );
    }

    #[test]
    fn cleanupspec_is_cheap_without_constant() {
        let suite = mini_suite();
        let unsafe_f: DefenseFactory<'_> = &|| Box::new(UnsafeBaseline);
        let cs: DefenseFactory<'_> = &|| Box::new(CleanupSpec::new());
        let rows = measure_overheads(
            &suite,
            &[("unsafe", unsafe_f), ("cleanupspec", cs)],
            20_000,
            40_000,
        );
        let o = rows[0].overhead(1);
        assert!(
            (-0.02..0.20).contains(&o),
            "CleanupSpec alone should cost little (paper: ~5%), got {o}"
        );
    }

    #[test]
    fn mean_overhead_aggregates() {
        let rows = vec![
            OverheadRow {
                workload: "a".into(),
                cycles: vec![("base".into(), 100), ("x".into(), 121)],
            },
            OverheadRow {
                workload: "b".into(),
                cycles: vec![("base".into(), 100), ("x".into(), 100)],
            },
        ];
        let m = mean_overhead(&rows, 1);
        assert!(
            (m - 0.1).abs() < 0.01,
            "geomean of 21% and 0% ~ 10%, got {m}"
        );
    }
}
