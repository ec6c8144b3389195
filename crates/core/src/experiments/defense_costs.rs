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
use unxpec_workloads::{arith_mean_overhead, measure_overheads, spec2017_like_suite, OverheadRow};

/// The defense-cost comparison result.
#[derive(Debug, Clone)]
pub struct DefenseCosts {
    /// Scheme names: unsafe, cleanupspec, delay-on-miss (with value
    /// prediction), invisispec, delay-on-miss without value prediction.
    pub schemes: Vec<String>,
    /// Per-workload cycles.
    pub rows: Vec<OverheadRow>,
}

impl DefenseCosts {
    /// Arithmetic-mean overhead of scheme `idx` vs unsafe.
    pub fn average_overhead(&self, idx: usize) -> f64 {
        arith_mean_overhead(&self.rows, idx)
    }

    /// Mean overheads as `(cleanupspec, delay_on_miss, invisispec)`.
    pub fn ordering(&self) -> (f64, f64, f64) {
        (
            self.average_overhead(1),
            self.average_overhead(2),
            self.average_overhead(3),
        )
    }
}

impl DefenseCosts {
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

/// Runs the suite under every defense class.
pub fn run(warmup: u64, measure: u64) -> DefenseCosts {
    let suite = spec2017_like_suite();
    let unsafe_f: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> = &|| Box::new(UnsafeBaseline);
    let cleanup: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> = &|| Box::new(CleanupSpec::new());
    let dom: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> = &|| Box::new(DelayOnMiss::new());
    let dom_naive: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> = &|| Box::new(DelayOnMiss::naive());
    let invisi: &dyn Fn() -> Box<dyn unxpec_cpu::Defense> = &|| Box::new(InvisiSpec::new());
    let schemes: Vec<(&str, _)> = vec![
        ("unsafe", unsafe_f),
        ("cleanupspec", cleanup),
        ("delay-on-miss", dom),
        ("invisispec", invisi),
        ("dom-no-vp", dom_naive),
    ];
    let rows = measure_overheads(&suite, &schemes, warmup, measure);
    DefenseCosts {
        schemes: schemes.iter().map(|(n, _)| n.to_string()).collect(),
        rows,
    }
}

impl fmt::Display for DefenseCosts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Defense landscape — slowdown vs the unsafe baseline")?;
        let mut headers = vec!["workload"];
        headers.extend(self.schemes.iter().skip(1).map(|s| s.as_str()));
        let mut rows = Vec::new();
        for row in &self.rows {
            let mut cells = vec![row.workload.clone()];
            for idx in 1..self.schemes.len() {
                cells.push(format!("{:+.1}%", row.overhead(idx) * 100.0));
            }
            rows.push(cells);
        }
        let mut avg = vec!["average".to_string()];
        for idx in 1..self.schemes.len() {
            avg.push(format!("{:+.1}%", self.average_overhead(idx) * 100.0));
        }
        rows.push(avg);
        write!(f, "{}", ascii::table(&headers, &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undo_is_the_cheapest_defense() {
        let e = run(8_000, 25_000);
        let (cleanup, dom, invisi) = e.ordering();
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
