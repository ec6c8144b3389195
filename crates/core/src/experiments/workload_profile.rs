//! Per-kernel microarchitectural profiles of the workload suite.
//!
//! The Fig. 12 substitution argument (DESIGN.md) rests on the synthetic
//! kernels having SPEC-like squash frequencies and memory behaviour;
//! this experiment prints the evidence: IPC, branch misprediction rate,
//! L1/L2 miss ratios and mean squash interval per kernel on the unsafe
//! baseline.

use std::fmt;

use unxpec_cpu::Core;
use unxpec_stats::ascii;
use unxpec_workloads::spec2017_like_suite;

/// One kernel's measured profile.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Conditional-branch misprediction rate.
    pub mispredict_rate: f64,
    /// L1D miss ratio.
    pub l1_miss: f64,
    /// L2 miss ratio.
    pub l2_miss: f64,
    /// Mean cycles between squashes (`inf` if none).
    pub squash_interval: f64,
}

/// The whole suite's profiles.
#[derive(Debug, Clone)]
pub struct SuiteProfile {
    /// Per-kernel rows.
    pub kernels: Vec<KernelProfile>,
}

impl SuiteProfile {
    /// Looks a kernel up by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelProfile> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// Profiles every kernel over `insts` committed instructions (after
/// `warmup`).
pub fn run(warmup: u64, insts: u64) -> SuiteProfile {
    let kernels = spec2017_like_suite()
        .iter()
        .map(|w| {
            let mut core = Core::table_i();
            w.install(&mut core);
            core.run_for(w.program(), warmup);
            core.hierarchy_mut().reset_stats();
            let r = core.run_for(w.program(), insts);
            let squash_interval = if r.stats.mispredicts == 0 {
                f64::INFINITY
            } else {
                r.stats.cycles as f64 / r.stats.mispredicts as f64
            };
            KernelProfile {
                name: w.name().to_string(),
                ipc: r.stats.ipc(),
                mispredict_rate: r.stats.mispredict_rate(),
                l1_miss: core.hierarchy().l1_stats().miss_ratio(),
                l2_miss: core.hierarchy().l2_stats().miss_ratio(),
                squash_interval,
            }
        })
        .collect();
    SuiteProfile { kernels }
}

impl fmt::Display for SuiteProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Workload suite profile (unsafe baseline)")?;
        let rows: Vec<Vec<String>> = self
            .kernels
            .iter()
            .map(|k| {
                vec![
                    k.name.clone(),
                    format!("{:.2}", k.ipc),
                    format!("{:.1}%", k.mispredict_rate * 100.0),
                    format!("{:.1}%", k.l1_miss * 100.0),
                    format!("{:.1}%", k.l2_miss * 100.0),
                    if k.squash_interval.is_finite() {
                        format!("{:.0} cy", k.squash_interval)
                    } else {
                        "-".to_string()
                    },
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            ascii::table(
                &[
                    "kernel",
                    "ipc",
                    "misp",
                    "l1 miss",
                    "l2 miss",
                    "squash every"
                ],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_spec_plausible() {
        let p = run(8_000, 25_000);
        assert_eq!(p.kernels.len(), 12);
        let mcf = p.kernel("mcf_r").expect("mcf");
        let namd = p.kernel("namd_r").expect("namd");
        // Pointer chasing is memory-bound; compute kernels are not.
        assert!(mcf.ipc < 0.2, "{}", mcf.ipc);
        assert!(namd.ipc > 0.5, "{}", namd.ipc);
        assert!(mcf.l1_miss > 0.3, "{}", mcf.l1_miss);
        assert!(namd.l1_miss < 0.1, "{}", namd.l1_miss);
        // Every kernel mispredicts sometimes (Fig. 12 needs squashes).
        for k in &p.kernels {
            assert!(k.mispredict_rate > 0.0001, "{} never mispredicts", k.name);
        }
    }

    #[test]
    fn display_has_all_kernels() {
        let text = run(2_000, 6_000).to_string();
        for k in ["perlbench_r", "mcf_r", "lbm_r", "squash every"] {
            assert!(text.contains(k), "missing {k}");
        }
    }
}
