//! Run statistics and squash records (the gem5-stats analogue).

use unxpec_cache::Cycle;

/// One squash event, recorded for experiment post-processing.
///
/// The paper's key quantities map directly: `resolution_time` is T1–T2 of
/// Fig. 1, `cleanup_cycles` is T3–T5 (the secret-dependent part), and the
/// counts say how much rollback work the defense performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SquashRecord {
    /// Static PC of the mispredicted branch.
    pub branch_pc: usize,
    /// Cycle the branch dispatched (start of the speculation window, T1).
    pub dispatch_cycle: Cycle,
    /// Cycle the branch resolved (T2).
    pub resolve_cycle: Cycle,
    /// Cycle the front end redirected (after defense cleanup, T6 minus
    /// the refill penalty).
    pub redirect_cycle: Cycle,
    /// Squashed loads that had issued cache accesses.
    pub squashed_loads: usize,
    /// L1 lines the squashed loads installed.
    pub l1_installs: usize,
    /// L1 victims those installs displaced (restoration candidates).
    pub l1_evictions: usize,
}

impl SquashRecord {
    /// T1–T2: branch resolution time. Saturates at zero: a branch that
    /// resolves the cycle it dispatches (or a record assembled from
    /// clamped cycles) must not wrap to `u64::MAX`.
    pub fn resolution_time(&self) -> Cycle {
        self.resolve_cycle.saturating_sub(self.dispatch_cycle)
    }

    /// T2–redirect: the defense's cleanup stall. Saturates at zero for
    /// zero-cost defenses whose redirect coincides with resolution.
    pub fn cleanup_cycles(&self) -> Cycle {
        self.redirect_cycle.saturating_sub(self.resolve_cycle)
    }
}

/// Aggregate statistics of one program run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total simulated cycles.
    pub cycles: Cycle,
    /// Committed (correct-path) instructions.
    pub committed_insts: u64,
    /// Committed loads.
    pub committed_loads: u64,
    /// Resolved conditional branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Wrong-path (squashed) instructions executed.
    pub squashed_insts: u64,
    /// Cycles spent stalled in defense cleanup.
    pub cleanup_stall_cycles: Cycle,
    /// Per-squash detail records.
    pub squashes: Vec<SquashRecord>,
    /// Cycle count when the committed-instruction milestone was reached
    /// (see `Core::run_with_milestone`; the paper's `startinst_count`
    /// warmup methodology).
    pub milestone_cycle: Option<Cycle>,
    /// Committed instructions executed by the fast-forward functional
    /// interpreter (a subset of `committed_insts`; zero in all-detailed
    /// runs).
    pub ff_committed_insts: u64,
    /// Fast-forward regions entered (mode switches into the functional
    /// interpreter; zero in all-detailed runs).
    pub ff_regions: u64,
}

impl RunStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_insts as f64 / self.cycles as f64
        }
    }

    /// Misprediction rate over resolved branches.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Registers the run's counters under the `core.` namespace and its
    /// per-squash intervals as `squash.*` histograms.
    pub fn record_metrics(&self, reg: &mut unxpec_telemetry::MetricsRegistry) {
        reg.set("core.cycles", self.cycles);
        reg.set("core.committed_insts", self.committed_insts);
        reg.set("core.committed_loads", self.committed_loads);
        reg.set("core.branches", self.branches);
        reg.set("core.mispredicts", self.mispredicts);
        reg.set("core.squashed_insts", self.squashed_insts);
        reg.set("core.cleanup_stall_cycles", self.cleanup_stall_cycles);
        reg.set("core.ipc_milli", (self.ipc() * 1000.0).round() as u64);
        // Mode counters appear only for runs that actually fast-forwarded,
        // so detailed-mode metric dumps stay byte-identical to pre-two-speed
        // builds.
        if self.ff_regions > 0 {
            reg.set("core.mode.ff_committed_insts", self.ff_committed_insts);
            reg.set("core.mode.ff_regions", self.ff_regions);
            reg.set(
                "core.mode.detailed_committed_insts",
                self.committed_insts - self.ff_committed_insts,
            );
        }
        for r in &self.squashes {
            reg.observe("squash.resolution_time", r.resolution_time());
            reg.observe("squash.cleanup_cycles", r.cleanup_cycles());
        }
    }

    /// Renders the counters in the `key  value` style of a gem5 stats
    /// dump, using the names the unXpec artifact appendix extracts for
    /// its Fig. 12 methodology (`sim_ticks`,
    /// `system.cpu.fetch.startCycles`,
    /// `system.cpu.iew.lsq.thread0.extraCleanupSquashTimeCyclesXX`).
    /// `constant_rollback` labels the cleanup-stall counter with the
    /// enforced constant, as the artifact does per configuration.
    pub fn gem5_style_dump(&self, constant_rollback: Option<u64>) -> String {
        let mut out = String::new();
        let mut kv = |k: &str, v: u64| {
            out.push_str(&format!(
                "{k:<58} {v}
"
            ));
        };
        kv("sim_ticks", self.cycles);
        kv(
            "system.cpu.fetch.startCycles",
            self.milestone_cycle.unwrap_or(0),
        );
        kv("system.cpu.committedInsts", self.committed_insts);
        kv("system.cpu.committedLoads", self.committed_loads);
        kv("system.cpu.branchPred.condPredicted", self.branches);
        kv("system.cpu.branchPred.condIncorrect", self.mispredicts);
        kv("system.cpu.squashedInsts", self.squashed_insts);
        let key = match constant_rollback {
            Some(c) => format!("system.cpu.iew.lsq.thread0.extraCleanupSquashTimeCycles{c}"),
            None => "system.cpu.iew.lsq.thread0.extraCleanupSquashTimeCycles".to_string(),
        };
        kv(&key, self.cleanup_stall_cycles);
        out
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn record_intervals() {
        let r = SquashRecord {
            branch_pc: 1,
            dispatch_cycle: 100,
            resolve_cycle: 220,
            redirect_cycle: 242,
            squashed_loads: 1,
            l1_installs: 1,
            l1_evictions: 0,
        };
        assert_eq!(r.resolution_time(), 120);
        assert_eq!(r.cleanup_cycles(), 22);
    }

    #[test]
    fn same_cycle_resolution_is_zero_not_wraparound() {
        let r = SquashRecord {
            branch_pc: 1,
            dispatch_cycle: 100,
            resolve_cycle: 100,
            redirect_cycle: 100,
            squashed_loads: 0,
            l1_installs: 0,
            l1_evictions: 0,
        };
        assert_eq!(r.resolution_time(), 0);
        assert_eq!(r.cleanup_cycles(), 0);
    }

    #[test]
    fn out_of_order_cycles_saturate_to_zero() {
        // A record stitched together from clamped cycle values can end up
        // with redirect < resolve; the intervals must clamp, not wrap.
        let r = SquashRecord {
            branch_pc: 1,
            dispatch_cycle: 200,
            resolve_cycle: 150,
            redirect_cycle: 120,
            squashed_loads: 0,
            l1_installs: 0,
            l1_evictions: 0,
        };
        assert_eq!(r.resolution_time(), 0);
        assert_eq!(r.cleanup_cycles(), 0);
    }

    #[test]
    fn stats_rates() {
        let s = RunStats {
            cycles: 1000,
            committed_insts: 500,
            branches: 100,
            mispredicts: 10,
            ..RunStats::default()
        };
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod dump_tests {
    use super::*;

    #[test]
    fn gem5_dump_has_artifact_keys() {
        let s = RunStats {
            cycles: 1234,
            committed_insts: 500,
            mispredicts: 3,
            cleanup_stall_cycles: 66,
            milestone_cycle: Some(400),
            ..RunStats::default()
        };
        let dump = s.gem5_style_dump(Some(45));
        assert!(dump.contains("sim_ticks"));
        assert!(dump.contains("1234"));
        assert!(dump.contains("system.cpu.fetch.startCycles"));
        assert!(dump.contains("extraCleanupSquashTimeCycles45"));
        assert!(dump.contains("66"));
    }

    #[test]
    fn gem5_dump_without_constant_label() {
        let dump = RunStats::default().gem5_style_dump(None);
        assert!(dump.contains("extraCleanupSquashTimeCycles "));
        assert!(!dump.contains("Cycles0"));
    }
}
