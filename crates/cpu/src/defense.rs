//! The hook through which safe-speculation defenses plug into the core.
//!
//! The core detects a mis-speculation, squashes younger instructions, and
//! then hands the defense everything it needs to undo (or hide) the
//! microarchitectural damage: the resolve cycle and the exact cache-state
//! effects of the squashed loads. The defense mutates the hierarchy and
//! returns the cycle at which the front end may redirect — the interval
//! between resolve and redirect is precisely the T3–T5 cleanup window of
//! the paper's Fig. 1, and its secret dependence is what unXpec measures.

use unxpec_cache::{CacheHierarchy, Cycle, Effect, ExternalProbe, SpecTag};
use unxpec_mem::LineAddr;

/// Everything the core knows about one squash event.
///
/// The effect list is borrowed from the core's run-wide effect log (the
/// squashed frame's tail of it) rather than owned: squashes are the
/// steady-state hot path of every figure-reproduction run, and handing
/// each defense an owned `Vec` forced an allocation per squash for data
/// the defense only reads during `on_squash`.
#[derive(Debug, Clone)]
pub struct SquashInfo<'a> {
    /// Cycle the mispredicted branch resolved (T2).
    pub resolve_cycle: Cycle,
    /// Static PC of the mispredicted branch.
    pub branch_pc: usize,
    /// Speculation epoch being squashed (younger epochs die with it).
    pub epoch: SpecTag,
    /// Cache-state effects of the squashed loads, oldest first.
    pub transient_effects: &'a [Effect],
    /// Number of squashed loads that had issued a cache access.
    pub squashed_loads: usize,
    /// Number of squashed instructions of any kind.
    pub squashed_insts: usize,
}

/// How speculative loads interact with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillPolicy {
    /// Speculative loads fill the cache eagerly (Undo-style and the
    /// unsafe baseline).
    #[default]
    Eager,
    /// Speculative loads do not modify cache state; fills happen at epoch
    /// commit (Invisible-style, e.g. InvisiSpec).
    Invisible,
    /// Speculative loads that *hit* the L1 proceed; speculative L1
    /// misses are deferred until every enclosing branch resolves
    /// (delay-on-miss, Sakalis et al. ISCA 2019). No speculative
    /// footprint, no per-hit cost — the slowdown concentrates on
    /// speculative misses.
    DelayOnMiss,
}

/// A safe-speculation defense.
///
/// Implementations must be deterministic given the same inputs; all
/// randomness (e.g. fuzzy delays) must come from seeded state inside the
/// implementation.
pub trait Defense: std::fmt::Debug + Send {
    /// Short display name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Whether speculative loads fill the cache ([`FillPolicy::Eager`],
    /// the default) or stay invisible until commit.
    fn fill_policy(&self) -> FillPolicy {
        FillPolicy::Eager
    }

    /// Extra latency charged to every speculative load (Invisible
    /// schemes pay for validation/exposure traffic; zero by default).
    fn speculative_load_extra_latency(&self) -> Cycle {
        0
    }

    /// For [`FillPolicy::DelayOnMiss`]: whether this delayed load's
    /// value is supplied by a value predictor (letting execution
    /// continue without the delay). Called once per delayed load;
    /// implementations draw from their own seeded RNG.
    fn delayed_load_value_predicted(&mut self) -> bool {
        false
    }

    /// Whether `on_squash` claims *exact* state rollback — the caches
    /// end up as if the transient loads never ran. Defenses returning
    /// `true` opt into the sanitizer's rollback-exactness oracle, which
    /// re-checks the restored state line by line after every squash.
    /// Default `false` (the baseline leaves footprints; invisible
    /// schemes never create any).
    fn rollback_exact(&self) -> bool {
        false
    }

    /// Handles a squash: roll back or hide state as the scheme dictates
    /// and return the cycle at which the front end may resume fetching.
    ///
    /// The baseline (no defense) returns `info.resolve_cycle` unchanged;
    /// the core adds its own pipeline-refill penalty on top.
    fn on_squash(&mut self, hier: &mut CacheHierarchy, info: &SquashInfo<'_>) -> Cycle;

    /// Called when a speculation epoch resolves *correct*, with the
    /// effects of the loads that executed under it. The default clears
    /// the speculative tags — the install becomes architectural.
    fn on_commit_epoch(&mut self, hier: &mut CacheHierarchy, effects: &[Effect]) {
        for effect in effects {
            hier.commit_line(effect.installed_line());
        }
    }

    /// A human-readable dump of the defense's internal counters (shown
    /// by the `simulate` binary next to the gem5-style stats). Empty by
    /// default.
    fn report(&self) -> String {
        String::new()
    }

    /// Registers the defense's internal counters into `reg`, under a
    /// namespace derived from [`Defense::name`]. No-op by default —
    /// defenses without counters stay silent in the metrics dump.
    fn record_metrics(&self, _reg: &mut unxpec_telemetry::MetricsRegistry) {}

    /// Services a read request from another thread or core for `line`.
    ///
    /// The default is the unprotected behaviour: supply from the caches
    /// with the corresponding (attacker-timable) latency and downgrade
    /// M/E to Shared. CleanupSpec overrides this to answer with a dummy
    /// miss whenever the line is a not-yet-safe speculative install, so
    /// a cross-thread probe cannot see transient state during the
    /// speculation window (§II-B of the unXpec paper).
    fn serve_external_probe(
        &mut self,
        hier: &mut CacheHierarchy,
        line: LineAddr,
        cycle: Cycle,
    ) -> ExternalProbe {
        hier.serve_external_read(line, cycle)
    }
}

/// The unsafe baseline: squashed instructions leave their cache
/// footprints in place (classic Spectre-vulnerable behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnsafeBaseline;

impl Defense for UnsafeBaseline {
    fn name(&self) -> &'static str {
        "unsafe-baseline"
    }

    fn on_squash(&mut self, hier: &mut CacheHierarchy, info: &SquashInfo<'_>) -> Cycle {
        // Footprints stay; tags are cleared so later squashes do not
        // confuse stale installs with their own.
        for effect in info.transient_effects {
            hier.commit_line(effect.installed_line());
        }
        info.resolve_cycle
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use unxpec_cache::HierarchyConfig;
    use unxpec_mem::LineAddr;

    #[test]
    fn unsafe_baseline_keeps_footprints_and_adds_no_stall() {
        let mut hier = CacheHierarchy::new(HierarchyConfig::table_i(), 1);
        let line = LineAddr::new(0x77);
        let out = hier.access_data(line, 0, Some(SpecTag(1)));
        let info = SquashInfo {
            resolve_cycle: 500,
            branch_pc: 3,
            epoch: SpecTag(1),
            transient_effects: &out.effects,
            squashed_loads: 1,
            squashed_insts: 2,
        };
        let mut d = UnsafeBaseline;
        let resume = d.on_squash(&mut hier, &info);
        assert_eq!(resume, 500);
        assert!(hier.l1_contains(line), "footprint must remain");
        assert!(!hier.l1_is_speculative(line), "tag must be cleared");
    }
}
