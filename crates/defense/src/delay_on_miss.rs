//! Delay-on-miss invisible speculation (Sakalis et al., ISCA 2019).

use unxpec_cache::{CacheHierarchy, Cycle};
use unxpec_cpu::{Defense, FillPolicy, SquashInfo};
use unxpec_mem::seed::Xoshiro256pp;

/// Delay-on-miss: speculative loads that hit the L1 proceed normally;
/// speculative L1 *misses* wait until their speculation resolves before
/// issuing.
///
/// The paper's §II-B positions this as the efficient Invisible defense
/// (≈11% slowdown *with value prediction* vs InvisiSpec's 17%): L1
/// misses under speculation are rare, so the common case pays nothing —
/// the same bet CleanupSpec makes, but with delay instead of undo, so
/// there is no rollback to time and unXpec does not apply. Without
/// value prediction the delays serialize badly on miss-heavy code;
/// [`DelayOnMiss::naive`] exposes that variant for comparison.
/// # Examples
///
/// ```
/// use unxpec_cpu::{Defense, FillPolicy};
/// use unxpec_defense::DelayOnMiss;
///
/// let d = DelayOnMiss::naive();
/// assert_eq!(d.fill_policy(), FillPolicy::DelayOnMiss);
/// ```
#[derive(Debug, Clone)]
pub struct DelayOnMiss {
    squashes: u64,
    vp_accuracy: f64,
    vp_hits: u64,
    vp_misses: u64,
    rng: Xoshiro256pp,
}

impl DelayOnMiss {
    /// Delay-on-miss with the paper-configuration value predictor
    /// (85% of delayed loads get a predicted value and proceed).
    pub fn new() -> Self {
        Self::with_value_prediction(0.85, 0xd0e)
    }

    /// Delay-on-miss without value prediction: every speculative miss
    /// waits for resolution.
    pub fn naive() -> Self {
        Self::with_value_prediction(0.0, 0)
    }

    /// Custom value-predictor accuracy in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `accuracy` is outside `[0, 1]`.
    pub fn with_value_prediction(accuracy: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&accuracy), "accuracy out of range");
        DelayOnMiss {
            squashes: 0,
            vp_accuracy: accuracy,
            vp_hits: 0,
            vp_misses: 0,
            rng: Xoshiro256pp::new(seed),
        }
    }

    /// Squash events observed (none needing cleanup).
    pub fn squashes(&self) -> u64 {
        self.squashes
    }

    /// `(value-predicted, delayed)` load counts.
    pub fn vp_counts(&self) -> (u64, u64) {
        (self.vp_hits, self.vp_misses)
    }
}

impl Default for DelayOnMiss {
    fn default() -> Self {
        Self::new()
    }
}

impl Defense for DelayOnMiss {
    fn name(&self) -> &'static str {
        "delay-on-miss"
    }

    fn fill_policy(&self) -> FillPolicy {
        FillPolicy::DelayOnMiss
    }

    fn delayed_load_value_predicted(&mut self) -> bool {
        let predicted = self.vp_accuracy > 0.0 && self.rng.gen_bool(self.vp_accuracy);
        if predicted {
            self.vp_hits += 1;
        } else {
            self.vp_misses += 1;
        }
        predicted
    }

    fn on_squash(&mut self, _hier: &mut CacheHierarchy, info: &SquashInfo<'_>) -> Cycle {
        self.squashes += 1;
        // Speculative misses never issued, speculative hits changed
        // nothing (the L1 uses random replacement, so not even the
        // replacement state leaks): nothing to undo.
        debug_assert!(
            info.transient_effects.is_empty(),
            "delay-on-miss must not produce speculative fills"
        );
        info.resolve_cycle
    }

    fn record_metrics(&self, reg: &mut unxpec_telemetry::MetricsRegistry) {
        reg.set("delay_on_miss.squashes", self.squashes);
        reg.set("delay_on_miss.vp_hits", self.vp_hits);
        reg.set("delay_on_miss.vp_misses", self.vp_misses);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use unxpec_cpu::{Cond, Core, NeverTaken, ProgramBuilder, Reg};
    use unxpec_mem::Addr;

    #[test]
    fn value_prediction_counts_split_by_accuracy() {
        let mut d = DelayOnMiss::with_value_prediction(0.5, 3);
        for _ in 0..400 {
            d.delayed_load_value_predicted();
        }
        let (hits, misses) = d.vp_counts();
        assert_eq!(hits + misses, 400);
        assert!(
            (120..280).contains(&(hits as i64)),
            "{hits} predicted of 400"
        );
    }

    #[test]
    fn naive_variant_never_predicts() {
        let mut d = DelayOnMiss::naive();
        for _ in 0..50 {
            assert!(!d.delayed_load_value_predicted());
        }
    }

    fn attack_shape(core: &mut Core, probe: Addr) -> unxpec_cpu::RunResult {
        core.set_predictor(Box::new(NeverTaken));
        let mut b = ProgramBuilder::new();
        b.mov(Reg(4), 0x4000);
        b.load(Reg(5), Reg(4), 0); // slow comparand (reads 0)
        b.branch(Cond::Eq, Reg(5), 0u64, "skip"); // taken, predicted NT
        b.mov(Reg(6), probe.raw());
        b.load(Reg(7), Reg(6), 0); // speculative miss: delayed
        b.label("skip");
        b.halt();
        core.run(&b.build())
    }

    #[test]
    fn speculative_miss_leaves_no_footprint() {
        let mut core = Core::table_i();
        core.set_defense(Box::new(DelayOnMiss::new()));
        let probe = Addr::new(0x8800);
        let r = attack_shape(&mut core, probe);
        assert_eq!(r.stats.mispredicts, 1);
        assert!(!core.hierarchy().l1_contains(probe.line()));
        assert!(!core.hierarchy().l2_contains(probe.line()));
    }

    #[test]
    fn correct_path_speculative_miss_is_delayed_not_dropped() {
        let mut core = Core::table_i();
        // The naive variant: no value prediction, so the delay is
        // guaranteed.
        core.set_defense(Box::new(DelayOnMiss::naive()));
        let target = Addr::new(0x8900);
        let mut b = ProgramBuilder::new();
        b.mov(Reg(4), 0x4100);
        b.load(Reg(5), Reg(4), 0); // slow comparand, reads 0
        b.branch(Cond::Ne, Reg(5), 0u64, "skip"); // not taken: correct
        b.mov(Reg(6), target.raw());
        b.load(Reg(7), Reg(6), 0); // speculative miss
        b.rdtsc(Reg(20));
        b.label("skip");
        b.halt();
        let r = core.run(&b.build());
        // The load waited for the branch (≈120 cy) and then paid the
        // miss (~118 more): the timestamp after it reflects both.
        assert!(
            r.reg(Reg(20)) > 220,
            "delayed miss serializes: {}",
            r.reg(Reg(20))
        );
        // Exposed at commit.
        assert!(core.hierarchy().l1_contains(target.line()));
    }

    #[test]
    fn speculative_hits_are_free() {
        let mut core = Core::table_i();
        core.set_defense(Box::new(DelayOnMiss::new()));
        let target = Addr::new(0x8a00);
        // Warm architecturally.
        let mut warm = ProgramBuilder::new();
        warm.mov(Reg(1), target.raw());
        warm.load(Reg(2), Reg(1), 0);
        warm.halt();
        core.run(&warm.build());
        // Speculative hit under an unresolved branch completes fast.
        let mut b = ProgramBuilder::new();
        b.mov(Reg(4), 0x4200);
        b.load(Reg(5), Reg(4), 0); // slow comparand
        b.branch(Cond::Ne, Reg(5), 0u64, "skip"); // correct prediction
        b.mov(Reg(6), target.raw());
        b.rdtsc(Reg(20));
        b.load(Reg(7), Reg(6), 0); // speculative HIT: not delayed
        b.rdtsc(Reg(21));
        b.label("skip");
        b.halt();
        let r = core.run(&b.build());
        let t = r.reg(Reg(21)) - r.reg(Reg(20));
        assert!(t < 20, "speculative hit must not be delayed: {t}");
    }
}
