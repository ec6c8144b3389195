//! Fuzzy (dummy-operation) cleanup — the paper's future-work mitigation.

use unxpec_cache::{CacheHierarchy, Cycle};
use unxpec_cpu::{Defense, SquashInfo};
use unxpec_mem::seed::Xoshiro256pp;

use crate::cleanupspec::{CleanupSpec, CleanupStats};

/// CleanupSpec plus random dummy cleanup delay.
///
/// The paper's conclusion sketches this lighter-weight alternative to
/// constant-time rollback: instead of always stalling the worst-case
/// time, inject *random* dummy cleanup operations so the observed
/// rollback time no longer cleanly encodes the amount of real work.
/// Expected overhead is `dummy_span / 2` cycles per squash instead of
/// the full constant — cheaper, but the channel is only blurred, not
/// closed: with enough samples per bit an attacker can still average
/// the noise away (the attack crate's tests demonstrate both halves).
/// # Examples
///
/// ```
/// use unxpec_defense::FuzzyCleanup;
///
/// let fuzzy = FuzzyCleanup::new(40, 7);
/// assert_eq!(fuzzy.dummy_span(), 40);
/// assert_eq!(fuzzy.injected_cycles(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FuzzyCleanup {
    inner: CleanupSpec,
    dummy_span: Cycle,
    rng: Xoshiro256pp,
    injected: Cycle,
}

impl FuzzyCleanup {
    /// Wraps a default CleanupSpec, adding a uniform `0..=dummy_span`
    /// dummy delay per squash, drawn from a seeded RNG.
    pub fn new(dummy_span: Cycle, seed: u64) -> Self {
        FuzzyCleanup {
            inner: CleanupSpec::new(),
            dummy_span,
            rng: Xoshiro256pp::new(seed),
            injected: 0,
        }
    }

    /// The dummy-delay span.
    pub fn dummy_span(&self) -> Cycle {
        self.dummy_span
    }

    /// Total dummy cycles injected so far.
    pub fn injected_cycles(&self) -> Cycle {
        self.injected
    }

    /// Inner rollback counters.
    pub fn cleanup_stats(&self) -> CleanupStats {
        self.inner.stats()
    }
}

impl Defense for FuzzyCleanup {
    fn name(&self) -> &'static str {
        "fuzzy-cleanup"
    }

    fn on_squash(&mut self, hier: &mut CacheHierarchy, info: &SquashInfo<'_>) -> Cycle {
        let real_end = self.inner.on_squash(hier, info);
        let dummy = if self.dummy_span == 0 {
            0
        } else {
            self.rng.up_to(self.dummy_span)
        };
        self.injected += dummy;
        real_end + dummy
    }

    fn record_metrics(&self, reg: &mut unxpec_telemetry::MetricsRegistry) {
        self.inner.record_metrics(reg);
        reg.set("fuzzy.dummy_span", self.dummy_span);
        reg.set("fuzzy.injected_cycles", self.injected);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use unxpec_cache::{HierarchyConfig, SpecTag};

    fn squash_info(resolve: Cycle) -> SquashInfo<'static> {
        SquashInfo {
            resolve_cycle: resolve,
            branch_pc: 0,
            epoch: SpecTag(1),
            transient_effects: &[],
            squashed_loads: 0,
            squashed_insts: 1,
        }
    }

    #[test]
    fn dummy_delay_varies_but_stays_in_span() {
        let mut h = CacheHierarchy::new(HierarchyConfig::table_i(), 1);
        let mut d = FuzzyCleanup::new(40, 7);
        let mut stalls = Vec::new();
        for i in 0..50 {
            let end = d.on_squash(&mut h, &squash_info(i * 1000));
            stalls.push(end - i * 1000);
        }
        let min = *stalls.iter().min().unwrap();
        let max = *stalls.iter().max().unwrap();
        assert!(max > min, "delay must vary");
        assert!(max - min <= 40, "but bounded by the span");
    }

    #[test]
    fn zero_span_degenerates_to_cleanupspec() {
        let mut h = CacheHierarchy::new(HierarchyConfig::table_i(), 1);
        let mut d = FuzzyCleanup::new(0, 7);
        let end = d.on_squash(&mut h, &squash_info(1000));
        let mut h2 = CacheHierarchy::new(HierarchyConfig::table_i(), 1);
        let mut plain = CleanupSpec::new();
        let plain_end = unxpec_cpu::Defense::on_squash(&mut plain, &mut h2, &squash_info(1000));
        assert_eq!(end, plain_end);
        assert_eq!(d.injected_cycles(), 0);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let run = |seed| {
            let mut h = CacheHierarchy::new(HierarchyConfig::table_i(), 1);
            let mut d = FuzzyCleanup::new(30, seed);
            (0..20)
                .map(|i| d.on_squash(&mut h, &squash_info(i * 500)) - i * 500)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
