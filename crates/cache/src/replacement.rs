//! Replacement policies.
//!
//! CleanupSpec mandates **random replacement** in the protected L1 so that
//! replacement metadata itself cannot leak (Reload+Refresh-style attacks);
//! LRU is provided for ablation benches that quantify what the random
//! policy costs and leaks.

use unxpec_mem::seed::Xoshiro256pp;

/// Which replacement policy a cache level uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementKind {
    /// Uniformly random victim among the allowed ways (CleanupSpec).
    #[default]
    Random,
    /// Least-recently-used victim.
    Lru,
    /// Tree pseudo-LRU (the policy most real L1s implement; its
    /// metadata is the replacement-state side channel CleanupSpec's
    /// random policy exists to close).
    TreePlru,
}

/// A replacement policy instance bound to one cache's geometry.
///
/// Implementations are sealed to this crate; construct them through
/// [`ReplacementKind`] via [`new_policy`].
pub trait ReplacementPolicy: std::fmt::Debug + Send {
    /// Records a hit or fill touching `(set, way)`.
    fn on_access(&mut self, set: usize, way: usize);

    /// Chooses a victim way among `candidates` in `set`.
    ///
    /// `candidates` is never empty; invalid ways are pre-filtered by the
    /// cache, which always prefers an invalid way over eviction.
    fn choose_victim(&mut self, set: usize, candidates: &[usize]) -> usize;
}

/// Constructs the policy instance for `kind`.
pub fn new_policy(
    kind: ReplacementKind,
    sets: usize,
    ways: usize,
    seed: u64,
) -> Box<dyn ReplacementPolicy> {
    match kind {
        ReplacementKind::Random => Box::new(RandomPolicy::new(seed)),
        ReplacementKind::Lru => Box::new(LruPolicy::new(sets, ways)),
        ReplacementKind::TreePlru => Box::new(TreePlruPolicy::new(sets, ways)),
    }
}

/// Closed-set policy dispatch for the cache's own hot path.
///
/// `Cache::access` touches replacement state on every hit; routing that
/// through `Box<dyn ReplacementPolicy>` costs an indirect call per
/// access that the optimizer cannot see through. The enum devirtualizes
/// it: the match inlines, and the default [`RandomPolicy`]'s empty
/// `on_access` disappears entirely. The trait stays public for
/// standalone policy experiments; the simulator's caches use this.
#[derive(Debug)]
pub(crate) enum PolicyImpl {
    Random(RandomPolicy),
    Lru(LruPolicy),
    TreePlru(TreePlruPolicy),
}

impl PolicyImpl {
    pub(crate) fn new(kind: ReplacementKind, sets: usize, ways: usize, seed: u64) -> Self {
        match kind {
            ReplacementKind::Random => PolicyImpl::Random(RandomPolicy::new(seed)),
            ReplacementKind::Lru => PolicyImpl::Lru(LruPolicy::new(sets, ways)),
            ReplacementKind::TreePlru => PolicyImpl::TreePlru(TreePlruPolicy::new(sets, ways)),
        }
    }

    #[inline]
    pub(crate) fn on_access(&mut self, set: usize, way: usize) {
        match self {
            PolicyImpl::Random(_) => {}
            PolicyImpl::Lru(p) => p.on_access(set, way),
            PolicyImpl::TreePlru(p) => p.on_access(set, way),
        }
    }

    #[inline]
    pub(crate) fn choose_victim(&mut self, set: usize, candidates: &[usize]) -> usize {
        match self {
            PolicyImpl::Random(p) => p.choose_victim(set, candidates),
            PolicyImpl::Lru(p) => p.choose_victim(set, candidates),
            PolicyImpl::TreePlru(p) => p.choose_victim(set, candidates),
        }
    }
}

/// Uniformly random replacement, as CleanupSpec requires for the L1.
#[derive(Debug)]
pub struct RandomPolicy {
    rng: Xoshiro256pp,
}

impl RandomPolicy {
    /// Creates a policy with a deterministic seed (experiments must be
    /// reproducible).
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: Xoshiro256pp::new(seed),
        }
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn on_access(&mut self, _set: usize, _way: usize) {}

    fn choose_victim(&mut self, _set: usize, candidates: &[usize]) -> usize {
        candidates[self.rng.below(candidates.len() as u64) as usize]
    }
}

/// Least-recently-used replacement (ablation only).
#[derive(Debug)]
pub struct LruPolicy {
    ways: usize,
    stamp: u64,
    last_use: Vec<u64>,
}

impl LruPolicy {
    /// Creates an LRU policy for a `sets` × `ways` cache.
    pub fn new(sets: usize, ways: usize) -> Self {
        LruPolicy {
            ways,
            stamp: 0,
            last_use: vec![0; sets * ways],
        }
    }
}

impl ReplacementPolicy for LruPolicy {
    fn on_access(&mut self, set: usize, way: usize) {
        self.stamp += 1;
        self.last_use[set * self.ways + way] = self.stamp;
    }

    fn choose_victim(&mut self, set: usize, candidates: &[usize]) -> usize {
        candidates
            .iter()
            .copied()
            .min_by_key(|&w| self.last_use[set * self.ways + w])
            .unwrap_or(0)
    }
}

/// Tree pseudo-LRU: a binary tree of direction bits per set. Each
/// access flips the bits along its way's path to point *away* from it;
/// the victim is found by following the bits.
#[derive(Debug)]
pub struct TreePlruPolicy {
    ways: usize,
    /// `ways - 1` tree bits per set, heap-indexed (node 0 is the root).
    bits: Vec<bool>,
}

impl TreePlruPolicy {
    /// Creates a policy for a `sets` x `ways` cache.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not a power of two.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways.is_power_of_two(), "tree PLRU needs power-of-two ways");
        TreePlruPolicy {
            ways,
            bits: vec![false; sets * (ways - 1).max(1)],
        }
    }

    fn set_bits(&mut self, set: usize) -> &mut [bool] {
        let n = (self.ways - 1).max(1);
        &mut self.bits[set * n..(set + 1) * n]
    }
}

impl ReplacementPolicy for TreePlruPolicy {
    fn on_access(&mut self, set: usize, way: usize) {
        if self.ways == 1 {
            return;
        }
        let ways = self.ways;
        let bits = self.set_bits(set);
        // Walk from the root; at each level point the bit away from the
        // accessed way's half.
        let mut node = 0;
        let mut lo = 0;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let goes_right = way >= mid;
            bits[node] = !goes_right; // bit true = victim search goes right
            if goes_right {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
    }

    fn choose_victim(&mut self, set: usize, candidates: &[usize]) -> usize {
        if self.ways == 1 {
            return candidates[0];
        }
        let ways = self.ways;
        let bits = self.set_bits(set);
        let mut node = 0;
        let mut lo = 0;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if bits[node] {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        // NoMo may exclude the tree's pick; fall back to the first
        // allowed candidate (real NoMo hardware masks similarly).
        if candidates.contains(&lo) {
            lo
        } else {
            candidates[0]
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = LruPolicy::new(1, 4);
        for way in 0..4 {
            lru.on_access(0, way);
        }
        lru.on_access(0, 0); // refresh way 0
        assert_eq!(lru.choose_victim(0, &[0, 1, 2, 3]), 1);
    }

    #[test]
    fn lru_respects_candidate_mask() {
        let mut lru = LruPolicy::new(1, 4);
        for way in 0..4 {
            lru.on_access(0, way);
        }
        // Way 0 is oldest but not a candidate (e.g. NoMo-reserved).
        assert_eq!(lru.choose_victim(0, &[2, 3]), 2);
    }

    #[test]
    fn tree_plru_never_picks_the_most_recent_way() {
        let mut plru = TreePlruPolicy::new(1, 8);
        let all: Vec<usize> = (0..8).collect();
        for round in 0..64 {
            let touched = (round * 5) % 8;
            plru.on_access(0, touched);
            let victim = plru.choose_victim(0, &all);
            assert_ne!(victim, touched, "PLRU must not evict the MRU way");
        }
    }

    #[test]
    fn tree_plru_cycles_through_all_ways_under_round_robin() {
        let mut plru = TreePlruPolicy::new(1, 4);
        let all: Vec<usize> = (0..4).collect();
        let mut seen = [false; 4];
        for _ in 0..16 {
            let v = plru.choose_victim(0, &all);
            seen[v] = true;
            plru.on_access(0, v); // fill the victim, like a real miss
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn tree_plru_sets_are_independent() {
        let mut plru = TreePlruPolicy::new(2, 4);
        let all: Vec<usize> = (0..4).collect();
        plru.on_access(0, 3);
        // Set 1's tree is untouched: its victim is the default path.
        let v1 = plru.choose_victim(1, &all);
        assert_eq!(v1, 0);
    }

    #[test]
    fn random_stays_in_candidates() {
        let mut rnd = RandomPolicy::new(42);
        for _ in 0..100 {
            let v = rnd.choose_victim(0, &[3, 5, 6]);
            assert!([3, 5, 6].contains(&v));
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let picks = |seed| {
            let mut p = RandomPolicy::new(seed);
            (0..16)
                .map(|_| p.choose_victim(0, &[0, 1, 2, 3, 4, 5, 6, 7]))
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
    }

    #[test]
    fn random_covers_all_ways_eventually() {
        let mut rnd = RandomPolicy::new(1);
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[rnd.choose_victim(0, &[0, 1, 2, 3, 4, 5, 6, 7])] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all ways should be chosen sometimes"
        );
    }
}
