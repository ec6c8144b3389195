//! Microarchitectural side effects reported by cache accesses.
//!
//! The unXpec channel exists because the *amount* of state change caused
//! by transient loads is visible through rollback time. The hierarchy
//! therefore reports every fill with enough precision — level, set, way,
//! displaced victim — for an Undo defense to (a) price the rollback and
//! (b) actually revert the state.

use unxpec_mem::LineAddr;

use crate::Cycle;

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Hit in the L1 data cache.
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed both levels, serviced from memory.
    Memory,
    /// Merged into an already-inflight MSHR entry for the same line.
    MshrMerge,
}

impl HitLevel {
    /// Whether the access changed L1 state (installed a line).
    pub fn filled_l1(self) -> bool {
        matches!(self, HitLevel::L2 | HitLevel::Memory)
    }
}

/// A line displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The displaced line.
    pub line: LineAddr,
    /// Whether it was dirty (its writeback is part of rollback cost).
    pub dirty: bool,
    /// Whether the victim itself was still a speculative install.
    pub was_speculative: bool,
}

/// One state change performed by an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// A line was installed into L1 at `(set, way)`, displacing `victim`
    /// if `Some`.
    FillL1 {
        /// Installed line.
        line: LineAddr,
        /// Set index within L1.
        set: usize,
        /// Way the line occupies.
        way: usize,
        /// Displaced line, if the way was valid.
        victim: Option<Victim>,
    },
    /// A line was installed into L2 at `(set, way)`.
    FillL2 {
        /// Installed line.
        line: LineAddr,
        /// Set index within L2 (post-CEASER).
        set: usize,
        /// Way the line occupies.
        way: usize,
        /// Displaced line, if the way was valid.
        victim: Option<Victim>,
    },
}

impl Effect {
    /// The line this effect installed.
    pub fn installed_line(&self) -> LineAddr {
        match *self {
            Effect::FillL1 { line, .. } | Effect::FillL2 { line, .. } => line,
        }
    }

    /// Whether this is an L1 fill.
    pub fn is_l1(&self) -> bool {
        matches!(self, Effect::FillL1 { .. })
    }

    /// The displaced victim, if any.
    pub fn victim(&self) -> Option<Victim> {
        match *self {
            Effect::FillL1 { victim, .. } | Effect::FillL2 { victim, .. } => victim,
        }
    }
}

/// What a cross-core (or SMT-sibling) read request observed.
///
/// The requester can time the response — a fast answer reveals the line
/// was resident, which is exactly the probe CleanupSpec defeats with
/// dummy misses for speculatively installed lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExternalProbe {
    /// Response latency seen by the remote requester.
    pub latency: Cycle,
    /// Whether the requester can tell the line was supplied from this
    /// core's caches.
    pub observed_hit: bool,
    /// Previous coherence state if the probe downgraded the line.
    pub downgraded_from: Option<crate::line::CoherenceState>,
}

/// The fill effects of one access, inline: at most an L2 fill, then an
/// L1 fill, so a miss reports them without touching the heap. Derefs
/// to `&[Effect]`. Slots past `len` always hold the same placeholder, so
/// the derived equality compares only what was pushed.
///
/// ```
/// use unxpec_cache::{CacheHierarchy, HierarchyConfig};
/// use unxpec_mem::LineAddr;
///
/// let mut hier = CacheHierarchy::new(HierarchyConfig::table_i(), 1);
/// let out = hier.access_data(LineAddr::new(7), 0, None);
/// // A cold miss fills the L2, then the L1.
/// assert_eq!(out.effects.len(), 2);
/// assert!(!out.effects[0].is_l1() && out.effects[1].is_l1());
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Effects {
    slots: [Effect; 2],
    len: u8,
}

impl Effects {
    /// Fills slots not yet pushed; never visible through the slice.
    const VACANT: Effect = Effect::FillL1 {
        line: LineAddr::new(0),
        set: 0,
        way: 0,
        victim: None,
    };

    /// No effects (a hit, a merge, or a fill-free access).
    pub const fn new() -> Self {
        Effects {
            slots: [Self::VACANT; 2],
            len: 0,
        }
    }

    /// Appends `effect`. The hierarchy pushes at most two per access
    /// (L2 fill, then L1 fill); a third is dropped, and flagged in
    /// debug builds.
    pub(crate) fn push(&mut self, effect: Effect) {
        debug_assert!(
            (self.len as usize) < self.slots.len(),
            "more than two fill effects"
        );
        if let Some(slot) = self.slots.get_mut(self.len as usize) {
            *slot = effect;
            self.len += 1;
        }
    }
}

impl Default for Effects {
    fn default() -> Self {
        Effects::new()
    }
}

impl std::ops::Deref for Effects {
    type Target = [Effect];

    fn deref(&self) -> &[Effect] {
        &self.slots[..self.len as usize]
    }
}

impl std::fmt::Debug for Effects {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl IntoIterator for Effects {
    type Item = Effect;
    type IntoIter = std::iter::Take<std::array::IntoIter<Effect, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().take(self.len as usize)
    }
}

/// Result of a data access against the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle the access was issued.
    pub issue_cycle: Cycle,
    /// Cycle the data is available.
    pub complete_cycle: Cycle,
    /// Which level serviced the access.
    pub level: HitLevel,
    /// State changes made on the fill path.
    pub effects: Effects,
}

impl AccessOutcome {
    /// Issue-to-data latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.complete_cycle - self.issue_cycle
    }

    /// Whether the access was an L1 hit (left no footprint).
    pub fn is_l1_hit(&self) -> bool {
        self.level == HitLevel::L1
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn hit_level_fill_predicate() {
        assert!(!HitLevel::L1.filled_l1());
        assert!(HitLevel::L2.filled_l1());
        assert!(HitLevel::Memory.filled_l1());
        assert!(!HitLevel::MshrMerge.filled_l1());
    }

    #[test]
    fn effect_accessors() {
        let e = Effect::FillL1 {
            line: LineAddr::new(9),
            set: 1,
            way: 2,
            victim: Some(Victim {
                line: LineAddr::new(4),
                dirty: false,
                was_speculative: false,
            }),
        };
        assert!(e.is_l1());
        assert_eq!(e.installed_line(), LineAddr::new(9));
        assert_eq!(e.victim().unwrap().line, LineAddr::new(4));
    }

    #[test]
    fn outcome_latency() {
        let o = AccessOutcome {
            issue_cycle: 10,
            complete_cycle: 14,
            level: HitLevel::L1,
            effects: Effects::new(),
        };
        assert_eq!(o.latency(), 4);
        assert!(o.is_l1_hit());
    }

    #[test]
    fn effects_hold_two_fills_in_push_order() {
        let fill = |line, l1| {
            let line = LineAddr::new(line);
            if l1 {
                Effect::FillL1 {
                    line,
                    set: 1,
                    way: 0,
                    victim: None,
                }
            } else {
                Effect::FillL2 {
                    line,
                    set: 1,
                    way: 0,
                    victim: None,
                }
            }
        };
        let mut e = Effects::new();
        assert!(e.is_empty());
        assert_eq!(e, Effects::default());
        e.push(fill(3, false));
        e.push(fill(3, true));
        assert_eq!(&*e, &[fill(3, false), fill(3, true)]);
        assert_eq!(e.into_iter().collect::<Vec<_>>(), e.to_vec());
        let mut one = Effects::new();
        one.push(fill(3, false));
        assert_ne!(e, one, "only pushed slots compare");
        assert_eq!(format!("{one:?}"), format!("{:?}", [fill(3, false)]));
    }
}
