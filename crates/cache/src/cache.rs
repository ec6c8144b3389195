//! A single set-associative cache level.

use unxpec_mem::LineAddr;

use crate::ceaser::CeaserMapper;
use crate::config::CacheConfig;
use crate::effects::Victim;
use crate::error::CacheError;
use crate::line::{CoherenceState, LineMeta, SpecTag};
use crate::nomo::NomoPartition;
use crate::replacement::PolicyImpl;
use crate::stats::CacheStats;

/// How the set index is derived from a line address.
#[derive(Debug)]
enum IndexMapper {
    /// Conventional `line % sets` indexing (L1).
    Modulo,
    /// CEASER keyed permutation (L2).
    Ceaser(CeaserMapper),
}

/// Result of installing a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Set the line went into.
    pub set: usize,
    /// Way the line went into.
    pub way: usize,
    /// Line displaced, if the chosen way held one.
    pub victim: Option<Victim>,
}

/// `flags` bit: the slot holds a line.
const VALID: u8 = 1 << 2;
/// `flags` bit: the slot's line carries a speculative tag in `spec`.
const HAS_SPEC: u8 = 1 << 3;
/// `flags` bits holding the [`CoherenceState`] code.
const STATE_MASK: u8 = 0b11;

fn state_code(state: CoherenceState) -> u8 {
    match state {
        CoherenceState::Invalid => 0,
        CoherenceState::Shared => 1,
        CoherenceState::Exclusive => 2,
        CoherenceState::Modified => 3,
    }
}

fn state_of(flags: u8) -> CoherenceState {
    match flags & STATE_MASK {
        0 => CoherenceState::Invalid,
        1 => CoherenceState::Shared,
        2 => CoherenceState::Exclusive,
        _ => CoherenceState::Modified,
    }
}

/// The `tags` encoding of `line`: its raw number plus one, so that the
/// zero a fresh (zero-allocated) array holds reads as "no line". The one
/// line whose key wraps to zero, `u64::MAX`, is told apart from an empty
/// slot by the `VALID` flag (see [`Cache::probe`]).
#[inline]
fn tag_key(line: LineAddr) -> u64 {
    line.raw().wrapping_add(1)
}

/// One level of the hierarchy: tag array, replacement policy, optional
/// NoMo partition, optional CEASER indexing.
///
/// The tag array is three parallel `sets * ways` row-major arrays of
/// primitives rather than one of `Option<LineMeta>`: a set probe scans
/// 8-byte keys instead of 32-byte slots, and an empty cache is all
/// zeroes, so building one is a zeroed allocation (fresh pages need no
/// writes at all) instead of a loop writing every slot. [`LineMeta`] is
/// reassembled on the way out.
#[derive(Debug)]
pub struct Cache {
    name: &'static str,
    cfg: CacheConfig,
    /// [`tag_key`] of each slot's line; 0 for an empty slot.
    tags: Vec<u64>,
    /// Speculative epoch of each slot's line, read only under `HAS_SPEC`.
    spec: Vec<u64>,
    /// `VALID`, `HAS_SPEC` and the coherence code; 0 for an empty slot.
    flags: Vec<u8>,
    policy: PolicyImpl,
    mapper: IndexMapper,
    partition: NomoPartition,
    stats: CacheStats,
    /// Valid-line count, maintained incrementally by every slot
    /// mutation so occupancy queries never rescan the tag array.
    resident: usize,
}

impl Cache {
    /// Builds a conventionally indexed cache (L1 style).
    pub fn new(name: &'static str, cfg: CacheConfig, partition: NomoPartition, seed: u64) -> Self {
        cfg.validate();
        let policy = PolicyImpl::new(cfg.replacement, cfg.sets, cfg.ways, seed);
        let slots = cfg.sets * cfg.ways;
        Cache {
            name,
            tags: vec![0; slots],
            spec: vec![0; slots],
            flags: vec![0; slots],
            policy,
            mapper: IndexMapper::Modulo,
            partition,
            stats: CacheStats::default(),
            resident: 0,
            cfg,
        }
    }

    /// Builds a CEASER-indexed cache (L2 style).
    pub fn new_randomized(
        name: &'static str,
        cfg: CacheConfig,
        seed: u64,
        ceaser_seed: u64,
    ) -> Self {
        cfg.validate();
        let ways = cfg.ways;
        let policy = PolicyImpl::new(cfg.replacement, cfg.sets, ways, seed);
        let slots = cfg.sets * ways;
        Cache {
            name,
            tags: vec![0; slots],
            spec: vec![0; slots],
            flags: vec![0; slots],
            policy,
            mapper: IndexMapper::Ceaser(CeaserMapper::new(ceaser_seed, cfg.sets)),
            partition: NomoPartition::disabled(ways),
            stats: CacheStats::default(),
            resident: 0,
            cfg,
        }
    }

    /// The cache's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The configuration this level was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The set index `line` maps to.
    pub fn set_index(&self, line: LineAddr) -> usize {
        match &self.mapper {
            IndexMapper::Modulo => (line.raw() as usize) & (self.cfg.sets - 1),
            IndexMapper::Ceaser(m) => m.set_index(line),
        }
    }

    /// Flat index of `(set, way)`.
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.cfg.ways + way
    }

    /// The line metadata held in flat slot `i`, if any.
    fn slot_meta(&self, i: usize) -> Option<LineMeta> {
        let flags = self.flags[i];
        (flags & VALID != 0).then(|| LineMeta {
            line: LineAddr::new(self.tags[i].wrapping_sub(1)),
            state: state_of(flags),
            spec: (flags & HAS_SPEC != 0).then_some(SpecTag(self.spec[i])),
        })
    }

    /// Writes `meta` into flat slot `i`.
    fn store(&mut self, i: usize, meta: LineMeta) {
        self.tags[i] = tag_key(meta.line);
        let mut flags = VALID | state_code(meta.state);
        if let Some(tag) = meta.spec {
            self.spec[i] = tag.0;
            flags |= HAS_SPEC;
        }
        self.flags[i] = flags;
    }

    /// Empties flat slot `i` (a stale `spec` entry is never read
    /// without `HAS_SPEC`).
    fn clear_slot(&mut self, i: usize) {
        self.tags[i] = 0;
        self.flags[i] = 0;
    }

    fn is_valid(&self, i: usize) -> bool {
        self.flags[i] & VALID != 0
    }

    fn set_state(&mut self, i: usize, state: CoherenceState) {
        self.flags[i] = (self.flags[i] & !STATE_MASK) | state_code(state);
    }

    /// Finds `line` without touching replacement state or stats. The
    /// scan compares 8-byte keys only: an empty slot's key is 0, which no
    /// line's key equals except `u64::MAX`'s, so that one line takes a
    /// cold path that also checks the `VALID` flag.
    pub fn probe(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_index(line);
        let base = set * self.cfg.ways;
        let key = tag_key(line);
        let row = &self.tags[base..base + self.cfg.ways];
        let way = if key != 0 {
            row.iter().position(|&t| t == key)
        } else {
            self.probe_wrapped_key(base)
        };
        way.map(|way| (set, way))
    }

    /// [`Cache::probe`] for the line whose key is 0: the way in the row
    /// at `base` that is valid and holds key 0.
    #[cold]
    fn probe_wrapped_key(&self, base: usize) -> Option<usize> {
        (0..self.cfg.ways).position(|w| self.tags[base + w] == 0 && self.is_valid(base + w))
    }

    /// Whether `line` is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.probe(line).is_some()
    }

    /// Metadata of `line` if resident.
    pub fn meta(&self, line: LineAddr) -> Option<LineMeta> {
        self.probe(line)
            .and_then(|(s, w)| self.slot_meta(self.idx(s, w)))
    }

    /// Performs a lookup for an access: updates hit/miss stats and, on a
    /// hit, replacement state. Returns the hit `(set, way)`.
    pub fn access(&mut self, line: LineAddr) -> Option<(usize, usize)> {
        match self.probe(line) {
            Some((set, way)) => {
                self.stats.hits += 1;
                self.policy.on_access(set, way);
                Some((set, way))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Installs `meta`, choosing a victim way for `thread` under the NoMo
    /// partition. Prefers an invalid allowed way; otherwise asks the
    /// replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident (fills are only issued on
    /// misses).
    pub fn insert(&mut self, meta: LineMeta, thread: usize) -> InsertOutcome {
        assert!(
            !self.contains(meta.line),
            "{}: double fill of {}",
            self.name,
            meta.line
        );
        let set = self.set_index(meta.line);
        let allowed = self.partition.allowed_ways(thread);
        let way = match allowed
            .iter()
            .copied()
            .find(|&w| !self.is_valid(self.idx(set, w)))
        {
            Some(invalid_way) => invalid_way,
            None => self.policy.choose_victim(set, allowed),
        };
        let i = self.idx(set, way);
        let victim = self.slot_meta(i).map(|old| {
            self.stats.evictions += 1;
            if old.state.is_dirty() {
                self.stats.writebacks += 1;
            }
            Victim {
                line: old.line,
                dirty: old.state.is_dirty(),
                was_speculative: old.spec.is_some(),
            }
        });
        if victim.is_none() {
            self.resident += 1;
        }
        self.store(i, meta);
        self.policy.on_access(set, way);
        InsertOutcome { set, way, victim }
    }

    /// Re-installs `line` into an exact `(set, way)` — the restoration
    /// step of an Undo rollback, which puts the evicted line back into
    /// the way its evictor is being removed from.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied by a different valid line or the
    /// coordinates are out of range.
    pub fn insert_at(&mut self, set: usize, way: usize, meta: LineMeta) {
        assert!(
            set < self.cfg.sets && way < self.cfg.ways,
            "slot out of range"
        );
        let i = self.idx(set, way);
        match self.slot_meta(i) {
            Some(existing) => assert_eq!(
                existing.line, meta.line,
                "{}: restoring over a different resident line",
                self.name
            ),
            None => self.resident += 1,
        }
        self.stats.restores += 1;
        self.store(i, meta);
        self.policy.on_access(set, way);
    }

    /// Invalidates `line`. Returns the vacated `(set, way, meta)`.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<(usize, usize, LineMeta)> {
        let (set, way) = self.probe(line)?;
        let i = self.idx(set, way);
        let meta = self.slot_meta(i)?;
        self.clear_slot(i);
        self.resident -= 1;
        self.stats.invalidations += 1;
        if meta.state.is_dirty() {
            self.stats.writebacks += 1;
        }
        Some((set, way, meta))
    }

    /// Marks a resident line dirty (a committed store hit).
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        match self.probe(line) {
            Some((set, way)) => {
                self.set_state(self.idx(set, way), CoherenceState::Modified);
                true
            }
            None => false,
        }
    }

    /// Downgrades `line` from M/E to Shared (a remote reader obtained a
    /// copy). Returns the previous state if the line was resident.
    pub fn downgrade(&mut self, line: LineAddr) -> Option<CoherenceState> {
        let (set, way) = self.probe(line)?;
        let i = self.idx(set, way);
        let prev = state_of(self.flags[i]);
        if prev.is_valid() {
            self.set_state(i, CoherenceState::Shared);
        }
        Some(prev)
    }

    /// Clears the speculative tag of `line` (its epoch resolved correct).
    pub fn commit_spec(&mut self, line: LineAddr) {
        if let Some((set, way)) = self.probe(line) {
            let i = self.idx(set, way);
            self.flags[i] &= !HAS_SPEC;
        }
    }

    /// Whether `line` is resident and still tagged speculative.
    pub fn is_speculative(&self, line: LineAddr) -> bool {
        self.meta(line).map(|m| m.spec.is_some()).unwrap_or(false)
    }

    /// Speculative tag of `line` if resident and tagged.
    pub fn spec_tag(&self, line: LineAddr) -> Option<SpecTag> {
        self.meta(line).and_then(|m| m.spec)
    }

    /// Counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Number of valid lines currently resident. O(1): the count is
    /// maintained incrementally by insert/invalidate/flush rather than
    /// rescanning the sets×ways tag array.
    pub fn resident_count(&self) -> usize {
        debug_assert_eq!(
            self.resident,
            self.recount(),
            "{}: occupancy counter drifted from the tag array",
            self.name
        );
        self.resident
    }

    /// Recounts the tag array and checks it against the incremental
    /// occupancy counter — the sanitizer's ground-truth cross-check,
    /// available in release builds (unlike the `debug_assert` in
    /// [`Cache::resident_count`]).
    ///
    /// # Errors
    ///
    /// Returns `(counter, recount)` when the incremental counter has
    /// drifted from the tag array.
    pub fn verify_occupancy(&self) -> Result<(), (usize, usize)> {
        let recount = self.recount();
        if self.resident == recount {
            Ok(())
        } else {
            Err((self.resident, recount))
        }
    }

    /// Valid slots in the tag array, counted afresh.
    fn recount(&self) -> usize {
        self.flags.iter().filter(|&&f| f & VALID != 0).count()
    }

    /// Corrupts the incremental occupancy counter by `delta` without
    /// touching the tag array. Exists solely so mutation tests can
    /// prove the sanitizer catches counter drift; never call it from
    /// simulation code.
    #[doc(hidden)]
    pub fn corrupt_resident_counter_for_tests(&mut self, delta: isize) {
        self.resident = self.resident.saturating_add_signed(delta);
    }

    /// Phantom-touches `(set, way)` in the replacement policy — the
    /// fault injector's replacement-state perturbation. Out-of-range
    /// coordinates are ignored. Tag state, stats, and occupancy are
    /// untouched; only future victim choices shift.
    pub fn perturb_replacement(&mut self, set: usize, way: usize) {
        if set < self.cfg.sets && way < self.cfg.ways {
            self.policy.on_access(set, way);
        }
    }

    /// The line currently held in `(set, way)`, if any.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn slot_line(&self, set: usize, way: usize) -> Option<LineAddr> {
        assert!(
            set < self.cfg.sets && way < self.cfg.ways,
            "slot out of range"
        );
        self.slot_meta(self.idx(set, way)).map(|m| m.line)
    }

    /// The slots of `set` in way order, without copying the row.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn set_lines(&self, set: usize) -> impl Iterator<Item = Option<LineMeta>> + '_ {
        assert!(set < self.cfg.sets, "set out of range");
        let base = set * self.cfg.ways;
        (base..base + self.cfg.ways).map(move |i| self.slot_meta(i))
    }

    /// Copies the slots of `set` into `buf` (cleared first), so callers
    /// that need an owned snapshot can reuse one scratch buffer across
    /// calls instead of allocating a fresh `Vec` per set.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn read_set_into(&self, set: usize, buf: &mut Vec<Option<LineMeta>>) {
        assert!(set < self.cfg.sets, "set out of range");
        buf.clear();
        buf.extend(self.set_lines(set));
    }

    /// Drops every resident line (used by CEASER remap, which must migrate
    /// or flush residents when the key changes).
    pub fn flush_all(&mut self) {
        self.stats.invalidations += self.recount() as u64;
        self.tags.fill(0);
        self.flags.fill(0);
        self.resident = 0;
    }

    /// Re-keys the CEASER mapping and flushes residents.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::RemapUnsupported`] (leaving contents and
    /// mapping untouched) if this cache is not CEASER-indexed; a remap
    /// of a modulo-indexed cache is a configuration bug the caller must
    /// surface, not a reason to take down a sweep worker.
    pub fn remap(&mut self, seed: u64) -> Result<(), CacheError> {
        match &mut self.mapper {
            IndexMapper::Ceaser(m) => m.remap(seed),
            IndexMapper::Modulo => return Err(CacheError::RemapUnsupported { cache: self.name }),
        }
        self.flush_all();
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::replacement::ReplacementKind;

    fn small_cache() -> Cache {
        Cache::new(
            "t",
            CacheConfig {
                sets: 4,
                ways: 2,
                hit_latency: 1,
                replacement: ReplacementKind::Lru,
            },
            NomoPartition::disabled(2),
            0,
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        let line = LineAddr::new(8);
        assert!(c.access(line).is_none());
        c.insert(LineMeta::clean(line), 0);
        assert!(c.access(line).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn insert_prefers_invalid_way() {
        let mut c = small_cache();
        let a = LineAddr::new(0);
        let b = LineAddr::new(4); // same set (4 sets): 0 % 4 == 4 % 4
        let o1 = c.insert(LineMeta::clean(a), 0);
        assert_eq!(o1.victim, None);
        let o2 = c.insert(LineMeta::clean(b), 0);
        assert_eq!(o2.victim, None);
        assert_ne!(o1.way, o2.way);
    }

    #[test]
    fn conflict_evicts_lru_victim() {
        let mut c = small_cache();
        let lines = [LineAddr::new(0), LineAddr::new(4), LineAddr::new(8)];
        c.insert(LineMeta::clean(lines[0]), 0);
        c.insert(LineMeta::clean(lines[1]), 0);
        c.access(lines[0]); // make lines[1] the LRU
        let out = c.insert(LineMeta::clean(lines[2]), 0);
        assert_eq!(out.victim.unwrap().line, lines[1]);
        assert!(c.contains(lines[0]));
        assert!(!c.contains(lines[1]));
    }

    #[test]
    fn restore_roundtrip_is_exact() {
        let mut c = small_cache();
        let original = LineAddr::new(0);
        let transient = LineAddr::new(4);
        c.insert(LineMeta::clean(original), 0);
        c.insert(LineMeta::clean(LineAddr::new(8)), 0); // fill the set
                                                        // Force an eviction of `original` by inserting into its way.
        c.access(LineAddr::new(8));
        let out = c.insert(LineMeta::speculative(transient, SpecTag(1)), 0);
        let victim = out.victim.expect("set was full");
        // Rollback: invalidate transient line, restore victim into the
        // vacated way.
        let (set, way, meta) = c.invalidate(transient).unwrap();
        assert!(meta.spec.is_some());
        c.insert_at(set, way, LineMeta::clean(victim.line));
        assert!(c.contains(original) || c.contains(victim.line));
        assert!(!c.contains(transient));
        assert_eq!(c.stats().restores, 1);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn nomo_partition_limits_fill_ways() {
        let cfg = CacheConfig {
            sets: 2,
            ways: 4,
            hit_latency: 1,
            replacement: ReplacementKind::Lru,
        };
        let mut c = Cache::new("nomo", cfg, NomoPartition::new(4, 1, 2), 0);
        // Thread 1 may only use way 1 plus shared ways 2..4.
        for i in 0..8 {
            c.insert(LineMeta::clean(LineAddr::new(i * 2)), 1);
        }
        // Way 0 of both sets must still be empty.
        assert!(c.slot_line(0, 0).is_none());
        assert!(c.slot_line(1, 0).is_none());
    }

    #[test]
    fn mark_dirty_then_eviction_counts_writeback() {
        let mut c = small_cache();
        let line = LineAddr::new(0);
        c.insert(LineMeta::clean(line), 0);
        assert!(c.mark_dirty(line));
        c.insert(LineMeta::clean(LineAddr::new(4)), 0);
        c.insert(LineMeta::clean(LineAddr::new(8)), 0); // evicts something
        let evicted_dirty = c.stats().writebacks;
        c.invalidate(line);
        assert!(evicted_dirty > 0 || c.stats().writebacks > 0);
    }

    #[test]
    fn spec_tag_lifecycle() {
        let mut c = small_cache();
        let line = LineAddr::new(12);
        c.insert(LineMeta::speculative(line, SpecTag(9)), 0);
        assert!(c.is_speculative(line));
        assert_eq!(c.spec_tag(line), Some(SpecTag(9)));
        c.commit_spec(line);
        assert!(!c.is_speculative(line));
    }

    #[test]
    #[should_panic(expected = "double fill")]
    fn double_fill_panics() {
        let mut c = small_cache();
        c.insert(LineMeta::clean(LineAddr::new(1)), 0);
        c.insert(LineMeta::clean(LineAddr::new(1)), 0);
    }

    #[test]
    fn randomized_cache_uses_ceaser_index() {
        let cfg = CacheConfig {
            sets: 64,
            ways: 2,
            hit_latency: 1,
            replacement: ReplacementKind::Random,
        };
        let c = Cache::new_randomized("l2", cfg.clone(), 0, 0x1234);
        let plain = Cache::new("plain", cfg, NomoPartition::disabled(2), 0);
        let differs =
            (0..128u64).any(|i| c.set_index(LineAddr::new(i)) != plain.set_index(LineAddr::new(i)));
        assert!(differs, "CEASER indexing should differ from modulo");
    }

    #[test]
    fn remap_flushes_contents() {
        let cfg = CacheConfig {
            sets: 16,
            ways: 2,
            hit_latency: 1,
            replacement: ReplacementKind::Random,
        };
        let mut c = Cache::new_randomized("l2", cfg, 0, 1);
        c.insert(LineMeta::clean(LineAddr::new(5)), 0);
        c.remap(99).expect("randomized cache remaps");
        assert_eq!(c.resident_count(), 0);
    }

    #[test]
    fn remap_on_modulo_cache_is_a_typed_error() {
        let mut c = small_cache();
        let line = LineAddr::new(3);
        c.insert(LineMeta::clean(line), 0);
        let err = c.remap(7).expect_err("modulo cache must refuse");
        assert_eq!(err, CacheError::RemapUnsupported { cache: "t" });
        // The refusal leaves contents untouched.
        assert!(c.contains(line));
        assert_eq!(c.resident_count(), 1);
    }

    #[test]
    fn occupancy_counter_tracks_every_mutation() {
        let mut c = small_cache();
        assert_eq!(c.resident_count(), 0);
        // Fill beyond capacity of one set: evictions keep the count flat.
        for i in 0..3 {
            c.insert(LineMeta::clean(LineAddr::new(i * 4)), 0);
        }
        assert_eq!(c.resident_count(), 2);
        let (set, way, _) = c.invalidate(LineAddr::new(8)).expect("resident");
        assert_eq!(c.resident_count(), 1);
        // Restore into the vacated slot counts back up; restoring over
        // the same line again does not double-count.
        c.insert_at(set, way, LineMeta::clean(LineAddr::new(8)));
        assert_eq!(c.resident_count(), 2);
        c.insert_at(set, way, LineMeta::clean(LineAddr::new(8)));
        assert_eq!(c.resident_count(), 2);
        c.flush_all();
        assert_eq!(c.resident_count(), 0);
    }

    #[test]
    fn max_line_does_not_match_an_empty_slot() {
        // `u64::MAX`'s key wraps to 0, the empty-slot marker; a cache of
        // empty slots must still report it absent.
        let mut c = small_cache();
        let max = LineAddr::new(u64::MAX);
        assert_eq!(c.probe(max), None);
        assert_eq!(c.meta(max), None);
        assert!(c.access(max).is_none());
        assert!(!c.mark_dirty(max));
        assert_eq!(c.downgrade(max), None);
        assert_eq!(c.invalidate(max), None);
        // Another line in its set leaves it absent too.
        c.insert(LineMeta::clean(LineAddr::new(3)), 0);
        assert_eq!(c.probe(max), None);
        assert_eq!(c.resident_count(), 1);
    }

    #[test]
    fn max_line_survives_insert() {
        let mut c = small_cache();
        let max = LineAddr::new(u64::MAX);
        let meta = LineMeta::speculative(max, SpecTag(4));
        let out = c.insert(meta, 0);
        assert_eq!(out.victim, None);
        assert_eq!(c.probe(max), Some((out.set, out.way)));
        assert_eq!(c.meta(max), Some(meta));
        assert_eq!(c.slot_line(out.set, out.way), Some(max));
        assert_eq!(c.resident_count(), 1);
        assert_eq!(c.verify_occupancy(), Ok(()));
        // The slot is taken: the next fill of the set goes to the other
        // way, and a third one evicts one of the two.
        let other = c.insert(LineMeta::clean(LineAddr::new(7)), 0);
        assert_ne!(other.way, out.way);
        c.commit_spec(max);
        assert!(c.mark_dirty(max));
        assert_eq!(
            c.meta(max).map(|m| (m.state, m.spec)),
            Some((CoherenceState::Modified, None))
        );
        let (set, way, gone) = c.invalidate(max).expect("resident");
        assert_eq!((set, way, gone.line), (out.set, out.way, max));
        assert_eq!(c.probe(max), None);
        assert_eq!(c.resident_count(), 1);
    }

    #[test]
    fn set_lines_matches_slot_view() {
        let mut c = small_cache();
        c.insert(LineMeta::clean(LineAddr::new(0)), 0);
        c.insert(LineMeta::clean(LineAddr::new(4)), 0);
        let row: Vec<Option<LineAddr>> = c.set_lines(0).map(|m| m.map(|m| m.line)).collect();
        assert_eq!(row.len(), 2);
        for (way, line) in row.iter().enumerate() {
            assert_eq!(*line, c.slot_line(0, way));
        }
        let mut scratch = vec![None; 99];
        c.read_set_into(0, &mut scratch);
        assert_eq!(scratch.len(), 2);
        assert_eq!(scratch[0].map(|m| m.line), row[0]);
    }
}
