//! Cache storage ≡ the plain slot layout: `Cache` keeps its tag array as
//! parallel primitive arrays (keys, speculative epochs, flags). Driven by
//! the same random operation sequence, it must behave exactly like a
//! reference model that stores one `Option<LineMeta>` per slot and takes
//! its victims from the same replacement policy — every query, every
//! victim and every counter, after every step.

use unxpec::cache::{
    new_policy, Cache, CacheConfig, CacheError, CacheStats, CeaserMapper, CoherenceState,
    InsertOutcome, LineMeta, NomoPartition, ReplacementKind, ReplacementPolicy, SpecTag, Victim,
};
use unxpec::mem::seed::splitmix64;
use unxpec::mem::LineAddr;

/// The slot-per-`Option<LineMeta>` cache the differential test trusts.
struct RefCache {
    name: &'static str,
    sets: usize,
    ways: usize,
    slots: Vec<Option<LineMeta>>,
    policy: Box<dyn ReplacementPolicy>,
    mapper: Option<CeaserMapper>,
    partition: NomoPartition,
    stats: CacheStats,
}

impl RefCache {
    fn new(
        name: &'static str,
        cfg: &CacheConfig,
        partition: NomoPartition,
        seed: u64,
        ceaser_seed: Option<u64>,
    ) -> Self {
        RefCache {
            name,
            sets: cfg.sets,
            ways: cfg.ways,
            slots: vec![None; cfg.sets * cfg.ways],
            policy: new_policy(cfg.replacement, cfg.sets, cfg.ways, seed),
            mapper: ceaser_seed.map(|s| CeaserMapper::new(s, cfg.sets)),
            partition,
            stats: CacheStats::default(),
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        match &self.mapper {
            None => (line.raw() as usize) & (self.sets - 1),
            Some(m) => m.set_index(line),
        }
    }

    fn probe(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_index(line);
        (0..self.ways)
            .position(|w| matches!(self.slots[set * self.ways + w], Some(m) if m.line == line))
            .map(|way| (set, way))
    }

    fn meta(&self, line: LineAddr) -> Option<LineMeta> {
        self.probe(line)
            .and_then(|(s, w)| self.slots[s * self.ways + w])
    }

    fn access(&mut self, line: LineAddr) -> Option<(usize, usize)> {
        let hit = self.probe(line);
        match hit {
            Some((s, w)) => {
                self.stats.hits += 1;
                self.policy.on_access(s, w);
            }
            None => self.stats.misses += 1,
        }
        hit
    }

    fn insert(&mut self, meta: LineMeta, thread: usize) -> InsertOutcome {
        assert!(self.probe(meta.line).is_none(), "double fill");
        let set = self.set_index(meta.line);
        let allowed = self.partition.allowed_ways(thread).to_vec();
        let way = match allowed
            .iter()
            .copied()
            .find(|&w| self.slots[set * self.ways + w].is_none())
        {
            Some(w) => w,
            None => self.policy.choose_victim(set, &allowed),
        };
        let victim = self.slots[set * self.ways + way].map(|old| {
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
        self.slots[set * self.ways + way] = Some(meta);
        self.policy.on_access(set, way);
        InsertOutcome { set, way, victim }
    }

    fn insert_at(&mut self, set: usize, way: usize, meta: LineMeta) {
        if let Some(existing) = self.slots[set * self.ways + way] {
            assert_eq!(existing.line, meta.line, "restoring over a different line");
        }
        self.stats.restores += 1;
        self.slots[set * self.ways + way] = Some(meta);
        self.policy.on_access(set, way);
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<(usize, usize, LineMeta)> {
        let (set, way) = self.probe(line)?;
        let meta = self.slots[set * self.ways + way].take()?;
        self.stats.invalidations += 1;
        if meta.state.is_dirty() {
            self.stats.writebacks += 1;
        }
        Some((set, way, meta))
    }

    fn slot_mut(&mut self, line: LineAddr) -> Option<&mut LineMeta> {
        let (set, way) = self.probe(line)?;
        self.slots[set * self.ways + way].as_mut()
    }

    fn mark_dirty(&mut self, line: LineAddr) -> bool {
        match self.slot_mut(line) {
            Some(meta) => {
                meta.state = CoherenceState::Modified;
                true
            }
            None => false,
        }
    }

    fn downgrade(&mut self, line: LineAddr) -> Option<CoherenceState> {
        let meta = self.slot_mut(line)?;
        let prev = meta.state;
        if prev.is_valid() {
            meta.state = CoherenceState::Shared;
        }
        Some(prev)
    }

    fn commit_spec(&mut self, line: LineAddr) {
        if let Some(meta) = self.slot_mut(line) {
            meta.commit();
        }
    }

    fn flush_all(&mut self) {
        for slot in &mut self.slots {
            if slot.take().is_some() {
                self.stats.invalidations += 1;
            }
        }
    }

    fn remap(&mut self, seed: u64) -> Result<(), CacheError> {
        match &mut self.mapper {
            Some(m) => m.remap(seed),
            None => return Err(CacheError::RemapUnsupported { cache: self.name }),
        }
        self.flush_all();
        Ok(())
    }
}

/// A splitmix64 counter stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Lines the sequences draw from: a handful per set, plus the extreme
/// line numbers (`u64::MAX`'s key wraps to the empty-slot marker).
fn line_pool(sets: usize) -> Vec<LineAddr> {
    let mut pool: Vec<LineAddr> = (0..(sets * 5) as u64).map(LineAddr::new).collect();
    pool.extend([0, u64::MAX, u64::MAX - 1, u64::MAX - 8, 1 << 63].map(LineAddr::new));
    pool
}

fn random_meta(line: LineAddr, rng: &mut Stream) -> LineMeta {
    let state = match rng.below(4) {
        0 => CoherenceState::Invalid,
        1 => CoherenceState::Shared,
        2 => CoherenceState::Exclusive,
        _ => CoherenceState::Modified,
    };
    // Spec epochs include 0 and u64::MAX, the edges of the encoding.
    let spec = match rng.below(4) {
        0 => Some(SpecTag(0)),
        1 => Some(SpecTag(u64::MAX)),
        2 => Some(SpecTag(rng.next() % 1000)),
        _ => None,
    };
    LineMeta { line, state, spec }
}

/// Every observable of `real` against `model`.
fn check(real: &Cache, model: &RefCache, pool: &[LineAddr], step: usize, op: &str) {
    let ctx = |what: &str| format!("step {step} ({op}): {what}");
    for &line in pool {
        assert_eq!(real.meta(line), model.meta(line), "{}", ctx("meta"));
        assert_eq!(real.probe(line), model.probe(line), "{}", ctx("probe"));
        assert_eq!(
            real.spec_tag(line),
            model.meta(line).and_then(|m| m.spec),
            "{}",
            ctx("spec_tag")
        );
    }
    let mut scratch = Vec::new();
    for set in 0..model.sets {
        let row: Vec<Option<LineMeta>> = real.set_lines(set).collect();
        let want = &model.slots[set * model.ways..(set + 1) * model.ways];
        assert_eq!(row, want, "{}", ctx("set_lines"));
        real.read_set_into(set, &mut scratch);
        assert_eq!(scratch, want, "{}", ctx("read_set_into"));
        for (way, slot) in want.iter().enumerate() {
            assert_eq!(
                real.slot_line(set, way),
                slot.map(|m| m.line),
                "{}",
                ctx("slot_line")
            );
        }
    }
    let resident = model.slots.iter().filter(|s| s.is_some()).count();
    assert_eq!(real.resident_count(), resident, "{}", ctx("resident_count"));
    assert_eq!(
        real.verify_occupancy(),
        Ok(()),
        "{}",
        ctx("verify_occupancy")
    );
    assert_eq!(real.stats(), &model.stats, "{}", ctx("stats"));
}

/// Runs `steps` random operations on both caches, checking after each.
fn drive(mut real: Cache, mut model: RefCache, threads: usize, seed: u64, steps: usize) {
    let pool = line_pool(model.sets);
    let mut rng = Stream(seed);
    check(&real, &model, &pool, 0, "initial");
    for step in 1..=steps {
        let line = pool[rng.below(pool.len())];
        let op = match rng.below(100) {
            0..=29 => {
                if model.probe(line).is_none() {
                    let meta = random_meta(line, &mut rng);
                    let thread = rng.below(threads);
                    assert_eq!(
                        real.insert(meta, thread),
                        model.insert(meta, thread),
                        "step {step}: insert victim"
                    );
                    "insert"
                } else {
                    assert_eq!(real.access(line), model.access(line));
                    "access (hit)"
                }
            }
            30..=39 => {
                // A rollback restore: back into an empty way of the
                // line's own set, or over itself with fresh metadata.
                let meta = random_meta(line, &mut rng);
                match model.probe(line) {
                    Some((set, way)) => {
                        real.insert_at(set, way, meta);
                        model.insert_at(set, way, meta);
                        "insert_at (same line)"
                    }
                    None => {
                        let set = model.set_index(line);
                        let way = rng.below(model.ways);
                        if model.slots[set * model.ways + way].is_none() {
                            real.insert_at(set, way, meta);
                            model.insert_at(set, way, meta);
                            "insert_at (empty way)"
                        } else {
                            "insert_at (skipped)"
                        }
                    }
                }
            }
            40..=49 => {
                assert_eq!(real.access(line), model.access(line));
                "access"
            }
            50..=61 => {
                assert_eq!(real.invalidate(line), model.invalidate(line));
                "invalidate"
            }
            62..=70 => {
                assert_eq!(real.mark_dirty(line), model.mark_dirty(line));
                "mark_dirty"
            }
            71..=79 => {
                assert_eq!(real.downgrade(line), model.downgrade(line));
                "downgrade"
            }
            80..=95 => {
                real.commit_spec(line);
                model.commit_spec(line);
                "commit_spec"
            }
            96..=97 => {
                real.flush_all();
                model.flush_all();
                "flush_all"
            }
            _ => {
                let key = rng.next();
                assert_eq!(real.remap(key), model.remap(key));
                "remap"
            }
        };
        check(&real, &model, &pool, step, op);
    }
}

#[test]
fn l1_style_cache_matches_slot_layout() {
    // LRU so victim choice depends on every touch; a NoMo partition so
    // fills honour per-thread way lists.
    let cfg = CacheConfig {
        sets: 8,
        ways: 4,
        hit_latency: 1,
        replacement: ReplacementKind::Lru,
    };
    for seed in [1, 7919, 0xdead_beef] {
        let real = Cache::new("l1", cfg.clone(), NomoPartition::new(4, 1, 2), seed);
        let model = RefCache::new("l1", &cfg, NomoPartition::new(4, 1, 2), seed, None);
        drive(real, model, 2, seed, 3_000);
    }
}

#[test]
fn l1_style_random_replacement_matches_slot_layout() {
    let cfg = CacheConfig {
        sets: 4,
        ways: 2,
        hit_latency: 1,
        replacement: ReplacementKind::Random,
    };
    for seed in [3, 42] {
        let real = Cache::new("l1", cfg.clone(), NomoPartition::disabled(2), seed);
        let model = RefCache::new("l1", &cfg, NomoPartition::disabled(2), seed, None);
        drive(real, model, 1, seed, 3_000);
    }
}

#[test]
fn ceaser_style_cache_matches_slot_layout() {
    let cfg = CacheConfig {
        sets: 16,
        ways: 2,
        hit_latency: 1,
        replacement: ReplacementKind::Random,
    };
    for seed in [1, 7919] {
        let ceaser = seed ^ 0x5eed;
        let real = Cache::new_randomized("l2", cfg.clone(), seed, ceaser);
        let model = RefCache::new("l2", &cfg, NomoPartition::disabled(2), seed, Some(ceaser));
        drive(real, model, 1, seed, 3_000);
    }
}

#[test]
fn tree_plru_ceaser_cache_matches_slot_layout() {
    let cfg = CacheConfig {
        sets: 8,
        ways: 4,
        hit_latency: 1,
        replacement: ReplacementKind::TreePlru,
    };
    let real = Cache::new_randomized("l2", cfg.clone(), 5, 11);
    let model = RefCache::new("l2", &cfg, NomoPartition::disabled(4), 5, Some(11));
    drive(real, model, 1, 5, 3_000);
}
