//! The two-level hierarchy: access path, flush, and rollback hooks.

use unxpec_mem::LineAddr;
use unxpec_telemetry::{CacheLevel, Event, MetricsRegistry, Telemetry};

use crate::cache::Cache;
use crate::config::HierarchyConfig;
use crate::effects::{AccessOutcome, Effect, Effects, ExternalProbe, HitLevel};
use crate::fault::{FaultInjector, FaultKind};
use crate::line::{LineMeta, SpecTag};
use crate::mshr::MshrFile;
use crate::noise::NoiseModel;
use crate::nomo::NomoPartition;
use crate::stats::CacheStats;
use crate::Cycle;

/// Private L1 I/D + shared L2 + memory, with MSHRs and noise.
///
/// The hierarchy computes access timing in closed form (issue cycle in,
/// completion cycle out) while mutating tag state eagerly; bank and
/// pipeline occupancy is tracked with next-free cycles so back-to-back
/// misses pipeline rather than serialize, which is what makes
/// CleanupSpec's restorations "pipelined and serviced from the L2".
#[derive(Debug)]
pub struct CacheHierarchy {
    cfg: HierarchyConfig,
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    mshrs: MshrFile,
    mem_next_free: Cycle,
    l2_next_free: Cycle,
    noise: NoiseModel,
    prefetch_fills: u64,
    telemetry: Telemetry,
    /// Optional deterministic fault injector. `None` (the default) and
    /// an injector whose plan never fires are both byte-identical to an
    /// unfaulted hierarchy.
    faults: Option<Box<FaultInjector>>,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `threads` hardware threads from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: HierarchyConfig, threads: usize) -> Self {
        cfg.validate();
        let partition = if cfg.nomo_reserved_ways > 0 {
            NomoPartition::new(cfg.l1d.ways, cfg.nomo_reserved_ways, threads)
        } else {
            NomoPartition::disabled(cfg.l1d.ways)
        };
        let l1d = Cache::new("L1D", cfg.l1d.clone(), partition, 0x11d0 ^ cfg.ceaser_seed);
        let l1i = Cache::new(
            "L1I",
            cfg.l1i.clone(),
            NomoPartition::disabled(cfg.l1i.ways),
            0x111a ^ cfg.ceaser_seed,
        );
        let l2 = if cfg.ceaser_enabled {
            Cache::new_randomized("L2", cfg.l2.clone(), 0x2222, cfg.ceaser_seed)
        } else {
            Cache::new(
                "L2",
                cfg.l2.clone(),
                NomoPartition::disabled(cfg.l2.ways),
                0x2222,
            )
        };
        CacheHierarchy {
            mshrs: MshrFile::new(cfg.mshr_entries),
            l1d,
            l1i,
            l2,
            mem_next_free: 0,
            l2_next_free: 0,
            noise: NoiseModel::quiet(),
            prefetch_fills: 0,
            telemetry: Telemetry::disabled(),
            faults: None,
            cfg,
        }
    }

    /// Replaces the noise model.
    pub fn set_noise(&mut self, noise: NoiseModel) {
        self.noise = noise;
    }

    /// Attaches a deterministic fault injector. Each fault that fires
    /// is logged in the injector and emitted as
    /// [`Event::FaultInjected`] through the telemetry sink.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(Box::new(injector));
    }

    /// Detaches and returns the injector (with its schedule log).
    pub fn take_fault_injector(&mut self) -> Option<FaultInjector> {
        self.faults.take().map(|b| *b)
    }

    /// The attached injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Asks the injector whether a squash interrupts the rollback in
    /// progress at `cycle` (the squash-during-rollback fault). Returns
    /// the extra cleanup cycles to charge; defenses redo their
    /// (idempotent) cleanup walk and stall that much longer.
    pub fn fault_interrupt_rollback(&mut self, cycle: Cycle) -> Option<Cycle> {
        let extra = self.faults.as_deref_mut()?.interrupt_rollback(cycle)?;
        self.telemetry.emit(Event::FaultInjected {
            cycle,
            kind: FaultKind::SquashDuringRollback.code(),
            detail: extra,
        });
        Some(extra)
    }

    /// Attaches a telemetry handle; cache, MSHR and rollback events are
    /// emitted through it (the default handle is disabled and free).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The hierarchy's telemetry handle (defenses emit their rollback
    /// step events through it so everything lands in one sink).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Data access for thread 0 (convenience for the single-thread model).
    pub fn access_data(
        &mut self,
        line: LineAddr,
        cycle: Cycle,
        spec: Option<SpecTag>,
    ) -> AccessOutcome {
        self.access_data_as(line, cycle, spec, 0)
    }

    /// Data access: L1D lookup, MSHR merge, L2 lookup, memory; fills on
    /// the way back. Returns completion timing plus the exact fill
    /// effects.
    pub fn access_data_as(
        &mut self,
        line: LineAddr,
        cycle: Cycle,
        spec: Option<SpecTag>,
        thread: usize,
    ) -> AccessOutcome {
        let l1_lat = self.cfg.l1d.hit_latency;
        // Replacement-state perturbation: a phantom touch of a random
        // L1 way that shifts future victim choices without moving data.
        let (l1_sets, l1_ways) = (self.cfg.l1d.sets, self.cfg.l1d.ways);
        if let Some((set, way)) = self
            .faults
            .as_deref_mut()
            .and_then(|f| f.replace_perturb(cycle, l1_sets, l1_ways))
        {
            self.l1d.perturb_replacement(set, way);
            self.telemetry.emit(Event::FaultInjected {
                cycle,
                kind: FaultKind::ReplacePerturb.code(),
                detail: ((set as u64) << 16) | way as u64,
            });
        }
        // A line whose fill is still inflight is not servable from L1 yet
        // even though the tag state is mutated eagerly: merge into the
        // MSHR entry and complete when the original fill does.
        if let Some(entry) = self.mshrs.lookup(line, cycle) {
            self.telemetry.emit(Event::MshrMerge {
                cycle,
                line: line.raw(),
            });
            return AccessOutcome {
                issue_cycle: cycle,
                complete_cycle: entry.complete_cycle.max(cycle + l1_lat),
                level: HitLevel::MshrMerge,
                effects: Effects::new(),
            };
        }
        if self.l1d.access(line).is_some() {
            self.telemetry.emit(Event::CacheHit {
                cycle,
                level: CacheLevel::L1,
                line: line.raw(),
            });
            return AccessOutcome {
                issue_cycle: cycle,
                complete_cycle: cycle + l1_lat,
                level: HitLevel::L1,
                effects: Effects::new(),
            };
        }
        self.telemetry.emit(Event::CacheMiss {
            cycle,
            level: CacheLevel::L1,
            line: line.raw(),
        });
        // Structural hazard: the miss cannot leave the L1 until an MSHR
        // entry is available.
        let mut issue = self.mshrs.next_free_cycle(cycle).max(cycle);
        // MSHR-exhaustion fault: artificial backpressure, as if the
        // file were full until `issue + extra`.
        if let Some(extra) = self
            .faults
            .as_deref_mut()
            .and_then(|f| f.mshr_pressure(cycle))
        {
            issue += extra;
            self.telemetry.emit(Event::FaultInjected {
                cycle,
                kind: FaultKind::MshrExhaust.code(),
                detail: extra,
            });
        }
        let mut effects = Effects::new();
        // L2 pipeline occupancy.
        let l2_start = (issue + l1_lat).max(self.l2_next_free);
        self.l2_next_free = l2_start + self.cfg.l2_init_interval;
        let (level, data_cycle) = if self.l2.access(line).is_some() {
            self.telemetry.emit(Event::CacheHit {
                cycle: l2_start,
                level: CacheLevel::L2,
                line: line.raw(),
            });
            (HitLevel::L2, l2_start + self.cfg.l2.hit_latency)
        } else {
            self.telemetry.emit(Event::CacheMiss {
                cycle: l2_start,
                level: CacheLevel::L2,
                line: line.raw(),
            });
            // Memory: bank pipelining plus noise.
            let mem_start = (l2_start + self.cfg.l2.hit_latency).max(self.mem_next_free);
            self.mem_next_free = mem_start + self.cfg.mem_init_interval;
            let mut service = self.cfg.mem_latency + self.noise.sample_mem_extra();
            // Fill-response faults: delayed, reordered (behind its
            // successor), or wedged (never effectively completing —
            // downstream consumers block until the forward-progress
            // watchdog or run limit ends the run).
            let base_service = self.cfg.mem_latency;
            if let Some((kind, extra)) = self
                .faults
                .as_deref_mut()
                .and_then(|f| f.fill_fault(mem_start, base_service))
            {
                service += extra;
                self.telemetry.emit(Event::FaultInjected {
                    cycle: mem_start,
                    kind: kind.code(),
                    detail: extra,
                });
            }
            let done = mem_start + service;
            let fill = self.l2.insert(
                LineMeta {
                    spec,
                    ..LineMeta::clean(line)
                },
                0,
            );
            self.telemetry.emit(Event::CacheFill {
                cycle: done,
                level: CacheLevel::L2,
                line: line.raw(),
                speculative: spec.is_some(),
            });
            if let Some(victim) = fill.victim {
                self.telemetry.emit(Event::CacheEvict {
                    cycle: done,
                    level: CacheLevel::L2,
                    victim: victim.line.raw(),
                });
            }
            effects.push(Effect::FillL2 {
                line,
                set: fill.set,
                way: fill.way,
                victim: fill.victim,
            });
            (HitLevel::Memory, done)
        };
        // Fill L1.
        let fill = self.l1d.insert(
            LineMeta {
                spec,
                ..LineMeta::clean(line)
            },
            thread,
        );
        self.telemetry.emit(Event::CacheFill {
            cycle: data_cycle,
            level: CacheLevel::L1,
            line: line.raw(),
            speculative: spec.is_some(),
        });
        if let Some(victim) = fill.victim {
            self.telemetry.emit(Event::CacheEvict {
                cycle: data_cycle,
                level: CacheLevel::L1,
                victim: victim.line.raw(),
            });
            // A displaced dirty line writes back into L2; ensure it stays
            // resident there so restoration can be serviced from L2.
            if !self.l2.contains(victim.line) {
                let l2_fill = self.l2.insert(LineMeta::clean(victim.line), 0);
                let _ = l2_fill;
            }
            if victim.dirty {
                self.l2.mark_dirty(victim.line);
                self.telemetry.emit(Event::CacheWriteback {
                    cycle: data_cycle,
                    level: CacheLevel::L1,
                    line: victim.line.raw(),
                });
            }
        }
        effects.push(Effect::FillL1 {
            line,
            set: fill.set,
            way: fill.way,
            victim: fill.victim,
        });
        // MSHR entry lives until the data returns.
        let allocated = self.mshrs.allocate(line, issue, data_cycle, spec);
        debug_assert!(allocated.is_ok(), "slot reserved by next_free_cycle");
        self.telemetry.emit(Event::MshrAlloc {
            cycle: issue,
            line: line.raw(),
            complete_cycle: data_cycle,
            speculative: spec.is_some(),
        });
        // Spurious-eviction fault: an architectural (non-speculative)
        // L1 line vanishes out from under the program. Speculative
        // installs are off limits — in-window transient state belongs
        // to the rollback oracle, not the chaos plan.
        if let Some((set, way)) = self
            .faults
            .as_deref_mut()
            .and_then(|f| f.spurious_evict(data_cycle, l1_sets, l1_ways))
        {
            if let Some(target) = self.l1d.slot_line(set, way) {
                if target != line && !self.l1d.is_speculative(target) {
                    self.l1d.invalidate(target);
                    self.telemetry.emit(Event::FaultInjected {
                        cycle: data_cycle,
                        kind: FaultKind::SpuriousEvict.code(),
                        detail: target.raw(),
                    });
                }
            }
        }
        // Next-line prefetch: only demand (non-speculative) misses
        // trigger it, so prefetched lines never enter a rollback.
        if self.cfg.next_line_prefetch && spec.is_none() {
            let next = line.offset(1);
            if !self.l1d.contains(next)
                && self.mshrs.lookup(next, issue).is_none()
                && self.mshrs.next_free_cycle(data_cycle) <= data_cycle
            {
                if !self.l2.contains(next) {
                    self.l2.insert(LineMeta::clean(next), 0);
                }
                self.l1d.insert(LineMeta::clean(next), thread);
                self.prefetch_fills += 1;
            }
        }
        AccessOutcome {
            issue_cycle: cycle,
            complete_cycle: data_cycle,
            level,
            effects,
        }
    }

    /// Functional-fill access for the fast-forward execution mode: the
    /// exact tag/recency/victim transitions of [`Self::access_data_as`]
    /// for a committed (`spec = None`, thread-0) access, minus everything
    /// a committed straight-line region cannot need — no MSHR entry (the
    /// request is architecturally complete before the next one issues),
    /// no effect list (there is no open speculation frame to undo into),
    /// no telemetry, and no fault hooks (the core refuses fast-forward
    /// under an armed injector).
    ///
    /// Bank occupancy (`l2_next_free` / `mem_next_free`) is still booked
    /// and the noise stream still sampled on memory misses, so the
    /// hierarchy's timing state and RNG position hand off exactly when
    /// the core drops back into detailed mode.
    pub fn access_data_functional(&mut self, line: LineAddr, cycle: Cycle) -> (Cycle, HitLevel) {
        let l1_lat = self.cfg.l1d.hit_latency;
        if self.l1d.access(line).is_some() {
            return (cycle + l1_lat, HitLevel::L1);
        }
        let l2_start = (cycle + l1_lat).max(self.l2_next_free);
        self.l2_next_free = l2_start + self.cfg.l2_init_interval;
        let (level, data_cycle) = if self.l2.access(line).is_some() {
            (HitLevel::L2, l2_start + self.cfg.l2.hit_latency)
        } else {
            let mem_start = (l2_start + self.cfg.l2.hit_latency).max(self.mem_next_free);
            self.mem_next_free = mem_start + self.cfg.mem_init_interval;
            let service = self.cfg.mem_latency + self.noise.sample_mem_extra();
            self.l2.insert(LineMeta::clean(line), 0);
            (HitLevel::Memory, mem_start + service)
        };
        let fill = self.l1d.insert(LineMeta::clean(line), 0);
        if let Some(victim) = fill.victim {
            if !self.l2.contains(victim.line) {
                self.l2.insert(LineMeta::clean(victim.line), 0);
            }
            if victim.dirty {
                self.l2.mark_dirty(victim.line);
            }
        }
        // Same demand-prefetch condition as the detailed path; with no
        // MSHR traffic in a fast-forward region the file is idle, so the
        // availability clause reduces to the lookup.
        if self.cfg.next_line_prefetch {
            let next = line.offset(1);
            if !self.l1d.contains(next)
                && self.mshrs.lookup(next, cycle).is_none()
                && self.mshrs.next_free_cycle(data_cycle) <= data_cycle
            {
                if !self.l2.contains(next) {
                    self.l2.insert(LineMeta::clean(next), 0);
                }
                self.l1d.insert(LineMeta::clean(next), 0);
                self.prefetch_fills += 1;
            }
        }
        (data_cycle, level)
    }

    /// Functional-fill committed store: [`Self::access_data_functional`]
    /// plus the dirty mark, mirroring [`Self::write_data`].
    pub fn write_data_functional(&mut self, line: LineAddr, cycle: Cycle) -> (Cycle, HitLevel) {
        let out = self.access_data_functional(line, cycle);
        self.l1d.mark_dirty(line);
        out
    }

    /// Timing-only access that never mutates cache state — the path an
    /// Invisible-style defense (e.g. InvisiSpec) forces speculative loads
    /// onto: the data is fetched into a shadow buffer, so no level fills
    /// and no victim is displaced.
    pub fn access_data_no_fill(&mut self, line: LineAddr, cycle: Cycle) -> AccessOutcome {
        let l1_lat = self.cfg.l1d.hit_latency;
        if self.l1d.contains(line) {
            return AccessOutcome {
                issue_cycle: cycle,
                complete_cycle: cycle + l1_lat,
                level: HitLevel::L1,
                effects: Effects::new(),
            };
        }
        let l2_start = (cycle + l1_lat).max(self.l2_next_free);
        self.l2_next_free = l2_start + self.cfg.l2_init_interval;
        let (level, done) = if self.l2.contains(line) {
            (HitLevel::L2, l2_start + self.cfg.l2.hit_latency)
        } else {
            let mem_start = (l2_start + self.cfg.l2.hit_latency).max(self.mem_next_free);
            self.mem_next_free = mem_start + self.cfg.mem_init_interval;
            let service = self.cfg.mem_latency + self.noise.sample_mem_extra();
            (HitLevel::Memory, mem_start + service)
        };
        AccessOutcome {
            issue_cycle: cycle,
            complete_cycle: done,
            level,
            effects: Effects::new(),
        }
    }

    /// Pure latency estimate for an access to `line` right now: no
    /// state change, no queue booking, no noise. Used for loads that
    /// will never actually issue (squashed delay-on-miss requests).
    pub fn estimate_access_latency(&self, line: LineAddr) -> Cycle {
        if self.l1d.contains(line) {
            self.cfg.l1d.hit_latency
        } else if self.l2.contains(line) {
            self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency
        } else {
            self.cfg.cold_miss_latency()
        }
    }

    /// Instruction fetch through the L1I (timing only; instruction lines
    /// never interact with rollback).
    pub fn fetch_inst(&mut self, line: LineAddr, cycle: Cycle) -> Cycle {
        if self.l1i.access(line).is_some() {
            return cycle + self.cfg.l1i.hit_latency;
        }
        let l2_start = cycle + self.cfg.l1i.hit_latency;
        let done = if self.l2.access(line).is_some() {
            l2_start + self.cfg.l2.hit_latency
        } else {
            let mem_start = (l2_start + self.cfg.l2.hit_latency).max(self.mem_next_free);
            self.mem_next_free = mem_start + self.cfg.mem_init_interval;
            let done = mem_start + self.cfg.mem_latency;
            self.l2.insert(LineMeta::clean(line), 0);
            done
        };
        self.l1i.insert(LineMeta::clean(line), 0);
        done
    }

    /// A committed store writing `line`: allocate (if needed) and mark
    /// dirty. Returns timing like a load.
    pub fn write_data(&mut self, line: LineAddr, cycle: Cycle) -> AccessOutcome {
        let outcome = self.access_data(line, cycle, None);
        self.l1d.mark_dirty(line);
        outcome
    }

    /// `clflush`-style flush of `line` from both levels. Returns the
    /// completion cycle.
    pub fn flush_line(&mut self, line: LineAddr, cycle: Cycle) -> Cycle {
        let was_present = self.l1d.contains(line) || self.l2.contains(line);
        self.l1d.invalidate(line);
        self.l2.invalidate(line);
        if was_present {
            cycle + self.cfg.flush_latency
        } else {
            // Flushing an absent line still costs the request round trip.
            cycle + self.cfg.flush_latency / 2
        }
    }

    // ----- Cross-thread / cross-core probe surface ---------------------

    /// Honestly services a cross-core read: supply from L1 or L2 with
    /// the corresponding latency and downgrade M/E to Shared; on a miss
    /// the requester pays the memory path. This is what an *unprotected*
    /// cache does — and what Flush+Reload-style cross-core probes time.
    pub fn serve_external_read(&mut self, line: LineAddr, cycle: Cycle) -> ExternalProbe {
        let _ = cycle;
        if self.l1d.contains(line) {
            let downgraded_from = self.l1d.downgrade(line);
            self.l2.downgrade(line);
            ExternalProbe {
                latency: self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency,
                observed_hit: true,
                downgraded_from,
            }
        } else if self.l2.contains(line) {
            let downgraded_from = self.l2.downgrade(line);
            ExternalProbe {
                latency: self.cfg.l2.hit_latency,
                observed_hit: true,
                downgraded_from,
            }
        } else {
            ExternalProbe {
                latency: self.external_miss_latency(),
                observed_hit: false,
                downgraded_from: None,
            }
        }
    }

    /// Services a cross-core read as a *dummy miss* (CleanupSpec's
    /// strategy for speculatively installed lines): the requester sees
    /// exactly the latency and state effects of a miss, and local cache
    /// state is untouched.
    pub fn serve_external_dummy_miss(&mut self) -> ExternalProbe {
        ExternalProbe {
            latency: self.external_miss_latency(),
            observed_hit: false,
            downgraded_from: None,
        }
    }

    /// What a remote requester pays when this core cannot supply data.
    pub fn external_miss_latency(&self) -> Cycle {
        self.cfg.l2.hit_latency + self.cfg.mem_latency
    }

    /// Whether `line` is resident with a live speculative tag anywhere.
    pub fn any_speculative(&self, line: LineAddr) -> bool {
        self.l1d.is_speculative(line) || self.l2.is_speculative(line)
    }

    // ----- Rollback hooks used by Undo defenses ------------------------

    /// Invalidates a transient install from L1, returning its vacated
    /// `(set, way)` so the victim can be restored there.
    pub fn rollback_invalidate_l1(&mut self, line: LineAddr) -> Option<(usize, usize)> {
        self.l1d.invalidate(line).map(|(s, w, _)| (s, w))
    }

    /// Invalidates a transient install from L2.
    pub fn rollback_invalidate_l2(&mut self, line: LineAddr) -> bool {
        self.l2.invalidate(line).is_some()
    }

    /// Whether the L1 slot `(set, way)` is currently empty (used by the
    /// rollback to restore a victim whose evictor was itself displaced
    /// by a younger transient line before the squash).
    pub fn l1_slot_is_empty(&self, set: usize, way: usize) -> bool {
        self.l1d.slot_line(set, way).is_none()
    }

    /// Restores an evicted line into an exact L1 slot (serviced from L2 —
    /// the caller prices the L2 access; this mutates state only).
    pub fn restore_l1(&mut self, set: usize, way: usize, line: LineAddr) {
        self.l1d.insert_at(set, way, LineMeta::clean(line));
        if !self.l2.contains(line) {
            // Restoration data comes from L2; if L2 lost it meanwhile, the
            // refill conceptually comes from memory. Keep L2 consistent.
            self.l2.insert(LineMeta::clean(line), 0);
        }
    }

    /// Clears speculative tags after an epoch resolves correct.
    pub fn commit_line(&mut self, line: LineAddr) {
        self.l1d.commit_spec(line);
        self.l2.commit_spec(line);
    }

    /// Cancels speculative MSHR entries for squashed epochs (T3).
    pub fn cancel_speculative_misses<F: Fn(SpecTag) -> bool>(
        &mut self,
        now: Cycle,
        is_squashed: F,
    ) -> usize {
        let cancelled = self.mshrs.cancel_speculative_lines(now, is_squashed);
        for line in &cancelled {
            self.telemetry.emit(Event::MshrCancel {
                cycle: now,
                line: line.raw(),
            });
        }
        cancelled.len()
    }

    /// Latest completion of inflight non-speculative misses (T4 wait).
    pub fn inflight_safe_completion(&mut self, now: Cycle) -> Option<Cycle> {
        self.mshrs.latest_safe_completion(now)
    }

    /// True when every miss issued before `now` has delivered its fill:
    /// the MSHR file holds no in-flight entry. Fast-forward regions
    /// require this — the functional access path has no MSHR merge, so
    /// an in-flight miss (typically a squashed wrong-path load, whose
    /// MSHR a rollback deliberately leaves running) would make a
    /// detailed-mode re-execution merge and wait for the fill where the
    /// functional model would hit the already-installed line.
    pub fn memory_quiescent(&mut self, now: Cycle) -> bool {
        self.mshrs.occupancy(now) == 0
    }

    // ----- Introspection (attack construction and tests) ---------------

    /// Whether `line` is in the L1D.
    pub fn l1_contains(&self, line: LineAddr) -> bool {
        self.l1d.contains(line)
    }

    /// Whether `line` is in the L2.
    pub fn l2_contains(&self, line: LineAddr) -> bool {
        self.l2.contains(line)
    }

    /// L1D set index of `line` (conventional indexing — computable by the
    /// attacker from the address alone, which is what makes L1 eviction
    /// sets easy to build).
    pub fn l1_set_of(&self, line: LineAddr) -> usize {
        self.l1d.set_index(line)
    }

    /// L2 set index of `line` (post-CEASER; *not* attacker-predictable).
    pub fn l2_set_of(&self, line: LineAddr) -> usize {
        self.l2.set_index(line)
    }

    /// Whether `line` is resident in L1 and tagged speculative.
    pub fn l1_is_speculative(&self, line: LineAddr) -> bool {
        self.l1d.is_speculative(line)
    }

    /// L1D counters.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Direct access to the L1D (tests and ablations).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Direct access to the L2 (tests and ablations).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Corrupts the L1D's incremental occupancy counter by `delta`
    /// without touching the tag array. Exists solely so sanitizer
    /// mutation tests and the chaos experiment's `sabotage` variant can
    /// prove counter drift is caught; never call it from simulation
    /// code.
    #[doc(hidden)]
    pub fn corrupt_l1_resident_counter_for_tests(&mut self, delta: isize) {
        self.l1d.corrupt_resident_counter_for_tests(delta);
    }

    /// MSHR file, read-only (the sanitizer's leak accounting).
    pub fn mshrs(&self) -> &MshrFile {
        &self.mshrs
    }

    /// MSHR file (tests).
    pub fn mshrs_mut(&mut self) -> &mut MshrFile {
        &mut self.mshrs
    }

    /// Lines brought in by the next-line prefetcher.
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Re-keys the L2's CEASER mapping (periodic remap of a randomized
    /// cache), flushing its residents.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::RemapUnsupported`] when the hierarchy was
    /// built without CEASER indexing (`ceaser_enabled: false`) — the L2
    /// then has no key to rotate, and the caller (an experiment driver
    /// or sweep trial) must treat the request as a configuration error
    /// rather than dying in a panic that would poison a pool worker.
    pub fn remap_l2(&mut self, seed: u64) -> Result<(), crate::error::CacheError> {
        self.l2.remap(seed)
    }

    /// Resets all counters (not contents).
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l1i.reset_stats();
        self.l2.reset_stats();
    }

    /// Registers every hierarchy counter into `reg` under the `l1.`,
    /// `l2.`, `mshr.` and `prefetch.` namespaces.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        for (prefix, stats) in [("l1", self.l1d.stats()), ("l2", self.l2.stats())] {
            reg.set(&format!("{prefix}.hits"), stats.hits);
            reg.set(&format!("{prefix}.misses"), stats.misses);
            reg.set(&format!("{prefix}.evictions"), stats.evictions);
            reg.set(&format!("{prefix}.invalidations"), stats.invalidations);
            reg.set(&format!("{prefix}.restores"), stats.restores);
            reg.set(&format!("{prefix}.writebacks"), stats.writebacks);
        }
        self.mshrs.record_metrics(reg);
        reg.set("prefetch.fills", self.prefetch_fills);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::line::CoherenceState;

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::table_i(), 1)
    }

    #[test]
    fn remap_l2_rotates_the_ceaser_key() {
        let mut h = hier(); // Table I enables CEASER in the L2
        let line = LineAddr::new(0x2468);
        h.access_data(line, 0, None);
        assert!(h.l2_contains(line));
        let before: Vec<usize> = (0..64u64).map(|i| h.l2_set_of(LineAddr::new(i))).collect();
        h.remap_l2(0x5eed).expect("CEASER L2 remaps");
        assert!(!h.l2_contains(line), "remap flushes residents");
        let after: Vec<usize> = (0..64u64).map(|i| h.l2_set_of(LineAddr::new(i))).collect();
        assert_ne!(before, after, "new key must change the index mapping");
    }

    #[test]
    fn remap_l2_without_ceaser_is_a_typed_error() {
        let cfg = HierarchyConfig {
            ceaser_enabled: false,
            ..HierarchyConfig::table_i()
        };
        let mut h = CacheHierarchy::new(cfg, 1);
        let line = LineAddr::new(0x2468);
        h.access_data(line, 0, None);
        let err = h.remap_l2(1).expect_err("plain L2 must refuse remap");
        assert_eq!(
            err,
            crate::error::CacheError::RemapUnsupported { cache: "L2" }
        );
        assert!(h.l2_contains(line), "refused remap leaves contents alone");
    }

    #[test]
    fn cold_miss_costs_full_path() {
        let mut h = hier();
        let line = LineAddr::new(0x100);
        let out = h.access_data(line, 0, None);
        assert_eq!(out.level, HitLevel::Memory);
        // l1 + l2 + mem = 118, no noise.
        assert_eq!(out.latency(), h.config().cold_miss_latency());
        assert_eq!(out.effects.len(), 2);
    }

    #[test]
    fn l1_hit_is_cheap_and_effect_free() {
        let mut h = hier();
        let line = LineAddr::new(0x100);
        let t = h.access_data(line, 0, None).complete_cycle;
        let out = h.access_data(line, t, None);
        assert_eq!(out.level, HitLevel::L1);
        assert_eq!(out.latency(), 4);
        assert!(out.effects.is_empty());
    }

    #[test]
    fn l2_hit_after_l1_invalidation() {
        let mut h = hier();
        let line = LineAddr::new(0x100);
        h.access_data(line, 0, None);
        h.rollback_invalidate_l1(line);
        let out = h.access_data(line, 1000, None);
        assert_eq!(out.level, HitLevel::L2);
        assert_eq!(out.latency(), 4 + 14);
    }

    #[test]
    fn mshr_merge_returns_inflight_completion() {
        let mut h = hier();
        let line = LineAddr::new(0x200);
        let first = h.access_data(line, 0, None);
        let merged = h.access_data(line, 2, None);
        assert_eq!(merged.level, HitLevel::MshrMerge);
        assert_eq!(merged.complete_cycle, first.complete_cycle);
        assert!(merged.effects.is_empty());
    }

    #[test]
    fn memory_bank_pipelines_independent_misses() {
        let mut h = hier();
        let a = h.access_data(LineAddr::new(0x1000), 0, None);
        let b = h.access_data(LineAddr::new(0x2000), 0, None);
        // Second miss starts one initiation interval later, far less than
        // a full serialization.
        assert_eq!(
            b.complete_cycle - a.complete_cycle,
            h.config().mem_init_interval
        );
    }

    #[test]
    fn flush_removes_from_both_levels() {
        let mut h = hier();
        let line = LineAddr::new(0x300);
        h.access_data(line, 0, None);
        assert!(h.l1_contains(line) && h.l2_contains(line));
        let done = h.flush_line(line, 500);
        assert!(done > 500);
        assert!(!h.l1_contains(line) && !h.l2_contains(line));
    }

    #[test]
    fn speculative_fill_is_tagged_and_commit_clears() {
        let mut h = hier();
        let line = LineAddr::new(0x400);
        h.access_data(line, 0, Some(SpecTag(3)));
        assert!(h.l1_is_speculative(line));
        h.commit_line(line);
        assert!(!h.l1_is_speculative(line));
    }

    #[test]
    fn rollback_roundtrip_restores_original_set_state() {
        let mut h = hier();
        // Fill one L1 set completely with non-speculative lines.
        let set_target = h.l1_set_of(LineAddr::new(0x40).base().line());
        let sets = h.config().l1d.sets as u64;
        let ways = h.config().l1d.ways as u64;
        let mut fillers = Vec::new();
        for i in 0..ways {
            let line = LineAddr::new(set_target as u64 + i * sets);
            h.access_data(line, 0, None);
            fillers.push(line);
        }
        // One transient load conflicts into that set.
        let transient = LineAddr::new(set_target as u64 + 100 * sets);
        let out = h.access_data(transient, 1000, Some(SpecTag(1)));
        let l1_fill = out
            .effects
            .iter()
            .find(|e| e.is_l1())
            .copied()
            .expect("transient load fills L1");
        let victim = l1_fill.victim().expect("set was full, must evict");
        // Undo: invalidate the transient line, restore the victim.
        let (set, way) = h.rollback_invalidate_l1(transient).unwrap();
        h.restore_l1(set, way, victim.line);
        assert!(!h.l1_contains(transient));
        for f in &fillers {
            assert!(h.l1_contains(*f), "filler {f} must be back after rollback");
        }
    }

    #[test]
    fn noise_widens_memory_latency() {
        let mut h = hier();
        h.set_noise(NoiseModel::default_sim(5));
        let mut latencies = Vec::new();
        for i in 0..200u64 {
            let out = h.access_data(LineAddr::new(0x10_0000 + i * 7919), i * 1000, None);
            if out.level == HitLevel::Memory {
                latencies.push(out.latency());
            }
        }
        let min = latencies.iter().min().unwrap();
        let max = latencies.iter().max().unwrap();
        assert!(max > min, "noise should spread latencies");
    }

    #[test]
    fn telemetry_streams_the_access_path() {
        let mut h = hier();
        let tel = Telemetry::ring(256);
        h.set_telemetry(tel.clone());
        let line = LineAddr::new(0x100);
        h.access_data(line, 0, Some(SpecTag(1)));
        let names: Vec<&str> = tel.snapshot().iter().map(|e| e.name()).collect();
        // Cold speculative miss: L1 miss, L2 miss, fills both levels,
        // one MSHR allocation.
        assert_eq!(names.iter().filter(|n| **n == "cache_miss").count(), 2);
        assert_eq!(names.iter().filter(|n| **n == "cache_fill").count(), 2);
        assert!(names.contains(&"mshr_alloc"));
        tel.clear();
        // Merge while inflight, then cancel it during cleanup.
        h.access_data(line, 2, Some(SpecTag(1)));
        assert_eq!(h.cancel_speculative_misses(3, |t| t == SpecTag(1)), 1);
        let names: Vec<&str> = tel.snapshot().iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["mshr_merge", "mshr_cancel"]);
    }

    #[test]
    fn record_metrics_mirrors_stats() {
        let mut h = hier();
        let line = LineAddr::new(0x500);
        h.access_data(line, 0, None);
        let t = h.access_data(line, 1000, None).complete_cycle;
        let _ = t;
        let mut reg = MetricsRegistry::new();
        h.record_metrics(&mut reg);
        assert_eq!(reg.counter("l1.hits"), h.l1_stats().hits);
        assert_eq!(reg.counter("l1.misses"), h.l1_stats().misses);
        assert_eq!(reg.counter("l2.misses"), h.l2_stats().misses);
        assert_eq!(reg.counter("mshr.capacity"), h.config().mshr_entries as u64);
        assert_eq!(reg.counter("prefetch.fills"), 0);
    }

    #[test]
    fn fetch_inst_hits_after_first_access() {
        let mut h = hier();
        let line = LineAddr::new(0x9000);
        let t1 = h.fetch_inst(line, 0);
        let t2 = h.fetch_inst(line, t1);
        assert!(t2 - t1 < t1, "second fetch must hit L1I");
    }

    #[test]
    fn external_read_supplies_and_downgrades_resident_lines() {
        let mut h = hier();
        // An architectural dirty line reveals it was Modified.
        let dirty = LineAddr::new(0x6000);
        let t = h.write_data(dirty, 0).complete_cycle;
        let probe = h.serve_external_read(dirty, t + 1);
        assert!(probe.observed_hit);
        assert_eq!(probe.downgraded_from, Some(CoherenceState::Modified));
        // The unprotected read serves a speculative install the same
        // way: fast, and downgraded.
        let spec = LineAddr::new(0x7000);
        let t = h.access_data(spec, t + 10, Some(SpecTag(2))).complete_cycle;
        let probe = h.serve_external_read(spec, t + 1);
        assert!(probe.observed_hit);
        assert!(probe.downgraded_from.is_some());
        assert_eq!(
            probe.latency,
            h.config().l1d.hit_latency + h.config().l2.hit_latency
        );
        let absent = h.serve_external_read(LineAddr::new(0x8000), t + 2);
        assert!(!absent.observed_hit);
        assert_eq!(absent.latency, h.external_miss_latency());
    }

    /// SMT Prime+Probe: thread 0 warms one line, then thread 1 hammers
    /// its L1 set with `rounds × lines` congruent lines.
    fn prime_probe(cfg: HierarchyConfig, rounds: u64, lines: u64) -> CacheHierarchy {
        let mut h = CacheHierarchy::new(cfg, 2);
        let sets = h.config().l1d.sets as u64;
        let victim = LineAddr::new(7);
        let mut cycle = h.access_data_as(victim, 0, None, 0).complete_cycle;
        for round in 0..rounds {
            for i in 0..lines {
                let line = LineAddr::new(7 + (i + 1 + round * 64) * sets);
                cycle = h.access_data_as(line, cycle, None, 1).complete_cycle;
            }
        }
        h
    }

    #[test]
    fn nomo_keeps_the_victims_line_under_smt_prime_probe() {
        // Far beyond the associativity, the attacker thread still cannot
        // evict the line in the victim's reserved way...
        let h = prime_probe(HierarchyConfig::table_i(), 4, 32);
        let victim = LineAddr::new(7);
        assert!(h.l1_contains(victim), "NoMo must protect the reserved way");
        // ...and holds at most its own reserved plus the shared ways.
        let set = h.l1_set_of(victim);
        let attacker = h.l1d().set_lines(set).flatten();
        assert!(attacker.filter(|m| m.line != victim).count() <= 7);
    }

    #[test]
    fn without_nomo_smt_prime_probe_evicts_the_victim() {
        let mut cfg = HierarchyConfig::table_i();
        cfg.nomo_reserved_ways = 0;
        let h = prime_probe(cfg, 6, 16);
        assert!(!h.l1_contains(LineAddr::new(7)));
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod prefetch_tests {
    use super::*;
    use crate::config::HierarchyConfig;

    fn prefetching_hier() -> CacheHierarchy {
        let mut cfg = HierarchyConfig::table_i();
        cfg.next_line_prefetch = true;
        CacheHierarchy::new(cfg, 1)
    }

    #[test]
    fn demand_miss_prefetches_the_next_line() {
        let mut h = prefetching_hier();
        let line = LineAddr::new(0x100);
        let t = h.access_data(line, 0, None).complete_cycle;
        assert!(
            h.l1_contains(line.offset(1)),
            "next line must be prefetched"
        );
        assert_eq!(h.prefetch_fills(), 1);
        // The prefetched line now hits.
        let out = h.access_data(line.offset(1), t, None);
        assert_eq!(out.level, HitLevel::L1);
    }

    #[test]
    fn speculative_misses_do_not_prefetch() {
        let mut h = prefetching_hier();
        let line = LineAddr::new(0x200);
        h.access_data(line, 0, Some(SpecTag(1)));
        assert!(
            !h.l1_contains(line.offset(1)),
            "speculative misses must not trigger the prefetcher (rollback cannot track it)"
        );
        assert_eq!(h.prefetch_fills(), 0);
    }

    #[test]
    fn prefetcher_is_off_in_table_i() {
        let mut h = CacheHierarchy::new(HierarchyConfig::table_i(), 1);
        h.access_data(LineAddr::new(0x300), 0, None);
        assert!(!h.l1_contains(LineAddr::new(0x301)));
        assert_eq!(h.prefetch_fills(), 0);
    }

    #[test]
    fn streaming_pattern_benefits_from_prefetch() {
        let run = |prefetch: bool| {
            let mut cfg = HierarchyConfig::table_i();
            cfg.next_line_prefetch = prefetch;
            let mut h = CacheHierarchy::new(cfg, 1);
            let mut cycle = 0;
            for i in 0..64u64 {
                cycle = h
                    .access_data(LineAddr::new(0x1000 + i), cycle, None)
                    .complete_cycle;
            }
            cycle
        };
        let without = run(false);
        let with = run(true);
        // Alternating miss/hit: close to half the serialized walk, with
        // some slack for the L2/bank pipelining the misses already get.
        assert!(
            with * 10 < without * 6,
            "sequential walk should get much cheaper with next-line prefetch: {with} vs {without}"
        );
    }
}
