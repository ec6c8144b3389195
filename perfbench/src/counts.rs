//! Simulated and host-side counts of one op.
//!
//! Counts are read at the same boundaries as the spans: around each
//! `Core` run, or around the one public call that hides the runs
//! (`UnxpecChannel::leak_with_votes`, one service round trip). Every
//! simulated count is a pure function of the seed and the op index, so
//! two runs of one build — traced or not — report the same values.
//! They are outputs, not figures of merit: `golden_counts.txt` pins
//! them for the default and the held-out seed, and a run whose counts
//! differ from the pinned ones is not correct.

use unxpec::cache::CacheHierarchy;
use unxpec::cpu::{Core, RunResult};
use unxpec::telemetry::MetricsRegistry;

/// Per-op counts. Fields a workload never touches stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// `Core` runs started.
    pub runs: u64,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Committed instructions.
    pub committed_insts: u64,
    /// Squashed (wrong-path) instructions.
    pub squashed_insts: u64,
    /// Instructions the fast-forward interpreter committed.
    pub ff_committed_insts: u64,
    /// Fast-forward regions entered.
    pub ff_regions: u64,
    /// L1 data misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L1 lines invalidated by rollback.
    pub l1_invalidations: u64,
    /// L1 victims restored by rollback.
    pub l1_restores: u64,
    /// MSHR entries allocated.
    pub mshr_allocated: u64,
    /// Highest MSHR occupancy seen (a maximum, not a sum).
    pub mshr_peak: u64,
    /// Squashes the defense rolled back.
    pub squashes: u64,
    /// Cycles the defense stalled for rollback.
    pub cleanup_stall_cycles: u64,
    /// Attack rounds (one `measure_bit` each).
    pub rounds: u64,
    /// Secret bits leaked.
    pub bits: u64,
    /// Bits decoded wrongly.
    pub bit_errors: u64,
    /// Result-cache reads that hit.
    pub cache_hits: u64,
    /// Result-cache reads that missed.
    pub cache_misses: u64,
    /// Bytes the job journal grew by.
    pub journal_bytes: u64,
    /// Bytes of the result document.
    pub result_bytes: u64,
}

impl Counts {
    /// Adds `other` in; `mshr_peak` takes the maximum.
    pub fn add(&mut self, other: &Counts) {
        self.runs += other.runs;
        self.sim_cycles += other.sim_cycles;
        self.committed_insts += other.committed_insts;
        self.squashed_insts += other.squashed_insts;
        self.ff_committed_insts += other.ff_committed_insts;
        self.ff_regions += other.ff_regions;
        self.l1_misses += other.l1_misses;
        self.l2_misses += other.l2_misses;
        self.l1_invalidations += other.l1_invalidations;
        self.l1_restores += other.l1_restores;
        self.mshr_allocated += other.mshr_allocated;
        self.mshr_peak = self.mshr_peak.max(other.mshr_peak);
        self.squashes += other.squashes;
        self.cleanup_stall_cycles += other.cleanup_stall_cycles;
        self.rounds += other.rounds;
        self.bits += other.bits;
        self.bit_errors += other.bit_errors;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.journal_bytes += other.journal_bytes;
        self.result_bytes += other.result_bytes;
    }

    /// Counts of one run on a core built for that run alone, so the
    /// hierarchy's lifetime statistics are the run's own.
    pub fn of_fresh_run(core: &Core, r: &RunResult) -> Counts {
        let mut c = Counts::of_hierarchy(core.hierarchy());
        c.runs = 1;
        c.sim_cycles = r.stats.cycles;
        c.committed_insts = r.stats.committed_insts;
        c.squashed_insts = r.stats.squashed_insts;
        c.ff_committed_insts = r.stats.ff_committed_insts;
        c.ff_regions = r.stats.ff_regions;
        c.squashes = r.stats.squashes.len() as u64;
        c.cleanup_stall_cycles = r.stats.cleanup_stall_cycles;
        c
    }

    /// The hierarchy's lifetime cache and MSHR counters.
    pub fn of_hierarchy(h: &CacheHierarchy) -> Counts {
        Counts {
            l1_misses: h.l1_stats().misses,
            l2_misses: h.l2_stats().misses,
            l1_invalidations: h.l1_stats().invalidations,
            l1_restores: h.l1_stats().restores,
            mshr_allocated: h.mshrs().allocated_total(),
            mshr_peak: h.mshrs().peak_occupancy() as u64,
            ..Counts::default()
        }
    }

    /// Machine-level counters of a long-lived core: the clock, the
    /// hierarchy, and the defense's rollback counters as it registers
    /// them through `Core::record_metrics`.
    pub fn of_machine(core: &Core) -> Counts {
        let mut reg = MetricsRegistry::new();
        core.record_metrics(&mut reg);
        let mut c = Counts::of_hierarchy(core.hierarchy());
        c.sim_cycles = core.clock();
        c.squashes = reg.counter("cleanupspec.rollbacks");
        c.cleanup_stall_cycles = reg.counter("cleanupspec.stall_cycles");
        c
    }

    /// `self - before` for lifetime counters; `mshr_peak` keeps the
    /// later value.
    pub fn since(&self, before: &Counts) -> Counts {
        Counts {
            sim_cycles: self.sim_cycles - before.sim_cycles,
            l1_misses: self.l1_misses - before.l1_misses,
            l2_misses: self.l2_misses - before.l2_misses,
            l1_invalidations: self.l1_invalidations - before.l1_invalidations,
            l1_restores: self.l1_restores - before.l1_restores,
            mshr_allocated: self.mshr_allocated - before.mshr_allocated,
            mshr_peak: self.mshr_peak,
            squashes: self.squashes - before.squashes,
            cleanup_stall_cycles: self.cleanup_stall_cycles - before.cleanup_stall_cycles,
            ..Counts::default()
        }
    }

    /// Every count by name, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 21] {
        [
            ("runs", self.runs),
            ("sim_cycles", self.sim_cycles),
            ("committed_insts", self.committed_insts),
            ("squashed_insts", self.squashed_insts),
            ("ff_committed_insts", self.ff_committed_insts),
            ("ff_regions", self.ff_regions),
            ("l1_misses", self.l1_misses),
            ("l2_misses", self.l2_misses),
            ("l1_invalidations", self.l1_invalidations),
            ("l1_restores", self.l1_restores),
            ("mshr_allocated", self.mshr_allocated),
            ("mshr_peak", self.mshr_peak),
            ("squashes", self.squashes),
            ("cleanup_stall_cycles", self.cleanup_stall_cycles),
            ("rounds", self.rounds),
            ("bits", self.bits),
            ("bit_errors", self.bit_errors),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("journal_bytes", self.journal_bytes),
            ("result_bytes", self.result_bytes),
        ]
    }

    /// The counts as one line of `name=value` pairs, the form
    /// `golden_counts.txt` pins them in.
    pub fn render(&self) -> String {
        let pairs: Vec<String> = self
            .fields()
            .iter()
            .map(|(name, v)| format!("{name}={v}"))
            .collect();
        pairs.join(" ")
    }
}

/// The pinned counts: one line per workload and seed,
/// `<workload> <seed> <Counts::render()>`; `#` starts a comment.
const GOLDEN: &str = include_str!("../golden_counts.txt");

/// The pinned counts line of `workload` at `seed`, if there is one.
pub fn golden(workload: &str, seed: u64) -> Option<&'static str> {
    GOLDEN.lines().find_map(|line| {
        let mut parts = line.splitn(3, ' ');
        let (w, s, rest) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && s.parse() == Ok(seed)).then_some(rest)
    })
}
