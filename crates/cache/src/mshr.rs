//! Miss-status holding registers.
//!
//! MSHRs matter twice for unXpec: they pipeline the transient misses the
//! sender issues (so many loads can be inflight inside one speculation
//! window), and CleanupSpec's first rollback step (T3 in the paper's
//! Fig. 1) is *cleaning inflight mis-speculated loads out of the MSHRs*.

use unxpec_mem::LineAddr;

use crate::line::SpecTag;
use crate::Cycle;

/// One inflight miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// Line being fetched.
    pub line: LineAddr,
    /// Cycle the fill completes.
    pub complete_cycle: Cycle,
    /// Speculation epoch of the load that allocated the entry, if any.
    pub spec: Option<SpecTag>,
}

/// A finite file of MSHR entries with merge and speculative cancellation.
///
/// # Examples
///
/// ```
/// use unxpec_cache::{MshrFile, SpecTag};
/// use unxpec_mem::LineAddr;
///
/// let mut mshrs = MshrFile::new(2);
/// mshrs.allocate(LineAddr::new(1), 0, 100, None).unwrap();
/// assert!(mshrs.lookup(LineAddr::new(1), 50).is_some());
/// // Entries free themselves once their fill completes.
/// assert!(mshrs.lookup(LineAddr::new(1), 101).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<MshrEntry>,
    /// Lower bound on the earliest `complete_cycle` among `entries`
    /// (`Cycle::MAX` when the file is empty): lowered on allocation,
    /// recomputed on retirement, so `retire_completed` skips its scan
    /// while nothing can have completed.
    earliest_complete: Cycle,
    peak_occupancy: usize,
    cancelled_speculative: u64,
    /// Lifetime allocations, for leak accounting: every allocated
    /// entry must eventually retire or be cancelled.
    allocated_total: u64,
    /// Lifetime releases (retirements + cancellations).
    released_total: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs capacity");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            earliest_complete: Cycle::MAX,
            peak_occupancy: 0,
            cancelled_speculative: 0,
            allocated_total: 0,
            released_total: 0,
        }
    }

    fn retire_completed(&mut self, now: Cycle) {
        if now < self.earliest_complete {
            return;
        }
        let before = self.entries.len();
        self.entries.retain(|e| e.complete_cycle > now);
        self.released_total += (before - self.entries.len()) as u64;
        self.earliest_complete = self
            .entries
            .iter()
            .map(|e| e.complete_cycle)
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// Finds an inflight entry for `line`, retiring completed entries
    /// first.
    pub fn lookup(&mut self, line: LineAddr, now: Cycle) -> Option<MshrEntry> {
        self.retire_completed(now);
        self.entries.iter().copied().find(|e| e.line == line)
    }

    /// Allocates an entry at `now` completing at `complete_cycle`.
    ///
    /// # Errors
    ///
    /// Returns the cycle at which the earliest entry frees if the file is
    /// full; the caller stalls the miss until then.
    pub fn allocate(
        &mut self,
        line: LineAddr,
        now: Cycle,
        complete_cycle: Cycle,
        spec: Option<SpecTag>,
    ) -> Result<(), Cycle> {
        self.retire_completed(now);
        if self.entries.len() >= self.capacity {
            let earliest = self
                .entries
                .iter()
                .map(|e| e.complete_cycle)
                .min()
                .unwrap_or(now);
            return Err(earliest);
        }
        self.entries.push(MshrEntry {
            line,
            complete_cycle,
            spec,
        });
        self.allocated_total += 1;
        self.earliest_complete = self.earliest_complete.min(complete_cycle);
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        Ok(())
    }

    /// Earliest cycle (≥ `now`) at which a new entry can be allocated:
    /// `now` itself if a slot is free, otherwise the earliest completion.
    pub fn next_free_cycle(&mut self, now: Cycle) -> Cycle {
        self.retire_completed(now);
        if self.entries.len() < self.capacity {
            now
        } else {
            self.entries
                .iter()
                .map(|e| e.complete_cycle)
                .min()
                .unwrap_or(now)
        }
    }

    /// Frees entries that have completed by `now` and returns current
    /// occupancy.
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.retire_completed(now);
        self.entries.len()
    }

    /// Cancels every inflight entry belonging to speculation epochs in
    /// `is_squashed` (CleanupSpec T3). Returns how many were cancelled.
    pub fn cancel_speculative<F: Fn(SpecTag) -> bool>(
        &mut self,
        now: Cycle,
        is_squashed: F,
    ) -> usize {
        self.cancel_speculative_lines(now, is_squashed).len()
    }

    /// Like [`MshrFile::cancel_speculative`], but returns the cancelled
    /// lines themselves (telemetry wants one `mshr_cancel` event per
    /// line, not just a count).
    pub fn cancel_speculative_lines<F: Fn(SpecTag) -> bool>(
        &mut self,
        now: Cycle,
        is_squashed: F,
    ) -> Vec<LineAddr> {
        self.retire_completed(now);
        let mut cancelled = Vec::new();
        self.entries.retain(|e| {
            let squashed = e.spec.map(&is_squashed).unwrap_or(false);
            if squashed {
                cancelled.push(e.line);
            }
            !squashed
        });
        self.cancelled_speculative += cancelled.len() as u64;
        self.released_total += cancelled.len() as u64;
        cancelled
    }

    /// Latest completion among inflight *non-speculative* entries — what
    /// CleanupSpec waits for in T4 before starting cleanup.
    pub fn latest_safe_completion(&mut self, now: Cycle) -> Option<Cycle> {
        self.retire_completed(now);
        self.entries
            .iter()
            .filter(|e| e.spec.is_none())
            .map(|e| e.complete_cycle)
            .max()
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Total speculative entries cancelled over the run.
    pub fn cancelled_speculative(&self) -> u64 {
        self.cancelled_speculative
    }

    /// Capacity of the file.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime allocations (for leak accounting).
    pub fn allocated_total(&self) -> u64 {
        self.allocated_total
    }

    /// Lifetime releases: retirements plus cancellations.
    pub fn released_total(&self) -> u64 {
        self.released_total
    }

    /// Checks the allocate/release ledger against the live entry list.
    ///
    /// # Errors
    ///
    /// Returns `(allocated, released, live)` when the ledger disagrees
    /// with the entries actually held, or when occupancy exceeds
    /// capacity — either means an entry leaked or was double-freed.
    pub fn verify_accounting(&self) -> Result<(), (u64, u64, usize)> {
        let live = self.entries.len();
        let balanced = self.allocated_total == self.released_total + live as u64;
        if balanced && live <= self.capacity {
            Ok(())
        } else {
            Err((self.allocated_total, self.released_total, live))
        }
    }

    /// Registers the file's counters under the `mshr.` namespace.
    pub fn record_metrics(&self, reg: &mut unxpec_telemetry::MetricsRegistry) {
        reg.set("mshr.capacity", self.capacity as u64);
        reg.set("mshr.peak_occupancy", self.peak_occupancy as u64);
        reg.set("mshr.cancelled_speculative", self.cancelled_speculative);
        reg.set("mshr.allocated_total", self.allocated_total);
        reg.set("mshr.released_total", self.released_total);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn merge_finds_inflight_entry() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr::new(5), 0, 120, None).unwrap();
        let e = m.lookup(LineAddr::new(5), 60).unwrap();
        assert_eq!(e.complete_cycle, 120);
        assert!(m.lookup(LineAddr::new(6), 60).is_none());
    }

    #[test]
    fn full_file_reports_earliest_free() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(1), 0, 100, None).unwrap();
        m.allocate(LineAddr::new(2), 0, 90, None).unwrap();
        assert_eq!(m.allocate(LineAddr::new(3), 0, 200, None), Err(90));
    }

    #[test]
    fn speculative_cancellation_only_hits_squashed_epochs() {
        let mut m = MshrFile::new(8);
        m.allocate(LineAddr::new(1), 0, 500, Some(SpecTag(1)))
            .unwrap();
        m.allocate(LineAddr::new(2), 0, 500, Some(SpecTag(2)))
            .unwrap();
        m.allocate(LineAddr::new(3), 0, 500, None).unwrap();
        let n = m.cancel_speculative(10, |t| t == SpecTag(1));
        assert_eq!(n, 1);
        assert_eq!(m.occupancy(10), 2);
        assert_eq!(m.cancelled_speculative(), 1);
    }

    #[test]
    fn cancel_lines_reports_which_entries_died() {
        let mut m = MshrFile::new(8);
        m.allocate(LineAddr::new(1), 0, 500, Some(SpecTag(1)))
            .unwrap();
        m.allocate(LineAddr::new(2), 0, 500, Some(SpecTag(2)))
            .unwrap();
        m.allocate(LineAddr::new(3), 0, 500, None).unwrap();
        let lines = m.cancel_speculative_lines(10, |t| t.0 >= 1);
        assert_eq!(lines, vec![LineAddr::new(1), LineAddr::new(2)]);
        assert_eq!(m.occupancy(10), 1);
    }

    #[test]
    fn metrics_reflect_file_state() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr::new(1), 0, 500, Some(SpecTag(1)))
            .unwrap();
        m.allocate(LineAddr::new(2), 0, 500, None).unwrap();
        m.cancel_speculative(10, |_| true);
        let mut reg = unxpec_telemetry::MetricsRegistry::new();
        m.record_metrics(&mut reg);
        assert_eq!(reg.counter("mshr.capacity"), 4);
        assert_eq!(reg.counter("mshr.peak_occupancy"), 2);
        assert_eq!(reg.counter("mshr.cancelled_speculative"), 1);
    }

    #[test]
    fn latest_safe_completion_ignores_speculative() {
        let mut m = MshrFile::new(8);
        m.allocate(LineAddr::new(1), 0, 300, Some(SpecTag(1)))
            .unwrap();
        assert_eq!(m.latest_safe_completion(0), None);
        m.allocate(LineAddr::new(2), 0, 250, None).unwrap();
        assert_eq!(m.latest_safe_completion(0), Some(250));
    }

    #[test]
    fn ledger_balances_across_allocate_retire_and_cancel() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr::new(1), 0, 50, None).unwrap();
        m.allocate(LineAddr::new(2), 0, 500, Some(SpecTag(1)))
            .unwrap();
        m.allocate(LineAddr::new(3), 0, 500, None).unwrap();
        assert!(m.verify_accounting().is_ok());
        m.occupancy(60); // retires line 1
        m.cancel_speculative(60, |_| true); // cancels line 2
        assert!(m.verify_accounting().is_ok());
        assert_eq!(m.allocated_total(), 3);
        assert_eq!(m.released_total(), 2);
    }

    /// The file without the retirement bound: every query scans.
    struct Reference {
        capacity: usize,
        entries: Vec<MshrEntry>,
        peak: usize,
        allocated: u64,
        released: u64,
    }

    impl Reference {
        fn retire(&mut self, now: Cycle) {
            let before = self.entries.len();
            self.entries.retain(|e| e.complete_cycle > now);
            self.released += (before - self.entries.len()) as u64;
        }

        fn earliest(&self, now: Cycle) -> Cycle {
            self.entries
                .iter()
                .map(|e| e.complete_cycle)
                .min()
                .unwrap_or(now)
        }
    }

    #[test]
    fn retirement_bound_matches_a_scanning_reference() {
        use unxpec_mem::seed::Xoshiro256pp;
        for seed in 0..64 {
            let mut rng = Xoshiro256pp::new(seed);
            let capacity = 1 + rng.below(6) as usize;
            let mut m = MshrFile::new(capacity);
            let mut r = Reference {
                capacity,
                entries: Vec::new(),
                peak: 0,
                allocated: 0,
                released: 0,
            };
            let mut now: Cycle = 0;
            for _ in 0..400 {
                // Time mostly creeps forward, sometimes jumps, and
                // sometimes a query repeats or revisits an older cycle.
                now = match rng.below(8) {
                    0 => now + rng.below(300),
                    1 => now.saturating_sub(rng.below(20)),
                    _ => now + rng.below(4),
                };
                let line = LineAddr::new(rng.below(8));
                match rng.below(5) {
                    0 => {
                        r.retire(now);
                        let want = r.entries.iter().copied().find(|e| e.line == line);
                        assert_eq!(m.lookup(line, now), want, "seed {seed}");
                    }
                    1 => {
                        let done = now + 1 + rng.below(200);
                        let spec = rng.gen_bool(0.5).then(|| SpecTag(1 + rng.below(4)));
                        r.retire(now);
                        let want = if r.entries.len() >= r.capacity {
                            Err(r.earliest(now))
                        } else {
                            r.entries.push(MshrEntry {
                                line,
                                complete_cycle: done,
                                spec,
                            });
                            r.allocated += 1;
                            r.peak = r.peak.max(r.entries.len());
                            Ok(())
                        };
                        assert_eq!(m.allocate(line, now, done, spec), want, "seed {seed}");
                    }
                    2 => {
                        let squashed = 1 + rng.below(4);
                        r.retire(now);
                        let before = r.entries.len();
                        r.entries.retain(|e| e.spec.is_none_or(|t| t.0 < squashed));
                        let n = before - r.entries.len();
                        r.released += n as u64;
                        assert_eq!(
                            m.cancel_speculative(now, |t| t.0 >= squashed),
                            n,
                            "seed {seed}"
                        );
                    }
                    3 => {
                        r.retire(now);
                        let want = if r.entries.len() < r.capacity {
                            now
                        } else {
                            r.earliest(now)
                        };
                        assert_eq!(m.next_free_cycle(now), want, "seed {seed}");
                    }
                    _ => {
                        r.retire(now);
                        assert_eq!(m.occupancy(now), r.entries.len(), "seed {seed}");
                    }
                }
                assert_eq!(m.peak_occupancy(), r.peak, "seed {seed}");
                assert_eq!(m.allocated_total(), r.allocated, "seed {seed}");
                assert_eq!(m.released_total(), r.released, "seed {seed}");
                assert!(m.verify_accounting().is_ok(), "seed {seed}");
            }
        }
    }

    #[test]
    fn entries_retire_on_completion() {
        let mut m = MshrFile::new(1);
        m.allocate(LineAddr::new(1), 0, 50, None).unwrap();
        assert_eq!(m.occupancy(49), 1);
        assert_eq!(m.occupancy(50), 0);
        assert_eq!(m.peak_occupancy(), 1);
    }
}
