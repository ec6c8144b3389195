//! Runtime invariant sanitizer: an optional checking layer over the
//! cycle loop.
//!
//! The simulator's correctness rests on a handful of structural
//! invariants — the incremental cache-occupancy counters match a recount,
//! every allocated MSHR entry is eventually released, the ROB release
//! queue is monotone, the ROB head keeps retiring, and an exact-rollback
//! defense really does leave the caches as if the transient loads never
//! ran. In normal operation these hold by construction; under fault
//! injection (see `unxpec_cache::FaultInjector`) or a seeded mutation
//! they can be violated, and the sanitizer's job is to turn such a
//! violation into a *typed*, reportable [`InvariantViolation`] instead of
//! silently-wrong results or an unbounded stall.
//!
//! The sanitizer is opt-in (`Core::set_sanitizer`) and purely
//! observational: with it enabled and no faults injected, runs are
//! byte-identical to runs without it. Checks run at squash boundaries and
//! at run end — never per instruction — so the checked configuration
//! stays cheap enough for CI sweeps.

use std::fmt;

use unxpec_cache::Cycle;

use crate::isa::PcIndex;

/// Which rollback-exactness property failed (see
/// [`InvariantViolation::RollbackMismatch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackCheck {
    /// A line installed by a squashed load still carries a squashed
    /// speculation tag.
    TagRemains,
    /// A line installed by a squashed load is still resident after the
    /// defense claimed exact rollback.
    InstallSurvived,
    /// A non-speculative victim evicted by a squashed load was not
    /// restored.
    VictimLost,
}

impl RollbackCheck {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RollbackCheck::TagRemains => "tag_remains",
            RollbackCheck::InstallSurvived => "install_survived",
            RollbackCheck::VictimLost => "victim_lost",
        }
    }
}

/// A violated runtime invariant, reported as a typed error rather than a
/// panic or a hang.
///
/// Every variant has a stable numeric [`code`](InvariantViolation::code)
/// used by the `Event::InvariantTrip` telemetry event, so traces remain
/// decodable without this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A cache's incremental occupancy counter disagrees with a full
    /// recount of its valid slots (code 1).
    OccupancyMismatch {
        /// Cache level (1 = L1D, 2 = L2).
        level: u8,
        /// The incremental counter's value.
        counted: usize,
        /// The ground-truth recount.
        recounted: usize,
    },
    /// The MSHR allocate/release ledger does not balance against the
    /// live entry list, or occupancy exceeds capacity (code 2).
    MshrLeak {
        /// Lifetime allocations.
        allocated: u64,
        /// Lifetime releases (retirements + cancellations).
        released: u64,
        /// Entries currently live.
        live: usize,
    },
    /// The ROB release queue went non-monotone: a younger instruction
    /// would retire before an older one (code 3).
    RobOrder {
        /// The older entry's release cycle.
        prev: Cycle,
        /// The younger entry's (earlier!) release cycle.
        next: Cycle,
    },
    /// The ROB head failed to retire within the configured budget — the
    /// typed form of what would otherwise be a wedged, non-terminating
    /// run (code 4).
    Livelock {
        /// PC the front end was stuck at.
        pc: PcIndex,
        /// Release cycle of the ROB head everyone is waiting on.
        rob_head: Cycle,
        /// How far in the future that release lies.
        cycles_stalled: Cycle,
    },
    /// An exact-rollback defense left the caches in a state inconsistent
    /// with "the transient loads never ran" (code 5).
    RollbackMismatch {
        /// The line whose post-rollback state is wrong.
        line: u64,
        /// Which exactness property failed.
        which: RollbackCheck,
    },
}

impl InvariantViolation {
    /// Stable numeric code, mirrored into `Event::InvariantTrip`.
    pub fn code(&self) -> u64 {
        match self {
            InvariantViolation::OccupancyMismatch { .. } => 1,
            InvariantViolation::MshrLeak { .. } => 2,
            InvariantViolation::RobOrder { .. } => 3,
            InvariantViolation::Livelock { .. } => 4,
            InvariantViolation::RollbackMismatch { .. } => 5,
        }
    }

    /// Short snake_case name (trial output and diagnostics keys).
    pub fn name(&self) -> &'static str {
        match self {
            InvariantViolation::OccupancyMismatch { .. } => "occupancy_mismatch",
            InvariantViolation::MshrLeak { .. } => "mshr_leak",
            InvariantViolation::RobOrder { .. } => "rob_order",
            InvariantViolation::Livelock { .. } => "livelock",
            InvariantViolation::RollbackMismatch { .. } => "rollback_mismatch",
        }
    }

    /// One `u64` of variant-specific detail for the telemetry event:
    /// packed counter values, the stalled-for cycle count, or the
    /// offending line address.
    pub fn detail(&self) -> u64 {
        match *self {
            InvariantViolation::OccupancyMismatch {
                counted, recounted, ..
            } => ((counted as u64) << 32) | (recounted as u64 & 0xffff_ffff),
            InvariantViolation::MshrLeak {
                allocated,
                released,
                ..
            } => (allocated << 32) | (released & 0xffff_ffff),
            InvariantViolation::RobOrder { next, .. } => next,
            InvariantViolation::Livelock { cycles_stalled, .. } => cycles_stalled,
            InvariantViolation::RollbackMismatch { line, .. } => line,
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InvariantViolation::OccupancyMismatch {
                level,
                counted,
                recounted,
            } => write!(
                f,
                "L{level} occupancy counter {counted} disagrees with recount {recounted}"
            ),
            InvariantViolation::MshrLeak {
                allocated,
                released,
                live,
            } => write!(
                f,
                "MSHR ledger imbalance: {allocated} allocated, {released} released, {live} live"
            ),
            InvariantViolation::RobOrder { prev, next } => {
                write!(f, "ROB release queue non-monotone: {next} after {prev}")
            }
            InvariantViolation::Livelock {
                pc,
                rob_head,
                cycles_stalled,
            } => write!(
                f,
                "livelock at pc {pc}: ROB head retires at {rob_head}, \
                 {cycles_stalled} cycles past the watchdog budget"
            ),
            InvariantViolation::RollbackMismatch { line, which } => write!(
                f,
                "rollback not exact for line {:#x}: {}",
                line,
                which.name()
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Configuration for the sanitizer's checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// Retirement forward-progress budget: if the ROB head's release lies
    /// more than this many cycles in the future, the run ends in a typed
    /// [`InvariantViolation::Livelock`]. `0` disables the watchdog.
    pub livelock_budget: Cycle,
    /// Recount cache occupancy against the incremental counters.
    pub check_occupancy: bool,
    /// Check the MSHR allocate/release ledger.
    pub check_mshr: bool,
    /// Check ROB release-queue monotonicity.
    pub check_rob: bool,
    /// Run the rollback-exactness oracle after every squash (only
    /// meaningful when the active defense claims
    /// [`crate::Defense::rollback_exact`]).
    pub check_rollback: bool,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig {
            // Generous against real workloads (the longest legitimate
            // stall is a memory round trip plus queueing, well under
            // 10^4 cycles) yet far below a wedged fill's 2^30.
            livelock_budget: 1_000_000,
            check_occupancy: true,
            check_mshr: true,
            check_rob: true,
            check_rollback: true,
        }
    }
}

/// Sanitizer state held by the core: the configuration, how many check
/// passes ran, and the first violation observed (later checks are
/// skipped once tripped — the machine state is already suspect).
#[derive(Debug, Clone)]
pub struct Sanitizer {
    cfg: SanitizerConfig,
    checks_run: u64,
    trip: Option<InvariantViolation>,
}

impl Sanitizer {
    /// A sanitizer with `cfg`.
    pub fn new(cfg: SanitizerConfig) -> Self {
        Sanitizer {
            cfg,
            checks_run: 0,
            trip: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SanitizerConfig {
        &self.cfg
    }

    /// Whether a violation has been recorded.
    pub fn tripped(&self) -> bool {
        self.trip.is_some()
    }

    /// The first recorded violation, if any.
    pub fn trip(&self) -> Option<&InvariantViolation> {
        self.trip.as_ref()
    }

    /// Removes and returns the recorded violation.
    pub fn take_trip(&mut self) -> Option<InvariantViolation> {
        self.trip.take()
    }

    /// Records `violation` if none is recorded yet; returns whether it
    /// was stored (i.e. it is the first).
    pub fn note(&mut self, violation: InvariantViolation) -> bool {
        if self.trip.is_none() {
            self.trip = Some(violation);
            true
        } else {
            false
        }
    }

    /// Counts one completed check pass (structural checks or oracle).
    pub fn record_check(&mut self) {
        self.checks_run += 1;
    }

    /// How many check passes have run.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Clears the trip (kept across runs otherwise, so a violation in
    /// run N is still visible before run N+1 starts).
    pub fn reset(&mut self) {
        self.trip = None;
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let violations = [
            InvariantViolation::OccupancyMismatch {
                level: 1,
                counted: 3,
                recounted: 4,
            },
            InvariantViolation::MshrLeak {
                allocated: 10,
                released: 8,
                live: 1,
            },
            InvariantViolation::RobOrder { prev: 9, next: 5 },
            InvariantViolation::Livelock {
                pc: 7,
                rob_head: 1 << 30,
                cycles_stalled: 1 << 30,
            },
            InvariantViolation::RollbackMismatch {
                line: 0x40,
                which: RollbackCheck::InstallSurvived,
            },
        ];
        let codes: Vec<u64> = violations.iter().map(InvariantViolation::code).collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5]);
        for v in &violations {
            assert!(!v.name().is_empty());
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn note_keeps_only_the_first_violation() {
        let mut s = Sanitizer::new(SanitizerConfig::default());
        assert!(!s.tripped());
        assert!(s.note(InvariantViolation::RobOrder { prev: 2, next: 1 }));
        assert!(!s.note(InvariantViolation::RobOrder { prev: 9, next: 3 }));
        assert_eq!(
            s.trip(),
            Some(&InvariantViolation::RobOrder { prev: 2, next: 1 })
        );
        s.reset();
        assert!(!s.tripped());
    }

    #[test]
    fn detail_packs_variant_specific_numbers() {
        let v = InvariantViolation::OccupancyMismatch {
            level: 1,
            counted: 3,
            recounted: 4,
        };
        assert_eq!(v.detail(), (3 << 32) | 4);
        let l = InvariantViolation::Livelock {
            pc: 0,
            rob_head: 100,
            cycles_stalled: 42,
        };
        assert_eq!(l.detail(), 42);
    }

    #[test]
    fn default_budget_sits_between_workloads_and_wedges() {
        let cfg = SanitizerConfig::default();
        assert!(cfg.livelock_budget >= 100_000);
        assert!(cfg.livelock_budget < 1 << 30);
    }
}
