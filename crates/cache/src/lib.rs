//! Two-level cache hierarchy simulator for the unxpec reproduction.
//!
//! The hierarchy mirrors the configuration the unXpec paper evaluates on
//! (Table I of the paper): private L1 I/D caches and a shared L2, 64-byte
//! lines, 2 GHz clock, ~50 ns memory round trip after L2. On top of the
//! plain geometry it implements the mechanisms the CleanupSpec defense and
//! the unXpec attack rely on:
//!
//! * **Speculative fill tagging** — every line installed by a speculative
//!   load carries the [`SpecTag`] of the speculation epoch, and every fill
//!   reports an [`Effect`] describing the exact `(set, way)` it occupied
//!   and the victim it displaced, so an Undo defense can roll the state
//!   back precisely.
//! * **Random replacement** in L1 (CleanupSpec mandates it to close
//!   replacement-state channels), with LRU available for ablations.
//! * **NoMo way partitioning** of the L1 between hardware threads.
//! * **CEASER-style keyed index randomization** in the L2.
//! * **MSHRs** with miss merging and speculative-entry cancellation
//!   (CleanupSpec's T3 step).
//! * A **noise model** injecting memory-latency jitter so experiment
//!   distributions have realistic spread.
//!
//! # Examples
//!
//! ```
//! use unxpec_cache::{CacheHierarchy, HierarchyConfig};
//! use unxpec_mem::Addr;
//!
//! let mut hier = CacheHierarchy::new(HierarchyConfig::table_i(), 1);
//! let line = Addr::new(0x4000).line();
//! let miss = hier.access_data(line, 0, None);
//! let hit = hier.access_data(line, miss.complete_cycle, None);
//! // The second access hits in L1 and is far cheaper than the cold miss.
//! assert!(hit.latency() < miss.latency());
//! ```

mod cache;
mod ceaser;
mod config;
mod effects;
mod error;
mod fault;
mod hierarchy;
mod line;
mod mshr;
mod noise;
mod nomo;
mod replacement;
mod stats;

pub use cache::{Cache, InsertOutcome};
pub use ceaser::CeaserMapper;
pub use config::{CacheConfig, HierarchyConfig};
pub use effects::{AccessOutcome, Effect, Effects, ExternalProbe, HitLevel, Victim};
pub use error::CacheError;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultRecord};
pub use hierarchy::CacheHierarchy;
pub use line::{CoherenceState, LineMeta, SpecTag};
pub use mshr::{MshrEntry, MshrFile};
pub use noise::NoiseModel;
pub use nomo::NomoPartition;
pub use replacement::{
    new_policy, LruPolicy, RandomPolicy, ReplacementKind, ReplacementPolicy, TreePlruPolicy,
};
pub use stats::CacheStats;

/// Simulator cycle count. The simulated clock runs at 2 GHz (Table I), so
/// one cycle is 0.5 ns.
pub type Cycle = u64;
