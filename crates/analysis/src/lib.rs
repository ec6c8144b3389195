//! Static transient-leakage analyzer for the unXpec micro-ISA.
//!
//! Answers, *without running the simulator*: can this program leak a
//! secret through transient execution, and does a given defense close
//! the channel? The pipeline has four passes (see
//! `docs/static_analysis.md` for the worked derivation):
//!
//! 1. [`cfg`](mod@cfg) — a control-flow graph whose edges are everything the
//!    *front end* can fetch, including predictor-steered wrong paths
//!    (both branch arms, any BTB target, every RSB return site);
//! 2. [`window`] — per speculation source, the set of PCs reachable
//!    before the source can resolve, bounded by the ROB capacity of the
//!    configured core (`rob_entries + 2 * dispatch_width`);
//! 3. [`taint`] — a constant-set + taint dataflow fixpoint seeded from
//!    secret-labeled address regions, propagating through ALU results,
//!    address arithmetic, and load-to-load chains;
//! 4. [`verdict`] — per defense, whether a tainted-address load inside
//!    a speculative window is *observable*: as a leftover cache
//!    footprint (`Unsafe`), as secret-dependent rollback time
//!    (`CleanupSpec` — the unXpec channel), or not at all
//!    (`InvisiSpec`, `DelayOnMiss`, `ConstantTime`).
//!
//! The analyzer is cross-validated against the cycle simulator in
//! `tests/analysis.rs`: for every registered attack program its static
//! verdict must match the dynamically measured outcome, and a property
//! test checks the window pass over-approximates every transiently
//! executed instruction the core ever traces.
//!
//! # Example
//!
//! ```
//! use unxpec_analysis::{analyze, DefenseModel, SecretRegion};
//! use unxpec_cpu::{Cond, CoreConfig, ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new();
//! b.mov(Reg(1), 0x5000);
//! b.branch(Cond::Lt, Reg(9), 1u64, "done"); // mispredictable bounds check
//! b.load(Reg(2), Reg(1), 0); // transient secret read
//! b.shl(Reg(3), Reg(2), 6u64);
//! b.add(Reg(3), Reg(3), Reg(1));
//! b.load(Reg(4), Reg(3), 0); // secret-addressed transmit
//! b.label("done");
//! b.halt();
//! let program = b.build();
//!
//! let secrets = vec![SecretRegion {
//!     name: "SECRET".into(),
//!     base: 0x5000,
//!     len_bytes: 8,
//! }];
//! let analysis = analyze("example", &program, &secrets, &CoreConfig::table_i());
//! assert!(analysis.verdict(DefenseModel::CleanupSpec).is_leak());
//! assert!(!analysis.verdict(DefenseModel::ConstantTime).is_leak());
//! ```

pub mod cfg;
pub mod error;
pub mod paths;
pub mod replay;
pub mod taint;
pub mod verdict;
pub mod window;
pub mod witness;

pub use cfg::Cfg;
pub use error::AnalysisError;
pub use paths::{Assumption, RefinementStatus, SpecPath, TransmitterRefinement};
pub use replay::{
    check_witness, defense_for, refute_clean, replay_program, replay_registry, ProgramReplay,
    RefutationSweep, ReplayConfig, ReplayReport, WitnessCheck,
};
pub use taint::{
    taint_analysis, taint_analysis_with, AbsState, AbsValue, AnalysisConfig, SecretRegion,
    TaintResult, Transmitter,
};
pub use verdict::{
    analyze, analyze_with, document, Channel, DefenseModel, LeakReport, ProgramAnalysis, Verdict,
    WindowedTransmitter,
};
pub use window::{speculative_windows, window_bound, SpecKind, SpecWindow};
pub use witness::{extract, LeakWitness, PredictedObservable, FALLBACK_PAIRS};
