//! Parallel experiment harness: sharded sweeps with deterministic
//! seeding, checkpoint/resume, and fault containment.
//!
//! The paper's evaluation is a grid: experiment × channel variant ×
//! scale × seed. Rerunning that grid serially after every simulator
//! change is the slowest loop in the workspace, and a single panicking
//! trial used to take the whole run down with it. This crate turns the
//! grid into a declarative [`SweepSpec`] and executes it on a
//! work-stealing [`pool`] of `std::thread` workers (the vendored stub
//! crates have no rayon, so the pool is hand-rolled on an injector
//! queue plus per-worker deques):
//!
//! * **Deterministic sharding** — every trial's RNG seed is derived
//!   from the sweep's root seed and the trial's *identity*
//!   (`experiment/variant/seed-index`) via
//!   [`unxpec::experiments::seeding`], never from execution order, so
//!   an N-way parallel sweep reproduces a serial run bit for bit.
//! * **Fault containment** — each trial runs under
//!   [`std::panic::catch_unwind`] with a bounded retry budget; a
//!   panicking trial is reported as *poisoned* with its panic message
//!   while the rest of the sweep completes.
//! * **Checkpoint/resume** — each finished trial appends one
//!   checksummed line (key, digest, rendered output, metrics) to the
//!   [`manifest`] log, a [`durable`] file; rerunning with the same spec
//!   skips completed trials and splices their recorded results back
//!   into the aggregates.
//! * **Observability** — the pool emits one wall-clock [`Span`] per
//!   trial attempt (one track per worker) for
//!   [`unxpec_telemetry::spans_to_chrome_json`], plus queue-depth,
//!   steal, retry, and utilization counters.
//!
//! ```
//! use unxpec_harness::{run_sweep, Registry, SweepOptions, SweepSpec};
//!
//! let mut spec = SweepSpec::quick();
//! spec.experiments = vec!["timeline".into()];
//! spec.seeds = 2;
//! let report = run_sweep(&spec, &Registry::builtin(), &SweepOptions::default()).unwrap();
//! assert_eq!(report.results.len(), 4); // 2 variants x 2 seeds
//! assert!(report.poisoned.is_empty());
//! ```
//!
//! [`Span`]: unxpec_telemetry::Span

pub mod digest;
pub mod durable;
pub mod experiment;
pub mod manifest;
pub mod pool;
pub mod profiler;
pub mod registry;
pub mod spec;
pub mod sweep;

pub use digest::{
    canonical_digest, cell_digest, submission_digest, DIGEST_VERSION, SIMULATOR_VERSION,
};
pub use experiment::{output_digest, Experiment, FnExperiment, TrialCtx, TrialOutput};
pub use manifest::{
    CompletedTrial, FailedTrial, Manifest, ManifestRecord, PoisonedTrial, QuarantinedTrial,
    TimedOutTrial,
};
pub use pool::{
    default_jobs, run_tasks, run_tasks_with, PoolStats, RunPolicy, TaskEvent, TaskOutcome,
    TaskTiming,
};
pub use profiler::SelfProfiler;
pub use registry::Registry;
pub use spec::{SweepSpec, Trial};
pub use sweep::{
    aggregate, run_sweep, Aggregate, SweepError, SweepOptions, SweepReport, TrialResult, WorkerLoad,
};
