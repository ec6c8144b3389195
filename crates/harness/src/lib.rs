//! Parallel experiment harness: declarative sweeps with deterministic
//! seeding, fault containment, and their durable record format.
//!
//! The paper's evaluation is a grid: experiment × channel variant ×
//! scale × seed. Rerunning that grid serially after every simulator
//! change is the slowest loop in the workspace, and a single panicking
//! trial used to take the whole run down with it. This crate turns the
//! grid into a declarative [`SweepSpec`] and supplies what every trial
//! engine needs to execute it on a work-stealing [`pool`] of
//! `std::thread` workers (the vendored stub crates have no rayon, so
//! the pool is hand-rolled on an injector queue plus per-worker
//! deques). The one engine that schedules trials is the service
//! scheduler in `unxpec-service`; its `run_sweep` submits a spec in
//! process and fills in this crate's [`SweepReport`].
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
//! * **Stable identities** — [`cell_digest`] addresses a trial's
//!   result by exactly the inputs that determine it, and the
//!   [`durable`] record log persists the service's journal and result
//!   cache, which is where a sweep's checkpoint/resume lives.
//! * **Observability** — the pool emits one wall-clock [`Span`] per
//!   trial attempt (one track per worker) for
//!   [`unxpec_telemetry::spans_to_chrome_json`], plus queue-depth,
//!   steal, retry, and utilization counters.
//!
//! ```
//! use unxpec_harness::{Registry, SweepSpec};
//!
//! let mut spec = SweepSpec::quick();
//! spec.experiments = vec!["timeline".into()];
//! spec.seeds = 2;
//! let trials = spec.enumerate(&Registry::builtin()).unwrap();
//! assert_eq!(trials.len(), 4); // 2 variants x 2 seeds
//! assert_eq!(trials[0].key, "timeline/no-es/s0");
//! // The text a sweep submits to the service parses back to the spec.
//! assert_eq!(SweepSpec::parse(&spec.render().unwrap()), Ok(spec));
//! ```
//!
//! [`Span`]: unxpec_telemetry::Span

pub mod digest;
pub mod durable;
pub mod experiment;
pub mod pool;
pub mod profiler;
pub mod registry;
pub mod spec;
pub mod sweep;

pub use digest::{
    canonical_digest, cell_digest, submission_digest, DIGEST_VERSION, SIMULATOR_VERSION,
};
pub use experiment::{output_digest, Experiment, FnExperiment, TrialCtx, TrialOutput};
pub use pool::{
    default_jobs, run_tasks_with, PoolStats, RunPolicy, TaskEvent, TaskOutcome, TaskTiming,
};
pub use profiler::SelfProfiler;
pub use registry::Registry;
pub use spec::{SweepSpec, Trial};
pub use sweep::{
    aggregate, aggregate_digest, Aggregate, FailedTrial, PoisonedTrial, QuarantinedTrial,
    SweepOptions, SweepReport, TimedOutTrial, TrialResult, WorkerLoad,
};
