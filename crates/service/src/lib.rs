//! A multi-tenant sweep job server with a persistent content-addressed
//! result cache.
//!
//! The crate holds the one trial scheduler. It turns the sweep harness
//! (`unxpec-harness`) into a long-running service: many clients submit
//! [`SweepSpec`] jobs over a line-delimited JSON TCP protocol, a
//! fair-share scheduler slices
//! their trials onto the harness's work-stealing pool round-robin
//! across tenants, and every trial result is keyed by a stable
//! [`cell_digest`](unxpec_harness::cell_digest) and persisted in an
//! on-disk cache — a repeated cell is a cache hit whose results are
//! byte-identical to a fresh run, across server restarts.
//!
//! Layering:
//!
//! * [`protocol`] — the wire format (`submit`/`status`/`results`/
//!   `stream`/`cancel`, versioned, typed errors, bounded frames).
//! * [`cache`] — the sharded, checksummed, LRU-bounded result store.
//! * [`journal`] — the durable write-ahead job journal that makes a
//!   `kill -9` cost zero completed trials.
//! * [`server`] — the scheduler, admission control, the [`Service`]
//!   API, and the [`TcpFront`] listener.
//! * [`sweep`] — [`run_sweep`], the `sweep` binary's engine: one spec
//!   submitted in process and driven to completion on the same
//!   scheduler, with checkpoint/resume from the journal and the cache.
//! * [`client`] — the blocking client plus the reconnecting
//!   [`ResilientClient`] the `sweep-client` binary uses.
//! * [`chaosproxy`] — a deterministic seed-driven network-fault proxy
//!   for torture-testing all of the above.
//!
//! A sweep is one in-process submission to the same scheduler:
//!
//! ```
//! use unxpec_harness::{Registry, SweepOptions, SweepSpec};
//! use unxpec_service::run_sweep;
//!
//! let mut spec = SweepSpec::quick();
//! spec.experiments = vec!["timeline".into()];
//! spec.seeds = 2;
//! let report = run_sweep(&spec, Registry::builtin(), &SweepOptions::default()).unwrap();
//! assert_eq!(report.results.len(), 4); // 2 variants x 2 seeds
//! assert!(report.poisoned.is_empty());
//! ```
//!
//! Everything is std-only and panic-free (clippy deny tables ban
//! `unwrap`/`expect`/`panic!` in lib code); failures surface as
//! [`ServiceError`] and map onto the workspace's 0/1/2 exit-code
//! convention in the binaries.
//!
//! [`SweepSpec`]: unxpec_harness::SweepSpec

#![warn(missing_docs)]

pub mod cache;
pub mod chaosproxy;
pub mod client;
pub mod error;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod sweep;

pub use cache::{CacheConfig, CacheStats, CellFailures, DigestedOutput, ResultCache};
pub use chaosproxy::{ChaosConfig, ChaosProxy, FaultKind};
pub use client::{Client, RemoteStatus, ResilientClient, Submitted};
pub use error::ServiceError;
pub use journal::{Journal, JournalRecord, JournalRecovery};
pub use protocol::{parse_request, parse_response, render_request, Request, PROTOCOL_VERSION};
pub use server::{AdmissionConfig, JobStatus, Service, ServiceConfig, TcpFront};
pub use sweep::{run_sweep, SweepError};
