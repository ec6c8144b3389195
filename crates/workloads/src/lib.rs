//! Synthetic SPEC-CPU-2017-like workloads.
//!
//! The paper's Fig. 12 measures the overhead of constant-time rollback
//! on the (license-protected) SPEC CPU 2017 suite. These kernels stand
//! in for it: each is a small micro-ISA loop with a calibrated branch-
//! misprediction profile and cache footprint, named after the SPEC rate
//! benchmark whose behaviour it caricatures. What Fig. 12 actually
//! measures — how often the core squashes, and therefore how much a
//! per-squash constant stall costs — is reproduced by construction; see
//! DESIGN.md for the substitution rationale.
//!
//! # Examples
//!
//! ```
//! use unxpec_workloads::{spec2017_like_suite, Workload};
//! use unxpec_cpu::{Core, UnsafeBaseline};
//!
//! let suite = spec2017_like_suite();
//! assert!(suite.len() >= 10);
//! let mut core = Core::table_i();
//! let w = &suite[0];
//! let cycles = w.measure(&mut core, 2_000, 10_000);
//! assert!(cycles > 0);
//! ```

mod kernels;
mod runner;

pub use kernels::{fast_forward_friendly_suite, spec2017_like_suite, KernelSpec, Workload};
pub use runner::{arith_mean_overhead, mean_overhead, OverheadRow};
