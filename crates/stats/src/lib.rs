//! Statistics utilities for the unxpec experiment harness.
//!
//! Everything the paper's evaluation needs to turn raw cycle
//! measurements into its figures lives here:
//!
//! * [`Summary`] — mean/std/percentiles of a sample set;
//! * [`Kde`] — Gaussian kernel density estimation (the paper estimates
//!   its Fig. 7/8 probability density functions with KDE);
//! * [`best_threshold`] and [`midpoint_threshold`] — decision-threshold
//!   selection between two latency distributions;
//! * [`Confusion`] — bit-decoding accuracy accounting (Figs. 10/11);
//! * [`Histogram`] and [`ascii`] — text rendering so the bench harness
//!   can print the same series the paper plots;
//! * [`svg`] — dependency-free SVG figure rendering for
//!   `experiments --svg`.

pub mod ascii;
pub mod svg;

mod accuracy;
mod histogram;
mod kde;
mod summary;
mod threshold;

pub use accuracy::Confusion;
pub use histogram::Histogram;
pub use kde::Kde;
pub use summary::{percentile, Summary};
pub use threshold::{best_threshold, midpoint_threshold};
