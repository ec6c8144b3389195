//! The unXpec attack (HPCA 2022) against Undo-based safe speculation.
//!
//! unXpec breaks CleanupSpec-style Undo defenses by measuring the time
//! their rollback takes. A sender encodes a secret bit into transient
//! loads inside a mispredicted branch:
//!
//! * secret = 0 — the in-branch loads all hit `P[0]`, which the receiver
//!   cached in the preparation stage: no cache state changes, nothing to
//!   roll back, cleanup is (almost) free;
//! * secret = 1 — the loads all miss (`P[64·k]` was flushed) and install
//!   transient lines, which CleanupSpec must invalidate — and, when
//!   eviction sets have primed the target sets, whose victims it must
//!   restore from L2.
//!
//! The receiver brackets the mis-speculated branch with `rdtscp`-style
//! timestamps (after a memory fence that zeroes the T4 wait) and decodes
//! the bit from the latency.
//!
//! This crate builds the attack programs in the simulator's micro-ISA
//! and drives the whole campaign:
//!
//! * [`UnxpecChannel`] — calibration, thresholding, single-sample /
//!   majority-vote / Hamming-ECC decoding;
//! * [`MultiLevelChannel`] — a 2-bits-per-round 4-level extension;
//! * eviction sets by address arithmetic ([`congruent_addresses`]) and
//!   blind timing search ([`find_eviction_set`]);
//! * alternative triggers: [`SpectreV2`] (BTB poisoning) and
//!   [`SpectreRsb`] (return misprediction) — the channel is
//!   trigger-agnostic;
//! * the baseline the defenses are validated against: classic
//!   Spectre v1 ([`SpectreV1`]);
//! * the [`registry()`] of named attack programs and the benign corpus
//!   ([`benign_registry`]) that the static analyzer is checked against.
//!
//! # Examples
//!
//! ```
//! use unxpec_attack::{AttackConfig, UnxpecChannel};
//! use unxpec_defense::CleanupSpec;
//!
//! let mut chan = UnxpecChannel::new(AttackConfig::default(), Box::new(CleanupSpec::new()));
//! let cal = chan.calibrate(40);
//! assert!(cal.mean_difference() > 10.0, "rollback channel must exist");
//! ```

pub mod benign;
mod channel;
mod config;
mod ecc;
mod eviction;
mod layout;
mod multilevel;
pub mod registry;
mod sender;
mod spectre;
mod spectre_rsb;
mod spectre_v2;

pub use benign::{benign_registry, find_benign};
pub use channel::{Calibration, LeakOutcome, MeasurementNoise, RoundObservation, UnxpecChannel};
pub use config::AttackConfig;
pub use ecc::{decode_bytes, encode_bytes, hamming74_decode, hamming74_encode};
pub use eviction::{congruent_addresses, find_eviction_set, probe_latency};
pub use layout::{AttackLayout, MAX_CHAIN, MAX_LOADS};
pub use multilevel::{LevelCalibration, MultiLevelChannel};
pub use registry::{find, registry, ProgramSpec, TriggerKind, WitnessShape};
pub use sender::{build_round_program, RoundRegs};
pub use spectre::{SpectreOutcome, SpectreV1};
pub use spectre_rsb::SpectreRsb;
pub use spectre_v2::{SpectreV2, V2Observation};
