//! Cycle-level out-of-order core with speculative execution.
//!
//! This crate provides the CPU half of the simulator substrate the unXpec
//! reproduction runs on: a small micro-ISA ([`Inst`]), an assembler
//! ([`ProgramBuilder`]), branch predictors, and the speculative core
//! ([`Core`]) that executes programs against a
//! [`unxpec_cache::CacheHierarchy`] while collecting the squash records
//! ([`SquashRecord`]) the paper's experiments are built from.
//!
//! [`arch::step`] is the micro-ISA's one architectural semantics, the
//! one the functional interpreters outside the detailed core (witness
//! extraction, the fast-forward core's fallback) step through, and, in
//! an abstract value domain ([`ArchDomain`]), the static taint analysis.
//!
//! Safe-speculation defenses plug in through the [`Defense`] trait; the
//! baseline [`UnsafeBaseline`] leaves transient cache footprints in place
//! (Spectre-vulnerable), while `unxpec-defense` provides CleanupSpec and
//! its variants.
//!
//! # Examples
//!
//! ```
//! use unxpec_cpu::{Core, ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new();
//! b.mov(Reg(1), 21);
//! b.add(Reg(2), Reg(1), Reg(1));
//! b.halt();
//! let result = Core::table_i().run(&b.build());
//! assert_eq!(result.reg(Reg(2)), 42);
//! ```

pub mod arch;
mod asm;
mod config;
mod core;
mod defense;
mod isa;
mod predictor;
mod program;
mod sanitizer;
mod stats;
mod trace;

pub use crate::core::{Core, ExecMode, RunResult};
pub use arch::{ArchDomain, ArchMem, Flow};
pub use asm::{parse_asm, ParseAsmError};
pub use config::CoreConfig;
pub use defense::{Defense, FillPolicy, SquashInfo, UnsafeBaseline};
pub use isa::{AluOp, Cond, Inst, Operand, PcIndex, Reg, NUM_REGS};
pub use predictor::{
    AlwaysTaken, BimodalPredictor, BranchPredictor, Btb, GsharePredictor, NeverTaken,
    ReturnStackBuffer,
};
pub use program::{AsmError, Program, ProgramBuilder};
pub use sanitizer::{InvariantViolation, RollbackCheck, Sanitizer, SanitizerConfig};
pub use stats::{RunStats, SquashRecord};
pub use trace::{ExecTrace, TraceEvent};

pub use unxpec_cache::Cycle;
