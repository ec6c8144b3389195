//! The micro-ISA executed by the simulated core.
//!
//! The instruction set is deliberately small — just enough to express the
//! paper's attack code (Algorithms 1 and 2, the unXpec sender/receiver)
//! and the synthetic workloads: ALU ops, loads/stores, `clflush`-style
//! flushes, memory fences, an attacker-readable cycle counter (`rdtscp`),
//! and conditional branches that go through the branch predictor.

use std::fmt;

/// Number of architectural registers.
pub const NUM_REGS: usize = 32;

/// An architectural register `r0..r31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Index into the register file.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A register or immediate operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(u64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u64> for Operand {
    fn from(i: u64) -> Self {
        Operand::Imm(i)
    }
}

/// ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (longer latency).
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical left shift.
    Shl,
    /// Logical right shift.
    Shr,
}

impl AluOp {
    /// Applies the operation.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32),
            AluOp::Shr => a.wrapping_shr(b as u32),
        }
    }
}

/// Branch condition comparing a register with an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// `a < b` (unsigned).
    Lt,
    /// `a >= b` (unsigned).
    Ge,
    /// `a == b`.
    Eq,
    /// `a != b`.
    Ne,
}

impl Cond {
    /// Evaluates the condition.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
            Cond::Eq => a == b,
            Cond::Ne => a != b,
        }
    }
}

/// A resolved branch target: an index into the program.
pub type PcIndex = usize;

/// One micro-instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// `dst = imm`.
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// `dst = a <op> b`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left source.
        a: Reg,
        /// Right source.
        b: Operand,
    },
    /// `dst = mem[base + offset]` (8-byte load through the D-cache).
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Byte displacement.
        offset: i64,
    },
    /// `mem[base + offset] = src` (committed stores only touch memory
    /// and caches at commit, like a real store buffer).
    Store {
        /// Value to store.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte displacement.
        offset: i64,
    },
    /// `clflush` of the line containing `base + offset`.
    Flush {
        /// Base address register.
        base: Reg,
        /// Byte displacement.
        offset: i64,
    },
    /// Memory fence: younger instructions do not dispatch until every
    /// older memory operation has completed (the paper's trick for
    /// zeroing out T4 of the cleanup timeline).
    Fence,
    /// `dst = current cycle` — an `rdtscp`-like serializing timer read
    /// that waits for all older instructions to complete.
    ReadTime {
        /// Destination register.
        dst: Reg,
    },
    /// Conditional branch, predicted by the branch predictor.
    Branch {
        /// Condition code.
        cond: Cond,
        /// Left comparand.
        a: Reg,
        /// Right comparand.
        b: Operand,
        /// Target when the condition holds.
        target: PcIndex,
    },
    /// Unconditional jump.
    Jump {
        /// Target.
        target: PcIndex,
    },
    /// Indirect jump: the target PC is the value of a register. The
    /// front end predicts it through the BTB — the Spectre-v2 attack
    /// surface.
    JumpInd {
        /// Register holding the target PC.
        target: Reg,
    },
    /// Call: pushes the return address onto the in-memory stack at
    /// `[sp - 8]` (decrementing `sp`), pushes it onto the return stack
    /// buffer, and jumps to `target`.
    Call {
        /// Static call target.
        target: PcIndex,
        /// Stack-pointer register.
        sp: Reg,
    },
    /// Return: loads the return address from `[sp]` (incrementing
    /// `sp`). The front end predicts through the return stack buffer —
    /// the SpectreRSB / ret2spec attack surface: if the architectural
    /// return address diverges from the RSB, speculation runs at the
    /// stale predicted site.
    Ret {
        /// Stack-pointer register.
        sp: Reg,
    },
    /// No operation (pipeline filler).
    Nop,
    /// Stops the program.
    Halt,
}

impl Inst {
    /// Whether this instruction reads or writes memory.
    pub fn is_memory(self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Store { .. } | Inst::Flush { .. }
        )
    }

    /// Whether the front end opens a speculation frame at this
    /// instruction: conditional branches (the predictor), indirect jumps
    /// (the BTB), and returns (the RSB) all execute younger instructions
    /// before their real target is known.
    pub fn is_speculation_source(self) -> bool {
        matches!(
            self,
            Inst::Branch { .. } | Inst::JumpInd { .. } | Inst::Ret { .. }
        )
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::MovImm { dst, imm } => write!(f, "mov {dst}, {imm:#x}"),
            Inst::Alu { op, dst, a, b } => write!(f, "{op:?} {dst}, {a}, {b}").map(|_| ()),
            Inst::Load { dst, base, offset } => write!(f, "load {dst}, [{base}{offset:+}]"),
            Inst::Store { src, base, offset } => write!(f, "store [{base}{offset:+}], {src}"),
            Inst::Flush { base, offset } => write!(f, "clflush [{base}{offset:+}]"),
            Inst::Fence => write!(f, "mfence"),
            Inst::ReadTime { dst } => write!(f, "rdtscp {dst}"),
            Inst::Branch { cond, a, b, target } => {
                write!(f, "b{cond:?} {a}, {b} -> @{target}")
            }
            Inst::Jump { target } => write!(f, "jmp @{target}"),
            Inst::JumpInd { target } => write!(f, "jmp [{target}]"),
            Inst::Call { target, sp } => write!(f, "call @{target}, {sp}"),
            Inst::Ret { sp } => write!(f, "ret {sp}"),
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX);
        assert_eq!(AluOp::Mul.apply(1 << 40, 1 << 40), 0); // wraps
        assert_eq!(AluOp::Shl.apply(1, 6), 64);
        assert_eq!(AluOp::Shr.apply(128, 3), 16);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn cond_semantics() {
        assert!(Cond::Lt.eval(1, 2));
        assert!(!Cond::Lt.eval(2, 2));
        assert!(Cond::Ge.eval(2, 2));
        assert!(Cond::Eq.eval(7, 7));
        assert!(Cond::Ne.eval(7, 8));
    }

    #[test]
    fn classification() {
        assert!(Inst::Load {
            dst: Reg(0),
            base: Reg(1),
            offset: 0
        }
        .is_memory());
        assert!(!Inst::Nop.is_memory());
    }

    #[test]
    fn speculation_sources_are_the_predicted_control_flow() {
        assert!(Inst::Branch {
            cond: Cond::Lt,
            a: Reg(0),
            b: Operand::Imm(1),
            target: 0,
        }
        .is_speculation_source());
        assert!(Inst::JumpInd { target: Reg(1) }.is_speculation_source());
        assert!(Inst::Ret { sp: Reg(30) }.is_speculation_source());
        assert!(!Inst::Jump { target: 0 }.is_speculation_source());
        assert!(!Inst::Call {
            target: 0,
            sp: Reg(30)
        }
        .is_speculation_source());
        assert!(!Inst::Halt.is_speculation_source());
    }

    #[test]
    fn display_is_nonempty() {
        let insts = [
            Inst::MovImm {
                dst: Reg(1),
                imm: 5,
            },
            Inst::Fence,
            Inst::Halt,
            Inst::Branch {
                cond: Cond::Lt,
                a: Reg(0),
                b: Operand::Imm(4),
                target: 9,
            },
        ];
        for i in insts {
            assert!(!format!("{i}").is_empty());
        }
    }
}
