//! Architectural semantics of the micro-ISA: what one instruction does
//! to the register file, memory and control flow when it commits, with
//! no pipeline, caches or speculation.
//!
//! [`step`] is the one definition the functional interpreters build
//! on: witness extraction in `unxpec-analysis` steps programs and wrong
//! paths through it, and the fast-forward core steps its fences, jumps
//! and calls through it while its pre-decoded ALU µops use the same
//! [`AluOp::apply`](crate::AluOp::apply). The timing-bound detailed
//! core keeps its own dispatch; `tests/reference_interpreter.rs` holds
//! the independent oracle that checks both against each other.

use unxpec_mem::{Addr, Memory};

use crate::isa::{Inst, Operand, PcIndex, Reg, NUM_REGS};

/// Architectural memory as [`step`] sees it: 8-byte words at
/// word-aligned byte addresses (callers pass addresses already masked
/// with `& !7`).
pub trait ArchMem {
    /// Reads the word at `addr`.
    fn read_u64(&mut self, addr: u64) -> u64;
    /// Writes the word at `addr`.
    fn write_u64(&mut self, addr: u64, value: u64);
}

impl ArchMem for Memory {
    fn read_u64(&mut self, addr: u64) -> u64 {
        Memory::read_u64(self, Addr::new(addr))
    }

    fn write_u64(&mut self, addr: u64, value: u64) {
        Memory::write_u64(self, Addr::new(addr), value);
    }
}

/// Where control goes after a [`step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to `pc + 1`.
    Next,
    /// Transfer to the given PC (a taken branch, jump, call or return;
    /// indirect targets are not bounds-checked).
    Jump(PcIndex),
    /// The program stops.
    Halt,
}

/// Commits `inst` at `pc` against `regs` and `mem`, returning where
/// control goes next.
///
/// `ReadTime` writes `now`: the caller owns the clock. Load, store,
/// call and return addresses are masked to the containing word
/// (`& !7`); `Flush` and `Fence` have no architectural effect.
pub fn step(
    inst: Inst,
    pc: PcIndex,
    regs: &mut [u64; NUM_REGS],
    mem: &mut impl ArchMem,
    now: u64,
) -> Flow {
    let operand = |regs: &[u64; NUM_REGS], op: Operand| match op {
        Operand::Reg(r) => regs[r.index()],
        Operand::Imm(i) => i,
    };
    let ea = |regs: &[u64; NUM_REGS], base: Reg, offset: i64| {
        regs[base.index()].wrapping_add(offset as u64) & !7
    };
    match inst {
        Inst::MovImm { dst, imm } => regs[dst.index()] = imm,
        Inst::Alu { op, dst, a, b } => {
            regs[dst.index()] = op.apply(regs[a.index()], operand(regs, b));
        }
        Inst::Load { dst, base, offset } => {
            regs[dst.index()] = mem.read_u64(ea(regs, base, offset));
        }
        Inst::Store { src, base, offset } => {
            mem.write_u64(ea(regs, base, offset), regs[src.index()])
        }
        Inst::ReadTime { dst } => regs[dst.index()] = now,
        Inst::Flush { .. } | Inst::Fence | Inst::Nop => {}
        Inst::Branch { cond, a, b, target } => {
            if cond.eval(regs[a.index()], operand(regs, b)) {
                return Flow::Jump(target);
            }
        }
        Inst::Jump { target } => return Flow::Jump(target),
        Inst::JumpInd { target } => return Flow::Jump(regs[target.index()] as PcIndex),
        Inst::Call { target, sp } => {
            let new_sp = regs[sp.index()].wrapping_sub(8);
            mem.write_u64(new_sp & !7, (pc + 1) as u64);
            regs[sp.index()] = new_sp;
            return Flow::Jump(target);
        }
        Inst::Ret { sp } => {
            let ret_pc = mem.read_u64(regs[sp.index()] & !7);
            regs[sp.index()] = regs[sp.index()].wrapping_add(8);
            return Flow::Jump(ret_pc as PcIndex);
        }
        Inst::Halt => return Flow::Halt,
    }
    Flow::Next
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::{AluOp, Cond};

    fn run(inst: Inst, regs: &mut [u64; NUM_REGS], mem: &mut Memory) -> Flow {
        step(inst, 10, regs, mem, 77)
    }

    #[test]
    fn data_instructions_fall_through() {
        let mut regs = [0u64; NUM_REGS];
        let mut mem = Memory::new();
        regs[1] = 0x1000;
        regs[2] = 5;
        let alu = Inst::Alu {
            op: AluOp::Shl,
            dst: Reg(3),
            a: Reg(2),
            b: Operand::Imm(65),
        };
        assert_eq!(run(alu, &mut regs, &mut mem), Flow::Next);
        assert_eq!(regs[3], 10, "shift amount wraps mod 64");

        // Misaligned displacement: both sides mask to the same word.
        let store = Inst::Store {
            src: Reg(2),
            base: Reg(1),
            offset: 3,
        };
        assert_eq!(run(store, &mut regs, &mut mem), Flow::Next);
        let load = Inst::Load {
            dst: Reg(4),
            base: Reg(1),
            offset: 7,
        };
        assert_eq!(run(load, &mut regs, &mut mem), Flow::Next);
        assert_eq!(regs[4], 5);

        run(Inst::ReadTime { dst: Reg(5) }, &mut regs, &mut mem);
        assert_eq!(regs[5], 77, "ReadTime writes the caller's clock");
    }

    #[test]
    fn control_instructions_report_their_target() {
        let mut regs = [0u64; NUM_REGS];
        let mut mem = Memory::new();
        regs[30] = 0x2000;
        let taken = Inst::Branch {
            cond: Cond::Eq,
            a: Reg(0),
            b: Operand::Imm(0),
            target: 3,
        };
        assert_eq!(run(taken, &mut regs, &mut mem), Flow::Jump(3));
        let not_taken = Inst::Branch {
            cond: Cond::Ne,
            a: Reg(0),
            b: Operand::Imm(0),
            target: 3,
        };
        assert_eq!(run(not_taken, &mut regs, &mut mem), Flow::Next);

        let call = Inst::Call {
            target: 40,
            sp: Reg(30),
        };
        assert_eq!(run(call, &mut regs, &mut mem), Flow::Jump(40));
        assert_eq!(regs[30], 0x1ff8);
        assert_eq!(
            run(Inst::Ret { sp: Reg(30) }, &mut regs, &mut mem),
            Flow::Jump(11)
        );
        assert_eq!(regs[30], 0x2000);

        regs[6] = 99;
        let ind = Inst::JumpInd { target: Reg(6) };
        assert_eq!(run(ind, &mut regs, &mut mem), Flow::Jump(99));
        assert_eq!(run(Inst::Halt, &mut regs, &mut mem), Flow::Halt);
    }
}
