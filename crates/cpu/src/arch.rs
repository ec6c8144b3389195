//! Architectural semantics of the micro-ISA: what one instruction does
//! to the register file, memory and control flow when it commits, with
//! no pipeline, caches or speculation.
//!
//! [`step`] is the one definition, written once over a value domain
//! ([`ArchDomain`]). Witness extraction in `unxpec-analysis` and the
//! fast-forward core (its fences, jumps and calls; its pre-decoded ALU
//! µops share [`AluOp::apply`]) step the concrete instance, `u64` over
//! an [`ArchMem`]; the taint analysis steps an abstract one. The
//! timing-bound detailed core keeps its own dispatch;
//! `tests/reference_interpreter.rs` holds the independent oracle that
//! checks both against each other.

use unxpec_mem::{Addr, Memory};

use crate::isa::{AluOp, Cond, Inst, Operand, PcIndex, NUM_REGS};

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

/// The value domain [`step`] computes in: what a register holds, and
/// what each kind of operation makes of such values and of memory.
///
/// Every difference between the concrete and the abstract semantics
/// lives in an instance; [`step`] itself never asks which one it runs.
pub trait ArchDomain {
    /// What one register holds.
    type Value: Clone;

    /// The constant `imm`.
    fn imm(&self, imm: u64) -> Self::Value;
    /// `op(a, b)`, computed by the ALU instruction at `pc`.
    fn alu(&self, op: AluOp, a: &Self::Value, b: &Self::Value, pc: PcIndex) -> Self::Value;
    /// `base + disp`, wrapping: the address arithmetic of loads, stores,
    /// calls and returns (a `Call`/`Ret` moves the stack pointer by it).
    fn offset(&self, base: &Self::Value, disp: i64) -> Self::Value;
    /// The word holding byte `addr` (`addr & !7`), read at `pc`.
    fn load(&mut self, addr: &Self::Value, pc: PcIndex) -> Self::Value;
    /// Writes `value` to the word holding byte `addr` (`addr & !7`).
    fn store(&mut self, addr: &Self::Value, value: &Self::Value);
    /// Whether `cond(a, b)` holds.
    fn holds(&self, cond: Cond, a: &Self::Value, b: &Self::Value) -> bool;
    /// The PC that `value` names as a jump target.
    fn target(&self, value: &Self::Value) -> PcIndex;
}

/// The concrete instance: registers hold `u64`s and memory is `M`.
impl<M: ArchMem> ArchDomain for M {
    type Value = u64;

    fn imm(&self, imm: u64) -> u64 {
        imm
    }

    fn alu(&self, op: AluOp, a: &u64, b: &u64, _pc: PcIndex) -> u64 {
        op.apply(*a, *b)
    }

    fn offset(&self, base: &u64, disp: i64) -> u64 {
        base.wrapping_add(disp as u64)
    }

    fn load(&mut self, addr: &u64, _pc: PcIndex) -> u64 {
        self.read_u64(addr & !7)
    }

    fn store(&mut self, addr: &u64, value: &u64) {
        self.write_u64(addr & !7, *value);
    }

    fn holds(&self, cond: Cond, a: &u64, b: &u64) -> bool {
        cond.eval(*a, *b)
    }

    fn target(&self, value: &u64) -> PcIndex {
        *value as PcIndex
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

/// Commits `inst` at `pc` against `regs` and `dom`, returning where
/// control goes next.
///
/// `ReadTime` writes `now`: the caller owns the clock. Load, store,
/// call and return addresses are masked to the containing word
/// (`& !7`) by the domain; `Flush` and `Fence` have no architectural
/// effect.
pub fn step<D: ArchDomain>(
    inst: Inst,
    pc: PcIndex,
    regs: &mut [D::Value; NUM_REGS],
    dom: &mut D,
    now: D::Value,
) -> Flow {
    let operand = |dom: &D, regs: &[D::Value; NUM_REGS], op: Operand| match op {
        Operand::Reg(r) => regs[r.index()].clone(),
        Operand::Imm(i) => dom.imm(i),
    };
    match inst {
        Inst::MovImm { dst, imm } => regs[dst.index()] = dom.imm(imm),
        Inst::Alu { op, dst, a, b } => {
            let b = operand(dom, regs, b);
            regs[dst.index()] = dom.alu(op, &regs[a.index()], &b, pc);
        }
        Inst::Load { dst, base, offset } => {
            let addr = dom.offset(&regs[base.index()], offset);
            regs[dst.index()] = dom.load(&addr, pc);
        }
        Inst::Store { src, base, offset } => {
            let addr = dom.offset(&regs[base.index()], offset);
            dom.store(&addr, &regs[src.index()]);
        }
        Inst::ReadTime { dst } => regs[dst.index()] = now,
        Inst::Flush { .. } | Inst::Fence | Inst::Nop => {}
        Inst::Branch { cond, a, b, target } => {
            let b = operand(dom, regs, b);
            if dom.holds(cond, &regs[a.index()], &b) {
                return Flow::Jump(target);
            }
        }
        Inst::Jump { target } => return Flow::Jump(target),
        Inst::JumpInd { target } => return Flow::Jump(dom.target(&regs[target.index()])),
        Inst::Call { target, sp } => {
            let new_sp = dom.offset(&regs[sp.index()], -8);
            let ret = dom.imm((pc + 1) as u64);
            dom.store(&new_sp, &ret);
            regs[sp.index()] = new_sp;
            return Flow::Jump(target);
        }
        Inst::Ret { sp } => {
            let ret = dom.load(&regs[sp.index()], pc);
            regs[sp.index()] = dom.offset(&regs[sp.index()], 8);
            return Flow::Jump(dom.target(&ret));
        }
        Inst::Halt => return Flow::Halt,
    }
    Flow::Next
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::Reg;

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
