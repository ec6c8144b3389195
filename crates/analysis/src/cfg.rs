//! Control-flow graph over an assembled [`Program`].
//!
//! Successor edges are the PCs the *front end* can fetch next — which
//! for speculation sources means every PC a predictor could steer it
//! to, not just the architectural target:
//!
//! * a conditional branch may be predicted either way, so both the
//!   target and the fall-through are successors;
//! * an indirect jump is predicted by the BTB, which the attacker can
//!   train to any entry (the Spectre-v2 surface) — soundly, every PC in
//!   the program is a successor;
//! * a return is predicted by the return stack buffer, which only ever
//!   holds pushed call return sites — its successors are `call_pc + 1`
//!   for every `Call` in the program, plus the fall-through the front
//!   end uses when the RSB is empty.
//!
//! Any dynamically fetched path — right or wrong — is a walk over these
//! edges, which is what makes the speculative-window pass in
//! [`crate::window`] a sound over-approximation.

use unxpec_cpu::{Inst, PcIndex, Program};

/// The CFG: per-PC successor lists plus the speculation sources.
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<PcIndex>>,
    spec_points: Vec<PcIndex>,
    return_sites: Vec<PcIndex>,
}

impl Cfg {
    /// Builds the CFG of `program`.
    pub fn build(program: &Program) -> Cfg {
        let len = program.len();
        let return_sites: Vec<PcIndex> = program
            .call_sites()
            .map(|pc| pc + 1)
            .filter(|&pc| pc < len)
            .collect();
        let mut succs = Vec::with_capacity(len);
        let mut spec_points = Vec::new();
        for (pc, &inst) in program.instructions().iter().enumerate() {
            if inst.is_speculation_source() {
                spec_points.push(pc);
            }
            let fall = pc + 1;
            let mut s: Vec<PcIndex> = Vec::new();
            match inst {
                Inst::Branch { target, .. } => {
                    if fall < len {
                        s.push(fall);
                    }
                    s.push(target);
                }
                Inst::Jump { target } => s.push(target),
                Inst::Call { target, .. } => s.push(target),
                Inst::JumpInd { .. } => s.extend(0..len),
                Inst::Ret { .. } => {
                    s.extend(return_sites.iter().copied());
                    if fall < len {
                        s.push(fall);
                    }
                }
                Inst::Halt => {}
                _ => {
                    if fall < len {
                        s.push(fall);
                    }
                }
            }
            s.sort_unstable();
            s.dedup();
            succs.push(s);
        }
        Cfg {
            succs,
            spec_points,
            return_sites,
        }
    }

    /// Successors of `pc` (empty past the end of the program).
    pub fn successors(&self, pc: PcIndex) -> &[PcIndex] {
        self.succs.get(pc).map(Vec::as_slice).unwrap_or(&[])
    }

    /// PCs where the front end opens a speculation frame.
    pub fn speculation_points(&self) -> &[PcIndex] {
        &self.spec_points
    }

    /// `call_pc + 1` of every call — what the RSB can predict.
    pub fn return_sites(&self) -> &[PcIndex] {
        &self.return_sites
    }

    /// Number of CFG nodes (static instructions).
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use unxpec_cpu::{Cond, ProgramBuilder, Reg};

    #[test]
    fn branch_has_both_successors() {
        let mut b = ProgramBuilder::new();
        b.branch(Cond::Lt, Reg(1), 4u64, "t");
        b.nop();
        b.label("t");
        b.halt();
        let cfg = Cfg::build(&b.build());
        assert_eq!(cfg.successors(0), &[1, 2]);
        assert_eq!(cfg.speculation_points(), &[0]);
    }

    #[test]
    fn halt_and_program_end_terminate() {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.halt();
        let cfg = Cfg::build(&b.build());
        assert_eq!(cfg.successors(0), &[1]);
        assert!(cfg.successors(1).is_empty());
        assert!(cfg.successors(99).is_empty());
    }

    #[test]
    fn indirect_jump_may_go_anywhere() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 2);
        b.jump_ind(Reg(1));
        b.halt();
        let cfg = Cfg::build(&b.build());
        assert_eq!(cfg.successors(1), &[0, 1, 2]);
        assert_eq!(cfg.speculation_points(), &[1]);
    }

    #[test]
    fn ret_successors_are_the_call_return_sites() {
        let sp = Reg(30);
        let mut b = ProgramBuilder::new();
        b.call("f", sp); // 0 -> return site 1
        b.halt(); // 1
        b.label("f");
        b.ret(sp); // 2
        let cfg = Cfg::build(&b.build());
        assert_eq!(cfg.return_sites(), &[1]);
        // RSB sites, plus the empty-RSB fall-through... which is out of
        // range here, so only the return site remains.
        assert_eq!(cfg.successors(2), &[1]);
    }

    #[test]
    fn reachability_follows_jumps() {
        let mut b = ProgramBuilder::new();
        b.jump("end"); // 0
        b.nop(); // 1 (dead)
        b.label("end");
        b.halt(); // 2
        let cfg = Cfg::build(&b.build());
        assert_eq!(cfg.successors(0), &[2]);
    }
}
