//! Property test: the out-of-order speculative core must compute the
//! same architectural results as a trivial sequential interpreter.
//!
//! This is the strongest correctness check the simulator has: random
//! programs with data-dependent forward branches are executed both by
//! the speculative [`unxpec::cpu::Core`] (wrong paths, squashes,
//! rollbacks and all) and by an in-test oracle that is obviously
//! correct. Any wrong-path state leaking into architectural results —
//! the exact class of bug a speculation simulator is most likely to
//! have — fails the property. The same oracle also checks
//! [`unxpec::cpu::arch::step`], the architectural semantics the
//! workspace's functional interpreters are built on.

use proptest::prelude::*;
use unxpec::cpu::arch::{self, Flow};
use unxpec::cpu::{AluOp, Cond, Core, Inst, Operand, Program, ProgramBuilder, Reg, NUM_REGS};
use unxpec::mem::{Addr, Memory};

/// Sequential reference semantics.
fn reference_run(program: &Program, mem: &mut Memory) -> [u64; 8] {
    let mut regs = [0u64; 32];
    let mut pc = 0usize;
    let mut steps = 0;
    while let Some(inst) = program.fetch(pc) {
        steps += 1;
        assert!(steps < 100_000, "reference interpreter ran away");
        match inst {
            Inst::MovImm { dst, imm } => {
                regs[dst.index()] = imm;
                pc += 1;
            }
            Inst::Alu { op, dst, a, b } => {
                let bv = match b {
                    Operand::Reg(r) => regs[r.index()],
                    Operand::Imm(i) => i,
                };
                regs[dst.index()] = op.apply(regs[a.index()], bv);
                pc += 1;
            }
            Inst::Load { dst, base, offset } => {
                let addr = Addr::new(regs[base.index()].wrapping_add(offset as u64) & !7);
                regs[dst.index()] = mem.read_u64(addr);
                pc += 1;
            }
            Inst::Store { src, base, offset } => {
                let addr = Addr::new(regs[base.index()].wrapping_add(offset as u64) & !7);
                mem.write_u64(addr, regs[src.index()]);
                pc += 1;
            }
            Inst::Flush { .. } | Inst::Fence | Inst::Nop => pc += 1,
            Inst::ReadTime { dst } => {
                // Timing is not part of the architectural contract; pin
                // the oracle's value and skip comparing this register.
                regs[dst.index()] = 0;
                pc += 1;
            }
            Inst::Branch { cond, a, b, target } => {
                let bv = match b {
                    Operand::Reg(r) => regs[r.index()],
                    Operand::Imm(i) => i,
                };
                pc = if cond.eval(regs[a.index()], bv) {
                    target
                } else {
                    pc + 1
                };
            }
            Inst::Jump { target } => pc = target,
            Inst::JumpInd { target } => pc = regs[target.index()] as usize,
            Inst::Call { target, sp } => {
                let new_sp = regs[sp.index()].wrapping_sub(8);
                regs[sp.index()] = new_sp;
                mem.write_u64(Addr::new(new_sp & !7), (pc + 1) as u64);
                pc = target;
            }
            Inst::Ret { sp } => {
                let addr = Addr::new(regs[sp.index()] & !7);
                regs[sp.index()] = regs[sp.index()].wrapping_add(8);
                pc = mem.read_u64(addr) as usize;
            }
            Inst::Halt => break,
        }
    }
    regs[..8].try_into().expect("8 registers")
}

/// The same program driven through `arch::step` (clock pinned at 0,
/// like the oracle's `ReadTime`).
fn arch_step_run(program: &Program, mem: &mut Memory) -> [u64; 8] {
    let mut regs = [0u64; NUM_REGS];
    let mut pc = 0usize;
    for _ in 0..100_000 {
        let inst = program.fetch(pc).expect("pc in bounds");
        match arch::step(inst, pc, &mut regs, mem, 0) {
            Flow::Next => pc += 1,
            Flow::Jump(target) => pc = target,
            Flow::Halt => return regs[..8].try_into().expect("8 registers"),
        }
    }
    panic!("arch::step loop ran away");
}

/// One generated operation (lowered into 1–2 instructions).
#[derive(Debug, Clone)]
enum Op {
    Mov(u8, u64),
    Alu(u8, AluOp, u8, u8),
    AluImm(u8, AluOp, u8, u64),
    Load(u8, u8),
    Store(u8, u8),
    /// Conditional skip over the next `skip` ops.
    SkipIf(Cond, u8, u64, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let reg = 0u8..8;
    let alu = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
    ];
    let cond = prop_oneof![
        Just(Cond::Lt),
        Just(Cond::Ge),
        Just(Cond::Eq),
        Just(Cond::Ne)
    ];
    prop_oneof![
        (reg.clone(), any::<u64>()).prop_map(|(d, v)| Op::Mov(d, v)),
        (reg.clone(), alu.clone(), reg.clone(), reg.clone())
            .prop_map(|(d, op, a, b)| Op::Alu(d, op, a, b)),
        (reg.clone(), alu, reg.clone(), 0u64..1024)
            .prop_map(|(d, op, a, i)| Op::AluImm(d, op, a, i)),
        (reg.clone(), reg.clone()).prop_map(|(d, b)| Op::Load(d, b)),
        (reg.clone(), reg.clone()).prop_map(|(s, b)| Op::Store(s, b)),
        (cond, reg, 0u64..64, 1u8..5).prop_map(|(c, a, v, skip)| Op::SkipIf(c, a, v, skip)),
    ]
}

/// Lowers ops to a program. Addresses are folded into a small arena so
/// loads/stores always hit valid, aligned locations.
fn lower(ops: &[Op]) -> Program {
    const ARENA: u64 = 0x10_0000;
    let mut b = ProgramBuilder::new();
    // r8 holds the arena base; address regs are masked into the arena.
    b.mov(Reg(8), ARENA);
    let mut skip_stack: Vec<(usize, String)> = Vec::new();
    let mut label_id = 0;
    for (i, op) in ops.iter().enumerate() {
        // Close any skips that end here.
        while let Some((end, label)) = skip_stack.last().cloned() {
            if end <= i {
                b.label(&label);
                skip_stack.pop();
            } else {
                break;
            }
        }
        match op.clone() {
            Op::Mov(d, v) => {
                b.mov(Reg(d), v);
            }
            Op::Alu(d, op, a, r) => {
                b.push(Inst::Alu {
                    op,
                    dst: Reg(d),
                    a: Reg(a),
                    b: Operand::Reg(Reg(r)),
                });
            }
            Op::AluImm(d, op, a, i) => {
                b.push(Inst::Alu {
                    op,
                    dst: Reg(d),
                    a: Reg(a),
                    b: Operand::Imm(i),
                });
            }
            Op::Load(d, base) => {
                // r9 = arena + (r_base & 0x3f8)
                b.and(Reg(9), Reg(base), 0x3f8u64);
                b.add(Reg(9), Reg(9), Reg(8));
                b.load(Reg(d), Reg(9), 0);
            }
            Op::Store(s, base) => {
                b.and(Reg(9), Reg(base), 0x3f8u64);
                b.add(Reg(9), Reg(9), Reg(8));
                b.store(Reg(s), Reg(9), 0);
            }
            Op::SkipIf(c, a, v, skip) => {
                let label = format!("skip_{label_id}");
                label_id += 1;
                b.branch(c, Reg(a), v, &label);
                skip_stack.push((i + 1 + skip as usize, label));
                // Keep innermost-first ordering for well-nested closes.
                skip_stack.sort_by_key(|s| std::cmp::Reverse(s.0));
            }
        }
    }
    while let Some((_, label)) = skip_stack.pop() {
        b.label(&label);
    }
    b.halt();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn speculative_core_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let program = lower(&ops);
        let mut ref_mem = Memory::new();
        let expected = reference_run(&program, &mut ref_mem);
        let mut arch_mem = Memory::new();
        prop_assert_eq!(arch_step_run(&program, &mut arch_mem), expected, "arch::step diverged");

        let mut core = Core::table_i();
        let result = core.run(&program);
        prop_assert!(!result.hit_limit, "program must halt");
        for r in 0..8u8 {
            prop_assert_eq!(
                result.reg(Reg(r)),
                expected[r as usize],
                "r{} diverged (program:\n{})",
                r,
                program
            );
        }
        // Architectural memory must match across the touched arena too.
        for w in 0..128u64 {
            let addr = Addr::new(0x10_0000 + w * 8);
            prop_assert_eq!(core.mem().read_u64(addr), ref_mem.read_u64(addr));
            prop_assert_eq!(arch_mem.read_u64(addr), ref_mem.read_u64(addr));
        }
    }

    #[test]
    fn core_is_deterministic(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let program = lower(&ops);
        let run = || {
            let mut core = Core::table_i();
            let r = core.run(&program);
            (r.regs, r.stats.cycles, r.stats.mispredicts)
        };
        prop_assert_eq!(run(), run());
    }
}
