//! Property tests for the CPU building blocks.

#![allow(clippy::disallowed_methods, clippy::disallowed_macros)] // tests are exempt from the no-panic policy

use proptest::prelude::*;
use unxpec_cpu::{
    AluOp, BimodalPredictor, BranchPredictor, Cond, Core, GsharePredictor, ProgramBuilder, Reg,
};

proptest! {
    #[test]
    fn alu_matches_u64_semantics(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(AluOp::Add.apply(a, b), a.wrapping_add(b));
        prop_assert_eq!(AluOp::Sub.apply(a, b), a.wrapping_sub(b));
        prop_assert_eq!(AluOp::Mul.apply(a, b), a.wrapping_mul(b));
        prop_assert_eq!(AluOp::And.apply(a, b), a & b);
        prop_assert_eq!(AluOp::Or.apply(a, b), a | b);
        prop_assert_eq!(AluOp::Xor.apply(a, b), a ^ b);
    }

    #[test]
    fn cond_matches_comparisons(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(Cond::Lt.eval(a, b), a < b);
        prop_assert_eq!(Cond::Ge.eval(a, b), a >= b);
        prop_assert_eq!(Cond::Eq.eval(a, b), a == b);
        prop_assert_eq!(Cond::Ne.eval(a, b), a != b);
    }

    #[test]
    fn straight_line_arithmetic_is_exact(values in proptest::collection::vec(any::<u64>(), 1..16)) {
        // r1 accumulates a xor-rotate fold of the inputs; compare
        // against the same fold in Rust.
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0);
        for (i, v) in values.iter().enumerate() {
            b.mov(Reg(2), *v);
            b.xor(Reg(1), Reg(1), Reg(2));
            b.shl(Reg(3), Reg(1), ((i % 7) + 1) as u64);
            b.add(Reg(1), Reg(1), Reg(3));
        }
        b.halt();
        let got = Core::table_i().run(&b.build()).reg(Reg(1));
        let mut expect = 0u64;
        for (i, v) in values.iter().enumerate() {
            expect ^= v;
            expect = expect.wrapping_add(expect.wrapping_shl(((i % 7) + 1) as u32));
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn predictors_saturate_on_constant_direction(
        pc in 0usize..10_000,
        taken in any::<bool>(),
        warm in 2usize..20,
    ) {
        let mut bimodal = BimodalPredictor::new(1024);
        let mut gshare = GsharePredictor::new(1024, 6);
        for _ in 0..warm {
            bimodal.update(pc, taken);
        }
        // Gshare's index moves with the history, so it needs the history
        // register to saturate (6 bits) before its steady-state counter
        // trains.
        for _ in 0..warm + 8 {
            gshare.update(pc, taken);
        }
        prop_assert_eq!(bimodal.predict(pc), taken);
        prop_assert_eq!(gshare.predict(pc), taken);
    }

    #[test]
    fn loop_counts_exactly(n in 1u64..300) {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0);
        b.label("loop");
        b.add(Reg(1), Reg(1), 1u64);
        b.branch(Cond::Lt, Reg(1), n, "loop");
        b.halt();
        let r = Core::table_i().run(&b.build());
        prop_assert_eq!(r.reg(Reg(1)), n);
        prop_assert_eq!(r.stats.branches, n);
    }

    #[test]
    fn stores_commit_in_program_order(slots in proptest::collection::vec((0u64..32, any::<u64>()), 1..40)) {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x8000);
        for (slot, val) in &slots {
            b.mov(Reg(2), *val);
            b.store(Reg(2), Reg(1), (slot * 8) as i64);
        }
        b.halt();
        let mut core = Core::table_i();
        core.run(&b.build());
        let mut model = std::collections::HashMap::new();
        for (slot, val) in &slots {
            model.insert(*slot, *val);
        }
        for (slot, val) in model {
            prop_assert_eq!(
                core.mem().read_u64(unxpec_mem::Addr::new(0x8000 + slot * 8)),
                val
            );
        }
    }
}

mod asm_roundtrip {
    use proptest::prelude::*;
    use unxpec_cpu::{parse_asm, AluOp, Cond, Inst, Operand, ProgramBuilder, Reg};

    fn inst_strategy(len: usize) -> impl Strategy<Value = Inst> {
        let reg = (0u8..32).prop_map(Reg);
        let operand = prop_oneof![
            (0u8..32).prop_map(|r| Operand::Reg(Reg(r))),
            any::<u64>().prop_map(Operand::Imm),
        ];
        let alu = prop_oneof![
            Just(AluOp::Add),
            Just(AluOp::Sub),
            Just(AluOp::Mul),
            Just(AluOp::And),
            Just(AluOp::Or),
            Just(AluOp::Xor),
            Just(AluOp::Shl),
            Just(AluOp::Shr),
        ];
        let cond = prop_oneof![
            Just(Cond::Lt),
            Just(Cond::Ge),
            Just(Cond::Eq),
            Just(Cond::Ne)
        ];
        prop_oneof![
            (reg.clone(), any::<u64>()).prop_map(|(dst, imm)| Inst::MovImm { dst, imm }),
            (alu, reg.clone(), reg.clone(), operand.clone())
                .prop_map(|(op, dst, a, b)| Inst::Alu { op, dst, a, b }),
            (reg.clone(), reg.clone(), -512i64..512).prop_map(|(dst, base, offset)| Inst::Load {
                dst,
                base,
                offset: offset & !7
            }),
            (reg.clone(), reg.clone(), -512i64..512).prop_map(|(src, base, offset)| Inst::Store {
                src,
                base,
                offset: offset & !7
            }),
            (reg.clone(), -512i64..512).prop_map(|(base, offset)| Inst::Flush { base, offset }),
            Just(Inst::Fence),
            reg.clone().prop_map(|dst| Inst::ReadTime { dst }),
            (cond, reg.clone(), operand, 0..len).prop_map(|(cond, a, b, target)| Inst::Branch {
                cond,
                a,
                b,
                target
            }),
            (0..len).prop_map(|target| Inst::Jump { target }),
            reg.clone().prop_map(|target| Inst::JumpInd { target }),
            (0..len, reg.clone()).prop_map(|(target, sp)| Inst::Call { target, sp }),
            reg.prop_map(|sp| Inst::Ret { sp }),
            Just(Inst::Nop),
            Just(Inst::Halt),
        ]
    }

    proptest! {
        #[test]
        fn listing_round_trips_through_the_assembler(
            insts in proptest::collection::vec(inst_strategy(32), 1..32)
        ) {
            let mut b = ProgramBuilder::new();
            for inst in &insts {
                b.push(*inst);
            }
            let original = b.build();
            // Strip the PC column the listing prints.
            let listing: String = original
                .to_string()
                .lines()
                .map(|l| {
                    l.trim_start().split_once(char::is_whitespace).map(|x| x.1)
                        .unwrap_or("")
                        .trim()
                        .to_string()
                })
                .collect::<Vec<_>>()
                .join("\n");
            let reparsed = parse_asm(&listing).unwrap();
            prop_assert_eq!(original.instructions(), reparsed.instructions());
        }
    }
}
