//! Mode-switch equivalence: a fast-forward run that drops to the
//! detailed core at every branch and re-engages afterwards
//! (ff→detailed→ff→…) must be indistinguishable from an all-detailed
//! run — registers, memory, cache residency, and, inside the exactness
//! envelope, the cycle count itself.
//!
//! The generator stays inside that envelope by construction: every
//! memory operation is followed by a fence (memory traffic settles
//! before the next hand-off), programs stay under 192 total
//! instructions (the detailed core's ROB never fills, so ROB occupancy
//! cannot skew dispatch), every address is a static offset off the
//! seeded table base, and `rdtscp` is left out (its serializing read is
//! a speculation-measurement primitive, not straight-line compute).
//! Blocks may also hop an unconditional forward `jmp` over a dead
//! sub-block, which puts a control transfer inside a fast-forward
//! region.

use proptest::prelude::*;
use unxpec::cpu::{Cond, Core, ExecMode, Operand, Program, ProgramBuilder, Reg};
use unxpec::mem::Addr;

const TABLE: u64 = 0x8000;
const TABLE_WORDS: u64 = 64;
/// Table base register; never a destination, so addresses stay in the
/// seeded range even on wrong paths.
const R_TBL: Reg = Reg(1);

#[derive(Debug, Clone, Copy)]
enum SafeOp {
    Mov(u8, u64),
    /// (op selector, dst, a, b-register)
    AluRR(u8, u8, u8, u8),
    /// (op selector, dst, a, immediate)
    AluRI(u8, u8, u8, u64),
    /// (dst, table word); a fence follows every load.
    Load(u8, u8),
    /// (src, table word); a fence follows every store.
    Store(u8, u8),
    /// (table word); a fence follows every flush.
    Flush(u8),
    Nop,
}

fn emit(b: &mut ProgramBuilder, op: SafeOp) {
    let reg = |r: u8| Reg(2 + (r % 6)); // r2..r7, never the base
    let src = |r: u8| Reg(1 + (r % 7)); // r1..r7, base readable
    let word = |w: u8| (u64::from(w) % TABLE_WORDS) as i64 * 8;
    match op {
        SafeOp::Mov(dst, imm) => {
            b.mov(reg(dst), imm);
        }
        SafeOp::AluRR(sel, dst, a, rb) => {
            alu(b, sel, reg(dst), src(a), src(rb));
        }
        SafeOp::AluRI(sel, dst, a, imm) => {
            alu(b, sel, reg(dst), src(a), imm);
        }
        SafeOp::Load(dst, w) => {
            b.load(reg(dst), R_TBL, word(w));
            b.fence();
        }
        SafeOp::Store(s, w) => {
            b.store(src(s), R_TBL, word(w));
            b.fence();
        }
        SafeOp::Flush(w) => {
            b.flush(R_TBL, word(w));
            b.fence();
        }
        SafeOp::Nop => {
            b.nop();
        }
    }
}

fn alu(b: &mut ProgramBuilder, sel: u8, dst: Reg, a: Reg, rhs: impl Into<Operand>) {
    match sel % 8 {
        0 => b.add(dst, a, rhs),
        1 => b.sub(dst, a, rhs),
        2 => b.mul(dst, a, rhs),
        3 => b.and(dst, a, rhs),
        4 => b.or(dst, a, rhs),
        5 => b.xor(dst, a, rhs),
        6 => b.shl(dst, a, rhs),
        _ => b.shr(dst, a, rhs),
    };
}

fn safe_op() -> impl Strategy<Value = SafeOp> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(d, i)| SafeOp::Mov(d, i)),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(s, d, a, b)| SafeOp::AluRR(s, d, a, b)),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>())
            .prop_map(|(s, d, a, i)| SafeOp::AluRI(s, d, a, i)),
        (any::<u8>(), any::<u8>()).prop_map(|(d, w)| SafeOp::Load(d, w)),
        (any::<u8>(), any::<u8>()).prop_map(|(s, w)| SafeOp::Store(s, w)),
        any::<u8>().prop_map(SafeOp::Flush),
        Just(SafeOp::Nop),
    ]
}

/// One generated block: straight-line ops, a conditionally skipped
/// sub-block with its branch, and, when the flag is set, a dead
/// sub-block an unconditional `jmp` hops over.
type Block = (Vec<SafeOp>, Vec<SafeOp>, (u8, u8, u64), (bool, Vec<SafeOp>));

fn block() -> impl Strategy<Value = Block> {
    (
        proptest::collection::vec(safe_op(), 1..6),
        proptest::collection::vec(safe_op(), 1..4),
        (any::<u8>(), any::<u8>(), any::<u64>()),
        (any::<bool>(), proptest::collection::vec(safe_op(), 0..3)),
    )
}

fn build(blocks: &[Block]) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov(R_TBL, TABLE);
    for (i, (straight, skipped, (csel, careg, cimm), (jump, dead))) in blocks.iter().enumerate() {
        for &op in straight {
            emit(&mut b, op);
        }
        // A direct forward jump mid-block: straight-line code on both
        // sides, so the fast-forward region runs straight through it.
        if *jump {
            let over = format!("over_{i}");
            b.jump(&over);
            for &op in dead {
                emit(&mut b, op);
            }
            b.label(&over);
        }
        // A real data-dependent branch: the skipped sub-block runs only
        // on the fall-through path, so mispredicted frames squash
        // genuinely divergent work in both runs.
        let cond = match csel % 4 {
            0 => Cond::Lt,
            1 => Cond::Ge,
            2 => Cond::Eq,
            _ => Cond::Ne,
        };
        let label = format!("skip_{i}");
        b.branch(cond, Reg(1 + (careg % 7)), *cimm, &label);
        for &op in skipped {
            emit(&mut b, op);
        }
        b.label(&label);
    }
    b.halt();
    b.build()
}

fn seed_table(core: &mut Core) {
    for w in 0..TABLE_WORDS {
        core.mem_mut().write_u64(
            Addr::new(TABLE + w * 8),
            w.wrapping_mul(0x9e37_79b9) ^ 0xabcd,
        );
    }
}

proptest! {
    #[test]
    fn mode_switching_matches_all_detailed(blocks in proptest::collection::vec(block(), 1..6)) {
        let program = build(&blocks);
        prop_assert!(program.len() < 192, "generator left the exactness envelope");

        let mut det = Core::table_i();
        seed_table(&mut det);
        let rd = det.run(&program);

        let mut ff = Core::table_i();
        ff.set_mode(ExecMode::FastForward);
        seed_table(&mut ff);
        let rf = ff.run(&program);

        // The fast path must actually engage: every program opens with
        // the straight-line table-base prologue.
        prop_assert!(rf.stats.ff_regions > 0, "fast-forward never engaged");
        prop_assert_eq!(rd.stats.ff_regions, 0, "detailed run must not fast-forward");

        prop_assert_eq!(rf.regs, rd.regs, "architectural registers diverged");
        prop_assert_eq!(rf.stats.cycles, rd.stats.cycles, "cycle counts diverged");
        prop_assert_eq!(rf.stats.committed_insts, rd.stats.committed_insts);
        prop_assert_eq!(rf.stats.committed_loads, rd.stats.committed_loads);
        prop_assert_eq!(rf.stats.branches, rd.stats.branches);
        prop_assert_eq!(rf.stats.mispredicts, rd.stats.mispredicts);
        prop_assert_eq!(rf.stats.squashes.len(), rd.stats.squashes.len());

        for w in 0..TABLE_WORDS {
            let addr = Addr::new(TABLE + w * 8);
            prop_assert_eq!(
                ff.mem().read_u64(addr),
                det.mem().read_u64(addr),
                "memory diverged at table word {}", w
            );
            prop_assert_eq!(
                ff.hierarchy().l1_contains(addr.line()),
                det.hierarchy().l1_contains(addr.line()),
                "L1 residency diverged at table word {}", w
            );
        }
    }
}
