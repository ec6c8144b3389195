//! Cross-validation of the static transient-leakage analyzer against
//! the cycle simulator.
//!
//! Two halves:
//!
//! * **Verdict agreement** — for every program in the attack registry,
//!   the analyzer's per-defense verdict must match what the simulator
//!   actually measures: a cache-footprint leak without a defense, a
//!   rollback-timing leak under CleanupSpec, and no signal under
//!   constant-time rollback.
//! * **Window soundness** — a property test: every instruction the
//!   traced core executes on a wrong path must lie inside some
//!   statically computed speculative window.
//! * **Abstract ⊒ concrete** — a property test: at every PC a concrete
//!   `arch::step` run visits, the taint fixpoint's in-state holds the
//!   concrete register values and load addresses, and seeds every load
//!   of a secret word.

use std::collections::BTreeSet;

use proptest::prelude::*;
use unxpec::analysis::{
    analyze, document, speculative_windows, taint_analysis, AbsValue, Cfg, Channel, DefenseModel,
    ProgramAnalysis, SecretRegion, Verdict,
};
use unxpec::attack::benign_registry;
use unxpec::attack::probe_latency;
use unxpec::attack::registry::{registry, ProgramSpec, TriggerKind};
use unxpec::cpu::arch::{self, Flow};
use unxpec::cpu::{
    AluOp, Cond, Core, CoreConfig, Defense, Inst, Operand, Program, ProgramBuilder, Reg,
    UnsafeBaseline, NUM_REGS,
};
use unxpec::defense::{CleanupSpec, ConstantTimeRollback};
use unxpec::mem::Memory;

/// Cycles below which a probe load counts as an L1/L2 hit.
const HIT_THRESHOLD: u64 = 60;

/// Minimum mean secret-dependent latency difference that counts as a
/// live timing channel (the real effect is ~22 cycles).
const TIMING_THRESHOLD: f64 = 8.0;

/// Constant-time rollback pad: must exceed the worst real cleanup of
/// any registered program (the eviction-set round restores ~16 lines).
const CT_PAD: u64 = 120;

fn static_analysis_of(spec: &ProgramSpec) -> ProgramAnalysis {
    let secrets: Vec<SecretRegion> =
        SecretRegion::from_layout(spec.layout().memory_layout(), "SECRET")
            .into_iter()
            .collect();
    analyze(spec.name, spec.program(), &secrets, &CoreConfig::table_i())
}

#[derive(Clone, Copy, Debug)]
enum DefenseKind {
    Unsafe,
    Cleanup,
    ConstantTime,
}

impl DefenseKind {
    fn boxed(self) -> Box<dyn Defense> {
        match self {
            DefenseKind::Unsafe => Box::new(UnsafeBaseline),
            DefenseKind::Cleanup => Box::new(CleanupSpec::new()),
            DefenseKind::ConstantTime => Box::new(ConstantTimeRollback::new(CT_PAD)),
        }
    }
}

/// What the simulator observes for one (program, defense) pair.
#[derive(Debug)]
struct DynamicOutcome {
    /// Mean `secret=1 - secret=0` receiver latency difference.
    timing_diff: f64,
    /// Probe line warm after a secret=1 round (cache-contents channel).
    footprint_after_one: bool,
    /// Probe line warm after a secret=0 round.
    footprint_after_zero: bool,
}

impl DynamicOutcome {
    fn timing_channel(&self) -> bool {
        self.timing_diff > TIMING_THRESHOLD
    }

    fn footprint_channel(&self) -> bool {
        self.footprint_after_one && !self.footprint_after_zero
    }
}

/// Drives a registry sender-round program (conditional-branch trigger)
/// the same way `UnxpecChannel` does.
struct RoundDriver {
    core: Core,
    spec: ProgramSpec,
    victim_touch: Program,
}

impl RoundDriver {
    fn new(spec: &ProgramSpec, defense: Box<dyn Defense>) -> Self {
        let mut core = Core::table_i();
        core.set_defense(defense);
        spec.layout().install(core.mem_mut(), spec.fn_accesses);
        let mut vb = ProgramBuilder::new();
        vb.mov(Reg(1), spec.layout().secret_addr().raw());
        vb.load(Reg(2), Reg(1), 0);
        vb.halt();
        let mut this = RoundDriver {
            core,
            spec: spec.clone(),
            victim_touch: vb.build(),
        };
        // Discard the cold-cache warmup rounds.
        this.measure_bit(false);
        this.measure_bit(true);
        this
    }

    fn measure_bit(&mut self, secret: bool) -> u64 {
        self.spec.layout().set_secret(self.core.mem_mut(), secret);
        self.core.run(&self.victim_touch);
        let r = self.core.run(self.spec.program());
        r.reg(Reg(21)) - r.reg(Reg(20))
    }

    /// Whether `P[64]` (the k=1 secret-1 target every registered branch
    /// round loads) is warm right now.
    fn probe_line_warm(&mut self) -> bool {
        let addr = self.spec.layout().probe_line(1);
        probe_latency(&mut self.core, addr) < HIT_THRESHOLD
    }
}

fn dynamic_outcome(spec: &ProgramSpec, kind: DefenseKind) -> DynamicOutcome {
    const ROUNDS: usize = 8;
    match spec.trigger {
        TriggerKind::ConditionalBranch => {
            let mut d = RoundDriver::new(spec, kind.boxed());
            let mut sum0 = 0.0;
            let mut sum1 = 0.0;
            for _ in 0..ROUNDS {
                sum0 += d.measure_bit(false) as f64;
                sum1 += d.measure_bit(true) as f64;
            }
            let _ = d.measure_bit(false);
            let footprint_after_zero = d.probe_line_warm();
            let _ = d.measure_bit(true);
            let footprint_after_one = d.probe_line_warm();
            DynamicOutcome {
                timing_diff: (sum1 - sum0) / ROUNDS as f64,
                footprint_after_one,
                footprint_after_zero,
            }
        }
        TriggerKind::IndirectJump => {
            let mut a = unxpec::attack::SpectreV2::new(kind.boxed());
            let mut sum0 = 0.0;
            let mut sum1 = 0.0;
            for _ in 0..ROUNDS {
                sum0 += a.measure_bit(false).latency as f64;
                sum1 += a.measure_bit(true).latency as f64;
            }
            let footprint_after_zero = a.measure_bit(false).footprint_visible;
            let footprint_after_one = a.measure_bit(true).footprint_visible;
            DynamicOutcome {
                timing_diff: (sum1 - sum0) / ROUNDS as f64,
                footprint_after_one,
                footprint_after_zero,
            }
        }
        TriggerKind::Return => {
            let mut a = unxpec::attack::SpectreRsb::new(kind.boxed());
            let mut sum0 = 0.0;
            let mut sum1 = 0.0;
            for _ in 0..ROUNDS {
                sum0 += a.measure_bit(false).0 as f64;
                sum1 += a.measure_bit(true).0 as f64;
            }
            let footprint_after_zero = a.measure_bit(false).1;
            let footprint_after_one = a.measure_bit(true).1;
            DynamicOutcome {
                timing_diff: (sum1 - sum0) / ROUNDS as f64,
                footprint_after_one,
                footprint_after_zero,
            }
        }
    }
}

/// The full agreement check for one registry entry.
fn check_program(name: &str) {
    let spec = registry()
        .into_iter()
        .find(|s| s.name == name)
        .expect("registered program");
    let analysis = static_analysis_of(&spec);

    // Static side: every attack program must be flagged.
    assert_eq!(
        analysis.verdict(DefenseModel::Unsafe),
        Verdict::Leak(Channel::CacheFootprint),
        "{name}: static analyzer must flag the undefended footprint"
    );
    assert_eq!(
        analysis.verdict(DefenseModel::CleanupSpec),
        Verdict::Leak(Channel::RollbackTiming),
        "{name}: static analyzer must flag the rollback-timing channel"
    );
    assert_eq!(
        analysis.verdict(DefenseModel::InvisiSpec),
        Verdict::Clean,
        "{name}: InvisiSpec closes both channels"
    );
    assert_eq!(
        analysis.verdict(DefenseModel::DelayOnMiss),
        Verdict::Clean,
        "{name}: DelayOnMiss closes both channels"
    );
    assert_eq!(
        analysis.verdict(DefenseModel::ConstantTime),
        Verdict::Clean,
        "{name}: constant-time rollback closes both channels"
    );

    // Dynamic side, and agreement with the static verdicts.
    let unsafe_dyn = dynamic_outcome(&spec, DefenseKind::Unsafe);
    assert!(
        unsafe_dyn.footprint_channel(),
        "{name}: simulator must show the footprint channel without a defense \
         (after1={} after0={})",
        unsafe_dyn.footprint_after_one,
        unsafe_dyn.footprint_after_zero
    );
    assert_eq!(
        analysis.verdict(DefenseModel::Unsafe).is_leak(),
        unsafe_dyn.footprint_channel(),
        "{name}: unsafe verdict disagrees with the simulator"
    );

    let cleanup_dyn = dynamic_outcome(&spec, DefenseKind::Cleanup);
    assert!(
        cleanup_dyn.timing_channel(),
        "{name}: simulator must show the rollback-timing channel under CleanupSpec \
         (diff {:.1})",
        cleanup_dyn.timing_diff
    );
    assert!(
        !cleanup_dyn.footprint_channel(),
        "{name}: CleanupSpec must erase the footprint"
    );
    assert_eq!(
        analysis.verdict(DefenseModel::CleanupSpec).is_leak(),
        cleanup_dyn.timing_channel(),
        "{name}: CleanupSpec verdict disagrees with the simulator"
    );

    let ct_dyn = dynamic_outcome(&spec, DefenseKind::ConstantTime);
    assert!(
        ct_dyn.timing_diff.abs() < TIMING_THRESHOLD,
        "{name}: constant-time rollback must flatten the timing channel \
         (diff {:.1})",
        ct_dyn.timing_diff
    );
    assert!(
        !ct_dyn.footprint_channel(),
        "{name}: constant-time rollback still undoes the footprint"
    );
    assert_eq!(
        analysis.verdict(DefenseModel::ConstantTime).is_leak(),
        ct_dyn.timing_channel() || ct_dyn.footprint_channel(),
        "{name}: constant-time verdict disagrees with the simulator"
    );
}

#[test]
fn spectre_verdicts_match_the_simulator() {
    check_program("spectre");
}

#[test]
fn spectre_v2_verdicts_match_the_simulator() {
    check_program("spectre_v2");
}

#[test]
fn spectre_rsb_verdicts_match_the_simulator() {
    check_program("spectre_rsb");
}

#[test]
fn eviction_verdicts_match_the_simulator() {
    check_program("eviction");
}

#[test]
fn multilevel_verdicts_match_the_simulator() {
    check_program("multilevel");
}

#[test]
fn smt_verdicts_match_the_simulator() {
    check_program("smt");
}

#[test]
fn adaptive_verdicts_match_the_simulator() {
    check_program("adaptive");
}

#[test]
fn golden_json_matches_the_committed_file() {
    // The committed golden file (diffed in CI by the analysis-smoke
    // job) must match what the library produces today — over both the
    // attack registry and the benign expected-clean registry, exactly
    // as `analyze --json` emits it.
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/analysis_golden.json"))
            .expect("analysis_golden.json present");
    let analyses: Vec<ProgramAnalysis> = registry()
        .iter()
        .chain(benign_registry().iter())
        .map(static_analysis_of)
        .collect();
    let produced = document(&analyses);
    assert_eq!(
        committed, produced,
        "analysis_golden.json is stale; regenerate with `analyze --json`"
    );
}

#[test]
fn document_output_is_independent_of_input_order() {
    // `analyze --json` must be byte-deterministic no matter how the
    // caller orders the analyses: `document` sorts programs by name,
    // and each program's reports are sorted by (defense, pc, spec_pc).
    let mut analyses: Vec<ProgramAnalysis> = registry()
        .iter()
        .chain(benign_registry().iter())
        .map(static_analysis_of)
        .collect();
    let forward = document(&analyses);
    analyses.reverse();
    let reversed = document(&analyses);
    assert_eq!(forward, reversed, "document must sort, not echo, its input");
    let names: Vec<&str> = analyses.iter().map(|a| a.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    for (a, b) in sorted.iter().zip(sorted.iter().skip(1)) {
        let (ia, ib) = (
            forward
                .find(&format!("\"program\":\"{a}\""))
                .expect("present"),
            forward
                .find(&format!("\"program\":\"{b}\""))
                .expect("present"),
        );
        assert!(ia < ib, "{a} must precede {b} in the document");
    }
}

#[test]
fn benign_programs_are_clean_statically_and_dynamically() {
    // The join-point false positive (`switch_join`) and the masked
    // stride walker must be clean under every defense *and* show no
    // live channel in the simulator even undefended.
    for spec in benign_registry() {
        let analysis = static_analysis_of(&spec);
        assert!(
            analysis.windowed.is_empty(),
            "{}: no transmitter may survive refinement",
            spec.name
        );
        for d in DefenseModel::ALL {
            assert_eq!(
                analysis.verdict(d),
                Verdict::Clean,
                "{}: must be statically clean under {}",
                spec.name,
                d.label()
            );
        }
    }
    // switch_join is the canonical join artifact: the flow-insensitive
    // pass alone would flag it, so its demotion must be on record.
    let switch_join = benign_registry()
        .into_iter()
        .find(|s| s.name == "switch_join")
        .expect("registered");
    let analysis = static_analysis_of(&switch_join);
    assert!(
        !analysis.demoted.is_empty(),
        "switch_join must document the demoted join-artifact candidate"
    );
}

#[test]
fn witness_golden_matches_the_committed_file() {
    // The witness-replay golden (diffed in CI at quick scale) must
    // reproduce byte-for-byte, and every obligation in it must hold.
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/witness_golden.json"))
            .expect("witness_golden.json present");
    let config = unxpec::analysis::ReplayConfig {
        rounds: 2,
        sweep_secrets: 2,
        ..Default::default()
    };
    let report = unxpec::analysis::replay_registry(&config, &Default::default())
        .expect("replay_registry succeeds");
    assert!(
        report.all_confirmed(),
        "every witness must confirm and every sweep must stay dry"
    );
    assert_eq!(
        committed,
        report.to_json(),
        "witness_golden.json is stale; regenerate with \
         `witness-replay --json --rounds 2 --sweep 2`"
    );
}

// ---------------------------------------------------------------------
// Window soundness property test
// ---------------------------------------------------------------------

/// Builds a random terminating program from raw op tuples: branches and
/// jumps only go forward, and the program ends in `halt`.
fn build_random_program(ops: &[(u8, u8, u8, u64)]) -> Program {
    let n = ops.len();
    let mut b = ProgramBuilder::new();
    for (i, &(op, r1, r2, imm)) in ops.iter().enumerate() {
        b.label(&format!("L{i}"));
        let dst = Reg(1 + r1 % 8);
        let src = Reg(1 + r2 % 8);
        // Forward target in i+1..=n ("L{n}" is the final halt).
        let target = i + 1 + (imm as usize % (n - i));
        match op % 6 {
            0 => b.mov(dst, imm % 4096),
            1 => b.add(dst, src, imm % 256),
            2 => b.load(dst, src, (imm % 64) as i64),
            3 => b.branch(Cond::Lt, src, imm % 16, &format!("L{target}")),
            4 => b.jump(&format!("L{target}")),
            _ => b.nop(),
        };
    }
    b.label(&format!("L{n}"));
    b.halt();
    b.build()
}

// ---------------------------------------------------------------------
// Abstract ⊒ concrete property test
// ---------------------------------------------------------------------

/// `r20` holds this base; loads and stores through it cover the bytes
/// around the secret word range `[0x5000, 0x5040)`.
const DATA_BASE: u64 = 0x4fc0;

/// `r30`, the stack pointer: far from the data region, so no store
/// clobbers a return address.
const STACK_TOP: u64 = 0x1_0000;

const ALU_OPS: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
];

/// Appends one raw op tuple: a `mov`, an ALU op on registers or an
/// immediate, a load through `r20` or through a computed address, a
/// store through `r20`, or (`in_sub` picks) a `call` or an early `ret`.
fn emit_op(b: &mut ProgramBuilder, (kind, r1, r2, sel, imm): (u8, u8, u8, u8, u64), in_sub: bool) {
    let dst = Reg(1 + r1 % 8);
    let src = Reg(1 + r2 % 8);
    // Small values and masks (so `And` of an unknown value enumerates
    // its submasks), data-region addresses, or anything.
    let value = match sel % 3 {
        0 => imm % 16,
        1 => DATA_BASE + imm % 0x100,
        _ => imm,
    };
    // Misaligned displacements included: -16..200 bytes.
    let disp = (imm % 216) as i64 - 16;
    let op = ALU_OPS[usize::from(sel) % ALU_OPS.len()];
    match kind % 7 {
        0 => b.mov(dst, value),
        1 => b.push(Inst::Alu {
            op,
            dst,
            a: src,
            b: Operand::Reg(Reg(1 + (sel >> 3) % 8)),
        }),
        2 => b.push(Inst::Alu {
            op,
            dst,
            a: src,
            b: Operand::Imm(value),
        }),
        3 => b.load(dst, Reg(20), disp),
        4 => b.load(dst, src, disp % 16),
        5 => b.store(src, Reg(20), disp),
        _ if in_sub => b.ret(Reg(30)),
        _ => b.call("sub", Reg(30)),
    };
}

/// A main body ending in `halt` whose calls go to one subroutine, and
/// that subroutine, ending in `ret`: every run terminates, and every
/// return lands on a call's return site.
fn build_call_program(main: &[(u8, u8, u8, u8, u64)], sub: &[(u8, u8, u8, u8, u64)]) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov(Reg(20), DATA_BASE);
    b.mov(Reg(30), STACK_TOP);
    for &op in main {
        emit_op(&mut b, op, false);
    }
    b.halt();
    b.label("sub");
    for &op in sub {
        emit_op(&mut b, op, true);
    }
    b.ret(Reg(30));
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Taint steps `arch::step` in its abstract domain, so its fixpoint
    /// must over-approximate every concrete run: at each visited PC a
    /// register the in-state pins to a constant set holds one of them,
    /// a load's concrete word address lies in its abstract address set
    /// (or that set is `Top`), and a load of a secret word is seeded.
    #[test]
    fn abstract_state_covers_every_concrete_step(
        main in proptest::collection::vec(
            (0u8..255, 0u8..255, 0u8..255, 0u8..255, 0u64..1_000_000),
            1..30,
        ),
        sub in proptest::collection::vec(
            (0u8..255, 0u8..255, 0u8..255, 0u8..255, 0u64..1_000_000),
            0..10,
        ),
    ) {
        let program = build_call_program(&main, &sub);
        let secret = SecretRegion {
            name: "SECRET".into(),
            base: 0x5000,
            len_bytes: 64,
        };
        let taint = taint_analysis(&program, &Cfg::build(&program), std::slice::from_ref(&secret));
        let mut regs = [0u64; NUM_REGS];
        let mut mem = Memory::new();
        let mut pc = 0;
        for _ in 0..10_000 {
            let inst = program.fetch(pc).expect("pc in bounds");
            let state = taint.state_at(pc).expect("a visited pc is reachable");
            for (r, &v) in regs.iter().enumerate() {
                if let AbsValue::Consts(set) = state.value(r) {
                    prop_assert!(set.contains(&v), "pc {pc} ({inst}): r{r} = {v:#x} not in {set:x?}");
                }
            }
            if let Inst::Load { dst, base, offset } = inst {
                let word = regs[base.index()].wrapping_add(offset as u64) & !7;
                if let AbsValue::Consts(bases) = state.value(base.index()) {
                    prop_assert!(
                        bases.iter().any(|b| b.wrapping_add(offset as u64) & !7 == word),
                        "pc {pc} ({inst}): word {word:#x} outside the abstract addresses"
                    );
                }
                if secret.contains_word(word) {
                    let after = taint.state_at(pc + 1).expect("a load falls through");
                    prop_assert!(
                        after.taint(dst.index()).is_some(),
                        "pc {pc} ({inst}): load of secret word {word:#x} not seeded"
                    );
                }
            }
            match arch::step(inst, pc, &mut regs, &mut mem, 0) {
                Flow::Next => pc += 1,
                Flow::Jump(target) => pc = target,
                Flow::Halt => break,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness of the speculative-window pass: the traced simulator
    /// never executes a wrong-path instruction outside the union of the
    /// statically computed windows.
    #[test]
    fn windows_cover_every_transient_instruction(
        ops in proptest::collection::vec(
            (0u8..255, 0u8..255, 0u8..255, 0u64..1_000_000),
            1..40,
        ),
    ) {
        let program = build_random_program(&ops);
        let cfg = Cfg::build(&program);
        let config = CoreConfig::table_i();
        let windows = speculative_windows(&program, &cfg, &config);
        let covered: BTreeSet<usize> = windows
            .iter()
            .flat_map(|w| w.reach.keys().copied())
            .collect();

        let mut core = Core::table_i();
        core.set_tracing(true);
        let r = core.run(&program);
        let trace = r.trace.expect("tracing enabled");
        for e in trace.wrong_path_events() {
            prop_assert!(
                covered.contains(&e.pc),
                "wrong-path pc {} (inst {:?}) outside every static window",
                e.pc,
                e.inst
            );
        }
    }

    /// Monotonicity of the verdict in the secret region: widening the
    /// region (same analysis otherwise) can only add taint sources, so
    /// a leak verdict must never flip to clean, per defense.
    #[test]
    fn verdicts_are_monotone_under_secret_widening(
        ops in proptest::collection::vec(
            (0u8..255, 0u8..255, 0u8..255, 0u64..1_000_000),
            1..40,
        ),
        widen_down in 0u64..0x1000,
        widen_up in 0u64..0x1000,
    ) {
        let program = build_random_program(&ops);
        let narrow = vec![SecretRegion {
            name: "SECRET".into(),
            base: 0x5000,
            len_bytes: 64,
        }];
        let wide = vec![SecretRegion {
            name: "SECRET".into(),
            base: 0x5000 - widen_down,
            len_bytes: 64 + widen_down + widen_up,
        }];
        let config = CoreConfig::table_i();
        let a_narrow = analyze("narrow", &program, &narrow, &config);
        let a_wide = analyze("wide", &program, &wide, &config);
        for d in DefenseModel::ALL {
            prop_assert!(
                !a_narrow.verdict(d).is_leak() || a_wide.verdict(d).is_leak(),
                "{}: leak under the narrow region but clean under the \
                 widened one (narrow {:?}, wide {:?})",
                d.label(),
                a_narrow.verdict(d),
                a_wide.verdict(d),
            );
        }
    }
}
