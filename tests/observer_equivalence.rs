//! Observed ≡ unobserved: the core compiles its dispatch loop twice, once
//! for runs with an observer (tracing, an enabled telemetry handle or a
//! sanitizer) and once for runs with none. Observers only watch, so every
//! simulated value must come out the same whichever instance runs.
//!
//! Every SPEC-like kernel (a short detailed run with a warmup milestone)
//! and sixteen unXpec channel rounds run under every defense, four ways:
//! no observer, a telemetry ring, tracing, and an armed sanitizer.

use unxpec::attack::{build_round_program, AttackConfig, UnxpecChannel};
use unxpec::cpu::{
    Core, Defense, ProgramBuilder, Reg, RunResult, SanitizerConfig, SquashRecord, UnsafeBaseline,
};
use unxpec::defense::{CleanupSpec, ConstantTimeRollback, DelayOnMiss, FuzzyCleanup, InvisiSpec};
use unxpec::telemetry::Telemetry;
use unxpec::workloads::spec2017_like_suite;

/// Committed instructions before the milestone, and in total, per kernel
/// run: enough for every kernel to mispredict and squash.
const WARMUP: u64 = 1_000;
const INSTS: u64 = 4_000;

/// Channel rounds per defense.
const ROUNDS: usize = 16;

const DEFENSES: [&str; 6] = [
    "unsafe",
    "cleanupspec",
    "constant-time",
    "fuzzy",
    "invisispec",
    "delay-on-miss",
];

fn defense(name: &str) -> Box<dyn Defense> {
    match name {
        "unsafe" => Box::new(UnsafeBaseline),
        "cleanupspec" => Box::new(CleanupSpec::new()),
        "constant-time" => Box::new(ConstantTimeRollback::new(65)),
        "fuzzy" => Box::new(FuzzyCleanup::new(32, 7)),
        "invisispec" => Box::new(InvisiSpec::new()),
        "delay-on-miss" => Box::new(DelayOnMiss::new()),
        other => panic!("unknown defense {other}"),
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Observer {
    None,
    Ring,
    Tracing,
    Sanitizer,
}

const OBSERVERS: [Observer; 4] = [
    Observer::None,
    Observer::Ring,
    Observer::Tracing,
    Observer::Sanitizer,
];

fn observe(core: &mut Core, observer: Observer) {
    match observer {
        Observer::None => {}
        Observer::Ring => {
            core.set_telemetry(Telemetry::ring(1 << 12));
        }
        Observer::Tracing => {
            core.set_tracing(true);
        }
        Observer::Sanitizer => {
            core.set_sanitizer(SanitizerConfig::default());
        }
    }
}

/// Checks that the observer really watched the run, so the comparison
/// is between the two loop instances and not one instance with itself.
fn check_watched(core: &mut Core, observer: Observer, r: &RunResult, what: &str) {
    match observer {
        Observer::None => {
            assert!(r.trace.is_none(), "{what}: untraced run returned a trace");
        }
        Observer::Ring => {
            assert!(!core.telemetry().is_empty(), "{what}: the ring saw nothing");
            core.telemetry().clear();
        }
        Observer::Tracing => {
            let trace = r.trace.as_ref().expect("tracing was on");
            assert!(!trace.events.is_empty(), "{what}: empty trace");
        }
        Observer::Sanitizer => {
            assert!(
                core.sanitizer().is_some_and(|s| s.checks_run() > 0),
                "{what}: the sanitizer ran no check"
            );
            assert_eq!(
                core.take_invariant_trip(),
                None,
                "{what}: sanitizer tripped"
            );
        }
    }
}

/// Every simulated value a run reports.
#[derive(Debug, PartialEq)]
struct Outcome {
    cycles: u64,
    committed_insts: u64,
    committed_loads: u64,
    branches: u64,
    mispredicts: u64,
    squashed_insts: u64,
    cleanup_stall_cycles: u64,
    milestone_cycle: Option<u64>,
    squashes: Vec<SquashRecord>,
    regs: Vec<u64>,
    hit_limit: bool,
    /// The machine clock after the run, which carries into the next one.
    clock: u64,
}

fn outcome(core: &Core, r: &RunResult) -> Outcome {
    Outcome {
        cycles: r.stats.cycles,
        committed_insts: r.stats.committed_insts,
        committed_loads: r.stats.committed_loads,
        branches: r.stats.branches,
        mispredicts: r.stats.mispredicts,
        squashed_insts: r.stats.squashed_insts,
        cleanup_stall_cycles: r.stats.cleanup_stall_cycles,
        milestone_cycle: r.stats.milestone_cycle,
        squashes: r.stats.squashes.clone(),
        regs: r.regs.to_vec(),
        hit_limit: r.hit_limit,
        clock: core.clock(),
    }
}

#[test]
fn kernels_run_the_same_with_and_without_observers() {
    let suite = spec2017_like_suite();
    assert_eq!(suite.len(), 12);
    for w in &suite {
        for scheme in DEFENSES {
            let mut baseline = None;
            for observer in OBSERVERS {
                let what = format!("{} under {scheme}, {observer:?}", w.name());
                let mut core = Core::table_i();
                core.set_defense(defense(scheme));
                w.install(&mut core);
                observe(&mut core, observer);
                let r = core.run_with_milestone(w.program(), Some(WARMUP), INSTS);
                check_watched(&mut core, observer, &r, &what);
                let got = outcome(&core, &r);
                assert!(got.milestone_cycle.is_some(), "{what}: no milestone");
                match &baseline {
                    None => baseline = Some(got),
                    Some(want) => assert_eq!(&got, want, "{what}"),
                }
            }
        }
    }
}

/// The channel's round as `UnxpecChannel::measure_bit` runs it: the
/// victim touches its secret, then the attacker's round program runs.
fn round_outcomes(scheme: &str, observer: Observer) -> Vec<Outcome> {
    let cfg = AttackConfig::paper_no_es();
    let mut chan = UnxpecChannel::new(cfg, defense(scheme));
    let layout = chan.layout().clone();
    let round = build_round_program(&cfg, &layout);
    let mut vb = ProgramBuilder::new();
    vb.mov(Reg(1), layout.secret_addr().raw());
    vb.load(Reg(2), Reg(1), 0);
    vb.halt();
    let victim_touch = vb.build();

    let core = chan.core_mut();
    observe(core, observer);
    (0..ROUNDS)
        .map(|i| {
            let what = format!("round {i} under {scheme}, {observer:?}");
            // An irregular secret pattern, so both rollback shapes follow
            // each other.
            layout.set_secret(core.mem_mut(), (0x5a3c_u32 >> i) & 1 == 1);
            let touch = core.run(&victim_touch);
            check_watched(core, observer, &touch, &what);
            let r = core.run(&round);
            check_watched(core, observer, &r, &what);
            assert!(!r.stats.squashes.is_empty(), "{what}: no squash");
            outcome(core, &r)
        })
        .collect()
}

#[test]
fn channel_rounds_run_the_same_with_and_without_observers() {
    for scheme in DEFENSES {
        let want = round_outcomes(scheme, Observer::None);
        for observer in &OBSERVERS[1..] {
            let got = round_outcomes(scheme, *observer);
            assert_eq!(got, want, "channel rounds under {scheme}, {observer:?}");
        }
    }
}
