//! Pins what the core hands a defense: every `SquashInfo` and every
//! committed effect slice, for each fill policy.
//!
//! A `Recorder` wraps a real defense, forwards every `Defense` method
//! to it, and folds each squash (resolve cycle, branch PC, epoch, the
//! transient effects, squashed loads and instructions) and each
//! `on_commit_epoch` slice into one FNV chain. The chains are driven
//! over the 12 SPEC-like kernels under CleanupSpec (eager fills),
//! InvisiSpec (the deferred-line path) and delay-on-miss, plus 64
//! rounds of the unXpec channel, and compared with pinned digests.
//! The perfbench counts pin only aggregates; these digests change if
//! any single squash or commit reaches the defense differently.

use std::sync::{Arc, Mutex};

use unxpec::attack::{AttackConfig, UnxpecChannel};
use unxpec::cache::{CacheHierarchy, Cycle, Effect, ExternalProbe};
use unxpec::cpu::{Core, Defense, FillPolicy, SquashInfo};
use unxpec::defense::{CleanupSpec, DelayOnMiss, InvisiSpec};
use unxpec::mem::seed::Fnv64;
use unxpec::mem::LineAddr;
use unxpec::telemetry::MetricsRegistry;
use unxpec::workloads::spec2017_like_suite;

/// Committed instructions per kernel run: enough for every kernel to
/// squash, short enough for a debug-build test.
const KERNEL_INSTS: u64 = 10_000;

/// What a [`Recorder`] has seen: the digest plus record counts, so the
/// test can tell a pinned digest from one over no records at all.
#[derive(Debug, Default)]
struct Tally {
    digest: Fnv64,
    squashes: u64,
    commits: u64,
}

/// Forwards every [`Defense`] method to `inner`, folding what the core
/// hands it into a shared [`Tally`].
#[derive(Debug)]
struct Recorder<D: Defense> {
    inner: D,
    tally: Arc<Mutex<Tally>>,
}

fn mix_effects(h: &mut Fnv64, effects: &[Effect]) {
    h.mix(effects.len() as u64);
    for e in effects {
        let (level, line, set, way, victim) = match *e {
            Effect::FillL1 {
                line,
                set,
                way,
                victim,
            } => (1, line, set, way, victim),
            Effect::FillL2 {
                line,
                set,
                way,
                victim,
            } => (2, line, set, way, victim),
        };
        h.mix(level).mix(line.raw()).mix(set as u64).mix(way as u64);
        match victim {
            Some(v) => h
                .mix(v.line.raw())
                .mix(u64::from(v.dirty))
                .mix(u64::from(v.was_speculative)),
            None => h.mix(u64::MAX),
        };
    }
}

impl<D: Defense> Defense for Recorder<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fill_policy(&self) -> FillPolicy {
        self.inner.fill_policy()
    }

    fn speculative_load_extra_latency(&self) -> Cycle {
        self.inner.speculative_load_extra_latency()
    }

    fn delayed_load_value_predicted(&mut self) -> bool {
        self.inner.delayed_load_value_predicted()
    }

    fn rollback_exact(&self) -> bool {
        self.inner.rollback_exact()
    }

    fn on_squash(&mut self, hier: &mut CacheHierarchy, info: &SquashInfo<'_>) -> Cycle {
        {
            let mut t = self.tally.lock().unwrap();
            t.squashes += 1;
            let h = &mut t.digest;
            h.mix(1) // squash record
                .mix(info.resolve_cycle)
                .mix(info.branch_pc as u64)
                .mix(info.epoch.0);
            mix_effects(h, info.transient_effects);
            h.mix(info.squashed_loads as u64)
                .mix(info.squashed_insts as u64);
        }
        self.inner.on_squash(hier, info)
    }

    fn on_commit_epoch(&mut self, hier: &mut CacheHierarchy, effects: &[Effect]) {
        {
            let mut t = self.tally.lock().unwrap();
            t.commits += 1;
            t.digest.mix(2); // commit record
            mix_effects(&mut t.digest, effects);
        }
        self.inner.on_commit_epoch(hier, effects);
    }

    fn report(&self) -> String {
        self.inner.report()
    }

    fn record_metrics(&self, reg: &mut MetricsRegistry) {
        self.inner.record_metrics(reg);
    }

    fn serve_external_probe(
        &mut self,
        hier: &mut CacheHierarchy,
        line: LineAddr,
        cycle: Cycle,
    ) -> ExternalProbe {
        self.inner.serve_external_probe(hier, line, cycle)
    }
}

fn recorded<D: Defense + 'static>(inner: D, tally: &Arc<Mutex<Tally>>) -> Box<dyn Defense> {
    Box::new(Recorder {
        inner,
        tally: Arc::clone(tally),
    })
}

/// Runs every SPEC-like kernel on a fresh machine under a recorded
/// `make()` defense, folding each run's cycle and committed-instruction
/// counts in after its records.
fn kernel_tally<D: Defense + 'static>(make: impl Fn() -> D) -> Tally {
    let tally = Arc::new(Mutex::new(Tally::default()));
    for w in spec2017_like_suite() {
        let mut core = Core::table_i();
        core.set_defense(recorded(make(), &tally));
        w.install(&mut core);
        let r = core.run_for(w.program(), KERNEL_INSTS);
        let mut t = tally.lock().unwrap();
        t.digest.mix(r.stats.cycles).mix(r.stats.committed_insts);
    }
    Arc::try_unwrap(tally).unwrap().into_inner().unwrap()
}

/// 64 rounds of the unXpec channel under a recorded CleanupSpec, with
/// each round's measured latency folded in after its records.
fn channel_tally() -> Tally {
    let tally = Arc::new(Mutex::new(Tally::default()));
    let defense = recorded(CleanupSpec::new(), &tally);
    let mut chan = UnxpecChannel::new(AttackConfig::paper_with_es(), defense);
    for i in 0..64 {
        let latency = chan.measure_bit(i % 3 == 0);
        tally.lock().unwrap().digest.mix(latency);
    }
    drop(chan);
    Arc::try_unwrap(tally).unwrap().into_inner().unwrap()
}

#[test]
fn defense_sees_pinned_squashes_and_commits() {
    let tallies = [
        ("cleanupspec", kernel_tally(CleanupSpec::new)),
        ("invisispec", kernel_tally(InvisiSpec::new)),
        ("delay-on-miss", kernel_tally(DelayOnMiss::new)),
        ("unxpec-channel", channel_tally()),
    ];
    for (name, t) in &tallies {
        println!(
            "{name}: {:#018x} ({} squashes, {} commits)",
            t.digest.finish(),
            t.squashes,
            t.commits
        );
        assert!(t.squashes > 0, "{name}: no squash reached the defense");
    }
    let digests = tallies.map(|(name, t)| (name, t.digest.finish()));
    let expected = [
        ("cleanupspec", 0xf63e_f1c6_4b14_4918),
        ("invisispec", 0xbb55_60d0_e08e_021a),
        ("delay-on-miss", 0x39c8_917d_7052_7cab),
        ("unxpec-channel", 0x999d_9f96_8771_cf98),
    ];
    assert_eq!(digests, expected);
}
