//! The static↔dynamic replay harness: every verdict gets checked
//! against the cycle simulator.
//!
//! Two obligations, one per verdict polarity:
//!
//! * **Leak verdicts** come with a [`LeakWitness`] naming two secret
//!   bytes and a predicted observable. [`check_witness`] drives the
//!   program through the simulator under the claimed defense with
//!   each byte and asserts the prediction materializes: under
//!   `Unsafe` the predicted probe lines end up in different warm/cold
//!   states, under `CleanupSpec` the rollback attributed to the
//!   witness's trigger takes a different number of cycles.
//! * **Clean verdicts** get a seeded bounded *refutation sweep*
//!   ([`refute_clean`]): random secret byte pairs are driven through
//!   the simulator looking for a timing delta or a footprint
//!   difference the analyzer missed. Finding one is a counterexample
//!   — the sweep is expected to come up dry.
//!
//! [`replay_registry`] runs the whole matrix — every attack and benign
//! registry program × every [`DefenseModel`] — and produces a
//! deterministic JSON report (`witness_golden.json` pins it in CI).
//! The sweep is bounded (`sweep_secrets` pairs × `rounds` rounds), so
//! a dry sweep is evidence, not proof; the bounds are part of the
//! report.

use unxpec_attack::{benign_registry, probe_latency, registry, ProgramSpec, TriggerKind};
use unxpec_cpu::{
    Core, CoreConfig, Defense, Inst, PcIndex, Program, ProgramBuilder, Reg, UnsafeBaseline,
};
use unxpec_defense::{CleanupSpec, ConstantTimeRollback, DelayOnMiss, InvisiSpec};
use unxpec_mem::Addr;
use unxpec_telemetry::json::escape;
use unxpec_telemetry::{fold_episodes, Episode, Event, Telemetry};

use crate::error::AnalysisError;
use crate::taint::{AnalysisConfig, SecretRegion};
use crate::verdict::{analyze_with, DefenseModel, ProgramAnalysis};
use crate::witness::{self, LeakWitness, PredictedObservable};

/// Cycles below which a probe load counts as a cache hit.
pub const HIT_THRESHOLD: u64 = 60;

/// Minimum mean secret-dependent latency difference that counts as a
/// live timing channel (the real rollback effect is ~22 cycles).
pub const TIMING_THRESHOLD: f64 = 8.0;

/// Minimum mean rollback-cycle delta that confirms a
/// [`PredictedObservable::RollbackDelta`] witness. The simulator is
/// deterministic, so any real footprint difference shows up as at
/// least a cycle of cleanup work.
pub const ROLLBACK_DELTA_MIN: f64 = 1.0;

/// Constant-time rollback pad: must exceed the worst real cleanup of
/// any registered program (the eviction-set round restores ~16 lines).
pub const CT_PAD: u64 = 120;

/// Telemetry ring capacity for one round's rollback forensics.
const RING_CAPACITY: usize = 1 << 16;

/// Bounds of one replay run.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Measurement rounds per secret byte (after two warmup rounds).
    pub rounds: usize,
    /// Random secret pairs tried per refutation sweep.
    pub sweep_secrets: usize,
    /// Seed of the sweep's pair generator.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            rounds: 8,
            sweep_secrets: 4,
            seed: 0x5eed_cafe,
        }
    }
}

/// The dynamic defense implementation for a static [`DefenseModel`].
pub fn defense_for(model: DefenseModel) -> Box<dyn Defense> {
    match model {
        DefenseModel::Unsafe => Box::new(UnsafeBaseline),
        DefenseModel::CleanupSpec => Box::new(CleanupSpec::new()),
        DefenseModel::InvisiSpec => Box::new(InvisiSpec::new()),
        DefenseModel::DelayOnMiss => Box::new(DelayOnMiss::new()),
        DefenseModel::ConstantTime => Box::new(ConstantTimeRollback::new(CT_PAD)),
    }
}

/// Deterministic pair generator for the refutation sweep: the
/// splitmix64 sequence over `state` (no process entropy so the
/// committed golden report is reproducible).
fn splitmix64(state: &mut u64) -> u64 {
    let z = unxpec_mem::seed::splitmix64(*state);
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z
}

/// One round's dynamic observation.
struct RoundSample {
    /// Receiver latency (`t2 - t1`).
    latency: u64,
    /// Rollback episodes folded from this round's telemetry.
    episodes: Vec<Episode>,
}

impl RoundSample {
    /// Total cleanup cycles of the episodes triggered at `pc`.
    fn cleanup_at(&self, pc: PcIndex) -> u64 {
        self.episodes
            .iter()
            .filter(|e| e.trigger_pc == pc)
            .map(Episode::cleanup_cycles)
            .sum()
    }
}

/// Drives one registry program under one defense, round by round, the
/// same way the attack channels do — trigger preparation included.
struct Driver {
    core: Core,
    spec: ProgramSpec,
    victim_touch: Program,
    /// BTB poisoning for indirect-jump triggers: (jump pc, wrong-path
    /// target), re-applied before every round like `SpectreV2` does.
    poison: Option<(PcIndex, PcIndex)>,
}

impl Driver {
    fn new(spec: &ProgramSpec, defense: Box<dyn Defense>) -> Driver {
        let mut core = Core::table_i();
        core.set_defense(defense);
        spec.layout().install(core.mem_mut(), spec.fn_accesses);
        let mut poison = None;
        match spec.trigger {
            TriggerKind::IndirectJump => {
                // The victim's benign target pointer, plus the poisoned
                // prediction toward the gadget that follows the jump.
                if let Some(pc) = spec.program().label("benign") {
                    core.mem_mut()
                        .write_u64(spec.layout().chain_node(0), pc as u64);
                }
                let jump_pc = (0..spec.program().len())
                    .find(|&pc| matches!(spec.program().fetch(pc), Some(Inst::JumpInd { .. })));
                poison = jump_pc.map(|j| (j, j + 1));
            }
            TriggerKind::Return => {
                if let Some(pc) = spec.program().label("escape") {
                    core.mem_mut().write_u64(Addr::new(0x8_0000), pc as u64);
                }
            }
            TriggerKind::ConditionalBranch => {}
        }
        let mut vb = ProgramBuilder::new();
        vb.mov(Reg(1), spec.layout().secret_addr().raw());
        vb.load(Reg(2), Reg(1), 0);
        vb.halt();
        Driver {
            core,
            spec: spec.clone(),
            victim_touch: vb.build(),
            poison,
        }
    }

    fn round(&mut self, byte: u8) -> RoundSample {
        let telemetry = Telemetry::ring(RING_CAPACITY);
        self.core.set_telemetry(telemetry.clone());
        self.spec
            .layout()
            .set_secret_byte(self.core.mem_mut(), byte);
        self.core.run(&self.victim_touch);
        if let Some((jump_pc, target)) = self.poison {
            self.core.btb_mut().update(jump_pc, target);
        }
        let r = self.core.run(self.spec.program());
        RoundSample {
            latency: r.reg(Reg(21)).wrapping_sub(r.reg(Reg(20))),
            episodes: fold_episodes(&telemetry.snapshot()),
        }
    }

    /// Cold-probes `lines` (cache-line indices) and reports which are
    /// warm. Probing warms them, so call at most once per round.
    fn warm_pattern(&mut self, lines: &[u64]) -> Vec<bool> {
        lines
            .iter()
            .map(|&l| probe_latency(&mut self.core, Addr::new(l << 6)) < HIT_THRESHOLD)
            .collect()
    }
}

/// The verdict of replaying one witness.
#[derive(Debug, Clone)]
pub struct WitnessCheck {
    /// The witness that was replayed.
    pub witness: LeakWitness,
    /// Whether the predicted observable materialized.
    pub confirmed: bool,
    /// The measured effect: warm-pattern mismatch count for footprint
    /// witnesses, mean rollback-cycle delta for timing witnesses.
    pub delta: f64,
    /// Human-readable account of what was measured.
    pub detail: String,
}

impl WitnessCheck {
    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"witness\":{},\"confirmed\":{},\"delta\":{:.2},\"detail\":\"{}\"}}",
            self.witness.to_json(),
            self.confirmed,
            self.delta,
            escape(&self.detail),
        )
    }

    /// The telemetry event for this check.
    pub fn to_event(&self) -> Event {
        Event::WitnessChecked {
            pc: self.witness.transmitter_pc,
            spec_pc: self.witness.trigger_pc,
            defense_code: self.witness.defense.code(),
            channel_code: self.witness.channel.code(),
            confirmed: self.confirmed,
            delta_cycles: self.delta.abs().round() as u64,
        }
    }
}

/// The warm/cold state of `lines` after one round with `byte`, taken
/// on a fresh driver whose history is identical for every `byte` (two
/// fixed warmup rounds, then the measured one). Probing warms lines,
/// so reusing one driver across secrets would compare the probe's own
/// pollution, not the program's footprint.
fn pattern_after(
    spec: &ProgramSpec,
    defense: DefenseModel,
    warmup: (u8, u8),
    byte: u8,
    lines: &[u64],
) -> Vec<bool> {
    let mut d = Driver::new(spec, defense_for(defense));
    let _ = d.round(warmup.0);
    let _ = d.round(warmup.1);
    let _ = d.round(byte);
    d.warm_pattern(lines)
}

/// Replays one witness through the simulator under its claimed defense.
pub fn check_witness(spec: &ProgramSpec, w: &LeakWitness, config: &ReplayConfig) -> WitnessCheck {
    let (b0, b1) = w.secret_pair;
    match w.observable {
        PredictedObservable::FootprintLines { line_b0, line_b1 } => {
            let lines = [line_b0, line_b1];
            let pat0 = pattern_after(spec, w.defense, (b0, b1), b0, &lines);
            let pat1 = pattern_after(spec, w.defense, (b0, b1), b1, &lines);
            let mismatches = pat0.iter().zip(&pat1).filter(|(a, b)| a != b).count();
            WitnessCheck {
                witness: w.clone(),
                confirmed: mismatches > 0,
                delta: mismatches as f64,
                detail: format!(
                    "footprint over lines [{line_b0},{line_b1}]: byte {b0} -> {pat0:?}, byte {b1} -> {pat1:?}"
                ),
            }
        }
        PredictedObservable::RollbackDelta { .. } => {
            let mut d = Driver::new(spec, defense_for(w.defense));
            let _ = d.round(b0);
            let _ = d.round(b1);
            let mut cleanup0 = 0u64;
            let mut cleanup1 = 0u64;
            let mut lat0 = 0u64;
            let mut lat1 = 0u64;
            for _ in 0..config.rounds.max(1) {
                let s0 = d.round(b0);
                cleanup0 += s0.cleanup_at(w.trigger_pc);
                lat0 += s0.latency;
                let s1 = d.round(b1);
                cleanup1 += s1.cleanup_at(w.trigger_pc);
                lat1 += s1.latency;
            }
            let n = config.rounds.max(1) as f64;
            let delta = (cleanup1 as f64 - cleanup0 as f64) / n;
            let lat_delta = (lat1 as f64 - lat0 as f64) / n;
            WitnessCheck {
                witness: w.clone(),
                confirmed: delta.abs() >= ROLLBACK_DELTA_MIN,
                delta,
                detail: format!(
                    "rollback at trigger pc {}: mean cleanup delta {delta:.1} cy (receiver latency delta {lat_delta:.1} cy)",
                    w.trigger_pc
                ),
            }
        }
    }
}

/// The outcome of one bounded refutation sweep over a clean verdict.
#[derive(Debug, Clone)]
pub struct RefutationSweep {
    /// Program swept.
    pub program: String,
    /// The defense whose clean verdict is under attack.
    pub defense: DefenseModel,
    /// Secret pairs tried.
    pub pairs_tried: usize,
    /// Largest mean timing delta seen across pairs (cycles).
    pub max_timing_delta: f64,
    /// A found counterexample, rendered — `None` means the sweep came
    /// up dry and the clean verdict stands.
    pub counterexample: Option<String>,
}

impl RefutationSweep {
    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        let cx = match &self.counterexample {
            Some(c) => format!("\"{}\"", escape(c)),
            None => "null".to_owned(),
        };
        format!(
            "{{\"program\":\"{}\",\"defense\":\"{}\",\"pairs_tried\":{},\"max_timing_delta\":{:.2},\"counterexample\":{}}}",
            escape(&self.program),
            self.defense.label(),
            self.pairs_tried,
            self.max_timing_delta,
            cx,
        )
    }
}

/// Probe-line indices the sweep watches for footprint differences: the
/// first eight probe lines, which cover every registered encoder's
/// transient targets.
fn sweep_lines(spec: &ProgramSpec) -> Vec<u64> {
    (0..8u64)
        .map(|k| spec.layout().probe_line(k).raw() >> 6)
        .collect()
}

/// Tries to refute a clean verdict: drives seeded secret pairs through
/// the simulator under `defense` looking for a timing delta above
/// [`TIMING_THRESHOLD`] or a secret-dependent footprint.
pub fn refute_clean(
    spec: &ProgramSpec,
    defense: DefenseModel,
    config: &ReplayConfig,
) -> RefutationSweep {
    let mut rng = config.seed ^ (defense.code() << 8) ^ spec.name.len() as u64;
    let lines = sweep_lines(spec);
    let mut max_timing_delta = 0.0f64;
    let mut counterexample = None;
    let pairs = config.sweep_secrets.max(1);
    for _ in 0..pairs {
        let b0 = 0u8;
        let b1 = 1 + (splitmix64(&mut rng) % 255) as u8;
        let mut d = Driver::new(spec, defense_for(defense));
        let _ = d.round(b0);
        let _ = d.round(b1);
        let mut lat0 = 0u64;
        let mut lat1 = 0u64;
        for _ in 0..config.rounds.max(1) {
            lat0 += d.round(b0).latency;
            lat1 += d.round(b1).latency;
        }
        let delta = (lat1 as f64 - lat0 as f64) / config.rounds.max(1) as f64;
        if delta.abs() > max_timing_delta {
            max_timing_delta = delta.abs();
        }
        let pat0 = pattern_after(spec, defense, (b0, b1), b0, &lines);
        let pat1 = pattern_after(spec, defense, (b0, b1), b1, &lines);
        if delta.abs() > TIMING_THRESHOLD {
            counterexample.get_or_insert(format!(
                "pair ({b0},{b1}): mean timing delta {delta:.1} cy exceeds {TIMING_THRESHOLD}"
            ));
        } else if pat0 != pat1 {
            counterexample.get_or_insert(format!(
                "pair ({b0},{b1}): secret-dependent footprint {pat0:?} vs {pat1:?}"
            ));
        }
        if counterexample.is_some() {
            break;
        }
    }
    RefutationSweep {
        program: spec.name.to_owned(),
        defense,
        pairs_tried: pairs,
        max_timing_delta,
        counterexample,
    }
}

/// Everything the harness established about one program.
#[derive(Debug, Clone)]
pub struct ProgramReplay {
    /// Program name.
    pub program: String,
    /// Whether the static analysis matched the registry's declared
    /// witness shape (leak polarity and surviving-transmitter count).
    pub shape_ok: bool,
    /// Shape mismatch description, when `!shape_ok`.
    pub shape_detail: Option<String>,
    /// One replay per extracted witness.
    pub checks: Vec<WitnessCheck>,
    /// One sweep per clean (program, defense) verdict.
    pub refutations: Vec<RefutationSweep>,
}

impl ProgramReplay {
    /// Whether every obligation held: shape matches, every witness
    /// confirmed, every sweep dry.
    pub fn all_confirmed(&self) -> bool {
        self.shape_ok
            && self.checks.iter().all(|c| c.confirmed)
            && self.refutations.iter().all(|r| r.counterexample.is_none())
    }

    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        let shape_detail = match &self.shape_detail {
            Some(s) => format!("\"{}\"", escape(s)),
            None => "null".to_owned(),
        };
        let checks: Vec<String> = self.checks.iter().map(WitnessCheck::to_json).collect();
        let refutations: Vec<String> = self
            .refutations
            .iter()
            .map(RefutationSweep::to_json)
            .collect();
        format!(
            "{{\"program\":\"{}\",\"shape_ok\":{},\"shape_detail\":{},\"checks\":[{}],\"refutations\":[{}]}}",
            escape(&self.program),
            self.shape_ok,
            shape_detail,
            checks.join(","),
            refutations.join(","),
        )
    }
}

/// The full matrix report.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Per-program results, in registry order (attack then benign).
    pub programs: Vec<ProgramReplay>,
    /// The bounds the report was produced under.
    pub config: ReplayConfig,
}

impl ReplayReport {
    /// Total witnesses replayed.
    pub fn total_witnesses(&self) -> usize {
        self.programs.iter().map(|p| p.checks.len()).sum()
    }

    /// Witnesses whose predicted observable materialized.
    pub fn confirmed_witnesses(&self) -> usize {
        self.programs
            .iter()
            .flat_map(|p| &p.checks)
            .filter(|c| c.confirmed)
            .count()
    }

    /// Whether every obligation across every program held.
    pub fn all_confirmed(&self) -> bool {
        self.programs.iter().all(ProgramReplay::all_confirmed)
    }

    /// Deterministic JSON document (programs sorted by name) — the
    /// byte format of the committed `witness_golden.json`.
    pub fn to_json(&self) -> String {
        let mut sorted: Vec<&ProgramReplay> = self.programs.iter().collect();
        sorted.sort_by(|a, b| a.program.cmp(&b.program));
        let docs: Vec<String> = sorted.iter().map(|p| p.to_json()).collect();
        format!(
            "{{\"rounds\":{},\"sweep_secrets\":{},\"seed\":{},\"witnesses\":{},\"confirmed\":{},\"all_confirmed\":{},\"programs\":[{}]}}\n",
            self.config.rounds,
            self.config.sweep_secrets,
            self.config.seed,
            self.total_witnesses(),
            self.confirmed_witnesses(),
            self.all_confirmed(),
            docs.join(","),
        )
    }

    /// Emits one [`Event::WitnessChecked`] per replayed witness.
    pub fn emit(&self, telemetry: &Telemetry) {
        for check in self.programs.iter().flat_map(|p| &p.checks) {
            telemetry.emit(check.to_event());
        }
    }
}

fn secrets_of(spec: &ProgramSpec) -> Vec<SecretRegion> {
    SecretRegion::from_layout(spec.layout().memory_layout(), "SECRET")
        .into_iter()
        .collect()
}

/// Analyzes, extracts, and replays one program across every defense.
pub fn replay_program(
    spec: &ProgramSpec,
    config: &ReplayConfig,
    knobs: &AnalysisConfig,
) -> Result<(ProgramAnalysis, ProgramReplay), AnalysisError> {
    let analysis = analyze_with(
        spec.name,
        spec.program(),
        &secrets_of(spec),
        &CoreConfig::table_i(),
        knobs,
    );
    let leaks = !analysis.windowed.is_empty();
    let (shape_ok, shape_detail) = if leaks != spec.witness.leaks {
        (
            false,
            Some(format!(
                "registry declares leaks={}, analysis found {} surviving transmitters",
                spec.witness.leaks,
                analysis.windowed.len()
            )),
        )
    } else if analysis.windowed.len() != spec.witness.transmitters {
        (
            false,
            Some(format!(
                "registry declares {} transmitters, analysis found {}",
                spec.witness.transmitters,
                analysis.windowed.len()
            )),
        )
    } else {
        (true, None)
    };
    let witnesses = witness::extract(spec, &analysis)?;
    let checks: Vec<WitnessCheck> = witnesses
        .iter()
        .map(|w| check_witness(spec, w, config))
        .collect();
    let refutations: Vec<RefutationSweep> = DefenseModel::ALL
        .iter()
        .filter(|d| !analysis.verdict(**d).is_leak())
        .map(|&d| refute_clean(spec, d, config))
        .collect();
    Ok((
        analysis,
        ProgramReplay {
            program: spec.name.to_owned(),
            shape_ok,
            shape_detail,
            checks,
            refutations,
        },
    ))
}

/// Runs the full matrix: every attack and benign registry program ×
/// every defense model.
pub fn replay_registry(
    config: &ReplayConfig,
    knobs: &AnalysisConfig,
) -> Result<ReplayReport, AnalysisError> {
    let mut programs = Vec::new();
    for spec in registry().into_iter().chain(benign_registry()) {
        let (_, replay) = replay_program(&spec, config, knobs)?;
        programs.push(replay);
    }
    Ok(ReplayReport {
        programs,
        config: *config,
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use unxpec_attack::find;
    use unxpec_telemetry::json::validate;

    fn quick() -> ReplayConfig {
        ReplayConfig {
            rounds: 2,
            sweep_secrets: 1,
            seed: 7,
        }
    }

    #[test]
    fn spectre_witnesses_confirm_under_both_open_channels() {
        let spec = find("spectre").expect("registry");
        let (_, replay) =
            replay_program(&spec, &quick(), &AnalysisConfig::default()).expect("replay");
        assert!(replay.shape_ok, "{:?}", replay.shape_detail);
        assert_eq!(replay.checks.len(), 2, "one witness per open channel");
        for c in &replay.checks {
            assert!(c.confirmed, "{}: {}", c.witness.defense.label(), c.detail);
        }
        // The three closed-channel defenses each get a dry sweep.
        assert_eq!(replay.refutations.len(), 3);
        for r in &replay.refutations {
            assert!(
                r.counterexample.is_none(),
                "{}: {:?}",
                r.defense.label(),
                r.counterexample
            );
        }
        validate(&replay.to_json()).expect("valid JSON");
    }

    #[test]
    fn benign_program_sweeps_stay_dry_under_every_defense() {
        let spec = unxpec_attack::find_benign("switch_join").expect("benign registry");
        let (analysis, replay) =
            replay_program(&spec, &quick(), &AnalysisConfig::default()).expect("replay");
        assert!(analysis.windowed.is_empty());
        assert!(replay.checks.is_empty(), "no witnesses for a clean program");
        assert_eq!(replay.refutations.len(), DefenseModel::ALL.len());
        assert!(replay.all_confirmed(), "{}", replay.to_json());
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_ne!(splitmix64(&mut a), splitmix64(&mut b).wrapping_add(1));
    }
}
