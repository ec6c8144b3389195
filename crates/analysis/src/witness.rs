//! Counterexample extraction: from a leak *verdict* to a concrete,
//! machine-checkable [`LeakWitness`].
//!
//! A verdict says "some speculative path makes this load's address
//! secret-dependent". A witness says *which* path, under *which* pair
//! of secret bytes, producing *which* two addresses — and therefore
//! predicts exactly what the dynamic simulator must show: under
//! `Unsafe`, the two runs leave different probe lines cached; under
//! `CleanupSpec`, the rollback touches a different line set and its
//! cycle count shifts. The replay harness ([`crate::replay`]) drives
//! each witness through the cycle simulator and asserts that
//! prediction.
//!
//! Extraction is concrete: the program is executed **architecturally**
//! (a loop over [`unxpec_cpu::arch::step`], no pipeline) with the
//! attack layout installed and the trigger prepared exactly as the
//! dynamic drivers do. At every architectural occurrence of the witness
//! path's speculation source, the confirming path is stepped concretely
//! from the live register file (stores buffered in an overlay, loads
//! reading overlay-then-memory), yielding the transmitter's concrete
//! address. Run twice with two secret bytes: a pair whose addresses
//! land on different cache lines is *distinguishing* and becomes the
//! witness. Candidate pairs come from the registry's
//! [`WitnessShape`](unxpec_attack::WitnessShape) metadata, then a
//! fallback list (multi-level encoders distinguish only specific bit
//! positions).

use std::collections::BTreeMap;

use unxpec_attack::{ProgramSpec, TriggerKind};
use unxpec_cpu::arch::{self, ArchMem, Flow};
use unxpec_cpu::{Inst, PcIndex, Program, NUM_REGS};
use unxpec_mem::{Addr, Memory};

use crate::error::AnalysisError;
use crate::paths::SpecPath;
use crate::verdict::{Channel, DefenseModel, ProgramAnalysis};
use crate::window::SpecKind;

/// Secret byte pairs tried after the registry's preferred ones.
pub const FALLBACK_PAIRS: &[(u8, u8)] = &[(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (0, 255)];

/// Architectural step budget for one interpreter run.
const ARCH_STEP_CAP: u64 = 200_000;

/// Maximum dynamic occurrences of the trigger PC sampled per run.
const OCCURRENCE_CAP: usize = 64;

/// What the dynamic simulator must observe if the witness is real.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictedObservable {
    /// `Unsafe`: after the squash, the transmitter's line survives —
    /// so the two secrets leave different lines cached.
    FootprintLines {
        /// Cache line (byte address / 64) touched under the pair's
        /// first byte.
        line_b0: u64,
        /// Line touched under the pair's second byte.
        line_b1: u64,
    },
    /// `CleanupSpec`: the rollback must undo a different line set, so
    /// the measured rollback-cycle delta between the secrets is
    /// nonzero.
    RollbackDelta {
        /// Transient line under the pair's first byte.
        line_b0: u64,
        /// Transient line under the pair's second byte.
        line_b1: u64,
    },
}

impl PredictedObservable {
    /// Stable lowercase kind label for JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            PredictedObservable::FootprintLines { .. } => "footprint-lines",
            PredictedObservable::RollbackDelta { .. } => "rollback-delta",
        }
    }

    /// The two predicted lines, in pair order.
    pub fn lines(&self) -> (u64, u64) {
        match *self {
            PredictedObservable::FootprintLines { line_b0, line_b1 }
            | PredictedObservable::RollbackDelta { line_b0, line_b1 } => (line_b0, line_b1),
        }
    }

    fn to_json(self) -> String {
        let (b0, b1) = self.lines();
        format!(
            "{{\"kind\":\"{}\",\"line_b0\":{b0},\"line_b1\":{b1}}}",
            self.kind()
        )
    }
}

/// A complete, replayable counterexample for one leak report.
#[derive(Debug, Clone)]
pub struct LeakWitness {
    /// Program the witness is for.
    pub program: String,
    /// Defense the leak is claimed under.
    pub defense: DefenseModel,
    /// Channel it leaks through.
    pub channel: Channel,
    /// The speculation source the path mispredicts at.
    pub trigger_pc: PcIndex,
    /// Its kind.
    pub trigger_kind: SpecKind,
    /// The secret-addressed load.
    pub transmitter_pc: PcIndex,
    /// Wrong-path PCs, first transient instruction through the
    /// transmitter inclusive.
    pub path: Vec<PcIndex>,
    /// Rendered branch-predicate assumption of the misprediction.
    pub assumption: Option<String>,
    /// Taint chain (seed load first) — the address derivation.
    pub derivation: Vec<PcIndex>,
    /// The distinguishing secret byte pair.
    pub secret_pair: (u8, u8),
    /// Concrete transmitter address under `secret_pair.0`.
    pub addr_b0: u64,
    /// Concrete transmitter address under `secret_pair.1`.
    pub addr_b1: u64,
    /// What the simulator must observe.
    pub observable: PredictedObservable,
}

impl LeakWitness {
    /// Deterministic JSON object (stable schema, documented in
    /// `docs/static_analysis.md`).
    pub fn to_json(&self) -> String {
        let assumption = match &self.assumption {
            Some(a) => format!("\"{}\"", unxpec_telemetry::json::escape(a)),
            None => "null".to_owned(),
        };
        let fmt_pcs = |pcs: &[PcIndex]| {
            pcs.iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"program\":\"{}\",\"defense\":\"{}\",\"channel\":\"{}\",\"trigger_pc\":{},\"trigger_kind\":\"{}\",\"transmitter_pc\":{},\"path\":[{}],\"assumption\":{},\"derivation\":[{}],\"secret_pair\":[{},{}],\"addr_b0\":{},\"addr_b1\":{},\"observable\":{}}}",
            unxpec_telemetry::json::escape(&self.program),
            self.defense.label(),
            self.channel.label(),
            self.trigger_pc,
            self.trigger_kind.label(),
            self.transmitter_pc,
            fmt_pcs(&self.path),
            assumption,
            fmt_pcs(&self.derivation),
            self.secret_pair.0,
            self.secret_pair.1,
            self.addr_b0,
            self.addr_b1,
            self.observable.to_json(),
        )
    }
}

/// Installs the layout, prepares the trigger exactly as the dynamic
/// drivers do, and writes the secret byte.
pub(crate) fn prepare_memory(spec: &ProgramSpec, mem: &mut Memory, byte: u8) {
    spec.layout().install(mem, spec.fn_accesses);
    match spec.trigger {
        TriggerKind::IndirectJump => {
            // The benign target pointer the victim loads through
            // `chain_node(0)` (see `SpectreV2::measure_bit`).
            if let Some(pc) = spec.program().label("benign") {
                mem.write_u64(spec.layout().chain_node(0), pc as u64);
            }
        }
        TriggerKind::Return => {
            // The escape PC published at 0x8_0000 (see
            // `SpectreRsb::measure_bit`).
            if let Some(pc) = spec.program().label("escape") {
                mem.write_u64(Addr::new(0x8_0000), pc as u64);
            }
        }
        TriggerKind::ConditionalBranch => {}
    }
    spec.layout().set_secret_byte(mem, byte);
}

/// One concrete evaluation of a witness path at one trigger occurrence.
struct PathSample {
    /// Transmitter's concrete (word-masked) address.
    addr: u64,
}

/// Architectural memory for a wrong path: its stores land in a local
/// overlay, and its loads read overlay-then-memory.
struct StoreOverlay<'a> {
    mem: &'a Memory,
    stores: BTreeMap<u64, u64>,
}

impl ArchMem for StoreOverlay<'_> {
    fn read_u64(&mut self, addr: u64) -> u64 {
        match self.stores.get(&addr) {
            Some(&value) => value,
            None => self.mem.read_u64(Addr::new(addr)),
        }
    }

    fn write_u64(&mut self, addr: u64, value: u64) {
        self.stores.insert(addr, value);
    }
}

/// Evaluates `path` concretely from the architectural state at its
/// source, stepping each instruction with [`arch::step`] against a
/// [`StoreOverlay`]. The path dictates control flow, so each step's
/// [`arch::Flow`] is ignored; the path's own clock reads 1 at its first
/// instruction.
fn eval_path(
    program: &Program,
    path: &SpecPath,
    arch_regs: &[u64; NUM_REGS],
    mem: &Memory,
) -> Option<PathSample> {
    let mut regs = *arch_regs;
    let mut overlay = StoreOverlay {
        mem,
        stores: BTreeMap::new(),
    };
    // The source's own architectural side effect precedes the wrong
    // path (a mispredicted `ret` still pops the stack pointer).
    if let Some(source) = program.fetch(path.spec_pc) {
        arch::step(source, path.spec_pc, &mut regs, &mut overlay, 0);
    }
    let last = *path.pcs.last()?;
    for (time, &pc) in (1..).zip(&path.pcs) {
        let inst = program.fetch(pc)?;
        if pc == last {
            let Inst::Load { base, offset, .. } = inst else {
                return None;
            };
            let addr = regs[base.index()].wrapping_add(offset as u64) & !7;
            return Some(PathSample { addr });
        }
        arch::step(inst, pc, &mut regs, &mut overlay, time);
    }
    None
}

/// Runs `program` architecturally from PC 0 on the prepared `mem`,
/// sampling the concrete evaluation of `path` at every dynamic
/// occurrence of its speculation source. The clock `ReadTime` sees is
/// the step count, 1 at the first instruction.
fn sample_occurrences(
    name: &str,
    program: &Program,
    mut mem: Memory,
    path: &SpecPath,
) -> Result<Vec<PathSample>, AnalysisError> {
    let mut regs = [0u64; NUM_REGS];
    let mut pc: PcIndex = 0;
    let mut samples = Vec::new();
    for time in 1..=ARCH_STEP_CAP {
        let Some(inst) = program.fetch(pc) else {
            return Err(AnalysisError::Interpreter {
                program: name.to_owned(),
                pc,
                reason: "pc out of bounds".to_owned(),
            });
        };
        if pc == path.spec_pc && samples.len() < OCCURRENCE_CAP {
            if let Some(sample) = eval_path(program, path, &regs, &mem) {
                samples.push(sample);
            }
        }
        match arch::step(inst, pc, &mut regs, &mut mem, time) {
            Flow::Next => pc += 1,
            Flow::Jump(target) => pc = target,
            Flow::Halt => return Ok(samples),
        }
    }
    Err(AnalysisError::Interpreter {
        program: name.to_owned(),
        pc,
        reason: format!("architectural step budget ({ARCH_STEP_CAP}) exhausted"),
    })
}

/// The candidate secret pairs for `spec`, preference order, deduped.
fn candidate_pairs(spec: &ProgramSpec) -> Vec<(u8, u8)> {
    let mut pairs: Vec<(u8, u8)> = Vec::new();
    for &p in spec.witness.secret_pairs.iter().chain(FALLBACK_PAIRS) {
        if p.0 != p.1 && !pairs.contains(&p) {
            pairs.push(p);
        }
    }
    pairs
}

/// Extracts one witness per (open-channel defense × confirmed
/// transmitter) of `analysis`.
///
/// Fails with [`AnalysisError::WitnessExtraction`] when a transmitter
/// has no confirming path whose concrete evaluation distinguishes any
/// candidate secret pair — which would mean the static leak verdict
/// cannot be backed by evidence.
pub fn extract(
    spec: &ProgramSpec,
    analysis: &ProgramAnalysis,
) -> Result<Vec<LeakWitness>, AnalysisError> {
    if spec.program().is_empty() {
        return Err(AnalysisError::EmptyProgram {
            program: spec.name.to_owned(),
        });
    }
    let pairs = candidate_pairs(spec);
    let sample = |path: &SpecPath, byte: u8| {
        let mut mem = Memory::new();
        prepare_memory(spec, &mut mem, byte);
        sample_occurrences(spec.name, spec.program(), mem, path)
    };
    let mut witnesses = Vec::new();
    for wt in &analysis.windowed {
        let mut found = None;
        'search: for &pair in &pairs {
            for path in &wt.paths {
                let s0 = sample(path, pair.0)?;
                let s1 = sample(path, pair.1)?;
                for (a, b) in s0.iter().zip(s1.iter()) {
                    if a.addr >> 6 != b.addr >> 6 {
                        found = Some((path.clone(), pair, a.addr, b.addr));
                        break 'search;
                    }
                }
            }
        }
        let Some((path, pair, addr_b0, addr_b1)) = found else {
            return Err(AnalysisError::WitnessExtraction {
                program: spec.name.to_owned(),
                transmitter: wt.transmitter.pc,
                reason: format!(
                    "no confirming path distinguishes any of {} candidate secret pairs",
                    pairs.len()
                ),
            });
        };
        for defense in DefenseModel::ALL {
            let Some(channel) = defense.channel() else {
                continue;
            };
            let observable = match channel {
                Channel::CacheFootprint => PredictedObservable::FootprintLines {
                    line_b0: addr_b0 >> 6,
                    line_b1: addr_b1 >> 6,
                },
                Channel::RollbackTiming => PredictedObservable::RollbackDelta {
                    line_b0: addr_b0 >> 6,
                    line_b1: addr_b1 >> 6,
                },
            };
            witnesses.push(LeakWitness {
                program: spec.name.to_owned(),
                defense,
                channel,
                trigger_pc: path.spec_pc,
                trigger_kind: path.kind,
                transmitter_pc: wt.transmitter.pc,
                path: path.pcs.clone(),
                assumption: path.assumption.map(|a| a.describe()),
                derivation: wt.transmitter.chain.clone(),
                secret_pair: pair,
                addr_b0,
                addr_b1,
                observable,
            });
        }
    }
    witnesses.sort_by_key(|w| (w.defense.code(), w.transmitter_pc, w.trigger_pc));
    Ok(witnesses)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::taint::SecretRegion;
    use crate::verdict::analyze;
    use unxpec_cpu::{CoreConfig, ProgramBuilder, Reg};
    use unxpec_telemetry::json::validate;

    fn analyzed(spec: &ProgramSpec) -> ProgramAnalysis {
        let secrets = vec![
            SecretRegion::from_layout(spec.layout().memory_layout(), "SECRET")
                .expect("SECRET region"),
        ];
        analyze(spec.name, spec.program(), &secrets, &CoreConfig::table_i())
    }

    #[test]
    fn spectre_witness_distinguishes_probe_lines() {
        let spec = unxpec_attack::find("spectre").expect("registry");
        let ws = extract(&spec, &analyzed(&spec)).expect("witnesses");
        // One transmitter x two open-channel defenses.
        assert_eq!(ws.len(), 2);
        for w in &ws {
            assert_ne!(w.addr_b0 >> 6, w.addr_b1 >> 6, "lines must differ");
            assert_eq!(w.path.last(), Some(&w.transmitter_pc));
            validate(&w.to_json()).expect("valid JSON");
        }
        let (l0, l1) = ws[0].observable.lines();
        assert_ne!(l0, l1);
    }

    #[test]
    fn benign_programs_yield_no_witnesses() {
        for spec in unxpec_attack::benign_registry() {
            let a = analyzed(&spec);
            assert!(
                a.windowed.is_empty(),
                "{} must have no surviving transmitters",
                spec.name
            );
            let ws = extract(&spec, &a).expect("extraction is trivial");
            assert!(ws.is_empty());
        }
    }

    /// A path that is never sampled: its source PC is out of reach.
    fn unreached_path() -> SpecPath {
        SpecPath {
            spec_pc: usize::MAX,
            kind: SpecKind::ConditionalBranch,
            pcs: vec![0],
            assumption: None,
        }
    }

    fn interpreter_failure(program: &Program) -> (PcIndex, String) {
        match sample_occurrences("probe", program, Memory::new(), &unreached_path()) {
            Err(AnalysisError::Interpreter {
                program,
                pc,
                reason,
            }) => {
                assert_eq!(program, "probe");
                (pc, reason)
            }
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("the interpreter must fail"),
        }
    }

    #[test]
    fn indirect_jump_to_a_garbage_pc_is_out_of_bounds() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0xdead_beef);
        b.jump_ind(Reg(1));
        b.halt();
        let (pc, reason) = interpreter_failure(&b.build());
        assert_eq!(pc, 0xdead_beef);
        assert_eq!(reason, "pc out of bounds");
    }

    #[test]
    fn self_loop_exhausts_the_step_budget() {
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.jump("spin");
        let (pc, reason) = interpreter_failure(&b.build());
        assert_eq!(pc, 0);
        assert!(reason.contains("step budget"), "{reason}");
    }

    #[test]
    fn multilevel_tiers_need_the_wider_pair_list() {
        let spec = unxpec_attack::find("multilevel").expect("registry");
        let ws = extract(&spec, &analyzed(&spec)).expect("witnesses");
        assert!(
            ws.len() >= 4,
            "3 tier transmitters x 2 defenses expected, got {}",
            ws.len()
        );
        // At least one tier must be distinguished by a pair other than
        // (0, 1) — tier B's predicate is bit 1 of the secret.
        assert!(
            ws.iter().any(|w| w.secret_pair != (0, 1)),
            "tier B/C require non-bit0 pairs"
        );
    }
}
