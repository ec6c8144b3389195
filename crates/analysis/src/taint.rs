//! Secret-taint dataflow over the micro-ISA.
//!
//! A forward abstract interpretation with two facts per register:
//!
//! * an **abstract value** — either a small set of concrete constants
//!   (address arithmetic over `mov`-ed bases stays exact) or `Top`;
//! * a **taint chain** — `None`, or the PCs through which a
//!   secret-derived value flowed into the register.
//!
//! The transfer function is [`unxpec_cpu::arch::step`], the
//! simulator's own architectural semantics, stepped in `TaintDomain`,
//! its abstract value domain. `step` fixes which registers each
//! instruction reads and writes; the domain says what an immediate, an
//! ALU op, address arithmetic, a load and a store do to a fact. Like
//! the simulator, a load reads the word its address falls in (`& !7`).
//!
//! Taint is seeded by loads whose abstract word address set intersects a
//! secret-labeled region (the `SECRET` array of
//! `unxpec_attack::AttackLayout`, or any region the caller labels), and
//! propagates through ALU results, address computation, and
//! load-to-load chains (a load with a tainted base produces a tainted
//! value). The join is path-insensitive over *all* CFG edges — including
//! the predictor-reachable ones — so facts hold on transient paths too.
//! Join-induced imprecision (a wide join saturating to `Top` and then
//! seeding) is repaired by the path-sensitive refinement in
//! [`crate::paths`], which re-walks each candidate transmitter's
//! speculative paths individually.
//!
//! Seeding is a *may*-analysis: a load whose abstract address set
//! intersects a secret region seeds taint, and a load whose address is
//! `Top` **also** seeds — a statically-unresolved address may alias the
//! secret region (on the BTB-poisoned Spectre-v2 surface the gadget is
//! entered with attacker-controlled register state, so nothing better
//! can be said). The cost is the usual conservative one: dependent
//! loads behind any unresolvable pointer chase inside a speculative
//! window are reported as potential transmitters.

use std::collections::BTreeSet;

use unxpec_cpu::arch::{self, ArchDomain};
use unxpec_cpu::{AluOp, Cond, Inst, Operand, PcIndex, Program, NUM_REGS};
use unxpec_mem::MemoryLayout;

use crate::cfg::Cfg;

/// Tunable knobs of the static analyzer.
///
/// The defaults reproduce the published analysis; the caps exist so
/// tests can exercise lattice-saturation boundaries and so callers can
/// trade precision for time on large programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Cap on tracked constants per register; larger sets widen to
    /// `Top` (and a `Top` address then *may*-seeds taint).
    pub const_cap: usize,
    /// Cap on recorded taint-chain length (reporting aid only).
    pub chain_cap: usize,
    /// Total instruction-step budget for the path-sensitive refinement
    /// of one (speculation source, transmitter) pair. Exhausting it
    /// leaves the pair *inconclusive*, which is treated as a leak.
    pub max_path_steps: usize,
    /// Maximum number of complete speculative paths enumerated per
    /// (source, transmitter) pair before giving up (inconclusive).
    pub max_paths: usize,
    /// How many confirming paths to keep per transmitter for witness
    /// extraction to try (concrete evaluation can reject a path).
    pub max_witness_paths: usize,
}

impl AnalysisConfig {
    /// Default constant-set lattice cap (was a hard-coded constant).
    pub const DEFAULT_CONST_CAP: usize = 64;
    /// Default taint-chain length cap.
    pub const DEFAULT_CHAIN_CAP: usize = 16;
    /// Default per-pair path-enumeration step budget.
    pub const DEFAULT_MAX_PATH_STEPS: usize = 200_000;
    /// Default per-pair enumerated-path cap.
    pub const DEFAULT_MAX_PATHS: usize = 20_000;
    /// Default confirming-path retention per transmitter.
    pub const DEFAULT_MAX_WITNESS_PATHS: usize = 4;
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            const_cap: Self::DEFAULT_CONST_CAP,
            chain_cap: Self::DEFAULT_CHAIN_CAP,
            max_path_steps: Self::DEFAULT_MAX_PATH_STEPS,
            max_paths: Self::DEFAULT_MAX_PATHS,
            max_witness_paths: Self::DEFAULT_MAX_WITNESS_PATHS,
        }
    }
}

/// An address range holding secret data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecretRegion {
    /// Region name (for reports).
    pub name: String,
    /// First byte address.
    pub base: u64,
    /// Length in bytes.
    pub len_bytes: u64,
}

impl SecretRegion {
    /// Labels the named array of `layout` as secret.
    pub fn from_layout(layout: &MemoryLayout, name: &str) -> Option<SecretRegion> {
        layout.get(name).map(|h| SecretRegion {
            name: name.to_owned(),
            base: h.base().raw(),
            len_bytes: h.len_bytes(),
        })
    }

    /// Whether `addr` falls in the region (any byte of an 8-byte word).
    pub fn contains_word(&self, addr: u64) -> bool {
        // A word load at `addr` touches [addr, addr + 8).
        addr < self.base + self.len_bytes && addr + 8 > self.base
    }
}

/// Abstract register value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbsValue {
    /// Statically unknown.
    Top,
    /// One of a small set of concrete values.
    Consts(BTreeSet<u64>),
}

impl AbsValue {
    fn singleton(v: u64) -> AbsValue {
        AbsValue::Consts(std::iter::once(v).collect())
    }

    fn join(&self, other: &AbsValue, cap: usize) -> AbsValue {
        match (self, other) {
            (AbsValue::Consts(a), AbsValue::Consts(b)) => {
                let u: BTreeSet<u64> = a.union(b).copied().collect();
                if u.len() > cap {
                    AbsValue::Top
                } else {
                    AbsValue::Consts(u)
                }
            }
            _ => AbsValue::Top,
        }
    }

    fn map(&self, f: impl Fn(u64) -> u64) -> AbsValue {
        match self {
            AbsValue::Top => AbsValue::Top,
            AbsValue::Consts(s) => AbsValue::Consts(s.iter().map(|&v| f(v)).collect()),
        }
    }

    fn combine(&self, other: &AbsValue, cap: usize, f: impl Fn(u64, u64) -> u64) -> AbsValue {
        match (self, other) {
            (AbsValue::Consts(a), AbsValue::Consts(b)) => {
                if a.len().saturating_mul(b.len()) > cap {
                    return AbsValue::Top;
                }
                AbsValue::Consts(
                    a.iter()
                        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
                        .map(|(x, y)| f(x, y))
                        .collect(),
                )
            }
            _ => AbsValue::Top,
        }
    }

    /// `self & other` with the mask-enumeration refinement: `Top & m`
    /// is one of the `2^popcount(m)` submasks of `m`, an exact result
    /// whenever the submask count fits under `cap`. This is what keeps
    /// `x & 7`-style in-bounds masking out of the may-alias set.
    fn and(&self, other: &AbsValue, cap: usize) -> AbsValue {
        match (self, other) {
            (AbsValue::Consts(_), AbsValue::Consts(_)) => self.combine(other, cap, |x, y| x & y),
            (AbsValue::Top, AbsValue::Consts(masks)) | (AbsValue::Consts(masks), AbsValue::Top) => {
                let total: u64 = masks
                    .iter()
                    .map(|m| 1u64.checked_shl(m.count_ones()).unwrap_or(u64::MAX))
                    .sum();
                if total > cap as u64 {
                    return AbsValue::Top;
                }
                let mut out = BTreeSet::new();
                for &m in masks {
                    // Enumerate every submask of m, including 0.
                    let mut s = m;
                    loop {
                        out.insert(s);
                        if s == 0 {
                            break;
                        }
                        s = (s - 1) & m;
                    }
                }
                AbsValue::Consts(out)
            }
            (AbsValue::Top, AbsValue::Top) => AbsValue::Top,
        }
    }

    /// The single constant, if the set has exactly one element.
    pub fn as_singleton(&self) -> Option<u64> {
        match self {
            AbsValue::Consts(s) if s.len() == 1 => s.iter().next().copied(),
            _ => None,
        }
    }
}

/// Per-register fact: abstract value plus optional taint chain.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RegFact {
    val: AbsValue,
    taint: Option<Vec<PcIndex>>,
}

impl RegFact {
    /// Statically unknown and clean.
    const UNKNOWN: RegFact = RegFact {
        val: AbsValue::Top,
        taint: None,
    };
}

/// Abstract machine state: one fact per architectural register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    regs: [RegFact; NUM_REGS],
}

impl AbsState {
    /// Entry state: every register unknown and clean (the machine is
    /// persistent across runs, so entry values are not assumed zero).
    fn entry() -> AbsState {
        AbsState {
            regs: [RegFact::UNKNOWN; NUM_REGS],
        }
    }

    /// The abstract value of register `r`.
    pub fn value(&self, r: usize) -> &AbsValue {
        &self.regs[r].val
    }

    /// The taint chain of register `r`, if tainted.
    pub fn taint(&self, r: usize) -> Option<&[PcIndex]> {
        self.regs[r].taint.as_deref()
    }

    /// The state after `inst` commits at `pc`: one [`arch::step`] in
    /// the taint domain, seeding from `secrets`. `ReadTime` yields an
    /// unknown, clean value.
    pub(crate) fn step(
        &self,
        pc: PcIndex,
        inst: Inst,
        secrets: &[SecretRegion],
        config: &AnalysisConfig,
    ) -> AbsState {
        let mut out = self.clone();
        let mut domain = TaintDomain { secrets, config };
        arch::step(inst, pc, &mut out.regs, &mut domain, RegFact::UNKNOWN);
        out
    }

    /// Joins `other` into `self`; reports whether anything widened.
    ///
    /// The taint *chain* is auxiliary (first-writer-wins) so the
    /// change check only looks at values and taint presence — that
    /// keeps the join monotone and the fixpoint finite.
    fn join_from(&mut self, other: &AbsState, cap: usize) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(&other.regs) {
            let joined = mine.val.join(&theirs.val, cap);
            if joined != mine.val {
                mine.val = joined;
                changed = true;
            }
            if mine.taint.is_none() && theirs.taint.is_some() {
                mine.taint = theirs.taint.clone();
                changed = true;
            }
        }
        changed
    }

    /// Refines `self` with the architectural truth of a branch
    /// predicate: keeps only the constants of `a` (and, when `a` is a
    /// singleton, of a register operand `b`) for which
    /// `cond.eval(a, b) == holds`. `Top` facts cannot be refined.
    ///
    /// Returns `false` when the constraint empties a constant set — no
    /// architectural state satisfies the assumption, so the speculative
    /// path it guards is infeasible.
    pub(crate) fn refine_branch(&mut self, cond: Cond, a: usize, b: Operand, holds: bool) -> bool {
        let b_val = match b {
            Operand::Imm(i) => AbsValue::singleton(i),
            Operand::Reg(r) => self.regs[r.index()].val.clone(),
        };
        // Filter the left comparand against a singleton right side.
        if let Some(bv) = b_val.as_singleton() {
            if let AbsValue::Consts(set) = &self.regs[a].val {
                let kept: BTreeSet<u64> = set
                    .iter()
                    .copied()
                    .filter(|&x| cond.eval(x, bv) == holds)
                    .collect();
                if kept.is_empty() {
                    return false;
                }
                self.regs[a].val = AbsValue::Consts(kept);
            }
        }
        // Symmetrically filter a register right side against a
        // singleton left comparand.
        if let (Some(av), Operand::Reg(r)) = (self.regs[a].val.as_singleton(), b) {
            if let AbsValue::Consts(set) = &self.regs[r.index()].val {
                let kept: BTreeSet<u64> = set
                    .iter()
                    .copied()
                    .filter(|&y| cond.eval(av, y) == holds)
                    .collect();
                if kept.is_empty() {
                    return false;
                }
                self.regs[r.index()].val = AbsValue::Consts(kept);
            }
        }
        true
    }
}

fn merge_taint(
    a: Option<Vec<PcIndex>>,
    b: Option<Vec<PcIndex>>,
    through: PcIndex,
    chain_cap: usize,
) -> Option<Vec<PcIndex>> {
    let mut chain = match (a, b) {
        (Some(a), _) => a,
        (None, Some(b)) => b,
        (None, None) => return None,
    };
    if chain.len() < chain_cap && chain.last() != Some(&through) {
        chain.push(through);
    }
    Some(chain)
}

/// Taint's instance of [`arch::step`]: a register holds a [`RegFact`],
/// memory is not tracked (stores are no-ops, loads yield `Top`), and a
/// load is seeded when its word may lie in one of `secrets`.
struct TaintDomain<'a> {
    secrets: &'a [SecretRegion],
    config: &'a AnalysisConfig,
}

impl ArchDomain for TaintDomain<'_> {
    type Value = RegFact;

    fn imm(&self, imm: u64) -> RegFact {
        RegFact {
            val: AbsValue::singleton(imm),
            taint: None,
        }
    }

    /// The op over every pair of constants (`And` enumerates the submasks
    /// of a `Top` operand), tainted through `pc` by a tainted operand.
    fn alu(&self, op: AluOp, a: &RegFact, b: &RegFact, pc: PcIndex) -> RegFact {
        let cap = self.config.const_cap;
        let val = if op == AluOp::And {
            a.val.and(&b.val, cap)
        } else {
            a.val.combine(&b.val, cap, |x, y| op.apply(x, y))
        };
        let taint = merge_taint(a.taint.clone(), b.taint.clone(), pc, self.config.chain_cap);
        RegFact { val, taint }
    }

    /// Address arithmetic moves the constants and keeps the chain: a
    /// tainted base taints the load through the load's own PC.
    fn offset(&self, base: &RegFact, disp: i64) -> RegFact {
        RegFact {
            val: base.val.map(|v| v.wrapping_add(disp as u64)),
            taint: base.taint.clone(),
        }
    }

    /// `Top`, tainted through `pc` by a tainted address or by a word
    /// that may lie in a secret region (a `Top` address may).
    fn load(&mut self, addr: &RegFact, pc: PcIndex) -> RegFact {
        let seeded = match addr.val.map(|a| a & !7) {
            AbsValue::Consts(words) => words
                .iter()
                .any(|&w| self.secrets.iter().any(|r| r.contains_word(w))),
            AbsValue::Top => !self.secrets.is_empty(),
        };
        let taint = merge_taint(
            addr.taint.clone(),
            seeded.then(Vec::new),
            pc,
            self.config.chain_cap,
        );
        RegFact {
            val: AbsValue::Top,
            taint,
        }
    }

    fn store(&mut self, _addr: &RegFact, _value: &RegFact) {}

    /// Taint takes its successors from the CFG, never from
    /// [`arch::Flow`], so the flow answers are placeholders.
    fn holds(&self, _cond: Cond, _a: &RegFact, _b: &RegFact) -> bool {
        false
    }

    fn target(&self, _value: &RegFact) -> PcIndex {
        0
    }
}

/// Whether `inst` at `pc`, executed in `state`, is a transmitter: a
/// load whose base is tainted and whose address can actually vary (a
/// singleton constant address cannot carry the secret). Returns the
/// taint chain extended through `pc`.
pub(crate) fn transmitter_chain(
    state: &AbsState,
    pc: PcIndex,
    inst: Inst,
    chain_cap: usize,
) -> Option<Vec<PcIndex>> {
    let Inst::Load { base, .. } = inst else {
        return None;
    };
    let fact = &state.regs[base.index()];
    if fact.val.as_singleton().is_some() {
        return None;
    }
    merge_taint(fact.taint.clone(), None, pc, chain_cap)
}

/// A transient access whose address is secret-dependent.
#[derive(Debug, Clone)]
pub struct Transmitter {
    /// PC of the tainted-address load.
    pub pc: PcIndex,
    /// Taint chain: seed load first, then each propagating instruction.
    pub chain: Vec<PcIndex>,
}

/// Result of the taint pass: the fixpoint in-states plus the
/// tainted-address accesses found.
#[derive(Debug, Clone)]
pub struct TaintResult {
    in_states: Vec<Option<AbsState>>,
    /// Tainted-address loads, ascending by PC (not yet window-filtered).
    pub transmitters: Vec<Transmitter>,
}

impl TaintResult {
    /// The fixpoint state on entry to `pc` (`None` if unreachable).
    pub fn state_at(&self, pc: PcIndex) -> Option<&AbsState> {
        self.in_states.get(pc).and_then(Option::as_ref)
    }
}

/// Runs the taint fixpoint over `program` with default knobs.
pub fn taint_analysis(program: &Program, cfg: &Cfg, secrets: &[SecretRegion]) -> TaintResult {
    taint_analysis_with(program, cfg, secrets, &AnalysisConfig::default())
}

/// Runs the taint fixpoint over `program` with explicit knobs.
pub fn taint_analysis_with(
    program: &Program,
    cfg: &Cfg,
    secrets: &[SecretRegion],
    config: &AnalysisConfig,
) -> TaintResult {
    let len = program.len();
    let mut in_states: Vec<Option<AbsState>> = vec![None; len];
    if len == 0 {
        return TaintResult {
            in_states,
            transmitters: Vec::new(),
        };
    }
    in_states[0] = Some(AbsState::entry());
    let mut worklist: Vec<PcIndex> = vec![0];
    let mut iterations = 0usize;
    // The lattice has finite height (const_cap constants per register,
    // boolean taint), so this terminates; the explicit cap is a
    // belt-and-braces guard against a transfer-function bug.
    let max_iterations = len
        .saturating_mul(NUM_REGS)
        .saturating_mul(config.const_cap)
        .saturating_add(1024);
    while let Some(pc) = worklist.pop() {
        iterations += 1;
        if iterations > max_iterations {
            break;
        }
        let Some(inst) = program.fetch(pc) else {
            continue;
        };
        let Some(state) = in_states[pc].clone() else {
            continue;
        };
        let out = state.step(pc, inst, secrets, config);
        for &succ in cfg.successors(pc) {
            let changed = match &mut in_states[succ] {
                Some(existing) => existing.join_from(&out, config.const_cap),
                slot @ None => {
                    *slot = Some(out.clone());
                    true
                }
            };
            if changed && !worklist.contains(&succ) {
                worklist.push(succ);
            }
        }
    }

    // Collect tainted-address accesses from the fixpoint facts.
    let mut transmitters = Vec::new();
    for (pc, &inst) in program.instructions().iter().enumerate() {
        let Some(state) = in_states[pc].as_ref() else {
            continue;
        };
        if let Some(chain) = transmitter_chain(state, pc, inst, config.chain_cap) {
            transmitters.push(Transmitter { pc, chain });
        }
    }
    TaintResult {
        in_states,
        transmitters,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use unxpec_cpu::{Cond, ProgramBuilder, Reg};

    fn secret() -> Vec<SecretRegion> {
        vec![SecretRegion {
            name: "SECRET".into(),
            base: 0x5000,
            len_bytes: 8,
        }]
    }

    fn run(program: &Program) -> TaintResult {
        let cfg = Cfg::build(program);
        taint_analysis(program, &cfg, &secret())
    }

    #[test]
    fn classic_gadget_is_a_transmitter() {
        // r1 = &secret; r2 = [r1]; r3 = r2 << 6; r4 = r3 + probe; [r4]
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x5000);
        b.load(Reg(2), Reg(1), 0); // 1: seed
        b.shl(Reg(3), Reg(2), 6u64); // 2: propagate
        b.add(Reg(4), Reg(3), Reg(1)); // 3: propagate
        b.load(Reg(5), Reg(4), 0); // 4: transmit
        b.halt();
        let r = run(&b.build());
        assert_eq!(r.transmitters.len(), 1);
        assert_eq!(r.transmitters[0].pc, 4);
        assert_eq!(r.transmitters[0].chain, vec![1, 2, 3, 4]);
    }

    #[test]
    fn untainted_loads_do_not_transmit() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x9000); // not the secret
        b.load(Reg(2), Reg(1), 0);
        b.shl(Reg(3), Reg(2), 6u64);
        b.add(Reg(3), Reg(3), Reg(1));
        b.load(Reg(4), Reg(3), 0);
        b.halt();
        let r = run(&b.build());
        assert!(r.transmitters.is_empty());
    }

    #[test]
    fn load_to_load_chains_propagate_taint() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x5000);
        b.load(Reg(2), Reg(1), 0); // seed
        b.load(Reg(3), Reg(2), 0); // tainted base -> tainted value AND transmitter
        b.load(Reg(4), Reg(3), 0); // second hop still tainted
        b.halt();
        let r = run(&b.build());
        let pcs: Vec<_> = r.transmitters.iter().map(|t| t.pc).collect();
        assert_eq!(pcs, vec![2, 3]);
    }

    #[test]
    fn singleton_address_cannot_transmit() {
        // Taint the register, then overwrite the address with a mov:
        // the load's base is clean again.
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x5000);
        b.load(Reg(2), Reg(1), 0); // tainted
        b.mov(Reg(2), 0x9000); // kill
        b.load(Reg(3), Reg(2), 0);
        b.halt();
        let r = run(&b.build());
        assert!(r.transmitters.is_empty());
    }

    #[test]
    fn join_over_branch_arms_keeps_both_constants() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x10);
        b.branch(Cond::Lt, Reg(2), 5u64, "other"); // r2 is Top
        b.mov(Reg(1), 0x20);
        b.label("other");
        b.nop(); // 3: join point
        b.halt();
        let p = b.build();
        let r = run(&p);
        let st = r.state_at(3).expect("reachable");
        match st.value(1) {
            AbsValue::Consts(s) => {
                assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![0x10, 0x20]);
            }
            AbsValue::Top => panic!("join lost the constants"),
        }
    }

    #[test]
    fn oob_index_arithmetic_reaches_the_secret() {
        // The v1 pattern: A base + 8 * index where index joins
        // {in-bounds, oob} and A+8*oob == secret.
        let a_base = 0x4000u64;
        let oob = (0x5000 - a_base) / 8;
        let mut b = ProgramBuilder::new();
        b.mov(Reg(10), a_base); // A base
        b.mov(Reg(1), 0); // training index
        b.branch(Cond::Eq, Reg(9), 1u64, "attack");
        b.jump("use");
        b.label("attack");
        b.mov(Reg(1), oob);
        b.label("use");
        b.shl(Reg(3), Reg(1), 3u64);
        b.add(Reg(4), Reg(3), Reg(10));
        b.load(Reg(5), Reg(4), 0); // seeds from {0x4000, 0x5000}
        b.shl(Reg(6), Reg(5), 6u64);
        b.add(Reg(6), Reg(6), Reg(10));
        b.load(Reg(7), Reg(6), 0); // transmits
        b.halt();
        let r = run(&b.build());
        assert_eq!(r.transmitters.len(), 1);
        let t = &r.transmitters[0];
        assert!(t.chain.len() >= 2, "chain records seed and transmit");
    }

    #[test]
    fn const_cap_saturates_to_top_exactly_at_the_boundary() {
        // Join of exactly `const_cap` distinct constants stays a
        // constant set; one more widens to Top. Documented behavior of
        // AnalysisConfig::DEFAULT_CONST_CAP.
        let cap = AnalysisConfig::DEFAULT_CONST_CAP;
        let at_cap = (0..cap as u64).fold(AbsValue::singleton(0), |acc, v| {
            acc.join(&AbsValue::singleton(v), cap)
        });
        match &at_cap {
            AbsValue::Consts(s) => assert_eq!(s.len(), cap, "cap-many constants survive"),
            AbsValue::Top => panic!("widened below the cap"),
        }
        let over = at_cap.join(&AbsValue::singleton(cap as u64), cap);
        assert_eq!(over, AbsValue::Top, "cap+1 constants widen to Top");
    }

    #[test]
    fn and_mask_enumerates_submasks_instead_of_widening() {
        // x & 7 on an unknown x is one of 8 values — precise under the
        // default cap — while x & huge_mask still widens.
        let masked = AbsValue::Top.and(&AbsValue::singleton(7), 64);
        match &masked {
            AbsValue::Consts(s) => {
                assert_eq!(
                    s.iter().copied().collect::<Vec<_>>(),
                    (0..8).collect::<Vec<_>>()
                );
            }
            AbsValue::Top => panic!("mask refinement lost"),
        }
        let wide = AbsValue::Top.and(&AbsValue::singleton(u64::MAX), 64);
        assert_eq!(wide, AbsValue::Top);
    }

    #[test]
    fn branch_refinement_filters_constants_and_detects_infeasibility() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 3);
        b.branch(Cond::Lt, Reg(2), 5u64, "other"); // r2 Top: no refinement
        b.mov(Reg(1), 9);
        b.label("other");
        b.nop(); // 3: join -> r1 in {3, 9}
        b.halt();
        let p = b.build();
        let r = run(&p);
        let mut st = r.state_at(3).expect("reachable").clone();
        assert!(st.refine_branch(Cond::Lt, 1, unxpec_cpu::Operand::Imm(5), true));
        assert_eq!(st.value(1).as_singleton(), Some(3));
        // Now r1 == {3}: requiring r1 >= 5 is infeasible.
        assert!(!st.refine_branch(Cond::Ge, 1, unxpec_cpu::Operand::Imm(5), true));
    }
}
