//! Path-sensitive refinement of the global taint fixpoint.
//!
//! The flow-insensitive pass in [`crate::taint`] joins facts over
//! *every* CFG edge, so a join point fed by many arms can widen an
//! index register to `Top`, seed taint from the resulting
//! may-alias-everything load, and report a transmitter that no single
//! speculative path can actually realize — the classic join-point
//! false positive (a 65-way `switch` whose every arm assigns an
//! in-bounds constant).
//!
//! This module re-checks each candidate transmitter by **bounded
//! enumeration of the speculative paths** inside each ROB window that
//! covers it. A path starts at a speculation source, carries its own
//! copy of the abstract state, and — crucially — carries the
//! **branch-predicate assumption** the misprediction implies: entering
//! the taken arm transiently means the architectural condition was
//! false (and vice versa), so the entry facts can be filtered through
//! `Cond::eval`. An arm whose assumption empties a constant set is
//! architecturally infeasible and contributes no paths. Only the
//! window's *own* source branch yields an assumption; speculation
//! sources nested inside the window are walked down both arms
//! unconstrained, which covers nested mispredictions soundly.
//!
//! A transmitter is **demoted** (reclassified clean) only when every
//! covering window completes enumeration with zero confirming paths.
//! Exhausting the step or path budget leaves the pair *inconclusive*,
//! which is treated as a leak — refinement can only remove false
//! positives, never hide a true one.

use std::collections::{BTreeMap, VecDeque};

use unxpec_cpu::{Cond, Inst, Operand, PcIndex, Program};

use crate::cfg::Cfg;
use crate::taint::{transmitter_chain, AbsState, AnalysisConfig, SecretRegion, TaintResult};
use crate::window::{SpecKind, SpecWindow};

/// The branch-predicate fact a misprediction implies about the
/// architectural (committed) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assumption {
    /// PC of the mispredicted branch.
    pub pc: PcIndex,
    /// The branch condition.
    pub cond: Cond,
    /// Left comparand register index.
    pub a: usize,
    /// Right comparand.
    pub b: Operand,
    /// Architectural truth value of `cond(a, b)` implied by entering
    /// this wrong-path arm.
    pub holds: bool,
}

impl Assumption {
    /// Human/JSON-friendly rendering, e.g. `"pc 3: r1 Ge 16 == false"`.
    pub fn describe(&self) -> String {
        let op = match self.cond {
            Cond::Lt => "Lt",
            Cond::Ge => "Ge",
            Cond::Eq => "Eq",
            Cond::Ne => "Ne",
        };
        let rhs = match self.b {
            Operand::Reg(r) => format!("r{}", r.index()),
            Operand::Imm(i) => format!("{i}"),
        };
        format!("pc {}: r{} {op} {rhs} == {}", self.pc, self.a, self.holds)
    }
}

/// One confirming speculative path from a speculation source to a
/// transmitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecPath {
    /// The speculation source opening the window.
    pub spec_pc: PcIndex,
    /// Source kind (branch / indirect jump / return).
    pub kind: SpecKind,
    /// Wrong-path PCs in order, first transient instruction through
    /// the transmitter inclusive.
    pub pcs: Vec<PcIndex>,
    /// The predicate assumption of the misprediction (conditional
    /// branches only).
    pub assumption: Option<Assumption>,
}

/// Outcome of refining one candidate transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinementStatus {
    /// At least one enumerated speculative path reaches the
    /// transmitter with a tainted, non-singleton address: the global
    /// verdict stands, and the paths are witness material.
    Confirmed,
    /// Every covering window enumerated completely and no path
    /// confirms: the global verdict was a join artifact; reclassified
    /// clean.
    Demoted,
    /// A budget ran out before enumeration completed; kept as a leak
    /// (conservative), but without confirmed paths.
    Inconclusive,
}

impl RefinementStatus {
    /// Stable lower-case label for JSON.
    pub fn label(self) -> &'static str {
        match self {
            RefinementStatus::Confirmed => "confirmed",
            RefinementStatus::Demoted => "demoted",
            RefinementStatus::Inconclusive => "inconclusive",
        }
    }
}

/// Refinement result for one transmitter PC.
#[derive(Debug, Clone)]
pub struct TransmitterRefinement {
    /// Transmitter PC.
    pub transmitter: PcIndex,
    /// Combined status over all covering windows.
    pub status: RefinementStatus,
    /// Confirming paths (across windows), capped at
    /// `AnalysisConfig::max_witness_paths` per window.
    pub paths: Vec<SpecPath>,
}

/// Per-(window, transmitter) enumeration outcome.
struct PairOutcome {
    paths: Vec<SpecPath>,
    complete: bool,
}

/// Minimum CFG distance (in edges) from every PC to `target`.
fn distance_to(cfg: &Cfg, len: usize, target: PcIndex) -> Vec<Option<usize>> {
    let mut preds: Vec<Vec<PcIndex>> = vec![Vec::new(); len];
    for pc in 0..len {
        for &s in cfg.successors(pc) {
            if s < len {
                preds[s].push(pc);
            }
        }
    }
    let mut dist = vec![None; len];
    if target >= len {
        return dist;
    }
    dist[target] = Some(0);
    let mut queue = VecDeque::from([target]);
    while let Some(pc) = queue.pop_front() {
        let d = match dist[pc] {
            Some(d) => d,
            None => continue,
        };
        for &p in &preds[pc] {
            if dist[p].is_none() {
                dist[p] = Some(d + 1);
                queue.push_back(p);
            }
        }
    }
    dist
}

/// The wrong-path entry arms of a speculation source: successor PC
/// plus the assumption entering it implies (branches only).
fn entry_arms(
    program: &Program,
    cfg: &Cfg,
    window: &SpecWindow,
) -> Vec<(PcIndex, Option<Assumption>)> {
    let spec_pc = window.spec_pc;
    match program.fetch(spec_pc) {
        Some(Inst::Branch { cond, a, b, target }) => {
            let fall = spec_pc + 1;
            if target == fall {
                // Degenerate branch: both arms coincide, no constraint.
                return vec![(fall, None)];
            }
            vec![
                // Transiently falling through means the committed
                // outcome was taken: the condition held.
                (
                    fall,
                    Some(Assumption {
                        pc: spec_pc,
                        cond,
                        a: a.index(),
                        b,
                        holds: true,
                    }),
                ),
                // Transiently taking means the condition was false.
                (
                    target,
                    Some(Assumption {
                        pc: spec_pc,
                        cond,
                        a: a.index(),
                        b,
                        holds: false,
                    }),
                ),
            ]
        }
        // Indirect jumps and returns mispredict to arbitrary recorded
        // targets; no data fact follows from the misprediction.
        _ => cfg.successors(spec_pc).iter().map(|&s| (s, None)).collect(),
    }
}

/// Enumerates speculative paths from `window`'s source to `target`,
/// collecting those on which `target` is a confirmed transmitter.
#[allow(clippy::too_many_arguments)]
fn enumerate_pair(
    program: &Program,
    cfg: &Cfg,
    window: &SpecWindow,
    target: PcIndex,
    entry: &AbsState,
    secrets: &[SecretRegion],
    bound: usize,
    config: &AnalysisConfig,
) -> PairOutcome {
    let len = program.len();
    let dist = distance_to(cfg, len, target);
    let Some(target_inst) = program.fetch(target) else {
        return PairOutcome {
            paths: Vec::new(),
            complete: true,
        };
    };
    // The source's own architectural side effect (a `ret` pops the
    // stack pointer) applies before any wrong-path instruction runs.
    let after_source = match program.fetch(window.spec_pc) {
        Some(inst) => entry.step(window.spec_pc, inst, secrets, config),
        None => entry.clone(),
    };

    let mut paths = Vec::new();
    let mut complete = true;
    let mut steps = 0usize;
    let mut enumerated = 0usize;

    // Explicit DFS; each frame owns its state and path prefix. Roots
    // map 1:1 to entry arms, so a path's assumption is recovered from
    // its first PC at emit time.
    let arms = entry_arms(program, cfg, window);
    let arm_assumptions: BTreeMap<PcIndex, Option<Assumption>> = arms.iter().cloned().collect();
    let mut stack: Vec<(PcIndex, AbsState, Vec<PcIndex>)> = Vec::new();
    for (arm, assumption) in arms {
        // A path never re-enters its own speculation source: any route
        // that revisits `spec_pc` has a suffix (from the *last* visit)
        // that starts at one of the source's arms without an internal
        // revisit, and the fixpoint entry state over-approximates the
        // state at every revisit — so the suffix-only path space covers
        // confirmation and demotion alike. Without this, an indirect
        // jump (whose CFG successors are every PC, itself included)
        // drowns the enumeration in `spec_pc` self-loops.
        if arm >= len || arm == window.spec_pc {
            continue;
        }
        let mut state = after_source.clone();
        if let Some(asm) = assumption {
            if !state.refine_branch(asm.cond, asm.a, asm.b, asm.holds) {
                // No architectural state mispredicts into this arm.
                continue;
            }
        }
        // Depth of the first wrong-path instruction is 1 (matches
        // `speculative_windows`); prune arms that cannot reach the
        // target within the ROB bound.
        if dist[arm].is_some_and(|d| d < bound) {
            stack.push((arm, state, vec![arm]));
        }
    }
    // Pop the root closest to the target first (indirect jumps have an
    // arm per PC; the direct gadget entry should not wait behind
    // far-away roots).
    stack.sort_by_key(|(pc, _, _)| std::cmp::Reverse(dist[*pc].unwrap_or(usize::MAX)));

    while let Some((pc, state, path)) = stack.pop() {
        steps += 1;
        if steps > config.max_path_steps || enumerated > config.max_paths {
            complete = false;
            break;
        }
        let Some(inst) = program.fetch(pc) else {
            continue;
        };
        if pc == target {
            enumerated += 1;
            if transmitter_chain(&state, pc, target_inst, config.chain_cap).is_some() {
                let assumption = path
                    .first()
                    .and_then(|first| arm_assumptions.get(first).copied().flatten());
                paths.push(SpecPath {
                    spec_pc: window.spec_pc,
                    kind: window.kind,
                    pcs: path.clone(),
                    assumption,
                });
                if paths.len() >= config.max_witness_paths {
                    // Enough witness material; completeness no longer
                    // matters (confirmation already rules out
                    // demotion).
                    complete = false;
                    break;
                }
            }
            // Fall through: keep exploring beyond the target so
            // loop-back paths (and demotion completeness) are covered.
        }
        let out = state.step(pc, inst, secrets, config);
        let depth = path.len();
        // Best-first: try the successor closest to the target first so
        // confirming paths surface before the budget bites.
        let mut succs: Vec<PcIndex> = cfg
            .successors(pc)
            .iter()
            .copied()
            .filter(|&s| s != window.spec_pc)
            .filter(|&s| dist[s].is_some_and(|d| depth + 1 + d <= bound))
            .collect();
        succs.sort_by_key(|&s| std::cmp::Reverse(dist[s].unwrap_or(usize::MAX)));
        for succ in succs {
            let mut next_path = path.clone();
            next_path.push(succ);
            stack.push((succ, out.clone(), next_path));
        }
    }

    PairOutcome { paths, complete }
}

/// Refines every windowed candidate transmitter of `taint` against the
/// speculative paths of its covering `windows`.
///
/// `bound` is the ROB window bound (`crate::window::window_bound`).
/// Returns one [`TransmitterRefinement`] per candidate, ascending by
/// transmitter PC.
pub fn refine_transmitters(
    program: &Program,
    cfg: &Cfg,
    windows: &[SpecWindow],
    taint: &TaintResult,
    secrets: &[SecretRegion],
    bound: usize,
    config: &AnalysisConfig,
) -> Vec<TransmitterRefinement> {
    let mut out = Vec::new();
    for t in &taint.transmitters {
        let covering: Vec<&SpecWindow> = windows.iter().filter(|w| w.contains(t.pc)).collect();
        if covering.is_empty() {
            continue; // architectural-only access; not windowed
        }
        let mut paths = Vec::new();
        let mut all_complete = true;
        for window in covering {
            let Some(entry) = taint.state_at(window.spec_pc) else {
                // Source unreachable in the fixpoint: window is dead.
                continue;
            };
            let outcome = enumerate_pair(program, cfg, window, t.pc, entry, secrets, bound, config);
            all_complete &= outcome.complete;
            paths.extend(outcome.paths);
        }
        let status = if !paths.is_empty() {
            RefinementStatus::Confirmed
        } else if all_complete {
            RefinementStatus::Demoted
        } else {
            RefinementStatus::Inconclusive
        };
        out.push(TransmitterRefinement {
            transmitter: t.pc,
            status,
            paths,
        });
    }
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::taint::taint_analysis;
    use crate::window::{speculative_windows, window_bound};
    use unxpec_cpu::{CoreConfig, ProgramBuilder, Reg};

    fn secret() -> Vec<SecretRegion> {
        vec![SecretRegion {
            name: "SECRET".into(),
            base: 0x5000,
            len_bytes: 8,
        }]
    }

    fn refine(program: &Program) -> Vec<TransmitterRefinement> {
        let core = CoreConfig::table_i();
        let cfg = Cfg::build(program);
        let secrets = secret();
        let taint = taint_analysis(program, &cfg, &secrets);
        let windows = speculative_windows(program, &cfg, &core);
        refine_transmitters(
            program,
            &cfg,
            &windows,
            &taint,
            &secrets,
            window_bound(&core),
            &AnalysisConfig::default(),
        )
    }

    /// The spectre-v1 shape must survive refinement with a concrete
    /// path and the `index < bound == true` assumption (transiently
    /// entering the body means the committed outcome skipped it...
    /// here the guard branches *over* the body when Ge).
    #[test]
    fn spectre_shape_is_confirmed_with_assumption() {
        let a_base = 0x4000u64;
        let oob = (0x5000 - a_base) / 8;
        let mut b = ProgramBuilder::new();
        b.mov(Reg(10), a_base);
        b.mov(Reg(1), oob); // attacker-chosen index
        b.branch(Cond::Ge, Reg(1), 2u64, "done"); // 2: bounds check
        b.shl(Reg(3), Reg(1), 3u64);
        b.add(Reg(4), Reg(3), Reg(10));
        b.load(Reg(5), Reg(4), 0); // 5: seed (A[oob] == secret)
        b.shl(Reg(6), Reg(5), 6u64);
        b.add(Reg(6), Reg(6), Reg(10));
        b.load(Reg(7), Reg(6), 0); // 8: transmit
        b.label("done");
        b.halt();
        let refs = refine(&b.build());
        let t = refs
            .iter()
            .find(|r| r.transmitter == 8)
            .expect("transmitter");
        assert_eq!(t.status, RefinementStatus::Confirmed);
        let path = &t.paths[0];
        assert_eq!(path.spec_pc, 2);
        assert_eq!(path.pcs.last(), Some(&8));
        let asm = path.assumption.expect("branch carries an assumption");
        assert!(asm.holds, "fall-through wrong path means cond held");
    }

    /// A switch whose arms each assign a distinct in-bounds constant
    /// widens to Top at the join (seeding a false transmitter
    /// globally) but every individual speculative path carries a
    /// singleton — the refinement demotes it.
    #[test]
    fn wide_switch_join_is_demoted() {
        let table = 0x4000u64;
        let mut b = ProgramBuilder::new();
        b.mov(Reg(10), table);
        // More arms than the const cap so the join widens.
        let n = AnalysisConfig::DEFAULT_CONST_CAP + 1;
        for i in 0..n {
            b.branch(Cond::Eq, Reg(9), i as u64, &format!("arm{i}"));
        }
        b.mov(Reg(1), 0); // default arm
        b.jump("use");
        for i in 0..n {
            b.label(&format!("arm{i}"));
            b.mov(Reg(1), i as u64);
            b.jump("use");
        }
        b.label("use");
        b.shl(Reg(3), Reg(1), 3u64);
        b.add(Reg(3), Reg(3), Reg(10));
        b.load(Reg(2), Reg(3), 0); // Top address: seeds taint globally
        b.shl(Reg(4), Reg(2), 6u64);
        b.add(Reg(4), Reg(4), Reg(10));
        b.load(Reg(5), Reg(4), 0); // global FP transmitter
        b.halt();
        let refs = refine(&b.build());
        assert!(!refs.is_empty(), "global pass reports the join artifact");
        for r in &refs {
            assert_eq!(
                r.status,
                RefinementStatus::Demoted,
                "pc {} should be a demoted join artifact",
                r.transmitter
            );
        }
    }

    /// An infeasible wrong-path arm (assumption empties the constant
    /// set) contributes no paths.
    #[test]
    fn infeasible_arm_is_pruned() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 3);
        // r1 == 3 always: the taken arm requires architectural
        // Ge 5 == false (fine), the fall-through requires Ge 5 == true
        // — impossible, so the gadget below the branch is unreachable
        // on any *mispredicted* path.
        b.branch(Cond::Ge, Reg(1), 5u64, "skip");
        b.mov(Reg(4), 0x5000);
        b.load(Reg(5), Reg(4), 0); // seeds
        b.load(Reg(6), Reg(5), 0); // would transmit
        b.label("skip");
        b.halt();
        let refs = refine(&b.build());
        for r in &refs {
            assert_eq!(r.status, RefinementStatus::Demoted);
        }
    }
}
