//! A named registry of every attack program this crate can assemble.
//!
//! The registry gives the static analyzer (`unxpec-analysis`) and the
//! `analyze` binary a stable, enumerable view of the attack surface:
//! each entry carries the assembled [`Program`], the [`AttackLayout`]
//! whose `SECRET` array the program transiently reads, and enough
//! metadata to install the layout and drive the program dynamically.
//!
//! All seven entries encode the secret into *which cache lines the
//! wrong path touches*, so each must be flagged by the analyzer as a
//! cache-footprint leak without a defense and a rollback-timing leak
//! under CleanupSpec — the cross-validation in `tests/analysis.rs`
//! checks exactly that against the cycle simulator.

use unxpec_cpu::Program;

use crate::config::AttackConfig;
use crate::layout::AttackLayout;
use crate::multilevel::build_multilevel_round;
use crate::sender::build_round_program;
use crate::spectre_rsb::SpectreRsb;
use crate::spectre_v2::SpectreV2;

/// How the entry opens its speculation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// Mistrained conditional bounds check (Spectre v1).
    ConditionalBranch,
    /// Poisoned BTB entry on an indirect jump (Spectre v2).
    IndirectJump,
    /// Desynchronized return stack buffer (SpectreRSB).
    Return,
}

impl TriggerKind {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            TriggerKind::ConditionalBranch => "branch",
            TriggerKind::IndirectJump => "jump-indirect",
            TriggerKind::Return => "return",
        }
    }
}

/// The witness the static analyzer is expected to extract for a
/// registry program — or to prove absent for a benign one.
///
/// This is registry *metadata*: the witness pipeline
/// (`unxpec_analysis::witness`) derives actual witnesses from the
/// program text and checks them dynamically; the shape pins the
/// intended outcome so a silently weakened analysis fails loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessShape {
    /// Whether the program carries a transient leak at all (attack
    /// registry: `true`; benign registry: `false`).
    pub leaks: bool,
    /// Expected number of transmitters surviving path-sensitive
    /// refinement.
    pub transmitters: usize,
    /// Secret byte pairs worth trying when extracting a distinguishing
    /// pair, in preference order (multi-level encodings distinguish
    /// only specific bit positions).
    pub secret_pairs: &'static [(u8, u8)],
}

/// Secret pairs for single-bit encoders: bit 0 of the secret byte.
pub const PAIRS_BIT0: &[(u8, u8)] = &[(0, 1)];
/// Secret pairs covering the tiers of the 4-level encoder.
pub const PAIRS_MULTILEVEL: &[(u8, u8)] = &[(0, 1), (0, 2), (0, 3), (1, 3)];
/// No distinguishing pair exists (benign programs).
pub const PAIRS_NONE: &[(u8, u8)] = &[];

/// One registered attack program.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// Stable registry name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The speculation trigger the program uses.
    pub trigger: TriggerKind,
    /// Chain depth [`AttackLayout::install`] needs for this program.
    pub fn_accesses: u64,
    /// The witness the analysis is expected to produce (or refute).
    pub witness: WitnessShape,
    program: Program,
    layout: AttackLayout,
}

impl ProgramSpec {
    pub(crate) fn new(
        name: &'static str,
        description: &'static str,
        trigger: TriggerKind,
        fn_accesses: u64,
        witness: WitnessShape,
        program: Program,
        layout: AttackLayout,
    ) -> ProgramSpec {
        ProgramSpec {
            name,
            description,
            trigger,
            fn_accesses,
            witness,
            program,
            layout,
        }
    }

    /// The assembled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The address-space layout the program runs against.
    pub fn layout(&self) -> &AttackLayout {
        &self.layout
    }
}

/// Number of L1 sets all registry layouts are built for (Table I).
const L1_SETS: u64 = 64;

/// Assembles every registered attack program.
///
/// Entry names are stable: `spectre`, `spectre_v2`, `spectre_rsb`,
/// `eviction`, `multilevel`, `smt`, `adaptive`. The last two are
/// program names only: each is an unXpec round under another
/// configuration, and no module of that name exists.
pub fn registry() -> Vec<ProgramSpec> {
    let layout = AttackLayout::new(L1_SETS);
    let spec = |name, description, trigger, fn_accesses, transmitters, pairs, program| {
        ProgramSpec::new(
            name,
            description,
            trigger,
            fn_accesses,
            WitnessShape {
                leaks: true,
                transmitters,
                secret_pairs: pairs,
            },
            program,
            layout.clone(),
        )
    };
    vec![
        spec(
            "spectre",
            "unXpec round, paper headline config: one in-branch load, f(1), no eviction sets",
            TriggerKind::ConditionalBranch,
            1,
            1,
            PAIRS_BIT0,
            build_round_program(&AttackConfig::paper_no_es(), &layout),
        ),
        spec(
            "spectre_v2",
            "unXpec through a poisoned-BTB indirect-jump trigger",
            TriggerKind::IndirectJump,
            1,
            1,
            PAIRS_BIT0,
            SpectreV2::build_round(&layout).0,
        ),
        spec(
            "spectre_rsb",
            "unXpec through a desynchronized-RSB return trigger",
            TriggerKind::Return,
            1,
            1,
            PAIRS_BIT0,
            SpectreRsb::build_round(&layout),
        ),
        spec(
            "eviction",
            "unXpec round with eviction sets primed so rollback must restore victims",
            TriggerKind::ConditionalBranch,
            1,
            1,
            PAIRS_BIT0,
            build_round_program(&AttackConfig::paper_with_es(), &layout),
        ),
        spec(
            "multilevel",
            "4-level (2 bits/round) unXpec round with tiered encoding loads",
            TriggerKind::ConditionalBranch,
            1,
            // The tier encoding is branch-free: one seed-adjacent tier-A
            // load plus 3 tier-B and 4 tier-C predicate loads, all with
            // secret-derived addresses — 8 transmitters, dynamically
            // cross-checked by `witness-replay`'s shape gate.
            8,
            PAIRS_MULTILEVEL,
            build_multilevel_round(&layout, 8),
        ),
        spec(
            "smt",
            "unXpec round with two encoding loads and an f(2) bound chain",
            TriggerKind::ConditionalBranch,
            2,
            2,
            PAIRS_BIT0,
            build_round_program(
                &AttackConfig::paper_no_es()
                    .with_loads(2)
                    .with_fn_accesses(2),
                &layout,
            ),
        ),
        spec(
            "adaptive",
            "unXpec round with four encoding loads",
            TriggerKind::ConditionalBranch,
            1,
            4,
            PAIRS_BIT0,
            build_round_program(&AttackConfig::paper_no_es().with_loads(4), &layout),
        ),
    ]
}

/// Looks up one registry entry by name.
pub fn find(name: &str) -> Option<ProgramSpec> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_seven_stable_names() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "spectre",
                "spectre_v2",
                "spectre_rsb",
                "eviction",
                "multilevel",
                "smt",
                "adaptive"
            ]
        );
    }

    #[test]
    fn every_entry_assembles_and_labels_its_secret() {
        for s in registry() {
            assert!(s.program().len() > 5, "{} too small", s.name);
            let secret = s.layout().memory_layout().get("SECRET");
            assert!(secret.is_some(), "{} layout lacks SECRET", s.name);
        }
    }

    #[test]
    fn find_by_name() {
        assert!(find("spectre").is_some());
        assert!(find("nonesuch").is_none());
        assert_eq!(
            find("spectre_v2").map(|s| s.trigger),
            Some(TriggerKind::IndirectJump)
        );
    }
}
