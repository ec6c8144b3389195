//! Mapped table ≡ written table: `Workload::install` maps a kernel's
//! table copy-on-write into the core's memory instead of writing it word
//! by word. Every kernel must run the same either way, and a core's
//! stores must never reach the shared table another core maps.

use std::sync::Arc;

use unxpec::cpu::{Core, Defense, RunResult, UnsafeBaseline};
use unxpec::defense::CleanupSpec;
use unxpec::mem::Addr;
use unxpec::workloads::{fast_forward_friendly_suite, spec2017_like_suite, Workload};

/// Committed instructions per run: enough for every store kernel to
/// write back into its table many times.
const INSTS: u64 = 6_000;

const SCHEMES: [&str; 2] = ["unsafe", "cleanupspec"];

fn core_under(scheme: &str) -> Core {
    let mut core = Core::table_i();
    let defense: Box<dyn Defense> = match scheme {
        "unsafe" => Box::new(UnsafeBaseline),
        _ => Box::new(CleanupSpec::new()),
    };
    core.set_defense(defense);
    core
}

/// Everything a run leaves behind that the table could influence.
#[derive(Debug, PartialEq)]
struct Outcome {
    cycles: u64,
    committed: u64,
    squashed: u64,
    squashes: usize,
    regs: Vec<u64>,
    table: Vec<u64>,
}

fn outcome(core: &Core, w: &Workload, r: &RunResult) -> Outcome {
    let base = w.table_base().raw();
    Outcome {
        cycles: r.stats.cycles,
        committed: r.stats.committed_insts,
        squashed: r.stats.squashed_insts,
        squashes: r.stats.squashes.len(),
        regs: r.regs.to_vec(),
        table: (0..w.table().len() as u64)
            .map(|i| core.mem().read_u64(Addr::new(base + i * 8)))
            .collect(),
    }
}

fn run_installed(w: &Workload, scheme: &str) -> Outcome {
    let mut core = core_under(scheme);
    w.install(&mut core);
    let r = core.run_for(w.program(), INSTS);
    outcome(&core, w, &r)
}

fn run_written(w: &Workload, scheme: &str) -> Outcome {
    let mut core = core_under(scheme);
    let base = w.table_base().raw();
    for (i, &word) in w.table().iter().enumerate() {
        core.mem_mut()
            .write_u64(Addr::new(base + i as u64 * 8), word);
    }
    let r = core.run_for(w.program(), INSTS);
    outcome(&core, w, &r)
}

fn every_kernel() -> Vec<Workload> {
    let mut all = spec2017_like_suite();
    all.extend(fast_forward_friendly_suite());
    all
}

#[test]
fn installed_tables_run_exactly_like_written_tables() {
    for w in every_kernel() {
        for scheme in SCHEMES {
            let installed = run_installed(&w, scheme);
            let written = run_written(&w, scheme);
            assert!(installed.committed > 0, "{} did not run", w.name());
            assert_eq!(installed, written, "{} under {scheme}", w.name());
        }
    }
}

#[test]
fn a_cores_stores_never_reach_the_next_cores_table() {
    let kernels = every_kernel();
    let stores: Vec<&Workload> = kernels.iter().filter(|w| w.spec().stores).collect();
    let names: Vec<&str> = stores.iter().map(|w| w.name()).collect();
    assert_eq!(names, ["x264_r", "xz_r", "lbm_r", "ff_blocked"]);
    for w in stores {
        let pristine = w.table().to_vec();
        for scheme in SCHEMES {
            let first = run_installed(w, scheme);
            assert_ne!(first.table, pristine, "{} never stored", w.name());
            let second = run_installed(w, scheme);
            assert_eq!(first, second, "{} under {scheme}", w.name());
            assert_eq!(w.table()[..], pristine[..], "{} table changed", w.name());
        }
    }
}

#[test]
fn clones_made_after_the_first_build_share_the_table() {
    let suite = spec2017_like_suite();
    let mcf = &suite[2];
    let early = mcf.clone();
    let table = mcf.table();
    let late = mcf.clone();
    assert!(Arc::ptr_eq(table, late.table()));
    assert_eq!(
        early.table()[..],
        table[..],
        "an earlier clone builds the same words"
    );
}
