//! Kernel generators.

use std::fmt;
use std::sync::{Arc, OnceLock};

use unxpec_cpu::{Cond, Core, Cycle, Program, ProgramBuilder, Reg};
use unxpec_mem::seed::Xoshiro256pp;
use unxpec_mem::Addr;

/// Table base in the simulated address space (clear of the attack
/// layout).
const TABLE_BASE: u64 = 0x4000_0000;

const R_I: Reg = Reg(1);
const R_TBL: Reg = Reg(2);
const R_LCG: Reg = Reg(3);
const R_IDX: Reg = Reg(4);
const R_ADDR: Reg = Reg(5);
const R_V: Reg = Reg(6);
const R_B: Reg = Reg(7);
const R_W: Reg = Reg(8);
const R_CNT: Reg = Reg(9);
const R_V2: Reg = Reg(10);

/// Shape parameters of one synthetic kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// Display name (the SPEC 2017 benchmark it caricatures).
    pub name: &'static str,
    /// Data-table footprint in cache lines (8 words per line). 512
    /// lines fit in L1; 32 K lines (2 MB) thrash the L2.
    pub working_set_lines: u64,
    /// The in-loop data-dependent branch is taken when
    /// `value & branch_mask == 0`; mask 0 makes it always-taken
    /// (predictable), mask 1 a 50/50 coin (maximally mispredicted).
    pub branch_mask: u64,
    /// Serialize loads through a pointer chain (mcf-style) instead of
    /// LCG indexing.
    pub pointer_chase: bool,
    /// Extra ALU work inside the branch body.
    pub extra_alus: usize,
    /// Independent loads per iteration.
    pub loads_per_iter: usize,
    /// Whether the body stores back to the table.
    pub stores: bool,
    /// Serial multiply chain executed every iteration (controls the
    /// squash *frequency* independently of the branch profile).
    pub tail_alus: usize,
    /// Hot/cold access mix: when nonzero, only one in `cold_mask + 1`
    /// accesses touches the full working set; the rest stay in a hot
    /// 128-line region, giving SPEC-like L1 miss rates of a few percent
    /// instead of the ~90% a uniformly random stream would have.
    pub cold_mask: u64,
    /// Table-content seed.
    pub seed: u64,
}

impl KernelSpec {
    /// Table size in 8-byte elements.
    pub fn elements(&self) -> u64 {
        self.working_set_lines * 8
    }
}

/// A generated workload: spec, assembled program and data table.
///
/// The table is built from the spec's seed on the first
/// [`Workload::install`] and kept; clones made after that share it.
///
/// # Examples
///
/// ```
/// use unxpec_workloads::spec2017_like_suite;
/// use unxpec_cpu::Core;
///
/// let suite = spec2017_like_suite();
/// let mcf = suite.iter().find(|w| w.name() == "mcf_r").unwrap();
/// let mut core = Core::table_i();
/// mcf.install(&mut core);
/// let r = core.run_for(mcf.program(), 2_000);
/// assert!(r.stats.ipc() < 0.5, "pointer chasing is memory bound");
/// ```
#[derive(Clone)]
pub struct Workload {
    spec: KernelSpec,
    program: Program,
    table: OnceLock<Arc<[u64]>>,
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The table can hold half a million words; leave it out.
        f.debug_struct("Workload")
            .field("spec", &self.spec)
            .field("program", &self.program)
            .finish_non_exhaustive()
    }
}

impl Workload {
    /// Builds the workload program from its spec.
    ///
    /// # Panics
    ///
    /// Panics if the working set is not a power of two.
    pub fn new(spec: KernelSpec) -> Self {
        Self::with_unroll(spec, 1)
    }

    /// Like [`Workload::new`] but with the loop body replicated `unroll`
    /// times per backward branch. Large unroll factors produce the long
    /// committed straight-line stretches the two-speed core's
    /// fast-forward interpreter feeds on; `unroll = 1` is the classic
    /// branch-per-iteration shape.
    ///
    /// # Panics
    ///
    /// Panics if the working set is not a power of two or `unroll` is 0.
    pub fn with_unroll(spec: KernelSpec, unroll: usize) -> Self {
        assert!(
            spec.elements().is_power_of_two(),
            "working set must be a power of two"
        );
        assert!(unroll > 0, "unroll factor must be at least 1");
        let program = build_program(&spec, unroll);
        Workload {
            spec,
            program,
            table: OnceLock::new(),
        }
    }

    /// The kernel's display name.
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// The shape parameters.
    pub fn spec(&self) -> &KernelSpec {
        &self.spec
    }

    /// The assembled program (an infinite loop; bound it with
    /// `run_for`).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Simulated address of the table's first word.
    pub fn table_base(&self) -> Addr {
        Addr::new(TABLE_BASE)
    }

    /// The data table, one word per element, built from the spec's seed
    /// on first use.
    pub fn table(&self) -> &Arc<[u64]> {
        self.table.get_or_init(|| build_table(&self.spec))
    }

    /// Maps the data table into `core`'s memory at
    /// [`Workload::table_base`].
    ///
    /// The first install builds the table (for the largest SPEC-like
    /// kernel, `mcf_r`, half a million words from its RNG); every later
    /// one maps the same words copy-on-write, with no per-word work. The
    /// core's first store into the table copies the core's mapping to a
    /// private buffer, so no store reaches the shared table or another
    /// core.
    pub fn install(&self, core: &mut Core) {
        core.mem_mut()
            .map_words(self.table_base(), Arc::clone(self.table()));
    }

    /// Installs the table, runs `warmup` committed instructions, then
    /// `measure` more, returning the cycles of the measured window —
    /// the paper's `sim_ticks - startCycles` methodology.
    pub fn measure(&self, core: &mut Core, warmup: u64, measure: u64) -> Cycle {
        self.install(core);
        let r = core.run_with_milestone(self.program(), Some(warmup), warmup + measure);
        let start = r.stats.milestone_cycle.unwrap_or(0);
        r.stats.cycles - start
    }
}

/// The kernel's table words: random values, or for a pointer chase the
/// successor of each element along one random cycle through all of them.
fn build_table(spec: &KernelSpec) -> Arc<[u64]> {
    let mut rng = Xoshiro256pp::new(spec.seed);
    let n = spec.elements() as usize;
    if spec.pointer_chase {
        // A single random cycle covering every element, so the chase
        // visits the whole working set.
        let mut perm: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut perm[1..]);
        let mut table = vec![0; n];
        for (i, &from) in perm.iter().enumerate() {
            table[from as usize] = perm[(i + 1) % n];
        }
        table.into()
    } else {
        (0..n).map(|_| rng.next_u64()).collect()
    }
}

fn build_program(spec: &KernelSpec, unroll: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let index_mask = spec.elements() - 1;
    // Heavily unrolled bodies rotate across independent register lanes,
    // the way a compiler assigns unrolled loop instances their own
    // accumulators: one serial LCG/accumulator chain threaded through
    // every instance would leave the core's dispatch width idle and
    // make the "straight-line compute" suite secretly latency-bound.
    // Classic single-instance bodies (`unroll < 4`, including the whole
    // SPEC-like suite) keep the original single-lane register
    // assignment and produce byte-identical programs. Pointer chases
    // stay single-lane too: the chase is a serial data structure.
    let lanes: usize = if unroll >= 4 && !spec.pointer_chase {
        4
    } else {
        1
    };
    let r_lcg = [R_LCG, Reg(11), Reg(12), Reg(13)];
    let r_idx = [R_IDX, Reg(14), Reg(15), Reg(16)];
    let r_addr = [R_ADDR, Reg(17), Reg(18), Reg(19)];
    let r_v = [R_V, Reg(20), Reg(21), Reg(22)];
    let r_w = [R_W, Reg(23), Reg(24), Reg(25)];
    b.mov(R_I, 0);
    b.mov(R_TBL, TABLE_BASE);
    b.mov(R_LCG, spec.seed | 1);
    b.mov(R_CNT, 0);
    b.mov(R_W, 1);
    for lane in 1..lanes {
        // Distinct odd seeds per lane keep the index streams
        // uncorrelated, like distinct unrolled strides would be.
        b.mov(
            r_lcg[lane],
            spec.seed
                .wrapping_add((lane as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                | 1,
        );
        b.mov(r_w[lane], 1);
    }
    b.label("loop");
    for instance in 0..unroll {
        let lane = instance % lanes;
        if spec.pointer_chase {
            // i = tbl[i]; the loaded successor doubles as the branch value.
            b.shl(R_ADDR, R_I, 3u64);
            b.add(R_ADDR, R_ADDR, R_TBL);
            b.load(R_I, R_ADDR, 0);
            b.add(R_V, R_I, 0u64);
        } else {
            // LCG index, then load the (random) table value.
            b.mul(r_lcg[lane], r_lcg[lane], 6364136223846793005u64);
            b.add(r_lcg[lane], r_lcg[lane], 1442695040888963407u64);
            b.shr(r_idx[lane], r_lcg[lane], 33u64);
            let hot_mask = (spec.elements().min(128 * 8)) - 1;
            if spec.cold_mask > 0 && hot_mask < index_mask {
                // Branch-free hot/cold select: cold (full-range) index only
                // when the chosen LCG bits are all zero.
                b.shr(R_B, r_lcg[lane], 40u64);
                b.and(R_B, R_B, spec.cold_mask);
                b.sub(R_B, R_B, 1u64);
                b.shr(R_B, R_B, 63u64); // 1 iff cold
                b.mul(R_B, R_B, index_mask ^ hot_mask);
                b.or(R_B, R_B, hot_mask);
                b.and(r_idx[lane], r_idx[lane], R_B);
            } else {
                b.and(r_idx[lane], r_idx[lane], index_mask);
            }
            b.shl(r_addr[lane], r_idx[lane], 3u64);
            b.add(r_addr[lane], r_addr[lane], R_TBL);
            b.load(r_v[lane], r_addr[lane], 0);
        }
        for extra in 1..spec.loads_per_iter {
            b.load(R_V2, r_addr[lane], (extra * 8 % 64) as i64);
        }
        // Data-dependent branch.
        let skip_label = format!("skip_body_{instance}");
        if spec.branch_mask > 0 {
            b.and(R_B, r_v[lane], spec.branch_mask);
            b.branch(Cond::Ne, R_B, 0u64, &skip_label);
        }
        // The taken/not-taken paths must *diverge*: the body perturbs the
        // future index stream, so a wrong path does not simply prefetch the
        // correct path's next loads (which would make every rollback undo a
        // useful prefetch — real wrong paths rarely do that).
        if spec.pointer_chase {
            // The chase's address stream is the data structure itself, so
            // full spatial divergence is impossible; keep the body ALU-only.
            // A wrong path that runs ahead down the chain acts as a prefetch
            // the Undo rollback destroys — a real cost of Undo schemes on
            // pointer-chasing code, kept rare via the branch profile.
            b.xor(R_W, R_W, R_V);
        } else {
            b.xor(r_lcg[lane], r_lcg[lane], r_v[lane]);
        }
        for _ in 0..spec.extra_alus {
            b.mul(r_w[lane], r_w[lane], 0x9e37u64);
            b.add(r_w[lane], r_w[lane], r_v[lane]);
        }
        if spec.stores {
            b.store(r_w[lane], r_addr[lane], 0);
        }
        if spec.branch_mask > 0 {
            b.label(&skip_label);
        }
        // Per-iteration serial work on the common path (serial within
        // the lane — the chain is the point of `tail_alus`).
        for _ in 0..spec.tail_alus {
            b.mul(r_w[lane], r_w[lane], 0x2545u64);
        }
    }
    // Loop control: a perfectly predictable backward branch.
    b.add(R_CNT, R_CNT, 1u64);
    b.branch(Cond::Ne, R_CNT, 0u64, "loop");
    b.halt(); // unreachable in practice; run_for bounds execution
    b.build()
}

/// The 12-kernel suite standing in for the SPEC CPU 2017 rate
/// benchmarks of Fig. 12.
pub fn spec2017_like_suite() -> Vec<Workload> {
    let specs = [
        // name, ws lines, branch mask, chase, body alus, loads, stores, tail, cold mask
        ("perlbench_r", 512, 1, false, 4, 1, false, 6, 15),
        ("gcc_r", 4096, 1, false, 2, 2, false, 5, 15),
        ("mcf_r", 65536, 7, true, 1, 1, false, 0, 0),
        ("omnetpp_r", 16384, 7, true, 2, 1, false, 3, 0),
        ("xalancbmk_r", 2048, 1, false, 3, 2, false, 6, 15),
        ("x264_r", 8192, 7, false, 2, 2, true, 3, 31),
        ("deepsjeng_r", 1024, 1, false, 3, 1, false, 4, 15),
        ("leela_r", 1024, 3, false, 2, 1, false, 4, 15),
        ("exchange2_r", 256, 7, false, 6, 1, false, 1, 0),
        ("xz_r", 8192, 3, false, 2, 2, true, 2, 15),
        ("lbm_r", 32768, 15, false, 2, 2, true, 2, 7),
        ("namd_r", 512, 7, false, 8, 1, false, 3, 0),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(
            |(i, (name, ws, mask, chase, alus, loads, stores, tail, cold))| {
                Workload::new(KernelSpec {
                    name,
                    working_set_lines: ws,
                    branch_mask: mask,
                    pointer_chase: chase,
                    extra_alus: alus,
                    loads_per_iter: loads,
                    stores,
                    tail_alus: tail,
                    cold_mask: cold,
                    seed: 0xbe9c_0000 + i as u64,
                })
            },
        )
        .collect()
}

/// Fast-forward-friendly kernels: no in-loop data-dependent branch and a
/// heavily unrolled body, so committed straight-line stretches of several
/// hundred instructions separate consecutive (perfectly predictable)
/// loop-control branches. These are the workloads the two-speed core's
/// throughput claim is measured on — the SPEC-like suite above branches
/// every iteration and bounds fast-forward coverage by design.
pub fn fast_forward_friendly_suite() -> Vec<Workload> {
    let specs = [
        // name, ws lines, body alus, loads, stores, tail, cold mask, unroll
        // Working sets stay L1-resident (64x8 = 512 lines in Table I):
        // hierarchy traffic costs both modes the same wall time, so a
        // miss-bound kernel would only dilute the mode comparison.
        ("ff_stream", 512, 6, 1, false, 2, 0, 96),
        ("ff_compute", 256, 10, 1, false, 4, 0, 64),
        ("ff_blocked", 128, 4, 2, true, 2, 15, 80),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (name, ws, alus, loads, stores, tail, cold, unroll))| {
            Workload::with_unroll(
                KernelSpec {
                    name,
                    working_set_lines: ws,
                    branch_mask: 0,
                    pointer_chase: false,
                    extra_alus: alus,
                    loads_per_iter: loads,
                    stores,
                    tail_alus: tail,
                    cold_mask: cold,
                    seed: 0xfa57_0000 + i as u64,
                },
                unroll,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unxpec_cpu::Core;

    fn small_branchy() -> Workload {
        Workload::new(KernelSpec {
            name: "branchy",
            working_set_lines: 128,
            branch_mask: 1,
            pointer_chase: false,
            extra_alus: 2,
            loads_per_iter: 1,
            stores: false,
            tail_alus: 2,
            cold_mask: 0,
            seed: 7,
        })
    }

    #[test]
    fn suite_has_twelve_distinct_kernels() {
        let suite = spec2017_like_suite();
        assert_eq!(suite.len(), 12);
        let mut names: Vec<_> = suite.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    /// Regression: an unroll-4 body seeds lanes 2 and 3 with
    /// `lane * 0x9e37_79b9_7f4a_7c15`, which exceeds `u64`. The product
    /// must wrap, as release builds always did, not panic in debug.
    #[test]
    fn unrolled_workloads_build_with_wrapping_lane_seeds() {
        let spec = KernelSpec {
            branch_mask: 0,
            ..*small_branchy().spec()
        };
        let unrolled = Workload::with_unroll(spec, 4);
        assert!(unrolled.program().len() > Workload::new(spec).program().len());
        let mut core = Core::table_i();
        unrolled.install(&mut core);
        let r = core.run_for(unrolled.program(), 5_000);
        assert!(r.stats.committed_insts > 0);
    }

    #[test]
    fn branchy_kernel_mispredicts_predictable_kernel_does_not() {
        let mut core = Core::table_i();
        let branchy = small_branchy();
        branchy.install(&mut core);
        let r = core.run_for(branchy.program(), 20_000);
        let branchy_rate = r.stats.mispredict_rate();

        let mut core2 = Core::table_i();
        let predictable = Workload::new(KernelSpec {
            branch_mask: 0,
            name: "pred",
            ..*small_branchy().spec()
        });
        predictable.install(&mut core2);
        let r2 = core2.run_for(predictable.program(), 20_000);
        let pred_rate = r2.stats.mispredict_rate();
        assert!(
            branchy_rate > 0.1,
            "coin-flip branch should mispredict often, got {branchy_rate}"
        );
        assert!(
            pred_rate < 0.02,
            "mask-0 kernel should be predictable, got {pred_rate}"
        );
    }

    #[test]
    fn pointer_chase_visits_whole_working_set() {
        let spec = KernelSpec {
            name: "chase",
            working_set_lines: 16,
            branch_mask: 0,
            pointer_chase: true,
            extra_alus: 0,
            loads_per_iter: 1,
            stores: false,
            tail_alus: 0,
            cold_mask: 0,
            seed: 3,
        };
        let w = Workload::new(spec);
        let mut core = Core::table_i();
        w.install(&mut core);
        // Chase the permutation in software: must be a single cycle of
        // length `elements`.
        let n = spec.elements();
        let mut seen = vec![false; n as usize];
        let mut i = 0u64;
        for _ in 0..n {
            assert!(!seen[i as usize], "permutation revisits {i} early");
            seen[i as usize] = true;
            i = core.mem().read_u64(Addr::new(TABLE_BASE + i * 8));
        }
        assert_eq!(i, 0, "chain must close into a cycle");
    }

    #[test]
    fn measure_excludes_warmup() {
        let w = small_branchy();
        let mut core = Core::table_i();
        let measured = w.measure(&mut core, 5_000, 10_000);
        let mut core2 = Core::table_i();
        let total = {
            w.install(&mut core2);
            core2.run_for(w.program(), 15_000).stats.cycles
        };
        assert!(
            measured < total,
            "warmup must be excluded ({measured} vs {total})"
        );
        assert!(measured > 0);
    }

    #[test]
    fn memory_bound_kernel_has_lower_ipc() {
        let suite = spec2017_like_suite();
        let mcf = suite.iter().find(|w| w.name() == "mcf_r").unwrap();
        let namd = suite.iter().find(|w| w.name() == "namd_r").unwrap();
        let ipc = |w: &Workload| {
            let mut core = Core::table_i();
            w.install(&mut core);
            core.run_for(w.program(), 8_000).stats.ipc()
        };
        let (mcf_ipc, namd_ipc) = (ipc(mcf), ipc(namd));
        assert!(
            mcf_ipc < namd_ipc / 2.0,
            "pointer chasing ({mcf_ipc}) must be far slower than compute ({namd_ipc})"
        );
    }
}
