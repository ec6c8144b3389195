//! The figure results the scorecard checks, each computed at most once
//! per run.
//!
//! A [`Figures`] holds, for one [`Scale`] and root seed, the sample
//! counts and seed label of Figs. 2, 3, 6, 7, 8, 10, 11, the §VI-B
//! rate, Fig. 12 and the trigger matrix. Each result is computed on
//! first read and kept, so the `experiments` sections and the
//! scorecard print one value per claim, and pool workers that read the
//! same figure share one computation.
//!
//! Fig. 12 and the defense landscape are grids over the same suite
//! cells: one SPEC-like kernel under one of ten defenses, measured on a
//! fresh Table-I core for the scale's warmup and measured instructions.
//! Each cell runs at most once, on first read, and no cell reads
//! another. Both grids normalize against the unsafe cells, and both
//! read the CleanupSpec cells ("no-const" in Fig. 12, "cleanupspec" in
//! the landscape), so those 24 cells run once for the two figures.

use std::sync::OnceLock;

use unxpec_cpu::{Core, Cycle, Defense, UnsafeBaseline};
use unxpec_defense::{CleanupSpec, ConstantTimeRollback, DelayOnMiss, InvisiSpec};
use unxpec_workloads::{spec2017_like_suite, OverheadRow, Workload};

use super::defense_costs::Landscape;
use super::leakage::{self, Leakage};
use super::overhead::{Fig12, SuiteGrid};
use super::pdf::{self, LatencyPdf};
use super::rate::{self, RateResult};
use super::resolution::{self, ResolutionSweep};
use super::rollback::{self, RollbackSweep};
use super::seeding::stream;
use super::triggers::{self, TriggerMatrix};
use super::Scale;

/// The scale of the quick scorecard's own figures. At [`Scale::quick`]
/// Fig. 7's 60 PDF samples read 14.3 cycles, below the claim's 15–30
/// band, so under `--quick` the scorecard checks these counts instead.
const QUICK_SCORECARD: Scale = Scale {
    timing_samples: 10,
    pdf_samples: 80,
    leak_bits: 200,
    workload_warmup: 8_000,
    workload_measure: 25_000,
};

/// The defense a suite cell runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SuiteDefense {
    Unsafe,
    CleanupSpec,
    /// Constant-time rollback padded to this many cycles.
    ConstantTime(u64),
    DelayOnMiss,
    InvisiSpec,
    /// Delay-on-miss without value prediction.
    DelayOnMissNoVp,
}

/// Every defense a suite cell runs under; a cell's column in
/// [`Figures::cells`] is its defense's index here.
const SUITE_DEFENSES: [SuiteDefense; 10] = [
    SuiteDefense::Unsafe,
    SuiteDefense::CleanupSpec,
    SuiteDefense::ConstantTime(25),
    SuiteDefense::ConstantTime(30),
    SuiteDefense::ConstantTime(35),
    SuiteDefense::ConstantTime(45),
    SuiteDefense::ConstantTime(65),
    SuiteDefense::DelayOnMiss,
    SuiteDefense::InvisiSpec,
    SuiteDefense::DelayOnMissNoVp,
];

/// Fig. 12's columns: the unsafe baseline, CleanupSpec alone, then
/// constant-time rollback at each of [`super::overhead::CONSTANTS`].
const FIG12_COLUMNS: [(&str, SuiteDefense); 7] = [
    ("unsafe", SuiteDefense::Unsafe),
    ("no-const", SuiteDefense::CleanupSpec),
    ("const=25", SuiteDefense::ConstantTime(25)),
    ("const=30", SuiteDefense::ConstantTime(30)),
    ("const=35", SuiteDefense::ConstantTime(35)),
    ("const=45", SuiteDefense::ConstantTime(45)),
    ("const=65", SuiteDefense::ConstantTime(65)),
];

/// The defense landscape's columns: the unsafe baseline, then one
/// column per defense class.
const LANDSCAPE_COLUMNS: [(&str, SuiteDefense); 5] = [
    ("unsafe", SuiteDefense::Unsafe),
    ("cleanupspec", SuiteDefense::CleanupSpec),
    ("delay-on-miss", SuiteDefense::DelayOnMiss),
    ("invisispec", SuiteDefense::InvisiSpec),
    ("dom-no-vp", SuiteDefense::DelayOnMissNoVp),
];

impl SuiteDefense {
    /// A fresh instance of the defense.
    fn build(self) -> Box<dyn Defense> {
        match self {
            SuiteDefense::Unsafe => Box::new(UnsafeBaseline),
            SuiteDefense::CleanupSpec => Box::new(CleanupSpec::new()),
            SuiteDefense::ConstantTime(c) => Box::new(ConstantTimeRollback::new(c)),
            SuiteDefense::DelayOnMiss => Box::new(DelayOnMiss::new()),
            SuiteDefense::InvisiSpec => Box::new(InvisiSpec::new()),
            SuiteDefense::DelayOnMissNoVp => Box::new(DelayOnMiss::naive()),
        }
    }

    /// The defense's column in [`Figures::cells`].
    fn index(self) -> usize {
        SUITE_DEFENSES
            .iter()
            .position(|&d| d == self)
            .expect("every suite defense is in SUITE_DEFENSES")
    }
}

/// The figure results of one `(scale, root seed)`, computed on demand.
///
/// Figure `figN`'s seed is `stream(root_seed, "figN")`, the seed of
/// the `experiments` section of that name.
#[derive(Debug)]
pub struct Figures {
    scale: Scale,
    root_seed: u64,
    /// The SPEC-like suite whose kernels the suite cells run.
    suite: Vec<Workload>,
    /// One measured-window cycle count per (suite kernel,
    /// [`SUITE_DEFENSES`] entry), once some reader has run it.
    cells: Vec<[OnceLock<Cycle>; SUITE_DEFENSES.len()]>,
    computed: Computed,
}

/// Each result, once some reader has computed it.
#[derive(Debug, Default)]
struct Computed {
    fig2: OnceLock<ResolutionSweep>,
    fig3: OnceLock<RollbackSweep>,
    fig6: OnceLock<RollbackSweep>,
    fig7: OnceLock<LatencyPdf>,
    fig8: OnceLock<LatencyPdf>,
    fig10: OnceLock<Leakage>,
    fig11: OnceLock<Leakage>,
    rate: OnceLock<(RateResult, RateResult)>,
    triggers: OnceLock<TriggerMatrix>,
    quick_scorecard: OnceLock<Box<Figures>>,
}

impl Figures {
    /// Nothing computed yet.
    pub fn new(scale: Scale, root_seed: u64) -> Self {
        let suite = spec2017_like_suite();
        let cells = suite.iter().map(|_| Default::default()).collect();
        Figures {
            scale,
            root_seed,
            suite,
            cells,
            computed: Computed::default(),
        }
    }

    /// The sample counts every figure derives from.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// The seed of the experiment labelled `label`.
    pub fn seed(&self, label: &str) -> u64 {
        stream(self.root_seed, label)
    }

    /// Fig. 2: branch resolution time.
    pub fn fig2(&self) -> &ResolutionSweep {
        self.computed
            .fig2
            .get_or_init(|| resolution::run(self.scale.resolution_samples(), self.seed("fig2")))
    }

    /// Fig. 3: rollback timing difference without eviction sets.
    pub fn fig3(&self) -> &RollbackSweep {
        self.computed
            .fig3
            .get_or_init(|| rollback::run(false, 8, self.scale.timing_samples, self.seed("fig3")))
    }

    /// Fig. 6: rollback timing difference with eviction sets.
    pub fn fig6(&self) -> &RollbackSweep {
        self.computed
            .fig6
            .get_or_init(|| rollback::run(true, 8, self.scale.timing_samples, self.seed("fig6")))
    }

    /// Fig. 7: latency PDF without eviction sets.
    pub fn fig7(&self) -> &LatencyPdf {
        self.computed
            .fig7
            .get_or_init(|| pdf::run(false, self.scale.pdf_samples, self.seed("fig7")))
    }

    /// Fig. 8: latency PDF with eviction sets.
    pub fn fig8(&self) -> &LatencyPdf {
        self.computed
            .fig8
            .get_or_init(|| pdf::run(true, self.scale.pdf_samples, self.seed("fig8")))
    }

    /// Fig. 10: secret leakage without eviction sets.
    pub fn fig10(&self) -> &Leakage {
        self.computed
            .fig10
            .get_or_init(|| leakage::run(false, self.scale.leak_bits, self.seed("fig10")))
    }

    /// Fig. 11: secret leakage with eviction sets.
    pub fn fig11(&self) -> &Leakage {
        self.computed
            .fig11
            .get_or_init(|| leakage::run(true, self.scale.leak_bits, self.seed("fig11")))
    }

    /// §VI-B: the leakage rate without and with eviction sets.
    pub fn rate(&self) -> &(RateResult, RateResult) {
        self.computed
            .rate
            .get_or_init(|| rate::run(self.scale.rate_bits(), self.seed("rate")))
    }

    /// Fig. 12: constant-time rollback overhead.
    pub fn fig12(&self) -> Fig12 {
        Fig12(self.suite_grid(&FIG12_COLUMNS))
    }

    /// The defense landscape's cost: Undo against the invisible
    /// schemes.
    pub fn defense_costs(&self) -> Landscape {
        Landscape(self.suite_grid(&LANDSCAPE_COLUMNS))
    }

    /// Every suite kernel's cycles under each `(label, defense)`
    /// column, running the cells no reader has run yet.
    fn suite_grid(&self, columns: &[(&str, SuiteDefense)]) -> SuiteGrid {
        SuiteGrid {
            schemes: columns.iter().map(|(label, _)| label.to_string()).collect(),
            rows: (0..self.suite.len())
                .map(|k| OverheadRow {
                    workload: self.suite[k].name().to_string(),
                    cycles: columns
                        .iter()
                        .map(|&(label, defense)| (label.to_string(), self.cell(k, defense)))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Suite kernel `k`'s measured-window cycles under `defense`.
    fn cell(&self, k: usize, defense: SuiteDefense) -> Cycle {
        *self.cells[k][defense.index()].get_or_init(|| {
            let mut core = Core::table_i();
            core.set_defense(defense.build());
            self.suite[k].measure(
                &mut core,
                self.scale.workload_warmup,
                self.scale.workload_measure,
            )
        })
    }

    /// The trigger-agnosticism matrix.
    pub fn triggers(&self) -> &TriggerMatrix {
        self.computed
            .triggers
            .get_or_init(|| triggers::run(self.scale.trigger_samples(), self.seed("triggers")))
    }

    /// The figures the scorecard checks: these, except at
    /// [`Scale::quick`], where it checks figures of its own at
    /// (10, 80, 200, 8k, 25k) under `stream(root_seed, "scorecard")`.
    pub fn for_scorecard(&self) -> &Figures {
        if self.scale != Scale::quick() {
            return self;
        }
        self.computed
            .quick_scorecard
            .get_or_init(|| Box::new(Figures::new(QUICK_SCORECARD, self.seed("scorecard"))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figures whose suite cells run 3k warmup and 8k measured
    /// instructions.
    fn small() -> Figures {
        let scale = Scale {
            workload_warmup: 3_000,
            workload_measure: 8_000,
            ..Scale::quick()
        };
        Figures::new(scale, 0)
    }

    /// Per kernel, the defenses whose cells have run.
    fn run_cells(figs: &Figures) -> Vec<Vec<SuiteDefense>> {
        figs.cells
            .iter()
            .map(|row| {
                SUITE_DEFENSES
                    .iter()
                    .zip(row)
                    .filter(|(_, cell)| cell.get().is_some())
                    .map(|(&defense, _)| defense)
                    .collect()
            })
            .collect()
    }

    fn count(cells: &[Vec<SuiteDefense>]) -> usize {
        cells.iter().map(Vec::len).sum()
    }

    #[test]
    fn the_landscape_runs_only_the_cells_fig12_did_not() {
        let figs = small();
        assert_eq!(count(&run_cells(&figs)), 0, "no cell runs before a read");

        let fig12 = figs.fig12();
        let after_fig12 = run_cells(&figs);
        assert_eq!(after_fig12.len(), 12);
        for (kernel, defenses) in after_fig12.iter().enumerate() {
            assert!(defenses.contains(&SuiteDefense::Unsafe), "kernel {kernel}");
            assert!(
                defenses.contains(&SuiteDefense::CleanupSpec),
                "kernel {kernel}"
            );
            for invisible in [
                SuiteDefense::DelayOnMiss,
                SuiteDefense::InvisiSpec,
                SuiteDefense::DelayOnMissNoVp,
            ] {
                assert!(!defenses.contains(&invisible), "kernel {kernel}");
            }
        }
        assert_eq!(count(&after_fig12), 84);

        let landscape = figs.defense_costs();
        let after_both = run_cells(&figs);
        assert_eq!(count(&after_both) - count(&after_fig12), 36);
        for defenses in &after_both {
            assert_eq!(defenses, &SUITE_DEFENSES);
        }
        // The shared columns are the same cells.
        for (f, l) in fig12.0.rows.iter().zip(&landscape.0.rows) {
            assert_eq!(f.cycles[0].1, l.cycles[0].1, "{} unsafe", f.workload);
            assert_eq!(f.cycles[1].1, l.cycles[1].1, "{} CleanupSpec", f.workload);
        }
        // Reading a grid again runs nothing.
        figs.fig12();
        figs.defense_costs();
        assert_eq!(run_cells(&figs), after_both);
    }

    #[test]
    fn every_column_reads_its_own_defense() {
        let figs = small();
        let expected = |label: &str| -> Box<dyn Defense> {
            match label {
                "unsafe" => Box::new(UnsafeBaseline),
                "no-const" | "cleanupspec" => Box::new(CleanupSpec::new()),
                "delay-on-miss" => Box::new(DelayOnMiss::new()),
                "invisispec" => Box::new(InvisiSpec::new()),
                "dom-no-vp" => Box::new(DelayOnMiss::naive()),
                constant => {
                    let c = constant.strip_prefix("const=").expect("a constant column");
                    Box::new(ConstantTimeRollback::new(c.parse().expect("a cycle count")))
                }
            }
        };
        for grid in [figs.fig12().0, figs.defense_costs().0] {
            // perlbench_r mispredicts often; mcf_r chases pointers.
            for kernel in [0, 2] {
                let row = &grid.rows[kernel];
                for (label, cycles) in &row.cycles {
                    let mut core = Core::table_i();
                    core.set_defense(expected(label));
                    let fresh = figs.suite[kernel].measure(&mut core, 3_000, 8_000);
                    assert_eq!(*cycles, fresh, "{} under {label}", row.workload);
                }
            }
        }
    }
}
