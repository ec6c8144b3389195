//! The figure results the scorecard checks, each computed at most once
//! per run.
//!
//! A [`Figures`] holds, for one [`Scale`] and root seed, the sample
//! counts and seed label of Figs. 2, 3, 6, 7, 8, 10, 11, the §VI-B
//! rate, Fig. 12 and the trigger matrix. Each result is computed on
//! first read and kept, so the `experiments` sections and the
//! scorecard print one value per claim, and pool workers that read the
//! same figure share one computation.

use std::sync::OnceLock;

use super::leakage::{self, Leakage};
use super::overhead::{self, SuiteGrid};
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

/// The figure results of one `(scale, root seed)`, computed on demand.
///
/// Figure `figN`'s seed is `stream(root_seed, "figN")`, the seed of
/// the `experiments` section of that name.
#[derive(Debug)]
pub struct Figures {
    scale: Scale,
    root_seed: u64,
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
    fig12: OnceLock<SuiteGrid>,
    triggers: OnceLock<TriggerMatrix>,
    quick_scorecard: OnceLock<Box<Figures>>,
}

impl Figures {
    /// Nothing computed yet.
    pub fn new(scale: Scale, root_seed: u64) -> Self {
        Figures {
            scale,
            root_seed,
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
    pub fn fig12(&self) -> &SuiteGrid {
        self.computed
            .fig12
            .get_or_init(|| overhead::run(self.scale.workload_warmup, self.scale.workload_measure))
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
