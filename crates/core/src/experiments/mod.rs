//! Per-table/per-figure experiment drivers.
//!
//! Every experiment in the paper's evaluation (§VI) has a module here
//! returning a structured result that also implements [`std::fmt::Display`],
//! rendering the same rows or series the paper plots. The mapping:
//!
//! | paper | module / entry point |
//! |---|---|
//! | Table I (configuration) | [`table1::run`] |
//! | Fig. 2 (branch resolution time, gem5) | [`resolution::run`] |
//! | Fig. 3 (rollback timing difference, no eviction sets) | [`rollback::run`] with `use_eviction_sets = false` |
//! | Fig. 6 (… with eviction sets) | [`rollback::run`] with `use_eviction_sets = true` |
//! | Fig. 7 (latency PDF, no ES) | [`pdf::run`] |
//! | Fig. 8 (latency PDF, with ES) | [`pdf::run`] |
//! | Fig. 9 (1000-bit secret pattern) | [`secret_pattern::run`] |
//! | Fig. 10 (secret leakage, no ES) | [`leakage::run`] |
//! | Fig. 11 (secret leakage, with ES) | [`leakage::run`] |
//! | §VI-B (leakage rate) | [`rate::run`] |
//! | Fig. 12 (constant-time-rollback overhead) | [`Figures::fig12`] |
//! | §I / §II-B (the defense landscape's cost) | [`Figures::defense_costs`] |
//! | Fig. 13 (branch resolution on a real CPU) | [`resolution::run_host_like`] |
//!
//! Beyond the paper, [`ablations`] quantifies the design choices the
//! paper discusses (invalidation-only rollback, the fuzzy-cleanup
//! mitigation, the InvisiSpec comparison, mistraining effort) and
//! [`votes`] the §VI-D samples-per-bit noise-suppression trade.
//! [`trace::run`] captures a fully instrumented round per secret value
//! for the Chrome/Perfetto and metrics exporters (see
//! `docs/observability.md`), and [`chaos`] drives every registry attack
//! program under seeded fault injection with the runtime invariant
//! sanitizer armed (see `docs/fault_injection.md`).
//!
//! [`Figures`] computes, once per scale and root seed, the figure
//! results that the `experiments` sections print and the [`scorecard`]
//! checks, and runs each (suite kernel, defense) cell that Fig. 12 and
//! the defense landscape read.

pub mod ablations;
pub mod chaos;
pub mod defense_costs;
mod figures;
pub mod leakage;
pub mod overhead;
pub mod pdf;
pub mod rate;
pub mod resolution;
pub mod robustness;
pub mod rollback;
pub mod scorecard;
pub mod secret_pattern;
pub mod seeding;
pub mod table1;
pub mod timeline;
pub mod trace;
pub mod triggers;
pub mod votes;
pub mod workload_profile;

pub use figures::Figures;

/// A [`Scale`] field that failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleError {
    /// Name of the zero field.
    pub field: &'static str,
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid scale: `{}` must be nonzero (zero samples would yield \
             empty statistics or divide-by-zero panics downstream)",
            self.field
        )
    }
}

impl std::error::Error for ScaleError {}

/// How much data each experiment collects.
///
/// [`Scale::paper`] matches the paper's sample counts; [`Scale::quick`]
/// is for tests and smoke runs. Arbitrary scales come from
/// [`Scale::new`], which rejects zero sample counts up front instead of
/// letting them surface as empty-summary panics deep inside a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Rounds per configuration point for timing-difference averages.
    pub timing_samples: usize,
    /// Samples per secret value for the PDFs (paper: 1000).
    pub pdf_samples: usize,
    /// Secret bits leaked end-to-end (paper: 1000).
    pub leak_bits: usize,
    /// Warmup committed instructions per workload run.
    pub workload_warmup: u64,
    /// Measured committed instructions per workload run.
    pub workload_measure: u64,
}

impl Scale {
    /// Builds a validated scale: every field must be nonzero.
    pub fn new(
        timing_samples: usize,
        pdf_samples: usize,
        leak_bits: usize,
        workload_warmup: u64,
        workload_measure: u64,
    ) -> Result<Self, ScaleError> {
        let scale = Scale {
            timing_samples,
            pdf_samples,
            leak_bits,
            workload_warmup,
            workload_measure,
        };
        scale.validate()?;
        Ok(scale)
    }

    /// Checks the field invariants on an already-built scale (the
    /// fields are public, so hand-rolled literals can bypass
    /// [`Scale::new`]; the harness re-validates specs before running).
    pub fn validate(&self) -> Result<(), ScaleError> {
        for (field, value) in [
            ("timing_samples", self.timing_samples as u64),
            ("pdf_samples", self.pdf_samples as u64),
            ("leak_bits", self.leak_bits as u64),
            ("workload_warmup", self.workload_warmup),
            ("workload_measure", self.workload_measure),
        ] {
            if value == 0 {
                return Err(ScaleError { field });
            }
        }
        Ok(())
    }

    /// The paper's sample counts.
    pub fn paper() -> Self {
        Scale::new(100, 1000, 1000, 40_000, 120_000).expect("paper scale is valid")
    }

    /// Reduced counts for tests.
    pub fn quick() -> Self {
        Scale::new(10, 60, 60, 5_000, 15_000).expect("quick scale is valid")
    }

    /// Rounds per point of the resolution sweeps (Figs. 2 and 13).
    pub fn resolution_samples(&self) -> usize {
        self.timing_samples.min(20)
    }

    /// Bits per channel variant of the §VI-B rate measurement.
    pub fn rate_bits(&self) -> usize {
        self.timing_samples.max(40)
    }

    /// Rounds per cell of the trigger matrix.
    pub fn trigger_samples(&self) -> usize {
        self.timing_samples.min(30)
    }

    /// Bits per point of the samples-per-bit sweep.
    pub fn vote_bits(&self) -> usize {
        (self.leak_bits / 2).max(4)
    }

    /// Whether the extensions run at their full breadth: from 40 timing
    /// samples up, which [`Scale::paper`] meets and [`Scale::quick`]
    /// does not.
    pub fn full_breadth(&self) -> bool {
        self.timing_samples >= 40
    }

    /// `(seeds, samples, bits)` of the seed-sweep robustness study.
    pub fn robustness_breadth(&self) -> (usize, usize, usize) {
        if self.full_breadth() {
            (10, 40, 300)
        } else {
            (4, 8, 60)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_scales_are_valid() {
        assert!(Scale::paper().validate().is_ok());
        assert!(Scale::quick().validate().is_ok());
    }

    #[test]
    fn zero_fields_are_rejected_with_the_field_name() {
        let err = Scale::new(0, 1, 1, 1, 1).expect_err("zero timing_samples");
        assert_eq!(err.field, "timing_samples");
        assert!(err.to_string().contains("timing_samples"));
        assert_eq!(
            Scale::new(1, 1, 0, 1, 1).expect_err("zero leak_bits").field,
            "leak_bits"
        );
        assert_eq!(
            Scale::new(1, 1, 1, 1, 0)
                .expect_err("zero workload_measure")
                .field,
            "workload_measure"
        );
    }

    #[test]
    fn validate_catches_hand_rolled_literals() {
        let mut s = Scale::quick();
        s.pdf_samples = 0;
        assert_eq!(
            s.validate().expect_err("zero pdf_samples").field,
            "pdf_samples"
        );
    }
}
