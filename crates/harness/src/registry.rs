//! The experiment registry: named [`Experiment`]s the sweep runner can
//! enumerate, plus the builtin set adapting every driver in
//! [`unxpec::experiments`] to the [`TrialCtx`](crate::TrialCtx) → [`TrialOutput`]
//! shape.
//!
//! Variants encode the channel/figure axis an experiment already has
//! (`no-es`/`es` for the eviction-set pair, the four ablation
//! sub-studies, `sim`/`host-like` resolution). Each adapter sizes its
//! driver from the trial's [`Scale`] (where the `experiments` binary
//! runs the same driver, both call the same `Scale` sizing method), and
//! extracts the headline quantities as named metrics so the sweep can
//! aggregate them across the seed axis.
//!
//! [`Scale`]: unxpec::experiments::Scale

use unxpec::experiments::{
    ablations, chaos, defense_costs, leakage, overhead, pdf, rate, resolution, robustness,
    rollback, secret_pattern, table1, timeline, trace, triggers, votes, workload_profile,
};

use crate::experiment::{Experiment, FnExperiment, TrialOutput};

/// A name-indexed set of experiments.
#[derive(Default)]
pub struct Registry {
    experiments: Vec<Box<dyn Experiment>>,
}

impl Registry {
    /// An empty registry (tests register their own experiments).
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `experiment`. Names must be unique — a duplicate is a
    /// registry bug, caught immediately rather than shadowed.
    ///
    /// # Panics
    ///
    /// Panics if an experiment with the same name is already present.
    pub fn register(&mut self, experiment: impl Experiment + 'static) {
        assert!(
            self.get(experiment.name()).is_none(),
            "duplicate experiment {:?}",
            experiment.name()
        );
        self.experiments.push(Box::new(experiment));
    }

    /// Looks up an experiment by name.
    pub fn get(&self, name: &str) -> Option<&dyn Experiment> {
        self.experiments
            .iter()
            .find(|e| e.name() == name)
            .map(|e| e.as_ref())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.experiments.iter().map(|e| e.name()).collect()
    }

    /// `(name, variants)` pairs for `--list`.
    pub fn listing(&self) -> Vec<(String, Vec<String>)> {
        self.experiments
            .iter()
            .map(|e| (e.name().to_string(), e.variants()))
            .collect()
    }

    /// The builtin registry over every paper/extension experiment.
    pub fn builtin() -> Self {
        let mut r = Registry::new();
        r.register(FnExperiment::new("rollback", &["no-es", "es"], |ctx| {
            let sweep = rollback::run(ctx.variant == "es", 8, ctx.scale.timing_samples, ctx.seed);
            let last = sweep.points.last().expect("max_loads >= 1");
            TrialOutput::new(
                sweep.to_string(),
                vec![
                    ("single_load_diff", sweep.single_load_difference()),
                    ("eight_load_diff", last.difference()),
                    ("restorations", last.restorations),
                ],
            )
        }));
        r.register(FnExperiment::new("pdf", &["no-es", "es"], |ctx| {
            let p = pdf::run(ctx.variant == "es", ctx.scale.pdf_samples, ctx.seed);
            TrialOutput::new(p.to_string(), vec![("mean_diff", p.mean_difference())])
        }));
        r.register(FnExperiment::new("leakage", &["no-es", "es"], |ctx| {
            let l = leakage::run(ctx.variant == "es", ctx.scale.leak_bits, ctx.seed);
            TrialOutput::new(l.to_string(), vec![("accuracy", l.accuracy())])
        }));
        r.register(FnExperiment::new("rate", &["default"], |ctx| {
            let (no_es, es) = rate::run(ctx.scale.rate_bits(), ctx.seed);
            TrialOutput::new(
                format!("{no_es}{es}"),
                vec![("raw_bps_no_es", no_es.raw_bps), ("raw_bps_es", es.raw_bps)],
            )
        }));
        r.register(FnExperiment::new(
            "resolution",
            &["sim", "host-like"],
            |ctx| {
                let samples = ctx.scale.resolution_samples();
                let sweep = if ctx.variant == "host-like" {
                    resolution::run_host_like(samples, ctx.seed)
                } else {
                    resolution::run(samples, ctx.seed)
                };
                let n = sweep.points.first().map_or(1, |p| p.fn_accesses);
                TrialOutput::new(
                    sweep.to_string(),
                    vec![
                        ("mean_resolution", sweep.mean_for_fn(n)),
                        ("spread", sweep.spread_for_fn(n)),
                    ],
                )
            },
        ));
        r.register(FnExperiment::new("triggers", &["default"], |ctx| {
            let m = triggers::run(ctx.scale.trigger_samples(), ctx.seed);
            let metrics = m
                .rows
                .iter()
                .map(|(name, diff, _)| (format!("{name}_diff"), *diff))
                .collect();
            let mut out = TrialOutput::new(m.to_string(), vec![]);
            out.metrics = metrics;
            out
        }));
        r.register(FnExperiment::new("votes", &["no-es", "es"], |ctx| {
            let sweep = votes::run(ctx.variant == "es", ctx.scale.vote_bits(), ctx.seed);
            let last = sweep.points.last().expect("votes sweep is nonempty");
            TrialOutput::new(
                sweep.to_string(),
                vec![
                    ("accuracy_max_votes", last.accuracy),
                    ("bps_max_votes", last.bps),
                ],
            )
        }));
        r.register(FnExperiment::new("secret-pattern", &["default"], |ctx| {
            let p = secret_pattern::run(ctx.scale.leak_bits, ctx.seed);
            TrialOutput::new(p.to_string(), vec![("ones", p.ones() as f64)])
        }));
        r.register(FnExperiment::new("timeline", &["no-es", "es"], |ctx| {
            let (t0, t1) = timeline::run(ctx.variant == "es", ctx.seed);
            TrialOutput::new(
                format!("{t0}{t1}"),
                vec![
                    ("cleanup0", t0.cleanup() as f64),
                    ("cleanup1", t1.cleanup() as f64),
                ],
            )
        }));
        r.register(FnExperiment::new("trace", &["no-es", "es"], |ctx| {
            let cap = trace::run(ctx.variant == "es", 1 << 15, ctx.seed);
            TrialOutput::new(
                cap.to_string(),
                vec![
                    ("cleanup0", cap.cleanup0 as f64),
                    ("cleanup1", cap.cleanup1 as f64),
                ],
            )
        }));
        r.register(FnExperiment::new("robustness", &["default"], |ctx| {
            // The driver sweeps its own inner seed axis.
            let (n, samples, bits) = ctx.scale.robustness_breadth();
            let sweep = robustness::run(n, samples, bits, ctx.seed);
            TrialOutput::new(
                sweep.to_string(),
                vec![
                    ("diff_no_es_mean", sweep.no_es_summary().0),
                    ("diff_es_mean", sweep.es_summary().0),
                    ("accuracy_mean", sweep.accuracy_summary().0),
                ],
            )
        }));
        r.register(FnExperiment::new(
            "ablations",
            &["defense-matrix", "fuzzy", "mistrain", "fence"],
            |ctx| match ctx.variant.as_str() {
                "defense-matrix" => {
                    let m = ablations::defense_matrix(ctx.scale.timing_samples, ctx.seed);
                    TrialOutput::new(
                        m.to_string(),
                        vec![
                            ("cleanupspec_diff", m.difference("cleanupspec")),
                            ("invisispec_diff", m.difference("invisispec")),
                        ],
                    )
                }
                "fuzzy" => {
                    let e = ablations::fuzzy_evaluation(60, ctx.scale.leak_bits, 7, ctx.seed);
                    TrialOutput::new(
                        e.to_string(),
                        vec![
                            ("single_sample_accuracy", e.single_sample_accuracy),
                            ("averaged_accuracy", e.averaged_accuracy),
                        ],
                    )
                }
                "mistrain" => {
                    let s = ablations::mistrain_sweep(ctx.scale.timing_samples, ctx.seed);
                    let last = s.points.last().expect("mistrain sweep is nonempty");
                    TrialOutput::new(s.to_string(), vec![("diff_max_iters", last.1)])
                }
                "fence" => {
                    let a = ablations::fence_ablation(ctx.scale.timing_samples, ctx.seed);
                    TrialOutput::new(
                        a.to_string(),
                        vec![
                            ("with_fence_std", a.with_fence_std),
                            ("with_fence_diff", a.with_fence_diff),
                        ],
                    )
                }
                other => panic!("unknown ablations variant {other:?}"),
            },
        ));
        r.register(FnExperiment::new("overhead", &["default"], |ctx| {
            let e = overhead::run(ctx.scale.workload_warmup, ctx.scale.workload_measure);
            TrialOutput::new(
                e.to_string(),
                vec![("cleanupspec_mean_overhead", e.mean_overhead(1))],
            )
        }));
        r.register(FnExperiment::new("defense-costs", &["default"], |ctx| {
            let c = defense_costs::run(ctx.scale.workload_warmup, ctx.scale.workload_measure);
            let (cleanupspec, delay_on_miss, invisispec) = defense_costs::ordering(&c);
            TrialOutput::new(
                c.to_string(),
                vec![
                    ("cleanupspec_overhead", cleanupspec),
                    ("delay_on_miss_overhead", delay_on_miss),
                    ("invisispec_overhead", invisispec),
                ],
            )
        }));
        r.register(FnExperiment::new("workloads", &["default"], |ctx| {
            let p = workload_profile::run(ctx.scale.workload_warmup, ctx.scale.workload_measure);
            TrialOutput::new(p.to_string(), vec![])
        }));
        r.register(FnExperiment::new("table1", &["default"], |_ctx| {
            TrialOutput::new(table1::run().to_string(), vec![])
        }));
        let chaos_variants = chaos::ChaosMode::variant_names();
        r.register(FnExperiment::new("chaos", &chaos_variants, |ctx| {
            let mode = chaos::ChaosMode::from_variant(&ctx.variant)
                .expect("registry only enumerates listed chaos variants");
            let report = chaos::run(mode, 100, ctx.seed);
            TrialOutput::new(
                report.to_string(),
                vec![
                    ("faults_injected", report.faults_total() as f64),
                    ("typed_violations", report.violations() as f64),
                    ("clean_runs", report.clean_runs() as f64),
                    ("sanitizer_checks", report.checks_total() as f64),
                ],
            )
            .with_truncated(report.any_truncated())
            .with_diagnostics(report.diagnostics)
        }));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::TrialCtx;
    use unxpec::experiments::Scale;

    #[test]
    fn builtin_names_are_unique_and_variants_nonempty() {
        let r = Registry::builtin();
        let names = r.names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names");
        for (name, variants) in r.listing() {
            assert!(!variants.is_empty(), "{name} has no variants");
        }
    }

    #[test]
    fn builtin_covers_the_paper_grid() {
        let r = Registry::builtin();
        for name in [
            "rollback",
            "pdf",
            "leakage",
            "rate",
            "timeline",
            "ablations",
        ] {
            assert!(r.get(name).is_some(), "missing {name}");
        }
        assert_eq!(
            r.get("rollback").unwrap().variants(),
            vec!["no-es".to_string(), "es".to_string()]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate experiment")]
    fn duplicate_registration_panics() {
        let mut r = Registry::new();
        let mk = || {
            FnExperiment::new("x", &["default"], |_| {
                TrialOutput::new(String::new(), vec![])
            })
        };
        r.register(mk());
        r.register(mk());
    }

    #[test]
    fn a_cheap_trial_runs_end_to_end() {
        let r = Registry::builtin();
        let out = r.get("timeline").unwrap().run(&TrialCtx {
            seed: 0x5eed,
            scale: Scale::quick(),
            variant: "no-es".into(),
        });
        assert!(!out.rendered.is_empty());
        assert_eq!(out.metrics.len(), 2);
    }
}
