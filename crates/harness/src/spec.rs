//! Declarative sweep specifications and their trial enumeration.
//!
//! A [`SweepSpec`] names the axes of a sweep — experiments, variants,
//! scale, and a seed count under a root seed — and
//! [`SweepSpec::enumerate`] expands it into the flat trial list the
//! pool shards. Trial seeds come from
//! [`unxpec::experiments::seeding::indexed`] keyed on the trial's
//! *identity string*, so the seed of any trial is a pure function of
//! the spec, independent of worker count and execution order.

use unxpec::experiments::seeding::{self, fnv1a64};
use unxpec::experiments::{Scale, ScaleError};

use crate::registry::Registry;

/// A declarative sweep: which experiments, which variants, at what
/// scale, over how many seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Experiment names, in aggregate/report order. Empty means every
    /// registry experiment.
    pub experiments: Vec<String>,
    /// Variant filter; `None` runs every variant an experiment offers.
    pub variants: Option<Vec<String>>,
    /// Scale label the spec text names (`"quick"` or `"paper"`).
    pub scale_name: String,
    /// The sample counts trials run at.
    pub scale: Scale,
    /// Seed-axis repetitions per (experiment, variant) cell.
    pub seeds: u64,
    /// Root seed every trial seed derives from.
    pub root_seed: u64,
}

/// One enumerated trial of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Position in enumeration order (the aggregation key).
    pub index: usize,
    /// Experiment name.
    pub experiment: String,
    /// Variant name.
    pub variant: String,
    /// Position on the seed axis.
    pub seed_index: u64,
    /// The derived deterministic seed.
    pub seed: u64,
    /// Stable identity: `experiment/variant/s<seed_index>`.
    pub key: String,
}

/// Why a spec failed to enumerate.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The scale failed validation.
    Scale(ScaleError),
    /// `experiments` named something the registry doesn't have.
    UnknownExperiment(String),
    /// The variant filter matched nothing for an experiment.
    NoVariants(String),
    /// `seeds` was zero.
    NoSeeds,
    /// A spec file line didn't parse.
    Parse(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Scale(e) => write!(f, "{e}"),
            SpecError::UnknownExperiment(name) => {
                write!(f, "unknown experiment {name:?} (see `sweep --list`)")
            }
            SpecError::NoVariants(name) => write!(
                f,
                "variant filter matches no variant of experiment {name:?}"
            ),
            SpecError::NoSeeds => write!(f, "seeds must be >= 1"),
            SpecError::Parse(line) => write!(f, "unparseable spec line {line:?}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl SweepSpec {
    /// A quick-scale spec over every registry experiment, 2 seeds.
    pub fn quick() -> Self {
        SweepSpec {
            experiments: Vec::new(),
            variants: None,
            scale_name: "quick".to_string(),
            scale: Scale::quick(),
            seeds: 2,
            root_seed: seeding::DEFAULT_ROOT_SEED,
        }
    }

    /// A paper-scale spec over every registry experiment, 5 seeds.
    pub fn paper() -> Self {
        SweepSpec {
            scale_name: "paper".to_string(),
            scale: Scale::paper(),
            seeds: 5,
            ..SweepSpec::quick()
        }
    }

    /// The canonical identity string the spec digest covers: exactly the
    /// inputs that determine what any single trial key computes — the
    /// scale's five sample counts and the root seed. Selection axes
    /// (experiments, variants, seed count) are *not* identity: trial
    /// keys are self-identifying, so a resumed run may grow or shrink
    /// the grid and still reuse every recorded trial. Execution
    /// options (jobs, retries, output paths) are not identity either.
    pub fn canonical_string(&self) -> String {
        format!(
            "scale={},{},{},{},{};root-seed={:#x}",
            self.scale.timing_samples,
            self.scale.pdf_samples,
            self.scale.leak_bits,
            self.scale.workload_warmup,
            self.scale.workload_measure,
            self.root_seed
        )
    }

    /// FNV-1a digest of [`SweepSpec::canonical_string`].
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.canonical_string())
    }

    /// Expands the spec into trials in deterministic enumeration
    /// order: experiments (spec order), then variants (registry
    /// order), then seed indices.
    pub fn enumerate(&self, registry: &Registry) -> Result<Vec<Trial>, SpecError> {
        self.scale.validate().map_err(SpecError::Scale)?;
        if self.seeds == 0 {
            return Err(SpecError::NoSeeds);
        }
        let names: Vec<String> = if self.experiments.is_empty() {
            registry.names().iter().map(|s| s.to_string()).collect()
        } else {
            self.experiments.clone()
        };
        let mut trials = Vec::new();
        for name in &names {
            let exp = registry
                .get(name)
                .ok_or_else(|| SpecError::UnknownExperiment(name.clone()))?;
            let variants: Vec<String> = exp
                .variants()
                .into_iter()
                .filter(|v| self.variants.as_ref().is_none_or(|f| f.contains(v)))
                .collect();
            if variants.is_empty() {
                return Err(SpecError::NoVariants(name.clone()));
            }
            for variant in &variants {
                let stream_label = format!("{name}/{variant}");
                for seed_index in 0..self.seeds {
                    trials.push(Trial {
                        index: trials.len(),
                        experiment: name.clone(),
                        variant: variant.clone(),
                        seed_index,
                        seed: seeding::indexed(self.root_seed, &stream_label, seed_index),
                        key: format!("{stream_label}/s{seed_index}"),
                    });
                }
            }
        }
        Ok(trials)
    }

    /// The spec as the `key=value` text [`SweepSpec::parse`] reads:
    /// what the sweep submits to the service and the service journals.
    /// A spec the text cannot carry (a hand-built scale, a name with a
    /// comma or a line break in it) is a [`SpecError::Parse`] naming
    /// the text, never a silently different spec.
    pub fn render(&self) -> Result<String, SpecError> {
        let mut text = String::new();
        if !self.experiments.is_empty() {
            text.push_str(&format!("experiments={}\n", self.experiments.join(",")));
        }
        if let Some(variants) = &self.variants {
            text.push_str(&format!("variants={}\n", variants.join(",")));
        }
        text.push_str(&format!(
            "scale={}\nseeds={}\nroot-seed={:#x}\n",
            self.scale_name, self.seeds, self.root_seed
        ));
        match SweepSpec::parse(&text) {
            Ok(parsed) if parsed == *self => Ok(text),
            _ => Err(SpecError::Parse(text)),
        }
    }

    /// Parses a spec file: one `key=value` per line, `#` comments.
    /// Keys: `experiments` (comma list), `variants` (comma list),
    /// `scale` (`quick` or `paper`), `seeds`, `root-seed`
    /// (decimal or `0x` hex). Unknown keys are errors.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut spec = SweepSpec::quick();
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| SpecError::Parse(line.to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "experiments" => {
                    spec.experiments = value.split(',').map(|s| s.trim().to_string()).collect();
                }
                "variants" => {
                    spec.variants = Some(value.split(',').map(|s| s.trim().to_string()).collect());
                }
                "scale" => match value {
                    "quick" => {
                        spec.scale = Scale::quick();
                        spec.scale_name = "quick".to_string();
                    }
                    "paper" => {
                        spec.scale = Scale::paper();
                        spec.scale_name = "paper".to_string();
                    }
                    _ => return Err(SpecError::Parse(line.to_string())),
                },
                "seeds" => {
                    spec.seeds = value
                        .parse()
                        .map_err(|_| SpecError::Parse(line.to_string()))?;
                }
                "root-seed" => {
                    spec.root_seed =
                        parse_seed(value).ok_or_else(|| SpecError::Parse(line.to_string()))?;
                }
                _ => return Err(SpecError::Parse(line.to_string())),
            }
        }
        Ok(spec)
    }
}

/// Parses a seed in decimal or `0x` hex.
pub fn parse_seed(value: &str) -> Option<u64> {
    if let Some(hex) = value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        value.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{FnExperiment, TrialOutput};

    fn tiny_registry() -> Registry {
        let mut r = Registry::new();
        r.register(FnExperiment::new("a", &["x", "y"], |_| {
            TrialOutput::new(String::new(), vec![])
        }));
        r.register(FnExperiment::new("b", &["default"], |_| {
            TrialOutput::new(String::new(), vec![])
        }));
        r
    }

    #[test]
    fn enumeration_is_deterministic_and_ordered() {
        let mut spec = SweepSpec::quick();
        spec.seeds = 3;
        let trials = spec.enumerate(&tiny_registry()).unwrap();
        assert_eq!(trials.len(), 2 * 3 + 3);
        assert_eq!(trials[0].key, "a/x/s0");
        assert_eq!(trials[3].key, "a/y/s0");
        assert_eq!(trials[6].key, "b/default/s0");
        // Seeds depend only on identity, not on position in the list.
        assert_eq!(trials[4].seed, seeding::indexed(spec.root_seed, "a/y", 1));
        let again = spec.enumerate(&tiny_registry()).unwrap();
        assert_eq!(trials, again);
    }

    #[test]
    fn variant_filter_applies_and_rejects_empty() {
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["a".into()];
        spec.variants = Some(vec!["y".into()]);
        let trials = spec.enumerate(&tiny_registry()).unwrap();
        assert!(trials.iter().all(|t| t.variant == "y"));
        spec.variants = Some(vec!["zzz".into()]);
        assert_eq!(
            spec.enumerate(&tiny_registry()),
            Err(SpecError::NoVariants("a".into()))
        );
    }

    #[test]
    fn unknown_experiment_and_zero_seeds_error() {
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["nope".into()];
        assert_eq!(
            spec.enumerate(&tiny_registry()),
            Err(SpecError::UnknownExperiment("nope".into()))
        );
        let mut spec = SweepSpec::quick();
        spec.seeds = 0;
        assert_eq!(spec.enumerate(&tiny_registry()), Err(SpecError::NoSeeds));
    }

    #[test]
    fn digest_tracks_identity_fields_only() {
        let a = SweepSpec::quick();
        let mut b = SweepSpec::quick();
        // Selection axes are not identity: growing the grid keeps the
        // spec digest.
        b.seeds += 10;
        b.experiments = vec!["rollback".into()];
        b.variants = Some(vec!["es".into()]);
        assert_eq!(a.digest(), b.digest());
        b.root_seed ^= 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = SweepSpec::quick();
        c.scale.pdf_samples += 1;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn canonical_string_is_pinned() {
        // Every submission digest the journal re-attaches by covers this
        // string; it must not grow a field without invalidating them on
        // purpose.
        assert_eq!(
            SweepSpec::quick().canonical_string(),
            "scale=10,60,60,5000,15000;root-seed=0x5eed"
        );
    }

    #[test]
    fn parse_rejects_the_mode_key() {
        // Every trial runs on the detailed core; a spec cannot pick
        // another execution mode.
        for text in [
            "mode=fast-forward",
            "mode = detailed",
            "seeds=2\nmode=fast-forward\n",
        ] {
            let line = text.lines().last().unwrap().trim().to_string();
            assert_eq!(SweepSpec::parse(text), Err(SpecError::Parse(line)));
        }
    }

    #[test]
    fn parse_round_trips_the_identity() {
        let text = "# sweep\nexperiments = rollback, pdf\nvariants=es\nscale=paper\nseeds=4\nroot-seed=0x5eed\n";
        let spec = SweepSpec::parse(text).unwrap();
        assert_eq!(spec.experiments, vec!["rollback", "pdf"]);
        assert_eq!(spec.variants, Some(vec!["es".to_string()]));
        assert_eq!(spec.scale_name, "paper");
        assert_eq!(spec.seeds, 4);
        assert_eq!(spec.root_seed, 0x5eed);
        assert!(SweepSpec::parse("bogus line").is_err());
        assert!(SweepSpec::parse("scale=huge").is_err());
    }

    #[test]
    fn rendered_text_round_trips_through_parse() {
        let mut quick = SweepSpec::quick();
        quick.experiments = vec!["rollback".into(), "pdf".into()];
        let mut paper = SweepSpec::paper();
        paper.variants = Some(vec!["es".into(), "plain".into()]);
        paper.root_seed = 0xdead_beef_0123_4567;
        paper.seeds = 9;
        for spec in [SweepSpec::quick(), quick, paper] {
            let text = spec.render().unwrap();
            assert_eq!(SweepSpec::parse(&text), Ok(spec), "{text}");
        }
        // A scale the text cannot name is refused, not rewritten.
        let mut custom = SweepSpec::quick();
        custom.scale.pdf_samples += 1;
        assert!(matches!(custom.render(), Err(SpecError::Parse(_))));
        let mut comma = SweepSpec::quick();
        comma.experiments = vec!["a,b".into()];
        assert!(comma.render().is_err());
    }
}
