//! The checkpoint/resume manifest: a [`durable`] log of every trial a
//! sweep has finished (or poisoned, timed out, quarantined), keyed by
//! trial identity.
//!
//! The log opens with a header record (spec digest, root seed); every
//! other line is one [`ManifestRecord`] carrying its own checksum. The
//! sweep runner appends one line per finished trial and ends with one
//! atomic compaction ([`Manifest::save`]). Loading folds the log:
//! when a key appears more than once, the last record for it wins, and
//! a line whose checksum fails is dropped with a warning — never
//! resumed.
//!
//! On resume, trials whose key is `completed` are spliced back into the
//! report from their recorded rendered output and metrics — byte for
//! byte what the original run produced, because trial seeds are
//! identity-derived. A manifest is only valid for the spec that
//! produced it: [`Manifest::spec_digest`] must match
//! [`SweepSpec::digest`](crate::SweepSpec::digest). Pre-log manifests
//! (format versions 1 and 2, one whole JSON document) are refused with
//! an error that says to delete them.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::path::Path;

use unxpec::experiments::seeding::Fnv64;
use unxpec_telemetry::json::{escape, Value};

use crate::durable::{self, field, hex, parse_hex, Record};
use crate::experiment::TrialOutput;

/// A finished trial's record.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTrial {
    /// Trial identity (`experiment/variant/s<seed_index>`).
    pub key: String,
    /// [`output_digest`](crate::output_digest) of the output.
    pub digest: u64,
    /// Attempts the trial needed.
    pub attempts: u32,
    /// The recorded output (rendered text + metrics + truncation flag).
    pub output: TrialOutput,
}

/// A trial that failed in one run: it exhausted its retry budget
/// ([`PoisonedTrial`]) or blew the per-trial wall-clock deadline
/// ([`TimedOutTrial`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FailedTrial {
    /// Trial identity.
    pub key: String,
    /// The final panic message, or what the deadline check observed.
    pub error: String,
    /// Attempts made.
    pub attempts: u32,
    /// Runs (including resumed ones) in which this key has failed.
    pub failures: u32,
}

/// A trial that exhausted its retry budget.
pub type PoisonedTrial = FailedTrial;

/// A trial that blew the per-trial wall-clock deadline.
pub type TimedOutTrial = FailedTrial;

/// A trial cell failed often enough that resumed runs skip it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedTrial {
    /// Trial identity.
    pub key: String,
    /// The most recent failure's message.
    pub error: String,
    /// Failing runs accumulated before quarantine.
    pub failures: u32,
}

/// One line of the manifest log.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestRecord {
    /// The log's first line: which spec the log belongs to.
    Header {
        /// Digest of the owning spec's canonical string.
        spec_digest: u64,
        /// The spec's root seed.
        root_seed: u64,
    },
    /// A trial completed.
    Completed(CompletedTrial),
    /// A trial exhausted its retries.
    Poisoned(PoisonedTrial),
    /// A trial blew its deadline.
    TimedOut(TimedOutTrial),
    /// A trial cell is quarantined.
    Quarantined(QuarantinedTrial),
}

impl ManifestRecord {
    fn type_tag(&self) -> &'static str {
        match self {
            ManifestRecord::Header { .. } => "header",
            ManifestRecord::Completed(_) => "completed",
            ManifestRecord::Poisoned(_) => "poisoned",
            ManifestRecord::TimedOut(_) => "timed_out",
            ManifestRecord::Quarantined(_) => "quarantined",
        }
    }

    /// The trial key the record is about; `None` for the header.
    fn key(&self) -> Option<&str> {
        match self {
            ManifestRecord::Header { .. } => None,
            ManifestRecord::Completed(t) => Some(&t.key),
            ManifestRecord::Poisoned(t) | ManifestRecord::TimedOut(t) => Some(&t.key),
            ManifestRecord::Quarantined(t) => Some(&t.key),
        }
    }
}

impl Record for ManifestRecord {
    /// Versions 1 and 2 were whole-document formats.
    const VERSION: u64 = 3;

    fn checksum(&self) -> u64 {
        let mut h = Fnv64::new();
        h.mix(Self::VERSION).mix_str(self.type_tag());
        match self {
            ManifestRecord::Header {
                spec_digest,
                root_seed,
            } => {
                h.mix(*spec_digest).mix(*root_seed);
            }
            ManifestRecord::Completed(t) => {
                h.mix_str(&t.key).mix(t.digest).mix(u64::from(t.attempts));
                durable::mix_output(&mut h, &t.output);
            }
            ManifestRecord::Poisoned(t) | ManifestRecord::TimedOut(t) => {
                h.mix_str(&t.key)
                    .mix_str(&t.error)
                    .mix(u64::from(t.attempts))
                    .mix(u64::from(t.failures));
            }
            ManifestRecord::Quarantined(t) => {
                h.mix_str(&t.key)
                    .mix_str(&t.error)
                    .mix(u64::from(t.failures));
            }
        }
        h.finish()
    }

    fn render_members(&self, out: &mut String) -> fmt::Result {
        write!(out, "\"type\": \"{}\", ", self.type_tag())?;
        match self {
            ManifestRecord::Header {
                spec_digest,
                root_seed,
            } => write!(
                out,
                "\"spec_digest\": \"{}\", \"root_seed\": \"{}\"",
                hex(*spec_digest),
                hex(*root_seed)
            ),
            ManifestRecord::Completed(t) => {
                write!(
                    out,
                    "\"key\": \"{}\", \"digest\": \"{}\", \"attempts\": {}, ",
                    escape(&t.key),
                    hex(t.digest),
                    t.attempts
                )?;
                durable::render_output(&t.output, out)
            }
            ManifestRecord::Poisoned(t) | ManifestRecord::TimedOut(t) => write!(
                out,
                "\"key\": \"{}\", \"error\": \"{}\", \"attempts\": {}, \"failures\": {}",
                escape(&t.key),
                escape(&t.error),
                t.attempts,
                t.failures
            ),
            ManifestRecord::Quarantined(t) => write!(
                out,
                "\"key\": \"{}\", \"error\": \"{}\", \"failures\": {}",
                escape(&t.key),
                escape(&t.error),
                t.failures
            ),
        }
    }

    fn from_doc(doc: &Value) -> Result<Self, String> {
        let text = |name| field(doc, name, Value::as_str).map(str::to_string);
        let count = |name| field(doc, name, |v| u32::try_from(v.as_u64()?).ok());
        let word = |name| field(doc, name, parse_hex);
        Ok(match text("type")?.as_str() {
            "header" => ManifestRecord::Header {
                spec_digest: word("spec_digest")?,
                root_seed: word("root_seed")?,
            },
            "completed" => ManifestRecord::Completed(CompletedTrial {
                key: text("key")?,
                digest: word("digest")?,
                attempts: count("attempts")?,
                output: durable::parse_output(doc)?,
            }),
            tag @ ("poisoned" | "timed_out") => {
                let t = FailedTrial {
                    key: text("key")?,
                    error: text("error")?,
                    attempts: count("attempts")?,
                    failures: count("failures")?,
                };
                match tag {
                    "poisoned" => ManifestRecord::Poisoned(t),
                    _ => ManifestRecord::TimedOut(t),
                }
            }
            "quarantined" => ManifestRecord::Quarantined(QuarantinedTrial {
                key: text("key")?,
                error: text("error")?,
                failures: count("failures")?,
            }),
            other => return Err(format!("unknown record type {other:?}")),
        })
    }
}

/// The checkpoint state of one sweep: the folded manifest log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Digest of the owning spec's canonical string.
    pub spec_digest: u64,
    /// The spec's root seed (informational; identity lives in the
    /// digest).
    pub root_seed: u64,
    /// Completed trials.
    pub completed: Vec<CompletedTrial>,
    /// Poisoned trials.
    pub poisoned: Vec<PoisonedTrial>,
    /// Deadline-exceeded trials.
    pub timed_out: Vec<TimedOutTrial>,
    /// Quarantined trial cells (skipped on resume).
    pub quarantined: Vec<QuarantinedTrial>,
}

impl Manifest {
    /// An empty manifest for `spec_digest`/`root_seed`.
    pub fn new(spec_digest: u64, root_seed: u64) -> Self {
        Manifest {
            spec_digest,
            root_seed,
            ..Manifest::default()
        }
    }

    /// The compacted log: the header, then one line per key.
    pub fn to_log(&self) -> String {
        let header = ManifestRecord::Header {
            spec_digest: self.spec_digest,
            root_seed: self.root_seed,
        };
        std::iter::once(header)
            .chain(
                self.completed
                    .iter()
                    .cloned()
                    .map(ManifestRecord::Completed),
            )
            .chain(self.poisoned.iter().cloned().map(ManifestRecord::Poisoned))
            .chain(self.timed_out.iter().cloned().map(ManifestRecord::TimedOut))
            .chain(
                self.quarantined
                    .iter()
                    .cloned()
                    .map(ManifestRecord::Quarantined),
            )
            .map(|r| durable::render(&r))
            .collect()
    }

    /// Folds a manifest log leniently. Every line that validates is
    /// kept — the last record for a key wins, in the position where
    /// the key first appeared — and the rest are counted as dropped.
    /// A log without a valid header is an error, and so is a pre-log
    /// (version 1 or 2) document.
    pub fn salvage(text: &str) -> Result<(Self, u64), String> {
        let salvaged = durable::salvage::<ManifestRecord>(text);
        let mut header = None;
        let mut latest: Vec<ManifestRecord> = Vec::new();
        let mut slot: HashMap<String, usize> = HashMap::new();
        for record in salvaged.records {
            let Some(key) = record.key() else {
                header = Some(record);
                continue;
            };
            match slot.get(key) {
                Some(&i) => latest[i] = record,
                None => {
                    slot.insert(key.to_string(), latest.len());
                    latest.push(record);
                }
            }
        }
        let Some(ManifestRecord::Header {
            spec_digest,
            root_seed,
        }) = header
        else {
            // Pre-log manifests carry a top-level `"version"` member on
            // their first or second line; log records carry `"v"`.
            let reason = if text.lines().take(2).any(|l| l.contains("\"version\"")) {
                "pre-log manifest (format version 1 or 2), which this build no longer reads"
            } else {
                "no valid header record"
            };
            return Err(format!("{reason}; delete it to start a fresh checkpoint"));
        };
        let mut manifest = Manifest::new(spec_digest, root_seed);
        for record in latest {
            match record {
                ManifestRecord::Header { .. } => {}
                ManifestRecord::Completed(t) => manifest.completed.push(t),
                ManifestRecord::Poisoned(t) => manifest.poisoned.push(t),
                ManifestRecord::TimedOut(t) => manifest.timed_out.push(t),
                ManifestRecord::Quarantined(t) => manifest.quarantined.push(t),
            }
        }
        Ok((manifest, salvaged.dropped))
    }

    /// Loads a manifest leniently: returns it with a warning when
    /// damaged lines were dropped. Only an unreadable file, a missing
    /// header or a pre-log document is an error.
    pub fn load_lenient(path: &Path) -> Result<(Self, Option<String>), String> {
        let text = durable::read(path)?;
        let (manifest, dropped) =
            Manifest::salvage(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let recovered = manifest.completed.len()
            + manifest.poisoned.len()
            + manifest.timed_out.len()
            + manifest.quarantined.len();
        let warning = (dropped > 0).then(|| {
            format!(
                "manifest {} was damaged; recovered {recovered} record(s), \
                 dropped {dropped} damaged line(s)",
                path.display()
            )
        });
        Ok((manifest, warning))
    }

    /// Loads a manifest strictly: any damaged line is an error.
    pub fn load(path: &Path) -> Result<Self, String> {
        match Manifest::load_lenient(path)? {
            (manifest, None) => Ok(manifest),
            (_, Some(warning)) => Err(warning),
        }
    }

    /// Compacts the manifest to `path` atomically.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        durable::replace(path, &self.to_log())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::Log;

    fn sample() -> Manifest {
        let mut output = TrialOutput::new("line1\nline2 \"quoted\"".to_string(), vec![]);
        output.metrics = vec![("diff".into(), 22.5), ("neg".into(), -0.125)];
        Manifest {
            spec_digest: 0xdead_beef_0bad_cafe,
            root_seed: u64::MAX,
            completed: vec![CompletedTrial {
                key: "rollback/es/s0".into(),
                digest: u64::MAX,
                attempts: 2,
                output,
            }],
            poisoned: vec![PoisonedTrial {
                key: "pdf/no-es/s1".into(),
                error: "index out of bounds: the len is 0".into(),
                attempts: 3,
                failures: 2,
            }],
            timed_out: vec![TimedOutTrial {
                key: "leakage/es/s0".into(),
                error: "deadline exceeded: ran 9.1 s against a budget of 2.0 s".into(),
                attempts: 1,
                failures: 1,
            }],
            quarantined: vec![QuarantinedTrial {
                key: "rate/default/s2".into(),
                error: "trial exploded".into(),
                failures: 3,
            }],
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("unxpec-manifest-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir.join("manifest.json")
    }

    #[test]
    fn the_log_round_trips_exactly_and_full_range_digests_survive() {
        let mut m = sample();
        m.completed[0].output.truncated = true;
        let text = m.to_log();
        assert_eq!(text.lines().count(), 5, "header plus one line per key");
        assert!(text.contains("\"truncated\": true"));
        for line in text.lines() {
            unxpec_telemetry::json::validate(line).expect("each line is JSON");
            assert!(line.ends_with("\"}"), "checksum is the last member: {line}");
        }
        assert_eq!(Manifest::salvage(&text), Ok((m, 0)));
    }

    #[test]
    fn save_and_load_round_trip() {
        let path = temp_path("save");
        let m = sample();
        m.save(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);
        assert_eq!(Manifest::load_lenient(&path).unwrap(), (m, None));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn the_last_record_for_a_key_wins() {
        let path = temp_path("last-wins");
        let m = sample();
        m.save(&path).unwrap();
        let mut log = Log::append_to(&path).unwrap();
        let mut again = m.poisoned[0].clone();
        again.failures = 5;
        log.append(&ManifestRecord::Poisoned(again.clone()))
            .unwrap();
        let done = CompletedTrial {
            key: "leakage/es/s0".into(),
            digest: 7,
            attempts: 1,
            output: TrialOutput::new("ok".into(), vec![("m", 1.0)]),
        };
        log.append(&ManifestRecord::Completed(done.clone()))
            .unwrap();
        let loaded = Manifest::load(&path).unwrap();
        assert_eq!(loaded.poisoned, vec![again], "later failure count wins");
        assert_eq!(loaded.completed, vec![m.completed[0].clone(), done]);
        assert!(
            loaded.timed_out.is_empty(),
            "completion supersedes the timeout"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_changed_field_drops_only_its_own_line() {
        let text = sample().to_log();
        let tampered = text.replacen("\"attempts\": 2", "\"attempts\": 9", 1);
        assert_ne!(text, tampered, "tamper target must exist");
        let (m, dropped) = Manifest::salvage(&tampered).unwrap();
        assert_eq!(dropped, 1);
        assert!(m.completed.is_empty(), "the tampered record is not resumed");
        assert_eq!(m.poisoned, sample().poisoned);
    }

    #[test]
    fn a_torn_tail_warns_and_keeps_the_intact_records() {
        let path = temp_path("torn");
        let text = sample().to_log();
        let cut = text.find("timed_out").unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text[..cut]).unwrap();
        let (m, warning) = Manifest::load_lenient(&path).unwrap();
        let warning = warning.expect("recovery must warn");
        assert!(warning.contains("recovered 2 record(s)"), "{warning}");
        assert_eq!(m.completed, sample().completed);
        assert_eq!(m.poisoned, sample().poisoned);
        assert!(Manifest::load(&path).is_err(), "strict load refuses damage");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn pre_log_manifests_are_refused_with_a_delete_hint() {
        for legacy in [
            "{\n  \"version\": 2,\n  \"checksum\": \"0x1\",\n  \"spec_digest\": \"0xabc\",\n",
            "{\"version\": 1, \"spec_digest\": \"0xabc\", \"root_seed\": 7, \"completed\": []}",
        ] {
            let err = Manifest::salvage(legacy).unwrap_err();
            assert!(err.contains("pre-log") && err.contains("delete"), "{err}");
        }
    }

    #[test]
    fn garbage_without_a_header_is_an_error() {
        let err = Manifest::salvage("\x00\x01 nothing json-like here").unwrap_err();
        assert!(err.contains("no valid header"), "{err}");
        assert!(Manifest::salvage("").is_err());
    }
}
