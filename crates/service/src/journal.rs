//! The durable write-ahead job journal.
//!
//! Every state transition the scheduler must not forget — an accepted
//! submission, a per-cell completion, a cancellation — is appended to
//! one journal file as a self-delimiting, FNV-checksummed JSON line
//! *before* the transition is acknowledged to the client. On restart
//! the server replays the journal: jobs come back under their original
//! ids, completed cells resolve through the content-addressed result
//! cache (zero re-simulation), and only genuinely unfinished cells are
//! re-enqueued. A `kill -9` mid-sweep therefore costs nothing but the
//! cells that were actually in flight.
//!
//! The line format, salvage, append + flush and atomic compaction
//! come from [`unxpec_harness::durable`] (see `docs/harness.md`,
//! "Durable files"): an acknowledged record survives `kill -9`, a torn
//! or flipped line costs only itself (counted into
//! [`JournalRecovery::dropped`]), and [`Journal::open`] rewrites the
//! salvaged records atomically so corruption never accumulates.
//!
//! What is deliberately *not* journaled: trial outputs (they live in
//! the result cache under the cell digest — the journal only records
//! *that* a cell finished), and failed slots (a poisoned or timed-out
//! slot still runs again after a restart). A cell's consecutive-failure
//! count persists instead beside its cache entry
//! ([`CellFailures`](crate::CellFailures)), so quarantine survives the
//! restart while the journal's record set stays `submit`/`done`/
//! `cancel`. A sweep's `--state-dir` is this journal plus that cache.

use std::fmt::{self, Write as _};
use std::path::Path;

use unxpec::experiments::seeding::Fnv64;
use unxpec_harness::durable::{self, field, hex, parse_hex, Log, Record, Salvage};
use unxpec_telemetry::json::{escape, Value};

use crate::error::ServiceError;

/// Record-format version; bump on any layout change so old journals
/// read as corrupt records instead of mis-parsing.
pub const JOURNAL_VERSION: u64 = 1;

/// One durable scheduler transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A submission was accepted: job `job` (numeric part of `"j<n>"`)
    /// for `tenant`, with the spec exactly as the client sent it.
    Submit {
        /// Numeric job id (the `n` of `"j<n>"`).
        job: u64,
        /// Owning tenant.
        tenant: String,
        /// The submitted spec text, verbatim.
        spec_text: String,
    },
    /// Slot `slot` of job `job` completed with a result stored in the
    /// cache under `cell`.
    CellDone {
        /// Numeric job id.
        job: u64,
        /// Slot index within the job's enumeration order.
        slot: u64,
        /// The cell digest the output is cached under.
        cell: u64,
    },
    /// Job `job` was cancelled (pending slots skipped).
    Cancel {
        /// Numeric job id.
        job: u64,
    },
}

impl JournalRecord {
    fn type_tag(&self) -> &'static str {
        match self {
            JournalRecord::Submit { .. } => "submit",
            JournalRecord::CellDone { .. } => "done",
            JournalRecord::Cancel { .. } => "cancel",
        }
    }

    /// Renders the record as its one-line JSON form (with trailing
    /// newline).
    pub fn render(&self) -> String {
        durable::render(self)
    }

    /// Parses and fully validates one journal line.
    pub fn parse(line: &str) -> Result<JournalRecord, String> {
        durable::parse(line)
    }
}

impl Record for JournalRecord {
    const VERSION: u64 = JOURNAL_VERSION;

    fn checksum(&self) -> u64 {
        let mut h = Fnv64::new();
        h.mix(JOURNAL_VERSION).mix_str(self.type_tag());
        match self {
            JournalRecord::Submit {
                job,
                tenant,
                spec_text,
            } => h.mix(*job).mix_str(tenant).mix_str(spec_text),
            JournalRecord::CellDone { job, slot, cell } => h.mix(*job).mix(*slot).mix(*cell),
            JournalRecord::Cancel { job } => h.mix(*job),
        };
        h.finish()
    }

    fn render_members(&self, out: &mut String) -> fmt::Result {
        write!(out, "\"type\": \"{}\", ", self.type_tag())?;
        match self {
            JournalRecord::Submit {
                job,
                tenant,
                spec_text,
            } => write!(
                out,
                "\"job\": {job}, \"tenant\": \"{}\", \"spec\": \"{}\"",
                escape(tenant),
                escape(spec_text)
            ),
            JournalRecord::CellDone { job, slot, cell } => write!(
                out,
                "\"job\": {job}, \"slot\": {slot}, \"cell\": \"{}\"",
                hex(*cell)
            ),
            JournalRecord::Cancel { job } => write!(out, "\"job\": {job}"),
        }
    }

    fn from_doc(doc: &Value) -> Result<Self, String> {
        let text = |name| field(doc, name, Value::as_str).map(str::to_string);
        let number = |name| field(doc, name, Value::as_u64);
        Ok(match text("type")?.as_str() {
            "submit" => JournalRecord::Submit {
                job: number("job")?,
                tenant: text("tenant")?,
                spec_text: text("spec")?,
            },
            "done" => JournalRecord::CellDone {
                job: number("job")?,
                slot: number("slot")?,
                cell: field(doc, "cell", parse_hex)?,
            },
            "cancel" => JournalRecord::Cancel {
                job: number("job")?,
            },
            other => return Err(format!("unknown record type {other:?}")),
        })
    }
}

/// What loading an existing journal recovered: the records that
/// parsed and validated, in file order, and the count of dropped lines
/// (torn tail, flipped bits, old versions).
pub type JournalRecovery = Salvage<JournalRecord>;

/// The append handle over one journal file.
#[derive(Debug)]
pub struct Journal(Log);

impl Journal {
    /// Loads (leniently) whatever journal exists at `path`, compacts
    /// the salvaged records back atomically, and opens the file for
    /// appending. Returns the handle plus the recovery summary the
    /// server replays from.
    pub fn open(path: &Path) -> Result<(Journal, JournalRecovery), ServiceError> {
        let (log, recovery) = Log::open(path).map_err(ServiceError::Journal)?;
        Ok((Journal(log), recovery))
    }

    /// Lenient line-by-line recovery: keep every line that parses and
    /// validates, count the rest. Never an error, never a panic.
    pub fn salvage(text: &str) -> JournalRecovery {
        durable::salvage(text)
    }

    /// Appends one record and flushes it to the OS. After this returns,
    /// a killed process cannot lose the record.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), ServiceError> {
        self.0.append(record).map_err(ServiceError::Journal)
    }

    /// Appends `records` in order with one write and flushes them: the
    /// same bytes as one [`Journal::append`] per record.
    pub fn append_all(&mut self, records: &[JournalRecord]) -> Result<(), ServiceError> {
        self.0.append_all(records).map_err(ServiceError::Journal)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("unxpec-journal-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join("journal.log")
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submit {
                job: 1,
                tenant: "alice".into(),
                spec_text: "experiments = count\nseeds = 2\n".into(),
            },
            JournalRecord::CellDone {
                job: 1,
                slot: 0,
                cell: 0xdead_beef_cafe_f00d,
            },
            JournalRecord::Cancel { job: 1 },
        ]
    }

    #[test]
    fn records_round_trip_through_their_line_form() {
        for record in sample_records() {
            let line = record.render();
            assert!(line.ends_with('\n'), "self-delimiting");
            assert_eq!(line.matches('\n').count(), 1, "exactly one line");
            assert_eq!(
                JournalRecord::parse(line.trim_end()).expect("parse"),
                record
            );
        }
    }

    /// The v1 line bytes are pinned: journals written before the
    /// shared durable format must reopen with nothing dropped.
    #[test]
    fn v1_line_bytes_are_unchanged() {
        let pinned = [
            (
                JournalRecord::Submit {
                    job: 1,
                    tenant: "alice \"q\"".into(),
                    spec_text: "experiments = timeline\nseeds = 2\n".into(),
                },
                r#"{"v": 1, "type": "submit", "job": 1, "tenant": "alice \"q\"", "spec": "experiments = timeline\nseeds = 2\n", "checksum": "0xa8fdc7ffd48afdf4"}"#,
            ),
            (
                JournalRecord::CellDone {
                    job: 1,
                    slot: 0,
                    cell: 0x6104_1e1f_3bbe_4317,
                },
                r#"{"v": 1, "type": "done", "job": 1, "slot": 0, "cell": "0x61041e1f3bbe4317", "checksum": "0x2631f9a070b95fb3"}"#,
            ),
            (
                JournalRecord::Cancel { job: 1 },
                r#"{"v": 1, "type": "cancel", "job": 1, "checksum": "0x57366264aadb6efc"}"#,
            ),
        ];
        for (record, line) in pinned {
            assert_eq!(record.render(), format!("{line}\n"));
            assert_eq!(JournalRecord::parse(line).expect("parse"), record);
        }
    }

    #[test]
    fn checksum_rejects_field_tampering() {
        let line = JournalRecord::Submit {
            job: 2,
            tenant: "bob".into(),
            spec_text: "seeds = 4".into(),
        }
        .render();
        let tampered = line.replacen("bob", "eve", 1);
        assert!(
            JournalRecord::parse(tampered.trim_end()).is_err(),
            "tenant swap must fail the checksum"
        );
        let tampered = line.replacen("\"job\": 2", "\"job\": 3", 1);
        assert!(JournalRecord::parse(tampered.trim_end()).is_err());
    }

    #[test]
    fn open_append_reload_preserves_order() {
        let path = tmp("roundtrip");
        {
            let (mut journal, recovery) = Journal::open(&path).expect("open fresh");
            assert!(recovery.records.is_empty());
            for record in sample_records() {
                journal.append(&record).expect("append");
            }
        }
        let (_, recovery) = Journal::open(&path).expect("reopen");
        assert_eq!(recovery.records, sample_records());
        assert_eq!(recovery.dropped, 0);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_is_salvaged_line_by_line_and_compacted_away() {
        let path = tmp("torn");
        {
            let (mut journal, _) = Journal::open(&path).expect("open");
            for record in sample_records() {
                journal.append(&record).expect("append");
            }
        }
        // Simulate a crash mid-append: a partial record at the tail.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"v\": 1, \"type\": \"done\", \"job\": 9, \"slo");
        std::fs::write(&path, &text).expect("tear");

        let (_, recovery) = Journal::open(&path).expect("reopen");
        assert_eq!(recovery.records, sample_records(), "intact prefix kept");
        assert_eq!(recovery.dropped, 1, "torn tail counted, not fatal");

        // Compaction removed the torn line: a third open is clean.
        let (_, again) = Journal::open(&path).expect("third open");
        assert_eq!(again.dropped, 0, "compaction scrubbed the torn tail");
        assert_eq!(again.records.len(), 3);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn version_skew_reads_as_dropped_not_misparsed() {
        let line = sample_records()[1]
            .render()
            .replacen("\"v\": 1", "\"v\": 99", 1);
        let recovery = Journal::salvage(&line);
        assert!(recovery.records.is_empty());
        assert_eq!(recovery.dropped, 1);
    }

    #[test]
    fn spec_text_with_newlines_and_quotes_survives() {
        let record = JournalRecord::Submit {
            job: 7,
            tenant: "tenant \"x\"".into(),
            spec_text: "experiments = a\n# comment with \\ and \"quotes\"\nseeds = 3\n".into(),
        };
        let line = record.render();
        assert_eq!(line.matches('\n').count(), 1, "newlines are escaped");
        assert_eq!(
            JournalRecord::parse(line.trim_end()).expect("parse"),
            record
        );
    }
}
