//! Durable files: checksummed JSON-line records, lenient salvage,
//! append + flush, and atomic replace.
//!
//! Every file the trial scheduler persists goes through this one
//! module: the service's job journal, its result-cache entries and the
//! cells' failure records beside them. Each format supplies only a
//! [`Record`] impl — its field checksum, its render and its parse —
//! and inherits the rest:
//!
//! * **Framing** — a record is one `\n`-terminated JSON object that
//!   opens with its format version `"v"` and whose `"checksum"` member
//!   carries an FNV-1a chain over every field ([`Fnv64`]). Log formats
//!   put the checksum last.
//! * **Salvage** — [`salvage`] keeps every line that parses *and*
//!   whose recomputed checksum matches, and counts the rest into
//!   [`Salvage::dropped`]. A torn tail or a flipped bit costs exactly
//!   its own line; no line is ever resumed on trust.
//! * **Append + flush** — [`Log::append`] writes one line, and
//!   [`Log::append_all`] a batch of lines in one write; each flushes to
//!   the OS before returning, so a killed process never loses an
//!   acknowledged record.
//! * **Atomic replace** — [`replace`] writes a `.tmp` sibling and
//!   renames it over the target, so a reader sees the old file or the
//!   new one, never a torn mix. Compacting a log is one replace.
//!
//! 64-bit values are written as `0x`-prefixed hex strings ([`hex`])
//! because the JSON layer keeps numbers as `f64` (exact only to 2^53).

use std::fmt::{self, Write as _};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use unxpec::experiments::seeding::Fnv64;
use unxpec_telemetry::json::{self, escape, Value};

use crate::experiment::TrialOutput;

/// One durable record format.
pub trait Record: Sized {
    /// Format version, written as the line's first member `"v"`. Bump
    /// it on any layout change so old lines read as dropped instead of
    /// mis-parsing.
    const VERSION: u64;

    /// FNV-1a chain over every field the line carries: the value of
    /// its `"checksum"` member.
    fn checksum(&self) -> u64;

    /// Appends the JSON members between `"v"` and `"checksum"`,
    /// separated by `", "`.
    fn render_members(&self, out: &mut String) -> fmt::Result;

    /// Appends members that follow `"checksum"`, each preceded by
    /// `", "`. Log formats keep the checksum last and write nothing
    /// here; only the result cache's v1 entry layout, pinned byte for
    /// byte, has a tail.
    fn render_tail(&self, _out: &mut String) -> fmt::Result {
        Ok(())
    }

    /// Rebuilds the record from a parsed line. [`parse`] checks the
    /// version before and the checksum after.
    fn from_doc(doc: &Value) -> Result<Self, String>;
}

/// `v` formatted as a `0x`-prefixed hex string.
pub fn hex(v: u64) -> impl fmt::Display {
    fmt::from_fn(move |f| write!(f, "{v:#x}"))
}

/// Reads a [`hex`] string member back.
pub fn parse_hex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?.strip_prefix("0x")?, 16).ok()
}

/// `record` as its one `\n`-terminated line.
pub fn render<R: Record>(record: &R) -> String {
    let mut out = String::with_capacity(160);
    render_into(record, &mut out);
    out
}

/// Appends `record`'s line to `out`.
fn render_into<R: Record>(record: &R, out: &mut String) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{{\"v\": {}, ", R::VERSION)
        .and_then(|()| record.render_members(out))
        .and_then(|()| write!(out, ", \"checksum\": \"{}\"", hex(record.checksum())))
        .and_then(|()| record.render_tail(out));
    out.push_str("}\n");
}

/// Parses one line and verifies its checksum.
pub fn parse<R: Record>(line: &str) -> Result<R, String> {
    let doc = json::parse(line)?;
    if field(&doc, "v", Value::as_u64)? != R::VERSION {
        return Err("record version mismatch".to_string());
    }
    let record = R::from_doc(&doc)?;
    if record.checksum() != field(&doc, "checksum", parse_hex)? {
        return Err("record checksum mismatch".to_string());
    }
    Ok(record)
}

/// The member `name` of a parsed record, read by `get`.
pub fn field<'a, T>(
    doc: &'a Value,
    name: &str,
    get: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, String> {
    doc.get(name)
        .and_then(get)
        .ok_or_else(|| format!("record missing {name}"))
}

/// What lenient loading recovered from a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Salvage<R> {
    /// Lines that parsed and validated, in file order.
    pub records: Vec<R>,
    /// Lines dropped as corrupt (torn, flipped, other versions).
    /// Counted, never fatal.
    pub dropped: u64,
}

/// Line-by-line recovery: keeps every line that parses and validates,
/// counts the rest. Never an error, never a panic.
pub fn salvage<R: Record>(text: &str) -> Salvage<R> {
    let mut out = Salvage {
        records: Vec::new(),
        dropped: 0,
    };
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match parse(line) {
            Ok(record) => out.records.push(record),
            Err(_) => out.dropped += 1,
        }
    }
    out
}

/// Reads `path` for salvage; a missing file reads as empty. Invalid
/// UTF-8 — a tail torn inside a multi-byte character — decodes to
/// U+FFFD, which fails only the line that holds it.
pub fn read(path: &Path) -> Result<String, String> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}

/// Atomically replaces `path` with `text` (creating its directory):
/// writes a `.tmp` sibling, then renames it over `path`.
pub fn replace(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// An append handle over one log file.
#[derive(Debug)]
pub struct Log {
    path: PathBuf,
    file: std::fs::File,
}

impl Log {
    /// Salvages whatever log exists at `path` (a missing file is an
    /// empty log), compacts the valid records back atomically — so a
    /// torn tail never prefixes the next append — and opens the file
    /// for appending.
    pub fn open<R: Record>(path: &Path) -> Result<(Log, Salvage<R>), String> {
        let salvaged = salvage::<R>(&read(path)?);
        replace(
            path,
            &salvaged.records.iter().map(render).collect::<String>(),
        )?;
        Ok((Log::append_to(path)?, salvaged))
    }

    /// Opens an existing, compacted log for appending.
    pub fn append_to(path: &Path) -> Result<Log, String> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        Ok(Log {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one record and flushes it to the OS.
    pub fn append<R: Record>(&mut self, record: &R) -> Result<(), String> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Appends `records` in order with one write, then flushes. The
    /// file gets the same bytes as one [`Log::append`] per record.
    pub fn append_all<R: Record>(&mut self, records: &[R]) -> Result<(), String> {
        if records.is_empty() {
            return Ok(());
        }
        let mut text = String::with_capacity(160 * records.len());
        for record in records {
            render_into(record, &mut text);
        }
        self.file
            .write_all(text.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("append {}: {e}", self.path.display()))
    }
}

/// Appends a [`TrialOutput`]'s persisted fields as JSON members:
/// `"truncated": true` (only when set), `"metrics"` and `"rendered"`.
/// Metric `f64`s print through Rust's shortest round-trip formatting,
/// so they parse back bit for bit. Diagnostics are not persisted.
pub fn render_output(output: &TrialOutput, out: &mut String) -> fmt::Result {
    if output.truncated {
        out.push_str("\"truncated\": true, ");
    }
    out.push_str("\"metrics\": {");
    for (i, (name, value)) in output.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{}\": {value}", escape(name))?;
    }
    write!(out, "}}, \"rendered\": \"{}\"", escape(&output.rendered))
}

/// Reads the members [`render_output`] wrote.
pub fn parse_output(doc: &Value) -> Result<TrialOutput, String> {
    let rendered = field(doc, "rendered", Value::as_str)?;
    let Some(Value::Obj(members)) = doc.get("metrics") else {
        return Err("record missing metrics".to_string());
    };
    let mut output = TrialOutput::new(rendered.to_string(), vec![])
        .with_truncated(matches!(doc.get("truncated"), Some(Value::Bool(true))));
    for (name, value) in members {
        let v = value
            .as_f64()
            .ok_or_else(|| format!("metric {name:?} is not a number"))?;
        output.metrics.push((name.clone(), v));
    }
    Ok(output)
}

/// Folds the fields [`render_output`] persists into a checksum chain.
pub fn mix_output(h: &mut Fnv64, output: &TrialOutput) {
    h.mix(u64::from(output.truncated))
        .mix(output.metrics.len() as u64);
    for (name, value) in &output.metrics {
        h.mix_str(name).mix(value.to_bits());
    }
    h.mix_str(&output.rendered);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-field record for exercising the framing.
    #[derive(Debug, PartialEq)]
    struct Pair(u64, String);

    impl Record for Pair {
        const VERSION: u64 = 1;

        fn checksum(&self) -> u64 {
            Fnv64::new().mix(self.0).mix_str(&self.1).finish()
        }
        fn render_members(&self, out: &mut String) -> fmt::Result {
            write!(out, "\"n\": {}, \"s\": \"{}\"", self.0, escape(&self.1))
        }
        fn from_doc(doc: &Value) -> Result<Self, String> {
            Ok(Pair(
                field(doc, "n", Value::as_u64)?,
                field(doc, "s", Value::as_str)?.to_string(),
            ))
        }
    }

    fn temp_log(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("unxpec-durable-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir.join("log.jsonl")
    }

    #[test]
    fn a_record_is_one_line_ending_in_its_checksum() {
        let line = render(&Pair(3, "a\nb \"c\"".into()));
        assert_eq!(line.matches('\n').count(), 1, "newlines are escaped");
        let body = line.trim_end().trim_end_matches('}');
        assert!(body.contains(", \"checksum\": \"0x"), "{line}");
        assert!(!body.rsplit_once("checksum").unwrap().1.contains(','));
        assert_eq!(parse::<Pair>(&line), Ok(Pair(3, "a\nb \"c\"".into())));
    }

    #[test]
    fn a_changed_field_fails_its_own_checksum() {
        let line = render(&Pair(3, "abc".into()));
        let err = parse::<Pair>(&line.replacen("\"n\": 3", "\"n\": 4", 1)).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn salvage_keeps_valid_lines_and_counts_the_rest() {
        let mut text = render(&Pair(1, "x".into()));
        text.push_str(&render(&Pair(2, "y".into())).replacen("\"y\"", "\"z\"", 1));
        text.push_str(&render(&Pair(3, "w".into())));
        text.push_str("{\"n\": 4, \"s\"");
        let got = salvage::<Pair>(&text);
        assert_eq!(got.records, vec![Pair(1, "x".into()), Pair(3, "w".into())]);
        assert_eq!(got.dropped, 2);
    }

    #[test]
    fn open_compacts_a_torn_tail_before_appending() {
        let path = temp_log("torn");
        {
            let (mut log, got) = Log::open::<Pair>(&path).expect("open fresh");
            assert_eq!((got.records.len(), got.dropped), (0, 0));
            log.append(&Pair(1, "x".into())).expect("append");
        }
        // Tear the next line inside a multi-byte character.
        let mut bytes = std::fs::read(&path).unwrap();
        let torn = render(&Pair(2, "caf\u{e9}".into()));
        let cut = torn.find('\u{e9}').unwrap() + 1;
        bytes.extend_from_slice(&torn.as_bytes()[..cut]);
        std::fs::write(&path, bytes).unwrap();
        let (mut log, got) = Log::open::<Pair>(&path).expect("reopen");
        assert_eq!((got.records.len(), got.dropped), (1, 1));
        log.append(&Pair(5, "y".into()))
            .expect("append after compaction");
        let (_, again) = Log::open::<Pair>(&path).expect("third open");
        assert_eq!(
            again.records,
            vec![Pair(1, "x".into()), Pair(5, "y".into())]
        );
        assert_eq!(again.dropped, 0, "the torn tail was compacted away");
        assert!(!path.with_extension("tmp").exists(), "no temp file left");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn append_all_writes_the_bytes_of_one_append_per_record() {
        let records = [
            Pair(1, "x".into()),
            Pair(2, "y\n".into()),
            Pair(3, "".into()),
        ];
        let (one, all) = (temp_log("one"), temp_log("all"));
        let (mut log, _) = Log::open::<Pair>(&one).expect("open");
        for record in &records {
            log.append(record).expect("append");
        }
        let (mut log, _) = Log::open::<Pair>(&all).expect("open");
        log.append_all::<Pair>(&[]).expect("empty batch");
        log.append_all(&records).expect("append_all");
        let bytes = std::fs::read(&all).unwrap();
        assert_eq!(bytes, std::fs::read(&one).unwrap());
        assert_eq!(
            salvage::<Pair>(std::str::from_utf8(&bytes).unwrap()).records,
            records
        );
        for path in [one, all] {
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }
    }

    #[test]
    fn output_codec_round_trips_exactly() {
        let mut output = TrialOutput::new("line1\n\"q\"".into(), vec![]).with_truncated(true);
        output.metrics = vec![
            ("diff".into(), 22.5),
            ("neg".into(), -0.125),
            ("tiny".into(), 1e-300),
        ];
        let mut members = String::new();
        render_output(&output, &mut members).unwrap();
        let doc = json::parse(&format!("{{{members}}}")).expect("valid JSON");
        assert_eq!(parse_output(&doc), Ok(output));
    }
}
