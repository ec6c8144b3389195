//! The persistent content-addressed result cache.
//!
//! Every trial result is stored under its
//! [`cell_digest`](unxpec_harness::digest::cell_digest) — a stable,
//! versioned address covering exactly the inputs that determine the
//! trial's output (see `unxpec_harness::digest`). A repeated cell, no
//! matter which tenant submits it or when, is served from disk instead
//! of re-simulated, and the served bytes are identical to a fresh run:
//! rendered text verbatim, metric `f64`s through Rust's
//! shortest-round-trip formatting, and the stored output digest
//! re-verified on every read. A hit hands that verified digest back
//! with the output, so the caller never hashes the output again.
//!
//! Layout and durability:
//!
//! * **Sharded directories** — entry `key` lives at
//!   `<dir>/<key % 256 as hex>/<key as 016x>.json`, keeping any single
//!   directory small even at millions of entries.
//! * **Atomic writes** — entries are written through
//!   [`durable::replace`] (a `.tmp` sibling renamed into place); a crash
//!   mid-write can never leave a torn entry under the final name.
//! * **Integrity checksum** — each entry carries an FNV-1a checksum
//!   over every recorded field *and* the trial's output digest; a
//!   bit-flipped or truncated entry fails validation on read, is
//!   deleted, counts into [`CacheStats::corrupt`], and falls back to
//!   re-simulation.
//! * **LRU size bound** — the cache tracks total bytes and evicts
//!   least-recently-used entries once `max_bytes` is exceeded (0 means
//!   unbounded). Recency is in-memory; after a restart it is seeded
//!   from file modification times (oldest first, key as tie-break), so
//!   eviction order survives a restart instead of decaying to
//!   arbitrary key order. An entry whose metadata cannot be read at
//!   open — including a dangling symlink where an entry should be —
//!   is treated as corrupt and deleted rather than silently indexed
//!   at size 0 (which would let the byte bound be exceeded).
//!
//! * **Failure counts** — a cell whose last run failed (poisoned or
//!   timed out) keeps its consecutive-failure count and last error in
//!   a `<key as 016x>.failures` record beside where its entry would
//!   live, written through [`durable::replace`] and deleted when the
//!   cell's output is stored. [`ResultCache::open`] loads these
//!   records for the scheduler's quarantine, outside the entry index
//!   and the byte bound; a damaged one is deleted, not counted as a
//!   corrupt entry.
//!
//! Diagnostics lines are *not* cached: they describe how a particular
//! execution ran (fault schedules, telemetry tails), not what the cell
//! computes, and they are excluded from the output digest for the same
//! reason.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use unxpec::experiments::seeding::Fnv64;
use unxpec_harness::durable::{self, field, hex, parse_hex, Record};
use unxpec_harness::{output_digest, TrialOutput};
use unxpec_telemetry::json::{escape, Value};

use crate::error::ServiceError;

/// Where the cache lives and how big it may grow.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Root directory (created if absent).
    pub dir: PathBuf,
    /// Total size bound in bytes; 0 disables eviction.
    pub max_bytes: u64,
}

/// Counters the service mirrors into `service.cache.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Reads served from a valid entry.
    pub hits: u64,
    /// Reads that found no (valid) entry.
    pub misses: u64,
    /// Entries evicted by the LRU size bound.
    pub evictions: u64,
    /// Entries that failed checksum/digest validation and were dropped.
    pub corrupt: u64,
    /// Current total size of all entries, in bytes (a gauge).
    pub bytes: u64,
}

/// The on-disk cache plus its in-memory index.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    max_bytes: u64,
    /// key → entry file size.
    sizes: HashMap<u64, u64>,
    /// Recency index: monotonic stamp → key, oldest stamp first.
    /// Paired with `stamp_of` so touch/forget/evict are logarithmic
    /// instead of scanning an insertion-order list.
    by_stamp: BTreeMap<u64, u64>,
    /// key → its current stamp in `by_stamp`.
    stamp_of: HashMap<u64, u64>,
    /// Next recency stamp to hand out.
    next_stamp: u64,
    stats: CacheStats,
    /// Keys with a failure record on disk.
    failed: HashSet<u64>,
    /// The failure records read at open, until the service takes them.
    loaded_failures: Vec<CellFailures>,
}

/// A cell's consecutive-failure count and its last error, as persisted
/// beside the cell's cache entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailures {
    /// The cell digest.
    pub cell: u64,
    /// Consecutive failing runs.
    pub failures: u32,
    /// The last failure's message.
    pub error: String,
}

/// Failure-record format version.
const FAILURES_VERSION: u64 = 1;

impl Record for CellFailures {
    const VERSION: u64 = FAILURES_VERSION;

    fn checksum(&self) -> u64 {
        let mut h = Fnv64::new();
        h.mix(FAILURES_VERSION)
            .mix(self.cell)
            .mix(u64::from(self.failures))
            .mix_str(&self.error);
        h.finish()
    }

    fn render_members(&self, out: &mut String) -> fmt::Result {
        write!(
            out,
            "\"cell\": \"{}\", \"failures\": {}, \"error\": \"{}\"",
            hex(self.cell),
            self.failures,
            escape(&self.error)
        )
    }

    fn from_doc(doc: &Value) -> Result<Self, String> {
        Ok(CellFailures {
            cell: field(doc, "cell", parse_hex)?,
            failures: field(doc, "failures", |v| {
                v.as_u64().and_then(|n| u32::try_from(n).ok())
            })?,
            error: field(doc, "error", |v| v.as_str().map(str::to_string))?,
        })
    }
}

/// Entry-format version; bump on any layout change so old files read
/// as corrupt instead of mis-parsing.
const ENTRY_VERSION: u64 = 1;

/// A trial output paired with its [`output_digest`], hashed once when
/// the pair is made, so the two cannot disagree.
#[derive(Debug, Clone)]
pub struct DigestedOutput {
    output: TrialOutput,
    digest: u64,
}

impl DigestedOutput {
    /// Hashes `output`.
    pub fn new(output: TrialOutput) -> Self {
        let digest = output_digest(&output);
        DigestedOutput { output, digest }
    }

    /// The output.
    pub fn output(&self) -> &TrialOutput {
        &self.output
    }

    /// Its [`output_digest`].
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// One entry file: the output stored under `key`, with its
/// [`output_digest`].
struct Entry {
    key: u64,
    digest: u64,
    output: TrialOutput,
}

/// The v1 entry layout is pinned byte for byte, so the output follows
/// the checksum instead of preceding it as in a log record.
impl Record for Entry {
    const VERSION: u64 = ENTRY_VERSION;

    /// FNV-1a chain over every field of an entry, mixed with the
    /// output digest. This is what detects a flipped bit or a
    /// truncated file.
    fn checksum(&self) -> u64 {
        let mut h = Fnv64::new();
        h.mix(ENTRY_VERSION).mix(self.key).mix(self.digest);
        durable::mix_output(&mut h, &self.output);
        h.finish()
    }

    fn render_members(&self, out: &mut String) -> fmt::Result {
        let (key, digest) = (hex(self.key), hex(self.digest));
        write!(out, "\"key\": \"{key}\", \"digest\": \"{digest}\"")
    }

    fn render_tail(&self, out: &mut String) -> fmt::Result {
        out.push_str(", ");
        durable::render_output(&self.output, out)
    }

    fn from_doc(doc: &Value) -> Result<Self, String> {
        Ok(Entry {
            key: field(doc, "key", parse_hex)?,
            digest: field(doc, "digest", parse_hex)?,
            output: durable::parse_output(doc)?,
        })
    }
}

/// Parses and fully validates one entry file's text for `key`: the
/// output and its verified [`output_digest`].
fn parse_entry(key: u64, text: &str) -> Result<(TrialOutput, u64), String> {
    let entry: Entry = durable::parse(text)?;
    if entry.key != key {
        return Err("entry key does not match its address".to_string());
    }
    if output_digest(&entry.output) != entry.digest {
        return Err("entry output digest mismatch".to_string());
    }
    Ok((entry.output, entry.digest))
}

impl ResultCache {
    /// Opens (or creates) the cache at `config.dir` and indexes every
    /// existing entry by filename. Contents are validated lazily, on
    /// read — a corrupt entry costs its own miss, never the open. An
    /// entry whose metadata cannot be read is deleted and counted into
    /// [`CacheStats::corrupt`] right here: indexing it at size 0 would
    /// let the LRU byte bound be silently exceeded.
    pub fn open(config: &CacheConfig) -> Result<Self, ServiceError> {
        std::fs::create_dir_all(&config.dir)
            .map_err(|e| ServiceError::Cache(format!("create {}: {e}", config.dir.display())))?;
        let mut sizes = HashMap::new();
        let mut corrupt = 0u64;
        let mut failed = HashSet::new();
        let mut loaded_failures = Vec::new();
        // (mtime, key) per surviving entry — the restart recency seed.
        let mut aged: Vec<(SystemTime, u64)> = Vec::new();
        let shards = std::fs::read_dir(&config.dir)
            .map_err(|e| ServiceError::Cache(format!("scan {}: {e}", config.dir.display())))?;
        for shard in shards.flatten() {
            if !shard.path().is_dir() {
                continue;
            }
            let Ok(files) = std::fs::read_dir(shard.path()) else {
                continue;
            };
            for file in files.flatten() {
                let name = file.file_name();
                if let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".failures")) {
                    let record = durable::read(&file.path())
                        .and_then(|text| durable::parse::<CellFailures>(&text))
                        .ok()
                        .filter(|r| format!("{:016x}", r.cell) == stem);
                    match record {
                        Some(record) => {
                            failed.insert(record.cell);
                            loaded_failures.push(record);
                        }
                        // Damage costs the count, never the open.
                        None => {
                            let _ = std::fs::remove_file(file.path());
                        }
                    }
                    continue;
                }
                let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                    continue; // leftover .tmp files and strangers are ignored
                };
                let Ok(key) = u64::from_str_radix(stem, 16) else {
                    continue;
                };
                // fs::metadata (not DirEntry::metadata) follows
                // symlinks, so a dangling link where an entry should
                // be fails here and is cleaned up like any other
                // corruption.
                let Ok(meta) = std::fs::metadata(file.path()) else {
                    let _ = std::fs::remove_file(file.path());
                    corrupt += 1;
                    continue;
                };
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                sizes.insert(key, meta.len());
                aged.push((mtime, key));
            }
        }
        // Restart recency: oldest mtime first (key as a deterministic
        // tie-break), refined further by reads as the cache warms up.
        aged.sort_unstable();
        let bytes = sizes.values().sum();
        let mut cache = ResultCache {
            dir: config.dir.clone(),
            max_bytes: config.max_bytes,
            sizes,
            by_stamp: BTreeMap::new(),
            stamp_of: HashMap::new(),
            next_stamp: 0,
            stats: CacheStats {
                bytes,
                corrupt,
                ..CacheStats::default()
            },
            failed,
            loaded_failures,
        };
        for (_, key) in aged {
            cache.touch(key);
        }
        Ok(cache)
    }

    fn path_for(&self, key: u64) -> PathBuf {
        self.dir
            .join(format!("{:02x}", key & 0xff))
            .join(format!("{key:016x}.json"))
    }

    fn failures_path(&self, key: u64) -> PathBuf {
        self.path_for(key).with_extension("failures")
    }

    /// The failure records found at open, sorted by cell; a second
    /// call returns none.
    pub fn take_failures(&mut self) -> Vec<CellFailures> {
        let mut records = std::mem::take(&mut self.loaded_failures);
        records.sort_unstable_by_key(|r| r.cell);
        records
    }

    /// Persists `record` beside its cell's entry (atomic temp +
    /// rename), replacing any earlier one. [`ResultCache::put`] of the
    /// cell deletes it.
    pub fn put_failures(&mut self, record: &CellFailures) -> Result<(), ServiceError> {
        let path = self.failures_path(record.cell);
        durable::replace(&path, &durable::render(record)).map_err(ServiceError::Cache)?;
        self.failed.insert(record.cell);
        Ok(())
    }

    fn touch(&mut self, key: u64) {
        if let Some(stamp) = self.stamp_of.remove(&key) {
            self.by_stamp.remove(&stamp);
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.by_stamp.insert(stamp, key);
        self.stamp_of.insert(key, stamp);
    }

    fn forget(&mut self, key: u64) {
        if let Some(size) = self.sizes.remove(&key) {
            self.stats.bytes = self.stats.bytes.saturating_sub(size);
        }
        if let Some(stamp) = self.stamp_of.remove(&key) {
            self.by_stamp.remove(&stamp);
        }
    }

    /// Looks `key` up. A valid entry counts a hit, refreshes its
    /// recency and returns the output with its [`output_digest`],
    /// verified against the output on this read. A missing entry
    /// counts a miss; a corrupt entry counts both a miss and
    /// [`CacheStats::corrupt`], and the damaged file is deleted so the
    /// recomputed result can take its place.
    pub fn get(&mut self, key: u64) -> Option<(TrialOutput, u64)> {
        if !self.sizes.contains_key(&key) {
            self.stats.misses += 1;
            return None;
        }
        let path = self.path_for(key);
        let outcome = std::fs::read_to_string(&path)
            .map_err(|e| format!("read: {e}"))
            .and_then(|text| parse_entry(key, &text));
        match outcome {
            Ok(hit) => {
                self.touch(key);
                self.stats.hits += 1;
                Some(hit)
            }
            Err(_) => {
                let _ = std::fs::remove_file(&path);
                self.forget(key);
                self.stats.corrupt += 1;
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores `fresh` under `key` (atomic temp + rename), then
    /// enforces the size bound by evicting least-recently-used entries.
    /// A single entry larger than the whole bound is kept — evicting it
    /// would make the cell uncacheable forever.
    pub fn put(&mut self, key: u64, fresh: &DigestedOutput) -> Result<(), ServiceError> {
        let text = durable::render(&Entry {
            key,
            digest: fresh.digest,
            output: fresh.output.clone(),
        });
        let path = self.path_for(key);
        durable::replace(&path, &text).map_err(ServiceError::Cache)?;
        if self.failed.remove(&key) {
            let _ = std::fs::remove_file(self.failures_path(key));
        }
        self.forget(key); // replacing an entry must not double-count bytes
        self.sizes.insert(key, text.len() as u64);
        self.stats.bytes += text.len() as u64;
        self.touch(key);
        while self.max_bytes > 0 && self.stats.bytes > self.max_bytes && self.sizes.len() > 1 {
            let Some((_, &oldest)) = self.by_stamp.first_key_value() else {
                break;
            };
            let _ = std::fs::remove_file(self.path_for(oldest));
            self.forget(oldest);
            self.stats.evictions += 1;
        }
        Ok(())
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str, max_bytes: u64) -> (CacheConfig, ResultCache) {
        let dir = std::env::temp_dir().join(format!("unxpec-service-cache-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let config = CacheConfig { dir, max_bytes };
        let cache = ResultCache::open(&config).expect("open cache");
        (config, cache)
    }

    fn put(cache: &mut ResultCache, key: u64, o: &TrialOutput) {
        cache
            .put(key, &DigestedOutput::new(o.clone()))
            .expect("put");
    }

    fn output(tag: &str) -> TrialOutput {
        let mut o = TrialOutput::new(format!("rendered {tag}\nline two"), vec![]);
        o.metrics = vec![("diff".into(), 22.5), ("neg".into(), -0.125)];
        o
    }

    #[test]
    fn round_trips_exactly_and_counts_hits() {
        let (config, mut cache) = temp_cache("roundtrip", 0);
        assert!(cache.get(7).is_none());
        assert_eq!(cache.stats().misses, 1);
        let o = output("a");
        put(&mut cache, 7, &o);
        let (back, digest) = cache.get(7).expect("hit");
        assert_eq!(back.rendered, o.rendered);
        assert_eq!(back.metrics, o.metrics);
        assert_eq!(digest, output_digest(&o));
        assert_eq!(cache.stats().hits, 1);
        // A new process over the same directory sees the entry.
        let mut reopened = ResultCache::open(&config).expect("reopen");
        assert_eq!(reopened.len(), 1);
        assert_eq!(
            reopened.get(7).expect("persistent hit").0.rendered,
            o.rendered
        );
        std::fs::remove_dir_all(&config.dir).ok();
    }

    /// Failure records sit beside the entries without being entries:
    /// open neither indexes nor counts them as corrupt, hands them to
    /// the scheduler once, and a put of the cell deletes its record. A
    /// damaged record is dropped, not counted.
    #[test]
    fn failure_records_reload_and_a_success_deletes_them() {
        let (config, mut cache) = temp_cache("failures", 0);
        let record = |cell, failures| CellFailures {
            cell,
            failures,
            error: "boom \"quoted\"".into(),
        };
        cache.put_failures(&record(7, 1)).expect("put failures");
        cache.put_failures(&record(7, 2)).expect("replace failures");
        cache.put_failures(&record(9, 1)).expect("put failures");
        put(&mut cache, 9, &output("nine"));
        let mut reopened = ResultCache::open(&config).expect("reopen");
        assert_eq!(reopened.len(), 1, "only the entry is indexed");
        assert_eq!(reopened.stats().corrupt, 0);
        assert_eq!(reopened.take_failures(), vec![record(7, 2)]);
        assert!(reopened.take_failures().is_empty(), "taken once");
        let path = reopened.failures_path(7);
        std::fs::write(&path, "{\"v\": 1, torn").expect("damage");
        let mut damaged = ResultCache::open(&config).expect("reopen");
        assert!(damaged.take_failures().is_empty());
        assert_eq!(damaged.stats().corrupt, 0);
        assert!(!path.exists(), "the damaged record is deleted");
        std::fs::remove_dir_all(&config.dir).ok();
    }

    /// The v1 entry bytes are pinned: a cache directory written before
    /// the shared durable format must keep serving every entry.
    #[test]
    fn v1_entry_bytes_are_unchanged() {
        let (config, mut cache) = temp_cache("v1-bytes", 0);
        let o = TrialOutput::new("x \"y\"\nz".into(), vec![("a", 1.5), ("b", -0.25)])
            .with_truncated(true);
        put(&mut cache, 0xfeed, &o);
        let text = std::fs::read_to_string(cache.path_for(0xfeed)).expect("entry");
        assert_eq!(
            text,
            concat!(
                r#"{"v": 1, "key": "0xfeed", "digest": "0x4ea43988f33e157a", "#,
                r#""checksum": "0xd26c2745d107c519", "truncated": true, "#,
                r#""metrics": {"a": 1.5, "b": -0.25}, "rendered": "x \"y\"\nz"}"#,
                "\n"
            )
        );
        assert_eq!(cache.get(0xfeed), Some((o, 0x4ea43988f33e157a)));
        std::fs::remove_dir_all(&config.dir).ok();
    }

    #[test]
    fn corrupt_entries_fall_back_to_miss_and_are_deleted() {
        let (config, mut cache) = temp_cache("corrupt", 0);
        put(&mut cache, 9, &output("x"));
        let path = cache.path_for(9);
        let text = std::fs::read_to_string(&path).expect("entry exists");
        std::fs::write(&path, text.replacen("22.5", "23.5", 1)).expect("tamper");
        assert!(cache.get(9).is_none(), "flipped metric must not serve");
        assert_eq!(cache.stats().corrupt, 1);
        assert_eq!(cache.stats().misses, 1);
        assert!(!path.exists(), "damaged entry is deleted");
        // The slot is reusable after the fallback recompute.
        put(&mut cache, 9, &output("x"));
        assert!(cache.get(9).is_some());
        std::fs::remove_dir_all(&config.dir).ok();
    }

    #[test]
    fn lru_bound_evicts_oldest_first() {
        let (config, mut cache) = temp_cache("lru", 400);
        for key in 0..6u64 {
            put(&mut cache, key, &output(&format!("k{key}")));
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "tiny bound must evict");
        assert!(stats.bytes <= 400, "bound holds: {} bytes", stats.bytes);
        assert!(cache.get(5).is_some(), "newest entry survives");
        assert!(cache.get(0).is_none(), "oldest entry was evicted");
        std::fs::remove_dir_all(&config.dir).ok();
    }

    #[test]
    fn a_get_refreshes_recency() {
        let (config, mut cache) = temp_cache("recency", 0);
        put(&mut cache, 1, &output("one"));
        put(&mut cache, 2, &output("two"));
        assert!(cache.get(1).is_some(), "refresh key 1");
        // Shrink the bound by replacing entries until eviction: key 2 is
        // now the least recently used and must go first.
        cache.max_bytes = cache.stats().bytes; // exactly full
        put(&mut cache, 3, &output("six")); // same entry size as "one"/"two"
        assert!(cache.get(2).is_none(), "LRU key 2 evicted");
        assert!(cache.get(1).is_some(), "refreshed key 1 survives");
        std::fs::remove_dir_all(&config.dir).ok();
    }

    /// Satellite regression: restart recency must follow file mtimes,
    /// not key order — after a reopen, eviction removes the entry that
    /// was written longest ago even when its key sorts last.
    #[test]
    fn restart_recency_follows_mtime_not_key_order() {
        let (config, mut cache) = temp_cache("mtime", 0);
        // Keys chosen so key order (1 < 2 < 9) disagrees with age
        // order: key 9 is made the *oldest* entry, key 1 the newest.
        for key in [9u64, 2, 1] {
            put(&mut cache, key, &output(&format!("k{key}")));
        }
        let stamp = |secs: u64| SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs);
        for (key, secs) in [(9u64, 100u64), (2, 200), (1, 300)] {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(cache.path_for(key))
                .expect("open entry");
            file.set_modified(stamp(secs)).expect("set mtime");
        }
        let mut reopened = ResultCache::open(&config).expect("reopen");
        // Shrink to exactly-full and insert one strictly smaller entry:
        // the single eviction must take the mtime-oldest key 9, not
        // key 1.
        reopened.max_bytes = reopened.stats().bytes;
        let tiny = TrialOutput::new("x".into(), vec![]);
        put(&mut reopened, 5, &tiny);
        assert!(reopened.get(9).is_none(), "mtime-oldest key 9 evicted");
        assert!(reopened.get(1).is_some(), "newest key 1 survives");
        assert!(reopened.get(2).is_some(), "middle key 2 survives");
        std::fs::remove_dir_all(&config.dir).ok();
    }

    /// Satellite regression: an entry whose metadata cannot be read
    /// (here: a dangling symlink where the entry file should be) is
    /// deleted at open and counted corrupt, never indexed at size 0.
    #[cfg(unix)]
    #[test]
    fn unreadable_metadata_at_open_is_corrupt_and_deleted() {
        let (config, mut cache) = temp_cache("badmeta", 0);
        put(&mut cache, 1, &output("good"));
        let bad = cache.path_for(0xaa);
        std::fs::create_dir_all(bad.parent().expect("shard")).expect("shard dir");
        std::os::unix::fs::symlink(config.dir.join("no-such-target"), &bad).expect("symlink");
        let mut reopened = ResultCache::open(&config).expect("reopen");
        assert_eq!(reopened.stats().corrupt, 1, "dangling entry counted");
        assert_eq!(reopened.len(), 1, "only the real entry is indexed");
        assert!(
            std::fs::symlink_metadata(&bad).is_err(),
            "dangling entry is deleted at open"
        );
        assert!(reopened.get(1).is_some(), "healthy entry still serves");
        assert!(reopened.get(0xaa).is_none());
        std::fs::remove_dir_all(&config.dir).ok();
    }

    /// The indexed recency structure keeps exact LRU order under many
    /// interleaved touches (the old linear scan's behaviour, kept).
    #[test]
    fn eviction_respects_interleaved_touches_at_scale() {
        let (config, mut cache) = temp_cache("stamps", 0);
        for key in 0..20u64 {
            put(&mut cache, key, &output(&format!("k{key}")));
        }
        // Refresh the even keys; the odd ones become the LRU tail.
        for key in (0..20u64).step_by(2) {
            assert!(cache.get(key).is_some());
        }
        // Ten tiny puts against an exactly-full bound: each evicts
        // exactly the current LRU entry, which must walk the untouched
        // odd keys in insertion order before any refreshed even key.
        for (i, expected) in (1..20u64).step_by(2).enumerate() {
            cache.max_bytes = cache.stats().bytes;
            let tiny = TrialOutput::new("x".into(), vec![]);
            put(&mut cache, 1000 + i as u64, &tiny);
            assert!(cache.get(expected).is_none(), "odd key {expected} is LRU");
        }
        for key in (0..20u64).step_by(2) {
            assert!(cache.get(key).is_some(), "touched key {key} survives");
        }
        std::fs::remove_dir_all(&config.dir).ok();
    }

    #[test]
    fn oversized_single_entry_is_kept() {
        let (config, mut cache) = temp_cache("oversized", 10);
        put(&mut cache, 1, &output("big"));
        assert_eq!(cache.len(), 1, "sole entry over the bound is kept");
        assert!(cache.get(1).is_some());
        std::fs::remove_dir_all(&config.dir).ok();
    }
}
