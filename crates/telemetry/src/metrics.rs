//! The metrics registry: named counters and log-scaled histograms with
//! hand-rolled JSON/CSV export (no external dependencies, same idiom as
//! `unxpec_stats::svg`).
//!
//! Components expose a `record_metrics(&self, &mut MetricsRegistry)`
//! method and write their counters under a dotted namespace
//! (`l1.hits`, `cleanupspec.rollbacks`, `core.ipc_milli`, ...); the
//! registry is assembled once at dump time, so steady-state simulation
//! pays nothing for metrics it never asks for.

use std::collections::BTreeMap;

use crate::json::escape;

/// Power-of-two-bucketed histogram for cycle-scale values.
///
/// Bucket `0` holds the value `0`; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`. 65 buckets cover the full `u64` range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Bucket index for `value`.
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                (lower, n)
            })
            .collect()
    }

    /// Estimates the `q`-quantile (`0.0 < q <= 1.0`) from the log₂
    /// buckets: the bucket holding the rank is found by a cumulative
    /// walk and the value is interpolated linearly inside it, then
    /// clamped to the observed `[min, max]`. The estimate is exact for
    /// bucket boundaries and within one bucket width otherwise —
    /// that is the resolution a power-of-two histogram buys.
    ///
    /// Returns `None` when the histogram is empty or `q` is out of
    /// range.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) || q == 0.0 {
            return None;
        }
        // 1-based rank of the requested observation.
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lower, upper) = bucket_bounds(i);
                let into = (rank - seen) as f64 / n as f64;
                let est = lower as f64 + into * (upper - lower) as f64;
                return Some((est as u64).clamp(self.min, self.max));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// The p50 estimate (`None` when empty).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// The p90 estimate (`None` when empty).
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// The p99 estimate (`None` when empty).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, &n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// `[lower, upper)` value bounds of bucket `i` (bucket 64 is clamped
/// to `u64::MAX`).
fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 1),
        64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), 1u64 << i),
    }
}

/// Named counters + histograms, keyed by dotted metric paths.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets counter `name` to `value`.
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Records `value` into histogram `name` (creating it).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Reads counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Number of registered counters.
    pub fn counter_count(&self) -> usize {
        self.counters.len()
    }

    /// Merges `other` into this registry (counters add, histograms
    /// merge bucket-wise).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Hand-rolled JSON dump:
    /// `{"counters": {...}, "histograms": {name: {count, sum, min, max,
    /// mean_milli, buckets: [[lower, count], ...]}, ...}}`.
    ///
    /// Keys are dotted metric paths (no characters needing escapes);
    /// values are integers, so the output is valid JSON by
    /// construction.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {}", escape(k), v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean_milli\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                escape(k),
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                (h.mean() * 1000.0).round() as u64,
                h.p50().unwrap_or(0),
                h.p90().unwrap_or(0),
                h.p99().unwrap_or(0),
            ));
            for (i, (lower, n)) in h.nonzero_buckets().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{lower},{n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// CSV dump: `kind,name,field,value` rows — counters first, then
    /// each histogram's summary fields, quantile estimates, and
    /// non-empty buckets. Name fields are RFC-4180 quoted, so labels
    /// containing commas, quotes, or newlines survive a round-trip.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("counter,{},value,{v}\n", csv_field(k)));
        }
        for (k, h) in &self.histograms {
            let k = csv_field(k);
            out.push_str(&format!("histogram,{k},count,{}\n", h.count()));
            out.push_str(&format!("histogram,{k},sum,{}\n", h.sum()));
            out.push_str(&format!("histogram,{k},min,{}\n", h.min().unwrap_or(0)));
            out.push_str(&format!("histogram,{k},max,{}\n", h.max().unwrap_or(0)));
            out.push_str(&format!("histogram,{k},p50,{}\n", h.p50().unwrap_or(0)));
            out.push_str(&format!("histogram,{k},p90,{}\n", h.p90().unwrap_or(0)));
            out.push_str(&format!("histogram,{k},p99,{}\n", h.p99().unwrap_or(0)));
            for (lower, n) in h.nonzero_buckets() {
                out.push_str(&format!("histogram,{k},bucket_ge_{lower},{n}\n"));
            }
        }
        out
    }

    /// Plain-text dump for terminals: counters first, then one line
    /// per histogram with count/mean and the p50/p90/p99 estimates.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k:<width$}  n {} mean {:.1} p50 {} p90 {} p99 {} max {}\n",
                h.count(),
                h.mean(),
                h.p50().unwrap_or(0),
                h.p90().unwrap_or(0),
                h.p99().unwrap_or(0),
                h.max().unwrap_or(0),
            ));
        }
        out
    }
}

/// RFC-4180 quoting for one CSV field: fields containing a comma,
/// double quote, CR, or LF are wrapped in double quotes with embedded
/// quotes doubled; everything else passes through bare.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Splits one RFC-4180 CSV record into its fields, undoing
/// [`csv_field`] quoting. Newlines inside quoted fields must already be
/// part of `record` (the caller is responsible for logical-line
/// assembly). Unterminated quotes consume to the end of the record.
pub fn split_csv_record(record: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = record.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if field.is_empty() => quoted = true,
            ',' if !quoted => fields.push(std::mem::take(&mut field)),
            c => field.push(c),
        }
    }
    fields.push(field);
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = LogHistogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        let buckets = h.nonzero_buckets();
        // 0 -> [0], 1 -> [1,2), 2,3 -> [2,4), 4,7 -> [4,8), 8 -> [8,16),
        // 1000 -> [512,1024).
        assert_eq!(
            buckets,
            vec![(0, 1), (1, 1), (2, 2), (4, 2), (8, 1), (512, 1)]
        );
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = LogHistogram::default();
        a.observe(5);
        let mut b = LogHistogram::default();
        b.observe(100);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(100));
    }

    #[test]
    fn registry_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.inc("l1.hits", 10);
        m.inc("l1.hits", 5);
        m.set("core.cycles", 1234);
        m.observe("squash.cleanup_cycles", 22);
        m.observe("squash.cleanup_cycles", 32);
        assert_eq!(m.counter("l1.hits"), 15);
        assert_eq!(m.counter("core.cycles"), 1234);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.histogram("squash.cleanup_cycles").unwrap().count(), 2);
    }

    #[test]
    fn json_is_well_formed_enough_to_eyeball() {
        let mut m = MetricsRegistry::new();
        m.inc("a.b", 1);
        m.observe("h", 7);
        let json = m.to_json();
        assert!(json.contains("\"a.b\": 1"));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"count\": 1"));
        // Balanced braces/brackets (cheap structural check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut m = MetricsRegistry::new();
        m.inc("x", 3);
        m.observe("h", 9);
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,field,value");
        assert!(lines.contains(&"counter,x,value,3"));
        assert!(lines.contains(&"histogram,h,bucket_ge_8,1"));
    }

    #[test]
    fn merge_combines_registries() {
        let mut a = MetricsRegistry::new();
        a.inc("n", 1);
        a.observe("h", 2);
        let mut b = MetricsRegistry::new();
        b.inc("n", 2);
        b.observe("h", 4);
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let mut h = LogHistogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        // Log2 buckets bound the estimate, not the exact rank, so allow
        // one bucket of slack around the true percentiles.
        let p50 = h.p50().unwrap();
        let p90 = h.p90().unwrap();
        let p99 = h.p99().unwrap();
        assert!((32..=64).contains(&p50), "p50 estimate {p50}");
        assert!((64..=100).contains(&p90), "p90 estimate {p90}");
        assert!(p99 >= p90 && p99 <= 100, "p99 estimate {p99}");
        assert!(p50 <= p90, "quantiles must be monotone");
    }

    #[test]
    fn quantiles_of_constant_data_are_exact() {
        let mut h = LogHistogram::default();
        for _ in 0..10 {
            h.observe(42);
        }
        // min == max clamps every estimate to the single observed value.
        assert_eq!(h.p50(), Some(42));
        assert_eq!(h.p90(), Some(42));
        assert_eq!(h.p99(), Some(42));
        assert_eq!(LogHistogram::default().p50(), None);
    }

    #[test]
    fn csv_quoting_round_trips_hostile_labels() {
        for name in [
            "plain",
            "has,comma",
            "has\"quote",
            "multi\nline",
            "cr\rlf,\"both\"",
        ] {
            let quoted = csv_field(name);
            let record = format!("counter,{quoted},value,1");
            let fields = split_csv_record(&record);
            assert_eq!(fields.len(), 4, "field count for {name:?}");
            assert_eq!(fields[1], name, "round-trip of {name:?}");
        }
        // Exporter path: a hostile metric name stays one logical record.
        let mut m = MetricsRegistry::new();
        m.inc("exp,\"x\".done", 7);
        let csv = m.to_csv();
        let row = csv
            .lines()
            .find(|l| l.starts_with("counter,"))
            .expect("counter row");
        let fields = split_csv_record(row);
        assert_eq!(fields[1], "exp,\"x\".done");
        assert_eq!(fields[3], "7");
    }

    #[test]
    fn ascii_dump_prints_quantiles() {
        let mut m = MetricsRegistry::new();
        m.inc("sweep.progress.done", 12);
        for v in [10, 20, 30, 40] {
            m.observe("trial_us", v);
        }
        let text = m.to_ascii();
        assert!(text.contains("sweep.progress.done"));
        assert!(text.contains("p50"), "ascii dump must show p50: {text}");
        assert!(text.contains("p99"), "ascii dump must show p99: {text}");
    }

    #[test]
    fn csv_emits_quantile_rows() {
        let mut m = MetricsRegistry::new();
        m.observe("h", 9);
        let csv = m.to_csv();
        for field in ["p50", "p90", "p99"] {
            assert!(
                csv.lines().any(|l| l == format!("histogram,h,{field},9")),
                "missing {field} row in {csv}"
            );
        }
    }
}
