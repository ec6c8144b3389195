//! End-to-end telemetry: a traced attack round must export a valid
//! Chrome trace in which the CleanupSpec rollback is a span whose
//! duration depends on the secret — the unXpec channel, made visible.
//! The structural half validates the exported document itself —
//! bracket matching, span well-formedness, track metadata — over
//! adversarial (fault-injected) chaos captures. The last part checks
//! the JSON layer every export and durable file goes through: `parse`
//! round-trips escaped trees, agrees with `validate` on mutated
//! documents, and reads durable records back equal.

use unxpec::attack::registry::{registry, TriggerKind};
use unxpec::attack::{AttackConfig, UnxpecChannel};
use unxpec::cache::FaultInjector;
use unxpec::cpu::{Core, ProgramBuilder, Reg};
use unxpec::defense::CleanupSpec;
use unxpec::experiments::chaos::ChaosMode;
use unxpec::experiments::trace;
use unxpec::telemetry::{
    chrome_trace_json, json, rollback_spans, Event, MetricsRegistry, Telemetry,
};

#[test]
fn enabled_telemetry_does_not_perturb_timing() {
    let latencies = |attach: bool| {
        let mut chan =
            UnxpecChannel::new(AttackConfig::paper_no_es(), Box::new(CleanupSpec::new()));
        if attach {
            chan.core_mut().set_telemetry(Telemetry::ring(1 << 12));
        }
        (0..10)
            .map(|i| chan.measure_bit(i % 2 == 0))
            .collect::<Vec<u64>>()
    };
    assert_eq!(
        latencies(false),
        latencies(true),
        "observation must not change what is observed"
    );
}

#[test]
fn attack_round_trace_is_valid_chrome_json() {
    let cap = trace::run(false, 1 << 15, 0x5eed);
    let doc = cap.chrome_trace();
    json::validate(&doc).expect("trace must be valid JSON");
    assert!(doc.contains("\"traceEvents\""));
    assert!(
        doc.contains("\"name\":\"rollback\""),
        "rollback span missing"
    );
    assert!(doc.contains("\"name\":\"inst.wrong_path\""));
    assert!(doc.contains("\"name\":\"thread_name\""));
}

#[test]
fn rollback_span_duration_differs_with_the_secret() {
    let cap = trace::run(false, 1 << 15, 0x5eed);
    // The sender squash's cleanup (single L1 install, paper §IV) shows
    // up only when secret = 1.
    assert!(
        cap.cleanup1 >= cap.cleanup0 + 15,
        "rollback span must encode the secret: {} vs {} cycles",
        cap.cleanup0,
        cap.cleanup1
    );
    // Both rounds' sender spans are in the exported document with
    // exactly those durations.
    let doc = cap.chrome_trace();
    for dur in [cap.cleanup0.max(1), cap.cleanup1] {
        assert!(
            doc.contains(&format!("\"dur\":{dur}")),
            "span dur {dur} missing"
        );
    }
    // And the span pairing agrees with the raw streams.
    let sender = |events: &[Event]| {
        rollback_spans(events)
            .iter()
            .filter(|s| s.branch_pc == cap.sender_pc)
            .map(|s| s.duration)
            .max()
            .unwrap()
    };
    assert_eq!(sender(&cap.secret0), cap.cleanup0);
    assert_eq!(sender(&cap.secret1), cap.cleanup1);
}

#[test]
fn eviction_sets_add_restorations_to_the_trace() {
    let cap = trace::run(true, 1 << 15, 0x5eed);
    let restores = cap
        .secret1
        .iter()
        .filter(|e| e.name() == "rollback_restore")
        .count();
    assert!(restores >= 1, "priming the set must force a restoration");
    assert!(
        cap.cleanup1 > trace::run(false, 1 << 15, 0x5eed).cleanup1,
        "restoration makes the secret-1 rollback longer still"
    );
}

#[test]
fn metrics_dumps_are_valid_json_and_cover_the_stack() {
    let cap = trace::run(false, 1 << 15, 0x5eed);
    let doc = cap.metrics.to_json();
    json::validate(&doc).expect("metrics dump must be valid JSON");
    for key in [
        "l1.hits",
        "l2.misses",
        "mshr.capacity",
        "cleanupspec.rollbacks",
    ] {
        assert!(doc.contains(key), "metrics must include {key}");
        assert!(cap.metrics.counter(key) > 0, "{key} must be non-zero");
    }
    let csv = cap.metrics.to_csv();
    assert!(csv.starts_with("kind,name,field,value"));
}

#[test]
fn ring_keeps_the_newest_events_when_over_capacity() {
    let tel = Telemetry::ring(8);
    for cycle in 0..100 {
        tel.emit(Event::SquashEnd {
            cycle,
            branch_pc: 0,
            epoch: cycle,
        });
    }
    let events = tel.snapshot();
    assert_eq!(events.len(), 8);
    assert_eq!(tel.dropped(), 92);
    let cycles: Vec<u64> = events.iter().map(|e| e.cycle()).collect();
    assert_eq!(
        cycles,
        (92..100).collect::<Vec<_>>(),
        "newest wins, oldest first"
    );
}

// ---------------------------------------------------------------------
// Chrome-trace structural validity
// ---------------------------------------------------------------------

/// Per-program event captures of a chaos-style sweep: every
/// conditional-branch registry program driven under CleanupSpec with
/// the mixed fault plan armed — the most adversarial streams the
/// simulator produces (delayed/reordered fills, spurious evictions,
/// double squashes).
fn chaos_sweep_captures() -> Vec<(&'static str, Vec<Event>)> {
    let mut captures = Vec::new();
    for spec in registry() {
        if spec.trigger != TriggerKind::ConditionalBranch {
            continue;
        }
        let mut core = Core::table_i();
        core.set_defense(Box::new(CleanupSpec::new()));
        spec.layout().install(core.mem_mut(), spec.fn_accesses);
        core.hierarchy_mut()
            .set_fault_injector(FaultInjector::new(ChaosMode::Mixed.plan(30), 0xc4a05));
        let tel = Telemetry::ring(1 << 16);
        core.set_telemetry(tel.clone());
        let mut vb = ProgramBuilder::new();
        vb.mov(Reg(1), spec.layout().secret_addr().raw());
        vb.load(Reg(2), Reg(1), 0);
        vb.halt();
        let victim = vb.build();
        for secret in [false, true, true, false] {
            spec.layout().set_secret(core.mem_mut(), secret);
            core.run(&victim);
            core.run(spec.program());
        }
        assert_eq!(tel.dropped(), 0, "{}: capture ring overflowed", spec.name);
        captures.push((spec.name, tel.snapshot()));
    }
    assert!(!captures.is_empty());
    captures
}

/// Every squash bracket must be balanced — each `squash_begin` has
/// exactly one matching `squash_end` with the same epoch, later in the
/// stream — even with fault injection perturbing fills mid-rollback.
#[test]
fn squash_brackets_are_balanced_in_chaos_captures() {
    for (name, events) in chaos_sweep_captures() {
        let mut open: Vec<u64> = Vec::new();
        let mut begins = 0usize;
        for e in &events {
            match *e {
                Event::SquashBegin { epoch, .. } => {
                    begins += 1;
                    open.push(epoch);
                }
                Event::SquashEnd { cycle, epoch, .. } => {
                    let pos = open
                        .iter()
                        .rposition(|&ep| ep == epoch)
                        .unwrap_or_else(|| panic!("{name}: end of epoch {epoch} without begin"));
                    open.remove(pos);
                    let _ = cycle;
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "{name}: unmatched squash_begin: {open:?}");
        // The exporter turns every bracket into a complete X span — no
        // dangling B/E-style halves survive into the document.
        let spans = rollback_spans(&events);
        assert_eq!(spans.len(), begins, "{name}: bracket lost in pairing");
        let doc = chrome_trace_json(&events);
        json::validate(&doc).expect("valid chaos trace JSON");
        assert!(!doc.contains("\"ph\":\"B\"") && !doc.contains("\"ph\":\"E\""));
        assert_eq!(
            doc.matches("\"name\":\"rollback\",\"ph\":\"X\"").count(),
            begins,
            "{name}: every bracket must export as one X span"
        );
    }
}

/// Structural invariants of the exported document, checked through the
/// JSON parser (not substring luck): X spans have positive durations
/// and sane bounds, defense-track spans are monotone in document order
/// and never partially overlap, instants are thread-scoped, and every
/// referenced track carries `thread_name` metadata.
#[test]
fn chrome_spans_are_well_formed_and_tracks_are_monotone() {
    for (name, events) in chaos_sweep_captures() {
        let doc = chrome_trace_json(&events);
        let root = json::parse(&doc).expect("parse chaos trace");
        let trace_events = root
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");

        let mut named_tracks = std::collections::BTreeSet::new();
        let mut used_tracks = std::collections::BTreeSet::new();
        let mut defense_spans: Vec<(u64, u64)> = Vec::new();
        let mut last_defense_ts = 0u64;
        for ev in trace_events {
            let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
            let tid = ev.get("tid").and_then(|v| v.as_u64());
            match ph {
                "M" => {
                    if let Some(tid) = tid {
                        named_tracks.insert(tid);
                    }
                }
                "X" => {
                    let tid = tid.expect("span tid");
                    used_tracks.insert(tid);
                    let ts = ev.get("ts").and_then(|v| v.as_u64()).expect("span ts");
                    let dur = ev.get("dur").and_then(|v| v.as_u64()).expect("span dur");
                    assert!(dur >= 1, "{name}: zero-width span at ts {ts}");
                    // tid 5 is the defense track (see Track::tid).
                    if tid == 5 {
                        assert!(
                            ts >= last_defense_ts,
                            "{name}: defense spans out of order at ts {ts}"
                        );
                        last_defense_ts = ts;
                        defense_spans.push((ts, ts + dur));
                    }
                }
                "i" => {
                    let tid = tid.expect("instant tid");
                    used_tracks.insert(tid);
                    assert_eq!(
                        ev.get("s").and_then(|v| v.as_str()),
                        Some("t"),
                        "{name}: instants must be thread-scoped"
                    );
                }
                other => panic!("{name}: unexpected phase {other:?}"),
            }
        }
        assert!(
            used_tracks.is_subset(&named_tracks),
            "{name}: events on unnamed tracks: {used_tracks:?} vs {named_tracks:?}"
        );
        // Well-formed nesting on the defense track: overlapping
        // rollback brackets are legal only when fault injection
        // restarted a cleanup walk (`SquashDuringRollback` charges the
        // first bracket extra cycles, pushing its redirect past the
        // next resolve) — each overlap must be explained by an
        // injected fault in the same capture.
        let faults = events
            .iter()
            .filter(|e| e.name() == "fault_injected")
            .count();
        for pair in defense_spans.windows(2) {
            let ((s1, e1), (s2, e2)) = (pair[0], pair[1]);
            if s2 < e1 && e2 > e1 {
                assert!(
                    faults > 0,
                    "{name}: rollback spans [{s1},{e1}) and [{s2},{e2}) overlap \
                     without any injected fault to explain it"
                );
            }
        }
        assert!(!defense_spans.is_empty(), "{name}: no rollback spans");
        // Undo instants happen inside their enclosing bracket.
        for e in &events {
            if matches!(
                e,
                Event::RollbackInvalidate { .. }
                    | Event::RollbackRestore { .. }
                    | Event::MshrCancel { .. }
            ) {
                let c = e.cycle();
                assert!(
                    defense_spans.iter().any(|&(s, en)| s <= c && c <= en),
                    "{name}: undo event at cycle {c} outside every rollback span"
                );
            }
        }
    }
}

/// Without fault injection the strong invariant holds: rollback
/// brackets on the defense track are strictly disjoint, in cycle
/// order, and every undo instant falls inside its bracket.
#[test]
fn unfaulted_rollback_spans_are_disjoint_and_contain_their_undos() {
    let cap = trace::run(false, 1 << 15, 0x5eed);
    for events in [&cap.secret0, &cap.secret1] {
        let spans = rollback_spans(events);
        assert!(!spans.is_empty());
        for pair in spans.windows(2) {
            assert!(
                pair[1].start >= pair[0].start + pair[0].duration,
                "unfaulted rollback brackets must be disjoint: {pair:?}"
            );
        }
        for e in events.iter() {
            if matches!(
                e,
                Event::RollbackInvalidate { .. }
                    | Event::RollbackRestore { .. }
                    | Event::MshrCancel { .. }
            ) {
                let c = e.cycle();
                assert!(
                    spans
                        .iter()
                        .any(|s| s.start <= c && c <= s.start + s.duration),
                    "undo event at cycle {c} outside every rollback bracket"
                );
            }
        }
    }
}

#[test]
fn registry_merge_combines_parallel_shards() {
    let mut a = MetricsRegistry::new();
    a.inc("squashes", 3);
    a.observe("squash.cleanup_cycles", 22);
    let mut b = MetricsRegistry::new();
    b.inc("squashes", 2);
    b.observe("squash.cleanup_cycles", 1);
    a.merge(&b);
    assert_eq!(a.counter("squashes"), 5);
    json::validate(&a.to_json()).expect("merged dump stays valid");
}

// ---------------------------------------------------------------------------
// The JSON layer: `parse` round-trips what the writers produce, agrees
// with `validate` on every mutated document, and reads durable records
// back equal.
// ---------------------------------------------------------------------------

mod json_properties {
    use std::fmt::{self, Write as _};

    use proptest::prelude::*;
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;
    use unxpec::experiments::seeding::Fnv64;
    use unxpec::telemetry::json::{self, escape, Value};
    use unxpec_harness::durable::{self, field, hex, parse_hex, Record};
    use unxpec_harness::{output_digest, TrialOutput};

    /// Characters that stress the string paths: the escaped ones,
    /// control characters, and one- to four-byte UTF-8.
    const ALPHABET: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '/',
        '"',
        '\\',
        '\n',
        '\t',
        '\r',
        '\u{0}',
        '\u{1}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '\u{2028}',
        '日',
        '本',
        '\u{1f600}',
    ];

    fn text(rng: &mut TestRng, max: u64) -> String {
        (0..rng.below(max))
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    /// A finite number: an integer, or a fraction over a wide range of
    /// magnitudes.
    fn number(rng: &mut TestRng) -> f64 {
        if rng.below(2) == 0 {
            rng.below(1 << 53) as f64 - (1u64 << 52) as f64
        } else {
            any::<f64>().new_value(rng)
        }
    }

    /// Random `Value` trees, at most `depth` containers deep.
    struct Trees {
        depth: u32,
    }

    impl Trees {
        fn tree(&self, rng: &mut TestRng, depth: u32) -> Value {
            let kinds = if depth == 0 { 4 } else { 6 };
            match rng.below(kinds) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 1),
                2 => Value::Num(number(rng)),
                3 => Value::Str(text(rng, 12)),
                4 => Value::Arr(
                    (0..rng.below(5))
                        .map(|_| self.tree(rng, depth - 1))
                        .collect(),
                ),
                _ => Value::Obj(
                    (0..rng.below(5))
                        .map(|_| (text(rng, 6), self.tree(rng, depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    impl Strategy for Trees {
        type Value = Value;
        fn new_value(&self, rng: &mut TestRng) -> Value {
            self.tree(rng, self.depth)
        }
    }

    /// Writes `v` the way the exporters do: strings through `escape`,
    /// numbers through Rust's shortest round-trip formatting, and a
    /// varying amount of whitespace around the structural characters.
    fn render(v: &Value, rng: &mut TestRng, out: &mut String) {
        let ws = |rng: &mut TestRng| [" ", "", "\n", "\t ", "\r\n"][rng.below(5) as usize];
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&n.to_string()),
            Value::Str(s) => out.push_str(&format!("\"{}\"", escape(s))),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    out.push_str(ws(rng));
                    render(item, rng, out);
                }
                out.push_str(ws(rng));
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, item)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    out.push_str(&format!("{}\"{}\"{}:", ws(rng), escape(k), ws(rng)));
                    out.push_str(ws(rng));
                    render(item, rng, out);
                }
                out.push_str(ws(rng));
                out.push('}');
            }
        }
    }

    fn rendered(v: &Value, seed: u64) -> String {
        let mut out = String::new();
        render(v, &mut TestRng::from_seed(seed), &mut out);
        out
    }

    /// `parse` and `validate` agree on `doc`: both accept, or both
    /// reject with the same error text.
    fn agree(doc: &str) {
        assert_eq!(
            json::parse(doc).map(|_| ()),
            json::validate(doc),
            "parse and validate disagree on {doc:?}"
        );
    }

    /// A cache-entry-shaped record: key and digest before the checksum,
    /// the trial output after it, as the result cache lays it out.
    #[derive(Debug, PartialEq)]
    struct EntryLike {
        key: u64,
        digest: u64,
        output: TrialOutput,
    }

    impl Record for EntryLike {
        const VERSION: u64 = 1;

        fn checksum(&self) -> u64 {
            let mut h = Fnv64::new();
            h.mix(Self::VERSION).mix(self.key).mix(self.digest);
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
            Ok(EntryLike {
                key: field(doc, "key", parse_hex)?,
                digest: field(doc, "digest", parse_hex)?,
                output: durable::parse_output(doc)?,
            })
        }
    }

    /// Random trial outputs with adversarial rendered text and names.
    struct Outputs;

    impl Strategy for Outputs {
        type Value = TrialOutput;
        fn new_value(&self, rng: &mut TestRng) -> TrialOutput {
            let mut output = TrialOutput::new(text(rng, 200), vec![]);
            output.truncated = rng.below(2) == 1;
            output.metrics = (0..rng.below(6))
                .map(|_| (text(rng, 8), number(rng)))
                .collect();
            output
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn escaped_trees_round_trip_exactly(tree in Trees { depth: 4 }, seed in any::<u64>()) {
            let doc = rendered(&tree, seed);
            prop_assert_eq!(json::validate(&doc), Ok(()));
            prop_assert_eq!(json::parse(&doc), Ok(tree), "{:?}", doc);
        }

        #[test]
        fn mutated_documents_parse_exactly_when_they_validate(
            tree in Trees { depth: 3 },
            seed in any::<u64>(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let doc = rendered(&tree, seed).into_bytes();
            let at = at % (doc.len() + 1);
            let mut flipped = doc.clone();
            if let Some(b) = flipped.get_mut(at) {
                *b ^= byte | 1;
            }
            let mut inserted = doc.clone();
            let structural = b"[]{}\",:\\u0-.eE tfn";
            inserted.insert(at, structural[usize::from(byte) % structural.len()]);
            for variant in [doc[..at].to_vec(), flipped, inserted] {
                agree(&String::from_utf8_lossy(&variant));
            }
        }

        #[test]
        fn cache_entry_records_parse_back_equal(
            output in Outputs,
            key in any::<u64>(),
        ) {
            let record = EntryLike { key, digest: output_digest(&output), output };
            let line = durable::render(&record);
            prop_assert_eq!(line.matches('\n').count(), 1, "one line: {:?}", line);
            prop_assert_eq!(durable::parse::<EntryLike>(&line), Ok(record));
        }
    }

    #[test]
    fn handwritten_mutations_agree() {
        for doc in [
            "",
            " ",
            "[",
            "[[",
            "{\"a\"",
            "{\"a\":",
            "\"\\u12\"",
            "\"\\ud83d\\ude0\"",
            "1.",
            "-",
            "1e",
            "[1,]",
            "{,}",
            "nul",
            "[\"\u{1}\"]",
            "\"a\" \"b\"",
            "{\"a\":1 \"b\":2}",
        ] {
            agree(doc);
        }
    }
}
