//! Manifest-log robustness: no input — valid, truncated, bit-flipped,
//! or random garbage — may ever panic the salvage path, and salvage
//! never yields a record that was not written. Corruption must surface
//! as `Err` or as a salvaged manifest with a dropped-line count (see
//! "Durable files" in `docs/harness.md`).

use proptest::prelude::*;
use unxpec_harness::{
    output_digest, CompletedTrial, Manifest, PoisonedTrial, QuarantinedTrial, TimedOutTrial,
    TrialOutput,
};

/// A populated manifest exercising every record type.
fn sample_manifest() -> Manifest {
    let mut m = Manifest::new(0xdead_beef, 0x5eed);
    let mut out = TrialOutput::new("rendered body".into(), vec![]);
    out.metrics = vec![("metric_a".into(), 1.5), ("metric_b".into(), -0.25)];
    m.completed.push(CompletedTrial {
        key: "exp/var/s0".into(),
        digest: output_digest(&out),
        attempts: 1,
        output: out,
    });
    let mut truncated = TrialOutput::new("truncated body".into(), vec![]);
    truncated.truncated = true;
    m.completed.push(CompletedTrial {
        key: "exp/var/s1".into(),
        digest: output_digest(&truncated),
        attempts: 2,
        output: truncated,
    });
    m.poisoned.push(PoisonedTrial {
        key: "exp/var/s2".into(),
        error: "panicked at 'boom'".into(),
        attempts: 3,
        failures: 2,
    });
    m.timed_out.push(TimedOutTrial {
        key: "exp/var/s3".into(),
        error: "deadline exceeded".into(),
        attempts: 1,
        failures: 1,
    });
    m.quarantined.push(QuarantinedTrial {
        key: "exp/var/s4".into(),
        error: "panicked thrice".into(),
        failures: 3,
    });
    m
}

/// The manifest the first `lines` lines of `sample_manifest().to_log()`
/// describe (line 0 is the header).
fn first_lines(lines: usize) -> Manifest {
    let full = sample_manifest();
    let mut m = Manifest::new(full.spec_digest, full.root_seed);
    let mut left = lines.saturating_sub(1);
    let mut take = |n: usize| {
        let k = n.min(left);
        left -= k;
        k
    };
    m.completed = full.completed[..take(full.completed.len())].to_vec();
    m.poisoned = full.poisoned[..take(full.poisoned.len())].to_vec();
    m.timed_out = full.timed_out[..take(full.timed_out.len())].to_vec();
    m.quarantined = full.quarantined[..take(full.quarantined.len())].to_vec();
    m
}

/// Characters JSON structure is built from — input drawn here reaches
/// deeper parser layers than raw bytes do.
const JSONISH: &[char] = &[
    '{', '}', '[', ']', ',', ':', '"', '0', '1', '9', 'a', 'e', 'x', ' ', '\n', '.', '-', '\\',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes: salvage returns Ok or Err, never panics.
    #[test]
    fn parse_never_panics_on_arbitrary_input(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = Manifest::salvage(&text);
    }

    /// Arbitrary *JSON-looking* input reaches deeper parser layers and
    /// still must not panic.
    #[test]
    fn parse_never_panics_on_jsonish_input(
        indices in proptest::collection::vec(0usize..JSONISH.len(), 0..512),
    ) {
        let body: String = indices.iter().map(|&i| JSONISH[i]).collect();
        let _ = Manifest::salvage(&format!("{{{body}}}"));
        let _ = Manifest::salvage(&body);
    }

    /// Every prefix of a valid log recovers exactly its intact lines:
    /// the records whose whole line survived, no more, no fewer. A
    /// prefix that cuts the header is a typed error.
    #[test]
    fn truncation_never_panics_and_recovery_is_sound(cut in 0usize..2000) {
        let text = sample_manifest().to_log();
        let cut = cut.min(text.len());
        // The writer emits pure ASCII, so any byte index is a char
        // boundary.
        let prefix = text.get(..cut).expect("manifest log is ASCII");
        let intact = text
            .split_inclusive('\n')
            .scan(0, |end, line| {
                *end += line.len();
                Some(*end - 1)
            })
            .filter(|&line_end| line_end <= cut)
            .count();
        match Manifest::salvage(prefix) {
            Ok((recovered, dropped)) => {
                prop_assert!(intact >= 1, "recovered without an intact header");
                prop_assert_eq!(recovered, first_lines(intact));
                prop_assert!(dropped <= 1, "only the torn line drops");
            }
            Err(_) => prop_assert_eq!(intact, 0, "an intact header must load"),
        }
    }

    /// Single-byte corruption anywhere in a valid log never panics and
    /// never yields a record that differs from one that was written.
    #[test]
    fn bit_flips_never_panic(pos in 0usize..2000, flip in 1u8..=255) {
        let written = sample_manifest();
        let mut bytes = written.to_log().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok((recovered, _dropped)) = Manifest::salvage(&corrupt) {
            prop_assert_eq!(recovered.spec_digest, written.spec_digest);
            prop_assert_eq!(recovered.root_seed, written.root_seed);
            for t in &recovered.completed {
                prop_assert!(written.completed.contains(t), "invented {:?}", t);
            }
            for t in &recovered.poisoned {
                prop_assert!(written.poisoned.contains(t), "invented {:?}", t);
            }
            for t in &recovered.timed_out {
                prop_assert!(written.timed_out.contains(t), "invented {:?}", t);
            }
            for t in &recovered.quarantined {
                prop_assert!(written.quarantined.contains(t), "invented {:?}", t);
            }
        }
    }
}

#[test]
fn the_sample_manifest_round_trips_cleanly() {
    let manifest = sample_manifest();
    let (parsed, dropped) = Manifest::salvage(&manifest.to_log()).expect("round trip");
    assert_eq!(dropped, 0);
    assert_eq!(parsed, manifest);
}
