//! Canonical, versioned per-cell digests — the content-address every
//! cached trial result is stored under.
//!
//! The spec digest ([`SweepSpec::digest`]) only has to distinguish
//! *specs*; the result cache in `unxpec-service`
//! needs a stable address for every *cell* of the sweep grid, valid
//! across processes, machines, and releases. [`cell_digest`] covers
//! exactly the inputs that determine a trial's output — experiment,
//! variant, seed index, the scale's five sample counts, the root seed
//! — plus two explicit version stamps:
//!
//! * [`DIGEST_VERSION`] — the hashing scheme itself. Bump it if the
//!   field set or combination rule ever changes, so old cache entries
//!   miss instead of aliasing.
//! * [`SIMULATOR_VERSION`] — the simulator's behavioral version. Bump
//!   it whenever a change makes any trial produce different output for
//!   the same `(seed, scale, variant)`, so a persistent cache can
//!   never serve results computed by older simulator semantics.
//!
//! Hashing is *field-order independent*: every field is hashed as its
//! own tagged `name=value` string and the per-field hashes are
//! XOR-combined, so reordering fields (or the code that lists them)
//! cannot silently change the digest. A committed golden spec pins the
//! digest in `tests/service.rs` — if it ever moves without a
//! deliberate version bump, that regression test fails.

use unxpec::experiments::seeding::{fnv1a64, Fnv64};

use crate::spec::SweepSpec;

/// Version of the digest scheme (field set + combination rule).
///
/// v2: added the execution-mode field (two-speed core) — every cell
/// digest moved, so v1 cache entries miss instead of aliasing across
/// the mode axis. Every trial now runs on the detailed core, and the
/// field stays as the constant `mode=detailed` so v2 entries keep
/// their addresses.
pub const DIGEST_VERSION: u32 = 2;

/// Behavioral version of the simulator whose outputs are being cached.
/// Part of every cell digest: bump it when simulator semantics change
/// and every cached result is invalidated at once.
///
/// A bump also moves the benchmark's pinned counts. Every cell digest
/// hashes this version, and the journal's `done` records print cell
/// digests unpadded ([`durable::hex`](crate::durable::hex), `{:#x}`),
/// so the journal's byte count changes with the digests' leading
/// zeros. perfbench pins `service-warm`'s `journal_bytes` in
/// `perfbench/golden_counts.txt`, so a bump belongs in a change that
/// may update the benchmark's golden counts.
pub const SIMULATOR_VERSION: u32 = 1;

/// Combines tagged `name=value` fields into one digest, independent of
/// the order the fields are listed in. Each field hashes on its own
/// (`fnv1a64("name=value")`) and the results XOR together — XOR is
/// commutative, so two field lists with the same *set* of fields are
/// guaranteed the same digest. The accumulated value is then chained
/// through one more FNV round keyed on the field count, so an empty
/// list and a list whose hashes cancel cannot alias trivially.
pub fn canonical_digest<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> u64 {
    let mut acc = 0u64;
    let mut count = 0u64;
    for (name, value) in fields {
        acc ^= fnv1a64(&format!("{name}={value}"));
        count += 1;
    }
    Fnv64::new().mix(acc).mix(count).finish()
}

/// The stable content address of one trial cell: everything that
/// determines the trial's output, and nothing that doesn't (worker
/// count, retries, state paths, and the spec's *selection* axes all
/// stay out).
pub fn cell_digest(spec: &SweepSpec, experiment: &str, variant: &str, seed_index: u64) -> u64 {
    canonical_digest([
        ("digest-version", DIGEST_VERSION.to_string()),
        ("simulator-version", SIMULATOR_VERSION.to_string()),
        ("experiment", experiment.to_string()),
        ("variant", variant.to_string()),
        ("seed-index", seed_index.to_string()),
        ("timing-samples", spec.scale.timing_samples.to_string()),
        ("pdf-samples", spec.scale.pdf_samples.to_string()),
        ("leak-bits", spec.scale.leak_bits.to_string()),
        ("workload-warmup", spec.scale.workload_warmup.to_string()),
        ("workload-measure", spec.scale.workload_measure.to_string()),
        ("root-seed", format!("{:#x}", spec.root_seed)),
        ("mode", "detailed".to_string()),
    ])
}

/// The stable identity of one *submission*: the cell-identity fields
/// plus the selection axes (experiments, variants, seed count) that
/// [`cell_digest`] deliberately leaves out. Two submissions with the
/// same digest enumerate the same trial list and produce the same
/// result document, which is what lets the sweep service treat a
/// re-submitted spec as a re-attach to the existing job instead of a
/// duplicate — the idempotency key for client session resume.
pub fn submission_digest(spec: &SweepSpec) -> u64 {
    let variants = match &spec.variants {
        Some(v) => v.join(","),
        None => "*".to_string(),
    };
    canonical_digest([
        ("identity", spec.canonical_string()),
        ("experiments", spec.experiments.join(",")),
        ("variants", variants),
        ("seeds", spec.seeds.to_string()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_order_does_not_matter() {
        let a = canonical_digest([("x", "1".to_string()), ("y", "2".to_string())]);
        let b = canonical_digest([("y", "2".to_string()), ("x", "1".to_string())]);
        assert_eq!(a, b);
        let c = canonical_digest([("x", "2".to_string()), ("y", "1".to_string())]);
        assert_ne!(a, c, "values are bound to their field names");
    }

    #[test]
    fn every_identity_field_moves_the_cell_digest() {
        let spec = SweepSpec::quick();
        let base = cell_digest(&spec, "rollback", "es", 0);
        assert_ne!(base, cell_digest(&spec, "rollback", "no-es", 0));
        assert_ne!(base, cell_digest(&spec, "pdf", "es", 0));
        assert_ne!(base, cell_digest(&spec, "rollback", "es", 1));
        let mut other = spec.clone();
        other.root_seed ^= 1;
        assert_ne!(base, cell_digest(&other, "rollback", "es", 0));
        let mut other = spec.clone();
        other.scale.pdf_samples += 1;
        assert_ne!(base, cell_digest(&other, "rollback", "es", 0));
    }

    #[test]
    fn submission_digest_tracks_selection_axes_too() {
        let a = SweepSpec::quick();
        let mut b = SweepSpec::quick();
        assert_eq!(submission_digest(&a), submission_digest(&b));
        b.seeds += 1;
        assert_ne!(
            submission_digest(&a),
            submission_digest(&b),
            "growing the grid is a different submission"
        );
        let mut c = SweepSpec::quick();
        c.experiments = vec!["rollback".into()];
        assert_ne!(submission_digest(&a), submission_digest(&c));
        let mut d = SweepSpec::quick();
        d.variants = Some(vec!["es".into()]);
        assert_ne!(submission_digest(&a), submission_digest(&d));
        let mut e = SweepSpec::quick();
        e.root_seed ^= 1;
        assert_ne!(submission_digest(&a), submission_digest(&e));
    }

    #[test]
    fn selection_axes_do_not_move_the_cell_digest() {
        let mut a = SweepSpec::quick();
        let mut b = SweepSpec::quick();
        a.experiments = vec!["rollback".into()];
        b.experiments = vec!["rollback".into(), "pdf".into()];
        b.seeds += 3;
        b.variants = Some(vec!["es".into()]);
        assert_eq!(
            cell_digest(&a, "rollback", "es", 0),
            cell_digest(&b, "rollback", "es", 0),
            "growing or narrowing the grid must keep cached cells valid"
        );
    }
}
