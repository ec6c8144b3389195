//! The exactness-envelope table in `docs/simulator_internals.md` names
//! the test that guards each envelope as `path::function`. Every named
//! test must exist, so the table cannot silently point at a deleted or
//! renamed test.

use std::path::Path;

/// Each row of the envelope table: its envelope and the
/// `(path, function)` entries of its test column.
fn envelope_rows(doc: &str) -> Vec<(String, Vec<(String, String)>)> {
    let section = doc
        .split("## Exactness envelopes")
        .nth(1)
        .expect("the envelope section");
    let table = section.split("\n## ").next().unwrap_or(section);
    // Skip the header row and its separator.
    let rows = table.lines().filter(|l| l.starts_with('|')).skip(2);
    rows.map(|line| {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let tests = cells
            .get(3)
            .copied()
            .unwrap_or_default()
            .split('`')
            .skip(1)
            .step_by(2)
            .filter_map(|entry| entry.rsplit_once("::"))
            .map(|(path, function)| (path.to_string(), function.to_string()))
            .collect();
        (cells.get(1).copied().unwrap_or_default().to_string(), tests)
    })
    .collect()
}

#[test]
fn every_envelope_names_tests_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("docs/simulator_internals.md")).expect("doc");
    let rows = envelope_rows(&doc);
    let envelopes: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        envelopes,
        [
            "observed ≡ unobserved",
            "exact rollback",
            "defense-interface digests",
            "mapped ≡ written",
            "fast-forward ≡ detailed",
            "parallel ≡ serial",
            "cache hit ≡ cold run",
            "resumed ≡ uninterrupted",
            "abstract ⊒ concrete",
        ]
    );
    for (envelope, tests) in &rows {
        assert!(!tests.is_empty(), "{envelope}: no test named");
        for (path, function) in tests {
            assert!(
                path.starts_with("tests/")
                    || (path.starts_with("crates/")
                        && (path.contains("/src/") || path.contains("/tests/"))),
                "{envelope}: {path} is not a test location"
            );
            let source = std::fs::read_to_string(root.join(path))
                .unwrap_or_else(|e| panic!("{envelope}: read {path}: {e}"));
            assert!(
                source.contains(&format!("fn {function}(")),
                "{envelope}: {path} has no test `{function}`"
            );
        }
    }
}
