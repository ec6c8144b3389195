//! The reproduction scorecard at quick scale: every headline claim of
//! the paper, measured and checked against its band. At paper scale,
//! every claim with a figure section prints that section's value.

use unxpec::experiments::seeding::DEFAULT_ROOT_SEED;
use unxpec::experiments::{scorecard, Figures, Scale};

#[test]
fn quick_scorecard_passes_everything() {
    let card = scorecard::run(&Figures::new(Scale::quick(), DEFAULT_ROOT_SEED));
    assert!(
        card.all_pass(),
        "failing checks:\n{}",
        card.checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| format!("  {} = {} (band {})", c.claim, c.measured, c.band))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(card.checks.len(), 15);
}

/// The lines of the section titled `title` in `transcript`, banner
/// excluded.
fn section<'a>(transcript: &'a str, title: &str) -> Vec<&'a str> {
    let banner = format!("==== {title} ====");
    transcript
        .lines()
        .skip_while(|line| *line != banner)
        .skip(1)
        .take_while(|line| !line.starts_with("==== "))
        .collect()
}

/// The text of `line` between `before` and the next `after`.
fn between<'a>(line: &'a str, before: &str, after: &str) -> &'a str {
    let rest = &line[line.find(before).expect("marker") + before.len()..];
    &rest[..rest.find(after).expect("end marker")]
}

/// The "measured" cell of the scorecard row whose claim starts with
/// `claim`.
fn measured<'a>(card: &[&'a str], claim: &str) -> &'a str {
    let row = card
        .iter()
        .find(|line| line.trim_start().starts_with("PASS") && line.contains(claim))
        .unwrap_or_else(|| panic!("no passing scorecard row {claim:?}"));
    let cells: Vec<&str> = row.split("  ").filter(|c| !c.trim().is_empty()).collect();
    cells[cells.len() - 2].trim()
}

#[test]
fn paper_transcript_prints_one_value_per_claim() {
    let transcript = std::fs::read_to_string("experiments_output.txt").expect("transcript");
    let card = section(&transcript, "Reproduction scorecard");
    assert!(card.contains(&"Reproduction scorecard: 15/15 checks pass"));

    for (title, claim) in [
        ("Fig. 7 — latency PDF (no eviction sets)", "Fig.7:"),
        ("Fig. 8 — latency PDF (eviction sets)", "Fig.8:"),
    ] {
        let line = section(&transcript, title)
            .into_iter()
            .find(|line| line.contains("mean difference = "))
            .expect("mean difference line");
        let value = between(line, "mean difference = ", " cycles");
        assert_eq!(measured(&card, claim), format!("{value} cy"), "{claim}");
    }

    for (title, claim) in [
        ("Fig. 10 — secret leakage (no eviction sets)", "Fig.10:"),
        ("Fig. 11 — secret leakage (eviction sets)", "Fig.11:"),
    ] {
        let line = section(&transcript, title)
            .into_iter()
            .find(|line| line.contains("accuracy "))
            .expect("accuracy line");
        let value = between(line, "accuracy ", "%");
        assert_eq!(measured(&card, claim), format!("{value}%"), "{claim}");
    }

    let fig12 = section(&transcript, "Fig. 12 — constant-time rollback overhead");
    let columns = |label: &str| -> Vec<&str> {
        fig12
            .iter()
            .find(|line| line.trim_start().starts_with(label))
            .unwrap_or_else(|| panic!("no Fig. 12 {label:?} row"))
            .split_whitespace()
            .skip(1)
            .collect()
    };
    let (schemes, average) = (columns("workload"), columns("average"));
    for (scheme, claim) in [
        ("no-const", "Fig.12: CleanupSpec without constant"),
        ("const=25", "Fig.12: average slowdown at const=25"),
        ("const=65", "Fig.12: average slowdown at const=65"),
    ] {
        let at = schemes.iter().position(|s| *s == scheme).expect("scheme");
        let ratio: f64 = average[at].parse().expect("slowdown ratio");
        let percent = format!("{:.1}%", (ratio - 1.0) * 100.0);
        assert_eq!(measured(&card, claim), percent, "{claim}");
    }
}
