//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints one JSON object as the last line of standard output:
//! `{"correct","attempted","failed","metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones; the traced run also writes its spans to
//! `.bench_out/trace-<workload>-<seed>.json`. Standard error gets the
//! run's simulated counts; at a seed `golden_counts.txt` pins, counts
//! that differ make the run incorrect. Exit code 0 when the run
//! completed (failed ops and differing counts are reported, not
//! fatal), 1 when set-up failed, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workloads::Kind;
use perfbench::{run, Options};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

fn usage(why: &str) -> ExitCode {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Kind::parse(&value) {
                Some(k) => kind = Some(k),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed needs an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = v,
                _ => return usage("--seconds needs a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(kind) = kind else {
        return usage("--workload is required");
    };
    let opts = Options {
        kind,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(".bench_out"),
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", kind.name());
            return ExitCode::from(1);
        }
    };
    if let Some(spans) = &report.spans_json {
        let path = opts
            .out_dir
            .join(format!("trace-{}-{seed}.json", kind.name()));
        if let Err(e) = std::fs::write(&path, spans) {
            eprintln!("perfbench: write {}: {e}", path.display());
        }
    }
    eprintln!(
        "perfbench: {} seed {seed}: {} ops, {} failed",
        kind.name(),
        report.attempted,
        report.failed
    );
    // The counts of ops 0..COUNT_OPS, in the form golden_counts.txt
    // pins them.
    let counts = format!("{} {seed} {}", kind.name(), report.counts.render());
    eprintln!("perfbench: counts {counts}");
    if report.counts_match == Some(false) {
        eprintln!("perfbench: counts differ from golden_counts.txt, which has");
        let pinned = perfbench::counts::golden(kind.name(), seed).unwrap_or_default();
        eprintln!("perfbench: counts {} {seed} {pinned}", kind.name());
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
