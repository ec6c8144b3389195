//! Static↔dynamic replay harness for leak witnesses.
//!
//! ```text
//! witness-replay [--json] [--rounds N] [--sweep N] [--seed N] [<name>...]
//! ```
//!
//! For every selected program (default: the full attack registry plus
//! the benign expected-clean registry) this binary re-runs the static
//! analysis, extracts one [`LeakWitness`](unxpec::analysis::LeakWitness) per leak verdict, and drives
//! each witness through the cycle simulator under the defense it names,
//! asserting that the *predicted* observable materializes: a
//! secret-dependent cache-footprint difference under `unsafe`, a
//! secret-dependent rollback-cycle delta under `cleanupspec`. For every
//! clean (program, defense) verdict it runs a seeded bounded refutation
//! sweep that tries to falsify the clean claim dynamically.
//!
//! `--json` emits the deterministic [`ReplayReport`] document (programs
//! sorted by name — the exact byte format `witness_golden.json` pins in
//! CI). Human output prints one line per obligation.
//!
//! Exit status: 0 when every obligation held (all witnesses confirmed,
//! all sweeps dry, all registry shapes matched), 1 when any obligation
//! failed or analysis errored, 2 on usage errors.

use std::process::ExitCode;

use unxpec::analysis::{replay_program, AnalysisConfig, ReplayConfig, ReplayReport};
use unxpec::attack::{benign_registry, registry, ProgramSpec};

fn parse_u64(flag: &str, value: Option<String>) -> Result<u64, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse::<u64>()
        .map_err(|_| format!("{flag} expects an unsigned integer, got {raw:?}"))
}

fn print_human(replay: &unxpec::analysis::ProgramReplay) {
    let verdict = if replay.all_confirmed() { "ok" } else { "FAIL" };
    println!("{} [{verdict}]", replay.program);
    if let Some(detail) = &replay.shape_detail {
        println!("  shape mismatch: {detail}");
    }
    for c in &replay.checks {
        let status = if c.confirmed {
            "confirmed"
        } else {
            "UNCONFIRMED"
        };
        println!(
            "  witness {}/{}: {status} (delta {:+.2} cy) — {}",
            c.witness.defense.label(),
            c.witness.observable.kind(),
            c.delta,
            c.detail,
        );
    }
    for r in &replay.refutations {
        match &r.counterexample {
            None => println!(
                "  sweep {}: dry over {} pairs (max timing delta {:.2} cy)",
                r.defense.label(),
                r.pairs_tried,
                r.max_timing_delta,
            ),
            Some(cx) => println!("  sweep {}: COUNTEREXAMPLE — {cx}", r.defense.label()),
        }
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut names: Vec<String> = Vec::new();
    let mut config = ReplayConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let parsed = match arg.as_str() {
            "--json" => {
                json = true;
                Ok(())
            }
            "--rounds" => parse_u64("--rounds", args.next()).map(|n| config.rounds = n as usize),
            "--sweep" => {
                parse_u64("--sweep", args.next()).map(|n| config.sweep_secrets = n as usize)
            }
            "--seed" => parse_u64("--seed", args.next()).map(|n| config.seed = n),
            other if other.starts_with('-') => Err(format!("unknown flag {other:?}")),
            other => {
                names.push(other.to_owned());
                Ok(())
            }
        };
        if let Err(msg) = parsed {
            eprintln!("witness-replay: {msg}");
            return ExitCode::from(2);
        }
    }
    if config.rounds == 0 {
        eprintln!("witness-replay: --rounds must be at least 1");
        return ExitCode::from(2);
    }
    let mut all = registry();
    all.extend(benign_registry());
    let selected: Vec<ProgramSpec> = if names.is_empty() {
        all
    } else {
        let mut sel = Vec::new();
        for n in &names {
            match all.iter().find(|s| s.name == *n) {
                Some(s) => sel.push(s.clone()),
                None => {
                    eprintln!("witness-replay: unknown program {n:?}");
                    return ExitCode::from(2);
                }
            }
        }
        sel
    };
    let knobs = AnalysisConfig::default();
    let mut programs = Vec::new();
    for spec in &selected {
        match replay_program(spec, &config, &knobs) {
            Ok((_, replay)) => programs.push(replay),
            Err(e) => {
                eprintln!("witness-replay: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = ReplayReport { programs, config };
    if json {
        print!("{}", report.to_json());
    } else {
        for p in &report.programs {
            print_human(p);
        }
        println!(
            "{} witnesses, {} confirmed; all obligations {}",
            report.total_witnesses(),
            report.confirmed_witnesses(),
            if report.all_confirmed() {
                "held"
            } else {
                "FAILED"
            },
        );
    }
    if report.all_confirmed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
