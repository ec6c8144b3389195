//! Static transient-leakage analysis of the registered programs.
//!
//! ```text
//! analyze [--json] [--list] [--witnesses] [<name>...]
//! ```
//!
//! With no names, analyzes every entry in the attack-program registry
//! (`spectre`, `spectre_v2`, `spectre_rsb`, `eviction`, `multilevel`,
//! `smt`, `adaptive`) plus the benign expected-clean registry
//! (`switch_join`, `masked_stride`). The default output is a
//! human-readable verdict table per program; `--json` emits one
//! deterministic JSON document with programs sorted by name (the exact
//! byte format `analysis_golden.json` pins in CI). `--witnesses`
//! additionally extracts one concrete [`LeakWitness`](unxpec::analysis::LeakWitness) per leak verdict
//! — the counterexample the `witness-replay` binary checks dynamically.
//!
//! Exit status: 0 on success (a leak verdict is the *expected* result
//! for attack programs, not an error), 1 when analysis or witness
//! extraction fails on a program, 2 on usage errors (unknown names).

use std::process::ExitCode;

use unxpec::analysis::{
    analyze, document, witness, AnalysisError, DefenseModel, ProgramAnalysis, SecretRegion,
};
use unxpec::attack::{benign_registry, registry, ProgramSpec};
use unxpec::cpu::CoreConfig;

fn analyze_spec(spec: &ProgramSpec) -> Result<ProgramAnalysis, AnalysisError> {
    if spec.program().is_empty() {
        return Err(AnalysisError::EmptyProgram {
            program: spec.name.to_owned(),
        });
    }
    let secrets: Vec<SecretRegion> =
        SecretRegion::from_layout(spec.layout().memory_layout(), "SECRET")
            .into_iter()
            .collect();
    Ok(analyze(
        spec.name,
        spec.program(),
        &secrets,
        &CoreConfig::table_i(),
    ))
}

fn print_human(spec: &ProgramSpec, a: &ProgramAnalysis) {
    println!("{} — {}", spec.name, spec.description);
    println!(
        "  {} instructions, {} speculation points, {} windowed transmitters, {} demoted",
        a.instructions,
        a.spec_points.len(),
        a.windowed.len(),
        a.demoted.len()
    );
    for wt in &a.windowed {
        println!(
            "  transmitter pc {} (via {} at pc {}, distance {}, {}) chain {:?}",
            wt.transmitter.pc,
            wt.spec_kind.label(),
            wt.spec_pc,
            wt.distance,
            wt.status.label(),
            wt.transmitter.chain
        );
    }
    for &pc in &a.demoted {
        println!("  demoted candidate pc {pc} (join artifact, no confirming path)");
    }
    for d in DefenseModel::ALL {
        let v = a.verdict(d);
        let channel = match v {
            unxpec::analysis::Verdict::Leak(ch) => format!(" ({})", ch.label()),
            unxpec::analysis::Verdict::Clean => String::new(),
        };
        println!("  {:>13}: {}{}", d.label(), v.label(), channel);
    }
    println!();
}

fn print_witnesses_human(spec: &ProgramSpec, ws: &[unxpec::analysis::LeakWitness]) {
    if ws.is_empty() {
        println!("  no witnesses ({}: clean)", spec.name);
        return;
    }
    for w in ws {
        let (l0, l1) = w.observable.lines();
        println!(
            "  witness [{}/{}]: trigger pc {} -> transmitter pc {}, pair ({},{}) -> lines ({l0},{l1})",
            w.defense.label(),
            w.observable.kind(),
            w.trigger_pc,
            w.transmitter_pc,
            w.secret_pair.0,
            w.secret_pair.1,
        );
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut list = false;
    let mut witnesses = false;
    let mut names: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--witnesses" => witnesses = true,
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::from(2);
            }
            other => names.push(other.to_owned()),
        }
    }
    let mut all = registry();
    all.extend(benign_registry());
    if list {
        for s in &all {
            println!("{} — {}", s.name, s.description);
        }
        return ExitCode::SUCCESS;
    }
    let selected: Vec<&ProgramSpec> = if names.is_empty() {
        all.iter().collect()
    } else {
        let mut sel = Vec::new();
        for n in &names {
            match all.iter().find(|s| s.name == *n) {
                Some(s) => sel.push(s),
                None => {
                    eprintln!("unknown program {n:?}; use --list");
                    return ExitCode::from(2);
                }
            }
        }
        sel
    };
    let mut analyses = Vec::new();
    for s in &selected {
        match analyze_spec(s) {
            Ok(a) => analyses.push(a),
            Err(e) => {
                eprintln!("analyze: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if witnesses {
        let mut extracted = Vec::new();
        for (s, a) in selected.iter().zip(&analyses) {
            match witness::extract(s, a) {
                Ok(ws) => extracted.push(ws),
                Err(e) => {
                    eprintln!("witness extraction: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if json {
            let mut order: Vec<usize> = (0..selected.len()).collect();
            order.sort_by(|&i, &j| selected[i].name.cmp(selected[j].name));
            let docs: Vec<String> = order
                .iter()
                .flat_map(|&i| extracted[i].iter().map(|w| w.to_json()))
                .collect();
            println!("{{\"witnesses\":[{}]}}", docs.join(","));
        } else {
            for ((s, a), ws) in selected.iter().zip(&analyses).zip(&extracted) {
                print_human(s, a);
                print_witnesses_human(s, ws);
                println!();
            }
        }
        return ExitCode::SUCCESS;
    }
    if json {
        // document() sorts by name and appends the trailing newline;
        // print! keeps the bytes identical to the committed golden.
        print!("{}", document(&analyses));
    } else {
        for (s, a) in selected.iter().zip(&analyses) {
            print_human(s, a);
        }
    }
    ExitCode::SUCCESS
}
