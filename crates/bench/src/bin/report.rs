//! Rollback forensics reports for the registered attack programs.
//!
//! ```text
//! report [--program NAME] [--ring N] [--out <file>]
//! ```
//!
//! For every program in the attack registry (or just `--program NAME`)
//! the tool runs one instrumented secret-0 and one secret-1 round
//! under the unsafe baseline and under CleanupSpec, folds the captured
//! event stream into per-episode forensics records (trigger PC, the
//! T1–T6 timeline marks, transient fills, undo actions, cleanup
//! duration), and renders a markdown digest per (program, defense)
//! pair. Each digest carries a cross-check line comparing the
//! episode-derived channel against the static analyzer's verdict for
//! the same pair; any disagreement makes the tool exit 1. The output
//! is fully deterministic (pure simulation, fixed layouts), so CI
//! diffs one program's digest against a committed golden. See
//! `docs/observability.md`.

use std::fmt::Write as _;
use std::path::PathBuf;

use unxpec::analysis::{analyze, defense_for, DefenseModel, SecretRegion, Verdict};
use unxpec::attack::registry::{registry, ProgramSpec, TriggerKind};
use unxpec::attack::{SpectreRsb, SpectreV2};
use unxpec::cpu::{Core, CoreConfig, ProgramBuilder, Reg};
use unxpec::telemetry::{fold_episodes, render_digest, trace_verdict, Event, Telemetry};

/// Ring capacity: must hold both instrumented rounds of the busiest
/// registered program (the eviction-set round touches ~16 lines per
/// rollback; two rounds stay well under this).
const DEFAULT_RING: usize = 1 << 16;

fn main() {
    let mut program: Option<String> = None;
    let mut ring = DEFAULT_RING;
    let mut out_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--program" | "--ring" | "--out" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("{arg} needs an argument");
                    std::process::exit(2);
                });
                match arg.as_str() {
                    "--program" => program = Some(value),
                    "--ring" => {
                        ring = value.parse().unwrap_or_else(|_| {
                            eprintln!("--ring needs a positive integer, got {value:?}");
                            std::process::exit(2);
                        });
                    }
                    _ => out_path = Some(PathBuf::from(value)),
                }
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let specs: Vec<ProgramSpec> = registry()
        .into_iter()
        .filter(|s| program.as_deref().is_none_or(|p| p == s.name))
        .collect();
    if specs.is_empty() {
        eprintln!(
            "no such program {:?}; known: {:?}",
            program.as_deref().unwrap_or(""),
            registry().iter().map(|s| s.name).collect::<Vec<_>>()
        );
        std::process::exit(2);
    }

    let mut out = String::from("# Rollback forensics report\n\n");
    let mut disagreements = 0usize;
    for spec in &specs {
        let secrets: Vec<SecretRegion> =
            SecretRegion::from_layout(spec.layout().memory_layout(), "SECRET")
                .into_iter()
                .collect();
        let analysis = analyze(spec.name, spec.program(), &secrets, &CoreConfig::table_i());
        for model in [DefenseModel::Unsafe, DefenseModel::CleanupSpec] {
            let events = capture_events(spec, model, ring);
            let episodes = fold_episodes(&events);
            let dynamic = trace_verdict(&episodes);
            let statik = match analysis.verdict(model) {
                Verdict::Leak(channel) => channel.label(),
                Verdict::Clean => "clean",
            };
            let agree = dynamic == statik;
            if !agree {
                disagreements += 1;
            }
            out.push_str(&render_digest(
                &format!("{} under {}", spec.name, model.label()),
                &episodes,
            ));
            let _ = writeln!(
                out,
                "static analyzer: {statik} · episodes: {dynamic} · {}\n",
                if agree { "agree" } else { "DISAGREE" }
            );
        }
    }

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("write report {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("(wrote {})", path.display());
    } else {
        print!("{out}");
    }
    if disagreements > 0 {
        eprintln!("{disagreements} (program, defense) pair(s) disagree with the static analyzer");
        std::process::exit(1);
    }
}

/// One instrumented secret-0 and one secret-1 round of `spec` under
/// `model`, after untraced warmup rounds, through a `ring`-event sink.
fn capture_events(spec: &ProgramSpec, model: DefenseModel, ring: usize) -> Vec<Event> {
    let tel = Telemetry::ring(ring);
    match spec.trigger {
        TriggerKind::ConditionalBranch => {
            // The same driving discipline as `UnxpecChannel`: touch the
            // secret as the victim, then run the sender round.
            let mut core = Core::table_i();
            core.set_defense(defense_for(model));
            spec.layout().install(core.mem_mut(), spec.fn_accesses);
            let mut vb = ProgramBuilder::new();
            vb.mov(Reg(1), spec.layout().secret_addr().raw());
            vb.load(Reg(2), Reg(1), 0);
            vb.halt();
            let victim = vb.build();
            let round = |core: &mut Core, secret: bool| {
                spec.layout().set_secret(core.mem_mut(), secret);
                core.run(&victim);
                core.run(spec.program());
            };
            round(&mut core, false);
            round(&mut core, true);
            core.set_telemetry(tel.clone());
            round(&mut core, false);
            round(&mut core, true);
        }
        TriggerKind::IndirectJump => {
            let mut attacker = SpectreV2::new(defense_for(model));
            attacker.core_mut().set_telemetry(tel.clone());
            attacker.measure_bit(false);
            attacker.measure_bit(true);
        }
        TriggerKind::Return => {
            let mut attacker = SpectreRsb::new(defense_for(model));
            attacker.core_mut().set_telemetry(tel.clone());
            attacker.measure_bit(false);
            attacker.measure_bit(true);
        }
    }
    tel.snapshot()
}
