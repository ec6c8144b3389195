//! The `experiments` binary's section renderer: [`run_one`] appends
//! one experiment's banner, output and wall time to a buffer, so the
//! binary, its pool and the transcript test all print the same bytes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use unxpec::experiments::{
    ablations, defense_costs, overhead, resolution, robustness, scorecard, secret_pattern, table1,
    timeline, trace, votes, workload_profile, Figures, Scale,
};

/// Runs `f`, appending `name`'s banner, the rendered output and the
/// wall time to `out` rather than stdout, so parallel experiment runs
/// can print whole blocks in a deterministic order.
pub fn timed_to<T: std::fmt::Display>(out: &mut String, name: &str, f: impl FnOnce() -> T) -> T {
    let _ = writeln!(out, "==== {name} ====");
    let start = Instant::now();
    let result = f();
    let _ = writeln!(out, "{result}");
    let _ = writeln!(out, "({name} took {:.2?})\n", start.elapsed());
    result
}

/// The experiment names the `experiments` binary accepts.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig2",
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "rate",
    "fig12",
    "fig13",
    "votes",
    "defense-costs",
    "robustness",
    "timeline",
    "trace",
    "triggers",
    "workloads",
    "scorecard",
    "ablations",
    "chaos",
    "all",
];

/// Every experiment `all` expands to, in print order.
pub fn all_experiments() -> Vec<String> {
    EXPERIMENTS
        .iter()
        .filter(|&&n| n != "all")
        .map(|&n| n.to_string())
        .collect()
}

/// What every rendered section shares: the figure results of one
/// scale and root seed, and the optional artifact outputs.
#[derive(Debug)]
pub struct Options {
    /// The scale, the root seed, and the figure results the sections
    /// and the scorecard share.
    pub figures: Figures,
    /// Directory for raw-data CSVs, if any.
    pub csv_dir: Option<PathBuf>,
    /// Directory for rendered SVG figures, if any.
    pub svg_dir: Option<PathBuf>,
    /// The `trace` experiment's Chrome trace-event JSON file, if any.
    pub trace_out: Option<PathBuf>,
    /// The `trace` experiment's metrics file (`.csv` selects CSV,
    /// anything else JSON), if any.
    pub metrics_out: Option<PathBuf>,
}

impl Options {
    /// `scale` under `root_seed`, with nothing computed yet and no
    /// files to write.
    pub fn new(scale: Scale, root_seed: u64) -> Self {
        Options {
            figures: Figures::new(scale, root_seed),
            csv_dir: None,
            svg_dir: None,
            trace_out: None,
            metrics_out: None,
        }
    }
}

/// Writes `contents` to `path` and notes the write in `out`; `what`
/// names the artifact in the error.
fn write_file(out: &mut String, what: &str, path: &Path, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("write {what} {}: {e}", path.display()))?;
    let _ = writeln!(out, "(wrote {})", path.display());
    Ok(())
}

fn write_csv(opts: &Options, out: &mut String, name: &str, csv: String) -> Result<(), String> {
    match &opts.csv_dir {
        Some(dir) => write_file(out, "csv", &dir.join(format!("{name}.csv")), csv),
        None => Ok(()),
    }
}

fn write_svg(opts: &Options, out: &mut String, name: &str, svg: String) -> Result<(), String> {
    match &opts.svg_dir {
        Some(dir) => write_file(out, "svg", &dir.join(format!("{name}.svg")), svg),
        None => Ok(()),
    }
}

/// Renders experiment `name` into `out`: its banner, its output and
/// the `(... took ...)` wall-time line, exactly as `experiments`
/// prints it. Everything but the wall-time lines is a pure function of
/// `(name, opts)`; a figure that another section or the scorecard has
/// already read is printed, not computed again. Fails only when writing
/// a requested CSV, SVG, trace or metrics file fails.
///
/// # Panics
///
/// Panics if `name` is not in [`EXPERIMENTS`] or is `"all"`.
pub fn run_one(name: &str, opts: &Options, out: &mut String) -> Result<(), String> {
    let figs = &opts.figures;
    let scale = figs.scale();
    // Each experiment gets its own deterministic stream off the root
    // seed; execution order and --jobs cannot change it.
    let seed = figs.seed(name);
    match name {
        "table1" => {
            timed_to(
                out,
                "Table I — simulated machine configuration",
                table1::run,
            );
        }
        "fig2" => {
            let r = timed_to(out, "Fig. 2 — branch resolution time", || figs.fig2());
            write_csv(opts, out, "fig2", r.to_csv())?;
        }
        "fig3" => {
            let r = timed_to(
                out,
                "Fig. 3 — rollback timing difference (no eviction sets)",
                || figs.fig3(),
            );
            write_csv(opts, out, "fig3", r.to_csv())?;
            write_svg(opts, out, "fig3", r.to_svg())?;
        }
        "fig6" => {
            let r = timed_to(
                out,
                "Fig. 6 — rollback timing difference (eviction sets)",
                || figs.fig6(),
            );
            write_csv(opts, out, "fig6", r.to_csv())?;
            write_svg(opts, out, "fig6", r.to_svg())?;
        }
        "fig7" => {
            let r = timed_to(out, "Fig. 7 — latency PDF (no eviction sets)", || {
                figs.fig7()
            });
            write_csv(opts, out, "fig7", r.to_csv())?;
            write_svg(opts, out, "fig7", r.to_svg())?;
        }
        "fig8" => {
            let r = timed_to(out, "Fig. 8 — latency PDF (eviction sets)", || {
                figs.fig8()
            });
            write_csv(opts, out, "fig8", r.to_csv())?;
            write_svg(opts, out, "fig8", r.to_svg())?;
        }
        "fig9" => {
            timed_to(out, "Fig. 9 — 1000-bit random secret", || {
                secret_pattern::run(scale.leak_bits, seed)
            });
        }
        "fig10" => {
            let r = timed_to(out, "Fig. 10 — secret leakage (no eviction sets)", || {
                figs.fig10()
            });
            write_csv(opts, out, "fig10", r.to_csv())?;
            write_svg(opts, out, "fig10", r.to_svg())?;
        }
        "fig11" => {
            let r = timed_to(out, "Fig. 11 — secret leakage (eviction sets)", || {
                figs.fig11()
            });
            write_csv(opts, out, "fig11", r.to_csv())?;
            write_svg(opts, out, "fig11", r.to_svg())?;
        }
        "rate" => {
            let _ = writeln!(out, "==== §VI-B — leakage rate ====");
            let start = std::time::Instant::now();
            let (no_es, es) = figs.rate();
            let _ = writeln!(out, "{no_es}{es}");
            let _ = writeln!(out, "(leakage rate took {:.2?})\n", start.elapsed());
        }
        "fig12" => {
            let r = timed_to(out, "Fig. 12 — constant-time rollback overhead", || {
                figs.fig12()
            });
            write_csv(opts, out, "fig12", r.to_csv())?;
            write_svg(opts, out, "fig12", overhead::to_svg(r))?;
        }
        "fig13" => {
            let r = timed_to(
                out,
                "Fig. 13 — branch resolution under host-like noise",
                || resolution::run_host_like(scale.resolution_samples(), seed),
            );
            write_csv(opts, out, "fig13", r.to_csv())?;
        }
        "triggers" => {
            timed_to(out, "Extension — trigger-agnosticism matrix", || {
                figs.triggers()
            });
        }
        "workloads" => {
            timed_to(out, "Extension — workload suite profile", || {
                workload_profile::run(scale.workload_warmup, scale.workload_measure)
            });
        }
        "timeline" => {
            let _ = writeln!(out, "==== Fig. 1 — measured CleanupSpec timeline ====");
            let (t0, t1) = timeline::run(false, seed);
            let _ = writeln!(out, "{t0}{t1}");
            let (_, t1es) = timeline::run(true, seed);
            let _ = writeln!(out, "with eviction sets:\n{t1es}");
        }
        "trace" => {
            let r = timed_to(out, "Observability — instrumented attack round", || {
                trace::run(false, 1 << 15, seed)
            });
            if let Some(path) = &opts.trace_out {
                write_file(out, "trace", path, r.chrome_trace())?;
            }
            if let Some(path) = &opts.metrics_out {
                let body = if path.extension().is_some_and(|e| e == "csv") {
                    r.metrics.to_csv()
                } else {
                    r.metrics.to_json()
                };
                write_file(out, "metrics", path, body)?;
            }
        }
        "robustness" => {
            let (n, samples, bits) = scale.robustness_breadth();
            timed_to(out, "Extension — seed-sweep robustness", || {
                robustness::run(n, samples, bits, seed)
            });
        }
        "defense-costs" => {
            let r = timed_to(out, "Extension — defense landscape costs", || {
                defense_costs::run(scale.workload_warmup, scale.workload_measure)
            });
            write_csv(opts, out, "defense_costs", r.to_csv())?;
        }
        "votes" => {
            let r = timed_to(out, "Extension — accuracy vs samples per bit", || {
                votes::run(false, scale.vote_bits(), seed)
            });
            write_csv(opts, out, "votes", r.to_csv())?;
        }
        "scorecard" => {
            timed_to(out, "Reproduction scorecard", || scorecard::run(figs));
        }
        "ablations" => {
            let (samples, fuzzy_bits) = if scale.full_breadth() {
                (40, 200)
            } else {
                (8, 40)
            };
            timed_to(out, "Ablation — defense matrix", || {
                ablations::defense_matrix(samples, seed)
            });
            timed_to(out, "Ablation — fuzzy cleanup", || {
                ablations::fuzzy_evaluation(60, fuzzy_bits, 7, seed)
            });
            timed_to(out, "Ablation — mistraining effort", || {
                ablations::mistrain_sweep(samples, seed)
            });
            timed_to(out, "Ablation — fenced measurement tightness", || {
                ablations::fence_ablation(samples, seed)
            });
            let _ = writeln!(
                out,
                "==== Extension — multi-level (2 bits/round) channel ===="
            );
            let mut ml = unxpec::attack::MultiLevelChannel::new(8);
            let cal = ml.calibrate(samples.max(8));
            let _ = writeln!(
                out,
                "level means (0/1/3/8 transient misses): {:.0} / {:.0} / {:.0} / {:.0} cycles",
                cal.level_means[0], cal.level_means[1], cal.level_means[2], cal.level_means[3]
            );
            let symbols: Vec<u8> = (0..64).map(|i| (i % 4) as u8).collect();
            let (_, acc) = ml.leak(&symbols);
            let _ = writeln!(
                out,
                "symbol accuracy over 64 symbols: {:.1}%\n",
                acc * 100.0
            );
        }
        "chaos" => {
            use unxpec::cache::FaultKind;
            use unxpec::experiments::chaos::{self, ChaosMode};
            let _ = writeln!(
                out,
                "==== Robustness — seeded fault injection, sanitizer armed ===="
            );
            for mode in [
                ChaosMode::Control,
                ChaosMode::Mixed,
                ChaosMode::Single(FaultKind::WedgeFill),
                ChaosMode::Sabotage,
            ] {
                let _ = writeln!(out, "{}", chaos::run(mode, 100, seed));
            }
        }
        other => panic!("unknown experiment {other:?}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_to_buffers_the_block() {
        let mut out = String::new();
        let v = timed_to(&mut out, "block", || 7);
        assert_eq!(v, 7);
        assert!(out.starts_with("==== block ====\n7\n"));
        assert!(out.contains("block took"));
    }

    #[test]
    fn experiment_list_covers_every_figure() {
        for fig in ["fig2", "fig3", "fig6", "fig7", "fig12", "fig13", "table1"] {
            assert!(EXPERIMENTS.contains(&fig));
        }
    }
}
