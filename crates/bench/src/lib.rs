//! Shared plumbing for the `experiments` binary: timed, buffered output.

use std::fmt::Write as _;
use std::time::Instant;

/// Runs `f`, printing `name`, its rendered output and the wall time.
pub fn timed<T: std::fmt::Display>(name: &str, f: impl FnOnce() -> T) -> T {
    let mut out = String::new();
    let result = timed_to(&mut out, name, f);
    print!("{out}");
    result
}

/// Buffered [`timed`]: appends the banner, rendered output, and wall
/// time to `out` instead of stdout, so parallel experiment runs can
/// print whole blocks in a deterministic order.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_the_value() {
        let v = timed("test", || 42);
        assert_eq!(v, 42);
    }

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
