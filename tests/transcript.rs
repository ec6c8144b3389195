//! The quick-scale `experiments all` transcript is a golden: rendered
//! in process, every section matches `tests/golden/experiments_quick.txt`
//! byte for byte once the wall-time "took" lines are dropped, both
//! serially and on a 2-worker pool.
//!
//! Regenerate it, after a deliberate change to what a section prints,
//! with
//!
//! ```text
//! cargo run --release -p unxpec-bench --bin experiments -- --quick all \
//!     | grep -v " took " > tests/golden/experiments_quick.txt
//! ```

use unxpec::experiments::seeding::DEFAULT_ROOT_SEED;
use unxpec_bench::{all_experiments, run_one, Options};
use unxpec_harness::{run_tasks_with, RunPolicy, TaskOutcome};

/// `text` without its wall-time lines, as `grep -v " took "` leaves it.
fn without_timings(text: &str) -> String {
    text.lines()
        .filter(|line| !line.contains(" took "))
        .map(|line| format!("{line}\n"))
        .collect()
}

fn render(name: &str, opts: &Options) -> String {
    let mut out = String::new();
    run_one(name, opts, &mut out).expect("no artifact files are requested");
    out
}

/// Equal, or a failure naming the first line that differs.
fn assert_same(got: &str, want: &str, what: &str) {
    if got == want {
        return;
    }
    let (got_lines, want_lines): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    let at = got_lines
        .iter()
        .zip(&want_lines)
        .position(|(g, w)| g != w)
        .unwrap_or(got_lines.len().min(want_lines.len()));
    panic!(
        "{what}: first difference at line {}:\n  got:  {:?}\n  want: {:?}\n({} lines vs {})",
        at + 1,
        got_lines.get(at),
        want_lines.get(at),
        got_lines.len(),
        want_lines.len()
    );
}

#[test]
fn quick_transcript_matches_the_golden_serially_and_on_a_pool() {
    let golden = std::fs::read_to_string("tests/golden/experiments_quick.txt").expect("golden");
    let opts = Options::new(true, DEFAULT_ROOT_SEED);
    let names = all_experiments();

    let serial: String = names.iter().map(|name| render(name, &opts)).collect();
    let serial = without_timings(&serial);
    assert_same(&serial, &golden, "serial quick `all` against the golden");

    let (outcomes, _, _) = run_tasks_with(
        2,
        names.len(),
        &RunPolicy::default(),
        |i| render(&names[i], &opts),
        |_| {},
    );
    let pooled: String = outcomes
        .into_iter()
        .zip(&names)
        .map(|(outcome, name)| match outcome {
            TaskOutcome::Done { value, .. } => value,
            _ => panic!("section {name:?} did not finish on the pool"),
        })
        .collect();
    assert_same(
        &without_timings(&pooled),
        &serial,
        "2-worker quick `all` against the serial render",
    );
}
