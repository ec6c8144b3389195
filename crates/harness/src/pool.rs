//! A `std`-only worker pool with per-task panic containment.
//!
//! The vendored dependency set has no rayon/crossbeam, so the pool is
//! one loop on `std` threads: [`run_workers`] starts `jobs` workers,
//! and each asks a caller-supplied `next` for a task, runs it, hands
//! the outcome to the caller's `done`, and asks again, until `next`
//! answers `None`. A worker takes its next task the moment it frees,
//! so a slow task holds back only its own worker. `next` may block:
//! the service scheduler's workers wait there for work.
//! [`run_tasks_with`] is the same loop over a shared index cursor.
//!
//! Each task attempt runs under [`std::panic::catch_unwind`]; a panic
//! is retried in place — after a deterministic, bounded backoff — up
//! to the retry budget and then reported as [`TaskOutcome::Poisoned`]
//! with the panic payload, leaving the rest of the pool untouched. A
//! [`RunPolicy`] deadline bounds each task's wall clock: tasks cannot
//! be preempted mid-attempt, so the check is cooperative (applied when
//! an attempt finishes), turning a slow-but-finite task into a typed
//! [`TaskOutcome::TimedOut`] instead of a silently slow sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The default worker count for the sweep/experiments binaries and the
/// service: the machine's available parallelism, clamped to `[1, 64]`.
/// The upper clamp keeps a many-core box from spawning hundreds of
/// workers whose contention outweighs their throughput; `--jobs`
/// overrides it in both directions.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().clamp(1, 64))
}

/// What happened to one task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome<T> {
    /// The task returned a value on attempt `attempts`.
    Done {
        /// The task's return value.
        value: T,
        /// 1-based attempt count (1 = no retries needed).
        attempts: u32,
    },
    /// Every attempt panicked; `error` is the last panic payload.
    Poisoned {
        /// Rendered panic message.
        error: String,
        /// Total attempts made (retry budget + 1).
        attempts: u32,
    },
    /// The task exceeded the [`RunPolicy`] wall-clock deadline. The
    /// check is cooperative — the attempt ran to completion (or
    /// panicked) first — so a timed-out task never wedges a worker;
    /// its value is discarded because a result that blew its budget
    /// must not be silently aggregated.
    TimedOut {
        /// What the deadline check observed.
        error: String,
        /// Attempts made before the deadline expired.
        attempts: u32,
    },
}

impl<T> TaskOutcome<T> {
    /// The attempt count regardless of outcome.
    pub fn attempts(&self) -> u32 {
        match self {
            TaskOutcome::Done { attempts, .. }
            | TaskOutcome::Poisoned { attempts, .. }
            | TaskOutcome::TimedOut { attempts, .. } => *attempts,
        }
    }
}

/// How tasks are retried and bounded — everything about failure
/// handling that [`run_workers`] needs beyond the task itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPolicy {
    /// Retries per panicking task before it is poisoned.
    pub retries: u32,
    /// Per-task wall-clock budget across all attempts; `None` means
    /// unbounded. Checked cooperatively after each attempt.
    pub deadline: Option<Duration>,
    /// Base pause before the first retry; each further retry doubles
    /// it (capped by [`RunPolicy::backoff_cap`]). Zero sleeps not at
    /// all. Deterministic: the pause is a pure function of the attempt
    /// number, never of load or randomness.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff pause.
    pub backoff_cap: Duration,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            retries: 0,
            deadline: None,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::from_secs(2),
        }
    }
}

impl RunPolicy {
    /// The pause before retry number `attempt` (1-based attempt that
    /// just failed): `backoff_base << (attempt - 1)`, capped.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let shift = (attempt.saturating_sub(1)).min(16);
        self.backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.backoff_cap)
    }
}

/// Lifecycle notification delivered to the [`run_tasks_with`] callback
/// on the worker thread that owns the task.
///
/// `Started` fires before the first attempt, `Finished` after the
/// outcome is decided — the pair is what live observers (progress
/// metrics, the sampling self-profiler) need to know which worker is
/// doing what *right now*, not just after the fact.
#[derive(Debug)]
pub enum TaskEvent<'a, T> {
    /// Task `index` is about to run its first attempt on `worker`.
    Started {
        /// Task index as submitted.
        index: usize,
        /// Worker thread about to run it.
        worker: usize,
    },
    /// Task `index` finished with `outcome`.
    Finished {
        /// Task index as submitted.
        index: usize,
        /// Worker thread that ran it.
        worker: usize,
        /// What happened.
        outcome: &'a TaskOutcome<T>,
        /// Wall-clock timing of the run.
        timing: &'a TaskTiming,
    },
}

/// Wall-clock timing of one task's final attempt, for trace spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTiming {
    /// Task index as submitted.
    pub index: usize,
    /// Worker that ran the task.
    pub worker: usize,
    /// Microseconds from pool start to first attempt.
    pub start_us: u64,
    /// Microseconds spent across all attempts.
    pub dur_us: u64,
    /// Attempts made.
    pub attempts: u32,
}

/// Pool-level counters for the sweep report and metrics export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Tasks executed.
    pub executed: u64,
    /// Extra attempts caused by panics.
    pub retried: u64,
    /// Attempts that panicked.
    pub panicked: u64,
    /// Tasks that blew the wall-clock deadline.
    pub timed_out: u64,
    /// Microseconds workers spent inside tasks, summed over workers.
    pub busy_us: u64,
    /// Wall-clock microseconds for the whole pool run.
    pub wall_us: u64,
}

impl PoolStats {
    /// Mean worker utilization in `[0, 1]`: busy time over
    /// `jobs × wall` time.
    pub fn utilization(&self) -> f64 {
        if self.jobs == 0 || self.wall_us == 0 {
            return 0.0;
        }
        self.busy_us as f64 / (self.jobs as f64 * self.wall_us as f64)
    }
}

#[derive(Default)]
struct Counters {
    executed: AtomicU64,
    retried: AtomicU64,
    panicked: AtomicU64,
    timed_out: AtomicU64,
    busy_us: AtomicU64,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Runs one task to completion (with retries) and records its outcome.
fn execute<T>(
    index: usize,
    worker: usize,
    task: impl Fn() -> T,
    policy: &RunPolicy,
    epoch: Instant,
    counters: &Counters,
) -> (TaskOutcome<T>, TaskTiming) {
    let start = Instant::now();
    let start_us = start.duration_since(epoch).as_micros() as u64;
    let mut attempts = 0u32;
    let over_deadline = |elapsed: Duration| policy.deadline.is_some_and(|d| elapsed > d);
    let outcome = loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(&task)) {
            Ok(value) => {
                let elapsed = start.elapsed();
                if over_deadline(elapsed) {
                    counters.timed_out.fetch_add(1, Ordering::Relaxed);
                    break TaskOutcome::TimedOut {
                        error: format!(
                            "deadline exceeded: ran {:.3} s against a budget of {:.3} s",
                            elapsed.as_secs_f64(),
                            policy.deadline.unwrap_or_default().as_secs_f64()
                        ),
                        attempts,
                    };
                }
                break TaskOutcome::Done { value, attempts };
            }
            Err(payload) => {
                counters.panicked.fetch_add(1, Ordering::Relaxed);
                if attempts > policy.retries {
                    break TaskOutcome::Poisoned {
                        error: panic_message(payload),
                        attempts,
                    };
                }
                // The deadline also bounds the retry loop: once it is
                // spent, stop burning attempts on a task that cannot
                // finish in budget anyway.
                if over_deadline(start.elapsed()) {
                    counters.timed_out.fetch_add(1, Ordering::Relaxed);
                    break TaskOutcome::TimedOut {
                        error: format!("deadline exceeded after panic: {}", panic_message(payload)),
                        attempts,
                    };
                }
                counters.retried.fetch_add(1, Ordering::Relaxed);
                let pause = policy.backoff_for(attempts);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
        }
    };
    let dur_us = start.elapsed().as_micros() as u64;
    counters.executed.fetch_add(1, Ordering::Relaxed);
    counters.busy_us.fetch_add(dur_us, Ordering::Relaxed);
    let timing = TaskTiming {
        index,
        worker,
        start_us,
        dur_us,
        attempts,
    };
    (outcome, timing)
}

/// Runs `jobs` workers until each has been told to stop, and returns
/// the pool counters.
///
/// A worker calls `next(worker)` for its next task, an `(index, task)`
/// pair or `None` to stop. It runs `run(&task)` under the retry,
/// deadline and backoff rules of `policy`, then calls
/// `done(task, outcome, timing)`, and asks `next` again. `index` only
/// labels the task's [`TaskTiming`]. `run` must be safe to call again
/// after a panic (the retry path reinvokes it). With `jobs <= 1` the
/// one worker runs inline on the caller thread.
pub fn run_workers<J, T>(
    jobs: usize,
    policy: &RunPolicy,
    next: impl Fn(usize) -> Option<(usize, J)> + Sync,
    run: impl Fn(&J) -> T + Sync,
    done: impl Fn(J, TaskOutcome<T>, TaskTiming) + Sync,
) -> PoolStats {
    let jobs = jobs.max(1);
    let epoch = Instant::now();
    let counters = Counters::default();
    let worker_loop = |worker: usize| {
        while let Some((index, task)) = next(worker) {
            let (outcome, timing) = execute(index, worker, || run(&task), policy, epoch, &counters);
            done(task, outcome, timing);
        }
    };
    if jobs == 1 {
        worker_loop(0);
    } else {
        std::thread::scope(|scope| {
            for worker in 0..jobs {
                let worker_loop = &worker_loop;
                scope.spawn(move || worker_loop(worker));
            }
        });
    }
    PoolStats {
        jobs,
        executed: counters.executed.load(Ordering::Relaxed),
        retried: counters.retried.load(Ordering::Relaxed),
        panicked: counters.panicked.load(Ordering::Relaxed),
        timed_out: counters.timed_out.load(Ordering::Relaxed),
        busy_us: counters.busy_us.load(Ordering::Relaxed),
        wall_us: epoch.elapsed().as_micros() as u64,
    }
}

/// Runs `n_tasks` tasks on `jobs` workers under `policy` and returns
/// their outcomes indexed by task index, plus per-task timings (in
/// start order) and the pool counters.
///
/// This is [`run_workers`] over a shared cursor: each worker takes the
/// next unstarted index. `task(i)` computes task `i`; it must be safe
/// to call again after a panic (the retry path reinvokes it).
/// `on_event` receives each task's [`TaskEvent`] lifecycle on the
/// worker thread that runs it, which is how the `experiments` binary
/// streams live progress. With `jobs <= 1` everything runs inline on
/// the caller thread in index order, which is the serial baseline the
/// determinism tests compare against.
pub fn run_tasks_with<T, F, C>(
    jobs: usize,
    n_tasks: usize,
    policy: &RunPolicy,
    task: F,
    on_event: C,
) -> (Vec<TaskOutcome<T>>, Vec<TaskTiming>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: Fn(TaskEvent<'_, T>) + Sync,
{
    let cursor = AtomicUsize::new(0);
    let finished = Mutex::new(Vec::with_capacity(n_tasks));
    let stats = run_workers(
        jobs.min(n_tasks),
        policy,
        |worker| {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            (index < n_tasks).then(|| {
                on_event(TaskEvent::Started { index, worker });
                (index, index)
            })
        },
        |&index| task(index),
        |index, outcome, timing| {
            on_event(TaskEvent::Finished {
                index,
                worker: timing.worker,
                outcome: &outcome,
                timing: &timing,
            });
            finished
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((outcome, timing));
        },
    );
    let mut finished = finished
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    // The cursor hands out every index exactly once.
    finished.sort_by_key(|(_, timing)| timing.index);
    let (outcomes, mut timings): (Vec<_>, Vec<_>) = finished.into_iter().unzip();
    timings.sort_by_key(|t| (t.start_us, t.index));
    (outcomes, timings, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_indexed_by_task_not_by_completion_order() {
        for jobs in [1, 4] {
            let (outcomes, timings, stats) =
                run_tasks_with(jobs, 32, &RunPolicy::default(), |i| i * i, |_| {});
            assert_eq!(outcomes.len(), 32);
            for (i, o) in outcomes.iter().enumerate() {
                match o {
                    TaskOutcome::Done { value, attempts } => {
                        assert_eq!(*value, i * i);
                        assert_eq!(*attempts, 1);
                    }
                    other => panic!("no task fails here: {other:?}"),
                }
            }
            assert_eq!(timings.len(), 32);
            assert_eq!(stats.executed, 32);
            assert_eq!(stats.panicked, 0);
        }
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let attempts_seen = AtomicUsize::new(0);
        let policy = RunPolicy {
            retries: 2,
            ..RunPolicy::default()
        };
        let (outcomes, _, stats) = run_tasks_with(
            2,
            4,
            &policy,
            |i| {
                if i == 3 {
                    attempts_seen.fetch_add(1, Ordering::Relaxed);
                    panic!("trial {i} exploded");
                }
                i
            },
            |_| {},
        );
        match &outcomes[3] {
            TaskOutcome::Poisoned { error, attempts } => {
                assert!(error.contains("trial 3 exploded"));
                assert_eq!(*attempts, 3, "1 try + 2 retries");
            }
            other => panic!("task 3 always panics: {other:?}"),
        }
        assert_eq!(attempts_seen.load(Ordering::Relaxed), 3);
        assert_eq!(stats.panicked, 3);
        assert_eq!(stats.retried, 2);
        // The other three tasks still completed.
        assert!(matches!(outcomes[0], TaskOutcome::Done { value: 0, .. }));
        assert!(matches!(outcomes[2], TaskOutcome::Done { value: 2, .. }));
    }

    #[test]
    fn a_flaky_task_succeeds_within_the_retry_budget() {
        let tries = AtomicUsize::new(0);
        let policy = RunPolicy {
            retries: 3,
            ..RunPolicy::default()
        };
        let (outcomes, _, _) = run_tasks_with(
            1,
            1,
            &policy,
            |_| {
                if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                    panic!("transient");
                }
                7u64
            },
            |_| {},
        );
        assert!(matches!(
            outcomes[0],
            TaskOutcome::Done {
                value: 7,
                attempts: 3
            }
        ));
    }

    #[test]
    fn finished_fires_once_per_task() {
        let fired = AtomicUsize::new(0);
        let (_, _, _) = run_tasks_with(
            3,
            10,
            &RunPolicy::default(),
            |i| i,
            |event| {
                if let TaskEvent::Finished { .. } = event {
                    fired.fetch_add(1, Ordering::Relaxed);
                }
            },
        );
        assert_eq!(fired.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn lifecycle_events_pair_started_with_finished() {
        use std::collections::HashMap;
        for jobs in [1, 4] {
            let seen: Mutex<HashMap<usize, (u32, u32)>> = Mutex::new(HashMap::new());
            run_tasks_with(
                jobs,
                16,
                &RunPolicy::default(),
                |i| i,
                |event| match event {
                    TaskEvent::Started { index, .. } => {
                        seen.lock().unwrap().entry(index).or_insert((0, 0)).0 += 1;
                    }
                    TaskEvent::Finished {
                        index,
                        worker,
                        outcome,
                        timing,
                    } => {
                        let mut s = seen.lock().unwrap();
                        let entry = s.entry(index).or_insert((0, 0));
                        assert_eq!(entry.0, 1, "Finished before Started for {index}");
                        entry.1 += 1;
                        assert_eq!(timing.index, index);
                        assert_eq!(timing.worker, worker);
                        assert!(matches!(outcome, TaskOutcome::Done { .. }));
                    }
                },
            );
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), 16);
            assert!(seen.values().all(|&(s, f)| s == 1 && f == 1));
        }
    }

    #[test]
    fn more_jobs_than_tasks_is_fine() {
        let (outcomes, _, stats) = run_tasks_with(16, 2, &RunPolicy::default(), |i| i, |_| {});
        assert_eq!(outcomes.len(), 2);
        assert!(stats.jobs <= 2);
    }

    #[test]
    fn utilization_is_bounded() {
        let (_, _, stats) = run_tasks_with(2, 8, &RunPolicy::default(), |i| i * 3, |_| {});
        let u = stats.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }

    #[test]
    fn a_slow_task_becomes_a_typed_timeout() {
        let policy = RunPolicy {
            deadline: Some(Duration::from_millis(5)),
            ..RunPolicy::default()
        };
        let (outcomes, _, stats) = run_tasks_with(
            1,
            2,
            &policy,
            |i| {
                if i == 1 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                i
            },
            |_| {},
        );
        assert!(matches!(outcomes[0], TaskOutcome::Done { value: 0, .. }));
        match &outcomes[1] {
            TaskOutcome::TimedOut { error, attempts } => {
                assert!(error.contains("deadline exceeded"), "{error}");
                assert_eq!(*attempts, 1);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_eq!(stats.timed_out, 1);
    }

    #[test]
    fn the_deadline_also_cuts_the_retry_loop_short() {
        let policy = RunPolicy {
            retries: 1000,
            deadline: Some(Duration::from_millis(5)),
            ..RunPolicy::default()
        };
        let tries = AtomicUsize::new(0);
        let (outcomes, _, _) = run_tasks_with(
            1,
            1,
            &policy,
            |_| {
                tries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
                panic!("always fails, slowly");
            },
            |_| {},
        );
        assert!(
            matches!(outcomes[0], TaskOutcome::TimedOut { .. }),
            "retrying past the deadline must stop: {:?}",
            outcomes[0]
        );
        assert!(
            tries.load(Ordering::Relaxed) < 1000,
            "deadline must bound the retry loop"
        );
    }

    #[test]
    fn backoff_doubles_per_retry_and_is_capped() {
        let p = RunPolicy {
            retries: 10,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
            ..RunPolicy::default()
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), Duration::from_millis(20));
        assert_eq!(p.backoff_for(3), Duration::from_millis(35), "capped");
        assert_eq!(
            p.backoff_for(60),
            Duration::from_millis(35),
            "shift saturates"
        );
        assert_eq!(RunPolicy::default().backoff_for(5), Duration::ZERO);
    }

    #[test]
    fn retries_pause_for_the_configured_backoff() {
        let policy = RunPolicy {
            retries: 2,
            backoff_base: Duration::from_millis(10),
            ..RunPolicy::default()
        };
        let tries = AtomicUsize::new(0);
        let start = Instant::now();
        let (outcomes, _, _) = run_tasks_with(
            1,
            1,
            &policy,
            |_| {
                if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                    panic!("transient");
                }
                1u8
            },
            |_| {},
        );
        assert!(matches!(
            outcomes[0],
            TaskOutcome::Done {
                value: 1,
                attempts: 3
            }
        ));
        // Two pauses: 10 ms then 20 ms. Allow slop below but insist on
        // most of it having elapsed.
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "backoff pauses must actually happen"
        );
    }
}
