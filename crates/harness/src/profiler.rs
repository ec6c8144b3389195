//! Wall-clock sampling self-profiler for the sweep pool.
//!
//! The cycle-attribution profiler explains where *simulated* cycles
//! go; this one explains where the *harness's* wall clock goes. A
//! background thread samples, at a fixed interval, which trial each
//! worker is running right now (fed by the pool's
//! [`TaskEvent`](crate::pool::TaskEvent) lifecycle callbacks) and
//! accumulates the observations into a
//! [`SpanNode`] tree
//! (`sweep;worker-<k>;<trial key or (idle)>`). Weights are **sample
//! counts**, so a frame's share of the root approximates its share of
//! the sweep's wall clock at the configured resolution — the standard
//! sampling-profiler contract.
//!
//! Sampling reads a mutex the workers only touch for two short writes
//! per trial (start/finish), so the perturbation is negligible and —
//! critically — nothing here ever touches trial *results*: the sweep
//! stays byte-identical with the profiler on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use unxpec_telemetry::SpanNode;

/// What a worker is doing, as last reported by the pool callbacks.
type WorkerStates = Arc<Mutex<Vec<Option<String>>>>;

/// A running sampling profiler. Create with [`SelfProfiler::start`],
/// feed it from the pool's `TaskEvent` callback via
/// [`SelfProfiler::worker_started`] / [`SelfProfiler::worker_finished`],
/// and call [`SelfProfiler::stop`] for the accumulated profile.
#[derive(Debug)]
pub struct SelfProfiler {
    states: WorkerStates,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<SpanNode>>,
}

impl SelfProfiler {
    /// Starts sampling `workers` worker slots every `interval`.
    pub fn start(workers: usize, interval: Duration) -> SelfProfiler {
        let states: WorkerStates = Arc::new(Mutex::new(vec![None; workers.max(1)]));
        let stop = Arc::new(AtomicBool::new(false));
        let (s, st) = (Arc::clone(&states), Arc::clone(&stop));
        let interval = interval.max(Duration::from_micros(100));
        let thread = std::thread::Builder::new()
            .name("sweep-self-profiler".to_string())
            .spawn(move || {
                let mut profile = SpanNode::root("sweep");
                while !st.load(Ordering::SeqCst) {
                    {
                        let snapshot = s.lock().expect("profiler state poisoned");
                        for (worker, state) in snapshot.iter().enumerate() {
                            let frame = state.as_deref().unwrap_or("(idle)");
                            profile.record(&[&format!("worker-{worker}"), frame], 1);
                        }
                    }
                    std::thread::sleep(interval);
                }
                profile
            })
            .expect("spawn profiler thread");
        SelfProfiler {
            states,
            stop,
            thread: Some(thread),
        }
    }

    /// Records that `worker` began running the trial named `key`.
    pub fn worker_started(&self, worker: usize, key: &str) {
        let mut states = self.states.lock().expect("profiler state poisoned");
        if let Some(slot) = states.get_mut(worker) {
            *slot = Some(key.to_string());
        }
    }

    /// Records that `worker` went idle.
    pub fn worker_finished(&self, worker: usize) {
        let mut states = self.states.lock().expect("profiler state poisoned");
        if let Some(slot) = states.get_mut(worker) {
            *slot = None;
        }
    }

    /// Stops the sampler and returns the accumulated profile
    /// (sample-count weights).
    pub fn stop(mut self) -> SpanNode {
        self.stop.store(true, Ordering::SeqCst);
        self.thread
            .take()
            .expect("profiler stopped twice")
            .join()
            .unwrap_or_else(|_| SpanNode::root("sweep"))
    }
}

impl Drop for SelfProfiler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_attribute_to_the_running_trial() {
        let profiler = SelfProfiler::start(2, Duration::from_millis(1));
        profiler.worker_started(0, "rollback/es/s0");
        std::thread::sleep(Duration::from_millis(25));
        profiler.worker_finished(0);
        std::thread::sleep(Duration::from_millis(10));
        let profile = profiler.stop();
        assert_eq!(profile.name, "sweep");
        let w0 = profile.child("worker-0").expect("worker-0 frame");
        let busy = w0.child("rollback/es/s0").map_or(0, |n| n.self_weight);
        assert!(busy > 0, "busy samples must land on the trial:\n{:?}", w0);
        // Worker 1 never ran anything: all idle.
        let w1 = profile.child("worker-1").expect("worker-1 frame");
        assert_eq!(w1.total(), w1.child("(idle)").map_or(0, |n| n.total()));
        // Collapsed output is flamegraph-shaped.
        assert!(profile
            .collapsed()
            .contains("sweep;worker-0;rollback/es/s0"));
    }

    #[test]
    fn out_of_range_worker_ids_are_ignored() {
        let profiler = SelfProfiler::start(1, Duration::from_millis(1));
        profiler.worker_started(7, "ghost");
        profiler.worker_finished(7);
        let profile = profiler.stop();
        assert!(profile.child("worker-7").is_none());
    }
}
