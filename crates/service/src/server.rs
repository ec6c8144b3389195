//! The multi-tenant sweep job server.
//!
//! [`Service`] owns the job table, the fair-share scheduler, and the
//! result cache. Clients submit [`SweepSpec`]s (as the harness's
//! `key=value` text); the scheduler slices pending trials into batches
//! for the harness's work-stealing pool, round-robining across
//! *tenants* so one tenant's thousand-trial sweep cannot starve
//! another's smoke test:
//!
//! * Each scheduling tick walks tenants in first-appearance order,
//!   starting one past the tenant that got the previous slot, and takes
//!   at most one trial per visit — dispatch order interleaves tenants
//!   even when their queue depths differ by orders of magnitude. The
//!   walk visits only tenants with pending work, found through an index
//!   of pending jobs, so a pass costs O(tenants with pending work), not
//!   O(every job the server has seen).
//! * Per-tenant concurrency inside a batch is additionally bounded by
//!   [`ServiceConfig::max_tenant_inflight`].
//! * Every candidate trial is first looked up in the
//!   [`ResultCache`] by its [`cell_digest`]; a hit resolves without
//!   consuming a pool slot. Identical cells *within* one batch are
//!   coalesced: one execution, every waiter shares the output.
//! * Failure handling reuses the sweep harness's machinery — the pool's
//!   retry/deadline/backoff [`RunPolicy`], plus cell-level quarantine
//!   after repeated poisonings so a deterministic panic cannot eat the
//!   retry budget of every tenant that submits it.
//!
//! The scheduler runs either on a background worker thread
//! ([`Service::start_worker`]) or manually ([`Service::tick`]), which is
//! how tests drive it deterministically. [`TcpFront`] is the
//! line-delimited JSON listener described in [`crate::protocol`].

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use unxpec::experiments::Scale;
use unxpec_harness::{
    aggregate, cell_digest, default_jobs, run_tasks_with, submission_digest, PoolStats, Registry,
    RunPolicy, SweepSpec, TaskEvent, TaskOutcome, TaskTiming, Trial, TrialCtx, TrialOutput,
    TrialResult, DIGEST_VERSION, SIMULATOR_VERSION,
};
use unxpec_telemetry::{Event, MetricsHub, Telemetry};

use crate::cache::{CacheConfig, CacheStats, CellFailures, DigestedOutput, ResultCache};
use crate::error::ServiceError;
use crate::journal::{Journal, JournalRecord};
use crate::protocol::{self, Request};

/// Everything the service is configured with.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pool worker threads per batch.
    pub jobs: usize,
    /// Retries per panicking trial.
    pub retries: u32,
    /// Per-trial wall-clock budget in ms; 0 = unbounded.
    pub deadline_ms: u64,
    /// Base retry backoff in ms (doubling, capped at 2 s).
    pub backoff_ms: u64,
    /// Poison/timeout count after which a cell is quarantined; 0
    /// disables quarantine.
    pub quarantine_after: u32,
    /// Max trials one tenant may hold in a single batch; 0 = no bound
    /// beyond the batch size itself.
    pub max_tenant_inflight: usize,
    /// Result cache location and bound; `None` runs cacheless.
    pub cache: Option<CacheConfig>,
    /// Live metrics sink (`service.*` names); `None` disables.
    pub hub: Option<MetricsHub>,
    /// Durable write-ahead job journal path; `None` runs journal-less
    /// (a crash loses open jobs, though completed cells still survive
    /// in the result cache).
    pub journal: Option<PathBuf>,
    /// Admission-control budgets (all unbounded by default).
    pub admission: AdmissionConfig,
    /// Event sink for journal-replay / admission / lifecycle events;
    /// the default disabled handle costs one branch per emit.
    pub telemetry: Telemetry,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            jobs: default_jobs(),
            retries: 1,
            deadline_ms: 0,
            backoff_ms: 0,
            quarantine_after: 3,
            max_tenant_inflight: 0,
            cache: None,
            hub: None,
            journal: None,
            admission: AdmissionConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Admission-control budgets. A submission that would exceed any of
/// them is rejected with the typed [`ServiceError::Overloaded`] —
/// carrying [`AdmissionConfig::retry_after_ms`] as the server-chosen
/// backoff hint — instead of being queued into an unbounded backlog.
/// Re-attaches to an existing job (same tenant, same submission
/// digest) are never rejected: a resuming client must always be able
/// to find its job, even mid-drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Max unfinished jobs across all tenants; 0 = unbounded.
    pub max_open_jobs: usize,
    /// Max total spec bytes across unfinished jobs; 0 = unbounded.
    pub max_pending_bytes: usize,
    /// Max unfinished jobs per tenant; 0 = unbounded.
    pub max_tenant_open_jobs: usize,
    /// The retry hint carried by every `Overloaded` rejection, in ms.
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_open_jobs: 0,
            max_pending_bytes: 0,
            max_tenant_open_jobs: 0,
            retry_after_ms: 250,
        }
    }
}

/// One trial's lifecycle inside a job.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Slot {
    Pending,
    Running,
    Done {
        output: TrialOutput,
        digest: u64,
        /// Served without running: from the cache, the cross-job
        /// memo, a coalesced leader, or journal replay.
        cached: bool,
        /// Pool attempts the output took; 0 when `cached`.
        attempts: u32,
    },
    Failed {
        kind: &'static str,
        error: String,
        attempts: u32,
    },
    Skipped,
}

#[derive(Debug)]
pub(crate) struct JobEntry {
    pub(crate) id: String,
    /// Numeric part of `id` (`"j7"` → 7) — what the journal records.
    num: u64,
    pub(crate) tenant: String,
    /// The tenant's position in the round-robin ring.
    ring: usize,
    spec: SweepSpec,
    /// The spec exactly as submitted: journaled verbatim so replay
    /// re-parses the same text, and summed for the byte budget.
    spec_text: String,
    /// [`submission_digest`] of the spec — the idempotency key that
    /// turns a re-submitted spec into a re-attach.
    pub(crate) sub_digest: u64,
    trials: Vec<Trial>,
    pub(crate) cells: Vec<u64>,
    pub(crate) slots: Vec<Slot>,
    /// Rendered per-trial event lines, one per terminal transition, in
    /// occurrence order. A `stream` request with `from: n` replays
    /// `events[n..]` — the session-resume ledger.
    events: Vec<String>,
    submitted: Instant,
    cancelled: bool,
    /// No slot before this index is `Pending`. Slots never return to
    /// `Pending`, so the cursor only moves forward.
    cursor: usize,
}

impl JobEntry {
    /// A job with every slot pending. Its id and number are assigned
    /// when it joins the job table ([`SchedulerState::push_job`]).
    fn new(tenant: &str, spec: SweepSpec, spec_text: &str, trials: Vec<Trial>) -> JobEntry {
        let cells = trials
            .iter()
            .map(|t| cell_digest(&spec, &t.experiment, &t.variant, t.seed_index))
            .collect();
        JobEntry {
            id: String::new(),
            num: 0,
            tenant: tenant.to_string(),
            ring: 0,
            sub_digest: submission_digest(&spec),
            spec,
            spec_text: spec_text.to_string(),
            slots: vec![Slot::Pending; trials.len()],
            trials,
            cells,
            events: Vec::new(),
            submitted: Instant::now(),
            cancelled: false,
            cursor: 0,
        }
    }

    pub(crate) fn finished(&self) -> bool {
        !self
            .slots
            .iter()
            .any(|s| matches!(s, Slot::Pending | Slot::Running))
    }

    /// The first `Pending` slot, advancing the cursor past the others.
    fn next_pending(&mut self) -> Option<usize> {
        while self
            .slots
            .get(self.cursor)
            .is_some_and(|s| !matches!(s, Slot::Pending))
        {
            self.cursor += 1;
        }
        (self.cursor < self.slots.len()).then_some(self.cursor)
    }

    /// Appends the terminal-transition event for `slot` to the job's
    /// replayable event ledger. Only [`SchedulerState::finish`] calls
    /// it, after the slot is terminal.
    fn push_event(&mut self, slot: usize) {
        use unxpec_telemetry::json::escape;
        let seq = self.events.len();
        let key = escape(&self.trials[slot].key);
        let (done, total) = {
            let done = self
                .slots
                .iter()
                .filter(|s| !matches!(s, Slot::Pending | Slot::Running))
                .count();
            (done, self.slots.len())
        };
        let line = match &self.slots[slot] {
            Slot::Done { digest, cached, .. } => format!(
                "{{\"event\": \"trial\", \"seq\": {seq}, \"trial\": \"{key}\", \"state\": \"done\", \"digest\": \"{digest:#018x}\", \"cached\": {cached}, \"done\": {done}, \"total\": {total}}}\n"
            ),
            Slot::Failed { kind, .. } => format!(
                "{{\"event\": \"trial\", \"seq\": {seq}, \"trial\": \"{key}\", \"state\": \"failed\", \"kind\": \"{kind}\", \"done\": {done}, \"total\": {total}}}\n"
            ),
            Slot::Skipped => format!(
                "{{\"event\": \"trial\", \"seq\": {seq}, \"trial\": \"{key}\", \"state\": \"skipped\", \"done\": {done}, \"total\": {total}}}\n"
            ),
            Slot::Pending | Slot::Running => return,
        };
        self.events.push(line);
    }
}

/// A point-in-time view of one job, as returned by [`Service::status`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id (`"j1"`, `"j2"`, …).
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Total enumerated trials.
    pub total: usize,
    /// Trials resolved with an output.
    pub done: usize,
    /// Of those, trials served from the cache (or coalesced).
    pub cached: usize,
    /// Trials that failed (poisoned / timed out / quarantined).
    pub failed: usize,
    /// Trials skipped by cancellation.
    pub skipped: usize,
    /// Trials still pending or running.
    pub open: usize,
    /// Whether the job was cancelled.
    pub cancelled: bool,
}

impl JobStatus {
    /// Whether every trial has reached a terminal slot.
    pub fn finished(&self) -> bool {
        self.open == 0
    }
}

#[derive(Debug, Default)]
pub(crate) struct SchedulerState {
    /// Every job the server has seen, in submission order. Jobs are
    /// never removed, so an index into `jobs` stays valid for the
    /// server's lifetime; the maps below hold such indices.
    pub(crate) jobs: Vec<JobEntry>,
    next_job: u64,
    /// Tenant → its position in the round-robin ring, which is
    /// first-appearance order.
    ring_of: HashMap<String, usize>,
    /// Pending work: ring position → that tenant's jobs that still hold
    /// a `Pending` slot, in submission order. Tenants without one have
    /// no entry, and a front job's cursor is at a `Pending` slot.
    pending: BTreeMap<usize, VecDeque<usize>>,
    /// Jobs whose completion is not yet counted into metrics: every
    /// unfinished job, plus any that finished since the last tick.
    uncounted: BTreeSet<usize>,
    /// Job number → the job.
    by_num: HashMap<u64, usize>,
    /// `(tenant, submission digest)` → its jobs: the re-attach candidates.
    by_submission: HashMap<(String, u64), Vec<usize>>,
    /// Cross-job memo: cell digest → the `(job, slot)` holding a
    /// completed output for it. This is what lets a later job subscribe
    /// to an earlier job's result even when no disk cache is configured
    /// (or the entry was evicted).
    completed_cells: HashMap<u64, (usize, usize)>,
    /// Ring index of the tenant that gets the *next* slot.
    rr: usize,
    /// `(tenant, trial key)` per pool dispatch, in dispatch order. The
    /// fairness tests read this; it is capped so a long-lived server
    /// doesn't grow without bound.
    dispatch_log: Vec<(String, String)>,
    /// Consecutive poison/timeout count and last error per cell
    /// digest, persisted beside the cell's cache entry when a cache is
    /// configured.
    pub(crate) cell_failures: HashMap<u64, CellFailures>,
    /// Cells quarantined after repeated failures.
    quarantined: HashSet<u64>,
    /// Journal lines and records the last replay dropped.
    pub(crate) journal_dropped: u64,
    /// Draining: stop admitting new work, finish (or leave journaled)
    /// what is in flight. Set by [`Service::begin_drain`] on SIGTERM.
    draining: bool,
    shutdown: bool,
}

const DISPATCH_LOG_CAP: usize = 4096;

impl SchedulerState {
    /// Adds `entry` to the job table as job `num` (a new tenant joins
    /// the end of the ring) and returns its index. The caller queues it
    /// for the scheduler with [`SchedulerState::enqueue`].
    fn push_job(&mut self, num: u64, mut entry: JobEntry) -> usize {
        let idx = self.jobs.len();
        entry.num = num;
        entry.id = format!("j{num}");
        let next_ring = self.ring_of.len();
        entry.ring = *self
            .ring_of
            .entry(entry.tenant.clone())
            .or_insert(next_ring);
        self.by_num.entry(num).or_insert(idx);
        self.by_submission
            .entry((entry.tenant.clone(), entry.sub_digest))
            .or_default()
            .push(idx);
        self.jobs.push(entry);
        idx
    }

    /// Registers job `idx` as open, and as pending work if it has a
    /// `Pending` slot. Jobs are enqueued in submission order.
    fn enqueue(&mut self, idx: usize) {
        self.uncounted.insert(idx);
        if self.jobs[idx].next_pending().is_some() {
            let ring = self.jobs[idx].ring;
            self.pending.entry(ring).or_default().push_back(idx);
        }
    }

    /// Restores the `pending` invariant for the tenant at `ring` after
    /// its front job's next trial left `Pending`.
    fn settle(&mut self, ring: usize) {
        let Some(queue) = self.pending.get_mut(&ring) else {
            return;
        };
        while let Some(&idx) = queue.front() {
            if self.jobs[idx].next_pending().is_some() {
                return;
            }
            queue.pop_front();
        }
        self.pending.remove(&ring);
    }

    /// Makes slot `slot` of job `job` terminal: stores `to` (`Done`,
    /// `Failed` or `Skipped`) and appends its event. A `Done` slot also
    /// joins the completed-cell memo, and its `done` journal record is
    /// returned. Every terminal transition goes through here, and the
    /// caller journals the returned records before it releases the
    /// state lock, so no reader sees a slot the journal lacks.
    fn finish(&mut self, job: usize, slot: usize, to: Slot) -> Option<JournalRecord> {
        debug_assert!(!matches!(to, Slot::Pending | Slot::Running));
        let entry = &mut self.jobs[job];
        entry.slots[slot] = to;
        entry.push_event(slot);
        if !matches!(entry.slots[slot], Slot::Done { .. }) {
            return None;
        }
        let (num, cell) = (entry.num, entry.cells[slot]);
        self.completed_cells.insert(cell, (job, slot));
        Some(JournalRecord::CellDone {
            job: num,
            slot: slot as u64,
            cell,
        })
    }

    /// The output and digest of a completed slot for `cell`, if any
    /// job holds one: the cross-job memo the tick and replay share.
    fn memo(&self, cell: u64) -> Option<(TrialOutput, u64)> {
        let &(job, slot) = self.completed_cells.get(&cell)?;
        match &self.jobs[job].slots[slot] {
            Slot::Done { output, digest, .. } => Some((output.clone(), *digest)),
            _ => None,
        }
    }

    /// Marks job `idx` cancelled and its pending trials skipped, and
    /// drops it from `pending`. Returns the number skipped.
    fn cancel_job(&mut self, idx: usize) -> usize {
        self.jobs[idx].cancelled = true;
        let mut skipped = 0;
        for s in self.jobs[idx].cursor..self.jobs[idx].slots.len() {
            if matches!(self.jobs[idx].slots[s], Slot::Pending) {
                self.finish(idx, s, Slot::Skipped);
                skipped += 1;
            }
        }
        let ring = self.jobs[idx].ring;
        if let Some(queue) = self.pending.get_mut(&ring) {
            queue.retain(|&j| j != idx);
            if queue.is_empty() {
                self.pending.remove(&ring);
            }
        }
        skipped
    }

    /// The index of the job with id `id` (`"j7"`).
    pub(crate) fn job_index(&self, id: &str) -> Option<usize> {
        let num = id.strip_prefix('j')?.parse::<u64>().ok()?;
        let idx = *self.by_num.get(&num)?;
        (self.jobs[idx].id == id).then_some(idx)
    }
}

struct Inner {
    state: Mutex<SchedulerState>,
    /// Wakes the worker thread on submissions and shutdown.
    wake: Condvar,
    /// Signals job completion to `wait`ers.
    done: Condvar,
    registry: Registry,
    config: ServiceConfig,
    cache: Option<Mutex<ResultCache>>,
    /// The write-ahead journal. Lock order: `state` → `journal` (the
    /// journal is never held across a cache or pool operation).
    journal: Option<Mutex<Journal>>,
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The job server. Cheap to share: clones of the `Arc` inside
/// [`TcpFront`] and the worker thread all point at one scheduler.
pub struct Service {
    inner: Arc<Inner>,
    worker: Option<JoinHandle<()>>,
}

/// What one pool task carries back: the experiment output, or the
/// (unreachable post-enumeration) registry miss.
pub(crate) type TaskValue = Result<TrialOutput, String>;

/// One trial a scheduling pass hands the pool: slot `slot` of the job
/// at index `job` of the job table.
pub(crate) struct BatchItem {
    pub(crate) job: usize,
    pub(crate) slot: usize,
    cell: u64,
    experiment: String,
    variant: String,
    seed: u64,
    scale: Scale,
}

/// What a scheduling pass reports about the pool batch it runs. The
/// pool's [`TaskEvent`]s arrive on the worker threads as they happen;
/// `batch` follows once the pool returns, with the instant the pool
/// started, the per-trial timings and the batch's counters.
/// [`Service::tick`] observes nothing (`()`); the in-process sweep
/// records its progress, spans and pool counters through this.
pub(crate) trait BatchObserver: Sync {
    fn event(&self, _batch: &[BatchItem], _event: &TaskEvent<'_, TaskValue>) {}

    fn batch(
        &self,
        _batch: &[BatchItem],
        _started: Instant,
        _timings: &[TaskTiming],
        _stats: &PoolStats,
    ) {
    }
}

impl BatchObserver for () {}

impl Service {
    /// Builds a service over `registry`, opening the cache if one is
    /// configured and replaying the job journal if one is. Replay
    /// re-creates every journaled job under its original id, resolves
    /// journaled-done cells through the result cache (zero
    /// re-simulation), and re-enqueues only the cells the previous
    /// lifetime never finished. The cache's failure records restore
    /// each cell's consecutive-failure count, so a cell quarantined in
    /// an earlier lifetime stays quarantined. No scheduler runs yet: call
    /// [`Service::start_worker`] for a live server or [`Service::tick`]
    /// from tests.
    pub fn new(registry: Registry, config: ServiceConfig) -> Result<Self, ServiceError> {
        let mut state = SchedulerState::default();
        let cache = match &config.cache {
            Some(cache_config) => {
                let mut cache = ResultCache::open(cache_config)?;
                for record in cache.take_failures() {
                    if config.quarantine_after > 0 && record.failures >= config.quarantine_after {
                        state.quarantined.insert(record.cell);
                    }
                    state.cell_failures.insert(record.cell, record);
                }
                Some(Mutex::new(cache))
            }
            None => None,
        };
        let (journal, recovery) = match &config.journal {
            Some(path) => {
                let (journal, recovery) = Journal::open(path)?;
                (Some(Mutex::new(journal)), Some(recovery))
            }
            None => (None, None),
        };
        let service = Service {
            inner: Arc::new(Inner {
                state: Mutex::new(state),
                wake: Condvar::new(),
                done: Condvar::new(),
                registry,
                config,
                cache,
                journal,
            }),
            worker: None,
        };
        if let Some(recovery) = recovery {
            service.replay(&recovery);
        }
        service.publish_cache_stats();
        Ok(service)
    }

    /// Rebuilds scheduler state from a journal recovery. Lenient at
    /// every step: a record whose job vanished, whose spec no longer
    /// parses against this build's registry, or whose cell digest no
    /// longer matches its slot is dropped (and counted) rather than
    /// fatal — a journal can never brick the server.
    fn replay(&self, recovery: &crate::journal::JournalRecovery) {
        let inner = &self.inner;
        let mut st = lock(&inner.state);
        let mut dropped = recovery.dropped;
        let mut replayed = 0u64;
        for record in &recovery.records {
            match record {
                JournalRecord::Submit {
                    job,
                    tenant,
                    spec_text,
                } => {
                    let parsed = SweepSpec::parse(spec_text).ok().and_then(|spec| {
                        let trials = spec.enumerate(&inner.registry).ok()?;
                        Some((spec, trials))
                    });
                    let Some((spec, trials)) = parsed else {
                        dropped += 1;
                        continue;
                    };
                    st.next_job = st.next_job.max(*job);
                    st.push_job(*job, JobEntry::new(tenant, spec, spec_text, trials));
                }
                JournalRecord::CellDone { job, slot, cell } => {
                    let Some(&idx) = st.by_num.get(job) else {
                        dropped += 1;
                        continue;
                    };
                    let slot = *slot as usize;
                    if st.jobs[idx].cells.get(slot) != Some(cell) {
                        // Spec semantics moved under the journal (new
                        // digest version, different enumeration): force
                        // a fresh run rather than trust a stale match.
                        dropped += 1;
                        continue;
                    }
                    // Same sources as the scheduler: earlier replayed
                    // jobs first (memo), then the disk cache.
                    let resolved = st
                        .memo(*cell)
                        .or_else(|| inner.cache.as_ref().and_then(|c| lock(c).get(*cell)));
                    // A miss (evicted, corrupt, cacheless server)
                    // leaves the cell Pending and it re-runs —
                    // correctness over thrift. The cell's record is
                    // already in the journal: drop `finish`'s copy.
                    if let Some((output, digest)) = resolved {
                        let to = Slot::Done {
                            output,
                            digest,
                            cached: true,
                            attempts: 0,
                        };
                        st.finish(idx, slot, to);
                        replayed += 1;
                    }
                }
                JournalRecord::Cancel { job } => {
                    let Some(&idx) = st.by_num.get(job) else {
                        dropped += 1;
                        continue;
                    };
                    st.cancel_job(idx);
                }
            }
        }
        // Queue what the previous lifetime left open. Jobs that came
        // back fully finished were already counted by that lifetime;
        // don't count their completion twice.
        let mut requeued = 0u64;
        for idx in 0..st.jobs.len() {
            if !st.jobs[idx].finished() {
                requeued += st.jobs[idx]
                    .slots
                    .iter()
                    .filter(|s| matches!(s, Slot::Pending))
                    .count() as u64;
                st.enqueue(idx);
            }
        }
        let jobs = st.jobs.len() as u64;
        st.journal_dropped = dropped;
        drop(st);
        let records = recovery.records.len() as u64;
        if let Some(hub) = &inner.config.hub {
            hub.update(|m| {
                m.set("service.journal.records", records);
                m.set("service.journal.jobs", jobs);
                m.set("service.journal.replayed", replayed);
                m.set("service.journal.requeued", requeued);
                m.set("service.journal.dropped", dropped);
            });
        }
        inner.config.telemetry.emit(Event::JournalReplay {
            records,
            replayed,
            requeued,
            dropped,
        });
        if requeued > 0 {
            inner.wake.notify_all();
        }
    }

    /// Spawns the background scheduler thread. Idempotent per service:
    /// a second call is ignored.
    pub fn start_worker(&mut self) {
        if self.worker.is_some() {
            return;
        }
        let inner = Arc::clone(&self.inner);
        let spawned = std::thread::Builder::new()
            .name("sweep-scheduler".to_string())
            .spawn(move || loop {
                let progressed = Inner::tick(&inner, &()) > 0;
                let mut st = lock(&inner.state);
                if st.shutdown {
                    break;
                }
                if !progressed && !Inner::has_pending(&st) {
                    // Timed wait: a missed notify costs 50 ms, not a hang.
                    let (guard, _) = inner
                        .wake
                        .wait_timeout(st, Duration::from_millis(50))
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                }
                drop(st);
            });
        if let Ok(handle) = spawned {
            self.worker = Some(handle);
        }
    }

    /// Parses and enumerates `spec_text` for `tenant`, queues the job,
    /// and returns `(job id, trial count)`.
    ///
    /// Submission is **idempotent**: if this tenant already has a
    /// non-cancelled job with the same [`submission_digest`], the
    /// existing job's id is returned instead of queuing a duplicate —
    /// a reconnecting client that lost the submit response simply
    /// re-attaches. New work is subject to admission control
    /// ([`AdmissionConfig`]) and refused with the typed
    /// [`ServiceError::Overloaded`] while draining; re-attaches are
    /// exempt from both.
    pub fn submit(&self, tenant: &str, spec_text: &str) -> Result<(String, usize), ServiceError> {
        let spec = SweepSpec::parse(spec_text).map_err(|e| ServiceError::Spec(format!("{e:?}")))?;
        let trials = spec
            .enumerate(&self.inner.registry)
            .map_err(|e| ServiceError::Spec(format!("{e:?}")))?;
        let entry = JobEntry::new(tenant, spec, spec_text, trials);
        let n = entry.trials.len();
        let mut st = lock(&self.inner.state);
        // Re-attach before admission: a resuming client must find its
        // job even when the server is saturated or draining.
        let existing = st
            .by_submission
            .get(&(tenant.to_string(), entry.sub_digest))
            .and_then(|jobs| jobs.iter().map(|&i| &st.jobs[i]).find(|j| !j.cancelled));
        if let Some(existing) = existing {
            let found = (existing.id.clone(), existing.trials.len());
            drop(st);
            self.hub_inc("service.jobs.reattached", 1);
            return Ok(found);
        }
        self.admit(&st, tenant, spec_text.len())?;
        st.next_job += 1;
        let num = st.next_job;
        // Write-ahead: the journal holds the submission before the
        // scheduler can see it, so an acknowledged job survives kill -9.
        if let Some(journal) = &self.inner.journal {
            let record = JournalRecord::Submit {
                job: num,
                tenant: tenant.to_string(),
                spec_text: spec_text.to_string(),
            };
            if let Err(e) = lock(journal).append(&record) {
                st.next_job -= 1;
                return Err(e);
            }
        }
        let idx = st.push_job(num, entry);
        st.enqueue(idx);
        let id = st.jobs[idx].id.clone();
        drop(st);
        self.hub_inc("service.jobs.submitted", 1);
        self.inner.wake.notify_all();
        // Zero-trial jobs are born finished; tell any waiter.
        if n == 0 {
            self.inner.done.notify_all();
        }
        Ok((id, n))
    }

    /// Admission control for genuinely new work. Checks the cheapest
    /// signal first; every rejection carries the configured retry hint
    /// and a stable reason token (`draining`/`jobs`/`bytes`/`tenant`).
    fn admit(
        &self,
        st: &SchedulerState,
        tenant: &str,
        spec_bytes: usize,
    ) -> Result<(), ServiceError> {
        let admission = &self.inner.config.admission;
        let reject = |reason: &str, reason_code: u64| -> ServiceError {
            let retry_after_ms = admission.retry_after_ms;
            if let Some(hub) = &self.inner.config.hub {
                hub.inc("service.admission.rejected", 1);
                hub.inc(&format!("service.admission.rejected.{reason}"), 1);
            }
            self.inner.config.telemetry.emit(Event::AdmissionReject {
                reason_code,
                retry_after_ms,
            });
            ServiceError::Overloaded {
                retry_after_ms,
                reason: reason.to_string(),
            }
        };
        if st.draining {
            return Err(reject("draining", 4));
        }
        let open: Vec<&JobEntry> = st
            .uncounted
            .iter()
            .map(|&i| &st.jobs[i])
            .filter(|j| !j.finished())
            .collect();
        if admission.max_open_jobs > 0 && open.len() >= admission.max_open_jobs {
            return Err(reject("jobs", 1));
        }
        if admission.max_pending_bytes > 0 {
            let pending: usize = open.iter().map(|j| j.spec_text.len()).sum();
            if pending + spec_bytes > admission.max_pending_bytes {
                return Err(reject("bytes", 2));
            }
        }
        if admission.max_tenant_open_jobs > 0
            && open.iter().filter(|j| j.tenant == tenant).count() >= admission.max_tenant_open_jobs
        {
            return Err(reject("tenant", 3));
        }
        Ok(())
    }

    /// One scheduling pass: resolve what the cache can, run one pool
    /// batch for the rest. Returns the number of trials that reached a
    /// terminal slot (0 = nothing to do). Public so tests can drive
    /// the scheduler deterministically without the worker thread.
    pub fn tick(&self) -> usize {
        Inner::tick(&self.inner, &())
    }

    /// [`Service::tick`], reporting the pass's pool batch to
    /// `observer`.
    pub(crate) fn tick_observed(&self, observer: &impl BatchObserver) -> usize {
        Inner::tick(&self.inner, observer)
    }

    /// Runs `f` on the scheduler state under its lock.
    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&SchedulerState) -> R) -> R {
        f(&lock(&self.inner.state))
    }

    /// The job's current counters.
    pub fn status(&self, job: &str) -> Result<JobStatus, ServiceError> {
        let st = lock(&self.inner.state);
        let entry = Inner::find(&st, job)?;
        Ok(Inner::status_of(entry))
    }

    /// Blocks until `job` finishes; returns the final status. On
    /// deadline expiry with trials still open, returns the typed
    /// [`ServiceError::WaitTimeout`] — never an `Ok` that could be
    /// mistaken for completion (use [`Service::status`] to observe a
    /// still-running job's counters).
    pub fn wait(&self, job: &str, timeout: Duration) -> Result<JobStatus, ServiceError> {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.inner.state);
        loop {
            let status = Inner::status_of(Inner::find(&st, job)?);
            if status.finished() {
                return Ok(status);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServiceError::WaitTimeout {
                    job: job.to_string(),
                    waited_ms: timeout.as_millis() as u64,
                });
            }
            let step = (deadline - now).min(Duration::from_millis(50));
            let (guard, _) = self
                .inner
                .done
                .wait_timeout(st, step)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// Marks every pending trial of `job` skipped. Running trials
    /// finish their current attempt. Returns the number skipped.
    pub fn cancel(&self, job: &str) -> Result<usize, ServiceError> {
        let mut st = lock(&self.inner.state);
        let index = st
            .job_index(job)
            .ok_or_else(|| ServiceError::UnknownJob(job.to_string()))?;
        let skipped = st.cancel_job(index);
        let finished = st.jobs[index].finished();
        let num = st.jobs[index].num;
        if let Some(journal) = &self.inner.journal {
            // Best-effort: a failed cancel append means a restarted
            // server re-enqueues the skipped cells, never loses data.
            let _ = lock(journal).append(&JournalRecord::Cancel { job: num });
        }
        drop(st);
        self.hub_inc("service.jobs.cancelled", 1);
        if finished {
            self.inner.done.notify_all();
        }
        Ok(skipped)
    }

    /// The deterministic result document for a finished job — see
    /// `render_results`. Errors if the job still has open trials.
    pub fn results(&self, job: &str) -> Result<String, ServiceError> {
        let st = lock(&self.inner.state);
        let entry = Inner::find(&st, job)?;
        if !entry.finished() {
            return Err(ServiceError::NotFinished(job.to_string()));
        }
        Ok(render_results(entry))
    }

    /// The `(tenant, trial key)` pool-dispatch sequence, for fairness
    /// assertions and debugging.
    pub fn dispatch_log(&self) -> Vec<(String, String)> {
        lock(&self.inner.state).dispatch_log.clone()
    }

    /// Cache counters, if a cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache.as_ref().map(|c| lock(c).stats())
    }

    /// The job's replayable event lines starting at sequence `from`,
    /// plus its current status — the `stream` op's resume primitive.
    pub fn events_since(
        &self,
        job: &str,
        from: usize,
    ) -> Result<(Vec<String>, JobStatus), ServiceError> {
        let st = lock(&self.inner.state);
        let entry = Inner::find(&st, job)?;
        let events = entry.events.get(from..).unwrap_or_default().to_vec();
        Ok((events, Inner::status_of(entry)))
    }

    /// Enters graceful drain: new submissions are refused with the
    /// typed `Overloaded{reason: "draining"}` while re-attaches,
    /// status, stream, results, and cancel keep working. The scheduler
    /// keeps running so in-flight jobs finish (anything that doesn't is
    /// already in the journal for the next lifetime).
    pub fn begin_drain(&self) {
        lock(&self.inner.state).draining = true;
        if let Some(hub) = &self.inner.config.hub {
            hub.set("service.draining", 1);
        }
    }

    /// Whether [`Service::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        lock(&self.inner.state).draining
    }

    /// Blocks until every job has finished or `timeout` elapses;
    /// returns whether the drain completed. Either way the journal and
    /// cache are already consistent — every accepted-but-unfinished
    /// cell is journaled, so a subsequent restart resumes it.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.inner.state);
        st.draining = true;
        loop {
            if st.uncounted.iter().all(|&i| st.jobs[i].finished()) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let step = (deadline - now).min(Duration::from_millis(50));
            let (guard, _) = self
                .inner
                .done
                .wait_timeout(st, step)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// Stops the worker thread (if running). Called by `Drop`.
    pub fn shutdown(&mut self) {
        lock(&self.inner.state).shutdown = true;
        self.inner.wake.notify_all();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }

    fn hub_inc(&self, name: &str, by: u64) {
        if let Some(hub) = &self.inner.config.hub {
            hub.inc(name, by);
        }
    }

    fn publish_cache_stats(&self) {
        Inner::publish_cache_stats(&self.inner);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    fn find<'a>(st: &'a SchedulerState, job: &str) -> Result<&'a JobEntry, ServiceError> {
        st.job_index(job)
            .map(|i| &st.jobs[i])
            .ok_or_else(|| ServiceError::UnknownJob(job.to_string()))
    }

    fn status_of(entry: &JobEntry) -> JobStatus {
        let mut status = JobStatus {
            id: entry.id.clone(),
            tenant: entry.tenant.clone(),
            total: entry.slots.len(),
            done: 0,
            cached: 0,
            failed: 0,
            skipped: 0,
            open: 0,
            cancelled: entry.cancelled,
        };
        for slot in &entry.slots {
            match slot {
                Slot::Pending | Slot::Running => status.open += 1,
                Slot::Done { cached, .. } => {
                    status.done += 1;
                    if *cached {
                        status.cached += 1;
                    }
                }
                Slot::Failed { .. } => status.failed += 1,
                Slot::Skipped => status.skipped += 1,
            }
        }
        status
    }

    fn has_pending(st: &SchedulerState) -> bool {
        !st.pending.is_empty()
    }

    fn publish_cache_stats(inner: &Arc<Inner>) {
        let (Some(hub), Some(cache)) = (&inner.config.hub, &inner.cache) else {
            return;
        };
        let stats = lock(cache).stats();
        hub.update(|m| {
            m.set("service.cache.hits", stats.hits);
            m.set("service.cache.misses", stats.misses);
            m.set("service.cache.evictions", stats.evictions);
            m.set("service.cache.corrupt", stats.corrupt);
            m.set("service.cache.bytes", stats.bytes);
        });
    }

    /// Appends the `done` records of the slots a lock hold made
    /// terminal. Taking the held state keeps the documented lock order
    /// (state → journal) and means the records are on file before any
    /// reader can see those slots. Best-effort: a failed append costs a
    /// re-run after restart (which the cache then absorbs), never
    /// correctness.
    fn journal_done(inner: &Inner, _held: &SchedulerState, records: &[JournalRecord]) {
        if let Some(journal) = &inner.journal {
            let _ = lock(journal).append_all(records);
        }
    }

    /// One scheduling pass. See [`Service::tick`]. The pool batch's
    /// events, timings and counters go to `observer`.
    fn tick(inner: &Arc<Inner>, observer: &impl BatchObserver) -> usize {
        let mut st = lock(&inner.state);
        if st.shutdown {
            return 0;
        }
        let batch_cap = inner.config.jobs.max(1);
        let tenant_cap = if inner.config.max_tenant_inflight == 0 {
            usize::MAX
        } else {
            inner.config.max_tenant_inflight
        };
        let mut batch: Vec<BatchItem> = Vec::new();
        let mut waiters: HashMap<u64, Vec<(usize, usize)>> = HashMap::new();
        let mut inflight: HashSet<u64> = HashSet::new();
        // Trials taken this batch, per ring position.
        let mut per_tenant: HashMap<usize, usize> = HashMap::new();
        let mut resolved = 0usize;
        let mut cache_hits = 0u64;
        let mut memo_hits = 0u64;
        let mut quarantine_drops = 0u64;
        // `done` records of the slots this lock hold makes terminal.
        let mut journal_done: Vec<JournalRecord> = Vec::new();

        loop {
            let n_tenants = st.ring_of.len();
            if st.pending.is_empty() || batch.len() >= batch_cap {
                break;
            }
            // One pass over the tenant ring, starting at `rr`, taking
            // at most one trial per tenant per visit. The start is
            // fixed before the pass: `rr` itself advances per dispatch.
            // Tenants without pending work would be passed over, so the
            // pass visits only those in `pending`.
            let start = st.rr;
            let visits: Vec<usize> = st
                .pending
                .range(start..)
                .chain(st.pending.range(..start))
                .map(|(&ring, _)| ring)
                .collect();
            let mut progressed = false;
            for ring in visits {
                if *per_tenant.get(&ring).unwrap_or(&0) >= tenant_cap {
                    continue;
                }
                // A visit changes only the visited tenant's jobs, so
                // every tenant listed for this pass still has work.
                let Some(&job_idx) = st.pending.get(&ring).and_then(VecDeque::front) else {
                    continue;
                };
                let slot_idx = st.jobs[job_idx].cursor;
                let tenant = st.jobs[job_idx].tenant.clone();
                progressed = true;
                let cell = st.jobs[job_idx].cells[slot_idx];
                // Candidate chain, cheapest source first: quarantine,
                // then cells already dispatched this batch (before the
                // disk cache, so an in-batch duplicate never records a
                // spurious cache miss), then the disk cache, then the
                // cross-job completed-cell memo, then the pool.
                let terminal = if st.quarantined.contains(&cell) {
                    quarantine_drops += 1;
                    Some(Slot::Failed {
                        kind: "quarantined",
                        error: "cell quarantined after repeated failures".to_string(),
                        attempts: 0,
                    })
                } else if inflight.contains(&cell) {
                    // Same cell already executing in this batch: share
                    // the leader's output instead of re-running it.
                    st.jobs[job_idx].slots[slot_idx] = Slot::Running;
                    waiters.entry(cell).or_default().push((job_idx, slot_idx));
                    None
                } else if let Some((output, digest)) =
                    inner.cache.as_ref().and_then(|c| lock(c).get(cell))
                {
                    cache_hits += 1;
                    Some(Slot::Done {
                        output,
                        digest,
                        cached: true,
                        attempts: 0,
                    })
                } else if let Some((output, digest)) = st.memo(cell) {
                    // A previous job already computed this cell and the
                    // disk cache no longer has it (cacheless server or
                    // evicted entry): subscribe to that result instead
                    // of re-simulating.
                    memo_hits += 1;
                    Some(Slot::Done {
                        output,
                        digest,
                        cached: true,
                        attempts: 0,
                    })
                } else {
                    let entry = &mut st.jobs[job_idx];
                    entry.slots[slot_idx] = Slot::Running;
                    let trial = &entry.trials[slot_idx];
                    let queued_us = entry.submitted.elapsed().as_micros() as u64;
                    let key = trial.key.clone();
                    batch.push(BatchItem {
                        job: job_idx,
                        slot: slot_idx,
                        cell,
                        experiment: trial.experiment.clone(),
                        variant: trial.variant.clone(),
                        seed: trial.seed,
                        scale: entry.spec.scale,
                    });
                    inflight.insert(cell);
                    *per_tenant.entry(ring).or_insert(0) += 1;
                    if st.dispatch_log.len() < DISPATCH_LOG_CAP {
                        st.dispatch_log.push((tenant.clone(), key));
                    }
                    if let Some(hub) = &inner.config.hub {
                        hub.observe(
                            &format!("service.tenant.{tenant}.queue_latency_us"),
                            queued_us,
                        );
                    }
                    None
                };
                if let Some(to) = terminal {
                    journal_done.extend(st.finish(job_idx, slot_idx, to));
                    resolved += 1;
                }
                st.settle(ring);
                // This tenant consumed the turn either way; the next
                // slot goes to the tenant after it.
                st.rr = (ring + 1) % n_tenants;
                if batch.len() >= batch_cap {
                    break;
                }
            }
            // Every pass either consumed at least one pending trial
            // (progressed) or proved there is nothing dispatchable.
            if !progressed {
                break;
            }
        }
        Self::journal_done(inner, &st, &journal_done);

        let executed = batch.len();
        if executed > 0 {
            drop(st);
            let policy = RunPolicy {
                retries: inner.config.retries,
                deadline: (inner.config.deadline_ms > 0)
                    .then(|| Duration::from_millis(inner.config.deadline_ms)),
                backoff_base: Duration::from_millis(inner.config.backoff_ms),
                backoff_cap: Duration::from_secs(2),
            };
            let registry = &inner.registry;
            let started = Instant::now();
            let (outcomes, timings, stats) = run_tasks_with(
                inner.config.jobs,
                executed,
                &policy,
                |index| -> TaskValue {
                    let item = &batch[index];
                    let experiment = registry
                        .get(&item.experiment)
                        .ok_or_else(|| format!("experiment {:?} vanished", item.experiment))?;
                    Ok(experiment.run(&TrialCtx {
                        seed: item.seed,
                        scale: item.scale,
                        variant: item.variant.clone(),
                    }))
                },
                |event| observer.event(&batch, &event),
            );
            observer.batch(&batch, started, &timings, &stats);

            // Each outcome becomes the leader's terminal slot. Fresh
            // outputs go to the cache first, outside the state lock,
            // so every `done` record below points at a stored entry.
            let mut poisoned = 0u64;
            let mut timed_out = 0u64;
            let mut puts: Vec<(u64, DigestedOutput)> = Vec::new();
            let slots: Vec<Slot> = batch
                .iter()
                .zip(outcomes)
                .map(|(item, outcome)| match outcome {
                    TaskOutcome::Done {
                        value: Ok(output),
                        attempts,
                    } => {
                        let fresh = DigestedOutput::new(output);
                        let to = Slot::Done {
                            output: fresh.output().clone(),
                            digest: fresh.digest(),
                            cached: false,
                            attempts,
                        };
                        puts.push((item.cell, fresh));
                        to
                    }
                    TaskOutcome::Done {
                        value: Err(error), ..
                    } => Slot::Failed {
                        kind: "spec",
                        error,
                        attempts: 1,
                    },
                    TaskOutcome::Poisoned { error, attempts } => {
                        poisoned += 1;
                        Slot::Failed {
                            kind: "poisoned",
                            error,
                            attempts,
                        }
                    }
                    TaskOutcome::TimedOut { error, attempts } => {
                        timed_out += 1;
                        Slot::Failed {
                            kind: "timed-out",
                            error,
                            attempts,
                        }
                    }
                })
                .collect();
            if let Some(cache) = &inner.cache {
                let mut guard = lock(cache);
                for (cell, fresh) in &puts {
                    let _ = guard.put(*cell, fresh);
                }
            }

            st = lock(&inner.state);
            let mut coalesced = 0u64;
            journal_done.clear();
            for (item, to) in batch.iter().zip(slots) {
                match &to {
                    // The cache put above deleted any failure record.
                    Slot::Done { .. } => {
                        st.cell_failures.remove(&item.cell);
                    }
                    // Poisonings and timeouts count toward quarantine.
                    Slot::Failed { kind, error, .. } if *kind != "spec" => {
                        Self::record_failure(&mut st, inner, item.cell, error);
                    }
                    _ => {}
                }
                // Fan-out waiters share the leader's slot (an output
                // counts as cached for them) and go first, then the
                // leader: the event and journal order is pinned.
                for (job, slot) in waiters.remove(&item.cell).unwrap_or_default() {
                    let shared = match &to {
                        Slot::Done { output, digest, .. } => {
                            coalesced += 1;
                            Slot::Done {
                                output: output.clone(),
                                digest: *digest,
                                cached: true,
                                attempts: 0,
                            }
                        }
                        failed => failed.clone(),
                    };
                    journal_done.extend(st.finish(job, slot, shared));
                }
                journal_done.extend(st.finish(item.job, item.slot, to));
            }
            Self::journal_done(inner, &st, &journal_done);
            if let Some(hub) = &inner.config.hub {
                hub.update(|m| {
                    m.inc("service.trials.executed", executed as u64);
                    m.inc("service.trials.coalesced", coalesced);
                    m.inc("service.trials.poisoned", poisoned);
                    m.inc("service.trials.timed_out", timed_out);
                });
            }
        }

        // Completion bookkeeping: count each job's terminal transition
        // exactly once (a job with any failed trial counts as failed).
        let mut completed_jobs = 0u64;
        let mut failed_jobs = 0u64;
        {
            let st = &mut *st;
            st.uncounted.retain(|&i| {
                let entry = &st.jobs[i];
                if !entry.finished() {
                    return true;
                }
                if entry.slots.iter().any(|s| matches!(s, Slot::Failed { .. })) {
                    failed_jobs += 1;
                } else {
                    completed_jobs += 1;
                }
                false
            });
        }
        drop(st);
        let finished_jobs = completed_jobs + failed_jobs > 0;
        if let Some(hub) = &inner.config.hub {
            hub.update(|m| {
                if finished_jobs {
                    m.inc("service.jobs.completed", completed_jobs);
                    m.inc("service.jobs.failed", failed_jobs);
                }
                m.inc("service.trials.cached", cache_hits);
                m.inc("service.trials.memoized", memo_hits);
                m.inc("service.trials.quarantined", quarantine_drops);
            });
        }
        Self::publish_cache_stats(inner);
        if resolved > 0 || finished_jobs {
            inner.done.notify_all();
        }
        resolved + executed
    }

    /// Counts one more consecutive failure of `cell`, remembers
    /// `error`, persists both beside the cell's cache entry, and
    /// quarantines the cell at the configured threshold.
    fn record_failure(st: &mut SchedulerState, inner: &Arc<Inner>, cell: u64, error: &str) {
        let record = st
            .cell_failures
            .entry(cell)
            .or_insert_with(|| CellFailures {
                cell,
                failures: 0,
                error: String::new(),
            });
        record.failures = record.failures.saturating_add(1);
        record.error = error.to_string();
        if let Some(cache) = &inner.cache {
            // Best-effort: a lost record costs a count, never a result.
            let _ = lock(cache).put_failures(record);
        }
        let threshold = inner.config.quarantine_after;
        if threshold > 0 && record.failures >= threshold {
            st.quarantined.insert(cell);
        }
    }
}

/// Renders the deterministic result document for a finished job: trial
/// keys, output digests, metrics, and seed-axis aggregates over the
/// untruncated outputs, in enumeration order. Contains *only* values
/// that are pure functions of the spec — no timings, no cache
/// provenance — which is what makes a cache-served rerun
/// byte-identical to the cold run.
fn render_results(entry: &JobEntry) -> String {
    let mut out = String::new();
    out.push_str("# unxpec service results v1\n");
    out.push_str(&format!(
        "# digest-version {DIGEST_VERSION} simulator-version {SIMULATOR_VERSION}\n"
    ));
    out.push_str(&format!("spec {:#018x}\n", entry.spec.digest()));
    let mut completed: Vec<TrialResult> = Vec::new();
    for (index, slot) in entry.slots.iter().enumerate() {
        let trial = &entry.trials[index];
        match slot {
            Slot::Done {
                output,
                digest,
                attempts,
                ..
            } => {
                out.push_str(&format!("trial {} digest {:#018x}", trial.key, digest));
                if output.truncated {
                    out.push_str(" truncated");
                }
                out.push('\n');
                for (name, value) in &output.metrics {
                    out.push_str(&format!("  metric {name} {value}\n"));
                }
                // A truncated number is not a measurement: as in the
                // sweep report, it stays out of the aggregates.
                if output.truncated {
                    continue;
                }
                completed.push(TrialResult {
                    trial: trial.clone(),
                    output: output.clone(),
                    digest: *digest,
                    attempts: *attempts,
                    resumed: false,
                });
            }
            Slot::Failed { kind, .. } => {
                out.push_str(&format!("trial {} failed {kind}\n", trial.key));
            }
            Slot::Skipped => {
                out.push_str(&format!("trial {} skipped\n", trial.key));
            }
            Slot::Pending | Slot::Running => {
                out.push_str(&format!("trial {} open\n", trial.key));
            }
        }
    }
    for a in aggregate(&completed) {
        out.push_str(&format!(
            "aggregate {} {} {} mean {} std {} min {} max {} n {}\n",
            a.experiment,
            a.variant,
            a.metric,
            a.summary.mean,
            a.summary.std_dev,
            a.summary.min,
            a.summary.max,
            a.summary.n
        ));
    }
    out
}

/// The line-delimited JSON TCP listener over a shared [`Service`].
pub struct TcpFront {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TcpFront {
    /// Binds `addr` (port 0 for ephemeral) and starts accepting
    /// connections, each served on its own thread.
    pub fn start(service: Arc<Service>, addr: &str) -> Result<TcpFront, ServiceError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServiceError::Bind {
            addr: addr.to_string(),
            error: e.to_string(),
        })?;
        let local = listener.local_addr().map_err(|e| ServiceError::Bind {
            addr: addr.to_string(),
            error: e.to_string(),
        })?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("sweep-acceptor".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let per_conn = Arc::clone(&service);
                    let _ = std::thread::Builder::new()
                        .name("sweep-conn".to_string())
                        .spawn(move || {
                            let _ = serve_connection(&per_conn, stream);
                        });
                }
            })
            .map_err(|e| ServiceError::Accept(e.to_string()))?;
        Ok(TcpFront {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpFront {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(service: &Service, stream: TcpStream) -> Result<(), ServiceError> {
    // Every response is a small write the client waits on: send it at
    // once rather than behind the ACK of the previous one.
    stream
        .set_nodelay(true)
        .map_err(|e| ServiceError::Io(e.to_string()))?;
    let reader = stream
        .try_clone()
        .map_err(|e| ServiceError::Io(e.to_string()))?;
    let mut writer = stream;
    let mut reader = BufReader::new(reader);
    loop {
        // Bounded frame reader: a peer that never sends a newline can
        // make the server buffer at most MAX_FRAME_BYTES, and the
        // failure is a typed response, not a hung or bloated thread.
        let line = match protocol::read_frame(&mut reader, protocol::MAX_FRAME_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(e) => {
                // Tell the peer why before giving up on the stream: the
                // read position is mid-frame, so resynchronization is
                // impossible and the connection must close.
                let _ = writer.write_all(protocol::error_response(&e).as_bytes());
                return Err(e);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match protocol::parse_request(&line) {
            Ok(request) => handle_request(service, &mut writer, request),
            Err(e) => Err(e),
        };
        match response {
            Ok(body) => {
                writer
                    .write_all(body.as_bytes())
                    .map_err(|e| ServiceError::Io(e.to_string()))?;
            }
            Err(e) => {
                writer
                    .write_all(protocol::error_response(&e).as_bytes())
                    .map_err(|io| ServiceError::Io(io.to_string()))?;
            }
        }
    }
}

fn handle_request(
    service: &Service,
    writer: &mut TcpStream,
    request: Request,
) -> Result<String, ServiceError> {
    use unxpec_telemetry::json::escape;
    match request {
        Request::Submit { tenant, spec } => {
            let (job, trials) = service.submit(&tenant, &spec)?;
            Ok(format!(
                "{{\"ok\": true, \"job\": \"{}\", \"trials\": {trials}}}\n",
                escape(&job)
            ))
        }
        Request::Status { job } => {
            let s = service.status(&job)?;
            Ok(status_line(&s))
        }
        Request::Results { job } => {
            let text = service.results(&job)?;
            Ok(format!(
                "{{\"ok\": true, \"job\": \"{}\", \"text\": \"{}\"}}\n",
                escape(&job),
                escape(&text)
            ))
        }
        Request::Cancel { job } => {
            let skipped = service.cancel(&job)?;
            Ok(format!(
                "{{\"ok\": true, \"job\": \"{}\", \"skipped\": {skipped}}}\n",
                escape(&job)
            ))
        }
        Request::Stream { job, from } => {
            // Per-trial events from sequence `from` until the job
            // finishes, then one final status line with "ok". A
            // reconnecting client passes the last sequence number it
            // saw and receives exactly the events it missed — already-
            // delivered events are never re-sent, future ones arrive
            // as they happen.
            let mut next = from as usize;
            loop {
                let (events, status) = service.events_since(&job, next)?;
                if !events.is_empty() {
                    writer
                        .write_all(events.concat().as_bytes())
                        .map_err(|e| ServiceError::Io(e.to_string()))?;
                }
                next += events.len();
                if status.finished() {
                    return Ok(status_line(&status));
                }
                match service.wait(&job, Duration::from_millis(200)) {
                    // Loop re-reads the ledger either way; a timeout
                    // just means no terminal transition yet.
                    Ok(_) | Err(ServiceError::WaitTimeout { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
}

fn status_line(s: &JobStatus) -> String {
    use unxpec_telemetry::json::escape;
    format!(
        "{{\"ok\": true, \"job\": \"{}\", \"tenant\": \"{}\", \"total\": {}, \"done\": {}, \"cached\": {}, \"failed\": {}, \"skipped\": {}, \"open\": {}, \"finished\": {}, \"cancelled\": {}}}\n",
        escape(&s.id),
        escape(&s.tenant),
        s.total,
        s.done,
        s.cached,
        s.failed,
        s.skipped,
        s.open,
        s.finished(),
        s.cancelled
    )
}
