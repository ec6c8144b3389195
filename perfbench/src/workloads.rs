//! The four benchmark workloads.
//!
//! Each is set up once per set-up repetition and then runs ops, every
//! op doing the same amount of work, through the workspace crates'
//! public functions. Every input comes from the run seed: kernel table
//! seeds, leaked secrets and the service spec's `root-seed`. An op
//! checks its own output and reports a failed check as an `Err`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use unxpec::attack::{AttackConfig, MeasurementNoise, UnxpecChannel};
use unxpec::cache::NoiseModel;
use unxpec::cpu::{Core, ExecMode, RunResult, NUM_REGS};
use unxpec::defense::CleanupSpec;
use unxpec::experiments::Scale;
use unxpec::mem::seed::{indexed, stream};
use unxpec::stats::Summary;
use unxpec::telemetry::Telemetry;
use unxpec::workloads::{
    fast_forward_friendly_suite, spec2017_like_suite, KernelSpec, Workload as Kernel,
};
use unxpec_harness::{Registry, RunPolicy};
use unxpec_service::{
    CacheConfig, Journal, JournalRecord, RemoteStatus, ResilientClient, Service, ServiceConfig,
    TcpFront,
};

use crate::counts::Counts;
use crate::trace::Tracer;

/// `spec-detailed`: the scale whose warm-up and measured instruction
/// counts each cell runs, as the Fig. 12 experiment does at that scale.
pub fn spec_scale() -> Scale {
    Scale::quick()
}
/// `ff-friendly`: instructions per kernel.
pub const FF_INSTS: u64 = 400_000;
/// `ff-friendly`: the coverage floor of the repository's ff-smoke gate.
pub const FF_MIN_COVERAGE: f64 = 0.95;
/// `ff-friendly`: the unroll factor of each kernel of
/// `fast_forward_friendly_suite`, needed to rebuild it under new table
/// seeds. Set-up checks it against the suite.
const FF_UNROLL: [(&str, usize); 3] = [("ff_stream", 96), ("ff_compute", 64), ("ff_blocked", 80)];
/// `unxpec-leak`: secret bits per op.
pub const LEAK_BITS: usize = 128;
/// `unxpec-leak`: samples per bit.
pub const LEAK_VOTES: usize = 3;
/// `unxpec-leak`: calibration samples per secret value in set-up.
pub const CALIBRATION_SAMPLES: usize = 2000;
/// `unxpec-leak`: lower edge of the scorecard's Fig. 11 accuracy band.
pub const LEAK_MIN_ACCURACY: f64 = 0.86;
/// `service-warm`: trials in the fixed quick spec: the two variants of
/// `timeline` over 20 seeds.
pub const SERVICE_TRIALS: u64 = 40;
/// `service-warm`: finished jobs, each under a tenant of its own, that
/// every service lifetime starts with.
pub const SERVICE_HISTORY_JOBS: u64 = 512;
/// `service-warm`: ops per service lifetime.
pub const SERVICE_EPOCH_OPS: u64 = 32;

/// Where the traced run reports a workload's extra measurements.
pub type Extras = Vec<(&'static str, f64)>;

/// One benchmark workload after set-up.
pub trait Bench {
    /// Runs op `index`, adding its counts to `counts` and, for an op
    /// made of several cells, each cell's host time in µs to `cells`.
    /// Returns `Err` with the reason when the op's output check fails.
    fn op(
        &mut self,
        index: u64,
        tr: &mut Tracer,
        counts: &mut Counts,
        cells: &mut Vec<f64>,
    ) -> Result<(), String>;

    /// Untimed work before op `index`; a failure ends the run.
    fn prepare(&mut self, _index: u64) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer numbers the traced run measures after the timed ops.
    /// `best_op_us` is the run's best op time, cell by cell.
    fn traced_extras(&mut self, _best_op_us: f64) -> Extras {
        Vec::new()
    }
}

/// The workload names, as `--workload` takes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 12-kernel SPEC-like suite, detailed, unsafe and CleanupSpec.
    SpecDetailed,
    /// The fast-forward-friendly suite in fast-forward mode.
    FfFriendly,
    /// The unXpec covert channel against CleanupSpec.
    UnxpecLeak,
    /// Warm, cache-served round trips through the sweep service.
    ServiceWarm,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::SpecDetailed,
        Kind::FfFriendly,
        Kind::UnxpecLeak,
        Kind::ServiceWarm,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SpecDetailed => "spec-detailed",
            Kind::FfFriendly => "ff-friendly",
            Kind::UnxpecLeak => "unxpec-leak",
            Kind::ServiceWarm => "service-warm",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Sets the workload up from `seed`. `scratch` is a directory the
    /// workload may create files under.
    pub fn setup(
        self,
        seed: u64,
        scratch: &Path,
        tr: &mut Tracer,
    ) -> Result<Box<dyn Bench>, String> {
        Ok(match self {
            Kind::SpecDetailed => Box::new(SpecDetailed::setup(seed, tr)),
            Kind::FfFriendly => Box::new(FfFriendly::setup(seed, tr)?),
            Kind::UnxpecLeak => Box::new(UnxpecLeak::setup(seed, tr)),
            Kind::ServiceWarm => Box::new(ServiceWarm::setup(seed, scratch, tr)?),
        })
    }
}

/// The SPEC-like suite with table seeds derived from `seed`.
pub fn spec_suite(seed: u64) -> Vec<Kernel> {
    spec2017_like_suite()
        .iter()
        .enumerate()
        .map(|(i, k)| Kernel::new(reseeded(k.spec(), seed, "spec-table", i)))
        .collect()
}

/// The fast-forward-friendly suite with table seeds derived from
/// `seed`. Fails if [`FF_UNROLL`] no longer rebuilds the suite.
pub fn ff_suite(seed: u64) -> Result<Vec<Kernel>, String> {
    let base = fast_forward_friendly_suite();
    if base.len() != FF_UNROLL.len() {
        return Err("fast_forward_friendly_suite changed size".to_string());
    }
    let mut out = Vec::with_capacity(base.len());
    for (i, (k, (name, unroll))) in base.iter().zip(FF_UNROLL).enumerate() {
        let rebuilt = Kernel::with_unroll(*k.spec(), unroll);
        if k.name() != name || rebuilt.program() != k.program() {
            return Err(format!("unroll table is stale for {}", k.name()));
        }
        out.push(Kernel::with_unroll(
            reseeded(k.spec(), seed, "ff-table", i),
            unroll,
        ));
    }
    Ok(out)
}

fn reseeded(spec: &KernelSpec, seed: u64, label: &str, i: usize) -> KernelSpec {
    KernelSpec {
        seed: indexed(seed, label, i as u64),
        ..*spec
    }
}

/// One cell: a fresh Table-I core, the kernel's tables, one bounded
/// run. Also returns the cell's host time in µs.
fn run_cell(
    kernel: &Kernel,
    cleanup: bool,
    mode: ExecMode,
    warmup: Option<u64>,
    insts: u64,
    telemetry: Option<Telemetry>,
    tr: &mut Tracer,
) -> (RunResult, Counts, f64) {
    let t0 = Instant::now();
    let open = tr.enter("cpu.new");
    let mut core = Core::table_i();
    if cleanup {
        core.set_defense(Box::new(CleanupSpec::new()));
    }
    core.set_mode(mode);
    if let Some(t) = telemetry {
        core.set_telemetry(t);
    }
    tr.exit(open);
    tr.span("workloads.install", || kernel.install(&mut core));
    let run_span = match mode {
        ExecMode::Detailed => "cpu.run",
        ExecMode::FastForward => "cpu.ff.run",
    };
    let r = tr.span(run_span, || {
        core.run_with_milestone(kernel.program(), warmup, insts)
    });
    let counts = Counts::of_fresh_run(&core, &r);
    (r, counts, t0.elapsed().as_secs_f64() * 1e6)
}

/// One `spec-detailed` cell: detailed mode at [`spec_scale`].
fn spec_cell(
    kernel: &Kernel,
    cleanup: bool,
    telemetry: Option<Telemetry>,
    tr: &mut Tracer,
) -> (RunResult, Counts, f64) {
    let scale = spec_scale();
    run_cell(
        kernel,
        cleanup,
        ExecMode::Detailed,
        Some(scale.workload_warmup),
        scale.workload_warmup + scale.workload_measure,
        telemetry,
        tr,
    )
}

/// `spec-detailed`: one op is one pass over the 12 kernels under the
/// unsafe baseline and under CleanupSpec, detailed mode.
pub struct SpecDetailed {
    suite: Vec<Kernel>,
    /// `(cycles, committed)` per cell from the set-up reference pass.
    reference: Vec<(u64, u64)>,
}

impl SpecDetailed {
    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let mut bench = SpecDetailed {
            suite: spec_suite(seed),
            reference: Vec::new(),
        };
        bench.reference = bench.pass(tr).into_iter().map(|(o, _, _)| o).collect();
        bench
    }

    /// One pass: `((cycles, committed), counts, host µs)` per cell.
    fn pass(&self, tr: &mut Tracer) -> Vec<((u64, u64), Counts, f64)> {
        let mut out = Vec::with_capacity(self.suite.len() * 2);
        for kernel in &self.suite {
            for cleanup in [false, true] {
                let (r, c, us) = spec_cell(kernel, cleanup, None, tr);
                out.push(((r.stats.cycles, r.stats.committed_insts), c, us));
            }
        }
        out
    }
}

impl Bench for SpecDetailed {
    fn op(
        &mut self,
        _index: u64,
        tr: &mut Tracer,
        counts: &mut Counts,
        cells: &mut Vec<f64>,
    ) -> Result<(), String> {
        let mut bad = Vec::new();
        for (k, ((got, c, us), want)) in self.pass(tr).iter().zip(&self.reference).enumerate() {
            counts.add(c);
            cells.push(*us);
            if got != want {
                bad.push(format!("cell {k}: {got:?} != reference {want:?}"));
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad.join("; "))
        }
    }

    /// `telemetry.ring_overhead`: the first two kernels' four cells run
    /// alternately with the disabled handle and a ring sink. Each
    /// cell's `cpu.run` time is its best of 5; the overhead is the
    /// ring's total over the disabled handle's, minus 1.
    fn traced_extras(&mut self, _best_op_us: f64) -> Extras {
        const REPS: usize = 5;
        // best[cell][0 = disabled, 1 = ring], in ns.
        let mut best = [[f64::MAX; 2]; 4];
        let mut tr = Tracer::new(true);
        for _ in 0..REPS {
            let cells = self.suite[..2].iter().flat_map(|k| [(k, false), (k, true)]);
            for (cell, (kernel, cleanup)) in cells.enumerate() {
                for (ring, best) in best[cell].iter_mut().enumerate() {
                    let telemetry = (ring == 1).then(|| Telemetry::ring(1 << 14));
                    spec_cell(kernel, cleanup, telemetry, &mut tr);
                    if let Some(run) = tr.spans().iter().rev().find(|s| s.name == "cpu.run") {
                        *best = best.min(run.duration_ns() as f64);
                    }
                }
            }
        }
        let total = |mode: usize| best.iter().map(|b| b[mode]).sum::<f64>();
        vec![("telemetry.ring_overhead", total(1) / total(0) - 1.0)]
    }
}

/// `ff-friendly`: one op is one pass over the fast-forward-friendly
/// suite in fast-forward mode.
pub struct FfFriendly {
    suite: Vec<Kernel>,
    /// Committed instructions and final registers of the detailed
    /// reference run of each kernel.
    reference: Vec<(u64, [u64; NUM_REGS])>,
    /// Detailed-mode wall time of one pass, best of three, in s.
    detailed_pass_s: f64,
}

impl FfFriendly {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let suite = ff_suite(seed)?;
        let mut reference = Vec::with_capacity(suite.len());
        let mut detailed_pass_s = 0.0;
        for kernel in &suite {
            let mut best = f64::MAX;
            let mut outcome = None;
            for _ in 0..3 {
                let (r, _, us) =
                    run_cell(kernel, false, ExecMode::Detailed, None, FF_INSTS, None, tr);
                best = best.min(us / 1e6);
                outcome = Some((r.stats.committed_insts, r.regs));
            }
            detailed_pass_s += best;
            reference.extend(outcome);
        }
        Ok(FfFriendly {
            suite,
            reference,
            detailed_pass_s,
        })
    }
}

impl Bench for FfFriendly {
    fn op(
        &mut self,
        _index: u64,
        tr: &mut Tracer,
        counts: &mut Counts,
        cells: &mut Vec<f64>,
    ) -> Result<(), String> {
        let mut bad = Vec::new();
        for (kernel, (committed, regs)) in self.suite.iter().zip(&self.reference) {
            let (r, c, us) = run_cell(
                kernel,
                false,
                ExecMode::FastForward,
                None,
                FF_INSTS,
                None,
                tr,
            );
            counts.add(&c);
            cells.push(us);
            let coverage = c.ff_committed_insts as f64 / c.committed_insts.max(1) as f64;
            if r.stats.committed_insts != *committed || r.regs != *regs {
                bad.push(format!(
                    "{}: architectural state differs from detailed mode",
                    kernel.name()
                ));
            }
            if coverage < FF_MIN_COVERAGE {
                bad.push(format!(
                    "{}: fast-forward coverage {coverage:.4}",
                    kernel.name()
                ));
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad.join("; "))
        }
    }

    /// `cpu.ff.speedup`: the set-up detailed pass time over the best
    /// fast-forward pass time, both kernel by kernel.
    fn traced_extras(&mut self, best_op_us: f64) -> Extras {
        vec![("cpu.ff.speedup", self.detailed_pass_s * 1e6 / best_op_us)]
    }
}

/// `unxpec-leak`: one op leaks a fresh 128-bit secret with 3 votes per
/// bit through a calibrated channel against CleanupSpec.
pub struct UnxpecLeak {
    chan: UnxpecChannel,
    seed: u64,
}

impl UnxpecLeak {
    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let cfg = AttackConfig::paper_with_es().with_seed(stream(seed, "attack"));
        let mut chan = UnxpecChannel::new(cfg, Box::new(CleanupSpec::new()))
            .with_measurement_noise(MeasurementNoise::calibrated(stream(seed, "receiver-noise")));
        chan.core_mut()
            .hierarchy_mut()
            .set_noise(NoiseModel::default_sim(stream(seed, "memory-noise")));
        tr.span("attack.calibrate", || chan.calibrate(CALIBRATION_SAMPLES));
        UnxpecLeak { chan, seed }
    }

    /// The secret of op `index`.
    pub fn secret(seed: u64, index: u64) -> Vec<bool> {
        UnxpecChannel::random_secret(LEAK_BITS, indexed(seed, "secret", index))
    }
}

impl Bench for UnxpecLeak {
    fn op(
        &mut self,
        index: u64,
        tr: &mut Tracer,
        counts: &mut Counts,
        _cells: &mut Vec<f64>,
    ) -> Result<(), String> {
        let secret = Self::secret(self.seed, index);
        let before = Counts::of_machine(self.chan.core());
        let out = tr.span("attack.leak", || {
            self.chan.leak_with_votes(&secret, LEAK_VOTES)
        });
        let mut c = Counts::of_machine(self.chan.core()).since(&before);
        let rounds = (LEAK_BITS * LEAK_VOTES) as u64;
        // Each round is two `Core::run` calls: the victim touch and the
        // attack round itself.
        c.runs = 2 * rounds;
        c.rounds = rounds;
        c.bits = LEAK_BITS as u64;
        c.bit_errors = out
            .secrets
            .iter()
            .zip(&out.guesses)
            .filter(|(s, g)| s != g)
            .count() as u64;
        counts.add(&c);
        let accuracy = out.accuracy();
        if accuracy < LEAK_MIN_ACCURACY {
            return Err(format!(
                "decoded accuracy {accuracy:.4} < {LEAK_MIN_ACCURACY}"
            ));
        }
        Ok(())
    }
}

/// The fixed quick spec the service runs, with its root seed from `seed`.
pub fn service_spec(seed: u64) -> String {
    format!(
        "experiments = timeline\nscale = quick\nseeds = {}\nroot-seed = {:#x}\n",
        SERVICE_TRIALS / 2,
        stream(seed, "service-root")
    )
}

/// One service lifetime: the service, its TCP front and a connected
/// client. End it with [`Server::stop`].
struct Server {
    client: ResilientClient,
    _front: TcpFront,
    service: Arc<Service>,
    journal: PathBuf,
}

impl Server {
    /// Starts a service over the result cache in `dir/cache` whose
    /// journal `dir/journal-<epoch>.log` starts as `history`, which the
    /// service replays.
    fn start(dir: &Path, epoch: u64, history: &str) -> Result<Server, String> {
        let journal = dir.join(format!("journal-{epoch}.log"));
        std::fs::write(&journal, history)
            .map_err(|e| format!("write {}: {e}", journal.display()))?;
        let config = ServiceConfig {
            jobs: 1,
            cache: Some(CacheConfig {
                dir: dir.join("cache"),
                max_bytes: 0,
            }),
            journal: Some(journal.clone()),
            ..ServiceConfig::default()
        };
        let mut service = Service::new(Registry::builtin(), config).map_err(|e| e.to_string())?;
        service.start_worker();
        let service = Arc::new(service);
        let front =
            TcpFront::start(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let client = ResilientClient::new(
            &front.addr().to_string(),
            RunPolicy {
                retries: 4,
                deadline: None,
                backoff_base: Duration::from_millis(50),
                backoff_cap: Duration::from_secs(2),
            },
        );
        Ok(Server {
            client,
            _front: front,
            service,
            journal,
        })
    }

    /// `sweep-client submit --wait`: submit, stream to completion,
    /// fetch the document. Returns the job number, final status and
    /// document.
    fn round_trip(
        &mut self,
        tenant: &str,
        spec: &str,
        tr: &mut Tracer,
    ) -> Result<(u64, RemoteStatus, String), String> {
        let client = &mut self.client;
        let submitted = tr
            .span("service.submit", || client.submit(tenant, spec))
            .map_err(|e| format!("submit: {e}"))?;
        let status = tr
            .span("service.stream", || {
                client.stream(&submitted.job, |_, _| {})
            })
            .map_err(|e| format!("stream: {e}"))?;
        let doc = tr
            .span("service.results", || client.results(&submitted.job))
            .map_err(|e| format!("results: {e}"))?;
        Ok((job_number(&submitted.job)?, status, doc))
    }

    /// Closes the client's connection and the front, waits (at most a
    /// second) for the connection's server thread to let go of the
    /// service, then drops the service, which joins its scheduler, and
    /// deletes the journal. So no thread and no memory of this lifetime
    /// outlives it.
    fn stop(self) {
        let Server {
            client,
            _front: front,
            service,
            journal,
        } = self;
        drop(client);
        drop(front);
        let deadline = Instant::now() + Duration::from_secs(1);
        while Arc::strong_count(&service) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(service);
        let _ = std::fs::remove_file(journal);
    }

    fn journal_len(&self) -> u64 {
        std::fs::metadata(&self.journal).map_or(0, |m| m.len())
    }
}

fn job_number(id: &str) -> Result<u64, String> {
    id.strip_prefix('j')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("unexpected job id {id:?}"))
}

/// `service-warm`: one op is a `sweep-client submit --wait` round trip
/// of the fixed spec under a fresh tenant, every cell a cache read.
///
/// The service keeps every job and tenant it has seen, and each
/// scheduler pass scans them all, so op time grows with the service's
/// history (see `NOTES.md`). Every service lifetime therefore starts
/// with the same history, [`SERVICE_HISTORY_JOBS`] finished jobs
/// replayed from its journal, and is replaced, untimed, every
/// [`SERVICE_EPOCH_OPS`] ops: each op pays the scan at nearly the same
/// size.
pub struct ServiceWarm {
    dir: PathBuf,
    spec: String,
    /// The journal every service lifetime starts from.
    history: String,
    server: Option<Server>,
    /// The document of the cold run in set-up.
    cold_doc: String,
    /// Job number of the previous op in this service lifetime, so
    /// every op is a new job.
    last_job: u64,
    seed: u64,
}

impl ServiceWarm {
    fn setup(seed: u64, scratch: &Path, tr: &mut Tracer) -> Result<Self, String> {
        static SETUPS: AtomicU64 = AtomicU64::new(0);
        let n = SETUPS.fetch_add(1, Ordering::Relaxed);
        let dir = scratch.join(format!("service-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut bench = ServiceWarm {
            server: Some(Server::start(&dir, 0, "")?),
            dir,
            spec: service_spec(seed),
            history: String::new(),
            cold_doc: String::new(),
            last_job: 0,
            seed,
        };
        // The cold run: the only place the result cache is written.
        let spec = bench.spec.clone();
        let (_, status, doc) = bench.server()?.round_trip("cold", &spec, tr)?;
        if status.total != SERVICE_TRIALS || status.done != status.total || status.failed != 0 {
            return Err(format!("cold run did not complete cleanly: {status:?}"));
        }
        bench.cold_doc = doc;
        let journal = std::fs::read_to_string(&bench.server()?.journal)
            .map_err(|e| format!("read the cold journal: {e}"))?;
        bench.history = history(&Journal::salvage(&journal).records)?;
        bench.restart(1)?;
        Ok(bench)
    }

    /// Replaces the running service with a fresh one over the same
    /// cache and history, deleting the old journal.
    fn restart(&mut self, epoch: u64) -> Result<(), String> {
        if let Some(old) = self.server.take() {
            old.stop();
        }
        self.server = Some(Server::start(&self.dir, epoch, &self.history)?);
        self.last_job = SERVICE_HISTORY_JOBS;
        Ok(())
    }

    fn server(&mut self) -> Result<&mut Server, String> {
        self.server
            .as_mut()
            .ok_or_else(|| "service is not running".to_string())
    }

    /// The tenant of op `index`: fresh per op, so each op is a new job.
    pub fn tenant(seed: u64, index: u64) -> String {
        format!("t{:x}-{index}", seed & 0xffff)
    }
}

/// The journal of [`SERVICE_HISTORY_JOBS`] finished jobs, jobs `1..=H`
/// under tenants `h1..=hH`, each a copy of the cold job's records
/// `cold`: its submit and one completed cell per trial.
fn history(cold: &[JournalRecord]) -> Result<String, String> {
    let done = cold
        .iter()
        .filter(|r| matches!(r, JournalRecord::CellDone { .. }))
        .count() as u64;
    let Some(JournalRecord::Submit { spec_text, .. }) = cold.first() else {
        return Err("the cold journal does not start with a submit".to_string());
    };
    if done != SERVICE_TRIALS || cold.len() as u64 != SERVICE_TRIALS + 1 {
        return Err(format!("the cold journal has {} records", cold.len()));
    }
    let mut out = String::new();
    for job in 1..=SERVICE_HISTORY_JOBS {
        for record in cold {
            let copy = match record {
                JournalRecord::Submit { .. } => JournalRecord::Submit {
                    job,
                    tenant: format!("h{job}"),
                    spec_text: spec_text.clone(),
                },
                JournalRecord::CellDone { slot, cell, .. } => JournalRecord::CellDone {
                    job,
                    slot: *slot,
                    cell: *cell,
                },
                JournalRecord::Cancel { .. } => JournalRecord::Cancel { job },
            };
            out.push_str(&copy.render());
        }
    }
    Ok(out)
}

impl Bench for ServiceWarm {
    fn prepare(&mut self, index: u64) -> Result<(), String> {
        if index > 0 && index.is_multiple_of(SERVICE_EPOCH_OPS) {
            self.restart(1 + index / SERVICE_EPOCH_OPS)?;
        }
        Ok(())
    }

    fn op(
        &mut self,
        index: u64,
        tr: &mut Tracer,
        counts: &mut Counts,
        _cells: &mut Vec<f64>,
    ) -> Result<(), String> {
        let tenant = Self::tenant(self.seed, index);
        let spec = self.spec.clone();
        let server = self.server()?;
        let journal_before = server.journal_len();
        let cache_before = server.service.cache_stats().unwrap_or_default();
        let (job, status, doc) = server.round_trip(&tenant, &spec, tr)?;
        let cache_after = server.service.cache_stats().unwrap_or_default();
        counts.add(&Counts {
            cache_hits: cache_after.hits - cache_before.hits,
            cache_misses: cache_after.misses - cache_before.misses,
            journal_bytes: server.journal_len() - journal_before,
            result_bytes: doc.len() as u64,
            ..Counts::default()
        });
        let mut bad = Vec::new();
        // The next job number proves both that the op is a new job and
        // that the lifetime replayed its whole history.
        if job != self.last_job + 1 {
            bad.push(format!(
                "job j{job} is not the next new job j{}",
                self.last_job + 1
            ));
        }
        self.last_job = job;
        if doc != self.cold_doc {
            bad.push("result document differs from the cold run".to_string());
        }
        if status.cached != status.total || status.total != SERVICE_TRIALS || status.failed != 0 {
            bad.push(format!("not fully cache-served: {status:?}"));
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad.join("; "))
        }
    }

    /// `service.inproc_us`: the best of the same job submitted
    /// in-process through `Service::submit`, `wait` and `results` on a
    /// fresh service lifetime with the same history;
    /// `service.transport_us`: the best TCP op minus that.
    fn traced_extras(&mut self, best_op_us: f64) -> Extras {
        let restarted = self.restart(u64::MAX);
        let (Ok(()), Some(server)) = (restarted, self.server.as_ref()) else {
            return Vec::new();
        };
        let service = &server.service;
        let mut times = Vec::new();
        for k in 0..SERVICE_EPOCH_OPS {
            let tenant = format!("inproc-{k}");
            let t0 = Instant::now();
            let done = service.submit(&tenant, &self.spec).and_then(|(job, _)| {
                service.wait(&job, Duration::from_secs(60))?;
                service.results(&job)
            });
            let elapsed = t0.elapsed().as_secs_f64() * 1e6;
            if matches!(done, Ok(doc) if doc == self.cold_doc) {
                times.push(elapsed);
            }
        }
        if times.is_empty() {
            return Vec::new();
        }
        let inproc = Summary::of(&times).min;
        vec![
            ("service.inproc_us", inproc),
            ("service.transport_us", best_op_us - inproc),
        ]
    }
}

impl Drop for ServiceWarm {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
