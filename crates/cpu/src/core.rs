//! The out-of-order speculative core.
//!
//! # Model
//!
//! The core walks the dynamic instruction stream along the *predicted*
//! path, computing values eagerly and timing in closed form: every
//! instruction gets a dispatch cycle (bounded by dispatch width, ROB
//! occupancy and fences), an operand-ready cycle (last-writer chains
//! through the register file) and a completion cycle (functional-unit or
//! cache latency). Loads issue real cache accesses — including on the
//! wrong path, which is exactly the speculative pollution unXpec and
//! CleanupSpec are about.
//!
//! Every conditional branch, indirect jump and return opens a
//! *speculation frame*. A mispredicted one also pushes a register
//! checkpoint, and every cache effect made while any frame is open goes
//! to one run-wide log. When the branch's operands become ready the
//! frame resolves:
//!
//! * predicted correctly — the frame pops; its loads' speculative tags
//!   commit once no enclosing frame remains;
//! * mispredicted — the frame and everything younger squash. The core
//!   cancels inflight speculative misses, hands the [`Defense`] the exact
//!   fill effects of the squashed loads, rolls back the register state to
//!   the checkpoint, and resumes fetch at the correct target once the
//!   defense says cleanup is done (plus a pipeline-refill penalty).
//!
//! The defense's stall is the T3–T5 window of the paper's Fig. 1; the
//! [`SquashRecord`]s collected per run expose T1–T2 (resolution time) and
//! T2–T6 (cleanup) to the experiment harness.

use unxpec_cache::{CacheHierarchy, Cycle, Effect, Effects, HierarchyConfig, SpecTag};
use unxpec_mem::{Addr, LineAddr, Memory};
use unxpec_telemetry::{Event, MetricsRegistry, Telemetry};

use crate::arch::{self, Flow};
use crate::config::CoreConfig;
use crate::defense::{Defense, FillPolicy, SquashInfo, UnsafeBaseline};
use crate::isa::{AluOp, Inst, Operand, PcIndex, Reg, NUM_REGS};
use crate::predictor::{BimodalPredictor, BranchPredictor, Btb, ReturnStackBuffer};
use crate::program::Program;
use crate::sanitizer::{InvariantViolation, RollbackCheck, Sanitizer, SanitizerConfig};
use crate::stats::{RunStats, SquashRecord};
use crate::trace::{ExecTrace, TraceEvent};

/// Execution speed of the core (ROADMAP item 2(b)).
///
/// The default is the fully detailed model; [`ExecMode::FastForward`]
/// enables the two-speed core, which runs architecturally-committed
/// straight-line regions in a functional interpreter and drops back
/// into the detailed core at every speculation source
/// (branch / indirect jump / return), staying detailed until the
/// speculative episode fully resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Cycle-accurate out-of-order modeling for every instruction.
    #[default]
    Detailed,
    /// Two-speed: functional interpretation between speculative
    /// episodes, detailed modeling inside them.
    FastForward,
}

impl ExecMode {
    /// Stable label, used by CLIs and the sweep digest.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Detailed => "detailed",
            ExecMode::FastForward => "fast-forward",
        }
    }
}

/// Result of running a program.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Aggregate statistics and squash records.
    pub stats: RunStats,
    /// Final architectural register file.
    pub regs: [u64; NUM_REGS],
    /// Whether the run stopped on a cycle or instruction bound rather
    /// than `Halt`.
    pub hit_limit: bool,
    /// Per-instruction execution trace, if tracing was enabled.
    pub trace: Option<ExecTrace>,
}

impl RunResult {
    /// Convenience register read.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }
}

/// A speculation frame: one unresolved branch, indirect jump or return.
///
/// A frame owns no effects and no register state. It records where its
/// records begin in the run's [`SpecStorage`]: the lengths of the effect
/// and deferred-line logs when it opened, and, if it opened
/// mispredicted, the index of its checkpoint. Every record logged after
/// a frame opens belongs to it (and to every younger frame), so a
/// squash rolls back the log's tail from the frame's start, and a
/// correct resolve that empties the stack commits that same tail. Its
/// resolve cycle lives in [`SpecStorage::resolve_cycles`], not here.
#[derive(Debug, Clone, Copy)]
struct Frame {
    epoch: SpecTag,
    branch_pc: PcIndex,
    dispatch_cycle: Cycle,
    correct_pc: PcIndex,
    /// Index into [`SpecStorage::checkpoints`]; `Some` exactly when the
    /// frame opened mispredicted (only those ever restore one).
    checkpoint: Option<usize>,
    /// [`SpecStorage::effect_log`] length when the frame opened.
    effects_start: usize,
    /// [`SpecStorage::line_log`] length when the frame opened.
    lines_start: usize,
    /// Run-wide load/instruction counts when the frame opened. The
    /// frame's own totals are derived by subtraction at squash time, so
    /// dispatch never walks the open-frame stack to bump counters.
    loads_at_open: u64,
    insts_at_open: u64,
}

/// The architectural state a mispredicted frame rolls back to.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    regs: [u64; NUM_REGS],
    avail: [Cycle; NUM_REGS],
    last_complete: Cycle,
    last_mem: Cycle,
}

/// The run's speculation bookkeeping, kept by the [`Core`] across runs
/// so its buffers keep their capacity and steady-state runs allocate
/// nothing.
///
/// Both logs are empty whenever no frame is open: a load logs its
/// effects only under an open frame, and the resolve that closes the
/// last frame clears them.
#[derive(Debug, Default)]
struct SpecStorage {
    /// Open frames, oldest first.
    frames: Vec<Frame>,
    /// Each open frame's resolve cycle, index-parallel to `frames` (the
    /// only copy): the earliest-resolve scan reads this contiguous array
    /// instead of striding over whole frames.
    resolve_cycles: Vec<Cycle>,
    /// Checkpoints of the open mispredicted frames, oldest first.
    checkpoints: Vec<Checkpoint>,
    /// Fill effects of loads issued under an open frame, oldest first.
    effect_log: Vec<Effect>,
    /// Lines of fill-at-commit speculative loads (filled only when the
    /// last frame resolves correct).
    line_log: Vec<LineAddr>,
    /// Cached stack summary, refreshed only when the stack changes (per
    /// branch, not per instruction): the smallest resolve cycle and the
    /// index of the oldest frame holding it, and the earliest
    /// mispredicted resolve. A frame's resolve cycle and checkpoint
    /// never change while it is open, so the cache cannot go stale
    /// between stack mutations. `earliest_mispredict` is `Some` exactly
    /// while a mispredicted frame is open, i.e. on the wrong path.
    earliest_resolve: Option<(Cycle, usize)>,
    earliest_mispredict: Option<Cycle>,
}

impl SpecStorage {
    /// Opens `frame` as the youngest, resolving at `resolve_cycle`, with
    /// its log starts taken now and `checkpoint` pushed if it opened
    /// mispredicted, and folds it into the cached summary in O(1). The
    /// new frame takes the last index, so the strict `<` keeps an older
    /// frame on a tie, exactly as [`Self::refresh_earliest_resolve`]'s
    /// rescan would.
    fn open(&mut self, mut frame: Frame, resolve_cycle: Cycle, checkpoint: Option<Checkpoint>) {
        frame.effects_start = self.effect_log.len();
        frame.lines_start = self.line_log.len();
        frame.checkpoint = checkpoint.map(|ckpt| {
            self.checkpoints.push(ckpt);
            self.checkpoints.len() - 1
        });
        if self.earliest_resolve.is_none_or(|(c, _)| resolve_cycle < c) {
            self.earliest_resolve = Some((resolve_cycle, self.frames.len()));
        }
        if frame.checkpoint.is_some() {
            self.earliest_mispredict = Some(
                self.earliest_mispredict
                    .map_or(resolve_cycle, |c| c.min(resolve_cycle)),
            );
        }
        self.frames.push(frame);
        self.resolve_cycles.push(resolve_cycle);
    }

    /// Closes the correctly predicted frame at `idx`, leaving every other
    /// frame open. It held no checkpoint, so only the earliest resolve
    /// can move. The youngest frame is the one most often closed (70% of
    /// `spec-detailed`'s correct resolves, 43% of `unxpec-leak`'s), and
    /// popping it moves nothing, where `Vec::remove` would still call
    /// `memmove` twice.
    fn remove(&mut self, idx: usize) {
        if idx + 1 == self.frames.len() {
            self.frames.pop();
            self.resolve_cycles.pop();
        } else if idx < self.frames.len() {
            self.frames.remove(idx);
            self.resolve_cycles.remove(idx);
        } else {
            return;
        }
        self.refresh_earliest_resolve();
    }

    /// Squashes the mispredicted frame at `idx` and every younger frame,
    /// dropping their checkpoints, and returns the frame's own
    /// checkpoint. The logs stay as they are until
    /// [`Self::drop_since`]: the defense reads the squashed records
    /// first.
    fn squash(&mut self, idx: usize) -> Option<Checkpoint> {
        let ckpt_idx = self.frames.get(idx)?.checkpoint?;
        let checkpoint = self.checkpoints.get(ckpt_idx).copied();
        self.frames.truncate(idx);
        self.resolve_cycles.truncate(idx);
        self.checkpoints.truncate(ckpt_idx);
        self.refresh_earliest_resolve();
        self.earliest_mispredict = self
            .frames
            .iter()
            .zip(&self.resolve_cycles)
            .filter(|(f, _)| f.checkpoint.is_some())
            .map(|(_, &c)| c)
            .min();
        checkpoint
    }

    /// Re-derives `earliest_resolve`: the first index of the smallest
    /// resolve cycle, so the oldest frame wins a tie.
    fn refresh_earliest_resolve(&mut self) {
        let mut cycles = self.resolve_cycles.iter().copied().enumerate();
        self.earliest_resolve = cycles.next().map(|(_, first)| {
            let mut earliest = (first, 0);
            for (i, c) in cycles {
                if c < earliest.0 {
                    earliest = (c, i);
                }
            }
            earliest
        });
    }

    /// Logs one load's fill effects and deferred line, if a frame is
    /// open to own them.
    fn log(&mut self, effects: &[Effect], line: Option<LineAddr>) {
        if self.frames.is_empty() {
            return;
        }
        self.effect_log.extend_from_slice(effects);
        if let Some(line) = line {
            self.line_log.push(line);
        }
    }

    /// The effects and deferred lines logged since `frame` opened: what
    /// its squash rolls back, or, once it was the last open frame, what
    /// its correct resolve commits.
    fn since(&self, frame: &Frame) -> (&[Effect], &[LineAddr]) {
        (
            self.effect_log
                .get(frame.effects_start..)
                .unwrap_or_default(),
            self.line_log.get(frame.lines_start..).unwrap_or_default(),
        )
    }

    /// Drops the records logged since the squashed `frame` opened, so
    /// enclosing frames no longer own them. With no frame left, drops
    /// every record, those of frames that resolved correct while it was
    /// open included (the logs are empty whenever no frame is open).
    fn drop_since(&mut self, frame: &Frame) {
        if self.frames.is_empty() {
            self.clear_logs();
        } else {
            self.effect_log.truncate(frame.effects_start);
            self.line_log.truncate(frame.lines_start);
        }
    }

    fn clear_logs(&mut self) {
        self.effect_log.clear();
        self.line_log.clear();
    }

    /// Drops every frame and record (frames still open when a run ends
    /// on a bound), keeping the buffers' capacity.
    fn clear(&mut self) {
        self.frames.clear();
        self.resolve_cycles.clear();
        self.checkpoints.clear();
        self.clear_logs();
        self.earliest_resolve = None;
        self.earliest_mispredict = None;
    }

    fn youngest_epoch(&self) -> Option<SpecTag> {
        self.frames.last().map(|f| f.epoch)
    }

    fn earliest_resolvable(&self, now: Cycle) -> Option<usize> {
        match self.earliest_resolve {
            Some((c, i)) if c <= now => Some(i),
            _ => None,
        }
    }
}

/// The simulated machine: core + caches + memory + predictor + defense.
///
/// State (caches, predictor training, the monotonic clock) persists
/// across [`Core::run`] calls, so an attack can run its preparation and
/// measurement rounds as separate programs against a warm machine, just
/// like successive iterations of a real attack process.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    hier: CacheHierarchy,
    mem: Memory,
    predictor: Box<dyn BranchPredictor>,
    btb: Btb,
    ras: ReturnStackBuffer,
    defense: Box<dyn Defense>,
    clock: Cycle,
    next_epoch: u64,
    mode: ExecMode,
    tracing: bool,
    telemetry: Telemetry,
    /// Speculation-frame storage, reused across runs.
    spec_storage: SpecStorage,
    /// ROB release-cycle queue storage, reused across runs.
    rob_storage: RobRing,
    /// Optional runtime invariant sanitizer (`None` costs one pointer
    /// check at squash boundaries and nothing in the dispatch loop).
    sanitizer: Option<Box<Sanitizer>>,
    /// The fast-forward plan: every instruction pre-decoded into its
    /// flat [`FfUop`] form with its straight-line span length,
    /// index-parallel to the program and rebuilt at run start
    /// (fast-forward runs only). The plan loop dispatches once on
    /// [`FfUop::kind`] instead of walking the nested `Inst` → `Operand`
    /// → `AluOp` matches per instruction. Storage is reused across runs.
    ff_plan: Vec<FfUop>,
}

impl Core {
    /// Builds a machine with the Table-I core/cache configuration, a
    /// bimodal predictor and no defense (unsafe baseline).
    pub fn new(core_cfg: CoreConfig, hier_cfg: HierarchyConfig) -> Self {
        core_cfg.validate();
        Core {
            cfg: core_cfg,
            hier: CacheHierarchy::new(hier_cfg, 1),
            mem: Memory::new(),
            predictor: Box::new(BimodalPredictor::default()),
            btb: Btb::new(),
            ras: ReturnStackBuffer::default(),
            defense: Box::new(UnsafeBaseline),
            clock: 0,
            next_epoch: 1,
            mode: ExecMode::Detailed,
            tracing: false,
            telemetry: Telemetry::disabled(),
            spec_storage: SpecStorage::default(),
            rob_storage: RobRing::default(),
            sanitizer: None,
            ff_plan: Vec::new(),
        }
    }

    /// Table-I machine with the default configuration everywhere.
    pub fn table_i() -> Self {
        Self::new(CoreConfig::table_i(), HierarchyConfig::table_i())
    }

    /// Replaces the defense.
    pub fn set_defense(&mut self, defense: Box<dyn Defense>) -> &mut Self {
        self.defense = defense;
        self
    }

    /// Replaces the branch predictor.
    pub fn set_predictor(&mut self, predictor: Box<dyn BranchPredictor>) -> &mut Self {
        self.predictor = predictor;
        self
    }

    /// The branch target buffer (inspection and explicit poisoning).
    pub fn btb(&self) -> &Btb {
        &self.btb
    }

    /// The branch target buffer, mutable.
    pub fn btb_mut(&mut self) -> &mut Btb {
        &mut self.btb
    }

    /// The return stack buffer (inspection).
    pub fn ras(&self) -> &ReturnStackBuffer {
        &self.ras
    }

    /// The active defense's name.
    pub fn defense_name(&self) -> &'static str {
        self.defense.name()
    }

    /// The active defense's counter report (empty for defenses without
    /// counters).
    pub fn defense_report(&self) -> String {
        self.defense.report()
    }

    /// Architectural memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Architectural memory, mutable (test and attack setup).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Cache hierarchy.
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hier
    }

    /// Cache hierarchy, mutable (noise configuration, instrumentation).
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hier
    }

    /// The monotonic machine clock (advances across runs).
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Selects the execution mode for subsequent runs (see [`ExecMode`]).
    pub fn set_mode(&mut self, mode: ExecMode) -> &mut Self {
        self.mode = mode;
        self
    }

    /// The configured execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Enables or disables per-instruction tracing for subsequent runs.
    pub fn set_tracing(&mut self, on: bool) -> &mut Self {
        self.tracing = on;
        self
    }

    /// Attaches a telemetry handle: the core emits pipeline and squash
    /// events through it, and the cache hierarchy shares the same sink.
    /// The default handle is disabled and costs one branch per probe; a
    /// run with no observer at all skips the core's per-instruction
    /// probes entirely.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) -> &mut Self {
        self.hier.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// The core's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enables the runtime invariant sanitizer for subsequent runs.
    ///
    /// The sanitizer is purely observational: with no faults injected,
    /// checked runs produce byte-identical results to unchecked runs.
    /// Violations are recorded (first one wins), emitted as
    /// `Event::InvariantTrip`, and surfaced by [`Core::run_checked`].
    pub fn set_sanitizer(&mut self, cfg: SanitizerConfig) -> &mut Self {
        self.sanitizer = Some(Box::new(Sanitizer::new(cfg)));
        self
    }

    /// Disables the sanitizer.
    pub fn clear_sanitizer(&mut self) -> &mut Self {
        self.sanitizer = None;
        self
    }

    /// The sanitizer state, if enabled.
    pub fn sanitizer(&self) -> Option<&Sanitizer> {
        self.sanitizer.as_deref()
    }

    /// Removes and returns the first invariant violation recorded by the
    /// sanitizer, if any.
    pub fn take_invariant_trip(&mut self) -> Option<InvariantViolation> {
        self.sanitizer.as_deref_mut().and_then(Sanitizer::take_trip)
    }

    /// Runs `program` with the invariant sanitizer active, returning a
    /// typed error if any invariant trips.
    ///
    /// Enables a default-configured sanitizer if none is set; a sanitizer
    /// installed via [`Core::set_sanitizer`] (e.g. with a custom livelock
    /// budget) is kept.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] observed during the run.
    /// The run itself still terminates cleanly (the violation ends it
    /// early with `hit_limit` semantics), so the machine can keep being
    /// used afterwards — with suspect state.
    pub fn run_checked(&mut self, program: &Program) -> Result<RunResult, InvariantViolation> {
        self.run_checked_for(program, u64::MAX)
    }

    /// Like [`Core::run_checked`] with a committed-instruction bound.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] observed during the run.
    pub fn run_checked_for(
        &mut self,
        program: &Program,
        max_committed: u64,
    ) -> Result<RunResult, InvariantViolation> {
        if self.sanitizer.is_none() {
            self.sanitizer = Some(Box::new(Sanitizer::new(SanitizerConfig::default())));
        }
        if let Some(san) = self.sanitizer.as_deref_mut() {
            san.reset();
        }
        let result = self.run_for(program, max_committed);
        match self.take_invariant_trip() {
            Some(violation) => Err(violation),
            None => Ok(result),
        }
    }

    /// Registers machine-level counters into `reg`: the cache
    /// hierarchy's and the active defense's. Per-run counters come from
    /// [`RunStats::record_metrics`] on the result.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        self.hier.record_metrics(reg);
        self.defense.record_metrics(reg);
    }

    /// Runs `program` until `Halt` (or a safety bound).
    pub fn run(&mut self, program: &Program) -> RunResult {
        self.run_for(program, u64::MAX)
    }

    /// Runs `program` until `Halt`, a safety bound, or `max_committed`
    /// committed instructions — the analogue of gem5's `maxinst` used by
    /// the paper's Fig. 12 methodology.
    pub fn run_for(&mut self, program: &Program, max_committed: u64) -> RunResult {
        self.run_with_milestone(program, None, max_committed)
    }

    /// Like [`Core::run_for`], additionally recording the cycle at which
    /// `milestone` committed instructions had retired — gem5's
    /// `startCycles`, used to exclude warmup from measurements.
    pub fn run_with_milestone(
        &mut self,
        program: &Program,
        milestone: Option<u64>,
        max_committed: u64,
    ) -> RunResult {
        let start_cycle = self.clock;
        // Fast-forward is only engaged for runs the functional path can
        // model faithfully: per-instruction tracing needs the detailed
        // core's event stream, and fault injection hooks the detailed
        // access path.
        let ff = self.mode == ExecMode::FastForward
            && !self.tracing
            && self.hier.fault_injector().is_none();
        if ff {
            self.compute_ff_plan(program);
        }
        let mut st = Exec {
            pc: 0,
            regs: [0; NUM_REGS],
            avail: [start_cycle; NUM_REGS],
            cur_cycle: start_cycle,
            slots_left: self.cfg.dispatch_width,
            last_complete: start_cycle,
            last_mem: start_cycle,
            fence_floor: start_cycle,
            spec: std::mem::take(&mut self.spec_storage),
            rob: self.rob_storage.take_reserved(self.cfg.rob_entries),
            load_issue_cycle: 0,
            loads_in_cycle: 0,
            loads_issued: 0,
            stats: RunStats::default(),
            hit_limit: false,
            trace: if self.tracing { Some(Vec::new()) } else { None },
            tel_seq: 0,
        };

        // One instance of the dispatch loop per run: any observer selects
        // the instance that emits per-instruction events, pushes the trace
        // and polls the sanitizer; a run with none pays for none of them.
        if self.tracing || self.telemetry.is_enabled() || self.sanitizer.is_some() {
            self.run_loop::<true>(&mut st, program, ff, start_cycle, milestone, max_committed);
        } else {
            self.run_loop::<false>(&mut st, program, ff, start_cycle, milestone, max_committed);
        }

        // Run-end structural audit (no-op when the sanitizer is off or
        // already tripped).
        self.structural_checks(&st);

        let end = st.cur_cycle.max(st.last_complete);
        st.stats.cycles = end - start_cycle;
        self.clock = end + 1;
        // Hand the run's scratch structures back for the next run:
        // frames still open at a limit-bounded exit are dropped, and the
        // speculation store and ROB queue keep their capacity.
        st.spec.clear();
        self.spec_storage = st.spec;
        st.rob.clear();
        self.rob_storage = st.rob;
        RunResult {
            stats: st.stats,
            regs: st.regs,
            hit_limit: st.hit_limit,
            trace: st.trace.map(|events| ExecTrace { events }),
        }
    }

    /// The dispatch loop of [`Core::run_with_milestone`], compiled once
    /// per `OBSERVED`. The observed instance (`true`) runs whenever the
    /// core is tracing, has an enabled telemetry handle or has a
    /// sanitizer; the unobserved instance drops the per-instruction
    /// `Dispatch`/`Issue`/`Complete` emits, the trace push and the
    /// sanitizer poll, all of which are no-ops in such a run. Both
    /// instances are this one source, so they cannot disagree on a
    /// simulated value.
    fn run_loop<const OBSERVED: bool>(
        &mut self,
        st: &mut Exec,
        program: &Program,
        ff: bool,
        start_cycle: Cycle,
        milestone: Option<u64>,
        max_committed: u64,
    ) {
        // Hoisted loop invariants, as in `fast_forward`. The saturating
        // cycle limit is exact: `cur_cycle >= start_cycle`, so
        // `cur_cycle > cycle_limit` is `cur_cycle - start_cycle >
        // max_cycles`. The milestone stays pending until the first head
        // that reaches it; committed counts are monotone.
        let inst_limit = max_committed.min(self.cfg.max_insts);
        let cycle_limit = start_cycle.saturating_add(self.cfg.max_cycles);
        let rob_entries = self.cfg.rob_entries;
        let dispatch_width = self.cfg.dispatch_width;
        let mut milestone_pending = milestone;
        loop {
            // Safety bounds.
            if st.cur_cycle > cycle_limit || st.stats.committed_insts >= inst_limit {
                st.hit_limit = true;
                break;
            }
            // A tripped invariant ends the run at the next loop head:
            // the machine state is already suspect, so continuing would
            // only bury the root cause.
            if OBSERVED && self.sanitizer.as_deref().is_some_and(Sanitizer::tripped) {
                st.hit_limit = true;
                break;
            }
            if let Some(m) = milestone_pending {
                if st.stats.committed_insts >= m {
                    // Fast-forward may have recorded it already; that
                    // record stands.
                    st.stats
                        .milestone_cycle
                        .get_or_insert(st.cur_cycle - start_cycle);
                    milestone_pending = None;
                }
            }

            // Two-speed core: with no open frames, every in-flight
            // instruction is architecturally committed, so straight-line
            // code runs in the functional interpreter until the next
            // speculation source. The memory system must also be
            // quiescent: the functional path has no MSHR merge, so an
            // in-flight miss (e.g. a squashed wrong-path load whose MSHR
            // the rollback leaves running) must drain in detailed mode,
            // where a re-execution of the same line merges and waits.
            // Re-entering the loop re-checks bounds; the follow-up probe
            // makes no progress and falls through to the detailed core
            // for the trigger instruction.
            if ff
                && st.spec.frames.is_empty()
                && self.hier.memory_quiescent(st.cur_cycle)
                && self.fast_forward(st, program, start_cycle, milestone, max_committed)
            {
                continue;
            }

            // Resolve frames whose branches have resolved by now.
            let peek = st.peek_dispatch_cycle();
            if let Some(idx) = st.spec.earliest_resolvable(peek) {
                self.resolve_frame(st, idx);
                continue;
            }

            // Fetch.
            let inst = match program.fetch(st.pc) {
                Some(inst) => inst,
                None => {
                    if let Some(resolve) = st.spec.earliest_mispredict {
                        // Wrong-path fetch ran off the program; stall
                        // until the squash redirects us.
                        st.stall_to(resolve);
                        continue;
                    }
                    // Correct path fell off the end: treat as halt.
                    break;
                }
            };

            if inst == Inst::Halt {
                if let Some(resolve) = st.spec.earliest_mispredict {
                    st.stall_to(resolve);
                    continue;
                }
                // Drain remaining (correct) frames and finish.
                while let Some((r, idx)) = st.spec.earliest_resolve {
                    st.stall_to(r);
                    self.resolve_frame(st, idx);
                }
                break;
            }

            // ROB occupancy.
            if st.rob.len() >= rob_entries {
                if let Some(release) = st.rob.pop_front() {
                    if release > st.peek_dispatch_cycle() {
                        // Retirement watchdog: a release absurdly far in
                        // the future (a wedged fill) would stall forever;
                        // convert it to a typed livelock instead.
                        let stalled = release - st.peek_dispatch_cycle();
                        if let Some(san) = self.sanitizer.as_deref_mut() {
                            let budget = san.config().livelock_budget;
                            if budget > 0 && stalled > budget {
                                let violation = InvariantViolation::Livelock {
                                    pc: st.pc,
                                    rob_head: release,
                                    cycles_stalled: stalled,
                                };
                                self.telemetry.emit(Event::InvariantTrip {
                                    cycle: st.cur_cycle,
                                    code: violation.code(),
                                    detail: violation.detail(),
                                });
                                san.note(violation);
                                st.hit_limit = true;
                                break;
                            }
                        }
                        st.stall_to(release);
                        // Frames may resolve during the stall.
                        continue;
                    }
                }
            }

            let d = st.take_dispatch_slot(dispatch_width);
            self.execute::<OBSERVED>(st, inst, d);
        }
    }

    /// Rebuilds [`Self::ff_plan`] for `program`: pre-decodes each
    /// instruction into its flat [`FfUop`] form, then one backward pass
    /// records in [`FfUop::span`], per PC, how many consecutive
    /// instructions from there on are span-safe — they neither transfer
    /// control (every transfer re-enters the outer loop so `pc` stays
    /// explicit) nor fence (a fence's `stall_to` can advance the clock
    /// arbitrarily, which would break the plan loop's
    /// one-cycle-per-instruction headroom bound against `max_cycles`).
    fn compute_ff_plan(&mut self, program: &Program) {
        let insts = program.instructions();
        self.ff_plan.clear();
        self.ff_plan
            .extend(insts.iter().map(|&inst| FfUop::decode(inst)));
        let mut run = 0u32;
        for uop in self.ff_plan.iter_mut().rev() {
            run = match uop.kind {
                FfKind::Barrier => 0,
                _ => run.saturating_add(1),
            };
            uop.span = run;
        }
    }

    /// The fast-forward functional interpreter: executes committed
    /// straight-line instructions from the current PC until the next
    /// speculation source (`Branch` / `JumpInd` / `Ret`), `Halt`, the
    /// program end, or a run bound. Returns whether any instruction was
    /// executed.
    ///
    /// Timing state advances with the exact detailed-mode formulas —
    /// dispatch-slot arithmetic, operand-ready chains, load ports,
    /// fences, the hierarchy's bank bookings and noise stream — so the
    /// hand-off back into the detailed core is seamless. What is skipped
    /// is machinery committed straight-line code cannot need: ROB
    /// modeling, MSHR entries, per-instruction telemetry and trace,
    /// effect logging (there is no open frame to undo into), and
    /// wrong-path logic. The sanitizer's structural audit brackets every
    /// region so a hand-off that corrupts cache structure trips
    /// immediately.
    fn fast_forward(
        &mut self,
        st: &mut Exec,
        program: &Program,
        start_cycle: Cycle,
        milestone: Option<u64>,
        max_committed: u64,
    ) -> bool {
        // Hoisted loop invariants: the config scalars and the combined
        // instruction bound are loop-constant, and the milestone only
        // needs re-checking while it is still pending — committed
        // counts are monotone, so once recorded it stays recorded.
        let inst_limit = max_committed.min(self.cfg.max_insts);
        let cycle_limit = start_cycle.saturating_add(self.cfg.max_cycles);
        let dispatch_width = self.cfg.dispatch_width;
        let load_ports = self.cfg.load_ports;
        let alu_latency = self.cfg.alu_latency;
        let mul_latency = self.cfg.mul_latency;
        let mut milestone_pending = milestone.filter(|_| st.stats.milestone_cycle.is_none());
        let insts = program.instructions();
        let mut executed = 0u64;
        loop {
            // Same per-instruction bounds and milestone discipline as the
            // detailed loop head.
            if st.cur_cycle > cycle_limit || st.stats.committed_insts >= inst_limit {
                break;
            }
            if let Some(m) = milestone_pending {
                if st.stats.committed_insts >= m {
                    st.stats.milestone_cycle = Some(st.cur_cycle - start_cycle);
                    milestone_pending = None;
                }
            }
            let Some(&inst) = insts.get(st.pc) else {
                break;
            };
            if inst == Inst::Halt || inst.is_speculation_source() {
                break;
            }
            if executed == 0 {
                self.structural_checks(st);
                self.telemetry.emit(Event::ModeSwitch {
                    cycle: st.cur_cycle,
                    fast_forward: true,
                });
                st.stats.ff_regions += 1;
            }

            // Plan loop: every span-safe PC runs a precomputed stretch
            // of span-safe instructions in a tight slice loop with the
            // loop-head checks amortized to once per span. The clamps
            // keep it exactly equivalent to per-instruction execution:
            // the span stops at the instruction bound, at a pending
            // milestone (so the head records it at the same commit
            // count), and within the cycle headroom (the clock advances
            // at most one cycle per dispatched instruction, so
            // `cycle_limit` cannot be crossed mid-span). With no
            // headroom left the span is still one instruction, which is
            // what the loop head would have let run.
            let span = self.ff_plan.get(st.pc).map_or(0, |u| u.span);
            if span > 0 {
                let mut span = u64::from(span).min(inst_limit - st.stats.committed_insts);
                if let Some(m) = milestone_pending {
                    span = span.min(m - st.stats.committed_insts);
                }
                let span = span.min(cycle_limit - st.cur_cycle).max(1);
                let end = st.pc + span as usize;
                // The clock, dispatch slots, and completion horizons live
                // in locals for the span: nothing inside a span can stall
                // the clock or move the fence floor, so the only per-inst
                // state updates are these registers plus the register
                // file — written back once when the span ends.
                let mut cur_cycle = st.cur_cycle;
                let mut slots_left = st.slots_left;
                let mut last_complete = st.last_complete;
                let mut last_mem = st.last_mem;
                let fence_floor = st.fence_floor;
                // Register-register / register-immediate ALU arms share
                // everything but the operand-ready chain; the values come
                // from `AluOp::apply`, the micro-ISA's one definition.
                macro_rules! rr {
                    ($u:expr, $d:expr, $lat:expr, $op:expr) => {{
                        let ready = st.avail[$u.ai()].max(st.avail[$u.bi()]).max($d);
                        let done = ready + $lat;
                        st.regs[$u.dsti()] = $op.apply(st.regs[$u.ai()], st.regs[$u.bi()]);
                        st.avail[$u.dsti()] = done;
                        done
                    }};
                }
                macro_rules! ri {
                    ($u:expr, $d:expr, $lat:expr, $op:expr) => {{
                        let ready = st.avail[$u.ai()].max($d);
                        let done = ready + $lat;
                        st.regs[$u.dsti()] = $op.apply(st.regs[$u.ai()], $u.imm);
                        st.avail[$u.dsti()] = done;
                        done
                    }};
                }
                for &u in &self.ff_plan[st.pc..end] {
                    if slots_left == 0 {
                        cur_cycle += 1;
                        slots_left = dispatch_width;
                    }
                    slots_left -= 1;
                    let d = cur_cycle;
                    let complete = match u.kind {
                        FfKind::Nop => d,
                        FfKind::MovImm => {
                            st.regs[u.dsti()] = u.imm;
                            st.avail[u.dsti()] = d;
                            d
                        }
                        FfKind::AddRR => rr!(u, d, alu_latency, AluOp::Add),
                        FfKind::SubRR => rr!(u, d, alu_latency, AluOp::Sub),
                        FfKind::MulRR => rr!(u, d, mul_latency, AluOp::Mul),
                        FfKind::AndRR => rr!(u, d, alu_latency, AluOp::And),
                        FfKind::OrRR => rr!(u, d, alu_latency, AluOp::Or),
                        FfKind::XorRR => rr!(u, d, alu_latency, AluOp::Xor),
                        FfKind::ShlRR => rr!(u, d, alu_latency, AluOp::Shl),
                        FfKind::ShrRR => rr!(u, d, alu_latency, AluOp::Shr),
                        FfKind::AddRI => ri!(u, d, alu_latency, AluOp::Add),
                        FfKind::SubRI => ri!(u, d, alu_latency, AluOp::Sub),
                        FfKind::MulRI => ri!(u, d, mul_latency, AluOp::Mul),
                        FfKind::AndRI => ri!(u, d, alu_latency, AluOp::And),
                        FfKind::OrRI => ri!(u, d, alu_latency, AluOp::Or),
                        FfKind::XorRI => ri!(u, d, alu_latency, AluOp::Xor),
                        FfKind::ShlRI => ri!(u, d, alu_latency, AluOp::Shl),
                        FfKind::ShrRI => ri!(u, d, alu_latency, AluOp::Shr),
                        FfKind::Load => {
                            // No open frame means no speculation tag,
                            // which in the detailed core forces
                            // `FillPolicy::Eager` regardless of the
                            // defense — so the functional fill is exact.
                            let addr = Addr::new(st.regs[u.ai()].wrapping_add(u.imm) & !7);
                            let ready = st.avail[u.ai()].max(d).max(fence_floor);
                            let start = st.alloc_load_slot(ready, load_ports);
                            let (done, _level) =
                                self.hier.access_data_functional(addr.line(), start);
                            st.regs[u.dsti()] = self.mem.read_u64(addr);
                            st.avail[u.dsti()] = done;
                            last_mem = last_mem.max(done);
                            st.stats.committed_loads += 1;
                            done
                        }
                        FfKind::Store => {
                            let addr = Addr::new(st.regs[u.ai()].wrapping_add(u.imm) & !7);
                            let ready = st.avail[u.ai()]
                                .max(st.avail[u.dsti()])
                                .max(d)
                                .max(fence_floor);
                            self.mem.write_u64(addr, st.regs[u.dsti()]);
                            let (done, _level) =
                                self.hier.write_data_functional(addr.line(), ready);
                            last_mem = last_mem.max(done);
                            done
                        }
                        FfKind::Flush => {
                            let addr = Addr::new(st.regs[u.ai()].wrapping_add(u.imm));
                            let ready = st.avail[u.ai()].max(d).max(fence_floor);
                            let done = self.hier.flush_line(addr.line(), ready);
                            last_mem = last_mem.max(done);
                            done
                        }
                        FfKind::ReadTime => {
                            let start = last_complete.max(d);
                            st.regs[u.dsti()] = start;
                            st.avail[u.dsti()] = start + self.cfg.timer_latency;
                            start + self.cfg.timer_latency
                        }
                        // Excluded from spans by compute_ff_plan.
                        FfKind::Barrier => {
                            debug_assert!(false, "barrier instruction inside a span");
                            d
                        }
                    };
                    last_complete = last_complete.max(complete);
                }
                st.cur_cycle = cur_cycle;
                st.slots_left = slots_left;
                st.last_complete = last_complete;
                st.last_mem = last_mem;
                st.pc = end;
                st.stats.committed_insts += span;
                executed += span;
                continue;
            }

            // The barriers that do not end the region — `Fence`, `Jump`
            // and `Call` — one at a time: the match books their timing,
            // `arch::step` applies their architectural effect.
            executed += 1;
            st.stats.committed_insts += 1;
            let d = st.take_dispatch_slot(dispatch_width);
            let complete = match inst {
                Inst::Fence => {
                    let done = st.last_mem.max(d);
                    st.fence_floor = st.fence_floor.max(done);
                    st.stall_to(done);
                    done
                }
                Inst::Call { sp, .. } => {
                    let ready = st.avail[sp.index()].max(d).max(st.fence_floor);
                    st.avail[sp.index()] = ready + 1;
                    let addr = Addr::new(st.regs[sp.index()].wrapping_sub(8) & !7);
                    let (done, _level) = self.hier.write_data_functional(addr.line(), ready);
                    st.last_mem = st.last_mem.max(done);
                    self.ras.push(st.pc + 1);
                    done
                }
                _ => d,
            };
            st.last_complete = st.last_complete.max(complete);
            st.pc = match arch::step(inst, st.pc, &mut st.regs, &mut self.mem, 0) {
                Flow::Jump(target) => target,
                Flow::Next | Flow::Halt => st.pc + 1,
            };
        }
        if executed > 0 {
            st.stats.ff_committed_insts += executed;
            self.telemetry.emit(Event::ModeSwitch {
                cycle: st.cur_cycle,
                fast_forward: false,
            });
            self.structural_checks(st);
        }
        executed > 0
    }

    /// Dispatches `inst` at cycle `d`. `OBSERVED` is the
    /// [`Core::run_loop`] instance's: only the observed one emits the
    /// pipeline events and pushes the trace.
    fn execute<const OBSERVED: bool>(&mut self, st: &mut Exec, inst: Inst, d: Cycle) {
        let pc = st.pc;
        // A mispredicted frame is open exactly when its resolve is
        // pending, so one cached field answers both questions.
        let squash_at = st.spec.earliest_mispredict;
        let wrong_path = squash_at.is_some();
        if wrong_path {
            st.stats.squashed_insts += 1;
        } else {
            st.stats.committed_insts += 1;
        }
        if OBSERVED {
            self.telemetry.emit(Event::Dispatch {
                cycle: d,
                seq: st.tel_seq,
                pc,
            });
        }

        let mut complete = d; // instruction completion for ROB release
        match inst {
            Inst::Nop => {
                st.pc += 1;
            }
            Inst::MovImm { dst, imm } => {
                st.regs[dst.index()] = imm;
                st.avail[dst.index()] = d;
                st.pc += 1;
            }
            Inst::Alu { op, dst, a, b } => {
                let (bv, bav) = st.operand(b);
                let ready = st.avail[a.index()].max(bav).max(d);
                let lat = match op {
                    crate::isa::AluOp::Mul => self.cfg.mul_latency,
                    _ => self.cfg.alu_latency,
                };
                let done = ready + lat;
                st.regs[dst.index()] = op.apply(st.regs[a.index()], bv);
                st.avail[dst.index()] = done;
                complete = done;
                st.pc += 1;
            }
            Inst::Load { dst, base, offset } => {
                let addr = Addr::new(st.regs[base.index()].wrapping_add(offset as u64) & !7);
                let ready = st.avail[base.index()].max(d).max(st.fence_floor);
                let start = st.alloc_load_slot(ready, self.cfg.load_ports);
                let suppressed = squash_at.filter(|&s| start >= s);
                if let Some(squash) = suppressed {
                    // Squash arrives before this load could issue: it
                    // never produces a value, so dependents only become
                    // "ready" at the squash itself (where they die too).
                    // This keeps dependent wrong-path loads from firing
                    // with a garbage address.
                    st.regs[dst.index()] = 0;
                    st.avail[dst.index()] = squash;
                    complete = start;
                } else {
                    let tag = st.spec.youngest_epoch();
                    let policy = if tag.is_some() {
                        self.defense.fill_policy()
                    } else {
                        FillPolicy::Eager
                    };
                    // Fill-at-commit policies track the line instead of
                    // filling now.
                    let mut deferred_line = None;
                    let outcome = match policy {
                        FillPolicy::Eager => self.hier.access_data(addr.line(), start, tag),
                        FillPolicy::Invisible => {
                            deferred_line = Some(addr.line());
                            let mut o = self.hier.access_data_no_fill(addr.line(), start);
                            o.complete_cycle += self.defense.speculative_load_extra_latency();
                            o
                        }
                        FillPolicy::DelayOnMiss => {
                            if self.hier.l1_contains(addr.line()) {
                                // Speculative hits proceed normally.
                                self.hier.access_data(addr.line(), start, tag)
                            } else if self.defense.delayed_load_value_predicted() {
                                // Value prediction supplies the result;
                                // the shadow request validates it without
                                // touching cache state.
                                deferred_line = Some(addr.line());
                                self.hier.access_data_no_fill(addr.line(), start)
                            } else {
                                // The request waits until every enclosing
                                // branch resolves, then pays the miss.
                                deferred_line = Some(addr.line());
                                let resolve_all = st
                                    .spec
                                    .resolve_cycles
                                    .iter()
                                    .copied()
                                    .max()
                                    .unwrap_or(start)
                                    .max(start);
                                if wrong_path {
                                    // Squashed before it can issue: it
                                    // never books bank or L2 time (no
                                    // contention footprint — the very
                                    // property delay-on-miss buys).
                                    let lat = self.hier.estimate_access_latency(addr.line());
                                    unxpec_cache::AccessOutcome {
                                        issue_cycle: start,
                                        complete_cycle: resolve_all + lat,
                                        level: unxpec_cache::HitLevel::Memory,
                                        effects: Effects::new(),
                                    }
                                } else {
                                    let mut o =
                                        self.hier.access_data_no_fill(addr.line(), resolve_all);
                                    o.issue_cycle = start;
                                    o
                                }
                            }
                        }
                    };
                    if OBSERVED {
                        self.telemetry.emit(Event::Issue {
                            cycle: start,
                            seq: st.tel_seq,
                            pc,
                        });
                    }
                    let value = self.mem.read_u64(addr);
                    st.regs[dst.index()] = value;
                    st.avail[dst.index()] = outcome.complete_cycle;
                    st.last_mem = st.last_mem.max(outcome.complete_cycle);
                    complete = outcome.complete_cycle;
                    if !wrong_path {
                        st.stats.committed_loads += 1;
                    }
                    st.loads_issued += 1;
                    st.spec.log(&outcome.effects, deferred_line);
                }
                st.pc += 1;
            }
            Inst::Store { src, base, offset } => {
                let addr = Addr::new(st.regs[base.index()].wrapping_add(offset as u64) & !7);
                let ready = st.avail[base.index()]
                    .max(st.avail[src.index()])
                    .max(d)
                    .max(st.fence_floor);
                if wrong_path {
                    // Stores never leave the store buffer speculatively.
                    complete = ready + 1;
                } else {
                    self.mem.write_u64(addr, st.regs[src.index()]);
                    let outcome = self.hier.write_data(addr.line(), ready);
                    st.last_mem = st.last_mem.max(outcome.complete_cycle);
                    complete = outcome.complete_cycle;
                }
                st.pc += 1;
            }
            Inst::Flush { base, offset } => {
                let addr = Addr::new(st.regs[base.index()].wrapping_add(offset as u64));
                let ready = st.avail[base.index()].max(d).max(st.fence_floor);
                if wrong_path {
                    complete = ready + 1;
                } else {
                    let done = self.hier.flush_line(addr.line(), ready);
                    st.last_mem = st.last_mem.max(done);
                    complete = done;
                }
                st.pc += 1;
            }
            Inst::Fence => {
                // Younger instructions wait for all older memory traffic.
                let done = st.last_mem.max(d);
                st.fence_floor = st.fence_floor.max(done);
                // The fence also gates dispatch itself.
                st.stall_to(done);
                complete = done;
                st.pc += 1;
            }
            Inst::ReadTime { dst } => {
                // Serializing timer read: waits for every older
                // instruction to complete, like rdtscp + lfence.
                let start = st.last_complete.max(d);
                st.regs[dst.index()] = start;
                st.avail[dst.index()] = start + self.cfg.timer_latency;
                complete = start + self.cfg.timer_latency;
                st.pc += 1;
            }
            Inst::Jump { target } => {
                st.pc = target;
            }
            Inst::Branch { cond, a, b, target } => {
                let (bv, bav) = st.operand(b);
                let ready = st.avail[a.index()].max(bav).max(d);
                let resolve = ready + self.cfg.branch_resolve_latency;
                let actual = cond.eval(st.regs[a.index()], bv);
                let predicted = self.predictor.predict(st.pc);
                // Predictor state updates at commit: wrong-path branches
                // never train it (they are squashed before retiring).
                if !wrong_path {
                    self.predictor.update(st.pc, actual);
                    st.stats.branches += 1;
                    if predicted != actual {
                        st.stats.mispredicts += 1;
                    }
                }
                let correct_pc = if actual { target } else { st.pc + 1 };
                let followed_pc = if predicted { target } else { st.pc + 1 };
                let epoch = SpecTag(self.next_epoch);
                self.next_epoch += 1;
                st.open_frame(epoch, d, resolve, predicted != actual, correct_pc);
                complete = resolve;
                st.pc = followed_pc;
            }
            Inst::JumpInd { target } => {
                let ready = st.avail[target.index()].max(d);
                let resolve = ready + self.cfg.branch_resolve_latency;
                let actual = st.regs[target.index()] as PcIndex;
                // BTB miss predicts fall-through (the front end has no
                // better guess and keeps fetching sequentially).
                let predicted = self.btb.predict(st.pc).unwrap_or(st.pc + 1);
                if !wrong_path {
                    self.btb.update(st.pc, actual);
                    st.stats.branches += 1;
                    if predicted != actual {
                        st.stats.mispredicts += 1;
                    }
                }
                let epoch = SpecTag(self.next_epoch);
                self.next_epoch += 1;
                st.open_frame(epoch, d, resolve, predicted != actual, actual);
                complete = resolve;
                st.pc = predicted;
            }
            Inst::Call { target, sp } => {
                // Push the return address onto the in-memory stack; like
                // stores, the write drains at commit (wrong-path calls
                // leave memory untouched).
                let ret_pc = (st.pc + 1) as u64;
                let new_sp = st.regs[sp.index()].wrapping_sub(8);
                let ready = st.avail[sp.index()].max(d).max(st.fence_floor);
                st.regs[sp.index()] = new_sp;
                st.avail[sp.index()] = ready + 1;
                if wrong_path {
                    complete = ready + 1;
                } else {
                    let addr = Addr::new(new_sp & !7);
                    self.mem.write_u64(addr, ret_pc);
                    let outcome = self.hier.write_data(addr.line(), ready);
                    st.last_mem = st.last_mem.max(outcome.complete_cycle);
                    complete = outcome.complete_cycle;
                    // The RSB snapshots the predicted return site.
                    self.ras.push(st.pc + 1);
                }
                st.pc = target;
            }
            Inst::Ret { sp } => {
                // The architectural target is loaded from the stack; the
                // front end follows the RSB immediately.
                let addr = Addr::new(st.regs[sp.index()] & !7);
                let ready = st.avail[sp.index()].max(d).max(st.fence_floor);
                let start = st.alloc_load_slot(ready, self.cfg.load_ports);
                st.regs[sp.index()] = st.regs[sp.index()].wrapping_add(8);
                st.avail[sp.index()] = ready + 1;
                let suppressed = squash_at.map(|sq| start >= sq).unwrap_or(false);
                if suppressed {
                    // Dies before it can issue; treat like a suppressed
                    // load with an unreachable frame.
                    complete = start;
                    st.pc += 1;
                } else {
                    let tag = st.spec.youngest_epoch();
                    if OBSERVED {
                        self.telemetry.emit(Event::Issue {
                            cycle: start,
                            seq: st.tel_seq,
                            pc,
                        });
                    }
                    let outcome = self.hier.access_data(addr.line(), start, tag);
                    let actual = self.mem.read_u64(addr) as PcIndex;
                    let resolve = outcome.complete_cycle + self.cfg.branch_resolve_latency;
                    let predicted = if wrong_path {
                        self.ras.peek().unwrap_or(st.pc + 1)
                    } else {
                        self.ras.pop().unwrap_or(st.pc + 1)
                    };
                    st.last_mem = st.last_mem.max(outcome.complete_cycle);
                    if !wrong_path {
                        st.stats.branches += 1;
                        if predicted != actual {
                            st.stats.mispredicts += 1;
                        }
                    }
                    st.loads_issued += 1;
                    st.spec.log(&outcome.effects, None);
                    let epoch = SpecTag(self.next_epoch);
                    self.next_epoch += 1;
                    st.open_frame(epoch, d, resolve, predicted != actual, actual);
                    complete = resolve;
                    st.pc = predicted;
                }
            }
            // Halt is intercepted by the main loop before dispatch, so
            // there is nothing to execute; `complete` stays at `d`.
            Inst::Halt => {}
        }

        st.last_complete = st.last_complete.max(complete);
        // ROB release: in-order commit discipline.
        let release = st.rob.back().unwrap_or(0).max(complete);
        st.rob.push_back(release);
        if OBSERVED {
            self.telemetry.emit(Event::Complete {
                cycle: complete,
                seq: st.tel_seq,
                pc,
                wrong_path,
            });
            if let Some(trace) = st.trace.as_mut() {
                trace.push(TraceEvent {
                    seq: st.tel_seq,
                    pc,
                    inst,
                    dispatch_cycle: d,
                    complete_cycle: complete,
                    wrong_path,
                });
            }
            st.tel_seq += 1;
        }
    }

    /// Resolves the frame at `idx` (its branch's resolve cycle has been
    /// reached).
    fn resolve_frame(&mut self, st: &mut Exec, idx: usize) {
        let (Some(&frame), Some(&resolve)) =
            (st.spec.frames.get(idx), st.spec.resolve_cycles.get(idx))
        else {
            // `idx` always comes from `earliest_resolve`; bail out rather
            // than panic if it ever is stale.
            return;
        };
        if frame.checkpoint.is_none() {
            st.spec.remove(idx);
            st.stall_to(resolve);
            if st.spec.frames.is_empty() {
                let (effects, lines) = st.spec.since(&frame);
                if !effects.is_empty() {
                    self.defense.on_commit_epoch(&mut self.hier, effects);
                }
                // Invisible-policy loads expose their data now: the
                // buffered fills become architectural.
                for &line in lines {
                    self.hier.access_data(line, resolve, None);
                }
                st.spec.clear_logs();
            }
            return;
        }

        // Mis-speculation: squash this frame and everything younger.
        let checkpoint = st.spec.squash(idx);
        let squashed_loads = (st.loads_issued - frame.loads_at_open) as usize;
        let squashed_insts = (st.dispatched() - frame.insts_at_open) as usize;
        let (transient, _) = st.spec.since(&frame);
        let l1_installs = transient.iter().filter(|e| e.is_l1()).count();
        let l1_evictions = transient
            .iter()
            .filter(|e| e.is_l1() && e.victim().is_some())
            .count();
        let info = SquashInfo {
            resolve_cycle: resolve,
            branch_pc: frame.branch_pc,
            epoch: frame.epoch,
            transient_effects: transient,
            squashed_loads,
            squashed_insts,
        };
        self.telemetry.emit(Event::SquashBegin {
            cycle: resolve,
            branch_pc: frame.branch_pc,
            epoch: frame.epoch.0,
            squashed_loads: squashed_loads as u64,
            squashed_insts: squashed_insts as u64,
        });
        let redirect = self.defense.on_squash(&mut self.hier, &info).max(resolve);
        self.telemetry.emit(Event::SquashEnd {
            cycle: redirect,
            branch_pc: frame.branch_pc,
            epoch: frame.epoch.0,
        });
        if self.sanitizer.is_some() {
            self.rollback_oracle(frame.epoch, redirect, transient);
            self.structural_checks(st);
        }

        // Squashed loads' records leave the logs: the defense already
        // rolled them back.
        st.spec.drop_since(&frame);

        // Roll the architectural path back to the checkpoint.
        if let Some(ckpt) = checkpoint {
            st.regs = ckpt.regs;
            st.avail = ckpt.avail;
            st.last_complete = ckpt.last_complete.max(redirect);
            st.last_mem = ckpt.last_mem.max(redirect);
        }
        st.pc = frame.correct_pc;
        st.stall_to(redirect + self.cfg.squash_penalty);

        st.stats.cleanup_stall_cycles += redirect - resolve;
        st.stats.squashes.push(SquashRecord {
            branch_pc: frame.branch_pc,
            dispatch_cycle: frame.dispatch_cycle,
            resolve_cycle: resolve,
            redirect_cycle: redirect,
            squashed_loads,
            l1_installs,
            l1_evictions,
        });
    }

    /// Structural invariant audit: occupancy recounts, the MSHR ledger,
    /// and ROB release-queue monotonicity. Runs at squash boundaries and
    /// at run end — never per instruction — and records the first
    /// violation as an `Event::InvariantTrip` plus a typed trip on the
    /// sanitizer. No-op when the sanitizer is off or already tripped.
    fn structural_checks(&mut self, st: &Exec) {
        let Some(san) = self.sanitizer.as_deref_mut() else {
            return;
        };
        if san.tripped() {
            return;
        }
        let cfg = *san.config();
        let mut found = None;
        if cfg.check_occupancy {
            if let Err((counted, recounted)) = self.hier.l1d().verify_occupancy() {
                found = Some(InvariantViolation::OccupancyMismatch {
                    level: 1,
                    counted,
                    recounted,
                });
            } else if let Err((counted, recounted)) = self.hier.l2().verify_occupancy() {
                found = Some(InvariantViolation::OccupancyMismatch {
                    level: 2,
                    counted,
                    recounted,
                });
            }
        }
        if found.is_none() && cfg.check_mshr {
            if let Err((allocated, released, live)) = self.hier.mshrs().verify_accounting() {
                found = Some(InvariantViolation::MshrLeak {
                    allocated,
                    released,
                    live,
                });
            }
        }
        if found.is_none() && cfg.check_rob {
            found = st.rob.order_violation();
        }
        san.record_check();
        if let Some(violation) = found {
            self.telemetry.emit(Event::InvariantTrip {
                cycle: st.cur_cycle,
                code: violation.code(),
                detail: violation.detail(),
            });
            san.note(violation);
        }
    }

    /// Rollback-exactness oracle, run right after a squash handled by a
    /// defense claiming [`Defense::rollback_exact`]: verify line by line
    /// that the caches look as if the squashed loads never ran.
    ///
    /// Two tiers:
    /// * *tag check* (unconditional) — no line installed by a squashed
    ///   load may still carry a squashed-epoch speculation tag;
    /// * *residency checks* (skipped once spurious-evict faults have
    ///   fired, because an injected eviction legitimately removes lines
    ///   the defense restored) — installed L1 lines are gone unless they
    ///   were prior-resident victims getting restored, and every
    ///   non-speculative victim is back.
    ///
    /// `transient` is the squashed effect list the defense saw.
    fn rollback_oracle(&mut self, epoch: SpecTag, cycle: Cycle, transient: &[Effect]) {
        let Some(san) = self.sanitizer.as_deref_mut() else {
            return;
        };
        if san.tripped() || !san.config().check_rollback || !self.defense.rollback_exact() {
            return;
        }
        let spurious_evicts = self
            .hier
            .fault_injector()
            .map_or(0, |f| f.count(unxpec_cache::FaultKind::SpuriousEvict))
            > 0;
        let mut found = None;
        for effect in transient {
            let line = effect.installed_line();
            let tag = if effect.is_l1() {
                self.hier.l1d().spec_tag(line)
            } else {
                self.hier.l2().spec_tag(line)
            };
            if tag.is_some_and(|t| t.0 >= epoch.0) {
                found = Some(InvariantViolation::RollbackMismatch {
                    line: line.raw(),
                    which: RollbackCheck::TagRemains,
                });
                break;
            }
        }
        if found.is_none() && !spurious_evicts {
            for effect in transient {
                if !effect.is_l1() {
                    continue;
                }
                let line = effect.installed_line();
                // A transient install of a line that an older squashed
                // fill evicted (non-speculatively resident before the
                // window) legitimately ends up resident again: the
                // rollback restores it as that fill's victim.
                let reinstated = transient.iter().any(|e| {
                    e.is_l1()
                        && e.victim()
                            .is_some_and(|v| !v.was_speculative && v.line == line)
                });
                if !reinstated && self.hier.l1_contains(line) {
                    found = Some(InvariantViolation::RollbackMismatch {
                        line: line.raw(),
                        which: RollbackCheck::InstallSurvived,
                    });
                    break;
                }
                if let Some(victim) = effect.victim() {
                    if !victim.was_speculative && !self.hier.l1_contains(victim.line) {
                        found = Some(InvariantViolation::RollbackMismatch {
                            line: victim.line.raw(),
                            which: RollbackCheck::VictimLost,
                        });
                        break;
                    }
                }
            }
        }
        san.record_check();
        if let Some(violation) = found {
            self.telemetry.emit(Event::InvariantTrip {
                cycle,
                code: violation.code(),
                detail: violation.detail(),
            });
            san.note(violation);
        }
    }
}

/// Dispatch tag for a pre-decoded span-safe instruction. ALU ops split
/// into register/immediate forms so the plan loop resolves the right
/// operand at decode time instead of re-matching `Operand` per
/// execution, and the op folds into the same dispatch as the kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FfKind {
    Nop,
    MovImm,
    AddRR,
    SubRR,
    MulRR,
    AndRR,
    OrRR,
    XorRR,
    ShlRR,
    ShrRR,
    AddRI,
    SubRI,
    MulRI,
    AndRI,
    OrRI,
    XorRI,
    ShlRI,
    ShrRI,
    Load,
    Store,
    Flush,
    ReadTime,
    /// Anything not span-safe (control flow, fences, `Halt`). Present in
    /// the plan so it stays index-parallel to the program, but
    /// [`Core::compute_ff_plan`] gives these PCs a zero span length, so
    /// the plan loop never dispatches one.
    Barrier,
}

/// One pre-decoded instruction of the fast-forward plan: a flat
/// `(kind, regs, span, imm)` record the plan loop executes with a
/// single jump-table dispatch. `dst` holds the source register for
/// `Store` (which writes memory, not a register); `imm` holds the
/// immediate for `MovImm` and `*RI` forms and the byte displacement
/// (as raw `u64` bits) for memory ops. `span` fills the padding before
/// `imm`, so the record stays 16 bytes.
#[derive(Debug, Clone, Copy)]
struct FfUop {
    kind: FfKind,
    dst: u8,
    a: u8,
    b: u8,
    /// Consecutive span-safe instructions from this PC on (0 for a
    /// [`FfKind::Barrier`]); set by [`Core::compute_ff_plan`].
    span: u32,
    imm: u64,
}

const _: () = assert!(std::mem::size_of::<FfUop>() == 16);

impl FfUop {
    /// Register-file index of the `dst` field. Decode validated the raw
    /// number, so the mask is a no-op that lets the plan loop index the
    /// register file without bounds checks.
    #[inline(always)]
    fn dsti(self) -> usize {
        (self.dst & (NUM_REGS as u8 - 1)) as usize
    }

    /// Register-file index of the `a` field (see [`Self::dsti`]).
    #[inline(always)]
    fn ai(self) -> usize {
        (self.a & (NUM_REGS as u8 - 1)) as usize
    }

    /// Register-file index of the `b` field (see [`Self::dsti`]).
    #[inline(always)]
    fn bi(self) -> usize {
        (self.b & (NUM_REGS as u8 - 1)) as usize
    }

    fn decode(inst: Inst) -> FfUop {
        let uop = |kind, dst: u8, a: u8, b: u8, imm: u64| {
            // The detailed path panics on an out-of-range register at
            // execution; pre-decode keeps that contract by rejecting it
            // here, which is what makes the masked (unchecked) indexing
            // in the plan loop exact.
            assert!(
                (dst as usize) < NUM_REGS && (a as usize) < NUM_REGS && (b as usize) < NUM_REGS,
                "register out of range in fast-forward pre-decode"
            );
            FfUop {
                kind,
                dst,
                a,
                b,
                span: 0,
                imm,
            }
        };
        match inst {
            Inst::Nop => uop(FfKind::Nop, 0, 0, 0, 0),
            Inst::MovImm { dst, imm } => uop(FfKind::MovImm, dst.0, 0, 0, imm),
            Inst::Alu { op, dst, a, b } => {
                let (rr, ri) = match op {
                    AluOp::Add => (FfKind::AddRR, FfKind::AddRI),
                    AluOp::Sub => (FfKind::SubRR, FfKind::SubRI),
                    AluOp::Mul => (FfKind::MulRR, FfKind::MulRI),
                    AluOp::And => (FfKind::AndRR, FfKind::AndRI),
                    AluOp::Or => (FfKind::OrRR, FfKind::OrRI),
                    AluOp::Xor => (FfKind::XorRR, FfKind::XorRI),
                    AluOp::Shl => (FfKind::ShlRR, FfKind::ShlRI),
                    AluOp::Shr => (FfKind::ShrRR, FfKind::ShrRI),
                };
                match b {
                    Operand::Reg(r) => uop(rr, dst.0, a.0, r.0, 0),
                    Operand::Imm(i) => uop(ri, dst.0, a.0, 0, i),
                }
            }
            Inst::Load { dst, base, offset } => uop(FfKind::Load, dst.0, base.0, 0, offset as u64),
            Inst::Store { src, base, offset } => {
                uop(FfKind::Store, src.0, base.0, 0, offset as u64)
            }
            Inst::Flush { base, offset } => uop(FfKind::Flush, 0, base.0, 0, offset as u64),
            Inst::ReadTime { dst } => uop(FfKind::ReadTime, dst.0, 0, 0, 0),
            Inst::Fence
            | Inst::Branch { .. }
            | Inst::Jump { .. }
            | Inst::JumpInd { .. }
            | Inst::Call { .. }
            | Inst::Ret { .. }
            | Inst::Halt => uop(FfKind::Barrier, 0, 0, 0, 0),
        }
    }
}

/// The ROB's release-cycle queue, oldest first: a power-of-two ring
/// reserved to `rob_entries` at run start. The main loop pops only when
/// the queue holds `rob_entries` entries and pushes once per dispatch,
/// so within a run it never outgrows the reservation; [`RobRing::grow`]
/// exists only so a caller that outruns the bound keeps a correct
/// queue. `last` caches the
/// youngest entry for the per-dispatch [`RobRing::back`].
#[derive(Debug, Default)]
struct RobRing {
    /// Slot storage; empty or a power-of-two length.
    buf: Vec<Cycle>,
    /// Index of the oldest entry.
    head: usize,
    len: usize,
    /// The youngest entry (meaningful only while `len > 0`).
    last: Cycle,
}

impl RobRing {
    /// Moves the (empty) ring out of `self`, with room for `entries`
    /// without growing. Capacity is kept across runs: only the first run
    /// (or a larger ROB) allocates.
    fn take_reserved(&mut self, entries: usize) -> RobRing {
        let mut ring = std::mem::take(self);
        let cap = entries.next_power_of_two();
        if ring.buf.len() < cap {
            ring.buf = vec![0; cap];
        }
        ring
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The youngest entry.
    #[inline]
    fn back(&self) -> Option<Cycle> {
        (self.len > 0).then_some(self.last)
    }

    #[inline]
    fn push_back(&mut self, release: Cycle) {
        if self.len == self.buf.len() {
            self.grow();
        }
        let mask = self.buf.len() - 1;
        self.buf[(self.head + self.len) & mask] = release;
        self.len += 1;
        self.last = release;
    }

    #[inline]
    fn pop_front(&mut self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        let oldest = self.buf[self.head];
        self.head = (self.head + 1) & (self.buf.len() - 1);
        self.len -= 1;
        Some(oldest)
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Doubles the storage (at least one slot), unrolling the ring so
    /// the oldest entry lands at index 0 and order is kept.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let unrolled: Vec<Cycle> = self.iter().collect();
        let mut buf = vec![0; (self.buf.len() * 2).max(1)];
        buf[..unrolled.len()].copy_from_slice(&unrolled);
        self.buf = buf;
        self.head = 0;
    }

    /// Entries oldest first.
    fn iter(&self) -> impl Iterator<Item = Cycle> + '_ {
        let mask = self.buf.len().wrapping_sub(1);
        (0..self.len).map(move |i| self.buf[(self.head + i) & mask])
    }

    /// The sanitizer's ROB audit: release cycles must be non-decreasing
    /// oldest to youngest (in-order commit). Returns the first pair out
    /// of order.
    fn order_violation(&self) -> Option<InvariantViolation> {
        let mut prev = 0;
        for next in self.iter() {
            if next < prev {
                return Some(InvariantViolation::RobOrder { prev, next });
            }
            prev = next;
        }
        None
    }
}

/// Per-run mutable execution state.
struct Exec {
    pc: PcIndex,
    regs: [u64; NUM_REGS],
    avail: [Cycle; NUM_REGS],
    cur_cycle: Cycle,
    slots_left: u64,
    last_complete: Cycle,
    last_mem: Cycle,
    fence_floor: Cycle,
    /// Open frames, their checkpoints and their logged records.
    spec: SpecStorage,
    rob: RobRing,
    load_issue_cycle: Cycle,
    loads_in_cycle: u64,
    /// Loads issued this run (wrong-path included) — the minuend for
    /// per-frame load counts derived at squash time.
    loads_issued: u64,
    stats: RunStats,
    hit_limit: bool,
    trace: Option<Vec<TraceEvent>>,
    /// Sequence number of the next dispatched instruction, shared by its
    /// pipeline events and its trace event (observed runs only).
    tel_seq: u64,
}

impl Exec {
    fn operand(&self, op: Operand) -> (u64, Cycle) {
        match op {
            Operand::Reg(r) => (self.regs[r.index()], self.avail[r.index()]),
            Operand::Imm(i) => (i, 0),
        }
    }

    fn peek_dispatch_cycle(&self) -> Cycle {
        if self.slots_left == 0 {
            self.cur_cycle + 1
        } else {
            self.cur_cycle
        }
    }

    fn take_dispatch_slot(&mut self, width: u64) -> Cycle {
        if self.slots_left == 0 {
            self.cur_cycle += 1;
            self.slots_left = width;
        }
        self.slots_left -= 1;
        self.cur_cycle
    }

    fn stall_to(&mut self, cycle: Cycle) {
        if cycle > self.cur_cycle {
            self.cur_cycle = cycle;
            self.slots_left = 0; // fresh cycle starts on next dispatch
        }
    }

    fn alloc_load_slot(&mut self, ready: Cycle, ports: u64) -> Cycle {
        let mut start = ready;
        if start < self.load_issue_cycle {
            start = self.load_issue_cycle;
        }
        if start == self.load_issue_cycle && self.loads_in_cycle >= ports {
            start += 1;
        }
        if start > self.load_issue_cycle {
            self.load_issue_cycle = start;
            self.loads_in_cycle = 0;
        }
        self.loads_in_cycle += 1;
        start
    }

    /// Instructions dispatched this run (committed + squashed) — the
    /// minuend for per-frame instruction counts derived at squash time.
    fn dispatched(&self) -> u64 {
        self.stats.committed_insts + self.stats.squashed_insts
    }

    /// Opens a frame for the speculation source at `self.pc` as the
    /// youngest, checkpointing the architectural state only if it is
    /// `mispredicted`.
    fn open_frame(
        &mut self,
        epoch: SpecTag,
        dispatch_cycle: Cycle,
        resolve_cycle: Cycle,
        mispredicted: bool,
        correct_pc: PcIndex,
    ) {
        let frame = Frame {
            epoch,
            branch_pc: self.pc,
            dispatch_cycle,
            correct_pc,
            checkpoint: None,
            effects_start: 0,
            lines_start: 0,
            loads_at_open: self.loads_issued,
            insts_at_open: self.dispatched(),
        };
        // Only a mispredicted frame ever restores its checkpoint, so
        // only one pays for the 528-byte copy.
        let checkpoint = if mispredicted {
            Some(Checkpoint {
                regs: self.regs,
                avail: self.avail,
                last_complete: self.last_complete,
                last_mem: self.last_mem,
            })
        } else {
            None
        };
        self.spec.open(frame, resolve_cycle, checkpoint);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::isa::Cond;
    use crate::predictor::NeverTaken;
    use crate::program::ProgramBuilder;

    fn run(b: ProgramBuilder) -> RunResult {
        Core::table_i().run(&b.build())
    }

    #[test]
    fn straight_line_alu() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 10);
        b.mov(Reg(2), 4);
        b.sub(Reg(3), Reg(1), Reg(2));
        b.mul(Reg(4), Reg(3), 7u64);
        b.halt();
        let r = run(b);
        assert_eq!(r.reg(Reg(3)), 6);
        assert_eq!(r.reg(Reg(4)), 42);
        assert_eq!(r.stats.committed_insts, 4);
        assert!(!r.hit_limit);
    }

    #[test]
    fn load_reads_architectural_memory() {
        let mut core = Core::table_i();
        core.mem_mut().write_u64(Addr::new(0x1000), 0xabcd);
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x1000);
        b.load(Reg(2), Reg(1), 0);
        b.halt();
        let r = core.run(&b.build());
        assert_eq!(r.reg(Reg(2)), 0xabcd);
        assert_eq!(r.stats.committed_loads, 1);
    }

    #[test]
    fn store_then_load_forwards_value() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x2000);
        b.mov(Reg(2), 99);
        b.store(Reg(2), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.halt();
        assert_eq!(run(b).reg(Reg(3)), 99);
    }

    #[test]
    fn second_load_hits_and_is_faster() {
        let mut core = Core::table_i();
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x3000);
        b.load(Reg(2), Reg(1), 0);
        b.rdtsc(Reg(10));
        b.load(Reg(3), Reg(1), 0);
        b.rdtsc(Reg(11));
        b.halt();
        let r = core.run(&b.build());
        let hit_time = r.reg(Reg(11)) - r.reg(Reg(10));
        // An L1 hit plus timer overhead: far less than the ~118-cycle
        // cold miss.
        assert!(hit_time < 20, "hit path took {hit_time} cycles");
    }

    #[test]
    fn loop_with_backward_branch_terminates() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0);
        b.label("loop");
        b.add(Reg(1), Reg(1), 1u64);
        b.branch(Cond::Lt, Reg(1), 100u64, "loop");
        b.halt();
        let r = run(b);
        assert_eq!(r.reg(Reg(1)), 100);
        assert_eq!(r.stats.branches, 100);
        // The bimodal predictor learns the loop quickly; only the first
        // few and the exit mispredict.
        assert!(
            r.stats.mispredicts <= 4,
            "{} mispredicts",
            r.stats.mispredicts
        );
    }

    #[test]
    fn mispredicted_branch_squashes_and_rolls_back_registers() {
        let mut core = Core::table_i();
        core.set_predictor(Box::new(NeverTaken));
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 5);
        // Taken branch, predicted not-taken -> the fall-through is the
        // wrong path; r2 must be rolled back.
        b.branch(Cond::Lt, Reg(1), 10u64, "target");
        b.mov(Reg(2), 0xbad);
        b.halt();
        b.label("target");
        b.mov(Reg(3), 0x600d);
        b.halt();
        let r = core.run(&b.build());
        assert_eq!(r.reg(Reg(3)), 0x600d);
        assert_eq!(r.reg(Reg(2)), 0, "wrong-path write must be squashed");
        assert_eq!(r.stats.mispredicts, 1);
        assert_eq!(r.stats.squashes.len(), 1);
    }

    #[test]
    fn wrong_path_load_leaves_footprint_under_unsafe_baseline() {
        let mut core = Core::table_i();
        core.set_predictor(Box::new(NeverTaken));
        let probe = Addr::new(0x8000);
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 1);
        // Slow condition: make the comparand a flushed memory load so the
        // wrong path has time to run.
        b.mov(Reg(4), 0x4000);
        b.load(Reg(5), Reg(4), 0); // cold-miss comparand
        b.branch(Cond::Eq, Reg(5), 0u64, "skip"); // actual: taken (mem reads 0)
        b.mov(Reg(6), probe.raw());
        b.load(Reg(7), Reg(6), 0); // transient load
        b.label("skip");
        b.halt();
        let r = core.run(&b.build());
        assert_eq!(r.stats.mispredicts, 1);
        let rec = &r.stats.squashes[0];
        assert_eq!(rec.squashed_loads, 1);
        assert_eq!(rec.l1_installs, 1);
        // Unsafe baseline: the transient line stays cached.
        assert!(core.hierarchy().l1_contains(probe.line()));
        // Resolution time is dominated by the comparand's memory miss.
        assert!(
            rec.resolution_time() > 100,
            "resolution {}",
            rec.resolution_time()
        );
        // No defense: cleanup is free.
        assert_eq!(rec.cleanup_cycles(), 0);
    }

    #[test]
    fn suppressed_wrong_path_load_never_issues() {
        let mut core = Core::table_i();
        core.set_predictor(Box::new(NeverTaken));
        let probe = Addr::new(0x9000);
        let mut b = ProgramBuilder::new();
        // Fast-resolving branch: the wrong-path load depends on a slow
        // load, so the squash arrives before it can issue.
        b.mov(Reg(1), 5);
        b.branch(Cond::Lt, Reg(1), 10u64, "skip"); // taken, predicted NT
        b.mov(Reg(4), 0x7000);
        b.load(Reg(5), Reg(4), 0); // issues (independent)
        b.add(Reg(6), Reg(5), probe.raw());
        b.load(Reg(7), Reg(6), 0); // depends on r5: start >= squash
        b.label("skip");
        b.halt();
        let r = core.run(&b.build());
        assert_eq!(r.stats.mispredicts, 1);
        // The dependent load never issued, so no line around `probe+0`
        // was installed. (r5 reads 0 so r6 == probe.)
        assert!(!core.hierarchy().l1_contains(probe.line()));
    }

    #[test]
    fn fence_orders_measurement_after_flush() {
        let mut core = Core::table_i();
        let addr = Addr::new(0x5000);
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), addr.raw());
        b.load(Reg(2), Reg(1), 0);
        b.flush(Reg(1), 0);
        b.fence();
        b.rdtsc(Reg(10));
        b.load(Reg(3), Reg(1), 0); // must miss: flush completed first
        b.rdtsc(Reg(11));
        b.halt();
        let r = core.run(&b.build());
        let t = r.reg(Reg(11)) - r.reg(Reg(10));
        assert!(t > 100, "flushed load must go to memory, took {t}");
    }

    #[test]
    fn rdtsc_measures_elapsed_cycles() {
        let mut b = ProgramBuilder::new();
        b.rdtsc(Reg(1));
        b.mov(Reg(3), 0x6000);
        b.load(Reg(4), Reg(3), 0); // cold miss ~118 cycles
        b.rdtsc(Reg(2));
        b.halt();
        let r = run(b);
        let dt = r.reg(Reg(2)) - r.reg(Reg(1));
        assert!(dt >= 118, "expected >= miss latency, got {dt}");
        assert!(dt < 200, "unreasonably slow: {dt}");
    }

    #[test]
    fn run_for_stops_at_instruction_budget() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0);
        b.label("spin");
        b.add(Reg(1), Reg(1), 1u64);
        b.jump("spin");
        let mut core = Core::table_i();
        let r = core.run_for(&b.build(), 1000);
        assert!(r.hit_limit);
        assert!(r.stats.committed_insts >= 1000);
        assert!(r.stats.committed_insts < 1100);
    }

    #[test]
    fn clock_is_monotonic_across_runs() {
        let mut core = Core::table_i();
        let mut b = ProgramBuilder::new();
        b.rdtsc(Reg(1));
        b.halt();
        let p = b.build();
        let t1 = core.run(&p).reg(Reg(1));
        let t2 = core.run(&p).reg(Reg(1));
        assert!(t2 > t1, "clock must advance across runs");
    }

    #[test]
    fn nested_mispredicts_roll_back_cleanly() {
        let mut core = Core::table_i();
        core.set_predictor(Box::new(NeverTaken));
        let mut b = ProgramBuilder::new();
        // Outer branch: slow comparand, actually taken (mispredicted).
        b.mov(Reg(1), 0x4100);
        b.load(Reg(2), Reg(1), 0); // slow, reads 0
        b.branch(Cond::Eq, Reg(2), 0u64, "outer_t");
        // Wrong path: contains another (inner) mispredicted branch.
        b.mov(Reg(3), 1);
        b.branch(Cond::Eq, Reg(3), 1u64, "inner_t");
        b.mov(Reg(4), 2);
        b.label("inner_t");
        b.mov(Reg(5), 3);
        b.halt();
        b.label("outer_t");
        b.mov(Reg(6), 42);
        b.halt();
        let r = core.run(&b.build());
        assert_eq!(r.reg(Reg(6)), 42);
        assert_eq!(r.reg(Reg(5)), 0, "wrong-path effects must vanish");
        assert!(!r.stats.squashes.is_empty());
    }

    #[test]
    fn rob_capacity_bounds_speculation_window() {
        // A huge wrong-path body cannot dispatch more than ROB entries.
        let mut core = Core::table_i();
        core.set_predictor(Box::new(NeverTaken));
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x4200);
        b.load(Reg(2), Reg(1), 0); // slow comparand
        b.branch(Cond::Eq, Reg(2), 0u64, "t"); // taken, predicted NT
        for _ in 0..1000 {
            b.nop();
        }
        b.label("t");
        b.halt();
        let r = core.run(&b.build());
        // At most rob_entries instructions could be in flight.
        assert!(
            r.stats.squashed_insts <= 192 + 8,
            "squashed {}",
            r.stats.squashed_insts
        );
    }

    #[test]
    fn branch_resolution_time_tracks_comparand_chain() {
        // f(N)-style nested dependent loads lengthen resolution linearly
        // (the paper's Fig. 2 x-axis).
        let mut times = Vec::new();
        for n in 1..=3u64 {
            let mut core = Core::table_i();
            core.set_predictor(Box::new(NeverTaken));
            // Build a pointer chain: mem[0x8000*k] holds address of next.
            for k in 0..n {
                core.mem_mut().write_u64(
                    Addr::new(0x10_0000 + k * 0x1000),
                    0x10_0000 + (k + 1) * 0x1000,
                );
            }
            let mut b = ProgramBuilder::new();
            b.mov(Reg(1), 0x10_0000);
            for _ in 0..n {
                b.load(Reg(1), Reg(1), 0);
            }
            b.branch(Cond::Ne, Reg(1), 0u64, "t"); // taken, predicted NT
            b.nop();
            b.label("t");
            b.halt();
            let r = core.run(&b.build());
            times.push(r.stats.squashes[0].resolution_time());
        }
        assert!(times[1] > times[0] + 80, "{times:?}");
        assert!(times[2] > times[1] + 80, "{times:?}");
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod trace_tests {
    use super::*;
    use crate::isa::Cond;
    use crate::predictor::NeverTaken;
    use crate::program::ProgramBuilder;

    #[test]
    fn tracing_is_off_by_default() {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.halt();
        let r = Core::table_i().run(&b.build());
        assert!(r.trace.is_none());
    }

    #[test]
    fn trace_records_every_executed_instruction() {
        let mut core = Core::table_i();
        core.set_tracing(true);
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 1);
        b.add(Reg(2), Reg(1), Reg(1));
        b.halt();
        let r = core.run(&b.build());
        let trace = r.trace.expect("tracing enabled");
        assert_eq!(trace.len(), 2, "halt is not dispatched");
        assert!(trace.events[0].dispatch_cycle <= trace.events[1].dispatch_cycle);
        assert!(!trace.events[0].wrong_path);
    }

    #[test]
    fn trace_marks_wrong_path_instructions() {
        let mut core = Core::table_i();
        core.set_tracing(true);
        core.set_predictor(Box::new(NeverTaken));
        let mut b = ProgramBuilder::new();
        b.mov(Reg(4), 0x4000);
        b.load(Reg(5), Reg(4), 0); // slow comparand (reads 0)
        b.branch(Cond::Eq, Reg(5), 0u64, "skip"); // taken, predicted NT
        b.mov(Reg(6), 0xbad); // wrong path
        b.mov(Reg(7), 0xbad2); // wrong path
        b.label("skip");
        b.mov(Reg(8), 0x600d);
        b.halt();
        let r = core.run(&b.build());
        let trace = r.trace.expect("tracing enabled");
        let wrong: Vec<_> = trace.wrong_path_events().collect();
        assert!(wrong.len() >= 2, "wrong-path movs must appear: {trace}");
        // The wrong path falls through into `skip` too, so the mov
        // appears twice: once wrong-path, then re-executed correctly
        // after the squash.
        let good = trace
            .events
            .iter()
            .rev()
            .find(|e| matches!(e.inst, Inst::MovImm { imm: 0x600d, .. }))
            .expect("correct-path mov");
        assert!(!good.wrong_path, "{trace}");
        assert!(good.dispatch_cycle > wrong[0].dispatch_cycle);
    }

    #[test]
    fn trace_renders() {
        let mut core = Core::table_i();
        core.set_tracing(true);
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 7);
        b.halt();
        let r = core.run(&b.build());
        let text = r.trace.unwrap().to_string();
        assert!(text.contains("mov r1"));
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod edge_tests {
    use super::*;
    use crate::isa::Cond;
    use crate::predictor::NeverTaken;
    use crate::program::ProgramBuilder;

    #[test]
    fn mshr_pressure_serializes_excess_misses() {
        // 32 independent misses against 16 MSHRs: the second half must
        // wait for entries to free.
        let mut b = ProgramBuilder::new();
        b.rdtsc(Reg(20));
        for i in 0..32u64 {
            b.mov(Reg(1), 0x10_0000 + i * 0x1000);
            b.load(Reg(2), Reg(1), 0);
        }
        b.rdtsc(Reg(21));
        b.halt();
        let r = Core::table_i().run(&b.build());
        let t = r.reg(Reg(21)) - r.reg(Reg(20));
        // 32 misses at an 8-cycle bank interval is ~256 cycles minimum;
        // far less than 32 serialized misses (3776).
        assert!(t > 250, "{t}");
        assert!(t < 1000, "{t}");
    }

    #[test]
    fn flush_of_dirty_line_writes_back() {
        let mut core = Core::table_i();
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x9000);
        b.mov(Reg(2), 0xfeed);
        b.store(Reg(2), Reg(1), 0);
        b.flush(Reg(1), 0);
        b.fence();
        b.halt();
        core.run(&b.build());
        assert!(!core
            .hierarchy()
            .l1_contains(unxpec_mem::Addr::new(0x9000).line()));
        assert!(
            core.hierarchy().l1_stats().writebacks + core.hierarchy().l2_stats().writebacks > 0
        );
        // The value survives architecturally.
        assert_eq!(core.mem().read_u64(Addr::new(0x9000)), 0xfeed);
    }

    #[test]
    fn load_ports_bound_issue_rate() {
        // 8 independent L1 hits with 2 load ports take >= 4 issue
        // cycles.
        let mut core = Core::table_i();
        let mut warm = ProgramBuilder::new();
        warm.mov(Reg(1), 0xa000);
        for i in 0..8i64 {
            warm.load(Reg(2), Reg(1), i * 64);
        }
        warm.halt();
        core.run(&warm.build());
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0xa000);
        b.fence();
        b.rdtsc(Reg(20));
        for i in 0..8i64 {
            b.load(Reg(2), Reg(1), i * 64);
        }
        b.rdtsc(Reg(21));
        b.halt();
        let r = core.run(&b.build());
        let t = r.reg(Reg(21)) - r.reg(Reg(20));
        assert!(t >= 7, "2 ports x 4 cycles plus hit latency, got {t}");
    }

    #[test]
    fn wrong_path_store_never_reaches_memory_or_cache() {
        let mut core = Core::table_i();
        core.set_predictor(Box::new(NeverTaken));
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x4000);
        b.load(Reg(2), Reg(1), 0); // slow comparand, reads 0
        b.branch(Cond::Eq, Reg(2), 0u64, "skip"); // taken, predicted NT
                                                  // Wrong path: a store that must not land.
        b.mov(Reg(3), 0xbad);
        b.mov(Reg(4), 0xb000);
        b.store(Reg(3), Reg(4), 0);
        b.label("skip");
        b.halt();
        core.run(&b.build());
        assert_eq!(core.mem().read_u64(Addr::new(0xb000)), 0);
        assert!(!core.hierarchy().l1_contains(Addr::new(0xb000).line()));
    }

    #[test]
    fn fence_drains_stores_before_later_loads() {
        let mut core = Core::table_i();
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0xc000);
        b.mov(Reg(2), 7);
        b.store(Reg(2), Reg(1), 0);
        b.fence();
        b.load(Reg(3), Reg(1), 0);
        b.halt();
        let r = core.run(&b.build());
        assert_eq!(r.reg(Reg(3)), 7);
    }

    #[test]
    fn back_to_back_runs_do_not_leak_register_state() {
        let mut core = Core::table_i();
        let mut b1 = ProgramBuilder::new();
        b1.mov(Reg(5), 0xaaaa);
        b1.halt();
        core.run(&b1.build());
        let mut b2 = ProgramBuilder::new();
        b2.add(Reg(6), Reg(5), 1u64); // r5 must read as 0 in a fresh run
        b2.halt();
        let r = core.run(&b2.build());
        assert_eq!(r.reg(Reg(6)), 1, "register file must reset per run");
    }

    #[test]
    fn deep_nesting_of_correct_branches_commits_cleanly() {
        // A tower of correctly predicted branches over slow comparands:
        // all frames resolve correct, speculative loads commit.
        let mut core = Core::table_i();
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x4000);
        b.load(Reg(2), Reg(1), 0); // slow, reads 0
        for i in 0..6 {
            // Never-taken branches (r2 == 0): predicted not-taken.
            b.branch(Cond::Ne, Reg(2), 0u64, &format!("t{i}"));
        }
        b.mov(Reg(3), 0xd000);
        b.load(Reg(4), Reg(3), 0); // speculative under 6 frames
        for i in 0..6 {
            b.label(&format!("t{i}"));
        }
        b.halt();
        let r = core.run(&b.build());
        assert_eq!(r.stats.mispredicts, 0);
        assert!(core.hierarchy().l1_contains(Addr::new(0xd000).line()));
        assert!(
            !core.hierarchy().l1_is_speculative(Addr::new(0xd000).line()),
            "commit must clear the tag once all frames resolve"
        );
    }

    #[test]
    fn older_frame_resolving_under_a_younger_one_never_commits_its_loads() {
        // Known fault, pinned so a change to the frame store cannot move
        // it silently (ROADMAP item 4): frame A (a short multiply chain)
        // resolves correct while the younger frame B (a slow load) is
        // still open, and the commit that B's resolve triggers covers
        // only B's records. The load issued under A alone is never
        // handed to `on_commit_epoch`, so its line keeps the speculative
        // tag after a run with no mispredict.
        let mut core = Core::table_i();
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x4000);
        b.load(Reg(2), Reg(1), 0); // slow, reads 0
        b.mov(Reg(7), 0);
        for _ in 0..4 {
            b.mul(Reg(7), Reg(7), 3u64);
        }
        b.branch(Cond::Ne, Reg(7), 0u64, "a"); // frame A
        b.mov(Reg(3), 0xd000);
        b.load(Reg(4), Reg(3), 0); // speculative under A only
        b.branch(Cond::Ne, Reg(2), 0u64, "b"); // frame B
        b.label("a");
        b.label("b");
        b.halt();
        let r = core.run(&b.build());
        assert_eq!(r.stats.mispredicts, 0);
        assert!(core.hierarchy().l1_contains(Addr::new(0xd000).line()));
        assert!(
            core.hierarchy().l1_is_speculative(Addr::new(0xd000).line()),
            "the load under the older frame stays tagged"
        );
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod telemetry_tests {
    use super::*;
    use crate::isa::Cond;
    use crate::predictor::NeverTaken;
    use crate::program::ProgramBuilder;

    #[test]
    fn pipeline_events_pair_dispatch_and_complete() {
        let mut core = Core::table_i();
        let tel = Telemetry::ring(4096);
        core.set_telemetry(tel.clone());
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x1000);
        b.load(Reg(2), Reg(1), 0);
        b.halt();
        core.run(&b.build());
        let events = tel.snapshot();
        let dispatches = events
            .iter()
            .filter(|e| matches!(e, Event::Dispatch { .. }))
            .count();
        let completes = events
            .iter()
            .filter(|e| matches!(e, Event::Complete { .. }))
            .count();
        assert_eq!(dispatches, 2, "mov + load dispatch (halt does not)");
        assert_eq!(dispatches, completes);
        // The load issued exactly once and the hierarchy logged its miss
        // into the same sink.
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::Issue { .. }))
                .count(),
            1
        );
        assert!(events.iter().any(|e| matches!(e, Event::CacheMiss { .. })));
    }

    #[test]
    fn squash_brackets_the_defense_stall() {
        let mut core = Core::table_i();
        core.set_predictor(Box::new(NeverTaken));
        let tel = Telemetry::ring(4096);
        core.set_telemetry(tel.clone());
        let mut b = ProgramBuilder::new();
        b.mov(Reg(4), 0x4000);
        b.load(Reg(5), Reg(4), 0); // slow comparand, reads 0
        b.branch(Cond::Eq, Reg(5), 0u64, "skip"); // taken, predicted NT
        b.mov(Reg(6), 0x8000);
        b.load(Reg(7), Reg(6), 0); // transient load
        b.label("skip");
        b.halt();
        let r = core.run(&b.build());
        assert_eq!(r.stats.mispredicts, 1);
        let events = tel.snapshot();
        let begin = events
            .iter()
            .find_map(|e| match *e {
                Event::SquashBegin {
                    cycle,
                    epoch,
                    squashed_loads,
                    ..
                } => Some((cycle, epoch, squashed_loads)),
                _ => None,
            })
            .expect("squash_begin emitted");
        let end = events
            .iter()
            .find_map(|e| match *e {
                Event::SquashEnd { cycle, epoch, .. } => Some((cycle, epoch)),
                _ => None,
            })
            .expect("squash_end emitted");
        assert_eq!(begin.1, end.1, "same epoch");
        assert_eq!(begin.2, 1, "one squashed load");
        let rec = &r.stats.squashes[0];
        assert_eq!(begin.0, rec.resolve_cycle);
        assert_eq!(end.0, rec.redirect_cycle);
    }

    #[test]
    fn disabled_telemetry_changes_nothing() {
        let run = |attach: bool| {
            let mut core = Core::table_i();
            if attach {
                core.set_telemetry(Telemetry::disabled());
            }
            let mut b = ProgramBuilder::new();
            b.mov(Reg(1), 0x2000);
            b.load(Reg(2), Reg(1), 0);
            b.halt();
            let r = core.run(&b.build());
            (r.stats.cycles, r.reg(Reg(2)))
        };
        assert_eq!(run(false), run(true));
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod jump_ind_tests {
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn trained_indirect_jump_predicts_correctly() {
        let mut core = Core::table_i();
        // A loop dispatching the same indirect jump repeatedly.
        let mut b = ProgramBuilder::new();
        b.mov(Reg(2), 0);
        b.label("loop");
        b.mov(Reg(1), 0); // patched below: target = @body
        let patch_at = b.here() - 1;
        b.jump_ind(Reg(1));
        b.label("body");
        b.add(Reg(2), Reg(2), 1u64);
        b.branch(crate::isa::Cond::Lt, Reg(2), 50u64, "loop");
        b.halt();
        let mut program = b.build();
        let body = program.label("body").unwrap();
        // Patch the mov to hold the real target.
        let _ = &mut program;
        let mut b2 = ProgramBuilder::new();
        for (i, inst) in program.instructions().iter().enumerate() {
            if i == patch_at {
                b2.mov(Reg(1), body as u64);
            } else {
                b2.push(*inst);
            }
        }
        let program = b2.build();
        let r = core.run(&program);
        assert_eq!(r.reg(Reg(2)), 50);
        // The fall-through IS @body here, so even the cold BTB predicts
        // right; from then on the trained entry keeps it right. Only the
        // loop-exit conditional branch mispredicts.
        assert!(r.stats.mispredicts <= 2, "{}", r.stats.mispredicts);
    }

    #[test]
    fn cold_btb_mispredicts_a_non_fallthrough_target() {
        let mut core = Core::table_i();
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 5); // target = @5 (the "far" label below)
        b.jump_ind(Reg(1));
        b.mov(Reg(2), 0xbad); // fall-through: wrong path on cold BTB
        b.mov(Reg(3), 0xbad);
        b.halt();
        // @5:
        b.mov(Reg(4), 0x600d);
        b.halt();
        let r = core.run(&b.build());
        assert_eq!(r.reg(Reg(4)), 0x600d);
        assert_eq!(r.reg(Reg(2)), 0, "wrong-path write rolled back");
        assert_eq!(r.stats.mispredicts, 1);
        // The BTB learned the target.
        assert_eq!(core.btb().predict(1), Some(5));
    }

    #[test]
    fn poisoned_btb_sends_speculation_to_the_wrong_gadget() {
        // The Spectre-v2 primitive: an attacker-trained BTB entry makes
        // the victim's indirect jump transiently execute a gadget the
        // architectural target never reaches.
        let mut core = Core::table_i();
        let probe = Addr::new(0xa000);
        let mut b = ProgramBuilder::new();
        // r1 = actual target (@benign), loaded slowly so speculation has
        // a window; mem[0x4000] holds the benign target index.
        b.mov(Reg(2), 0x4000);
        b.load(Reg(1), Reg(2), 0);
        b.jump_ind(Reg(1)); // pc = 2
        b.label("gadget");
        b.mov(Reg(6), probe.raw());
        b.load(Reg(7), Reg(6), 0); // transient probe load
        b.halt();
        b.label("benign");
        b.mov(Reg(5), 1);
        b.halt();
        let program = b.build();
        let benign = program.label("benign").unwrap();
        let gadget = program.label("gadget").unwrap();
        core.mem_mut().write_u64(Addr::new(0x4000), benign as u64);
        // Poison: the attacker previously drove this jump to the gadget.
        core.btb_mut().update(2, gadget);
        let r = core.run(&program);
        assert_eq!(r.reg(Reg(5)), 1, "architectural path is benign");
        assert_eq!(r.stats.mispredicts, 1);
        // Under the unsafe baseline the gadget's footprint remains.
        assert!(core.hierarchy().l1_contains(probe.line()));
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod call_ret_tests {
    use super::*;
    use crate::program::ProgramBuilder;

    const SP: Reg = Reg(30);

    #[test]
    fn call_and_ret_round_trip() {
        let mut b = ProgramBuilder::new();
        b.mov(SP, 0x9_0000);
        b.call("double", SP);
        b.add(Reg(3), Reg(2), 1u64); // after return
        b.halt();
        b.label("double");
        b.mov(Reg(2), 20);
        b.add(Reg(2), Reg(2), Reg(2));
        b.ret(SP);
        let r = Core::table_i().run(&b.build());
        assert_eq!(r.reg(Reg(2)), 40);
        assert_eq!(r.reg(Reg(3)), 41);
        assert_eq!(r.reg(SP), 0x9_0000, "sp balanced");
        assert_eq!(r.stats.mispredicts, 0, "RSB predicts a clean return");
    }

    #[test]
    fn nested_calls_return_in_order() {
        let mut b = ProgramBuilder::new();
        b.mov(SP, 0x9_0000);
        b.call("outer", SP);
        b.halt();
        b.label("outer");
        b.add(Reg(1), Reg(1), 1u64);
        b.call("inner", SP);
        b.add(Reg(3), Reg(1), Reg(2));
        b.ret(SP);
        b.label("inner");
        b.mov(Reg(2), 10);
        b.ret(SP);
        let r = Core::table_i().run(&b.build());
        assert_eq!(r.reg(Reg(3)), 11);
        assert_eq!(r.stats.mispredicts, 0);
    }

    #[test]
    fn overwritten_return_address_mispredicts_through_the_rsb() {
        // SpectreRSB's primitive: the architectural return target is
        // changed under the RSB's feet, so `ret` speculates at the
        // stale call site.
        let mut b = ProgramBuilder::new();
        b.mov(SP, 0x9_0000);
        b.call("f", SP);
        b.mov(Reg(9), 0xbad); // stale return site: transient only
        b.halt();
        b.label("escape");
        b.mov(Reg(8), 0x600d);
        b.halt();
        b.label("f");
        // Overwrite [sp] with @escape, then flush the stack line so the
        // ret's target load is slow (a wide speculation window).
        b.mov(Reg(1), 0); // patched: escape pc
        let patch_at = b.here() - 1;
        b.store(Reg(1), SP, 0);
        b.flush(SP, 0);
        b.fence();
        b.ret(SP);
        let program = b.build();
        let escape = program.label("escape").unwrap();
        let mut b2 = ProgramBuilder::new();
        for (i, inst) in program.instructions().iter().enumerate() {
            if i == patch_at {
                b2.mov(Reg(1), escape as u64);
            } else {
                b2.push(*inst);
            }
        }
        let r = Core::table_i().run(&b2.build());
        assert_eq!(r.reg(Reg(8)), 0x600d, "architectural path follows memory");
        assert_eq!(r.reg(Reg(9)), 0, "stale-site write rolled back");
        assert_eq!(r.stats.mispredicts, 1, "RSB vs memory divergence");
        // The squash record shows a slow resolution (flushed stack load).
        assert!(r.stats.squashes[0].resolution_time() > 100);
    }

    #[test]
    fn wrong_path_calls_do_not_corrupt_the_rsb() {
        let mut core = Core::table_i();
        core.set_predictor(Box::new(crate::predictor::NeverTaken));
        let mut b = ProgramBuilder::new();
        b.mov(SP, 0x9_0000);
        b.mov(Reg(1), 0x4000);
        b.load(Reg(2), Reg(1), 0); // slow comparand, reads 0
        b.branch(crate::isa::Cond::Eq, Reg(2), 0u64, "skip"); // taken, predicted NT
        b.call("noise", SP); // wrong path: must not push the RSB
        b.label("skip");
        b.call("f", SP);
        b.halt();
        b.label("noise");
        b.ret(SP);
        b.label("f");
        b.ret(SP);
        let r = core.run(&b.build());
        // The architectural call/ret pair still predicts cleanly: only
        // the branch mispredicted.
        assert_eq!(r.stats.mispredicts, 1);
        assert_eq!(core.ras().depth(), 0, "balanced RSB after the run");
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod fast_forward_tests {
    use super::*;
    use crate::isa::Cond;
    use crate::program::ProgramBuilder;
    use unxpec_mem::Addr;

    /// Straight-line stretches with fence-settled memory traffic, broken
    /// up by data-dependent branches — the shape whose two-speed
    /// execution is provably exact (every access completes before the
    /// next one issues, so skipping MSHR entries cannot change timing).
    fn settled_mixed_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x8000);
        b.mov(Reg(2), 0);
        b.mov(Reg(5), 0);
        for i in 0..20i64 {
            b.add(Reg(3), Reg(2), i as u64);
            b.mul(Reg(4), Reg(3), 3u64);
            b.load(Reg(6), Reg(1), i * 64);
            b.fence();
            b.add(Reg(2), Reg(2), Reg(6));
            b.store(Reg(2), Reg(1), i * 64);
            b.fence();
        }
        b.and(Reg(7), Reg(2), 1u64);
        b.branch(Cond::Eq, Reg(7), 0u64, "even");
        b.add(Reg(5), Reg(5), 1u64);
        b.label("even");
        for _ in 0..10 {
            b.mul(Reg(8), Reg(2), 7u64);
            b.add(Reg(5), Reg(5), Reg(8));
        }
        b.halt();
        b.build()
    }

    fn seed_memory(core: &mut Core) {
        for i in 0..20u64 {
            core.mem_mut()
                .write_u64(Addr::new(0x8000 + i * 64), i * 3 + 1);
        }
    }

    #[test]
    fn fast_forward_matches_detailed_exactly_on_settled_program() {
        let program = settled_mixed_program();
        let mut detailed = Core::table_i();
        seed_memory(&mut detailed);
        let rd = detailed.run(&program);

        let mut ff = Core::table_i();
        ff.set_mode(ExecMode::FastForward);
        seed_memory(&mut ff);
        let rf = ff.run(&program);

        assert_eq!(rf.regs, rd.regs, "architectural registers diverged");
        assert_eq!(rf.stats.cycles, rd.stats.cycles, "cycle counts diverged");
        assert_eq!(rf.stats.committed_insts, rd.stats.committed_insts);
        assert_eq!(rf.stats.committed_loads, rd.stats.committed_loads);
        assert_eq!(rf.stats.branches, rd.stats.branches);
        assert_eq!(rf.stats.mispredicts, rd.stats.mispredicts);
        assert_eq!(rf.stats.squashes.len(), rd.stats.squashes.len());
        for i in 0..20u64 {
            let line = Addr::new(0x8000 + i * 64).line();
            assert_eq!(
                ff.hierarchy().l1_contains(line),
                detailed.hierarchy().l1_contains(line),
                "L1 residency diverged for line {i}"
            );
        }
        assert!(rf.stats.ff_regions > 0, "fast-forward never engaged");
        assert!(rf.stats.ff_committed_insts > 0);
        assert_eq!(rd.stats.ff_regions, 0, "detailed run must not fast-forward");
    }

    #[test]
    fn fast_forward_waits_for_inflight_wrong_path_miss() {
        // Fuzz-found divergence, minimized: a mispredicted branch whose
        // wrong path issues a load miss, squashed while the miss is
        // still in flight. The rollback leaves the MSHR running, so the
        // committed re-execution of the same load *merges* with it in
        // the detailed core and waits for the fill (~130 cycles) — but
        // the functional path has no MSHR merge and would hit the
        // already-installed L1 line in 4 cycles. The memory-quiescence
        // gate keeps the region after the squash in detailed mode until
        // the miss drains, so both runs report identical cycles.
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x8000);
        b.flush(Reg(1), 40);
        b.fence();
        // Taken branch (r2 == 0 < imm); predicted not-taken, so the
        // fall-through wrong path runs the load at "skip" speculatively.
        b.branch(Cond::Lt, Reg(2), 1u64, "skip");
        b.mul(Reg(4), Reg(1), Reg(4));
        b.nop();
        b.label("skip");
        b.load(Reg(7), Reg(1), 336);
        b.fence();
        b.halt();
        let program = b.build();

        let mut detailed = Core::table_i();
        seed_memory(&mut detailed);
        let rd = detailed.run(&program);

        let mut ff = Core::table_i();
        ff.set_mode(ExecMode::FastForward);
        seed_memory(&mut ff);
        let rf = ff.run(&program);

        assert_eq!(rd.stats.squashes.len(), 1, "the branch must mispredict");
        assert_eq!(rf.stats.squashes.len(), 1);
        assert_eq!(rf.regs, rd.regs, "architectural registers diverged");
        assert_eq!(rf.stats.cycles, rd.stats.cycles, "cycle counts diverged");
        assert!(rf.stats.ff_regions > 0, "fast-forward never engaged");
    }

    #[test]
    fn fast_forward_is_inert_without_the_mode() {
        let program = settled_mixed_program();
        let mut core = Core::table_i();
        let r = core.run(&program);
        assert_eq!(r.stats.ff_regions, 0);
        assert_eq!(r.stats.ff_committed_insts, 0);
    }

    #[test]
    fn tracing_disengages_fast_forward() {
        // Per-instruction tracing needs the detailed event stream, so a
        // traced run silently stays all-detailed even in FF mode.
        let program = settled_mixed_program();
        let mut core = Core::table_i();
        core.set_mode(ExecMode::FastForward).set_tracing(true);
        let r = core.run(&program);
        assert_eq!(r.stats.ff_regions, 0);
        let trace = r.trace.expect("tracing was enabled");
        assert_eq!(
            trace.events.len() as u64,
            r.stats.committed_insts + r.stats.squashed_insts,
            "trace must cover every dispatched instruction"
        );
    }

    #[test]
    fn sanitizer_stays_clean_across_mode_switches() {
        let program = settled_mixed_program();
        let mut core = Core::table_i();
        core.set_mode(ExecMode::FastForward);
        seed_memory(&mut core);
        let r = core
            .run_checked(&program)
            .expect("no invariant may trip across FF/detailed hand-offs");
        assert!(r.stats.ff_regions > 0, "fast-forward must engage");
    }

    #[test]
    fn milestone_accounting_matches_between_modes() {
        let program = settled_mixed_program();
        let mut detailed = Core::table_i();
        let rd = detailed.run_with_milestone(&program, Some(50), u64::MAX);
        let mut ff = Core::table_i();
        ff.set_mode(ExecMode::FastForward);
        let rf = ff.run_with_milestone(&program, Some(50), u64::MAX);
        assert_eq!(rf.stats.milestone_cycle, rd.stats.milestone_cycle);
    }

    #[test]
    fn mode_switch_events_bracket_regions() {
        let program = settled_mixed_program();
        let sink = unxpec_telemetry::Telemetry::ring(4096);
        let mut core = Core::table_i();
        core.set_mode(ExecMode::FastForward)
            .set_telemetry(sink.clone());
        let r = core.run(&program);
        let events = sink.snapshot();
        let switches: Vec<bool> = events
            .iter()
            .filter_map(|e| match e {
                Event::ModeSwitch { fast_forward, .. } => Some(*fast_forward),
                _ => None,
            })
            .collect();
        assert_eq!(
            switches.len() as u64,
            2 * r.stats.ff_regions,
            "every region must open and close a switch span"
        );
        for pair in switches.chunks(2) {
            assert_eq!(pair, [true, false], "spans must alternate enter/exit");
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod spec_storage_tests {
    use std::collections::VecDeque;

    use unxpec_mem::seed::Xoshiro256pp;

    use super::*;

    /// One frame of the [`Reference`] store, resolve cycle inline.
    #[derive(Debug, Clone, Copy)]
    struct RefFrame {
        epoch: SpecTag,
        resolve_cycle: Cycle,
        mispredicted: bool,
        effects_start: usize,
        lines_start: usize,
    }

    /// The store without the contiguous resolve array or the cached
    /// summary: a deque of whole frames that every query scans.
    #[derive(Default)]
    struct Reference {
        frames: VecDeque<RefFrame>,
        effect_log: Vec<Effect>,
        line_log: Vec<LineAddr>,
    }

    impl Reference {
        /// `min_by_key` keeps the first of equal minima: the oldest
        /// frame wins a tie.
        fn earliest_resolve(&self) -> Option<(Cycle, usize)> {
            self.frames
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| f.resolve_cycle)
                .map(|(i, f)| (f.resolve_cycle, i))
        }

        fn earliest_mispredict(&self) -> Option<Cycle> {
            self.frames
                .iter()
                .filter(|f| f.mispredicted)
                .map(|f| f.resolve_cycle)
                .min()
        }
    }

    fn effect(rng: &mut Xoshiro256pp) -> Effect {
        let line = LineAddr::new(rng.below(64));
        let (set, way) = (rng.below(8) as usize, rng.below(4) as usize);
        if rng.gen_bool(0.5) {
            Effect::FillL1 {
                line,
                set,
                way,
                victim: None,
            }
        } else {
            Effect::FillL2 {
                line,
                set,
                way,
                victim: None,
            }
        }
    }

    /// A checkpoint that names the frame it was taken for.
    fn checkpoint(epoch: SpecTag) -> Checkpoint {
        let mut regs = [0; NUM_REGS];
        regs[0] = epoch.0;
        Checkpoint {
            regs,
            avail: [0; NUM_REGS],
            last_complete: 0,
            last_mem: 0,
        }
    }

    fn assert_same(store: &SpecStorage, r: &Reference, seed: u64) {
        assert_eq!(store.earliest_resolve, r.earliest_resolve(), "seed {seed}");
        assert_eq!(
            store.earliest_mispredict,
            r.earliest_mispredict(),
            "seed {seed}"
        );
        assert_eq!(
            store.youngest_epoch(),
            r.frames.back().map(|f| f.epoch),
            "seed {seed}"
        );
        let cycles: Vec<Cycle> = r.frames.iter().map(|f| f.resolve_cycle).collect();
        assert_eq!(store.resolve_cycles, cycles, "seed {seed}");
        assert_eq!(
            store.frames.len(),
            store.resolve_cycles.len(),
            "seed {seed}"
        );
        // One checkpoint per mispredicted frame, oldest first.
        let taken: Vec<u64> = store.checkpoints.iter().map(|c| c.regs[0]).collect();
        let want: Vec<u64> = r
            .frames
            .iter()
            .filter(|f| f.mispredicted)
            .map(|f| f.epoch.0)
            .collect();
        assert_eq!(taken, want, "seed {seed}");
        assert_eq!(store.effect_log, r.effect_log, "seed {seed}");
        assert_eq!(store.line_log, r.line_log, "seed {seed}");
    }

    /// Seeded random open, log, correct-resolve and squash sequences,
    /// closing frames the way [`Core::resolve_frame`] does: the store
    /// must agree with the scanning reference on every query, and hand
    /// the defense exactly the records the reference does.
    #[test]
    fn frame_store_matches_a_scanning_reference() {
        for seed in 0..64 {
            let mut rng = Xoshiro256pp::new(seed);
            let mut store = SpecStorage::default();
            let mut r = Reference::default();
            let mut next_epoch = 1;
            for _ in 0..600 {
                match rng.below(10) {
                    0..=3 => {
                        // Resolve cycles from a narrow range, so ties
                        // are common.
                        let epoch = SpecTag(next_epoch);
                        next_epoch += 1;
                        let resolve_cycle = rng.below(24);
                        let mispredicted = rng.gen_bool(0.3);
                        let frame = Frame {
                            epoch,
                            branch_pc: 0,
                            dispatch_cycle: 0,
                            correct_pc: 0,
                            checkpoint: None,
                            effects_start: 0,
                            lines_start: 0,
                            loads_at_open: 0,
                            insts_at_open: 0,
                        };
                        store.open(
                            frame,
                            resolve_cycle,
                            mispredicted.then(|| checkpoint(epoch)),
                        );
                        r.frames.push_back(RefFrame {
                            epoch,
                            resolve_cycle,
                            mispredicted,
                            effects_start: r.effect_log.len(),
                            lines_start: r.line_log.len(),
                        });
                    }
                    4..=6 => {
                        let effects: Vec<Effect> =
                            (0..rng.below(3)).map(|_| effect(&mut rng)).collect();
                        let line = rng.gen_bool(0.5).then(|| LineAddr::new(rng.below(64)));
                        store.log(&effects, line);
                        if !r.frames.is_empty() {
                            r.effect_log.extend_from_slice(&effects);
                            r.line_log.extend(line);
                        }
                    }
                    _ => {
                        // Mostly the frame the core resolves next, now
                        // and then any open frame.
                        let idx = if rng.gen_bool(0.8) {
                            r.earliest_resolve().map(|(_, i)| i)
                        } else {
                            (!r.frames.is_empty())
                                .then(|| rng.below(r.frames.len() as u64) as usize)
                        };
                        let Some(idx) = idx else { continue };
                        let want = r.frames[idx];
                        let frame = store.frames[idx];
                        assert_eq!(frame.epoch, want.epoch, "seed {seed}");
                        if want.mispredicted {
                            let ckpt = store.squash(idx).expect("a mispredicted frame checkpoints");
                            assert_eq!(ckpt.regs[0], want.epoch.0, "seed {seed}");
                            // What `on_squash` receives.
                            let (transient, _) = store.since(&frame);
                            assert_eq!(
                                transient,
                                &r.effect_log[want.effects_start..],
                                "seed {seed}"
                            );
                            store.drop_since(&frame);
                            r.frames.truncate(idx);
                            if r.frames.is_empty() {
                                r.effect_log.clear();
                                r.line_log.clear();
                            } else {
                                r.effect_log.truncate(want.effects_start);
                                r.line_log.truncate(want.lines_start);
                            }
                        } else {
                            assert!(frame.checkpoint.is_none(), "seed {seed}");
                            store.remove(idx);
                            r.frames.remove(idx);
                            assert_eq!(store.frames.is_empty(), r.frames.is_empty());
                            if r.frames.is_empty() {
                                // What `on_commit_epoch` and the deferred
                                // fills receive.
                                let (effects, lines) = store.since(&frame);
                                assert_eq!(
                                    effects,
                                    &r.effect_log[want.effects_start..],
                                    "seed {seed}"
                                );
                                assert_eq!(lines, &r.line_log[want.lines_start..], "seed {seed}");
                                store.clear_logs();
                                r.effect_log.clear();
                                r.line_log.clear();
                            }
                        }
                    }
                }
                assert_same(&store, &r, seed);
            }
            store.clear();
            assert_same(&store, &Reference::default(), seed);
            assert!(store.checkpoints.is_empty());
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod rob_ring_tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn ring_contents(ring: &RobRing) -> Vec<Cycle> {
        ring.iter().collect()
    }

    #[test]
    fn rob_ring_wraps_at_rob_entries_without_growing() {
        // 6 entries round up to 8 slots; keep the ring at the main
        // loop's bound (pop at 6, push one) through many wraps.
        let mut ring = RobRing::default().take_reserved(6);
        assert_eq!(ring.buf.len(), 8);
        let mut model = std::collections::VecDeque::new();
        for c in 0..100u64 {
            if ring.len() >= 6 {
                assert_eq!(ring.pop_front(), model.pop_front());
            }
            ring.push_back(c);
            model.push_back(c);
            assert_eq!(ring.len(), model.len());
            assert_eq!(ring_contents(&ring), Vec::from(model.clone()));
        }
        assert_eq!(ring.buf.len(), 8, "the bounded loop must never grow");
    }

    #[test]
    fn rob_ring_back_after_pops() {
        let mut ring = RobRing::default().take_reserved(4);
        assert_eq!(ring.back(), None);
        for c in [3, 5, 9] {
            ring.push_back(c);
        }
        assert_eq!(ring.pop_front(), Some(3));
        assert_eq!(ring.back(), Some(9));
        assert_eq!(ring.pop_front(), Some(5));
        assert_eq!(ring.pop_front(), Some(9));
        // Emptied by pops: back is gone, as `VecDeque::back` would be.
        assert_eq!(ring.back(), None);
        assert_eq!(ring.pop_front(), None);
        ring.push_back(11);
        assert_eq!(ring.back(), Some(11));
    }

    #[test]
    fn rob_ring_grow_keeps_oldest_first_order() {
        let mut ring = RobRing::default().take_reserved(4);
        for c in 0..4 {
            ring.push_back(c);
        }
        ring.pop_front();
        ring.pop_front();
        // head is now mid-buffer; overflowing the reservation grows
        // from a wrapped ring.
        for c in 4..9 {
            ring.push_back(c);
        }
        assert_eq!(ring.buf.len(), 8);
        assert_eq!(ring_contents(&ring), (2..9).collect::<Vec<_>>());
        assert_eq!(ring.back(), Some(8));
        for c in 2..9 {
            assert_eq!(ring.pop_front(), Some(c));
        }
        assert_eq!(ring.pop_front(), None);
        // A ring with no storage grows from nothing.
        let mut bare = RobRing::default();
        bare.push_back(7);
        assert_eq!(ring_contents(&bare), [7]);
    }

    #[test]
    fn rob_ring_storage_is_reused_across_runs() {
        let mut core = Core::table_i();
        let mut b = ProgramBuilder::new();
        for i in 0..400u64 {
            b.mov(Reg(1), i);
        }
        b.halt();
        let program = b.build();
        let first = core.run(&program);
        let slots = core.rob_storage.buf.as_ptr();
        assert_eq!(core.rob_storage.buf.len(), 256);
        assert_eq!(core.rob_storage.len(), 0, "runs hand back an empty ring");
        let second = core.run(&program);
        assert_eq!(core.rob_storage.buf.as_ptr(), slots, "no reallocation");
        assert_eq!(core.rob_storage.buf.len(), 256);
        assert_eq!(second.stats.committed_insts, first.stats.committed_insts);
        assert_eq!(second.stats.cycles, first.stats.cycles);
    }

    #[test]
    fn rob_order_audit_walks_oldest_first() {
        // Fill a 4-slot ring past its bound so the oldest entry sits at
        // the end of the buffer.
        fn wrapped(releases: [Cycle; 7]) -> RobRing {
            let mut ring = RobRing::default().take_reserved(4);
            for c in releases {
                if ring.len() >= 4 {
                    ring.pop_front();
                }
                ring.push_back(c);
            }
            assert_eq!(ring.head, 3);
            ring
        }
        // Buffer order reads 5, 6, 7, 4 — out of order — but oldest
        // first it is 4..=7, which is fine.
        let ring = wrapped([1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(ring.buf, [5, 6, 7, 4]);
        assert_eq!(ring_contents(&ring), [4, 5, 6, 7]);
        assert_eq!(ring.order_violation(), None);
        // A release younger than its predecessor is reported with the
        // oldest-first pair, across the wrap.
        let ring = wrapped([1, 2, 3, 4, 5, 9, 7]);
        assert_eq!(ring_contents(&ring), [4, 5, 9, 7]);
        assert_eq!(
            ring.order_violation(),
            Some(InvariantViolation::RobOrder { prev: 9, next: 7 })
        );
    }
}

/// The dispatch loop's hoisted bounds and summary updates, pinned to the
/// values the per-iteration loop produced.
#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod bound_tests {
    use super::*;
    use crate::isa::Cond;
    use crate::predictor::NeverTaken;
    use crate::program::ProgramBuilder;

    /// A loop that never halts, so every run of it ends on a bound.
    fn spin() -> Program {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0);
        b.label("spin");
        b.add(Reg(1), Reg(1), 1u64);
        b.branch(Cond::Ne, Reg(1), 0u64, "spin");
        b.halt();
        b.build()
    }

    /// A core under `cfg` whose clock is far from zero: the bounds count
    /// from each run's start cycle.
    fn warm_core(cfg: CoreConfig) -> Core {
        let mut core = Core::new(cfg, HierarchyConfig::table_i());
        for _ in 0..20 {
            core.run(&spin());
        }
        core
    }

    #[test]
    fn max_cycles_stops_a_run_on_a_warm_core() {
        let mut cfg = CoreConfig::table_i();
        cfg.max_cycles = 1_000;
        let mut core = warm_core(cfg);
        let start = core.clock();
        let r = core.run(&spin());
        assert_eq!(
            (start, r.hit_limit, r.stats.cycles, r.stats.committed_insts),
            (20_061, true, 1_002, 1_337)
        );
        assert_eq!(r.reg(Reg(1)), 668);
    }

    #[test]
    fn max_insts_stops_a_run_on_a_warm_core_with_no_cycle_bound() {
        // `start + max_cycles` overflows on a warm clock; the bound must
        // saturate instead of wrapping to a limit already passed.
        let mut cfg = CoreConfig::table_i();
        cfg.max_cycles = u64::MAX;
        cfg.max_insts = 5_000;
        let mut core = warm_core(cfg);
        let start = core.clock();
        let r = core.run_for(&spin(), 3_001);
        assert_eq!(
            (start, r.hit_limit, r.stats.cycles, r.stats.committed_insts),
            (74_987, true, 2_250, 3_001)
        );
        let r = core.run(&spin());
        assert_eq!(
            (r.hit_limit, r.stats.cycles, r.stats.committed_insts),
            (true, 3_748, 5_000)
        );
    }

    #[test]
    fn milestone_set_by_fast_forward_is_recorded_once() {
        // The milestone falls inside the straight-line prefix, which
        // fast-forward runs; the detailed core then takes the branch and
        // must keep the recorded cycle.
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x9000);
        for i in 0..40i64 {
            b.add(Reg(2), Reg(2), 3u64);
            b.load(Reg(3), Reg(1), i * 64);
        }
        b.branch(Cond::Eq, Reg(3), 0u64, "done");
        b.add(Reg(4), Reg(4), 1u64);
        b.label("done");
        for _ in 0..20 {
            b.mul(Reg(5), Reg(2), 7u64);
        }
        b.halt();
        let program = b.build();
        let mut core = Core::table_i();
        core.set_mode(ExecMode::FastForward);
        let r = core.run_with_milestone(&program, Some(30), u64::MAX);
        assert!(r.stats.ff_committed_insts >= 30);
        assert_eq!(r.stats.milestone_cycle, Some(7));
        let mut detailed = Core::table_i();
        let rd = detailed.run_with_milestone(&program, Some(30), u64::MAX);
        assert_eq!(rd.stats.milestone_cycle, r.stats.milestone_cycle);
    }

    #[test]
    fn correct_resolve_under_an_open_mispredict_keeps_the_squash_cycle() {
        // The outer branch waits on a cold load and is mispredicted. On
        // its wrong path a younger branch resolves correct first: the
        // frame it removes is not the oldest, and the outer frame's
        // squash cycle must not move. Of the two wrong-path loads after
        // it, the first issues before that cycle and the second at or
        // past it, so only the first is squashed and the second is
        // suppressed.
        let mut core = Core::table_i();
        core.set_predictor(Box::new(NeverTaken));
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), 0x4100);
        b.load(Reg(2), Reg(1), 0);
        b.branch(Cond::Eq, Reg(2), 0u64, "outer_t");
        b.mov(Reg(3), 5);
        b.branch(Cond::Eq, Reg(3), 0u64, "never");
        b.branch(Cond::Eq, Reg(3), 1u64, "never");
        for _ in 0..60 {
            b.add(Reg(3), Reg(3), 1u64);
        }
        b.load(Reg(5), Reg(3), 0x5000);
        for _ in 0..70 {
            b.add(Reg(3), Reg(3), 1u64);
        }
        b.load(Reg(7), Reg(3), 0x6000);
        b.label("never");
        b.halt();
        b.label("outer_t");
        b.mov(Reg(6), 42);
        b.halt();
        let r = core.run(&b.build());
        assert_eq!(r.reg(Reg(6)), 42);
        assert_eq!((r.reg(Reg(5)), r.reg(Reg(7))), (0, 0));
        assert_eq!(
            r.stats.squashes,
            vec![SquashRecord {
                branch_pc: 2,
                dispatch_cycle: 0,
                resolve_cycle: 119,
                redirect_cycle: 119,
                squashed_loads: 1,
                l1_installs: 1,
                l1_evictions: 0,
            }]
        );
        assert_eq!(
            (
                r.stats.cycles,
                r.stats.squashed_insts,
                r.stats.committed_insts
            ),
            (125, 135, 4)
        );
    }
}
