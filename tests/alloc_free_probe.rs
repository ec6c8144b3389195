//! Zero-allocation guarantees for the hot paths: the disabled
//! telemetry probe, the steady-state simulation cycle loop, and its
//! L1 miss path.
//!
//! This lives in its own integration-test binary so the counting
//! allocator sees no concurrent test threads. All probes run inside
//! ONE `#[test]` function: with two, the harness runs them on two
//! worker threads, and its own bookkeeping (spawning the second
//! thread, collecting the first result) allocates while a counting
//! window is open — a rare flake under parallel `--workspace` runs.
//!
//! Even single-threaded, the process occasionally sees a stray
//! allocation or two from runtime machinery outside the probed code,
//! so each probe retries its counting window: a hot path that really
//! allocates does so ~per iteration (tens of thousands of counts,
//! every attempt), which the retry loop cannot mask.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use unxpec::cpu::{Cond, Core, ProgramBuilder, Reg};
use unxpec::telemetry::{CacheLevel, Event, Telemetry};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `window` up to 5 times and returns the smallest allocation
/// count observed. Interference is sporadic, so a clean pass shows a
/// zero window almost immediately; a real per-iteration allocation
/// inflates every attempt.
fn min_allocations_over_attempts(mut window: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        window();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        best = best.min(after - before);
        if best == 0 {
            break;
        }
    }
    best
}

#[test]
fn hot_paths_are_allocation_free() {
    disabled_telemetry_emits_without_allocating();
    steady_state_cycle_loop_is_allocation_free_after_warmup();
    l1_miss_path_is_allocation_free_after_warmup();
}

fn disabled_telemetry_emits_without_allocating() {
    let tel = Telemetry::disabled();
    assert!(!tel.is_enabled());
    // Warm anything lazy (formatting machinery, TLS) before counting.
    tel.emit(Event::Dispatch {
        cycle: 0,
        seq: 0,
        pc: 0,
    });

    let allocations = min_allocations_over_attempts(|| {
        for cycle in 0..100_000u64 {
            tel.emit(Event::CacheFill {
                cycle,
                level: CacheLevel::L1,
                line: cycle,
                speculative: true,
            });
            tel.emit(Event::SquashBegin {
                cycle,
                branch_pc: 3,
                epoch: cycle,
                squashed_loads: 1,
                squashed_insts: 2,
            });
        }
    });
    assert_eq!(
        allocations, 0,
        "disabled emit must be one branch, zero allocations"
    );
}

/// After a warm-up run has sized the run-storage buffers, trained
/// the branch predictor and warmed the caches, repeated well-predicted
/// runs of the same program must not touch the heap at all: the
/// speculation store and ROB storage are reused, and cache hits report
/// no effects.
///
/// The one *accepted* steady-state allocation is `stats.squashes`
/// growth on an actual squash (the records are moved out to the caller
/// in `RunResult`), so the probe program is squash-free by
/// construction: its only branch is always taken and trained by the
/// warm-up run.
fn steady_state_cycle_loop_is_allocation_free_after_warmup() {
    let mut b = ProgramBuilder::new();
    b.mov(Reg(1), 0); // induction variable
    b.mov(Reg(2), 0x1_0000); // base of a small resident working set
    b.label("loop");
    b.load(Reg(3), Reg(2), 0);
    b.load(Reg(4), Reg(2), 64);
    b.add(Reg(5), Reg(3), Reg(4));
    b.add(Reg(1), Reg(1), 1);
    b.branch(Cond::Ge, Reg(1), 0u64, "loop"); // always taken
    b.halt();
    let program = b.build();

    let mut core = Core::table_i();
    // Warm-up: trains the predictor (the first encounter of the branch
    // mispredicts), warms both cache levels, and sizes every pooled
    // buffer.
    let warm = core.run_for(&program, 2_000);
    assert!(warm.hit_limit, "the loop must run to the instruction bound");

    let mut cycles = 0;
    let allocations = min_allocations_over_attempts(|| {
        for _ in 0..5 {
            let r = core.run_for(&program, 2_000);
            cycles += r.stats.cycles;
            assert_eq!(r.stats.squashes.len(), 0, "probe loop must be squash-free");
            assert_eq!(r.stats.mispredicts, 0, "predictor must stay trained");
        }
    });
    assert!(cycles > 0);
    assert_eq!(
        allocations, 0,
        "steady-state cycle loop allocated {allocations} time(s)"
    );
}

/// The miss path: a trained, squash-free loop that streams two loads
/// per iteration over 2,048 lines (four times the L1's 512), so nearly
/// every load misses the L1 and hits the L2 — about 11k L1 misses per
/// run. Each miss installs a line, reports its fill effects and books
/// an MSHR entry; after warm-up none of that may touch the heap.
fn l1_miss_path_is_allocation_free_after_warmup() {
    const LINES: u64 = 2_048;
    let mut b = ProgramBuilder::new();
    b.mov(Reg(1), 0); // induction variable
    b.mov(Reg(2), 0); // byte offset into the streamed region
    b.mov(Reg(6), 0x40_0000); // region base
    b.label("loop");
    b.add(Reg(7), Reg(6), Reg(2));
    b.load(Reg(3), Reg(7), 0);
    b.load(Reg(4), Reg(7), 64);
    b.add(Reg(2), Reg(2), 128u64);
    b.and(Reg(2), Reg(2), LINES * 64 - 1);
    b.add(Reg(1), Reg(1), 1);
    b.branch(Cond::Ge, Reg(1), 0u64, "loop"); // always taken
    b.halt();
    let program = b.build();

    let mut core = Core::table_i();
    // Warm-up: trains the branch, brings the region into the L2 and
    // sizes every reused buffer.
    let warm = core.run_for(&program, 40_000);
    assert!(warm.hit_limit, "the loop must run to the instruction bound");

    let mut misses = 0;
    let allocations = min_allocations_over_attempts(|| {
        for _ in 0..5 {
            let before = core.hierarchy().l1d().stats().misses;
            let r = core.run_for(&program, 40_000);
            misses += core.hierarchy().l1d().stats().misses - before;
            assert_eq!(r.stats.squashes.len(), 0, "probe loop must be squash-free");
            assert_eq!(r.stats.mispredicts, 0, "predictor must stay trained");
        }
    });
    assert!(
        misses >= 5 * 10_000,
        "probe loop must miss the L1 on nearly every load ({misses} misses)"
    );
    assert_eq!(
        allocations, 0,
        "L1 miss path allocated {allocations} time(s)"
    );
}
