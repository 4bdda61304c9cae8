//! Allocation budget of the per-message path.
//!
//! A message crossing the stack may cost one heap allocation: the boxed
//! body the kernel carries from `net_send` to `on_deliver`. Everything
//! around it — the application's request, the operation it awaits, the
//! pipe, the completion event — lives in memory the kernel already owns
//! (`vlog_sim::exec`), and a protocol control message is boxed once, not
//! wrapped in a second envelope. The budget is checked as a difference:
//! the same cluster runs twice as long, and the extra allocations are
//! divided by the extra messages, so build cost and one-off buffer
//! set-up cancel and only the steady state (plus amortised growth) is
//! left. 1.25 leaves that growth some room (the ring reads 1.000, the
//! marker waves 1.07); the `Arc`-per-request, closure-per-completion,
//! box-in-a-box stack this replaced read 4.000 on the same ring.
//!
//! The file is its own test binary with a single test, because the
//! counting allocator is process-wide: nothing else may allocate on the
//! counted thread while a run is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vlog_core::CoordinatedSuite;
use vlog_sim::SimDuration;
use vlog_vmpi::{
    app, AppSpec, ClusterConfig, ClusterRun, FaultPlan, RecvSelector, RunReport, Suite, VdummySuite,
};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the measuring thread counts (the harness's main thread may
    /// allocate while it waits).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every request is forwarded unchanged to `System`; the counter
// and the thread-local flag (const-initialised, no destructor, so usable
// from inside the allocator) do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RANKS: usize = 16;

/// Builds and runs one cluster; returns (allocation calls, messages).
fn measure(cfg: &ClusterConfig, suite: Arc<dyn Suite>, program: AppSpec) -> (u64, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let report: RunReport = ClusterRun::build(cfg, suite, program, &FaultPlan::none()).run();
    COUNTED.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (allocs, report.stats.messages)
}

/// Extra allocations per extra message between a run and its double.
fn marginal(short: (u64, u64), long: (u64, u64)) -> f64 {
    assert!(long.1 > short.1, "the longer run sent no more messages");
    (long.0 - short.0) as f64 / (long.1 - short.1) as f64
}

#[test]
fn a_message_costs_one_allocation() {
    // Application messages: a 16-rank eager ring under Vdummy, N rounds
    // against 2N. Every extra message is a send, a receive, two pipe
    // crossings, two operations and one wire message.
    let ring = |rounds: usize| {
        app(move |mpi| async move {
            let (me, n) = (mpi.rank(), mpi.size());
            for _ in 0..rounds {
                mpi.send_synth((me + 1) % n, 7, 256).await;
                mpi.recv(RecvSelector::of((me + n - 1) % n, 7)).await;
            }
        })
    };
    let cfg = ClusterConfig::new(RANKS);
    let run = |rounds| measure(&cfg, Arc::new(VdummySuite), ring(rounds));
    run(10); // first-use set-up (env knobs, thread-locals) stays uncounted
    let (short, long) = (run(200), run(400));
    assert_eq!(long.1 - short.1, (200 * RANKS) as u64);
    let per_message = marginal(short, long);
    println!("application message: {per_message:.3} allocations ({short:?} -> {long:?})");
    assert!(
        per_message <= 1.25,
        "{per_message:.3} allocations per application message (budget 1.25): {short:?} -> {long:?}"
    );

    // Control messages: coordinated checkpointing over programs that
    // finished at once, so every snapshot wave is pure control traffic —
    // one scheduler command per rank, and each rank closes its channels
    // with a marker to every peer. T against 2T of waves.
    let idle = app(|_mpi| async {});
    let suite = || Arc::new(CoordinatedSuite::new(SimDuration::from_millis(1)));
    let waves = |ms: u64| {
        let mut cfg = ClusterConfig::new(RANKS);
        cfg.stop_on_completion = false;
        cfg.time_limit = Some(SimDuration::from_millis(ms));
        measure(&cfg, suite(), idle.clone())
    };
    waves(3);
    let (short, long) = (waves(40), waves(80));
    let per_wave = (RANKS * RANKS) as u64; // RANKS commands + RANKS * (RANKS - 1) markers
    assert_eq!((long.1 - short.1) % per_wave, 0, "{short:?} -> {long:?}");
    assert!(long.1 - short.1 >= 30 * per_wave, "{short:?} -> {long:?}");
    let per_message = marginal(short, long);
    println!("marker or command: {per_message:.3} allocations ({short:?} -> {long:?})");
    assert!(
        per_message <= 1.25,
        "{per_message:.3} allocations per marker or command delivered (budget 1.25): \
         {short:?} -> {long:?}"
    );
}
