//! Allocation budget of the per-message path.
//!
//! A message crossing the stack may cost one heap allocation: the boxed
//! body the kernel carries from `Sim::send` to `on_deliver`. Everything
//! around it — the application's request, the operation it awaits, the
//! pipe, the completion event — lives in memory the kernel already owns
//! (`vlog_sim::exec`), a protocol control message is boxed once, not
//! wrapped in a second envelope, and a deferred send is one typed
//! `Event::Send` in the calendar, not a closure around the body. The
//! budget is checked as a difference:
//! the same cluster runs twice as long, and the extra allocations are
//! divided by the extra messages, so build cost and one-off buffer
//! set-up cancel and only the steady state (plus amortised growth) is
//! left. 1.25 leaves that growth some room (the ring reads 1.000, the
//! marker waves 1.07); the `Arc`-per-request, closure-per-completion,
//! box-in-a-box stack this replaced read 4.000 on the same ring, and a
//! deferred control send boxed in a closure reads 2.000.
//!
//! The file is its own test binary with a single test, because the
//! counting allocator is process-wide: nothing else may allocate on the
//! counted thread while a run is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vlog_core::CoordinatedSuite;
use vlog_sim::{Actor, ActorId, Delivery, Sim, SimDuration, SimTime};
use vlog_vmpi::control::{self, Body};
use vlog_vmpi::{
    app, AppSpec, ClusterConfig, ClusterRun, FaultPlan, RecvSelector, Suite, VdummySuite,
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

/// Counts the allocations of `run`, which returns the messages it sent:
/// (allocation calls, messages).
fn counted(run: impl FnOnce() -> u64) -> (u64, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let messages = run();
    COUNTED.with(|c| c.set(false));
    (ALLOCS.load(Ordering::Relaxed) - before, messages)
}

/// Builds and runs one cluster; returns (allocation calls, messages).
fn measure(cfg: &ClusterConfig, suite: Arc<dyn Suite>, program: AppSpec) -> (u64, u64) {
    counted(|| {
        let report = ClusterRun::build(cfg, suite, program, &FaultPlan::none()).run();
        report.stats.messages
    })
}

/// A control body that owns no heap memory: the hops it has left.
struct Hops(u32);

impl Body for Hops {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

/// Sends what it receives on to its peer through `control::send_at`,
/// after 3 us of service, until no hop is left.
struct Bounce(ActorId);

impl Actor for Bounce {
    fn on_deliver(&mut self, sim: &mut Sim, me: ActorId, msg: Delivery) {
        let Hops(left) = *msg.body.downcast().expect("a Hops body");
        if left > 0 {
            let (at, node) = (sim.now() + SimDuration::from_micros(3), sim.actor_node(me));
            control::send_at(sim, at, node, self.0, Hops(left - 1));
        }
    }
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

    // Deferred control messages: two actors on two nodes bounce a body
    // through `control::send_at`, N hops against 2N. Every extra message
    // is one deferred send, its wire booking and its delivery.
    let bounce = |hops: u32| {
        counted(|| {
            let mut sim = Sim::new();
            let (n0, n1) = (sim.add_node(), sim.add_node());
            let a = sim.add_actor(n0, Box::new(Bounce(1)));
            let b = sim.add_actor(n1, Box::new(Bounce(a)));
            control::send_at(&mut sim, SimTime::ZERO, n0, b, Hops(hops));
            sim.run();
            sim.stats().messages
        })
    };
    bounce(10);
    let (short, long) = (bounce(500), bounce(1000));
    assert_eq!(long.1 - short.1, 500);
    let per_message = marginal(short, long);
    println!("deferred control: {per_message:.3} allocations ({short:?} -> {long:?})");
    assert!(
        per_message <= 1.25,
        "{per_message:.3} allocations per deferred control message (budget 1.25): \
         {short:?} -> {long:?}"
    );
}
