//! Single-threaded async process model over a `Send` core.
//!
//! Simulated application processes (MPI ranks in the reproduction) are
//! ordinary `async` blocks. Every blocking operation — send, receive,
//! compute, checkpoint — is an [`OpCell`] that the *kernel side* (actors,
//! scheduled closures) completes at the right virtual time. The executor
//! never blocks an OS thread and never needs real wake-ups: completing a
//! cell hands the waiting task to the kernel's ready queue, which the
//! simulation loop drains after every event dispatch.
//!
//! Killing a simulated process is simply dropping its future, which is the
//! fail-stop model the paper assumes: all volatile state vanishes, pending
//! operations are abandoned, and completions racing with the kill are
//! discarded thanks to per-task generation counters.
//!
//! Task code must not touch the [`Sim`] directly — it
//! would be mutably borrowed by the run loop. Instead tasks *stage* events
//! through the [`ExecHandle`]; the run loop flushes staged events into the
//! real queue between polls. This mirrors the paper's architecture where
//! the MPI process only talks to its communication daemon through a pipe.
//!
//! # Ownership and `Send`
//!
//! Tasks and actors live in arena slots owned by the kernel and are
//! addressed by index+generation handles ([`TaskId`],
//! [`ActorId`](crate::kernel::ActorId)). The kernel also owns everything
//! only it touches: the ready queue (a plain `VecDeque<TaskId>`), the
//! clock, and the identity of the task being polled, which rides in the
//! data pointer of the [`Waker`] handed to each poll.
//!
//! What is genuinely shared is small: the *staging inbox* of `ExecShared`
//! (task futures → kernel: staged events and the stop request, behind a
//! mutex the run loop takes only when the `pending` flag says something
//! was staged, plus a relaxed atomic mirror of the clock) and the
//! one-shot [`OpCell`]s (kernel ↔ one waiting task). Both are `Arc`-held
//! so a whole simulation — futures included — is `Send`, a `Sim` paused
//! by `run_until` can move to another thread, and independent cluster
//! runs can be sharded across worker threads.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::kernel::{Event, Sim};
use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task. The generation distinguishes incarnations
/// of a restarted process occupying the same slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct TaskId {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

/// Shared handle on [`ExecShared`].
pub(crate) type SharedExec = Arc<ExecShared>;

/// The task → kernel inbox: what task context may hand to the run loop.
pub(crate) struct ExecShared {
    /// Mirror of the kernel clock, readable from task context. Relaxed:
    /// it publishes no other data, and a run never leaves its thread
    /// without a synchronizing hand-off of the whole `Sim`.
    now: AtomicU64,
    /// "The inbox holds something the kernel has not taken yet." Every
    /// write happens with the inbox mutex held, so the flag can never be
    /// cleared past a concurrent `stage`; the kernel's unlocked relaxed
    /// load is only the cue to take the mutex at all.
    pending: AtomicBool,
    inbox: Mutex<Inbox>,
}

#[derive(Default)]
struct Inbox {
    /// Events staged from task context, flushed by the run loop.
    staged: Vec<(SimDuration, Event)>,
    /// Set from task context to stop the simulation loop.
    stop: bool,
}

impl ExecShared {
    pub(crate) fn new() -> SharedExec {
        Arc::new(ExecShared {
            now: AtomicU64::new(SimTime::ZERO.as_nanos()),
            pending: AtomicBool::new(false),
            inbox: Mutex::new(Inbox::default()),
        })
    }

    pub(crate) fn set_now(&self, now: SimTime) {
        self.now.store(now.as_nanos(), Ordering::Relaxed);
    }

    /// Runs `f` on the inbox and raises `pending`.
    fn post(&self, f: impl FnOnce(&mut Inbox)) {
        let mut inbox = self.inbox.lock().expect("exec inbox poisoned");
        f(&mut inbox);
        self.pending.store(true, Ordering::Relaxed);
    }

    /// Kernel side: `None` — and no locked instruction — when nothing was
    /// posted since the last call. Otherwise swaps the staged events into
    /// `out` (which must be empty; its buffer becomes the next staging
    /// buffer) and returns whether a stop was requested.
    pub(crate) fn take_pending(&self, out: &mut Vec<(SimDuration, Event)>) -> Option<bool> {
        if !self.pending.load(Ordering::Relaxed) {
            return None;
        }
        debug_assert!(out.is_empty());
        let mut inbox = self.inbox.lock().expect("exec inbox poisoned");
        self.pending.store(false, Ordering::Relaxed);
        std::mem::swap(&mut inbox.staged, out);
        Some(inbox.stop)
    }
}

/// Clonable handle on the executor, usable from task context.
#[derive(Clone)]
pub struct ExecHandle {
    pub(crate) shared: SharedExec,
}

impl ExecHandle {
    /// Creates a fresh operation cell.
    pub fn new_op<T: Send + 'static>(&self) -> OpCell<T> {
        OpCell {
            inner: Arc::new(Mutex::new(OpInner {
                result: None,
                waiter: None,
            })),
        }
    }

    /// Stages an event to fire `delay` after the current virtual time.
    /// Callable from task context; the run loop flushes it.
    pub fn stage(&self, delay: SimDuration, ev: Event) {
        self.shared.post(|inbox| inbox.staged.push((delay, ev)));
    }

    /// Stages an actor poke (used by pipes between processes and daemons).
    pub fn stage_poke(&self, delay: SimDuration, actor: crate::kernel::ActorId, token: u64) {
        self.stage(delay, Event::Poke { actor, token });
    }

    /// Requests the simulation loop to stop at the next opportunity.
    pub fn stage_stop(&self) {
        self.shared.post(|inbox| inbox.stop = true);
    }

    /// Suspends the calling task for `dur` of virtual time.
    pub fn sleep(&self, dur: SimDuration) -> OpFuture<()> {
        let cell = self.new_op::<()>();
        let done = cell.clone();
        self.stage(dur, Event::closure(move |sim| done.complete(sim, ())));
        cell.wait()
    }

    /// Current virtual time, readable from task context. Applications use
    /// this through `Mpi::time()` for in-program measurements.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.shared.now.load(Ordering::Relaxed))
    }
}

struct OpInner<T> {
    result: Option<T>,
    waiter: Option<TaskId>,
}

/// A one-shot completion cell: the kernel side calls [`OpCell::complete`],
/// the task side awaits [`OpCell::wait`]. Clonable (shared ownership).
pub struct OpCell<T> {
    inner: Arc<Mutex<OpInner<T>>>,
}

impl<T> Clone for OpCell<T> {
    fn clone(&self) -> Self {
        OpCell {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> OpCell<T> {
    /// Completes the operation from kernel context. If a task is waiting
    /// it joins `sim`'s ready queue.
    ///
    /// Panics if the cell was already completed: operations are one-shot,
    /// a double completion is a kernel bug.
    pub fn complete(&self, sim: &mut Sim, value: T) {
        let mut inner = self.inner.lock().expect("op cell poisoned");
        assert!(inner.result.is_none(), "OpCell completed twice");
        inner.result = Some(value);
        if let Some(t) = inner.waiter.take() {
            sim.wake(t);
        }
    }

    /// True once `complete` has been called and the value not yet consumed.
    pub fn is_done(&self) -> bool {
        self.inner
            .lock()
            .expect("op cell poisoned")
            .result
            .is_some()
    }

    /// Returns the future resolving to the completed value.
    pub fn wait(&self) -> OpFuture<T> {
        OpFuture {
            inner: self.inner.clone(),
        }
    }
}

/// Future returned by [`OpCell::wait`].
pub struct OpFuture<T> {
    inner: Arc<Mutex<OpInner<T>>>,
}

impl<T: Send + 'static> Future for OpFuture<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut inner = self.inner.lock().expect("op cell poisoned");
        if let Some(v) = inner.result.take() {
            Poll::Ready(v)
        } else {
            inner.waiter =
                Some(polled_task(cx.waker()).expect("OpFuture polled outside task context"));
            Poll::Pending
        }
    }
}

/// Storage for one spawned task.
pub(crate) struct TaskSlot {
    pub(crate) fut: Option<Pin<Box<dyn Future<Output = ()> + Send>>>,
    pub(crate) gen: u32,
    pub(crate) node: Option<crate::kernel::NodeId>,
    pub(crate) on_exit: Option<Box<dyn FnOnce(&mut crate::kernel::Sim) + Send>>,
}

// The kernel's wakers carry a whole `TaskId` in the data pointer.
const _: () = assert!(usize::BITS >= 64, "TaskId must fit a pointer");

/// Readiness is signalled through the kernel's ready queue by
/// [`OpCell::complete`], never through `Waker::wake`, so every vtable
/// entry is a no-op; the data pointer is never dereferenced.
static TASK_WAKER_VTABLE: RawWakerVTable = RawWakerVTable::new(
    |data| RawWaker::new(data, &TASK_WAKER_VTABLE),
    |_| {},
    |_| {},
    |_| {},
);

/// The waker the kernel polls task `id` under: it does nothing when
/// woken, and tells [`OpFuture::poll`] which task is waiting.
pub(crate) fn task_waker(id: TaskId) -> Waker {
    let packed = ((id.gen as u64) << 32 | id.idx as u64) as usize;
    let data = std::ptr::without_provenance::<()>(packed);
    // SAFETY: all vtable functions are no-ops (clone copies the pointer
    // value); the data pointer is an integer, never dereferenced.
    unsafe { Waker::from_raw(RawWaker::new(data, &TASK_WAKER_VTABLE)) }
}

/// The task a kernel-made waker was built for; `None` for any other
/// executor's waker.
fn polled_task(waker: &Waker) -> Option<TaskId> {
    std::ptr::eq(waker.vtable(), &TASK_WAKER_VTABLE).then(|| {
        let packed = waker.data().addr() as u64;
        TaskId {
            idx: packed as u32,
            gen: (packed >> 32) as u32,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;

    #[test]
    fn op_cell_completes_before_wait() {
        let mut sim = Sim::new(1);
        let cell = sim.exec().new_op::<u32>();
        cell.complete(&mut sim, 5);
        assert!(cell.is_done());
        sim.spawn_detached({
            let cell = cell.clone();
            async move {
                assert_eq!(cell.wait().await, 5);
            }
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "OpCell completed twice")]
    fn double_complete_panics() {
        let mut sim = Sim::new(1);
        let cell = sim.exec().new_op::<u32>();
        cell.complete(&mut sim, 1);
        cell.complete(&mut sim, 2);
    }

    #[test]
    #[should_panic(expected = "OpFuture polled outside task context")]
    fn op_future_under_a_foreign_waker_panics() {
        let sim = Sim::new(1);
        let mut fut = sim.exec().new_op::<u32>().wait();
        let mut cx = Context::from_waker(Waker::noop());
        let _ = Pin::new(&mut fut).poll(&mut cx);
    }

    #[test]
    fn waker_round_trips_the_task_id_through_clones() {
        for id in [
            TaskId { idx: 0, gen: 0 },
            TaskId {
                idx: u32::MAX,
                gen: 7,
            },
            TaskId {
                idx: 3,
                gen: u32::MAX,
            },
        ] {
            let waker = task_waker(id);
            assert_eq!(polled_task(&waker), Some(id));
            assert_eq!(polled_task(&waker.clone()), Some(id));
            waker.wake();
        }
        assert_eq!(polled_task(Waker::noop()), None);
    }

    #[test]
    fn now_in_task_context_is_the_kernel_clock_at_that_poll() {
        let mut sim = Sim::new(1);
        let h = sim.exec();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        sim.spawn_detached(async move {
            s.lock().unwrap().push(h.now());
            for us in [10, 5] {
                h.sleep(SimDuration::from_micros(us)).await;
                s.lock().unwrap().push(h.now());
            }
        });
        // An unrelated later event: the clock has moved past every poll
        // by the end of the run, so equality below is per poll.
        sim.after(SimDuration::from_micros(40), |_| {});
        let mut at_poll = Vec::new();
        for deadline_us in [0, 10, 15] {
            sim.run_until(SimTime::from_nanos(deadline_us * 1_000));
            assert_eq!(sim.exec().now(), sim.now());
            at_poll.push(sim.now());
        }
        assert_eq!(*seen.lock().unwrap(), at_poll);
        sim.run();
        assert_eq!(sim.exec().now(), sim.now());
        assert_eq!(sim.now().as_nanos(), 40_000);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new(1);
        let h = sim.exec();
        sim.spawn_detached(async move {
            h.sleep(SimDuration::from_micros(10)).await;
            h.sleep(SimDuration::from_micros(5)).await;
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 15_000);
    }

    #[test]
    fn two_tasks_interleave_deterministically() {
        let mut sim = Sim::new(1);
        let log: Arc<Mutex<Vec<(u64, &'static str)>>> = Arc::new(Mutex::new(Vec::new()));
        for (name, step) in [("a", 3u64), ("b", 5u64)] {
            let h = sim.exec();
            let log = log.clone();
            sim.spawn_detached(async move {
                for _ in 0..3 {
                    h.sleep(SimDuration::from_micros(step)).await;
                    log.lock().unwrap().push((step, name));
                }
            });
        }
        sim.run();
        let got = log.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![(3, "a"), (5, "b"), (3, "a"), (3, "a"), (5, "b"), (5, "b")]
        );
        assert_eq!(sim.now().as_nanos(), 15_000);
    }

    #[test]
    fn handles_and_cells_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ExecHandle>();
        assert_send::<OpCell<u64>>();
        assert_send::<OpFuture<()>>();
        assert_send::<TaskId>();
    }
}
