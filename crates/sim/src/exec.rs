//! Single-threaded async process model over a `Send` core.
//!
//! Simulated application processes (MPI ranks in the reproduction) are
//! ordinary `async` blocks. Every blocking operation — send, receive,
//! compute, checkpoint — is an [`Op`]: a one-shot slot in the task's
//! [`Port`] that the *kernel side* (actors, scheduled events) completes at
//! the right virtual time. The executor never blocks an OS thread and
//! never needs real wake-ups: completing an op hands the waiting task to
//! the kernel's ready queue, which the simulation loop drains after every
//! event dispatch.
//!
//! Killing a simulated process is simply dropping its future, which is the
//! fail-stop model the paper assumes: all volatile state vanishes with the
//! port, pending operations are abandoned, and completions racing with the
//! kill are discarded thanks to per-task generation counters.
//!
//! Task code must not touch the [`Sim`](crate::Sim) directly — it would
//! be mutably borrowed by the run loop. Instead tasks *stage* events into
//! their port; the run loop moves staged events into the calendar right
//! after the poll. This mirrors the paper's architecture where the MPI
//! process only talks to its communication daemon through a pipe. A task
//! wakes an actor by staging an [`Event::Timer`] that names the actor's
//! incarnation, so a wake-up staged for an incarnation that dies before it
//! pops is dropped. A task's end is reported the same way: a program whose
//! daemon must learn that it finished stages the notice as its last act,
//! which a kill never reaches.
//!
//! # Ownership and `Send`
//!
//! Everything belongs to the kernel. Tasks and actors live in arena slots
//! addressed by index+generation handles ([`TaskId`],
//! [`ActorId`](crate::kernel::ActorId)); each task slot owns that task's
//! [`Port`]: its op slots (state and generation — plain flags), the events
//! it staged, and one `Box<dyn Any + Send>` for whatever the layer above
//! wants to pass between the task and kernel context (`vlog-vmpi` keeps
//! the request queue and the received messages there). Nothing is
//! reference-counted and nothing is locked:
//!
//! * kernel context reaches a port through the `&mut Sim` every handler is
//!   handed ([`Sim::port_mut`](crate::Sim::port_mut),
//!   [`Sim::complete`](crate::Sim::complete));
//! * task context reaches it because the kernel **lends** it, together
//!   with the task's id and the clock reading, for exactly the duration of
//!   one poll: the port is moved into a thread-local [`TaskCx`] before
//!   `Future::poll` and moved back after it (`lend`, called by the run
//!   loop's `poll_task`).
//!
//! The hand-off is empty between polls. That is what keeps two `Sim`s on
//! one thread apart (neither can see the other's port: whichever poll is
//! running is the only thing lent), what lets a paused `Sim` move to
//! another thread with operations in flight (their state is in the `Sim`,
//! not in the thread), and why every task-context call made outside a
//! poll panics by name instead of touching some other run's state. A poll
//! that unwinds restores the previous (empty) hand-off on the way out.
//! [`Op`] and [`OpId`] are plain data, so a whole simulation — futures
//! included — is `Send` without a single `unsafe impl`, and independent
//! cluster runs can be sharded across worker threads.

use std::any::Any;
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::kernel::{Event, NodeId};
use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task. The generation distinguishes incarnations
/// of a restarted process occupying the same slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct TaskId {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

/// Kernel-side name of one operation of one task incarnation: what a
/// daemon keeps to complete it later ([`Sim::complete`](crate::Sim::complete),
/// [`Event::Complete`]). Plain data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpId {
    task: TaskId,
    slot: u32,
    gen: u32,
}

impl OpId {
    /// The task that awaits this operation.
    pub fn task(&self) -> TaskId {
        self.task
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpState {
    /// On the free list.
    Free,
    /// Created; neither completed nor awaited yet.
    Pending,
    /// The task is suspended on it: completion wakes the task.
    Waited,
    /// The task dropped its [`Op`] first: completion frees the slot.
    Abandoned,
    /// Completed, not yet consumed by the task.
    Done,
}

struct OpSlot {
    /// Bumped at every release, so an [`OpId`] names one use of the slot.
    gen: u32,
    state: OpState,
}

/// Everything one task shares with kernel context. Owned by the task's
/// kernel slot; lent to the task while it is polled (module docs).
#[derive(Default)]
pub struct Port {
    ops: Vec<OpSlot>,
    free: Vec<u32>,
    /// Events staged by the poll in progress, flushed right after it.
    staged: Vec<(SimDuration, Event)>,
    /// The half typed by the layer above (see [`Port::install`]).
    ext: Option<Box<dyn Any + Send>>,
}

impl Port {
    /// Installs the typed half of the port: state the layer above shares
    /// between this task and kernel context. One allocation per task.
    pub fn install<P: Any + Send>(&mut self, ext: P) {
        self.ext = Some(Box::new(ext));
    }

    /// The typed half, as installed. Panics if nothing or another type
    /// was installed — a wiring bug, not a runtime condition.
    pub fn ext<P: Any>(&mut self) -> &mut P {
        self.ext
            .as_deref_mut()
            .and_then(|e| e.downcast_mut())
            .expect("task port holds no extension of the requested type")
    }

    fn new_op(&mut self, task: TaskId) -> Op {
        let slot = match self.free.pop() {
            Some(i) => i,
            None => {
                self.ops.push(OpSlot {
                    gen: 0,
                    state: OpState::Free,
                });
                (self.ops.len() - 1) as u32
            }
        };
        let s = &mut self.ops[slot as usize];
        s.state = OpState::Pending;
        Op {
            id: OpId {
                task,
                slot,
                gen: s.gen,
            },
            live: true,
        }
    }

    /// The slot `op` names, if that use of it is still current.
    fn current(&mut self, op: OpId) -> Option<&mut OpSlot> {
        self.ops
            .get_mut(op.slot as usize)
            .filter(|s| s.gen == op.gen)
    }

    fn release(&mut self, slot: u32) {
        let s = &mut self.ops[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.state = OpState::Free;
        self.free.push(slot);
    }

    /// Marks `op` completed; true if its task is suspended on it and must
    /// be woken. Operations are one-shot: a second completion (the slot
    /// moved on, or is still `Done`) is a kernel bug.
    pub(crate) fn complete(&mut self, op: OpId) -> bool {
        let Some(s) = self.current(op) else {
            panic!("Op completed twice");
        };
        match s.state {
            OpState::Pending => s.state = OpState::Done,
            OpState::Waited => {
                s.state = OpState::Done;
                return true;
            }
            OpState::Abandoned => self.release(op.slot),
            OpState::Done | OpState::Free => panic!("Op completed twice"),
        }
        false
    }

    /// Task side of [`Op::poll`]: consumes a completed op, else registers
    /// the task as its waiter.
    fn poll_op(&mut self, op: OpId) -> bool {
        let s = self.current(op).expect("Op polled after it resolved");
        if s.state == OpState::Done {
            self.release(op.slot);
            true
        } else {
            s.state = OpState::Waited;
            false
        }
    }

    /// Task side of dropping an unresolved [`Op`].
    fn abandon(&mut self, op: OpId) {
        let Some(s) = self.current(op) else {
            return;
        };
        match s.state {
            OpState::Done => self.release(op.slot),
            _ => s.state = OpState::Abandoned,
        }
    }

    /// What the last poll staged: drains the events into `sink` in
    /// staging order.
    pub(crate) fn take_staged(&mut self, mut sink: impl FnMut(SimDuration, Event)) {
        for (delay, ev) in self.staged.drain(..) {
            sink(delay, ev);
        }
    }

    /// Forgets everything (the incarnation is gone), keeping the buffers
    /// for the slot's next tenant.
    pub(crate) fn reset(&mut self) {
        self.ops.clear();
        self.free.clear();
        self.staged.clear();
        self.ext = None;
    }
}

/// Typed results of a task's operations, parked by the kernel side and
/// taken by the task once the op resolved. Lives in the typed half of a
/// port ([`Port::install`]); an op without a value (`()`) needs none.
pub struct OpValues<T> {
    by_slot: Vec<Option<T>>,
}

impl<T> Default for OpValues<T> {
    fn default() -> Self {
        OpValues {
            by_slot: Vec::new(),
        }
    }
}

impl<T> OpValues<T> {
    /// Parks the result of `op`. It becomes the task's only when the op
    /// completes — park now, schedule [`Event::Complete`] for later.
    pub fn park(&mut self, op: OpId, value: T) {
        let i = op.slot as usize;
        if self.by_slot.len() <= i {
            self.by_slot.resize_with(i + 1, || None);
        }
        self.by_slot[i] = Some(value);
    }

    /// Takes the parked result of a resolved op.
    pub fn take(&mut self, op: OpId) -> T {
        self.by_slot
            .get_mut(op.slot as usize)
            .and_then(Option::take)
            .expect("op resolved without a parked value")
    }
}

/// What the kernel lends a task for the duration of one poll: its port,
/// its identity and the clock reading.
pub struct TaskCx {
    task: TaskId,
    now: SimTime,
    port: Port,
}

impl TaskCx {
    /// Current virtual time (constant during a poll).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Creates a fresh operation of the polled task.
    pub fn new_op(&mut self) -> Op {
        self.port.new_op(self.task)
    }

    /// Stages an event to fire `delay` after the current virtual time.
    pub fn stage(&mut self, delay: SimDuration, ev: Event) {
        self.port.staged.push((delay, ev));
    }

    /// The typed half of the polled task's port (see [`Port::ext`]).
    pub fn ext<P: Any>(&mut self) -> &mut P {
        self.port.ext()
    }
}

thread_local! {
    /// The hand-off: `Some` only while this thread is inside a poll.
    static LENT: RefCell<Option<TaskCx>> = const { RefCell::new(None) };
}

/// Polls a task with `port` lent to it, and returns the port with the
/// events the poll staged.
///
/// Whatever was lent before (normally nothing) is put back afterwards,
/// also when `poll` unwinds — a panicking program must not leave its port
/// lent to the next run on this thread.
pub(crate) fn lend<R>(
    task: TaskId,
    now: SimTime,
    port: Port,
    poll: impl FnOnce() -> R,
) -> (R, Port) {
    struct PutBack(Option<Option<TaskCx>>);
    impl Drop for PutBack {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                let _ = LENT.try_with(|l| l.replace(prev));
            }
        }
    }
    let mut guard = PutBack(Some(LENT.replace(Some(TaskCx { task, now, port }))));
    let out = poll();
    let prev = guard.0.take().expect("armed above");
    let cx = LENT
        .replace(prev)
        .expect("the task context lent to a poll was taken during it");
    (out, cx.port)
}

/// Runs `f` on what the kernel lent the poll in progress. Panics, naming
/// `what`, outside a poll: there is no port to reach then.
pub fn with_task<R>(what: &str, f: impl FnOnce(&mut TaskCx) -> R) -> R {
    LENT.with(|l| match l.borrow_mut().as_mut() {
        Some(cx) => f(cx),
        None => panic!("{what} outside task context"),
    })
}

/// Handle on the executor, usable from task context only (inside a poll).
/// It holds nothing and belongs to no [`Sim`](crate::Sim): what it
/// reaches is whatever task the thread's current poll has lent.
#[derive(Clone, Copy)]
pub struct ExecHandle;

impl ExecHandle {
    /// Creates a fresh operation of the calling task.
    pub fn new_op(&self) -> Op {
        with_task("ExecHandle::new_op", TaskCx::new_op)
    }

    /// Stages an event to fire `delay` after the current virtual time;
    /// the run loop moves it into the calendar right after this poll.
    pub fn stage(&self, delay: SimDuration, ev: Event) {
        with_task("ExecHandle::stage", |cx| cx.stage(delay, ev));
    }

    /// Suspends the calling task for `dur` of virtual time.
    pub fn sleep(&self, dur: SimDuration) -> Op {
        with_task("ExecHandle::sleep", |cx| {
            let op = cx.new_op();
            cx.stage(dur, Event::Complete(op.id));
            op
        })
    }

    /// Current virtual time. Applications use this through `Mpi::time()`
    /// for in-program measurements.
    pub fn now(&self) -> SimTime {
        with_task("ExecHandle::now", |cx| cx.now())
    }
}

/// Task-side handle on a one-shot operation: await it. The kernel side
/// completes it by [`Op::id`]. Dropping it unresolved abandons the
/// operation — its slot is recycled when the completion arrives.
#[must_use = "an operation does nothing for the task unless awaited"]
pub struct Op {
    id: OpId,
    /// Still holds its slot (not yet resolved).
    live: bool,
}

impl Op {
    /// The name kernel context completes this operation by.
    pub fn id(&self) -> OpId {
        self.id
    }
}

impl Future for Op {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let id = self.id;
        let done = with_task("Op polled", |cx| {
            assert!(
                cx.task == id.task,
                "Op polled by a task that did not create it"
            );
            cx.port.poll_op(id)
        });
        if done {
            self.live = false;
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

impl Drop for Op {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        // Outside a poll the whole incarnation is being dropped and its
        // port reset with it; inside one, only the task's own port can
        // be lent.
        let _ = LENT.try_with(|l| {
            if let Ok(mut l) = l.try_borrow_mut() {
                if let Some(cx) = l.as_mut().filter(|cx| cx.task == self.id.task) {
                    cx.port.abandon(self.id);
                }
            }
        });
    }
}

/// Storage for one spawned task.
pub(crate) struct TaskSlot {
    pub(crate) fut: Option<Pin<Box<dyn Future<Output = ()> + Send>>>,
    pub(crate) gen: u32,
    pub(crate) node: Option<NodeId>,
    pub(crate) port: Port,
}

impl TaskSlot {
    /// Ready for a new tenant: nothing runs here, and nobody may still
    /// read the port. A program that finished leaves what its last poll
    /// wrote (the pipe outlives the process that wrote to it), so a slot
    /// with a typed port half stays taken until its incarnation is
    /// killed — with its node, like everything else on it.
    pub(crate) fn is_free(&self) -> bool {
        self.fut.is_none() && self.port.ext.is_none()
    }

    /// Fail-stop: drops the future and everything in the port, and
    /// invalidates queued wake-ups and in-flight completions.
    pub(crate) fn kill(&mut self) {
        self.fut = None;
        self.gen += 1;
        self.port.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex};

    const fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn complete(id: OpId) -> Event {
        Event::closure(move |sim| sim.complete(id))
    }

    #[test]
    fn op_cell_completes_before_wait() {
        let mut sim = Sim::new();
        let h = ExecHandle;
        sim.spawn(None, async move {
            let op = h.new_op();
            h.stage(us(1), complete(op.id()));
            h.sleep(us(5)).await;
            // Completed at 1us while nobody waited: resolves on the spot.
            op.await;
            assert_eq!(h.now().as_nanos(), 5_000);
        });
        sim.run();
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn op_awaited_first_resumes_at_its_completion() {
        let mut sim = Sim::new();
        let h = ExecHandle;
        let resumed = Arc::new(Mutex::new(None));
        let r = resumed.clone();
        sim.spawn(None, async move {
            let op = h.new_op();
            h.stage(us(5), complete(op.id()));
            op.await;
            *r.lock().unwrap() = Some(h.now().as_nanos());
        });
        sim.run();
        assert_eq!(*resumed.lock().unwrap(), Some(5_000));
    }

    #[test]
    #[should_panic(expected = "Op completed twice")]
    fn double_complete_panics() {
        let mut sim = Sim::new();
        let h = ExecHandle;
        sim.spawn(None, async move {
            let op = h.new_op();
            let id = op.id();
            h.stage(
                us(1),
                Event::closure(move |sim| {
                    sim.complete(id);
                    sim.complete(id);
                }),
            );
            op.await;
        });
        sim.run();
    }

    /// An `Op` smuggled out of its task and polled by another executor
    /// finds nothing lent.
    #[test]
    #[should_panic(expected = "Op polled outside task context")]
    fn op_future_under_a_foreign_waker_panics() {
        let mut sim = Sim::new();
        let h = ExecHandle;
        let out = Arc::new(Mutex::new(None));
        let o = out.clone();
        sim.spawn(None, async move { *o.lock().unwrap() = Some(h.new_op()) });
        sim.run();
        let mut op = out.lock().unwrap().take().unwrap();
        let mut cx = Context::from_waker(std::task::Waker::noop());
        let _ = Pin::new(&mut op).poll(&mut cx);
    }

    #[test]
    fn task_context_calls_outside_a_poll_panic_by_name() {
        let h = ExecHandle;
        type Call = Box<dyn Fn()>;
        let calls: [(&str, Call); 4] = [
            ("ExecHandle::new_op", Box::new(move || drop(h.new_op()))),
            ("ExecHandle::sleep", Box::new(move || drop(h.sleep(us(1))))),
            ("ExecHandle::now", Box::new(move || _ = h.now())),
            (
                "ExecHandle::stage",
                Box::new(move || h.stage(us(1), Event::closure(|_| {}))),
            ),
        ];
        for (name, call) in calls {
            let err = catch_unwind(AssertUnwindSafe(call)).expect_err(name);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(*msg, format!("{name} outside task context"));
        }
    }

    #[test]
    fn ops_carry_the_id_of_the_task_being_polled() {
        let mut sim = Sim::new();
        let h = ExecHandle;
        let seen = Arc::new(Mutex::new(Vec::new()));
        let spawned: Vec<TaskId> = (0..3)
            .map(|_| {
                let s = seen.clone();
                sim.spawn(None, async move {
                    h.sleep(us(1)).await;
                    s.lock().unwrap().push(h.new_op().id().task());
                })
            })
            .collect();
        sim.run();
        assert_eq!(*seen.lock().unwrap(), spawned);
    }

    /// The makespan guard: a result parked ahead of its completion event
    /// does not resolve the op early, even for a task that is awake.
    #[test]
    fn a_parked_value_is_not_observable_before_its_event_fires() {
        let mut sim = Sim::new();
        let h = ExecHandle;
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        let task = sim.spawn(None, async move {
            let (a, b) = (h.new_op(), h.new_op());
            let (ida, idb) = (a.id(), b.id());
            h.stage(us(2), Event::Complete(ida));
            // B's value is parked at 1us; its event fires at 10us.
            h.stage(
                us(1),
                Event::closure(move |sim| {
                    let port = sim.port_mut(idb.task()).expect("task alive");
                    port.ext::<OpValues<u32>>().park(idb, 7);
                    sim.schedule(us(9), Event::Complete(idb));
                }),
            );
            a.await;
            g.lock().unwrap().push((h.now().as_nanos(), 0));
            b.await;
            let v = with_task("test", |cx| cx.ext::<OpValues<u32>>().take(idb));
            g.lock().unwrap().push((h.now().as_nanos(), v));
        });
        sim.port_mut(task)
            .expect("just spawned")
            .install(OpValues::<u32>::default());
        sim.run();
        assert_eq!(*got.lock().unwrap(), [(2_000, 0), (10_000, 7)]);
    }

    #[test]
    fn a_completion_for_a_dead_incarnation_pops_as_a_counted_no_op() {
        let mut sim = Sim::new();
        let h = ExecHandle;
        let resumed = Arc::new(Mutex::new(Vec::new()));
        let r = resumed.clone();
        let old = sim.spawn(None, async move {
            h.sleep(us(10)).await;
            r.lock().unwrap().push("old");
        });
        let r = resumed.clone();
        sim.after(us(5), move |sim| {
            sim.kill_task(old);
            assert!(sim.port_mut(old).is_none());
            // The successor takes the same slot, and its first op the
            // same op slot the dead sleep held.
            let new = sim.spawn(None, async move {
                h.sleep(us(20)).await;
                r.lock().unwrap().push("new");
            });
            assert_eq!(new.idx, old.idx);
        });
        sim.run();
        assert_eq!(*resumed.lock().unwrap(), ["new"]);
        // Kill closure, the dead sleep's completion, the live one's.
        assert_eq!(sim.events_processed(), 3);
        assert_eq!(sim.now().as_nanos(), 25_000);
    }

    #[test]
    fn an_abandoned_op_gives_its_slot_back_at_completion() {
        let mut sim = Sim::new();
        let h = ExecHandle;
        sim.spawn(None, async move {
            let op = h.new_op();
            let id = op.id();
            h.stage(us(1), Event::Complete(id));
            drop(op);
            // Still held: the completion is on its way.
            let other = h.new_op();
            assert_ne!(other.id().slot, id.slot);
            h.sleep(us(2)).await;
            // Free again (with the sleep's own slot), under a new name.
            let next = [h.new_op(), h.new_op()];
            assert!(next.iter().any(|op| op.id().slot == id.slot));
            assert!(next.iter().all(|op| op.id() != id));
            drop((other, next));
        });
        sim.run();
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn now_in_task_context_is_the_kernel_clock_at_that_poll() {
        let mut sim = Sim::new();
        let h = ExecHandle;
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        sim.spawn(None, async move {
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
            at_poll.push(sim.now());
        }
        assert_eq!(*seen.lock().unwrap(), at_poll);
        sim.run();
        assert_eq!(sim.now().as_nanos(), 40_000);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new();
        let h = ExecHandle;
        sim.spawn(None, async move {
            h.sleep(SimDuration::from_micros(10)).await;
            h.sleep(SimDuration::from_micros(5)).await;
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 15_000);
    }

    #[test]
    fn two_tasks_interleave_deterministically() {
        let mut sim = Sim::new();
        let log: Arc<Mutex<Vec<(u64, &'static str)>>> = Arc::new(Mutex::new(Vec::new()));
        for (name, step) in [("a", 3u64), ("b", 5u64)] {
            let h = ExecHandle;
            let log = log.clone();
            sim.spawn(None, async move {
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

    type TickLog = Arc<Mutex<Vec<(u32, u64)>>>;

    /// A sim whose one task checks it is polled with its own port and
    /// logs `tag` through a staged closure, every `step` microseconds.
    fn ticking_sim(tag: u32, step: u64, log: &TickLog) -> Sim {
        let mut sim = Sim::new();
        let (h, log) = (ExecHandle, log.clone());
        let task = sim.spawn(None, async move {
            for _ in 0..6 {
                h.sleep(us(step)).await;
                assert_eq!(with_task("test", |cx| *cx.ext::<u32>()), tag);
                let l = log.clone();
                h.stage(
                    us(1),
                    Event::closure(move |sim| l.lock().unwrap().push((tag, sim.now().as_nanos()))),
                );
            }
        });
        sim.port_mut(task).expect("just spawned").install(tag);
        sim
    }

    #[test]
    fn two_sims_interleaved_on_one_thread_never_see_each_others_port() {
        let solo = |tag, step| {
            let log = TickLog::default();
            let mut sim = ticking_sim(tag, step, &log);
            sim.run();
            let ticks = log.lock().unwrap().clone();
            (sim.events_processed(), ticks)
        };
        let (log_a, log_b) = (TickLog::default(), TickLog::default());
        let mut a = ticking_sim(1, 3, &log_a);
        let mut b = ticking_sim(2, 5, &log_b);
        for t in 1..=40 {
            a.run_until(SimTime::from_nanos(t * 1_000));
            b.run_until(SimTime::from_nanos(t * 1_000));
        }
        let ticks = |log: &TickLog| log.lock().unwrap().clone();
        assert_eq!((a.events_processed(), ticks(&log_a)), solo(1, 3));
        assert_eq!((b.events_processed(), ticks(&log_b)), solo(2, 5));
    }

    #[test]
    fn a_poll_that_panics_does_not_poison_the_next_run_on_that_thread() {
        let mut doomed = Sim::new();
        let h = ExecHandle;
        doomed.spawn(None, async move {
            let _op = h.new_op();
            panic!("program bug");
        });
        let err = catch_unwind(AssertUnwindSafe(|| doomed.run())).expect_err("poll panicked");
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "program bug");
        // Nothing is left lent: task context is unreachable again ...
        let err = catch_unwind(|| ExecHandle.now()).expect_err("nothing lent");
        let msg = err.downcast_ref::<String>().unwrap();
        assert_eq!(msg, "ExecHandle::now outside task context");
        // ... and the next run on this thread is its own.
        let log = TickLog::default();
        let mut next = ticking_sim(3, 2, &log);
        next.run();
        assert_eq!(log.lock().unwrap().len(), 6);
    }

    #[test]
    fn handles_and_cells_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ExecHandle>();
        assert_send::<Op>();
        assert_send::<OpId>();
        assert_send::<OpValues<u64>>();
        assert_send::<Port>();
        assert_send::<TaskId>();
    }
}
