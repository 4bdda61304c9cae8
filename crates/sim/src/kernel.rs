//! The simulation kernel: virtual clock, event queue, actors, tasks,
//! CPU resources and fault injection.
//!
//! # Determinism
//!
//! Events are ordered by `(time, sequence)`; the sequence is a monotonic
//! counter, so simultaneous events fire in scheduling order. Tasks are
//! polled from a FIFO ready queue. The kernel draws no random numbers:
//! two runs of the same program under the same configuration produce
//! bit-identical statistics.
//!
//! # The per-message path takes no locks
//!
//! The kernel owns the ready queue, the clock, the tasks and each task's
//! [`Port`] — its op slots, the events it staged, the requests it queued
//! for its daemon — outright. Kernel context reaches a port through
//! `&mut Sim`; a task reaches its own because the run loop moves it
//! into a thread-local hand-off for the duration of the poll and takes it
//! back, with what the poll staged, right after ([`crate::exec`]). No
//! `Mutex`, no `Arc` and no atomic sits anywhere between an application
//! request and its completion: posting, draining, completing and resuming
//! are plain loads and stores on memory the `Sim` owns.
//!
//! # The run-state slot
//!
//! What the actors of one run share — who lives where, what has been
//! counted, whether the job is done — is shared the same way: the layer
//! above [`Sim::install`]s one value of a type it chooses and every
//! handler reaches it through the `&mut Sim` it is handed ([`Sim::ext`],
//! [`Sim::ext_ref`]). It is the run-level twin of a task's
//! [`Port::install`]/[`Port::ext`]: one `Box<dyn Any + Send>` per run,
//! plain memory, so a run on another thread (another `Sim`) can never
//! see it and nothing about it needs a lock or a reference count. The
//! run's causality log ([`crate::causality::Log`]) is held the same way:
//! a plain field, absent until [`Sim::enable_causality`], which every
//! record site reaches through [`Sim::record`]. So is the run's
//! perturbation script ([`crate::schedule`]): decisions in through
//! [`Sim::set_schedule`], the ones that fired out through
//! [`Sim::applied`].
//!
//! # How a run loop ends
//!
//! [`Sim::run`] returns when the calendar drains, when somebody called
//! [`Sim::stop`], or when the kernel stops the run itself and says why
//! ([`Sim::stop_reason`]): more than [`SimConfig::event_limit`] events
//! were dispatched, or the next event lies beyond
//! [`SimConfig::time_limit`]. [`Sim::run_until`] is a pause, not a stop:
//! it returns at its deadline with everything still pending and the next
//! call carries on.
//!
//! # Actors and generations
//!
//! Services (communication daemons, the Event Logger, the checkpoint
//! server, the dispatcher) are [`Actor`]s registered on a node. Crashing a
//! node drops its actors and tasks; restarting installs a fresh actor in
//! the *same slot* with a bumped generation. Deliveries capture the
//! generation of their target at creation: anything addressed to a dead
//! incarnation is silently dropped, which models TCP connections dying
//! with the process. Timers are tracked per actor slot as cancellable
//! [`TimerHandle`]s: crashing or replacing an actor *detaches* its
//! outstanding timers at once (the payload is freed and the handler will
//! never run), while the calendar entry keeps its dispatch position so
//! event accounting is identical to the historical drop-at-dispatch
//! behaviour.
//!
//! # The calendar
//!
//! Events live in the arena-backed [`EventCalendar`]:
//! a slab with free-list reuse addressed by stable
//! [`EventKey`] handles, a hierarchical timer
//! wheel for near-future events, and a binary heap kept only as
//! far-future overflow. Dispatch order is exact `(time, seq)` — see the
//! [`calendar`](crate::calendar) module docs for the determinism
//! argument.

use std::any::Any;
use std::collections::VecDeque;

use crate::calendar::{EventCalendar, EventKey};
use crate::causality::{Edge, Log};
use crate::exec::{self, ExecHandle, OpId, Port, TaskId, TaskSlot};
use crate::net::{NetProfile, Network, WireSize};
use crate::profiler;
use crate::schedule::{Decision, Script};
use crate::stats::{Counter, Stats};
use crate::time::{SimDuration, SimTime};

/// Index of a simulated machine.
pub type NodeId = usize;
/// Index of a registered actor slot (stable across restarts).
pub type ActorId = usize;

/// A message arriving at an actor.
pub struct Delivery {
    /// Node that emitted the message.
    pub src_node: NodeId,
    /// Wire-size accounting used for statistics.
    pub size: WireSize,
    /// The message body; actors downcast to their protocol type.
    pub body: Box<dyn Any + Send>,
}

/// An entry in the simulation calendar.
pub enum Event {
    /// Arbitrary kernel-context work (fault injection, paced streams, ...).
    Closure(Box<dyn FnOnce(&mut Sim) + Send>),
    /// A deferred [`Sim::complete`]: whatever result the operation carries
    /// was parked in the task's port when this was scheduled, and becomes
    /// the task's now.
    Complete(OpId),
    /// Wakes an actor without carrying data (pipe readable, batch flush...).
    Poke { actor: ActorId, token: u64 },
    /// A timer set through [`Sim::set_timer`].
    Timer {
        actor: ActorId,
        gen: u32,
        token: u64,
    },
    /// A network (or loopback) message delivery.
    Deliver {
        actor: ActorId,
        gen: u32,
        msg: Delivery,
    },
    /// A deferred [`Sim::net_send`] (see [`Sim::net_send_at`]).
    NetSend {
        src_node: NodeId,
        dst_actor: ActorId,
        size: WireSize,
        body: Box<dyn Any + Send>,
    },
}

impl Event {
    /// Convenience constructor for closure events.
    pub fn closure(f: impl FnOnce(&mut Sim) + Send + 'static) -> Event {
        Event::Closure(Box::new(f))
    }
}

/// Message/timer-driven service running on a node.
///
/// Handlers receive `&mut Sim` so they can schedule events, send messages
/// and charge CPU time. The kernel guarantees a handler is never re-entered.
pub trait Actor: Send + 'static {
    /// A message addressed to this actor arrived.
    fn on_deliver(&mut self, sim: &mut Sim, me: ActorId, msg: Delivery);
    /// A poke (data-less wake-up) arrived.
    fn on_poke(&mut self, sim: &mut Sim, me: ActorId, token: u64) {
        let _ = (sim, me, token);
    }
    /// A timer set by this actor fired.
    fn on_timer(&mut self, sim: &mut Sim, me: ActorId, token: u64) {
        let _ = (sim, me, token);
    }
    /// The hosting node is crashing; the actor is dropped right after.
    /// Most actors need no cleanup — volatile state dies with them.
    fn on_crash(&mut self, sim: &mut Sim, me: ActorId) {
        let _ = (sim, me);
    }
}

/// Cancellable handle on a pending timer, returned by [`Sim::set_timer`].
/// Stale handles (fired, cancelled, or belonging to a dead incarnation)
/// are detected and ignored by [`Sim::cancel_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    key: EventKey,
    actor: ActorId,
}

struct ActorSlot {
    actor: Option<Box<dyn Actor>>,
    node: NodeId,
    gen: u32,
    alive: bool,
    /// Calendar keys of this incarnation's outstanding timers. Fired
    /// timers are unregistered at dispatch; crash/replace detaches the
    /// rest wholesale instead of letting each one reach dispatch just to
    /// fail a generation check.
    timers: Vec<EventKey>,
}

/// Simulation parameters.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Network fabric profile.
    pub net: NetProfile,
    /// Optional hard cap on dispatched events (runaway protection): the
    /// run loop stops once it is exceeded, see [`StopReason`].
    pub event_limit: Option<u64>,
    /// Optional hard cap on virtual time: the run loop stops at this
    /// instant, with every later event still pending, see [`StopReason`].
    pub time_limit: Option<SimDuration>,
}

/// Why a run loop stopped although nobody asked it to
/// ([`Sim::stop_reason`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// More than [`SimConfig::event_limit`] events were dispatched.
    EventLimit(u64),
    /// The next event lay beyond [`SimConfig::time_limit`]; the clock
    /// reads exactly the limit.
    TimeLimit(SimDuration),
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::EventLimit(limit) => write!(f, "event limit exceeded ({limit})"),
            StopReason::TimeLimit(limit) => write!(f, "time limit reached ({limit})"),
        }
    }
}

/// The simulation world. See module docs.
pub struct Sim {
    now: SimTime,
    calendar: EventCalendar<Event>,
    actors: Vec<ActorSlot>,
    tasks: Vec<TaskSlot>,
    /// Tasks ready to be polled, FIFO.
    ready: VecDeque<TaskId>,
    net: Network,
    /// Per-node sequential service-CPU resource (daemon work, servers).
    cpu_free: Vec<SimTime>,
    nodes: usize,
    stats: Stats,
    stop: bool,
    stop_reason: Option<StopReason>,
    events_processed: u64,
    event_limit: Option<u64>,
    /// [`SimConfig::time_limit`] as an instant; [`SimTime::MAX`] is none.
    time_limit: SimTime,
    /// The run's perturbation script; `None` is the untouched pop path
    /// (see [`crate::schedule`]).
    script: Option<Script>,
    /// The run state typed by the layer above (see [`Sim::install`]).
    ext: Option<Box<dyn Any + Send>>,
    /// The run's causality log; `None` (the default) collects nothing.
    causality: Option<Log>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    pub fn new() -> Self {
        Self::with_config(SimConfig::default())
    }

    pub fn with_config(cfg: SimConfig) -> Self {
        Sim {
            now: SimTime::ZERO,
            calendar: EventCalendar::new(),
            actors: Vec::new(),
            tasks: Vec::new(),
            ready: VecDeque::new(),
            net: Network::new(cfg.net),
            cpu_free: Vec::new(),
            nodes: 0,
            stats: Stats::new(),
            stop: false,
            stop_reason: None,
            events_processed: 0,
            event_limit: cfg.event_limit,
            time_limit: cfg.time_limit.map_or(SimTime::MAX, |d| SimTime::ZERO + d),
            script: None,
            ext: None,
            causality: None,
        }
    }

    /// Gives the run its perturbation script (see [`crate::schedule`]):
    /// every message delivery is offered to it before dispatch. With no
    /// script (the default) the pop path is untouched; an empty script
    /// is byte-identical to it.
    pub fn set_schedule(&mut self, script: impl IntoIterator<Item = Decision>) {
        self.script = Some(Script::new(script));
    }

    /// The decisions of the run's script that fired so far, in firing
    /// order. Handing them to [`Sim::set_schedule`] of an identically
    /// built run reproduces this one.
    pub fn applied(&self) -> &[Decision] {
        self.script.as_ref().map_or(&[], Script::applied)
    }

    /// Installs the run state: what the layer above shares between the
    /// actors of this run and the harness that reads it afterwards. One
    /// allocation per run; a second call replaces the first state.
    pub fn install<S: Any + Send>(&mut self, state: S) {
        self.ext = Some(Box::new(state));
    }

    /// The run state, as installed. Panics naming `S` if nothing or
    /// another type was installed — a wiring bug, not a runtime
    /// condition.
    pub fn ext<S: Any>(&mut self) -> &mut S {
        let state = self.ext.as_deref_mut().and_then(|e| e.downcast_mut());
        state.unwrap_or_else(|| no_run_state::<S>())
    }

    /// [`Sim::ext`] through a shared borrow.
    pub fn ext_ref<S: Any>(&self) -> &S {
        let state = self.ext.as_deref().and_then(|e| e.downcast_ref());
        state.unwrap_or_else(|| no_run_state::<S>())
    }

    /// Switches causality collection on for this run, starting from an
    /// empty log. The one switch: without this call every record site is
    /// a failed `Option` check.
    pub fn enable_causality(&mut self) {
        self.causality = Some(Log::default());
    }

    /// The run's causality log, if collection is on.
    pub fn causality(&mut self) -> Option<&mut Log> {
        self.causality.as_mut()
    }

    /// The record site: builds the edge — evaluating its key arguments —
    /// and logs it only when collection is on. Instrumented code calls
    /// this, or [`crate::event!`], which expands to it.
    #[inline]
    pub fn record(&mut self, edge: impl FnOnce() -> Edge) {
        if let Some(log) = &mut self.causality {
            log.record(edge());
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    pub fn net(&self) -> &Network {
        &self.net
    }

    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Handle for task context (staging, ops, sleeps). It holds nothing:
    /// what it reaches is whatever the kernel lent the poll in progress.
    pub fn exec(&self) -> ExecHandle {
        ExecHandle
    }

    /// Number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Set when the run loop stopped itself rather than on request.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop_reason
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// Registers a new machine and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.nodes;
        self.nodes += 1;
        self.cpu_free.push(SimTime::ZERO);
        self.net.ensure_node(id);
        id
    }

    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Registers an actor on `node`; the returned id is stable across
    /// crash/restart cycles of that slot.
    pub fn add_actor(&mut self, node: NodeId, actor: Box<dyn Actor>) -> ActorId {
        self.add_actor_with(node, |_, _| actor)
    }

    /// Registers an actor whose constructor needs its own [`ActorId`] —
    /// e.g. to arm timers for itself and keep the returned cancellable
    /// handles. The slot is allocated first, `build` runs with the kernel
    /// re-borrowable (it may call [`Sim::set_timer`] for `id`), and the
    /// actor it returns is installed in the slot.
    pub fn add_actor_with<F>(&mut self, node: NodeId, build: F) -> ActorId
    where
        F: FnOnce(&mut Sim, ActorId) -> Box<dyn Actor>,
    {
        assert!(node < self.nodes, "unknown node");
        let id = self.actors.len();
        self.actors.push(ActorSlot {
            actor: None,
            node,
            gen: 0,
            alive: true,
            timers: Vec::new(),
        });
        let actor = build(self, id);
        self.actors[id].actor = Some(actor);
        id
    }

    /// Installs a fresh actor in an existing slot (restart). Bumps the
    /// generation so stale deliveries are dropped, and detaches the old
    /// incarnation's timers.
    pub fn replace_actor(&mut self, id: ActorId, actor: Box<dyn Actor>) {
        self.detach_actor_timers(id);
        let slot = &mut self.actors[id];
        slot.gen += 1;
        slot.actor = Some(actor);
        slot.alive = true;
    }

    /// Detaches every outstanding timer of an actor slot: payloads are
    /// freed now and the handlers never run, while the calendar entries
    /// keep their dispatch positions (see [`Sim::cancel_timer`]).
    fn detach_actor_timers(&mut self, id: ActorId) {
        let timers = std::mem::take(&mut self.actors[id].timers);
        for key in timers {
            self.calendar.detach(key);
        }
    }

    /// Current generation of an actor slot.
    pub fn actor_gen(&self, id: ActorId) -> u32 {
        self.actors[id].gen
    }

    pub fn actor_alive(&self, id: ActorId) -> bool {
        self.actors[id].alive
    }

    pub fn actor_node(&self, id: ActorId) -> NodeId {
        self.actors[id].node
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Schedules an event `delay` from now. The returned key can cancel
    /// it through the calendar while it is still pending.
    pub fn schedule(&mut self, delay: SimDuration, event: Event) -> EventKey {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules an event at an absolute instant (must not be in the past,
    /// must not be the [`SimTime::MAX`] sentinel).
    pub fn schedule_at(&mut self, time: SimTime, event: Event) -> EventKey {
        // MAX is the "run forever" deadline / "never" timeout sentinel;
        // an event actually scheduled there is always a saturated (or
        // formerly wrapped) arithmetic bug upstream.
        assert!(
            time < SimTime::MAX,
            "attempted to schedule an event at the SimTime::MAX sentinel"
        );
        debug_assert!(time >= self.now, "scheduling into the past");
        self.calendar.schedule(time, event)
    }

    /// Schedules kernel-context work `delay` from now.
    pub fn after(&mut self, delay: SimDuration, f: impl FnOnce(&mut Sim) + Send + 'static) {
        self.schedule(delay, Event::closure(f));
    }

    /// Sets a timer for an actor; detached (never fires) if the actor is
    /// crashed or restarted first, cancellable through the returned
    /// handle.
    pub fn set_timer(&mut self, actor: ActorId, delay: SimDuration, token: u64) -> TimerHandle {
        let gen = self.actors[actor].gen;
        let key = self.schedule(delay, Event::Timer { actor, gen, token });
        self.actors[actor].timers.push(key);
        TimerHandle { key, actor }
    }

    /// Cancels a pending timer: its handler will not run. Returns false
    /// for stale handles (already fired, cancelled, or detached by a
    /// crash/restart of the owning actor).
    ///
    /// The calendar entry keeps its `(time, seq)` dispatch position and
    /// is popped as a counted no-op — exactly the accounting of the
    /// legacy path where a dead incarnation's timer reached dispatch and
    /// failed the generation check. Cancellation therefore never shifts
    /// `events_processed` or the virtual clock relative to the
    /// generation-drop behaviour it replaces.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        if self.calendar.detach(handle.key).is_none() {
            return false;
        }
        self.unregister_timer(handle.actor, handle.key);
        true
    }

    /// Removes a timer key from its actor's outstanding-timer registry
    /// (at cancellation, or when a live timer reaches dispatch).
    fn unregister_timer(&mut self, actor: ActorId, key: EventKey) {
        let timers = &mut self.actors[actor].timers;
        if let Some(pos) = timers.iter().position(|k| *k == key) {
            timers.swap_remove(pos);
        }
    }

    /// Requests the run loop to exit at the next dispatch boundary.
    pub fn stop(&mut self) {
        self.stop = true;
    }

    // ------------------------------------------------------------------
    // Communication
    // ------------------------------------------------------------------

    /// Sends a message across the network. Consumes NIC/link time on both
    /// ends according to the Ethernet model; the delivery fires when the
    /// last byte reaches the destination. Panics on same-node sends — use
    /// [`Sim::local_send`] for those.
    pub fn net_send(
        &mut self,
        src_node: NodeId,
        dst_actor: ActorId,
        size: WireSize,
        body: Box<dyn Any + Send>,
    ) {
        let slot = &self.actors[dst_actor];
        let dst_node = slot.node;
        let gen = slot.gen;
        let arrival = {
            let _p = profiler::scope(profiler::Phase::Net);
            self.net.send(self.now, src_node, dst_node, size.total())
        };
        {
            let _p = profiler::scope(profiler::Phase::Stats);
            self.stats.record_message(size);
        }
        self.schedule_at(
            arrival,
            Event::Deliver {
                actor: dst_actor,
                gen,
                msg: Delivery {
                    src_node,
                    size,
                    body,
                },
            },
        );
    }

    /// [`Sim::net_send`] deferred to the instant `at` (typically the end of
    /// the sender's CPU work): NIC booking, statistics and the target's
    /// generation are all taken then, not now.
    pub fn net_send_at(
        &mut self,
        at: SimTime,
        src_node: NodeId,
        dst_actor: ActorId,
        size: WireSize,
        body: Box<dyn Any + Send>,
    ) {
        self.schedule_at(
            at,
            Event::NetSend {
                src_node,
                dst_actor,
                size,
                body,
            },
        );
    }

    /// Delivers a message to an actor on the *same* node through loopback:
    /// no NIC time, fixed small delay.
    pub fn local_send(
        &mut self,
        src_node: NodeId,
        dst_actor: ActorId,
        size: WireSize,
        body: Box<dyn Any + Send>,
        delay: SimDuration,
    ) {
        let gen = self.actors[dst_actor].gen;
        self.schedule(
            delay,
            Event::Deliver {
                actor: dst_actor,
                gen,
                msg: Delivery {
                    src_node,
                    size,
                    body,
                },
            },
        );
    }

    /// Serializes `work` on the node's service CPU (single-threaded daemon
    /// model): the work starts when the CPU is free and the returned
    /// instant is its completion time.
    pub fn charge_cpu(&mut self, node: NodeId, work: SimDuration) -> SimTime {
        let start = self.cpu_free[node].max(self.now);
        let end = start + work;
        self.cpu_free[node] = end;
        end
    }

    // ------------------------------------------------------------------
    // Tasks
    // ------------------------------------------------------------------

    /// Spawns a task bound to a node (killed when the node crashes).
    pub fn spawn(
        &mut self,
        node: Option<NodeId>,
        fut: impl std::future::Future<Output = ()> + Send + 'static,
    ) -> TaskId {
        self.spawn_inner(node, Box::pin(fut), None)
    }

    /// Spawns a task and registers a callback to run on normal completion.
    pub fn spawn_with_exit(
        &mut self,
        node: Option<NodeId>,
        fut: impl std::future::Future<Output = ()> + Send + 'static,
        on_exit: impl FnOnce(&mut Sim) + Send + 'static,
    ) -> TaskId {
        self.spawn_inner(node, Box::pin(fut), Some(Box::new(on_exit)))
    }

    /// Spawns a task bound to no node (test harness helpers).
    pub fn spawn_detached(
        &mut self,
        fut: impl std::future::Future<Output = ()> + Send + 'static,
    ) -> TaskId {
        self.spawn(None, fut)
    }

    fn spawn_inner(
        &mut self,
        node: Option<NodeId>,
        fut: std::pin::Pin<Box<dyn std::future::Future<Output = ()> + Send>>,
        on_exit: Option<Box<dyn FnOnce(&mut Sim) + Send>>,
    ) -> TaskId {
        // Reuse a dead slot if possible to keep indices small.
        let idx = self.tasks.iter().position(TaskSlot::is_free);
        let (idx, gen) = match idx {
            Some(i) => {
                let slot = &mut self.tasks[i];
                slot.gen += 1;
                slot.port.reset();
                slot.fut = Some(fut);
                slot.node = node;
                slot.on_exit = on_exit;
                (i, slot.gen)
            }
            None => {
                self.tasks.push(TaskSlot {
                    fut: Some(fut),
                    gen: 0,
                    node,
                    on_exit,
                    port: Port::default(),
                });
                (self.tasks.len() - 1, 0)
            }
        };
        let id = TaskId {
            idx: idx as u32,
            gen,
        };
        self.ready.push_back(id);
        id
    }

    /// The port of a task incarnation — `None` once it was killed, so
    /// nothing can be handed to a dead process. A program that *finished*
    /// keeps its port: what its last poll wrote (a send it did not wait
    /// for) is still read.
    pub fn port_mut(&mut self, id: TaskId) -> Option<&mut Port> {
        let slot = &mut self.tasks[id.idx as usize];
        (slot.gen == id.gen).then_some(&mut slot.port)
    }

    /// Completes an operation from kernel context; if its task is
    /// suspended on it, the task joins the ready queue. A completion for
    /// a dead incarnation is dropped.
    ///
    /// Panics if the operation was already completed: operations are
    /// one-shot, a double completion is a kernel bug.
    pub fn complete(&mut self, op: OpId) {
        let task = op.task();
        if self.port_mut(task).is_some_and(|port| port.complete(op)) {
            self.ready.push_back(task);
        }
    }

    /// Drops a task's future (fail-stop kill). Its exit callback does not
    /// run; pending completions addressed to it are discarded.
    pub fn kill_task(&mut self, id: TaskId) {
        let slot = &mut self.tasks[id.idx as usize];
        if slot.gen == id.gen {
            slot.kill();
        }
    }

    pub fn task_alive(&self, id: TaskId) -> bool {
        let slot = &self.tasks[id.idx as usize];
        slot.gen == id.gen && slot.fut.is_some()
    }

    // ------------------------------------------------------------------
    // Faults
    // ------------------------------------------------------------------

    /// Fail-stop crash of a machine: every task bound to the node is
    /// dropped, every actor gets `on_crash` and is dropped (slot kept, not
    /// alive), and the node's NIC and CPU state is reset.
    pub fn crash_node(&mut self, node: NodeId) {
        // Kill tasks first so actors observe a world without them.
        for i in 0..self.tasks.len() {
            if self.tasks[i].node == Some(node) && !self.tasks[i].is_free() {
                self.tasks[i].kill();
            }
        }
        for id in 0..self.actors.len() {
            if self.actors[id].node == node && self.actors[id].alive {
                if let Some(mut a) = self.actors[id].actor.take() {
                    a.on_crash(self, id);
                }
                // Timers die with the incarnation — including any the
                // actor armed from `on_crash` just above.
                self.detach_actor_timers(id);
                self.actors[id].alive = false;
                self.actors[id].gen += 1;
            }
        }
        self.net.reset_node(node);
        self.cpu_free[node] = self.now;
        self.stats.bump(Counter::NodeCrashes);
        crate::event!(self, "node-crashed" { node = node });
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Runs until the calendar is empty, a stop is requested or a limit
    /// of [`SimConfig`] ends the run.
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Runs until `deadline` (events at `deadline` included). Returns true
    /// if the simulation stopped or drained before the deadline. Reaching
    /// the event or time limit is such a stop, with [`Sim::stop_reason`]
    /// set; reaching `deadline` is a pause the next call resumes from.
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        self.drain_tasks();
        let horizon = deadline.min(self.time_limit);
        loop {
            if self.stop {
                return true;
            }
            let Some(head_time) = self.calendar.peek_time() else {
                return true;
            };
            if head_time > horizon {
                if deadline < self.time_limit {
                    self.now = deadline;
                    return false;
                }
                // Events at the limit ran; the clock stops on it.
                self.now = self.time_limit;
                self.stop = true;
                self.stop_reason = Some(StopReason::TimeLimit(
                    self.time_limit.saturating_since(SimTime::ZERO),
                ));
                return true;
            }
            let (time, seq, key, mut event) = {
                let _p = profiler::scope(profiler::Phase::Calendar);
                self.calendar.pop().unwrap()
            };
            debug_assert!(time >= self.now);
            // The schedule seam (an unscripted run pays this one branch):
            // a deferred delivery is back in the calendar; neither the
            // clock nor the event counter moved.
            if self.script.is_some() && self.defer((time, seq), &mut event) {
                continue;
            }
            self.now = time;
            // A detached event (None payload) still advances the clock
            // and the event counter: it occupies the dispatch slot a
            // dead incarnation's timer would have burned anyway.
            {
                let _p = profiler::scope(profiler::Phase::Dispatch);
                if let Some(event) = event {
                    self.dispatch(key, event);
                }
                self.drain_tasks();
            }
            self.events_processed += 1;
            if let Some(limit) = self.event_limit {
                if self.events_processed > limit {
                    self.stop_reason = Some(StopReason::EventLimit(limit));
                    self.stop = true;
                }
            }
        }
    }

    /// Offers the event popped at `at` to the run's script if it is a
    /// message delivery — the only kind a script may move; detached slots
    /// and every other event dispatch in place. True when the script
    /// deferred it: the delivery left `event` for the calendar, at the
    /// script's target with a fresh (highest) sequence number — behind
    /// its same-time peers for a zero delay.
    fn defer(&mut self, at: (SimTime, u64), event: &mut Option<Event>) -> bool {
        let (Some(script), Some(Event::Deliver { actor, msg, .. })) = (&mut self.script, &*event)
        else {
            return false;
        };
        let chan = (msg.src_node, *actor);
        let calendar = &mut self.calendar;
        script.offer(chan, at, |target| {
            assert!(
                target < SimTime::MAX,
                "attempted to defer a delivery to the SimTime::MAX sentinel"
            );
            let deferred = event.take().expect("a delivery was offered");
            let key = calendar.schedule(target, deferred);
            calendar.position_of(key).expect("just scheduled")
        })
    }

    fn dispatch(&mut self, key: EventKey, event: Event) {
        match event {
            Event::Closure(f) => f(self),
            Event::Complete(op) => self.complete(op),
            Event::NetSend {
                src_node,
                dst_actor,
                size,
                body,
            } => self.net_send(src_node, dst_actor, size, body),
            Event::Poke { actor, token } => {
                self.with_actor(actor, None, |a, sim, me| a.on_poke(sim, me, token));
            }
            Event::Timer { actor, gen, token } => {
                // A live (non-detached) timer always belongs to the
                // current generation: stale ones were detached wholesale
                // when the incarnation died.
                self.unregister_timer(actor, key);
                crate::event!(self, "timer-fired" { actor = actor, token = token });
                self.with_actor(actor, Some(gen), |a, sim, me| a.on_timer(sim, me, token));
            }
            Event::Deliver { actor, gen, msg } => {
                crate::event!(self, "sim-deliver" { actor = actor });
                let matched =
                    self.with_actor(actor, Some(gen), |a, sim, me| a.on_deliver(sim, me, msg));
                if !matched {
                    self.stats.bump(Counter::NetDroppedDeadTarget);
                }
            }
        }
    }

    /// Runs `f` on a live actor with the kernel re-borrowable. Returns
    /// false if the actor is dead or from another generation.
    fn with_actor<F>(&mut self, id: ActorId, gen: Option<u32>, f: F) -> bool
    where
        F: FnOnce(&mut dyn Actor, &mut Sim, ActorId),
    {
        {
            let slot = &self.actors[id];
            if !slot.alive || gen.is_some_and(|g| g != slot.gen) {
                return false;
            }
        }
        let Some(mut actor) = self.actors[id].actor.take() else {
            // Never re-enter a running handler.
            panic!("actor {id} re-entered");
        };
        let gen_now = self.actors[id].gen;
        f(&mut *actor, self, id);
        let slot = &mut self.actors[id];
        if slot.alive && slot.gen == gen_now && slot.actor.is_none() {
            slot.actor = Some(actor);
        }
        true
    }

    /// Polls ready tasks until quiescent; what each poll staged reaches
    /// the calendar before the next poll. Called by the run loop after
    /// every event dispatch.
    fn drain_tasks(&mut self) {
        while let Some(tid) = self.ready.pop_front() {
            self.poll_task(tid);
        }
    }

    /// Polls one task with its port lent to it (see [`crate::exec`]), then
    /// moves what it staged into the calendar, in staging order.
    fn poll_task(&mut self, id: TaskId) {
        let idx = id.idx as usize;
        let slot = &mut self.tasks[idx];
        if slot.gen != id.gen {
            return; // stale wake-up for a dead incarnation
        }
        let Some(mut fut) = slot.fut.take() else {
            return; // ... or for one that already finished
        };
        let port = std::mem::take(&mut slot.port);
        // Readiness travels through the ready queue, never through a
        // waker, so the poll gets the one that does nothing.
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        let (poll, mut port) = exec::lend(id, self.now, port, || fut.as_mut().poll(&mut cx));
        match poll {
            std::task::Poll::Pending => self.tasks[idx].fut = Some(fut),
            std::task::Poll::Ready(()) => {
                drop(fut);
                if let Some(cb) = self.tasks[idx].on_exit.take() {
                    cb(self);
                }
            }
        }
        let stop = port.take_staged(|delay, ev| {
            self.schedule(delay, ev);
        });
        self.stop |= stop;
        // The exit callback may already have spawned the slot's next
        // tenant, which then has a port of its own.
        let slot = &mut self.tasks[idx];
        if slot.gen == id.gen {
            slot.port = port;
        }
    }
}

#[cold]
fn no_run_state<S>() -> ! {
    panic!(
        "this Sim holds no run state of type {}",
        std::any::type_name::<S>()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    struct Echo {
        got: Arc<Mutex<Vec<(NodeId, u64)>>>,
    }
    impl Actor for Echo {
        fn on_deliver(&mut self, _sim: &mut Sim, _me: ActorId, msg: Delivery) {
            let v = *msg.body.downcast::<u64>().unwrap();
            self.got.lock().unwrap().push((msg.src_node, v));
        }
        fn on_timer(&mut self, _sim: &mut Sim, _me: ActorId, token: u64) {
            self.got.lock().unwrap().push((usize::MAX, token));
        }
    }

    fn small(n: u64) -> WireSize {
        WireSize {
            header: 0,
            payload: n,
            piggyback: 0,
            control: 0,
        }
    }

    #[test]
    fn deliver_and_stats() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let got = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_actor(n1, Box::new(Echo { got: got.clone() }));
        sim.net_send(n0, a, small(100), Box::new(42u64));
        sim.run();
        assert_eq!(&*got.lock().unwrap(), &[(n0, 42u64)]);
        assert_eq!(sim.stats().messages, 1);
        assert_eq!(sim.stats().bytes.payload, 100);
        assert!(sim.now() > SimTime::ZERO);
    }

    #[test]
    fn timers_respect_generation() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let got = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_actor(n0, Box::new(Echo { got: got.clone() }));
        sim.set_timer(a, SimDuration::from_micros(10), 1);
        // Replace before the timer fires: the timer must be dropped.
        sim.replace_actor(a, Box::new(Echo { got: got.clone() }));
        sim.set_timer(a, SimDuration::from_micros(20), 2);
        sim.run();
        assert_eq!(&*got.lock().unwrap(), &[(usize::MAX, 2u64)]);
        // The detached timer still burned its dispatch slot, exactly as
        // the old generation-check drop did.
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn cancelled_timer_never_fires_but_keeps_accounting() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let got = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_actor(n0, Box::new(Echo { got: got.clone() }));
        let h1 = sim.set_timer(a, SimDuration::from_micros(10), 1);
        sim.set_timer(a, SimDuration::from_micros(20), 2);
        assert!(sim.cancel_timer(h1));
        assert!(!sim.cancel_timer(h1), "double cancel is a no-op");
        sim.run();
        assert_eq!(&*got.lock().unwrap(), &[(usize::MAX, 2u64)]);
        assert_eq!(sim.events_processed(), 2);
        // A fired timer's handle is stale.
        let mut sim2 = Sim::new();
        let n = sim2.add_node();
        let a2 = sim2.add_actor(n, Box::new(Echo { got: got.clone() }));
        let h = sim2.set_timer(a2, SimDuration::from_micros(1), 9);
        sim2.run();
        assert!(!sim2.cancel_timer(h));
    }

    #[test]
    fn add_actor_with_can_arm_its_own_timers() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let got = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_actor_with(n0, |sim, me| {
            sim.set_timer(me, SimDuration::from_micros(5), 77);
            Box::new(Echo { got: got.clone() })
        });
        sim.run();
        assert_eq!(&*got.lock().unwrap(), &[(usize::MAX, 77u64)]);
        let _ = a;
    }

    #[test]
    fn crash_detaches_timers_but_counts_their_slots() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let got = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_actor(n0, Box::new(Echo { got: got.clone() }));
        sim.set_timer(a, SimDuration::from_micros(10), 1);
        sim.set_timer(a, SimDuration::from_micros(12), 2);
        sim.after(SimDuration::from_micros(1), move |sim| sim.crash_node(0));
        sim.run();
        assert!(got.lock().unwrap().is_empty());
        // crash closure + two detached timer slots.
        assert_eq!(sim.events_processed(), 3);
        assert_eq!(sim.now().as_nanos(), 12_000);
    }

    #[test]
    #[should_panic(expected = "SimTime::MAX sentinel")]
    fn scheduling_at_the_sentinel_is_rejected() {
        let mut sim = Sim::new();
        // A wrapped/saturated delay must be caught loudly, not silently
        // reorder the calendar.
        sim.after(SimDuration::from_nanos(u64::MAX), |_| {});
    }

    #[test]
    fn crash_drops_in_flight_messages() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let got = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_actor(n1, Box::new(Echo { got: got.clone() }));
        sim.net_send(n0, a, small(10), Box::new(1u64));
        // Crash the receiver before delivery.
        sim.after(SimDuration::from_nanos(1), move |sim| sim.crash_node(1));
        sim.run();
        assert!(got.lock().unwrap().is_empty());
        assert_eq!(sim.stats().counter(Counter::NetDroppedDeadTarget), 1);
        assert_eq!(sim.stats().counter(Counter::NodeCrashes), 1);
    }

    #[test]
    fn restart_receives_new_traffic() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let got = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_actor(n1, Box::new(Echo { got: got.clone() }));
        sim.after(SimDuration::from_micros(1), move |sim| sim.crash_node(1));
        let got2 = got.clone();
        sim.after(SimDuration::from_micros(2), move |sim| {
            sim.replace_actor(a, Box::new(Echo { got: got2.clone() }));
            sim.net_send(0, a, small(10), Box::new(9u64));
        });
        sim.run();
        assert_eq!(&*got.lock().unwrap(), &[(n0, 9u64)]);
        let _ = n1;
    }

    #[test]
    fn charge_cpu_serializes() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let t1 = sim.charge_cpu(n0, SimDuration::from_micros(5));
        let t2 = sim.charge_cpu(n0, SimDuration::from_micros(5));
        assert_eq!(t1.as_nanos(), 5_000);
        assert_eq!(t2.as_nanos(), 10_000);
    }

    #[test]
    fn killed_task_never_resumes() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let h = sim.exec();
        let hit = Arc::new(Mutex::new(false));
        let hit2 = hit.clone();
        let id = sim.spawn(Some(n0), async move {
            h.sleep(SimDuration::from_micros(10)).await;
            *hit2.lock().unwrap() = true;
        });
        sim.after(SimDuration::from_micros(5), move |sim| sim.kill_task(id));
        sim.run();
        assert!(!*hit.lock().unwrap());
        assert!(!sim.task_alive(id));
    }

    #[test]
    fn exit_callback_runs_on_completion_only() {
        let mut sim = Sim::new();
        let done = Arc::new(Mutex::new(0));
        let d = done.clone();
        let h = sim.exec();
        sim.spawn_with_exit(
            None,
            async move {
                h.sleep(SimDuration::from_micros(1)).await;
            },
            move |_| *d.lock().unwrap() += 1,
        );
        sim.run();
        assert_eq!(*done.lock().unwrap(), 1);
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let mut sim = Sim::new();
        let h = sim.exec();
        let count = Arc::new(Mutex::new(0));
        let c = count.clone();
        sim.spawn_detached(async move {
            for _ in 0..10 {
                h.sleep(SimDuration::from_micros(10)).await;
                *c.lock().unwrap() += 1;
            }
        });
        let finished = sim.run_until(SimTime::from_nanos(35_000));
        assert!(!finished);
        assert_eq!(*count.lock().unwrap(), 3);
        sim.run();
        assert_eq!(*count.lock().unwrap(), 10);
    }

    /// Two echoing actors, two tasks ping-ponging through an op and
    /// sleeps, deferred sends: every kernel path a paused run must carry
    /// across a thread boundary.
    fn busy_sim() -> Sim {
        struct Bounce(ActorId);
        impl Actor for Bounce {
            fn on_deliver(&mut self, sim: &mut Sim, me: ActorId, msg: Delivery) {
                let hops = *msg.body.downcast::<u64>().unwrap();
                if hops > 0 {
                    let (at, node) = (sim.now() + SimDuration::from_micros(3), sim.actor_node(me));
                    sim.net_send_at(at, node, self.0, small(64), Box::new(hops - 1));
                }
            }
        }
        let mut sim = Sim::new();
        let (n0, n1) = (sim.add_node(), sim.add_node());
        // `a` bounces to the slot `b` is about to take, `b` back to `a`.
        let a = sim.add_actor(n0, Box::new(Bounce(1)));
        let b = sim.add_actor(n1, Box::new(Bounce(a)));
        assert_eq!(b, 1);
        sim.net_send(n0, b, small(64), Box::new(40u64));
        let h = sim.exec();
        // The receiver's op, published by its first poll at time zero.
        let ball = Arc::new(Mutex::new(None));
        let tx = ball.clone();
        sim.spawn(Some(n0), async move {
            for _ in 0..20 {
                h.sleep(SimDuration::from_micros(7)).await;
            }
            let ball = tx.lock().unwrap().expect("receiver polled first");
            h.stage(SimDuration::from_micros(2), Event::Complete(ball));
        });
        sim.spawn(Some(n1), async move {
            let op = h.new_op();
            *ball.lock().unwrap() = Some(op.id());
            op.await;
            h.sleep(SimDuration::from_micros(9)).await;
        });
        sim
    }

    #[test]
    fn a_paused_sim_resumes_identically_on_another_thread() {
        let outcome = |sim: &Sim| {
            (
                sim.events_processed(),
                sim.now(),
                format!("{:?}", sim.stats()),
            )
        };
        // The receiver's op is in flight (awaited, completed at 142us).
        let pause = SimTime::from_nanos(60_000);
        let mut twin = busy_sim();
        assert!(!twin.run_until(pause));
        twin.run();

        let mut moved = busy_sim();
        assert!(!moved.run_until(pause));
        assert!(moved.events_processed() > 0);
        let moved = std::thread::spawn(move || {
            moved.run();
            moved
        })
        .join()
        .expect("resumed run panicked");
        assert_eq!(outcome(&moved), outcome(&twin));
        assert!(moved.now() > pause);
    }

    /// Fire times of events staged (a) by the last poll of a drain and
    /// (b) by a task spawned between two `run_until` calls. Both must
    /// reach the calendar before its next pop: were a port's staged
    /// events left in it, they would be flushed only after the decoy
    /// event at +5us dispatched, and fire 1us after *that*.
    #[test]
    fn staged_events_reach_the_calendar_before_its_next_pop() {
        let mut sim = Sim::new();
        let fired = Arc::new(Mutex::new(Vec::new()));
        let mark = |fired: &Arc<Mutex<Vec<u64>>>| {
            let fired = fired.clone();
            Event::closure(move |sim| fired.lock().unwrap().push(sim.now().as_nanos()))
        };
        let us = SimDuration::from_micros;
        // (a) The task's only poll stages and finishes: nothing is
        // polled after it in that drain.
        let h = sim.exec();
        let ev = mark(&fired);
        sim.spawn_detached(async move { h.stage(us(1), ev) });
        sim.after(us(5), |_| {});
        assert!(!sim.run_until(SimTime::from_nanos(3_000)));
        assert_eq!(*fired.lock().unwrap(), [1_000]);
        // (b) Paused at 3us with the decoy still pending at 5us.
        let ev = mark(&fired);
        sim.spawn_detached(async move { h.stage(us(1), ev) });
        sim.run();
        assert_eq!(*fired.lock().unwrap(), [1_000, 4_000]);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn a_stop_staged_by_the_first_poll_stops_the_run_before_any_pop() {
        let mut sim = Sim::new();
        sim.after(SimDuration::from_micros(1), |_| {});
        let h = sim.exec();
        sim.spawn_detached(async move { h.stage_stop() });
        assert!(sim.run_until(SimTime::MAX));
        assert_eq!(sim.events_processed(), 0);
    }

    #[test]
    fn crash_between_complete_and_poll_drops_the_stale_wakeup() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let h = sim.exec();
        let resumed = Arc::new(Mutex::new(Vec::new()));
        let op_id = Arc::new(Mutex::new(None));
        let (tx, r) = (op_id.clone(), resumed.clone());
        let old = sim.spawn(Some(n0), async move {
            let op = h.new_op();
            *tx.lock().unwrap() = Some(op.id());
            op.await;
            r.lock().unwrap().push("old");
        });
        let r = resumed.clone();
        sim.after(SimDuration::from_micros(5), move |sim| {
            // The wake-up is queued, then its task dies, then a new
            // incarnation takes the same slot before anything is polled.
            sim.complete(op_id.lock().unwrap().expect("old was polled"));
            sim.crash_node(n0);
            let new = sim.spawn(Some(n0), async move { r.lock().unwrap().push("new") });
            assert_eq!(new.idx, old.idx);
            assert_ne!(new.gen, old.gen);
        });
        sim.run();
        assert_eq!(*resumed.lock().unwrap(), ["new"]);
        assert!(!sim.task_alive(old));
    }

    /// The pipe outlives the process that wrote to it: a finished task
    /// whose port has a typed half keeps slot and port until it is
    /// killed, so what its last poll wrote can still be read.
    #[test]
    fn a_finished_task_keeps_a_typed_port_until_it_is_killed() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let writer = sim.spawn(Some(n0), async {
            crate::exec::with_task("test", |cx| *cx.ext::<u32>() = 42);
        });
        sim.port_mut(writer).expect("just spawned").install(0u32);
        let plain = sim.spawn_detached(async {});
        sim.run();
        assert!(!sim.task_alive(writer) && !sim.task_alive(plain));
        // The plain task's slot is free again, the writer's is not.
        let next = sim.spawn_detached(async {});
        assert_eq!(next.idx, plain.idx);
        assert_eq!(*sim.port_mut(writer).expect("kept").ext::<u32>(), 42);
        sim.crash_node(n0);
        assert!(sim.port_mut(writer).is_none());
        assert_eq!(sim.spawn_detached(async {}).idx, writer.idx);
    }

    #[test]
    fn net_send_at_is_net_send_in_a_closure() {
        let run = |deferred: bool| {
            let mut sim = Sim::new();
            let (n0, n1) = (sim.add_node(), sim.add_node());
            let got = Arc::new(Mutex::new(Vec::new()));
            let a = sim.add_actor(n1, Box::new(Echo { got: got.clone() }));
            let at = SimTime::from_nanos(2_000);
            if deferred {
                sim.net_send_at(at, n0, a, small(100), Box::new(42u64));
            } else {
                sim.schedule_at(
                    at,
                    Event::closure(move |sim| sim.net_send(n0, a, small(100), Box::new(42u64))),
                );
            }
            sim.run();
            assert_eq!(&*got.lock().unwrap(), &[(n0, 42u64)]);
            (
                sim.now(),
                sim.events_processed(),
                format!("{:?}", sim.stats()),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "holds no run state of type u32")]
    fn ext_on_an_empty_slot_panics_by_name() {
        Sim::new().ext::<u32>();
    }

    #[test]
    #[should_panic(expected = "holds no run state of type u32")]
    fn ext_of_another_type_panics_by_name() {
        let mut sim = Sim::new();
        sim.install(1u64);
        sim.ext_ref::<u32>();
    }

    #[test]
    fn two_sims_on_one_thread_see_their_own_state() {
        let counting = |start: u64| {
            let mut sim = Sim::new();
            sim.install(start);
            sim.enable_causality();
            for us in 1..=3 {
                sim.after(SimDuration::from_micros(us), move |sim| {
                    *sim.ext::<u64>() += 1;
                    crate::event!(sim, "counted" { start = start, us = us });
                });
            }
            sim
        };
        let recorded = |sim: &mut Sim| sim.causality().unwrap().analyze().produced_events;
        let (mut a, mut b) = (counting(10), counting(20));
        // Interleaved: each handler finds the state, and the log, of the
        // run it is in.
        a.run_until(SimTime::from_nanos(2_000));
        b.run();
        assert_eq!((*a.ext_ref::<u64>(), *b.ext_ref::<u64>()), (12, 23));
        assert_eq!((recorded(&mut a), recorded(&mut b)), (2, 3));
        a.run();
        assert_eq!(*a.ext_ref::<u64>(), 13);
        assert_eq!((recorded(&mut a), recorded(&mut b)), (3, 3));
    }

    #[test]
    fn sim_is_send() {
        fn assert_send<T: Send>() {}
        // A whole simulation — actors, tasks, queued events and futures
        // included — must be movable to a worker thread so independent
        // cluster runs can be sharded across threads.
        assert_send::<Sim>();
    }

    #[test]
    fn event_limit_catches_runaway() {
        let mut sim = Sim::with_config(SimConfig {
            event_limit: Some(10),
            ..SimConfig::default()
        });
        fn rearm(sim: &mut Sim) {
            sim.after(SimDuration::from_nanos(1), rearm);
        }
        sim.after(SimDuration::from_nanos(1), rearm);
        assert_eq!(sim.stop_reason(), None);
        // The cap is a stop, not a panic: the loop returns with the
        // runaway's next event still pending and says why.
        assert!(sim.run_until(SimTime::MAX));
        assert_eq!(sim.stop_reason(), Some(StopReason::EventLimit(10)));
        assert_eq!(sim.events_processed(), 11);
        assert_eq!(
            sim.stop_reason().unwrap().to_string(),
            "event limit exceeded (10)"
        );
        // ... and stays stopped.
        sim.run();
        assert_eq!(sim.events_processed(), 11);
    }

    #[test]
    fn time_limit_stops_the_run_on_the_limit() {
        let limit = SimDuration::from_micros(35);
        let mut sim = Sim::with_config(SimConfig {
            time_limit: Some(limit),
            ..SimConfig::default()
        });
        for us in [10, 35, 36, 50] {
            sim.after(SimDuration::from_micros(us), |_| {});
        }
        // A deadline before the limit is still a pause ...
        assert!(!sim.run_until(SimTime::from_nanos(20_000)));
        assert_eq!((sim.events_processed(), sim.stop_reason()), (1, None));
        // ... and one past it does not carry the run over the limit:
        // the event at the limit ran, the clock reads the limit, the
        // rest stays pending.
        assert!(sim.run_until(SimTime::from_nanos(40_000)));
        assert_eq!(sim.stop_reason(), Some(StopReason::TimeLimit(limit)));
        assert_eq!(sim.events_processed(), 2);
        assert_eq!(sim.now(), SimTime::ZERO + limit);
        assert_eq!(
            sim.stop_reason().unwrap().to_string(),
            "time limit reached (35.000us)"
        );
        sim.run();
        assert_eq!(sim.events_processed(), 2);
        // A calendar that drains before the limit is not a stop.
        let mut drained = Sim::with_config(SimConfig {
            time_limit: Some(limit),
            ..SimConfig::default()
        });
        drained.after(SimDuration::from_micros(10), |_| {});
        drained.run();
        assert_eq!(drained.stop_reason(), None);
        assert_eq!(drained.now().as_nanos(), 10_000);
    }

    /// Only message deliveries are offered to the run's script: a timer,
    /// a poke, a closure, a deferred send and a completion all pop before
    /// the one delivery here, none of them takes a delivery index and
    /// none of them moves.
    #[test]
    fn a_script_is_offered_deliveries_and_nothing_else() {
        let run = |script: Option<Vec<Decision>>| {
            let mut sim = Sim::new();
            let (n0, n1) = (sim.add_node(), sim.add_node());
            let got = Arc::new(Mutex::new(Vec::new()));
            let a = sim.add_actor(n1, Box::new(Echo { got: got.clone() }));
            if let Some(script) = script {
                sim.set_schedule(script);
            }
            let us = SimDuration::from_micros;
            sim.set_timer(a, us(1), 1);
            sim.schedule(us(2), Event::Poke { actor: a, token: 0 });
            let fired = got.clone();
            sim.after(us(3), move |sim| {
                fired
                    .lock()
                    .unwrap()
                    .push((usize::MAX, sim.now().as_nanos()));
            });
            let h = sim.exec();
            sim.spawn(Some(n0), async move {
                let op = h.new_op();
                h.stage(us(4), Event::Complete(op.id()));
                op.await;
            });
            sim.net_send_at(
                SimTime::from_nanos(5_000),
                n0,
                a,
                small(100),
                Box::new(42u64),
            );
            sim.run();
            let got = got.lock().unwrap().clone();
            (
                got,
                sim.now(),
                sim.events_processed(),
                sim.applied().to_vec(),
            )
        };
        let hold = Decision {
            index: 0,
            delta: SimDuration::from_micros(500),
        };
        let (plain, plain_end, plain_events, none_applied) = run(None);
        let (held, held_end, held_events, applied) = run(Some(vec![hold]));
        // Index 0 is the delivery, although five events popped before it.
        assert!(none_applied.is_empty());
        assert_eq!(applied, [hold]);
        assert_eq!(plain, held);
        assert_eq!(plain, [(usize::MAX, 1), (usize::MAX, 3_000), (0, 42)]);
        // A deferral re-inserts: it is not a dispatch, only the clock of
        // the delivery moved.
        assert_eq!(plain_events, held_events);
        assert_eq!(held_end, plain_end + hold.delta);
    }
}
