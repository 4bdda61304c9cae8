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
//! the *same slot* with a bumped generation. Every event addressed to an
//! actor names the incarnation it is for: a delivery captures its
//! target's generation when it is sent, a timer when it is set — the
//! pipe wake-up a program stages for its daemon included, which is a
//! timer set on the daemon incarnation that spawned it. Anything
//! addressed to a dead incarnation is dropped when it pops, which models
//! TCP connections and pipes dying with the process: it still counts as
//! a dispatched event at its `(time, seq)` position, but no handler runs
//! and a timer records nothing. The kernel keeps no per-actor list of
//! timers and tells no actor that it is crashing. No timer is withdrawn;
//! its handler decides whether it still matters.
//!
//! # The calendar
//!
//! Events live in the arena-backed [`EventCalendar`]: a slab with
//! free-list reuse addressed by stable
//! [`EventKey`](crate::calendar::EventKey) handles, filed in one
//! hierarchical timer wheel whose nine levels span every [`SimTime`].
//! Dispatch order is exact `(time, seq)` — see the
//! [`calendar`](crate::calendar) module docs for the determinism
//! argument.

use std::any::Any;
use std::collections::VecDeque;

use crate::calendar::EventCalendar;
use crate::causality::{Edge, Log};
use crate::exec::{self, OpId, Port, TaskId, TaskSlot};
use crate::net::{NetProfile, Network, WireSize, LOOPBACK, STREAM_CHUNK_BYTES};
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
    /// Arbitrary kernel-context work (fault injection, a rendezvous send
    /// that completes its operation, ...).
    Closure(Box<dyn FnOnce(&mut Sim) + Send>),
    /// A deferred [`Sim::complete`]: whatever result the operation carries
    /// was parked in the task's port when this was scheduled, and becomes
    /// the task's now.
    Complete(OpId),
    /// Wakes one incarnation of an actor without carrying data: a timer
    /// set through [`Sim::set_timer`], or staged by a task that holds the
    /// incarnation's generation (a program's pipe wake-up for its
    /// daemon). The kernel's only data-less wake-up.
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
    /// A deferred [`Sim::send`] (see [`Sim::send_at`]), and the next hop
    /// of a chunk train: its way out is decided when it pops.
    Send {
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
    /// A timer set on this incarnation fired: one it set itself, or a
    /// wake-up staged for it (see [`Event::Timer`]).
    fn on_timer(&mut self, sim: &mut Sim, me: ActorId, token: u64) {
        let _ = (sim, me, token);
    }
}

struct ActorSlot {
    actor: Option<Box<dyn Actor>>,
    node: NodeId,
    gen: u32,
    alive: bool,
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

    /// Registers an actor on `node`; the returned id is stable across
    /// crash/restart cycles of that slot.
    pub fn add_actor(&mut self, node: NodeId, actor: Box<dyn Actor>) -> ActorId {
        assert!(node < self.nodes, "unknown node");
        self.actors.push(ActorSlot {
            actor: Some(actor),
            node,
            gen: 0,
            alive: true,
        });
        self.actors.len() - 1
    }

    /// Installs a fresh actor in an existing slot (restart). Bumps the
    /// generation, so the old incarnation's deliveries and timers are
    /// dropped when they pop.
    pub fn replace_actor(&mut self, id: ActorId, actor: Box<dyn Actor>) {
        let slot = &mut self.actors[id];
        slot.gen += 1;
        slot.actor = Some(actor);
        slot.alive = true;
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

    /// Schedules an event `delay` from now. Once scheduled it pops at its
    /// `(time, seq)` position: the kernel withdraws nothing, so whoever
    /// handles it decides whether it still matters.
    pub fn schedule(&mut self, delay: SimDuration, event: Event) {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules an event at an absolute instant (must not be in the past,
    /// must not be the [`SimTime::MAX`] sentinel).
    pub fn schedule_at(&mut self, time: SimTime, event: Event) {
        // MAX is the "run forever" deadline / "never" timeout sentinel;
        // an event actually scheduled there is always a saturated (or
        // formerly wrapped) arithmetic bug upstream.
        assert!(
            time < SimTime::MAX,
            "attempted to schedule an event at the SimTime::MAX sentinel"
        );
        debug_assert!(time >= self.now, "scheduling into the past");
        self.calendar.schedule(time, event);
    }

    /// Schedules kernel-context work `delay` from now.
    pub fn after(&mut self, delay: SimDuration, f: impl FnOnce(&mut Sim) + Send + 'static) {
        self.schedule(delay, Event::closure(f));
    }

    /// Sets a timer for the current incarnation of an actor. If that
    /// incarnation crashes or is replaced first, the timer still pops as a
    /// counted event but its handler never runs (the generation check).
    /// A live incarnation's timer always reaches its handler.
    pub fn set_timer(&mut self, actor: ActorId, delay: SimDuration, token: u64) {
        let gen = self.actors[actor].gen;
        self.schedule(delay, Event::Timer { actor, gen, token });
    }

    /// Requests the run loop to exit at the next dispatch boundary.
    pub fn stop(&mut self) {
        self.stop = true;
    }

    // ------------------------------------------------------------------
    // Communication
    // ------------------------------------------------------------------

    /// Takes a message out of `src_node` to `dst_actor` now. This is the
    /// one way out of a node, and it decides among three:
    ///
    /// * same node: loopback ([`Sim::local_send`]), delivered after
    ///   [`LOOPBACK`], with no NIC time and no message statistics;
    /// * another node, with up to [`STREAM_CHUNK_BYTES`] of control: one
    ///   wire booking, then the delivery when the last byte arrives;
    /// * another node, with more control than that: a chunk train, so
    ///   that concurrent flows interleave on the NIC instead of stalling
    ///   behind one multi-megabyte booking (TCP interleaves flows at
    ///   packet granularity). A full chunk is only booked (NIC time and
    ///   one message in the statistics); when it has arrived the rest
    ///   leaves as an [`Event::Send`], and the body crosses last, sized as
    ///   the remainder, once the whole volume has crossed.
    ///
    /// Only control bytes ride a train: a payload of any size is one
    /// booking.
    pub fn send(
        &mut self,
        src_node: NodeId,
        dst_actor: ActorId,
        size: WireSize,
        body: Box<dyn Any + Send>,
    ) {
        let slot = &self.actors[dst_actor];
        let (dst_node, gen) = (slot.node, slot.gen);
        if dst_node == src_node {
            self.local_send(src_node, dst_actor, size, body, LOOPBACK);
            return;
        }
        if size.control > STREAM_CHUNK_BYTES {
            let arrival = self.net_book(src_node, dst_node, WireSize::control(STREAM_CHUNK_BYTES));
            let size = WireSize {
                control: size.control - STREAM_CHUNK_BYTES,
                ..size
            };
            self.send_at(arrival, src_node, dst_actor, size, body);
            return;
        }
        let arrival = self.net_book(src_node, dst_node, size);
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

    /// [`Sim::send`] at the instant `at` (typically the end of the
    /// sender's service CPU): one [`Event::Send`] at `at`, whatever the
    /// size. The way out, the NIC booking, the statistics and the
    /// target's generation are all taken when it pops, not now.
    pub fn send_at(
        &mut self,
        at: SimTime,
        src_node: NodeId,
        dst_actor: ActorId,
        size: WireSize,
        body: Box<dyn Any + Send>,
    ) {
        self.schedule_at(
            at,
            Event::Send {
                src_node,
                dst_actor,
                size,
                body,
            },
        );
    }

    /// Books a message on the wire now and returns the instant its last
    /// byte reaches `dst_node`: NIC/link time on both ends according to
    /// the Ethernet model, and one message in the statistics. Schedules
    /// nothing.
    fn net_book(&mut self, src_node: NodeId, dst_node: NodeId, size: WireSize) -> SimTime {
        let arrival = {
            let _p = profiler::scope(profiler::Phase::Net);
            self.net.send(self.now, src_node, dst_node, size.total())
        };
        let _p = profiler::scope(profiler::Phase::Stats);
        self.stats.record_message(size);
        arrival
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

    /// Spawns a task, bound to a node (killed when the node crashes) or
    /// to none (`None`).
    pub fn spawn(
        &mut self,
        node: Option<NodeId>,
        fut: impl std::future::Future<Output = ()> + Send + 'static,
    ) -> TaskId {
        let fut = Box::pin(fut);
        // Reuse a dead slot if possible to keep indices small.
        let idx = self.tasks.iter().position(TaskSlot::is_free);
        let (idx, gen) = match idx {
            Some(i) => {
                let slot = &mut self.tasks[i];
                slot.gen += 1;
                slot.port.reset();
                slot.fut = Some(fut);
                slot.node = node;
                (i, slot.gen)
            }
            None => {
                self.tasks.push(TaskSlot {
                    fut: Some(fut),
                    gen: 0,
                    node,
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

    /// Drops a task's future (fail-stop kill): it never resumes, and
    /// pending completions addressed to it are discarded.
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

    /// Fail-stop crash of a machine: every task and actor bound to the
    /// node is dropped (an actor keeps its slot, not alive, with a bumped
    /// generation), and the node's NIC and CPU state is reset.
    pub fn crash_node(&mut self, node: NodeId) {
        // Kill tasks first so actors observe a world without them.
        for i in 0..self.tasks.len() {
            if self.tasks[i].node == Some(node) && !self.tasks[i].is_free() {
                self.tasks[i].kill();
            }
        }
        for id in 0..self.actors.len() {
            let slot = &mut self.actors[id];
            if slot.node == node && slot.alive {
                slot.actor = None;
                slot.alive = false;
                slot.gen += 1;
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
            let (time, seq, _, mut event) = {
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
            {
                let _p = profiler::scope(profiler::Phase::Dispatch);
                self.dispatch(event.expect("the kernel detaches no event"));
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
    /// message delivery — the only kind a script may move; every other
    /// event dispatches in place. True when the script
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

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Closure(f) => f(self),
            Event::Complete(op) => self.complete(op),
            Event::Send {
                src_node,
                dst_actor,
                size,
                body,
            } => self.send(src_node, dst_actor, size, body),
            Event::Timer { actor, gen, token } => {
                // A dead incarnation's timer runs nothing and records
                // nothing.
                self.with_actor(actor, gen, |a, sim, me| {
                    crate::event!(sim, "timer-fired" { actor = me, token = token });
                    a.on_timer(sim, me, token)
                });
            }
            Event::Deliver { actor, gen, msg } => {
                crate::event!(self, "sim-deliver" { actor = actor });
                let matched = self.with_actor(actor, gen, |a, sim, me| a.on_deliver(sim, me, msg));
                if !matched {
                    self.stats.bump(Counter::NetDroppedDeadTarget);
                }
            }
        }
    }

    /// Runs `f` on incarnation `gen` of an actor with the kernel
    /// re-borrowable. Returns false if that incarnation is dead.
    fn with_actor<F>(&mut self, id: ActorId, gen: u32, f: F) -> bool
    where
        F: FnOnce(&mut dyn Actor, &mut Sim, ActorId),
    {
        {
            let slot = &self.actors[id];
            if !slot.alive || gen != slot.gen {
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
        if poll.is_pending() {
            self.tasks[idx].fut = Some(fut);
        }
        port.take_staged(|delay, ev| self.schedule(delay, ev));
        // A poll cannot reach its own slot, so the slot is still this
        // incarnation's.
        self.tasks[idx].port = port;
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
    use crate::exec::ExecHandle;
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
        sim.send(n0, a, small(100), Box::new(42u64));
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
        // The old incarnation's timer popped and counted, but its
        // generation no longer matched, so no handler ran.
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn crash_drops_timers_by_generation_but_counts_them() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let got = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_actor(n0, Box::new(Echo { got: got.clone() }));
        sim.set_timer(a, SimDuration::from_micros(10), 1);
        sim.set_timer(a, SimDuration::from_micros(12), 2);
        sim.after(SimDuration::from_micros(1), move |sim| sim.crash_node(0));
        sim.run();
        assert!(got.lock().unwrap().is_empty());
        // crash closure + two timers of the dead incarnation.
        assert_eq!(sim.events_processed(), 3);
        assert_eq!(sim.now().as_nanos(), 12_000);
    }

    /// A dead incarnation's timer — crashed or replaced — pops and counts
    /// like any event, but runs no handler and records no "timer-fired".
    #[test]
    fn a_dead_incarnations_timer_records_nothing() {
        let mut sim = Sim::new();
        sim.enable_causality();
        let (n0, n1) = (sim.add_node(), sim.add_node());
        let got = Arc::new(Mutex::new(Vec::new()));
        let crashed = sim.add_actor(n0, Box::new(Echo { got: got.clone() }));
        let replaced = sim.add_actor(n1, Box::new(Echo { got: got.clone() }));
        let us = SimDuration::from_micros;
        sim.set_timer(crashed, us(10), 1);
        sim.set_timer(replaced, us(11), 2);
        sim.replace_actor(replaced, Box::new(Echo { got: got.clone() }));
        sim.set_timer(replaced, us(12), 3);
        sim.after(us(1), move |sim| sim.crash_node(n0));
        sim.run();
        assert_eq!(&*got.lock().unwrap(), &[(usize::MAX, 3u64)]);
        // The crash closure, the two dead timers and the live one.
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.now().as_nanos(), 12_000);
        // "node-crashed" and the live timer's "timer-fired".
        let analysis = sim.causality().unwrap().analyze();
        assert_eq!(analysis.produced_events, 2);
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
        sim.send(n0, a, small(10), Box::new(1u64));
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
            sim.send(0, a, small(10), Box::new(9u64));
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
        let h = ExecHandle;
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
    fn run_until_pauses_and_resumes() {
        let mut sim = Sim::new();
        let h = ExecHandle;
        let count = Arc::new(Mutex::new(0));
        let c = count.clone();
        sim.spawn(None, async move {
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
                    sim.send_at(at, node, self.0, small(64), Box::new(hops - 1));
                }
            }
        }
        let mut sim = Sim::new();
        let (n0, n1) = (sim.add_node(), sim.add_node());
        // `a` bounces to the slot `b` is about to take, `b` back to `a`.
        let a = sim.add_actor(n0, Box::new(Bounce(1)));
        let b = sim.add_actor(n1, Box::new(Bounce(a)));
        assert_eq!(b, 1);
        sim.send(n0, b, small(64), Box::new(40u64));
        let h = ExecHandle;
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
        let h = ExecHandle;
        let ev = mark(&fired);
        sim.spawn(None, async move { h.stage(us(1), ev) });
        sim.after(us(5), |_| {});
        assert!(!sim.run_until(SimTime::from_nanos(3_000)));
        assert_eq!(*fired.lock().unwrap(), [1_000]);
        // (b) Paused at 3us with the decoy still pending at 5us.
        let ev = mark(&fired);
        sim.spawn(None, async move { h.stage(us(1), ev) });
        sim.run();
        assert_eq!(*fired.lock().unwrap(), [1_000, 4_000]);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn crash_between_complete_and_poll_drops_the_stale_wakeup() {
        let mut sim = Sim::new();
        let n0 = sim.add_node();
        let h = ExecHandle;
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
        let plain = sim.spawn(None, async {});
        sim.run();
        assert!(!sim.task_alive(writer) && !sim.task_alive(plain));
        // The plain task's slot is free again, the writer's is not.
        let next = sim.spawn(None, async {});
        assert_eq!(next.idx, plain.idx);
        assert_eq!(*sim.port_mut(writer).expect("kept").ext::<u32>(), 42);
        sim.crash_node(n0);
        assert!(sim.port_mut(writer).is_none());
        assert_eq!(sim.spawn(None, async {}).idx, writer.idx);
    }

    #[test]
    fn send_at_is_send_in_a_closure() {
        let run = |deferred: bool| {
            let mut sim = Sim::new();
            let (n0, n1) = (sim.add_node(), sim.add_node());
            let got = Arc::new(Mutex::new(Vec::new()));
            let a = sim.add_actor(n1, Box::new(Echo { got: got.clone() }));
            let at = SimTime::from_nanos(2_000);
            if deferred {
                sim.send_at(at, n0, a, small(100), Box::new(42u64));
            } else {
                sim.schedule_at(
                    at,
                    Event::closure(move |sim| sim.send(n0, a, small(100), Box::new(42u64))),
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

    /// Only control bytes ride a chunk train: a control message of three
    /// chunks crosses as three wire messages (two chunk hops, then the
    /// body), a payload message of the same size as one booking.
    #[test]
    fn only_a_large_control_crosses_as_a_train() {
        let bytes = 3 * STREAM_CHUNK_BYTES;
        let run = |size: WireSize| {
            let mut sim = Sim::new();
            let (n0, n1) = (sim.add_node(), sim.add_node());
            let got = Arc::new(Mutex::new(Vec::new()));
            let a = sim.add_actor(n1, Box::new(Echo { got: got.clone() }));
            sim.send(n0, a, size, Box::new(7u64));
            sim.run();
            assert_eq!(&*got.lock().unwrap(), &[(n0, 7u64)]);
            assert_eq!(sim.stats().bytes.total(), bytes);
            (sim.stats().messages, sim.events_processed())
        };
        assert_eq!(run(WireSize::control(bytes)), (3, 3));
        assert_eq!(run(WireSize::payload(bytes)), (1, 1));
    }

    /// Every calendar slot holds an `Event`: a field added to a variant
    /// (a deferred send's sender incarnation, say) grows them all.
    #[test]
    fn an_event_is_72_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 72);
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

    /// Only message deliveries are offered to the run's script: a timer
    /// set by the kernel, one staged by a task, a closure, a deferred send
    /// and a completion all pop before the one delivery here, none of them
    /// takes a delivery index and none of them moves.
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
            let fired = got.clone();
            sim.after(us(3), move |sim| {
                fired
                    .lock()
                    .unwrap()
                    .push((usize::MAX, sim.now().as_nanos()));
            });
            let h = ExecHandle;
            sim.spawn(Some(n0), async move {
                let op = h.new_op();
                h.stage(
                    us(2),
                    Event::Timer {
                        actor: a,
                        gen: 0,
                        token: 2,
                    },
                );
                h.stage(us(4), Event::Complete(op.id()));
                op.await;
            });
            sim.send_at(
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
        let timers = [(usize::MAX, 1), (usize::MAX, 2), (usize::MAX, 3_000)];
        assert_eq!(plain, [&timers[..], &[(0, 42)]].concat());
        // A deferral re-inserts: it is not a dispatch, only the clock of
        // the delivery moved.
        assert_eq!(plain_events, held_events);
        assert_eq!(held_end, plain_end + hold.delta);
    }
}
