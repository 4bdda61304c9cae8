//! # vlog-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate on which the MPICH-V reproduction runs. It
//! provides:
//!
//! * a **virtual clock** with nanosecond resolution ([`SimTime`]),
//! * a deterministic **event calendar** and run loop ([`Sim`]): an
//!   arena-backed slab of events filed in one hierarchical timer wheel
//!   that spans the whole clock ([`calendar`]), dispatching in exact
//!   `(time, sequence)` order with O(1) scheduling; a scheduled event
//!   always pops, and its handler decides whether it still matters,
//! * an **actor** model for message/timer-driven services such as
//!   communication daemons, the Event Logger, the checkpoint server and the
//!   dispatcher ([`Actor`]),
//! * a single-threaded **async process model**: simulated application
//!   processes are `async` tasks whose blocking operations are completed by
//!   the kernel ([`exec`]). Killing a process is dropping its future, which
//!   gives fail-stop semantics for free. The kernel owns the ready queue,
//!   the clock, the tasks and each task's [`Port`] (op slots, staged
//!   events, requests for its daemon); a task reaches its port because
//!   the kernel lends it for the duration of each poll, so the whole
//!   per-message path takes no lock and counts no reference,
//! * a **switched-Ethernet network model** with full-duplex per-NIC
//!   contention and cut-through frame pipelining ([`net`]),
//! * **fault injection** (node crash / restart events),
//! * a **schedule seam** at the calendar pop site for schedule
//!   exploration: a run may carry one perturbation script — same-time
//!   reorders, bounded latency injection — and hands back the decisions
//!   that fired as a replayable trace ([`schedule`]),
//! * byte/time **statistics** used by the benchmark harnesses ([`stats`]),
//! * kernel **self-profiling**: per-phase wall-clock counters a harness
//!   switches on ([`profiler`]) — wall time never enters the
//!   deterministic statistics,
//! * a **causality log** with liveness detectors ([`causality`]): a
//!   plain value the [`Sim`] owns once [`Sim::enable_causality`] switches
//!   it on; protocol layers record `event!(sim, ... caused_by ...)`
//!   edges through the `&mut Sim` they hold, and dangling/absent-cause
//!   analysis turns a hang — or a run stopped at its event or time
//!   limit ([`StopReason`]) — into a named diagnosis,
//! * shared harness utilities: centralized `VLOG_*` env-knob parsing
//!   ([`env_knob`]) and first-divergence report diffing ([`diff`]).
//!
//! Everything is deterministic: the queue is ordered by `(time, sequence)`,
//! the kernel draws no random numbers, and there is exactly one OS thread.
//!
//! ## Example
//!
//! ```
//! use vlog_sim::{Event, ExecHandle, Sim, SimDuration};
//!
//! let mut sim = Sim::new();
//! // The handle belongs to no `Sim`: it reaches whichever task the
//! // thread's current poll has lent.
//! let h = ExecHandle;
//! sim.spawn(None, async move {
//!     // Task context: the op is a slot in this task's own port, which
//!     // the kernel lent to this poll. The staged event reaches the
//!     // calendar right after it.
//!     let op = h.new_op();
//!     h.stage(SimDuration::from_micros(5), Event::Complete(op.id()));
//!     // Kernel context completes the op by id: the task joins the
//!     // kernel's ready queue and is polled right after that event.
//!     op.await;
//!     assert_eq!(h.now().as_nanos(), 5_000);
//! });
//! sim.run();
//! assert_eq!(sim.now().as_nanos(), 5_000);
//! ```

pub mod calendar;
pub mod causality;
pub mod diff;
pub mod env_knob;
pub mod exec;
pub mod kernel;
pub mod net;
pub mod profiler;
pub mod schedule;
pub mod stats;
pub mod time;

pub use calendar::{EventCalendar, EventKey};
pub use exec::{with_task, ExecHandle, Op, OpId, OpValues, Port, TaskCx, TaskId};
pub use kernel::{Actor, ActorId, Delivery, Event, NodeId, Sim, SimConfig, StopReason};
pub use net::{EthernetParams, HeteroLinks, NetProfile, Network, WireSize, SERVICE_BOUNDARY};
pub use schedule::Decision;
pub use stats::{Counter, Gauge, MsgHistogram, Stats, Timer};
pub use time::{SimDuration, SimTime};
