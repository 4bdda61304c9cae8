//! # vlog-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate on which the MPICH-V reproduction runs. It
//! provides:
//!
//! * a **virtual clock** with nanosecond resolution ([`SimTime`]),
//! * a deterministic **event calendar** and run loop ([`Sim`]): an
//!   arena-backed slab of events plus a hierarchical timer wheel with a
//!   far-future overflow heap ([`calendar`]), dispatching in exact
//!   `(time, sequence)` order with O(1) scheduling and cancellation,
//! * an **actor** model for message/timer-driven services such as
//!   communication daemons, the Event Logger, the checkpoint server and the
//!   dispatcher ([`Actor`]),
//! * a single-threaded **async process model**: simulated application
//!   processes are `async` tasks whose blocking operations are completed by
//!   the kernel ([`exec`]). Killing a process is dropping its future, which
//!   gives fail-stop semantics for free. The kernel owns the ready queue,
//!   the clock and the identity of the task it is polling; tasks share
//!   with it only a staging inbox and one-shot [`OpCell`]s, so the run
//!   loop takes no lock unless a task staged something,
//! * a **switched-Ethernet network model** with full-duplex per-NIC
//!   contention and cut-through frame pipelining ([`net`]),
//! * **fault injection** (node crash / restart events),
//! * a pluggable **schedule policy** seam at the calendar pop site for
//!   schedule exploration — same-time reorders, bounded latency
//!   injection, replayable decision traces ([`schedule`]),
//! * byte/time **statistics** used by the benchmark harnesses ([`stats`]),
//! * kernel **self-profiling**: per-phase wall-clock counters behind the
//!   `VLOG_PROFILE` knob ([`profiler`]) — wall time never enters the
//!   deterministic statistics,
//! * a **causality log** with liveness detectors behind the
//!   `VLOG_CAUSALITY` knob ([`causality`]): protocol layers record
//!   `event! { ... caused_by ... }` edges and dangling/absent-cause
//!   analysis turns a hang into a named diagnosis,
//! * shared harness utilities: centralized `VLOG_*` env-knob parsing
//!   ([`env_knob`]) and first-divergence report diffing ([`diff`]).
//!
//! Everything is deterministic: the queue is ordered by `(time, sequence)`,
//! randomness comes from one seeded RNG, and there is exactly one OS thread.
//!
//! ## Example
//!
//! ```
//! use vlog_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(42);
//! let cell = sim.exec().new_op::<u32>();
//! let done = cell.clone();
//! // Kernel context completes the cell: the waiting task joins the
//! // kernel's ready queue and is polled right after this event.
//! sim.after(SimDuration::from_micros(5), move |sim| {
//!     done.complete(sim, 7);
//! });
//! let h = sim.exec();
//! sim.spawn_detached(async move {
//!     let v = cell.wait().await;
//!     assert_eq!(v, 7);
//!     h.stage_stop();
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
pub use exec::{ExecHandle, OpCell, TaskId};
pub use kernel::{Actor, ActorId, Delivery, Event, NodeId, Sim, SimConfig, TimerHandle};
pub use net::{EthernetParams, HeteroLinks, NetProfile, Network, WireSize, SERVICE_BOUNDARY};
pub use schedule::{
    AppliedTrace, Decision, EventInfo, EventKind, Fifo, PopDecision, SchedulePolicy, ScriptPolicy,
};
pub use stats::{MsgHistogram, Stats};
pub use time::{SimDuration, SimTime};
