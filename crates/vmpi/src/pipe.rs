//! The pipe between an MPI process and its communication daemon.
//!
//! In MPICH-V the MPI process never touches the network: it talks to the
//! Vdaemon through a pair of system pipes (paper §IV-A). Here the pipe is
//! the typed half of the application task's kernel-owned port
//! ([`vlog_sim::Port`]): the task pushes a request and stages a wake-up
//! for the daemon, delayed by the modelled pipe crossing cost; the daemon
//! drains the queue when the wake-up fires, and parks what flows back
//! (received messages, checkpoint verdicts) beside it until the
//! operation's completion event makes it the application's. The wake-up
//! is a timer on the daemon incarnation that spawned the program, as is
//! the finish notice the program's last poll stages, so both die with
//! that incarnation. What the application records for the harness
//! ([`crate::Mpi::record`]) rides the same pipe without a wake-up of its
//! own: the daemon moves it into the run state whenever it drains the
//! requests and when the program finishes.
//!
//! # Ownership and `Send`
//!
//! The crossing is charged in virtual time (`pipe_cost`) and costs the
//! host nothing but plain memory: the [`AppPort`] belongs to the kernel's
//! task slot. The daemon reaches it through the `&mut Sim` it is handed
//! (`sim.port_mut(task)`), the application because the kernel lends the
//! port to each poll (`vlog_sim::exec`) — no `Arc`, no `Mutex`, and the
//! whole cluster run stays `Send`. The port is installed when the daemon
//! spawns an incarnation and dropped when that incarnation dies, so
//! requests from a killed incarnation can never leak into its successor,
//! and neither can its wake-ups: the daemon was relaunched under a new
//! generation, so they pop for a dead incarnation and are dropped.

use std::collections::VecDeque;

use vlog_sim::{OpId, OpValues};

use crate::cluster::Recorded;
use crate::types::{Payload, Rank, RecvMsg, RecvSelector, Tag};

/// A request from the application to its daemon.
pub enum AppRequest {
    /// Post a send; `done` completes when the daemon accepted the message
    /// (eager) or handed it to the wire (rendezvous).
    Send {
        dst: Rank,
        tag: Tag,
        payload: Payload,
        done: OpId,
    },
    /// Post a receive; `done` completes when a matching message reaches
    /// the application side of the pipe ([`AppPort::received`]).
    Recv { sel: RecvSelector, done: OpId },
    /// The application reached a checkpoint point; `state` is its
    /// serialized state (real bytes + synthetic padding). `done` resolves
    /// to whether a checkpoint was actually taken
    /// ([`AppPort::checkpointed`]).
    Checkpoint { state: Payload, done: OpId },
}

/// Both directions of one incarnation's pipe.
#[derive(Default)]
pub struct AppPort {
    /// Application → daemon, drained when the pipe wake-up fires.
    pub requests: VecDeque<AppRequest>,
    /// Daemon → application: the message each posted receive matched.
    pub received: OpValues<RecvMsg>,
    /// Daemon → application: whether each offered checkpoint was taken.
    pub checkpointed: OpValues<bool>,
    /// Application → harness, in recording order; no wake-up of its own.
    pub recorded: Vec<Recorded>,
}
