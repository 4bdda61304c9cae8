//! The checkpoint scheduler.
//!
//! Paper §IV-B.3: *"The checkpoint scheduler is a specific component that
//! is not necessary to insure the fault tolerance, but is intended to
//! enhance performance. [...] The checkpoint scheduler implements
//! different policies such as coordinated checkpoint, random or
//! round-robin."*
//!
//! The scheduler actor periodically commands daemons to checkpoint, round
//! robin or coordinated (no suite asks for the random policy). The
//! command is forwarded to the protocol via `on_control` (as a
//! [`SchedulerCmd`]); the protocol decides what to do with it at the next
//! application checkpoint point.

use vlog_sim::{Actor, ActorId, Delivery, NodeId, Sim, SimDuration, TimerHandle};

use crate::cluster::topo;
use crate::control;
use crate::hooks::SchedulerCmd;

/// Checkpoint scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerPolicy {
    /// Never command a checkpoint.
    Disabled,
    /// Uncoordinated, staggered round-robin: rank r checkpoints at
    /// `(r+1) * period / n`, then every `period`.
    RoundRobin { period: SimDuration },
    /// Global snapshots every `period` (coordinated checkpointing).
    Coordinated { period: SimDuration },
}

pub struct CkptScheduler {
    node: NodeId,
    policy: SchedulerPolicy,
    snapshot_id: u64,
    /// Cancellable wheel handles of the armed timers: one per rank for
    /// round robin (indexed by rank), one for coordinated snapshots.
    /// Rearming replaces the handle; `on_crash` cancels them so a dead
    /// scheduler's timers are freed at once instead of each reaching
    /// dispatch as a stale generation drop.
    timers: Vec<Option<TimerHandle>>,
}

impl CkptScheduler {
    /// A scheduler for an `n_ranks`-rank job, no timer armed yet.
    pub fn new(node: NodeId, n_ranks: usize, policy: SchedulerPolicy) -> Self {
        let slots = match policy {
            SchedulerPolicy::Disabled => 0,
            SchedulerPolicy::RoundRobin { .. } => n_ranks,
            SchedulerPolicy::Coordinated { .. } => 1,
        };
        CkptScheduler {
            node,
            policy,
            snapshot_id: 0,
            timers: vec![None; slots],
        }
    }

    /// Remembers the handle of a (re)armed timer.
    fn register(&mut self, token: u64, handle: TimerHandle) {
        let slot = match self.policy {
            SchedulerPolicy::RoundRobin { .. } => token as usize,
            _ => 0,
        };
        self.timers[slot] = Some(handle);
    }

    /// Installs the scheduler actor for the ranks registered in the
    /// run's topology and arms its first timers.
    pub fn install(sim: &mut Sim, node: NodeId, policy: SchedulerPolicy) -> ActorId {
        sim.add_actor_with(node, |sim, id| {
            let n_ranks = topo(sim).n_ranks();
            let mut scheduler = CkptScheduler::new(node, n_ranks, policy);
            match policy {
                SchedulerPolicy::Disabled => {}
                SchedulerPolicy::RoundRobin { period } => {
                    for r in 0..n_ranks {
                        let first = SimDuration::from_nanos(
                            period.as_nanos() * (r as u64 + 1) / n_ranks as u64,
                        );
                        let h = sim.set_timer(id, first, r as u64);
                        scheduler.register(r as u64, h);
                    }
                }
                SchedulerPolicy::Coordinated { period } => {
                    let h = sim.set_timer(id, period, u64::MAX - 1);
                    scheduler.register(u64::MAX - 1, h);
                }
            }
            Box::new(scheduler)
        })
    }

    fn command(&self, sim: &mut Sim, rank: usize, cmd: SchedulerCmd) {
        let daemon = topo(sim).daemon(rank);
        control::send(sim, self.node, daemon, 8, Box::new(cmd));
    }
}

impl Actor for CkptScheduler {
    fn on_deliver(&mut self, _sim: &mut Sim, _me: ActorId, _msg: Delivery) {}

    fn on_timer(&mut self, sim: &mut Sim, me: ActorId, token: u64) {
        match self.policy {
            SchedulerPolicy::Disabled => {}
            SchedulerPolicy::RoundRobin { period } => {
                let rank = token as usize;
                self.command(sim, rank, SchedulerCmd::TakeCheckpoint);
                let h = sim.set_timer(me, period, token);
                self.register(token, h);
            }
            SchedulerPolicy::Coordinated { period } => {
                self.snapshot_id += 1;
                for rank in 0..topo(sim).n_ranks() {
                    self.command(
                        sim,
                        rank,
                        SchedulerCmd::GlobalSnapshot {
                            id: self.snapshot_id,
                        },
                    );
                }
                let h = sim.set_timer(me, period, token);
                self.register(token, h);
            }
        }
    }

    fn on_crash(&mut self, sim: &mut Sim, _me: ActorId) {
        // Free the periodic timers now; the kernel would otherwise
        // detach them right after this hook anyway, so behaviour is
        // identical — but the intent is explicit and the handles do not
        // linger in the slot's registry.
        for h in self.timers.drain(..).flatten() {
            sim.cancel_timer(h);
        }
    }
}
