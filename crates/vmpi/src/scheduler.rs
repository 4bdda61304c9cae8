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

use vlog_sim::{Actor, ActorId, Delivery, NodeId, Sim, SimDuration};

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
}

impl CkptScheduler {
    /// Installs the scheduler actor for the ranks registered in the
    /// run's topology and arms its first timers.
    pub fn install(sim: &mut Sim, node: NodeId, policy: SchedulerPolicy) -> ActorId {
        let scheduler = CkptScheduler {
            node,
            policy,
            snapshot_id: 0,
        };
        let id = sim.add_actor(node, Box::new(scheduler));
        let n_ranks = topo(sim).n_ranks();
        match policy {
            SchedulerPolicy::Disabled => {}
            SchedulerPolicy::RoundRobin { period } => {
                for r in 0..n_ranks {
                    let first = SimDuration::from_nanos(
                        period.as_nanos() * (r as u64 + 1) / n_ranks as u64,
                    );
                    sim.set_timer(id, first, r as u64);
                }
            }
            SchedulerPolicy::Coordinated { period } => {
                sim.set_timer(id, period, u64::MAX - 1);
            }
        }
        id
    }

    fn command(&self, sim: &mut Sim, rank: usize, cmd: SchedulerCmd) {
        let daemon = topo(sim).daemon(rank);
        control::send(sim, self.node, daemon, cmd);
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
                sim.set_timer(me, period, token);
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
                sim.set_timer(me, period, token);
            }
        }
    }
}
