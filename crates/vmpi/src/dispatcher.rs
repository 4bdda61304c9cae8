//! The dispatcher.
//!
//! Paper §IV-B.1: *"The dispatcher [...] 1) launches the whole runtime
//! environment [...] and 2) monitors this execution, by detecting any
//! fault (node disconnection) and relaunching crashed MPI process
//! instances."*
//!
//! The dispatcher runs on a stable node. Fault injection notifies it of a
//! crash after the configured detection delay; it then either restarts
//! the failed rank ([`RecoveryStyle::SingleRank`], message logging) or
//! rolls the whole job back to the last complete global snapshot
//! ([`RecoveryStyle::GlobalRollback`], coordinated checkpointing).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vlog_sim::{Actor, ActorId, Delivery, NodeId, Sim};

use crate::ckpt::{CkptReply, CkptRequest};
use crate::daemon::BootMode;
use crate::hooks::{RecoveryStyle, TopoCache, Topology};
use crate::types::Rank;

/// Performs the actual relaunch of a rank: replaces the daemon actor in
/// its slot and schedules its boot poke. Built by the cluster; `Send +
/// Sync` so a cluster run (which owns the dispatcher) stays `Send`.
pub type RelaunchFn = Arc<dyn Fn(&mut Sim, Rank, BootMode) + Send + Sync>;

/// Messages addressed to the dispatcher.
pub enum DispatcherMsg {
    /// A rank's application finished its program.
    Done { rank: Rank },
    /// Fault detection reported rank `rank` dead.
    Fault { rank: Rank },
}

pub struct Dispatcher {
    node: NodeId,
    n: usize,
    topo: Topology,
    topo_cache: TopoCache,
    relaunch: RelaunchFn,
    style: RecoveryStyle,
    stop_on_completion: bool,
    done: BTreeSet<Rank>,
    stopped: bool,
    all_done: Arc<AtomicBool>,
}

impl Dispatcher {
    pub fn new(
        node: NodeId,
        n: usize,
        topo: Topology,
        relaunch: RelaunchFn,
        style: RecoveryStyle,
        stop_on_completion: bool,
        all_done: Arc<AtomicBool>,
    ) -> Self {
        Dispatcher {
            node,
            n,
            topo,
            topo_cache: TopoCache::new(),
            relaunch,
            style,
            stop_on_completion,
            done: BTreeSet::new(),
            stopped: false,
            all_done,
        }
    }

    fn handle_fault(&mut self, sim: &mut Sim, rank: Rank) {
        sim.stats_mut().bump("dispatcher_faults");
        match self.style {
            RecoveryStyle::SingleRank => {
                (self.relaunch)(sim, rank, BootMode::Recover { version: None });
            }
            RecoveryStyle::GlobalRollback => {
                // Any completed rank will re-execute from the snapshot.
                self.done.clear();
                // Ask the checkpoint server which snapshot is complete on
                // every rank, then roll everyone back to it.
                let view = self.topo_cache.view(&self.topo);
                let Some((server, _)) = view.ckpt_server() else {
                    // No checkpoints at all: restart the whole job.
                    self.rollback_all(sim, 0);
                    return;
                };
                let me_actor = view.dispatcher().expect("dispatcher registered").0;
                let req = CkptRequest::QueryComplete {
                    n: self.n,
                    reply_to: me_actor,
                };
                if sim.actor_node(server) == self.node {
                    sim.local_send(
                        self.node,
                        server,
                        vlog_sim::WireSize::control(16),
                        Box::new(req),
                        vlog_sim::SimDuration::from_micros(15),
                    );
                } else {
                    sim.net_send(
                        self.node,
                        server,
                        vlog_sim::WireSize::control(16),
                        Box::new(req),
                    );
                }
            }
        }
    }

    fn rollback_all(&mut self, sim: &mut Sim, version: u64) {
        sim.stats_mut().bump("global_rollbacks");
        for rank in 0..self.n {
            // Kill the surviving incarnation (app task + daemon) so stale
            // in-flight traffic is dropped by the generation check, then
            // relaunch from the snapshot.
            let node = self.topo_cache.view(&self.topo).node(rank);
            sim.crash_node(node);
            (self.relaunch)(
                sim,
                rank,
                BootMode::Recover {
                    version: Some(version),
                },
            );
        }
    }
}

impl Actor for Dispatcher {
    fn on_deliver(&mut self, sim: &mut Sim, _me: ActorId, msg: Delivery) {
        let body = msg.body;
        let body = match body.downcast::<DispatcherMsg>() {
            Ok(m) => {
                match *m {
                    DispatcherMsg::Done { rank } => {
                        self.done.insert(rank);
                        if self.done.len() == self.n {
                            self.all_done.store(true, Ordering::Relaxed);
                            if self.stop_on_completion && !self.stopped {
                                self.stopped = true;
                                sim.stop();
                            }
                        }
                    }
                    DispatcherMsg::Fault { rank } => self.handle_fault(sim, rank),
                }
                return;
            }
            Err(b) => b,
        };
        if let Ok(reply) = body.downcast::<CkptReply>() {
            if let CkptReply::CompleteResp { version } = *reply {
                self.rollback_all(sim, version);
            }
        }
    }
}
