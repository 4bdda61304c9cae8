//! The dispatcher.
//!
//! Paper §IV-B.1: *"The dispatcher [...] 1) launches the whole runtime
//! environment [...] and 2) monitors this execution, by detecting any
//! fault (node disconnection) and relaunching crashed MPI process
//! instances."*
//!
//! The dispatcher runs on a stable node, so the fault module's crash and
//! detection steps are its timers. Fault injection notifies it of a
//! crash after the configured detection delay; it then either restarts
//! the failed rank ([`RecoveryStyle::SingleRank`], message logging) or
//! rolls the whole job back to the last complete global snapshot
//! ([`RecoveryStyle::GlobalRollback`], coordinated checkpointing).

use vlog_sim::{Actor, ActorId, Counter, Delivery, Sim};

use crate::ckpt::{CkptReply, CkptRequest};
use crate::cluster::{launch_rank, topo, ClusterState};
use crate::control;
use crate::daemon::BootMode;
use crate::fault;
use crate::hooks::RecoveryStyle;
use crate::types::Rank;

/// Messages addressed to the dispatcher.
pub enum DispatcherMsg {
    /// A rank's application finished its program.
    Done { rank: Rank },
    /// Fault detection reported rank `rank` dead.
    Fault { rank: Rank },
}

impl control::Body for DispatcherMsg {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

/// The dispatcher actor. Which ranks are done is run state
/// ([`ClusterState::done`]): the run's report asks the same set the
/// dispatcher fills and, on a global rollback, empties.
pub struct Dispatcher {
    style: RecoveryStyle,
    stop_on_completion: bool,
}

impl Dispatcher {
    pub fn new(style: RecoveryStyle, stop_on_completion: bool) -> Self {
        Dispatcher {
            style,
            stop_on_completion,
        }
    }

    fn handle_fault(&mut self, sim: &mut Sim, rank: Rank) {
        sim.stats_mut().bump(Counter::DispatcherFaults);
        match self.style {
            RecoveryStyle::SingleRank => {
                launch_rank(sim, rank, BootMode::Recover { version: None });
            }
            RecoveryStyle::GlobalRollback => {
                // Any completed rank will re-execute from the snapshot.
                let state = ClusterState::of(sim);
                state.done.clear();
                // Ask the checkpoint server which snapshot is complete on
                // every rank, then roll everyone back to it.
                let Some((server, _)) = state.topo.ckpt_server() else {
                    // No checkpoints at all: restart the whole job.
                    self.rollback_all(sim, 0);
                    return;
                };
                let (me_actor, node) = state.topo.dispatcher().expect("dispatcher registered");
                let req = CkptRequest::QueryComplete {
                    n: state.topo.n_ranks(),
                    reply_to: me_actor,
                };
                control::send(sim, node, server, req);
            }
        }
    }

    fn rollback_all(&mut self, sim: &mut Sim, version: u64) {
        sim.stats_mut().bump(Counter::GlobalRollbacks);
        for rank in 0..topo(sim).n_ranks() {
            // Kill the surviving incarnation (app task + daemon) so stale
            // in-flight traffic is dropped by the generation check, then
            // relaunch from the snapshot.
            let node = topo(sim).node(rank);
            sim.crash_node(node);
            launch_rank(
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
    fn on_timer(&mut self, sim: &mut Sim, _me: ActorId, token: u64) {
        fault::step(sim, token);
    }

    fn on_deliver(&mut self, sim: &mut Sim, _me: ActorId, msg: Delivery) {
        match msg.body.downcast::<DispatcherMsg>().map(|m| *m) {
            Ok(DispatcherMsg::Done { rank }) => {
                let state = ClusterState::of(sim);
                state.done.insert(rank);
                // A second stop (after a rollback) changes nothing.
                if state.completed() && self.stop_on_completion {
                    sim.stop();
                }
            }
            Ok(DispatcherMsg::Fault { rank }) => self.handle_fault(sim, rank),
            Err(body) => {
                if let Ok(CkptReply::CompleteResp { version }) = body.downcast().map(|r| *r) {
                    self.rollback_all(sim, version);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vlog_sim::{NodeId, SimDuration, WireSize};

    use super::*;
    use crate::cluster::Launch;
    use crate::types::RecvSelector;
    use crate::{app, StackProfile, VdummySuite};

    struct Idle;
    impl Actor for Idle {
        fn on_deliver(&mut self, _: &mut Sim, _: ActorId, _: Delivery) {}
    }

    /// A dispatcher that does not stop on completion, over two ranks
    /// whose program waits for a message that never comes — so every
    /// `Done` it hears is one this test sent.
    fn rig(style: RecoveryStyle) -> (Sim, ActorId) {
        let mut sim = Sim::new();
        let nodes: Vec<NodeId> = (0..2).map(|_| sim.add_node()).collect();
        let stable = sim.add_node();
        let daemons = nodes
            .iter()
            .map(|&node| sim.add_actor(node, Box::new(Idle)))
            .collect();
        let dispatcher = sim.add_actor(stable, Box::new(Dispatcher::new(style, false)));
        let mut state = ClusterState::with_ranks(daemons, nodes);
        state.topo.set_dispatcher(dispatcher, stable);
        state.launch = Some(Launch {
            suite: Arc::new(VdummySuite),
            program: app(|mpi| async move { drop(mpi.recv(RecvSelector::any()).await) }),
            profile: Arc::new(StackProfile::vdaemon()),
        });
        sim.install(state);
        (sim, dispatcher)
    }

    /// Delivers `msg` to the dispatcher and reports the job's state once
    /// the calendar has drained.
    fn completed_after(sim: &mut Sim, dispatcher: ActorId, msg: DispatcherMsg) -> bool {
        let node = sim.actor_node(dispatcher);
        let delay = SimDuration::from_micros(1);
        sim.local_send(node, dispatcher, WireSize::default(), Box::new(msg), delay);
        sim.run();
        ClusterState::of(sim).completed()
    }

    #[test]
    fn a_global_rollback_makes_a_finished_job_unfinished() {
        let (mut sim, d) = rig(RecoveryStyle::GlobalRollback);
        assert!(!completed_after(
            &mut sim,
            d,
            DispatcherMsg::Done { rank: 0 }
        ));
        assert!(completed_after(
            &mut sim,
            d,
            DispatcherMsg::Done { rank: 1 }
        ));
        // Every rank re-executes from the snapshot: complete again only
        // once each of them has finished afresh.
        assert!(!completed_after(
            &mut sim,
            d,
            DispatcherMsg::Fault { rank: 0 }
        ));
        assert_eq!(sim.stats().counter(Counter::GlobalRollbacks), 1);
        assert!(!completed_after(
            &mut sim,
            d,
            DispatcherMsg::Done { rank: 1 }
        ));
        assert!(!completed_after(
            &mut sim,
            d,
            DispatcherMsg::Done { rank: 1 }
        ));
        assert!(completed_after(
            &mut sim,
            d,
            DispatcherMsg::Done { rank: 0 }
        ));
    }

    #[test]
    fn a_single_rank_restart_leaves_the_done_set_alone() {
        let (mut sim, d) = rig(RecoveryStyle::SingleRank);
        assert!(!completed_after(
            &mut sim,
            d,
            DispatcherMsg::Done { rank: 1 }
        ));
        assert!(completed_after(
            &mut sim,
            d,
            DispatcherMsg::Done { rank: 0 }
        ));
        assert!(completed_after(
            &mut sim,
            d,
            DispatcherMsg::Fault { rank: 0 }
        ));
        assert_eq!(sim.stats().counter(Counter::DispatcherFaults), 1);
        assert_eq!(sim.stats().counter(Counter::GlobalRollbacks), 0);
    }
}
