//! The V-protocol hook API.
//!
//! The paper (§IV): *"Fault tolerance protocols are designed through the
//! implementation of a set of hooks called in relevant routines of the
//! generic subsystem and some specific components. We call V-protocol such
//! an implementation."*
//!
//! [`VProtocol`] is that hook set. The generic communication daemon
//! ([`crate::daemon`]) calls into it at every relevant point: when a send
//! is accepted from the application, when a message is about to leave,
//! when a message arrives, on control traffic, on checkpoints and on
//! restart. `vlog-vmpi` ships only the trivial implementation
//! ([`crate::vdummy::Vdummy`]); the causal protocols, the pessimistic
//! protocol and coordinated checkpointing live in `vlog-core`.
//!
//! A [`Suite`] bundles a protocol with the auxiliary stable components it
//! needs (Event Logger, checkpoint scheduler policy) and is what the
//! cluster builder consumes.
//!
//! What a hook may know beyond its own daemon is run state, not something
//! each protocol instance carries: where the other components live
//! ([`TopoView`], read through [`Ctx::topo`]), what this rank has
//! counted so far ([`RankStats`], written through [`Ctx::rank_stats`])
//! and what the suite's ranks share ([`Ctx::suite_state`]) all sit in
//! the run's [`ClusterState`], which the `&mut Sim` inside
//! every [`Ctx`] reaches by plain borrow. A protocol is therefore built
//! from its rank and the job size alone ([`Suite::make_protocol`]), and a
//! relaunched incarnation finds the rank's counters where its
//! predecessor left them.

use std::any::Any;
use std::sync::Arc;

use vlog_sim::{ActorId, NodeId, Sim, SimDuration, SimTime};

use crate::cluster::ClusterState;
use crate::control::Body;
use crate::daemon::DaemonCore;
use crate::fault::{self, ProtoPhase};
use crate::types::{AppMsg, Payload, PiggybackBlob, Rank, Ssn};

/// Where everything lives: the static deployment of Figure 5. One per
/// run, owned by the run's [`ClusterState`]; filled by the cluster
/// builder and the suite's `install` before the simulation starts. The
/// only writer after that is the failure detector, which rewrites the
/// rank→shard map when an Event Logger shard dies
/// ([`TopoView::rebalance_after_el_failure`]). Every id it hands out is
/// `Copy`: a reader takes what it needs out before its next `&mut Sim`
/// call, so no read outlives a write.
#[derive(Default)]
pub struct TopoView {
    daemons: Vec<ActorId>,
    nodes: Vec<NodeId>,
    /// Event Logger instances (one or several; ranks are assigned
    /// through `shard_map`).
    els: Vec<(ActorId, NodeId)>,
    /// Rank→shard map: `shard_map[rank]` indexes `els`. Seeded
    /// round-robin by [`TopoView::set_els`]; rewritten by
    /// [`TopoView::rebalance_after_el_failure`] when a shard dies.
    shard_map: Vec<usize>,
    /// Shards that have crashed (parallel to `els`).
    el_dead: Vec<bool>,
    ckpt_server: Option<(ActorId, NodeId)>,
    dispatcher: Option<(ActorId, NodeId)>,
}

impl TopoView {
    pub fn set_ranks(&mut self, daemons: Vec<ActorId>, nodes: Vec<NodeId>) {
        self.daemons = daemons;
        self.nodes = nodes;
    }

    /// Registers the Event Logger shards (one for the paper's single EL)
    /// and the initial rank→shard map: round-robin over the shard count,
    /// the historical static assignment.
    pub fn set_els(&mut self, els: Vec<(ActorId, NodeId)>) {
        let k = els.len();
        self.shard_map = if k == 0 {
            Vec::new()
        } else {
            (0..self.daemons.len()).map(|r| r % k).collect()
        };
        self.el_dead = vec![false; k];
        self.els = els;
    }

    /// Marks shard `dead` as crashed and rewrites the rank→shard map
    /// over the surviving shards (each orphaned rank is reassigned
    /// round-robin over the survivors; ranks on live shards keep their
    /// assignment). Returns whether the map was rewritten — false when
    /// there is nothing to tell the ranks: no such shard, a shard
    /// already known dead, or no survivor (total EL loss).
    pub fn rebalance_after_el_failure(&mut self, dead: usize) -> bool {
        if self.el_dead.get(dead).copied().unwrap_or(true) {
            return false;
        }
        self.el_dead[dead] = true;
        let survivors: Vec<usize> = (0..self.els.len()).filter(|i| !self.el_dead[*i]).collect();
        if survivors.is_empty() {
            return false;
        }
        for (rank, shard) in self.shard_map.iter_mut().enumerate() {
            if self.el_dead[*shard] {
                *shard = survivors[rank % survivors.len()];
            }
        }
        true
    }

    pub fn set_ckpt_server(&mut self, actor: ActorId, node: NodeId) {
        self.ckpt_server = Some((actor, node));
    }

    pub fn set_dispatcher(&mut self, actor: ActorId, node: NodeId) {
        self.dispatcher = Some((actor, node));
    }

    /// The Event Logger serving `rank` under the current shard map.
    pub fn el_for(&self, rank: Rank) -> Option<(ActorId, NodeId)> {
        self.shard_of(rank).map(|shard| self.els[shard])
    }

    /// The shard index serving `rank` under the current map
    /// (round-robin fallback for ranks beyond the map).
    pub fn shard_of(&self, rank: Rank) -> Option<usize> {
        if self.els.is_empty() {
            None
        } else {
            Some(
                self.shard_map
                    .get(rank)
                    .copied()
                    .unwrap_or(rank % self.els.len()),
            )
        }
    }

    /// The Event Logger shard at `index` (dead or alive).
    pub fn el_at(&self, index: usize) -> Option<(ActorId, NodeId)> {
        self.els.get(index).copied()
    }

    /// Number of Event Logger shards installed (dead ones included).
    pub fn el_count(&self) -> usize {
        self.els.len()
    }

    pub fn n_ranks(&self) -> usize {
        self.daemons.len()
    }

    pub fn daemon(&self, rank: Rank) -> ActorId {
        self.daemons[rank]
    }

    pub fn node(&self, rank: Rank) -> NodeId {
        self.nodes[rank]
    }

    pub fn ckpt_server(&self) -> Option<(ActorId, NodeId)> {
        self.ckpt_server
    }

    pub fn dispatcher(&self) -> Option<(ActorId, NodeId)> {
        self.dispatcher
    }
}

/// Context handed to every hook: the simulation kernel plus the generic
/// part of the calling daemon.
pub struct Ctx<'a> {
    pub sim: &'a mut Sim,
    pub core: &'a mut DaemonCore,
}

impl Ctx<'_> {
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    pub fn rank(&self) -> Rank {
        self.core.rank()
    }

    pub fn n_ranks(&self) -> usize {
        self.core.n_ranks()
    }

    /// The run's deployment description. Copy the ids out before the
    /// next call that needs `&mut Sim`.
    pub fn topo(&self) -> &TopoView {
        crate::cluster::topo(self.sim)
    }

    /// This rank's statistics, written in place: they belong to the run,
    /// not to an incarnation, so a restart carries on where the crashed
    /// daemon and protocol stopped.
    pub fn rank_stats(&mut self) -> &mut RankStats {
        &mut ClusterState::of(self.sim).rank_stats[self.core.rank()]
    }

    /// The suite's run-wide state ([`ClusterState::suite_state`]), if the
    /// suite installed one of type `S`.
    pub fn suite_state<S: Any>(&mut self) -> Option<&mut S> {
        let state = ClusterState::of(self.sim).suite_state.as_deref_mut()?;
        state.downcast_mut()
    }

    /// Reports that this rank just crossed `phase`. Protocols call this
    /// at their enumerated boundaries (marker broadcast, determinant
    /// shipment, EL ack); an armed [`crate::PhaseFault`] matching the
    /// crossing schedules the crash. No-op when none is armed.
    pub fn phase_boundary(&mut self, phase: ProtoPhase) {
        fault::crossed(self.sim, self.core.rank(), phase);
    }
}

/// Decision returned by [`VProtocol::on_send_accept`].
pub enum SendGate {
    /// Proceed to transmission (possibly after `cost` of protocol CPU).
    Go { cost: SimDuration },
    /// Park the message; the protocol releases it later through
    /// [`DaemonCore::release_held`] (pessimistic logging blocks sends
    /// until preceding events are stable).
    Hold,
}

/// Decision returned by [`VProtocol::on_app_msg`].
pub enum RecvGate {
    /// Hand the message to the matching engine after `cost` of CPU.
    Deliver { cost: SimDuration },
    /// The protocol keeps the message (replay buffering, markers); it can
    /// re-inject it later through [`DaemonCore::reaccept`].
    Consume,
}

/// Protocol section of a checkpoint image: structured state plus the wire
/// size it would occupy (counted as control traffic when the image moves).
/// The body is reference-counted because the checkpoint server keeps the
/// image behind an `Arc`, and `Send + Sync` so that `Arc` is `Send`:
/// `run_many` (`vlog-bench`) moves a `ClusterRun` to a worker thread.
#[derive(Clone)]
pub struct ProtoBlob {
    pub body: Option<Arc<dyn Any + Send + Sync>>,
    pub(crate) bytes: u64,
}

impl ProtoBlob {
    pub fn empty() -> Self {
        ProtoBlob {
            body: None,
            bytes: 0,
        }
    }

    /// Wraps a protocol's image section, sized by its [`Body`].
    pub fn new(section: impl Body + Sync) -> Self {
        ProtoBlob {
            bytes: section.wire_bytes(),
            body: Some(Arc::new(section)),
        }
    }
}

/// The fault-tolerance hook API implemented by every V-protocol.
///
/// Default implementations are no-ops so trivial protocols (Vdummy) stay
/// trivial.
#[allow(unused_variables)]
pub trait VProtocol: Send {
    /// Short name for reports ("vcausal+el", "manetho", ...).
    fn name(&self) -> String;

    /// A send was accepted from the application and assigned `ssn`.
    /// Sender-based protocols log the payload here. Returning
    /// [`SendGate::Hold`] parks the message (pessimistic logging); held
    /// messages are re-gated through this hook when the protocol calls
    /// [`DaemonCore::release_held`], so idempotent logging is required.
    fn on_send_accept(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Rank,
        tag: crate::types::Tag,
        ssn: Ssn,
        payload: &Payload,
    ) -> SendGate {
        SendGate::Go {
            cost: SimDuration::ZERO,
        }
    }

    /// The message `(dst, ssn)` is about to leave on the wire. Causal
    /// protocols build their piggyback here; the returned cost is the
    /// serialization CPU time (the Figure 8 "send" metric).
    fn on_transmit(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Rank,
        ssn: Ssn,
    ) -> (PiggybackBlob, SimDuration) {
        (PiggybackBlob::empty(), SimDuration::ZERO)
    }

    /// An application message arrived (in channel order, duplicates
    /// already dropped by the generic layer). Causal protocols create the
    /// reception event, integrate the piggyback (may mutate `msg` to take
    /// it) and ship the determinant to the Event Logger here; the returned
    /// cost is the integration CPU time (the Figure 8 "receive" metric).
    fn on_app_msg(&mut self, ctx: &mut Ctx<'_>, msg: &mut AppMsg) -> RecvGate {
        RecvGate::Deliver {
            cost: SimDuration::ZERO,
        }
    }

    /// A protocol control message arrived (EL records/acks, reclaim
    /// requests, GC notices, rollback commands, ...).
    fn on_control(&mut self, ctx: &mut Ctx<'_>, body: Box<dyn Any + Send>) {}

    /// A timer set through [`DaemonCore::set_proto_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {}

    /// The application reached a checkpoint point. Return the version of
    /// the checkpoint to take now, or `None` to decline: uncoordinated
    /// protocols follow their scheduler and take `next`, the daemon's
    /// local counter plus one; coordinated ones follow their marker state
    /// and take the global snapshot id.
    fn checkpoint_due(&mut self, ctx: &mut Ctx<'_>, next: u64) -> Option<u64> {
        None
    }

    /// The daemon is assembling a checkpoint image: contribute the
    /// protocol section (sender log, causality information, clocks).
    fn checkpoint_blob(&mut self, ctx: &mut Ctx<'_>) -> ProtoBlob {
        ProtoBlob::empty()
    }

    /// The generic image sections were captured at the checkpoint point.
    /// The default ships immediately; coordinated checkpointing instead
    /// sends its markers and ships once every channel recording closed.
    fn on_image_assembled(&mut self, ctx: &mut Ctx<'_>, version: u64) {
        let _ = version;
        ctx.core.request_ship();
    }

    /// The checkpoint server committed image `version`; the protocol may
    /// garbage-collect and notify peers.
    fn on_checkpoint_committed(&mut self, ctx: &mut Ctx<'_>, version: u64) {}

    /// The daemon restarted from a checkpoint image (or from scratch when
    /// `blob` is `None`). The protocol starts its recovery: determinant
    /// collection, payload reclaim, replay gating. The generic layer keeps
    /// the daemon in recovering mode until
    /// [`DaemonCore::set_recovered`] is called.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>, blob: Option<ProtoBlob>) {
        ctx.core.set_recovered(ctx.sim);
    }

    /// Called when the local application task finished its program.
    fn on_app_finished(&mut self, ctx: &mut Ctx<'_>) {}
}

/// Per-rank protocol statistics: one per rank in the run's
/// [`ClusterState`], written in place by the rank's daemon and protocol
/// ([`Ctx::rank_stats`]) across all its incarnations, and moved into the
/// [`crate::RunReport`] when the run ends.
#[derive(Debug, Default, Clone)]
pub struct RankStats {
    /// Cumulative CPU time preparing piggybacks on send (Fig. 8 "send").
    pub pb_send_time: SimDuration,
    /// Cumulative CPU time integrating piggybacks on receive (Fig. 8 "receive").
    pub pb_recv_time: SimDuration,
    /// Total piggybacked events sent by this rank.
    pub pb_events_sent: u64,
    /// Total piggyback bytes sent by this rank.
    pub pb_bytes_sent: u64,
    /// Application messages sent with an empty piggyback.
    pub empty_pb_msgs: u64,
    /// Application messages sent.
    pub app_msgs_sent: u64,
    /// Determinants acknowledged stable by the Event Logger.
    pub el_acked_events: u64,
    /// Durations of determinant-collection phases during recoveries
    /// (the Figure 10 metric), in completion order.
    pub recovery_collect: Vec<SimDuration>,
    /// Durations of full recoveries (restart to live), in completion order.
    pub recovery_total: Vec<SimDuration>,
    /// Number of checkpoints committed.
    pub checkpoints: u64,
}

/// How the dispatcher recovers from a crash under this protocol family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStyle {
    /// Restart only the failed rank (message logging).
    SingleRank,
    /// Roll every rank back to the last committed global snapshot
    /// (coordinated checkpointing).
    GlobalRollback,
}

/// A protocol family bundled with its auxiliary components. `Send + Sync`
/// because the run state carries the suite (every relaunch asks it for a
/// fresh protocol) into a possibly worker-thread-hosted cluster run.
pub trait Suite: Send + Sync {
    /// Name for reports.
    fn name(&self) -> String;

    /// Installs auxiliary stable actors (Event Logger, scheduler...).
    /// Called once, before daemons are created, with the run's
    /// [`ClusterState`] installed in `sim` and its ranks registered; an
    /// Event Logger registers itself there ([`TopoView::set_els`]), and
    /// state the suite's ranks share goes in
    /// [`ClusterState::suite_state`].
    fn install(&self, sim: &mut Sim, stable_nodes: &[NodeId]) {
        let _ = (sim, stable_nodes);
    }

    /// Creates the protocol instance for one rank of an `n`-rank job.
    fn make_protocol(&self, rank: Rank, n: usize) -> Box<dyn VProtocol>;

    /// Recovery style for the dispatcher.
    fn recovery_style(&self) -> RecoveryStyle {
        RecoveryStyle::SingleRank
    }
}

/// Broadcast by the cluster's failure detector after an Event Logger
/// shard crashed and the topology's rank→shard map was rewritten
/// (forwarded to every rank's protocol through `on_control`). Receiving
/// protocols route to their new shard and re-ship every determinant not
/// yet acknowledged stable — the in-flight-record handoff that makes the
/// EL service failure-tolerant.
#[derive(Debug, Clone, Copy)]
pub struct ElReshard {
    /// Index of the crashed shard.
    pub dead_shard: usize,
}

impl Body for ElReshard {
    fn wire_bytes(&self) -> u64 {
        16
    }
}

/// Command sent by the checkpoint scheduler to a daemon (forwarded to the
/// protocol through `on_control`).
#[derive(Debug, Clone, Copy)]
pub enum SchedulerCmd {
    /// Take a checkpoint at the next checkpoint point.
    TakeCheckpoint,
    /// Begin global snapshot `id` (coordinated checkpointing).
    GlobalSnapshot { id: u64 },
}

impl Body for SchedulerCmd {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six ranks (actors 0..6 on nodes 0..6) logging to three Event
    /// Logger shards (actors 6..9 on nodes 6..9).
    fn six_ranks_three_shards() -> (TopoView, Vec<(ActorId, NodeId)>) {
        let els: Vec<(ActorId, NodeId)> = (6..9).map(|i| (i, i)).collect();
        let mut topo = TopoView::default();
        topo.set_ranks((0..6).collect(), (0..6).collect());
        topo.set_els(els.clone());
        (topo, els)
    }

    #[test]
    fn map_and_hash_agree_at_epoch_zero() {
        // The map at build must be exactly the static round-robin hash;
        // a disagreement would route client records to a shard that
        // never gossips their stability.
        let (topo, els) = six_ranks_three_shards();
        for rank in 0..6 {
            assert_eq!(topo.shard_of(rank), Some(rank % 3));
            assert_eq!(topo.el_for(rank), Some(els[rank % 3]));
        }
    }

    #[test]
    fn a_read_after_a_rebalance_routes_by_the_new_map() {
        let (mut topo, els) = six_ranks_three_shards();
        assert_eq!(topo.el_for(1), Some(els[1]));
        assert!(topo.rebalance_after_el_failure(1));
        assert_eq!(topo.shard_of(1), Some(2));
        assert_eq!(topo.el_for(1), Some(els[2]));
        assert!(topo.rebalance_after_el_failure(2));
        assert_eq!(topo.el_for(1), Some(els[0]));
    }

    #[test]
    fn rebalance_reroutes_only_orphaned_ranks() {
        let (mut topo, els) = six_ranks_three_shards();
        assert!(topo.rebalance_after_el_failure(1));
        // Ranks on live shards keep their assignment; shard-1 ranks
        // (1, 4) respread over the survivors {0, 2} deterministically.
        assert_eq!(topo.shard_of(0), Some(0));
        assert_eq!(topo.shard_of(2), Some(2));
        assert_eq!(topo.shard_of(3), Some(0));
        assert_eq!(topo.shard_of(5), Some(2));
        assert_eq!(topo.shard_of(1), Some(2)); // survivors[1 % 2]
        assert_eq!(topo.shard_of(4), Some(0)); // survivors[4 % 2]
                                               // A dead shard stays addressable (in-flight traffic to it is
                                               // dropped by the kernel, not by a missing address).
        assert_eq!(topo.el_at(1), Some(els[1]));
        assert_eq!(topo.el_count(), 3);
        // Killing the survivors one by one: the last shard takes
        // everything, then total loss reports false.
        assert!(topo.rebalance_after_el_failure(0));
        for rank in 0..6 {
            assert_eq!(topo.shard_of(rank), Some(2));
        }
        assert!(!topo.rebalance_after_el_failure(2));
        assert!(!topo.rebalance_after_el_failure(3), "no such shard");
    }

    #[test]
    fn a_shard_that_is_already_dead_is_not_rebalanced_again() {
        let (mut topo, _) = six_ranks_three_shards();
        assert!(topo.rebalance_after_el_failure(1));
        let map: Vec<_> = (0..6).map(|r| topo.shard_of(r)).collect();
        // The second report of the same death answers false — nothing
        // to broadcast — and leaves the map as the first one left it.
        assert!(!topo.rebalance_after_el_failure(1));
        assert_eq!(map, (0..6).map(|r| topo.shard_of(r)).collect::<Vec<_>>());
    }
}
