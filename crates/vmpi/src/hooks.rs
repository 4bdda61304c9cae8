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

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vlog_sim::{ActorId, NodeId, Sim, SimDuration, SimTime};

use crate::daemon::DaemonCore;
use crate::phase::{PhaseFaultArmature, ProtoPhase};
use crate::types::{AppMsg, Payload, PiggybackBlob, Rank, Ssn};

/// Where everything lives. Filled by the cluster builder before the
/// simulation starts; shared read-only with every component.
///
/// The state is one published [`TopoView`]. Reads go through
/// [`Topology::view`] (one `Arc` clone) or, on steady-state paths, a
/// [`TopoCache`] that re-captures the view only when the epoch moved —
/// one relaxed atomic load per access instead of a mutex lock. Every
/// mutator edits the published view copy-on-write and bumps the epoch,
/// so a view captured earlier keeps describing the topology it saw.
#[derive(Clone, Default)]
pub struct Topology {
    published: Arc<Mutex<Arc<TopoView>>>,
    epoch: Arc<AtomicU64>,
}

impl Topology {
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `edit` to the published state (copied first if a captured
    /// view still shares it) and invalidates every outstanding
    /// [`TopoCache`]. Relaxed ordering suffices for the epoch because a
    /// cluster run is single-threaded and cross-thread hand-off of the
    /// topology is already synchronized by the `Arc`s that carry it.
    fn mutate(&self, edit: impl FnOnce(&mut TopoView)) {
        let mut published = self.published.lock().expect("topology lock poisoned");
        edit(Arc::make_mut(&mut published));
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Current mutation epoch (see [`TopoCache`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The currently published state: lock-free reads through the
    /// returned view, which later mutations never change.
    pub fn view(&self) -> Arc<TopoView> {
        self.published
            .lock()
            .expect("topology lock poisoned")
            .clone()
    }

    pub fn set_ranks(&self, daemons: Vec<ActorId>, nodes: Vec<NodeId>) {
        self.mutate(|t| {
            t.daemons = daemons;
            t.nodes = nodes;
        });
    }

    /// Registers the Event Logger shards (one for the paper's single EL)
    /// and publishes the epoch-0 rank→shard map: round-robin over the
    /// shard count, the historical static assignment.
    pub fn set_els(&self, els: Vec<(ActorId, NodeId)>) {
        self.mutate(|t| {
            let k = els.len();
            t.shard_map = if k == 0 {
                Vec::new()
            } else {
                (0..t.daemons.len()).map(|r| r % k).collect()
            };
            t.el_dead = vec![false; k];
            t.els = els;
        });
    }

    /// Marks shard `dead` as crashed and republishes the rank→shard map
    /// over the surviving shards (each orphaned rank is reassigned
    /// round-robin over the survivors; ranks on live shards keep their
    /// assignment). Returns the new epoch, or `None` when no shard
    /// survives (total EL loss — nothing to rebalance onto).
    pub fn rebalance_after_el_failure(&self, dead: usize) -> Option<u64> {
        let mut published = self.published.lock().expect("topology lock poisoned");
        let t = Arc::make_mut(&mut published);
        if dead >= t.els.len() {
            return None;
        }
        t.el_dead[dead] = true;
        let survivors: Vec<usize> = (0..t.els.len()).filter(|i| !t.el_dead[*i]).collect();
        if survivors.is_empty() {
            return None;
        }
        for (rank, shard) in t.shard_map.iter_mut().enumerate() {
            if t.el_dead[*shard] {
                *shard = survivors[rank % survivors.len()];
            }
        }
        Some(self.epoch.fetch_add(1, Ordering::Relaxed) + 1)
    }

    pub fn set_ckpt_server(&self, actor: ActorId, node: NodeId) {
        self.mutate(|t| t.ckpt_server = Some((actor, node)));
    }

    pub fn set_dispatcher(&self, actor: ActorId, node: NodeId) {
        self.mutate(|t| t.dispatcher = Some((actor, node)));
    }

    /// Arms phase-triggered fault injection (cluster builder only).
    pub fn set_phase_faults(&self, arm: Arc<PhaseFaultArmature>) {
        self.mutate(|t| t.phase_faults = Some(arm));
    }

    /// Enables the restart-window test bug (cluster builder only).
    pub fn set_buggy_restart_window(&self, on: bool) {
        self.mutate(|t| t.buggy_restart_window = on);
    }
}

/// The topology's state, published by [`Topology`] and captured
/// immutably by [`Topology::view`]. All accessors are lock-free; see
/// [`TopoCache`] for the epoch-validated caching pattern the daemons and
/// protocols use.
#[derive(Clone, Default)]
pub struct TopoView {
    daemons: Vec<ActorId>,
    nodes: Vec<NodeId>,
    /// Event Logger instances (one or several; ranks are assigned
    /// through `shard_map`).
    els: Vec<(ActorId, NodeId)>,
    /// Rank→shard map: `shard_map[rank]` indexes `els`. Seeded
    /// round-robin by [`Topology::set_els`]; rewritten by
    /// [`Topology::rebalance_after_el_failure`] when a shard dies.
    shard_map: Vec<usize>,
    /// Shards that have crashed (parallel to `els`).
    el_dead: Vec<bool>,
    ckpt_server: Option<(ActorId, NodeId)>,
    dispatcher: Option<(ActorId, NodeId)>,
    /// Phase-triggered fault injection, armed by the cluster builder when
    /// the fault plan carries [`crate::PhaseFault`]s (`None` otherwise —
    /// the common case, so boundary reports stay a cheap no-op).
    phase_faults: Option<Arc<PhaseFaultArmature>>,
    /// Test hook: re-introduces the PR-5 restart-window bug (see
    /// [`crate::ClusterConfig::buggy_restart_window`]).
    buggy_restart_window: bool,
}

impl TopoView {
    /// The Event Logger serving `rank`, routed through the shard map
    /// this view snapshot published.
    pub fn el_for(&self, rank: Rank) -> Option<(ActorId, NodeId)> {
        self.shard_of(rank).map(|shard| self.els[shard])
    }

    /// The shard index serving `rank` under this view's published map
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

    /// The armed phase-fault armature, if any.
    pub fn phase_faults(&self) -> Option<&Arc<PhaseFaultArmature>> {
        self.phase_faults.as_ref()
    }

    /// Whether the restart-window test bug is enabled.
    pub fn buggy_restart_window(&self) -> bool {
        self.buggy_restart_window
    }
}

/// Epoch-validated cache of a [`TopoView`]. Steady-state consumers call
/// [`TopoCache::view`] per access: one relaxed atomic load when the
/// topology has not mutated (the common case — the topology is fully
/// built before the simulation starts), a single re-snapshot when it has.
#[derive(Default)]
pub struct TopoCache {
    cached: Option<(u64, Arc<TopoView>)>,
}

impl TopoCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// The current view of `topo`, re-captured only if its epoch moved.
    pub fn view(&mut self, topo: &Topology) -> &TopoView {
        let epoch = topo.epoch();
        let stale = match &self.cached {
            Some((cached_epoch, _)) => *cached_epoch != epoch,
            None => true,
        };
        if stale {
            self.cached = Some((epoch, topo.view()));
        }
        &self.cached.as_ref().expect("just populated").1
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

    /// Reports that this rank just crossed `phase`. Protocols call this
    /// at their enumerated boundaries (marker broadcast, determinant
    /// shipment, EL ack); an armed [`crate::PhaseFault`] matching the
    /// crossing schedules the crash. No-op when no armature is armed.
    pub fn phase_boundary(&mut self, phase: ProtoPhase) {
        self.core.phase_boundary(self.sim, phase);
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
    /// Silently drop (duplicate of an already-received message).
    Drop,
    /// The protocol keeps the message (replay buffering, markers); it can
    /// re-inject it later through [`DaemonCore::reaccept`].
    Consume,
}

/// Protocol section of a checkpoint image: structured state plus the wire
/// size it would occupy (counted as control traffic when the image moves).
/// The body is reference-counted because the checkpoint server keeps it;
/// `Send + Sync` so checkpoint images move with a sharded cluster run.
pub struct ProtoBlob {
    pub body: Option<Arc<dyn Any + Send + Sync>>,
    pub bytes: u64,
}

impl ProtoBlob {
    pub fn empty() -> Self {
        ProtoBlob {
            body: None,
            bytes: 0,
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

    /// The application reached a checkpoint point. Return true to take a
    /// checkpoint now (uncoordinated protocols follow their scheduler,
    /// coordinated ones their marker state).
    fn checkpoint_due(&mut self, ctx: &mut Ctx<'_>) -> bool {
        false
    }

    /// The daemon is assembling a checkpoint image: contribute the
    /// protocol section (sender log, causality information, clocks).
    fn checkpoint_blob(&mut self, ctx: &mut Ctx<'_>) -> ProtoBlob {
        ProtoBlob::empty()
    }

    /// Version override for the checkpoint being taken. Coordinated
    /// snapshots return the global snapshot id; `None` uses the daemon's
    /// local counter (uncoordinated checkpoints).
    fn snapshot_version(&mut self) -> Option<u64> {
        None
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

/// Per-rank protocol statistics, shared between the protocol instance and
/// the harness that reads them after the run.
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

impl RankStats {
    /// Combines `other` into `self` with each field's lawful combine:
    /// counters and CPU durations add, the EL ack watermark takes the
    /// max (it is a monotone assignment, not an increment), recovery
    /// duration lists concatenate. Additive and max fields commute and
    /// associate, which is what lets per-incarnation delta cells
    /// ([`RankStatCell`]) replace a shared lock; the lists rely on
    /// cells flushing in chronological order (an incarnation's cell is
    /// dropped — and flushed — when it crashes, before its successor
    /// records anything).
    pub fn merge(&mut self, other: &RankStats) {
        self.pb_send_time += other.pb_send_time;
        self.pb_recv_time += other.pb_recv_time;
        self.pb_events_sent += other.pb_events_sent;
        self.pb_bytes_sent += other.pb_bytes_sent;
        self.empty_pb_msgs += other.empty_pb_msgs;
        self.app_msgs_sent += other.app_msgs_sent;
        self.el_acked_events = self.el_acked_events.max(other.el_acked_events);
        self.recovery_collect
            .extend_from_slice(&other.recovery_collect);
        self.recovery_total.extend_from_slice(&other.recovery_total);
        self.checkpoints += other.checkpoints;
    }
}

/// Shared handle on [`RankStats`]. Shared between successive protocol
/// incarnations of one rank (stats survive daemon restarts) and the
/// harness that reads them after the run — real sharing, hence `Arc`.
pub type SharedRankStats = Arc<Mutex<RankStats>>;

/// Write-side handle on a rank's statistics: a local [`RankStats`] delta
/// accumulated lock-free on the hot path, merged into the shared handle
/// once — on [`flush`](RankStatCell::flush) or when the cell drops (a
/// daemon/protocol incarnation dying on crash or at end-of-run).
///
/// Correctness relies on the writer split already present in the code:
/// each field has exactly one writer component per incarnation, merge is
/// commutative/associative per field ([`RankStats::merge`]), and cells
/// flush in chronological incarnation order.
pub struct RankStatCell {
    shared: SharedRankStats,
    local: RankStats,
}

impl RankStatCell {
    pub fn new(shared: SharedRankStats) -> Self {
        RankStatCell {
            shared,
            local: RankStats::default(),
        }
    }

    /// The local delta, bumped lock-free on the hot path.
    #[inline]
    pub fn local(&mut self) -> &mut RankStats {
        &mut self.local
    }

    /// A fresh cell over the same shared handle (successor incarnations
    /// after a restart share the rank's stats).
    pub fn sibling(&self) -> RankStatCell {
        RankStatCell::new(self.shared.clone())
    }

    /// The shared end-of-run handle this cell flushes into.
    pub fn shared(&self) -> SharedRankStats {
        self.shared.clone()
    }

    /// Merges the accumulated delta into the shared handle and resets
    /// the delta. One lock per flush instead of one per update.
    pub fn flush(&mut self) {
        let delta = std::mem::take(&mut self.local);
        self.shared.lock().unwrap().merge(&delta);
    }
}

impl Drop for RankStatCell {
    fn drop(&mut self) {
        self.flush();
    }
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
/// because the dispatcher's relaunch closure carries the suite into a
/// (possibly worker-thread-hosted) cluster run.
pub trait Suite: Send + Sync {
    /// Name for reports.
    fn name(&self) -> String;

    /// Installs auxiliary stable actors (Event Logger, scheduler...).
    /// Called once, before daemons are created. Stable nodes are provided
    /// by the cluster builder through `topo`.
    fn install(&self, sim: &mut Sim, topo: &Topology, stable_nodes: &[NodeId]) {
        let _ = (sim, topo, stable_nodes);
    }

    /// Creates the protocol instance for one rank.
    fn make_protocol(
        &self,
        rank: Rank,
        topo: &Topology,
        stats: SharedRankStats,
    ) -> Box<dyn VProtocol>;

    /// Recovery style for the dispatcher.
    fn recovery_style(&self) -> RecoveryStyle {
        RecoveryStyle::SingleRank
    }
}

/// Broadcast by the cluster's failure detector after an Event Logger
/// shard crashed and the topology republished its rank→shard map
/// (forwarded to every rank's protocol through `on_control`). Receiving
/// protocols refresh their topology view, re-route to their new shard
/// and re-ship every determinant not yet acknowledged stable — the
/// in-flight-record handoff that makes the EL service failure-tolerant.
#[derive(Debug, Clone, Copy)]
pub struct ElReshard {
    /// Topology epoch that published the rebalanced map.
    pub epoch: u64,
    /// Index of the crashed shard.
    pub dead_shard: usize,
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

#[cfg(test)]
mod tests {
    use super::*;
    use vlog_sim::{Actor, Delivery};

    struct Nop;
    impl Actor for Nop {
        fn on_deliver(&mut self, _: &mut Sim, _: ActorId, _: Delivery) {}
    }

    /// Six ranks logging to three Event Logger shards.
    fn six_ranks_three_shards() -> (Topology, Vec<(ActorId, NodeId)>) {
        let mut sim = Sim::new(3);
        let mut place = |n: usize| -> Vec<(ActorId, NodeId)> {
            (0..n)
                .map(|_| {
                    let node = sim.add_node();
                    (sim.add_actor(node, Box::new(Nop)), node)
                })
                .collect()
        };
        let daemons = place(6);
        let els = place(3);
        let topo = Topology::new();
        topo.set_ranks(
            daemons.iter().map(|d| d.0).collect(),
            daemons.iter().map(|d| d.1).collect(),
        );
        topo.set_els(els.clone());
        (topo, els)
    }

    #[test]
    fn map_and_hash_agree_at_epoch_zero() {
        // The epoch-0 published map must be exactly the static
        // round-robin hash; a disagreement would route client records to
        // a shard that never gossips their stability.
        let (topo, els) = six_ranks_three_shards();
        let view = topo.view();
        for rank in 0..6 {
            assert_eq!(view.shard_of(rank), Some(rank % 3));
            assert_eq!(view.el_for(rank), Some(els[rank % 3]));
        }
    }

    #[test]
    fn a_captured_view_keeps_the_map_it_saw() {
        let (topo, els) = six_ranks_three_shards();
        let before = topo.view();
        topo.rebalance_after_el_failure(1).expect("survivors exist");
        let after = topo.view();
        // Rank 1 logged to shard 1; the old view still says so (dead
        // shards stay addressable), the published one moved it.
        assert_eq!(before.shard_of(1), Some(1));
        assert_eq!(before.el_for(1), Some(els[1]));
        assert_eq!(after.shard_of(1), Some(2));
        assert_eq!(after.el_for(1), Some(els[2]));
        // An epoch-validated cache follows the published view.
        let mut cache = TopoCache::new();
        assert_eq!(cache.view(&topo).el_for(1), Some(els[2]));
        topo.rebalance_after_el_failure(2)
            .expect("shard 0 survives");
        assert_eq!(after.el_for(1), Some(els[2]));
        assert_eq!(cache.view(&topo).el_for(1), Some(els[0]));
    }

    #[test]
    fn rebalance_reroutes_only_orphaned_ranks() {
        let (topo, _) = six_ranks_three_shards();
        let before = topo.epoch();
        let epoch = topo.rebalance_after_el_failure(1).expect("survivors exist");
        assert!(epoch > before);
        let view = topo.view();
        // Ranks on live shards keep their assignment; shard-1 ranks
        // (1, 4) respread over the survivors {0, 2} deterministically.
        assert_eq!(view.shard_of(0), Some(0));
        assert_eq!(view.shard_of(2), Some(2));
        assert_eq!(view.shard_of(3), Some(0));
        assert_eq!(view.shard_of(5), Some(2));
        assert_eq!(view.shard_of(1), Some(2)); // survivors[1 % 2]
        assert_eq!(view.shard_of(4), Some(0)); // survivors[4 % 2]
                                               // Killing the survivors one by one: last shard takes everything,
                                               // then total loss reports None.
        assert!(topo.rebalance_after_el_failure(0).is_some());
        let view = topo.view();
        for rank in 0..6 {
            assert_eq!(view.shard_of(rank), Some(2));
        }
        assert!(topo.rebalance_after_el_failure(2).is_none());
    }
}
