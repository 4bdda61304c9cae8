//! The Event Logger (paper §IV-B.4): its messages and their [`Body`]
//! sizes, the server with its saturation gauges, and the client-side batcher.
//!
//! *"The Event Logger is a component specific to the message logging
//! protocols we developed. It acts as a reliable storage for all
//! causality events of an execution. Every process sends asynchronously
//! each reception event to the Event Logger. Then the Event Logger sends
//! back an acknowledgment, notifying about the last event stored for each
//! process. The Event Logger is a single thread server based on a select
//! loop to handle non blocking asynchronous communications."* Its CPU
//! and NIC are ordinary simulated resources: under high event rates (LU
//! class A on 16 nodes) it saturates, and the paper's "acknowledgements
//! arrive too late to trim piggybacks" emerges from the model.
//!
//! Conclusion of the paper: *"Using only one Event Logger for consistency
//! purpose will lead to a bottleneck as the number of processes grows. It
//! is thus necessary to investigate how to distribute the logging of
//! events among several Event Loggers. [...] Assigning a subset of the
//! nodes to one Event Logger seems the obvious way to gain scalability.
//! But in order to keep the good performance introduced by the Event
//! Logger in the system, each node has to receive the most up to date
//! array of logical clocks already logged. [...] by multicasting the
//! local array of logical clocks of every Event Logger to the other ones,
//! periodically or on specific events."*
//!
//! [`ElShard`] implements exactly that first design: rank `r` logs to EL
//! `r mod k`; each EL multicasts its stable-clock vector to its peers
//! every `gossip` interval; acknowledgements carry the *merged* global
//! vector, so every process can garbage-collect events of ranks served by
//! other loggers — at the freshness cost of one gossip period. With
//! `k = 1` there are no peers: no gossip timer is armed, the merged
//! vector is the local one, and the shard *is* the paper's single
//! select-loop Event Logger — every suite installs its EL through
//! [`install_distributed_el`], whatever the shard count.

use vlog_sim::{Actor, ActorId, Counter, Delivery, Gauge, NodeId, Sim, SimDuration, Timer};
use vlog_vmpi::control::{self, Body};
use vlog_vmpi::{topo, ClusterState, RClock, Rank};

use crate::detseq::DetStore;
use crate::event::Determinant;

/// Messages understood by the Event Logger.
pub enum ElMsg {
    /// Asynchronous batch of a daemon's own event records (clock order;
    /// one coalesced acknowledgement covers the whole batch). Each record
    /// names its creator as its `receiver`.
    Record {
        dets: Vec<Determinant>,
        reply_to: ActorId,
    },
    /// Recovery query: all stored events of `victim` with clock > `from`.
    Query {
        victim: Rank,
        from: RClock,
        reply_to: ActorId,
    },
    /// Gossip from a peer shard: its locally stable clock vector.
    Gossip { stable: Vec<RClock> },
}

impl Body for ElMsg {
    fn wire_bytes(&self) -> u64 {
        match self {
            // Batch framing + 20 B a record (determinant, rank, framing).
            ElMsg::Record { dets, .. } => 8 + 20 * dets.len() as u64,
            ElMsg::Query { .. } => 16,
            ElMsg::Gossip { stable } => 8 + 4 * stable.len() as u64,
        }
    }
}

/// Messages the Event Logger sends back: the delivery body itself, which
/// the daemon hands to `VProtocol::on_control`.
pub enum ElReply {
    /// Acknowledgement carrying the stable-clock vector.
    Ack { stable: Vec<RClock> },
    /// Recovery response: the victim's replay determinants plus the
    /// stable vector (so the victim can resynchronize its GC state).
    QueryResp {
        dets: Vec<Determinant>,
        stable: Vec<RClock>,
    },
}

impl Body for ElReply {
    fn wire_bytes(&self) -> u64 {
        match self {
            ElReply::Ack { stable } => 8 + 4 * stable.len() as u64,
            ElReply::QueryResp { dets, stable } => {
                8 + (Determinant::BODY_BYTES + 2) * dets.len() as u64 + 4 * stable.len() as u64
            }
        }
    }
}

/// Per-determinant cost of building a recovery response.
const EL_RESP_NS_PER_DET: u64 = 120;

/// Per-record service cost of the single-threaded select-loop server.
const EL_SERVICE_NS: u64 = 2_300;

/// Rejects an Event Logger deployment without a shard.
pub(crate) fn assert_shard_count(k: usize) {
    assert!(k >= 1, "an Event Logger deployment needs a shard, got 0");
}

/// Records the creator-side saturation gauge when a protocol ships the
/// event with clock `shipped` while its last EL-acknowledged own clock
/// is `acked`: the gap is the number of its events still outstanding at
/// the Event Logger (shipped but not yet acknowledged). Under EL
/// saturation this window grows — the paper's "acknowledgements arrive
/// too late to trim piggybacks" behaviour, made measurable.
pub fn record_el_outstanding(sim: &mut Sim, shipped: RClock, acked: RClock) {
    sim.stats_mut()
        .set_max(Gauge::ElPeakOutstanding, shipped.saturating_sub(acked));
}

/// One Event Logger server instance: the only one of a single-EL
/// configuration, or one shard of a distributed one.
///
/// Its records live in a [`DetStore`], the container the ranks' causality
/// stores use, fed through [`DetStore::append`]: each creator's records
/// arrive in clock order (FIFO channel), so a record at or below the
/// creator's head is a re-shipped duplicate, and the first copy stays.
/// Nothing here is ever stable, so nothing is pruned, and the store's
/// heads are the locally logged clocks an ack reports and gossip carries.
pub struct ElShard {
    index: usize,
    node: NodeId,
    /// Events of the ranks assigned here.
    store: DetStore,
    /// Merged view including gossiped clocks from peer shards.
    merged_stable: Vec<RClock>,
    gossip: SimDuration,
}

impl ElShard {
    /// Gossips to every peer shard the topology lists, dead ones
    /// included: this shard has no failure detector of its own.
    fn multicast_gossip(&self, sim: &mut Sim) {
        for i in 0..topo(sim).el_count() {
            if i != self.index {
                let (actor, _) = topo(sim).el_at(i).expect("index below el_count");
                let stable = self.store.heads().to_vec();
                control::send(sim, self.node, actor, ElMsg::Gossip { stable });
            }
        }
    }

    /// Records the server-side saturation gauges for one stored (or
    /// duplicate) batch of `batch_len` event records: the CPU queue depth
    /// the batch saw at arrival (its own service time subtracted out) and
    /// its arrival-to-ack-send latency. The complementary *creator*-side
    /// gauge — the un-acked event window that decides whether acks arrive
    /// in time to trim piggybacks — is recorded by the protocols at ship
    /// time (see [`record_el_outstanding`]).
    fn record_el_saturation(&self, sim: &mut Sim, ack_latency: SimDuration, batch_len: usize) {
        let depth = (ack_latency.as_nanos() / EL_SERVICE_NS).saturating_sub(batch_len as u64);
        let stats = sim.stats_mut();
        stats.set_max(Gauge::ElPeakQueue, depth);
        stats.set_max(Gauge::ElShardPeakQueue(self.index), depth);
        stats.add_time(Timer::ElAckLatency, ack_latency);
        stats.bump(Counter::ElAckSamples);
        stats.set_max(Gauge::ElAckLatencyPeakNs, ack_latency.as_nanos());
        stats.set_max(Gauge::ElShardAckPeakNs(self.index), ack_latency.as_nanos());
    }
}

impl Actor for ElShard {
    fn on_deliver(&mut self, sim: &mut Sim, _me: ActorId, msg: Delivery) {
        let Ok(m) = msg.body.downcast::<ElMsg>() else {
            return;
        };
        match *m {
            ElMsg::Record { dets, reply_to } => {
                let batch_len = dets.len();
                sim.stats_mut().bump(Counter::ElBatches);
                for det in dets {
                    if self.store.append(det) {
                        let merged = &mut self.merged_stable[det.receiver];
                        *merged = (*merged).max(det.clock);
                        sim.stats_mut().bump(Counter::ElRecords);
                    } else {
                        sim.stats_mut().bump(Counter::ElDuplicateRecords);
                    }
                }
                let arrived = sim.now();
                let end = sim.charge_cpu(
                    self.node,
                    SimDuration::from_nanos(EL_SERVICE_NS * batch_len.max(1) as u64),
                );
                self.record_el_saturation(sim, end.saturating_since(arrived), batch_len);
                let ack = ElReply::Ack {
                    stable: self.merged_stable.clone(),
                };
                control::send_at(sim, end, self.node, reply_to, ack);
            }
            ElMsg::Query {
                victim,
                from,
                reply_to,
            } => {
                let dets = self.store.above(victim, from);
                let cost =
                    SimDuration::from_nanos(EL_SERVICE_NS + EL_RESP_NS_PER_DET * dets.len() as u64);
                let end = sim.charge_cpu(self.node, cost);
                let stable = self.merged_stable.clone();
                sim.stats_mut().bump(Counter::ElQueries);
                let resp = ElReply::QueryResp { dets, stable };
                control::send_at(sim, end, self.node, reply_to, resp);
            }
            ElMsg::Gossip { stable } => {
                for (merged, gossiped) in self.merged_stable.iter_mut().zip(stable) {
                    *merged = (*merged).max(gossiped);
                }
                sim.stats_mut().bump(Counter::ElGossipMsgs);
            }
        }
    }

    fn on_timer(&mut self, sim: &mut Sim, me: ActorId, token: u64) {
        self.multicast_gossip(sim);
        sim.set_timer(me, self.gossip, token);
    }
}

/// Installs `k` Event Logger shards and registers them in the run's
/// topology ([`TopoView::set_els`](vlog_vmpi::TopoView::set_els): ranks
/// are assigned round robin). The first lives on `first_node`; each
/// further shard gets a fresh stable node. Panics when `k` is 0.
pub fn install_distributed_el(
    sim: &mut Sim,
    first_node: NodeId,
    k: usize,
    gossip: SimDuration,
) -> Vec<(ActorId, NodeId)> {
    assert_shard_count(k);
    let n = topo(sim).n_ranks();
    let mut els = Vec::with_capacity(k);
    for index in 0..k {
        let node = if index == 0 {
            first_node
        } else {
            sim.add_node()
        };
        let shard = ElShard {
            index,
            node,
            store: DetStore::new(n),
            merged_stable: vec![0; n],
            gossip,
        };
        let id = sim.add_actor(node, Box::new(shard));
        if k > 1 {
            // Stagger the gossip timers so shards do not synchronize.
            let first = SimDuration::from_nanos(gossip.as_nanos() * (index as u64 + 1) / k as u64);
            sim.set_timer(id, first, 0);
        }
        els.push((id, node));
    }
    ClusterState::of(sim).topo.set_els(els.clone());
    els
}

/// Ack-clocked record batcher used by the logging protocols on their
/// ship-to-EL path (the shape arXiv:1905.03184 identifies as the main
/// logger-cost lever: coalesce records, coalesce acks).
///
/// Fully deterministic — no timers. The first determinant after an idle
/// period ships immediately; while that batch's acknowledgement is in
/// flight, subsequent determinants coalesce into one pending batch that
/// flushes the moment the ack arrives. The Event Logger sends exactly
/// one acknowledgement per batch, so under saturation the record *and*
/// ack message counts collapse together.
///
/// Invariant: at most one batch is in flight at a time, and `pending`
/// only accumulates while a batch is in flight.
#[derive(Debug, Default)]
pub struct ElBatcher {
    /// The batch shipped and not yet acknowledged.
    in_flight: Vec<Determinant>,
    /// Records coalescing behind the in-flight batch.
    pending: Vec<Determinant>,
}

impl ElBatcher {
    pub fn new() -> Self {
        ElBatcher::default()
    }

    /// Offers one determinant. Returns the batch to put on the wire now
    /// (always just this determinant, when the line is idle), or `None`
    /// when it coalesced behind the in-flight batch.
    pub fn offer(&mut self, det: Determinant) -> Option<Vec<Determinant>> {
        self.pending.push(det);
        if self.in_flight.is_empty() {
            self.flush()
        } else {
            None
        }
    }

    /// The in-flight batch was acknowledged. Returns the coalesced next
    /// batch to put on the wire, if any records queued up meanwhile.
    pub fn acked(&mut self) -> Option<Vec<Determinant>> {
        self.in_flight.clear();
        if self.pending.is_empty() {
            None
        } else {
            self.flush()
        }
    }

    /// Everything shipped-but-unacknowledged plus everything still
    /// coalescing, in offer order — the records a re-shard handoff must
    /// re-route to the new shard. Leaves the batcher idle.
    pub fn take_unacked(&mut self) -> Vec<Determinant> {
        let mut all = std::mem::take(&mut self.in_flight);
        all.append(&mut self.pending);
        all
    }

    /// Number of offered-but-unacknowledged records.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len() + self.pending.len()
    }

    fn flush(&mut self) -> Option<Vec<Determinant>> {
        self.in_flight = std::mem::take(&mut self.pending);
        Some(self.in_flight.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinated::MarkerCtl;
    use crate::logcore::CausalCtl;
    use std::sync::{Arc, Mutex};
    use vlog_sim::SimTime;

    #[derive(Default)]
    struct Replies {
        acks: Vec<Vec<RClock>>,
        resps: Vec<(usize, Vec<RClock>)>,
    }

    struct Probe(Arc<Mutex<Replies>>);

    impl Actor for Probe {
        fn on_deliver(&mut self, _sim: &mut Sim, _me: ActorId, msg: Delivery) {
            let Ok(reply) = msg.body.downcast::<ElReply>() else {
                return;
            };
            let mut seen = self.0.lock().unwrap();
            match *reply {
                ElReply::Ack { stable } => seen.acks.push(stable),
                ElReply::QueryResp { dets, stable } => seen.resps.push((dets.len(), stable)),
            }
        }
    }

    fn det(creator: Rank, clock: RClock) -> Determinant {
        Determinant {
            receiver: creator,
            clock,
            sender: 0,
            ssn: clock,
            cause: 0,
        }
    }

    /// A 3-rank job whose ranks all live in one probe actor, logging to
    /// the paper's single Event Logger: the 1-shard install.
    struct Rig {
        sim: Sim,
        el: ActorId,
        el_node: NodeId,
        client_node: NodeId,
        probe: ActorId,
        seen: Arc<Mutex<Replies>>,
    }

    fn setup() -> Rig {
        let mut sim = Sim::new();
        let el_node = sim.add_node();
        let client_node = sim.add_node();
        let seen = Arc::new(Mutex::new(Replies::default()));
        let probe = sim.add_actor(client_node, Box::new(Probe(seen.clone())));
        sim.install(ClusterState::with_ranks(
            vec![probe; 3],
            vec![client_node; 3],
        ));
        let els = install_distributed_el(&mut sim, el_node, 1, SimDuration::from_millis(20));
        assert_eq!(topo(&sim).el_at(0), Some(els[0]));
        Rig {
            sim,
            el: els[0].0,
            el_node,
            client_node,
            probe,
            seen,
        }
    }

    fn record(rig: &mut Rig, dets: Vec<Determinant>) {
        let reply_to = rig.probe;
        let record = ElMsg::Record { dets, reply_to };
        control::send(&mut rig.sim, rig.client_node, rig.el, record);
    }

    #[test]
    fn records_are_acked_with_stable_vector() {
        let mut rig = setup();
        for clock in 1..=3 {
            record(&mut rig, vec![det(1, clock)]);
        }
        rig.sim.run();
        let seen = rig.seen.lock().unwrap();
        assert_eq!(seen.acks.len(), 3);
        assert_eq!(seen.acks.last().unwrap(), &vec![0, 3, 0]);
        assert_eq!(rig.sim.stats().counter(Counter::ElRecords), 3);
    }

    #[test]
    fn a_single_shard_never_gossips_and_arms_no_timer() {
        let mut rig = setup();
        record(&mut rig, vec![det(1, 1)]);
        // A gossip timer re-arms itself forever; a calendar that drains
        // before a far deadline proves none was armed.
        let drained = rig
            .sim
            .run_until(SimTime::ZERO + SimDuration::from_secs(10));
        assert!(drained, "a 1-shard Event Logger armed a gossip timer");
        assert_eq!(rig.sim.stats().counter(Counter::ElGossipMsgs), 0);
        assert_eq!(rig.seen.lock().unwrap().acks.len(), 1);
        // The control: two shards do gossip, and keep the calendar busy.
        let mut sim = Sim::new();
        let node = sim.add_node();
        sim.install(ClusterState::default());
        install_distributed_el(&mut sim, node, 2, SimDuration::from_millis(20));
        assert!(!sim.run_until(SimTime::ZERO + SimDuration::from_secs(1)));
        assert!(sim.stats().counter(Counter::ElGossipMsgs) > 0);
    }

    #[test]
    fn duplicate_records_are_detected() {
        let mut rig = setup();
        for _ in 0..2 {
            record(&mut rig, vec![det(2, 1)]);
        }
        rig.sim.run();
        assert_eq!(rig.sim.stats().counter(Counter::ElRecords), 1);
        assert_eq!(rig.sim.stats().counter(Counter::ElDuplicateRecords), 1);
        assert_eq!(rig.seen.lock().unwrap().acks.len(), 2); // both still acknowledged
    }

    #[test]
    fn query_returns_suffix_after_watermark() {
        let mut rig = setup();
        for clock in 1..=5 {
            record(&mut rig, vec![det(0, clock)]);
        }
        let (el, probe, client_node) = (rig.el, rig.probe, rig.client_node);
        rig.sim.after(SimDuration::from_millis(10), move |sim| {
            let query = ElMsg::Query {
                victim: 0,
                from: 2,
                reply_to: probe,
            };
            control::send(sim, client_node, el, query);
        });
        rig.sim.run();
        let seen = rig.seen.lock().unwrap();
        assert_eq!(seen.resps.len(), 1);
        assert_eq!(seen.resps[0].0, 3); // clocks 3, 4, 5
        assert_eq!(seen.resps[0].1, vec![5, 0, 0]);
        assert_eq!(rig.sim.stats().counter(Counter::ElQueries), 1);
    }

    #[test]
    fn saturation_gauges_track_a_busy_server() {
        let mut rig = setup();
        // Occupy the EL's CPU the way a long recovery query does; the
        // record arriving meanwhile must wait behind the backlog, and
        // the gauges must see both the queue and the inflated latency.
        rig.sim
            .charge_cpu(rig.el_node, SimDuration::from_micros(200));
        record(&mut rig, vec![det(1, 1)]);
        rig.sim.run();
        assert_eq!(rig.seen.lock().unwrap().acks.len(), 1);
        let stats = rig.sim.stats();
        // >100 µs of backlog at 2.3 µs per record is a deep queue.
        assert!(
            stats.gauge(Gauge::ElPeakQueue) >= 10,
            "record never queued: peak depth {}",
            stats.gauge(Gauge::ElPeakQueue)
        );
        // The single Event Logger reports as shard 0.
        assert_eq!(
            stats.gauge(Gauge::ElPeakQueue),
            stats.gauge(Gauge::ElShardPeakQueue(0))
        );
        assert!(stats.timer(Timer::ElAckLatency) > SimDuration::from_micros(100));
        assert!(stats.gauge(Gauge::ElAckLatencyPeakNs) >= 100_000);
    }

    #[test]
    fn batched_records_get_one_coalesced_ack() {
        let mut rig = setup();
        record(&mut rig, vec![det(1, 1), det(1, 2), det(1, 3)]);
        rig.sim.run();
        let seen = rig.seen.lock().unwrap();
        assert_eq!(seen.acks.len(), 1, "a batch is acknowledged exactly once");
        assert_eq!(seen.acks[0], vec![0, 3, 0]);
        assert_eq!(rig.sim.stats().counter(Counter::ElRecords), 3);
        assert_eq!(rig.sim.stats().counter(Counter::ElBatches), 1);
        assert_eq!(rig.sim.stats().counter(Counter::ElAckSamples), 1);
    }

    #[test]
    fn outstanding_gauge_tracks_the_unacked_window() {
        let mut sim = Sim::new();
        record_el_outstanding(&mut sim, 10, 7);
        record_el_outstanding(&mut sim, 12, 11);
        assert_eq!(sim.stats().gauge(Gauge::ElPeakOutstanding), 3);
        // A creator that is fully acknowledged contributes zero.
        record_el_outstanding(&mut sim, 4, 4);
        assert_eq!(sim.stats().gauge(Gauge::ElPeakOutstanding), 3);
    }

    #[test]
    #[should_panic(expected = "an Event Logger deployment needs a shard, got 0")]
    fn a_deployment_without_a_shard_is_rejected() {
        let _ = crate::CausalSuite::new(crate::Technique::Vcausal, true)
            .with_distributed_el(0, SimDuration::from_millis(2));
    }

    /// Every core control message's wire size at two shapes, `k`
    /// determinants and `n` ranks, as plain numbers: a layout change
    /// that moves one names it here.
    #[test]
    fn control_sizes_are_pinned() {
        let dets = |k: u64| (1..=k).map(|c| det(0, c)).collect::<Vec<_>>();
        let clocks = |n: usize| vec![0; n];
        let to: ActorId = 0;
        let mut table: Vec<(&str, Box<dyn Body>, u64)> = Vec::new();
        for (k, n, record, resp, reclaim, reclaim_resp, gossip_ack) in
            [(0, 4, 8, 24, 64, 8, 24), (5, 16, 108, 152, 160, 88, 72)]
        {
            let row = |name, body: Box<dyn Body>, bytes| (name, body, bytes);
            table.extend([
                row(
                    "record",
                    Box::new(ElMsg::Record {
                        dets: dets(k),
                        reply_to: to,
                    }),
                    record,
                ),
                row(
                    "query",
                    Box::new(ElMsg::Query {
                        victim: 0,
                        from: k,
                        reply_to: to,
                    }),
                    16,
                ),
                row(
                    "gossip",
                    Box::new(ElMsg::Gossip { stable: clocks(n) }),
                    gossip_ack,
                ),
                row(
                    "ack",
                    Box::new(ElReply::Ack { stable: clocks(n) }),
                    gossip_ack,
                ),
                row(
                    "query-resp",
                    Box::new(ElReply::QueryResp {
                        dets: dets(k),
                        stable: clocks(n),
                    }),
                    resp,
                ),
                row(
                    "reclaim",
                    Box::new(CausalCtl::Reclaim {
                        victim: 0,
                        watermarks: clocks(n),
                        recovery_id: 1,
                    }),
                    reclaim,
                ),
                row(
                    "reclaim-resp",
                    Box::new(CausalCtl::ReclaimResp {
                        from: 0,
                        dets: dets(k),
                    }),
                    reclaim_resp,
                ),
                row(
                    "marker",
                    Box::new(MarkerCtl {
                        from: 0,
                        id: k,
                        upto_ssn: k,
                    }),
                    24,
                ),
            ]);
        }
        // A GC notice's stable vector rides RLE-compressed: a flat one
        // costs 3 B at any `n`, a varied one more.
        for (n, stable, bytes) in [
            (4, vec![0; 4], 43),
            (16, vec![0; 16], 139),
            (16, (0..16).collect(), 169),
        ] {
            let notice = CausalCtl::GcNotice {
                from: 0,
                received: clocks(n),
                stable,
            };
            table.push(("gc-notice", Box::new(notice), bytes));
        }
        for (name, body, bytes) in table {
            assert_eq!(body.wire_bytes(), bytes, "{name}");
        }
    }

    #[test]
    fn batcher_ships_immediately_on_an_idle_line() {
        let mut b = ElBatcher::new();
        assert_eq!(b.offer(det(0, 1)), Some(vec![det(0, 1)]));
        assert_eq!(b.outstanding(), 1);
        // Nothing coalesced: the ack flushes nothing.
        assert_eq!(b.acked(), None);
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn batcher_coalesces_behind_the_in_flight_batch() {
        let mut b = ElBatcher::new();
        assert!(b.offer(det(0, 1)).is_some());
        // While the first record's ack is pending, later records coalesce.
        assert_eq!(b.offer(det(0, 2)), None);
        assert_eq!(b.offer(det(0, 3)), None);
        assert_eq!(b.outstanding(), 3);
        // The ack clocks out the coalesced batch in one flush.
        assert_eq!(b.acked(), Some(vec![det(0, 2), det(0, 3)]));
        assert_eq!(b.outstanding(), 2);
        assert_eq!(b.acked(), None);
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn batcher_handoff_drains_everything_unacked() {
        let mut b = ElBatcher::new();
        assert!(b.offer(det(0, 1)).is_some());
        assert_eq!(b.offer(det(0, 2)), None);
        assert_eq!(b.take_unacked(), vec![det(0, 1), det(0, 2)]);
        assert_eq!(b.outstanding(), 0);
        // After the handoff the line is idle again: next offer ships.
        assert!(b.offer(det(0, 3)).is_some());
        // A stale ack (from the dead shard) with records in flight only
        // rotates the accounting — no record is lost or duplicated.
        assert_eq!(b.acked(), None);
    }
}
