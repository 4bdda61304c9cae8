//! The Event Logger server — single (the paper's configuration) or
//! sharded (the paper's future work, implemented).
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
//! This module implements exactly that first design: rank `r` logs to EL
//! `r mod k`; each EL multicasts its stable-clock vector to its peers
//! every `gossip` interval; acknowledgements carry the *merged* global
//! vector, so every process can garbage-collect events of ranks served by
//! other loggers — at the freshness cost of one gossip period. With
//! `k = 1` there are no peers: no gossip timer is armed, the merged
//! vector is the local one, and the shard *is* the paper's single
//! select-loop Event Logger (§IV-B.4) — every suite installs its EL
//! through [`install_distributed_el`], whatever the shard count.

use vlog_sim::{Actor, ActorId, Delivery, NodeId, Sim, SimDuration, TimerHandle};
use vlog_vmpi::{control, topo, ClusterState, RClock};

use crate::el::{el_ack_bytes, el_resp_bytes, record_el_saturation, ElMsg, ElReply, EL_SERVICE_NS};
use crate::event::Determinant;

/// Gossip between Event Logger instances: a stable-clock vector.
pub struct ElGossip {
    pub from_el: usize,
    pub stable: Vec<RClock>,
}

/// Per-determinant cost of building a recovery response.
const EL_RESP_NS_PER_DET: u64 = 120;

/// One Event Logger server instance: the only one of a single-EL
/// configuration, or one shard of a distributed one.
pub struct ElShard {
    index: usize,
    node: NodeId,
    n: usize,
    /// Events of the ranks assigned here.
    stored: Vec<Vec<Determinant>>,
    /// Locally observed stable clocks (own ranks).
    local_stable: Vec<RClock>,
    /// Merged view including gossiped clocks from peer shards.
    merged_stable: Vec<RClock>,
    gossip: SimDuration,
    /// Cancellable wheel handle of the armed gossip timer (rearmed at
    /// every firing; cancelled if the shard's node crashes).
    gossip_timer: Option<TimerHandle>,
}

impl ElShard {
    /// Gossips to every peer shard the topology lists, dead ones
    /// included: this shard has no failure detector of its own.
    fn multicast_gossip(&self, sim: &mut Sim) {
        for i in 0..topo(sim).el_count() {
            if i != self.index {
                let (actor, _) = topo(sim).el_at(i).expect("index below el_count");
                let gossip = ElGossip {
                    from_el: self.index,
                    stable: self.local_stable.clone(),
                };
                let bytes = 8 + 4 * self.n as u64;
                control::send(sim, self.node, actor, bytes, Box::new(gossip));
            }
        }
    }
}

impl Actor for ElShard {
    fn on_deliver(&mut self, sim: &mut Sim, _me: ActorId, msg: Delivery) {
        let body = msg.body;
        let body = match body.downcast::<ElMsg>() {
            Ok(m) => {
                match *m {
                    ElMsg::Record {
                        from,
                        dets,
                        reply_to,
                    } => {
                        let batch_len = dets.len();
                        sim.stats_mut().bump("el_batches");
                        for det in dets {
                            let seq = &mut self.stored[from];
                            // Records arrive in clock order per creator
                            // (FIFO channel); replay re-ships may
                            // duplicate.
                            if seq.last().is_none_or(|last| last.clock < det.clock) {
                                seq.push(det);
                                self.local_stable[from] = det.clock;
                                self.merged_stable[from] = self.merged_stable[from].max(det.clock);
                                sim.stats_mut().bump("el_records");
                            } else {
                                sim.stats_mut().bump("el_duplicate_records");
                            }
                        }
                        let arrived = sim.now();
                        let end = sim.charge_cpu(
                            self.node,
                            SimDuration::from_nanos(EL_SERVICE_NS * batch_len.max(1) as u64),
                        );
                        record_el_saturation(
                            sim,
                            self.index,
                            end.saturating_since(arrived),
                            batch_len,
                        );
                        let ack = ElReply::Ack {
                            stable: self.merged_stable.clone(),
                        };
                        let bytes = el_ack_bytes(self.n);
                        control::send_at(sim, end, self.node, reply_to, bytes, Box::new(ack));
                    }
                    ElMsg::Query {
                        victim,
                        from,
                        reply_to,
                    } => {
                        let dets: Vec<Determinant> = self.stored[victim]
                            .iter()
                            .filter(|d| d.clock > from)
                            .copied()
                            .collect();
                        let cost = SimDuration::from_nanos(
                            EL_SERVICE_NS + EL_RESP_NS_PER_DET * dets.len() as u64,
                        );
                        let end = sim.charge_cpu(self.node, cost);
                        let bytes = el_resp_bytes(dets.len(), self.n);
                        let stable = self.merged_stable.clone();
                        sim.stats_mut().bump("el_queries");
                        let resp = ElReply::QueryResp { dets, stable };
                        control::send_at(sim, end, self.node, reply_to, bytes, Box::new(resp));
                    }
                }
                return;
            }
            Err(b) => b,
        };
        if let Ok(g) = body.downcast::<ElGossip>() {
            for c in 0..self.n {
                self.merged_stable[c] = self.merged_stable[c].max(g.stable[c]);
            }
            sim.stats_mut().bump("el_gossip_msgs");
        }
    }

    fn on_timer(&mut self, sim: &mut Sim, me: ActorId, token: u64) {
        self.multicast_gossip(sim);
        self.gossip_timer = Some(sim.set_timer(me, self.gossip, token));
    }

    fn on_crash(&mut self, sim: &mut Sim, _me: ActorId) {
        if let Some(h) = self.gossip_timer.take() {
            sim.cancel_timer(h);
        }
    }
}

/// Installs `k` Event Logger shards and registers them in the run's
/// topology ([`TopoView::set_els`](vlog_vmpi::TopoView::set_els): ranks
/// are assigned round robin). The first lives on `first_node`; each
/// further shard gets a fresh stable node. Panics when `k` is outside
/// `1..=`[`MAX_EL_SHARDS`](crate::el::MAX_EL_SHARDS).
pub fn install_distributed_el(
    sim: &mut Sim,
    first_node: NodeId,
    k: usize,
    gossip: SimDuration,
) -> Vec<(ActorId, NodeId)> {
    crate::el::assert_shard_count(k);
    let n = topo(sim).n_ranks();
    let mut els = Vec::with_capacity(k);
    for index in 0..k {
        let node = if index == 0 {
            first_node
        } else {
            sim.add_node()
        };
        let id = sim.add_actor_with(node, |sim, id| {
            let mut shard = ElShard {
                index,
                node,
                n,
                stored: vec![Vec::new(); n],
                local_stable: vec![0; n],
                merged_stable: vec![0; n],
                gossip,
                gossip_timer: None,
            };
            if k > 1 {
                // Stagger the gossip timers so shards do not synchronize.
                let first =
                    SimDuration::from_nanos(gossip.as_nanos() * (index as u64 + 1) / k as u64);
                shard.gossip_timer = Some(sim.set_timer(id, first, 0));
            }
            Box::new(shard)
        });
        els.push((id, node));
    }
    ClusterState::of(sim).topo.set_els(els.clone());
    els
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::el::{el_batch_bytes, shard_queue_key};
    use std::sync::{Arc, Mutex};
    use vlog_sim::{SimTime, WireSize};
    use vlog_vmpi::Rank;

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
        let mut sim = Sim::new(9);
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

    fn record(rig: &mut Rig, from: Rank, dets: Vec<Determinant>) {
        rig.sim.net_send(
            rig.client_node,
            rig.el,
            WireSize::control(el_batch_bytes(dets.len())),
            Box::new(ElMsg::Record {
                from,
                dets,
                reply_to: rig.probe,
            }),
        );
    }

    #[test]
    fn records_are_acked_with_stable_vector() {
        let mut rig = setup();
        for clock in 1..=3 {
            record(&mut rig, 1, vec![det(1, clock)]);
        }
        rig.sim.run();
        let seen = rig.seen.lock().unwrap();
        assert_eq!(seen.acks.len(), 3);
        assert_eq!(seen.acks.last().unwrap(), &vec![0, 3, 0]);
        assert_eq!(rig.sim.stats().get("el_records"), 3);
    }

    #[test]
    fn a_single_shard_never_gossips_and_arms_no_timer() {
        let mut rig = setup();
        record(&mut rig, 1, vec![det(1, 1)]);
        // A gossip timer re-arms itself forever; a calendar that drains
        // before a far deadline proves none was armed.
        let drained = rig
            .sim
            .run_until(SimTime::ZERO + SimDuration::from_secs(10));
        assert!(drained, "a 1-shard Event Logger armed a gossip timer");
        assert_eq!(rig.sim.stats().get("el_gossip_msgs"), 0);
        assert_eq!(rig.seen.lock().unwrap().acks.len(), 1);
        // The control: two shards do gossip, and keep the calendar busy.
        let mut sim = Sim::new(9);
        let node = sim.add_node();
        sim.install(ClusterState::default());
        install_distributed_el(&mut sim, node, 2, SimDuration::from_millis(20));
        assert!(!sim.run_until(SimTime::ZERO + SimDuration::from_secs(1)));
        assert!(sim.stats().get("el_gossip_msgs") > 0);
    }

    #[test]
    fn duplicate_records_are_detected() {
        let mut rig = setup();
        for _ in 0..2 {
            record(&mut rig, 2, vec![det(2, 1)]);
        }
        rig.sim.run();
        assert_eq!(rig.sim.stats().get("el_records"), 1);
        assert_eq!(rig.sim.stats().get("el_duplicate_records"), 1);
        assert_eq!(rig.seen.lock().unwrap().acks.len(), 2); // both still acknowledged
    }

    #[test]
    fn query_returns_suffix_after_watermark() {
        let mut rig = setup();
        for clock in 1..=5 {
            record(&mut rig, 0, vec![det(0, clock)]);
        }
        let (el, probe, client_node) = (rig.el, rig.probe, rig.client_node);
        rig.sim.after(SimDuration::from_millis(10), move |sim| {
            sim.net_send(
                client_node,
                el,
                WireSize::control(16),
                Box::new(ElMsg::Query {
                    victim: 0,
                    from: 2,
                    reply_to: probe,
                }),
            );
        });
        rig.sim.run();
        let seen = rig.seen.lock().unwrap();
        assert_eq!(seen.resps.len(), 1);
        assert_eq!(seen.resps[0].0, 3); // clocks 3, 4, 5
        assert_eq!(seen.resps[0].1, vec![5, 0, 0]);
        assert_eq!(rig.sim.stats().get("el_queries"), 1);
    }

    #[test]
    fn saturation_gauges_track_a_busy_server() {
        let mut rig = setup();
        // Occupy the EL's CPU the way a long recovery query does; the
        // record arriving meanwhile must wait behind the backlog, and
        // the gauges must see both the queue and the inflated latency.
        rig.sim
            .charge_cpu(rig.el_node, SimDuration::from_micros(200));
        record(&mut rig, 1, vec![det(1, 1)]);
        rig.sim.run();
        assert_eq!(rig.seen.lock().unwrap().acks.len(), 1);
        let stats = rig.sim.stats();
        // >100 µs of backlog at 2.3 µs per record is a deep queue.
        assert!(
            stats.get("el_peak_queue") >= 10,
            "record never queued: peak depth {}",
            stats.get("el_peak_queue")
        );
        // The single Event Logger reports as shard 0.
        assert_eq!(stats.get("el_peak_queue"), stats.get(shard_queue_key(0)));
        assert!(stats.get_time("el_ack_latency") > SimDuration::from_micros(100));
        assert!(stats.get("el_ack_latency_peak_ns") >= 100_000);
    }

    #[test]
    fn batched_records_get_one_coalesced_ack() {
        let mut rig = setup();
        record(&mut rig, 1, vec![det(1, 1), det(1, 2), det(1, 3)]);
        rig.sim.run();
        let seen = rig.seen.lock().unwrap();
        assert_eq!(seen.acks.len(), 1, "a batch is acknowledged exactly once");
        assert_eq!(seen.acks[0], vec![0, 3, 0]);
        assert_eq!(rig.sim.stats().get("el_records"), 3);
        assert_eq!(rig.sim.stats().get("el_batches"), 1);
        assert_eq!(rig.sim.stats().get("el_ack_samples"), 1);
    }
}
