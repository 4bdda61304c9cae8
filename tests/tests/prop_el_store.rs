//! Model-based tests of the Event Logger's record store.
//!
//! An `ElShard` keeps its records in a `DetStore` fed through
//! `DetStore::append`; a `Vec` per creator that pushes a record only when
//! its clock is above the last one pushed answers the same traffic with
//! no store at all. Random scripts of record batches per creator — in
//! order, re-shipped over records already logged (with other contents,
//! so the first copy must be the one kept) and jumping ahead the way a
//! re-shard handoff does — mixed with recovery queries and peer gossip
//! must get the same acknowledgements, the same query responses in the
//! same order and the same record counters from both.
//!
//! Each script runs through the installed server, once as the paper's
//! single Event Logger and once as two shards with rank `r` logging to
//! shard `r mod 2`. The gossip period is far longer than a script, so
//! every merged clock a shard reports comes from its own records and the
//! scripted gossip steps.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use vlog_core::{install_distributed_el, Determinant, ElMsg, ElReply};
use vlog_sim::{Actor, ActorId, Counter, Delivery, Sim, SimDuration, SimTime};
use vlog_vmpi::{control, ClusterState, RClock, Rank};

const N: usize = 4;

/// Far beyond any script: no shard gossips on its own during one.
const GOSSIP: SimDuration = SimDuration::from_secs(1000);

/// What a shard sent back, in arrival order.
#[derive(Debug, Clone, PartialEq)]
enum Reply {
    Ack(Vec<RClock>),
    Resp(Vec<Determinant>, Vec<RClock>),
}

/// One shard's replies, as the probe standing in for its ranks saw them.
struct Probe(Arc<Mutex<Vec<Reply>>>);

impl Actor for Probe {
    fn on_deliver(&mut self, _sim: &mut Sim, _me: ActorId, msg: Delivery) {
        let Ok(reply) = msg.body.downcast::<ElReply>() else {
            return;
        };
        let reply = match *reply {
            ElReply::Ack { stable } => Reply::Ack(stable),
            ElReply::QueryResp { dets, stable } => Reply::Resp(dets, stable),
        };
        self.0.lock().unwrap().push(reply);
    }
}

/// One shard as it was before its records moved into a `DetStore`.
#[derive(Clone)]
struct Model {
    stored: Vec<Vec<Determinant>>,
    merged: Vec<RClock>,
    replies: Vec<Reply>,
}

impl Model {
    fn new() -> Self {
        Model {
            stored: vec![Vec::new(); N],
            merged: vec![0; N],
            replies: Vec::new(),
        }
    }

    fn head(&self, creator: Rank) -> RClock {
        self.stored[creator].last().map_or(0, |d| d.clock)
    }

    /// Stores each record above its creator's last one; returns how many
    /// were new and how many were duplicates.
    fn record(&mut self, dets: &[Determinant]) -> (u64, u64) {
        let mut fresh = 0;
        for det in dets {
            let seq = &mut self.stored[det.receiver];
            if seq.last().is_none_or(|last| last.clock < det.clock) {
                seq.push(*det);
                self.merged[det.receiver] = self.merged[det.receiver].max(det.clock);
                fresh += 1;
            }
        }
        self.replies.push(Reply::Ack(self.merged.clone()));
        (fresh, dets.len() as u64 - fresh)
    }

    fn query(&mut self, victim: Rank, from: RClock) {
        let dets = self.stored[victim]
            .iter()
            .filter(|d| d.clock > from)
            .copied()
            .collect();
        self.replies.push(Reply::Resp(dets, self.merged.clone()));
    }

    fn gossip(&mut self, stable: &[RClock]) {
        for (merged, &gossiped) in self.merged.iter_mut().zip(stable) {
            *merged = (*merged).max(gossiped);
        }
    }
}

fn det(receiver: Rank, clock: RClock, salt: u64) -> Determinant {
    Determinant {
        receiver,
        clock,
        sender: (receiver + 1 + salt as usize % (N - 1)) % N,
        ssn: salt,
        cause: salt % clock,
    }
}

/// One scripted step: `(kind, creator, a, b)`.
fn script() -> impl Strategy<Value = Vec<(u8, Rank, u64, u64)>> {
    prop::collection::vec((0u8..9, 0..N, 0u64..16, 0u64..16), 1..60)
}

/// Runs `ops` through `k` installed shards and through one model per
/// shard, and compares every reply and the record counters.
fn check(ops: &[(u8, Rank, u64, u64)], k: usize) {
    let mut sim = Sim::new();
    let client = sim.add_node();
    let el_node = sim.add_node();
    let seen: Vec<Arc<Mutex<Vec<Reply>>>> = (0..k).map(|_| Arc::default()).collect();
    let probes: Vec<ActorId> = seen
        .iter()
        .map(|s| sim.add_actor(client, Box::new(Probe(s.clone()))))
        .collect();
    sim.install(ClusterState::with_ranks(
        (0..N).map(|r| probes[r % k]).collect(),
        vec![client; N],
    ));
    let els = install_distributed_el(&mut sim, el_node, k, GOSSIP);
    let mut models = vec![Model::new(); k];
    let (mut records, mut duplicates) = (0, 0);
    for (step, &(kind, c, a, b)) in ops.iter().enumerate() {
        let salt = step as u64;
        let shard = c % k;
        let (el, reply_to) = (els[shard].0, probes[shard]);
        let model = &mut models[shard];
        let head = model.head(c);
        let body = match kind {
            // A batch in order, re-shipped over the logged tail (other
            // contents), or jumping ahead past missing clocks. Reception
            // clocks start at 1.
            0..=4 => {
                let start = match kind {
                    0 | 1 => head + 1,
                    2 | 3 => (head + 1).saturating_sub(1 + a % 6).max(1),
                    _ => head + 2 + a % 5,
                };
                let dets: Vec<Determinant> = (start..=start + b % 6)
                    .map(|clock| det(c, clock, salt))
                    .collect();
                let (fresh, dup) = model.record(&dets);
                records += fresh;
                duplicates += dup;
                ElMsg::Record { dets, reply_to }
            }
            // A recovery query from nothing, from inside the logged
            // range, from the head, from above it, and from the maximum.
            5..=7 => {
                let from = match a % 5 {
                    0 => 0,
                    1 => b * head / 15,
                    2 => head,
                    3 => head + 1 + b % 3,
                    _ => RClock::MAX,
                };
                model.query(c, from);
                ElMsg::Query {
                    victim: c,
                    from,
                    reply_to,
                }
            }
            // A peer shard's gossip.
            _ => {
                let stable: Vec<RClock> = (0..N as u64).map(|i| (a * (i + 1) + b) % 24).collect();
                model.gossip(&stable);
                ElMsg::Gossip { stable }
            }
        };
        control::send(&mut sim, client, el, body);
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(100));
    for (shard, model) in models.iter().enumerate() {
        let got = seen[shard].lock().unwrap();
        assert_eq!(*got, model.replies, "shard {shard} of {k}");
    }
    let stats = sim.stats();
    assert_eq!(stats.counter(Counter::ElRecords), records, "{k} shards");
    assert_eq!(
        stats.counter(Counter::ElDuplicateRecords),
        duplicates,
        "{k} shards"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn el_store_matches_the_vec_per_creator_model(ops in script()) {
        check(&ops, 1);
        check(&ops, 2);
    }
}
