//! The causal message logging V-protocol (paper §III).
//!
//! One implementation hosts all three piggyback-reduction techniques
//! behind [`Reduction`], with or without the Event Logger, exactly like
//! the paper's shared `Vcausal` V-protocol hosts the Manetho and LogOn
//! piggyback methods (Figure 4).
//!
//! Fault-free path: every reception creates a determinant which is added
//! to the causality store and (with an EL) shipped asynchronously to the
//! Event Logger; every emission piggybacks the determinants the
//! destination may miss; EL acknowledgements garbage-collect stable
//! determinants everywhere.
//!
//! Recovery (paper §III-A): the restarted process restores its last
//! checkpoint image, then *"collects from the EL and from every other
//! alive node all the causality information and conforms its execution to
//! this information until it reaches the same state as preceding the
//! crash"*. Payloads are re-obtained from the senders' volatile logs and
//! deliveries are replayed in determinant order; messages that arrive
//! meanwhile are buffered and re-accepted afterwards.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use vlog_sim::{profiler, SimDuration, SimTime};
use vlog_vmpi::{
    AppMsg, Ctx, ElReshard, Payload, PiggybackBlob, ProtoBlob, ProtoPhase, RClock, Rank,
    RankStatCell, RecvGate, SchedulerCmd, SendGate, SharedRankStats, Ssn, Tag, VProtocol,
};

use crate::costs::CausalCosts;
use crate::detseq::DetSeq;
use crate::el::{el_batch_bytes, ElBatcher, ElMsg, ElReply};
use crate::event::Determinant;
use crate::piggyback::{watermarks_len, PbBody, PbFormat};
use crate::reduction::{make_reduction, Reduction, Technique};
use crate::sender_log::SenderLog;

/// Control messages between causal protocol instances.
pub enum CausalCtl {
    /// Recovery request: send me your causality knowledge and re-send
    /// your logged payloads for me from my channel watermarks.
    /// `recovery_id` names the victim's restart incarnation so retried
    /// reclaims of the *same* recovery don't trigger duplicate payload
    /// re-sends, while a later crash (new id) resets the dedupe.
    Reclaim {
        victim: Rank,
        from_clock: RClock,
        watermarks: Vec<Ssn>,
        recovery_id: u64,
    },
    /// Causality knowledge response.
    ReclaimResp { from: Rank, dets: Vec<Determinant> },
    /// Checkpoint-commit notice: my image covers receptions below these
    /// per-sender sequence numbers — prune your sender logs. `stable` is
    /// the sender's EL-stability vector at commit time: determinants at
    /// or below it are safely logged, so peers may prune them from
    /// piggybacks *on this channel* (send-side pruning).
    GcNotice {
        from: Rank,
        received: Vec<Ssn>,
        stable: Vec<RClock>,
    },
}

/// Protocol section of a checkpoint image.
pub struct CausalBlob {
    red: Box<dyn Reduction>,
    slog: SenderLog,
    rclock: RClock,
    stable: Vec<RClock>,
}

impl CausalBlob {
    fn wire_bytes(&self, n: usize) -> u64 {
        Determinant::BODY_BYTES * self.red.retained_count() as u64
            + self.slog.payload_bytes()
            + 16 * self.slog.len() as u64
            + 16 * n as u64
    }
}

/// A message buffered while recovering.
struct SupplyMsg {
    tag: Tag,
    payload: Payload,
    piggyback: PiggybackBlob,
    replayed: bool,
}

/// Recovery bookkeeping.
struct Recovery {
    started: SimTime,
    /// Reception clock covered by the restored image.
    wm: RClock,
    /// Determinants to replay, in clock order.
    collected: DetSeq,
    /// Buffered message arrivals keyed by (sender, ssn).
    supply: BTreeMap<(Rank, Ssn), SupplyMsg>,
    /// Next clock to replay.
    next: RClock,
    /// Peers that answered the reclaim.
    resp_from: BTreeSet<Rank>,
    /// The Event Logger answered.
    resp_el: bool,
    /// Still waiting for responses.
    collecting: bool,
    /// Highest collected clock (0 before collection completes).
    max_clock: RClock,
}

/// Retry period for unanswered recovery requests (peers may themselves be
/// down and restart later).
const RECLAIM_RETRY: SimDuration = SimDuration::from_millis(200);
const TIMER_RECLAIM: u64 = 1;

/// The causal message logging protocol for one rank.
pub struct CausalProtocol {
    technique: Technique,
    /// Piggyback wire format (sizes only — determinants travel in
    /// structured form inside the simulation; see `piggyback`).
    format: PbFormat,
    el: bool,
    rank: Rank,
    n: usize,
    costs: CausalCosts,
    /// Lock-free stats delta; flushed into the shared handle when the
    /// incarnation drops (crash or end-of-run).
    stats: RankStatCell,

    red: Box<dyn Reduction>,
    slog: SenderLog,
    /// Reception clock: the last event created here.
    rclock: RClock,
    /// EL stability watermarks (all ranks).
    stable: Vec<RClock>,

    /// Scheduler asked for a checkpoint.
    ckpt_due: bool,
    /// Receive watermarks captured per assembled image version. GC
    /// notices must carry the watermarks of the *committed* version:
    /// with slow image transfers several checkpoints overlap in flight,
    /// and pruning with a newer version's watermarks would delete logged
    /// payloads a victim restored from the older image still needs.
    ckpt_expected: BTreeMap<u64, Vec<Ssn>>,

    rec: Option<Recovery>,
    /// Wheel handle of the armed reclaim retry timer, cancelled as soon
    /// as collection completes instead of left to fire as a stale no-op.
    reclaim_timer: Option<vlog_sim::TimerHandle>,
    /// Ack-clocked record batcher on the ship-to-EL path.
    batcher: ElBatcher,
    /// Monotone count of record batches put on the wire — the causality
    /// log's batch sequence numbers (acks arrive one per batch, in
    /// order, so the oldest outstanding seq pairs with each ack).
    batches_sent: u64,
    /// Outstanding batch seqs, oldest first (≤1 entry in steady state).
    el_outstanding: std::collections::VecDeque<u64>,
}

impl CausalProtocol {
    pub fn new(
        technique: Technique,
        format: PbFormat,
        el: bool,
        rank: Rank,
        n: usize,
        costs: CausalCosts,
        stats: SharedRankStats,
    ) -> Self {
        CausalProtocol {
            technique,
            format,
            el,
            rank,
            n,
            costs,
            stats: RankStatCell::new(stats),
            red: make_reduction(technique, n),
            slog: SenderLog::new(n),
            rclock: 0,
            stable: vec![0; n],
            ckpt_due: false,
            ckpt_expected: BTreeMap::new(),
            rec: None,
            reclaim_timer: None,
            batcher: ElBatcher::new(),
            batches_sent: 0,
            el_outstanding: std::collections::VecDeque::new(),
        }
    }

    fn el_actor(&self, ctx: &Ctx<'_>) -> Option<vlog_sim::ActorId> {
        if self.el {
            // With distributed Event Loggers, each rank logs to its
            // assigned shard (round-robin; see `el_multi`). Routed
            // through the epoch-cached topology view: zero locks on the
            // per-reception ship path.
            ctx.core.topo_view().el_for(self.rank).map(|(a, _)| a)
        } else {
            None
        }
    }

    fn ship_to_el(&mut self, ctx: &mut Ctx<'_>, det: Determinant) {
        if self.el_actor(ctx).is_none() {
            return;
        }
        crate::el::record_el_outstanding(ctx.sim, det.clock, self.stable[self.rank]);
        // Ack-clocked batching: ship immediately on an idle line,
        // coalesce behind the in-flight batch otherwise (the ack flushes
        // it). The phase boundary marks a *wire* shipment, so armed
        // phase faults keep firing on actual record traffic.
        if let Some(batch) = self.batcher.offer(det) {
            self.send_batch(ctx, batch);
            ctx.phase_boundary(ProtoPhase::DeterminantShipped);
        }
    }

    fn send_batch(&mut self, ctx: &mut Ctx<'_>, batch: Vec<Determinant>) {
        if let Some(el) = self.el_actor(ctx) {
            self.batches_sent += 1;
            let seq = self.batches_sent;
            self.el_outstanding.push_back(seq);
            vlog_sim::event!("det-batch-shipped" { rank = self.rank, seq = seq });
            vlog_sim::causality::expect(
                vlog_sim::ckey!("det-batch-acked", rank = self.rank, seq = seq),
                vlog_sim::ckey!("det-batch-shipped", rank = self.rank, seq = seq),
                self.rank as u64,
            );
            let me = ctx.core.actor();
            ctx.core.control_to_actor(
                ctx.sim,
                el,
                el_batch_bytes(batch.len()),
                Box::new(ElMsg::Record {
                    from: self.rank,
                    dets: batch,
                    reply_to: me,
                }),
            );
        }
    }

    /// An Event Logger shard died and the topology republished its
    /// rank→shard map. Re-route to the (possibly new) shard and hand
    /// over every determinant of this rank not yet acknowledged stable:
    /// the batcher's shipped-but-unacked and coalescing records plus the
    /// retained causality store above the stable watermark. Keyed by
    /// clock so the two sources dedupe; offered in clock order so the
    /// new shard sees a monotone sequence.
    fn handle_reshard(&mut self, ctx: &mut Ctx<'_>, _reshard: ElReshard) {
        if self.el_actor(ctx).is_none() {
            return;
        }
        // The dead shard will never acknowledge the in-flight batches:
        // their ack expectations are moot, not dangling — the records
        // are re-offered to the replacement shard below under fresh
        // batch seqs.
        for seq in self.el_outstanding.drain(..) {
            vlog_sim::causality::cancel(vlog_sim::ckey!(
                "det-batch-acked",
                rank = self.rank,
                seq = seq
            ));
        }
        let mut handoff = DetSeq::new();
        for det in self.batcher.take_unacked() {
            handoff.insert(det);
        }
        for det in self.red.retained_of(self.rank, self.stable[self.rank]) {
            handoff.insert(det);
        }
        for det in handoff.iter() {
            if let Some(batch) = self.batcher.offer(*det) {
                self.send_batch(ctx, batch);
            }
        }
    }

    fn integrate_cost(&self, dets: usize, inserts: u64, visits: u64) -> SimDuration {
        let c = &self.costs;
        let ns = match self.technique {
            Technique::Vcausal => c.integrate_event_ns * dets as u64,
            Technique::Manetho => c.graph_insert_ns * inserts + c.graph_visit_ns * visits,
            Technique::LogOn => c.logon_insert_ns * inserts + c.graph_visit_ns * visits,
        };
        SimDuration::from_nanos(ns)
    }

    fn build_cost(&self, emitted: usize, visits: u64) -> SimDuration {
        let c = &self.costs;
        let ns = match self.technique {
            Technique::Vcausal => c.serialize_event_ns * emitted as u64 + c.graph_visit_ns * visits,
            Technique::Manetho => c.serialize_event_ns * emitted as u64 + c.graph_visit_ns * visits,
            Technique::LogOn => {
                (c.serialize_event_ns + c.logon_reorder_ns) * emitted as u64
                    + c.graph_visit_ns * visits
            }
        };
        SimDuration::from_nanos(ns + self.mem_penalty_ns())
    }

    /// Cache-pressure penalty of the causality store, growing with the
    /// number of retained determinants (see `CausalCosts`).
    fn mem_penalty_ns(&self) -> u64 {
        let retained = self.red.retained_count() as u64;
        let k = match self.technique {
            Technique::Vcausal => self.costs.mem_ns_log2_seq,
            _ => self.costs.mem_ns_log2_graph,
        };
        k * (64 - (retained + 1).leading_zeros() as u64)
    }

    fn apply_stable_vec(&mut self, stable: &[RClock]) {
        for c in 0..self.n {
            self.stable[c] = self.stable[c].max(stable[c]);
        }
        self.red.apply_stable(&self.stable);
        // Monotone watermark assignment; the merge law is `max`, so the
        // end-of-run flush reproduces the last (highest) value exactly.
        self.stats.local().el_acked_events = self.stable[self.rank];
    }

    // ---- recovery ----------------------------------------------------

    fn send_reclaims(&mut self, ctx: &mut Ctx<'_>) {
        let wm = self.rec.as_ref().map_or(0, |r| r.wm);
        // The restart instant names this incarnation: a second crash
        // starts later, so its id differs and resets the peers' dedupe.
        let recovery_id = self.rec.as_ref().map_or(0, |r| r.started.as_nanos());
        let watermarks = ctx.core.expected_watermarks();
        let already: BTreeSet<Rank> = self
            .rec
            .as_ref()
            .map(|r| r.resp_from.clone())
            .unwrap_or_default();
        for peer in 0..self.n {
            if peer == self.rank || already.contains(&peer) {
                continue;
            }
            vlog_sim::causality::expect(
                vlog_sim::ckey!("reclaim-resp", victim = self.rank, from = peer),
                vlog_sim::ckey!("recovery-started", rank = self.rank),
                self.rank as u64,
            );
            ctx.core.control_to_rank(
                ctx.sim,
                peer,
                32 + 8 * self.n as u64,
                Box::new(CausalCtl::Reclaim {
                    victim: self.rank,
                    from_clock: wm,
                    watermarks: watermarks.clone(),
                    recovery_id,
                }),
            );
        }
        let need_el = self.el && !self.rec.as_ref().is_some_and(|r| r.resp_el);
        if need_el {
            vlog_sim::causality::expect(
                vlog_sim::ckey!("el-query-resp", victim = self.rank),
                vlog_sim::ckey!("recovery-started", rank = self.rank),
                self.rank as u64,
            );
            if let Some(el) = self.el_actor(ctx) {
                let me = ctx.core.actor();
                ctx.core.control_to_actor(
                    ctx.sim,
                    el,
                    16,
                    Box::new(ElMsg::Query {
                        victim: self.rank,
                        from: wm,
                        reply_to: me,
                    }),
                );
            }
        }
    }

    fn collection_complete(&self) -> bool {
        let Some(rec) = &self.rec else { return false };
        rec.resp_from.len() == self.n - 1 && (!self.el || rec.resp_el)
    }

    fn maybe_finish_collection(&mut self, ctx: &mut Ctx<'_>) {
        if !self.collection_complete() {
            return;
        }
        // Collection is done: the retry timer has nothing left to retry.
        if let Some(h) = self.reclaim_timer.take() {
            ctx.core.cancel_proto_timer(ctx.sim, h);
        }
        let now = ctx.sim.now();
        let rec = self.rec.as_mut().unwrap();
        if rec.collecting {
            rec.collecting = false;
            rec.max_clock = rec.collected.last().map_or(rec.wm, |d| d.clock);
            let dt = now.saturating_since(rec.started);
            self.stats.local().recovery_collect.push(dt);
        }
        self.try_replay(ctx);
    }

    fn try_replay(&mut self, ctx: &mut Ctx<'_>) {
        enum Step {
            Done,
            Wait,
            Deliver(Determinant, SupplyMsg),
        }
        loop {
            let step = {
                let Some(rec) = self.rec.as_mut() else { return };
                if rec.collecting {
                    return;
                }
                match rec.collected.get(rec.next).copied() {
                    // No determinant at `next`: either replay is complete
                    // or a gap means the tail was lost consistently with
                    // the rest of the system — both end the replay.
                    None => {
                        if rec.next > rec.max_clock {
                            Step::Done
                        } else {
                            vlog_sim::causality::expect(
                                vlog_sim::ckey!("det-replay", rank = self.rank, clock = rec.next),
                                vlog_sim::ckey!("recovery-started", rank = self.rank),
                                self.rank as u64,
                            );
                            Step::Wait
                        }
                    }
                    Some(det) => match rec.supply.remove(&(det.sender, det.ssn)) {
                        Some(supply) => {
                            rec.next += 1;
                            Step::Deliver(det, supply)
                        }
                        None => {
                            // Stalled on the payload re-send: the next
                            // determinant is known but its message has
                            // not been re-supplied by the sender's log.
                            vlog_sim::causality::expect(
                                vlog_sim::ckey!(
                                    "replay-supply",
                                    rank = self.rank,
                                    sender = det.sender,
                                    ssn = det.ssn
                                ),
                                vlog_sim::ckey!("det-replay", rank = self.rank, clock = det.clock),
                                self.rank as u64,
                            );
                            Step::Wait // wait for the payload re-send
                        }
                    },
                }
            };
            match step {
                Step::Done => {
                    self.finish_replay(ctx);
                    return;
                }
                Step::Wait => return,
                Step::Deliver(det, supply) => {
                    vlog_sim::event!("replay-consumed" { rank = self.rank, clock = det.clock }
                    caused_by "replay-supply" {
                        rank = self.rank,
                        sender = det.sender,
                        ssn = det.ssn
                    });
                    self.rclock = det.clock;
                    if self.el && det.clock > self.stable[self.rank] {
                        self.ship_to_el(ctx, det);
                    }
                    ctx.core.inject_deliver(
                        det.sender,
                        supply.tag,
                        supply.payload,
                        SimDuration::from_nanos(self.costs.event_create_ns),
                    );
                }
            }
        }
    }

    fn finish_replay(&mut self, ctx: &mut Ctx<'_>) {
        let rec = self.rec.take().unwrap();
        ctx.core.set_recovered(ctx.sim);
        // Re-accept buffered live messages in channel order.
        for ((src, ssn), m) in rec.supply {
            ctx.core.reaccept(AppMsg {
                src,
                dst: self.rank,
                tag: m.tag,
                ssn,
                payload: m.payload,
                piggyback: m.piggyback,
                replayed: m.replayed,
            });
        }
    }

    fn handle_ctl(&mut self, ctx: &mut Ctx<'_>, ctl: CausalCtl) {
        match ctl {
            CausalCtl::Reclaim {
                victim,
                from_clock,
                watermarks,
                recovery_id,
            } => {
                // Causality knowledge: everything retained (with an EL the
                // store is small — that is the entire point of the paper).
                let dets = self.red.retained();
                let bytes = 8 + (Determinant::BODY_BYTES + 2) * dets.len() as u64;
                let cost =
                    SimDuration::from_nanos(self.costs.serialize_event_ns * dets.len() as u64);
                ctx.sim.charge_cpu(ctx.core.node(), cost);
                ctx.core.control_to_rank(
                    ctx.sim,
                    victim,
                    bytes,
                    Box::new(CausalCtl::ReclaimResp {
                        from: self.rank,
                        dets,
                    }),
                );
                // Payload re-sends from the sender-based log. A retried
                // reclaim of the same incarnation resumes past what was
                // already shipped instead of re-sending everything.
                let from_ssn = self
                    .slog
                    .replay_start(victim, recovery_id, watermarks[self.rank]);
                let entries: Vec<(Ssn, Tag, Payload)> = self
                    .slog
                    .entries_from(victim, from_ssn)
                    .map(|(ssn, e)| (ssn, e.tag, e.payload.clone()))
                    .collect();
                let next = entries.last().map_or(from_ssn, |(ssn, _, _)| ssn + 1);
                self.slog.note_shipped(victim, recovery_id, next);
                for (ssn, tag, payload) in entries {
                    ctx.core.transmit_replay(ctx.sim, victim, tag, ssn, payload);
                }
                let _ = from_clock;
            }
            CausalCtl::ReclaimResp { from, dets } => {
                vlog_sim::event!("reclaim-resp" { victim = self.rank, from = from });
                self.red.absorb(&dets);
                if let Some(rec) = self.rec.as_mut() {
                    for d in &dets {
                        if d.receiver == self.rank && d.clock > rec.wm {
                            rec.collected.insert(*d);
                            vlog_sim::event!("det-replay" { rank = self.rank, clock = d.clock }
                                caused_by "reclaim-resp" { victim = self.rank, from = from });
                        }
                    }
                    rec.resp_from.insert(from);
                    self.maybe_finish_collection(ctx);
                }
            }
            CausalCtl::GcNotice {
                from,
                received,
                stable,
            } => {
                vlog_sim::causality::consume(
                    vlog_sim::ckey!("gc-notice", from = from, to = self.rank),
                    vlog_sim::ckey!("gc-handle", rank = self.rank),
                );
                self.slog.prune_below(from, received[self.rank]);
                // Send-side pruning: `from` vouches these clocks are
                // EL-stable, so piggybacks *to it* can skip them. Peer
                // knowledge only — global stability still comes solely
                // from EL acknowledgements.
                self.red.note_peer_stable(from, &stable);
            }
        }
    }

    fn handle_el_reply(&mut self, ctx: &mut Ctx<'_>, reply: ElReply) {
        match reply {
            ElReply::Ack { stable } => {
                ctx.sim.charge_cpu(
                    ctx.core.node(),
                    SimDuration::from_nanos(self.costs.el_ack_ns),
                );
                // One ack per record batch, in order: pair it with the
                // oldest outstanding seq.
                if let Some(seq) = self.el_outstanding.pop_front() {
                    vlog_sim::event!("det-batch-acked" { rank = self.rank, seq = seq }
                        caused_by "det-batch-shipped" { rank = self.rank, seq = seq });
                }
                self.apply_stable_vec(&stable);
                // The ack clocks the batcher: flush whatever coalesced
                // behind the just-acknowledged batch.
                if let Some(batch) = self.batcher.acked() {
                    self.send_batch(ctx, batch);
                }
                ctx.phase_boundary(ProtoPhase::AckReceived);
            }
            ElReply::QueryResp { dets, stable } => {
                vlog_sim::event!("el-query-resp" { victim = self.rank });
                self.apply_stable_vec(&stable);
                if let Some(rec) = self.rec.as_mut() {
                    for d in &dets {
                        debug_assert_eq!(d.receiver, self.rank);
                        if d.clock > rec.wm {
                            rec.collected.insert(*d);
                            vlog_sim::event!("det-replay" { rank = self.rank, clock = d.clock }
                                caused_by "el-query-resp" { victim = self.rank });
                        }
                    }
                    rec.resp_el = true;
                    self.maybe_finish_collection(ctx);
                }
            }
        }
    }
}

impl VProtocol for CausalProtocol {
    fn name(&self) -> String {
        format!(
            "{}{}",
            self.technique.label(),
            if self.el { "+EL" } else { "" }
        )
    }

    fn on_send_accept(
        &mut self,
        _ctx: &mut Ctx<'_>,
        dst: Rank,
        tag: Tag,
        ssn: Ssn,
        payload: &Payload,
    ) -> SendGate {
        let inserted = self.slog.insert(dst, ssn, tag, payload);
        let cost = if inserted {
            self.costs.sender_log_cost(payload.len())
        } else {
            SimDuration::ZERO
        };
        SendGate::Go { cost }
    }

    fn on_transmit(
        &mut self,
        _ctx: &mut Ctx<'_>,
        dst: Rank,
        _ssn: Ssn,
    ) -> (PiggybackBlob, SimDuration) {
        let _codec = profiler::scope(profiler::Phase::Codec);
        let (dets, work) = self.red.build(dst, self.rclock);
        let bytes = self.format.wire_len(&dets);
        let cost = self.build_cost(dets.len(), work.visits);
        self.stats.local().pb_events_sent += dets.len() as u64;
        let body = PbBody {
            sender_clock: self.rclock,
            dets,
        };
        (
            PiggybackBlob {
                body: Some(Box::new(body)),
                bytes,
            },
            cost,
        )
    }

    fn on_app_msg(&mut self, ctx: &mut Ctx<'_>, msg: &mut AppMsg) -> RecvGate {
        if self.rec.is_some() {
            // Buffer everything while recovering: replay supply or
            // post-replay live traffic; sorted out when collection ends.
            vlog_sim::event!("replay-supply" {
                rank = self.rank,
                sender = msg.src,
                ssn = msg.ssn
            });
            let key = (msg.src, msg.ssn);
            let supply = SupplyMsg {
                tag: msg.tag,
                payload: std::mem::take(&mut msg.payload),
                piggyback: std::mem::replace(&mut msg.piggyback, PiggybackBlob::empty()),
                replayed: msg.replayed,
            };
            let rec = self.rec.as_mut().unwrap();
            rec.supply.entry(key).or_insert(supply);
            self.try_replay(ctx);
            return RecvGate::Consume;
        }
        // Normal path: create the reception event.
        let body = msg
            .piggyback
            .body
            .take()
            .and_then(|b| b.downcast::<PbBody>().ok());
        let (sender_clock, dets) = match body {
            Some(b) => (b.sender_clock, b.dets),
            None => (0, Vec::new()),
        };
        self.rclock += 1;
        let det = Determinant {
            receiver: self.rank,
            clock: self.rclock,
            sender: msg.src,
            ssn: msg.ssn,
            cause: sender_clock,
        };
        let (w_add, w_int) = {
            let _codec = profiler::scope(profiler::Phase::Codec);
            (
                self.red.add_local(det),
                self.red.integrate(msg.src, sender_clock, &dets),
            )
        };
        self.ship_to_el(ctx, det);
        // The Figure 8 "receive" metric is the piggyback-management part
        // only: integrating the piggybacked determinants into the store.
        let pb_part = SimDuration::from_nanos(self.mem_penalty_ns())
            + self.integrate_cost(dets.len(), w_int.inserts + w_add.inserts, w_int.visits);
        self.stats.local().pb_recv_time += pb_part;
        let mut cost = SimDuration::from_nanos(self.costs.event_create_ns) + pb_part;
        if self.el {
            cost += SimDuration::from_nanos(self.costs.el_ship_ns);
        }
        RecvGate::Deliver { cost }
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, body: Box<dyn std::any::Any + Send>) {
        let body = match body.downcast::<ElReply>() {
            Ok(r) => {
                self.handle_el_reply(ctx, *r);
                return;
            }
            Err(b) => b,
        };
        let body = match body.downcast::<CausalCtl>() {
            Ok(c) => {
                self.handle_ctl(ctx, *c);
                return;
            }
            Err(b) => b,
        };
        let body = match body.downcast::<ElReshard>() {
            Ok(r) => {
                self.handle_reshard(ctx, *r);
                return;
            }
            Err(b) => b,
        };
        if let Ok(cmd) = body.downcast::<SchedulerCmd>() {
            if matches!(*cmd, SchedulerCmd::TakeCheckpoint) {
                self.ckpt_due = true;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_RECLAIM && self.rec.as_ref().is_some_and(|r| r.collecting) {
            self.send_reclaims(ctx);
            self.reclaim_timer = Some(ctx.core.set_proto_timer(
                ctx.sim,
                RECLAIM_RETRY,
                TIMER_RECLAIM,
            ));
        }
    }

    fn checkpoint_due(&mut self, _ctx: &mut Ctx<'_>) -> bool {
        std::mem::take(&mut self.ckpt_due)
    }

    fn on_image_assembled(&mut self, ctx: &mut Ctx<'_>, version: u64) {
        self.ckpt_expected
            .insert(version, ctx.core.expected_watermarks());
        ctx.core.request_ship();
    }

    fn checkpoint_blob(&mut self, _ctx: &mut Ctx<'_>) -> ProtoBlob {
        let blob = CausalBlob {
            red: self.red.clone_box(),
            slog: self.slog.clone(),
            rclock: self.rclock,
            stable: self.stable.clone(),
        };
        let bytes = blob.wire_bytes(self.n);
        ProtoBlob {
            body: Some(Arc::new(blob)),
            bytes,
        }
    }

    fn on_checkpoint_committed(&mut self, ctx: &mut Ctx<'_>, version: u64) {
        // Prune with exactly the committed version's watermarks; newer
        // in-flight images may never complete before a crash.
        let Some(received) = self.ckpt_expected.remove(&version) else {
            return;
        };
        self.ckpt_expected.retain(|v, _| *v > version);
        // The stability vector rides along RLE-compressed (it is mostly
        // long flat runs), so the notice grows by a few bytes, not 8*n.
        let wire = 8 + 8 * self.n as u64 + watermarks_len(&self.stable);
        for peer in 0..self.n {
            if peer != self.rank {
                vlog_sim::event!("gc-notice" { from = self.rank, to = peer });
                ctx.core.control_to_rank(
                    ctx.sim,
                    peer,
                    wire,
                    Box::new(CausalCtl::GcNotice {
                        from: self.rank,
                        received: received.clone(),
                        stable: self.stable.clone(),
                    }),
                );
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>, blob: Option<ProtoBlob>) {
        let wm = match blob.and_then(|b| b.body) {
            Some(body) => match body.downcast::<CausalBlob>() {
                Ok(b) => {
                    self.red = b.red.clone_box();
                    self.slog = b.slog.clone();
                    self.rclock = b.rclock;
                    self.stable = b.stable.clone();
                    b.rclock
                }
                Err(_) => 0,
            },
            None => 0,
        };
        vlog_sim::event!("recovery-started" { rank = self.rank }
            caused_by "image-fetched" { rank = self.rank });
        self.rec = Some(Recovery {
            started: ctx.sim.now(),
            wm,
            collected: DetSeq::new(),
            supply: BTreeMap::new(),
            next: wm + 1,
            resp_from: BTreeSet::new(),
            resp_el: false,
            collecting: true,
            max_clock: 0,
        });
        if self.n == 1 && !self.el {
            // Nothing to collect.
            let rec = self.rec.as_mut().unwrap();
            rec.collecting = false;
            self.stats.local().recovery_collect.push(SimDuration::ZERO);
            self.finish_replay(ctx);
            return;
        }
        self.send_reclaims(ctx);
        self.reclaim_timer = Some(
            ctx.core
                .set_proto_timer(ctx.sim, RECLAIM_RETRY, TIMER_RECLAIM),
        );
        if self.n == 1 {
            self.maybe_finish_collection(ctx);
        }
    }
}
