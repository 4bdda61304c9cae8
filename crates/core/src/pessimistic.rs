//! Sender-based pessimistic message logging (the MPICH-V2 protocol,
//! Bouteiller et al. SC'2003) — the Figure 1 baseline.
//!
//! *"Pessimistic message logging protocols ensure that all events of a
//! process P are safely logged on stable storage before P can impact the
//! system (sending a message) at the cost of synchronous operations."*
//!
//! Implementation: every reception ships its determinant to the Event
//! Logger like the causal protocols, but an outgoing message is *held* in
//! the daemon until the EL has acknowledged every event that precedes it
//! locally. No piggybacking at all; recovery gets every determinant from
//! the EL and payloads from the senders' logs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use vlog_sim::{SimDuration, SimTime};
use vlog_vmpi::{
    AppMsg, Ctx, ElReshard, Payload, PiggybackBlob, ProtoBlob, ProtoPhase, RClock, Rank,
    RankStatCell, RecvGate, SchedulerCmd, SendGate, SharedRankStats, Ssn, Tag, VProtocol,
};

use crate::causal::CausalCtl;
use crate::costs::CausalCosts;
use crate::detseq::DetSeq;
use crate::el::{el_batch_bytes, ElBatcher, ElMsg, ElReply};
use crate::event::Determinant;
use crate::sender_log::SenderLog;

/// Checkpoint-image section of the pessimistic protocol.
pub struct PessimisticBlob {
    slog: SenderLog,
    rclock: RClock,
    stable_own: RClock,
}

struct SupplyMsg {
    tag: Tag,
    payload: Payload,
    replayed: bool,
}

struct Recovery {
    started: SimTime,
    wm: RClock,
    collected: DetSeq,
    supply: BTreeMap<(Rank, Ssn), SupplyMsg>,
    next: RClock,
    resp_el: bool,
    resp_from: BTreeSet<Rank>,
    collecting: bool,
    max_clock: RClock,
}

const RECLAIM_RETRY: SimDuration = SimDuration::from_millis(200);
const TIMER_RECLAIM: u64 = 1;

/// The pessimistic V-protocol for one rank.
pub struct PessimisticProtocol {
    rank: Rank,
    n: usize,
    costs: CausalCosts,
    /// Lock-free stats delta; flushed into the shared handle when the
    /// incarnation drops (crash or end-of-run).
    stats: RankStatCell,
    slog: SenderLog,
    rclock: RClock,
    /// Highest own event acknowledged stable by the EL.
    stable_own: RClock,
    ckpt_due: bool,
    /// Per-version receive watermarks (see `CausalProtocol::ckpt_expected`
    /// — GC notices must match the committed version exactly).
    ckpt_expected: BTreeMap<u64, Vec<Ssn>>,
    rec: Option<Recovery>,
    /// Wheel handle of the armed reclaim retry timer, cancelled as soon
    /// as collection completes instead of left to fire as a stale no-op.
    reclaim_timer: Option<vlog_sim::TimerHandle>,
    /// Ack-clocked record batcher on the ship-to-EL path.
    batcher: ElBatcher,
    /// Monotone batch seq for the causality log (see `CausalProtocol`).
    batches_sent: u64,
    /// Outstanding batch seqs, oldest first.
    el_outstanding: std::collections::VecDeque<u64>,
}

impl PessimisticProtocol {
    pub fn new(rank: Rank, n: usize, costs: CausalCosts, stats: SharedRankStats) -> Self {
        PessimisticProtocol {
            rank,
            n,
            costs,
            stats: RankStatCell::new(stats),
            slog: SenderLog::new(n),
            rclock: 0,
            stable_own: 0,
            ckpt_due: false,
            ckpt_expected: BTreeMap::new(),
            rec: None,
            reclaim_timer: None,
            batcher: ElBatcher::new(),
            batches_sent: 0,
            el_outstanding: std::collections::VecDeque::new(),
        }
    }

    fn el_actor(&self, ctx: &Ctx<'_>) -> vlog_sim::ActorId {
        // Routed through the epoch-published shard map, so the protocol
        // follows a re-shard to its new Event Logger automatically.
        ctx.core
            .topo_view()
            .el_for(self.rank)
            .expect("pessimistic logging requires an Event Logger")
            .0
    }

    fn ship_to_el(&mut self, ctx: &mut Ctx<'_>, det: Determinant) {
        crate::el::record_el_outstanding(ctx.sim, det.clock, self.stable_own);
        // Ack-clocked batching (see `ElBatcher`); the held-send release
        // protocol is untouched because the EL still acknowledges every
        // record — just one coalesced ack per batch.
        if let Some(batch) = self.batcher.offer(det) {
            self.send_batch(ctx, batch);
            ctx.phase_boundary(ProtoPhase::DeterminantShipped);
        }
    }

    fn send_batch(&mut self, ctx: &mut Ctx<'_>, batch: Vec<Determinant>) {
        self.batches_sent += 1;
        let seq = self.batches_sent;
        self.el_outstanding.push_back(seq);
        vlog_sim::event!("det-batch-shipped" { rank = self.rank, seq = seq });
        vlog_sim::causality::expect(
            vlog_sim::ckey!("det-batch-acked", rank = self.rank, seq = seq),
            vlog_sim::ckey!("det-batch-shipped", rank = self.rank, seq = seq),
            self.rank as u64,
        );
        let el = self.el_actor(ctx);
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

    /// Re-shard handoff: the pessimistic protocol keeps no local
    /// determinant store (the EL has it all), so everything the dead
    /// shard may have lost is exactly the batcher's unacknowledged
    /// records — re-offer them toward the re-published shard.
    fn handle_reshard(&mut self, ctx: &mut Ctx<'_>, _reshard: ElReshard) {
        // The dead shard never acks the in-flight batches (see
        // `CausalProtocol::handle_reshard`).
        for seq in self.el_outstanding.drain(..) {
            vlog_sim::causality::cancel(vlog_sim::ckey!(
                "det-batch-acked",
                rank = self.rank,
                seq = seq
            ));
        }
        for det in self.batcher.take_unacked() {
            if let Some(batch) = self.batcher.offer(det) {
                self.send_batch(ctx, batch);
            }
        }
    }

    fn send_recovery_requests(&mut self, ctx: &mut Ctx<'_>) {
        let wm = self.rec.as_ref().map_or(0, |r| r.wm);
        let recovery_id = self.rec.as_ref().map_or(0, |r| r.started.as_nanos());
        let already: BTreeSet<Rank> = self
            .rec
            .as_ref()
            .map(|r| r.resp_from.clone())
            .unwrap_or_default();
        let watermarks = ctx.core.expected_watermarks();
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
        if !self.rec.as_ref().is_some_and(|r| r.resp_el) {
            vlog_sim::causality::expect(
                vlog_sim::ckey!("el-query-resp", victim = self.rank),
                vlog_sim::ckey!("recovery-started", rank = self.rank),
                self.rank as u64,
            );
            let el = self.el_actor(ctx);
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

    fn maybe_finish_collection(&mut self, ctx: &mut Ctx<'_>) {
        let complete = self
            .rec
            .as_ref()
            .is_some_and(|r| r.resp_el && r.resp_from.len() == self.n - 1);
        if !complete {
            return;
        }
        // Collection is done: the retry timer has nothing left to retry.
        if let Some(h) = self.reclaim_timer.take() {
            ctx.core.cancel_proto_timer(ctx.sim, h);
        }
        let now = ctx.sim.now();
        {
            let rec = self.rec.as_mut().unwrap();
            if rec.collecting {
                rec.collecting = false;
                rec.max_clock = rec.collected.last().map_or(rec.wm, |d| d.clock);
                let dt = now.saturating_since(rec.started);
                self.stats.local().recovery_collect.push(dt);
            }
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
                            Step::Wait
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
                    // Determinants collected from the EL are stable by
                    // definition of the pessimistic protocol.
                    self.stable_own = self.stable_own.max(det.clock);
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
        ctx.core.release_held();
        for ((src, ssn), m) in rec.supply {
            ctx.core.reaccept(AppMsg {
                src,
                dst: self.rank,
                tag: m.tag,
                ssn,
                payload: m.payload,
                piggyback: PiggybackBlob::empty(),
                replayed: m.replayed,
            });
        }
    }
}

impl VProtocol for PessimisticProtocol {
    fn name(&self) -> String {
        "Pessimistic+EL".into()
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
        // The pessimistic property: no impact on the system before every
        // local event is stable.
        if self.stable_own < self.rclock && self.rec.is_none() {
            return SendGate::Hold;
        }
        let cost = if inserted {
            self.costs.sender_log_cost(payload.len())
        } else {
            SimDuration::ZERO
        };
        SendGate::Go { cost }
    }

    fn on_app_msg(&mut self, ctx: &mut Ctx<'_>, msg: &mut AppMsg) -> RecvGate {
        if self.rec.is_some() {
            vlog_sim::event!("replay-supply" {
                rank = self.rank,
                sender = msg.src,
                ssn = msg.ssn
            });
            let key = (msg.src, msg.ssn);
            let supply = SupplyMsg {
                tag: msg.tag,
                payload: std::mem::take(&mut msg.payload),
                replayed: msg.replayed,
            };
            let rec = self.rec.as_mut().unwrap();
            rec.supply.entry(key).or_insert(supply);
            self.try_replay(ctx);
            return RecvGate::Consume;
        }
        self.rclock += 1;
        let det = Determinant {
            receiver: self.rank,
            clock: self.rclock,
            sender: msg.src,
            ssn: msg.ssn,
            cause: 0,
        };
        self.ship_to_el(ctx, det);
        let cost = SimDuration::from_nanos(self.costs.event_create_ns + self.costs.el_ship_ns);
        RecvGate::Deliver { cost }
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, body: Box<dyn std::any::Any + Send>) {
        let body = match body.downcast::<ElReply>() {
            Ok(r) => {
                match *r {
                    ElReply::Ack { stable } => {
                        ctx.sim.charge_cpu(
                            ctx.core.node(),
                            SimDuration::from_nanos(self.costs.el_ack_ns),
                        );
                        if let Some(seq) = self.el_outstanding.pop_front() {
                            vlog_sim::event!("det-batch-acked" { rank = self.rank, seq = seq }
                                caused_by "det-batch-shipped" { rank = self.rank, seq = seq });
                        }
                        let prev = self.stable_own;
                        self.stable_own = self.stable_own.max(stable[self.rank]);
                        // Monotone watermark; the merge law is `max`.
                        self.stats.local().el_acked_events = self.stable_own;
                        if self.stable_own > prev && self.stable_own >= self.rclock {
                            ctx.core.release_held();
                        }
                        // The ack clocks the batcher: flush the records
                        // that coalesced behind the acknowledged batch.
                        if let Some(batch) = self.batcher.acked() {
                            self.send_batch(ctx, batch);
                        }
                        ctx.phase_boundary(ProtoPhase::AckReceived);
                    }
                    ElReply::QueryResp { dets, stable } => {
                        vlog_sim::event!("el-query-resp" { victim = self.rank });
                        self.stable_own = self.stable_own.max(stable[self.rank]);
                        if let Some(rec) = self.rec.as_mut() {
                            for d in &dets {
                                if d.clock > rec.wm {
                                    rec.collected.insert(*d);
                                    vlog_sim::event!(
                                        "det-replay" { rank = self.rank, clock = d.clock }
                                        caused_by "el-query-resp" { victim = self.rank });
                                }
                            }
                            rec.resp_el = true;
                            self.maybe_finish_collection(ctx);
                        }
                    }
                }
                return;
            }
            Err(b) => b,
        };
        let body = match body.downcast::<CausalCtl>() {
            Ok(c) => {
                match *c {
                    CausalCtl::Reclaim {
                        victim,
                        watermarks,
                        recovery_id,
                        ..
                    } => {
                        // No causality to share (the EL has it all), but
                        // the victim still needs our logged payloads.
                        ctx.core.control_to_rank(
                            ctx.sim,
                            victim,
                            8,
                            Box::new(CausalCtl::ReclaimResp {
                                from: self.rank,
                                dets: Vec::new(),
                            }),
                        );
                        let from_ssn =
                            self.slog
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
                    }
                    CausalCtl::ReclaimResp { from, .. } => {
                        vlog_sim::event!("reclaim-resp" { victim = self.rank, from = from });
                        if let Some(rec) = self.rec.as_mut() {
                            rec.resp_from.insert(from);
                            self.maybe_finish_collection(ctx);
                        }
                    }
                    CausalCtl::GcNotice { from, received, .. } => {
                        vlog_sim::causality::consume(
                            vlog_sim::ckey!("gc-notice", from = from, to = self.rank),
                            vlog_sim::ckey!("gc-handle", rank = self.rank),
                        );
                        self.slog.prune_below(from, received[self.rank]);
                    }
                }
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
            self.send_recovery_requests(ctx);
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
        let blob = PessimisticBlob {
            slog: self.slog.clone(),
            rclock: self.rclock,
            stable_own: self.stable_own,
        };
        let bytes = blob.slog.payload_bytes() + 16 * blob.slog.len() as u64 + 16;
        ProtoBlob {
            body: Some(Arc::new(blob)),
            bytes,
        }
    }

    fn on_checkpoint_committed(&mut self, ctx: &mut Ctx<'_>, version: u64) {
        let Some(received) = self.ckpt_expected.remove(&version) else {
            return;
        };
        self.ckpt_expected.retain(|v, _| *v > version);
        // Pessimistic logging tracks only its own EL stability; peers
        // ignore the vector (there is no piggyback to prune), but the
        // wire format stays shared with the causal protocols.
        let mut stable = vec![0; self.n];
        stable[self.rank] = self.stable_own;
        let wire = 8 + 8 * self.n as u64 + crate::piggyback::watermarks_len(&stable);
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
                        stable: stable.clone(),
                    }),
                );
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>, blob: Option<ProtoBlob>) {
        let wm = match blob.and_then(|b| b.body) {
            Some(body) => match body.downcast::<PessimisticBlob>() {
                Ok(b) => {
                    self.slog = b.slog.clone();
                    self.rclock = b.rclock;
                    self.stable_own = b.stable_own;
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
            resp_el: false,
            resp_from: BTreeSet::new(),
            collecting: true,
            max_clock: 0,
        });
        self.send_recovery_requests(ctx);
        self.reclaim_timer = Some(
            ctx.core
                .set_proto_timer(ctx.sim, RECLAIM_RETRY, TIMER_RECLAIM),
        );
    }
}
