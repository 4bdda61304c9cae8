//! The log-protocol core shared by causal and pessimistic logging.
//!
//! The paper's architecture (§IV-B.4, Figure 4) has one Event Logger and
//! one generic daemon under which Vcausal and the pessimistic V2 protocol
//! differ only in piggybacking and the send gate. [`LogCore`] is
//! everything they share, held once by each protocol:
//!
//! * the **EL client**: the ack-clocked [`ElBatcher`], the batch-seq /
//!   ack pairing with its causality-log instrumentation, and the
//!   re-shard handoff to a replacement shard;
//! * the **sender-based payload log**, the reception clock, and the
//!   checkpoint bookkeeping (per-version receive watermarks, GC-notice
//!   fan-out, reclaim-serving payload re-sends);
//! * the whole **recovery state machine** (paper §III-A): collect
//!   determinants from the EL and every alive peer (with a retry timer
//!   that is never withdrawn: it checks, when it fires, whether anyone
//!   is still to answer),
//!   replay deliveries in determinant order from re-sent payloads, then
//!   re-accept the live traffic buffered meanwhile.
//!
//! What the paper says differs stays in the protocols and reaches the
//! core as arguments at the call site: which stability watermark gates a
//! shipment, which determinants a reclaim response carries, what to do
//! with a replayed determinant and what extra to do when replay ends.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use vlog_sim::causality::{Edge, Key};
use vlog_sim::{ActorId, SimDuration, SimTime};
use vlog_vmpi::control::{self, Body};
use vlog_vmpi::{
    AppMsg, Ctx, ElReshard, Payload, PiggybackBlob, ProtoPhase, RClock, Rank, SchedulerCmd, Ssn,
    Tag,
};

use crate::costs::{self, EL_ACK_NS, EVENT_CREATE_NS};
use crate::detseq::DetSeq;
use crate::el_multi::{record_el_outstanding, ElBatcher, ElMsg};
use crate::event::Determinant;
use crate::piggyback::watermarks_len;
use crate::sender_log::SenderLog;

/// Control messages between logging protocol instances.
pub enum CausalCtl {
    /// Recovery request: send me your causality knowledge and re-send
    /// your logged payloads for me from my channel watermarks.
    /// `recovery_id` names the victim's restart incarnation so retried
    /// reclaims of the *same* recovery don't trigger duplicate payload
    /// re-sends, while a later crash (new id) resets the dedupe.
    Reclaim {
        victim: Rank,
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

impl Body for CausalCtl {
    fn wire_bytes(&self) -> u64 {
        match self {
            CausalCtl::Reclaim { watermarks, .. } => 32 + 8 * watermarks.len() as u64,
            CausalCtl::ReclaimResp { dets, .. } => {
                8 + (Determinant::BODY_BYTES + 2) * dets.len() as u64
            }
            // The stable vector rides RLE-compressed: it is mostly long
            // flat runs, so it adds a few bytes, not 8 * n.
            CausalCtl::GcNotice {
                received, stable, ..
            } => 8 + 8 * received.len() as u64 + watermarks_len(stable),
        }
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

/// The shared log-protocol state of one rank (see the module docs).
pub struct LogCore {
    pub(crate) rank: Rank,
    pub(crate) n: usize,
    /// Whether this configuration logs to an Event Logger at all.
    pub(crate) el: bool,
    pub(crate) slog: SenderLog,
    /// Reception clock: the last event created here.
    pub(crate) rclock: RClock,

    /// Scheduler asked for a checkpoint.
    ckpt_due: bool,
    /// Receive watermarks captured per assembled image version. GC
    /// notices must carry the watermarks of the *committed* version:
    /// with slow image transfers several checkpoints overlap in flight,
    /// and pruning with a newer version's watermarks would delete logged
    /// payloads a victim restored from the older image still needs.
    ckpt_expected: BTreeMap<u64, Vec<Ssn>>,

    rec: Option<Recovery>,
    /// Peers' reclaims that arrived in this rank's restart window, held
    /// until recovery begins (see [`LogCore::hold_in_restart_window`]).
    window_reclaims: Vec<CausalCtl>,
    /// Ack-clocked record batcher on the ship-to-EL path.
    batcher: ElBatcher,
    /// Monotone count of record batches put on the wire — the causality
    /// log's batch sequence numbers (acks arrive one per batch, in
    /// order, so the oldest outstanding seq pairs with each ack).
    batches_sent: u64,
    /// Outstanding batch seqs, oldest first (≤1 entry in steady state).
    el_outstanding: VecDeque<u64>,
}

impl LogCore {
    pub(crate) fn new(el: bool, rank: Rank, n: usize) -> Self {
        LogCore {
            rank,
            n,
            el,
            slog: SenderLog::new(n),
            rclock: 0,
            ckpt_due: false,
            ckpt_expected: BTreeMap::new(),
            rec: None,
            window_reclaims: Vec::new(),
            batcher: ElBatcher::new(),
            batches_sent: 0,
            el_outstanding: VecDeque::new(),
        }
    }

    /// The Event Logger shard serving this rank under the run's current
    /// shard map, so the protocol follows a re-shard automatically.
    fn el_actor(&self, ctx: &Ctx<'_>) -> Option<ActorId> {
        if self.el {
            ctx.topo().el_for(self.rank).map(|(a, _)| a)
        } else {
            None
        }
    }

    // ---- fault-free path ---------------------------------------------

    /// Logs an accepted send in the sender-based payload log and returns
    /// its CPU cost (idempotent on `(dst, ssn)`: re-gated held sends and
    /// replay re-sends cost nothing).
    pub(crate) fn log_send(
        &mut self,
        dst: Rank,
        ssn: Ssn,
        tag: Tag,
        payload: &Payload,
    ) -> SimDuration {
        if self.slog.insert(dst, ssn, tag, payload) {
            costs::sender_log_cost(payload.len())
        } else {
            SimDuration::ZERO
        }
    }

    /// Creates the reception event of message `(sender, ssn)`; `cause`
    /// is the sender's reception clock at emission.
    pub(crate) fn next_event(&mut self, sender: Rank, ssn: Ssn, cause: RClock) -> Determinant {
        self.rclock += 1;
        Determinant {
            receiver: self.rank,
            clock: self.rclock,
            sender,
            ssn,
            cause,
        }
    }

    /// Ships `det` to the Event Logger; `acked` is the caller's highest
    /// own clock the EL has acknowledged (the un-acked window gauge).
    pub(crate) fn ship_to_el(&mut self, ctx: &mut Ctx<'_>, det: Determinant, acked: RClock) {
        if self.el_actor(ctx).is_none() {
            return;
        }
        record_el_outstanding(ctx.sim, det.clock, acked);
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
        let Some(el) = self.el_actor(ctx) else { return };
        self.batches_sent += 1;
        let seq = self.batches_sent;
        self.el_outstanding.push_back(seq);
        vlog_sim::event!(ctx.sim, "det-batch-shipped" { rank = self.rank, seq = seq });
        // A finished rank still ships the tail an ack clocks out, and the
        // ack is still paired, but nothing waits on it: its expectations
        // were withdrawn when the program ended, and a run may complete
        // before this ack arrives.
        if !ctx.core.app_finished() {
            ctx.sim.record(|| Edge::Expect {
                cause: vlog_sim::ckey!("det-batch-acked", rank = self.rank, seq = seq),
                waiter: vlog_sim::ckey!("det-batch-shipped", rank = self.rank, seq = seq),
                owner: self.rank as u64,
            });
        }
        let record = ElMsg::Record {
            dets: batch,
            reply_to: ctx.core.actor(),
        };
        control::send(ctx.sim, ctx.core.node(), el, record);
    }

    /// First half of an EL acknowledgement: charges its CPU cost and
    /// pairs it with the oldest outstanding batch seq (one ack per record
    /// batch, in order), which is returned. The caller then applies the
    /// acknowledged stability and finishes with [`LogCore::ack_flush`].
    pub(crate) fn ack_received(&mut self, ctx: &mut Ctx<'_>) -> Option<u64> {
        ctx.sim
            .charge_cpu(ctx.core.node(), SimDuration::from_nanos(EL_ACK_NS));
        let seq = self.el_outstanding.pop_front()?;
        vlog_sim::event!(ctx.sim, "det-batch-acked" { rank = self.rank, seq = seq }
            caused_by "det-batch-shipped" { rank = self.rank, seq = seq });
        Some(seq)
    }

    /// Second half of an EL acknowledgement: the ack clocks the batcher,
    /// so flush whatever coalesced behind the just-acknowledged batch.
    pub(crate) fn ack_flush(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(batch) = self.batcher.acked() {
            self.send_batch(ctx, batch);
        }
        ctx.phase_boundary(ProtoPhase::AckReceived);
    }

    /// An Event Logger shard died and the topology republished its
    /// rank→shard map. Re-route to the (possibly new) shard and hand
    /// over every determinant of this rank not yet acknowledged stable:
    /// the batcher's shipped-but-unacked and coalescing records plus
    /// `retained`, the caller's own store above its stable watermark
    /// (empty for a protocol that keeps none). Keyed by clock so the two
    /// sources dedupe; offered in clock order so the new shard sees a
    /// monotone sequence.
    fn handle_reshard(&mut self, ctx: &mut Ctx<'_>, retained: Vec<Determinant>) {
        if self.el_actor(ctx).is_none() {
            return;
        }
        // The dead shard will never acknowledge the in-flight batches:
        // their ack expectations are moot, not dangling — the records
        // are re-offered to the replacement shard below under fresh
        // batch seqs.
        for seq in self.el_outstanding.drain(..) {
            ctx.sim.record(|| Edge::Cancel {
                cause: vlog_sim::ckey!("det-batch-acked", rank = self.rank, seq = seq),
            });
        }
        let mut handoff = DetSeq::new();
        for det in self.batcher.take_unacked().into_iter().chain(retained) {
            handoff.insert(det);
        }
        for det in handoff.iter() {
            if let Some(batch) = self.batcher.offer(det) {
                self.send_batch(ctx, batch);
            }
        }
    }

    /// Service traffic every logging protocol treats alike: the re-shard
    /// broadcast (`retained` is the caller's own unstable store, built
    /// only when needed) and checkpoint-scheduler commands.
    pub(crate) fn on_service_control(
        &mut self,
        ctx: &mut Ctx<'_>,
        body: Box<dyn Any + Send>,
        retained: impl FnOnce() -> Vec<Determinant>,
    ) {
        let body = match body.downcast::<ElReshard>() {
            Ok(_) => return self.handle_reshard(ctx, retained()),
            Err(b) => b,
        };
        if let Ok(cmd) = body.downcast::<SchedulerCmd>() {
            if matches!(*cmd, SchedulerCmd::TakeCheckpoint) {
                self.ckpt_due = true;
            }
        }
    }

    // ---- checkpoints and garbage collection --------------------------

    pub(crate) fn take_ckpt_due(&mut self) -> bool {
        std::mem::take(&mut self.ckpt_due)
    }

    pub(crate) fn on_image_assembled(&mut self, ctx: &mut Ctx<'_>, version: u64) {
        self.ckpt_expected
            .insert(version, ctx.core.expected_watermarks());
        ctx.core.request_ship();
    }

    /// Image `version` committed: tell every peer to prune its sender
    /// log, with exactly the committed version's watermarks (newer
    /// in-flight images may never complete before a crash), and the
    /// caller's `stable` vector.
    pub(crate) fn on_checkpoint_committed(
        &mut self,
        ctx: &mut Ctx<'_>,
        version: u64,
        stable: &[RClock],
    ) {
        let Some(received) = self.ckpt_expected.remove(&version) else {
            return;
        };
        self.ckpt_expected.retain(|v, _| *v > version);
        for peer in 0..self.n {
            if peer != self.rank {
                vlog_sim::event!(ctx.sim, "gc-notice" { from = self.rank, to = peer });
                let notice = CausalCtl::GcNotice {
                    from: self.rank,
                    received: received.clone(),
                    stable: stable.to_vec(),
                };
                ctx.core.control_to_rank(ctx.sim, peer, notice);
            }
        }
    }

    /// Peer `from` committed an image covering `received`: prune the
    /// payloads logged for it.
    pub(crate) fn on_gc_notice(&mut self, ctx: &mut Ctx<'_>, from: Rank, received: &[Ssn]) {
        ctx.sim.record(|| Edge::Consume {
            cause: vlog_sim::ckey!("gc-notice", from = from, to = self.rank),
            by: vlog_sim::ckey!("gc-handle", rank = self.rank),
        });
        self.slog.prune_below(from, received[self.rank]);
    }

    /// Serves a recovering peer's reclaim: answers with the causality
    /// knowledge `dets` the caller holds for it and re-sends its logged
    /// payloads from the sender-based log. A retried reclaim of the same
    /// incarnation resumes past what was already shipped instead of
    /// re-sending everything.
    pub(crate) fn serve_reclaim(
        &mut self,
        ctx: &mut Ctx<'_>,
        victim: Rank,
        watermarks: &[Ssn],
        recovery_id: u64,
        dets: Vec<Determinant>,
    ) {
        let resp = CausalCtl::ReclaimResp {
            from: self.rank,
            dets,
        };
        ctx.core.control_to_rank(ctx.sim, victim, resp);
        let from_ssn = self
            .slog
            .replay_start(victim, recovery_id, watermarks[self.rank]);
        let entries: Vec<(Ssn, Tag, Payload)> = self
            .slog
            .entries_from(victim, from_ssn)
            .map(|(ssn, e)| (ssn, e.tag, e.payload))
            .collect();
        let next = entries.last().map_or(from_ssn, |(ssn, _, _)| ssn + 1);
        self.slog.note_shipped(victim, recovery_id, next);
        for (ssn, tag, payload) in entries {
            ctx.core.transmit_replay(ctx.sim, victim, tag, ssn, payload);
        }
    }

    // ---- recovery ----------------------------------------------------

    pub(crate) fn recovering(&self) -> bool {
        self.rec.is_some()
    }

    /// Holds a peer's reclaim that arrives in this rank's restart window:
    /// the daemon is recovering, but its image is not restored yet, so
    /// recovery has not begun here. Answered now, it would come from the
    /// replacement's empty sender log, and the peer would count this rank
    /// as served and never get the payloads the image still logs for it.
    /// Returns what the caller handles now: anything else, or `None`.
    pub(crate) fn hold_in_restart_window(
        &mut self,
        ctx: &Ctx<'_>,
        ctl: CausalCtl,
    ) -> Option<CausalCtl> {
        let window = ctx.core.is_recovering() && !self.recovering();
        if window && matches!(ctl, CausalCtl::Reclaim { .. }) {
            self.window_reclaims.push(ctl);
            return None;
        }
        Some(ctl)
    }

    /// Starts the recovery of a restarted rank whose image (already
    /// restored by the caller) covers receptions up to clock `wm` — 0
    /// when it restarts from scratch. Returns the reclaims held in the
    /// restart window, for the caller to serve from the restored state.
    pub(crate) fn begin_recovery(&mut self, ctx: &mut Ctx<'_>, wm: RClock) -> Vec<CausalCtl> {
        let nothing_to_collect = self.n == 1 && !self.el;
        vlog_sim::event!(ctx.sim, "recovery-started" { rank = self.rank }
            caused_by "image-fetched" { rank = self.rank });
        self.rec = Some(Recovery {
            started: ctx.sim.now(),
            wm,
            collected: DetSeq::new(),
            supply: BTreeMap::new(),
            next: wm + 1,
            resp_from: BTreeSet::new(),
            resp_el: false,
            collecting: !nothing_to_collect,
            max_clock: 0,
        });
        if nothing_to_collect {
            ctx.rank_stats().recovery_collect.push(SimDuration::ZERO);
        } else {
            self.send_reclaims(ctx);
            ctx.core
                .set_proto_timer(ctx.sim, RECLAIM_RETRY, TIMER_RECLAIM);
        }
        std::mem::take(&mut self.window_reclaims)
    }

    /// The reclaim retry: re-asks whoever has not answered yet, and arms
    /// the next retry. A retry that outlives its collection — every
    /// answer arrived, or the recovery already finished — does nothing.
    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_RECLAIM && self.rec.as_ref().is_some_and(|r| r.collecting) {
            self.send_reclaims(ctx);
            ctx.core
                .set_proto_timer(ctx.sim, RECLAIM_RETRY, TIMER_RECLAIM);
        }
    }

    fn send_reclaims(&mut self, ctx: &mut Ctx<'_>) {
        let Some(rec) = self.rec.as_ref() else { return };
        let wm = rec.wm;
        // The restart instant names this incarnation: a second crash
        // starts later, so its id differs and resets the peers' dedupe.
        let recovery_id = rec.started.as_nanos();
        let need_el = self.el && !rec.resp_el;
        let watermarks = ctx.core.expected_watermarks();
        for peer in 0..self.n {
            if peer == self.rank || rec.resp_from.contains(&peer) {
                continue;
            }
            ctx.sim.record(|| Edge::Expect {
                cause: vlog_sim::ckey!("reclaim-resp", victim = self.rank, from = peer),
                waiter: vlog_sim::ckey!("recovery-started", rank = self.rank),
                owner: self.rank as u64,
            });
            let reclaim = CausalCtl::Reclaim {
                victim: self.rank,
                watermarks: watermarks.clone(),
                recovery_id,
            };
            ctx.core.control_to_rank(ctx.sim, peer, reclaim);
        }
        if need_el {
            ctx.sim.record(|| Edge::Expect {
                cause: vlog_sim::ckey!("el-query-resp", victim = self.rank),
                waiter: vlog_sim::ckey!("recovery-started", rank = self.rank),
                owner: self.rank as u64,
            });
            if let Some(el) = self.el_actor(ctx) {
                let query = ElMsg::Query {
                    victim: self.rank,
                    from: wm,
                    reply_to: ctx.core.actor(),
                };
                control::send(ctx.sim, ctx.core.node(), el, query);
            }
        }
    }

    /// Peer `from` answered the reclaim with the determinants it holds.
    /// The caller follows up with [`LogCore::try_replay`].
    pub(crate) fn on_reclaim_resp(&mut self, ctx: &mut Ctx<'_>, from: Rank, dets: &[Determinant]) {
        let victim = self.rank;
        let cause = move || vlog_sim::ckey!("reclaim-resp", victim = victim, from = from);
        self.collect(ctx, dets, cause, |rec| {
            rec.resp_from.insert(from);
        });
    }

    /// The Event Logger answered the recovery query. The caller follows
    /// up with [`LogCore::try_replay`].
    pub(crate) fn on_query_resp(&mut self, ctx: &mut Ctx<'_>, dets: &[Determinant]) {
        let victim = self.rank;
        let cause = move || vlog_sim::ckey!("el-query-resp", victim = victim);
        self.collect(ctx, dets, cause, |rec| rec.resp_el = true);
    }

    /// Records the response `cause` (and, through `answered`, who gave
    /// it), adds this rank's determinants above the image watermark to
    /// the replay sequence, and closes the collection phase once the EL
    /// (if any) and every peer have answered.
    fn collect(
        &mut self,
        ctx: &mut Ctx<'_>,
        dets: &[Determinant],
        cause: impl Fn() -> Key,
        answered: impl FnOnce(&mut Recovery),
    ) {
        ctx.sim.record(|| Edge::Produced {
            key: cause(),
            caused_by: None,
            unique: false,
        });
        let Some(rec) = self.rec.as_mut() else { return };
        answered(rec);
        for d in dets {
            if d.receiver == self.rank && d.clock > rec.wm {
                rec.collected.insert(*d);
                ctx.sim.record(|| Edge::Produced {
                    key: vlog_sim::ckey!("det-replay", rank = self.rank, clock = d.clock),
                    caused_by: Some(cause()),
                    unique: false,
                });
            }
        }
        if rec.resp_from.len() != self.n - 1 || (self.el && !rec.resp_el) {
            return;
        }
        // Collection is done; a pending retry now finds nothing to retry.
        if rec.collecting {
            rec.collecting = false;
            rec.max_clock = rec.collected.last().map_or(rec.wm, |d| d.clock);
            let dt = ctx.sim.now().saturating_since(rec.started);
            ctx.rank_stats().recovery_collect.push(dt);
        }
    }

    /// While recovering, buffers an arriving message — replay supply or
    /// post-replay live traffic, sorted out when replay ends — and
    /// returns true; the caller follows up with [`LogCore::try_replay`].
    pub(crate) fn buffer_if_recovering(&mut self, ctx: &mut Ctx<'_>, msg: &mut AppMsg) -> bool {
        let Some(rec) = self.rec.as_mut() else {
            return false;
        };
        vlog_sim::event!(ctx.sim, "replay-supply" {
            rank = self.rank,
            sender = msg.src,
            ssn = msg.ssn
        });
        let supply = SupplyMsg {
            tag: msg.tag,
            payload: std::mem::take(&mut msg.payload),
            piggyback: std::mem::replace(&mut msg.piggyback, PiggybackBlob::empty()),
            replayed: msg.replayed,
        };
        rec.supply.entry((msg.src, msg.ssn)).or_insert(supply);
        true
    }

    /// Replays as many collected determinants as have their payload
    /// re-supplied, in clock order; a no-op until collection completes.
    /// `replayed` is the caller's treatment of each replayed determinant
    /// (called before its delivery is injected) and `finish` what it adds
    /// when replay ends, between resuming normal operation and
    /// re-accepting the buffered live messages.
    pub(crate) fn try_replay(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut replayed: impl FnMut(&mut Self, &mut Ctx<'_>, Determinant),
        finish: impl FnOnce(&mut Ctx<'_>),
    ) {
        loop {
            let Some(rec) = self.rec.as_mut() else { return };
            if rec.collecting {
                return;
            }
            let Some(det) = rec.collected.get(rec.next) else {
                // No determinant at `next`: either replay is complete
                // or a gap means the tail was lost consistently with
                // the rest of the system — both end the replay.
                if rec.next > rec.max_clock {
                    return self.finish_replay(ctx, finish);
                }
                ctx.sim.record(|| Edge::Expect {
                    cause: vlog_sim::ckey!("det-replay", rank = self.rank, clock = rec.next),
                    waiter: vlog_sim::ckey!("recovery-started", rank = self.rank),
                    owner: self.rank as u64,
                });
                return;
            };
            let Some(supply) = rec.supply.remove(&(det.sender, det.ssn)) else {
                // Stalled on the payload re-send: the next determinant
                // is known but its message has not been re-supplied by
                // the sender's log.
                ctx.sim.record(|| Edge::Expect {
                    cause: vlog_sim::ckey!(
                        "replay-supply",
                        rank = self.rank,
                        sender = det.sender,
                        ssn = det.ssn
                    ),
                    waiter: vlog_sim::ckey!("det-replay", rank = self.rank, clock = det.clock),
                    owner: self.rank as u64,
                });
                return;
            };
            rec.next += 1;
            vlog_sim::event!(ctx.sim, "replay-consumed" { rank = self.rank, clock = det.clock }
            caused_by "replay-supply" {
                rank = self.rank,
                sender = det.sender,
                ssn = det.ssn
            });
            self.rclock = det.clock;
            replayed(self, ctx, det);
            ctx.core.inject_deliver(
                det.sender,
                supply.tag,
                supply.payload,
                SimDuration::from_nanos(EVENT_CREATE_NS),
            );
        }
    }

    fn finish_replay(&mut self, ctx: &mut Ctx<'_>, finish: impl FnOnce(&mut Ctx<'_>)) {
        let Some(rec) = self.rec.take() else { return };
        ctx.core.set_recovered(ctx.sim);
        finish(ctx);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use vlog_sim::{Actor, Delivery, Sim};
    use vlog_vmpi::{app, BootMode, ClusterState, DaemonMsg, StackProfile, Vdaemon, Vdummy};

    /// What one stand-in actor (an Event Logger shard, or the daemon of
    /// peer rank 1) saw on the wire.
    #[derive(Default)]
    struct Seen {
        /// Clocks of each record batch, in arrival order.
        batches: Vec<Vec<RClock>>,
        /// Ssn of each re-sent payload, in arrival order.
        replays: Vec<Ssn>,
        reclaims: usize,
        reclaim_resps: usize,
        queries: usize,
    }

    struct Probe(Arc<Mutex<Seen>>);

    impl Actor for Probe {
        fn on_deliver(&mut self, _sim: &mut Sim, _me: ActorId, msg: Delivery) {
            let mut seen = self.0.lock().unwrap();
            let body = match msg.body.downcast::<ElMsg>() {
                Ok(m) => {
                    match *m {
                        ElMsg::Record { dets, .. } => {
                            seen.batches.push(dets.iter().map(|d| d.clock).collect())
                        }
                        ElMsg::Query { victim: 0, .. } => seen.queries += 1,
                        _ => {}
                    }
                    return;
                }
                Err(b) => b,
            };
            let body = match body.downcast::<DaemonMsg>() {
                Ok(dm) => {
                    if let DaemonMsg::App(m) = *dm {
                        seen.replays.push(m.ssn);
                    }
                    return;
                }
                Err(b) => b,
            };
            if let Ok(ctl) = body.downcast::<CausalCtl>() {
                match *ctl {
                    CausalCtl::Reclaim { victim: 0, .. } => seen.reclaims += 1,
                    CausalCtl::ReclaimResp { from: 0, .. } => seen.reclaim_resps += 1,
                    _ => panic!("rank 0 sent an unexpected control message"),
                }
            }
        }
    }

    /// Rank 0 of a 2-rank job: a `LogCore` driven by hand through the
    /// `Ctx` of a daemon that is not registered with the kernel. Probes
    /// stand in for peer rank 1 and for two Event Logger shards (rank 0
    /// logs to shard 0 until it is declared dead).
    struct Rig {
        sim: Sim,
        daemon: Vdaemon,
        log: LogCore,
        peer: Arc<Mutex<Seen>>,
        shards: [Arc<Mutex<Seen>>; 2],
    }

    fn rig() -> Rig {
        let mut sim = Sim::new();
        sim.enable_causality();
        let probe = |sim: &mut Sim| {
            let seen = Arc::new(Mutex::new(Seen::default()));
            let node = sim.add_node();
            let actor = sim.add_actor(node, Box::new(Probe(seen.clone())));
            (seen, actor, node)
        };
        let (_, me, my_node) = probe(&mut sim);
        let (peer, peer_actor, peer_node) = probe(&mut sim);
        let (shard0, el0, el0_node) = probe(&mut sim);
        let (shard1, el1, el1_node) = probe(&mut sim);
        let mut state = ClusterState::with_ranks(vec![me, peer_actor], vec![my_node, peer_node]);
        state.topo.set_els(vec![(el0, el0_node), (el1, el1_node)]);
        let daemon = Vdaemon::new(
            0,
            &state.topo,
            Arc::new(StackProfile::vdaemon()),
            app(|_| async {}),
            Box::new(Vdummy),
            BootMode::Fresh,
        );
        sim.install(state);
        Rig {
            sim,
            daemon,
            log: LogCore::new(true, 0, 2),
            peer,
            shards: [shard0, shard1],
        }
    }

    /// Runs `f` on the core with a real hook context, then drains the
    /// calendar so everything it sent has arrived.
    fn drive<R>(rig: &mut Rig, f: impl FnOnce(&mut LogCore, &mut Ctx<'_>) -> R) -> R {
        let mut ctx = Ctx {
            sim: &mut rig.sim,
            core: rig.daemon.core_mut(),
        };
        let out = f(&mut rig.log, &mut ctx);
        rig.sim.run();
        out
    }

    /// Creates and ships the next `n` reception events.
    fn ship(rig: &mut Rig, n: usize) {
        for _ in 0..n {
            drive(rig, |log, ctx| {
                let det = log.next_event(1, log.rclock, 0);
                log.ship_to_el(ctx, det, 0);
            });
        }
    }

    fn det(clock: RClock) -> Determinant {
        Determinant {
            receiver: 0,
            clock,
            sender: 1,
            ssn: clock - 1,
            cause: 0,
        }
    }

    /// One whole EL acknowledgement; returns the batch seq it paired with.
    fn ack(rig: &mut Rig) -> Option<u64> {
        drive(rig, |log, ctx| {
            let seq = log.ack_received(ctx);
            log.ack_flush(ctx);
            seq
        })
    }

    /// Seqs of the `det-batch-acked` expectations still pending.
    fn awaited_acks(rig: &mut Rig) -> Vec<u64> {
        let log = rig.sim.causality().expect("the rig's log is on");
        log.analyze()
            .dangling
            .iter()
            .filter(|d| d.cause.kind() == "det-batch-acked")
            .map(|d| d.cause.get("seq").unwrap())
            .collect()
    }

    #[test]
    fn an_ack_pairs_with_the_oldest_outstanding_seq() {
        let mut rig = rig();
        // Clock 1 ships at once as batch seq 1; 2 and 3 coalesce behind it.
        ship(&mut rig, 3);
        assert_eq!(rig.shards[0].lock().unwrap().batches, vec![vec![1]]);
        assert_eq!(awaited_acks(&mut rig), vec![1]);
        // The ack pairs with seq 1 and clocks out the coalesced batch.
        assert_eq!(ack(&mut rig), Some(1));
        assert_eq!(
            rig.shards[0].lock().unwrap().batches,
            vec![vec![1], vec![2, 3]]
        );
        assert_eq!(awaited_acks(&mut rig), vec![2]);
        assert_eq!(ack(&mut rig), Some(2));
        assert_eq!(awaited_acks(&mut rig), Vec::<u64>::new());
        // A stale ack with nothing outstanding pairs with nothing and
        // puts nothing on the wire.
        assert_eq!(ack(&mut rig), None);
        assert_eq!(rig.shards[0].lock().unwrap().batches.len(), 2);
        assert!(rig.shards[1].lock().unwrap().batches.is_empty());
    }

    #[test]
    fn reshard_cancels_outstanding_acks_and_reoffers_the_deduped_union() {
        let mut rig = rig();
        ship(&mut rig, 3);
        assert_eq!(awaited_acks(&mut rig), vec![1]);
        // Shard 0 dies with batch seq 1 unacknowledged; rank 0 moves to
        // shard 1. The caller's retained store overlaps the batcher
        // (clocks 1 and 3), adds clock 4, and arrives unordered.
        let topo = &mut ClusterState::of(&mut rig.sim).topo;
        assert!(topo.rebalance_after_el_failure(0), "shard 1 survives");
        drive(&mut rig, |log, ctx| {
            log.handle_reshard(ctx, vec![det(4), det(1), det(3)])
        });
        // Seq 1 will never be acknowledged: cancelled, not dangling. The
        // union restarts under a fresh seq, lowest clock first.
        assert_eq!(awaited_acks(&mut rig), vec![2]);
        assert_eq!(rig.shards[1].lock().unwrap().batches, vec![vec![1]]);
        assert_eq!(ack(&mut rig), Some(2));
        // Batcher {1, 2, 3} ∪ retained {4, 1, 3}, each clock once, in
        // clock order, all on the replacement shard.
        assert_eq!(
            rig.shards[1].lock().unwrap().batches,
            vec![vec![1], vec![2, 3, 4]]
        );
        assert_eq!(rig.shards[0].lock().unwrap().batches, vec![vec![1]]);
        assert_eq!(awaited_acks(&mut rig), vec![3]);
    }

    #[test]
    fn a_retried_reclaim_resumes_past_what_was_shipped() {
        let mut rig = rig();
        let payload = Payload::synthetic(64);
        for ssn in 0..3 {
            rig.log.log_send(1, ssn, 0, &payload);
        }
        // Rank 1 restarts having received ssn 0 from us: incarnation 7
        // gets ssn 1 and 2, plus the (empty) causality answer.
        let reclaim = |rig: &mut Rig, recovery_id: u64| {
            drive(rig, |log, ctx| {
                log.serve_reclaim(ctx, 1, &[1, 0], recovery_id, Vec::new())
            });
            std::mem::take(&mut rig.peer.lock().unwrap().replays)
        };
        assert_eq!(reclaim(&mut rig, 7), vec![1, 2]);
        // Its retry timer fires before we were counted in: answered
        // again, but nothing is re-sent twice.
        assert_eq!(reclaim(&mut rig, 7), Vec::<Ssn>::new());
        // Only what was logged since goes out on a further retry.
        rig.log.log_send(1, 3, 0, &payload);
        assert_eq!(reclaim(&mut rig, 7), vec![3]);
        assert_eq!(rig.peer.lock().unwrap().reclaim_resps, 3);
        // A later crash is a new incarnation: everything from its
        // watermark again.
        assert_eq!(reclaim(&mut rig, 9), vec![1, 2, 3]);
    }

    /// The reclaim retry is never withdrawn: when it fires it re-asks
    /// only whoever has not answered, and once collection is closed —
    /// or the whole recovery is over — it sends nothing.
    #[test]
    fn a_reclaim_retry_re_asks_only_who_has_not_answered() {
        let mut rig = rig();
        // (Reclaims at the peer, Queries at shard 0) since the last look.
        let asked = |rig: &Rig| {
            let reclaims = std::mem::take(&mut rig.peer.lock().unwrap().reclaims);
            let queries = std::mem::take(&mut rig.shards[0].lock().unwrap().queries);
            (reclaims, queries)
        };
        let retry = |rig: &mut Rig| drive(rig, |log, ctx| log.on_timer(ctx, TIMER_RECLAIM));
        drive(&mut rig, |log, ctx| log.begin_recovery(ctx, 0));
        assert_eq!(asked(&rig), (1, 1));
        // The peer answers, the Event Logger does not: only the Query
        // goes out again.
        drive(&mut rig, |log, ctx| log.on_reclaim_resp(ctx, 1, &[]));
        retry(&mut rig);
        assert_eq!(asked(&rig), (0, 1));
        // Both answered: collection is closed, a retry sends nothing.
        drive(&mut rig, |log, ctx| log.on_query_resp(ctx, &[]));
        retry(&mut rig);
        assert_eq!(asked(&rig), (0, 0));
        // Nothing to replay: the recovery ends, and a retry that
        // outlives it still sends nothing.
        assert!(rig.log.recovering());
        drive(&mut rig, |log, ctx| {
            log.try_replay(ctx, |_, _, _| {}, |_| {})
        });
        assert!(!rig.log.recovering());
        retry(&mut rig);
        assert_eq!(asked(&rig), (0, 0));
        assert_eq!(rig.shards[1].lock().unwrap().queries, 0);
    }
}
