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

use vlog_sim::{profiler, SimDuration};
use vlog_vmpi::control::Body;
use vlog_vmpi::{
    AppMsg, Ctx, Payload, PiggybackBlob, ProtoBlob, RClock, Rank, RecvGate, SendGate, Ssn, Tag,
    VProtocol,
};

use crate::costs::{
    EL_SHIP_NS, EVENT_CREATE_NS, GRAPH_INSERT_NS, GRAPH_VISIT_NS, INTEGRATE_EVENT_NS,
    LOGON_INSERT_NS, LOGON_REORDER_NS, MEM_NS_LOG2_GRAPH, MEM_NS_LOG2_SEQ, SERIALIZE_EVENT_NS,
};
use crate::detseq::ChunkPool;
use crate::el_multi::ElReply;
use crate::event::Determinant;
use crate::logcore::{CausalCtl, LogCore};
use crate::piggyback::{PbBody, PbFormat};
use crate::reduction::{make_reduction, Reduction, Technique};
use crate::sender_log::SenderLog;

/// Protocol section of a checkpoint image.
pub struct CausalBlob {
    red: Box<dyn Reduction>,
    slog: SenderLog,
    rclock: RClock,
    stable: Vec<RClock>,
}

impl Body for CausalBlob {
    fn wire_bytes(&self) -> u64 {
        Determinant::BODY_BYTES * self.red.retained_count() as u64
            + self.slog.payload_bytes()
            + 16 * self.slog.len() as u64
            + 16 * self.stable.len() as u64
    }
}

/// The causal message logging protocol for one rank: the shared
/// [`LogCore`] plus what the paper says is causal-specific — the
/// piggyback [`Reduction`], the EL stability vector that prunes it, and
/// the piggyback cost model.
pub struct CausalProtocol {
    technique: Technique,
    /// Piggyback wire format (sizes only — determinants travel in
    /// structured form inside the simulation; see `piggyback`).
    format: PbFormat,
    log: LogCore,
    red: Box<dyn Reduction>,
    /// EL stability watermarks (all ranks).
    stable: Vec<RClock>,
}

impl CausalProtocol {
    pub fn new(technique: Technique, format: PbFormat, el: bool, rank: Rank, n: usize) -> Self {
        CausalProtocol {
            technique,
            format,
            log: LogCore::new(el, rank, n),
            red: make_reduction(technique, n),
            stable: vec![0; n],
        }
    }

    fn integrate_cost(&self, dets: usize, inserts: u64, visits: u64) -> SimDuration {
        let ns = match self.technique {
            Technique::Vcausal => INTEGRATE_EVENT_NS * dets as u64,
            Technique::Manetho => GRAPH_INSERT_NS * inserts + GRAPH_VISIT_NS * visits,
            Technique::LogOn => LOGON_INSERT_NS * inserts + GRAPH_VISIT_NS * visits,
        };
        SimDuration::from_nanos(ns)
    }

    fn build_cost(&self, emitted: usize, visits: u64) -> SimDuration {
        let ns = match self.technique {
            Technique::Vcausal => SERIALIZE_EVENT_NS * emitted as u64 + GRAPH_VISIT_NS * visits,
            Technique::Manetho => SERIALIZE_EVENT_NS * emitted as u64 + GRAPH_VISIT_NS * visits,
            Technique::LogOn => {
                (SERIALIZE_EVENT_NS + LOGON_REORDER_NS) * emitted as u64 + GRAPH_VISIT_NS * visits
            }
        };
        SimDuration::from_nanos(ns + self.mem_penalty_ns())
    }

    /// Cache-pressure penalty of the causality store, growing with the
    /// number of retained determinants (see [`MEM_NS_LOG2_SEQ`]).
    fn mem_penalty_ns(&self) -> u64 {
        let retained = self.red.retained_count() as u64;
        let k = match self.technique {
            Technique::Vcausal => MEM_NS_LOG2_SEQ,
            _ => MEM_NS_LOG2_GRAPH,
        };
        k * (64 - (retained + 1).leading_zeros() as u64)
    }

    fn apply_stable_vec(&mut self, ctx: &mut Ctx<'_>, stable: &[RClock]) {
        for (mine, theirs) in self.stable.iter_mut().zip(stable) {
            *mine = (*mine).max(*theirs);
        }
        self.red.apply_stable(&self.stable);
        // A monotone watermark over all of this rank's incarnations: a
        // restart resumes from its image's (older) vector, hence `max`.
        let st = ctx.rank_stats();
        st.el_acked_events = st.el_acked_events.max(self.stable[self.log.rank]);
    }

    /// Shares the store's newly frozen chunks with the run's other ranks
    /// through the suite's chunk pool, when the run has one.
    fn share(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(pool) = ctx.suite_state::<ChunkPool>() {
            self.red.share(pool);
        }
    }

    /// Drives the shared replay engine. Causal-specific: a replayed
    /// determinant above the stable watermark may have died with this
    /// rank's unacknowledged batches, so it is re-shipped to the EL.
    fn replay(&mut self, ctx: &mut Ctx<'_>) {
        let acked = self.stable[self.log.rank];
        self.log.try_replay(
            ctx,
            |log, ctx, det| {
                if det.clock > acked {
                    log.ship_to_el(ctx, det, acked);
                }
            },
            |_| {},
        );
    }

    fn handle_ctl(&mut self, ctx: &mut Ctx<'_>, ctl: CausalCtl) {
        let Some(ctl) = self.log.hold_in_restart_window(ctx, ctl) else {
            return;
        };
        match ctl {
            CausalCtl::Reclaim {
                victim,
                watermarks,
                recovery_id,
            } => {
                // Causality knowledge: everything retained (with an EL the
                // store is small — that is the entire point of the paper).
                let dets = self.red.retained();
                let cost = SimDuration::from_nanos(SERIALIZE_EVENT_NS * dets.len() as u64);
                ctx.sim.charge_cpu(ctx.core.node(), cost);
                self.log
                    .serve_reclaim(ctx, victim, &watermarks, recovery_id, dets);
            }
            CausalCtl::ReclaimResp { from, dets } => {
                self.red.absorb(&dets);
                self.share(ctx);
                self.log.on_reclaim_resp(ctx, from, &dets);
                self.replay(ctx);
            }
            CausalCtl::GcNotice {
                from,
                received,
                stable,
            } => {
                self.log.on_gc_notice(ctx, from, &received);
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
                self.log.ack_received(ctx);
                self.apply_stable_vec(ctx, &stable);
                self.log.ack_flush(ctx);
            }
            ElReply::QueryResp { dets, stable } => {
                self.apply_stable_vec(ctx, &stable);
                self.log.on_query_resp(ctx, &dets);
                self.replay(ctx);
            }
        }
    }
}

impl VProtocol for CausalProtocol {
    fn name(&self) -> String {
        format!(
            "{}{}",
            self.technique.label(),
            if self.log.el { "+EL" } else { "" }
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
        SendGate::Go {
            cost: self.log.log_send(dst, ssn, tag, payload),
        }
    }

    fn on_transmit(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Rank,
        _ssn: Ssn,
    ) -> (PiggybackBlob, SimDuration) {
        let _codec = profiler::scope(profiler::Phase::Codec);
        let sender_clock = self.log.rclock;
        let (dets, work) = self.red.build(dst, sender_clock);
        let bytes = self.format.wire_len(&dets);
        let cost = self.build_cost(dets.len(), work.visits);
        ctx.rank_stats().pb_events_sent += dets.len() as u64;
        let body = PbBody { sender_clock, dets };
        (
            PiggybackBlob {
                body: Some(Box::new(body)),
                bytes,
            },
            cost,
        )
    }

    fn on_app_msg(&mut self, ctx: &mut Ctx<'_>, msg: &mut AppMsg) -> RecvGate {
        if self.log.buffer_if_recovering(ctx, msg) {
            self.replay(ctx);
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
        let det = self.log.next_event(msg.src, msg.ssn, sender_clock);
        let (w_add, w_int) = {
            let _codec = profiler::scope(profiler::Phase::Codec);
            let work = (
                self.red.add_local(det),
                self.red.integrate(msg.src, sender_clock, &dets),
            );
            self.share(ctx);
            work
        };
        self.log.ship_to_el(ctx, det, self.stable[self.log.rank]);
        // The Figure 8 "receive" metric is the piggyback-management part
        // only: integrating the piggybacked determinants into the store.
        let pb_part = SimDuration::from_nanos(self.mem_penalty_ns())
            + self.integrate_cost(dets.len(), w_int.inserts + w_add.inserts, w_int.visits);
        ctx.rank_stats().pb_recv_time += pb_part;
        let mut cost = SimDuration::from_nanos(EVENT_CREATE_NS) + pb_part;
        if self.log.el {
            cost += SimDuration::from_nanos(EL_SHIP_NS);
        }
        RecvGate::Deliver { cost }
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, body: Box<dyn std::any::Any + Send>) {
        let body = match body.downcast::<ElReply>() {
            Ok(r) => return self.handle_el_reply(ctx, *r),
            Err(b) => b,
        };
        let body = match body.downcast::<CausalCtl>() {
            Ok(c) => return self.handle_ctl(ctx, *c),
            Err(b) => b,
        };
        // Re-shard handoff: the retained store above the stable
        // watermark joins the batcher's unacknowledged records.
        let (red, rank, acked) = (&self.red, self.log.rank, self.stable[self.log.rank]);
        self.log
            .on_service_control(ctx, body, || red.retained_of(rank, acked));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.log.on_timer(ctx, token);
    }

    fn checkpoint_due(&mut self, _ctx: &mut Ctx<'_>, next: u64) -> Option<u64> {
        self.log.take_ckpt_due().then_some(next)
    }

    fn on_image_assembled(&mut self, ctx: &mut Ctx<'_>, version: u64) {
        self.log.on_image_assembled(ctx, version);
    }

    fn checkpoint_blob(&mut self, _ctx: &mut Ctx<'_>) -> ProtoBlob {
        let blob = CausalBlob {
            red: self.red.clone_box(),
            slog: self.log.slog.snapshot(),
            rclock: self.log.rclock,
            stable: self.stable.clone(),
        };
        ProtoBlob::new(blob)
    }

    fn on_checkpoint_committed(&mut self, ctx: &mut Ctx<'_>, version: u64) {
        self.log.on_checkpoint_committed(ctx, version, &self.stable);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>, blob: Option<ProtoBlob>) {
        let image = blob
            .and_then(|b| b.body)
            .and_then(|body| body.downcast::<CausalBlob>().ok());
        if let Some(b) = &image {
            self.red = b.red.clone_box();
            self.log.slog = b.slog.clone();
            self.log.rclock = b.rclock;
            self.stable = b.stable.clone();
        }
        for ctl in self.log.begin_recovery(ctx, image.map_or(0, |b| b.rclock)) {
            self.handle_ctl(ctx, ctl);
        }
        self.replay(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::make_reduction;

    /// The image section's wire size at two shapes (`k` retained
    /// determinants, a sender log of 100-byte payloads, `n` ranks), as
    /// plain numbers.
    #[test]
    fn image_section_size_is_pinned() {
        for (k, logged, n, bytes) in [(0, 0, 4, 64), (5, 2, 16, 558)] {
            let mut red = make_reduction(Technique::Vcausal, n);
            for clock in 1..=k {
                red.add_local(Determinant {
                    receiver: 0,
                    clock,
                    sender: 1,
                    ssn: clock,
                    cause: 0,
                });
            }
            let mut slog = SenderLog::new(n);
            for ssn in 0..logged {
                slog.insert(1, ssn, 0, &Payload::synthetic(100));
            }
            let blob = CausalBlob {
                red,
                slog,
                rclock: k,
                stable: vec![0; n],
            };
            assert_eq!(blob.wire_bytes(), bytes, "k = {k}, n = {n}");
        }
    }
}
