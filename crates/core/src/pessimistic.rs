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

use vlog_sim::SimDuration;
use vlog_vmpi::control::Body;
use vlog_vmpi::{
    AppMsg, Ctx, Payload, ProtoBlob, RClock, Rank, RecvGate, SendGate, Ssn, Tag, VProtocol,
};

use crate::costs::{EL_SHIP_NS, EVENT_CREATE_NS};
use crate::el_multi::ElReply;
use crate::logcore::{CausalCtl, LogCore};
use crate::sender_log::SenderLog;

/// Checkpoint-image section of the pessimistic protocol.
pub struct PessimisticBlob {
    slog: SenderLog,
    rclock: RClock,
    stable_own: RClock,
}

impl Body for PessimisticBlob {
    fn wire_bytes(&self) -> u64 {
        self.slog.payload_bytes() + 16 * self.slog.len() as u64 + 16
    }
}

/// The pessimistic V-protocol for one rank: the shared [`LogCore`] plus
/// the send gate that holds every emission until the Event Logger has
/// acknowledged all local events.
pub struct PessimisticProtocol {
    log: LogCore,
    /// Highest own event acknowledged stable by the EL.
    stable_own: RClock,
}

impl PessimisticProtocol {
    pub fn new(rank: Rank, n: usize) -> Self {
        PessimisticProtocol {
            log: LogCore::new(true, rank, n),
            stable_own: 0,
        }
    }

    /// Drives the shared replay engine. Pessimistic-specific:
    /// determinants collected from the EL are stable by definition of
    /// the protocol, and sends held during recovery go out when it ends.
    fn replay(&mut self, ctx: &mut Ctx<'_>) {
        let stable_own = &mut self.stable_own;
        self.log.try_replay(
            ctx,
            |_, _, det| *stable_own = (*stable_own).max(det.clock),
            |ctx| ctx.core.release_held(),
        );
    }

    fn handle_el_reply(&mut self, ctx: &mut Ctx<'_>, reply: ElReply) {
        match reply {
            ElReply::Ack { stable } => {
                self.log.ack_received(ctx);
                let prev = self.stable_own;
                self.stable_own = self.stable_own.max(stable[self.log.rank]);
                // A monotone watermark over all of this rank's
                // incarnations: a restart resumes below what its
                // predecessor was acknowledged, hence `max`.
                let st = ctx.rank_stats();
                st.el_acked_events = st.el_acked_events.max(self.stable_own);
                if self.stable_own > prev && self.stable_own >= self.log.rclock {
                    ctx.core.release_held();
                }
                self.log.ack_flush(ctx);
            }
            ElReply::QueryResp { dets, stable } => {
                self.stable_own = self.stable_own.max(stable[self.log.rank]);
                self.log.on_query_resp(ctx, &dets);
                self.replay(ctx);
            }
        }
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
                // No causality to share (the EL has it all), but the
                // victim still needs our logged payloads.
                self.log
                    .serve_reclaim(ctx, victim, &watermarks, recovery_id, Vec::new());
            }
            CausalCtl::ReclaimResp { from, dets } => {
                self.log.on_reclaim_resp(ctx, from, &dets);
                self.replay(ctx);
            }
            CausalCtl::GcNotice { from, received, .. } => {
                self.log.on_gc_notice(ctx, from, &received)
            }
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
        let cost = self.log.log_send(dst, ssn, tag, payload);
        // The pessimistic property: no impact on the system before every
        // local event is stable.
        if self.stable_own < self.log.rclock && !self.log.recovering() {
            return SendGate::Hold;
        }
        SendGate::Go { cost }
    }

    fn on_app_msg(&mut self, ctx: &mut Ctx<'_>, msg: &mut AppMsg) -> RecvGate {
        if self.log.buffer_if_recovering(ctx, msg) {
            self.replay(ctx);
            return RecvGate::Consume;
        }
        let det = self.log.next_event(msg.src, msg.ssn, 0);
        // The held-send release protocol rides on the batched ship path
        // unchanged: the EL still acknowledges every record, just with
        // one coalesced ack per batch.
        self.log.ship_to_el(ctx, det, self.stable_own);
        let cost = SimDuration::from_nanos(EVENT_CREATE_NS + EL_SHIP_NS);
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
        // Re-shard handoff: no local determinant store (the EL has it
        // all), so the batcher's unacknowledged records are everything
        // the dead shard may have lost.
        self.log.on_service_control(ctx, body, Vec::new);
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
        let blob = PessimisticBlob {
            slog: self.log.slog.snapshot(),
            rclock: self.log.rclock,
            stable_own: self.stable_own,
        };
        ProtoBlob::new(blob)
    }

    fn on_checkpoint_committed(&mut self, ctx: &mut Ctx<'_>, version: u64) {
        // Pessimistic logging tracks only its own EL stability; peers
        // ignore the vector (there is no piggyback to prune), but the
        // wire format stays shared with the causal protocols.
        let mut stable = vec![0; self.log.n];
        stable[self.log.rank] = self.stable_own;
        self.log.on_checkpoint_committed(ctx, version, &stable);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>, blob: Option<ProtoBlob>) {
        let image = blob
            .and_then(|b| b.body)
            .and_then(|body| body.downcast::<PessimisticBlob>().ok());
        if let Some(b) = &image {
            self.log.slog = b.slog.clone();
            self.log.rclock = b.rclock;
            // A committed image is stable storage, and replay starts past
            // it: the events it covers are stable even if their
            // determinants died coalescing in the batcher. The sends the
            // image still holds wait on nothing newer.
            self.stable_own = b.stable_own.max(b.rclock);
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

    /// The image section's wire size with an empty sender log and with
    /// two 100-byte payloads logged, as plain numbers.
    #[test]
    fn image_section_size_is_pinned() {
        for (logged, bytes) in [(0, 16), (2, 248)] {
            let mut slog = SenderLog::new(4);
            for ssn in 0..logged {
                slog.insert(1, ssn, 0, &Payload::synthetic(100));
            }
            let blob = PessimisticBlob {
                slog,
                rclock: 0,
                stable_own: 0,
            };
            assert_eq!(blob.wire_bytes(), bytes, "{logged} logged");
        }
    }
}
