//! Coordinated checkpointing (Chandy-Lamport style) — the Figure 1
//! baseline the message-logging protocols are compared against.
//!
//! The checkpoint scheduler periodically broadcasts a global snapshot id.
//! Each rank checkpoints at its next application-safe point, then sends a
//! **marker** to every peer; the marker carries the number of messages
//! the sender had emitted on that channel when it snapshotted
//! (`upto_ssn`). The receiver records, as channel state, every message
//! with `ssn < upto_ssn` accepted *after* its own snapshot; the channel
//! closes when its acceptance watermark reaches `upto_ssn`. The image
//! ships once every channel closed. On *any* failure the dispatcher rolls
//! **all** ranks back to the last globally complete snapshot; recorded
//! channel state is re-injected on restart.
//!
//! Deviations from textbook Chandy-Lamport: the
//! snapshot is taken at the next application checkpoint point rather than
//! instantaneously at marker receipt, and markers carry sequence-number
//! watermarks instead of relying on in-band position (our transport can
//! reorder a rendezvous payload behind later eager messages, exactly like
//! multi-socket MPI implementations). Messages delivered between a
//! commanded snapshot and the local checkpoint point are covered by the
//! receiver's snapshot and regenerated deterministically by the sender's
//! rollback re-execution (duplicates are dropped by the channel sequence
//! numbers) — consistent for piecewise-deterministic programs, the same
//! assumption message logging already makes.

use vlog_sim::causality::Edge;
use vlog_sim::SimDuration;
use vlog_vmpi::control::Body;
use vlog_vmpi::{
    AppMsg, ClusterState, Ctx, Payload, ProtoBlob, ProtoPhase, Rank, RecvGate, SchedulerCmd, Ssn,
    Tag, VProtocol,
};

/// Marker control message: "I snapshotted `id` having sent you
/// `upto_ssn` messages".
pub struct MarkerCtl {
    pub from: Rank,
    pub id: u64,
    pub upto_ssn: Ssn,
}

impl Body for MarkerCtl {
    fn wire_bytes(&self) -> u64 {
        24
    }
}

/// Channel recording state for one snapshot.
struct Phase {
    id: u64,
    /// Marker watermark per source (None until the marker arrives).
    upto: Vec<Option<Ssn>>,
    /// Channel still open (recording or waiting for its marker).
    open: Vec<bool>,
    /// Recorded channel state per source.
    logs: Vec<Vec<(Ssn, Tag, Payload)>>,
    shipped: bool,
}

/// Image section: the recorded channel state.
pub struct CoordBlob {
    logs: Vec<Vec<(Ssn, Tag, Payload)>>,
}

impl Body for CoordBlob {
    fn wire_bytes(&self) -> u64 {
        8 + self
            .logs
            .iter()
            .flatten()
            .map(|(_, _, p)| p.len() + 16)
            .sum::<u64>()
    }
}

/// The coordinated-checkpointing V-protocol for one rank.
pub struct CoordinatedProtocol {
    rank: Rank,
    n: usize,
    /// Snapshot commanded but not yet taken.
    pending: Option<u64>,
    /// Markers that arrived before our snapshot: (id, src, upto).
    early_markers: Vec<(u64, Rank, Ssn)>,
    phase: Option<Phase>,
    /// Highest snapshot id this incarnation has taken. A command or a
    /// marker at or below it is late: taking its id again would mix two
    /// cuts under one id.
    taken: u64,
    /// Snapshot ids this rank has already closed its channels for
    /// after finishing its program. A finished rank must answer each
    /// snapshot id exactly once — replying to every incoming marker
    /// made two finished ranks bounce ever-growing marker storms at
    /// each other (each reply triggered 15 more replies) until the
    /// event queue ate all memory — but it must still answer *every*
    /// distinct id, including ones older than the newest it has seen
    /// (a slow peer can be mid-phase on an earlier id and needs this
    /// rank's marker to close its channel).
    closed_after_finish: IdSet,
}

/// A set of snapshot ids, one bit per id. Ids are dense from 1, so the
/// bits grow on demand to the highest id seen.
#[derive(Debug, Default)]
struct IdSet(Vec<u64>);

impl IdSet {
    /// Adds `id`; true when it was absent.
    fn insert(&mut self, id: u64) -> bool {
        let (word, bit) = ((id / 64) as usize, 1 << (id % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let absent = self.0[word] & bit == 0;
        self.0[word] |= bit;
        absent
    }
}

impl CoordinatedProtocol {
    pub fn new(rank: Rank, n: usize) -> Self {
        CoordinatedProtocol {
            rank,
            n,
            pending: None,
            early_markers: Vec::new(),
            phase: None,
            taken: 0,
            closed_after_finish: IdSet::default(),
        }
    }

    /// Closes this finished rank's channels for snapshot `id` (markers
    /// to every peer) — exactly once per distinct id, unless the run
    /// re-introduces the marker storm
    /// ([`SeededBugs::marker_storm`](vlog_vmpi::SeededBugs)).
    fn close_finished(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        if self.closed_after_finish.insert(id) || ClusterState::of(ctx.sim).seeded_bugs.marker_storm
        {
            // Once-only by design: a second production of the same
            // (rank, id) key is exactly the marker-storm bug, and the
            // causality log's duplicate detector names it.
            ctx.sim.record(|| Edge::Produced {
                key: vlog_sim::ckey!("snapshot-close-finished", rank = self.rank, id = id),
                caused_by: None,
                unique: true,
            });
            self.send_markers(ctx, id);
        }
    }

    fn send_markers(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let sent = ctx.core.next_ssn_watermarks();
        for (peer, &upto_ssn) in sent.iter().enumerate().take(self.n) {
            if peer != self.rank {
                vlog_sim::event!(ctx.sim, "marker" { from = self.rank, to = peer, id = id });
                let marker = MarkerCtl {
                    from: self.rank,
                    id,
                    upto_ssn,
                };
                ctx.core.control_to_rank(ctx.sim, peer, marker);
            }
        }
        ctx.phase_boundary(ProtoPhase::MarkerSent);
    }

    /// Re-evaluates whether channel `src` can close, and ships the image
    /// when the last one does.
    fn maybe_close(&mut self, ctx: &mut Ctx<'_>, src: Rank) {
        let accepted = ctx.core.expected_of(src);
        let Some(phase) = self.phase.as_mut() else {
            return;
        };
        if !phase.open[src] {
            return;
        }
        let Some(upto) = phase.upto[src] else { return };
        if accepted >= upto {
            phase.open[src] = false;
            if !phase.shipped && !phase.open.iter().any(|&o| o) {
                phase.shipped = true;
                vlog_sim::event!(ctx.sim, "snapshot-shipped" { rank = self.rank, id = phase.id }
                    caused_by "snapshot-taken" { rank = self.rank, id = phase.id }
                );
                ctx.core.request_ship();
            }
        }
    }

    fn on_marker(&mut self, ctx: &mut Ctx<'_>, m: MarkerCtl) {
        ctx.sim.record(|| Edge::Consume {
            cause: vlog_sim::ckey!("marker", from = m.from, to = self.rank, id = m.id),
            by: vlog_sim::ckey!("marker-handled", rank = self.rank),
        });
        if let Some(phase) = self.phase.as_ref() {
            if phase.id == m.id {
                self.phase.as_mut().unwrap().upto[m.from] = Some(m.upto_ssn);
                self.maybe_close(ctx, m.from);
                return;
            }
        }
        if m.id <= self.taken {
            return; // a late marker of a snapshot this rank has taken
        }
        // Marker ahead of our own snapshot: the first marker plays the
        // Chandy-Lamport role of triggering the local snapshot.
        if self.pending.is_none() && self.phase.is_none() {
            if ctx.core.app_finished() {
                // We will never reach another checkpoint point; close our
                // channels (once per id) so peers can ship their images.
                self.close_finished(ctx, m.id);
                return;
            }
            self.pending = Some(m.id);
        }
        if self.pending == Some(m.id) {
            self.early_markers.push((m.id, m.from, m.upto_ssn));
        }
    }
}

impl VProtocol for CoordinatedProtocol {
    fn name(&self) -> String {
        "Coordinated".into()
    }

    fn on_app_msg(&mut self, ctx: &mut Ctx<'_>, msg: &mut AppMsg) -> RecvGate {
        if let Some(phase) = self.phase.as_mut() {
            if phase.open[msg.src] {
                let record = phase.upto[msg.src].is_none_or(|upto| msg.ssn < upto);
                if record {
                    phase.logs[msg.src].push((msg.ssn, msg.tag, msg.payload.clone()));
                }
            }
        }
        self.maybe_close(ctx, msg.src);
        RecvGate::Deliver {
            cost: SimDuration::ZERO,
        }
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, body: Box<dyn std::any::Any + Send>) {
        let body = match body.downcast::<MarkerCtl>() {
            Ok(m) => {
                self.on_marker(ctx, *m);
                return;
            }
            Err(b) => b,
        };
        if let Ok(cmd) = body.downcast::<SchedulerCmd>() {
            if let SchedulerCmd::GlobalSnapshot { id } = *cmd {
                if self.phase.is_some() || self.pending.is_some() || id <= self.taken {
                    return; // previous snapshot still in flight, or a late command
                }
                if ctx.core.app_finished() {
                    // No more safe points: close channels, skip the image.
                    self.close_finished(ctx, id);
                } else {
                    self.pending = Some(id);
                }
            }
        }
    }

    fn checkpoint_due(&mut self, _ctx: &mut Ctx<'_>, _next: u64) -> Option<u64> {
        self.pending
    }

    fn on_image_assembled(&mut self, ctx: &mut Ctx<'_>, version: u64) {
        let id = self.pending.take().unwrap_or(version);
        self.taken = self.taken.max(id);
        vlog_sim::event!(ctx.sim, "snapshot-taken" { rank = self.rank, id = id });
        // The image cannot ship until every peer's marker for this id
        // arrives: declare those edges so a marker lost to a missing
        // sender shows up as the dangling cause of a stuck snapshot.
        for src in 0..self.n {
            if src != self.rank {
                ctx.sim.record(|| Edge::Expect {
                    cause: vlog_sim::ckey!("marker", from = src, to = self.rank, id = id),
                    waiter: vlog_sim::ckey!("snapshot-taken", rank = self.rank, id = id),
                    owner: self.rank as u64,
                });
            }
        }
        self.send_markers(ctx, id);
        let mut phase = Phase {
            id,
            upto: vec![None; self.n],
            open: (0..self.n).map(|s| s != self.rank).collect(),
            logs: vec![Vec::new(); self.n],
            shipped: false,
        };
        for (mid, src, upto) in std::mem::take(&mut self.early_markers) {
            if mid == id {
                phase.upto[src] = Some(upto);
            }
        }
        self.phase = Some(phase);
        // Channels that are already drained can close immediately.
        for src in 0..self.n {
            if src != self.rank {
                self.maybe_close(ctx, src);
            }
        }
    }

    fn checkpoint_blob(&mut self, _ctx: &mut Ctx<'_>) -> ProtoBlob {
        let blob = match self.phase.take() {
            Some(p) => CoordBlob { logs: p.logs },
            None => CoordBlob {
                logs: vec![Vec::new(); self.n],
            },
        };
        ProtoBlob::new(blob)
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>, blob: Option<ProtoBlob>) {
        self.pending = None;
        self.early_markers.clear();
        self.phase = None;
        ctx.core.set_recovered(ctx.sim);
        let Some(body) = blob.and_then(|b| b.body) else {
            return;
        };
        let Ok(blob) = body.downcast::<CoordBlob>() else {
            return;
        };
        // Re-inject the recorded channel state; the expected sequence
        // numbers advance past every re-injected message so the senders'
        // rolled-back counters line up.
        for src in 0..self.n {
            for (ssn, tag, payload) in &blob.logs[src] {
                ctx.core.advance_expected(src, ssn + 1);
                ctx.core
                    .inject_deliver(src, *tag, payload.clone(), SimDuration::ZERO);
            }
        }
    }

    fn on_app_finished(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(id) = self.pending.take() {
            // The program ended before the next checkpoint point: close
            // our channels so peers can complete their snapshot — and
            // record the id, so markers for it that are still in flight
            // cannot trigger a second broadcast.
            self.close_finished(ctx, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The image section's wire size with no recorded message on `n`
    /// channels and with three 100-byte messages recorded, as plain
    /// numbers.
    #[test]
    fn image_section_size_is_pinned() {
        for (n, recorded, bytes) in [(4, 0, 8), (16, 3, 356)] {
            let mut logs = vec![Vec::new(); n];
            for ssn in 0..recorded {
                logs[1].push((ssn, 0, Payload::synthetic(100)));
            }
            let blob = CoordBlob { logs };
            assert_eq!(blob.wire_bytes(), bytes, "n = {n}");
        }
    }

    /// A finished rank closes its channels once per id, older ids
    /// included.
    #[test]
    fn each_id_is_closed_once_in_any_order() {
        let mut closed = IdSet::default();
        let sent: Vec<u64> = [3, 1, 3, 2, 1]
            .into_iter()
            .filter(|&id| closed.insert(id))
            .collect();
        assert_eq!(sent, [3, 1, 2]);
        assert!(closed.insert(200) && !closed.insert(200));
    }
}
