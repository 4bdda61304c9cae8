//! The Event Logger protocol (paper §IV-B.4): messages, wire sizes,
//! saturation gauges and the client-side record batcher.
//!
//! *"The Event Logger is a component specific to the message logging
//! protocols we developed. It acts as a reliable storage for all
//! causality events of an execution. Every process sends asynchronously
//! each reception event to the Event Logger. Then the Event Logger sends
//! back an acknowledgment, notifying about the last event stored for each
//! process. The Event Logger is a single thread server based on a select
//! loop to handle non blocking asynchronous communications."*
//!
//! The server itself is [`ElShard`](crate::el_multi::ElShard) — the
//! paper's single Event Logger is its one-shard installation. Its CPU
//! and NIC are ordinary simulated resources — under high event rates (LU
//! class A on 16 nodes) it saturates, and the paper's observed
//! "acknowledgements arrive too late to trim piggybacks" behaviour
//! emerges from the model rather than being scripted.

use vlog_sim::{ActorId, Sim, SimDuration};
use vlog_vmpi::{RClock, Rank};

use crate::event::Determinant;

/// Wire size of one event record (determinant body + rank + framing).
pub const EL_RECORD_BYTES: u64 = 20;

/// Wire size of a record batch carrying `k` determinants (batch framing
/// plus the records themselves).
pub fn el_batch_bytes(k: usize) -> u64 {
    8 + EL_RECORD_BYTES * k as u64
}

/// Wire size of an acknowledgement for `n` ranks (stable clock vector).
pub fn el_ack_bytes(n: usize) -> u64 {
    8 + 4 * n as u64
}

/// Wire size of a query response carrying `k` determinants.
pub fn el_resp_bytes(k: usize, n: usize) -> u64 {
    8 + Determinant::BODY_BYTES * k as u64 + 2 * k as u64 + 4 * n as u64
}

/// Messages understood by the Event Logger.
pub enum ElMsg {
    /// Asynchronous batch of event records from a daemon (clock order;
    /// one coalesced acknowledgement covers the whole batch).
    Record {
        from: Rank,
        dets: Vec<Determinant>,
        reply_to: ActorId,
    },
    /// Recovery query: all stored events of `victim` with clock > `from`.
    Query {
        victim: Rank,
        from: RClock,
        reply_to: ActorId,
    },
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

/// Per-record service cost of the single-threaded select-loop server
/// (defined next to [`record_el_saturation`] so its queue-depth gauge
/// always divides by the same cost the shards in
/// [`el_multi`](crate::el_multi) charge).
pub(crate) const EL_SERVICE_NS: u64 = 2_300;

/// Most Event Logger shards one deployment may have: the per-shard
/// gauge keys below are static tables, and a shard past their end would
/// have nowhere to report.
pub const MAX_EL_SHARDS: usize = 8;

/// Rejects a shard count the gauge tables cannot tell apart.
pub(crate) fn assert_shard_count(k: usize) {
    assert!(
        (1..=MAX_EL_SHARDS).contains(&k),
        "an Event Logger deployment has 1..={MAX_EL_SHARDS} shards \
         (the per-shard gauge keys stop at s{}), got {k}",
        MAX_EL_SHARDS - 1
    );
}

/// Per-shard peak-queue-depth counter keys. The single Event Logger is
/// shard 0.
const SHARD_QUEUE_KEYS: [&str; MAX_EL_SHARDS] = [
    "el_peak_queue_s0",
    "el_peak_queue_s1",
    "el_peak_queue_s2",
    "el_peak_queue_s3",
    "el_peak_queue_s4",
    "el_peak_queue_s5",
    "el_peak_queue_s6",
    "el_peak_queue_s7",
];

/// The per-shard peak-queue-depth counter key of shard `index`.
pub fn shard_queue_key(index: usize) -> &'static str {
    SHARD_QUEUE_KEYS[index]
}

/// Per-shard peak ack-latency counter keys (nanoseconds), parallel to
/// [`shard_queue_key`].
const SHARD_ACK_KEYS: [&str; MAX_EL_SHARDS] = [
    "el_ack_peak_s0_ns",
    "el_ack_peak_s1_ns",
    "el_ack_peak_s2_ns",
    "el_ack_peak_s3_ns",
    "el_ack_peak_s4_ns",
    "el_ack_peak_s5_ns",
    "el_ack_peak_s6_ns",
    "el_ack_peak_s7_ns",
];

/// The per-shard peak ack-latency counter key of shard `index`.
pub fn shard_ack_key(index: usize) -> &'static str {
    SHARD_ACK_KEYS[index]
}

/// Records the server-side saturation gauges for one stored (or
/// duplicate) batch of `batch_len` event records on EL shard `index`:
/// the CPU queue depth the batch saw at arrival (its own service time
/// subtracted out) and its arrival-to-ack-send latency. The
/// complementary *creator*-side
/// gauge — the un-acked event window that decides whether acks arrive
/// in time to trim piggybacks — is recorded by the protocols at ship
/// time (see [`record_el_outstanding`]).
pub(crate) fn record_el_saturation(
    sim: &mut Sim,
    index: usize,
    ack_latency: SimDuration,
    batch_len: usize,
) {
    let depth = (ack_latency.as_nanos() / EL_SERVICE_NS).saturating_sub(batch_len as u64);
    let stats = sim.stats_mut();
    stats.set_max("el_peak_queue", depth);
    stats.set_max(shard_queue_key(index), depth);
    stats.add_time("el_ack_latency", ack_latency);
    stats.bump("el_ack_samples");
    stats.set_max("el_ack_latency_peak_ns", ack_latency.as_nanos());
    stats.set_max(shard_ack_key(index), ack_latency.as_nanos());
}

/// Records the creator-side saturation gauge when a protocol ships the
/// event with clock `shipped` while its last EL-acknowledged own clock
/// is `acked`: the gap is the number of its events still outstanding at
/// the Event Logger (shipped but not yet acknowledged). Under EL
/// saturation this window grows — the paper's "acknowledgements arrive
/// too late to trim piggybacks" behaviour, made measurable.
pub fn record_el_outstanding(sim: &mut Sim, shipped: RClock, acked: RClock) {
    sim.stats_mut()
        .set_max("el_peak_outstanding", shipped.saturating_sub(acked));
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

    fn det(creator: Rank, clock: RClock) -> Determinant {
        Determinant {
            receiver: creator,
            clock,
            sender: 0,
            ssn: clock,
            cause: 0,
        }
    }

    #[test]
    fn outstanding_gauge_tracks_the_unacked_window() {
        let mut sim = Sim::new(5);
        record_el_outstanding(&mut sim, 10, 7);
        record_el_outstanding(&mut sim, 12, 11);
        assert_eq!(sim.stats().get("el_peak_outstanding"), 3);
        // A creator that is fully acknowledged contributes zero.
        record_el_outstanding(&mut sim, 4, 4);
        assert_eq!(sim.stats().get("el_peak_outstanding"), 3);
    }

    #[test]
    fn shard_keys_are_stable_up_to_the_shard_limit() {
        assert_eq!(shard_queue_key(0), "el_peak_queue_s0");
        assert_eq!(shard_queue_key(MAX_EL_SHARDS - 1), "el_peak_queue_s7");
        assert_eq!(shard_ack_key(0), "el_ack_peak_s0_ns");
        assert_eq!(shard_ack_key(MAX_EL_SHARDS - 1), "el_ack_peak_s7_ns");
    }

    /// Shards 8 and up used to fold into `el_peak_queue_s7` silently;
    /// now neither the suite builder nor the installer accepts them.
    #[test]
    #[should_panic(expected = "1..=8 shards (the per-shard gauge keys stop at s7), got 9")]
    fn suite_rejects_more_shards_than_gauge_keys() {
        let _ = crate::CausalSuite::new(crate::Technique::Vcausal, true)
            .with_distributed_el(MAX_EL_SHARDS + 1, vlog_sim::SimDuration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "1..=8 shards (the per-shard gauge keys stop at s7), got 9")]
    fn install_rejects_more_shards_than_gauge_keys() {
        let mut sim = Sim::new(5);
        let node = sim.add_node();
        crate::install_distributed_el(
            &mut sim,
            node,
            MAX_EL_SHARDS + 1,
            vlog_sim::SimDuration::from_millis(2),
        );
    }

    #[test]
    fn wire_sizes_scale_with_ranks_and_events() {
        assert_eq!(el_ack_bytes(16), 8 + 64);
        assert_eq!(el_batch_bytes(1), 8 + EL_RECORD_BYTES);
        assert_eq!(el_batch_bytes(5), 8 + 5 * EL_RECORD_BYTES);
        assert!(el_resp_bytes(100, 16) > el_resp_bytes(10, 16));
        assert!(el_resp_bytes(0, 32) > 0);
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
