//! Protocol CPU cost model.
//!
//! The paper's Figure 8 measures "time to manage piggyback information" —
//! CPU time spent serializing causality on send and integrating it on
//! receive. We charge those costs in virtual time with an
//! *operation-count* model: the real protocol data structures run for
//! real, and every structural operation (event serialized, graph vertex
//! visited, vertex inserted, ...) is counted and multiplied by a
//! calibrated per-operation constant. The constants below are fitted to
//! the 2 GHz AthlonXP of the paper's testbed; `benchmark/`'s probe rows
//! (`core.reduction.probe_ns_per_build`,
//! `core.piggyback.probe_ns_per_wire_len`) measure the actual Rust cost
//! of two of those operations for comparison.

use vlog_sim::SimDuration;

/// Creating a reception event (allocate id, local bookkeeping).
pub const EVENT_CREATE_NS: u64 = 4_200;
/// Building and queueing one Event Logger record.
pub const EL_SHIP_NS: u64 = 5_600;
/// Processing one Event Logger acknowledgement.
pub const EL_ACK_NS: u64 = 1_100;
/// Fixed cost of copying one message into the sender-based log.
pub const SENDER_LOG_FIXED_NS: u64 = 6_200;
/// Per-byte memcpy cost of the sender-based copy (ns/byte).
pub const SENDER_LOG_NS_PER_BYTE: f64 = 0.8;
/// Serializing one determinant into a piggyback.
pub const SERIALIZE_EVENT_NS: u64 = 420;
/// Integrating one received determinant into the causality store.
pub const INTEGRATE_EVENT_NS: u64 = 480;
/// Visiting one vertex during an antecedence-graph traversal.
pub const GRAPH_VISIT_NS: u64 = 90;
/// Inserting one vertex and generating its edges (Manetho's receive-side
/// pass).
pub const GRAPH_INSERT_NS: u64 = 780;
/// LogOn's cheaper single-pass insertion.
pub const LOGON_INSERT_NS: u64 = 520;
/// LogOn's send-side reordering, per emitted event (the partial-order
/// sort that accelerates the receiver).
pub const LOGON_REORDER_NS: u64 = 640;
/// Memory-pressure penalty: per message and per side, scaled by
/// log2(1 + retained determinants). Models the cache behaviour of
/// ever-growing causality structures that the paper blames for the
/// no-EL latency inflation ("the size of the antecedence graph keeps
/// growing on each node"). Sequence stores (Vcausal).
pub const MEM_NS_LOG2_SEQ: u64 = 820;
/// Same penalty for the antecedence-graph stores (Manetho, LogOn): nodes
/// plus edges, so heavier per retained event.
pub const MEM_NS_LOG2_GRAPH: u64 = 1_150;

/// Cost of the sender-based copy of a `bytes`-long payload.
pub fn sender_log_cost(bytes: u64) -> SimDuration {
    SimDuration::from_nanos(SENDER_LOG_FIXED_NS + (bytes as f64 * SENDER_LOG_NS_PER_BYTE) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_log_cost_scales_with_bytes() {
        let small = sender_log_cost(1);
        let big = sender_log_cost(1_000_000);
        assert!(small.as_nanos() >= SENDER_LOG_FIXED_NS);
        assert!(big.as_nanos() > small.as_nanos() + 500_000);
    }
}
