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

/// Per-operation costs of causal protocol work.
#[derive(Debug, Clone)]
pub struct CausalCosts {
    /// Creating a reception event (allocate id, local bookkeeping).
    pub event_create_ns: u64,
    /// Building and queueing one Event Logger record.
    pub el_ship_ns: u64,
    /// Processing one Event Logger acknowledgement.
    pub el_ack_ns: u64,
    /// Fixed cost of copying one message into the sender-based log.
    pub sender_log_fixed_ns: u64,
    /// Per-byte memcpy cost of the sender-based copy (ns/byte).
    pub sender_log_ns_per_byte: f64,
    /// Serializing one determinant into a piggyback.
    pub serialize_event_ns: u64,
    /// Integrating one received determinant into the causality store.
    pub integrate_event_ns: u64,
    /// Visiting one vertex during an antecedence-graph traversal.
    pub graph_visit_ns: u64,
    /// Inserting one vertex and generating its edges (Manetho's
    /// receive-side pass).
    pub graph_insert_ns: u64,
    /// LogOn's cheaper single-pass insertion.
    pub logon_insert_ns: u64,
    /// LogOn's send-side reordering, per emitted event (the partial-order
    /// sort that accelerates the receiver).
    pub logon_reorder_ns: u64,
    /// Memory-pressure penalty: per message and per side, scaled by
    /// log2(1 + retained determinants). Models the cache behaviour of
    /// ever-growing causality structures that the paper blames for the
    /// no-EL latency inflation ("the size of the antecedence graph keeps
    /// growing on each node"). Sequence stores (Vcausal).
    pub mem_ns_log2_seq: u64,
    /// Same penalty for the antecedence-graph stores (Manetho, LogOn):
    /// nodes plus edges, so heavier per retained event.
    pub mem_ns_log2_graph: u64,
}

impl Default for CausalCosts {
    fn default() -> Self {
        CausalCosts {
            event_create_ns: 4_200,
            el_ship_ns: 5_600,
            el_ack_ns: 1_100,
            sender_log_fixed_ns: 6_200,
            sender_log_ns_per_byte: 0.8,
            serialize_event_ns: 420,
            integrate_event_ns: 480,
            graph_visit_ns: 90,
            graph_insert_ns: 780,
            logon_insert_ns: 520,
            logon_reorder_ns: 640,
            mem_ns_log2_seq: 820,
            mem_ns_log2_graph: 1_150,
        }
    }
}

impl CausalCosts {
    /// Cost of the sender-based copy of a `bytes`-long payload.
    pub fn sender_log_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(
            self.sender_log_fixed_ns + (bytes as f64 * self.sender_log_ns_per_byte) as u64,
        )
    }

    /// Shorthand for nanosecond durations.
    pub fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_log_cost_scales_with_bytes() {
        let c = CausalCosts::default();
        let small = c.sender_log_cost(1);
        let big = c.sender_log_cost(1_000_000);
        assert!(small.as_nanos() >= c.sender_log_fixed_ns);
        assert!(big.as_nanos() > small.as_nanos() + 500_000);
    }
}
