//! Protocol-phase boundaries and phase-triggered fault injection.
//!
//! A timed [`crate::FaultPlan`] kills a rank at a fixed virtual instant
//! — which protocol step that instant lands on is an accident of the
//! seed and the scale. Phase faults instead crash a rank exactly when it
//! crosses an *enumerated protocol-phase boundary* (the `n`-th marker
//! broadcast, determinant shipment, Event-Logger ack, checkpoint-image
//! fetch), so a schedule explorer can enumerate the fault-timing space
//! structurally instead of sampling wall-clock instants.
//!
//! Protocols report boundary crossings through
//! [`crate::hooks::Ctx::phase_boundary`]. The armed faults and the
//! crossing counts are a [`PhaseFaults`] in the run's
//! [`ClusterState`](crate::ClusterState), next to the topology that
//! says where the victim and the dispatcher live, so a triggered fault
//! takes the exact crash → detect → relaunch path of a timed one: both
//! go through `cluster::inject_crash`.

use std::collections::BTreeMap;

use crate::types::Rank;

/// An enumerated protocol-phase boundary a rank can cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtoPhase {
    /// A coordinated-checkpoint marker broadcast left this rank.
    MarkerSent,
    /// A determinant record was shipped to the Event Logger.
    DeterminantShipped,
    /// An Event-Logger stability ack was applied by this rank.
    AckReceived,
    /// This rank's checkpoint image arrived and its restart completed.
    ImageFetched,
}

/// A fault armed on a phase boundary: crash `rank` the `nth` time
/// (1-based) it crosses `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseFault {
    /// Which boundary triggers the crash.
    pub phase: ProtoPhase,
    /// The rank to kill.
    pub rank: Rank,
    /// Which crossing triggers it (1 = the first).
    pub nth: u64,
}

/// The phase faults of one run: those still armed, and how often each
/// rank has crossed each boundary so far.
#[derive(Debug, Default)]
pub struct PhaseFaults {
    pending: Vec<PhaseFault>,
    counts: BTreeMap<(Rank, ProtoPhase), u64>,
}

impl PhaseFaults {
    /// Arms `faults`; crossings match them in arming order.
    pub fn new(faults: Vec<PhaseFault>) -> Self {
        PhaseFaults {
            pending: faults,
            counts: BTreeMap::new(),
        }
    }

    /// Records that `rank` crossed `phase` and disarms and returns the
    /// fault that crossing triggers, if any. With nothing armed (the
    /// common case) nothing is counted: no fault can ever match.
    pub fn crossed(&mut self, rank: Rank, phase: ProtoPhase) -> Option<PhaseFault> {
        if self.pending.is_empty() {
            return None;
        }
        let count = self.counts.entry((rank, phase)).or_insert(0);
        *count += 1;
        let n = *count;
        let pos = self
            .pending
            .iter()
            .position(|f| f.rank == rank && f.phase == phase && f.nth == n)?;
        Some(self.pending.remove(pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_crossing_arithmetic_matches_in_order() {
        let fault = PhaseFault {
            phase: ProtoPhase::DeterminantShipped,
            rank: 1,
            nth: 2,
        };
        let mut arm = PhaseFaults::new(vec![fault]);
        let shipped = ProtoPhase::DeterminantShipped;
        assert_eq!(arm.crossed(1, shipped), None, "nth=2 not yet");
        assert_eq!(arm.crossed(0, shipped), None, "other rank");
        assert_eq!(arm.crossed(1, ProtoPhase::AckReceived), None, "other phase");
        assert_eq!(arm.crossed(1, shipped), Some(fault), "2nd crossing");
        assert_eq!(arm.crossed(1, shipped), None, "fires once");
        assert!(arm.pending.is_empty());
    }
}
