//! The Vcausal piggyback reduction (paper §III-B.1).
//!
//! *"Each node uses one sequence of events per process to store the
//! causality information. When a node A receives some causality
//! information from a process B, it appends this information to its logs.
//! Moreover it stores knowledge of the last events e_p, created by each
//! process p, it has received from B. When A sends a message to B, it
//! piggybacks every event from e_p to the end of its sequences and
//! changes e_p to the last events it sends to B."*
//!
//! The reduction is deliberately weak: the per-channel watermark advances
//! only when events are *sent* ("changes e_p to the last events it sends
//! to B"). With plain sequences there is no way to infer what a peer
//! already holds, so Vcausal echoes events straight back to the peer that
//! piggybacked them — the paper's Figure 2 shows B returning A's own
//! event `id(m)` to A — and sends a receiver its own events (Figure 3:
//! P3 piggybacks all of a–j to P2). The antecedence-graph methods avoid
//! both by traversing the receiver's causal past, which is exactly why
//! Vcausal piggybacks 2-3× more than Manetho without an Event Logger,
//! and why it depends so strongly on one.
//!
//! The sequences are a [`DetStore`] — the same dense clock-indexed
//! container that holds the antecedence graph's vertices and the Event
//! Logger's records — fed through [`DetStore::append`]: a sequence never
//! learns anything at or below its head.

use vlog_vmpi::{RClock, Rank};

use crate::detseq::{ChunkPool, DetStore, PeerTable};
use crate::event::Determinant;
use crate::reduction::{Reduction, Work};

pub struct VcausalRed {
    /// The paper's "one sequence of events per process", with the highest
    /// clock ever seen per creator and the EL stability watermarks.
    store: DetStore,
    /// `sent.row(peer)[creator]`: highest clock of `creator`'s events
    /// this node has piggybacked to `peer` (send-side watermark only — the
    /// paper's Vcausal cannot infer what a peer learned elsewhere).
    sent: PeerTable,
    /// `peer_stable.row(peer)[creator]`: stability `peer` itself reported
    /// (via GC notices). Send-side pruning floor for that channel only —
    /// the peer already knows these events are safely logged, so they
    /// never need to reach it again.
    peer_stable: PeerTable,
    /// Scratch reused by every `build` (meaningless between calls, so a
    /// clone starts it empty): the per-creator channel watermark.
    bound: Vec<RClock>,
}

impl VcausalRed {
    pub fn new(n: usize) -> Self {
        VcausalRed {
            store: DetStore::new(n),
            sent: PeerTable::new(n),
            peer_stable: PeerTable::new(n),
            bound: Vec::with_capacity(n),
        }
    }
}

impl Reduction for VcausalRed {
    fn add_local(&mut self, det: Determinant) -> Work {
        let added = self.store.append(det);
        Work::inserts(added as u64)
    }

    fn integrate(&mut self, _from: Rank, _sender_clock: RClock, dets: &[Determinant]) -> Work {
        // Send-side watermarks only: learned events will be echoed back
        // to the peer that sent them (paper Figure 2) because plain
        // sequences cannot represent peer knowledge.
        let mut inserts = 0;
        for det in dets {
            inserts += self.store.append(*det) as u64;
        }
        Work {
            visits: dets.len() as u64,
            inserts,
        }
    }

    fn absorb(&mut self, dets: &[Determinant]) {
        // Recovered knowledge may arrive out of clock order; insert sorted.
        let mut sorted: Vec<_> = dets.to_vec();
        sorted.sort_by_key(|d| (d.receiver, d.clock));
        for det in sorted {
            self.store.append(det);
        }
    }

    fn build(&mut self, dst: Rank, _my_clock: RClock) -> (Vec<Determinant>, Work) {
        let (sent, peer_stable) = (self.sent.row(dst), self.peer_stable.row(dst));
        self.bound.clear();
        self.bound.extend(
            (0..self.store.n()).map(|c| sent[c].max(self.store.stable(c)).max(peer_stable[c])),
        );
        let out = self.store.collect_above(&self.bound);
        let heads = (0..self.store.n()).map(|c| (c, self.store.head(c)));
        self.sent.raise(dst, heads);
        // Every emitted entry was walked back from the newest one.
        let visits = out.len() as u64;
        (out, Work::visits(visits))
    }

    fn apply_stable(&mut self, stable: &[RClock]) {
        self.store.apply_stable(stable);
    }

    fn note_peer_stable(&mut self, peer: Rank, stable: &[RClock]) {
        let stable = stable.iter().copied().enumerate().take(self.store.n());
        self.peer_stable.raise(peer, stable);
    }

    fn retained(&self) -> Vec<Determinant> {
        self.store.retained()
    }

    fn retained_of(&self, creator: Rank, above: RClock) -> Vec<Determinant> {
        self.store.above(creator, above)
    }

    fn retained_count(&self) -> usize {
        self.store.len()
    }

    fn share(&mut self, pool: &mut ChunkPool) {
        self.store.share(pool);
    }

    fn clone_box(&self) -> Box<dyn Reduction> {
        Box::new(VcausalRed {
            store: self.store.clone(),
            sent: self.sent.clone(),
            peer_stable: self.peer_stable.clone(),
            bound: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(receiver: Rank, clock: RClock) -> Determinant {
        Determinant {
            receiver,
            clock,
            sender: (receiver + 1) % 4,
            ssn: clock,
            cause: 0,
        }
    }

    #[test]
    fn never_sends_twice_on_one_channel() {
        let mut r = VcausalRed::new(4);
        r.add_local(det(0, 1));
        r.add_local(det(0, 2));
        let (first, _) = r.build(1, 2);
        assert_eq!(first.len(), 2);
        let (second, _) = r.build(1, 2);
        assert!(second.is_empty(), "events were piggybacked twice");
        // A different channel still gets everything.
        let (other, _) = r.build(2, 2);
        assert_eq!(other.len(), 2);
    }

    #[test]
    fn integrate_skips_duplicate_inserts() {
        let mut r = VcausalRed::new(4);
        let d = det(2, 1);
        let w1 = r.integrate(1, 0, &[d]);
        assert_eq!(w1.inserts, 1);
        let w2 = r.integrate(3, 0, &[d]);
        assert_eq!(w2.inserts, 0, "duplicate insert");
    }

    #[test]
    fn learned_events_are_echoed_back_to_their_source() {
        // Paper Figure 2: B piggybacks A's own event id(m) back to A,
        // because Vcausal's watermark only advances on send.
        let mut r = VcausalRed::new(4);
        let d = det(2, 1); // event created by rank 2, learned from rank 1
        r.integrate(1, 0, &[d]);
        let (back_to_1, _) = r.build(1, 0);
        assert_eq!(back_to_1, vec![d], "Vcausal must echo learned events");
        // ... but only once per channel.
        let (again, _) = r.build(1, 0);
        assert!(again.is_empty());
        // And it even sends rank 2 its own event back.
        let (to_creator, _) = r.build(2, 0);
        assert_eq!(to_creator, vec![d]);
    }

    #[test]
    fn stability_garbage_collects_prefixes() {
        let mut r = VcausalRed::new(2);
        for k in 1..=10 {
            r.add_local(det(0, k));
        }
        assert_eq!(r.retained_count(), 10);
        r.apply_stable(&[7, 0]);
        assert_eq!(r.retained_count(), 3);
        let (pb, _) = r.build(1, 10);
        assert_eq!(pb.len(), 3);
        assert!(pb.iter().all(|d| d.clock > 7));
        // Late (stale) determinants below the watermark are not re-added.
        assert_eq!(r.integrate(1, 0, &[det(0, 5)]).inserts, 0);
    }

    #[test]
    fn stable_events_are_never_echoed() {
        let mut r = VcausalRed::new(2);
        r.absorb(&[det(1, 1), det(1, 2), det(1, 3)]);
        // Once the EL acknowledged them, they stop travelling entirely.
        r.apply_stable(&[0, 3]);
        let (pb, _) = r.build(1, 0);
        assert!(pb.is_empty());
    }

    #[test]
    fn peer_stability_prunes_that_channel_only() {
        let mut r = VcausalRed::new(3);
        for k in 1..=6 {
            r.add_local(det(0, k));
        }
        // Rank 1 reported (via a GC notice) that rank 0's events up to
        // clock 4 are EL-stable: piggybacks to 1 skip them...
        r.note_peer_stable(1, &[4, 0, 0]);
        let (to_1, _) = r.build(1, 6);
        assert_eq!(to_1.iter().map(|d| d.clock).collect::<Vec<_>>(), [5, 6]);
        // ...while rank 2 still gets everything, and the local store
        // keeps all six (peer knowledge is not global stability).
        let (to_2, _) = r.build(2, 6);
        assert_eq!(to_2.len(), 6);
        assert_eq!(r.retained_count(), 6);
        // Stale (lower) reports never regress the floor.
        r.note_peer_stable(1, &[2, 0, 0]);
        r.add_local(det(0, 7));
        let (again, _) = r.build(1, 7);
        assert_eq!(again.iter().map(|d| d.clock).collect::<Vec<_>>(), [7]);
    }

    #[test]
    fn clone_box_is_independent_of_the_live_store() {
        let mut r = VcausalRed::new(2);
        r.add_local(det(0, 1));
        let snap = r.clone_box();
        r.add_local(det(0, 2));
        assert_eq!(snap.retained_count(), 1);
        assert_eq!(r.retained_count(), 2);
    }

    #[test]
    fn a_checkpoint_clone_keeps_its_store_through_later_traffic() {
        // Long enough sequences that the clone shares full chunks.
        let mut r = VcausalRed::new(2);
        for k in 1..=100 {
            r.add_local(det(0, k));
        }
        r.integrate(1, 0, &(1..=70).map(|k| det(1, k)).collect::<Vec<_>>());
        let before = r.retained();
        let snap = r.clone_box();
        // The live side appends, absorbs out of order and prunes.
        r.integrate(1, 0, &(71..=140).map(|k| det(1, k)).collect::<Vec<_>>());
        r.absorb(&(101..=130).rev().map(|k| det(0, k)).collect::<Vec<_>>());
        r.apply_stable(&[90, 65]);
        assert_eq!(r.retained_count(), 40 + 75);
        assert_eq!(snap.retained(), before);
        assert_eq!(snap.retained_count(), 170);
    }
}
