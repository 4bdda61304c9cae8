//! The antecedence graph (paper §III-B.2).
//!
//! *"This graph extends the reception sequences structure of Vcausal with
//! a relation between events of different processes. Two events e_P1 of
//! process P1 and e_P2 of process P2 are linked if and only if e_P2
//! denotes a reception of a message m sent by P1 and e_P1 is the last non
//! deterministic event preceding the emission of m."*
//!
//! Vertices are reception events keyed `(creator, clock)`; each vertex
//! has an implicit program-order edge to `(creator, clock-1)` and an
//! explicit *cause* edge to the sender's last event before the emission.
//! Stable vertices (acknowledged by the Event Logger) are pruned — the
//! paper notes the graphs "lose some vertices and incident edges" when
//! the EL acknowledges.
//!
//! Vertices live in a [`DetStore`]: one dense clock-indexed sequence per
//! creator, so a program-order range is a few slices and following a
//! cause edge is an O(1) index computation. Edges are not materialised;
//! they are the `cause` fields of the stored determinants.

use vlog_vmpi::{RClock, Rank};

use crate::detseq::{ChunkPool, DetStore};
use crate::event::Determinant;

/// One process's view of the antecedence graph.
#[derive(Clone)]
pub struct AGraph {
    store: DetStore,
}

impl AGraph {
    pub fn new(n: usize) -> Self {
        AGraph {
            store: DetStore::new(n),
        }
    }

    pub fn n(&self) -> usize {
        self.store.n()
    }

    /// The vertex store (unstable determinants per creator).
    pub fn store(&self) -> &DetStore {
        &self.store
    }

    /// Highest known clock of `creator` (its last event we know of).
    pub fn head(&self, creator: Rank) -> RClock {
        self.store.head(creator)
    }

    pub fn stable(&self, creator: Rank) -> RClock {
        self.store.stable(creator)
    }

    /// Inserts a vertex; returns false when it was already present or
    /// already stable.
    pub fn insert(&mut self, det: Determinant) -> bool {
        self.store.insert(det)
    }

    /// Inserts a run of one creator's consecutive clocks (see
    /// [`crate::detseq::runs`]); returns how many vertices were new.
    pub fn insert_run(&mut self, run: &[Determinant]) -> usize {
        self.store.insert_run(run)
    }

    /// Number of retained (unstable) vertices.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Applies stability watermarks, pruning covered vertices.
    pub fn apply_stable(&mut self, stable: &[RClock]) {
        self.store.apply_stable(stable);
    }

    /// All retained determinants, ordered by (creator, clock).
    pub fn retained(&self) -> Vec<Determinant> {
        self.store.retained()
    }

    /// Shares the vertex store's new chunks through `pool`
    /// ([`DetStore::share`]).
    pub fn share(&mut self, pool: &mut ChunkPool) {
        self.store.share(pool);
    }

    /// Computes the causal past of `roots` as per-creator prefixes:
    /// `past[c]` is the highest clock of `c` reachable backwards from the
    /// roots. Pruned (stable) vertices terminate the search — they are
    /// globally known. Returns the prefix vector and the number of
    /// vertices visited (the traversal cost the paper charges Manetho and
    /// LogOn for).
    pub fn causal_past(&self, roots: &[(Rank, RClock)]) -> (Vec<RClock>, u64) {
        self.causal_past_from(roots, &vec![0; self.n()])
    }

    /// [`AGraph::causal_past`] with a per-creator floor: regions at or
    /// below `floor[c]` are treated as already covered and not walked.
    /// Manetho's incremental border computation passes its per-channel
    /// sent-cache here, so repeated sends to the same peer only traverse
    /// the events that are new since the previous send.
    pub fn causal_past_from(
        &self,
        roots: &[(Rank, RClock)],
        floor: &[RClock],
    ) -> (Vec<RClock>, u64) {
        let mut past = floor.to_vec();
        let visits = self.extend_past(&mut past, &mut roots.to_vec());
        (past, visits)
    }

    /// [`AGraph::causal_past_from`] in place, for callers that keep their
    /// buffers: `past` enters holding the floor and leaves holding the
    /// prefixes, `stack` enters holding the roots and leaves empty.
    pub fn extend_past(&self, past: &mut [RClock], stack: &mut Vec<(Rank, RClock)>) -> u64 {
        let mut visits = 0u64;
        while let Some((c, k)) = stack.pop() {
            let k = k.min(self.head(c));
            if k <= past[c] {
                continue;
            }
            // Stable vertices are globally known and the program-order
            // chain below `past[c]` is already covered: walk only the
            // newly covered range, following cause edges.
            let lo = past[c].max(self.stable(c));
            past[c] = k;
            for piece in self.store.seq(c).range_slices(lo, k) {
                visits += piece.len() as u64;
                for det in piece {
                    if let Some(cause) = det.cause_id() {
                        stack.push((cause.creator, cause.clock));
                    }
                }
            }
        }
        visits
    }

    /// Retained determinants of `creator` with clock strictly above `lo`,
    /// ascending.
    pub fn above(&self, creator: Rank, lo: RClock) -> impl Iterator<Item = &Determinant> + '_ {
        self.store.seq(creator).above_slices(lo).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(receiver: Rank, clock: RClock, sender: Rank, cause: RClock) -> Determinant {
        Determinant {
            receiver,
            clock,
            sender,
            ssn: clock,
            cause,
        }
    }

    /// A diamond: P0's event 1 causes P1's 1 and P2's 1; both cause P3's
    /// 1 and 2.
    fn diamond() -> AGraph {
        let mut g = AGraph::new(4);
        g.insert(det(0, 1, 3, 0));
        g.insert(det(1, 1, 0, 1));
        g.insert(det(2, 1, 0, 1));
        g.insert(det(3, 1, 1, 1));
        g.insert(det(3, 2, 2, 1));
        g
    }

    #[test]
    fn causal_past_follows_cause_and_program_order() {
        let g = diamond();
        let (past, visits) = g.causal_past(&[(3, 2)]);
        assert_eq!(past, vec![1, 1, 1, 2]);
        assert_eq!(visits, 5);
        // Past of P3's first event does not include P2's event.
        let (past1, _) = g.causal_past(&[(3, 1)]);
        assert_eq!(past1, vec![1, 1, 0, 1]);
    }

    #[test]
    fn stable_vertices_are_pruned_and_terminate_traversal() {
        let mut g = diamond();
        g.apply_stable(&[1, 1, 0, 0]);
        assert_eq!(g.len(), 3);
        // Traversal still works; stable prefixes are silently covered.
        let (past, visits) = g.causal_past(&[(3, 2)]);
        assert_eq!(past[3], 2);
        assert_eq!(past[2], 1);
        assert!(visits <= 3);
        // Re-inserting a stable determinant is refused.
        assert!(!g.insert(det(0, 1, 3, 0)));
        // Heads survive pruning.
        assert_eq!(g.head(0), 1);
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = AGraph::new(2);
        assert!(g.insert(det(0, 1, 1, 0)));
        assert!(!g.insert(det(0, 1, 1, 0)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn above_iterates_ascending_suffix() {
        let mut g = AGraph::new(1);
        for k in 1..=5 {
            g.insert(det(0, k, 0, 0));
        }
        let clocks: Vec<RClock> = g.above(0, 2).map(|d| d.clock).collect();
        assert_eq!(clocks, vec![3, 4, 5]);
    }

    #[test]
    fn watermarks_at_the_clock_maximum_do_not_overflow() {
        let mut g = diamond();
        assert_eq!(g.above(3, RClock::MAX).count(), 0);
        let (past, visits) = g.causal_past_from(&[(3, RClock::MAX)], &[0, 0, 0, RClock::MAX]);
        assert_eq!((past[3], visits), (RClock::MAX, 0));
        // A root beyond the head is clamped to it; a floor at the
        // maximum on another creator is simply never exceeded.
        let (past, visits) = g.causal_past_from(&[(3, RClock::MAX)], &[RClock::MAX, 0, 0, 0]);
        assert_eq!(past, vec![RClock::MAX, 1, 1, 2]);
        assert_eq!(visits, 4);
        g.apply_stable(&[RClock::MAX, 0, 0, RClock::MAX]);
        assert_eq!(g.len(), 2);
        assert!(!g.insert(det(3, RClock::MAX, 0, 0)));
        assert_eq!(g.head(3), RClock::MAX);
        assert_eq!(g.causal_past(&[(3, RClock::MAX)]).1, 0);
    }

    #[test]
    fn retained_is_sorted_by_creator_then_clock() {
        let g = diamond();
        let r = g.retained();
        let mut sorted = r.clone();
        sorted.sort_by_key(|d| (d.receiver, d.clock));
        assert_eq!(r, sorted);
        assert_eq!(r.len(), 5);
    }
}
