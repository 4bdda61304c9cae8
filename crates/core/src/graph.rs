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
//! The graph is a [`DetStore`] plus [`extend_past`]. Vertices live in
//! the store: one dense clock-indexed sequence per creator, so a
//! program-order range is a few slices and following a cause edge is an
//! O(1) index computation. Edges are not materialised; they are the
//! `cause` fields of the stored determinants, and [`extend_past`] is the
//! one walk that follows them.

use vlog_vmpi::{RClock, Rank};

use crate::detseq::DetStore;

/// Extends `past` to the causal past of the roots on `stack`: `past[c]`
/// enters holding a per-creator floor and leaves holding the highest
/// clock of `c` reachable backwards from the roots. Regions at or below
/// the floor are treated as covered and not walked, and stable (pruned)
/// vertices end the walk, since they are globally known. Manetho's
/// incremental border computation passes its per-channel sent cache as
/// the floor, so repeated sends to one peer only traverse the events new
/// since the previous send. `stack` leaves empty. Returns the number of
/// vertices visited (the traversal cost the paper charges Manetho and
/// LogOn for).
pub fn extend_past(store: &DetStore, past: &mut [RClock], stack: &mut Vec<(Rank, RClock)>) -> u64 {
    let mut visits = 0u64;
    while let Some((c, k)) = stack.pop() {
        let k = k.min(store.head(c));
        if k <= past[c] {
            continue;
        }
        // Stable vertices are globally known and the program-order chain
        // below `past[c]` is already covered: walk only the newly covered
        // range, following cause edges.
        let lo = past[c].max(store.stable(c));
        past[c] = k;
        for piece in store.seq(c).range_slices(lo, k) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Determinant;

    fn det(receiver: Rank, clock: RClock, sender: Rank, cause: RClock) -> Determinant {
        Determinant {
            receiver,
            clock,
            sender,
            ssn: clock,
            cause,
        }
    }

    /// The causal past of `roots` above `floor`, with the visit count.
    fn past_of(g: &DetStore, roots: &[(Rank, RClock)], floor: &[RClock]) -> (Vec<RClock>, u64) {
        let mut past = floor.to_vec();
        let visits = extend_past(g, &mut past, &mut roots.to_vec());
        (past, visits)
    }

    /// A diamond: P0's event 1 causes P1's 1 and P2's 1; both cause P3's
    /// 1 and 2.
    fn diamond() -> DetStore {
        let mut g = DetStore::new(4);
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
        let (past, visits) = past_of(&g, &[(3, 2)], &[0; 4]);
        assert_eq!(past, vec![1, 1, 1, 2]);
        assert_eq!(visits, 5);
        // Past of P3's first event does not include P2's event.
        let (past1, _) = past_of(&g, &[(3, 1)], &[0; 4]);
        assert_eq!(past1, vec![1, 1, 0, 1]);
    }

    #[test]
    fn stable_vertices_are_pruned_and_terminate_traversal() {
        let mut g = diamond();
        g.apply_stable(&[1, 1, 0, 0]);
        assert_eq!(g.len(), 3);
        // Traversal still works; stable prefixes are silently covered.
        let (past, visits) = past_of(&g, &[(3, 2)], &[0; 4]);
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
        let mut g = DetStore::new(2);
        assert!(g.insert(det(0, 1, 1, 0)));
        assert!(!g.insert(det(0, 1, 1, 0)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn above_iterates_ascending_suffix() {
        let mut g = DetStore::new(1);
        for k in 1..=5 {
            g.insert(det(0, k, 0, 0));
        }
        let clocks: Vec<RClock> = g.above(0, 2).iter().map(|d| d.clock).collect();
        assert_eq!(clocks, vec![3, 4, 5]);
    }

    #[test]
    fn watermarks_at_the_clock_maximum_do_not_overflow() {
        let mut g = diamond();
        assert_eq!(g.above(3, RClock::MAX).len(), 0);
        let (past, visits) = past_of(&g, &[(3, RClock::MAX)], &[0, 0, 0, RClock::MAX]);
        assert_eq!((past[3], visits), (RClock::MAX, 0));
        // A root beyond the head is clamped to it; a floor at the
        // maximum on another creator is simply never exceeded.
        let (past, visits) = past_of(&g, &[(3, RClock::MAX)], &[RClock::MAX, 0, 0, 0]);
        assert_eq!(past, vec![RClock::MAX, 1, 1, 2]);
        assert_eq!(visits, 4);
        g.apply_stable(&[RClock::MAX, 0, 0, RClock::MAX]);
        assert_eq!(g.len(), 2);
        assert!(!g.insert(det(3, RClock::MAX, 0, 0)));
        assert_eq!(g.head(3), RClock::MAX);
        assert_eq!(past_of(&g, &[(3, RClock::MAX)], &[0; 4]).1, 0);
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
