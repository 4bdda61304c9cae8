//! Dense, clock-indexed determinant sequences: the one container behind
//! both causality stores ([`crate::graph::AGraph`] and
//! [`crate::vcausal::VcausalRed`]).
//!
//! Reception clocks are dense by construction: a process numbers its
//! receptions 1, 2, 3, … and every piggyback carries a creator's events
//! as an ascending run, so a creator's retained determinants are almost
//! always one contiguous clock range `front..=back`. [`DetSeq`] stores
//! them in a `VecDeque` sorted by clock and locates a clock in O(1) as
//! `clock - front.clock` whenever the range is contiguous (checked in
//! O(1): `back - front + 1 == len`). Gaps — left by recovery `absorb`
//! merging partial views out of order — fall back to a binary search.
//! Stability pruning pops from the front and leaves the rest contiguous.
//!
//! Inserting a clock that is already present replaces the stored copy,
//! like a map would: a process that restarts after losing the tail of its
//! history re-creates those clocks with new content, and the copy that
//! arrives last must win everywhere for runs to stay reproducible.

use std::collections::VecDeque;

use vlog_vmpi::{RClock, Rank};

use crate::event::Determinant;

/// One creator's retained determinants: ascending by clock, no duplicates.
#[derive(Debug, Clone, Default)]
pub struct DetSeq {
    q: VecDeque<Determinant>,
}

impl DetSeq {
    pub fn new() -> Self {
        DetSeq::default()
    }

    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The `i`-th retained determinant in clock order.
    pub fn at(&self, i: usize) -> Option<&Determinant> {
        self.q.get(i)
    }

    pub fn last(&self) -> Option<&Determinant> {
        self.q.back()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Determinant> + '_ {
        self.q.iter()
    }

    /// Number of entries with clock strictly below `clock` — the index
    /// `clock` has, or would be inserted at.
    pub fn below(&self, clock: RClock) -> usize {
        let (Some(front), Some(back)) = (self.q.front(), self.q.back()) else {
            return 0;
        };
        if clock <= front.clock {
            0
        } else if clock > back.clock {
            self.q.len()
        } else if self.is_contiguous() {
            (clock - front.clock) as usize
        } else {
            self.q.partition_point(|d| d.clock < clock)
        }
    }

    /// Whether the clocks form one gap-free range `front..=back`.
    fn is_contiguous(&self) -> bool {
        match (self.q.front(), self.q.back()) {
            (Some(front), Some(back)) => back.clock - front.clock == self.q.len() as u64 - 1,
            _ => true,
        }
    }

    /// Number of entries with clock at or below `clock`.
    pub fn through(&self, clock: RClock) -> usize {
        match clock.checked_add(1) {
            Some(next) => self.below(next),
            None => self.q.len(),
        }
    }

    pub fn get(&self, clock: RClock) -> Option<&Determinant> {
        self.q.get(self.below(clock)).filter(|d| d.clock == clock)
    }

    /// Inserts `det` at its clock; when that clock is already present the
    /// stored copy is replaced and false is returned.
    pub fn insert(&mut self, det: Determinant) -> bool {
        if self.q.back().is_none_or(|back| det.clock > back.clock) {
            self.q.push_back(det);
            return true;
        }
        let i = self.below(det.clock);
        if self.q[i].clock == det.clock {
            self.q[i] = det;
            return false;
        }
        self.q.insert(i, det);
        true
    }

    /// [`DetSeq::insert`] for a run of consecutive ascending clocks (see
    /// [`runs`]); returns how many were new. Against a contiguous sequence
    /// the part of the run at or below `back` is known present from the
    /// clock arithmetic alone, so a duplicate-heavy piggyback costs one
    /// overlap computation and two block copies per run instead of one
    /// lookup per determinant.
    pub fn insert_run(&mut self, run: &[Determinant]) -> usize {
        let Some(first) = run.first() else { return 0 };
        let (Some(front), Some(back)) = (self.q.front(), self.q.back()) else {
            self.q.extend(run);
            return run.len();
        };
        if first.clock > back.clock || (first.clock >= front.clock && self.is_contiguous()) {
            let fresh = above(run, back.clock);
            let present = run.len() - fresh.len();
            let at = self.below(first.clock);
            for (slot, det) in self.q.range_mut(at..at + present).zip(run) {
                *slot = *det;
            }
            self.q.extend(fresh);
            return fresh.len();
        }
        run.iter().filter(|d| self.insert(**d)).count()
    }

    /// Entries `from..to` (indices in clock order) as the deque's two
    /// halves, for `extend_from_slice`.
    fn slices(&self, from: usize, to: usize) -> (&[Determinant], &[Determinant]) {
        let (a, b) = self.q.as_slices();
        let split = a.len();
        (
            &a[from.min(split)..to.min(split)],
            &b[from.max(split) - split..to.max(split) - split],
        )
    }

    /// Entries with clock strictly above `lo`, ascending.
    pub fn above_slices(&self, lo: RClock) -> (&[Determinant], &[Determinant]) {
        self.slices(self.through(lo), self.q.len())
    }

    /// Entries with `lo < clock <= hi`, ascending.
    pub fn range_slices(&self, lo: RClock, hi: RClock) -> (&[Determinant], &[Determinant]) {
        let from = self.through(lo);
        self.slices(from, self.through(hi).max(from))
    }

    /// Drops every entry with clock at or below `wm`; returns how many.
    pub fn prune_through(&mut self, wm: RClock) -> usize {
        let k = self.through(wm);
        self.q.drain(..k);
        k
    }
}

/// Splits a piggyback into maximal runs of one creator's consecutive
/// ascending clocks — the unit [`DetSeq::insert_run`] dedupes at once.
pub fn runs(dets: &[Determinant]) -> impl Iterator<Item = &[Determinant]> {
    dets.chunk_by(|a, b| a.receiver == b.receiver && a.clock.checked_add(1) == Some(b.clock))
}

/// The part of a consecutive-clock run strictly above `wm`.
fn above(run: &[Determinant], wm: RClock) -> &[Determinant] {
    let skip = match run.first() {
        Some(first) if wm >= first.clock => (wm - first.clock).saturating_add(1),
        _ => 0,
    };
    &run[skip.min(run.len() as u64) as usize..]
}

/// Per-creator [`DetSeq`]s with the bookkeeping both causality stores
/// need: the highest clock ever seen per creator (survives pruning), the
/// stability watermarks, and a maintained total so `len()` is O(1).
#[derive(Debug, Clone)]
pub struct DetStore {
    seqs: Vec<DetSeq>,
    heads: Vec<RClock>,
    stable: Vec<RClock>,
    len: usize,
}

impl DetStore {
    pub fn new(n: usize) -> Self {
        DetStore {
            seqs: vec![DetSeq::new(); n],
            heads: vec![0; n],
            stable: vec![0; n],
            len: 0,
        }
    }

    pub fn n(&self) -> usize {
        self.seqs.len()
    }

    /// Highest known clock of `creator` (its last event we know of).
    pub fn head(&self, creator: Rank) -> RClock {
        self.heads[creator]
    }

    /// Stability watermark of `creator` (entries at or below are pruned).
    pub fn stable(&self, creator: Rank) -> RClock {
        self.stable[creator]
    }

    pub fn seq(&self, creator: Rank) -> &DetSeq {
        &self.seqs[creator]
    }

    /// Number of retained (unstable) determinants, all creators.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a determinant; returns false when it was already present
    /// or already stable.
    pub fn insert(&mut self, det: Determinant) -> bool {
        let c = det.receiver;
        self.heads[c] = self.heads[c].max(det.clock);
        let added = det.clock > self.stable[c] && self.seqs[c].insert(det);
        self.len += added as usize;
        added
    }

    /// [`DetStore::insert`] for a whole run (see [`runs`]); returns how
    /// many were new.
    pub fn insert_run(&mut self, run: &[Determinant]) -> usize {
        let Some(last) = run.last() else { return 0 };
        let c = last.receiver;
        self.heads[c] = self.heads[c].max(last.clock);
        let added = self.seqs[c].insert_run(above(run, self.stable[c]));
        self.len += added;
        added
    }

    /// Raises the stability watermarks, pruning covered determinants.
    pub fn apply_stable(&mut self, stable: &[RClock]) {
        for (c, &wm) in stable.iter().enumerate().take(self.seqs.len()) {
            if wm > self.stable[c] {
                self.stable[c] = wm;
                self.len -= self.seqs[c].prune_through(wm);
            }
        }
    }

    /// Everything retained strictly above the per-creator `bound`
    /// (`RClock::MAX` excludes a creator), ordered by (creator, clock),
    /// in one exact-capacity allocation.
    pub fn collect_above(&self, bound: &[RClock]) -> Vec<Determinant> {
        let count = |(seq, &lo): (&DetSeq, &RClock)| seq.len() - seq.through(lo);
        let total = self.seqs.iter().zip(bound).map(count).sum();
        let mut out = Vec::with_capacity(total);
        for (seq, &lo) in self.seqs.iter().zip(bound) {
            let (a, b) = seq.above_slices(lo);
            out.extend_from_slice(a);
            out.extend_from_slice(b);
        }
        out
    }

    /// All retained determinants, ordered by (creator, clock): nothing at
    /// or below a stability watermark is ever held.
    pub fn retained(&self) -> Vec<Determinant> {
        self.collect_above(&self.stable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(receiver: Rank, clock: RClock) -> Determinant {
        Determinant {
            receiver,
            clock,
            sender: receiver + 1,
            ssn: clock,
            cause: 0,
        }
    }

    fn clocks(seq: &DetSeq) -> Vec<RClock> {
        seq.iter().map(|d| d.clock).collect()
    }

    #[test]
    fn locates_by_arithmetic_when_contiguous_and_by_search_across_gaps() {
        let mut seq = DetSeq::new();
        for k in [5, 6, 7, 8] {
            assert!(seq.insert(det(0, k)));
        }
        assert_eq!((seq.below(5), seq.below(7), seq.below(99)), (0, 2, 4));
        assert_eq!((seq.through(4), seq.through(7)), (0, 3));
        assert_eq!(seq.through(RClock::MAX), 4);
        // Out-of-order arrivals open a gap: 2, _, _, 5..8, _, 10.
        assert!(seq.insert(det(0, 10)));
        assert!(seq.insert(det(0, 2)));
        assert_eq!(clocks(&seq), [2, 5, 6, 7, 8, 10]);
        assert_eq!((seq.below(4), seq.below(9), seq.through(9)), (1, 5, 5));
        assert_eq!(seq.get(9), None);
        assert_eq!(seq.get(10), Some(&det(0, 10)));
        // Pruning the front restores arithmetic lookup on what is left.
        assert_eq!(seq.prune_through(4), 1);
        assert_eq!(seq.prune_through(4), 0);
        assert_eq!(clocks(&seq), [5, 6, 7, 8, 10]);
    }

    #[test]
    fn a_duplicate_replaces_the_stored_copy() {
        let mut seq = DetSeq::new();
        seq.insert_run(&[det(0, 1), det(0, 2), det(0, 3)]);
        let newer = Determinant {
            cause: 9,
            ..det(0, 2)
        };
        assert!(!seq.insert(newer));
        assert_eq!(seq.get(2), Some(&newer));
        let run = [det(0, 2), det(0, 3), det(0, 4)];
        assert_eq!(seq.insert_run(&run), 1);
        assert_eq!(seq.get(2), Some(&det(0, 2)));
        assert_eq!(clocks(&seq), [1, 2, 3, 4]);
    }

    #[test]
    fn slices_follow_the_ring_across_its_wrap_point() {
        let mut seq = DetSeq::new();
        for k in 1..=8 {
            seq.insert(det(0, k));
        }
        // Popping then pushing makes the deque wrap inside its buffer.
        seq.prune_through(5);
        for k in 9..=13 {
            seq.insert(det(0, k));
        }
        let flat = |(a, b): (&[Determinant], &[Determinant])| -> Vec<RClock> {
            a.iter().chain(b).map(|d| d.clock).collect()
        };
        assert_eq!(flat(seq.above_slices(0)), [6, 7, 8, 9, 10, 11, 12, 13]);
        assert_eq!(flat(seq.above_slices(11)), [12, 13]);
        assert_eq!(flat(seq.range_slices(7, 10)), [8, 9, 10]);
        assert_eq!(flat(seq.range_slices(10, 7)), [] as [RClock; 0]);
        assert_eq!(flat(seq.range_slices(12, RClock::MAX)), [13]);
        assert_eq!(flat(seq.above_slices(RClock::MAX)), [] as [RClock; 0]);
    }

    #[test]
    fn runs_split_on_creator_change_and_clock_jumps() {
        let dets = [
            det(0, 1),
            det(0, 2),
            det(0, 4),
            det(1, 5),
            det(1, RClock::MAX),
            det(1, 0),
        ];
        let lens: Vec<usize> = runs(&dets).map(|r| r.len()).collect();
        assert_eq!(lens, [2, 1, 1, 1, 1]);
        assert_eq!(above(&dets[..2], 0).len(), 2);
        assert_eq!(above(&dets[..2], 1).len(), 1);
        assert_eq!(above(&dets[..2], RClock::MAX).len(), 0);
    }

    #[test]
    fn the_store_keeps_heads_watermarks_and_the_total_in_step() {
        let mut store = DetStore::new(2);
        assert_eq!(store.insert_run(&[det(0, 1), det(0, 2), det(0, 3)]), 3);
        assert!(store.insert(det(1, 7)));
        assert!(!store.insert(det(0, 2)));
        assert_eq!((store.len(), store.head(0), store.head(1)), (4, 3, 7));
        store.apply_stable(&[2, 0]);
        assert_eq!((store.len(), store.stable(0)), (2, 2));
        // Stable clocks are refused but still raise the head.
        assert_eq!(store.insert_run(&[det(0, 1), det(0, 2)]), 0);
        assert!(!store.insert(det(1, 0)));
        assert_eq!(store.retained(), [det(0, 3), det(1, 7)]);
        assert_eq!(store.collect_above(&[RClock::MAX, 0]), [det(1, 7)]);
        // A short or over-long watermark vector is not an error.
        store.apply_stable(&[RClock::MAX]);
        store.apply_stable(&[0, 0, 5]);
        assert_eq!((store.len(), store.head(0)), (1, 3));
    }
}
