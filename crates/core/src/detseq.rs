//! Dense, clock-indexed determinant sequences: the one container behind
//! every determinant store — the antecedence graph of
//! [`crate::agred::GraphRed`], the sequences of
//! [`crate::vcausal::VcausalRed`] and the Event Logger's
//! [`crate::el_multi::ElShard`].
//!
//! Reception clocks are dense by construction: a process numbers its
//! receptions 1, 2, 3, … and every piggyback carries a creator's events
//! as an ascending run, so a creator's retained determinants are almost
//! always one contiguous clock range `front..=back`. [`DetSeq`] keeps
//! them sorted by clock and locates a clock in O(1) as
//! `clock - front.clock` whenever the range is contiguous (checked in
//! O(1): `back - front + 1 == len`). Gaps — left by recovery `absorb`
//! merging partial views out of order — fall back to a binary search.
//!
//! Inserting a clock that is already present replaces the stored copy,
//! like a map would: a process that restarts after losing the tail of its
//! history re-creates those clocks with new content, and the copy that
//! arrives last must win everywhere for runs to stay reproducible.
//!
//! # Packed entries
//!
//! A sequence stores each determinant as a [`PackedDet`]: five `u32`
//! fields, 20 bytes, against the 40 of the [`Determinant`] that piggyback
//! bodies, the reductions and the codec pass around. Only the writes
//! (`insert`, `insert_run`, and the appends under them) pack, through the
//! checked [`PackedDet::try_from`]. The readers that hand determinants
//! out (`at`, `get`, `last`, `iter`, [`DetStore::collect_above`],
//! [`DetStore::above`]) widen them back, while the clock lookups, the
//! pool's chunk compare and [`crate::graph::extend_past`]'s cause walk
//! read the packed entries as they are.
//!
//! # Shared chunks and an owned tail
//!
//! Every checkpoint clones the causality store into its image
//! (`Reduction::clone_box`), and every restart clones it back out. The
//! real system snapshots by fork and copy-on-write, and so does this
//! container: a sequence is a list of full chunks of `CHUNK` (64) entries
//! behind an `Arc`, written only copy-on-write, plus an owned `tail`
//! `Vec`. A chunk is a fixed-size array, so its `Arc` is one word. A
//! clone bumps one
//! reference count per chunk and copies at most one chunk's worth of
//! tail, and the image and the live rank share every chunk until one
//! side changes it. The invariants:
//!
//! * Every chunk holds exactly `CHUNK` entries and the tail fewer: the
//!   tail is frozen into a chunk the moment it fills. A small sequence is
//!   a lone tail and grows like a `Vec`.
//! * The first `skip` entries of the first chunk are pruned, with
//!   `skip < CHUNK`, and `skip == 0` when there is no chunk. Entry `i`
//!   therefore sits at position `skip + i` of the chunks-then-tail
//!   concatenation, so on the contiguous path a clock is located by
//!   arithmetic alone, with no search.
//! * Pruning advances `skip` and drops whole chunks. Once no chunk is
//!   left it drains the tail instead.
//! * A clock already present is written only when the arriving copy
//!   differs, and then only the chunk it sits in is copied, if a clone
//!   still shares it. A fault-free duplicate copies nothing.
//! * A gap insert shifts everything after it, so it re-chunks from the
//!   chunk it lands in. Gaps and differing copies come only from
//!   recovery.
//!
//! [`PeerTable`] applies the same rule to the reductions' per-peer
//! watermark rows: a clone shares every row, and a raise copies only the
//! row it moves.
//!
//! # One copy per run: the chunk pool
//!
//! A determinant `(creator, clock)` has one content per run, so chunk j of
//! creator c is byte-identical in every rank that holds it; without an
//! Event Logger nothing turns stable and every rank holds the whole
//! history. A [`ChunkPool`] lets the ranks of one run share those chunks
//! as well. After a protocol feeds a message into its store it calls
//! [`DetStore::share`], which offers the pool every chunk frozen (or
//! rewritten) since the last call — O(new chunks), not O(creators) — and
//! keeps the pooled copy in its place. The invariants:
//!
//! * The pool is keyed by creator and the clock of a chunk's first entry,
//!   and holds a `Weak`: it never keeps a chunk alive, only finds one that
//!   some store still holds.
//! * A chunk is replaced by the pooled one only when that one is live and
//!   equal in content, entry for entry; otherwise the store's own chunk
//!   takes the key. So a pool bug can cost memory but never correctness.
//! * A shared chunk is written like any other: copy-on-write through
//!   `Arc::make_mut`, so an overwrite or gap insert on one rank never
//!   reaches another.
//! * Dead entries are swept once the registrations since the last sweep
//!   outnumber the entries that survived it, so a sweep costs O(1) per
//!   registration and dead entries never outnumber live ones by much.
//! * The pool is a plain value the run owns (the causal suite installs it
//!   in the run's `ClusterState`), so it is dropped with its run and no
//!   other run, on this thread or another, ever sees it. A store that is
//!   never offered a pool simply never shares.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use vlog_vmpi::{RClock, Rank};

use crate::event::{Determinant, PackedDet};

/// Entries per shared chunk. A power of two, so an index splits into a
/// chunk and an offset by a shift and a mask. 64 × 20-byte packed
/// determinants is 1.25 KB a chunk: a clone of a long sequence costs 8
/// bytes per 64 entries, and a frozen store's only waste is its last
/// partial chunk.
const CHUNK: usize = 64;

/// A full, frozen run of `CHUNK` entries.
type Chunk = [PackedDet; CHUNK];

/// Packs `det` for storage.
fn pack(det: &Determinant) -> PackedDet {
    PackedDet::try_from(det).expect(
        "a stored determinant fits u32 fields: a rank's clock is bounded by its receptions \
         and a channel's ssn by its sends",
    )
}

/// One creator's retained determinants: ascending by clock, no duplicates.
#[derive(Debug, Clone, Default)]
pub struct DetSeq {
    /// Full chunks, shared with every clone.
    chunks: Vec<Arc<Chunk>>,
    /// Pruned entries at the front of `chunks[0]`.
    skip: usize,
    /// The newest entries, fewer than `CHUNK`.
    tail: Vec<PackedDet>,
    /// `chunks[..pooled]` have been offered to a [`ChunkPool`]; the rest
    /// were frozen or rewritten since.
    pooled: usize,
}

impl DetSeq {
    pub fn new() -> Self {
        DetSeq::default()
    }

    pub fn len(&self) -> usize {
        self.chunks.len() * CHUNK + self.tail.len() - self.skip
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th retained determinant in clock order.
    #[inline]
    pub fn at(&self, i: usize) -> Option<Determinant> {
        self.entry(i).copied().map(Determinant::from)
    }

    /// [`DetSeq::at`], packed.
    #[inline]
    fn entry(&self, i: usize) -> Option<&PackedDet> {
        let p = self.skip.checked_add(i)?;
        match self.chunks.get(p / CHUNK) {
            Some(chunk) => Some(&chunk[p % CHUNK]),
            None => self.tail.get(p - self.chunks.len() * CHUNK),
        }
    }

    #[inline]
    pub fn last(&self) -> Option<Determinant> {
        self.last_entry().copied().map(Determinant::from)
    }

    /// [`DetSeq::last`], packed.
    #[inline]
    fn last_entry(&self) -> Option<&PackedDet> {
        self.tail
            .last()
            .or_else(|| self.chunks.last().and_then(|chunk| chunk.last()))
    }

    /// The first and the last entry; `None` when empty.
    fn ends(&self) -> Option<(&PackedDet, &PackedDet)> {
        let front = match self.chunks.first() {
            Some(chunk) => &chunk[self.skip],
            None => self.tail.first()?,
        };
        Some((front, self.last_entry()?))
    }

    /// Whether the clocks form one gap-free range `front..=back`.
    fn is_contiguous(&self, front: &PackedDet, back: &PackedDet) -> bool {
        back.clock() - front.clock() == self.len() as u64 - 1
    }

    pub fn iter(&self) -> impl Iterator<Item = Determinant> + '_ {
        self.slices(0, self.len())
            .flatten()
            .copied()
            .map(Determinant::from)
    }

    /// Number of entries with clock strictly below `clock` — the index
    /// `clock` has, or would be inserted at.
    pub fn below(&self, clock: RClock) -> usize {
        let Some((front, back)) = self.ends() else {
            return 0;
        };
        if clock <= front.clock() {
            0
        } else if clock > back.clock() {
            self.len()
        } else if self.is_contiguous(front, back) {
            (clock - front.clock()) as usize
        } else {
            self.search(clock)
        }
    }

    /// [`DetSeq::below`] across gaps: a binary search for the block, then
    /// one in it. Kept out of `below` so the contiguous path stays small
    /// enough to inline. The first chunk is searched from `skip` on, since
    /// a later insert may have put a clock below its pruned entries.
    fn search(&self, clock: RClock) -> usize {
        let c = self
            .chunks
            .partition_point(|chunk| chunk[CHUNK - 1].clock() < clock);
        let from = if c == 0 { self.skip } else { 0 };
        let block = self
            .chunks
            .get(c)
            .map_or(&self.tail[..], |chunk| &chunk[..]);
        c * CHUNK + from + block[from..].partition_point(|d| d.clock() < clock) - self.skip
    }

    /// Number of entries with clock at or below `clock`.
    pub fn through(&self, clock: RClock) -> usize {
        match clock.checked_add(1) {
            Some(next) => self.below(next),
            None => self.len(),
        }
    }

    #[inline]
    pub fn get(&self, clock: RClock) -> Option<Determinant> {
        let d = *self.entry(self.below(clock))?;
        (d.clock() == clock).then(|| d.into())
    }

    /// Inserts `det` at its clock; when that clock is already present the
    /// stored copy is replaced and false is returned.
    pub fn insert(&mut self, det: Determinant) -> bool {
        if self
            .last_entry()
            .is_none_or(|back| det.clock > back.clock())
        {
            self.extend(&[det]);
            return true;
        }
        let i = self.below(det.clock);
        if self.entry(i).is_some_and(|d| d.clock() == det.clock) {
            self.overwrite(i, &det);
            return false;
        }
        self.insert_at(i, &det);
        true
    }

    /// [`DetSeq::insert`] for a run of consecutive ascending clocks (see
    /// [`runs`]); returns how many were new. Against a contiguous sequence
    /// the part of the run at or below `back` is known present from the
    /// clock arithmetic alone, so a duplicate-heavy piggyback costs one
    /// overlap computation, one compare per present entry and one block
    /// append per run instead of one lookup per determinant.
    pub fn insert_run(&mut self, run: &[Determinant]) -> usize {
        let Some(first) = run.first() else { return 0 };
        let Some((front, back)) = self.ends() else {
            self.extend(run);
            return run.len();
        };
        if first.clock > back.clock()
            || (first.clock >= front.clock() && self.is_contiguous(front, back))
        {
            let fresh = above(run, back.clock());
            // Only read when part of the run is present, that is on the
            // contiguous path, where it is the index of `first`.
            let at = (first.clock - front.clock()) as usize;
            for (i, det) in (at..).zip(&run[..run.len() - fresh.len()]) {
                self.overwrite(i, det);
            }
            self.extend(fresh);
            return fresh.len();
        }
        run.iter().filter(|d| self.insert(**d)).count()
    }

    /// Replaces entry `i` by `det` unless they are equal, copying the
    /// chunk that holds it first if a clone still shares that chunk.
    fn overwrite(&mut self, i: usize, det: &Determinant) {
        if self.at(i).as_ref() == Some(det) {
            return;
        }
        let det = pack(det);
        let p = self.skip + i;
        let slot = match self.chunks.get_mut(p / CHUNK) {
            Some(chunk) => {
                self.pooled = self.pooled.min(p / CHUNK);
                &mut Arc::make_mut(chunk)[p % CHUNK]
            }
            None => &mut self.tail[p % CHUNK],
        };
        *slot = det;
    }

    /// Appends entries above `back`, packing them a tail's room at a time
    /// and freezing the tail each time it fills.
    fn extend(&mut self, mut dets: &[Determinant]) {
        while !dets.is_empty() {
            let (now, rest) = dets.split_at(dets.len().min(CHUNK - self.tail.len()));
            self.tail.extend(now.iter().map(pack));
            self.freeze();
            dets = rest;
        }
    }

    /// Moves a full tail into a new chunk.
    fn freeze(&mut self) {
        if let Ok(chunk) = Chunk::try_from(&self.tail[..]) {
            self.chunks.push(Arc::new(chunk));
            self.tail.clear();
        }
    }

    /// Inserts `det` before entry `i`: everything from `i` on shifts by
    /// one, so the sequence is re-chunked from the chunk `i` sits in.
    fn insert_at(&mut self, i: usize, det: &Determinant) {
        let c = (self.skip + i) / CHUNK;
        self.pooled = self.pooled.min(c);
        let mut rest = Vec::new();
        for chunk in self.chunks.drain(c..) {
            rest.extend_from_slice(&chunk[..]);
        }
        rest.append(&mut self.tail);
        rest.insert(self.skip + i - c * CHUNK, pack(det));
        for piece in rest.chunks(CHUNK) {
            self.tail.extend_from_slice(piece);
            self.freeze();
        }
    }

    /// Entries `from..to` (indices in clock order) as the pieces of the
    /// chunks and tail they span, ascending.
    fn slices(&self, from: usize, to: usize) -> impl Iterator<Item = &[PackedDet]> + '_ {
        let (mut pos, end) = (self.skip + from, self.skip + to);
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let (b, base) = (pos / CHUNK, pos / CHUNK * CHUNK);
            let block = self
                .chunks
                .get(b)
                .map_or(&self.tail[..], |chunk| &chunk[..]);
            let stop = end.min(base + CHUNK);
            let piece = &block[pos - base..stop - base];
            pos = stop;
            Some(piece)
        })
    }

    /// Entries with clock strictly above `lo`, ascending.
    pub fn above_slices(&self, lo: RClock) -> impl Iterator<Item = &[PackedDet]> + '_ {
        self.slices(self.through(lo), self.len())
    }

    /// Entries with `lo < clock <= hi`, ascending.
    pub fn range_slices(&self, lo: RClock, hi: RClock) -> impl Iterator<Item = &[PackedDet]> + '_ {
        let from = self.through(lo);
        self.slices(from, self.through(hi).max(from))
    }

    /// Drops every entry with clock at or below `wm`; returns how many.
    pub fn prune_through(&mut self, wm: RClock) -> usize {
        let k = self.through(wm);
        let p = self.skip + k;
        let whole = (p / CHUNK).min(self.chunks.len());
        self.chunks.drain(..whole);
        self.pooled = self.pooled.saturating_sub(whole);
        self.skip = p - whole * CHUNK;
        if self.chunks.is_empty() {
            self.tail.drain(..self.skip);
            self.skip = 0;
        }
        k
    }

    /// Whether some chunk has not been offered to a pool yet.
    fn unpooled(&self) -> bool {
        self.pooled < self.chunks.len()
    }

    /// Offers `pool` the chunks not offered yet; the sequence holds
    /// `creator`'s events (module docs).
    pub fn share(&mut self, creator: Rank, pool: &mut ChunkPool) {
        for chunk in &mut self.chunks[self.pooled..] {
            pool.intern(creator, chunk);
        }
        self.pooled = self.chunks.len();
    }
}

/// The run's index of frozen chunks, so equal chunks of different ranks'
/// stores are one allocation (module docs, "One copy per run").
#[derive(Debug, Default)]
pub struct ChunkPool {
    /// `(creator, first clock)` → the chunk registered last under it.
    chunks: HashMap<(Rank, RClock), Weak<Chunk>>,
    /// Registrations since the last sweep.
    fresh: usize,
    /// Entries that survived the last sweep.
    kept: usize,
}

/// Registrations always allowed between two sweeps, so a small pool is
/// not swept on every registration.
const SWEEP_MIN: usize = 32;

impl ChunkPool {
    pub fn new() -> Self {
        ChunkPool::default()
    }

    /// Puts the pooled copy of `chunk` in its place when a live one equal
    /// in content exists; registers `chunk` otherwise.
    fn intern(&mut self, creator: Rank, chunk: &mut Arc<Chunk>) {
        let key = (creator, chunk[0].clock());
        if let Some(pooled) = self.chunks.get(&key).and_then(Weak::upgrade) {
            if Arc::ptr_eq(&pooled, chunk) || pooled[..] == chunk[..] {
                *chunk = pooled;
                return;
            }
        }
        self.chunks.insert(key, Arc::downgrade(chunk));
        self.fresh += 1;
        if self.fresh > self.kept.max(SWEEP_MIN) {
            self.chunks.retain(|_, chunk| chunk.strong_count() > 0);
            self.kept = self.chunks.len();
            self.fresh = 0;
        }
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

/// Per-creator [`DetSeq`]s with the bookkeeping every determinant store
/// needs: the highest clock ever seen per creator (survives pruning), the
/// stability watermarks, and a maintained total so `len()` is O(1).
#[derive(Debug, Clone)]
pub struct DetStore {
    seqs: Vec<DetSeq>,
    heads: Vec<RClock>,
    stable: Vec<RClock>,
    len: usize,
    /// Creators whose sequence may hold chunks not offered to a pool yet,
    /// each listed once (`listed[c]`), for [`DetStore::share`].
    unpooled: Vec<Rank>,
    listed: Vec<bool>,
}

impl DetStore {
    pub fn new(n: usize) -> Self {
        DetStore {
            seqs: vec![DetSeq::new(); n],
            heads: vec![0; n],
            stable: vec![0; n],
            len: 0,
            unpooled: Vec::new(),
            listed: vec![false; n],
        }
    }

    /// Lists `creator` for the next [`DetStore::share`] if its sequence
    /// froze or rewrote a chunk.
    fn note(&mut self, creator: Rank) {
        if self.seqs[creator].unpooled() && !self.listed[creator] {
            self.listed[creator] = true;
            self.unpooled.push(creator);
        }
    }

    /// Shares every chunk frozen or rewritten since the last call through
    /// `pool`: a live pooled chunk equal in content replaces the store's
    /// own, which is registered otherwise (module docs).
    pub fn share(&mut self, pool: &mut ChunkPool) {
        for c in self.unpooled.drain(..) {
            self.listed[c] = false;
            self.seqs[c].share(c, pool);
        }
    }

    pub fn n(&self) -> usize {
        self.seqs.len()
    }

    /// Highest known clock of `creator` (its last event we know of).
    pub fn head(&self, creator: Rank) -> RClock {
        self.heads[creator]
    }

    /// [`DetStore::head`] of every creator.
    pub fn heads(&self) -> &[RClock] {
        &self.heads
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
        self.note(c);
        added
    }

    /// Inserts `det` only if its clock is above its creator's head: a store
    /// fed each creator's events in clock order takes anything at or below
    /// the head as known already, keeps the copy it has and returns false.
    pub fn append(&mut self, det: Determinant) -> bool {
        det.clock > self.heads[det.receiver] && self.insert(det)
    }

    /// [`DetStore::insert`] for a whole run (see [`runs`]); returns how
    /// many were new.
    pub fn insert_run(&mut self, run: &[Determinant]) -> usize {
        let Some(last) = run.last() else { return 0 };
        let c = last.receiver;
        self.heads[c] = self.heads[c].max(last.clock);
        let added = self.seqs[c].insert_run(above(run, self.stable[c]));
        self.len += added;
        self.note(c);
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
    /// widened in one pass into one exact-capacity allocation.
    pub fn collect_above(&self, bound: &[RClock]) -> Vec<Determinant> {
        let count = |(seq, &lo): (&DetSeq, &RClock)| seq.len() - seq.through(lo);
        let total = self.seqs.iter().zip(bound).map(count).sum();
        let mut out = Vec::with_capacity(total);
        for (seq, &lo) in self.seqs.iter().zip(bound) {
            widen_into(&mut out, seq.above_slices(lo));
        }
        out
    }

    /// Retained determinants of `creator` with clock strictly above `lo`,
    /// ascending, widened into one exact-capacity allocation.
    pub fn above(&self, creator: Rank, lo: RClock) -> Vec<Determinant> {
        let seq = &self.seqs[creator];
        let mut out = Vec::with_capacity(seq.len() - seq.through(lo));
        widen_into(&mut out, seq.above_slices(lo));
        out
    }

    /// All retained determinants, ordered by (creator, clock): nothing at
    /// or below a stability watermark is ever held.
    pub fn retained(&self) -> Vec<Determinant> {
        self.collect_above(&self.stable)
    }
}

/// Appends the packed `pieces` to `out`, widened.
fn widen_into<'a>(out: &mut Vec<Determinant>, pieces: impl Iterator<Item = &'a [PackedDet]>) {
    for piece in pieces {
        out.extend(piece.iter().copied().map(Determinant::from));
    }
}

/// Per-peer watermark rows, `row(peer)[creator]`, under the rule the
/// sequences follow: a clone shares every row, and a raise copies its row
/// only when an entry actually rises while a clone still holds it. A rank
/// sends to few peers between two checkpoints, so an image shares every
/// row that did not move.
#[derive(Debug, Clone)]
pub struct PeerTable {
    rows: Vec<Arc<[RClock]>>,
}

impl PeerTable {
    /// An `n` × `n` table of zeros: every row is one shared zero row.
    pub fn new(n: usize) -> Self {
        let zero: Arc<[RClock]> = Arc::from(vec![0; n]);
        PeerTable {
            rows: vec![zero; n],
        }
    }

    pub fn row(&self, peer: Rank) -> &[RClock] {
        &self.rows[peer]
    }

    /// Raises `row(peer)[creator]` to `clock` for every `(creator, clock)`
    /// of `raises` that is higher. Every item is read; the row is made
    /// writable once, at the first item that rises, and copied then only
    /// if a clone shares it.
    pub fn raise(&mut self, peer: Rank, raises: impl IntoIterator<Item = (Rank, RClock)>) {
        let mut raises = raises.into_iter();
        let row = &self.rows[peer];
        let Some((c, clock)) = raises.find(|&(c, clock)| clock > row[c]) else {
            return;
        };
        let row = Arc::make_mut(&mut self.rows[peer]);
        row[c] = clock;
        for (c, clock) in raises {
            row[c] = row[c].max(clock);
        }
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
        assert_eq!(seq.get(10), Some(det(0, 10)));
        assert_eq!(seq.at(6), None);
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
        assert_eq!(seq.get(2), Some(newer));
        let run = [det(0, 2), det(0, 3), det(0, 4)];
        assert_eq!(seq.insert_run(&run), 1);
        assert_eq!(seq.get(2), Some(det(0, 2)));
        assert_eq!(clocks(&seq), [1, 2, 3, 4]);
    }

    fn flat<'a>(pieces: impl Iterator<Item = &'a [PackedDet]>) -> Vec<RClock> {
        pieces.flatten().map(|d| d.clock()).collect()
    }

    #[test]
    fn slices_cross_chunk_boundaries_and_a_partial_front() {
        let c = CHUNK as RClock;
        let mut seq = DetSeq::new();
        seq.insert_run(&(1..=3 * c + 5).map(|k| det(0, k)).collect::<Vec<_>>());
        assert_eq!((seq.chunks.len(), seq.tail.len()), (3, 5));
        // A partial prune leaves an offset into the first chunk; a prune
        // past a boundary drops the chunk.
        assert_eq!(seq.prune_through(c / 2), CHUNK / 2);
        assert_eq!((seq.chunks.len(), seq.skip), (3, CHUNK / 2));
        assert_eq!(seq.prune_through(c + 1), CHUNK / 2 + 1);
        assert_eq!((seq.chunks.len(), seq.skip), (2, 1));
        let above = |lo| flat(seq.above_slices(lo));
        assert_eq!(above(0), (c + 2..=3 * c + 5).collect::<Vec<_>>());
        assert_eq!(above(3 * c + 3), [3 * c + 4, 3 * c + 5]);
        let range = |lo, hi| flat(seq.range_slices(lo, hi));
        assert_eq!(range(2 * c - 2, 2 * c + 1), [2 * c - 1, 2 * c, 2 * c + 1]);
        assert_eq!(range(2 * c + 1, 2 * c - 2), [] as [RClock; 0]);
        assert_eq!(range(3 * c + 4, RClock::MAX), [3 * c + 5]);
        assert_eq!(above(RClock::MAX), [] as [RClock; 0]);
        assert_eq!(seq.at(0), Some(det(0, c + 2)));
        assert_eq!(seq.get(2 * c + 7), Some(det(0, 2 * c + 7)));
        // Pruning into the tail drops every chunk and drains the tail.
        assert_eq!(seq.prune_through(3 * c + 2), 2 * CHUNK + 1);
        assert_eq!(
            (seq.chunks.len(), seq.skip, clocks(&seq)),
            (0, 0, vec![3 * c + 3, 3 * c + 4, 3 * c + 5])
        );
    }

    #[test]
    fn a_clone_shares_full_chunks_and_each_side_copies_what_it_changes() {
        let c = CHUNK as RClock;
        let mut live = DetSeq::new();
        for k in 1..=2 * c + 3 {
            live.insert(det(0, k));
        }
        let snap = live.clone();
        assert!(Arc::ptr_eq(&snap.chunks[0], &live.chunks[0]));
        // An equal duplicate writes nothing, so the chunk stays shared.
        assert_eq!(live.insert_run(&[det(0, 5), det(0, 6)]), 0);
        assert!(Arc::ptr_eq(&snap.chunks[0], &live.chunks[0]));
        // A differing copy un-shares only the chunk it lands in.
        let newer = Determinant {
            cause: 9,
            ..det(0, 5)
        };
        assert!(!live.insert(newer));
        assert!(!Arc::ptr_eq(&snap.chunks[0], &live.chunks[0]));
        assert!(Arc::ptr_eq(&snap.chunks[1], &live.chunks[1]));
        assert_eq!((live.get(5), snap.get(5)), (Some(newer), Some(det(0, 5))));
        // A gap insert re-chunks from its chunk on; the snapshot keeps
        // its clocks, and the live side keeps every chunk full.
        live.prune_through(2 * c + 3);
        live.insert_run(
            &(2 * c + 10..=3 * c + 20)
                .map(|k| det(0, k))
                .collect::<Vec<_>>(),
        );
        assert!(live.insert(det(0, 2 * c + 5)));
        assert!(live.chunks.iter().all(|chunk| chunk.len() == CHUNK));
        assert_eq!(live.len(), CHUNK + 12);
        assert_eq!(clocks(&snap), (1..=2 * c + 3).collect::<Vec<_>>());
    }

    #[test]
    fn stores_fed_one_history_share_each_chunk_through_a_pool() {
        let c = CHUNK as RClock;
        let history: Vec<Determinant> = (1..=3 * c + 5).map(|k| det(1, k)).collect();
        let mut pool = ChunkPool::new();
        let (mut a, mut b) = (DetStore::new(2), DetStore::new(2));
        a.insert_run(&history);
        for d in &history {
            b.insert(*d);
        }
        a.share(&mut pool);
        b.share(&mut pool);
        let shared = |a: &DetStore, b: &DetStore, i: usize| {
            Arc::ptr_eq(&a.seqs[1].chunks[i], &b.seqs[1].chunks[i])
        };
        assert!((0..3).all(|i| shared(&a, &b, i)));
        assert_eq!(pool.chunks.len(), 3);
        // A differing copy un-shares its chunk on one side only; the
        // other side and the other chunks keep their contents.
        let newer = Determinant {
            cause: 9,
            ..det(1, c + 3)
        };
        assert!(!b.insert(newer));
        b.share(&mut pool);
        assert!(!shared(&a, &b, 1) && shared(&a, &b, 0) && shared(&a, &b, 2));
        assert_eq!(
            (a.seq(1).get(c + 3), b.seq(1).get(c + 3)),
            (Some(det(1, c + 3)), Some(newer))
        );
        // Once `a` learns the same copy, the pool hands it `b`'s chunk.
        a.insert(newer);
        a.share(&mut pool);
        assert!((0..3).all(|i| shared(&a, &b, i)));
        // Equal clocks with other contents are never shared.
        let mut other = DetStore::new(2);
        let renumbered = |k| Determinant {
            ssn: k + 1000,
            ..det(1, k)
        };
        other.insert_run(&(1..=c).map(renumbered).collect::<Vec<_>>());
        other.share(&mut pool);
        assert!(!Arc::ptr_eq(&other.seqs[1].chunks[0], &a.seqs[1].chunks[0]));
        assert_eq!(other.retained()[0].ssn, 1001);
    }

    #[test]
    fn the_pool_sweeps_chunks_no_store_holds() {
        let mut pool = ChunkPool::new();
        for round in 0..4 {
            // Each round's stores die before the next round starts.
            let mut store = DetStore::new(1);
            let base = round * 1000;
            store.insert_run(
                &(base + 1..=base + 40 * CHUNK as RClock)
                    .map(|k| det(0, k))
                    .collect::<Vec<_>>(),
            );
            store.share(&mut pool);
        }
        // 160 registrations, 40 of them live at any time: sweeps keep the
        // pool near one round's worth, and it keeps no chunk alive.
        assert!(pool.chunks.len() <= 2 * 40, "{} entries", pool.chunks.len());
        assert!(pool.chunks.values().all(|chunk| chunk.strong_count() == 0));
    }

    #[test]
    fn a_peer_table_clone_shares_every_row_until_one_rises() {
        let mut live = PeerTable::new(3);
        assert!(Arc::ptr_eq(&live.rows[0], &live.rows[2]));
        live.raise(1, [(2, 4)]);
        let snap = live.clone();
        let shared = |a: &PeerTable, b: &PeerTable| -> Vec<bool> {
            (0..3)
                .map(|p| Arc::ptr_eq(&a.rows[p], &b.rows[p]))
                .collect()
        };
        assert_eq!(shared(&live, &snap), [true; 3]);
        // A raise that moves nothing copies nothing.
        live.raise(1, [(2, 3)]);
        live.raise(1, [(0, 0), (1, 0), (2, 4)]);
        assert_eq!(shared(&live, &snap), [true; 3]);
        // A raise copies its own row only.
        live.raise(1, [(0, 5), (1, 0), (2, 1), (0, 3)]);
        assert_eq!(shared(&live, &snap), [true, false, true]);
        live.raise(2, [(0, 1)]);
        assert_eq!(shared(&live, &snap), [true, false, false]);
        assert_eq!((live.row(1), live.row(2)), (&[5, 0, 4][..], &[1, 0, 0][..]));
        assert_eq!((snap.row(1), snap.row(2)), (&[0, 0, 4][..], &[0, 0, 0][..]));
        // A row nothing else holds is raised in place.
        let before = Arc::as_ptr(&live.rows[1]);
        live.raise(1, (0..3).map(|c| (c, 9)));
        assert_eq!(
            (Arc::as_ptr(&live.rows[1]), live.row(1)),
            (before, &[9; 3][..])
        );
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

    #[test]
    fn append_refuses_anything_at_or_below_the_head() {
        let mut store = DetStore::new(2);
        assert!(store.append(det(0, 1)));
        assert!(store.append(det(0, 4)));
        // Clocks 2 and 3 are missing, yet below the head: refused, and
        // neither the head nor the total moves.
        for clock in [0, 1, 2, 3, 4] {
            assert!(!store.append(det(0, clock)));
        }
        assert_eq!((store.len(), store.head(0)), (2, 4));
        assert_eq!(store.above(0, 0), [det(0, 1), det(0, 4)]);
        // The copy appended first is kept.
        let newer = Determinant {
            cause: 9,
            ..det(0, 4)
        };
        assert!(!store.append(newer));
        assert_eq!(store.above(0, 1), [det(0, 4)]);
        assert!(store.append(det(1, 2)));
        assert_eq!(store.heads(), [4, 2]);
        assert_eq!(store.above(1, RClock::MAX), []);
    }
}
