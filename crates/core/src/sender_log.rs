//! Sender-based payload logging (paper §III).
//!
//! *"When a process sends a message, it stores its payload on its volatile
//! memory. When a process is restarted, it requests all other processes
//! to send back every message needed for its reexecution."*
//!
//! The log lives in the sender's volatile memory, is copied into
//! checkpoint images (the paper includes "the payload of some messages"
//! in the image) and is garbage-collected when a *receiver* commits a
//! checkpoint covering the logged receptions.
//!
//! # Images share frozen runs
//!
//! A real process puts its log into an image by fork and copy-on-write,
//! so an image costs only what changed since the previous one; the
//! causality stores do the same (`detseq.rs`). Each destination's log,
//! ascending by ssn, is a list of frozen runs behind an `Arc` plus an
//! owned tail `Vec`:
//!
//! * A fault-free send has the highest ssn yet and is pushed on the tail.
//!   The tail freezes into a run when it holds `RUN` (64) entries, and
//!   at each snapshot. Freezing moves the tail's buffer behind the `Arc`
//!   and copies no entry.
//! * [`SenderLog::snapshot`], which both protocols call to build an
//!   image, freezes every non-empty tail and returns a log of pointer
//!   copies: one per run. The image and the live log then share every
//!   run. Restoring an image clones it; its tails are empty, so that is
//!   pointer copies too.
//! * Pruning drops whole runs and advances `skip` into the first one. A
//!   partly pruned run stays allocated until its last entry is pruned.
//! * A fault-free run logs each channel's sends in ssn order (a held
//!   send is logged when first accepted, and re-gating it finds it
//!   present), so only recovery can log an ssn that is absent and below
//!   the last one. That destination's log is then rebuilt as one owned
//!   tail: one copy of its live entries, shared with no image until the
//!   next snapshot.
//!
//! The entry count and the payload bytes are maintained counters, so an
//! image's size costs O(1).
//!
//! # A stored entry is 24 bytes
//!
//! A run holds `Logged` entries, not `(Ssn, LogEntry)` pairs (56 bytes):
//! the ssn in 32 bits, the tag, the payload's synthetic length `pad`, and
//! its real bytes behind an optional box. Workload payloads are
//! synthetic, so their `Bytes` is empty, and an inline one would spend 32
//! of every entry's bytes on nothing; a payload that carries real bytes
//! pays one box for them instead. A channel's ssn is bounded by its
//! sends, as in the causality stores' `PackedDet`, and an ssn past
//! `u32::MAX` panics naming the field rather than being truncated.
//! [`SenderLog::entries_from`] rebuilds each [`LogEntry`] on read.

use std::sync::Arc;

use bytes::Bytes;
use vlog_vmpi::{Payload, Rank, Ssn, Tag};

/// One logged message.
#[derive(Debug, Clone)]
pub struct LogEntry {
    pub tag: Tag,
    pub payload: Payload,
}

/// One stored entry (module docs).
#[derive(Debug, Clone)]
struct Logged {
    ssn: u32,
    tag: Tag,
    /// The payload's synthetic length.
    pad: u64,
    /// The payload's real bytes; `None` when it has none.
    data: Option<Box<Bytes>>,
}

impl Logged {
    fn new(ssn: Ssn, tag: Tag, payload: &Payload) -> Logged {
        let Ok(narrow) = u32::try_from(ssn) else {
            panic!(
                "logged ssn {ssn} does not fit 32 bits: a channel's ssn is bounded by its sends"
            );
        };
        Logged {
            ssn: narrow,
            tag,
            pad: payload.pad,
            data: (!payload.data.is_empty()).then(|| Box::new(payload.data.clone())),
        }
    }

    fn ssn(&self) -> Ssn {
        self.ssn.into()
    }

    /// The payload's wire length.
    fn len(&self) -> u64 {
        self.pad + self.data.as_ref().map_or(0, |data| data.len() as u64)
    }

    fn entry(&self) -> LogEntry {
        LogEntry {
            tag: self.tag,
            payload: Payload {
                data: self.data.as_deref().cloned().unwrap_or_default(),
                pad: self.pad,
            },
        }
    }
}

/// Entries at which a tail freezes while logging (module docs). Short
/// runs keep what a partly pruned run pins, and the growth slack a run
/// frozen by a snapshot keeps, small.
const RUN: usize = 64;

/// One destination's log, ascending by ssn (module docs).
#[derive(Debug, Clone, Default)]
struct DstLog {
    /// Non-empty frozen runs, shared with every image taken since.
    runs: Vec<Arc<Vec<Logged>>>,
    /// Pruned entries at the front of `runs[0]`, fewer than its length;
    /// 0 when there is no run.
    skip: usize,
    /// The newest entries, not yet frozen.
    tail: Vec<Logged>,
}

impl DstLog {
    /// The live entries as ascending pieces: the runs, then the tail.
    fn pieces(&self) -> impl DoubleEndedIterator<Item = &[Logged]> {
        let (first, rest) = match self.runs.split_first() {
            Some((first, rest)) => (&first[self.skip..], rest),
            None => (&[][..], &[][..]),
        };
        std::iter::once(first)
            .chain(rest.iter().map(|run| &run[..]))
            .chain(std::iter::once(&self.tail[..]))
    }

    fn back(&self) -> Option<Ssn> {
        let last = self.tail.last().or_else(|| self.runs.last()?.last());
        last.map(Logged::ssn)
    }

    /// Searches only the last piece starting at or below `ssn`: a
    /// re-gated held send finds itself in the tail.
    fn contains(&self, ssn: Ssn) -> bool {
        self.pieces()
            .rev()
            .find(|piece| piece.first().is_some_and(|e| e.ssn() <= ssn))
            .is_some_and(|piece| piece.binary_search_by_key(&ssn, Logged::ssn).is_ok())
    }

    /// Logs `ssn` unless present (module docs: appended in the fault-free
    /// case, rebuilt in recovery).
    fn insert(&mut self, entry: Logged) -> bool {
        let ssn = entry.ssn();
        if self.back().is_none_or(|back| ssn > back) {
            self.tail.push(entry);
            if self.tail.len() >= RUN {
                self.freeze();
            }
            return true;
        }
        if self.contains(ssn) {
            return false;
        }
        let mut all: Vec<Logged> = self.pieces().flatten().cloned().collect();
        all.insert(all.partition_point(|e| e.ssn() < ssn), entry);
        *self = DstLog {
            tail: all,
            ..DstLog::default()
        };
        true
    }

    /// Drops the entries with `ssn < below`; returns them counted as
    /// (entries, payload bytes).
    fn prune_below(&mut self, below: Ssn) -> (usize, u64) {
        let mut dropped = (0, 0);
        let mut tally = |gone: &[Logged]| {
            dropped.0 += gone.len();
            dropped.1 += gone.iter().map(Logged::len).sum::<u64>();
        };
        let mut whole = 0;
        for run in &self.runs {
            let live = &run[self.skip..];
            let k = live.partition_point(|e| e.ssn() < below);
            tally(&live[..k]);
            if k < live.len() {
                self.skip += k;
                break;
            }
            whole += 1;
            self.skip = 0;
        }
        self.runs.drain(..whole);
        if self.runs.is_empty() {
            let k = self.tail.partition_point(|e| e.ssn() < below);
            tally(&self.tail[..k]);
            self.tail.drain(..k);
        }
        dropped
    }

    /// Freezes a non-empty tail into a run: its buffer moves behind the
    /// `Arc`, so no entry is copied.
    fn freeze(&mut self) {
        if !self.tail.is_empty() {
            self.runs.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }
}

/// Per-destination sender-based message log.
#[derive(Debug, Clone)]
pub struct SenderLog {
    per_dst: Vec<DstLog>,
    len: usize,
    bytes: u64,
    /// Per-destination replay-shipment marker: the recovery incarnation
    /// last served and the next ssn to ship it. Retried reclaims of the
    /// same incarnation resume from the marker instead of re-sending the
    /// whole log; a new incarnation (later id) starts over.
    shipped: Vec<Option<(u64, Ssn)>>,
}

impl SenderLog {
    pub fn new(n: usize) -> Self {
        SenderLog {
            per_dst: vec![DstLog::default(); n],
            len: 0,
            bytes: 0,
            shipped: vec![None; n],
        }
    }

    /// Logs a message; idempotent on (dst, ssn) so held-send re-gating and
    /// replay re-sends don't double-count.
    ///
    /// # Panics
    ///
    /// If `ssn` does not fit 32 bits (module docs).
    pub fn insert(&mut self, dst: Rank, ssn: Ssn, tag: Tag, payload: &Payload) -> bool {
        if !self.per_dst[dst].insert(Logged::new(ssn, tag, payload)) {
            return false;
        }
        self.len += 1;
        self.bytes += payload.len();
        true
    }

    /// Drops entries to `dst` with `ssn < below` — the receiver's
    /// committed checkpoint covers them.
    pub fn prune_below(&mut self, dst: Rank, below: Ssn) {
        let (len, bytes) = self.per_dst[dst].prune_below(below);
        self.len -= len;
        self.bytes -= bytes;
    }

    /// The log as a checkpoint image holds it: every tail is frozen into
    /// a run first, so the copy shares every entry with `self` (module
    /// docs).
    pub fn snapshot(&mut self) -> SenderLog {
        for dst in &mut self.per_dst {
            dst.freeze();
        }
        self.clone()
    }

    /// Where a replay to `dst` for `recovery_id` should start: the stored
    /// marker when this incarnation was already (partially) served, else
    /// the receiver's channel watermark `wm`.
    pub fn replay_start(&self, dst: Rank, recovery_id: u64, wm: Ssn) -> Ssn {
        match self.shipped[dst] {
            Some((id, next)) if id == recovery_id => next.max(wm),
            _ => wm,
        }
    }

    /// Records that entries below `next` were shipped to `dst` for
    /// `recovery_id`. Monotone within one incarnation; a different id
    /// replaces the marker outright.
    pub fn note_shipped(&mut self, dst: Rank, recovery_id: u64, next: Ssn) {
        let next = match self.shipped[dst] {
            Some((id, cur)) if id == recovery_id => cur.max(next),
            _ => next,
        };
        self.shipped[dst] = Some((recovery_id, next));
    }

    /// Logged messages to `dst` with `ssn >= from`, ascending (the replay
    /// stream for a recovering receiver), each rebuilt from its stored
    /// entry.
    pub fn entries_from(&self, dst: Rank, from: Ssn) -> impl Iterator<Item = (Ssn, LogEntry)> + '_ {
        self.per_dst[dst]
            .pieces()
            .flat_map(move |piece| &piece[piece.partition_point(|e| e.ssn() < from)..])
            .map(|e| (e.ssn(), e.entry()))
    }

    /// Total payload bytes held (image sizing and memory metrics).
    pub fn payload_bytes(&self) -> u64 {
        self.bytes
    }

    /// Total number of logged messages.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: u64) -> Payload {
        Payload::synthetic(n)
    }

    #[test]
    fn a_stored_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Logged>(), 24);
    }

    #[test]
    fn real_bytes_come_back_with_their_padding() {
        let mut log = SenderLog::new(2);
        let real = Payload {
            data: Bytes::from(&b"abc"[..]),
            pad: 5,
        };
        log.insert(1, 0, 2, &real);
        log.insert(1, 1, 3, &payload(4));
        assert_eq!(log.payload_bytes(), 12);
        let got: Vec<(Ssn, Tag, Payload)> = log
            .entries_from(1, 0)
            .map(|(ssn, e)| (ssn, e.tag, e.payload))
            .collect();
        assert_eq!(got, [(0, 2, real), (1, 3, payload(4))]);
    }

    #[test]
    #[should_panic(expected = "logged ssn 4294967296 does not fit 32 bits")]
    fn an_ssn_past_u32_panics_naming_it() {
        SenderLog::new(2).insert(1, u64::from(u32::MAX) + 1, 0, &payload(1));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut log = SenderLog::new(2);
        assert!(log.insert(1, 0, 5, &payload(100)));
        assert!(!log.insert(1, 0, 5, &payload(100)));
        assert_eq!(log.len(), 1);
        assert_eq!(log.payload_bytes(), 100);
    }

    #[test]
    fn prune_below_respects_boundary() {
        let mut log = SenderLog::new(2);
        for ssn in 0..10 {
            log.insert(1, ssn, 0, &payload(10));
        }
        log.prune_below(1, 4);
        assert_eq!(log.len(), 6);
        assert_eq!(log.payload_bytes(), 60);
        let ssns: Vec<Ssn> = log.entries_from(1, 0).map(|(s, _)| s).collect();
        assert_eq!(ssns, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn entries_from_filters_watermark() {
        let mut log = SenderLog::new(3);
        for ssn in 0..5 {
            log.insert(2, ssn, 1, &payload(1));
        }
        let got: Vec<Ssn> = log.entries_from(2, 3).map(|(s, _)| s).collect();
        assert_eq!(got, vec![3, 4]);
        // Other destination untouched.
        assert_eq!(log.entries_from(1, 0).count(), 0);
    }

    #[test]
    fn replay_markers_dedupe_within_one_incarnation() {
        let mut log = SenderLog::new(2);
        for ssn in 0..8 {
            log.insert(1, ssn, 0, &payload(1));
        }
        // First reclaim of incarnation 7: everything from the watermark.
        assert_eq!(log.replay_start(1, 7, 3), 3);
        log.note_shipped(1, 7, 8);
        // Retry of the same incarnation resumes past what was shipped.
        assert_eq!(log.replay_start(1, 7, 3), 8);
        // A later crash (new incarnation) starts over from its watermark.
        assert_eq!(log.replay_start(1, 9, 3), 3);
        log.note_shipped(1, 9, 5);
        assert_eq!(log.replay_start(1, 9, 3), 5);
        // The marker never regresses within an incarnation.
        log.note_shipped(1, 9, 4);
        assert_eq!(log.replay_start(1, 9, 3), 5);
        // Other destinations carry independent markers.
        assert_eq!(log.replay_start(0, 9, 0), 0);
    }

    #[test]
    fn a_snapshot_shares_frozen_runs_and_keeps_its_entries() {
        let ssns =
            |log: &SenderLog, dst| log.entries_from(dst, 0).map(|(s, _)| s).collect::<Vec<_>>();
        let mut live = SenderLog::new(3);
        for ssn in 0..6 {
            live.insert(1, ssn, 0, &payload(10));
        }
        live.insert(2, 0, 0, &payload(7));
        let snap = live.snapshot();
        assert!(Arc::ptr_eq(
            &snap.per_dst[1].runs[0],
            &live.per_dst[1].runs[0]
        ));
        assert!(snap.per_dst.iter().all(|d| d.tail.is_empty()));
        // The live side appends, prunes into the shared run and logs an
        // absent ssn below its back (recovery), which rebuilds only that
        // destination.
        for ssn in 6..9 {
            live.insert(1, ssn, 0, &payload(10));
        }
        live.prune_below(1, 2);
        assert_eq!((live.per_dst[1].runs.len(), live.per_dst[1].skip), (1, 2));
        live.prune_below(1, 7);
        assert!(live.per_dst[1].runs.is_empty());
        live.insert(2, 5, 0, &payload(7));
        assert!(live.insert(2, 3, 0, &payload(7)));
        assert!(!live.insert(2, 3, 0, &payload(7)));
        assert_eq!(ssns(&live, 1), [7, 8]);
        assert_eq!(ssns(&live, 2), [0, 3, 5]);
        assert_eq!((live.len(), live.payload_bytes()), (5, 41));
        // The snapshot, and a clone of it, read what was logged at
        // snapshot time.
        for image in [&snap, &snap.clone()] {
            assert_eq!(ssns(image, 1), (0..6).collect::<Vec<_>>());
            assert_eq!(ssns(image, 2), [0]);
            assert_eq!((image.len(), image.payload_bytes()), (7, 67));
        }
        let from: Vec<Ssn> = snap.entries_from(1, 4).map(|(s, _)| s).collect();
        assert_eq!(from, [4, 5]);
    }
}
