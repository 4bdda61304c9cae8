//! Model-based tests of the sender-based payload log.
//!
//! `SenderLog` keeps each destination's entries as frozen runs shared
//! with checkpoint images plus an owned tail, and appends in the
//! fault-free case; a `BTreeMap` keyed by `(dst, ssn)` answers the same
//! queries with no such cases. Random scripts of ascending, duplicate and
//! absent-below-back inserts, prunes, range reads and replay markers must
//! leave both with identical contents, counts and return values.
//!
//! Payloads mix synthetic lengths with real bytes, alone or with a
//! synthetic tail, so entries that box their bytes go through every step
//! alongside those that store a length only.
//!
//! A snapshot step takes a checkpoint image of a log with
//! `SenderLog::snapshot`, and a restore step clones a log the way a
//! restart clones its image. Every copy then goes on matching its own
//! model through later writes on any copy: a write that leaked into a
//! frozen run another copy shares would show up as a mismatch.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vlog_core::SenderLog;
use vlog_vmpi::{Payload, Rank, Ssn, Tag};

const N: usize = 4;

/// At most this many copies are live at once; a snapshot or restore
/// beyond it replaces (and so drops) an existing copy.
const SIDES: usize = 3;

/// The log as the `BTreeMap` it used to be, replay markers included.
#[derive(Clone, Default)]
struct Model {
    entries: BTreeMap<(Rank, Ssn), (Tag, Payload)>,
    shipped: BTreeMap<Rank, (u64, Ssn)>,
}

impl Model {
    fn insert(&mut self, dst: Rank, ssn: Ssn, tag: Tag, payload: &Payload) -> bool {
        if self.entries.contains_key(&(dst, ssn)) {
            return false;
        }
        self.entries.insert((dst, ssn), (tag, payload.clone()));
        true
    }

    fn prune_below(&mut self, dst: Rank, below: Ssn) {
        self.entries.retain(|&(d, s), _| d != dst || s >= below);
    }

    fn entries_from(&self, dst: Rank, from: Ssn) -> Vec<(Ssn, Tag, Payload)> {
        self.entries
            .range((dst, from)..(dst + 1, 0))
            .map(|(&(_, ssn), (tag, payload))| (ssn, *tag, payload.clone()))
            .collect()
    }

    /// The next ssn above everything logged for `dst`, or 0.
    fn next(&self, dst: Rank) -> Ssn {
        self.entries
            .range((dst, 0)..(dst + 1, 0))
            .next_back()
            .map_or(0, |(&(_, ssn), _)| ssn + 1)
    }

    fn replay_start(&self, dst: Rank, id: u64, wm: Ssn) -> Ssn {
        match self.shipped.get(&dst) {
            Some(&(at, next)) if at == id => next.max(wm),
            _ => wm,
        }
    }

    fn note_shipped(&mut self, dst: Rank, id: u64, next: Ssn) {
        let next = match self.shipped.get(&dst) {
            Some(&(at, cur)) if at == id => cur.max(next),
            _ => next,
        };
        self.shipped.insert(dst, (id, next));
    }

    fn payload_bytes(&self) -> u64 {
        self.entries.values().map(|(_, p)| p.len()).sum()
    }
}

fn read(log: &SenderLog, dst: Rank, from: Ssn) -> Vec<(Ssn, Tag, Payload)> {
    log.entries_from(dst, from)
        .map(|(ssn, e)| (ssn, e.tag, e.payload))
        .collect()
}

/// The payload logged at `step`: synthetic, real bytes, or real bytes
/// with a synthetic tail.
fn payload_at(step: usize) -> Payload {
    let len = step as u64 % 97 + 1;
    let real = || Payload::new(vec![step as u8; step % 5 + 1]);
    match step % 3 {
        0 => Payload::synthetic(len),
        1 => real(),
        _ => Payload { pad: len, ..real() },
    }
}

/// Maps a script value in `0..48` onto `0..=top`.
fn spread(a: u64, top: u64) -> u64 {
    a * top / 47
}

/// Keeps `copy` as a new side, or in place of another once `SIDES` are
/// live.
fn keep(sides: &mut Vec<(SenderLog, Model)>, from: usize, copy: (SenderLog, Model)) {
    if sides.len() < SIDES {
        sides.push(copy);
    } else {
        sides[(from + 1) % SIDES] = copy;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sender_log_matches_a_btreemap(
        ops in prop::collection::vec((0u8..9, 0u64..48, 0u64..48, 0..N), 1..120)
    ) {
        let mut sides = vec![(SenderLog::new(N), Model::default())];
        for (step, &(kind, a, b, dst)) in ops.iter().enumerate() {
            let side = (dst + step) % sides.len();
            let (log, model) = &mut sides[side];
            let next = model.next(dst);
            let payload = payload_at(step);
            let tag = step as Tag;
            match kind {
                // Ascending: up to 48 in a row, so tails fill and freeze,
                // or up to 8 after a gap.
                0 | 1 => {
                    let (gap, len) = if kind == 0 { (0, b) } else { (1 + a % 3, b % 8) };
                    for k in 0..=len {
                        let ssn = next + gap + k;
                        prop_assert_eq!(
                            log.insert(dst, ssn, tag, &payload),
                            model.insert(dst, ssn, tag, &payload)
                        );
                    }
                }
                // Anywhere at or below the back: a duplicate (the stored
                // copy must stay) or an absent ssn (recovery).
                2 => {
                    let ssn = spread(a, next.saturating_sub(1));
                    prop_assert_eq!(
                        log.insert(dst, ssn, tag, &payload),
                        model.insert(dst, ssn, tag, &payload)
                    );
                }
                3 => {
                    let below = spread(a, next);
                    log.prune_below(dst, below);
                    model.prune_below(dst, below);
                }
                4 => {
                    let from = spread(a, next);
                    prop_assert_eq!(read(log, dst, from), model.entries_from(dst, from));
                }
                5 => {
                    let (id, wm) = (b % 3, spread(a, next));
                    let start = log.replay_start(dst, id, wm);
                    prop_assert_eq!(start, model.replay_start(dst, id, wm));
                    let shipped = spread(b, next);
                    log.note_shipped(dst, id, shipped);
                    model.note_shipped(dst, id, shipped);
                }
                // A checkpoint image, snapshotted twice in a row now and
                // then (the second one freezes nothing).
                6 => {
                    let mut image = log.snapshot();
                    if a % 2 == 0 {
                        image = log.snapshot();
                    }
                    let copy = (image, model.clone());
                    keep(&mut sides, side, copy);
                }
                // A restart from a copy.
                7 => {
                    let copy = (log.clone(), model.clone());
                    keep(&mut sides, side, copy);
                }
                _ => {
                    let (id, wm) = (b % 3, spread(a, next));
                    prop_assert_eq!(log.replay_start(dst, id, wm), model.replay_start(dst, id, wm));
                }
            }
            for (log, model) in &sides {
                prop_assert_eq!(log.len(), model.entries.len());
                prop_assert_eq!(log.is_empty(), model.entries.is_empty());
                prop_assert_eq!(log.payload_bytes(), model.payload_bytes());
                for d in 0..N {
                    prop_assert_eq!(read(log, d, 0), model.entries_from(d, 0));
                }
            }
        }
    }
}
