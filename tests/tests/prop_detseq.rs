//! Model-based tests of the dense clock-indexed determinant sequences.
//!
//! `DetSeq` answers every query by clock arithmetic when its range is
//! contiguous and by binary search when it has gaps; a `BTreeMap` keyed
//! by clock answers the same queries with no such cases. Random scripts
//! of in-order, out-of-order, duplicate and gapped inserts, run inserts,
//! prunes and range queries must leave both with identical contents,
//! iteration order and return values. The same is done one level up for
//! the antecedence graph — a `DetStore` walked by `extend_past` — against
//! the pre-change `BTreeMap` graph kept in `oracle/`, including the causal
//! past's prefixes and visit counts.
//!
//! A snapshot step clones a store together with its model, the way a
//! checkpoint image clones a rank's causality store. The clone shares
//! the store's full chunks, and every later step lands on one copy only,
//! so each copy must go on matching its own model: a write through
//! either side that leaked into the other would show up as a mismatch.
//!
//! A pool step puts two sides through one `ChunkPool`, the way the ranks
//! of one run share their frozen chunks. A canonical append gives every
//! clock one content whichever side it lands on, so two sides that
//! append the same clocks freeze equal chunks separately and the pool
//! makes them one; salted steps give the same clocks other contents,
//! which the pool must never share. Later overwrites, gap inserts and
//! prunes on either side must leave the other side matching its model.

mod oracle;

use std::collections::BTreeMap;

use proptest::prelude::*;
use vlog_core::graph::extend_past;
use vlog_core::{ChunkPool, DetSeq, DetStore, Determinant, PackedDet};

use oracle::OldGraph;

const N: usize = 4;

/// At most this many copies are live at once; a snapshot beyond it
/// replaces (and so drops) an existing copy.
const SIDES: usize = 3;

fn det(receiver: usize, clock: u64, salt: u64) -> Determinant {
    Determinant {
        receiver,
        clock,
        sender: (receiver + 1 + salt as usize % (N - 1)) % N,
        ssn: salt,
        cause: salt % (clock + 1),
    }
}

fn flat<'a>(pieces: impl Iterator<Item = &'a [PackedDet]>) -> Vec<Determinant> {
    pieces.flatten().copied().map(Determinant::from).collect()
}

/// Maps a script value in `0..48` onto `0..=top`, so inserts, prunes and
/// queries reach every chunk of a sequence however long it has grown.
fn spread(a: u64, top: u64) -> u64 {
    a * top / 47
}

/// One scripted step: `(kind, a, b, creator)`, interpreted per test.
/// Kind 10 is a snapshot, kind 11 a canonical append and kind 12 a pool
/// step.
fn script(max_len: usize) -> impl Strategy<Value = Vec<(u8, u64, u64, usize)>> {
    prop::collection::vec((0u8..13, 0u64..48, 0u64..48, 0..N), 1..max_len)
}

/// Clock `clock`'s one content under a canonical append, whichever side
/// it lands on.
fn canonical(receiver: usize, clock: u64) -> Determinant {
    det(receiver, clock, 1000 + clock)
}

/// The causal past of `roots` above `floor` in `store`, with the visit
/// count, in the shape `OldGraph::causal_past_from` returns.
fn causal_past(store: &DetStore, roots: &[(usize, u64)], floor: &[u64]) -> (Vec<u64>, u64) {
    let mut past = floor.to_vec();
    let visits = extend_past(store, &mut past, &mut roots.to_vec());
    (past, visits)
}

/// Keeps a clone of `sides[from]` as a new side, or in place of another
/// once `SIDES` are live.
fn snapshot<T: Clone>(sides: &mut Vec<T>, from: usize) {
    let copy = sides[from].clone();
    if sides.len() < SIDES {
        sides.push(copy);
    } else {
        sides[(from + 1) % SIDES] = copy;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn detseq_matches_a_btreemap(ops in script(80)) {
        let mut sides = vec![(DetSeq::new(), BTreeMap::<u64, Determinant>::new())];
        let mut pool = ChunkPool::new();
        for (step, &(kind, a, b, pick)) in ops.iter().enumerate() {
            let salt = step as u64;
            let side = pick % sides.len();
            if kind == 10 {
                snapshot(&mut sides, side);
                continue;
            }
            if kind == 12 {
                // The picked side and the next one, through one pool.
                let next = (side + 1) % sides.len();
                sides[side].0.share(0, &mut pool);
                sides[next].0.share(0, &mut pool);
                continue;
            }
            let (seq, map) = &mut sides[side];
            let next = map.keys().next_back().map_or(1, |k| k + 1);
            let pos = spread(a, next);
            match kind {
                // In order, gapped, anywhere (out of order or duplicate
                // with new content), and the stored copy itself again.
                0..=3 => {
                    let clock = match kind {
                        0 => next,
                        1 => next + 1 + a % 4,
                        _ => pos,
                    };
                    match map.get(&clock) {
                        Some(&stored) if kind == 3 => prop_assert_eq!(seq.insert_run(&[stored]), 0),
                        _ => {
                            let d = det(0, clock, salt);
                            prop_assert_eq!(seq.insert(d), map.insert(clock, d).is_none());
                        }
                    }
                }
                // A run of consecutive clocks: appended (up to 48 long,
                // so chunks fill), overlapping the tail with new content,
                // dropped somewhere in the middle, or appended with each
                // clock's canonical content.
                4 | 5 | 11 => {
                    let (start, len) = match kind {
                        4 => (next.saturating_sub(a % 6), b),
                        11 => (next, b),
                        _ => (pos, b % 8),
                    };
                    let make = |k| if kind == 11 { canonical(0, k) } else { det(0, k, salt) };
                    let run: Vec<Determinant> = (start..=start + len).map(make).collect();
                    let fresh = run.iter().filter(|d| map.insert(d.clock, **d).is_none()).count();
                    prop_assert_eq!(seq.insert_run(&run), fresh);
                }
                6 => {
                    let keep = map.split_off(&(pos + 1));
                    prop_assert_eq!(seq.prune_through(pos), map.len());
                    *map = keep;
                }
                7 => {
                    let want: Vec<Determinant> = map.range(pos + 1..).map(|(_, d)| *d).collect();
                    prop_assert_eq!(flat(seq.above_slices(pos)), want);
                    prop_assert_eq!(seq.through(pos), map.range(..=pos).count());
                    prop_assert_eq!(seq.below(pos), map.range(..pos).count());
                }
                8 => {
                    let hi = spread(b, next);
                    let want: Vec<Determinant> = if pos < hi {
                        map.range(pos + 1..=hi).map(|(_, d)| *d).collect()
                    } else {
                        Vec::new()
                    };
                    prop_assert_eq!(flat(seq.range_slices(pos, hi)), want);
                }
                _ => {
                    prop_assert_eq!(seq.get(pos), map.get(&pos).copied());
                    let i = b as usize % (map.len() + 1);
                    prop_assert_eq!(seq.at(i), map.values().nth(i).copied());
                }
            }
            for (seq, map) in &sides {
                prop_assert_eq!(seq.len(), map.len());
                prop_assert_eq!(seq.last(), map.values().next_back().copied());
                prop_assert!(seq.iter().eq(map.values().copied()));
            }
        }
    }

    #[test]
    fn agraph_matches_the_btreemap_graph(ops in script(120)) {
        let mut sides = vec![(DetStore::new(N), OldGraph::new(N), vec![0u64; N])];
        let mut pool = ChunkPool::new();
        for (step, &(kind, a, b, c)) in ops.iter().enumerate() {
            let salt = step as u64;
            // The creator doubles as the side picker.
            let side = (c + step) % sides.len();
            if kind == 10 {
                snapshot(&mut sides, side);
                continue;
            }
            if kind == 12 {
                let next = (side + 1) % sides.len();
                sides[side].0.share(&mut pool);
                sides[next].0.share(&mut pool);
                continue;
            }
            let (new, old, stable) = &mut sides[side];
            match kind {
                0..=3 => {
                    let clock = match kind {
                        0 => old.head(c) + 1,
                        1 => old.head(c) + 1 + a % 4,
                        2 => spread(a, old.head(c) + 1),
                        _ => old.head(c),
                    };
                    let d = det(c, clock, salt);
                    prop_assert_eq!(new.insert(d), old.insert(d));
                }
                4 | 5 | 11 => {
                    let (start, len) = match kind {
                        4 => ((old.head(c) + 1).saturating_sub(a % 6), b),
                        11 => (old.head(c) + 1, b),
                        _ => (a, b % 8),
                    };
                    let make = |k| if kind == 11 { canonical(c, k) } else { det(c, k, salt) };
                    let run: Vec<Determinant> = (start..=start + len).map(make).collect();
                    let fresh = run.iter().filter(|d| old.insert(**d)).count();
                    prop_assert_eq!(new.insert_run(&run), fresh);
                }
                6 => {
                    stable[c] = stable[c].max(spread(a, old.head(c)));
                    new.apply_stable(stable);
                    old.apply_stable(stable);
                }
                7 => {
                    let want: Vec<Determinant> = old.above(c, a).copied().collect();
                    prop_assert_eq!(new.above(c, a), want);
                }
                _ => {
                    let roots = [(c, a), ((c + 1) % N, b)];
                    let floor: Vec<u64> = (0..N as u64).map(|i| (a * (i + 1) + b) % 12).collect();
                    prop_assert_eq!(causal_past(new, &roots, &[0; N]), old.causal_past(&roots));
                    prop_assert_eq!(
                        causal_past(new, &roots, &floor),
                        old.causal_past_from(&roots, &floor)
                    );
                }
            }
            for (new, old, _) in &sides {
                prop_assert_eq!(new.len(), old.len());
                for c in 0..N {
                    prop_assert_eq!((new.head(c), new.stable(c)), (old.head(c), old.stable(c)));
                }
                prop_assert_eq!(new.retained(), old.retained());
            }
        }
    }
}
