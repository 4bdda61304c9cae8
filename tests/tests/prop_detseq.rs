//! Model-based tests of the dense clock-indexed determinant sequences.
//!
//! `DetSeq` answers every query by clock arithmetic when its range is
//! contiguous and by binary search when it has gaps; a `BTreeMap` keyed
//! by clock answers the same queries with no such cases. Random scripts
//! of in-order, out-of-order, duplicate and gapped inserts, run inserts,
//! prunes and range queries must leave both with identical contents,
//! iteration order and return values. The same is done one level up for
//! `AGraph` against the pre-change `BTreeMap` graph kept in `oracle/`,
//! including `causal_past_from`'s prefixes and visit counts.

mod oracle;

use std::collections::BTreeMap;

use proptest::prelude::*;
use vlog_core::{AGraph, DetSeq, Determinant};

use oracle::OldGraph;

const N: usize = 4;

fn det(receiver: usize, clock: u64, salt: u64) -> Determinant {
    Determinant {
        receiver,
        clock,
        sender: (receiver + 1 + salt as usize % (N - 1)) % N,
        ssn: salt,
        cause: salt % (clock + 1),
    }
}

fn flat(slices: (&[Determinant], &[Determinant])) -> Vec<Determinant> {
    [slices.0, slices.1].concat()
}

/// One scripted step: `(kind, a, b, creator)`, interpreted per test.
fn script(max_len: usize) -> impl Strategy<Value = Vec<(u8, u64, u64, usize)>> {
    prop::collection::vec((0u8..10, 0u64..48, 0u64..48, 0..N), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn detseq_matches_a_btreemap(ops in script(80)) {
        let mut seq = DetSeq::new();
        let mut map: BTreeMap<u64, Determinant> = BTreeMap::new();
        for (step, &(kind, a, b, _)) in ops.iter().enumerate() {
            let salt = step as u64;
            let next = map.keys().next_back().map_or(1, |k| k + 1);
            match kind {
                // In order, gapped, anywhere (out of order or duplicate
                // with new content), exact duplicate of the newest.
                0..=3 => {
                    let clock = match kind {
                        0 => next,
                        1 => next + 1 + a % 4,
                        2 => a,
                        _ => next - 1,
                    };
                    let d = det(0, clock, salt);
                    prop_assert_eq!(seq.insert(d), map.insert(clock, d).is_none());
                }
                // A run of consecutive clocks: appended, overlapping the
                // tail, or dropped somewhere in the middle.
                4 | 5 => {
                    let start = if kind == 4 { next.saturating_sub(a % 6) } else { a };
                    let run: Vec<Determinant> =
                        (start..=start + b % 8).map(|k| det(0, k, salt)).collect();
                    let fresh = run.iter().filter(|d| map.insert(d.clock, **d).is_none()).count();
                    prop_assert_eq!(seq.insert_run(&run), fresh);
                }
                6 => {
                    let keep = map.split_off(&(a + 1));
                    prop_assert_eq!(seq.prune_through(a), map.len());
                    map = keep;
                }
                7 => {
                    let want: Vec<Determinant> = map.range(a + 1..).map(|(_, d)| *d).collect();
                    prop_assert_eq!(flat(seq.above_slices(a)), want);
                    prop_assert_eq!(seq.through(a), map.range(..=a).count());
                    prop_assert_eq!(seq.below(a), map.range(..a).count());
                }
                8 => {
                    let want: Vec<Determinant> = if a < b {
                        map.range(a + 1..=b).map(|(_, d)| *d).collect()
                    } else {
                        Vec::new()
                    };
                    prop_assert_eq!(flat(seq.range_slices(a, b)), want);
                }
                _ => prop_assert_eq!(seq.get(a), map.get(&a)),
            }
            prop_assert_eq!(seq.len(), map.len());
            prop_assert_eq!(seq.last(), map.values().next_back());
        }
        let contents: Vec<Determinant> = seq.iter().copied().collect();
        prop_assert_eq!(contents, map.into_values().collect::<Vec<_>>());
    }

    #[test]
    fn agraph_matches_the_btreemap_graph(ops in script(120)) {
        let mut new = AGraph::new(N);
        let mut old = OldGraph::new(N);
        let mut stable = vec![0u64; N];
        for (step, &(kind, a, b, c)) in ops.iter().enumerate() {
            let salt = step as u64;
            match kind {
                0..=3 => {
                    let clock = match kind {
                        0 => old.head(c) + 1,
                        1 => old.head(c) + 1 + a % 4,
                        2 => a,
                        _ => old.head(c),
                    };
                    let d = det(c, clock, salt);
                    prop_assert_eq!(new.insert(d), old.insert(d));
                }
                4 | 5 => {
                    let start = if kind == 4 { (old.head(c) + 1).saturating_sub(a % 6) } else { a };
                    let run: Vec<Determinant> =
                        (start..=start + b % 8).map(|k| det(c, k, salt)).collect();
                    let fresh = run.iter().filter(|d| old.insert(**d)).count();
                    prop_assert_eq!(new.insert_run(&run), fresh);
                }
                6 => {
                    stable[c] = stable[c].max(a);
                    new.apply_stable(&stable);
                    old.apply_stable(&stable);
                }
                7 => {
                    let got: Vec<Determinant> = new.above(c, a).copied().collect();
                    let want: Vec<Determinant> = old.above(c, a).copied().collect();
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let roots = [(c, a), ((c + 1) % N, b)];
                    let floor: Vec<u64> = (0..N as u64).map(|i| (a * (i + 1) + b) % 12).collect();
                    prop_assert_eq!(new.causal_past(&roots), old.causal_past(&roots));
                    prop_assert_eq!(
                        new.causal_past_from(&roots, &floor),
                        old.causal_past_from(&roots, &floor)
                    );
                }
            }
            prop_assert_eq!(new.len(), old.len());
            for c in 0..N {
                prop_assert_eq!((new.head(c), new.stable(c)), (old.head(c), old.stable(c)));
            }
        }
        prop_assert_eq!(new.retained(), old.retained());
    }
}
