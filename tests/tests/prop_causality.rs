//! Property tests of the causality-log detectors against randomized
//! event/cause scripts.
//!
//! The liveness detectors are only trustworthy if they are *exact*: a
//! dangling or absent report must mean a producer-less edge really
//! exists in the log (no false positives — a noisy hang diagnosis is
//! worse than none), and every producer-less edge must be reported (no
//! false negatives — a silent detector is a silent timeout with extra
//! steps). The properties check the full API surface (produce /
//! produce-unique / expect / consume / cancel / cancel-owner) against
//! an independent declarative model, and pin the order-insensitivity
//! contract: satisfaction is decided at analysis time over sets, so
//! *when* a producer fired relative to its expectation cannot change
//! the verdict.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use proptest::prelude::*;
use vlog_sim::causality::{self, Edge, EdgeKind, Key, LivenessReport, Log};
use vlog_sim::ckey;

/// Small key universe so scripts collide on keys often: 4 kinds x 6
/// values. Collisions are where the detectors earn their keep —
/// repeat productions, re-expected causes, double consumes.
const KINDS: usize = 4;
const VALS: u64 = 6;

/// An abstract key: `(kind index, value)`.
type K = (usize, u64);

fn key(k: K) -> Key {
    match k.0 {
        0 => ckey!("alpha", v = k.1),
        1 => ckey!("beta", v = k.1),
        2 => ckey!("gamma", v = k.1),
        _ => ckey!("delta", v = k.1),
    }
}

/// The universe's `alpha` stored a second time, at another address (a
/// leaked `String`). By content it is the literal's kind, and the log
/// must see one kind — equal, hashed and ordered alike.
fn alpha_elsewhere() -> &'static str {
    static KIND: OnceLock<&'static str> = OnceLock::new();
    KIND.get_or_init(|| {
        let kind: &'static str = String::from("alpha").leak();
        assert!(!std::ptr::eq(kind, "alpha"));
        kind
    })
}

/// [`key`], with an `alpha` key built from [`alpha_elsewhere`]. The
/// edges below build some roles one way and some the other, so every
/// map of the log is probed across the two addresses of one kind.
fn key_elsewhere(k: K) -> Key {
    match k.0 {
        0 => Key::from_parts(alpha_elsewhere(), &["v"], &[k.1]),
        _ => key(k),
    }
}

/// One recording-API call.
#[derive(Debug, Clone, Copy)]
enum Op {
    Produce { key: K, cause: Option<K> },
    ProduceUnique { key: K },
    Expect { cause: K, waiter: K, owner: u64 },
    Consume { cause: K, by: K },
    Cancel { cause: K },
    CancelOwner { owner: u64 },
}

fn key_strategy() -> impl Strategy<Value = K> {
    (0..KINDS, 0..VALS)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<bool>(), key_strategy(), key_strategy()).prop_map(|(linked, key, cause)| {
            Op::Produce {
                key,
                cause: linked.then_some(cause),
            }
        }),
        key_strategy().prop_map(|key| Op::ProduceUnique { key }),
        (key_strategy(), key_strategy(), 0u64..3).prop_map(|(cause, waiter, owner)| Op::Expect {
            cause,
            waiter,
            owner
        }),
        (key_strategy(), key_strategy()).prop_map(|(cause, by)| Op::Consume { cause, by }),
        key_strategy().prop_map(|cause| Op::Cancel { cause }),
        (0u64..3).prop_map(|owner| Op::CancelOwner { owner }),
    ]
}

fn edge(op: Op) -> Edge {
    match op {
        Op::Produce { key: k, cause } => Edge::Produced {
            key: key(k),
            caused_by: cause.map(key_elsewhere),
            unique: false,
        },
        Op::ProduceUnique { key: k } => Edge::Produced {
            key: key_elsewhere(k),
            caused_by: None,
            unique: true,
        },
        Op::Expect {
            cause,
            waiter,
            owner,
        } => Edge::Expect {
            cause: key_elsewhere(cause),
            waiter: key(waiter),
            owner,
        },
        Op::Consume { cause, by } => Edge::Consume {
            cause: key(cause),
            by: key_elsewhere(by),
        },
        Op::Cancel { cause } => Edge::Cancel { cause: key(cause) },
        Op::CancelOwner { owner } => Edge::CancelOwner { owner },
    }
}

/// Runs a script through a real log and returns its analysis.
fn run_script(ops: &[Op]) -> LivenessReport {
    let mut log = Log::default();
    for &op in ops {
        log.record(edge(op));
    }
    log.analyze()
}

/// The independent declarative model: producer-less edges computed
/// over plain sets, written from the documented contract rather than
/// the log's internals.
#[derive(Debug, Default, PartialEq, Eq)]
struct Model {
    /// `(cause, waiter, owner)` of surviving expectations whose cause
    /// has no producer.
    dangling: BTreeSet<(K, K, u64)>,
    /// `(cause, edge, by)` of producer-less referenced causes.
    absent: BTreeSet<(K, EdgeKind, K)>,
    /// Once-only keys with their production count.
    duplicates: BTreeSet<(K, u64)>,
}

fn model(ops: &[Op]) -> Model {
    let mut produced: BTreeMap<K, u64> = BTreeMap::new();
    // First recorded cause edge per produced key wins.
    let mut caused_by: BTreeMap<K, K> = BTreeMap::new();
    let mut unique: BTreeSet<K> = BTreeSet::new();
    // Last expectation per cause wins; cancels withdraw.
    let mut expects: BTreeMap<K, (K, u64)> = BTreeMap::new();
    // First consumer per cause wins.
    let mut consumed: BTreeMap<K, K> = BTreeMap::new();
    for &op in ops {
        match op {
            Op::Produce { key, cause } => {
                *produced.entry(key).or_insert(0) += 1;
                if let Some(c) = cause {
                    caused_by.entry(key).or_insert(c);
                }
            }
            Op::ProduceUnique { key } => {
                *produced.entry(key).or_insert(0) += 1;
                unique.insert(key);
            }
            Op::Expect {
                cause,
                waiter,
                owner,
            } => {
                expects.insert(cause, (waiter, owner));
            }
            Op::Consume { cause, by } => {
                consumed.entry(cause).or_insert(by);
            }
            Op::Cancel { cause } => {
                expects.remove(&cause);
            }
            Op::CancelOwner { owner } => {
                expects.retain(|_, &mut (_, o)| o != owner);
            }
        }
    }
    let mut m = Model::default();
    for (cause, (waiter, owner)) in &expects {
        if !produced.contains_key(cause) {
            m.dangling.insert((*cause, *waiter, *owner));
        }
    }
    for (cause, by) in &consumed {
        if !produced.contains_key(cause) {
            m.absent.insert((*cause, EdgeKind::Consumed, *by));
        }
    }
    for (by, cause) in &caused_by {
        if !produced.contains_key(cause) {
            m.absent.insert((*cause, EdgeKind::CausedBy, *by));
        }
    }
    for k in &unique {
        let count = produced[k];
        if count > 1 {
            m.duplicates.insert((*k, count));
        }
    }
    m
}

/// Flattens a real report into the model's shape (keys back to their
/// abstract `(kind, value)` form).
fn flatten(report: &LivenessReport) -> Model {
    let unkey = |k: Key| -> K {
        let kind = match k.kind() {
            "alpha" => 0,
            "beta" => 1,
            "gamma" => 2,
            _ => 3,
        };
        (kind, k.get("v").expect("every script key carries v"))
    };
    Model {
        dangling: report
            .dangling
            .iter()
            .map(|d| (unkey(d.cause), unkey(d.waiter), d.owner))
            .collect(),
        absent: report
            .absent
            .iter()
            .map(|a| (unkey(a.cause), a.edge, unkey(a.by)))
            .collect(),
        duplicates: report
            .duplicates
            .iter()
            .map(|d| (unkey(d.key), d.count))
            .collect(),
    }
}

/// A script transposition that moves every production to the front
/// (stable within each class), i.e. every producer fires before any
/// expectation or consumption is declared.
fn produces_first(ops: &[Op]) -> Vec<Op> {
    let is_produce = |op: &Op| matches!(op, Op::Produce { .. } | Op::ProduceUnique { .. });
    let mut out: Vec<Op> = ops.iter().copied().filter(is_produce).collect();
    out.extend(ops.iter().copied().filter(|op| !is_produce(op)));
    out
}

/// The mirror transposition: every producer fires last.
fn produces_last(ops: &[Op]) -> Vec<Op> {
    let is_produce = |op: &Op| matches!(op, Op::Produce { .. } | Op::ProduceUnique { .. });
    let mut out: Vec<Op> = ops.iter().copied().filter(|op| !is_produce(op)).collect();
    out.extend(ops.iter().copied().filter(is_produce));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Exactness: the detectors flag precisely the producer-less edges
    /// of the script — surviving expectations, consumed causes and
    /// `caused_by` targets with no production anywhere — and precisely
    /// the violated once-only contracts. No false positives, no false
    /// negatives. Each list is strictly ascending by its key, so with
    /// the set equality the vectors themselves are pinned: the order is
    /// the analysis's, not the log's containers'.
    #[test]
    fn detectors_flag_exactly_the_producerless_edges(
        ops in prop::collection::vec(op_strategy(), 0..120),
    ) {
        let report = run_script(&ops);
        prop_assert_eq!(flatten(&report), model(&ops));
        prop_assert!(report.dangling.windows(2).all(|w| w[0].cause < w[1].cause));
        prop_assert!(report
            .absent
            .windows(2)
            .all(|w| (w[0].cause, w[0].edge, w[0].by) < (w[1].cause, w[1].edge, w[1].by)));
        prop_assert!(report.duplicates.windows(2).all(|w| w[0].key < w[1].key));
        let produces = ops
            .iter()
            .filter(|op| matches!(op, Op::Produce { .. } | Op::ProduceUnique { .. }))
            .count() as u64;
        prop_assert_eq!(report.produced_events, produces);
    }

    /// Order-insensitivity: satisfaction is decided over sets at
    /// analysis time, so moving every production before — or after —
    /// all declarations changes nothing. An expectation satisfied by a
    /// production that fired earlier is as satisfied as one whose
    /// producer fired later.
    #[test]
    fn production_order_cannot_change_the_verdict(
        ops in prop::collection::vec(op_strategy(), 0..120),
    ) {
        let base = run_script(&ops);
        prop_assert_eq!(&run_script(&produces_first(&ops)), &base);
        prop_assert_eq!(&run_script(&produces_last(&ops)), &base);
    }

    /// Zero false positives on well-formed logs: a script whose every
    /// referenced cause is produced and whose once-only keys fire once
    /// analyzes clean, whatever else it contains.
    #[test]
    fn well_formed_logs_are_clean(
        refs in prop::collection::vec(
            (key_strategy(), key_strategy(), 0u64..3, 0usize..3),
            0..60,
        ),
        unique_draws in prop::collection::vec(key_strategy(), 0..10),
    ) {
        let uniques: BTreeSet<K> = unique_draws.into_iter().collect();
        let mut ops = Vec::new();
        for &(cause, other, owner, edge) in &refs {
            // Reference the cause one of three ways, then produce it.
            ops.push(match edge {
                0 => Op::Expect { cause, waiter: other, owner },
                1 => Op::Consume { cause, by: other },
                _ => Op::Produce { key: other, cause: Some(cause) },
            });
            ops.push(Op::Produce { key: cause, cause: None });
        }
        // Once-only keys must fire exactly once, so only declare them
        // on keys the reference block above never produced.
        let produced_above: BTreeSet<K> = refs
            .iter()
            .flat_map(|&(cause, other, _, edge)| {
                let mut v = vec![cause];
                if edge == 2 {
                    v.push(other);
                }
                v
            })
            .collect();
        for &k in uniques.difference(&produced_above) {
            ops.push(Op::ProduceUnique { key: k });
        }
        let report = run_script(&ops);
        prop_assert!(
            report.is_clean(),
            "well-formed script analyzed dirty:\n{}",
            causality::render("well-formed", &report)
        );
    }
}
