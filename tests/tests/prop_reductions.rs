//! Property-based tests of the piggyback-reduction layer.
//!
//! The central safety property of causal message logging: **whenever a
//! process receives a message, its causality knowledge must afterwards
//! cover the entire unstable causal past of that message** — otherwise a
//! crash of some third process could orphan the receiver. We check it for
//! all three reduction techniques against a brute-force set-based oracle
//! over randomly generated executions, alongside the no-resend-per-channel
//! guarantee and the codec roundtrips.
//!
//! The second half is model-based: the production stores (dense
//! clock-indexed sequences) against the pre-change `BTreeMap` stores kept
//! in `oracle/`, driven by the same random 16-rank executions — every
//! piggyback (order included), `Work` counter and retained set must be
//! identical, with and without stability, peer stability, mid-run
//! `absorb` and a restart that re-creates lost clocks.

mod oracle;

use std::collections::BTreeSet;

use proptest::prelude::*;
use vlog_core::{
    decode_factored, decode_flat, make_reduction, Determinant, PbFormat, Reduction, Technique,
};

const N: usize = 4;
/// Rank count of the old-vs-new equivalence executions (the paper's and
/// the end-to-end benchmark's job size).
const WIDE: usize = 16;

/// A randomly generated execution: a sequence of (from, to) messages.
fn exec_strategy(max_len: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    exec_among(N, max_len)
}

fn exec_among(n: usize, max_len: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n - 1), 1..max_len).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(from, to_raw)| {
                // Skew `to` away from `from` to get a valid pair.
                let to = if to_raw >= from { to_raw + 1 } else { to_raw };
                (from, to)
            })
            .collect()
    })
}

/// Brute-force oracle: each process's knowledge as an explicit event set.
struct Oracle {
    knows: Vec<BTreeSet<(usize, u64)>>,
    clocks: Vec<u64>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            knows: vec![BTreeSet::new(); N],
            clocks: vec![0; N],
        }
    }

    /// Applies one message and returns the new event plus the message's
    /// causal past (the sender's knowledge at emission).
    fn step(&mut self, from: usize, to: usize) -> ((usize, u64), BTreeSet<(usize, u64)>) {
        let past = self.knows[from].clone();
        self.clocks[to] += 1;
        let ev = (to, self.clocks[to]);
        let union: BTreeSet<_> = self.knows[to].union(&past).copied().collect();
        self.knows[to] = union;
        self.knows[to].insert(ev);
        (ev, past)
    }
}

/// Runs an execution through real reductions while checking the safety
/// property against the oracle.
fn run_checked(technique: Technique, msgs: &[(usize, usize)]) {
    let mut reds: Vec<Box<dyn Reduction>> = (0..N).map(|_| make_reduction(technique, N)).collect();
    let mut oracle = Oracle::new();
    let mut clocks = vec![0u64; N];
    let mut ssn = vec![vec![0u64; N]; N];
    for &(from, to) in msgs {
        let (pb, _) = reds[from].build(to, clocks[from]);
        // Safety: after integrating, the receiver must know the whole
        // causal past of the message.
        let (ev, past) = oracle.step(from, to);
        reds[to].integrate(from, clocks[from], &pb);
        clocks[to] += 1;
        assert_eq!(clocks[to], ev.1);
        let det = Determinant {
            receiver: to,
            clock: clocks[to],
            sender: from,
            ssn: ssn[from][to],
            cause: clocks[from],
        };
        ssn[from][to] += 1;
        reds[to].add_local(det);
        let retained: BTreeSet<(usize, u64)> = reds[to]
            .retained()
            .into_iter()
            .map(|d| (d.receiver, d.clock))
            .collect();
        for needed in &past {
            assert!(
                retained.contains(needed),
                "{technique:?}: receiver {to} missing event {needed:?} from the \
                 causal past of a message it received"
            );
        }
    }
}

/// What happens between messages of an equivalence execution.
#[derive(Debug, Clone, Copy)]
enum Between {
    Nothing,
    /// Every 5th message the receiver and sender learn EL stability.
    ApplyStable,
    /// Every 5th message the receiver hears the sender's GC notice.
    PeerStable,
    /// Every 9th message the receiver absorbs the sender's whole store,
    /// as a recovering rank does with a reclaim response.
    Absorb,
    /// Every 13th message the receiver restarts from nothing, absorbs two
    /// peers' stores and resumes from the last own event they held — the
    /// clocks it lost are then re-created with different content.
    Restart,
}

/// Drives the production reduction and the pre-change one through the
/// same execution and compares every observable.
fn run_equivalent(technique: Technique, between: Between, msgs: &[(usize, usize)]) {
    let n = WIDE;
    let mut new: Vec<Box<dyn Reduction>> = (0..n).map(|_| make_reduction(technique, n)).collect();
    let mut old: Vec<Box<dyn Reduction>> = (0..n)
        .map(|_| oracle::make_old_reduction(technique, n))
        .collect();
    let mut clocks = vec![0u64; n];
    for (step, &(from, to)) in msgs.iter().enumerate() {
        let ctx = format!("{technique:?}/{between:?} step {step} {from}->{to}");
        let built = new[from].build(to, clocks[from]);
        assert_eq!(built, old[from].build(to, clocks[from]), "build {ctx}");
        let (pb, _) = built;
        assert_eq!(
            new[to].integrate(from, clocks[from], &pb),
            old[to].integrate(from, clocks[from], &pb),
            "integrate {ctx}"
        );
        clocks[to] += 1;
        let det = Determinant {
            receiver: to,
            clock: clocks[to],
            sender: from,
            ssn: step as u64,
            cause: clocks[from],
        };
        assert_eq!(
            new[to].add_local(det),
            old[to].add_local(det),
            "add_local {ctx}"
        );
        match between {
            Between::ApplyStable if step % 5 == 4 => {
                let stable: Vec<u64> = clocks.iter().map(|k| k * 3 / 4).collect();
                for r in [from, to] {
                    new[r].apply_stable(&stable);
                    old[r].apply_stable(&stable);
                }
            }
            Between::PeerStable if step % 5 == 4 => {
                let stable: Vec<u64> = clocks.iter().map(|k| k / 2).collect();
                new[to].note_peer_stable(from, &stable);
                old[to].note_peer_stable(from, &stable);
            }
            Between::Absorb if step % 9 == 8 => {
                let dets = old[from].retained();
                new[to].absorb(&dets);
                old[to].absorb(&dets);
            }
            Between::Restart if step % 13 == 12 => {
                new[to] = make_reduction(technique, n);
                old[to] = oracle::make_old_reduction(technique, n);
                clocks[to] = 0;
                for peer in [from, (to + 1) % n] {
                    let dets = old[peer].retained();
                    new[to].absorb(&dets);
                    old[to].absorb(&dets);
                    let own = dets.iter().filter(|d| d.receiver == to).map(|d| d.clock);
                    clocks[to] = clocks[to].max(own.max().unwrap_or(0));
                }
            }
            _ => {}
        }
        for r in [from, to] {
            assert_eq!(new[r].retained(), old[r].retained(), "retained({r}) {ctx}");
            assert_eq!(new[r].retained_count(), old[r].retained_count(), "{ctx}");
            assert_eq!(new[r].retained_count(), new[r].retained().len(), "{ctx}");
            let half = clocks[r] / 2;
            let mut own = old[r].retained();
            own.retain(|d| d.receiver == r && d.clock > half);
            assert_eq!(new[r].retained_of(r, half), own, "retained_of({r}) {ctx}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stores_match_the_pre_change_stores(msgs in exec_among(WIDE, 260)) {
        for t in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
            for between in [
                Between::Nothing,
                Between::ApplyStable,
                Between::PeerStable,
                Between::Absorb,
                Between::Restart,
            ] {
                run_equivalent(t, between, &msgs);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn causal_past_is_always_covered(msgs in exec_strategy(60)) {
        for t in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
            run_checked(t, &msgs);
        }
    }

    #[test]
    fn no_event_is_piggybacked_twice_on_one_channel(msgs in exec_strategy(60)) {
        for t in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
            let mut reds: Vec<Box<dyn Reduction>> =
                (0..N).map(|_| make_reduction(t, N)).collect();
            let mut clocks = vec![0u64; N];
            // sent[from][to]: events already piggybacked on that channel.
            let mut sent: Vec<Vec<BTreeSet<(usize, u64)>>> =
                vec![vec![BTreeSet::new(); N]; N];
            for &(from, to) in &msgs {
                let (pb, _) = reds[from].build(to, clocks[from]);
                for d in &pb {
                    let key = (d.receiver, d.clock);
                    prop_assert!(
                        sent[from][to].insert(key),
                        "{:?}: event {:?} resent on channel {}->{}",
                        t, key, from, to
                    );
                }
                reds[to].integrate(from, clocks[from], &pb);
                clocks[to] += 1;
                reds[to].add_local(Determinant {
                    receiver: to,
                    clock: clocks[to],
                    sender: from,
                    ssn: 0,
                    cause: clocks[from],
                });
            }
        }
    }

    #[test]
    fn graph_methods_never_send_receiver_its_own_events(msgs in exec_strategy(60)) {
        for t in [Technique::Manetho, Technique::LogOn] {
            let mut reds: Vec<Box<dyn Reduction>> =
                (0..N).map(|_| make_reduction(t, N)).collect();
            let mut clocks = vec![0u64; N];
            for &(from, to) in &msgs {
                let (pb, _) = reds[from].build(to, clocks[from]);
                prop_assert!(
                    pb.iter().all(|d| d.receiver != to),
                    "{:?}: sent {} its own event", t, to
                );
                reds[to].integrate(from, clocks[from], &pb);
                clocks[to] += 1;
                reds[to].add_local(Determinant {
                    receiver: to,
                    clock: clocks[to],
                    sender: from,
                    ssn: 0,
                    cause: clocks[from],
                });
            }
        }
    }

    #[test]
    fn codec_roundtrips(dets in prop::collection::vec(
        (0..N, 1u64..1000, 0..N, 0u64..1000, 0u64..1000),
        0..50,
    )) {
        let mut dets: Vec<Determinant> = dets
            .into_iter()
            .map(|(receiver, clock, sender, ssn, cause)| Determinant {
                receiver,
                clock,
                sender,
                ssn,
                cause,
            })
            .collect();
        // Flat preserves arbitrary order. All generated fields are in
        // wire range, so encoding cannot fail.
        let flat = PbFormat::Flat.encode(&dets).expect("in-range determinants encode");
        // Sink agreement: the counter ran the code that wrote the bytes.
        prop_assert_eq!(flat.len() as u64, PbFormat::Flat.wire_len(&dets));
        prop_assert_eq!(decode_flat(flat).unwrap(), dets.clone());
        // Factored groups runs of equal receiver; canonicalize first.
        dets.sort_by_key(|d| (d.receiver, d.clock));
        let fac = PbFormat::Factored.encode(&dets).expect("in-range determinants encode");
        prop_assert_eq!(fac.len() as u64, PbFormat::Factored.wire_len(&dets));
        prop_assert_eq!(decode_factored(fac).unwrap(), dets);
    }

    #[test]
    fn stability_never_loses_unstable_events(
        msgs in exec_strategy(40),
        stable_at in prop::collection::vec(0u64..10, N),
    ) {
        for t in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
            let mut red = make_reduction(t, N);
            let mut clocks = vec![0u64; N];
            for &(from, to) in &msgs {
                let _ = from;
                clocks[to] += 1;
                red.add_local(Determinant {
                    receiver: to,
                    clock: clocks[to],
                    sender: from,
                    ssn: 0,
                    cause: 0,
                });
            }
            red.apply_stable(&stable_at);
            for d in red.retained() {
                prop_assert!(
                    d.clock > stable_at[d.receiver],
                    "{:?}: stable event retained", t
                );
            }
            // Everything above the watermark is still there.
            let expect: usize = (0..N)
                .map(|c| clocks[c].saturating_sub(stable_at[c]) as usize)
                .sum();
            prop_assert_eq!(red.retained_count(), expect);
        }
    }
}
