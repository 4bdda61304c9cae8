//! Property tests of the schedule seam (`vlog_sim::schedule`).
//!
//! The seam lets an explorer defer message deliveries — but it must
//! never change what the protocols above are entitled to assume, and it
//! must never change anything at all when no perturbation is scripted.
//! Laws checked here, over a timer-driven all-to-all message mesh:
//!
//! 1. **Baseline identity.** A run with no script and a run with an
//!    *empty* script produce byte-identical transcripts (delivery log,
//!    event count, kernel stats) — offering every delivery to a script
//!    that defers none is invisible.
//! 2. **Per-channel FIFO.** For random perturbation scripts, per-channel
//!    (src → dst actor) sequence numbers still arrive in order: a sound
//!    perturbation injects channel latency, never intra-channel
//!    reordering.
//! 3. **Monotone clock.** Delivery timestamps never regress in dispatch
//!    order, and no message arrives earlier than its unperturbed arrival
//!    (a deferral only ever adds latency).
//! 4. **Conservation.** Every sent message is delivered exactly once.
//! 5. **Replay determinism.** The same script replays a byte-identical
//!    transcript, so recorded decision traces are trustworthy evidence.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use vlog_sim::{diff, Actor, ActorId, Decision, Delivery, Sim, SimDuration, SimTime, WireSize};

/// One observed delivery: (src actor/node, dst actor, per-channel seq,
/// arrival instant).
type LogEntry = (usize, usize, u64, SimTime);
type SharedLog = Arc<Mutex<Vec<LogEntry>>>;

const RANKS: usize = 3;
const ROUNDS: u64 = 25;
/// Keeps sends of consecutive rounds close enough that a deferral window
/// (up to 1 ms below) spans many rounds of cross-traffic.
const ROUND_GAP: SimDuration = SimDuration::from_micros(10);

/// Mesh node: every round, sends one sequenced message to every peer,
/// then re-arms its round timer. Traffic is timer-driven (timers are
/// never perturbed), so the send schedule is identical across scripts
/// and only delivery timing can differ.
struct Peer {
    me: ActorId,
    seq: Vec<u64>,
    rounds_left: u64,
    log: SharedLog,
}

impl Actor for Peer {
    fn on_deliver(&mut self, sim: &mut Sim, me: ActorId, msg: Delivery) {
        let (src, seq) = *msg.body.downcast::<(usize, u64)>().unwrap();
        self.log.lock().unwrap().push((src, me, seq, sim.now()));
    }

    fn on_timer(&mut self, sim: &mut Sim, me: ActorId, _token: u64) {
        for dst in 0..RANKS {
            if dst == me {
                continue;
            }
            let seq = self.seq[dst];
            self.seq[dst] += 1;
            // Size varies with (round, dst) so link serialization creates
            // uneven arrival spacing worth reordering across channels.
            let size = WireSize {
                header: 16,
                payload: 64 + 32 * ((seq + dst as u64) % 5),
                ..WireSize::default()
            };
            sim.send(self.me, dst, size, Box::new((me, seq)));
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            sim.set_timer(me, ROUND_GAP, 0);
        }
    }
}

/// Runs the mesh under `script` (`(delivery index, delay in ns)` pairs;
/// `None` sets no script at all) and returns (delivery log, transcript).
/// The transcript folds in everything observable — log, event count,
/// final clock, kernel stats — for byte-identity comparisons.
fn run_mesh(script: Option<&[(u64, u64)]>) -> (Vec<LogEntry>, String) {
    let mut sim = Sim::new();
    if let Some(script) = script {
        sim.set_schedule(script.iter().map(|&(index, delta)| Decision {
            index,
            delta: SimDuration::from_nanos(delta),
        }));
    }
    let log: SharedLog = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..RANKS {
        sim.add_node();
    }
    for node in 0..RANKS {
        let log = log.clone();
        let me = node;
        let peer = Peer {
            me,
            seq: vec![0; RANKS],
            rounds_left: ROUNDS - 1,
            log,
        };
        assert_eq!(sim.add_actor(node, Box::new(peer)), me);
        sim.set_timer(me, SimDuration::from_micros(1), 0);
    }
    sim.run();
    let log = log.lock().unwrap().clone();
    let transcript = format!(
        "log={log:?} events={} now={:?} stats={:?}",
        sim.events_processed(),
        sim.now(),
        sim.stats(),
    );
    (log, transcript)
}

/// Law 1: no script ≡ empty script, byte for byte.
#[test]
fn an_empty_script_is_byte_identical_to_no_script() {
    let (_, bare) = run_mesh(None);
    let (_, empty) = run_mesh(Some(&[]));
    diff::assert_reports_identical("empty-script-vs-none", &[bare], &[empty]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Laws 2–5 under random perturbation scripts.
    #[test]
    fn perturbed_runs_keep_the_kernel_laws(
        script in prop::collection::vec((0u64..150, 0u64..1_000_000), 0..5),
    ) {
        let (baseline, _) = run_mesh(None);
        let (log, transcript) = run_mesh(Some(&script));

        // Law 3a: the dispatch clock never regresses.
        for w in log.windows(2) {
            prop_assert!(
                w[1].3 >= w[0].3,
                "clock regressed: {:?} then {:?}", w[0], w[1]
            );
        }

        // Law 2: per-channel FIFO — seq strictly increases per (src, dst).
        let mut last_seq = std::collections::BTreeMap::new();
        for &(src, dst, seq, t) in &log {
            if let Some(prev) = last_seq.insert((src, dst), seq) {
                prop_assert!(
                    seq == prev + 1,
                    "channel {src}->{dst} reordered: seq {seq} after {prev} at {t:?}"
                );
            } else {
                prop_assert!(seq == 0, "channel {src}->{dst} started at seq {seq}");
            }
        }

        // Law 4: exactly-once conservation against the baseline multiset.
        let key = |e: &LogEntry| (e.0, e.1, e.2);
        let mut sent: Vec<_> = baseline.iter().map(key).collect();
        let mut got: Vec<_> = log.iter().map(key).collect();
        sent.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(&sent, &got, "messages lost or duplicated");

        // Law 3b: a deferral only adds latency — nothing arrives earlier
        // than its unperturbed arrival.
        let base_time: std::collections::BTreeMap<_, _> =
            baseline.iter().map(|e| (key(e), e.3)).collect();
        for e in &log {
            prop_assert!(
                e.3 >= base_time[&key(e)],
                "{:?} arrived before its unperturbed arrival {:?}",
                e, base_time[&key(e)]
            );
        }

        // Law 5: the same script replays byte-identically.
        let (_, replay) = run_mesh(Some(&script));
        if let Some(d) = diff::first_divergence(&transcript, &replay) {
            prop_assert!(false, "replay diverged: {d}");
        }
    }
}
