//! The strongest end-to-end property: for randomly generated programs and
//! randomly placed single faults, the recovered execution delivers to
//! every application **exactly the same message trace** as the fault-free
//! execution — piecewise-deterministic replay, verified through the full
//! stack (daemons, Event Logger, checkpoint server, dispatcher).
//!
//! A divergence is reported structurally ([`vlog_sim::diff`]): the
//! failure names the first differing trace entry, not two thousand-line
//! vector dumps.
//!
//! Every kill is drawn inside the fault-free run (the 40-iteration
//! causal ring ends at 9.4–9.7 ms, the 30-iteration pessimistic ring at
//! 11.4 ms), and every faulted run asserts from `RunReport::fired` that
//! each kill landed on a live rank: a kill after the end would compare
//! two fault-free runs.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use vlog_core::{CausalSuite, PessimisticSuite, Technique};
use vlog_sim::{diff, SimDuration};
use vlog_vmpi::{
    app, run_cluster, AppSpec, ClusterConfig, FaultPlan, Payload, RecvSelector, Suite,
};

const N: usize = 3;

/// Per-rank observed trace: (iteration, src, first payload byte).
type Trace = Arc<Mutex<Vec<(usize, u64, usize, u8)>>>;

/// A ring-with-occasional-broadcast program parameterized by a seed.
/// Content is a deterministic function of (rank, iteration), so traces
/// are comparable across runs.
fn program(iters: u64, seed: u8, trace: Trace) -> AppSpec {
    app(move |mpi| {
        let trace = trace.clone();
        async move {
            let me = mpi.rank();
            let n = mpi.size();
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            let start = match mpi.restored() {
                Some(b) => u64::from_le_bytes(b[..8].try_into().unwrap()),
                None => 0,
            };
            for it in start..iters {
                mpi.checkpoint_point(Payload::new(it.to_le_bytes().to_vec()))
                    .await;
                let byte = seed
                    .wrapping_mul(31)
                    .wrapping_add(me as u8)
                    .wrapping_add((it & 0xff) as u8);
                let m = mpi
                    .sendrecv(
                        right,
                        0,
                        Payload::new(vec![byte, me as u8]),
                        RecvSelector::of(left, 0),
                    )
                    .await;
                trace
                    .lock()
                    .unwrap()
                    .push((me, it, m.src, m.payload.data[0]));
                // Every 5th iteration, a small broadcast from the seed-th
                // rank exercises the collective path.
                if it % 5 == 0 {
                    let root = (seed as usize) % n;
                    let data = if me == root {
                        Some(bytes::Bytes::from(vec![(it & 0xff) as u8]))
                    } else {
                        None
                    };
                    let got = mpi.bcast_bytes(root, data).await;
                    trace.lock().unwrap().push((me, it, root + 100, got[0]));
                }
            }
        }
    })
}

/// Runs the program under `faults` and returns its sorted, deduplicated
/// delivery trace, after checking that the run completed and that every
/// planned kill landed.
fn run_once(
    suite: Arc<dyn Suite>,
    iters: u64,
    seed: u8,
    faults: &FaultPlan,
) -> Vec<(usize, u64, usize, u8)> {
    let trace: Trace = Arc::new(Mutex::new(Vec::new()));
    let prog = program(iters, seed, trace.clone());
    let mut cfg = ClusterConfig::new(N);
    cfg.detect_delay = SimDuration::from_millis(8);
    cfg.event_limit = Some(50_000_000);
    let report = run_cluster(&cfg, suite, prog, faults);
    assert!(report.completed, "run did not complete");
    assert!(
        report.all_landed(faults),
        "not every kill of {faults:?} landed: {:?}",
        report.fired
    );
    let mut t = trace.lock().unwrap().clone();
    t.sort_unstable();
    t.dedup(); // the victim re-observes its replayed prefix
    t
}

fn check_equivalence(
    mk: impl Fn() -> Arc<dyn Suite>,
    iters: u64,
    seed: u8,
    at: u64,
    victim: usize,
) {
    let clean = run_once(mk(), iters, seed, &FaultPlan::none());
    let faulted = run_once(
        mk(),
        iters,
        seed,
        &FaultPlan::kill_at(SimDuration::from_millis(at), victim),
    );
    assert_traces_identical(
        &format!("after recovery (seed {seed}, fault at {at}ms on rank {victim})"),
        &clean,
        &faulted,
    );
}

/// Compares two delivery traces entry-wise and, on mismatch, points at
/// the first divergent entry instead of dumping both vectors.
fn assert_traces_identical(
    label: &str,
    clean: &[(usize, u64, usize, u8)],
    other: &[(usize, u64, usize, u8)],
) {
    let fmt = |t: &[(usize, u64, usize, u8)]| -> Vec<String> {
        t.iter()
            .map(|(rank, it, src, byte)| format!("rank={rank} it={it} src={src} byte={byte}"))
            .collect()
    };
    if let Some(d) = diff::first_report_divergence(&fmt(clean), &fmt(other)) {
        panic!("trace diverged {label}: {d}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn causal_replay_is_trace_equivalent(
        seed in 0u8..255,
        at in 2u64..9,
        victim in 0usize..N,
        technique_idx in 0usize..3,
        el in any::<bool>(),
    ) {
        let technique = [Technique::Vcausal, Technique::Manetho, Technique::LogOn][technique_idx];
        check_equivalence(
            || {
                Arc::new(
                    CausalSuite::new(technique, el)
                        .with_checkpoints(SimDuration::from_millis(6)),
                )
            },
            40,
            seed,
            at,
            victim,
        );
    }

    #[test]
    fn pessimistic_replay_is_trace_equivalent(
        seed in 0u8..255,
        at in 2u64..11,
        victim in 0usize..N,
    ) {
        check_equivalence(
            || Arc::new(PessimisticSuite::new().with_checkpoints(SimDuration::from_millis(6))),
            30,
            seed,
            at,
            victim,
        );
    }
}

#[test]
fn double_fault_on_different_ranks_is_trace_equivalent() {
    let mk = || -> Arc<dyn Suite> {
        Arc::new(
            CausalSuite::new(Technique::Manetho, true)
                .with_checkpoints(SimDuration::from_millis(6)),
        )
    };
    let clean = run_once(mk(), 60, 7, &FaultPlan::none());
    // The run with the first kill alone ends at 23.2 ms: the second kill
    // lands in the first one's recovered tail.
    let faults = FaultPlan::kill_at(SimDuration::from_millis(6), 0)
        .then_kill(SimDuration::from_millis(20), 2);
    let faulted = run_once(mk(), 60, 7, &faults);
    assert_traces_identical("after double-fault recovery", &clean, &faulted);
}
