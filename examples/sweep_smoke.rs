//! Sweep-driver smoke test: runs a small grid of independent cluster
//! runs sequentially and on a worker pool, and checks that the two
//! sweeps produce byte-identical reports, and that no two runs of the
//! grid produce the same report.
//!
//! ```text
//! cargo run --release --example sweep_smoke -- --threads 2
//! ```
//!
//! CI runs this with `--threads 2` on every push so the parallel path
//! (and the `Send` core underneath it) is exercised continuously.

use std::collections::BTreeSet;
use std::sync::Arc;

use vlog_bench::{default_threads, run_many};
use vlog_core::{CausalSuite, Technique};
use vlog_sim::SimDuration;
use vlog_vmpi::{app, run_cluster, ClusterConfig, FaultPlan, Payload, RecvSelector, RunReport};

fn parse_threads() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            let v = args.next().expect("--threads needs a value");
            return v.parse().expect("unparseable --threads value");
        }
    }
    default_threads()
}

/// Which rank is killed when (µs): none, rank 1 early or late, rank 2
/// late.
const KILLS: [Option<(usize, u64)>; 4] = [None, Some((1, 700)), Some((1, 1300)), Some((2, 1300))];

fn run_one(technique: Technique, el: bool, kill: Option<(usize, u64)>) -> RunReport {
    let prog = app(|mpi| async move {
        let me = mpi.rank();
        let n = mpi.size();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let start = match mpi.restored() {
            Some(b) => u64::from_le_bytes(b[..8].try_into().unwrap()),
            None => 0,
        };
        for it in start..10 {
            mpi.checkpoint_point(Payload::new(it.to_le_bytes().to_vec()))
                .await;
            let _ = mpi
                .sendrecv(
                    right,
                    0,
                    Payload::new(vec![me as u8, it as u8]),
                    RecvSelector::of(left, 0),
                )
                .await;
        }
    });
    let mut cfg = ClusterConfig::new(3);
    cfg.detect_delay = SimDuration::from_millis(8);
    cfg.event_limit = Some(50_000_000);
    let suite =
        Arc::new(CausalSuite::new(technique, el).with_checkpoints(SimDuration::from_micros(500)));
    let faults = match kill {
        Some((rank, us)) => FaultPlan::kill_at(SimDuration::from_micros(us), rank),
        None => FaultPlan::none(),
    };
    let report = run_cluster(&cfg, suite, prog, &faults);
    assert!(report.completed, "sweep job did not complete");
    assert!(
        report.all_landed(&faults),
        "a kill missed: {:?}",
        report.fired
    );
    report
}

fn main() {
    let threads = parse_threads();
    let mut jobs = Vec::new();
    for technique in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
        for el in [true, false] {
            for kill in KILLS {
                jobs.push((technique, el, kill));
            }
        }
    }
    let n_jobs = jobs.len();
    let runner =
        |(t, el, kill): (Technique, bool, Option<(usize, u64)>)| run_one(t, el, kill).fingerprint();
    let sequential = run_many(jobs.clone(), 1, runner);
    let sharded = run_many(jobs, threads, runner);
    assert_eq!(
        sequential, sharded,
        "sweep on {threads} threads diverged from the sequential sweep"
    );
    let distinct = sequential.iter().collect::<BTreeSet<_>>().len();
    assert_eq!(distinct, n_jobs, "two jobs of the grid ran the same run");
    println!("sweep_smoke: {n_jobs} runs byte-identical on 1 and {threads} thread(s)");
}
