//! Sweep-driver smoke test: runs a small grid of independent cluster
//! runs sequentially and on a worker pool, and checks that the two
//! sweeps produce byte-identical reports.
//!
//! ```text
//! cargo run --release --example sweep_smoke -- --threads 2
//! ```
//!
//! CI runs this with `--threads 2` on every push so the parallel path
//! (and the `Send` core underneath it) is exercised continuously.

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

fn run_one(technique: Technique, el: bool, seed: u64, with_fault: bool) -> RunReport {
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
    cfg.seed = seed;
    cfg.detect_delay = SimDuration::from_millis(8);
    cfg.event_limit = Some(50_000_000);
    let suite =
        Arc::new(CausalSuite::new(technique, el).with_checkpoints(SimDuration::from_millis(6)));
    let faults = if with_fault {
        FaultPlan::kill_at(SimDuration::from_millis(5), 1)
    } else {
        FaultPlan::none()
    };
    let report = run_cluster(&cfg, suite, prog, &faults);
    assert!(report.completed, "sweep job did not complete");
    report
}

fn main() {
    let threads = parse_threads();
    let mut jobs = Vec::new();
    for technique in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
        for el in [true, false] {
            for seed in [1u64, 7] {
                for with_fault in [false, true] {
                    jobs.push((technique, el, seed, with_fault));
                }
            }
        }
    }
    let n_jobs = jobs.len();
    let runner =
        |(t, el, seed, f): (Technique, bool, u64, bool)| run_one(t, el, seed, f).fingerprint();
    let sequential = run_many(jobs.clone(), 1, runner);
    let sharded = run_many(jobs, threads, runner);
    assert_eq!(
        sequential, sharded,
        "sweep on {threads} threads diverged from the sequential sweep"
    );
    println!("sweep_smoke: {n_jobs} runs byte-identical on 1 and {threads} thread(s)");
}
