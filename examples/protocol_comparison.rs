//! Compare every fault-tolerance protocol on one workload (fault-free
//! overhead, piggyback volume and behaviour under a crash), then sweep
//! the whole workload registry under causal logging to show how the
//! piggyback burden depends on the traffic shape.
//!
//! ```sh
//! cargo run --release -p vlog-bench --example protocol_comparison
//! ```

use std::sync::Arc;

use vlog_core::{CausalSuite, CoordinatedSuite, PessimisticSuite, Technique};
use vlog_sim::SimDuration;
use vlog_vmpi::{ClusterConfig, FaultPlan, Suite, VdummySuite};
use vlog_workloads::{registry, run_workload, Class, NasBench, NasConfig, RegistryScale};

fn main() {
    let np = 4;
    let nas = NasConfig::new(NasBench::CG, Class::A, np).fraction(0.5);
    let ckpt = SimDuration::from_millis(400);

    let suites: Vec<(Arc<dyn Suite>, bool)> = vec![
        (Arc::new(VdummySuite), false),
        (
            Arc::new(CausalSuite::new(Technique::Vcausal, true).with_checkpoints(ckpt)),
            true,
        ),
        (
            Arc::new(CausalSuite::new(Technique::Manetho, true).with_checkpoints(ckpt)),
            true,
        ),
        (
            Arc::new(CausalSuite::new(Technique::LogOn, true).with_checkpoints(ckpt)),
            true,
        ),
        (
            Arc::new(CausalSuite::new(Technique::Manetho, false).with_checkpoints(ckpt)),
            true,
        ),
        (
            Arc::new(PessimisticSuite::new().with_checkpoints(ckpt)),
            true,
        ),
        (Arc::new(CoordinatedSuite::new(ckpt)), true),
    ];

    println!(
        "{:<32} {:>12} {:>10} {:>12} {:>12}",
        "protocol", "fault-free", "pb %", "with fault", "recoveries"
    );
    for (suite, fault_tolerant) in suites {
        let mut cfg = ClusterConfig::new(np);
        cfg.detect_delay = SimDuration::from_millis(20);
        let clean = run_workload(&nas, &cfg, suite.clone(), &FaultPlan::none());
        assert!(clean.completed);
        let (faulted_time, recoveries) = if fault_tolerant {
            let kill = clean.makespan.mul_f64(0.5);
            let run = run_workload(&nas, &cfg, suite.clone(), &FaultPlan::kill_at(kill, 0));
            assert!(run.completed, "{}: faulted run failed", run.suite);
            let rec: usize = run.rank_stats.iter().map(|s| s.recovery_total.len()).sum();
            (format!("{}", run.makespan), rec.to_string())
        } else {
            ("n/a (no FT)".into(), "-".into())
        };
        println!(
            "{:<32} {:>12} {:>9.2}% {:>12} {:>12}",
            clean.suite,
            format!("{}", clean.makespan),
            clean.piggyback_percent(),
            faulted_time,
            recoveries,
        );
    }

    // Second view: one protocol, every registered workload — the
    // piggyback burden is a property of the traffic shape.
    println!(
        "\n{:<16} {:<12} {:>12} {:>10} {:>10} {:>12}",
        "family", "workload", "makespan", "pb %", "msgs", "max msg"
    );
    for w in registry(RegistryScale::Smoke) {
        let mut cfg = ClusterConfig::new(w.np());
        cfg.detect_delay = SimDuration::from_millis(20);
        let suite = Arc::new(
            CausalSuite::new(Technique::Vcausal, true)
                .with_checkpoints(SimDuration::from_millis(50)),
        );
        let run = run_workload(w.as_ref(), &cfg, suite, &FaultPlan::none());
        assert!(run.completed, "{} did not complete", w.label());
        println!(
            "{:<16} {:<12} {:>12} {:>9.2}% {:>10} {:>11}B",
            w.family(),
            w.label(),
            format!("{}", run.makespan),
            run.piggyback_percent(),
            run.stats.messages,
            run.msg_histogram().max_bucket_bytes(),
        );
    }
}
