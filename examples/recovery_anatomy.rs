//! Anatomy of a recovery: kill a rank mid-run and dissect the phases —
//! detection, image fetch, determinant collection (from the Event Logger
//! and from the peers), payload reclaim and replay — with and without an
//! Event Logger. This is Figure 10's mechanism, narrated.
//!
//! ```sh
//! cargo run --release -p vlog-bench --example recovery_anatomy
//! ```

use std::sync::Arc;

use vlog_core::{CausalSuite, Technique};
use vlog_sim::SimDuration;
use vlog_vmpi::{ClusterConfig, FaultPlan};
use vlog_workloads::{run_workload, Class, NasBench, NasConfig};

fn main() {
    let np = 8;
    println!("workload: NAS LU class A on {np} ranks, kill rank 0 mid-run\n");
    for el in [true, false] {
        let nas = NasConfig::new(NasBench::LU, Class::A, np).fraction(0.03);
        let mut cfg = ClusterConfig::new(np);
        cfg.detect_delay = SimDuration::from_millis(50);
        // Probe the pure application span, then pick the checkpoint
        // period and kill time relative to it.
        let mut probe_nas = nas.clone();
        probe_nas.checkpoints = false;
        let probe = run_workload(
            &probe_nas,
            &cfg,
            Arc::new(CausalSuite::new(Technique::Vcausal, el)),
            &FaultPlan::none(),
        );
        assert!(probe.completed);
        let t_app = probe.makespan;
        let suite =
            Arc::new(CausalSuite::new(Technique::Vcausal, el).with_checkpoints(t_app.mul_f64(0.3)));
        let run = run_workload(
            &nas,
            &cfg,
            suite,
            &FaultPlan::kill_at(t_app.mul_f64(0.55), 0),
        );
        assert!(run.completed);
        let st = &run.rank_stats[0];
        let el_label = if el {
            "WITH Event Logger"
        } else {
            "WITHOUT Event Logger"
        };
        println!("=== {el_label} ===");
        println!("  fault-free application span : {t_app}");
        println!("  faulted makespan            : {}", run.makespan);
        println!(
            "  determinant collection      : {} (the Figure 10 metric)",
            st.recovery_collect
                .first()
                .map_or("-".into(), |d| format!("{d}"))
        );
        println!(
            "  full recovery (to live)     : {}",
            st.recovery_total
                .first()
                .map_or("-".into(), |d| format!("{d}"))
        );
        println!(
            "  events stable at the EL     : {}",
            if el {
                format!("{}", st.el_acked_events)
            } else {
                "n/a".into()
            }
        );
        println!(
            "  piggyback share of traffic  : {:.2}%",
            run.piggyback_percent()
        );
        println!();
    }
    println!(
        "Without the EL, every alive rank ships its whole causality store to\n\
         the victim and piggybacks grow all run long; with it, collection is\n\
         one bulk read plus n-1 (nearly empty) reclaim responses."
    );
}
