//! Ablations beyond the paper — design-choice probes the text motivates
//! but never quantifies:
//!
//! 1. **EL placement** (paper §III-A: the EL "can be run on the same node
//!    [as the checkpoint server] if the number of stable components in a
//!    system is restricted to 1 [... at the cost of] sharing the
//!    bandwidth"): dedicated stable node vs sharing the checkpoint
//!    server's node.
//! 2. **Checkpoint period** sensitivity of recovery time (how stale the
//!    image is bounds the replay).
//! 3. **Eager/rendezvous threshold** effect on the NetPIPE curve.

use std::sync::Arc;

use vlog_bench::paper::{nas_kill_rank0, netpipe_run};
use vlog_bench::{fmt3, md_table, Scale, Stack, SuiteKind};
use vlog_core::{install_distributed_el, CausalSuite, Technique};
use vlog_sim::{Counter, NodeId, Sim, SimDuration};
use vlog_vmpi::{CkptScheduler, ClusterConfig, FaultPlan, RecoveryStyle, Suite, VProtocol};
use vlog_workloads::{mflops, run_workload, Class, NasBench, NasConfig, Workload};

/// CausalSuite variant that co-locates the Event Logger with the
/// checkpoint server on one stable node (stable_nodes[1]).
struct SharedNodeSuite {
    inner: CausalSuite,
}

impl Suite for SharedNodeSuite {
    fn name(&self) -> String {
        format!("{} (EL on ckpt node)", self.inner.name())
    }

    fn install(&self, sim: &mut Sim, stable_nodes: &[NodeId]) {
        // One stable machine for everything.
        install_distributed_el(sim, stable_nodes[1], 1, self.inner.el_gossip);
        CkptScheduler::install(sim, stable_nodes[1], self.inner.scheduler);
    }

    fn make_protocol(&self, rank: usize, n: usize) -> Box<dyn VProtocol> {
        self.inner.make_protocol(rank, n)
    }

    fn recovery_style(&self) -> RecoveryStyle {
        RecoveryStyle::SingleRank
    }
}

/// Prints one ablation: title, note and its table.
fn section(title: &str, note: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n\n{note}\n\n{}", md_table(headers, rows));
}

fn main() {
    let scale = Scale::from_env();

    // ---- 1. EL placement -------------------------------------------
    let frac = scale.fraction(0.03);
    let mut t1 = Vec::new();
    for np in [4usize, 8, 16] {
        let nas = NasConfig::new(NasBench::LU, Class::A, np).fraction(frac);
        let mut cfg = ClusterConfig::new(np);
        cfg.event_limit = Some(2_000_000_000);
        // Checkpoints on, so image traffic and EL traffic contend for the
        // shared stable node's link (the paper's §III-A concern).
        let period = vlog_sim::SimDuration::from_secs(1);
        let dedicated = run_workload(
            &nas,
            &cfg,
            Arc::new(CausalSuite::new(Technique::Vcausal, true).with_checkpoints(period)),
            &FaultPlan::none(),
        );
        let shared = run_workload(
            &nas,
            &cfg,
            Arc::new(SharedNodeSuite {
                inner: CausalSuite::new(Technique::Vcausal, true).with_checkpoints(period),
            }),
            &FaultPlan::none(),
        );
        assert!(dedicated.completed && shared.completed);
        t1.push(vec![
            np.to_string(),
            fmt3(dedicated.piggyback_percent()),
            fmt3(shared.piggyback_percent()),
            fmt3(mflops(nas.total_flops(), dedicated.makespan)),
            fmt3(mflops(nas.total_flops(), shared.makespan)),
        ]);
    }
    section(
        "Ablation 1 — Event Logger on a dedicated node vs on the checkpoint server's node",
        "LU class A (high event rate): sharing the stable node costs piggyback growth",
        &[
            "np",
            "dedicated: pb%",
            "shared: pb%",
            "dedicated: Mflops",
            "shared: Mflops",
        ],
        &t1,
    );

    // ---- 2. Checkpoint period vs recovery time ----------------------
    // Figure 10's probe-then-kill with a fixed period instead of one
    // scaled to the application span.
    let mut t2 = Vec::new();
    for period_s in [0.2f64, 0.5, 1.0, 2.0] {
        let nas = NasConfig::new(NasBench::CG, Class::A, 8).fraction(scale.fraction(1.0));
        let kind = SuiteKind::Causal {
            technique: Technique::Vcausal,
            el: true,
        };
        let run = nas_kill_rank0(&nas, kind, |_| SimDuration::from_secs_f64(period_s), 0.5);
        let st = &run.rank_stats[0];
        t2.push(vec![
            fmt3(period_s),
            fmt3(st.recovery_total.first().map_or(0.0, |d| d.as_millis_f64())),
            fmt3(st.recovery_collect[0].as_millis_f64()),
        ]);
    }
    section(
        "Ablation 2 — checkpoint period vs recovery duration (CG A / 8, Vcausal+EL)",
        "longer periods mean longer replays after a fault",
        &["ckpt period (s)", "recovery total (ms)", "collect (ms)"],
        &t2,
    );

    // ---- 3. Eager/rendezvous threshold -------------------------------
    let run_with_threshold = |threshold: u64| {
        let mut cfg = Stack::Vdummy.cluster(2);
        cfg.profile.eager_threshold = threshold;
        netpipe_run(&cfg, Stack::Vdummy, 1 << 20, scale.reps(0.25)).0
    };
    let big = run_with_threshold(128 << 10);
    let small = run_with_threshold(16 << 10);
    let t3: Vec<Vec<String>> = big
        .iter()
        .zip(&small)
        .filter(|(a, _)| a.bytes >= 4096)
        .map(|(a, b)| vec![a.bytes.to_string(), fmt3(a.mbps), fmt3(b.mbps)])
        .collect();
    section(
        "Ablation 3 — eager/rendezvous threshold on the NetPIPE curve (Vdummy)",
        "the rendezvous round trip dents mid-size bandwidth",
        &["bytes", "eager@128K Mbit/s", "eager@16K Mbit/s"],
        &t3,
    );

    // ---- 4. Distributed Event Loggers (the paper's future work) ------
    let mut t4 = Vec::new();
    for k in [1usize, 2, 4] {
        let mut suite = CausalSuite::new(Technique::Vcausal, true);
        if k > 1 {
            suite = suite.with_distributed_el(k, SimDuration::from_millis(2));
        }
        let nas = NasConfig::new(NasBench::LU, Class::A, 16).fraction(scale.fraction(0.03));
        let mut cfg = ClusterConfig::new(16);
        cfg.event_limit = Some(2_000_000_000);
        let run = run_workload(&nas, &cfg, Arc::new(suite), &FaultPlan::none());
        assert!(run.completed);
        t4.push(vec![
            k.to_string(),
            fmt3(run.piggyback_percent()),
            fmt3(mflops(nas.total_flops(), run.makespan)),
            run.stats.counter(Counter::ElGossipMsgs).to_string(),
        ]);
    }
    section(
        "Ablation 4 — distributing the Event Logger over k shards (paper's conclusion)",
        "LU class A / 16 ranks: shards split the record/ack load; gossip keeps GC global",
        &["EL shards", "pb %", "Mflops", "gossip msgs"],
        &t4,
    );
}
