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

use vlog_bench::{banner, fmt3, Scale, Stack, Table};
use vlog_core::{install_distributed_el, CausalSuite, Technique};
use vlog_sim::{NodeId, Sim, SimDuration};
use vlog_vmpi::{
    CkptScheduler, ClusterConfig, FaultPlan, RecoveryStyle, SharedRankStats, Suite, Topology,
    VProtocol,
};
use vlog_workloads::{run_workload, Class, NasBench, NasConfig};

/// CausalSuite variant that co-locates the Event Logger with the
/// checkpoint server on one stable node (stable_nodes[1]).
struct SharedNodeSuite {
    inner: CausalSuite,
}

impl Suite for SharedNodeSuite {
    fn name(&self) -> String {
        format!("{} (EL on ckpt node)", self.inner.name())
    }

    fn install(&self, sim: &mut Sim, topo: &Topology, stable_nodes: &[NodeId]) {
        // One stable machine for everything.
        install_distributed_el(sim, topo, stable_nodes[1], 1, self.inner.el_gossip);
        CkptScheduler::install(sim, stable_nodes[1], topo.clone(), self.inner.scheduler);
    }

    fn make_protocol(
        &self,
        rank: usize,
        topo: &Topology,
        stats: SharedRankStats,
    ) -> Box<dyn VProtocol> {
        self.inner.make_protocol(rank, topo, stats)
    }

    fn recovery_style(&self) -> RecoveryStyle {
        RecoveryStyle::SingleRank
    }
}

fn main() {
    let scale = Scale::from_env();

    // ---- 1. EL placement -------------------------------------------
    banner(
        "Ablation 1 — Event Logger on a dedicated node vs on the checkpoint server's node",
        "LU class A (high event rate): sharing the stable node costs piggyback growth",
    );
    let frac = scale.fraction(0.03);
    let mut t1 = Table::new(&[
        "np",
        "dedicated: pb%",
        "shared: pb%",
        "dedicated: Mflops",
        "shared: Mflops",
    ]);
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
        assert!(dedicated.report.completed && shared.report.completed);
        t1.row(vec![
            np.to_string(),
            fmt3(dedicated.report.piggyback_percent()),
            fmt3(shared.report.piggyback_percent()),
            fmt3(dedicated.mflops()),
            fmt3(shared.mflops()),
        ]);
    }
    t1.print();

    // ---- 2. Checkpoint period vs recovery time ----------------------
    banner(
        "Ablation 2 — checkpoint period vs recovery duration (CG A / 8, Vcausal+EL)",
        "longer periods mean longer replays after a fault",
    );
    let mut t2 = Table::new(&["ckpt period (s)", "recovery total (ms)", "collect (ms)"]);
    for period_s in [0.2f64, 0.5, 1.0, 2.0] {
        let nas = NasConfig::new(NasBench::CG, Class::A, 8).fraction(scale.fraction(1.0));
        let mut cfg = ClusterConfig::new(8);
        cfg.event_limit = Some(2_000_000_000);
        cfg.detect_delay = SimDuration::from_millis(50);
        let suite = Arc::new(
            CausalSuite::new(Technique::Vcausal, true)
                .with_checkpoints(SimDuration::from_secs_f64(period_s)),
        );
        let probe = run_workload(&nas, &cfg, suite.clone(), &FaultPlan::none());
        assert!(probe.report.completed);
        let half = probe.report.makespan.mul_f64(0.5);
        let run = run_workload(&nas, &cfg, suite, &FaultPlan::kill_at(half, 0));
        assert!(run.report.completed);
        let st = &run.report.rank_stats[0];
        t2.row(vec![
            fmt3(period_s),
            fmt3(st.recovery_total.first().map_or(0.0, |d| d.as_millis_f64())),
            fmt3(
                st.recovery_collect
                    .first()
                    .map_or(0.0, |d| d.as_millis_f64()),
            ),
        ]);
    }
    t2.print();

    // ---- 3. Eager/rendezvous threshold -------------------------------
    banner(
        "Ablation 3 — eager/rendezvous threshold on the NetPIPE curve (Vdummy)",
        "the rendezvous round trip dents mid-size bandwidth",
    );
    let mut t3 = Table::new(&["bytes", "eager@128K Mbit/s", "eager@16K Mbit/s"]);
    let run_with_threshold = |threshold: u64| {
        let (prog, results) = vlog_workloads::netpipe::program(1 << 20, scale.reps(0.25));
        let mut cfg = Stack::Vdummy.cluster(2);
        cfg.profile.eager_threshold = threshold;
        let report = vlog_vmpi::run_cluster(&cfg, Stack::Vdummy.suite(), prog, &FaultPlan::none());
        assert!(report.completed);
        results.sorted()
    };
    let big = run_with_threshold(128 << 10);
    let small = run_with_threshold(16 << 10);
    for (a, b) in big.iter().zip(&small) {
        if a.bytes >= 4096 {
            t3.row(vec![a.bytes.to_string(), fmt3(a.mbps), fmt3(b.mbps)]);
        }
    }
    t3.print();

    // ---- 4. Distributed Event Loggers (the paper's future work) ------
    banner(
        "Ablation 4 — distributing the Event Logger over k shards (paper's conclusion)",
        "LU class A / 16 ranks: shards split the record/ack load; gossip keeps GC global",
    );
    let mut t4 = Table::new(&["EL shards", "pb %", "Mflops", "gossip msgs"]);
    for k in [1usize, 2, 4] {
        let mut suite = CausalSuite::new(Technique::Vcausal, true);
        if k > 1 {
            suite = suite.with_distributed_el(k, SimDuration::from_millis(2));
        }
        let nas = NasConfig::new(NasBench::LU, Class::A, 16).fraction(scale.fraction(0.03));
        let mut cfg = ClusterConfig::new(16);
        cfg.event_limit = Some(2_000_000_000);
        let run = run_workload(&nas, &cfg, Arc::new(suite), &FaultPlan::none());
        assert!(run.report.completed);
        t4.row(vec![
            k.to_string(),
            fmt3(run.report.piggyback_percent()),
            fmt3(run.mflops()),
            run.report.stats.get("el_gossip_msgs").to_string(),
        ]);
    }
    t4.print();
}
