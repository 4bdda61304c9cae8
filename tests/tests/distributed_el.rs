//! Integration tests of the distributed Event Logger (the paper's
//! future-work design implemented in `vlog-core::el_multi`).

use std::sync::Arc;

use vlog_core::{CausalSuite, Technique};
use vlog_sim::{Counter, SimDuration};
use vlog_vmpi::{app, run_cluster, ClusterConfig, FaultPlan, Payload, RecvSelector};
use vlog_workloads::{run_workload, Class, NasBench, NasConfig};

fn ring(iters: u64) -> vlog_vmpi::AppSpec {
    app(move |mpi| async move {
        let n = mpi.size();
        let me = mpi.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let start = match mpi.restored() {
            Some(b) => u64::from_le_bytes(b[..8].try_into().unwrap()),
            None => 0,
        };
        for it in start..iters {
            mpi.checkpoint_point(Payload::new(it.to_le_bytes().to_vec()))
                .await;
            let m = mpi
                .sendrecv(
                    right,
                    0,
                    Payload::new(vec![me as u8, (it & 0xff) as u8]),
                    RecvSelector::of(left, 0),
                )
                .await;
            assert_eq!(m.payload.data[0], left as u8);
            assert_eq!(m.payload.data[1], (it & 0xff) as u8);
        }
    })
}

#[test]
fn sharded_el_runs_and_gossips() {
    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true)
            .with_distributed_el(3, SimDuration::from_millis(5)),
    );
    let report = run_cluster(&ClusterConfig::new(6), suite, ring(100), &FaultPlan::none());
    assert!(report.completed);
    assert!(report.stats.counter(Counter::ElRecords) > 0);
    assert!(
        report.stats.counter(Counter::ElGossipMsgs) > 0,
        "shards never gossiped"
    );
}

/// Every shard of a 16-shard deployment reports under its own label:
/// shard-labelled gauges have no shard cap and no shared slot.
#[test]
fn sixteen_shards_report_exact_gauges() {
    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true)
            .with_distributed_el(16, SimDuration::from_millis(5)),
    );
    let report = run_cluster(&ClusterConfig::new(16), suite, ring(50), &FaultPlan::none());
    assert!(report.completed);
    let gauges = report.el_shard_gauges(16);
    assert_eq!(gauges.len(), 16);
    for (shard, &(queue, ack)) in gauges.iter().enumerate() {
        // Rank `shard` logs to shard `shard`, so every shard acked a
        // batch, and an ack takes at least one record's service time.
        assert!(ack > SimDuration::ZERO, "shard {shard} recorded nothing");
        assert_eq!(queue, report.stats.get(&format!("el_peak_queue_s{shard}")));
        assert_eq!(
            ack.as_nanos(),
            report.stats.get(&format!("el_ack_peak_s{shard}_ns"))
        );
    }
    // The all-shard gauges are the peaks over the per-shard ones.
    let peak_queue = gauges.iter().map(|g| g.0).max();
    let peak_ack = gauges.iter().map(|g| g.1).max();
    assert_eq!(peak_queue, Some(report.el_peak_queue_depth()));
    assert_eq!(peak_ack, Some(report.el_ack_latency_peak()));
}

#[test]
fn gossip_enables_global_garbage_collection() {
    // With gossip, events of ranks served by *other* shards become
    // stable everywhere, so piggyback volume stays bounded — close to
    // the single-EL level and far below no-EL.
    let run = |suite: Arc<dyn vlog_vmpi::Suite>| {
        let report = run_cluster(&ClusterConfig::new(6), suite, ring(150), &FaultPlan::none());
        assert!(report.completed);
        report.stats.bytes.piggyback
    };
    let single = run(Arc::new(CausalSuite::new(Technique::Vcausal, true)));
    let sharded = run(Arc::new(
        CausalSuite::new(Technique::Vcausal, true)
            .with_distributed_el(3, SimDuration::from_millis(2)),
    ));
    let none = run(Arc::new(CausalSuite::new(Technique::Vcausal, false)));
    assert!(
        sharded < none / 2,
        "sharded EL ({sharded}) should collect far better than no EL ({none})"
    );
    assert!(
        sharded < single * 4,
        "sharded EL ({sharded}) should stay near single-EL volume ({single})"
    );
}

#[test]
fn recovery_works_with_sharded_el() {
    let suite = Arc::new(
        CausalSuite::new(Technique::Manetho, true)
            .with_distributed_el(2, SimDuration::from_millis(5))
            .with_checkpoints(SimDuration::from_millis(5)),
    );
    let mut cfg = ClusterConfig::new(4);
    cfg.detect_delay = SimDuration::from_millis(10);
    cfg.event_limit = Some(50_000_000);
    let faults = FaultPlan::kill_at(SimDuration::from_millis(12), 1);
    let report = run_cluster(&cfg, suite, ring(100), &faults);
    assert!(report.completed, "sharded-EL recovery failed");
    assert!(report.all_landed(&faults), "{:?}", report.fired);
    assert_eq!(report.rank_stats[1].recovery_total.len(), 1);
}

#[test]
fn el_shard_failure_reshards_and_the_run_completes() {
    // Kill shard 0 mid-run: its ranks must re-shard onto shard 1, the
    // unacked batches must be handed off, and the ring must still
    // finish with its in-program assertions intact.
    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true)
            .with_distributed_el(2, SimDuration::from_millis(2))
            .with_checkpoints(SimDuration::from_millis(5)),
    );
    let mut cfg = ClusterConfig::new(4);
    cfg.detect_delay = SimDuration::from_millis(2);
    cfg.event_limit = Some(50_000_000);
    let faults = FaultPlan::kill_el_at(SimDuration::from_millis(4), 0);
    let report = run_cluster(&cfg, suite, ring(150), &faults);
    assert!(report.completed, "run did not survive the EL-shard failure");
    assert!(report.all_landed(&faults), "{:?}", report.fired);
    assert_eq!(report.stats.counter(Counter::ElReshards), 1);
    // Records kept flowing after the re-shard: the survivor logged (and
    // acked) events, including the handed-off unacked batches.
    assert!(report.stats.counter(Counter::ElRecords) > 0);
}

#[test]
fn killing_a_shard_that_is_already_down_changes_nothing() {
    // An Event Logger shard never comes back, so a second kill of the
    // same shard must not crash its node again, rebalance again or tell
    // every rank to re-ship its unacknowledged window to the shard it
    // is already on: the report is the single kill's.
    let run = |faults: &FaultPlan| {
        let suite = Arc::new(
            CausalSuite::new(Technique::Vcausal, true)
                .with_distributed_el(2, SimDuration::from_millis(2)),
        );
        let mut cfg = ClusterConfig::new(4);
        cfg.detect_delay = SimDuration::from_millis(2);
        cfg.event_limit = Some(50_000_000);
        let report = run_cluster(&cfg, suite, ring(200), faults);
        assert!(report.completed);
        report
    };
    let first = FaultPlan::kill_el_at(SimDuration::from_millis(5), 0);
    let once = run(&first);
    let plan = first
        .clone()
        .then_kill_el_at(SimDuration::from_millis(12), 0);
    let twice = run(&plan);
    assert!(
        twice.makespan > SimDuration::from_millis(14),
        "the second kill and its detection must land inside the run"
    );
    // Both crash steps ran; the second found the shard already dead.
    assert!(once.all_landed(&first));
    let fired: Vec<_> = twice.fired.iter().map(|f| (f.fault, f.noop)).collect();
    let entries: Vec<_> = plan.entries().collect();
    assert_eq!(fired, vec![(entries[0], false), (entries[1], true)]);
    for report in [&once, &twice] {
        assert_eq!(report.stats.counter(Counter::NodeCrashes), 1);
        assert_eq!(report.el_reshards(), 1);
    }
    assert_eq!(twice.makespan, once.makespan);
    assert_eq!(format!("{:?}", twice.stats), format!("{:?}", once.stats));
    assert_eq!(
        format!("{:?}", twice.rank_stats),
        format!("{:?}", once.rank_stats)
    );
    // All the second kill leaves behind: its two scheduled no-ops.
    assert_eq!(twice.events, once.events + 2);
}

#[test]
fn rank_recovery_works_after_an_el_reshard() {
    // Compound fault: shard 0 dies and its ranks re-shard, then rank 1
    // (served by the surviving shard) crashes. Recovery must gather
    // determinants from the post-reshard EL map and complete.
    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true)
            .with_distributed_el(2, SimDuration::from_millis(2))
            .with_checkpoints(SimDuration::from_millis(5)),
    );
    let mut cfg = ClusterConfig::new(4);
    cfg.detect_delay = SimDuration::from_millis(2);
    cfg.event_limit = Some(50_000_000);
    let faults = FaultPlan::kill_el_at(SimDuration::from_millis(4), 0)
        .then_kill(SimDuration::from_millis(12), 1);
    let report = run_cluster(&cfg, suite, ring(150), &faults);
    assert!(report.completed, "recovery after re-shard failed");
    assert!(report.all_landed(&faults), "{:?}", report.fired);
    assert_eq!(report.stats.counter(Counter::ElReshards), 1);
    assert_eq!(report.rank_stats[1].recovery_total.len(), 1);
}

#[test]
fn sharding_relieves_the_lu_event_logger_bottleneck() {
    // LU at 16 ranks is the paper's EL-saturation case; with shards the
    // ack round trip shortens and fewer events ride along.
    let run = |k: usize| {
        let mut suite = CausalSuite::new(Technique::Vcausal, true);
        if k > 1 {
            suite = suite.with_distributed_el(k, SimDuration::from_millis(2));
        }
        let nas = NasConfig::new(NasBench::LU, Class::A, 16).fraction(0.012);
        let mut cfg = ClusterConfig::new(16);
        cfg.event_limit = Some(200_000_000);
        let run = run_workload(&nas, &cfg, Arc::new(suite), &FaultPlan::none());
        assert!(run.completed);
        run.stats.bytes.piggyback
    };
    let one = run(1);
    let four = run(4);
    // Four shards must not be dramatically worse than one; the win is
    // workload-dependent but the mechanism must at least keep up.
    assert!(
        four <= one * 2,
        "4 shards piggyback {four} vs single {one}: sharding made things much worse"
    );
}
