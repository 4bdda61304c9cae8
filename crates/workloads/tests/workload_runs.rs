//! Integration tests for the non-NAS workload families: each one runs
//! to completion under the framework, exhibits its intended traffic
//! shape, and survives an injected fault under causal logging.

use std::sync::Arc;

use vlog_core::{CausalSuite, Technique};
use vlog_sim::SimDuration;
use vlog_vmpi::{ClusterConfig, FaultPlan, RunReport, VdummySuite};
use vlog_workloads::{
    mflops, netpipe, run_workload, BurstyConfig, FftPipeConfig, HaloConfig, NetpipeConfig, Workload,
};

/// Application messages each rank sent.
fn sent(run: &RunReport) -> Vec<u64> {
    run.rank_stats.iter().map(|s| s.app_msgs_sent).collect()
}

fn cluster(np: usize) -> ClusterConfig {
    let mut c = ClusterConfig::new(np);
    c.event_limit = Some(50_000_000);
    c
}

#[test]
fn every_new_family_completes_under_vdummy() {
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(BurstyConfig::new(4, 4, 5)),
        Box::new(HaloConfig::new(4, 4, 5)),
        Box::new(FftPipeConfig::new(4, 2, 4)),
        Box::new(NetpipeConfig::new(1 << 10, 0.05)),
    ];
    for w in &workloads {
        let run = run_workload(
            w.as_ref(),
            &cluster(w.np()),
            Arc::new(VdummySuite),
            &FaultPlan::none(),
        );
        assert!(run.completed, "{} did not complete", w.label());
        assert!(run.stats.messages > 0, "{}", w.label());
        assert_eq!(run.stats.messages, run.msg_histogram().count());
    }
}

#[test]
fn bursty_service_serves_every_request() {
    let cfg = BurstyConfig::new(4, 6, 42);
    let run = run_workload(&cfg, &cluster(4), Arc::new(VdummySuite), &FaultPlan::none());
    assert!(run.completed);
    // Every request the arrival process draws is sent once by a client
    // (ranks 1..) and answered once by the server (rank 0).
    let reqs = cfg.total_requests();
    let sent = sent(&run);
    assert_eq!(sent[0], reqs, "replies");
    assert_eq!(sent[1..].iter().sum::<u64>(), reqs, "requests");
    // Request + reply per served request, plus checkpoint/control
    // traffic: message count must be at least 2x the request count.
    assert!(run.stats.messages >= 2 * reqs);
    assert!(mflops(cfg.total_flops(), run.makespan) > 0.0);
}

#[test]
fn halo_traffic_concentrates_on_hubs() {
    let cfg = HaloConfig::new(12, 4, 9);
    let run = run_workload(
        &cfg,
        &cluster(12),
        Arc::new(VdummySuite),
        &FaultPlan::none(),
    );
    assert!(run.completed);
    // Each iteration sends one halo per neighbor, so a rank's sends
    // follow its degree: the hub sends the most, a ring-only rank the
    // fewest.
    let sent = sent(&run);
    let hub = cfg.hub();
    let degree = |r: usize| cfg.graph()[r].len() as u64;
    let leaf = (0..12).min_by_key(|&r| degree(r)).unwrap();
    assert!(degree(hub) > degree(leaf));
    assert!(sent[hub] > sent[leaf], "{sent:?}");
    for (r, &n) in sent.iter().enumerate() {
        assert!(n >= cfg.iters * degree(r), "rank {r} sent {n} halos");
    }
}

#[test]
fn fft_tiling_multiplies_messages_and_shrinks_them() {
    let run_tiles = |tiles: u32| {
        let cfg = FftPipeConfig::new(4, 2, tiles);
        let run = run_workload(&cfg, &cluster(4), Arc::new(VdummySuite), &FaultPlan::none());
        assert!(run.completed, "tiles={tiles}");
        (
            run.stats.messages,
            run.stats.bytes.payload as f64 / run.stats.messages as f64,
        )
    };
    let (mono_msgs, mono_avg) = run_tiles(1);
    let (deep_msgs, deep_avg) = run_tiles(8);
    assert!(
        deep_msgs > mono_msgs,
        "deep tiling must send more messages: {deep_msgs} vs {mono_msgs}"
    );
    assert!(
        deep_avg < mono_avg,
        "deep tiling must shrink the average message: {deep_avg} vs {mono_avg}"
    );
}

#[test]
fn new_families_survive_a_fault_under_causal_logging() {
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(BurstyConfig::new(4, 6, 5)),
        Box::new(HaloConfig::new(4, 6, 5)),
        Box::new(FftPipeConfig::new(4, 3, 4)),
    ];
    for w in &workloads {
        let mut cfg = cluster(w.np());
        cfg.detect_delay = SimDuration::from_millis(8);
        let suite = Arc::new(
            CausalSuite::new(Technique::Vcausal, true)
                .with_checkpoints(SimDuration::from_millis(5)),
        );
        let plan = FaultPlan::kill_at(SimDuration::from_millis(6), 1);
        let run = run_workload(w.as_ref(), &cfg, suite, &plan);
        assert!(run.completed, "{} faulted run", w.label());
        assert!(run.all_landed(&plan), "{}: {:?}", w.label(), run.fired);
        let recoveries: usize = run.rank_stats.iter().map(|s| s.recovery_total.len()).sum();
        assert!(recoveries >= 1, "{} never recovered", w.label());
        assert!(
            run.stats.bytes.piggyback > 0,
            "{} moved no piggyback under causal logging",
            w.label()
        );
    }
}

#[test]
fn netpipe_workload_reports_sweep_metrics() {
    let cfg = NetpipeConfig::new(1 << 12, 0.05);
    let run = run_workload(&cfg, &cluster(2), Arc::new(VdummySuite), &FaultPlan::none());
    assert!(run.completed);
    let points = netpipe::points(&run);
    assert_eq!(points.len(), 13); // 1 B .. 4 KiB
    assert_eq!(points[0].bytes, 1);
    assert!(points[0].latency_us > 0.0);
    assert!(points.iter().all(|p| p.mbps > 0.0), "{points:?}");
    assert_eq!(
        mflops(cfg.total_flops(), run.makespan),
        0.0,
        "NetPIPE defines no Mflop/s"
    );
}

/// NetPIPE's sweep is read off the report. Rank 0 is killed after it
/// measured sizes past its last checkpoint, so its relaunched
/// incarnation measures those sizes again; the sweep still has one
/// point per size, in size order, each the later measurement.
#[test]
fn netpipe_points_survive_a_rank0_kill() {
    let cfg = NetpipeConfig::new(1 << 12, 0.05).with_checkpoints();
    let suite = || {
        Arc::new(
            CausalSuite::new(Technique::Vcausal, true)
                .with_checkpoints(SimDuration::from_millis(50)),
        )
    };
    let mut cluster = cluster(2);
    cluster.detect_delay = SimDuration::from_millis(8);
    let free = run_workload(&cfg, &cluster, suite(), &FaultPlan::none());
    let plan = FaultPlan::kill_at(SimDuration::from_millis(70), 0);
    let faulted = run_workload(&cfg, &cluster, suite(), &plan);
    assert!(free.completed && faulted.completed);
    assert!(faulted.all_landed(&plan), "{:?}", faulted.fired);

    let latencies: Vec<_> = faulted
        .recorded
        .iter()
        .filter(|r| r.name == "latency_us")
        .collect();
    let sizes = netpipe::sizes(1 << 12);
    assert!(
        latencies.len() > sizes.len(),
        "no size was measured twice, so the kill tested nothing"
    );
    let bytes =
        |run: &RunReport| -> Vec<u64> { netpipe::points(&run).iter().map(|p| p.bytes).collect() };
    assert_eq!(bytes(&free), sizes);
    assert_eq!(bytes(&faulted), sizes);
    for point in netpipe::points(&faulted) {
        let last = latencies.iter().rev().find(|r| r.key == point.bytes);
        assert_eq!(point.latency_us, last.unwrap().value, "{point:?}");
    }
}
