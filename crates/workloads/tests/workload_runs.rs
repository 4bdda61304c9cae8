//! Integration tests for the non-NAS workload families: each one runs
//! to completion under the framework, exhibits its intended traffic
//! shape, and survives an injected fault under causal logging.

use std::sync::Arc;

use vlog_core::{CausalSuite, Technique};
use vlog_sim::SimDuration;
use vlog_vmpi::{ClusterConfig, FaultPlan, VdummySuite};
use vlog_workloads::{
    netpipe, run_workload, BurstyConfig, FftPipeConfig, HaloConfig, NetpipeConfig, Workload,
    WorkloadRun,
};

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
        assert!(run.report.completed, "{} did not complete", run.label);
        assert!(run.report.stats.messages > 0, "{}", run.label);
        assert_eq!(run.report.stats.messages, run.msg_histogram().count());
    }
}

#[test]
fn bursty_service_serves_every_request() {
    let cfg = BurstyConfig::new(4, 6, 42);
    let run = run_workload(&cfg, &cluster(4), Arc::new(VdummySuite), &FaultPlan::none());
    assert!(run.report.completed);
    let reqs = run
        .extra
        .iter()
        .find(|(k, _)| *k == "requests")
        .map(|(_, v)| *v)
        .unwrap();
    assert_eq!(reqs, cfg.total_requests() as f64);
    // Request + reply per served request, plus checkpoint/control
    // traffic: message count must be at least 2x the request count.
    assert!(run.report.stats.messages as f64 >= 2.0 * reqs);
    assert!(run.mflops() > 0.0);
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
    assert!(run.report.completed);
    let get = |k: &str| {
        run.extra
            .iter()
            .find(|(n, _)| *n == k)
            .map(|(_, v)| *v)
            .unwrap()
    };
    assert!(get("max_degree") > get("min_degree"));
    assert!(get("edges") >= 12.0, "ring backbone alone has np edges");
}

#[test]
fn fft_tiling_multiplies_messages_and_shrinks_them() {
    let run_tiles = |tiles: u32| {
        let cfg = FftPipeConfig::new(4, 2, tiles);
        let run = run_workload(&cfg, &cluster(4), Arc::new(VdummySuite), &FaultPlan::none());
        assert!(run.report.completed, "tiles={tiles}");
        (
            run.report.stats.messages,
            run.report.stats.bytes.payload as f64 / run.report.stats.messages as f64,
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
        assert!(run.report.completed, "{} faulted run", run.label);
        assert!(
            run.report.all_landed(&plan),
            "{}: {:?}",
            run.label,
            run.report.fired
        );
        let recoveries: usize = run
            .report
            .rank_stats
            .iter()
            .map(|s| s.recovery_total.len())
            .sum();
        assert!(recoveries >= 1, "{} never recovered", run.label);
        assert!(
            run.report.stats.bytes.piggyback > 0,
            "{} moved no piggyback under causal logging",
            run.label
        );
    }
}

#[test]
fn netpipe_workload_reports_sweep_metrics() {
    let cfg = NetpipeConfig::new(1 << 12, 0.05);
    let run = run_workload(&cfg, &cluster(2), Arc::new(VdummySuite), &FaultPlan::none());
    assert!(run.report.completed);
    let get = |k: &str| {
        run.extra
            .iter()
            .find(|(n, _)| *n == k)
            .map(|(_, v)| *v)
            .unwrap()
    };
    assert_eq!(get("points"), 13.0); // 1 B .. 4 KiB
    assert!(get("latency_1b_us") > 0.0);
    assert!(get("peak_mbps") > 0.0);
    assert_eq!(run.mflops(), 0.0, "NetPIPE defines no Mflop/s");
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
    assert!(free.report.completed && faulted.report.completed);
    assert!(
        faulted.report.all_landed(&plan),
        "{:?}",
        faulted.report.fired
    );

    let latencies: Vec<_> = faulted
        .report
        .recorded
        .iter()
        .filter(|r| r.name == "latency_us")
        .collect();
    let sizes = netpipe::sizes(1 << 12);
    assert!(
        latencies.len() > sizes.len(),
        "no size was measured twice, so the kill tested nothing"
    );
    let bytes = |run: &WorkloadRun| -> Vec<u64> {
        netpipe::points(&run.report)
            .iter()
            .map(|p| p.bytes)
            .collect()
    };
    assert_eq!(bytes(&free), sizes);
    assert_eq!(bytes(&faulted), sizes);
    for point in netpipe::points(&faulted.report) {
        let last = latencies.iter().rev().find(|r| r.key == point.bytes);
        assert_eq!(point.latency_us, last.unwrap().value, "{point:?}");
    }
    assert_eq!(faulted.extra[2], ("points", sizes.len() as f64));
}
