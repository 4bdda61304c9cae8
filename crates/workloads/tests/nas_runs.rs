//! Integration tests: every NAS skeleton runs to completion under the
//! framework, the benchmark communication characters match the paper's
//! description, and NetPIPE lands near the paper's latency table.

use std::sync::Arc;

use vlog_core::{CausalSuite, Technique};
use vlog_sim::SimDuration;
use vlog_vmpi::{run_vdummy, ClusterConfig, FaultPlan, VdummySuite};
use vlog_workloads::{mflops, netpipe, run_workload, Class, NasBench, NasConfig, Workload};

fn cluster(np: usize) -> ClusterConfig {
    let mut c = ClusterConfig::new(np);
    c.event_limit = Some(50_000_000);
    c
}

#[test]
fn every_benchmark_completes_class_s() {
    for (bench, np) in [
        (NasBench::CG, 4),
        (NasBench::MG, 4),
        (NasBench::FT, 4),
        (NasBench::LU, 4),
        (NasBench::BT, 4),
        (NasBench::SP, 4),
    ] {
        let nas = NasConfig::new(bench, Class::S, np);
        let run = run_workload(
            &nas,
            &cluster(np),
            Arc::new(VdummySuite),
            &FaultPlan::none(),
        );
        assert!(run.completed, "{bench:?} class S did not complete");
        assert!(mflops(nas.total_flops(), run.makespan) > 0.0);
    }
}

#[test]
fn benchmarks_complete_on_all_paper_rank_counts() {
    for bench in [NasBench::CG, NasBench::LU, NasBench::FT, NasBench::MG] {
        for np in [2usize, 4, 8, 16] {
            let nas = NasConfig::new(bench, Class::S, np);
            let run = run_workload(
                &nas,
                &cluster(np),
                Arc::new(VdummySuite),
                &FaultPlan::none(),
            );
            assert!(run.completed, "{bench:?} np={np}");
        }
    }
    for np in [4usize, 9, 16, 25] {
        for bench in [NasBench::BT, NasBench::SP] {
            let nas = NasConfig::new(bench, Class::S, np);
            let run = run_workload(
                &nas,
                &cluster(np),
                Arc::new(VdummySuite),
                &FaultPlan::none(),
            );
            assert!(run.completed, "{bench:?} np={np}");
        }
    }
}

#[test]
fn communication_characters_match_the_paper() {
    // Paper §V-A: LU = many (small) messages, FT = all-to-all with the
    // biggest payloads, BT = large point-to-point messages, CG latency
    // driven. Compare per-benchmark message statistics on class A / 16.
    let stats = |bench: NasBench| {
        let nas = NasConfig::new(bench, Class::A, 16).fraction(0.02);
        let run = run_workload(
            &nas,
            &cluster(16),
            Arc::new(VdummySuite),
            &FaultPlan::none(),
        );
        assert!(run.completed, "{bench:?}");
        let msgs = run.stats.messages as f64;
        let payload = run.stats.bytes.payload as f64;
        (msgs, payload / msgs)
    };
    let (lu_msgs, lu_avg) = stats(NasBench::LU);
    let (bt_msgs, bt_avg) = stats(NasBench::BT);
    let (ft_msgs, ft_avg) = stats(NasBench::FT);
    let (cg_msgs, cg_avg) = stats(NasBench::CG);
    assert!(
        lu_msgs > bt_msgs && lu_msgs > ft_msgs && lu_msgs > cg_msgs,
        "LU must send the most messages: lu={lu_msgs} bt={bt_msgs} ft={ft_msgs} cg={cg_msgs}"
    );
    assert!(
        ft_avg > bt_avg && ft_avg > lu_avg && ft_avg > cg_avg,
        "FT must have the largest average message: ft={ft_avg} bt={bt_avg} lu={lu_avg} cg={cg_avg}"
    );
    assert!(bt_avg > lu_avg, "BT messages are large, LU messages tiny");
}

#[test]
fn cg_a_runs_under_causal_protocols() {
    for technique in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
        let nas = NasConfig::new(NasBench::CG, Class::A, 4).fraction(0.2);
        let run = run_workload(
            &nas,
            &cluster(4),
            Arc::new(CausalSuite::new(technique, true)),
            &FaultPlan::none(),
        );
        assert!(run.completed, "{technique:?}");
        assert!(run.stats.bytes.piggyback > 0);
    }
}

#[test]
fn lu_survives_a_fault_under_causal_logging() {
    let nas = NasConfig::new(NasBench::LU, Class::S, 4);
    let mut c = cluster(4);
    c.detect_delay = SimDuration::from_millis(20);
    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true).with_checkpoints(SimDuration::from_millis(50)),
    );
    let plan = FaultPlan::kill_at(SimDuration::from_millis(40), 1);
    let run = run_workload(&nas, &c, suite, &plan);
    assert!(run.completed, "LU with fault did not finish");
    assert!(run.all_landed(&plan), "{:?}", run.fired);
    let recoveries: usize = run.rank_stats.iter().map(|s| s.recovery_total.len()).sum();
    assert!(recoveries >= 1);
}

#[test]
fn netpipe_latency_matches_paper_table() {
    // Figure 6(a): MPICH-P4 99.56us, Vdummy 134.84us for 1-byte messages.
    let run_lat = |cfg: ClusterConfig| {
        let report = run_vdummy(&cfg, netpipe::program(1, 1.0));
        assert!(report.completed);
        netpipe::points(&report)[0].latency_us
    };
    let vd = run_lat(cluster(2));
    let p4 = run_lat(cluster(2).p4());
    let raw = run_lat(cluster(2).raw());
    assert!(
        (p4 - 99.56).abs() < 12.0,
        "P4 1-byte latency {p4:.2}us vs paper 99.56us"
    );
    assert!(
        (vd - 134.84).abs() < 15.0,
        "Vdummy 1-byte latency {vd:.2}us vs paper 134.84us"
    );
    assert!(raw < p4 && p4 < vd);
}

#[test]
fn netpipe_bandwidth_approaches_line_rate() {
    let report = run_vdummy(&cluster(2).raw(), netpipe::program(8 << 20, 0.05));
    assert!(report.completed);
    let r = netpipe::points(&report);
    let peak = r.iter().map(|p| p.mbps).fold(0.0, f64::max);
    assert!(
        peak > 80.0 && peak < 100.0,
        "raw TCP peak bandwidth {peak:.1} Mbit/s out of the paper's range"
    );
    // Monotone-ish growth: the largest message should be near the peak.
    assert!(r.last().unwrap().mbps > 0.8 * peak);
}
