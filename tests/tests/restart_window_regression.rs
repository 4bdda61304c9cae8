//! Regression: messages arriving in the *restart window* — after a
//! crashed rank's replacement daemon comes alive but before its
//! checkpoint image has been fetched — must not thread through the
//! not-yet-recovering protocol.
//!
//! Before the fix, such messages were accepted normally: they advanced
//! the channel watermarks the victim was about to send as its payload
//! reclaims, and consumed deliveries its replay was about to wait for.
//! Survivors then re-sent nothing (the corrupted watermarks said the
//! victim already had everything) and the replay waited forever for a
//! supply that could no longer arrive — a permanent recovery stall.
//!
//! FT's all-to-all at 8+ ranks reproduces this deterministically: at
//! the kill time several transposes are mid-flight, so the replacement
//! daemon always sees traffic before its image fetch returns.
//!
//! The same window holds for protocol control: a peer's payload reclaim
//! that reaches a replacement before its image is restored used to be
//! answered from the fresh, empty sender log. The peer then counted the
//! replacement as answered, and the payloads the restored image still
//! logged for it were never re-sent. CG's neighbour exchange at 16 ranks
//! under eight staggered kills reaches that window on three suites.

use std::sync::Arc;

use vlog_core::{CausalSuite, PessimisticSuite, Technique};
use vlog_sim::{NetProfile, SimDuration};
use vlog_vmpi::{ClusterConfig, FaultPlan, Suite};
use vlog_workloads::{run_workload, Class, NasBench, NasConfig};

fn run_ft8(suite: Arc<dyn Suite>, victim: usize) {
    let ft8 = NasConfig::new(NasBench::FT, Class::S, 8);
    let mut cfg = ClusterConfig::new(8);
    cfg.detect_delay = SimDuration::from_millis(8);
    cfg.event_limit = Some(50_000_000);
    let plan = FaultPlan::kill_at(SimDuration::from_millis(5), victim);
    let run = run_workload(&ft8, &cfg, suite, &plan);
    assert!(
        run.report.completed,
        "FT.S/8 did not recover from killing rank {victim} under {}",
        run.report.suite
    );
    assert!(run.report.all_landed(&plan), "{:?}", run.report.fired);
    let rs = &run.report.rank_stats[victim];
    assert_eq!(
        rs.recovery_total.len(),
        1,
        "rank {victim} never finished its replay: {rs:?}"
    );
}

#[test]
fn ft8_recovers_through_the_restart_window_causal_el() {
    for victim in [0, 1] {
        run_ft8(
            Arc::new(
                CausalSuite::new(Technique::Vcausal, true)
                    .with_checkpoints(SimDuration::from_millis(6)),
            ),
            victim,
        );
    }
}

#[test]
fn ft8_recovers_through_the_restart_window_pessimistic() {
    run_ft8(
        Arc::new(PessimisticSuite::new().with_checkpoints(SimDuration::from_millis(6))),
        1,
    );
}

/// nas `CG.S/16` on the 2005 fast-ethernet fabric with 6 ms checkpoints
/// and 8 ms detection, under eight staggered kills: kill `i` lands at
/// `(i + 0.5) / 9` of the fault-free makespan and takes rank `3i mod
/// 16`, so no rank dies twice. Every kill must end in a recovery well
/// inside a 120 s simulated limit.
fn run_cg16_staggered(suite: impl Fn() -> Arc<dyn Suite>) {
    const KILLS: usize = 8;
    let cg16 = NasConfig::new(NasBench::CG, Class::S, 16);
    let mut cfg = ClusterConfig::new(16);
    cfg.detect_delay = SimDuration::from_millis(8);
    cfg.net = NetProfile::fast_ethernet_2005();
    let clean = run_workload(&cg16, &cfg, suite(), &FaultPlan::none()).report;
    assert!(clean.completed, "fault-free CG.S/16 under {}", clean.suite);
    let mut plan = FaultPlan::none();
    for i in 0..KILLS {
        let at = clean
            .makespan
            .mul_f64((i as f64 + 0.5) / (KILLS as f64 + 1.0));
        plan = plan.then_kill(at, (3 * i) % 16);
    }
    cfg.time_limit = Some(SimDuration::from_secs(120));
    let report = run_workload(&cg16, &cfg, suite(), &plan).report;
    let recoveries: usize = report
        .rank_stats
        .iter()
        .map(|s| s.recovery_total.len())
        .sum();
    assert!(
        report.completed,
        "CG.S/16 under {} stopped ({:?}) after {recoveries} of {KILLS} recoveries",
        report.suite, report.stopped
    );
    assert!(report.all_landed(&plan), "{:?}", report.fired);
    assert_eq!(recoveries, KILLS, "under {}", report.suite);
}

fn ckpt6() -> SimDuration {
    SimDuration::from_millis(6)
}

#[test]
fn cg16_reclaims_wait_for_the_image_causal_el() {
    run_cg16_staggered(|| {
        Arc::new(CausalSuite::new(Technique::Vcausal, true).with_checkpoints(ckpt6()))
    });
}

#[test]
fn cg16_reclaims_wait_for_the_image_manetho_noel() {
    run_cg16_staggered(|| {
        Arc::new(CausalSuite::new(Technique::Manetho, false).with_checkpoints(ckpt6()))
    });
}

#[test]
fn cg16_reclaims_wait_for_the_image_pessimistic() {
    run_cg16_staggered(|| Arc::new(PessimisticSuite::new().with_checkpoints(ckpt6())));
}
