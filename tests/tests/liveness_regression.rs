//! Regression: the causality log must *diagnose* the two historical
//! PR-5 protocol bugs by name, without schedule exploration.
//!
//! The schedule explorer (PR 6) can re-find these bugs, but its verdict
//! is "this run stalled / stormed" — the *why* took a human reading
//! traces. The causality log closes that gap: a single buggy run, no
//! perturbation search, and the liveness report names the exact
//! recovery edge the stall is waiting on (restart-window bug) or the
//! once-only event the storm keeps re-firing (marker-storm bug).
//!
//! The clean controls run the identical configurations minus the buggy
//! flag and must come back liveness-clean — the detectors' value rests
//! on a zero false-positive rate.

use std::sync::Arc;

use vlog_core::{CausalSuite, CoordinatedSuite, Technique};
use vlog_sim::{causality, SimDuration, StopReason};
use vlog_vmpi::{ClusterConfig, FaultPlan, RunReport};
use vlog_workloads::{run_workload, BurstyConfig, Class, NasBench, NasConfig, Workload};

fn causal_suite() -> Arc<CausalSuite> {
    Arc::new(
        CausalSuite::new(Technique::Vcausal, true).with_checkpoints(SimDuration::from_millis(6)),
    )
}

/// The clean control recovers in ~550ms of sim time; the limit leaves
/// a ~4x margin so only a genuine stall can reach it.
const FT8_TIME_LIMIT: SimDuration = SimDuration::from_secs(2);

/// FT.S/8 with a rank killed mid-transpose: the restart-window repro
/// from `restart_window_regression.rs`, here with the causality log
/// exported and the run cut at a sim-time limit.
fn ft8_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(8);
    cfg.detect_delay = SimDuration::from_millis(8);
    cfg.export_liveness = true;
    cfg.time_limit = Some(FT8_TIME_LIMIT);
    cfg
}

#[test]
fn stalled_restart_window_names_the_dangling_recovery_edge() {
    let victim = 1;
    let w = NasConfig::new(NasBench::FT, Class::S, 8);
    let mut cfg = ft8_cfg();
    cfg.seeded_bugs.restart_window = true;
    let plan = FaultPlan::kill_at(SimDuration::from_millis(5), victim);
    let run = run_workload(&w, &cfg, causal_suite(), &plan);
    assert!(run.report.all_landed(&plan), "{:?}", run.report.fired);
    // The stall keeps its periodic timers running, so the calendar
    // never drains: the time limit ends the run, and the report says so
    // and carries the diagnosis.
    assert!(
        !run.report.completed,
        "buggy restart window unexpectedly recovered"
    );
    assert_eq!(
        run.report.stopped,
        Some(StopReason::TimeLimit(FT8_TIME_LIMIT))
    );
    assert_eq!(run.report.makespan, FT8_TIME_LIMIT);
    let live = run.report.liveness.as_ref().expect("liveness exported");
    assert!(
        !live.is_clean(),
        "stalled run reported a clean liveness log"
    );
    // The diagnosis: the victim's replay is waiting on a recovery edge
    // that can no longer fire — a replay supply or determinant the
    // corrupted watermarks told the peers not to re-send.
    let named = live.dangling.iter().any(|d| {
        d.owner == victim as u64
            && matches!(
                d.cause.kind(),
                "replay-supply" | "det-replay" | "reclaim-resp" | "el-query-resp"
            )
    });
    assert!(
        named,
        "dangling set does not name the victim's stuck recovery edge:\n{}",
        causality::render("restart-window", live)
    );
}

#[test]
fn clean_restart_window_run_is_liveness_clean() {
    let victim = 1;
    let w = NasConfig::new(NasBench::FT, Class::S, 8);
    let cfg = ft8_cfg();
    let plan = FaultPlan::kill_at(SimDuration::from_millis(5), victim);
    let run = run_workload(&w, &cfg, causal_suite(), &plan);
    assert!(run.report.completed, "clean FT.S/8 control did not recover");
    assert!(run.report.all_landed(&plan), "{:?}", run.report.fired);
    assert_eq!(run.report.stopped, None, "a limit cut a run that completed");
    let live = run.report.liveness.as_ref().expect("liveness exported");
    assert!(
        live.is_clean(),
        "clean faulted run has liveness findings (false positives):\n{}",
        causality::render("clean-control", live)
    );
    assert!(live.produced_events > 0, "causality log recorded nothing");
}

/// The clean run dispatches ~16 k events, the storm ~420 k before its
/// volleys die down: a cap between the two stops the storm mid-flight.
const BURSTY_EVENT_LIMIT: u64 = 200_000;

/// Runs the bursty service under the coordinated suite with the
/// causality log exported. The storm burns the event cap before the
/// run ends; the cap stops the run, and the report of the stopped run
/// carries its own log.
fn bursty_coordinated(storm_bug: bool) -> RunReport {
    let w = BurstyConfig::new(8, 3, 11).with_servers(2);
    let mut cfg = ClusterConfig::new(w.np());
    cfg.event_limit = Some(BURSTY_EVENT_LIMIT);
    cfg.export_liveness = true;
    cfg.seeded_bugs.marker_storm = storm_bug;
    let suite = Arc::new(CoordinatedSuite::new(SimDuration::from_millis(2)));
    run_workload(&w, &cfg, suite, &FaultPlan::none()).report
}

#[test]
fn marker_storm_shows_as_a_duplicated_once_only_close() {
    let report = bursty_coordinated(true);
    // The verdict of a capped run: not completed, stopped by the cap.
    assert!(!report.completed, "storm run unexpectedly completed");
    assert_eq!(
        report.stopped,
        Some(StopReason::EventLimit(BURSTY_EVENT_LIMIT))
    );
    let live = report.liveness.as_ref().expect("liveness exported");
    // The diagnosis: closing a finished rank's channels is declared
    // once-only per (rank, id); the storm re-fires it per marker.
    let dup = live
        .duplicates
        .iter()
        .find(|d| d.key.kind() == "snapshot-close-finished");
    match dup {
        Some(d) => assert!(
            d.count > 1,
            "duplicate record with non-duplicate count: {d:?}"
        ),
        None => panic!(
            "storm run did not flag snapshot-close-finished as duplicated:\n{}",
            causality::render("marker-storm", live)
        ),
    }
}

#[test]
fn clean_coordinated_bursty_run_is_liveness_clean() {
    let report = bursty_coordinated(false);
    assert!(
        report.completed,
        "clean coordinated bursty did not complete"
    );
    assert_eq!(report.stopped, None);
    let live = report.liveness.as_ref().expect("liveness exported");
    assert!(
        live.is_clean(),
        "clean coordinated run has liveness findings (false positives):\n{}",
        causality::render("clean-control", live)
    );
    assert!(live.produced_events > 0, "causality log recorded nothing");
}
