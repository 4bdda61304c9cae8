//! Harness self-tests: the explorer must re-find the two historical
//! protocol bugs (fixed in PR 5, re-introduced behind test-only flags)
//! within a CI-sized budget, and its shrunken traces must reproduce the
//! violation deterministically.
//!
//! These are the ground-truth cases for the whole harness: if the
//! explorer cannot find a bug we *know* is there, its "no violations"
//! verdict on the clean protocols means nothing.

use vlog_explore::{
    buggy_marker_storm_scenario, buggy_restart_window_scenario, explore, Budget, Scenario,
    Violation,
};

/// CI-sized budget: small enough to keep the test cheap, large enough
/// that both seeded bugs are found well inside it.
fn ci_budget() -> Budget {
    Budget {
        depth: 4,
        schedules: 12,
        seed: 0x1905_2005,
    }
}

/// Runs the explorer on one buggy scenario and checks the full
/// find → confirm → shrink → replay contract.
fn assert_explorer_finds(scenario: Scenario) -> Violation {
    let name = scenario.name;
    let report = explore(&[scenario], &ci_budget());
    assert_eq!(
        report.violations.len(),
        1,
        "{name}: expected exactly one confirmed violation, got {:?}",
        report
            .violations
            .iter()
            .map(Violation::replay_line)
            .collect::<Vec<_>>()
    );
    let v = report.violations.into_iter().next().unwrap();
    assert_eq!(v.scenario, name);
    assert!(
        v.confirmed,
        "{name}: recorded decision trace failed to confirm the violation"
    );
    v
}

/// The shrunken trace is the deliverable: feeding it back through
/// `run_raw` must reproduce the same violation, run after run.
fn assert_replays_deterministically(scenario: &Scenario, v: &Violation) {
    let first = scenario.run_raw(&v.raw);
    let second = scenario.run_raw(&v.raw);
    assert_eq!(
        first.violation.as_deref(),
        Some(v.reason.as_str()),
        "minimal script did not reproduce the reported violation"
    );
    assert_eq!(
        first.violation, second.violation,
        "minimal script is not deterministic"
    );
}

#[test]
fn explorer_refinds_the_restart_window_stall() {
    // PR 5 bug #1: a replay supply landing inside the victim's restart
    // window was threaded through the not-yet-restored channel
    // watermarks instead of parked, stalling recovery forever. The
    // stall burns the run's event budget on periodic timers, so the
    // kernel stops it at the cap and it surfaces as a stall that names
    // the event limit and the dangling recovery edge.
    let v = assert_explorer_finds(buggy_restart_window_scenario());
    assert!(
        v.reason.contains("stalled") || v.reason.contains("lost recovery"),
        "restart-window bug should surface as a stall or a lost recovery, \
         got: {}",
        v.reason
    );
    assert_replays_deterministically(&buggy_restart_window_scenario(), &v);
}

#[test]
fn explorer_refinds_the_marker_storm() {
    // PR 5 bug #2: finished ranks answering every marker (not each id
    // once) make marker volume grow without bound — caught by the
    // message-ceiling invariant.
    let v = assert_explorer_finds(buggy_marker_storm_scenario());
    assert!(
        v.reason.contains("storm") || v.reason.contains("stalled"),
        "marker-storm bug should trip the message ceiling (or burn the \
         event budget), got: {}",
        v.reason
    );
    assert_replays_deterministically(&buggy_marker_storm_scenario(), &v);
}
