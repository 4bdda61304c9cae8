//! Regressions for the explorer's event-limit runaways: minimal scripts
//! that each kept a recovered cluster spinning until the 2 M event cap.
//!
//! * `pessimistic/crash`: one or two deferred deliveries hold back an
//!   Event Logger ack, so rank 0 checkpoints with sends still held by
//!   the pessimistic gate. The image carried the channel counters past
//!   those sends but not the sends themselves, so after the crash rank 1
//!   waited forever on a gap in rank 0's channel. An image now carries
//!   the held sends, and the events it covers count as stable, so the
//!   restored sends leave once replay ends.
//! * `coordinated/crash`: a late `GlobalSnapshot{2}` made rank 1 take
//!   snapshot 2 a second time, and that snapshot's markers made ranks 0
//!   and 2 retake it too, so the rollback to id 2 mixed two cuts. Each
//!   rank now takes a snapshot id at most once.

use vlog_explore::{default_scenarios, RawDecision};

/// Runs `script` on the named default scenario and asserts it passes
/// every invariant with every decision fired.
fn assert_completes(name: &str, script: &[RawDecision]) {
    let scenarios = default_scenarios();
    let scenario = scenarios
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} is a default scenario"));
    let outcome = scenario.run_raw(script);
    assert_eq!(
        outcome.violation, None,
        "{name} under {script:?} violated an invariant"
    );
    assert_eq!(
        outcome.applied.len(),
        script.len(),
        "{name}: not every pinned decision under {script:?} fired"
    );
}

#[test]
fn held_sends_survive_a_checkpoint_and_a_crash() {
    let scripts: [&[RawDecision]; 10] = [
        &[(247, 3_193_795)],
        &[(244, 3_998_907)],
        &[(244, 3_621_060)],
        &[(223, 334_918), (232, 3_453_515)],
        &[(225, 4_879_334), (230, 356_729)],
        &[(244, 4_093_047)],
        &[(252, 2_733_627)],
        &[(244, 3_735_145)],
        &[(247, 3_437_462)],
        &[(247, 3_025_529)],
    ];
    for script in scripts {
        assert_completes("pessimistic/crash", script);
    }
}

#[test]
fn a_late_snapshot_command_does_not_retake_its_id() {
    assert_completes("coordinated/crash", &[(0, 4_360_124), (132, 1_622_929)]);
}
