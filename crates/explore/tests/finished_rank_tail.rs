//! Regression for class (a) of the PR-11 known-failing set: a dangling
//! `det-batch-acked{rank, seq}` at the end of a *completed* run.
//!
//! A rank's program ends and its daemon withdraws every expectation the
//! rank owns. An Event Logger ack that arrives after that still clocks
//! the batcher: the coalesced tail ships under a fresh batch seq. That
//! shipment used to declare a fresh ack expectation owned by a rank
//! nobody waits on, and the run completed before the ack came back — an
//! instrumentation gap, not a protocol bug (the record ships, the ack is
//! paired). The three scripts below are minimal violating schedules the
//! explorer found at the parent commit, one per affected scenario shape.

use vlog_explore::{default_scenarios, RawDecision};

#[test]
fn finished_rank_ships_its_tail_without_a_dangling_ack() {
    let pinned: [(&str, &[RawDecision]); 3] = [
        (
            "causal+el2/el-failure",
            &[(91, 2_539_967), (430, 4_481_392), (469, 1_796_625)],
        ),
        (
            "causal+el/crash",
            &[(0, 2_754_576), (106, 4_604_991), (502, 4_998_502)],
        ),
        (
            "causal+el/phase-ack-received",
            &[(157, 3_550_896), (273, 1_688_419), (466, 4_915_061)],
        ),
    ];
    let scenarios = default_scenarios();
    for (name, script) in pinned {
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
            "{name}: not every pinned decision fired, the script no longer \
             reaches the late-ack schedule"
        );
    }
}
