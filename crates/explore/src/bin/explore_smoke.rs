//! Seeded smoke exploration over the default scenario set.
//!
//! Explores `VLOG_EXPLORE_SCHEDULES` distinct perturbation schedules
//! (depth `VLOG_EXPLORE_DEPTH`, seed `VLOG_EXPLORE_SEED`) spread across
//! the clean protocol scenarios and asserts zero invariant violations.
//! Exits 1 — printing each violation's minimal replayable schedule —
//! otherwise. `scripts/verify.sh` runs this as its exploration gate.

use vlog_explore::{default_scenarios, explore, Budget};

fn main() {
    let budget = Budget::from_env();
    let scenarios = default_scenarios();
    eprintln!(
        "explore_smoke: {} scenarios, budget depth={} schedules={} seed={:#x}",
        scenarios.len(),
        budget.depth,
        budget.schedules,
        budget.seed
    );
    let report = explore(&scenarios, &budget);
    eprintln!(
        "explore_smoke: {} distinct schedules checked over {} scenarios ({} runs)",
        report.distinct_schedules, report.scenarios, report.runs
    );
    if report.violations.is_empty() {
        eprintln!("explore_smoke: no invariant violations");
        return;
    }
    for v in &report.violations {
        eprintln!("explore_smoke: {}", v.replay_line());
    }
    std::process::exit(1);
}
