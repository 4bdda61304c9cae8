//! Hang-detector smoke gate for `scripts/verify.sh`.
//!
//! Two FT.S/8 runs with a rank killed mid-transpose, both with the
//! causality log exported and the sim-time watchdog armed:
//!
//! * the **buggy** leg re-introduces the PR-5 restart-window stall
//!   (`SeededBugs::restart_window`) — the watchdog must end
//!   the run and the liveness report must carry a non-empty dangling
//!   set naming the stuck recovery edge;
//! * the **clean** leg runs the identical configuration minus the flag
//!   — it must recover, the watchdog must stay silent, and the report
//!   must be clean (the zero-false-positive half of the contract).
//!
//! Exits 1 with the offending liveness dump on any deviation.

use std::sync::Arc;

use vlog_core::{CausalSuite, Technique};
use vlog_sim::{causality, SimDuration};
use vlog_vmpi::{ClusterConfig, FaultPlan};
use vlog_workloads::{run_workload, Class, NasBench, NasConfig};

struct Leg {
    completed: bool,
    watchdog_fired: u64,
    live: causality::LivenessReport,
}

fn run_leg(buggy: bool) -> Leg {
    let w = NasConfig::new(NasBench::FT, Class::S, 8);
    let mut cfg = ClusterConfig::new(8);
    cfg.detect_delay = SimDuration::from_millis(8);
    cfg.export_liveness = true;
    // Clean recovery lands around 550ms of sim time; 2s of margin means
    // only a genuine stall reaches the watchdog.
    cfg.liveness_watchdog = Some(SimDuration::from_secs(2));
    cfg.seeded_bugs.restart_window = buggy;
    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true).with_checkpoints(SimDuration::from_millis(6)),
    );
    let run = run_workload(
        &w,
        &cfg,
        suite,
        &FaultPlan::kill_at(SimDuration::from_millis(5), 1),
    );
    Leg {
        completed: run.report.completed,
        watchdog_fired: run.report.stats.get("liveness_watchdog_fired"),
        live: run
            .report
            .liveness
            .clone()
            .expect("export_liveness was set"),
    }
}

fn main() {
    let mut failures = Vec::new();

    let buggy = run_leg(true);
    eprint!("{}", causality::render("buggy restart-window", &buggy.live));
    if buggy.completed {
        failures.push("buggy leg completed — the seeded stall did not bite".to_string());
    }
    if buggy.watchdog_fired == 0 {
        failures.push("buggy leg ended without the watchdog firing".to_string());
    }
    if buggy.live.dangling.is_empty() {
        failures.push("buggy leg's dangling-cause dump is empty".to_string());
    }

    let clean = run_leg(false);
    eprint!("{}", causality::render("clean control", &clean.live));
    if !clean.completed {
        failures.push("clean leg did not recover".to_string());
    }
    if clean.watchdog_fired != 0 {
        failures.push("watchdog fired on the clean leg".to_string());
    }
    if !clean.live.is_clean() {
        failures.push("clean leg has liveness findings (false positives)".to_string());
    }
    if clean.live.produced_events == 0 {
        failures.push("clean leg recorded no causality events".to_string());
    }

    if failures.is_empty() {
        eprintln!("liveness_smoke: ok (buggy leg dangles, clean leg clean)");
        return;
    }
    for f in &failures {
        eprintln!("liveness_smoke: FAIL — {f}");
    }
    std::process::exit(1);
}
