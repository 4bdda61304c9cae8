//! `RunReport::rank_stats` of one faulted cell as absolute values.
//!
//! The determinism suite compares a run with itself, so it cannot see a
//! change that moves every run the same way. This pins the per-rank
//! statistics of one cell — fft `16r.t8` under Vcausal with the Event
//! Logger and checkpoints, rank 3 killed once it has committed images —
//! as the `Debug` text the benchmark's fingerprint hashes: once run to
//! completion, once cut by a `time_limit` while the victim is still
//! recovering (what the report holds then is whatever each rank had
//! counted by that instant, finished incarnation or not). The vectors
//! were captured at the commit before the per-rank statistics moved
//! from per-incarnation delta cells into the run state.

use std::sync::Arc;

use vlog_core::{CausalSuite, Technique};
use vlog_sim::{NetProfile, SimDuration, StopReason};
use vlog_vmpi::{ClusterConfig, FaultPlan, RunReport};
use vlog_workloads::{run_workload, FftPipeConfig};

const VICTIM: usize = 3;

fn cell(time_limit: Option<SimDuration>) -> RunReport {
    let w = FftPipeConfig {
        state_bytes: 1 << 20,
        ..FftPipeConfig::new(16, 6, 8)
    };
    let mut cfg = ClusterConfig::new(16);
    cfg.net = NetProfile::gigabit();
    cfg.detect_delay = SimDuration::from_millis(8);
    cfg.time_limit = time_limit;
    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true).with_checkpoints(SimDuration::from_millis(20)),
    );
    let faults = FaultPlan::kill_at(SimDuration::from_millis(600), VICTIM);
    let report = run_workload(&w, &cfg, suite, &faults).report;
    assert!(report.all_landed(&faults), "{:?}", report.fired);
    report
}

fn assert_pinned(report: &RunReport, pinned: &[&str; 16]) {
    let got: Vec<String> = report.rank_stats.iter().map(|s| format!("{s:?}")).collect();
    assert_eq!(got, pinned);
}

#[test]
fn a_completed_faulted_cell_reports_the_pinned_rank_stats() {
    let report = cell(None);
    assert!(report.completed);
    assert_eq!(report.stopped, None);
    assert_eq!(report.rank_stats[VICTIM].recovery_total.len(), 1);
    assert_pinned(&report, &COMPLETED);
}

#[test]
fn a_cell_cut_in_mid_recovery_reports_the_pinned_rank_stats() {
    let limit = SimDuration::from_millis(715);
    let report = cell(Some(limit));
    assert!(!report.completed);
    // Cut, not stalled: the report names the limit and ends on it.
    assert_eq!(report.stopped, Some(StopReason::TimeLimit(limit)));
    assert_eq!(report.makespan, limit);
    // Restarted, not yet live: the victim's counts from before the
    // crash are there, its recovery is not over.
    assert!(report.rank_stats[VICTIM].app_msgs_sent > 0);
    assert!(report.rank_stats[VICTIM].recovery_total.is_empty());
    assert_pinned(&report, &CUT);
}

const COMPLETED: [&str; 16] = [
    "RankStats { pb_send_time: 8.332ms, pb_recv_time: 8.361ms, pb_events_sent: 12124, pb_bytes_sent: 187716, empty_pb_msgs: 205, app_msgs_sent: 744, el_acked_events: 744, recovery_collect: [], recovery_total: [], checkpoints: 4 }",
    "RankStats { pb_send_time: 8.636ms, pb_recv_time: 8.160ms, pb_events_sent: 12789, pb_bytes_sent: 197306, empty_pb_msgs: 195, app_msgs_sent: 726, el_acked_events: 726, recovery_collect: [], recovery_total: [], checkpoints: 4 }",
    "RankStats { pb_send_time: 8.101ms, pb_recv_time: 8.555ms, pb_events_sent: 11775, pb_bytes_sent: 182830, empty_pb_msgs: 200, app_msgs_sent: 732, el_acked_events: 732, recovery_collect: [], recovery_total: [], checkpoints: 3 }",
    "RankStats { pb_send_time: 8.647ms, pb_recv_time: 8.606ms, pb_events_sent: 12220, pb_bytes_sent: 189108, empty_pb_msgs: 535, app_msgs_sent: 1086, el_acked_events: 726, recovery_collect: [1.285ms], recovery_total: [116.771ms], checkpoints: 3 }",
    "RankStats { pb_send_time: 8.287ms, pb_recv_time: 8.608ms, pb_events_sent: 12094, pb_bytes_sent: 187020, empty_pb_msgs: 170, app_msgs_sent: 738, el_acked_events: 738, recovery_collect: [], recovery_total: [], checkpoints: 3 }",
    "RankStats { pb_send_time: 8.997ms, pb_recv_time: 8.529ms, pb_events_sent: 13322, pb_bytes_sent: 205476, empty_pb_msgs: 155, app_msgs_sent: 726, el_acked_events: 726, recovery_collect: [], recovery_total: [], checkpoints: 2 }",
    "RankStats { pb_send_time: 8.552ms, pb_recv_time: 8.355ms, pb_events_sent: 12507, pb_bytes_sent: 193226, empty_pb_msgs: 160, app_msgs_sent: 732, el_acked_events: 732, recovery_collect: [], recovery_total: [], checkpoints: 2 }",
    "RankStats { pb_send_time: 8.285ms, pb_recv_time: 8.364ms, pb_events_sent: 12075, pb_bytes_sent: 186742, empty_pb_msgs: 163, app_msgs_sent: 726, el_acked_events: 726, recovery_collect: [], recovery_total: [], checkpoints: 2 }",
    "RankStats { pb_send_time: 9.052ms, pb_recv_time: 8.370ms, pb_events_sent: 13446, pb_bytes_sent: 207108, empty_pb_msgs: 190, app_msgs_sent: 744, el_acked_events: 744, recovery_collect: [], recovery_total: [], checkpoints: 3 }",
    "RankStats { pb_send_time: 9.454ms, pb_recv_time: 8.522ms, pb_events_sent: 14154, pb_bytes_sent: 218116, empty_pb_msgs: 156, app_msgs_sent: 726, el_acked_events: 726, recovery_collect: [], recovery_total: [], checkpoints: 3 }",
    "RankStats { pb_send_time: 8.409ms, pb_recv_time: 8.827ms, pb_events_sent: 12274, pb_bytes_sent: 189888, empty_pb_msgs: 180, app_msgs_sent: 732, el_acked_events: 732, recovery_collect: [], recovery_total: [], checkpoints: 3 }",
    "RankStats { pb_send_time: 8.194ms, pb_recv_time: 8.883ms, pb_events_sent: 11881, pb_bytes_sent: 184258, empty_pb_msgs: 163, app_msgs_sent: 726, el_acked_events: 726, recovery_collect: [], recovery_total: [], checkpoints: 2 }",
    "RankStats { pb_send_time: 8.962ms, pb_recv_time: 8.874ms, pb_events_sent: 13245, pb_bytes_sent: 204554, empty_pb_msgs: 170, app_msgs_sent: 738, el_acked_events: 738, recovery_collect: [], recovery_total: [], checkpoints: 3 }",
    "RankStats { pb_send_time: 9.020ms, pb_recv_time: 8.544ms, pb_events_sent: 13374, pb_bytes_sent: 206572, empty_pb_msgs: 155, app_msgs_sent: 726, el_acked_events: 726, recovery_collect: [], recovery_total: [], checkpoints: 2 }",
    "RankStats { pb_send_time: 8.679ms, pb_recv_time: 8.507ms, pb_events_sent: 12769, pb_bytes_sent: 197118, empty_pb_msgs: 169, app_msgs_sent: 732, el_acked_events: 732, recovery_collect: [], recovery_total: [], checkpoints: 3 }",
    "RankStats { pb_send_time: 8.613ms, pb_recv_time: 8.517ms, pb_events_sent: 12636, pb_bytes_sent: 195264, empty_pb_msgs: 167, app_msgs_sent: 726, el_acked_events: 726, recovery_collect: [], recovery_total: [], checkpoints: 2 }",
];
const CUT: [&str; 16] = [
    "RankStats { pb_send_time: 4.708ms, pb_recv_time: 4.940ms, pb_events_sent: 6705, pb_bytes_sent: 104006, empty_pb_msgs: 168, app_msgs_sent: 492, el_acked_events: 493, recovery_collect: [], recovery_total: [], checkpoints: 2 }",
    "RankStats { pb_send_time: 5.104ms, pb_recv_time: 4.779ms, pb_events_sent: 7499, pb_bytes_sent: 115526, empty_pb_msgs: 168, app_msgs_sent: 482, el_acked_events: 482, recovery_collect: [], recovery_total: [], checkpoints: 2 }",
    "RankStats { pb_send_time: 4.587ms, pb_recv_time: 4.925ms, pb_events_sent: 6516, pb_bytes_sent: 101252, empty_pb_msgs: 165, app_msgs_sent: 486, el_acked_events: 485, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 4.692ms, pb_recv_time: 4.867ms, pb_events_sent: 6732, pb_bytes_sent: 104248, empty_pb_msgs: 151, app_msgs_sent: 481, el_acked_events: 476, recovery_collect: [1.285ms], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 4.566ms, pb_recv_time: 4.891ms, pb_events_sent: 6480, pb_bytes_sent: 100452, empty_pb_msgs: 146, app_msgs_sent: 490, el_acked_events: 491, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 5.116ms, pb_recv_time: 4.863ms, pb_events_sent: 7433, pb_bytes_sent: 114690, empty_pb_msgs: 138, app_msgs_sent: 484, el_acked_events: 483, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 4.865ms, pb_recv_time: 4.818ms, pb_events_sent: 6973, pb_bytes_sent: 107662, empty_pb_msgs: 138, app_msgs_sent: 487, el_acked_events: 487, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 4.601ms, pb_recv_time: 4.825ms, pb_events_sent: 6546, pb_bytes_sent: 101276, empty_pb_msgs: 145, app_msgs_sent: 484, el_acked_events: 483, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 5.046ms, pb_recv_time: 4.864ms, pb_events_sent: 7358, pb_bytes_sent: 113504, empty_pb_msgs: 164, app_msgs_sent: 493, el_acked_events: 495, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 5.630ms, pb_recv_time: 5.007ms, pb_events_sent: 8378, pb_bytes_sent: 129072, empty_pb_msgs: 142, app_msgs_sent: 484, el_acked_events: 483, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 4.757ms, pb_recv_time: 5.174ms, pb_events_sent: 6804, pb_bytes_sent: 105516, empty_pb_msgs: 159, app_msgs_sent: 487, el_acked_events: 487, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 4.786ms, pb_recv_time: 5.272ms, pb_events_sent: 6869, pb_bytes_sent: 106566, empty_pb_msgs: 148, app_msgs_sent: 484, el_acked_events: 483, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 5.503ms, pb_recv_time: 5.298ms, pb_events_sent: 8117, pb_bytes_sent: 125126, empty_pb_msgs: 141, app_msgs_sent: 490, el_acked_events: 491, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 5.344ms, pb_recv_time: 5.030ms, pb_events_sent: 7856, pb_bytes_sent: 121348, empty_pb_msgs: 135, app_msgs_sent: 484, el_acked_events: 483, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 5.087ms, pb_recv_time: 4.960ms, pb_events_sent: 7400, pb_bytes_sent: 114224, empty_pb_msgs: 137, app_msgs_sent: 487, el_acked_events: 487, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
    "RankStats { pb_send_time: 5.088ms, pb_recv_time: 4.983ms, pb_events_sent: 7418, pb_bytes_sent: 114416, empty_pb_msgs: 146, app_msgs_sent: 484, el_acked_events: 483, recovery_collect: [], recovery_total: [], checkpoints: 1 }",
];
