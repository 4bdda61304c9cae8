//! Regression: a killed program's wake-ups die with it.
//!
//! A program wakes its daemon by staging a timer on the daemon
//! incarnation that spawned it, one per pipe write, and reports its end
//! the same way as its last act. When the rank is killed and relaunched,
//! whatever the dead program staged names a dead incarnation and is
//! dropped when it pops.
//!
//! Before, the pipe wake-up was addressed to the daemon's slot, not to an
//! incarnation. A write of 40 MiB crosses the pipe in about 105 ms, so a
//! program killed 1 ms into that crossing left a wake-up in flight that
//! landed on the relaunched daemon about 2 ms before the successor's own
//! request had crossed, and drained that request early.

use vlog_sim::{SimDuration, SimTime};
use vlog_vmpi::{
    app, run_cluster, ClusterConfig, FaultPlan, Payload, Recorded, RunReport, StackProfile,
    VdummySuite,
};

use std::sync::Arc;

const OFFER: u64 = 40 << 20;

fn ms(t: SimDuration) -> f64 {
    t.as_nanos() as f64 / 1e6
}

fn now_ms(t: SimTime) -> f64 {
    ms(t.saturating_since(SimTime::ZERO))
}

/// Two ranks under Vdummy, rank 0 killed at 1 ms and relaunched after a
/// 1 ms detection delay. Rank 0 offers a 40 MiB checkpoint (`offer`) or
/// elapses 2 ms; rank 1 ends at once. Each records its end last.
fn kill_rank0_at_1ms(offer: bool) -> RunReport {
    let mut cfg = ClusterConfig::new(2);
    cfg.detect_delay = SimDuration::from_millis(1);
    let plan = FaultPlan::kill_at(SimDuration::from_millis(1), 0);
    let report = run_cluster(
        &cfg,
        Arc::new(VdummySuite),
        app(move |mpi| async move {
            if mpi.rank() == 0 && offer {
                mpi.record("offer", 0, now_ms(mpi.time()));
                mpi.checkpoint_point(Payload::synthetic(OFFER)).await;
                mpi.record("offer", 1, now_ms(mpi.time()));
            } else if mpi.rank() == 0 {
                mpi.elapse(SimDuration::from_millis(2)).await;
            }
            mpi.record("end", mpi.rank() as u64, now_ms(mpi.time()));
        }),
        &plan,
    );
    assert!(report.completed, "the run did not complete");
    assert!(report.all_landed(&plan), "{:?}", report.fired);
    report
}

fn values(report: &RunReport, name: &str) -> Vec<(usize, u64, f64)> {
    let of = |r: &Recorded| (r.name == name).then_some((r.rank, r.key, r.value));
    report.recorded.iter().filter_map(of).collect()
}

#[test]
fn a_killed_programs_pipe_wakeup_does_not_drain_its_successors_request() {
    let report = kill_rank0_at_1ms(true);
    // The dead incarnation's records died with its pipe: both are the
    // relaunched program's.
    let offer = values(&report, "offer");
    let [(0, 0, start), (0, 1, end)] = offer[..] else {
        panic!("one offer by the relaunched program expected, got {offer:?}");
    };
    assert!(
        start >= 2.0,
        "the offer was made before the relaunch: {offer:?}"
    );
    let crossing = ms(StackProfile::vdaemon().pipe_cost(OFFER));
    assert!(
        end - start >= crossing,
        "the offer returned {:.3} ms after it was made, before its own pipe \
         crossing of {crossing:.3} ms: a dead incarnation's wake-up drained it",
        end - start
    );
}

/// A program's end is reported once, and only when it completes: the
/// program killed mid-way reports nothing, its successor reports its own
/// end, and a record made as a program's last act reaches the report
/// through that notice alone.
#[test]
fn a_programs_end_is_reported_once_and_only_on_completion() {
    let report = kill_rank0_at_1ms(false);
    let end = values(&report, "end");
    let [(1, 1, rank1), (0, 0, rank0)] = end[..] else {
        panic!("one end per rank expected, got {end:?}");
    };
    // Rank 1 ends at once; rank 0's successor starts after the 1 ms
    // detection delay and elapses 2 ms.
    assert_eq!(rank1, 0.0);
    assert!(rank0 >= 4.0, "{end:?}");
    assert_eq!(report.fired.len(), 1);
}
