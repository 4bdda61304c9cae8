//! Regression: coordinated-checkpoint markers must not storm between
//! finished ranks.
//!
//! A rank whose program has ended can never reach another checkpoint
//! point, so on seeing a snapshot it closes its channels by sending
//! markers to every peer. Before the fix it did that for *every
//! incoming marker*: two finished ranks answered each other's markers
//! with full marker broadcasts, each reply triggering the next, and the
//! run drowned in control traffic (the bursty service at 16 ranks
//! generated over a million marker messages and gigabytes of queued
//! events before the event cap tripped). A finished rank must close its
//! channels at most once per snapshot id.
//!
//! The repro needs ranks that finish at staggered times while snapshots
//! keep being commanded — exactly the bursty service's shape: clients
//! drain their rounds and exit while the server keeps serving.

use std::sync::Arc;

use vlog_core::CoordinatedSuite;
use vlog_sim::SimDuration;
use vlog_vmpi::{ClusterConfig, FaultPlan};
use vlog_workloads::{run_workload, BurstyConfig, Workload};

#[test]
fn finished_ranks_close_each_snapshot_exactly_once() {
    let w = BurstyConfig::new(8, 3, 11).with_servers(2);
    let mut cfg = ClusterConfig::new(w.np());
    // Low event cap: the storm used to blow through tens of millions of
    // events; a healthy run needs well under one million.
    cfg.event_limit = Some(2_000_000);
    let run = run_workload(
        &w,
        &cfg,
        Arc::new(CoordinatedSuite::new(SimDuration::from_millis(2))),
        &FaultPlan::none(),
    );
    assert!(run.completed, "coordinated bursty did not complete");
    // Marker traffic is bounded by snapshots x ranks^2; the storm was
    // two orders of magnitude above this.
    let snapshots = run.makespan.as_secs_f64() / 2e-3;
    let bound = (snapshots as u64 + 8) * (w.np() * w.np()) as u64 * 4;
    assert!(
        run.stats.messages < bound,
        "marker storm: {} messages for ~{:.0} snapshots on {} ranks",
        run.stats.messages,
        snapshots,
        w.np()
    );
}
