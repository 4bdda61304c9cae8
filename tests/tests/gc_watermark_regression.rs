//! Regression: when checkpoint images take longer to transfer than the
//! checkpoint period, several images overlap in flight. The commit
//! acknowledgement of version N must trigger sender-log pruning with
//! version N's receive watermarks — pruning with a newer in-flight
//! version's watermarks deletes payloads that a victim restored from N
//! still needs, wedging its replay forever. (Found by the ablation
//! harness at default scale; fixed by keying GC watermarks per version.)

use std::sync::Arc;

use vlog_core::{CausalSuite, PessimisticSuite, Technique};
use vlog_sim::SimDuration;
use vlog_vmpi::{app, run_cluster, ClusterConfig, FaultPlan, Payload, RecvSelector, Suite};

/// Ring with a deliberately huge checkpoint state (6 MB ≈ 0.5 s of wire
/// time) and a checkpoint period far below that, so images always overlap.
fn heavy_state_ring(iters: u64) -> vlog_vmpi::AppSpec {
    app(move |mpi| async move {
        let n = mpi.size();
        let me = mpi.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let start = match mpi.restored() {
            Some(b) => u64::from_le_bytes(b[..8].try_into().unwrap()),
            None => 0,
        };
        for it in start..iters {
            let mut state = Payload::new(it.to_le_bytes().to_vec());
            state.pad = 6 << 20;
            mpi.checkpoint_point(state).await;
            let m = mpi
                .sendrecv(
                    right,
                    0,
                    Payload::new(vec![(it & 0xff) as u8]),
                    RecvSelector::of(left, 0),
                )
                .await;
            assert_eq!(
                m.payload.data[0],
                (it & 0xff) as u8,
                "rank {me} it {it} start {start}"
            );
            mpi.elapse(SimDuration::from_millis(5)).await;
        }
    })
}

fn run_with(suite: Arc<dyn Suite>) {
    let mut cfg = ClusterConfig::new(3);
    cfg.detect_delay = SimDuration::from_millis(20);
    cfg.event_limit = Some(80_000_000);
    // Generous horizon: pre-fix the replay never ends at all.
    cfg.time_limit = Some(SimDuration::from_secs(600));
    let faults = FaultPlan::kill_at(SimDuration::from_millis(1_200), 0);
    let report = run_cluster(&cfg, suite, heavy_state_ring(200), &faults);
    assert!(
        report.completed,
        "victim wedged: recovery starved by over-pruned sender logs"
    );
    assert!(report.all_landed(&faults), "{:?}", report.fired);
    assert_eq!(report.rank_stats[0].recovery_total.len(), 1);
}

#[test]
fn causal_recovery_survives_overlapping_checkpoint_images() {
    run_with(Arc::new(
        CausalSuite::new(Technique::Vcausal, true).with_checkpoints(SimDuration::from_millis(150)),
    ));
}

#[test]
fn pessimistic_recovery_survives_overlapping_checkpoint_images() {
    run_with(Arc::new(
        PessimisticSuite::new().with_checkpoints(SimDuration::from_millis(150)),
    ));
}
