//! End-to-end protocol tests on the simulated cluster: fault-free
//! correctness of all protocol configurations, checkpointing, crash
//! recovery with replay validation, and global rollback.

use std::sync::Arc;

use vlog_core::{CausalSuite, CoordinatedSuite, PessimisticSuite, Technique};
use vlog_sim::{Counter, SimDuration};
use vlog_vmpi::{
    app, run_cluster, AppSpec, ClusterConfig, FaultPlan, Payload, RecvSelector, Suite,
};

/// Deterministic per-(rank, iteration) message content.
fn token(rank: usize, it: u64) -> Vec<u8> {
    let mut v = vec![rank as u8, (it & 0xff) as u8, (it >> 8) as u8];
    v.push((rank as u64 * 31 + it * 7) as u8);
    v
}

/// Ring exchange with application-level checkpoints and in-program
/// validation: every receive asserts the exact bytes the left neighbour
/// must have sent for that iteration, which catches any replay or
/// rollback inconsistency.
fn ring_program(iters: u64) -> AppSpec {
    app(move |mpi| async move {
        let n = mpi.size();
        let me = mpi.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let start = match mpi.restored() {
            Some(bytes) => u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            None => 0,
        };
        for it in start..iters {
            mpi.checkpoint_point(Payload::new(it.to_le_bytes().to_vec()))
                .await;
            let m = mpi
                .sendrecv(
                    right,
                    0,
                    Payload::new(token(me, it)),
                    RecvSelector::of(left, 0),
                )
                .await;
            assert_eq!(
                m.payload.data.to_vec(),
                token(left, it),
                "rank {me} iteration {it}: wrong replayed content"
            );
        }
    })
}

fn cfg(n: usize) -> ClusterConfig {
    let mut c = ClusterConfig::new(n);
    c.event_limit = Some(20_000_000);
    c
}

fn all_causal_suites() -> Vec<Arc<dyn Suite>> {
    let mut suites: Vec<Arc<dyn Suite>> = Vec::new();
    for technique in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
        for el in [true, false] {
            suites.push(Arc::new(CausalSuite::new(technique, el)));
        }
    }
    suites
}

#[test]
fn all_causal_configs_run_fault_free() {
    for suite in all_causal_suites() {
        let name = suite.name();
        let report = run_cluster(&cfg(4), suite, ring_program(20), &FaultPlan::none());
        assert!(report.completed, "{name} did not complete");
        // Causality was piggybacked...
        assert!(
            report.stats.bytes.piggyback > 0,
            "{name}: no piggyback recorded"
        );
        // ... and events were counted.
        let events: u64 = report.rank_stats.iter().map(|s| s.pb_events_sent).sum();
        assert!(events > 0, "{name}: no events piggybacked");
    }
}

#[test]
fn event_logger_shrinks_piggyback_volume() {
    for technique in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
        let run = |el: bool| {
            run_cluster(
                &cfg(4),
                Arc::new(CausalSuite::new(technique, el)),
                ring_program(60),
                &FaultPlan::none(),
            )
        };
        let with_el = run(true);
        let without = run(false);
        assert!(with_el.completed && without.completed);
        assert!(
            with_el.stats.bytes.piggyback < without.stats.bytes.piggyback,
            "{technique:?}: EL should reduce piggyback bytes ({} vs {})",
            with_el.stats.bytes.piggyback,
            without.stats.bytes.piggyback
        );
    }
}

#[test]
fn scheduled_checkpoints_are_taken_and_committed() {
    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true).with_checkpoints(SimDuration::from_millis(5)),
    );
    let report = run_cluster(&cfg(3), suite, ring_program(120), &FaultPlan::none());
    assert!(report.completed);
    let total: u64 = report.rank_stats.iter().map(|s| s.checkpoints).sum();
    assert!(total >= 3, "expected checkpoints, got {total}");
}

fn recovery_case(suite: Arc<dyn Suite>, n: usize, iters: u64, kill_ms: u64) {
    let name = suite.name();
    let mut c = cfg(n);
    c.detect_delay = SimDuration::from_millis(10);
    let faults = FaultPlan::kill_at(SimDuration::from_millis(kill_ms), 0);
    let report = run_cluster(&c, suite, ring_program(iters), &faults);
    assert!(report.completed, "{name}: run with fault did not complete");
    assert!(report.all_landed(&faults), "{name}: {:?}", report.fired);
    // The victim recovered (or everyone rolled back).
    let recoveries: usize = report
        .rank_stats
        .iter()
        .map(|s| s.recovery_total.len())
        .sum();
    assert!(recoveries >= 1, "{name}: no recovery recorded");
}

#[test]
fn causal_with_el_recovers_from_a_crash() {
    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true).with_checkpoints(SimDuration::from_millis(4)),
    );
    recovery_case(suite, 3, 80, 8);
}

#[test]
fn causal_without_el_recovers_from_peers() {
    let suite = Arc::new(
        CausalSuite::new(Technique::Manetho, false).with_checkpoints(SimDuration::from_millis(4)),
    );
    recovery_case(suite, 3, 80, 8);
}

#[test]
fn logon_with_el_recovers_from_a_crash() {
    let suite = Arc::new(
        CausalSuite::new(Technique::LogOn, true).with_checkpoints(SimDuration::from_millis(4)),
    );
    recovery_case(suite, 4, 60, 7);
}

#[test]
fn recovery_without_any_checkpoint_replays_from_scratch() {
    // No checkpoint scheduler: the victim restarts from the beginning and
    // replays its entire history.
    let suite = Arc::new(CausalSuite::new(Technique::Vcausal, true));
    recovery_case(suite, 3, 40, 5);
}

#[test]
fn pessimistic_recovers_from_a_crash() {
    let suite = Arc::new(PessimisticSuite::new().with_checkpoints(SimDuration::from_millis(4)));
    recovery_case(suite, 3, 60, 8);
}

#[test]
fn coordinated_rolls_everyone_back() {
    let suite = Arc::new(CoordinatedSuite::new(SimDuration::from_millis(5)));
    let mut c = cfg(3);
    c.detect_delay = SimDuration::from_millis(10);
    let faults = FaultPlan::kill_at(SimDuration::from_millis(12), 1);
    let report = run_cluster(&c, suite, ring_program(250), &faults);
    assert!(report.completed, "coordinated run did not complete");
    assert!(report.all_landed(&faults), "{:?}", report.fired);
    assert!(
        report.stats.counter(Counter::GlobalRollbacks) >= 1,
        "no rollback happened"
    );
}

#[test]
fn two_sequential_faults_are_survived() {
    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true).with_checkpoints(SimDuration::from_millis(4)),
    );
    let mut c = cfg(3);
    c.detect_delay = SimDuration::from_millis(10);
    let faults = FaultPlan::kill_at(SimDuration::from_millis(6), 0)
        .then_kill(SimDuration::from_millis(25), 2);
    let report = run_cluster(&c, suite, ring_program(250), &faults);
    assert!(report.completed, "second fault broke the run");
    assert!(report.all_landed(&faults), "{:?}", report.fired);
    let recoveries: usize = report
        .rank_stats
        .iter()
        .map(|s| s.recovery_total.len())
        .sum();
    assert!(recoveries >= 2);
}

#[test]
fn recovery_collect_metric_is_recorded() {
    // Figure 10's metric: time to recover the events to replay.
    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true).with_checkpoints(SimDuration::from_millis(4)),
    );
    let mut c = cfg(3);
    c.detect_delay = SimDuration::from_millis(10);
    let faults = FaultPlan::kill_at(SimDuration::from_millis(10), 0);
    let report = run_cluster(&c, suite, ring_program(80), &faults);
    assert!(report.completed);
    assert!(report.all_landed(&faults), "{:?}", report.fired);
    let collects = &report.rank_stats[0].recovery_collect;
    assert_eq!(collects.len(), 1, "one collection phase expected");
    assert!(collects[0].as_nanos() > 0);
}

#[test]
fn faulted_runs_are_deterministic() {
    let run = || {
        let suite = Arc::new(
            CausalSuite::new(Technique::Manetho, true)
                .with_checkpoints(SimDuration::from_millis(4)),
        );
        let mut c = cfg(3);
        c.detect_delay = SimDuration::from_millis(10);
        let faults = FaultPlan::kill_at(SimDuration::from_millis(9), 1);
        run_cluster(&c, suite, ring_program(60), &faults)
    };
    let a = run();
    let b = run();
    assert!(a.completed && b.completed);
    assert_eq!(a.fired.len(), 1, "the kill did not fire");
    assert_eq!(a.fired, b.fired);
    assert_eq!(a.makespan.as_nanos(), b.makespan.as_nanos());
    assert_eq!(a.stats.messages, b.stats.messages);
    assert_eq!(a.stats.bytes.piggyback, b.stats.bytes.piggyback);
}
