//! Determinism regression: the simulation kernel is seeded and
//! single-threaded, so two runs of the same configuration must agree on
//! **every** observable — virtual makespan, event count, kernel byte
//! counters and per-rank protocol statistics. This is the paper's
//! replay/determinant-stability claim in its strongest testable form:
//! if any protocol consulted unseeded state (hash order, wall clock,
//! address-dependent ordering), the fingerprints would diverge.
//!
//! Divergence is reported structurally through [`vlog_sim::diff`]: the
//! failure message pinpoints the first differing report and the first
//! differing character inside it, instead of dumping two full report
//! vectors to eyeball.

use std::sync::Arc;

use vlog_bench::{run_many, SuiteKind};
use vlog_core::{CausalSuite, CoordinatedSuite, PbFormat, PessimisticSuite, Technique};
use vlog_sim::{diff, SimDuration};
use vlog_vmpi::{
    app, run_cluster, AppSpec, ClusterConfig, FaultPlan, Payload, RecvSelector, RunReport, Suite,
};
use vlog_workloads::runner::faults;
use vlog_workloads::{
    mflops, net_axes, registry, run_workload, BurstyConfig, NetAxis, RegistryScale, Workload,
};

const N: usize = 3;
const ITERS: u64 = 15;

/// Ring sendrecv with periodic checkpoints: enough traffic to exercise
/// piggybacking, logging and (under a fault) recovery on every suite.
fn program() -> AppSpec {
    app(move |mpi| async move {
        let me = mpi.rank();
        let n = mpi.size();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let start = match mpi.restored() {
            Some(b) => u64::from_le_bytes(b[..8].try_into().unwrap()),
            None => 0,
        };
        for it in start..ITERS {
            mpi.checkpoint_point(Payload::new(it.to_le_bytes().to_vec()))
                .await;
            let byte = (me as u8).wrapping_add((it & 0xff) as u8);
            let _ = mpi
                .sendrecv(
                    right,
                    0,
                    Payload::new(vec![byte, me as u8]),
                    RecvSelector::of(left, 0),
                )
                .await;
        }
    })
}

fn run_once(suite: Arc<dyn Suite>, with_fault: bool) -> String {
    run_report(suite, with_fault, false).fingerprint()
}

fn run_report(suite: Arc<dyn Suite>, with_fault: bool, export_liveness: bool) -> RunReport {
    let mut cfg = ClusterConfig::new(N);
    cfg.detect_delay = SimDuration::from_millis(8);
    cfg.event_limit = Some(50_000_000);
    cfg.export_liveness = export_liveness;
    // The ring completes in about 3 ms, so the kill lands mid-run at 1 ms.
    let faults = if with_fault {
        FaultPlan::kill_at(SimDuration::from_millis(1), 1)
    } else {
        FaultPlan::none()
    };
    let report = run_cluster(&cfg, suite, program(), &faults);
    assert!(report.completed, "{} did not complete", report.suite);
    assert!(
        report.all_landed(&faults),
        "{}: the fault did not land: {:?}",
        report.suite,
        report.fired
    );
    report
}

fn assert_deterministic(mk: impl Fn() -> Arc<dyn Suite> + Send + Sync, with_fault: bool) {
    // Both identical runs go through the sweep driver on two worker
    // threads: determinism must hold per run, and the sweep must return
    // results in job order regardless of which worker finished first.
    let both = run_many(vec![(), ()], 2, |_| run_once(mk(), with_fault));
    diff::assert_reports_identical(
        &format!("same-seed-twice(fault={with_fault})"),
        &both[..1],
        &both[1..],
    );
}

/// The six causal configurations of the paper's comparison.
fn causal_suites() -> Vec<(Technique, bool)> {
    let mut v = Vec::new();
    for el in [true, false] {
        for technique in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
            v.push((technique, el));
        }
    }
    v
}

#[test]
fn causal_suites_are_deterministic_fault_free() {
    for (technique, el) in causal_suites() {
        assert_deterministic(
            || {
                Arc::new(
                    CausalSuite::new(technique, el).with_checkpoints(SimDuration::from_millis(6)),
                )
            },
            false,
        );
    }
}

#[test]
fn causal_suites_are_deterministic_through_recovery() {
    for (technique, el) in causal_suites() {
        assert_deterministic(
            || {
                Arc::new(
                    CausalSuite::new(technique, el).with_checkpoints(SimDuration::from_millis(6)),
                )
            },
            true,
        );
    }
}

#[test]
fn pessimistic_suite_is_deterministic() {
    for with_fault in [false, true] {
        assert_deterministic(
            || Arc::new(PessimisticSuite::new().with_checkpoints(SimDuration::from_millis(6))),
            with_fault,
        );
    }
}

#[test]
fn coordinated_suite_is_deterministic() {
    for with_fault in [false, true] {
        assert_deterministic(
            || Arc::new(CoordinatedSuite::new(SimDuration::from_millis(6))),
            with_fault,
        );
    }
}

/// One suite configuration of the cross-thread sweep, by index (jobs
/// must be `Send`, so they carry an index and build the suite in-job
/// via the shared [`SuiteKind`] enumeration).
fn suite_for(idx: usize) -> Arc<dyn Suite> {
    SuiteKind::all_eight()[idx].build(SimDuration::from_millis(6))
}

/// Cross-thread determinism: the same seed set swept through `run_many`
/// on 1 worker thread and on N worker threads must produce byte-identical
/// reports in the same order. This is the contract the figure benches
/// rely on when they shard their grids.
#[test]
fn sweep_reports_are_identical_across_thread_counts() {
    let jobs: Vec<(usize, bool)> = (0..8usize)
        .flat_map(|idx| [(idx, false), (idx, true)])
        .collect();
    let runner = |(idx, with_fault): (usize, bool)| run_once(suite_for(idx), with_fault);
    let sequential = run_many(jobs.clone(), 1, runner);
    for threads in [2usize, 4] {
        let sharded = run_many(jobs.clone(), threads, runner);
        diff::assert_reports_identical(
            &format!("sweep-{threads}-threads-vs-1"),
            &sequential,
            &sharded,
        );
    }
}

/// Profiling must observe, never perturb: the same eight-suite sweep
/// (fault-free and faulted) with the kernel's self-profiling scopes
/// force-enabled must report byte-identically to the plain sweep, on 1,
/// 2 and 4 worker threads. Wall-clock readings stay in the profiler's
/// thread-local accumulators and never reach a `RunReport`; this pins
/// that contract.
#[test]
fn profiling_does_not_perturb_reports_across_thread_counts() {
    let jobs: Vec<(usize, bool)> = (0..8usize)
        .flat_map(|idx| [(idx, false), (idx, true)])
        .collect();
    let runner = |(idx, with_fault): (usize, bool)| run_once(suite_for(idx), with_fault);
    let plain = run_many(jobs.clone(), 1, runner);
    vlog_sim::profiler::set_enabled(true);
    for threads in [1usize, 2, 4] {
        let profiled = run_many(jobs.clone(), threads, runner);
        diff::assert_reports_identical(
            &format!("profiled-{threads}-threads-vs-plain"),
            &plain,
            &profiled,
        );
    }
    vlog_sim::profiler::set_enabled(false);
}

/// The causality log must observe, never perturb: the same eight-suite
/// sweep (fault-free and faulted) with every run collecting and
/// exporting its own log must fingerprint byte-identically to the plain
/// sweep, on 1, 2 and 4 worker threads. The log belongs to the run, so
/// which worker ran it cannot matter, and nothing of it enters a
/// fingerprint — this pins that contract, the same one the profiler
/// test above pins for timing scopes. The verdicts themselves must not
/// move either: every run's `LivenessReport` prints the same on 1, 2
/// and 4 threads as in a first sequential pass, so no container order
/// (the log keeps hash maps) leaks into what a run reports.
#[test]
fn causality_log_does_not_perturb_reports_across_thread_counts() {
    let jobs: Vec<(usize, bool)> = (0..8usize)
        .flat_map(|idx| [(idx, false), (idx, true)])
        .collect();
    let plain = run_many(jobs.clone(), 1, |(idx, with_fault)| {
        run_once(suite_for(idx), with_fault)
    });
    let logged_sweep = |threads: usize| -> (Vec<String>, Vec<String>) {
        run_many(jobs.clone(), threads, |(idx, with_fault)| {
            let report = run_report(suite_for(idx), with_fault, true);
            let live = report.liveness.as_ref().expect("liveness exported");
            assert!(live.produced_events > 0, "{} logged nothing", report.suite);
            (report.fingerprint(), format!("{live:?}"))
        })
        .into_iter()
        .unzip()
    };
    let (_, first_verdicts) = logged_sweep(1);
    for threads in [1usize, 2, 4] {
        let (logged, verdicts) = logged_sweep(threads);
        diff::assert_reports_identical(
            &format!("causality-{threads}-threads-vs-plain"),
            &plain,
            &logged,
        );
        diff::assert_reports_identical(
            &format!("liveness-{threads}-threads-vs-first-sequential-pass"),
            &first_verdicts,
            &verdicts,
        );
    }
}

/// FNV-1a of the fingerprint of each of the eight suites, fault-free and
/// with rank 1 killed in mid-run, captured at the commit before a run's
/// schedule became data on its config (a factory closure then, nothing
/// installed by default).
const NO_SCHEDULE: [[u64; 2]; 8] = [
    [0x8800a5075dcac7dc, 0x214977578818a2bd],
    [0x780dc77faed7913a, 0x68bc51e8e61e786e],
    [0xbd185295d78ad56f, 0x56d84000e2278d4f],
    [0x8cf2b64f626ea5dc, 0x700c748279109792],
    [0x64f7543a89e29c7b, 0xde899bbabaeec95f],
    [0x8673cdd9f40dbe8b, 0xcb119f1d2c41316e],
    [0x46d9b668262d300a, 0x2c942bfe23b5593a],
    [0x7bf393a7b7cc6633, 0x12b0d5028a72a0ec],
];

/// An empty `ClusterConfig::schedule` is the unperturbed run, byte for
/// byte what it was before the field existed: no script reaches the
/// kernel, nothing is recorded as applied. Seeded jitter (ROADMAP item 3)
/// will be non-empty values of that field; this pins "jitter off".
#[test]
fn an_empty_schedule_is_the_unperturbed_run_on_every_suite() {
    for (idx, pinned) in NO_SCHEDULE.iter().enumerate() {
        for with_fault in [false, true] {
            let mut cfg = ClusterConfig::new(N);
            cfg.detect_delay = SimDuration::from_millis(8);
            cfg.schedule = Vec::new();
            let faults = if with_fault {
                FaultPlan::kill_at(SimDuration::from_millis(1), 1)
            } else {
                FaultPlan::none()
            };
            let report = run_cluster(&cfg, suite_for(idx), program(), &faults);
            assert!(report.completed, "{} did not complete", report.suite);
            assert!(report.all_landed(&faults), "{:?}", report.fired);
            assert!(report.applied.is_empty());
            let text = report.fingerprint();
            let hash = text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
            });
            assert_eq!(
                hash,
                pinned[usize::from(with_fault)],
                "suite {idx} (fault={with_fault}) moved off its pinned fingerprint {hash:#018x}: {text}"
            );
        }
    }
}

/// Registry conformance: every registered workload, under every one of
/// the eight suite configurations, with a rank killed mid-run, must
/// (a) run to completion (the protocols recover it), (b) move piggyback
/// bytes under the causal suites, and (c) produce byte-identical
/// reports whether the sweep ran on 1, 2 or 4 `run_many` threads.
///
/// This is the contract that lets every harness iterate the registry
/// blindly: any workload someone registers is proven fault-tolerant
/// and determinism-safe here before a figure ever sweeps it.
#[test]
fn registered_workloads_survive_faults_on_every_suite_deterministically() {
    let workloads = registry(RegistryScale::Smoke);
    let jobs: Vec<(Arc<dyn Workload>, usize)> = workloads
        .iter()
        .flat_map(|w| (0..8usize).map(move |idx| (w.clone(), idx)))
        .collect();
    let runner = |(w, idx): (Arc<dyn Workload>, usize)| {
        let kind = SuiteKind::all_eight()[idx];
        let mut cfg = ClusterConfig::new(w.np());
        cfg.detect_delay = SimDuration::from_millis(8);
        cfg.event_limit = Some(50_000_000);
        let fault = FaultPlan::kill_at(SimDuration::from_millis(5), 1);
        let run = run_workload(
            w.as_ref(),
            &cfg,
            kind.build(SimDuration::from_millis(6)),
            &fault,
        );
        assert!(
            run.completed,
            "{} under {} did not complete through the fault",
            w.label(),
            kind.label()
        );
        assert!(
            run.all_landed(&fault),
            "{} under {}: the kill did not land: {:?}",
            w.label(),
            kind.label(),
            run.fired
        );
        assert!(
            mflops(w.total_flops(), run.makespan).is_finite(),
            "{} reported a non-finite Mflop/s",
            w.label()
        );
        if kind.is_causal() {
            assert!(
                run.stats.bytes.piggyback > 0,
                "{} under {} moved no piggyback bytes",
                w.label(),
                kind.label()
            );
        }
        format!(
            "workload={} recorded={:?} {}",
            w.label(),
            run.recorded,
            run.fingerprint()
        )
    };
    let sequential = run_many(jobs.clone(), 1, runner);
    for threads in [2usize, 4] {
        let sharded = run_many(jobs.clone(), threads, runner);
        diff::assert_reports_identical(
            &format!("registry-sweep-{threads}-threads-vs-1"),
            &sequential,
            &sharded,
        );
    }
}

/// Scaled-regime conformance: every `Scale::Large` registry entry —
/// multi-server bursty, the large seeded halo graphs, the deep-tiling
/// FFT ladder, NAS and NetPIPE at 16 ranks — under every one of the
/// eight suite configurations, with a **hub-failure** fault plan (the
/// workload's most load-bearing rank killed mid-run: the highest-degree
/// halo rank, the busiest bursty server). Every cell must complete
/// through the fault and the whole sweep must report byte-identically
/// on 1, 2 and 4 `run_many` threads — the contract the `regimes` bench
/// and the committed `REPORT.md` rely on.
#[test]
fn large_registry_survives_hub_failures_on_every_suite_deterministically() {
    let workloads = registry(RegistryScale::Large);
    let jobs: Vec<(Arc<dyn Workload>, usize)> = workloads
        .iter()
        .flat_map(|w| (0..8usize).map(move |idx| (w.clone(), idx)))
        .collect();
    let runner = |(w, idx): (Arc<dyn Workload>, usize)| {
        let kind = SuiteKind::all_eight()[idx];
        let mut cfg = ClusterConfig::new(w.np());
        cfg.detect_delay = SimDuration::from_millis(8);
        cfg.event_limit = Some(50_000_000);
        let plan = faults::hub_failure(w.as_ref(), SimDuration::from_millis(5));
        assert_eq!(
            plan.faults,
            vec![(SimDuration::from_millis(5), w.hub_rank())]
        );
        let run = run_workload(
            w.as_ref(),
            &cfg,
            kind.build(SimDuration::from_millis(6)),
            &plan,
        );
        assert!(
            run.completed,
            "{} under {} did not recover from its hub failure (rank {})",
            w.label(),
            kind.label(),
            w.hub_rank()
        );
        assert!(
            run.all_landed(&plan),
            "{} under {}: the hub failure did not land: {:?}",
            w.label(),
            kind.label(),
            run.fired
        );
        if kind.is_causal() {
            assert!(
                run.stats.bytes.piggyback > 0,
                "{} under {} moved no piggyback bytes",
                w.label(),
                kind.label()
            );
        }
        format!(
            "workload={} hub={} recorded={:?} {}",
            w.label(),
            w.hub_rank(),
            run.recorded,
            run.fingerprint()
        )
    };
    let sequential = run_many(jobs.clone(), 1, runner);
    for threads in [2usize, 4] {
        let sharded = run_many(jobs.clone(), threads, runner);
        diff::assert_reports_identical(
            &format!("large-registry-hub-failure-sweep-{threads}-threads-vs-1"),
            &sequential,
            &sharded,
        );
    }
}

/// Compact-format × aggregated-client conformance: the bursty service
/// with thousands of modeled clients folded onto a handful of physical
/// ranks, under Vcausal+EL with the compact piggyback wire format (and
/// its send-side stability pruning), fault-free and through a
/// hub-server failure. Reports must be byte-identical on 1, 2 and 4
/// `run_many` threads — the contract behind REPORT.md's table 7: the
/// aggregated regime and the compact codec introduce no unseeded state.
#[test]
fn compact_aggregated_bursty_is_deterministic_across_thread_counts() {
    let w: Arc<dyn Workload> = Arc::new(BurstyConfig::new(6, 2, 11).with_servers(2).aggregated(64));
    let jobs: Vec<bool> = vec![false, true];
    let runner = |with_fault: bool| {
        let suite = Arc::new(
            CausalSuite::new(Technique::Vcausal, true)
                .with_checkpoints(SimDuration::from_millis(6))
                .with_pb_format(PbFormat::Compact),
        );
        let mut cfg = ClusterConfig::new(w.np());
        cfg.detect_delay = SimDuration::from_millis(8);
        cfg.event_limit = Some(50_000_000);
        let plan = if with_fault {
            faults::hub_failure(w.as_ref(), SimDuration::from_millis(5))
        } else {
            FaultPlan::none()
        };
        let run = run_workload(w.as_ref(), &cfg, suite, &plan);
        assert!(
            run.completed,
            "{} (fault={with_fault}) did not complete under the compact suite",
            w.label()
        );
        assert!(
            run.stats.bytes.piggyback > 0,
            "{} moved no piggyback bytes",
            w.label()
        );
        assert!(
            run.all_landed(&plan),
            "{}: the hub failure did not land: {:?}",
            w.label(),
            run.fired
        );
        format!(
            "agg-compact fault={with_fault} recorded={:?} {}",
            run.recorded,
            run.fingerprint()
        )
    };
    let sequential = run_many(jobs.clone(), 1, runner);
    for threads in [2usize, 4] {
        let sharded = run_many(jobs.clone(), threads, runner);
        diff::assert_reports_identical(
            &format!("compact-aggregated-sweep-{threads}-threads-vs-1"),
            &sequential,
            &sharded,
        );
    }
}

/// Net-axis conformance: the EL saturation probe under Vcausal+EL, once
/// per `NetProfile` × `el_count` axis of the registry grid, fault-free
/// and through an **EL-shard failure** (shard 0 crashed mid-run, its
/// ranks re-sharded onto the survivors, unacked batches handed off).
/// Every cell must complete, the EL-failure cells must actually record
/// a re-shard, and the whole sweep must report byte-identically on 1, 2
/// and 4 `run_many` threads — the contract behind the EL-scaling table
/// of `REPORT.md`.
#[test]
fn net_axes_are_deterministic_fault_free_and_through_el_failure() {
    let probe = registry(RegistryScale::Smoke)
        .into_iter()
        .find(|w| w.family() == "fft")
        .expect("Smoke registry always has an FFT entry");
    let jobs: Vec<(NetAxis, bool)> = net_axes(RegistryScale::Large)
        .into_iter()
        .flat_map(|a| [(a.clone(), false), (a, true)])
        .collect();
    let runner = |(axis, el_fault): (NetAxis, bool)| {
        let suite = Arc::new(
            CausalSuite::new(Technique::Vcausal, true)
                .with_checkpoints(SimDuration::from_millis(2))
                .with_distributed_el(axis.el_count, SimDuration::from_millis(2)),
        );
        let mut cfg = ClusterConfig::new(probe.np());
        cfg.detect_delay = SimDuration::from_millis(1);
        cfg.event_limit = Some(50_000_000);
        cfg.net = axis.profile.clone();
        // A single EL cannot lose a shard and keep going; those axes
        // run the fault leg fault-free so the sweep stays rectangular.
        let plan = if el_fault && axis.el_count >= 2 {
            FaultPlan::kill_el_at(SimDuration::from_millis(5), 0)
        } else {
            FaultPlan::none()
        };
        let run = run_workload(probe.as_ref(), &cfg, suite, &plan);
        assert!(
            run.completed,
            "{} on {} (el_fault={el_fault}) did not complete",
            probe.label(),
            axis.label()
        );
        assert!(
            run.all_landed(&plan),
            "{} on {}: the shard kill did not land: {:?}",
            probe.label(),
            axis.label(),
            run.fired
        );
        if el_fault && axis.el_count >= 2 {
            assert!(
                run.el_reshards() >= 1,
                "{} on {}: EL shard killed but no re-shard recorded",
                probe.label(),
                axis.label()
            );
        }
        format!(
            "axis={} el_fault={el_fault} {}",
            axis.label(),
            run.fingerprint()
        )
    };
    let sequential = run_many(jobs.clone(), 1, runner);
    for threads in [2usize, 4] {
        let sharded = run_many(jobs.clone(), threads, runner);
        diff::assert_reports_identical(
            &format!("net-axes-sweep-{threads}-threads-vs-1"),
            &sequential,
            &sharded,
        );
    }
}
