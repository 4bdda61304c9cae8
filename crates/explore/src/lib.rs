//! # vlog-explore — schedule exploration over the deterministic kernel
//!
//! Model-checking-lite for the MPICH-V reproduction: the deterministic
//! simulation explores one interleaving per seed, so a protocol bug that
//! needs an adversarial message ordering can hide forever behind a lucky
//! schedule. This crate turns the kernel's schedule seam
//! ([`vlog_sim::schedule`]: a script is data on the run's
//! [`ClusterConfig`], the decisions that fired are data on its
//! [`RunReport`]) into a bounded explorer:
//!
//! 1. **Decision scripts.** A schedule is a short list of decisions
//!    `(delivery index, extra delay)`: the `index`-th payload-carrying
//!    delivery the kernel pops is deferred by `delay` (and thereby
//!    reordered behind every same-time peer). Scripts are drawn from a
//!    seeded RNG under an env-tunable budget (`VLOG_EXPLORE_DEPTH`,
//!    `VLOG_EXPLORE_SCHEDULES`, `VLOG_EXPLORE_SEED` — see [`Budget`]),
//!    deduplicated, and each distinct script is one explored schedule.
//! 2. **Scenarios.** Each explored schedule runs a full protocol cluster
//!    ([`Scenario`]): causal, pessimistic and coordinated suites over a
//!    self-validating ring program, under timed faults and faults armed
//!    on enumerated protocol-phase boundaries
//!    ([`vlog_vmpi::ProtoPhase`]).
//! 3. **Invariants.** Every run must complete within its event budget
//!    (stall detection: a run the kernel stops at the cap reports
//!    `event limit exceeded (N)` with its liveness summary), stay under
//!    a per-scenario message ceiling (storm detection), land every
//!    planned fault on a live target and recover from what fired
//!    ([`RunReport::fired`]: a rank kill under single-rank recovery
//!    completes a recovery, an EL-shard kill a re-shard), replay to a
//!    byte-identical report (determinism under perturbation), and not
//!    panic in-simulation — the ring program asserts exact per-channel
//!    payload contents, which catches any FIFO or causal-order
//!    violation, and kernel debug asserts catch clock regressions.
//! 4. **Shrinking.** A violating script is first confirmed by re-running
//!    its *recorded* decision trace (only the decisions that actually
//!    fired), then greedily minimized with the bounded DFS shrinker the
//!    vendored proptest shim exposes
//!    ([`proptest::test_runner::minimize`]). A runaway — a run the
//!    kernel stopped at its event cap — is shrunk against a lowered cap
//!    (eight times the events of the scenario's unperturbed run), so a
//!    probe costs thousands of events, not millions; the minimal script
//!    is then judged under the scenario's full cap. The result is a
//!    minimal, seed-free, replayable schedule: feeding
//!    [`Violation::raw`] back through [`Scenario::run_raw`] reproduces
//!    the violation deterministically.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::collection::{vec as vec_of, VecStrategy};
use proptest::test_runner::minimize;
use proptest::{Strategy, TestRng};
use rand::SeedableRng;
use vlog_core::{CausalSuite, CoordinatedSuite, PbFormat, PessimisticSuite, Technique};
use vlog_sim::{env_knob, Decision, SimDuration, StopReason};
use vlog_vmpi::{
    app, run_cluster, AppSpec, ClusterConfig, Fault, FaultPlan, Payload, ProtoPhase, RecoveryStyle,
    RecvSelector, RunReport, Suite,
};

/// A raw decision as drawn/shrunk: `(delivery index, extra delay in ns)`.
/// Kept as a plain tuple so the vendored proptest tuple/vec strategies
/// generate and shrink it directly.
pub type RawDecision = (u64, u64);

/// Delivery indices are drawn from `0..MAX_INDEX`. Indices beyond the
/// run's delivery count never fire (recorded traces drop them), so a
/// generous bound costs nothing.
pub const MAX_INDEX: u64 = 512;

/// Injected delays are drawn from `0..=MAX_DELTA_NS` (5 ms — the scale
/// of detection delays and checkpoint periods, so a deferral can move a
/// delivery across a protocol phase). Delay 0 still reorders: the
/// re-inserted event takes a fresh sequence number and lands behind
/// every same-time peer.
pub const MAX_DELTA_NS: u64 = 5_000_000;

/// Exploration budget, env-tunable with the shared
/// [`vlog_sim::env_knob`] warn-and-fallback contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum decisions per script (`VLOG_EXPLORE_DEPTH`).
    pub depth: usize,
    /// Total distinct schedules to explore across all scenarios
    /// (`VLOG_EXPLORE_SCHEDULES`).
    pub schedules: u64,
    /// Seed for script generation (`VLOG_EXPLORE_SEED`).
    pub seed: u64,
}

impl Budget {
    /// Reads `VLOG_EXPLORE_DEPTH` / `VLOG_EXPLORE_SCHEDULES` /
    /// `VLOG_EXPLORE_SEED`, defaulting to a CI-sized smoke budget.
    pub fn from_env() -> Budget {
        Budget {
            depth: env_knob::positive_usize_or_else("VLOG_EXPLORE_DEPTH", || 4),
            schedules: env_knob::positive_u64("VLOG_EXPLORE_SCHEDULES", 48),
            seed: env_knob::any_u64("VLOG_EXPLORE_SEED", 0x1905_2005),
        }
    }
}

/// Converts a raw script into kernel [`Decision`]s.
pub fn decisions(raw: &[RawDecision]) -> Vec<Decision> {
    raw.iter()
        .map(|&(index, delta_ns)| Decision {
            index,
            delta: SimDuration::from_nanos(delta_ns),
        })
        .collect()
}

/// The outcome of one scheduled run.
pub struct RunOutcome {
    /// Full-report fingerprint, for replay-convergence comparison.
    /// `None` when the run violated an invariant.
    pub fingerprint: Option<String>,
    /// Why the run violated an invariant, if it did.
    pub violation: Option<String>,
    /// The decisions that actually fired, in firing order — the recorded
    /// trace a confirmation run replays. A run that panicked has no
    /// report to read them from: its whole script stands in.
    pub applied: Vec<Decision>,
    /// Events the run dispatched (0 for a run that panicked).
    pub events: u64,
    /// Set when the kernel stopped the run at a limit.
    pub stopped: Option<StopReason>,
}

/// One protocol configuration the explorer perturbs: a suite, a
/// self-validating program, a fault plan and a message ceiling.
pub struct Scenario {
    /// Name for reports.
    pub name: &'static str,
    suite: Arc<dyn Suite>,
    program: AppSpec,
    cfg: ClusterConfig,
    faults: FaultPlan,
    /// Hard ceiling on kernel message count (storm detector).
    pub message_ceiling: u64,
}

/// Deterministic per-(rank, iteration) ring-message content. Every
/// receive asserts these exact bytes, so any FIFO, causal-order or
/// replay inconsistency panics inside the simulation.
fn token(rank: usize, it: u64) -> Vec<u8> {
    vec![
        rank as u8,
        (it & 0xff) as u8,
        (it >> 8) as u8,
        (rank as u64 * 31 + it * 7) as u8,
    ]
}

/// Ring exchange with application-level checkpoints and in-program
/// validation (the same self-checking shape the protocol cluster tests
/// use).
fn ring_program(iters: u64) -> AppSpec {
    skewed_ring_program(iters, SimDuration::ZERO)
}

/// [`ring_program`] plus a completion skew: after the ring, rank 0 alone
/// stays alive for `tail` while every other rank is finished. That skew
/// is what the coordinated marker-storm bug needs — finished ranks
/// answering snapshot markers while the run is still going.
fn skewed_ring_program(iters: u64, tail: SimDuration) -> AppSpec {
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
                "rank {me} iteration {it}: per-channel delivery order violated"
            );
        }
        if me == 0 && tail > SimDuration::ZERO {
            mpi.elapse(tail).await;
        }
    })
}

/// [`RunReport::fingerprint`] plus the liveness verdict, the decisions
/// that fired and the faults that fired: two runs of the same scenario
/// under the same script must print the same (replay convergence).
pub fn fingerprint(report: &RunReport) -> String {
    let (liveness, applied, fired) = (&report.liveness, &report.applied, &report.fired);
    format!(
        "{} liveness={liveness:?} applied={applied:?} fired={fired:?}",
        report.fingerprint()
    )
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Scenario {
    fn new(
        name: &'static str,
        suite: Arc<dyn Suite>,
        ranks: usize,
        iters: u64,
        faults: FaultPlan,
        message_ceiling: u64,
    ) -> Scenario {
        let mut cfg = ClusterConfig::new(ranks);
        cfg.detect_delay = SimDuration::from_millis(10);
        // Bounded run: a stall empties the calendar and returns early; a
        // storm hits the event cap. Either way `completed` stays false.
        cfg.event_limit = Some(2_000_000);
        // Every explored schedule also checks the causality log: a
        // schedule that completes but leaves a dangling or absent cause
        // is a violation, and a stalled schedule's report names the
        // event the run was waiting for.
        cfg.export_liveness = true;
        Scenario {
            name,
            suite,
            program: ring_program(iters),
            cfg,
            faults,
            message_ceiling,
        }
    }

    /// Runs the scenario once under `raw` and checks every per-run
    /// invariant (completion, message ceiling, liveness, the faults'
    /// premise and their recoveries, in-simulation panics). Replay
    /// convergence spans two runs and is checked by [`explore`].
    pub fn run_raw(&self, raw: &[RawDecision]) -> RunOutcome {
        self.run_capped(raw, self.cfg.event_limit)
    }

    /// [`Scenario::run_raw`] under another event cap (shrink probes of a
    /// runaway run under a lowered one).
    fn run_capped(&self, raw: &[RawDecision], event_limit: Option<u64>) -> RunOutcome {
        let mut cfg = self.cfg.clone();
        cfg.schedule = decisions(raw);
        cfg.event_limit = event_limit;
        let suite = self.suite.clone();
        let program = self.program.clone();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_cluster(&cfg, suite, program, &self.faults)
        }));
        let report = match result {
            Err(p) => {
                return RunOutcome {
                    fingerprint: None,
                    violation: Some(format!("in-simulation panic: {}", panic_message(&*p))),
                    applied: cfg.schedule,
                    events: 0,
                    stopped: None,
                }
            }
            Ok(report) => report,
        };
        let liveness = report.liveness.as_ref();
        let violation = if !report.completed {
            // A stall names its dangling cause: the causality log knows
            // which declared edge never fired. A runaway is a stall that
            // ended at the event cap instead of on an empty calendar; it
            // is reported as one, whatever else it tripped on the way.
            let how = match report.stopped {
                Some(reason) => reason.to_string(),
                None => "run did not complete".to_string(),
            };
            let why = liveness
                .map(|l| format!("; liveness: {}", l.summary()))
                .unwrap_or_default();
            Some(format!(
                "stalled: {how} (events={}, makespan={:?}){why}",
                report.events, report.makespan
            ))
        } else if report.stats.messages > self.message_ceiling {
            Some(format!(
                "message storm: {} messages exceeds ceiling {}",
                report.stats.messages, self.message_ceiling
            ))
        } else if liveness.is_some_and(|l| !l.is_clean()) {
            // `no_dangling_causes`: even a run that completed must leave
            // no declared cause unfired, no consumed cause unproduced
            // and no once-only event duplicated.
            Some(format!(
                "dangling causes: {}",
                liveness.map(|l| l.summary()).unwrap_or_default()
            ))
        } else {
            self.fault_violation(&report)
        };
        RunOutcome {
            fingerprint: violation.is_none().then(|| fingerprint(&report)),
            violation,
            events: report.events,
            stopped: report.stopped,
            applied: report.applied,
        }
    }

    /// The faults' invariant (module docs, item 3); a global rollback
    /// records no recovery, so only single-rank recovery is held to one.
    fn fault_violation(&self, report: &RunReport) -> Option<String> {
        let killed = |el| {
            report
                .fired
                .iter()
                .any(|f| matches!(f.fault, Fault::El(..)) == el)
        };
        let recoveries: usize = report
            .rank_stats
            .iter()
            .map(|s| s.recovery_total.len())
            .sum();
        let single = self.suite.recovery_style() == RecoveryStyle::SingleRank;
        if !report.all_landed(&self.faults) {
            Some(format!(
                "lost fault: {:?} fired of {:?}",
                report.fired, self.faults
            ))
        } else if killed(false) && single && recoveries == 0 {
            Some("lost recovery: a rank kill fired, no recovery completed".into())
        } else if killed(true) && report.el_reshards() == 0 {
            Some("lost re-shard: an EL-shard kill fired, no re-shard recorded".into())
        } else {
            None
        }
    }
}

/// The scenario set the smoke exploration covers: the three protocol
/// families, each under perturbation with a timed mid-run crash, plus
/// phase-armed faults at every enumerated protocol boundary.
pub fn default_scenarios() -> Vec<Scenario> {
    let kill0 = || FaultPlan::kill_at(SimDuration::from_millis(8), 0);
    vec![
        Scenario::new(
            "causal+el/crash",
            Arc::new(
                CausalSuite::new(Technique::Vcausal, true)
                    .with_checkpoints(SimDuration::from_millis(4)),
            ),
            3,
            80,
            kill0(),
            60_000,
        ),
        Scenario::new(
            "manetho-noel/crash",
            Arc::new(
                CausalSuite::new(Technique::Manetho, false)
                    .with_checkpoints(SimDuration::from_millis(4)),
            ),
            3,
            80,
            kill0(),
            60_000,
        ),
        Scenario::new(
            "pessimistic/crash",
            Arc::new(PessimisticSuite::new().with_checkpoints(SimDuration::from_millis(4))),
            3,
            80,
            kill0(),
            60_000,
        ),
        Scenario::new(
            "coordinated/crash",
            Arc::new(CoordinatedSuite::new(SimDuration::from_millis(5))),
            3,
            120,
            FaultPlan::kill_at(SimDuration::from_millis(12), 1),
            60_000,
        ),
        Scenario::new(
            "causal+el/phase-det-shipped",
            Arc::new(
                CausalSuite::new(Technique::Vcausal, true)
                    .with_checkpoints(SimDuration::from_millis(4)),
            ),
            3,
            80,
            FaultPlan::kill_at_phase(ProtoPhase::DeterminantShipped, 1, 5),
            60_000,
        ),
        Scenario::new(
            "causal+el/phase-ack-received",
            Arc::new(
                CausalSuite::new(Technique::Vcausal, true)
                    .with_checkpoints(SimDuration::from_millis(4)),
            ),
            3,
            80,
            FaultPlan::kill_at_phase(ProtoPhase::AckReceived, 0, 3),
            60_000,
        ),
        Scenario::new(
            "pessimistic/phase-det-shipped",
            Arc::new(PessimisticSuite::new().with_checkpoints(SimDuration::from_millis(4))),
            3,
            80,
            FaultPlan::kill_at_phase(ProtoPhase::DeterminantShipped, 1, 5),
            60_000,
        ),
        Scenario::new(
            "coordinated/phase-marker-sent",
            Arc::new(CoordinatedSuite::new(SimDuration::from_millis(5))),
            3,
            120,
            FaultPlan::kill_at_phase(ProtoPhase::MarkerSent, 1, 1),
            60_000,
        ),
        Scenario::new(
            "causal+el/phase-image-fetched",
            // Double fault: a timed crash, then a second crash of the same
            // rank the instant its restart completes (the ImageFetched
            // boundary) — the recovery-of-a-recovery path.
            Arc::new(
                CausalSuite::new(Technique::Vcausal, true)
                    .with_checkpoints(SimDuration::from_millis(4)),
            ),
            3,
            80,
            FaultPlan::kill_at(SimDuration::from_millis(8), 0).then_kill_at_phase(
                ProtoPhase::ImageFetched,
                0,
                1,
            ),
            60_000,
        ),
        // Distributed EL losing a shard mid-run: shard 0 dies, its
        // ranks re-shard onto shard 1, unacked batches are handed
        // off — the run must still complete with no rank recovery.
        Scenario::new(
            "causal+el2/el-failure",
            Arc::new(
                CausalSuite::new(Technique::Vcausal, true)
                    .with_checkpoints(SimDuration::from_millis(4))
                    .with_distributed_el(2, SimDuration::from_millis(2)),
            ),
            3,
            80,
            // Early kill: the re-shard lands at 2ms + the 10ms
            // detection delay, well inside the ~15ms run.
            FaultPlan::kill_el_at(SimDuration::from_millis(2), 0),
            60_000,
        ),
        // EL failure compounded by a rank crash after the re-shard:
        // rank 1 recovers against the survivor shard (its own shard,
        // 1, is the one that lived).
        Scenario::new(
            "causal+el2/el-failure+crash",
            Arc::new(
                CausalSuite::new(Technique::Vcausal, true)
                    .with_checkpoints(SimDuration::from_millis(4))
                    .with_distributed_el(2, SimDuration::from_millis(2)),
            ),
            3,
            80,
            FaultPlan::kill_el_at(SimDuration::from_millis(2), 0)
                .then_kill(SimDuration::from_millis(14), 1),
            60_000,
        ),
        Scenario::new(
            // Compact wire format + send-side stability pruning under a
            // mid-run crash: the victim's replay must converge to the
            // same bytes the flat format would have produced — the ring
            // program's exact-payload asserts and the explorer's replay
            // convergence check both fail if pruning ever drops a
            // determinant recovery still needed.
            "causal+el/compact+prune",
            Arc::new(
                CausalSuite::new(Technique::Vcausal, true)
                    .with_checkpoints(SimDuration::from_millis(4))
                    .with_pb_format(PbFormat::Compact),
            ),
            3,
            80,
            kill0(),
            60_000,
        ),
    ]
}

/// Scenario with the PR-5 restart-window stall re-introduced behind
/// [`vlog_vmpi::SeededBugs::restart_window`]. The bug only
/// bites when a peer's message lands inside the victim's restart window,
/// which is exactly the kind of timing the explorer's deferral decisions
/// widen — the harness self-test asserts it is found within a CI budget.
pub fn buggy_restart_window_scenario() -> Scenario {
    let mut s = Scenario::new(
        "buggy/restart-window",
        Arc::new(
            CausalSuite::new(Technique::Vcausal, true)
                .with_checkpoints(SimDuration::from_millis(4)),
        ),
        3,
        80,
        // Double fault: the second crash lands the instant the first
        // restart completes, so the first recovery's replay supplies are
        // still in flight from the peers and arrive during the *second*
        // restart window. Parking (the fix) re-feeds them after the
        // image is restored; the buggy flag threads them straight
        // through the not-yet-restored watermarks and recovery stalls
        // forever.
        FaultPlan::kill_at_phase(ProtoPhase::DeterminantShipped, 1, 5).then_kill_at_phase(
            ProtoPhase::ImageFetched,
            1,
            1,
        ),
        60_000,
    );
    // Fast detection keeps the replacement's boot inside the replay
    // supplies' flight time (the clean run still completes — only the
    // buggy flag differs from a passing configuration).
    s.cfg.detect_delay = SimDuration::from_micros(30);
    // A stall burns the whole event budget on periodic timers before it
    // is caught; a small cap keeps every violating probe (and every
    // shrink probe) cheap. Clean runs finish in ~2.5k events.
    s.cfg.event_limit = Some(100_000);
    s.cfg.seeded_bugs.restart_window = true;
    s
}

/// Scenario with the PR-5 coordinated marker storm re-introduced behind
/// [`vlog_vmpi::SeededBugs::marker_storm`]: finished ranks
/// answer every marker instead of each id once, so marker volume grows
/// without bound and trips the message ceiling.
pub fn buggy_marker_storm_scenario() -> Scenario {
    let mut s = Scenario::new(
        "buggy/marker-storm",
        Arc::new(CoordinatedSuite::new(SimDuration::from_millis(5))),
        3,
        40,
        FaultPlan::none(),
        // The clean run sends ~200 messages; the storm sends thousands.
        2_000,
    );
    // The storm needs finished ranks answering markers while the run is
    // still going: rank 0 lingers after the ring, so the two finished
    // ranks spend many snapshot periods bouncing marker volleys at each
    // other — unbounded under the bug, once per snapshot id when fixed.
    s.program = skewed_ring_program(40, SimDuration::from_millis(40));
    // Storms burn the whole event budget before stopping; keep the cap
    // small so every storming probe (including shrink probes) is cheap.
    s.cfg.event_limit = Some(400_000);
    s.cfg.seeded_bugs.marker_storm = true;
    s
}

/// A violating schedule: confirmed against its recorded decision trace,
/// then shrunk to a minimal replayable script.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Scenario that violated.
    pub scenario: String,
    /// Invariant that failed, as reported by the run of `raw`.
    pub reason: String,
    /// Minimal raw script — feed back through [`Scenario::run_raw`] to
    /// reproduce deterministically. (The recorded trace itself when the
    /// shrunk script of a runaway no longer violates under the
    /// scenario's full event cap.)
    pub raw: Vec<RawDecision>,
    /// Minimal script as kernel decisions.
    pub script: Vec<Decision>,
    /// Exploration seed that produced the original failing script.
    pub seed: u64,
    /// Accepted shrink steps from the original script to the minimum.
    pub shrink_steps: usize,
    /// Whether re-running the recorded decision trace reproduced the
    /// violation before shrinking (it always should — the kernel is
    /// deterministic).
    pub confirmed: bool,
}

impl Violation {
    /// One-line replay recipe.
    pub fn replay_line(&self) -> String {
        format!(
            "violation[{}]: {} | minimal script {:?} (seed {:#x}, {} shrink steps, confirmed={})",
            self.scenario, self.reason, self.raw, self.seed, self.shrink_steps, self.confirmed
        )
    }
}

/// What an exploration did and found.
#[derive(Debug)]
pub struct ExploreReport {
    /// Scenarios explored.
    pub scenarios: usize,
    /// Distinct schedules (deduplicated scripts) whose invariants were
    /// checked, summed over scenarios.
    pub distinct_schedules: u64,
    /// Total simulation runs (each schedule runs twice for replay
    /// convergence; confirmation and shrinking add more).
    pub runs: u64,
    /// Confirmed, shrunk violations (empty on healthy protocols).
    pub violations: Vec<Violation>,
}

fn script_strategy(depth: usize) -> VecStrategy<(std::ops::Range<u64>, std::ops::Range<u64>)> {
    vec_of((0..MAX_INDEX, 0..MAX_DELTA_NS + 1), 0..=depth)
}

/// FNV-1a over the scenario name, so each scenario draws from its own
/// deterministic stream under one exploration seed.
fn name_hash(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// A runaway's shrink probes run under this many times the events of
/// the scenario's unperturbed (schedule 0) run: far above what any
/// perturbation of a few deliveries adds, far below the cap a runaway
/// burns through.
const RUNAWAY_PROBE_FACTOR: u64 = 8;

/// Explores `budget.schedules` distinct schedules spread over
/// `scenarios`, checking every invariant on each. The first violation in
/// a scenario is confirmed against its recorded decision trace, shrunk,
/// and reported; exploration then moves to the next scenario.
pub fn explore(scenarios: &[Scenario], budget: &Budget) -> ExploreReport {
    let mut report = ExploreReport {
        scenarios: scenarios.len(),
        distinct_schedules: 0,
        runs: 0,
        violations: Vec::new(),
    };
    if scenarios.is_empty() || budget.schedules == 0 {
        return report;
    }
    // Spread the budget (remainder to the leading scenarios, so the
    // requested total is explored exactly); every scenario gets at least
    // its baseline.
    let n = scenarios.len() as u64;
    let (base, extra) = (budget.schedules / n, budget.schedules % n);
    for (i, scenario) in scenarios.iter().enumerate() {
        let per = (base + u64::from((i as u64) < extra)).max(1);
        let strat = script_strategy(budget.depth);
        let mut rng = TestRng::seed_from_u64(budget.seed ^ name_hash(scenario.name));
        let mut seen: BTreeSet<Vec<RawDecision>> = BTreeSet::new();
        let mut explored = 0u64;
        // Schedule 0 is always the unperturbed baseline.
        seen.insert(Vec::new());
        let mut draws = 0u64;
        let mut next = Some(Vec::new());
        let mut baseline_events = None;
        while explored < per {
            let raw = match next.take() {
                Some(raw) => raw,
                None => {
                    // Cap redraws so a tiny decision space cannot loop.
                    if draws >= per.saturating_mul(8) {
                        break;
                    }
                    draws += 1;
                    let raw = strat.new_value(&mut rng);
                    if !seen.insert(raw.clone()) {
                        continue;
                    }
                    raw
                }
            };
            explored += 1;
            let first = scenario.run_raw(&raw);
            report.runs += 1;
            let baseline = *baseline_events.get_or_insert(first.events);
            let outcome = match first.violation {
                Some(_) => first,
                None => {
                    // Replay convergence: the same script must reproduce
                    // the same report byte for byte.
                    let second = scenario.run_raw(&raw);
                    report.runs += 1;
                    match (first.fingerprint, second.fingerprint) {
                        (Some(a), Some(b)) if a != b => RunOutcome {
                            fingerprint: None,
                            violation: Some(format!(
                                "replay diverged: {}",
                                vlog_sim::diff::first_divergence(&a, &b)
                                    .unwrap_or_else(|| "(no divergence found)".into())
                            )),
                            applied: second.applied,
                            events: second.events,
                            stopped: second.stopped,
                        },
                        _ => {
                            report.distinct_schedules += 1;
                            continue;
                        }
                    }
                }
            };
            report.distinct_schedules += 1;
            // Violation: confirm by re-running the *recorded* trace (the
            // decisions that actually fired), then shrink.
            let recorded: Vec<RawDecision> = outcome
                .applied
                .iter()
                .map(|d| (d.index, d.delta.as_nanos()))
                .collect();
            let confirm = scenario.run_raw(&recorded);
            report.runs += 1;
            let (confirmed, start, found) = match confirm.violation {
                Some(reason) => (true, recorded, reason),
                // Should be unreachable (deterministic kernel): fall back
                // to shrinking the full script.
                None => (false, raw, outcome.violation.expect("a violating outcome")),
            };
            // Each probe of a runaway would burn the whole event budget;
            // one that is still running at a few times the unperturbed
            // run's length is taken for the runaway it is shrinking.
            let probe_limit = match outcome.stopped {
                Some(StopReason::EventLimit(limit)) => {
                    Some(limit.min(RUNAWAY_PROBE_FACTOR.saturating_mul(baseline)))
                }
                _ => scenario.cfg.event_limit,
            };
            let (minimal, steps, probes) = minimize(&strat, start.clone(), &mut |cand| {
                if let Some(reason) = scenario.run_capped(&cand, probe_limit).violation {
                    panic!("{reason}");
                }
            });
            report.runs += probes as u64 + 1;
            // The verdict is the full cap's: a minimal script that only
            // outran the lowered one is no violation, and the recorded
            // trace is reported as found.
            let (raw, reason, shrink_steps) = match scenario.run_raw(&minimal).violation {
                Some(reason) => (minimal, reason, steps),
                None => (start, found, 0),
            };
            report.violations.push(Violation {
                scenario: scenario.name.to_string(),
                reason,
                script: decisions(&raw),
                raw,
                seed: budget.seed,
                shrink_steps,
                confirmed,
            });
            break; // one confirmed violation per scenario is enough
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_come_from_env_knobs_with_defaults() {
        // The knobs are unset in the test environment: the defaults.
        let b = Budget::from_env();
        assert!(b.depth >= 1);
        assert!(b.schedules >= 1);
    }

    #[test]
    fn decisions_convert_raw_tuples() {
        let d = decisions(&[(3, 1_000)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].index, 3);
        assert_eq!(d[0].delta, SimDuration::from_nanos(1_000));
    }

    #[test]
    fn empty_exploration_is_a_no_op() {
        let report = explore(
            &[],
            &Budget {
                depth: 4,
                schedules: 10,
                seed: 1,
            },
        );
        assert_eq!(report.distinct_schedules, 0);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn baseline_schedule_of_a_clean_scenario_passes() {
        let scenarios = default_scenarios();
        let scenario = &scenarios[0];
        let outcome = scenario.run_raw(&[]);
        assert!(
            outcome.violation.is_none(),
            "baseline violated: {:?}",
            outcome.violation
        );
        assert!(outcome.applied.is_empty(), "empty script fired decisions");
    }

    /// Replay convergence compares fingerprints, so a replay whose
    /// liveness verdict or fired-decision trace differed must not
    /// fingerprint equal: both are in it.
    #[test]
    fn fingerprint_carries_the_liveness_verdict_and_the_applied_trace() {
        let scenarios = default_scenarios();
        let scenario = &scenarios[0];
        let run = || {
            let mut cfg = scenario.cfg.clone();
            cfg.schedule = decisions(&[(0, 1_000), (40, 0), (90, 250_000)]);
            run_cluster(
                &cfg,
                scenario.suite.clone(),
                scenario.program.clone(),
                &scenario.faults,
            )
        };
        let report = run();
        assert!(report.completed, "scripted run did not complete");
        assert!(!report.applied.is_empty(), "no scripted decision fired");
        let liveness = report.liveness.as_ref().expect("scenarios export liveness");
        assert!(liveness.produced_events > 0);
        let print = fingerprint(&report);
        assert!(print.contains(&format!("applied={:?}", report.applied)));
        assert!(print.contains(&format!("liveness={:?}", report.liveness)));
        assert!(report.all_landed(&scenario.faults), "{:?}", report.fired);
        assert!(print.contains(&format!("fired={:?}", report.fired)));
        assert_eq!(print, fingerprint(&run()), "same script, same fingerprint");
    }

    /// The premise of every scenario: on its unperturbed schedule each
    /// planned fault lands on a live target (run_raw checks it).
    #[test]
    fn every_scenario_lands_its_faults_on_the_baseline_schedule() {
        for scenario in default_scenarios() {
            let outcome = scenario.run_raw(&[]);
            assert!(
                outcome.violation.is_none(),
                "{} baseline violated: {:?}",
                scenario.name,
                outcome.violation
            );
        }
    }

    #[test]
    fn a_planned_fault_the_run_outlives_is_a_violation() {
        let mut scenario = default_scenarios().swap_remove(0);
        scenario.faults = scenario.faults.then_kill(SimDuration::from_secs(1), 2);
        let outcome = scenario.run_raw(&[]);
        let violation = outcome.violation.expect("an unfired fault passed");
        assert!(violation.starts_with("lost fault"), "{violation}");
    }

    #[test]
    fn compact_prune_scenario_recovers_on_the_baseline_schedule() {
        let scenarios = default_scenarios();
        let scenario = scenarios
            .iter()
            .find(|s| s.name == "causal+el/compact+prune")
            .expect("compact+prune scenario is registered");
        // A fired rank kill makes run_raw itself assert the victim
        // recovered; a clean outcome means replay converged through the
        // compact codec and pruning path.
        let outcome = scenario.run_raw(&[]);
        assert!(
            outcome.violation.is_none(),
            "compact+prune baseline violated: {:?}",
            outcome.violation
        );
    }
}
