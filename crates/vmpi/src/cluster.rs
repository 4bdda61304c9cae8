//! Cluster builder and runner.
//!
//! Assembles the full MPICH-V deployment of Figure 5 of the paper:
//! `n` computing nodes (each with a communication daemon and an MPI
//! process), plus two stable nodes — one hosting the checkpoint server,
//! the dispatcher and the checkpoint scheduler, the other available to
//! the protocol suite (the Event Logger lives there for causal
//! protocols) — then runs an application program to completion under an
//! optional fault plan.
//!
//! A fully built deployment is a [`ClusterRun`]: a self-contained `Send`
//! value owning the simulation, so independent `(config, seed)` runs can
//! be fanned out across worker threads (the sweep driver in `vlog-bench`
//! does exactly that). Building and running are separate so harnesses can
//! construct runs on one thread and execute them on another.
//!
//! # What a run shares
//!
//! The paper's runtime is a static deployment: the dispatcher "launches
//! the whole runtime environment" and every component simply knows where
//! the others live. Here that knowledge, and everything else the
//! components of one run have in common, is one plain struct,
//! [`ClusterState`], installed in the run's kernel
//! ([`vlog_sim::Sim::install`]): the topology, the per-rank statistics,
//! the set of finished ranks, the fault table, what launching a
//! daemon needs, what the programs recorded so far, and whatever the
//! protocol suite shares among its ranks
//! ([`ClusterState::suite_state`]: the causal suites' chunk pool). A run
//! is single-threaded and every handler is handed `&mut Sim`, so each
//! of them reaches the state by plain borrow
//! ([`ClusterState::of`], [`topo`], [`crate::Ctx::topo`],
//! [`crate::Ctx::rank_stats`]) — no lock, no reference count, no cached
//! copy to invalidate — and [`ClusterRun::run`] reads the answer out of
//! the same struct when the loop returns.
//!
//! # Data in, data out
//!
//! What shapes a run is plain data on its [`ClusterConfig`] — the
//! perturbation script included ([`ClusterConfig::schedule`], the
//! decisions of [`vlog_sim::schedule`]) — and on its [`FaultPlan`], so
//! both are cloned and sent to a worker thread as is. What a run did is
//! plain data on its [`RunReport`]: the decisions that fired
//! ([`RunReport::applied`]; put them back in `schedule` and the run
//! repeats byte for byte), the planned faults that fired, when and on
//! which incarnation ([`RunReport::fired`]), what the programs recorded
//! for the harness, in order ([`RunReport::recorded`]), and how it
//! ended. A run ends in one of three ways, and the report tells them
//! apart: the loop returned on its own — the dispatcher stopped it on
//! completion or the calendar drained — and `completed` says whether
//! every rank finished; or the kernel cut it at
//! [`ClusterConfig::event_limit`] or at [`ClusterConfig::time_limit`],
//! and [`RunReport::stopped`] carries the typed reason. With
//! [`ClusterConfig::export_liveness`] the report of any of the three
//! also names what the run was still waiting for.

use std::any::Any;
use std::collections::BTreeSet;
use std::sync::Arc;

use vlog_sim::causality::LivenessReport;
use vlog_sim::{
    ActorId, Counter, Decision, Gauge, NetProfile, NodeId, Sim, SimConfig, SimDuration, SimTime,
    Stats, StopReason, Timer,
};

use crate::ckpt::CkptServer;
use crate::cost::StackProfile;
use crate::daemon::{AppSpec, BootMode, Vdaemon, TOKEN_BOOT};
use crate::dispatcher::Dispatcher;
use crate::fault::{self, FaultPlan, FaultTable, Fired};
use crate::hooks::{RankStats, Suite, TopoView};
use crate::types::Rank;

/// Static description of one run.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of MPI ranks (each on its own computing node).
    pub ranks: usize,
    /// Software stack cost profile.
    pub profile: StackProfile,
    /// Network fabric profile.
    pub net: NetProfile,
    /// The run's seed. Nothing in the simulator reads it — a run draws no
    /// random numbers — until a randomised model component needs one;
    /// harnesses set it to label their cells.
    pub seed: u64,
    /// Stop the simulation when every rank finished (default true).
    pub stop_on_completion: bool,
    /// Hard event cap (runaway protection in tests); a run that exceeds
    /// it stops and reports [`StopReason::EventLimit`].
    pub event_limit: Option<u64>,
    /// Hard virtual-time cap; a run that reaches it stops there and
    /// reports [`StopReason::TimeLimit`].
    pub time_limit: Option<SimDuration>,
    /// Delay between a crash and the dispatcher learning about it.
    pub detect_delay: SimDuration,
    /// The run's perturbation script (schedule exploration, seeded
    /// jitter): which message deliveries to defer and by how much, see
    /// [`vlog_sim::schedule`]. Empty — the default — is exact `(time,
    /// seq)` dispatch on the untouched pop path.
    pub schedule: Vec<Decision>,
    /// Test hooks, never set outside tests: the historical bugs this
    /// run re-introduces.
    pub seeded_bugs: SeededBugs,
    /// Collect the run's causality log and attach the analyzed
    /// [`LivenessReport`] to the [`RunReport`]. Off by default: liveness
    /// never reaches a report unless a harness asks, and never a
    /// determinism fingerprint. The one switch: no environment variable
    /// turns it on. [`vlog_sim::causality::render`] prints the result.
    pub export_liveness: bool,
}

impl ClusterConfig {
    pub fn new(ranks: usize) -> Self {
        ClusterConfig {
            ranks,
            profile: StackProfile::vdaemon(),
            net: NetProfile::default(),
            seed: 1,
            stop_on_completion: true,
            event_limit: None,
            time_limit: None,
            detect_delay: SimDuration::from_millis(100),
            schedule: Vec::new(),
            seeded_bugs: SeededBugs::default(),
            export_liveness: false,
        }
    }

    /// Switches to the MPICH-P4 profile (no daemon, half-duplex links).
    pub fn p4(mut self) -> Self {
        self.profile = StackProfile::p4();
        self.net.base.half_duplex = true;
        self
    }

    /// Switches to the raw-TCP profile (NetPIPE baseline).
    pub fn raw(mut self) -> Self {
        self.profile = StackProfile::raw();
        self
    }
}

/// The two PR-5 protocol bugs, re-introducible at run time so the
/// schedule explorer's self-test and the liveness regressions can prove
/// they *find* them. Copied into the run's [`ClusterState`] and read at
/// the one place each bug bites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeededBugs {
    /// The restart-window bug: application messages arriving after a
    /// replacement daemon boots but before its checkpoint image is
    /// fetched thread straight through the not-yet-restored channel
    /// watermarks, which can stall recovery forever (read by the daemon
    /// where it would park such a message).
    pub restart_window: bool,
    /// The coordinated marker storm: a finished rank answers *every*
    /// incoming marker instead of each distinct snapshot id exactly
    /// once, so two finished ranks bounce ever-growing marker volleys at
    /// each other (read by the coordinated protocol where it closes a
    /// finished rank's channels).
    pub marker_storm: bool,
}

/// Everything a harness wants to know after a run.
pub struct RunReport {
    /// Name of the protocol suite.
    pub suite: String,
    /// Virtual time at which the run ended.
    pub makespan: SimDuration,
    /// True when every rank completed its program.
    pub completed: bool,
    /// Kernel statistics (bytes by category, message counts...).
    pub stats: Stats,
    /// Per-rank protocol statistics.
    pub rank_stats: Vec<RankStats>,
    /// Number of simulation events dispatched.
    pub events: u64,
    /// Set when the kernel stopped the run itself — at
    /// [`ClusterConfig::event_limit`] or [`ClusterConfig::time_limit`] —
    /// instead of the run ending.
    pub stopped: Option<StopReason>,
    /// The decisions of [`ClusterConfig::schedule`] that fired, in
    /// firing order; as the `schedule` of the same configuration they
    /// reproduce this run.
    pub applied: Vec<Decision>,
    /// Every crash step the [`FaultPlan`] ran, in the order they ran. A
    /// plan entry fires at most once; one the run ended before is
    /// missing.
    pub fired: Vec<Fired>,
    /// Analyzed causality log, present only when
    /// [`ClusterConfig::export_liveness`] requested it — never part of
    /// a determinism fingerprint.
    pub liveness: Option<LivenessReport>,
    /// What the programs handed to the harness through
    /// [`crate::Mpi::record`], in the order their daemons read it: each
    /// rank's records in recording order, a relaunched incarnation's
    /// after its predecessor's. Nothing is merged — a value re-recorded
    /// after a restart appears twice, and each reader decides what that
    /// means. Not part of [`RunReport::fingerprint`].
    pub recorded: Vec<Recorded>,
}

/// One value a program handed to the harness ([`crate::Mpi::record`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recorded {
    /// The rank that recorded it.
    pub rank: Rank,
    /// What the value measures, e.g. `"latency_us"`.
    pub name: &'static str,
    /// Which one of them, e.g. a message size or a cell index.
    pub key: u64,
    /// The measurement.
    pub value: f64,
}

impl RunReport {
    /// Whether every entry of `plan` fired on a live target. Each entry
    /// fires at most once, so that is as many live firings as entries.
    pub fn all_landed(&self, plan: &FaultPlan) -> bool {
        self.fired.iter().filter(|f| !f.noop).count() == plan.entries().count()
    }

    /// The run's outcome and statistics as one comparable line: the text
    /// determinism pins and replay checks compare.
    pub fn fingerprint(&self) -> String {
        format!(
            "suite={} completed={} makespan={:?} events={} stats={:?} ranks={:?}",
            self.suite, self.completed, self.makespan, self.events, self.stats, self.rank_stats
        )
    }

    /// Piggybacked bytes as % of total exchanged bytes (Figure 7).
    pub fn piggyback_percent(&self) -> f64 {
        self.stats.piggyback_percent()
    }

    /// Sum of per-rank piggyback-management times (Figure 8), split
    /// (send, receive).
    pub fn pb_times(&self) -> (SimDuration, SimDuration) {
        let send = self.rank_stats.iter().map(|s| s.pb_send_time).sum();
        let recv = self.rank_stats.iter().map(|s| s.pb_recv_time).sum();
        (send, recv)
    }

    /// Message-count histogram over power-of-two wire-size buckets — the
    /// traffic shape workload harnesses report alongside the scalars.
    pub fn msg_histogram(&self) -> &vlog_sim::MsgHistogram {
        &self.stats.msg_sizes
    }

    // ---- Event Logger saturation gauges --------------------------------
    //
    // Recorded by the EL server actors and the logging protocols (see
    // `vlog-core::el_multi`); zero whenever the suite ran without an EL.

    /// Peak CPU-queue depth any event record saw at an Event Logger
    /// shard on arrival (how far behind the single-threaded select-loop
    /// server fell).
    pub fn el_peak_queue_depth(&self) -> u64 {
        self.stats.gauge(Gauge::ElPeakQueue)
    }

    /// Peak number of one rank's events shipped to the Event Logger but
    /// not yet acknowledged back to it — the window that decides whether
    /// acks arrive in time to trim piggybacks.
    pub fn el_peak_outstanding(&self) -> u64 {
        self.stats.gauge(Gauge::ElPeakOutstanding)
    }

    /// Number of event records the Event Logger processed (stored plus
    /// detected duplicates).
    pub fn el_acked_records(&self) -> u64 {
        self.stats.counter(Counter::ElRecords) + self.stats.counter(Counter::ElDuplicateRecords)
    }

    /// Number of record batches the Event Logger acknowledged (the
    /// coalesced-ack message count; equals the record count when no
    /// batching kicked in).
    pub fn el_batches(&self) -> u64 {
        self.stats.counter(Counter::ElBatches)
    }

    /// Mean arrival-to-ack-send latency over every record batch an
    /// Event Logger shard acknowledged (zero without an EL).
    pub fn el_ack_latency_mean(&self) -> SimDuration {
        let total = self.stats.timer(Timer::ElAckLatency).as_nanos();
        let n = self.stats.counter(Counter::ElAckSamples);
        SimDuration::from_nanos(total.checked_div(n).unwrap_or(0))
    }

    /// Worst single arrival-to-ack-send latency at any Event Logger
    /// shard.
    pub fn el_ack_latency_peak(&self) -> SimDuration {
        SimDuration::from_nanos(self.stats.gauge(Gauge::ElAckLatencyPeakNs))
    }

    /// Per-shard saturation gauges `(peak queue depth, peak ack
    /// latency)` for shards `0..k`, read from the shard-labelled gauges
    /// the EL servers record ([`Gauge::ElShardPeakQueue`] /
    /// [`Gauge::ElShardAckPeakNs`]); any shard count is valid.
    /// Makes a re-shard visible in reports: the dead shard's gauges
    /// freeze while the survivors' keep climbing.
    pub fn el_shard_gauges(&self, k: usize) -> Vec<(u64, SimDuration)> {
        (0..k)
            .map(|i| {
                (
                    self.stats.gauge(Gauge::ElShardPeakQueue(i)),
                    SimDuration::from_nanos(self.stats.gauge(Gauge::ElShardAckPeakNs(i))),
                )
            })
            .collect()
    }

    /// Number of EL shard-failure re-shards the topology published.
    pub fn el_reshards(&self) -> u64 {
        self.stats.counter(Counter::ElReshards)
    }
}

/// What launching a rank's daemon takes besides the topology. All
/// three are immutable once the run is built, hence `Arc`: every
/// incarnation of every rank holds the same program and profile.
pub struct Launch {
    pub suite: Arc<dyn Suite>,
    pub program: AppSpec,
    pub profile: Arc<StackProfile>,
}

/// Everything the components of one cluster run share (module docs).
/// Installed in the run's kernel by [`ClusterRun::build`]; a component
/// rig installs one it filled by hand.
#[derive(Default)]
pub struct ClusterState {
    /// Where everything lives.
    pub topo: TopoView,
    /// Per-rank protocol statistics, indexed by rank.
    pub rank_stats: Vec<RankStats>,
    /// Ranks whose application finished its program, as reported to the
    /// dispatcher; a global rollback empties it.
    pub done: BTreeSet<Rank>,
    /// The run's faults: phase kills still armed, and what fired.
    pub faults: FaultTable,
    /// Delay between a crash and the dispatcher learning about it.
    pub detect_delay: SimDuration,
    /// See [`ClusterConfig::seeded_bugs`].
    pub seeded_bugs: SeededBugs,
    /// `None` in a rig that never launches a daemon.
    pub launch: Option<Launch>,
    /// What the protocol suite's ranks share for the length of the run,
    /// put here by [`Suite::install`] and reached through
    /// [`crate::Ctx::suite_state`]; dropped with the run.
    pub suite_state: Option<Box<dyn Any + Send>>,
    /// What the ranks' daemons read off their pipes for
    /// [`RunReport::recorded`].
    pub recorded: Vec<Recorded>,
}

impl ClusterState {
    /// A state whose topology holds these ranks, with zeroed statistics
    /// for each.
    pub fn with_ranks(daemons: Vec<ActorId>, nodes: Vec<NodeId>) -> Self {
        let mut state = ClusterState {
            rank_stats: vec![RankStats::default(); daemons.len()],
            ..ClusterState::default()
        };
        state.topo.set_ranks(daemons, nodes);
        state
    }

    /// The state of the run `sim` hosts. Panics if none is installed.
    pub fn of(sim: &mut Sim) -> &mut ClusterState {
        sim.ext()
    }

    /// Whether every rank's program has finished — as of now: a global
    /// rollback makes a finished job unfinished again.
    pub fn completed(&self) -> bool {
        self.done.len() == self.topo.n_ranks()
    }
}

/// The deployment description of the run `sim` hosts. Copy the ids out
/// before the next call that needs `&mut Sim`.
pub fn topo(sim: &Sim) -> &TopoView {
    &sim.ext_ref::<ClusterState>().topo
}

/// Builds `rank`'s daemon around a fresh protocol instance, installs it
/// in the rank's actor slot (superseding any earlier incarnation) and
/// schedules its boot: the initial launch and every relaunch.
pub(crate) fn launch_rank(sim: &mut Sim, rank: Rank, mode: BootMode) {
    let state = sim.ext_ref::<ClusterState>();
    let launch = state.launch.as_ref().expect("run state cannot launch");
    let proto = launch.suite.make_protocol(rank, state.topo.n_ranks());
    let daemon = Vdaemon::new(
        rank,
        &state.topo,
        launch.profile.clone(),
        launch.program.clone(),
        proto,
        mode,
    );
    let me = state.topo.daemon(rank);
    sim.replace_actor(me, Box::new(daemon));
    sim.set_timer(me, SimDuration::ZERO, TOKEN_BOOT);
}

/// A fully built, not-yet-executed cluster run. Owns the simulation,
/// which owns the run's [`ClusterState`]; `Send`, so it can be handed to
/// a worker thread and executed there (see the compile-time assertion
/// below).
pub struct ClusterRun {
    sim: Sim,
    suite_name: String,
}

// Compile-time guarantee: a complete cluster run — kernel, actors,
// protocol state, application futures, run state — is `Send`.
// Sharding sweeps across threads depends on this; breaking it is a
// build error, not a runtime surprise.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ClusterRun>();
    assert_send::<RunReport>();
};

impl ClusterRun {
    /// Builds the deployment for `program` on every rank under `suite`
    /// and `faults` without executing any event. Panics if `faults`
    /// names a rank or an Event Logger shard the run lacks.
    pub fn build(
        cfg: &ClusterConfig,
        suite: Arc<dyn Suite>,
        program: AppSpec,
        faults: &FaultPlan,
    ) -> ClusterRun {
        // Pin a heterogeneous profile's fast class to the actual
        // compute/service boundary: node ids `>= ranks` are the stable
        // service nodes (checkpoint server, dispatcher, EL shards), which
        // is exactly the class the hetero-uplink profile accelerates.
        let mut net = cfg.net.clone();
        net.resolve_service_boundary(cfg.ranks);
        let mut sim = Sim::with_config(SimConfig {
            net,
            event_limit: cfg.event_limit,
            time_limit: cfg.time_limit,
        });
        if !cfg.schedule.is_empty() {
            sim.set_schedule(cfg.schedule.iter().copied());
        }
        if cfg.export_liveness {
            sim.enable_causality();
        }
        let n = cfg.ranks;

        // Computing nodes first so node id == rank.
        let rank_nodes: Vec<_> = (0..n).map(|_| sim.add_node()).collect();
        let stable_a = sim.add_node(); // checkpoint server + dispatcher + scheduler
        let stable_b = sim.add_node(); // protocol suite components (Event Logger)

        let ckpt = sim.add_actor(stable_a, Box::new(CkptServer::new(stable_a)));

        // Placeholder actor used to reserve daemon slot ids before the
        // daemons themselves exist (they need their own address). The
        // slots must exist (and the topology must know the rank count)
        // before suite components such as the checkpoint scheduler are
        // installed.
        struct Placeholder;
        impl vlog_sim::Actor for Placeholder {
            fn on_deliver(&mut self, _: &mut Sim, _: vlog_sim::ActorId, _: vlog_sim::Delivery) {}
        }
        let daemon_ids: Vec<_> = rank_nodes
            .iter()
            .map(|&node| sim.add_actor(node, Box::new(Placeholder)))
            .collect();

        let mut state = ClusterState::with_ranks(daemon_ids, rank_nodes);
        state.topo.set_ckpt_server(ckpt, stable_a);
        state.detect_delay = cfg.detect_delay;
        state.seeded_bugs = cfg.seeded_bugs;
        state.launch = Some(Launch {
            suite: suite.clone(),
            program,
            profile: Arc::new(cfg.profile.clone()),
        });
        sim.install(state);

        // Protocol-suite components (Event Logger, checkpoint scheduler...).
        suite.install(&mut sim, &[stable_b, stable_a]);
        for rank in 0..n {
            launch_rank(&mut sim, rank, BootMode::Fresh);
        }

        let dispatcher = Dispatcher::new(suite.recovery_style(), cfg.stop_on_completion);
        let disp_id = sim.add_actor(stable_a, Box::new(dispatcher));
        ClusterState::of(&mut sim)
            .topo
            .set_dispatcher(disp_id, stable_a);

        // The fault plan goes in last: its detection steps need the
        // dispatcher and its shard kills the suite's Event Loggers.
        fault::arm(&mut sim, faults);

        ClusterRun {
            sim,
            suite_name: suite.name(),
        }
    }

    /// Executes the run to completion (or to the configured time or
    /// event limit) and reports.
    pub fn run(mut self) -> RunReport {
        self.sim.run();

        // The log is the run's own: whatever ended the loop — completion,
        // a drained calendar, a limit — what was recorded is still here.
        let liveness = self.sim.causality().map(|log| log.analyze());

        let state = ClusterState::of(&mut self.sim);
        let completed = state.completed();
        let rank_stats = std::mem::take(&mut state.rank_stats);
        let fired = std::mem::take(&mut state.faults.fired);
        let recorded = std::mem::take(&mut state.recorded);
        RunReport {
            suite: self.suite_name,
            makespan: self.sim.now().saturating_since(SimTime::ZERO),
            completed,
            stats: self.sim.stats().clone(),
            rank_stats,
            events: self.sim.events_processed(),
            stopped: self.sim.stop_reason(),
            applied: self.sim.applied().to_vec(),
            fired,
            liveness,
            recorded,
        }
    }
}

/// Builds the deployment, runs `program` on every rank under `suite` and
/// `faults`, and reports.
pub fn run_cluster(
    cfg: &ClusterConfig,
    suite: Arc<dyn Suite>,
    program: AppSpec,
    faults: &FaultPlan,
) -> RunReport {
    ClusterRun::build(cfg, suite, program, faults).run()
}

/// Convenience: run a program under [`crate::vdummy::VdummySuite`].
pub fn run_vdummy(cfg: &ClusterConfig, program: AppSpec) -> RunReport {
    run_cluster(
        cfg,
        Arc::new(crate::vdummy::VdummySuite),
        program,
        &FaultPlan::none(),
    )
}

/// Re-export of [`crate::daemon::app`] for harness ergonomics.
pub use crate::daemon::app as program;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn el_gauge_accessors_read_the_counters() {
        let mut stats = Stats::new();
        let bump = |stats: &mut Stats, counter, times| (0..times).for_each(|_| stats.bump(counter));
        stats.set_max(Gauge::ElPeakQueue, 7);
        stats.set_max(Gauge::ElPeakOutstanding, 3);
        bump(&mut stats, Counter::ElRecords, 4);
        bump(&mut stats, Counter::ElDuplicateRecords, 1);
        bump(&mut stats, Counter::ElBatches, 2);
        bump(&mut stats, Counter::ElAckSamples, 5);
        stats.add_time(Timer::ElAckLatency, SimDuration::from_micros(50));
        stats.set_max(Gauge::ElAckLatencyPeakNs, 20_000);
        stats.set_max(Gauge::ElShardPeakQueue(0), 7);
        stats.set_max(Gauge::ElShardAckPeakNs(0), 20_000);
        let report = RunReport {
            suite: "test".into(),
            makespan: SimDuration::ZERO,
            completed: true,
            stats,
            rank_stats: Vec::new(),
            events: 0,
            stopped: None,
            applied: Vec::new(),
            fired: Vec::new(),
            liveness: None,
            recorded: Vec::new(),
        };
        assert_eq!(report.el_peak_queue_depth(), 7);
        assert_eq!(report.el_peak_outstanding(), 3);
        assert_eq!(report.el_acked_records(), 5);
        assert_eq!(report.el_batches(), 2);
        assert_eq!(report.el_ack_latency_mean(), SimDuration::from_micros(10));
        assert_eq!(report.el_ack_latency_peak(), SimDuration::from_micros(20));
        assert_eq!(
            report.el_shard_gauges(2),
            vec![(7, SimDuration::from_micros(20)), (0, SimDuration::ZERO)]
        );
        assert_eq!(report.el_reshards(), 0);
    }

    #[test]
    fn el_gauges_are_zero_without_an_event_logger() {
        let report = RunReport {
            suite: "test".into(),
            makespan: SimDuration::ZERO,
            completed: true,
            stats: Stats::new(),
            rank_stats: Vec::new(),
            events: 0,
            stopped: None,
            applied: Vec::new(),
            fired: Vec::new(),
            liveness: None,
            recorded: Vec::new(),
        };
        assert_eq!(report.el_peak_queue_depth(), 0);
        assert_eq!(report.el_peak_outstanding(), 0);
        assert_eq!(report.el_ack_latency_mean(), SimDuration::ZERO);
    }
}
