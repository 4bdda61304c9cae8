//! Fault injection: the faults a run is planned with, and those that
//! fired.
//!
//! A [`FaultPlan`] kills ranks at fixed virtual instants, ranks at the
//! `n`-th crossing of a protocol-phase boundary ([`ProtoPhase`], so a
//! schedule explorer can enumerate fault timings structurally instead of
//! sampling instants), and Event Logger shards at fixed instants. This
//! module is the one place any of them takes effect, in two steps, both
//! timers of the dispatcher (on a stable node no fault crashes):
//! a *crash step* appends a [`Fired`] to the run's [`FaultTable`] (in
//! its [`ClusterState`]) and crashes the target's node, and one
//! detection delay later a *detection step* tells the dispatcher of a
//! dead rank, or re-shards the dead shard's ranks ([`ElReshard`]).
//! Timed kills are scheduled at build, EL kills first, each in plan
//! order; a phase kill is scheduled by its crossing, zero delay on, so
//! it never re-enters the reporting handler. What fired comes back as
//! [`RunReport::fired`](crate::RunReport::fired).

use std::collections::BTreeMap;

use vlog_sim::{Counter, Sim, SimDuration, SimTime, WireSize};

use crate::cluster::{topo, ClusterState};
use crate::control;
use crate::dispatcher::DispatcherMsg;
use crate::hooks::ElReshard;
use crate::types::Rank;

/// An enumerated protocol-phase boundary a rank can cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtoPhase {
    /// A coordinated-checkpoint marker broadcast left this rank.
    MarkerSent,
    /// A determinant record was shipped to the Event Logger.
    DeterminantShipped,
    /// An Event-Logger stability ack was applied by this rank.
    AckReceived,
    /// This rank's checkpoint image arrived and its restart completed.
    ImageFetched,
}

/// A fault armed on a phase boundary: crash `rank` the `nth` time
/// (1-based) it crosses `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseFault {
    /// Which boundary triggers the crash.
    pub phase: ProtoPhase,
    /// The rank to kill.
    pub rank: Rank,
    /// Which crossing triggers it (1 = the first).
    pub nth: u64,
}

/// A schedule of fail-stop faults: timed crashes, crashes armed on
/// protocol-phase boundaries and Event Logger shard crashes.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(virtual time, rank)` crash events.
    pub faults: Vec<(SimDuration, Rank)>,
    /// Crashes armed on protocol-phase boundaries.
    pub phase_faults: Vec<PhaseFault>,
    /// `(virtual time, shard index)` Event Logger shard crashes.
    pub el_faults: Vec<(SimDuration, usize)>,
}

impl FaultPlan {
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// One crash of `rank` at `t`.
    pub fn kill_at(t: SimDuration, rank: Rank) -> Self {
        FaultPlan::none().then_kill(t, rank)
    }

    /// One crash of `rank` the `nth` time (1-based) it crosses `phase`.
    pub fn kill_at_phase(phase: ProtoPhase, rank: Rank, nth: u64) -> Self {
        FaultPlan::none().then_kill_at_phase(phase, rank, nth)
    }

    /// One crash of Event Logger shard `shard` at `t`.
    pub fn kill_el_at(t: SimDuration, shard: usize) -> Self {
        FaultPlan::none().then_kill_el_at(t, shard)
    }

    /// Adds one more crash of `rank` at `t` (builder form, so hub
    /// failures and double faults compose).
    pub fn then_kill(mut self, t: SimDuration, rank: Rank) -> Self {
        self.faults.push((t, rank));
        self
    }

    /// Adds one more phase-armed crash (builder form).
    pub fn then_kill_at_phase(mut self, phase: ProtoPhase, rank: Rank, nth: u64) -> Self {
        self.phase_faults.push(PhaseFault { phase, rank, nth });
        self
    }

    /// Adds one more Event Logger shard crash (builder form).
    pub fn then_kill_el_at(mut self, t: SimDuration, shard: usize) -> Self {
        self.el_faults.push((t, shard));
        self
    }

    /// Every entry, in the order a run arms them: the EL kills, the
    /// timed rank kills, then the phase kills, each in plan order. Each
    /// fires at most once.
    pub fn entries(&self) -> impl Iterator<Item = Fault> + '_ {
        let el = self.el_faults.iter().map(|&(t, shard)| Fault::El(t, shard));
        let timed = self.faults.iter().map(|&(t, rank)| Fault::Rank(t, rank));
        let phase = self.phase_faults.iter().map(|&p| Fault::Phase(p));
        el.chain(timed).chain(phase)
    }
}

/// One entry of a [`FaultPlan`]: one variant per plan list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    Rank(SimDuration, Rank),
    Phase(PhaseFault),
    El(SimDuration, usize),
}

/// One run of the crash step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fired {
    pub fault: Fault,
    /// When the step ran.
    pub at: SimTime,
    /// The target actor's generation ([`Sim::actor_gen`]) then.
    pub incarnation: u32,
    /// The target was already dead, or (a rank) already finished its
    /// program. Recorded only: the step does the same either way.
    pub noop: bool,
}

/// The fault state of one run: the phase kills still armed, how often
/// each rank has crossed each boundary so far, the faults struck so far
/// (a step's timer names one by its index) and what fired.
#[derive(Debug, Default)]
pub struct FaultTable {
    armed: Vec<PhaseFault>,
    crossings: BTreeMap<(Rank, ProtoPhase), u64>,
    struck: Vec<Fault>,
    pub(crate) fired: Vec<Fired>,
}

/// Arms `plan` in the run `sim` hosts, once its topology and dispatcher
/// are in place. Panics on an entry naming a target the run lacks.
pub(crate) fn arm(sim: &mut Sim, plan: &FaultPlan) {
    for fault in plan.entries() {
        let topo = topo(sim);
        let (what, target, have) = match fault {
            Fault::El(_, shard) => ("Event Logger shard", shard, topo.el_count()),
            Fault::Rank(_, r) | Fault::Phase(PhaseFault { rank: r, .. }) => {
                ("rank", r, topo.n_ranks())
            }
        };
        assert!(
            target < have,
            "fault plan entry {fault:?} names {what} {target}, which the run lacks (it has {have})"
        );
        match fault {
            Fault::Rank(t, _) | Fault::El(t, _) => strike(sim, fault, t),
            Fault::Phase(p) => ClusterState::of(sim).faults.armed.push(p),
        }
    }
}

/// Reports that `rank` crossed `phase`: the phase kill armed on that
/// crossing, if any, is disarmed and struck now. With nothing armed (the
/// common case) nothing is counted: no kill can ever match.
pub(crate) fn crossed(sim: &mut Sim, rank: Rank, phase: ProtoPhase) {
    let table = &mut ClusterState::of(sim).faults;
    if table.armed.is_empty() {
        return;
    }
    let count = table.crossings.entry((rank, phase)).or_insert(0);
    *count += 1;
    let n = *count;
    let matches = |f: &PhaseFault| f.rank == rank && f.phase == phase && f.nth == n;
    if let Some(pos) = table.armed.iter().position(matches) {
        let p = table.armed.remove(pos);
        strike(sim, Fault::Phase(p), SimDuration::ZERO);
    }
}

/// Schedules `fault`'s crash step `delay` from now and its detection
/// step one detection delay after that: two dispatcher timers, each
/// token `index << 1 | step` with `index` into the struck faults.
fn strike(sim: &mut Sim, fault: Fault, delay: SimDuration) {
    let state = ClusterState::of(sim);
    let detect = delay + state.detect_delay;
    let (dispatcher, _) = state.topo.dispatcher().expect("dispatcher registered");
    let token = (state.faults.struck.len() as u64) << 1;
    state.faults.struck.push(fault);
    sim.set_timer(dispatcher, delay, token);
    sim.set_timer(dispatcher, detect, token | 1);
}

/// Runs the fault step a dispatcher timer names (see [`strike`]).
pub(crate) fn step(sim: &mut Sim, token: u64) {
    let fault = ClusterState::of(sim).faults.struck[(token >> 1) as usize];
    match token & 1 {
        0 => crash(sim, fault),
        _ => detected(sim, fault),
    }
}

/// The crash step. A shard never comes back, so one already down is
/// left alone; a rank's node is crashed whatever its state.
fn crash(sim: &mut Sim, fault: Fault) {
    let state = ClusterState::of(sim);
    let ((actor, node), finished) = match fault {
        Fault::El(_, shard) => (state.topo.el_at(shard).expect("checked when armed"), false),
        Fault::Rank(_, r) | Fault::Phase(PhaseFault { rank: r, .. }) => {
            let target = (state.topo.daemon(r), state.topo.node(r));
            (target, state.done.contains(&r))
        }
    };
    let alive = sim.actor_alive(actor);
    let fired = Fired {
        fault,
        at: sim.now(),
        incarnation: sim.actor_gen(actor),
        noop: !alive || finished,
    };
    ClusterState::of(sim).faults.fired.push(fired);
    if let Fault::El(..) = fault {
        if !alive {
            return;
        }
        sim.stats_mut().bump(Counter::ElShardCrashes);
    }
    sim.crash_node(node);
}

/// The detection step. A dead shard's ranks move to the survivors and
/// every rank is told, so its protocol re-ships its unacknowledged
/// records; a shard already known dead, or the last one, changes
/// nothing.
fn detected(sim: &mut Sim, fault: Fault) {
    let (dispatcher, stable) = topo(sim).dispatcher().expect("dispatcher registered");
    match fault {
        Fault::El(_, shard) => {
            if !ClusterState::of(sim).topo.rebalance_after_el_failure(shard) {
                return;
            }
            sim.stats_mut().bump(Counter::ElReshards);
            for rank in 0..topo(sim).n_ranks() {
                let daemon = topo(sim).daemon(rank);
                control::send(sim, stable, daemon, ElReshard { dead_shard: shard });
            }
        }
        Fault::Rank(_, rank) | Fault::Phase(PhaseFault { rank, .. }) => {
            let body = Box::new(DispatcherMsg::Fault { rank });
            let delay = SimDuration::from_micros(1);
            sim.local_send(stable, dispatcher, WireSize::default(), body, delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vlog_sim::{Actor, ActorId, Delivery, NodeId};

    use super::*;
    use crate::dispatcher::Dispatcher;
    use crate::hooks::{RecoveryStyle, Suite, VProtocol};
    use crate::vdummy::Vdummy;
    use crate::{app, run_cluster, ClusterConfig, RunReport, VdummySuite};

    /// Two ranks that only wait: rank 0 for 1 ms, rank 1 for 10 ms; a
    /// killed rank restarts its wait from scratch.
    fn idle_ranks(suite: Arc<dyn Suite>, plan: &FaultPlan) -> RunReport {
        let mut cfg = ClusterConfig::new(2);
        cfg.detect_delay = SimDuration::from_millis(1);
        let program = app(|mpi| async move {
            let ms = if mpi.rank() == 0 { 1 } else { 10 };
            mpi.elapse(SimDuration::from_millis(ms)).await;
        });
        run_cluster(&cfg, suite, program, plan)
    }

    /// [`idle_ranks`] under Vdummy.
    fn idle_pair(plan: &FaultPlan) -> RunReport {
        idle_ranks(Arc::new(VdummySuite), plan)
    }

    struct Idle;
    impl Actor for Idle {
        fn on_deliver(&mut self, _: &mut Sim, _: ActorId, _: Delivery) {}
    }

    /// Vdummy ranks and an Event Logger of two idle shards, the second
    /// alone on a node of its own.
    struct TwoShards;
    impl Suite for TwoShards {
        fn name(&self) -> String {
            "two-shards".into()
        }

        fn install(&self, sim: &mut Sim, stable_nodes: &[NodeId]) {
            let nodes = [stable_nodes[0], sim.add_node()];
            let els = nodes.map(|node| (sim.add_actor(node, Box::new(Idle)), node));
            ClusterState::of(sim).topo.set_els(els.to_vec());
        }

        fn make_protocol(&self, _rank: Rank, _n: usize) -> Box<dyn VProtocol> {
            Box::new(Vdummy)
        }
    }

    #[test]
    fn fired_records_each_crash_step_and_whether_its_target_was_live() {
        let ms = SimDuration::from_millis;
        let plan = FaultPlan::kill_at(ms(2), 1)
            .then_kill(ms(2) + SimDuration::from_micros(500), 1)
            .then_kill(ms(5), 0);
        let report = idle_pair(&plan);
        assert!(report.completed);
        let fired = |fault, at: SimDuration, incarnation, noop| Fired {
            fault,
            at: SimTime::ZERO + at,
            incarnation,
            noop,
        };
        let entries: Vec<Fault> = plan.entries().collect();
        assert_eq!(
            report.fired,
            vec![
                // Rank 1's first incarnation, mid-wait.
                fired(entries[0], ms(2), 1, false),
                // Dead and not yet relaunched: a new generation, nobody
                // home.
                fired(entries[1], ms(2) + SimDuration::from_micros(500), 2, true),
                // Rank 0 finished its wait at 1 ms.
                fired(entries[2], ms(5), 1, true),
            ]
        );
        assert!(!report.all_landed(&plan));
        let first = FaultPlan::kill_at(ms(2), 1);
        assert!(idle_pair(&first).all_landed(&first));
    }

    /// A timed rank kill and an EL kill at one instant: both crash steps
    /// run then, in arming order (the EL kill first), and both detection
    /// steps one detection delay later — the re-shard, and the rank's
    /// restart, whose 10 ms wait sets the makespan. Pinned.
    #[test]
    fn a_rank_kill_and_an_el_kill_step_at_their_instants_in_arming_order() {
        let ms = SimDuration::from_millis;
        let plan = FaultPlan::kill_at(ms(2), 1).then_kill_el_at(ms(2), 1);
        let report = idle_ranks(Arc::new(TwoShards), &plan);
        assert!(report.completed && report.all_landed(&plan));
        let at = SimTime::ZERO + ms(2);
        assert_eq!(
            report.fired,
            [
                Fired {
                    fault: Fault::El(ms(2), 1),
                    at,
                    incarnation: 0,
                    noop: false,
                },
                Fired {
                    fault: Fault::Rank(ms(2), 1),
                    at,
                    incarnation: 1,
                    noop: false,
                },
            ]
        );
        let count = |c| report.stats.counter(c);
        assert_eq!(count(Counter::ElShardCrashes), 1);
        assert_eq!(count(Counter::ElReshards), 1);
        assert_eq!(count(Counter::DispatcherFaults), 1);
        // Rank 1 restarts a little after 3 ms and waits its 10 ms again.
        assert_eq!(report.makespan, SimDuration::from_nanos(13_187_640));
        assert_eq!(report.events, 20);
    }

    #[test]
    fn a_fault_the_run_outlives_is_missing_from_fired() {
        let plan = FaultPlan::kill_at(SimDuration::from_secs(1), 1);
        let report = idle_pair(&plan);
        assert!(report.completed);
        assert!(report.fired.is_empty());
        assert!(!report.all_landed(&plan));
    }

    #[test]
    #[should_panic(expected = "names rank 2, which the run lacks (it has 2)")]
    fn a_timed_kill_of_a_rank_the_run_lacks_fails_the_build() {
        idle_pair(&FaultPlan::kill_at(SimDuration::from_millis(2), 2));
    }

    #[test]
    #[should_panic(expected = "names rank 5, which the run lacks (it has 2)")]
    fn a_phase_kill_of_a_rank_the_run_lacks_fails_the_build() {
        idle_pair(&FaultPlan::kill_at_phase(ProtoPhase::ImageFetched, 5, 1));
    }

    #[test]
    #[should_panic(expected = "names Event Logger shard 0, which the run lacks (it has 0)")]
    fn a_kill_of_a_shard_the_run_lacks_fails_the_build() {
        idle_pair(&FaultPlan::kill_el_at(SimDuration::from_millis(2), 0));
    }

    #[test]
    fn nth_crossing_arithmetic_matches_in_order() {
        let shipped = ProtoPhase::DeterminantShipped;
        let mut sim = Sim::new();
        let mut state = ClusterState::default();
        // A struck kill's steps are timers of the dispatcher.
        let stable = sim.add_node();
        let style = RecoveryStyle::SingleRank;
        let dispatcher = sim.add_actor(stable, Box::new(Dispatcher::new(style, false)));
        state.topo.set_dispatcher(dispatcher, stable);
        state.faults.armed = vec![PhaseFault {
            phase: shipped,
            rank: 1,
            nth: 2,
        }];
        sim.install(state);
        // Whether the kill has been struck after this crossing.
        let mut struck = |rank, phase| {
            crossed(&mut sim, rank, phase);
            ClusterState::of(&mut sim).faults.armed.is_empty()
        };
        assert!(!struck(1, shipped), "nth=2 not yet");
        assert!(!struck(0, shipped), "other rank");
        assert!(!struck(1, ProtoPhase::AckReceived), "other phase");
        assert!(struck(1, shipped), "2nd crossing");
        // Disarmed: further crossings are not even counted.
        assert!(struck(1, shipped));
        let crossings = &ClusterState::of(&mut sim).faults.crossings;
        assert_eq!(crossings[&(1, shipped)], 2);
    }

    #[test]
    fn fault_plan_builders_compose() {
        let plan = FaultPlan::kill_at(SimDuration::from_millis(5), 2)
            .then_kill(SimDuration::from_millis(9), 0);
        assert_eq!(
            plan.faults,
            vec![
                (SimDuration::from_millis(5), 2),
                (SimDuration::from_millis(9), 0)
            ]
        );
        assert_eq!(FaultPlan::none().entries().count(), 0);
    }

    #[test]
    fn entries_run_el_then_timed_then_phase_kills_in_plan_order() {
        let ms = SimDuration::from_millis;
        let shipped = ProtoPhase::DeterminantShipped;
        let plan = FaultPlan::kill_at_phase(shipped, 1, 3)
            .then_kill(ms(9), 2)
            .then_kill_el_at(ms(4), 1)
            .then_kill(ms(1), 0)
            .then_kill_el_at(ms(2), 0);
        let entries: Vec<Fault> = plan.entries().collect();
        assert_eq!(
            entries,
            vec![
                Fault::El(ms(4), 1),
                Fault::El(ms(2), 0),
                Fault::Rank(ms(9), 2),
                Fault::Rank(ms(1), 0),
                Fault::Phase(PhaseFault {
                    phase: shipped,
                    rank: 1,
                    nth: 3
                }),
            ]
        );
    }
}
