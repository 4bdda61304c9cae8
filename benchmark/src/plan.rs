//! The six workloads as fixed lists of work, and one pass over a list.
//!
//! A *cell* is one cluster run: `Workload::program()` →
//! `ClusterRun::build` → `ClusterRun::run`. An *iteration* is one pass
//! over a workload's cells (or one sweep, or one `explore()` call); it is
//! what the benchmark times.
//!
//! `--seed` becomes every cluster's `ClusterConfig::seed`, and nothing
//! else: the workloads are fixed canonical runs, and on all six the work
//! is the same under every seed (no protocol suite used here draws from
//! the kernel RNG today). The inputs that would change the work stay
//! fixed because a time that swings with its input cannot gate a
//! regression: seeding the 32-rank halo graph moved `kernel_floor`
//! between 1.78 M and 2.80 M events per iteration, and about a third of
//! explorer script seeds end in a violation (README, "Known
//! exclusions").

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use vlog_bench::{parse_json, render_markdown, run_many, write_json, RegimeRow, SuiteKind};
use vlog_core::{CausalSuite, Technique};
use vlog_explore::{default_scenarios, explore, Budget, Scenario};
use vlog_sim::{MsgHistogram, NetProfile, SimDuration};
use vlog_vmpi::{ClusterConfig, ClusterRun, FaultPlan, RunReport, Suite, VdummySuite};
use vlog_workloads::runner::faults::hub_failure;
use vlog_workloads::{
    registry, BurstyConfig, Class, FftPipeConfig, HaloConfig, NasBench, NasConfig, RegistryScale,
    Workload,
};

use crate::summary::Fnv;
use crate::trace::{spanned, Ctx};

// The constants of `cargo bench --bench regimes`, so a sweep cell here
// is the cell a user of that bench runs.
const DETECT_DELAY: SimDuration = SimDuration::from_millis(8);
const CKPT_EVERY: SimDuration = SimDuration::from_millis(6);
const HUB_FAULT_AT: SimDuration = SimDuration::from_millis(5);
const EL_FAULT_AT: SimDuration = SimDuration::from_millis(5);
const EL_GOSSIP: SimDuration = SimDuration::from_millis(20);
const EVENT_LIMIT: u64 = 2_000_000_000;

/// Kills per `recovery_mix` cell.
const KILLS: usize = 8;
/// Simulated-time cap on a faulted cell: a recovery that has not
/// finished by then is reported as failed instead of spinning on.
const RECOVERY_TIME_LIMIT: SimDuration = SimDuration::from_secs(120);

/// A protocol suite a cell can build afresh for each run (suites are
/// not shared between runs, as in the repository's own sweeps).
#[derive(Debug, Clone, Copy)]
pub enum SuiteSpec {
    Vdummy,
    Kind(SuiteKind),
    /// Vcausal with the Event Logger spread over this many shards.
    ShardedEl(usize),
}

impl SuiteSpec {
    fn causal(technique: Technique, el: bool) -> SuiteSpec {
        SuiteSpec::Kind(SuiteKind::Causal { technique, el })
    }

    fn build(self) -> Arc<dyn Suite> {
        match self {
            SuiteSpec::Vdummy => Arc::new(VdummySuite),
            SuiteSpec::Kind(kind) => kind.build(CKPT_EVERY),
            SuiteSpec::ShardedEl(k) => Arc::new(
                CausalSuite::new(Technique::Vcausal, true)
                    .with_checkpoints(CKPT_EVERY)
                    .with_distributed_el(k, EL_GOSSIP),
            ),
        }
    }

    fn label(self) -> String {
        match self {
            SuiteSpec::Vdummy => "Vdummy".into(),
            SuiteSpec::Kind(kind) => kind.label(),
            SuiteSpec::ShardedEl(k) => format!("Vcausal (EL x{k})"),
        }
    }
}

/// One cluster run, fully described.
pub struct Cell {
    pub label: String,
    workload: Arc<dyn Workload>,
    suite: SuiteSpec,
    cfg: ClusterConfig,
    faults: FaultPlan,
}

impl Cell {
    fn new(workload: &Arc<dyn Workload>, suite: SuiteSpec, seed: u64) -> Cell {
        let mut cfg = ClusterConfig::new(workload.np());
        cfg.seed = seed;
        cfg.detect_delay = DETECT_DELAY;
        cfg.event_limit = Some(EVENT_LIMIT);
        cfg.net = NetProfile::fast_ethernet_2005();
        Cell {
            label: format!(
                "{}/{}/{}",
                workload.family(),
                workload.label(),
                suite.label()
            ),
            workload: workload.clone(),
            suite,
            cfg,
            faults: FaultPlan::none(),
        }
    }

    fn with_faults(mut self, faults: FaultPlan, tag: &str) -> Cell {
        self.faults = faults;
        self.label.push_str(tag);
        self
    }

    pub fn ranks(&self) -> usize {
        self.cfg.ranks
    }
}

/// Runs one cell. `None` means it panicked; the panic message has gone
/// to stderr through the default hook and the harness carries on.
pub fn run_cell(cell: &Cell, ctx: Option<Ctx<'_>>) -> Option<RunReport> {
    spanned(ctx, &cell.label, |ctx| {
        catch_unwind(AssertUnwindSafe(|| {
            let program = spanned(ctx, "workloads.program", |_| cell.workload.program());
            let run = spanned(ctx, "vmpi.cluster.build", |_| {
                ClusterRun::build(&cell.cfg, cell.suite.build(), program.spec, &cell.faults)
            });
            spanned(ctx, "vmpi.cluster.run", |_| run.run())
        }))
        .ok()
    })
}

/// Everything exact that one iteration produced: operation counts, the
/// simulated (`model.*`) sums and the fingerprint. Two iterations of one
/// workload and seed must tally equal, at any thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations: cluster runs, explored schedules, the report round trip.
    pub attempted: u64,
    pub failed: u64,
    pub events: u64,
    pub fingerprint: Fnv,
    pub makespan_ns: u64,
    pub messages: u64,
    pub bytes_total: u64,
    pub pb_bytes: u64,
    pub pb_events_sent: u64,
    pub recoveries: u64,
    pub recovery_total_ns: u64,
    pub checkpoints: u64,
    pub global_rollbacks: u64,
    pub el_records: u64,
    pub el_batches: u64,
    pub el_queries: u64,
    pub el_reshards: u64,
    pub el_peak_queue: u64,
    pub msg_sizes: MsgHistogram,
    pub explore_runs: u64,
}

impl Tally {
    fn fail(&mut self, operations: u64) {
        self.attempted += operations;
        self.failed += operations;
    }

    /// Adds one cluster run; `None` is a run that panicked.
    fn add_run(&mut self, report: Option<&RunReport>) {
        let Some(r) = report else {
            self.fingerprint.write(b"panicked\n");
            return self.fail(1);
        };
        self.attempted += 1;
        self.failed += u64::from(!r.completed);
        self.events += r.events;
        // The determinism suite's fingerprint line, hashed.
        self.fingerprint.write(
            format!(
                "suite={} completed={} makespan={:?} events={} stats={:?} ranks={:?}\n",
                r.suite, r.completed, r.makespan, r.events, r.stats, r.rank_stats
            )
            .as_bytes(),
        );
        self.makespan_ns += r.makespan.as_nanos();
        self.messages += r.stats.messages;
        self.bytes_total += r.stats.total_bytes();
        self.pb_bytes += r.stats.bytes.piggyback;
        for rank in &r.rank_stats {
            self.pb_events_sent += rank.pb_events_sent;
            self.recoveries += rank.recovery_total.len() as u64;
            self.recovery_total_ns += rank
                .recovery_total
                .iter()
                .map(|d| d.as_nanos())
                .sum::<u64>();
            self.checkpoints += rank.checkpoints;
        }
        self.global_rollbacks += r.stats.get("global_rollbacks");
        self.el_records += r.el_acked_records();
        self.el_batches += r.el_batches();
        self.el_queries += r.stats.get("el_queries");
        self.el_reshards += r.el_reshards();
        self.el_peak_queue = self.el_peak_queue.max(r.el_peak_queue_depth());
        self.msg_sizes.merge(&r.stats.msg_sizes);
    }
}

/// One timed pass and what it produced.
pub struct Iteration {
    pub wall_s: f64,
    pub tally: Tally,
}

pub enum Plan {
    /// `passes` passes over a cell list on the calling thread.
    Cells {
        cells: Vec<Cell>,
        passes: usize,
        /// Fault-free reference runs that failed while the plan was
        /// built; carried into every tally so the run reports them.
        setup_failed: u64,
    },
    /// `(fault-free, hub-failure)` cell pairs through `run_many`, then
    /// the report round trip into `scratch`.
    Sweep {
        pairs: Vec<(Cell, Cell)>,
        scratch: PathBuf,
    },
    Explore {
        scenarios: Vec<Scenario>,
        budget: Budget,
    },
}

fn fft(tiles: u32) -> Arc<dyn Workload> {
    Arc::new(FftPipeConfig::new(16, 2, tiles))
}

fn cg() -> Arc<dyn Workload> {
    Arc::new(NasConfig::new(NasBench::CG, Class::S, 16))
}

/// The `Large` registry's 32-rank halo entry.
fn halo() -> Arc<dyn Workload> {
    Arc::new(HaloConfig::new(32, 4, 12))
}

/// The `Large` registry's 21-client, 3-server bursty entry.
fn bursty() -> Arc<dyn Workload> {
    Arc::new(BurstyConfig::new(24, 3, 11).with_servers(3))
}

/// The explorer's script seed in the timed workload. All 240 schedules
/// of the default scenarios pass under it; 37 of the seeds 1..=120 expose
/// a violation (README, "Known exclusions"), and a workload on which
/// operations fail cannot carry a timing.
const SCRIPT_SEED: u64 = 11;

fn grid(workloads: &[Arc<dyn Workload>], suites: &[SuiteSpec], seed: u64) -> Vec<Cell> {
    workloads
        .iter()
        .flat_map(|w| suites.iter().map(move |&s| Cell::new(w, s, seed)))
        .collect()
}

/// `cell` with `KILLS` staggered crashes: kill `i` lands at `(i + 0.5) /
/// (KILLS + 1)` of the cell's own fault-free makespan and takes rank
/// `(hub + 3i) mod np`, so the hub dies first and no rank dies twice.
fn with_staggered_kills(cell: Cell, setup_failed: &mut u64) -> Cell {
    let makespan = match run_cell(&cell, None) {
        Some(r) if r.completed => r.makespan,
        _ => {
            *setup_failed += 1;
            SimDuration::from_millis(50)
        }
    };
    let (hub, np) = (cell.workload.hub_rank(), cell.workload.np());
    let mut plan = FaultPlan::none();
    for i in 0..KILLS {
        let at = makespan.mul_f64((i as f64 + 0.5) / (KILLS as f64 + 1.0));
        plan = plan.then_kill(at, (hub + 3 * i) % np);
    }
    let mut cell = cell.with_faults(plan, "+8kills");
    cell.cfg.time_limit = Some(RECOVERY_TIME_LIMIT);
    cell
}

impl Plan {
    /// Builds the named workload's plan from `seed`. `scratch` is where
    /// the sweep writes its report files. `known_failing` lifts the two
    /// documented exclusions (README, "Known exclusions"): it adds the
    /// nas `CG.S/16` recovery cells that do not complete today, and
    /// hands the explorer `seed` itself instead of `SCRIPT_SEED`.
    pub fn build(workload: &str, seed: u64, scratch: PathBuf, known_failing: bool) -> Plan {
        use Technique::{LogOn, Manetho, Vcausal};
        let causal = |el: bool| Plan::Cells {
            cells: grid(
                &[fft(32), fft(8), cg()],
                &[Vcausal, Manetho, LogOn].map(|t| SuiteSpec::causal(t, el)),
                seed,
            ),
            passes: 1,
            setup_failed: 0,
        };
        match workload {
            "causal_el" => causal(true),
            "causal_noel" => causal(false),
            "kernel_floor" => Plan::Cells {
                cells: grid(
                    &[fft(32), fft(8), cg(), halo(), bursty()],
                    &[
                        SuiteSpec::Vdummy,
                        SuiteSpec::Kind(SuiteKind::Pessimistic),
                        SuiteSpec::Kind(SuiteKind::Coordinated),
                    ],
                    seed,
                ),
                passes: 2,
                setup_failed: 0,
            },
            "recovery_mix" => {
                let mut workloads = vec![halo(), bursty(), fft(8)];
                if known_failing {
                    workloads.push(cg());
                }
                let suites = [
                    SuiteSpec::causal(Vcausal, true),
                    SuiteSpec::causal(Manetho, false),
                    SuiteSpec::Kind(SuiteKind::Pessimistic),
                    SuiteSpec::Kind(SuiteKind::Coordinated),
                ];
                let mut setup_failed = 0;
                let mut cells: Vec<Cell> = grid(&workloads, &suites, seed)
                    .into_iter()
                    .map(|cell| with_staggered_kills(cell, &mut setup_failed))
                    .collect();
                let mut el_kill = Cell::new(&fft(32), SuiteSpec::ShardedEl(4), seed)
                    .with_faults(FaultPlan::kill_el_at(EL_FAULT_AT, 0), "+el-kill");
                el_kill.cfg.net = NetProfile::gigabit();
                el_kill.cfg.time_limit = Some(RECOVERY_TIME_LIMIT);
                cells.push(el_kill);
                Plan::Cells {
                    cells,
                    passes: 1,
                    setup_failed,
                }
            }
            "sweep_regimes" => {
                let kinds = SuiteKind::all_eight();
                let pairs = registry(RegistryScale::Huge)
                    .iter()
                    .flat_map(|w| {
                        kinds.iter().map(move |&kind| {
                            let hub = hub_failure(w.as_ref(), HUB_FAULT_AT);
                            (
                                Cell::new(w, SuiteSpec::Kind(kind), seed),
                                Cell::new(w, SuiteSpec::Kind(kind), seed).with_faults(hub, "+hub"),
                            )
                        })
                    })
                    .collect();
                Plan::Sweep { pairs, scratch }
            }
            "explore_small" => Plan::Explore {
                scenarios: default_scenarios(),
                budget: Budget {
                    depth: 4,
                    schedules: 240,
                    seed: if known_failing { seed } else { SCRIPT_SEED },
                },
            },
            other => panic!("unknown workload {other}"),
        }
    }

    /// Largest rank count of any cell (what the reduction probe sizes
    /// itself to); 0 for the explorer, which builds its own clusters.
    pub fn max_ranks(&self) -> usize {
        match self {
            Plan::Cells { cells, .. } => cells.iter().map(Cell::ranks).max().unwrap_or(0),
            Plan::Sweep { pairs, .. } => pairs.iter().map(|(c, _)| c.ranks()).max().unwrap_or(0),
            Plan::Explore { .. } => 0,
        }
    }

    /// One iteration: a timed pass, then (off the clock) its tally.
    /// `threads` matters to the sweep only. With `ctx` the pass records
    /// spans; without, it runs bare.
    pub fn iterate(&self, threads: usize, ctx: Option<Ctx<'_>>) -> Iteration {
        let mut tally = Tally::default();
        let started = Instant::now();
        let wall_s = match self {
            Plan::Cells {
                cells,
                passes,
                setup_failed,
            } => {
                let mut reports = Vec::with_capacity(cells.len() * passes);
                for _ in 0..*passes {
                    for cell in cells {
                        reports.push(run_cell(cell, ctx));
                    }
                }
                let wall_s = started.elapsed().as_secs_f64();
                tally.fail(*setup_failed);
                for report in &reports {
                    tally.add_run(report.as_ref());
                }
                wall_s
            }
            Plan::Sweep { pairs, scratch } => {
                let results = spanned(ctx, "bench.sweep.run_many", |ctx| {
                    run_many(pairs.iter().collect(), threads, |(free, hub)| {
                        [run_cell(free, ctx), run_cell(hub, ctx)]
                    })
                });
                let rows: Vec<RegimeRow> = pairs
                    .iter()
                    .zip(&results)
                    .filter_map(|((cell, _), pair)| match pair {
                        [Some(free), Some(hub)] => Some(regime_row(cell, free, hub)),
                        _ => None,
                    })
                    .collect();
                let round_trip = report_round_trip(&rows, scratch, ctx);
                let wall_s = started.elapsed().as_secs_f64();
                for report in results.iter().flatten() {
                    tally.add_run(report.as_ref());
                }
                match round_trip {
                    Ok(()) => tally.attempted += 1,
                    Err(why) => {
                        eprintln!("sweep_regimes: report round trip failed: {why}");
                        tally.fail(1);
                    }
                }
                wall_s
            }
            Plan::Explore { scenarios, budget } => {
                let report = spanned(ctx, "explore", |_| {
                    catch_unwind(AssertUnwindSafe(|| explore(scenarios, budget)))
                });
                let wall_s = started.elapsed().as_secs_f64();
                match report {
                    Ok(report) => {
                        tally.attempted += report.distinct_schedules.max(1);
                        tally.failed += report.violations.len() as u64;
                        tally.explore_runs = report.runs;
                        for v in &report.violations {
                            eprintln!("explore_small: {}", v.replay_line());
                        }
                        tally.fingerprint.write(format!("{report:?}\n").as_bytes());
                    }
                    Err(_) => tally.fail(budget.schedules),
                }
                wall_s
            }
        };
        Iteration { wall_s, tally }
    }
}

/// The sweep's last leg, as `cargo bench --bench regimes` does it:
/// rows → JSON → file, JSON → rows, rows → markdown → file.
fn report_round_trip(
    rows: &[RegimeRow],
    scratch: &std::path::Path,
    ctx: Option<Ctx<'_>>,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", scratch.display());
    std::fs::create_dir_all(scratch).map_err(io)?;
    let json = spanned(ctx, "bench.report.write_json", |_| write_json(rows));
    std::fs::write(scratch.join("BENCH_regimes.json"), &json).map_err(io)?;
    let parsed = spanned(ctx, "bench.report.parse_json", |_| parse_json(&json))?;
    let same_cells = parsed.len() == rows.len()
        && parsed
            .iter()
            .zip(rows)
            .all(|(a, b)| a.name() == b.name() && a.messages == b.messages);
    if !same_cells {
        return Err("parse_json(write_json(rows)) lost or reordered cells".into());
    }
    let md = spanned(ctx, "bench.report.render_markdown", |_| {
        render_markdown(&parsed)
    });
    std::fs::write(scratch.join("REPORT.md"), md).map_err(io)
}

/// One `BENCH_regimes.json` row from a cell's two runs (the `regimes`
/// bench's own derivation, on the paper-baseline fabric).
fn regime_row(cell: &Cell, free: &RunReport, hub: &RunReport) -> RegimeRow {
    let SuiteSpec::Kind(kind) = cell.suite else {
        unreachable!("sweep cells are built from SuiteKind::all_eight")
    };
    let el = match kind {
        SuiteKind::Causal { el, .. } => el,
        SuiteKind::Pessimistic => true,
        SuiteKind::Coordinated => false,
    };
    let el_count = usize::from(el);
    let (pb_send, pb_recv) = free.pb_times();
    let gauges = free.el_shard_gauges(el_count);
    let w = cell.workload.as_ref();
    let messages = free.stats.messages;
    RegimeRow {
        family: w.family().to_string(),
        label: w.label(),
        suite: kind.label(),
        np: w.np() as u64,
        causal: kind.is_causal(),
        el,
        completed: free.completed && hub.completed,
        makespan_s: free.makespan.as_secs_f64(),
        faulted_makespan_s: hub.makespan.as_secs_f64(),
        hub_rank: w.hub_rank() as u64,
        pb_percent: free.piggyback_percent(),
        pb_send_us: pb_send.as_micros_f64(),
        pb_recv_us: pb_recv.as_micros_f64(),
        messages,
        total_bytes: free.stats.total_bytes(),
        max_msg_bucket: free.msg_histogram().max_bucket_bytes(),
        el_peak_queue: free.el_peak_queue_depth(),
        el_peak_queue_faulted: hub.el_peak_queue_depth(),
        el_peak_outstanding: free.el_peak_outstanding(),
        el_ack_mean_us: free.el_ack_latency_mean().as_micros_f64(),
        el_records: free.el_acked_records(),
        profile: cell.cfg.net.name.to_string(),
        el_count: el_count as u64,
        el_shard_queues: gauges
            .iter()
            .map(|(q, _)| q.to_string())
            .collect::<Vec<_>>()
            .join("/"),
        el_ack_peak_us: gauges
            .iter()
            .map(|(_, ack)| ack.as_micros_f64())
            .fold(0.0, f64::max),
        pb_bytes_per_msg: if messages == 0 {
            0.0
        } else {
            free.stats.bytes.piggyback as f64 / messages as f64
        },
        pb_bytes_total: free.stats.bytes.piggyback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_cell_is_counted_not_propagated() {
        struct Exploding;
        impl Workload for Exploding {
            fn family(&self) -> &'static str {
                "test"
            }
            fn label(&self) -> String {
                "exploding".into()
            }
            fn np(&self) -> usize {
                2
            }
            fn valid_np(&self, _: usize) -> bool {
                true
            }
            fn state_bytes(&self) -> u64 {
                8
            }
            fn total_flops(&self) -> f64 {
                0.0
            }
            fn program(&self) -> vlog_workloads::WorkloadProgram {
                panic!("the panic this test expects")
            }
        }
        let workload: Arc<dyn Workload> = Arc::new(Exploding);
        let plan = Plan::Cells {
            cells: vec![Cell::new(&workload, SuiteSpec::Vdummy, 1)],
            passes: 1,
            setup_failed: 0,
        };
        let tally = plan.iterate(1, None).tally;
        assert_eq!((tally.attempted, tally.failed, tally.events), (1, 1, 0));
    }

    #[test]
    fn staggered_kills_hit_distinct_ranks_in_time_order() {
        let mut failed = 0;
        let cell = with_staggered_kills(Cell::new(&fft(8), SuiteSpec::Vdummy, 3), &mut failed);
        assert_eq!(failed, 0);
        let kills = &cell.faults.faults;
        assert_eq!(kills.len(), KILLS);
        assert!(kills.windows(2).all(|w| w[0].0 < w[1].0));
        let mut ranks: Vec<usize> = kills.iter().map(|k| k.1).collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), KILLS);
        assert!(cell.label.ends_with("+8kills"));
    }

    #[test]
    fn plans_have_the_documented_shapes() {
        let scratch = PathBuf::from("unused");
        let cells = |name: &str| match Plan::build(name, 11, scratch.clone(), false) {
            Plan::Cells { cells, passes, .. } => (cells.len(), passes),
            _ => panic!("{name} is a cell list"),
        };
        assert_eq!(cells("causal_el"), (9, 1));
        assert_eq!(cells("causal_noel"), (9, 1));
        assert_eq!(cells("kernel_floor"), (15, 2));
        match Plan::build("sweep_regimes", 11, scratch.clone(), false) {
            Plan::Sweep { pairs, .. } => assert_eq!(pairs.len(), 13 * 8),
            _ => panic!("sweep_regimes is a sweep"),
        }
        assert_eq!(Plan::build("causal_el", 11, scratch, false).max_ranks(), 16);
    }
}
