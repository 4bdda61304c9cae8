//! The paper's evaluation as one table: Figs. 1, 3, 6a, 6b, 7, 8, 9 and
//! 10, their values and their shape claims.
//!
//! [`panels`] is the figure table — one [`Panel`] per figure panel: which
//! cell runner, over which x values, for which stacks, reporting which
//! metrics. [`run_table`] flattens the panels into cells (a cell two
//! figures share runs once — Figs. 7, 8 and 9 read the same NAS runs),
//! executes them as **one** [`run_many`] sweep and returns the
//! [`PaperRow`]s. [`CLAIMS`] transcribes what the paper says about those
//! figures; each claim is checked against the rows and comes out `holds`
//! or `deviates: <measured numbers>`.
//!
//! Both are committed as `BENCH_paper.json` ([`PaperReport`]) and
//! rendered as section 0 of `REPORT.md` ([`render_scorecard`]). There is
//! no expected-failure list and no tolerance setting: the committed file
//! *is* the expectation, and `scripts/verify.sh` fails when a
//! regeneration differs from it by a byte.

use std::fmt::Write as _;

use vlog_core::{reduction::figure3, Technique};
use vlog_sim::net::STREAM_CHUNK_BYTES;
use vlog_sim::{Counter, EthernetParams, SimDuration};
use vlog_vmpi::{ClusterConfig, FaultPlan, RankStats, RunReport};
use vlog_workloads::netpipe::{self, NetpipePoint};
use vlog_workloads::runner::faults;
use vlog_workloads::{mflops, run_workload, Class, NasBench, NasConfig, Workload};

use crate::report::{self, md_table, Field, Record, Slot};
use crate::{fmt3, run_many, Scale, Stack, SuiteKind};

// ---- Cell runners ---------------------------------------------------

const NAS_EVENT_LIMIT: u64 = 4_000_000_000;

/// Runs the NetPIPE ping-pong ladder up to `max_bytes` on `stack` over
/// `cfg`; returns the sweep and the cluster report.
fn netpipe_run(
    cfg: &ClusterConfig,
    stack: Stack,
    max_bytes: u64,
    reps: f64,
) -> (Vec<NetpipePoint>, RunReport) {
    let prog = netpipe::program(max_bytes, reps);
    let report = vlog_vmpi::run_cluster(cfg, stack.suite(None), prog, &FaultPlan::none());
    assert!(report.completed, "NetPIPE on {} incomplete", stack.label());
    (netpipe::points(&report), report)
}

/// Fault-free NAS run on `stack`, no checkpoint scheduler.
fn nas_free(nas: &NasConfig, stack: Stack) -> RunReport {
    let mut cfg = stack.cluster(nas.np);
    cfg.event_limit = Some(NAS_EVENT_LIMIT);
    let run = run_workload(nas, &cfg, stack.suite(None), &FaultPlan::none());
    assert!(run.completed, "{} on {}", nas.label(), stack.label());
    run
}

/// Figure 10's probe-then-kill ("process of rank zero is killed at the
/// middle of its correct execution time", §V-E): probes the pure
/// application span `t_app` of `nas` under `kind` without checkpoint
/// traffic (with checkpoints the makespan includes the image-drain tail
/// on the checkpoint server's link, long after the applications ended),
/// then reruns with checkpoints every `ckpt(t_app)` and rank 0 killed at
/// `kill_frac * t_app`. Returns the faulted run.
fn nas_kill_rank0(
    nas: &NasConfig,
    kind: SuiteKind,
    ckpt: impl Fn(SimDuration) -> SimDuration,
    kill_frac: f64,
) -> RunReport {
    let mut cfg = ClusterConfig::new(nas.np);
    cfg.event_limit = Some(NAS_EVENT_LIMIT);
    cfg.detect_delay = SimDuration::from_millis(50);
    let mut probe_nas = nas.clone();
    probe_nas.checkpoints = false;
    let probe = run_workload(&probe_nas, &cfg, kind.build_with(None), &FaultPlan::none());
    assert!(probe.completed, "{} probe incomplete", nas.label());
    let t_app = probe.makespan;
    let plan = FaultPlan::kill_at(t_app.mul_f64(kill_frac), 0);
    let run = run_workload(nas, &cfg, kind.build(ckpt(t_app)), &plan);
    let what = format!("{} under {}", nas.label(), kind.label());
    assert!(run.completed, "{what}: faulted run incomplete");
    assert!(run.all_landed(&plan), "{what}: kill missed");
    let collects = &run.rank_stats[0].recovery_collect;
    assert!(!collects.is_empty(), "{what}: no recovery recorded");
    run
}

/// Figure 1's cell: `nas` under `kind` (checkpoints every 30 s),
/// fault-free for its own baseline, then once per entry of `per_minute`
/// under periodic faults with a budget of 8x the baseline — a run that
/// cannot finish within it makes no progress at that frequency (the
/// paper's vertical slope). Yields `(slowdown in % of the baseline,
/// completed)` per frequency; frequency 0 *is* the baseline.
fn nas_under_faults(nas: &NasConfig, kind: SuiteKind, per_minute: &[f64]) -> Vec<(f64, bool)> {
    let ckpt = SimDuration::from_secs(30);
    let mut cfg = ClusterConfig::new(nas.np);
    cfg.event_limit = Some(NAS_EVENT_LIMIT);
    cfg.detect_delay = SimDuration::from_millis(250);
    let base = run_workload(nas, &cfg, kind.build(ckpt), &FaultPlan::none());
    assert!(base.completed, "{} baseline", kind.label());
    let base = base.makespan;
    let horizon = base.mul_f64(8.0);
    cfg.time_limit = Some(horizon);
    let under = |&f: &f64| {
        if f == 0.0 {
            return (100.0, true);
        }
        // Planned to the horizon, so a run that ends sooner leaves kills
        // unfired: 13/24, 3/12, 12/22, 3/11 fire at quick scale.
        let plan = faults::periodic_per_minute(f, nas.np, horizon);
        let run = run_workload(nas, &cfg, kind.build(ckpt), &plan);
        let pct = 100.0 * run.makespan.as_secs_f64() / base.as_secs_f64();
        (pct, run.completed)
    };
    per_minute.iter().map(under).collect()
}

// ---- The figure table -----------------------------------------------

/// One NAS kernel of the table, at its (already scaled) iteration
/// fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Nas(NasBench, Class, f64);

impl Nas {
    fn label(&self) -> String {
        format!("{}.{:?}", self.0.label(), self.1)
    }

    fn on(&self, np: f64) -> NasConfig {
        NasConfig::new(self.0, self.1, np as usize).fraction(self.2)
    }
}

/// Which cell runner a panel uses, with its workload. The runner fixes
/// what the x axis means and how many x values one run covers.
#[derive(Debug, Clone, PartialEq)]
enum Runner {
    /// [`netpipe_run`] up to `.0` bytes at repetition scale `.1`; x =
    /// message bytes, one run covers the ladder.
    Netpipe(u64, f64),
    /// [`nas_free`]; x = rank count, one run per x.
    NasFree(Nas),
    /// [`nas_kill_rank0`], checkpoints every 0.3 `t_app`, kill at 0.55
    /// `t_app`; x = rank count, one run per x.
    NasKill(Nas),
    /// [`nas_under_faults`] on `.1` ranks; x = faults per minute, one
    /// run covers the axis and shares its baseline.
    NasFaults(Nas, usize),
    /// [`figure3`]; the single x is 0.
    Fig3Replay,
}

/// One row of the figure table.
#[derive(Debug, Clone)]
pub struct Panel {
    figure: &'static str,
    panel: String,
    runner: Runner,
    xs: Vec<f64>,
    series: Vec<Stack>,
    metrics: &'static [&'static str],
}

/// One independent run of the sweep: a runner on one stack over the x
/// values that run covers.
type Cell = (Runner, Stack, Vec<f64>);

impl Panel {
    fn cells(&self) -> Vec<Cell> {
        let xs: Vec<Vec<f64>> = match self.runner {
            Runner::NasFree(_) | Runner::NasKill(_) => self.xs.iter().map(|&x| vec![x]).collect(),
            _ => vec![self.xs.clone()],
        };
        let on = |&stack| {
            xs.iter()
                .map(move |xs| (self.runner.clone(), stack, xs.clone()))
        };
        self.series.iter().flat_map(on).collect()
    }
}

fn ft_kind(stack: Stack) -> SuiteKind {
    match stack {
        Stack::Ft(kind) => kind,
        other => panic!("{} is not a fault-tolerant stack", other.label()),
    }
}

/// Runs a cell; returns `(x, metric, value)` for everything its runner
/// measures.
fn run_cell((runner, stack, xs): &Cell) -> Vec<(f64, &'static str, f64)> {
    let mut out = Vec::new();
    let mut put = |x: f64, metric, value: f64| out.push((x, metric, value));
    match runner {
        Runner::Netpipe(max_bytes, reps) => {
            let mut cfg = stack.cluster(2);
            cfg.event_limit = Some(500_000_000);
            let (points, report) = netpipe_run(&cfg, *stack, *max_bytes, *reps);
            for p in &points {
                put(p.bytes as f64, "latency_us", p.latency_us);
                put(p.bytes as f64, "mbps", p.mbps);
            }
            // The §V-C piggyback census of the whole run, filed under
            // the smallest message size.
            let ranks = &report.rank_stats;
            let sum = |f: fn(&RankStats) -> u64| ranks.iter().map(f).sum::<u64>() as f64;
            put(xs[0], "app_msgs", sum(|s| s.app_msgs_sent));
            put(xs[0], "pb_events", sum(|s| s.pb_events_sent));
            put(xs[0], "empty_pb_msgs", sum(|s| s.empty_pb_msgs));
            put(xs[0], "el_acked_events", sum(|s| s.el_acked_events));
        }
        Runner::NasFree(nas) => {
            let x = xs[0];
            let nas = nas.on(x);
            let run = nas_free(&nas, *stack);
            let (send, recv) = run.pb_times();
            let busy = send.as_secs_f64() + recv.as_secs_f64();
            let exec = x * run.makespan.as_secs_f64();
            put(x, "mflops", mflops(nas.total_flops(), run.makespan));
            put(x, "pb_percent", run.piggyback_percent());
            put(x, "pb_send_ms", send.as_millis_f64());
            put(x, "pb_recv_ms", recv.as_millis_f64());
            put(x, "pb_pct_of_exec", 100.0 * busy / exec);
            // Records that reached the EL coalesced behind a batch whose
            // ack was still outstanding: grows when the ack round trip
            // stretches.
            let records = run.stats.counter(Counter::ElRecords);
            let coalesced = records.saturating_sub(run.el_batches());
            put(x, "el_records", records as f64);
            put(x, "el_coalesced", coalesced as f64);
        }
        Runner::NasKill(nas) => {
            let stretch = |t: SimDuration| t.mul_f64(0.3);
            let run = nas_kill_rank0(&nas.on(xs[0]), ft_kind(*stack), stretch, 0.55);
            let collect = run.rank_stats[0].recovery_collect[0];
            put(xs[0], "collect_ms", collect.as_millis_f64());
        }
        Runner::NasFaults(nas, np) => {
            let outcomes = nas_under_faults(&nas.on(*np as f64), ft_kind(*stack), xs);
            for (&x, (pct, completed)) in xs.iter().zip(outcomes) {
                put(x, "slowdown_pct", pct);
                put(x, "completed", f64::from(u8::from(completed)));
            }
        }
        Runner::Fig3Replay => {
            let SuiteKind::Causal { technique, .. } = ft_kind(*stack) else {
                panic!("Figure 3 compares the causal reduction techniques");
            };
            let pb = figure3(technique).0;
            // a is P0's only reception, b and f are P1's, c..e P2's,
            // g..j P3's.
            let bit = |d: &vlog_core::Determinant| match d.receiver {
                0 => 1u64,
                1 => [1 << 1, 1 << 5][d.clock as usize - 1],
                r => 1 << (d.clock + [1, 5][r - 2]),
            };
            put(0.0, "events_mask", pb.iter().map(bit).sum::<u64>() as f64);
            put(0.0, "count", pb.len() as f64);
            put(
                0.0,
                "wire_bytes",
                technique.default_format().wire_len(&pb) as f64,
            );
        }
    }
    out
}

const V: Technique = Technique::Vcausal;
const M: Technique = Technique::Manetho;
const L: Technique = Technique::LogOn;

/// The six causal configurations, EL on then off — the column order of
/// Figures 7–9.
const CAUSAL_SIX: [Stack; 6] = [
    Stack::causal(V, true),
    Stack::causal(M, true),
    Stack::causal(L, true),
    Stack::causal(V, false),
    Stack::causal(M, false),
    Stack::causal(L, false),
];

/// The figure table at `scale`. Reduced scales shrink iteration
/// fractions and repetition counts, never the set of panels or series.
pub fn panels(scale: Scale) -> Vec<Panel> {
    use NasBench::{BT, CG, FT, LU, MG, SP};
    let nas = |bench, class, frac: f64| Nas(bench, class, scale.fraction(frac));
    let mut table = Vec::new();
    let mut add = |figure, panel: &str, runner, xs, series: &[Stack], metrics| {
        let (panel, series) = (panel.into(), series.to_vec());
        let panel = Panel {
            figure,
            panel,
            runner,
            xs,
            series,
            metrics,
        };
        table.push(panel);
    };

    // Figure 1 runs long enough that several faults land: a few virtual
    // minutes. Quick runs are only ~10 s of virtual time, so faults must
    // come much faster than the paper's axis to land at all.
    let paper_axis = vec![0.0, 1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 1.5, 2.0];
    let (frac, freqs) = match scale {
        Scale::Quick => (0.3, vec![0.0, 6.0, 12.0]),
        Scale::Default => (3.0, paper_axis),
        Scale::Full => (6.0, paper_axis),
    };
    let fig1 = [SuiteKind::Coordinated, SuiteKind::Pessimistic].map(Stack::Ft);
    let fig1 = [fig1[0], fig1[1], CAUSAL_SIX[0]];
    let endurance = Runner::NasFaults(Nas(BT, Class::A, frac), 25);
    let metrics = &["slowdown_pct", "completed"];
    add("1", "BT.A/25", endurance, freqs, &fig1, metrics);
    let metrics = &["events_mask", "count", "wire_bytes"];
    let no_el = &CAUSAL_SIX[3..];
    add(
        "3",
        "P3 -> P2",
        Runner::Fig3Replay,
        vec![0.0],
        no_el,
        metrics,
    );

    let nine = [&[Stack::Raw, Stack::P4, Stack::Vdummy][..], &CAUSAL_SIX].concat();
    let (byte, one) = (Runner::Netpipe(1, scale.reps(1.0)), vec![1.0]);
    add(
        "6a",
        "latency",
        byte.clone(),
        one.clone(),
        &nine,
        &["latency_us"],
    );
    let metrics = &["app_msgs", "pb_events", "empty_pb_msgs", "el_acked_events"];
    let vcausal = [CAUSAL_SIX[0], CAUSAL_SIX[3]];
    add("6a", "census", byte, one, &vcausal, metrics);
    let max_bytes = (if scale == Scale::Quick { 1 } else { 8 }) << 20;
    let ladder = Runner::Netpipe(max_bytes, scale.reps(0.25));
    let sizes = netpipe::sizes(max_bytes).into_iter().map(|b| b as f64);
    let eight = [&nine[..6], &nine[7..]].concat();
    add(
        "6b",
        "bandwidth",
        ladder,
        sizes.collect(),
        &eight,
        &["mbps"],
    );

    // The NAS figures: x = the rank counts the kernel's geometry allows
    // (Figure 10 takes BT to 25), one panel per kernel.
    let mut add_nas = |figure, panel: &str, n: Nas, series, metrics| {
        let mut xs = match n.0 {
            BT | SP => vec![4.0, 9.0, 16.0],
            _ => vec![2.0, 4.0, 8.0, 16.0],
        };
        let runner = match figure {
            "10" => Runner::NasKill(n),
            _ => Runner::NasFree(n),
        };
        xs.extend((figure == "10" && n.0 == BT).then_some(25.0));
        add(figure, &(n.label() + panel), runner, xs, series, metrics);
    };
    let bt = nas(BT, Class::A, 0.10);
    let (cg, cg_b) = (nas(CG, Class::A, 1.0), nas(CG, Class::B, 0.2));
    let (lu, ft) = (nas(LU, Class::A, 0.03), nas(FT, Class::A, 1.0));
    let (mg, sp) = (nas(MG, Class::A, 1.0), nas(SP, Class::A, 0.08));
    for n in [bt, cg, lu] {
        add_nas("7", "", n, &CAUSAL_SIX, &["pb_percent"]);
    }
    let metrics = &["pb_send_ms", "pb_recv_ms", "pb_pct_of_exec"];
    for n in [bt, cg, lu, ft] {
        add_nas("8", "", n, &CAUSAL_SIX, metrics);
    }
    for n in [cg, cg_b, mg, bt, nas(BT, Class::B, 0.05), sp, lu, ft] {
        add_nas("9", "", n, &nine[1..], &["mflops"]);
    }
    // Triage of the CG.B outliers: the EL client's view of the same runs.
    let metrics = &["el_records", "el_coalesced"];
    add_nas("9", " EL client", cg_b, &CAUSAL_SIX[..3], metrics);
    for n in [bt, nas(CG, Class::B, 0.15), lu] {
        add_nas("10", "", n, &vcausal, &["collect_ms"]);
    }
    table
}

// ---- Rows -------------------------------------------------------------

/// One value of the paper table: `(figure, panel, series, x, metric)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PaperRow {
    /// Figure number in the paper (`"6a"`).
    pub figure: String,
    /// Panel within the figure (the workload, usually).
    pub panel: String,
    /// Series ([`Stack::label`]).
    pub series: String,
    /// X-axis value: integers plain, fractions to three digits.
    pub x: String,
    /// Metric name.
    pub metric: String,
    /// The value.
    pub value: f64,
}

impl PaperRow {
    fn key(&self) -> [&str; 5] {
        [
            &self.figure,
            &self.panel,
            &self.series,
            &self.x,
            &self.metric,
        ]
    }
}

impl Record for PaperRow {
    const SCHEMA: &'static [Field<PaperRow>] = &[
        ("figure", |r| Slot::Str(&mut r.figure)),
        ("panel", |r| Slot::Str(&mut r.panel)),
        ("series", |r| Slot::Str(&mut r.series)),
        ("x", |r| Slot::Str(&mut r.x)),
        ("metric", |r| Slot::Str(&mut r.metric)),
        ("value", |r| Slot::F64(&mut r.value, 6)),
    ];

    fn name(&self) -> String {
        format!("fig{}", self.key().join("/"))
    }
}

/// The values of one run of the table, with the lookups the claim
/// checkers are written in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rows(pub Vec<PaperRow>);

impl Rows {
    /// The value of one cell. A cell the table does not hold is a bug
    /// in the claim that asks for it, so this panics naming the cell.
    pub fn get(&self, figure: &str, panel: &str, series: &str, x: &str, metric: &str) -> f64 {
        let key = [figure, panel, series, x, metric];
        let hit = self.0.iter().find(|r| r.key() == key);
        let missing = || panic!("the paper table has no fig{}", key.join("/"));
        hit.unwrap_or_else(missing).value
    }

    /// First-occurrence order of field `key` (an index into
    /// `[figure, panel, series, x, metric]`) over the rows `keep` selects.
    fn distinct(&self, key: usize, keep: impl Fn(&PaperRow) -> bool) -> Vec<String> {
        let mut seen: Vec<String> = Vec::new();
        for r in self.0.iter().filter(|r| keep(r)) {
            if !seen.iter().any(|s| s == r.key()[key]) {
                seen.push(r.key()[key].into());
            }
        }
        seen
    }

    /// Panels of a figure that report `metric`, in table order.
    pub fn panels(&self, figure: &str, metric: &str) -> Vec<String> {
        self.distinct(1, |r| r.figure == figure && r.metric == metric)
    }

    /// X labels of a panel, in axis order.
    pub fn xs(&self, figure: &str, panel: &str) -> Vec<String> {
        self.distinct(3, |r| r.figure == figure && r.panel == panel)
    }
}

/// Integers plain, fractions to three digits.
fn plain(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        fmt3(v)
    }
}

/// The rows of `table` in table order (panel, series, x, metric), each
/// value read through `value(panel, cell, x, metric)`.
fn table_rows(table: &[Panel], value: impl Fn(&Panel, &Cell, f64, &str) -> f64) -> Rows {
    let mut rows = Vec::new();
    for panel in table {
        for cell in panel.cells() {
            for &x in &cell.2 {
                for &metric in panel.metrics {
                    rows.push(PaperRow {
                        figure: panel.figure.into(),
                        panel: panel.panel.clone(),
                        series: cell.1.label(),
                        x: plain(x),
                        metric: metric.into(),
                        value: value(panel, &cell, x, metric),
                    });
                }
            }
        }
    }
    Rows(rows)
}

/// Runs the whole table as one sweep on `threads` workers.
pub fn run_table(table: &[Panel], threads: usize) -> Rows {
    let mut cells: Vec<Cell> = Vec::new();
    for cell in table.iter().flat_map(Panel::cells) {
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    let points = run_many(cells.iter().collect(), threads, run_cell);
    table_rows(table, |_, cell, x, metric| {
        let measured = &points[cells.iter().position(|c| c == cell).unwrap()];
        let point = measured.iter().find(|p| p.0 == x && p.1 == metric);
        point
            .unwrap_or_else(|| panic!("{cell:?}: no {metric} at {x}"))
            .2
    })
}

// ---- Claims -----------------------------------------------------------

/// Outcome of checking one claim against the rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The model reproduces the claim.
    Holds,
    /// It does not; the text states the measured gap.
    Deviates(String),
}

impl Verdict {
    /// Both must hold; deviations concatenate.
    fn and(self, other: Verdict) -> Verdict {
        match (self, other) {
            (Verdict::Deviates(a), Verdict::Deviates(b)) => Verdict::Deviates(format!("{a} | {b}")),
            (Verdict::Holds, v) | (v, Verdict::Holds) => v,
        }
    }

    /// Appends the triage `note` to a deviation.
    fn note(self, note: impl FnOnce() -> String) -> Verdict {
        match self {
            Verdict::Holds => Verdict::Holds,
            Verdict::Deviates(gap) => Verdict::Deviates(format!("{gap} — {}", note())),
        }
    }
}

/// One qualitative statement of the paper about a figure.
pub struct Claim {
    /// Figure the claim is about.
    pub figure: &'static str,
    /// The claim in the paper's terms, with its numbers where it gives
    /// them and the threshold it is checked at.
    pub text: &'static str,
    /// Checks the claim against a run of the table.
    pub check: fn(&Rows) -> Verdict,
}

/// Which x values of a panel an inequality compares.
#[derive(Clone, Copy)]
enum At {
    /// Both sides at every x.
    Same,
    /// Both sides at the last x (the largest cluster).
    Last,
    /// Left side at the last x, right side at the first.
    Ends,
    /// Left side at the first x, right side at the last.
    Flat,
    /// Left side at each x but the first, right side at the x before.
    Steps,
}

/// Checks `lhs >= factor * rhs` — each side a `(metric, series)` list,
/// series zipped pairwise — over the panels of `figure` that report the
/// lhs metric (`"10/BT.A"` restricts to one panel). `Holds` when nothing
/// violates; otherwise the violation count and the first three.
fn ge(rows: &Rows, figure: &str, at: At, lhs: Term, factor: f64, rhs: Term) -> Verdict {
    let ((ml, sl), (mr, sr)) = (lhs, rhs);
    let (figure, only) = figure
        .split_once('/')
        .map_or((figure, None), |(f, p)| (f, Some(p)));
    let (mut checked, mut bad) = (0, Vec::new());
    for panel in rows.panels(figure, ml) {
        if only.is_some_and(|p| p != panel) {
            continue;
        }
        let xs = rows.xs(figure, &panel);
        let n = xs.len();
        let pairs: Vec<(usize, usize)> = match at {
            At::Same => (0..n).map(|i| (i, i)).collect(),
            At::Last => vec![(n - 1, n - 1)],
            At::Ends => vec![(n - 1, 0)],
            At::Flat => vec![(0, n - 1)],
            At::Steps => (1..n).map(|i| (i, i - 1)).collect(),
        };
        for (il, ir) in pairs {
            for (a, b) in sl.iter().zip(sr) {
                let va = rows.get(figure, &panel, a, &xs[il], ml);
                let vb = rows.get(figure, &panel, b, &xs[ir], mr);
                checked += 1;
                if va < factor * vb {
                    let (va, vb, xl, xr) = (fmt3(va), fmt3(vb), &xs[il], &xs[ir]);
                    let times = if factor == 1.0 {
                        String::new()
                    } else {
                        format!("{factor} x ")
                    };
                    let rhs = format!("{times}{b} {mr} {vb} at {xr}");
                    bad.push(format!("{panel} {a} {ml} {va} at {xl} < {rhs}"));
                }
            }
        }
    }
    if bad.is_empty() {
        return Verdict::Holds;
    }
    let more = if bad.len() > 3 { "; ..." } else { "" };
    let shown = bad[..bad.len().min(3)].join("; ");
    Verdict::Deviates(format!("{} of {checked} cells: {shown}{more}", bad.len()))
}

/// One side of an inequality: a metric and the series it is read from.
type Term<'a> = (&'a str, &'a [&'a str]);

const P4: &str = "MPICH-P4";
const VD: &str = "MPICH-Vdummy";
const EL: [&str; 3] = ["Vcausal (EL)", "Manetho (EL)", "LogOn (EL)"];
const NO_EL: [&str; 3] = ["Vcausal (no EL)", "Manetho (no EL)", "LogOn (no EL)"];
/// Vcausal, twice per EL family, against [`GRAPH`].
const VCAUSAL: [&str; 4] = [EL[0], EL[0], NO_EL[0], NO_EL[0]];
/// The two antecedence-graph techniques, with then without the EL.
const GRAPH: [&str; 4] = [EL[1], EL[2], NO_EL[1], NO_EL[2]];
const MANETHO: [&str; 2] = [EL[1], NO_EL[1]];
const LOGON: [&str; 2] = [EL[2], NO_EL[2]];
const PB: &str = "pb_percent";
const SEND: &str = "pb_send_ms";
const RECV: &str = "pb_recv_ms";
const MF: &str = "mflops";
const COLLECT: &str = "collect_ms";

fn fig1_asymptote_order(rows: &Rows) -> Verdict {
    let xs = rows.xs("1", "BT.A/25");
    let stalled = |s: &str, x: &String| rows.get("1", "BT.A/25", s, x, "completed") == 0.0;
    let wall = |s: &str| xs.iter().position(|x| stalled(s, x));
    let [coord, pess, causal] = ["Coordinated", "Pessimistic", EL[0]].map(wall);
    let before = |a: Option<usize>, b: Option<usize>| a.is_some_and(|a| b.is_none_or(|b| a < b));
    if before(coord, pess) && before(coord, causal) {
        return Verdict::Holds;
    }
    let at = |wall: Option<usize>| wall.map_or("never".into(), |i| format!("{}/min", xs[i]));
    let (coord, pess, causal) = (at(coord), at(pess), at(causal));
    Verdict::Deviates(format!(
        "no progress from: coordinated {coord}, pessimistic {pess}, causal {causal}"
    ))
}

/// The Figure 3 event letters of a bitmask.
fn events(mask: f64) -> String {
    let set = |i: &usize| mask as u64 >> i & 1 == 1;
    (0..10)
        .filter(set)
        .map(|i| (b'a' + i as u8) as char)
        .collect()
}

fn fig3_counts(rows: &Rows) -> Verdict {
    let of = |s, m| rows.get("3", "P3 -> P2", s, "0", m);
    let got = NO_EL.map(|s| (of(s, "count"), events(of(s, "events_mask"))));
    let want = [(10.0, "abcdefghij"), (5.0, "fghij"), (5.0, "fghij")];
    if got.iter().zip(want).all(|(g, w)| (g.0, g.1.as_str()) == w) {
        return Verdict::Holds;
    }
    let [v, m, l] = got.map(|(count, events)| format!("{count} ({events})"));
    Verdict::Deviates(format!("Vcausal {v}, Manetho {m}, LogOn {l}"))
}

fn fig6a_empty_piggybacks(rows: &Rows) -> Verdict {
    let census = |s: &str, m: &str| rows.get("6a", "census", s, "1", m);
    let (msgs, empty) = (census(EL[0], "app_msgs"), census(EL[0], "empty_pb_msgs"));
    let share = 100.0 * empty / msgs;
    if (25.0..=75.0).contains(&share) {
        return Verdict::Holds;
    }
    Verdict::Deviates(format!(
        "{empty} of {msgs} messages ({}%) carry no piggyback with the EL ({} without): {} \
         of {} events were acked, but in a strict ping-pong the ack needs a full rank-EL \
         round trip while the reply leaves after one half, so the deterministic model loses \
         on every message the race the paper's testbed won about half the time",
        fmt3(share),
        census(NO_EL[0], "empty_pb_msgs"),
        census(EL[0], "el_acked_events"),
        census(EL[0], "pb_events"),
    ))
}

/// What departs first at the one Figure 9 cell far below Vdummy.
fn fig9_cg_b_note(rows: &Rows) -> String {
    let client = |m: &str| EL.map(|s| rows.get("9", "CG.B EL client", s, "16", m).to_string());
    let mflops = EL
        .map(|s| fmt3(rows.get("9", "CG.B", s, "16", MF)))
        .join("/");
    format!(
        "At CG.B/16 (Vcausal/Manetho/LogOn {mflops} Mflops) all three ship {} EL records, but \
         {} of them coalesced behind an unacknowledged batch: the EL ack round trip stretches \
         first, queued behind bulk payloads on the message-granular NIC model, and the slow \
         level then persists (a run ends with its last rank, so this is application span, \
         not a makespan tail)",
        client("el_records")[0],
        client("el_coalesced").join("/"),
    )
}

/// What departs first where causal logging beats the fault-free stack.
fn fig9_vdummy_note(rows: &Rows) -> String {
    let [vd, p4, causal] = [VD, P4, EL[0]].map(|s| fmt3(rows.get("9", "FT.A", s, "2", MF)));
    format!(
        "Messages and bytes are equal, so the makespan departs first, and it is Vdummy that \
         is slow: at FT.A/2 it runs at half-duplex P4's level ({vd} vs {p4} Mflops, causal \
         {causal}). Where its rendezvous handshakes skew, a clear-to-send queues behind a \
         multi-megabyte payload on the message-granular NIC model and the two directions of \
         an exchange serialise"
    )
}

/// What departs first where the EL does not shorten event collection.
fn fig10_drain_note(rows: &Rows) -> String {
    let chunk = EthernetParams::default().serialization(STREAM_CHUNK_BYTES);
    let chunks = |x: &String| rows.get("10", "BT.A", EL[0], x, COLLECT) / chunk.as_millis_f64();
    let chunks: Vec<String> = rows
        .xs("10", "BT.A")
        .iter()
        .map(|x| fmt3(chunks(x)))
        .collect();
    format!(
        "Checkpoint drain departs first: the BT.A times with the EL are {} x the {} ms one \
         256 KiB checkpoint-image chunk occupies a NIC — a floor both columns sit on \
         (reclaim responses queue behind image chunks), so the EL's saving shows only where \
         the no-EL volume exceeds it (CG.B and LU.A at 8 and 16 ranks)",
        chunks.join("/"),
        fmt3(chunk.as_millis_f64()),
    )
}

/// The paper's shape claims, figure by figure.
pub const CLAIMS: &[Claim] = &[
    Claim {
        figure: "1",
        text: "coordinated checkpointing stops making progress at a lower fault frequency \
               than either message-logging protocol",
        check: fig1_asymptote_order,
    },
    Claim {
        figure: "3",
        text: "Vcausal piggybacks all ten events a-j on the P3 -> P2 message; Manetho and \
               LogOn only the five events f-j",
        check: fig3_counts,
    },
    Claim {
        figure: "6a",
        text: "1-byte latency is lower with the EL than without it, for every technique \
               (paper: 155.8-156.9 us vs 165.2-173.2 us)",
        check: |r| {
            ge(
                r,
                "6a",
                At::Same,
                ("latency_us", &NO_EL),
                1.0,
                ("latency_us", &EL),
            )
        },
    },
    Claim {
        figure: "6a",
        text: "with the EL about half the ping-pong messages carry no piggyback (paper: \
               2397 of 4999, section V-C; checked as 25-75 %)",
        check: fig6a_empty_piggybacks,
    },
    Claim {
        figure: "7",
        text: "without the EL the piggyback share grows steeply with rank count (at every \
               step, and at least 10x from the smallest to the largest cluster)",
        check: |r| {
            ge(r, "7", At::Steps, (PB, &NO_EL), 1.0, (PB, &NO_EL)).and(ge(
                r,
                "7",
                At::Ends,
                (PB, &NO_EL),
                10.0,
                (PB, &NO_EL),
            ))
        },
    },
    Claim {
        figure: "7",
        text: "with the EL the share collapses: never above the no-EL share, and below a \
               tenth of it on the largest cluster (paper: CG/16 ~0.5 % instead of 4-12 %)",
        check: |r| {
            ge(r, "7", At::Same, (PB, &NO_EL), 1.0, (PB, &EL)).and(ge(
                r,
                "7",
                At::Last,
                (PB, &NO_EL),
                10.0,
                (PB, &EL),
            ))
        },
    },
    Claim {
        figure: "7",
        text: "Vcausal always piggybacks the most",
        check: |r| ge(r, "7", At::Same, (PB, &VCAUSAL), 1.0, (PB, &GRAPH)),
    },
    Claim {
        figure: "7",
        text: "without the EL LogOn carries more bytes than Manetho (no factoring; paper: \
               LU/16 39.8 % vs 13.1 %)",
        check: |r| ge(r, "7", At::Same, (PB, &NO_EL[2..]), 1.0, (PB, &NO_EL[1..2])),
    },
    Claim {
        figure: "8",
        text: "Vcausal's send-side serialisation is the cheapest of the three",
        check: |r| ge(r, "8", At::Same, (SEND, &GRAPH), 1.0, (SEND, &VCAUSAL)),
    },
    Claim {
        figure: "8",
        text: "LogOn pays on send (reordering): send-side time >= receive-side time",
        check: |r| ge(r, "8", At::Same, (SEND, &LOGON), 1.0, (RECV, &LOGON)),
    },
    Claim {
        figure: "8",
        text: "Manetho pays on receive (edge generation): receive-side time >= send-side time",
        check: |r| ge(r, "8", At::Same, (RECV, &MANETHO), 1.0, (SEND, &MANETHO)),
    },
    Claim {
        figure: "8",
        text: "without the EL piggyback management inflates, on both sides, for every technique",
        check: |r| {
            ge(r, "8", At::Same, (SEND, &NO_EL), 1.0, (SEND, &EL)).and(ge(
                r,
                "8",
                At::Same,
                (RECV, &NO_EL),
                1.0,
                (RECV, &EL),
            ))
        },
    },
    Claim {
        figure: "9",
        text: "causal logging with the EL stays close to Vdummy: at least 95 % of its Megaflops",
        check: |r| ge(r, "9", At::Same, (MF, &EL), 0.95, (MF, &[VD; 3])).note(|| fig9_cg_b_note(r)),
    },
    Claim {
        figure: "9",
        text: "logging is overhead: the fault-free Vdummy reaches at least 95 % of the \
               Megaflops of causal logging with the EL",
        check: |r| {
            ge(r, "9", At::Same, (MF, &[VD; 3]), 0.95, (MF, &EL)).note(|| fig9_vdummy_note(r))
        },
    },
    Claim {
        figure: "9",
        text: "the EL matters more than the choice of antecedence-graph technique: on the \
               largest cluster either one with the EL beats both without it",
        check: |r| {
            let with_el = [EL[1], EL[1], EL[2], EL[2]];
            let without = [NO_EL[1], NO_EL[2], NO_EL[1], NO_EL[2]];
            ge(r, "9", At::Last, (MF, &with_el), 1.0, (MF, &without))
        },
    },
    Claim {
        figure: "10",
        text: "with the EL collecting the events to replay takes a small fraction of the \
               no-EL time (paper: 10-17 % on BT; checked as <= 25 %)",
        check: |r| {
            ge(
                r,
                "10/BT.A",
                At::Same,
                (COLLECT, &NO_EL[..1]),
                4.0,
                (COLLECT, &EL[..1]),
            )
            .note(|| fig10_drain_note(r))
        },
    },
    Claim {
        figure: "10",
        text: "with the EL the time stays nearly flat with rank count (at most 2x from the \
               smallest to the largest cluster)",
        check: |r| {
            ge(
                r,
                "10",
                At::Flat,
                (COLLECT, &EL[..1]),
                0.5,
                (COLLECT, &EL[..1]),
            )
        },
    },
    Claim {
        figure: "10",
        text: "without the EL the time inflates ~10x from 2 to 16 ranks (paper: CG B \
               80.75 -> 832 ms; checked as >= 5x)",
        check: |r| {
            ge(
                r,
                "10/CG.B",
                At::Ends,
                (COLLECT, &NO_EL[..1]),
                5.0,
                (COLLECT, &NO_EL[..1]),
            )
        },
    },
];

// ---- The committed report ---------------------------------------------

/// One checked claim, as committed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClaimRow {
    /// `figure.n`, n counting the figure's claims from 1.
    pub id: String,
    /// The claim.
    pub claim: String,
    /// `"holds"` or `"deviates"`.
    pub verdict: String,
    /// The measured gap of a deviation (empty when the claim holds).
    pub measured: String,
}

impl Record for ClaimRow {
    const SCHEMA: &'static [Field<ClaimRow>] = &[
        ("id", |r| Slot::Str(&mut r.id)),
        ("claim", |r| Slot::Str(&mut r.claim)),
        ("verdict", |r| Slot::Str(&mut r.verdict)),
        ("measured", |r| Slot::Str(&mut r.measured)),
    ];

    fn name(&self) -> String {
        format!("claim/{}", self.id)
    }
}

/// Checks `claims` against `rows`.
pub fn check_claims(claims: &[Claim], rows: &Rows) -> Vec<ClaimRow> {
    let check = |(i, claim): (usize, &Claim)| {
        let n = 1 + claims[..i]
            .iter()
            .filter(|c| c.figure == claim.figure)
            .count();
        let (verdict, measured) = match (claim.check)(rows) {
            Verdict::Holds => ("holds", String::new()),
            Verdict::Deviates(gap) => ("deviates", gap),
        };
        let (id, claim) = (format!("{}.{n}", claim.figure), claim.text.into());
        ClaimRow {
            id,
            claim,
            verdict: verdict.into(),
            measured,
        }
    };
    claims.iter().enumerate().map(check).collect()
}

/// The content of `BENCH_paper.json`: the values of one run of the table
/// and the verdict on every claim.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PaperReport {
    /// `VLOG_SCALE` the table ran at ([`Scale::label`]).
    pub scale: String,
    /// The values.
    pub rows: Rows,
    /// The checked claims.
    pub claims: Vec<ClaimRow>,
}

impl PaperReport {
    /// Runs the table at `scale` on `threads` workers and checks
    /// [`CLAIMS`].
    pub fn generate(scale: Scale, threads: usize) -> PaperReport {
        let rows = run_table(&panels(scale), threads);
        let claims = check_claims(CLAIMS, &rows);
        let scale = scale.label().into();
        PaperReport {
            scale,
            rows,
            claims,
        }
    }

    /// Serializes to the `BENCH_paper.json` document.
    pub fn write_json(&self) -> String {
        let mut json = "{\n  \"target\": \"paper\",\n".to_string();
        let _ = writeln!(json, "  \"scale\": \"{}\",", self.scale);
        report::write_records(&mut json, "results", &self.rows.0);
        json.push_str(",\n");
        report::write_records(&mut json, "claims", &self.claims);
        json.push_str("\n}\n");
        json
    }

    /// Parses a document [`PaperReport::write_json`] emitted.
    pub fn parse_json(src: &str) -> Result<PaperReport, String> {
        Ok(PaperReport {
            scale: report::parse_header_str(src, "scale")?,
            rows: Rows(report::parse_records(src, "results")?),
            claims: report::parse_records(src, "claims")?,
        })
    }
}

/// Renders `REPORT.md` section 0: the claim scorecard, then one table
/// per figure panel and metric, x down and stacks across.
pub fn render_scorecard(report: &PaperReport) -> String {
    let PaperReport {
        scale,
        rows,
        claims,
    } = report;
    let holding = claims.iter().filter(|c| c.verdict == "holds").count();
    let mut out = format!(
        "## 0. Paper scorecard\n\n\
         *Generated by `cargo bench --bench paper` into `BENCH_paper.json`\n\
         (scale `{scale}`) and composed here by `cargo bench --bench regimes`.*\n\n\
         The source paper's Figures 1, 3, 6a, 6b, 7, 8, 9 and 10, rerun on\n\
         the paper's Fast-Ethernet fabric, and its qualitative claims\n\
         about them checked against the measured values: {holding} of {} hold. A\n\
         `deviates` row is a stated gap between model and paper, not a\n\
         test failure — the committed numbers are the expectation, and\n\
         `scripts/verify.sh` fails when a regeneration moves any of them.\n\n",
        claims.len(),
    );
    let verdict = |c: &ClaimRow| match c.measured.is_empty() {
        true => c.verdict.clone(),
        false => format!("**{}**: {}", c.verdict, c.measured),
    };
    let line = |c: &ClaimRow| vec![c.id.clone(), c.claim.clone(), verdict(c)];
    let body: Vec<_> = claims.iter().map(line).collect();
    out.push_str(&md_table(&["claim", "the paper says", "verdict"], &body));

    let show = |metric: &str, value: f64| match metric {
        "events_mask" => events(value),
        "completed" if value == 0.0 => "no progress".into(),
        "completed" => "yes".into(),
        _ => plain(value),
    };
    for figure in rows.distinct(0, |_| true) {
        for panel in rows.distinct(1, |r| r.figure == figure) {
            let of_panel = |key| rows.distinct(key, |r| r.figure == figure && r.panel == panel);
            let (series, xs) = (of_panel(2), of_panel(3));
            for m in of_panel(4) {
                let _ = writeln!(out, "\n### Figure {figure} — {panel}, `{m}`\n");
                let headers = [&["x".to_string()][..], &series].concat();
                let cell = |x: &String, s| show(&m, rows.get(&figure, &panel, s, x, &m));
                let line = |x: &String| {
                    let cells = series.iter().map(|s| cell(x, s));
                    [x.clone()].into_iter().chain(cells).collect()
                };
                let body: Vec<Vec<String>> = xs.iter().map(line).collect();
                out.push_str(&md_table(&headers, &body));
            }
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value for every cell of the table, chosen so that every claim
    /// holds; `i` is the index of the cell's x on its panel's axis.
    fn synth(series: &str, i: usize, metric: &str) -> f64 {
        let el = series.ends_with("(EL)");
        let by_el = |with: f64, without: f64| if el { with } else { without };
        let technique = ["Vcausal", "Manetho", "LogOn"]
            .iter()
            .position(|t| series.starts_with(t));
        match (metric, technique) {
            ("completed", _) => f64::from(u8::from(series != "Coordinated" || i == 0)),
            ("count", Some(t)) => [10.0, 5.0, 5.0][t],
            ("events_mask", Some(t)) => [1023.0, 992.0, 992.0][t],
            ("latency_us", Some(_)) => by_el(150.0, 170.0),
            ("app_msgs", _) => 100.0,
            ("empty_pb_msgs", _) => by_el(50.0, 0.0),
            ("pb_percent", Some(t)) => [3.0, 1.0, 2.0][t] * 4f64.powi(i as i32) * by_el(1.0, 100.0),
            ("pb_send_ms", Some(t)) => [1.0, 2.0, 4.0][t] * by_el(1.0, 10.0),
            ("pb_recv_ms", Some(t)) => [1.0, 3.0, 3.0][t] * by_el(1.0, 10.0),
            ("mflops", Some(t)) => by_el(99.0, 90.0 + t as f64),
            ("mflops", None) => 100.0,
            ("collect_ms", _) => by_el(10.0, 50.0 * 2f64.powi(i as i32)),
            _ => 1.0,
        }
    }

    fn fixture() -> Rows {
        table_rows(&panels(Scale::Quick), |panel, cell, x, metric| {
            let i = panel.xs.iter().position(|&px| px == x).unwrap();
            synth(&cell.1.label(), i, metric)
        })
    }

    /// Each claim holds on the fixture and deviates once one cell is
    /// moved, with the moved value (and its counterpart) in the text.
    #[test]
    fn every_claim_holds_on_the_fixture_and_deviates_with_its_numbers() {
        let holding = fixture();
        for c in check_claims(CLAIMS, &holding) {
            assert_eq!(c.verdict, "holds", "{}: {}", c.id, c.measured);
        }
        // claim | row to move | new value | measured numbers the text must carry
        let moves = [
            "1.1 | fig1/BT.A/25/Pessimistic/6/completed | 0.0 | pessimistic 6/min",
            "3.1 | fig3/P3 -> P2/Manetho (no EL)/0/count | 6.0 | Manetho 6 (fghij)",
            "6a.1 | fig6a/latency/LogOn (EL)/1/latency_us | 171.5 | latency_us 172 at 1",
            "6a.2 | fig6a/census/Vcausal (EL)/1/empty_pb_msgs | 1.0 | 1 of 100 messages",
            "7.1 | fig7/CG.A/Manetho (no EL)/16/pb_percent | 250.0 | 250 at 16 < 10 x",
            "7.2 | fig7/LU.A/LogOn (EL)/16/pb_percent | 2000.0 | pb_percent 2000 at 16",
            "7.3 | fig7/BT.A/Vcausal (EL)/9/pb_percent | 7.5 | 7.50 at 9 < LogOn (EL)",
            "7.4 | fig7/BT.A/LogOn (no EL)/4/pb_percent | 50.0 | 50.0 at 4 < Manetho",
            "8.1 | fig8/FT.A/Vcausal (EL)/2/pb_send_ms | 2.5 | < Vcausal (EL) pb_send_ms 2.50",
            "8.2 | fig8/FT.A/LogOn (EL)/2/pb_send_ms | 2.5 | pb_send_ms 2.50 at 2 < LogOn",
            "8.3 | fig8/FT.A/Manetho (EL)/2/pb_recv_ms | 1.5 | pb_recv_ms 1.50 at 2 < Manetho",
            "8.4 | fig8/CG.A/Vcausal (no EL)/8/pb_recv_ms | 0.5 | pb_recv_ms 0.500 at 8 <",
            "9.1 | fig9/CG.B/Vcausal (EL)/16/mflops | 52.5 | 52.5/99.0/99.0 Mflops",
            "9.2 | fig9/FT.A/MPICH-Vdummy/2/mflops | 70.5 | (70.5 vs 100 Mflops",
            "9.3 | fig9/SP.A/LogOn (no EL)/16/mflops | 99.5 | < LogOn (no EL) mflops 99.5",
            "10.1 | fig10/BT.A/Vcausal (EL)/25/collect_ms | 112.78 | 0.443/0.443/0.443/5.00 x",
            "10.2 | fig10/LU.A/Vcausal (EL)/16/collect_ms | 25.5 | 0.5 x Vcausal (EL) collect_ms 25.5",
            "10.3 | fig10/CG.B/Vcausal (no EL)/16/collect_ms | 241.0 | collect_ms 241 at 16 < 5 x",
        ];
        assert_eq!(moves.len(), CLAIMS.len(), "one move per claim");
        for m in moves {
            let [id, name, value, numbers] = m.split(" | ").collect::<Vec<_>>()[..] else {
                panic!("malformed move {m}");
            };
            let mut rows = holding.clone();
            let moved = rows.0.iter_mut().find(|r| r.name() == name);
            moved.expect(name).value = value.parse().unwrap();
            let checked = check_claims(CLAIMS, &rows);
            let c = checked.iter().find(|c| c.id == id).unwrap();
            assert_eq!(c.verdict, "deviates", "{id}");
            assert!(
                c.measured.contains(numbers),
                "{id} lacks {numbers:?}: {}",
                c.measured
            );
        }
    }

    /// Golden render of section 0 for a two-panel report: a multi-x
    /// panel, the Figure 3 letters, a holding and a deviating claim.
    #[test]
    fn renders_the_golden_scorecard() {
        let row =
            |figure: &str, panel: &str, series: &str, x: &str, metric: &str, value| PaperRow {
                figure: figure.into(),
                panel: panel.into(),
                series: series.into(),
                x: x.into(),
                metric: metric.into(),
                value,
            };
        let claim = |id: &str, verdict: &str, measured: &str| ClaimRow {
            id: id.into(),
            claim: format!("claim {id}"),
            verdict: verdict.into(),
            measured: measured.into(),
        };
        let report = PaperReport {
            scale: "quick".into(),
            rows: Rows(vec![
                row(
                    "3",
                    "P3 -> P2",
                    "Manetho (no EL)",
                    "0",
                    "events_mask",
                    992.0,
                ),
                row("7", "LU.A", "Vcausal (EL)", "8", "pb_percent", 0.3512),
                row("7", "LU.A", "Vcausal (no EL)", "8", "pb_percent", 14.81),
                row("7", "LU.A", "Vcausal (EL)", "16", "pb_percent", 2.0),
                row("7", "LU.A", "Vcausal (no EL)", "16", "pb_percent", 44.7),
            ]),
            claims: vec![
                claim("3.1", "holds", ""),
                claim("7.1", "deviates", "1 of 2 cells"),
            ],
        };
        let md = render_scorecard(&report);
        assert!(md.starts_with("## 0. Paper scorecard\n\n"), "{md}");
        assert!(
            md.contains("(scale `quick`)") && md.contains(": 1 of 2 hold."),
            "{md}"
        );
        let expected = "\
| claim | the paper says | verdict |
| :-- | --: | --: |
| 3.1 | claim 3.1 | holds |
| 7.1 | claim 7.1 | **deviates**: 1 of 2 cells |

### Figure 3 — P3 -> P2, `events_mask`

| x | Manetho (no EL) |
| :-- | --: |
| 0 | fghij |

### Figure 7 — LU.A, `pb_percent`

| x | Vcausal (EL) | Vcausal (no EL) |
| :-- | --: | --: |
| 8 | 0.351 | 14.8 |
| 16 | 2 | 44.7 |

";
        assert!(md.ends_with(expected), "scorecard drifted:\n{md}");
        let back = PaperReport::parse_json(&report.write_json()).unwrap();
        assert_eq!(
            back.write_json(),
            report.write_json(),
            "write -> parse -> write"
        );
        assert_eq!(
            md,
            render_scorecard(&back),
            "renders the same from the committed form"
        );
    }

    /// The full table at quick scale: every cell completes (the runners
    /// assert it), every panel value is there, every claim is decided,
    /// and Figure 3's counts hold exactly.
    #[test]
    fn quick_scale_table_runs_end_to_end() {
        let report = PaperReport::generate(Scale::Quick, crate::default_threads());
        assert_eq!(report.rows.0.len(), fixture().0.len());
        assert_eq!(report.claims.len(), CLAIMS.len());
        for c in &report.claims {
            let decided =
                (c.verdict == "holds") != (c.verdict == "deviates" && !c.measured.is_empty());
            assert!(decided, "{}: {} / {:?}", c.id, c.verdict, c.measured);
        }
        let fig3 = report.claims.iter().find(|c| c.id == "3.1").unwrap();
        assert_eq!(fig3.verdict, "holds", "{}", fig3.measured);
    }
}
