//! The two kinds of run: end-to-end (tracing off) and traced.
//!
//! End-to-end: set up several times (build the plan, one warm-up
//! iteration), then iterate for the measuring time with the profiler
//! disabled, no spans and allocator counting off. Traced: a few bare
//! iterations for reference, then iterations under cell-level spans, the
//! program's phase profiler and the counting allocator, then the
//! per-operation probes. End-to-end timings are plain medians of what the
//! clock read; the traced run's layer times are those of its fastest
//! iteration; counts must repeat exactly from one iteration to the next.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use vlog_sim::profiler::{self, Phase};

use crate::names::{MetricDef, END_TO_END, PER_LAYER};
use crate::plan::{Iteration, Plan, Tally};
use crate::summary::{median, quartiles};
use crate::trace::{self, spanned, Tracer};
use crate::{alloc, host, probes};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest iterations a timed phase of a full run may end with.
const MIN_ITERS: usize = 3;

pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    /// Measuring time of the timed phase, seconds. The traced run gives
    /// half to bare reference iterations and half to traced ones.
    pub seconds: f64,
    /// `--quick`: one set-up without warm-up, one iteration per phase,
    /// whatever `seconds` says.
    pub quick: bool,
    pub known_failing: bool,
    /// Directory for the trace file and the sweep's report files.
    pub out: PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

/// Correctness across iterations: the first tally is the reference and
/// every later one must equal it. An iteration that diverges counts all
/// its operations as failed.
#[derive(Default)]
struct Gate {
    reference: Option<Tally>,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn see(&mut self, it: &Iteration) {
        let reference = self.reference.get_or_insert_with(|| it.tally.clone());
        self.attempted += it.tally.attempted;
        if *reference == it.tally {
            self.failed += it.tally.failed;
        } else {
            eprintln!(
                "iteration diverged from the first: fingerprint {:#x} vs {:#x}, events {} vs {}",
                it.tally.fingerprint.0, reference.fingerprint.0, it.tally.events, reference.events
            );
            self.failed += it.tally.attempted;
        }
    }

    fn reference(&self) -> &Tally {
        self.reference.as_ref().expect("at least one iteration ran")
    }
}

/// The fastest of some wall times: what the work costs when the host
/// does not interfere (ROADMAP: "min-of-k runs rather than mean"). Used
/// for the traced run's layer times, which explain and do not gate.
fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Iterates until the phase has run `seconds` and holds at least
/// `min_iters` samples; returns each iteration's own wall time (the
/// pass, without its tally).
fn timed_phase(
    plan: &Plan,
    threads: usize,
    seconds: f64,
    min_iters: usize,
    gate: &mut Gate,
) -> Vec<f64> {
    let started = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_iters || started.elapsed().as_secs_f64() < seconds {
        let it = plan.iterate(threads, None);
        gate.see(&it);
        walls.push(it.wall_s);
    }
    walls
}

fn build_plan(spec: &RunSpec) -> Plan {
    let scratch = spec.out.join(format!("sweep-{}", std::process::id()));
    Plan::build(&spec.workload, spec.seed, scratch, spec.known_failing)
}

fn remove_scratch(plan: &Plan) {
    if let Plan::Sweep { scratch, .. } = plan {
        // Best effort: a leftover directory is ignored by git and
        // harmless to the next run.
        let _ = std::fs::remove_dir_all(scratch);
    }
}

/// Events one explorer iteration dispatches. `ExploreReport` does not
/// carry the count, so one extra iteration runs under the phase
/// profiler, whose dispatch scope fires once per event.
fn explore_events(plan: &Plan, gate: &mut Gate) -> u64 {
    profiler::set_enabled(true);
    let _ = profiler::take();
    gate.see(&plan.iterate(1, None));
    let readings = profiler::take();
    profiler::set_enabled(false);
    readings
        .iter()
        .find(|r| r.phase == Phase::Dispatch)
        .map_or(0, |r| r.calls)
}

pub fn end_to_end(spec: &RunSpec) -> Outcome {
    let threads = host::threads();
    let mut gate = Gate::default();
    let mut setups = Vec::new();
    let mut plan = None;
    for _ in 0..if spec.quick { 1 } else { SETUPS } {
        let started = Instant::now();
        let built = build_plan(spec);
        let warm_up = (!spec.quick).then(|| built.iterate(threads, None));
        setups.push(started.elapsed().as_secs_f64());
        if let Some(warm_up) = &warm_up {
            gate.see(warm_up);
        }
        plan = Some(built);
    }
    let plan = plan.expect("at least one set-up");
    let (seconds, min_iters) = if spec.quick {
        (0.0, 1)
    } else {
        (spec.seconds, MIN_ITERS)
    };
    let walls = timed_phase(&plan, threads, seconds, min_iters, &mut gate);
    let peak_rss_mb = host::peak_rss_mb();
    let events = match plan {
        Plan::Explore { .. } => explore_events(&plan, &mut gate),
        _ => gate.reference().events,
    };
    remove_scratch(&plan);

    let wall_s = median(&walls);
    let (q1, q3) = if walls.len() > 1 {
        quartiles(&walls)
    } else {
        (wall_s, wall_s)
    };
    // Only the sweep fans out; everything else runs on this thread.
    let used = match plan {
        Plan::Sweep { .. } => threads,
        _ => 1,
    };
    eprintln!(
        "{}: wall_s is the median of {} iterations on {used} thread(s) \
         (fastest {:.6} s, quartiles {q1:.6} s and {q3:.6} s); setup_s the median of {} set-ups",
        spec.workload,
        walls.len(),
        fastest(&walls),
        setups.len()
    );
    let values = [
        ("wall_s", wall_s),
        ("events_per_s", events as f64 / wall_s),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", median(&setups)),
    ];
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: END_TO_END
            .iter()
            .map(|def| {
                let value = values.iter().find(|(name, _)| *name == def.name);
                (def, value.expect("every end-to-end metric is computed").1)
            })
            .collect(),
    }
}

/// What one traced iteration measured.
struct Sample {
    wall_s: f64,
    /// `(calls, busy seconds)` per profiler phase, `Phase::all()` order.
    phases: Vec<(u64, f64)>,
    /// `(seconds, allocation calls, spans)` of the named span.
    spans: BTreeMap<&'static str, (f64, u64, u64)>,
    allocs: (u64, u64),
}

const SPAN_NAMES: [&str; 6] = [
    "workloads.program",
    "vmpi.cluster.build",
    "vmpi.cluster.run",
    "bench.report.write_json",
    "bench.report.parse_json",
    "bench.report.render_markdown",
];

pub fn traced(spec: &RunSpec) -> Outcome {
    let threads = host::threads();
    let mut gate = Gate::default();
    let plan = build_plan(spec);
    if !spec.quick {
        gate.see(&plan.iterate(threads, None));
    }
    let is_sweep = matches!(plan, Plan::Sweep { .. });

    // Bare reference iterations, at the thread count the traced ones
    // use (profiler accumulators are thread-local, so the sweep is
    // traced on one thread). The
    // sweep adds one pass at full width first, for its parallel
    // efficiency and idle share.
    let mut sweep_wide = None;
    if is_sweep && !spec.quick {
        let cpu_before = host::cpu_seconds();
        let wide = plan.iterate(threads, None);
        let cpu_s = host::cpu_seconds() - cpu_before;
        gate.see(&wide);
        sweep_wide = Some((wide.wall_s, cpu_s));
    }
    let (half_seconds, bare_iters, traced_iters) = match (spec.quick, is_sweep) {
        (true, _) => (0.0, 0, 1),
        (false, true) => (0.0, 1, 2),
        (false, false) => (spec.seconds / 2.0, MIN_ITERS, MIN_ITERS),
    };
    let bare_walls = timed_phase(&plan, 1, half_seconds, bare_iters, &mut gate);

    profiler::set_enabled(true);
    alloc::set_counting(true);
    let tracer = Tracer::new();
    let mut samples: Vec<Sample> = Vec::new();
    let phase_started = Instant::now();
    let cpu_before = host::cpu_seconds();
    while samples.len() < traced_iters || phase_started.elapsed().as_secs_f64() < half_seconds {
        let iter = samples.len() as u64;
        tracer.set_iteration(iter);
        let _ = profiler::take();
        let allocs_before = alloc::counted();
        let it = spanned(Some(tracer.root()), "iteration", |ctx| plan.iterate(1, ctx));
        let allocs_after = alloc::counted();
        let phases = profiler::take()
            .iter()
            .map(|r| (r.calls, r.nanos as f64 / 1e9))
            .collect();
        gate.see(&it);
        samples.push(Sample {
            wall_s: it.wall_s,
            phases,
            spans: BTreeMap::new(),
            allocs: (
                allocs_after.0 - allocs_before.0,
                allocs_after.1 - allocs_before.1,
            ),
        });
    }
    let cpu_per_iter = (host::cpu_seconds() - cpu_before) / samples.len() as f64;
    alloc::set_counting(false);
    profiler::set_enabled(false);
    remove_scratch(&plan);

    let spans = tracer.spans();
    for (iter, sample) in samples.iter_mut().enumerate() {
        for name in SPAN_NAMES {
            sample
                .spans
                .insert(name, trace::totals(&spans, name, iter as u64));
        }
    }
    let trace_path = spec.out.join(format!("trace_{}.json", spec.workload));
    let written = std::fs::create_dir_all(&spec.out)
        .and_then(|()| std::fs::write(&trace_path, trace::chrome_trace(&spans)));
    match written {
        Ok(()) => eprintln!(
            "{}: {} spans of {} traced iterations in {}",
            spec.workload,
            spans.len(),
            samples.len(),
            trace_path.display()
        ),
        Err(e) => {
            eprintln!(
                "{}: cannot write {}: {e}",
                spec.workload,
                trace_path.display()
            );
            gate.attempted += 1;
            gate.failed += 1;
        }
    }

    // Counts must repeat exactly; a traced iteration whose counts differ
    // from the first's is a failed operation.
    let counts = |s: &Sample| {
        let calls: Vec<u64> = s.phases.iter().map(|p| p.0).collect();
        let spans: Vec<u64> = s.spans.values().map(|v| v.2).collect();
        (calls, spans)
    };
    for s in &samples[1..] {
        if counts(s) != counts(&samples[0]) {
            eprintln!(
                "{}: profiler or span counts differ between traced iterations",
                spec.workload
            );
            gate.attempted += 1;
            gate.failed += 1;
        }
    }

    // Layer times are those of the fastest traced iteration: one
    // iteration's readings, so shares of it add up, and the one the
    // host disturbed least (see `fastest`).
    let tally = gate.reference().clone();
    let best = samples
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one traced iteration");
    let phase_index = |phase: Phase| {
        Phase::all()
            .iter()
            .position(|p| *p == phase)
            .expect("a profiler phase")
    };
    let busy = |phase: Phase| best.phases[phase_index(phase)].1;
    let calls = |phase: Phase| best.phases[phase_index(phase)].0 as f64;
    let span_s = |name: &'static str| best.spans[name].0;
    let span_allocs = |name: &'static str| best.spans[name].1 as f64;
    let span_count = |name: &'static str| best.spans[name].2 as f64;

    let traced_wall = best.wall_s;
    let bare_wall = if bare_walls.is_empty() {
        traced_wall
    } else {
        fastest(&bare_walls)
    };
    // The explorer's runs are not visible from outside `explore()`: its
    // event count is the dispatch scope's call count.
    let is_explore = matches!(plan, Plan::Explore { .. });
    let events = if is_explore {
        calls(Phase::Dispatch)
    } else {
        tally.events as f64
    };
    let per_event = |x: f64| if events > 0.0 { x / events } else { 0.0 };
    let run_s = span_s("vmpi.cluster.run");
    let (calendar, dispatch) = (busy(Phase::Calendar), busy(Phase::Dispatch));
    let (net, stats, codec) = (busy(Phase::Net), busy(Phase::Stats), busy(Phase::Codec));

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("sim.calendar.busy_s", calendar);
    v.insert("sim.calendar.calls", calls(Phase::Calendar));
    v.insert(
        "sim.calendar.probe_ns_per_op",
        probes::calendar_ns_per_op(events as u64),
    );
    v.insert("sim.kernel.events", events);
    v.insert("sim.kernel.ns_per_event", per_event(bare_wall * 1e9));
    v.insert("sim.kernel.dispatch_busy_s", dispatch);
    v.insert("sim.kernel.dispatch_self_s", dispatch - net - stats - codec);
    if !is_explore {
        v.insert("sim.kernel.unattributed_s", run_s - calendar - dispatch);
    }
    v.insert("sim.net.busy_s", net);
    v.insert("sim.net.calls", calls(Phase::Net));
    v.insert("sim.stats.busy_s", stats);
    v.insert("sim.stats.calls", calls(Phase::Stats));
    if tally.msg_sizes.count() > 0 {
        v.insert(
            "sim.net.probe_ns_per_send",
            probes::net_ns_per_send(&tally.msg_sizes),
        );
        v.insert(
            "sim.stats.probe_ns_per_record",
            probes::stats_ns_per_record(&tally.msg_sizes),
        );
    }
    v.insert("core.codec.busy_s", codec);
    v.insert("core.codec.calls", calls(Phase::Codec));
    if plan.max_ranks() > 0 {
        v.insert(
            "core.reduction.probe_ns_per_build",
            probes::reduction_ns_per_build(plan.max_ranks().min(32)),
        );
    }
    v.insert(
        "core.piggyback.probe_ns_per_wire_len",
        probes::wire_len_ns_per_call(),
    );
    v.insert("core.el.records", tally.el_records as f64);
    v.insert("core.el.batches", tally.el_batches as f64);
    v.insert("core.el.queries", tally.el_queries as f64);
    v.insert("core.el.reshards", tally.el_reshards as f64);
    v.insert("core.el.peak_queue", tally.el_peak_queue as f64);
    v.insert("vmpi.cluster.build_s", span_s("vmpi.cluster.build"));
    v.insert("vmpi.cluster.run_s", run_s);
    v.insert("vmpi.cluster.runs", span_count("vmpi.cluster.run"));
    v.insert("workloads.program.busy_s", span_s("workloads.program"));
    v.insert("workloads.program.calls", span_count("workloads.program"));
    if is_sweep {
        v.insert("bench.sweep.wall_1t_s", bare_wall);
        if let Some((wall_wide, cpu_wide)) = sweep_wide {
            let lanes = threads as f64 * wall_wide;
            v.insert("bench.sweep.parallel_efficiency", bare_wall / lanes);
            v.insert("bench.sweep.idle_share", (1.0 - cpu_wide / lanes).max(0.0));
        }
        v.insert(
            "bench.report.write_json_s",
            span_s("bench.report.write_json"),
        );
        v.insert(
            "bench.report.parse_json_s",
            span_s("bench.report.parse_json"),
        );
        v.insert(
            "bench.report.render_markdown_s",
            span_s("bench.report.render_markdown"),
        );
    }
    if is_explore {
        let schedules = tally.attempted as f64;
        v.insert("explore.schedules_per_s", schedules / bare_wall);
        v.insert("explore.runs", tally.explore_runs as f64);
        v.insert("explore.distinct_schedules", schedules);
        v.insert("explore.violations", tally.failed as f64);
        v.insert(
            "explore.events_per_run",
            events / (tally.explore_runs as f64).max(1.0),
        );
        v.insert(
            "explore.outside_kernel_share",
            1.0 - (calendar + dispatch) / traced_wall,
        );
    }
    v.insert("alloc.count_per_event", per_event(best.allocs.0 as f64));
    v.insert("alloc.bytes_per_event", per_event(best.allocs.1 as f64));
    v.insert("alloc.count_in_build", span_allocs("vmpi.cluster.build"));
    v.insert("alloc.count_in_run", span_allocs("vmpi.cluster.run"));
    v.insert("host.cpu_s", cpu_per_iter);
    if !bare_walls.is_empty() {
        v.insert("trace.overhead_ratio", traced_wall / bare_wall);
    }
    v.insert("model.makespan_s", tally.makespan_ns as f64 / 1e9);
    v.insert("model.messages", tally.messages as f64);
    v.insert("model.bytes_total", tally.bytes_total as f64);
    v.insert("model.pb_bytes", tally.pb_bytes as f64);
    v.insert("model.pb_events_sent", tally.pb_events_sent as f64);
    v.insert("model.recoveries", tally.recoveries as f64);
    v.insert(
        "model.recovery_total_s",
        tally.recovery_total_ns as f64 / 1e9,
    );
    v.insert("model.checkpoints", tally.checkpoints as f64);
    v.insert("model.global_rollbacks", tally.global_rollbacks as f64);
    // The top 53 bits: the most a JSON number carries exactly.
    v.insert("model.fingerprint", (tally.fingerprint.0 >> 11) as f64);

    // A metric with no meaning on this workload (sweep timings on a cell
    // list, cluster spans inside the explorer) reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|def| (def, v.remove(def.name).unwrap_or(0.0)))
        .collect();
    assert!(
        v.is_empty(),
        "values for names PER_LAYER does not list: {v:?}"
    );
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    }
}
