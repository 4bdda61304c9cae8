//! Scaled-regime sweep: the `Large` workload registry (multi-server
//! bursty, large seeded halo graphs, the deep-tiling FFT ladder, NAS
//! and NetPIPE at the paper's upper rank counts) under every protocol
//! suite, each cell run twice — fault-free and with a *hub failure*
//! (the workload's most load-bearing rank killed mid-run).
//!
//! Emits the two committed artifacts: `BENCH_regimes.json` (the full
//! grid) and `REPORT.md` — the paper scorecard rendered from the
//! committed `BENCH_paper.json` (section 0; run the `paper` target
//! first) in front of the figure-style cross-regime comparison.
//! Unlike the other benches this target ignores `VLOG_SCALE`: the
//! artifacts are committed, `scripts/verify.sh` regenerates them and
//! requires a byte-identical result, so there is exactly one scale.

use std::sync::Arc;

use vlog_bench::paper::{render_scorecard, PaperReport};
use vlog_bench::{
    default_threads, out_dir, render_markdown, run_many, write_json, RegimeRow, SuiteKind,
};
use vlog_core::{CausalSuite, PbFormat, Technique};
use vlog_sim::{NetProfile, SimDuration};
use vlog_vmpi::{ClusterConfig, FaultPlan};
use vlog_workloads::runner::faults;
use vlog_workloads::{
    net_axes, registry, run_workload, NetAxis, RegistryScale, Workload, WorkloadRun,
};

/// When the hub dies. Every Large entry runs well past this point under
/// every suite, so the fault always lands mid-run.
const HUB_FAULT_AT: SimDuration = SimDuration::from_millis(5);

/// Crash-detection delay: short enough that recovery, not detection,
/// dominates the faulted makespan (the conformance suite uses the same
/// value).
const DETECT_DELAY: SimDuration = SimDuration::from_millis(8);

/// Checkpoint cadence offered to every suite.
const CKPT_EVERY: SimDuration = SimDuration::from_millis(6);

/// When the EL-scaling sweep kills one EL shard. Matches the hub-fault
/// time so the two fault modes stress the same phase of the run.
const EL_FAULT_AT: SimDuration = SimDuration::from_millis(5);

/// Stable-clock gossip period of the distributed EL shards.
const EL_GOSSIP: SimDuration = SimDuration::from_millis(20);

fn cluster_for(w: &dyn Workload, profile: NetProfile) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(w.np());
    cfg.detect_delay = DETECT_DELAY;
    cfg.event_limit = Some(2_000_000_000);
    cfg.net = profile;
    cfg
}

fn run_cell(w: &Arc<dyn Workload>, kind: SuiteKind) -> RegimeRow {
    let cfg = cluster_for(w.as_ref(), NetProfile::fast_ethernet_2005());
    let free = run_workload(w.as_ref(), &cfg, kind.build(CKPT_EVERY), &FaultPlan::none());
    assert!(
        free.report.completed,
        "{} under {} did not complete fault-free",
        free.label,
        kind.label()
    );
    let plan = faults::hub_failure(w.as_ref(), HUB_FAULT_AT);
    let faulted = run_workload(w.as_ref(), &cfg, kind.build(CKPT_EVERY), &plan);
    assert!(
        faulted.report.completed,
        "{} under {} did not recover from the hub failure",
        faulted.label,
        kind.label()
    );
    let el = match kind {
        SuiteKind::Causal { el, .. } => el,
        SuiteKind::Pessimistic => true,
        SuiteKind::Coordinated => false,
    };
    let axis = NetAxis {
        profile: NetProfile::fast_ethernet_2005(),
        el_count: if el { 1 } else { 0 },
    };
    row_from_runs(
        w.as_ref(),
        kind.label(),
        kind.is_causal(),
        el,
        &axis,
        &free,
        &faulted,
    )
}

/// One cell of the EL-scaling sweep: the saturation-probe workload under
/// Vcausal+EL on the given fabric × shard-count axis, fault-free plus
/// (when there is a shard to spare) an EL-failure rerun in which shard 0
/// is crashed mid-run and its ranks re-shard onto the survivors. Here
/// `faulted_makespan_s` records that EL-failure rerun, not a hub
/// failure.
fn run_scaling_cell(w: &Arc<dyn Workload>, axis: &NetAxis) -> RegimeRow {
    let kind = SuiteKind::Causal {
        technique: Technique::Vcausal,
        el: true,
    };
    let suite = || {
        Arc::new(
            CausalSuite::new(Technique::Vcausal, true)
                .with_checkpoints(CKPT_EVERY)
                .with_distributed_el(axis.el_count, EL_GOSSIP),
        )
    };
    let cfg = cluster_for(w.as_ref(), axis.profile.clone());
    let free = run_workload(w.as_ref(), &cfg, suite(), &FaultPlan::none());
    assert!(
        free.report.completed,
        "{} on {} did not complete fault-free",
        free.label,
        axis.label()
    );
    let faulted = if axis.el_count >= 2 {
        let run = run_workload(
            w.as_ref(),
            &cfg,
            suite(),
            &FaultPlan::kill_el_at(EL_FAULT_AT, 0),
        );
        assert!(
            run.report.completed,
            "{} on {} did not survive the EL-shard failure",
            run.label,
            axis.label()
        );
        assert!(
            run.report.el_reshards() >= 1,
            "{} on {}: EL failure injected but no re-shard happened",
            run.label,
            axis.label()
        );
        run
    } else {
        run_workload(w.as_ref(), &cfg, suite(), &FaultPlan::none())
    };
    row_from_runs(w.as_ref(), kind.label(), true, true, axis, &free, &faulted)
}

fn row_from_runs(
    w: &dyn Workload,
    suite: String,
    causal: bool,
    el: bool,
    axis: &NetAxis,
    free: &WorkloadRun,
    faulted: &WorkloadRun,
) -> RegimeRow {
    let (pb_send, pb_recv) = free.pb_times();
    let gauges = free.report.el_shard_gauges(axis.el_count);
    let el_shard_queues = gauges
        .iter()
        .map(|(q, _)| q.to_string())
        .collect::<Vec<_>>()
        .join("/");
    let el_ack_peak_us = gauges
        .iter()
        .map(|(_, ack)| ack.as_micros_f64())
        .fold(0.0, f64::max);
    RegimeRow {
        family: free.family.to_string(),
        label: free.label.clone(),
        suite,
        np: w.np() as u64,
        causal,
        el,
        completed: free.report.completed && faulted.report.completed,
        makespan_s: free.report.makespan.as_secs_f64(),
        faulted_makespan_s: faulted.report.makespan.as_secs_f64(),
        hub_rank: w.hub_rank() as u64,
        pb_percent: free.piggyback_percent(),
        pb_send_us: pb_send.as_micros_f64(),
        pb_recv_us: pb_recv.as_micros_f64(),
        messages: free.report.stats.messages,
        total_bytes: free.report.stats.total_bytes(),
        max_msg_bucket: free.msg_histogram().max_bucket_bytes(),
        el_peak_queue: free.report.el_peak_queue_depth(),
        el_peak_queue_faulted: faulted.report.el_peak_queue_depth(),
        el_peak_outstanding: free.report.el_peak_outstanding(),
        el_ack_mean_us: free.report.el_ack_latency_mean().as_micros_f64(),
        el_records: free.report.el_acked_records(),
        profile: axis.profile.name.to_string(),
        el_count: axis.el_count as u64,
        el_shard_queues,
        el_ack_peak_us,
        pb_bytes_per_msg: if free.report.stats.messages == 0 {
            0.0
        } else {
            free.report.stats.bytes.piggyback as f64 / free.report.stats.messages as f64
        },
        pb_bytes_total: free.report.stats.bytes.piggyback,
    }
}

/// One cell of the compact-piggyback scale sweep (REPORT.md table 7):
/// the given bursty ladder entry under Vcausal+EL with the compact wire
/// format. `el_fault == false` runs the paper-baseline axis (classic
/// single EL) and reruns it with a hub failure; `el_fault == true` runs
/// a two-shard EL axis and reruns it with shard 0 crashed mid-run.
fn run_compact_cell(w: &Arc<dyn Workload>, el_fault: bool) -> RegimeRow {
    let el_count = if el_fault { 2 } else { 1 };
    let suite = || {
        let s = CausalSuite::new(Technique::Vcausal, true)
            .with_checkpoints(CKPT_EVERY)
            .with_pb_format(PbFormat::Compact);
        Arc::new(if el_fault {
            s.with_distributed_el(2, EL_GOSSIP)
        } else {
            s
        })
    };
    let axis = NetAxis {
        profile: NetProfile::fast_ethernet_2005(),
        el_count,
    };
    let cfg = cluster_for(w.as_ref(), axis.profile.clone());
    let free = run_workload(w.as_ref(), &cfg, suite(), &FaultPlan::none());
    assert!(
        free.report.completed,
        "{} under the compact suite (el{el_count}) did not complete fault-free",
        free.label
    );
    let plan = if el_fault {
        FaultPlan::kill_el_at(EL_FAULT_AT, 0)
    } else {
        faults::hub_failure(w.as_ref(), HUB_FAULT_AT)
    };
    let faulted = run_workload(w.as_ref(), &cfg, suite(), &plan);
    assert!(
        faulted.report.completed,
        "{} under the compact suite (el{el_count}) did not recover",
        faulted.label
    );
    if el_fault {
        assert!(
            faulted.report.el_reshards() >= 1,
            "{}: EL failure injected but no re-shard happened",
            faulted.label
        );
    }
    row_from_runs(
        w.as_ref(),
        "Vcausal (EL, compact)".to_string(),
        true,
        true,
        &axis,
        &free,
        &faulted,
    )
}

fn main() {
    let workloads = registry(RegistryScale::Large);
    let suites = SuiteKind::all_eight();
    println!(
        "scaled-regime sweep: {} workloads x {} suites x {{free, hub failure}}; \
         hub dies at {HUB_FAULT_AT}",
        workloads.len(),
        suites.len()
    );

    let jobs: Vec<(Arc<dyn Workload>, SuiteKind)> = workloads
        .iter()
        .flat_map(|w| suites.iter().map(move |&k| (w.clone(), k)))
        .collect();
    let mut rows = run_many(jobs, default_threads(), |(w, kind)| run_cell(&w, kind));

    // EL-scaling sweep: the saturation probe (deepest FFT tiling) under
    // Vcausal+EL across every off-baseline fabric × shard-count axis.
    // The baseline axis is skipped — the main grid above already holds
    // that cell, and it doubles as table 6's first row.
    let probe = workloads
        .iter()
        .find(|w| w.family() == "fft" && w.label().ends_with(".t32"))
        .expect("Large registry always has the deep-tiling FFT entry")
        .clone();
    let axes: Vec<NetAxis> = net_axes(RegistryScale::Large)
        .into_iter()
        .filter(|a| !(a.profile.name == "fast-ethernet-2005" && a.el_count <= 1))
        .collect();
    println!(
        "EL-scaling sweep: {} on {} net axes x {{free, EL failure}}; \
         EL shard 0 dies at {EL_FAULT_AT} where shards allow",
        probe.label(),
        axes.len()
    );
    let scaling_jobs: Vec<(Arc<dyn Workload>, NetAxis)> =
        axes.into_iter().map(|a| (probe.clone(), a)).collect();
    rows.extend(run_many(scaling_jobs, default_threads(), |(w, axis)| {
        run_scaling_cell(&w, &axis)
    }));

    // Compact-piggyback scale sweep (table 7): the bursty service from
    // 21 physical clients up the Huge aggregation ladder to 100k+
    // modeled clients, under Vcausal+EL with the compact wire format.
    // Each ladder entry runs two legs: the baseline axis (free + hub
    // failure) and an el2 axis (free + EL-shard failure).
    let ladder: Vec<Arc<dyn Workload>> = registry(RegistryScale::Huge)
        .into_iter()
        .filter(|w| {
            w.family() == "bursty" && (w.label() == "21c.3s.x3" || w.label().contains(".agg"))
        })
        .collect();
    assert!(
        ladder.len() >= 4,
        "Huge registry is missing the aggregation ladder"
    );
    println!(
        "compact-piggyback scale sweep: {} bursty entries x 2 axes x \
         {{free, hub failure, EL failure}}; compact wire format, send-side pruning",
        ladder.len()
    );
    let compact_jobs: Vec<(Arc<dyn Workload>, bool)> = ladder
        .iter()
        .flat_map(|w| [false, true].map(|el_fault| (w.clone(), el_fault)))
        .collect();
    let compact_rows = run_many(compact_jobs, default_threads(), |(w, el_fault)| {
        run_compact_cell(&w, el_fault)
    });
    // The table-7 claim, enforced at generation time, per axis leg:
    // piggyback bytes per message must stay flat as the modeled
    // population climbs the ladder. Two gates. (1) Across the
    // aggregated entries — each a 10x population jump over an identical
    // physical schedule — consecutive steps must agree within 10%:
    // aggregation jitters per-request compute, which moves checkpoint
    // boundaries and with them how much piggyback the stability pruning
    // trims, but an O(clients) regression would blow through the band
    // by orders of magnitude. (2) Every entry, aggregated or not, must
    // stay within 1.5x of the leg's 21-physical-client baseline — the
    // 21 -> 100k+ boundedness claim itself (the baseline cell's
    // pruning timing differs from the aggregated cells', so it gets
    // the looser band).
    for el_count in [1u64, 2] {
        let leg: Vec<&RegimeRow> = compact_rows
            .iter()
            .filter(|r| r.el_count == el_count)
            .collect();
        let agg: Vec<&&RegimeRow> = leg.iter().filter(|r| r.label.contains(".agg")).collect();
        for pair in agg.windows(2) {
            assert!(
                pair[1].pb_bytes_per_msg <= pair[0].pb_bytes_per_msg * 1.10,
                "pb bytes/msg grew up the ladder (el{el_count}): {} ({:.3}) -> {} ({:.3})",
                pair[0].label,
                pair[0].pb_bytes_per_msg,
                pair[1].label,
                pair[1].pb_bytes_per_msg
            );
        }
        let baseline = leg
            .first()
            .expect("compact leg has the 21-client baseline entry");
        for r in &leg {
            assert!(
                r.pb_bytes_per_msg <= baseline.pb_bytes_per_msg * 1.5,
                "pb bytes/msg unbounded vs the physical baseline (el{el_count}): \
                 {} ({:.3}) vs {} ({:.3})",
                r.label,
                r.pb_bytes_per_msg,
                baseline.label,
                baseline.pb_bytes_per_msg
            );
        }
    }
    rows.extend(compact_rows);

    let json = write_json(&rows);
    let json_path = out_dir().join("BENCH_regimes.json");
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("\nbench report: {}", json_path.display()),
        Err(e) => eprintln!("bench report: failed to write {}: {e}", json_path.display()),
    }

    // REPORT.md = title block, section 0 from the committed paper
    // scorecard, sections 1-7 from this sweep.
    let paper_path = out_dir().join("BENCH_paper.json");
    let paper = std::fs::read_to_string(&paper_path)
        .map_err(|e| e.to_string())
        .and_then(|src| PaperReport::parse_json(&src))
        .unwrap_or_else(|e| {
            panic!(
                "{}: {e} — run `cargo bench --bench paper` first",
                paper_path.display()
            )
        });
    let md = render_markdown(&rows).replacen("## 1. ", &(render_scorecard(&paper) + "## 1. "), 1);
    let md_path = out_dir().join("REPORT.md");
    match std::fs::write(&md_path, &md) {
        Ok(()) => println!("regime report: {}", md_path.display()),
        Err(e) => eprintln!("regime report: failed to write {}: {e}", md_path.display()),
    }
}
