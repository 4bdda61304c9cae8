//! The benchmark's vocabulary: workload and metric names with their
//! units, directions and regression bounds. `BENCHMARK.json` at the
//! repository root lists the same names; a self-test keeps the two in
//! step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric. `bound` is the share of the baseline median by
/// which an end-to-end metric may worsen before a change counts as a
/// regression; per-layer metrics explain, they do not gate, so theirs is
/// `None`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// `(name, why it was chosen)`, in run order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "causal_el",
        "fft/nas cells x 3 causal techniques with the Event Logger: EL record/ack/GC and small piggybacks do the work",
    ),
    (
        "causal_noel",
        "the same nine cells without the EL: nothing turns stable, so graph/reduction build and integrate dominate",
    ),
    (
        "kernel_floor",
        "five traffic shapes x Vdummy/Pessimistic/Coordinated: zero piggyback and codec calls, calendar/net/daemon only",
    ),
    (
        "recovery_mix",
        "12 cells with 8 staggered rank kills each plus an EL-shard kill: EL queries, replay, rollback and re-shard paths",
    ),
    (
        "sweep_regimes",
        "the Huge registry x 8 suites x {free, hub failure} through run_many at nproc threads plus the report round trip",
    ),
    (
        "explore_small",
        "240 explored schedules of the 12 default scenarios: hundreds of tiny runs, build/teardown and schedule policy",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, measured in the traced run.
pub const PER_LAYER: [MetricDef; 56] = [
    layer("sim.calendar.busy_s", "s", Lower),
    layer("sim.calendar.calls", "count", Lower),
    layer("sim.calendar.probe_ns_per_op", "ns", Lower),
    layer("sim.kernel.events", "count", Lower),
    layer("sim.kernel.ns_per_event", "ns", Lower),
    layer("sim.kernel.dispatch_busy_s", "s", Lower),
    layer("sim.kernel.dispatch_self_s", "s", Lower),
    layer("sim.kernel.unattributed_s", "s", Lower),
    layer("sim.net.busy_s", "s", Lower),
    layer("sim.net.calls", "count", Lower),
    layer("sim.net.probe_ns_per_send", "ns", Lower),
    layer("sim.stats.busy_s", "s", Lower),
    layer("sim.stats.calls", "count", Lower),
    layer("sim.stats.probe_ns_per_record", "ns", Lower),
    layer("core.codec.busy_s", "s", Lower),
    layer("core.codec.calls", "count", Lower),
    layer("core.reduction.probe_ns_per_build", "ns", Lower),
    layer("core.piggyback.probe_ns_per_wire_len", "ns", Lower),
    layer("core.el.records", "count", Lower),
    layer("core.el.batches", "count", Lower),
    layer("core.el.queries", "count", Lower),
    layer("core.el.reshards", "count", Lower),
    layer("core.el.peak_queue", "count", Lower),
    layer("vmpi.cluster.build_s", "s", Lower),
    layer("vmpi.cluster.run_s", "s", Lower),
    layer("vmpi.cluster.runs", "count", Lower),
    layer("workloads.program.busy_s", "s", Lower),
    layer("workloads.program.calls", "count", Lower),
    layer("bench.sweep.wall_1t_s", "s", Lower),
    layer("bench.sweep.parallel_efficiency", "ratio", Higher),
    layer("bench.sweep.idle_share", "ratio", Lower),
    layer("bench.report.write_json_s", "s", Lower),
    layer("bench.report.parse_json_s", "s", Lower),
    layer("bench.report.render_markdown_s", "s", Lower),
    layer("explore.schedules_per_s", "1/s", Higher),
    layer("explore.runs", "count", Lower),
    layer("explore.distinct_schedules", "count", Higher),
    layer("explore.violations", "count", Lower),
    layer("explore.events_per_run", "count", Lower),
    layer("explore.outside_kernel_share", "ratio", Lower),
    layer("alloc.count_per_event", "1/event", Lower),
    layer("alloc.bytes_per_event", "B/event", Lower),
    layer("alloc.count_in_build", "count", Lower),
    layer("alloc.count_in_run", "count", Lower),
    layer("host.cpu_s", "s", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("model.makespan_s", "s", Lower),
    layer("model.messages", "count", Lower),
    layer("model.bytes_total", "B", Lower),
    layer("model.pb_bytes", "B", Lower),
    layer("model.pb_events_sent", "count", Lower),
    layer("model.recoveries", "count", Lower),
    layer("model.recovery_total_s", "s", Lower),
    layer("model.checkpoints", "count", Lower),
    layer("model.global_rollbacks", "count", Lower),
    layer("model.fingerprint", "hash", Lower),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// How long one driver run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let metrics = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name);
        for name in WORKLOADS.iter().map(|(w, _)| *w).chain(metrics) {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                m.name
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains(['\n', '"', '\\']));
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// The string or number `BENCHMARK.json` gives `key` on `line` (the
    /// file holds one workload or metric object per line).
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
        let rest = rest.trim_start();
        Some(match rest.strip_prefix('"') {
            Some(quoted) => &quoted[..quoted.find('"')?],
            None => rest[..rest.find([',', '}'])?].trim(),
        })
    }

    #[test]
    fn benchmark_json_lists_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<&str> {
            let from = text.find(&format!("\"{key}\": [")).expect(key);
            let len = text[from..].find("\n  ]").expect("the section's end");
            text[from..from + len]
                .lines()
                .filter(|l| l.contains("\"name\":"))
                .collect()
        };
        let committed: Vec<(&str, &str)> = section("workloads")
            .iter()
            .map(|l| (field(l, "name").unwrap(), field(l, "why").unwrap()))
            .collect();
        assert_eq!(committed, WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let lines = section(key);
            assert_eq!(lines.len(), defs.len(), "{key}");
            for (line, def) in lines.iter().zip(defs) {
                assert_eq!(field(line, "name"), Some(def.name));
                assert_eq!(field(line, "unit"), Some(def.unit), "{}", def.name);
                assert_eq!(
                    field(line, "better"),
                    Some(def.better.label()),
                    "{}",
                    def.name
                );
                let bound = field(line, "bound").map(|b| b.parse::<f64>().expect("a number"));
                assert_eq!(bound, def.bound, "{}", def.name);
            }
        }
        let run_seconds = text.lines().find_map(|l| field(l, "run_seconds"));
        assert_eq!(run_seconds, Some(RUN_SECONDS.to_string().as_str()));
    }
}
