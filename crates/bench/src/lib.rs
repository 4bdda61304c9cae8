//! # vlog-bench — harness support for the paper's figures and tables
//!
//! Each figure/table of the evaluation is regenerated by one bench target
//! (`harness = false`, so `cargo bench` runs them as plain binaries):
//!
//! | target              | paper artifact                                  |
//! |---------------------|-------------------------------------------------|
//! | `fig1_resilience`   | Fig. 1 — slowdown vs fault frequency            |
//! | `fig3_antecedence`  | Fig. 3 — antecedence-graph piggyback example    |
//! | `fig6a_latency`     | Fig. 6(a) — 1-byte latency table                |
//! | `fig6b_bandwidth`   | Fig. 6(b) — ping-pong bandwidth curves          |
//! | `fig7_piggyback`    | Fig. 7 — piggybacked bytes as % of total        |
//! | `fig8_pbtime`       | Fig. 8(a)+(b) — piggyback management time       |
//! | `fig9_nas`          | Fig. 9 — NAS Megaflops for all stacks           |
//! | `fig10_recovery`    | Fig. 10 — event-recovery time at restart        |
//! | `ablations`         | design-choice probes beyond the paper           |
//! | `micro` (Criterion) | real ns/op of codecs, graph ops, reductions     |
//!
//! Scale control: `VLOG_SCALE=quick|default|full`.
//! Reduced scales preserve every qualitative shape; see DESIGN.md §2.

#![deny(missing_docs)]

use std::sync::Arc;

use vlog_core::{CausalSuite, CoordinatedSuite, PessimisticSuite, Technique};
use vlog_sim::{env_knob, NetProfile, SimDuration};
use vlog_vmpi::{ClusterConfig, Suite, VdummySuite};
use vlog_workloads::netpipe::{self, NetpipePoint};

pub mod gate;
pub mod report;
pub mod sweep;
pub use gate::{compare, parse_bench_json, BenchEntry, GateReport};
pub use report::{parse_json, render_markdown, write_json, RegimeRow};
pub use sweep::{default_threads, parse_threads_override, run_many, ThreadsOverrideError};

/// One software stack of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// NetPIPE directly on TCP (Figure 6 baseline).
    Raw,
    /// MPICH-P4 reference implementation.
    P4,
    /// MPICH-V generic layer without fault tolerance.
    Vdummy,
    /// Causal message logging with a reduction technique, with/without EL.
    Causal {
        /// Piggyback-reduction technique of the causal protocol.
        technique: Technique,
        /// Whether the Event Logger is deployed.
        el: bool,
    },
}

impl Stack {
    /// The stack's display name in tables and legends.
    pub fn label(&self) -> String {
        match self {
            Stack::Raw => "RAW-TCP".into(),
            Stack::P4 => "MPICH-P4".into(),
            Stack::Vdummy => "MPICH-Vdummy".into(),
            Stack::Causal { technique, el } => format!(
                "{}{}",
                technique.label(),
                if *el { " (EL)" } else { " (no EL)" }
            ),
        }
    }

    /// Cluster configuration for this stack (profile + duplex mode).
    ///
    /// The network fabric honors `VLOG_NET_PROFILE` (unset = the
    /// paper's FastEthernet-2005), so any figure bench can be rerun on
    /// a faster fabric without code changes. The `regimes` bench does
    /// NOT go through here — its committed artifacts pin their
    /// profiles explicitly.
    pub fn cluster(&self, np: usize) -> ClusterConfig {
        let mut base = ClusterConfig::new(np);
        base.net = NetProfile::from_env_or(base.net);
        match self {
            Stack::Raw => base.raw(),
            Stack::P4 => base.p4(),
            _ => base,
        }
    }

    /// Protocol suite for this stack (fault-free configuration: no
    /// checkpoint scheduler; figures needing checkpoints build their own
    /// suites).
    pub fn suite(&self) -> Arc<dyn Suite> {
        match self {
            Stack::Raw | Stack::P4 | Stack::Vdummy => Arc::new(VdummySuite),
            Stack::Causal { technique, el } => Arc::new(CausalSuite::new(*technique, *el)),
        }
    }

    /// The six causal configurations (3 techniques × EL on/off).
    pub fn causal_six() -> Vec<Stack> {
        let mut v = Vec::new();
        for el in [true, false] {
            for technique in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
                v.push(Stack::Causal { technique, el });
            }
        }
        v
    }

    /// The eight stacks of Figure 9 (P4, Vdummy, six causal configs).
    pub fn fig9_eight() -> Vec<Stack> {
        let mut v = vec![Stack::P4, Stack::Vdummy];
        v.extend(Stack::causal_six());
        v
    }
}

/// One fault-tolerant protocol-suite configuration of the paper's
/// comparison: the six causal configurations (3 techniques x EL on/off)
/// plus pessimistic logging and coordinated checkpointing. `Copy`, so
/// sweep jobs can carry it across `run_many` worker threads and build
/// the (non-`Send`) suite inside the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteKind {
    /// Causal message logging (technique x EL on/off).
    Causal {
        /// Piggyback-reduction technique of the causal protocol.
        technique: Technique,
        /// Whether the Event Logger is deployed.
        el: bool,
    },
    /// Sender-based pessimistic logging (MPICH-V2 style, EL required).
    Pessimistic,
    /// Coordinated checkpointing with global rollback (MPICH-V/CL).
    Coordinated,
}

impl SuiteKind {
    /// All eight configurations, causal first (EL on, then off), then
    /// pessimistic, then coordinated — the order every suite-sweep
    /// table uses.
    pub fn all_eight() -> Vec<SuiteKind> {
        let mut v = Vec::with_capacity(8);
        for el in [true, false] {
            for technique in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
                v.push(SuiteKind::Causal { technique, el });
            }
        }
        v.push(SuiteKind::Pessimistic);
        v.push(SuiteKind::Coordinated);
        v
    }

    /// The suite's display name in tables and reports.
    pub fn label(&self) -> String {
        match self {
            SuiteKind::Causal { technique, el } => format!(
                "{}{}",
                technique.label(),
                if *el { " (EL)" } else { " (no EL)" }
            ),
            SuiteKind::Pessimistic => "Pessimistic".into(),
            SuiteKind::Coordinated => "Coordinated".into(),
        }
    }

    /// Builds the suite with checkpoints offered every `ckpt`.
    pub fn build(&self, ckpt: SimDuration) -> Arc<dyn Suite> {
        match self {
            SuiteKind::Causal { technique, el } => {
                Arc::new(CausalSuite::new(*technique, *el).with_checkpoints(ckpt))
            }
            SuiteKind::Pessimistic => Arc::new(PessimisticSuite::new().with_checkpoints(ckpt)),
            SuiteKind::Coordinated => Arc::new(CoordinatedSuite::new(ckpt)),
        }
    }

    /// True for the causal configurations (the ones moving piggyback).
    pub fn is_causal(&self) -> bool {
        matches!(self, SuiteKind::Causal { .. })
    }
}

/// Run-scale selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes (used by `cargo test` on the harnesses).
    Quick,
    /// Default: minutes of wall time for the full set of figures.
    Default,
    /// Published iteration counts everywhere (long).
    Full,
}

impl Scale {
    /// Reads the scale from `VLOG_SCALE` (`quick|default|full`) with the
    /// workspace's warn-and-fallback contract: unset silently uses the
    /// default scale, an unknown value warns on stderr and falls back.
    pub fn from_env() -> Scale {
        match env_knob::one_of("VLOG_SCALE", &["quick", "default", "full"], "default") {
            Some("quick") => Scale::Quick,
            Some("full") => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// Scales an iteration fraction.
    pub fn fraction(&self, default: f64) -> f64 {
        match self {
            Scale::Quick => (default * 0.2).max(0.005),
            Scale::Default => default,
            Scale::Full => 1.0,
        }
    }

    /// Scales a repetition count.
    pub fn reps(&self, default: f64) -> f64 {
        match self {
            Scale::Quick => default * 0.05,
            Scale::Default => default,
            Scale::Full => default * 2.0,
        }
    }
}

/// Runs NetPIPE on a stack and returns the sweep.
pub fn run_netpipe(stack: Stack, max_bytes: u64, rep_scale: f64) -> Vec<NetpipePoint> {
    let (prog, results) = netpipe::program(max_bytes, rep_scale);
    let mut cfg = stack.cluster(2);
    cfg.event_limit = Some(500_000_000);
    let report = vlog_vmpi::run_cluster(&cfg, stack.suite(), prog, &vlog_vmpi::FaultPlan::none());
    assert!(
        report.completed,
        "NetPIPE on {} did not finish",
        stack.label()
    );
    results.sorted()
}

/// Minimal fixed-width table printer for paper-style outputs.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; must match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Prints the table to stdout with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("| {} |", cols.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a f64 with sensible precision for tables.
pub fn fmt3(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

/// Prints a figure banner.
pub fn banner(title: &str, note: &str) {
    println!();
    println!("==== {title} ====");
    if !note.is_empty() {
        println!("{note}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_enumerations() {
        assert_eq!(Stack::causal_six().len(), 6);
        assert_eq!(Stack::fig9_eight().len(), 8);
        assert_eq!(
            Stack::Causal {
                technique: Technique::Manetho,
                el: true
            }
            .label(),
            "Manetho (EL)"
        );
    }

    #[test]
    fn suite_kind_enumeration() {
        let eight = SuiteKind::all_eight();
        assert_eq!(eight.len(), 8);
        assert_eq!(eight.iter().filter(|k| k.is_causal()).count(), 6);
        assert_eq!(eight[6].label(), "Pessimistic");
        assert_eq!(eight[7].label(), "Coordinated");
        let labels: std::collections::BTreeSet<String> = eight.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 8, "suite labels must be unique");
        for kind in eight {
            let _ = kind.build(SimDuration::from_millis(5));
        }
    }

    #[test]
    fn fmt3_precision_bands() {
        assert_eq!(fmt3(0.0), "0");
        assert_eq!(fmt3(0.1234), "0.123");
        assert_eq!(fmt3(5.678), "5.68");
        assert_eq!(fmt3(56.78), "56.8");
        assert_eq!(fmt3(567.8), "568");
    }

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(); // smoke: no panic
    }
}

/// Minimal ASCII line chart for the curve figures (6b bandwidth, 1
/// resilience). Plots multiple series on a shared y-axis; x positions are
/// taken from the first series (log-scaled when `log_x`).
pub struct AsciiChart {
    /// Plot width in character cells.
    pub width: usize,
    /// Plot height in character cells.
    pub height: usize,
    /// Log2-scale the x positions (byte-size sweeps).
    pub log_x: bool,
}

impl Default for AsciiChart {
    fn default() -> Self {
        AsciiChart {
            width: 72,
            height: 18,
            log_x: false,
        }
    }
}

impl AsciiChart {
    /// Prints the titled chart and its series legend to stdout.
    pub fn render(&self, title: &str, series: &[(String, Vec<(f64, f64)>)]) {
        let marks = ['*', 'o', '+', 'x', '#', '@', '%', '&', '~', '^'];
        let xs: Vec<f64> = series
            .iter()
            .flat_map(|(_, pts)| pts.iter().map(|p| p.0))
            .collect();
        let ys: Vec<f64> = series
            .iter()
            .flat_map(|(_, pts)| pts.iter().map(|p| p.1))
            .collect();
        if xs.is_empty() {
            return;
        }
        let tx = |x: f64| if self.log_x { x.max(1.0).log2() } else { x };
        let (x0, x1) = xs.iter().fold((f64::MAX, f64::MIN), |(a, b), &v| {
            (a.min(tx(v)), b.max(tx(v)))
        });
        let (y0, y1) = ys
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), &v| (a.min(v), b.max(v)));
        let y1 = if (y1 - y0).abs() < 1e-12 {
            y0 + 1.0
        } else {
            y1
        };
        let x1 = if (x1 - x0).abs() < 1e-12 {
            x0 + 1.0
        } else {
            x1
        };
        let mut grid = vec![vec![' '; self.width]; self.height];
        for (si, (_, pts)) in series.iter().enumerate() {
            for &(x, y) in pts {
                let cx = ((tx(x) - x0) / (x1 - x0) * (self.width - 1) as f64).round() as usize;
                let cy = ((y - y0) / (y1 - y0) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - cy;
                grid[row][cx.min(self.width - 1)] = marks[si % marks.len()];
            }
        }
        println!("{title}");
        println!("{:>9.6} +{}", y1, "-".repeat(self.width));
        for row in &grid {
            let line: String = row.iter().collect();
            println!("{:>9} |{}", "", line);
        }
        println!("{:>9.6} +{}", y0, "-".repeat(self.width));
        for (si, (label, _)) in series.iter().enumerate() {
            println!("{:>12} {}", format!("[{}]", marks[si % marks.len()]), label);
        }
    }
}

#[cfg(test)]
mod chart_tests {
    use super::AsciiChart;

    #[test]
    fn chart_renders_without_panicking() {
        let chart = AsciiChart {
            log_x: true,
            ..AsciiChart::default()
        };
        let series = vec![
            ("a".to_string(), vec![(1.0, 10.0), (1024.0, 90.0)]),
            ("b".to_string(), vec![(1.0, 5.0), (1024.0, 80.0)]),
        ];
        chart.render("test", &series);
        // Degenerate inputs must not panic either.
        chart.render("flat", &[("c".to_string(), vec![(1.0, 1.0)])]);
        chart.render("empty", &[]);
    }
}
