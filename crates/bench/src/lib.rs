//! # vlog-bench — harness support for the paper's figures and tables
//!
//! The bench targets (`harness = false`, so `cargo bench` runs them as
//! plain binaries):
//!
//! | target      | artifact                                                |
//! |-------------|---------------------------------------------------------|
//! | `paper`     | Figs. 1, 3, 6a, 6b, 7, 8, 9, 10 and the paper's claims about them ([`paper`]): `BENCH_paper.json`, `REPORT.md` §0 |
//! | `regimes`   | the scaled-regime grid: `BENCH_regimes.json`, `REPORT.md` §1–7 |
//!
//! Those are the model numbers. How fast the simulator itself runs is
//! measured in one place only, the `benchmark/` crate at the repository
//! root (`BENCHMARK.json`).
//!
//! Helper binary (`src/bin`): `prof_report` (symbolises the sample dump
//! of `scripts/profile.sh`).
//!
//! Scale control: `VLOG_SCALE=quick|default|full` ([`Scale`]). A reduced
//! scale runs a fraction of each benchmark's iterations and repetitions
//! on the same process grids, so the figures keep their shape; the
//! committed artifacts are the default scale (README, "Reading the
//! scorecard").

#![deny(missing_docs)]

use std::sync::Arc;

use vlog_core::{CausalSuite, CoordinatedSuite, PessimisticSuite, Technique};
use vlog_sim::{env_knob, SimDuration};
use vlog_vmpi::{ClusterConfig, Suite, VdummySuite};

pub mod paper;
pub mod report;
pub mod sweep;
pub use report::{md_table, out_dir, parse_json, render_markdown, write_json, RegimeRow};
pub use sweep::{default_threads, run_many};

/// One software stack of the paper's comparison: the three
/// fault-intolerant baselines, or a fault-tolerant [`SuiteKind`] on the
/// MPICH-V daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// NetPIPE directly on TCP (Figure 6 baseline).
    Raw,
    /// MPICH-P4 reference implementation.
    P4,
    /// MPICH-V generic layer without fault tolerance.
    Vdummy,
    /// A fault-tolerant protocol suite.
    Ft(SuiteKind),
}

impl Stack {
    /// Causal message logging with `technique`, with or without the EL.
    pub const fn causal(technique: Technique, el: bool) -> Stack {
        Stack::Ft(SuiteKind::Causal { technique, el })
    }

    /// The stack's display name in tables and legends.
    pub fn label(&self) -> String {
        match self {
            Stack::Raw => "RAW-TCP".into(),
            Stack::P4 => "MPICH-P4".into(),
            Stack::Vdummy => "MPICH-Vdummy".into(),
            Stack::Ft(kind) => kind.label(),
        }
    }

    /// Cluster configuration for this stack (software profile + duplex
    /// mode) on the paper's FastEthernet-2005 fabric.
    pub fn cluster(&self, np: usize) -> ClusterConfig {
        let base = ClusterConfig::new(np);
        match self {
            Stack::Raw => base.raw(),
            Stack::P4 => base.p4(),
            _ => base,
        }
    }

    /// Protocol suite for this stack, offering checkpoints every `ckpt`
    /// (`None`: no checkpoint scheduler).
    pub fn suite(&self, ckpt: Option<SimDuration>) -> Arc<dyn Suite> {
        match self {
            Stack::Raw | Stack::P4 | Stack::Vdummy => Arc::new(VdummySuite),
            Stack::Ft(kind) => kind.build_with(ckpt),
        }
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

    /// [`SuiteKind::build`], or with `None` the suite without a
    /// checkpoint scheduler — the fault-free configuration of the causal
    /// figures, and the only kind built that way.
    pub fn build_with(&self, ckpt: Option<SimDuration>) -> Arc<dyn Suite> {
        match (ckpt, self) {
            (Some(period), _) => self.build(period),
            (None, SuiteKind::Causal { technique, el }) => {
                Arc::new(CausalSuite::new(*technique, *el))
            }
            (None, other) => panic!("{} needs a checkpoint period", other.label()),
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

    /// The `VLOG_SCALE` spelling of this scale.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
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

/// Formats a f64 with sensible precision for tables.
pub(crate) fn fmt3(x: f64) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_labels_and_suites() {
        assert_eq!(Stack::Vdummy.label(), "MPICH-Vdummy");
        let manetho = Stack::causal(Technique::Manetho, true);
        assert_eq!(manetho.label(), "Manetho (EL)");
        assert_eq!(manetho.cluster(4).net.name, "fast-ethernet-2005");
        for stack in [Stack::Raw, Stack::P4, Stack::Vdummy, manetho] {
            let _ = stack.suite(None);
        }
        let _ = Stack::Ft(SuiteKind::Pessimistic).suite(Some(SimDuration::from_millis(5)));
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
}
