//! The workload abstraction every benchmark is an instance of.
//!
//! A [`Workload`] describes one runnable application configuration —
//! rank count, iteration/traffic parameters, checkpoint state size and
//! flop accounting — and builds its program on demand. The generic
//! [`run_workload`] runner executes any workload under any protocol
//! suite and extracts the shared metric set ([`WorkloadRun`]): virtual
//! makespan, Mflop/s where defined, piggyback share, piggyback
//! send/receive management time, and the message-count/size histogram.
//!
//! The point of the indirection is that nothing downstream — figure
//! harnesses, the determinism suite, the `regimes` sweep bench —
//! names a concrete benchmark: they iterate the
//! [registry](crate::registry()) and treat NAS, NetPIPE, the bursty
//! request/reply service, the irregular halo exchange and the pipelined
//! FFT transpose identically.

use std::sync::Arc;

use vlog_sim::{MsgHistogram, SimDuration};
use vlog_vmpi::{
    AppSpec, ClusterConfig, ClusterRun, FaultPlan, Mpi, Payload, PayloadArena, RunReport, Suite,
};

/// One runnable benchmark configuration.
///
/// Implementations are cheap, immutable descriptions: [`program`]
/// builds a fresh [`AppSpec`] per call, so one workload value can back
/// many runs (including the restart re-launches inside a single run).
///
/// **Cost contract.** A sweep calls [`program`], [`total_flops`] and
/// [`hub_rank`] once per *cell* — a registry entry is run under every
/// suite, with and without faults, on every worker thread, iteration
/// after iteration — and the program's per-rank closure runs once per
/// rank per incarnation. After a configuration's first use each of them
/// must therefore cost O(ranks): inputs a configuration derives from its
/// seed (the bursty arrival process, the halo graph) are drawn once into
/// a table owned by the configuration value and shared by its clones,
/// never re-drawn per call. Callers rely on this instead of caching.
///
/// [`program`]: Workload::program
/// [`total_flops`]: Workload::total_flops
/// [`hub_rank`]: Workload::hub_rank
pub trait Workload: Send + Sync {
    /// Family slug shared by every configuration of one benchmark kind
    /// (`"nas"`, `"netpipe"`, `"bursty"`, `"halo"`, `"fft"`). Grouping
    /// key of `BENCH_regimes.json`.
    fn family(&self) -> &'static str;

    /// Human-readable label including the distinguishing parameters,
    /// e.g. `"CG.A/8"` or `"bursty/4c x48"`.
    fn label(&self) -> String;

    /// Rank count this configuration runs on.
    fn np(&self) -> usize;

    /// Whether the family's geometry rules admit `np` ranks.
    fn valid_np(&self, np: usize) -> bool;

    /// Per-rank checkpoint state size (bytes).
    fn state_bytes(&self) -> u64;

    /// Total useful floating-point work the run represents. `0.0` means
    /// Mflop/s is not a meaningful metric (NetPIPE measures latency).
    fn total_flops(&self) -> f64;

    /// The rank whose failure stresses recovery hardest — the target of
    /// hub-failure fault plans (see
    /// [`faults::hub_failure`](crate::runner::faults::hub_failure)).
    ///
    /// Defaults to rank 0; families with a structurally load-bearing
    /// rank override it (the halo exchange returns its highest-degree
    /// rank, the bursty service its busiest server).
    fn hub_rank(&self) -> usize {
        0
    }

    /// Builds the runnable program (and, optionally, a post-run metric
    /// probe). Called once per cluster run, so any harness-side
    /// collector the program writes into is private to that run —
    /// one workload value can safely back many concurrent runs.
    fn program(&self) -> WorkloadProgram;
}

/// Post-run probe extracting workload-specific scalar metrics.
pub type MetricProbe = Box<dyn FnOnce(&RunReport) -> Vec<(&'static str, f64)> + Send>;

/// A built program plus an optional metric probe reading the collectors
/// the program's ranks write into (e.g. NetPIPE's measured points).
pub struct WorkloadProgram {
    /// The runnable per-rank program.
    pub spec: AppSpec,
    probe: Option<MetricProbe>,
}

impl WorkloadProgram {
    /// A program with no workload-specific metrics.
    pub fn plain(spec: AppSpec) -> Self {
        WorkloadProgram { spec, probe: None }
    }

    /// A program whose run is followed by `probe`.
    pub fn with_probe(spec: AppSpec, probe: MetricProbe) -> Self {
        WorkloadProgram {
            spec,
            probe: Some(probe),
        }
    }
}

impl From<AppSpec> for WorkloadProgram {
    fn from(spec: AppSpec) -> Self {
        WorkloadProgram::plain(spec)
    }
}

/// Result of one workload run: the cluster report plus the shared
/// metric set every harness consumes.
pub struct WorkloadRun {
    /// `Workload::family` of the workload that ran.
    pub family: &'static str,
    /// `Workload::label` of the workload that ran.
    pub label: String,
    /// The full cluster report (makespan, stats, per-rank protocol
    /// statistics, completion flag).
    pub report: RunReport,
    /// Flop accounting for the Mflop/s metric (0 when undefined).
    pub total_flops: f64,
    /// Workload-specific extras from the program's metric probe.
    pub extra: Vec<(&'static str, f64)>,
}

impl WorkloadRun {
    /// Total Mflop/s (Megaflops) of the run — the Figure 9 metric.
    ///
    /// Returns 0.0 when the workload defines no flop count or the run
    /// had zero virtual makespan: an empty run did zero useful work, it
    /// did not do infinite work (the unguarded division used to return
    /// inf, or NaN for 0/0).
    pub fn mflops(&self) -> f64 {
        let secs = self.report.makespan.as_secs_f64();
        if secs == 0.0 || self.total_flops == 0.0 {
            0.0
        } else {
            self.total_flops / secs / 1e6
        }
    }

    /// Piggybacked bytes as % of total exchanged bytes (Figure 7).
    pub fn piggyback_percent(&self) -> f64 {
        self.report.piggyback_percent()
    }

    /// Summed piggyback-management times, split (send, receive)
    /// (Figure 8).
    pub fn pb_times(&self) -> (SimDuration, SimDuration) {
        self.report.pb_times()
    }

    /// Message-count histogram over power-of-two wire-size buckets.
    pub fn msg_histogram(&self) -> &MsgHistogram {
        self.report.msg_histogram()
    }
}

/// Runs a workload under a protocol suite and extracts its metrics.
pub fn run_workload(
    workload: &dyn Workload,
    cluster: &ClusterConfig,
    suite: Arc<dyn Suite>,
    faults: &FaultPlan,
) -> WorkloadRun {
    assert_eq!(
        cluster.ranks,
        workload.np(),
        "cluster has {} ranks but workload {} wants {}",
        cluster.ranks,
        workload.label(),
        workload.np()
    );
    let WorkloadProgram { spec, probe } = workload.program();
    let report = ClusterRun::build(cluster, suite, spec, faults).run();
    let extra = probe.map(|p| p(&report)).unwrap_or_default();
    WorkloadRun {
        family: workload.family(),
        label: workload.label(),
        report,
        total_flops: workload.total_flops(),
        extra,
    }
}

/// Shared helper: the `u64` cursor a checkpointed incarnation restored,
/// or 0 on a fresh start. Every workload that checkpoints stores its
/// progress cursor (iteration, round, served count...) this way.
pub(crate) fn restored_u64(mpi: &Mpi) -> u64 {
    match mpi.restored() {
        Some(bytes) if bytes.len() >= 8 => u64::from_le_bytes(bytes[..8].try_into().unwrap()),
        _ => 0,
    }
}

/// Shared helper: a checkpoint payload carrying cursor `it`, padded to
/// the workload's per-rank state size.
///
/// Cursor bodies repeat heavily — every rank offers the same iteration
/// cursor, and replayed incarnations rebuild past cursors — so the body
/// bytes are interned in a per-worker [`PayloadArena`]: one allocation
/// per distinct cursor per worker thread, O(1) shared clones after that.
pub(crate) fn ckpt_payload(state_bytes: u64, it: u64) -> Payload {
    thread_local! {
        static ARENA: std::cell::RefCell<PayloadArena> =
            std::cell::RefCell::new(PayloadArena::new());
    }
    ARENA.with(|arena| {
        arena
            .borrow_mut()
            .payload(&it.to_le_bytes(), state_bytes.saturating_sub(8))
    })
}

/// Deterministic per-`(seed, a, b)` RNG seed (SplitMix64-style mixing;
/// the workloads derive one fresh RNG per (rank, round) so traffic
/// replayed after a restart is identical to the pre-crash incarnation).
pub(crate) fn mix_seed(seed: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlog_sim::Stats;

    fn dummy_run(makespan: SimDuration, flops: f64) -> WorkloadRun {
        WorkloadRun {
            family: "test",
            label: "test".into(),
            report: RunReport {
                suite: "none".into(),
                makespan,
                completed: true,
                stats: Stats::new(),
                rank_stats: Vec::new(),
                events: 0,
                stopped: None,
                applied: Vec::new(),
                fired: Vec::new(),
                liveness: None,
            },
            total_flops: flops,
            extra: Vec::new(),
        }
    }

    #[test]
    fn ckpt_payload_accounting_is_unchanged_by_the_arena() {
        // Wire accounting: the cursor body is 8 bytes, the pad tops the
        // payload up to the declared state size.
        assert_eq!(ckpt_payload(1 << 20, 3).len(), 1 << 20);
        assert_eq!(ckpt_payload(1 << 20, 3).data.len(), 8);
        // state_bytes below the cursor width never grows the payload
        // past the cursor itself (pad saturates at zero).
        assert_eq!(ckpt_payload(0, 3).len(), 8);
        assert_eq!(ckpt_payload(0, 3).pad, 0);
        // Repeated cursors share one interned backing (the zero-copy
        // path): same data pointer, not merely equal bytes.
        let a = ckpt_payload(4096, 42);
        let b = ckpt_payload(1 << 30, 42);
        assert_eq!(a.data.as_ptr(), b.data.as_ptr());
        // The restored-cursor round trip still decodes.
        assert_eq!(u64::from_le_bytes(a.data[..8].try_into().unwrap()), 42u64);
    }

    #[test]
    fn mflops_is_zero_not_nan_for_empty_runs() {
        // Regression: flops / 0s used to return inf (and NaN for the
        // doubly-degenerate 0 flops / 0 s case).
        let r = dummy_run(SimDuration::ZERO, 1e9);
        assert_eq!(r.mflops(), 0.0);
        let r = dummy_run(SimDuration::ZERO, 0.0);
        assert_eq!(r.mflops(), 0.0);
        let r = dummy_run(SimDuration::from_secs(2), 0.0);
        assert_eq!(r.mflops(), 0.0);
    }

    #[test]
    fn mflops_matches_the_figure9_formula() {
        let r = dummy_run(SimDuration::from_secs(2), 4e9);
        assert!((r.mflops() - 2000.0).abs() < 1e-9);
    }
}
