//! The workload abstraction every benchmark is an instance of.
//!
//! A [`Workload`] describes one runnable application configuration —
//! rank count, iteration/traffic parameters, checkpoint state size and
//! flop accounting — and builds its program on demand. The generic
//! [`run_workload`] runner executes any workload under any protocol
//! suite and returns the run's [`RunReport`], which carries every
//! figure metric: virtual makespan, piggyback share, piggyback
//! send/receive management time and the message-count/size histogram.
//! [`mflops`] turns a workload's [`Workload::total_flops`] and a
//! report's makespan into Figure 9's Mflop/s.
//!
//! The point of the indirection is that nothing downstream — figure
//! harnesses, the determinism suite, the `regimes` sweep bench —
//! names a concrete benchmark: they iterate the
//! [registry](crate::registry()) and treat NAS, NetPIPE, the bursty
//! request/reply service, the irregular halo exchange and the pipelined
//! FFT transpose identically.

use std::sync::Arc;

use vlog_sim::SimDuration;
use vlog_vmpi::{AppSpec, ClusterConfig, ClusterRun, FaultPlan, Mpi, Payload, RunReport, Suite};

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

    /// Builds the runnable program. Called once per cluster run; what
    /// the program measures it records ([`Mpi::record`]), so it comes
    /// back on that run's [`RunReport`] and nowhere else.
    fn program(&self) -> WorkloadProgram;
}

/// A built program.
pub struct WorkloadProgram {
    /// The runnable per-rank program.
    pub spec: AppSpec,
}

impl From<AppSpec> for WorkloadProgram {
    fn from(spec: AppSpec) -> Self {
        WorkloadProgram { spec }
    }
}

/// Total Mflop/s (Megaflops) of a run — the Figure 9 metric.
///
/// Returns 0.0 when the workload defines no flop count or the run had
/// zero virtual makespan: an empty run did zero useful work, not
/// infinite work (and 0 flops in 0 s is not NaN).
pub fn mflops(total_flops: f64, makespan: SimDuration) -> f64 {
    let secs = makespan.as_secs_f64();
    if secs == 0.0 || total_flops == 0.0 {
        0.0
    } else {
        total_flops / secs / 1e6
    }
}

/// Runs a workload under a protocol suite and returns the run's report.
///
/// # Panics
///
/// If `cluster` does not have [`Workload::np`] ranks.
pub fn run_workload(
    workload: &dyn Workload,
    cluster: &ClusterConfig,
    suite: Arc<dyn Suite>,
    faults: &FaultPlan,
) -> RunReport {
    assert_eq!(
        cluster.ranks,
        workload.np(),
        "cluster has {} ranks but workload {} wants {}",
        cluster.ranks,
        workload.label(),
        workload.np()
    );
    ClusterRun::build(cluster, suite, workload.program().spec, faults).run()
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
pub(crate) fn ckpt_payload(state_bytes: u64, it: u64) -> Payload {
    Payload {
        pad: state_bytes.saturating_sub(8),
        ..Payload::new(it.to_le_bytes().to_vec())
    }
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
    use crate::BurstyConfig;
    use vlog_vmpi::VdummySuite;

    #[test]
    fn ckpt_payload_pads_to_the_state_size() {
        // Wire accounting: the cursor body is 8 bytes, the pad tops the
        // payload up to the declared state size.
        assert_eq!(ckpt_payload(1 << 20, 3).len(), 1 << 20);
        assert_eq!(ckpt_payload(1 << 20, 3).data.len(), 8);
        // state_bytes below the cursor width never grows the payload
        // past the cursor itself (pad saturates at zero).
        assert_eq!(ckpt_payload(0, 3).len(), 8);
        assert_eq!(ckpt_payload(0, 3).pad, 0);
        // The restored-cursor round trip decodes.
        let a = ckpt_payload(4096, 42);
        assert_eq!(u64::from_le_bytes(a.data[..8].try_into().unwrap()), 42u64);
    }

    #[test]
    fn mflops_is_zero_not_nan_for_empty_runs() {
        // Regression: flops / 0s used to return inf (and NaN for the
        // doubly-degenerate 0 flops / 0 s case).
        assert_eq!(mflops(1e9, SimDuration::ZERO), 0.0);
        assert_eq!(mflops(0.0, SimDuration::ZERO), 0.0);
        assert_eq!(mflops(0.0, SimDuration::from_secs(2)), 0.0);
    }

    #[test]
    fn mflops_matches_the_figure9_formula() {
        assert!((mflops(4e9, SimDuration::from_secs(2)) - 2000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cluster has 3 ranks but workload")]
    fn a_cluster_of_the_wrong_size_is_rejected() {
        let w = BurstyConfig::new(4, 2, 1);
        let _ = run_workload(
            &w,
            &ClusterConfig::new(3),
            Arc::new(VdummySuite),
            &FaultPlan::none(),
        );
    }
}
