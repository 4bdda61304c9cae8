//! NetPIPE-style ping-pong micro-benchmark (Snell et al., 1996).
//!
//! The paper's Figure 6 uses NetPIPE: a two-rank ping-pong sweeping
//! message sizes, reporting half round-trip latency and throughput. The
//! measurement runs *inside* the program with `Mpi::time()`, exactly like
//! NetPIPE calls `MPI_Wtime`, and rank 0 records each size's point
//! ([`vlog_vmpi::Mpi::record`]); [`points`] reads the sweep off the
//! run's report.
//!
//! [`NetpipeConfig`] is the [`Workload`] face of the benchmark, which
//! the registry sweeps; the lower-level [`program`] builder, without
//! checkpoint offers, serves the Figure 6 harnesses. Either way,
//! [`points`] reads the sweep off the report.

use std::collections::BTreeMap;

use vlog_vmpi::{app, AppSpec, Payload, RecvSelector, RunReport};

use crate::workload::{ckpt_payload, restored_u64, Workload, WorkloadProgram};

const TAG: u32 = 7;
/// Names of the two values rank 0 records per size, keyed by the size.
const LATENCY_US: &str = "latency_us";
const MBPS: &str = "mbps";

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct NetpipePoint {
    /// Message size of this sweep step, bytes.
    pub bytes: u64,
    /// Half round-trip time, microseconds (NetPIPE's "latency").
    pub latency_us: f64,
    /// Throughput in Mbit/s.
    pub mbps: f64,
}

/// The sweep rank 0 measured in `report`'s run: one point per size,
/// smallest size first. A size measured more than once — a crash
/// restores the sweep cursor of the last checkpoint and the new
/// incarnation measures every size from there on — keeps its last
/// measurement.
pub fn points(report: &RunReport) -> Vec<NetpipePoint> {
    let mut by_size = BTreeMap::new();
    for r in report.recorded.iter().filter(|r| r.rank == 0) {
        let point = by_size.entry(r.key).or_insert(NetpipePoint {
            bytes: r.key,
            latency_us: 0.0,
            mbps: 0.0,
        });
        match r.name {
            LATENCY_US => point.latency_us = r.value,
            MBPS => point.mbps = r.value,
            _ => {}
        }
    }
    by_size.into_values().collect()
}

/// Power-of-two sweep 1 B … `max_bytes`. Panics on `max_bytes == 0`:
/// an empty sweep would "complete" without measuring anything, which
/// used to silently produce a run with no points.
pub fn sizes(max_bytes: u64) -> Vec<u64> {
    assert!(
        max_bytes >= 1,
        "NetPIPE sweep needs max_bytes >= 1 (got 0: the sweep would be empty \
         and the run would complete without measuring a single point)"
    );
    let mut v = Vec::new();
    let mut s = 1u64;
    while s <= max_bytes {
        v.push(s);
        s <<= 1;
    }
    v
}

/// Repetitions per size: enough for a stable mean, scaled down for the
/// multi-megabyte points (NetPIPE adapts the same way).
pub fn reps_for(bytes: u64, scale: f64) -> u32 {
    let base = (2_000_000.0 / (bytes as f64 + 1_000.0)).clamp(3.0, 400.0);
    (base * scale).ceil().max(3.0) as u32
}

/// Builds the two-rank ping-pong program; [`points`] reads what it
/// measured off the run's report. Equivalent to [`NetpipeConfig`]
/// without checkpoint offers — the Figure 6 harnesses use this directly
/// to keep the measured path free of checkpoint plumbing.
pub fn program(max_bytes: u64, rep_scale: f64) -> AppSpec {
    build(max_bytes, rep_scale, None)
}

/// `ckpt_state_bytes`: `Some(per-rank image size)` to offer a checkpoint
/// before each sweep size, `None` for the bare Figure 6 measurement.
fn build(max_bytes: u64, rep_scale: f64, ckpt_state_bytes: Option<u64>) -> AppSpec {
    let all_sizes = sizes(max_bytes);
    app(move |mpi| {
        let all_sizes = all_sizes.clone();
        async move {
            assert_eq!(mpi.size(), 2, "NetPIPE is a two-rank benchmark");
            let me = mpi.rank();
            let peer = 1 - me;
            // Fast-forward past the sizes a pre-crash incarnation
            // already completed.
            let start = restored_u64(&mpi) as usize;
            for (idx, &bytes) in all_sizes.iter().enumerate().skip(start) {
                if let Some(state_bytes) = ckpt_state_bytes {
                    mpi.checkpoint_point(ckpt_payload(state_bytes, idx as u64))
                        .await;
                }
                let reps = reps_for(bytes, rep_scale);
                // One warm-up round, unmeasured.
                if me == 0 {
                    mpi.send(peer, TAG, Payload::synthetic(bytes)).await;
                    mpi.recv(RecvSelector::of(peer, TAG)).await;
                } else {
                    mpi.recv(RecvSelector::of(peer, TAG)).await;
                    mpi.send(peer, TAG, Payload::synthetic(bytes)).await;
                }
                let t0 = mpi.time();
                for _ in 0..reps {
                    if me == 0 {
                        mpi.send(peer, TAG, Payload::synthetic(bytes)).await;
                        mpi.recv(RecvSelector::of(peer, TAG)).await;
                    } else {
                        mpi.recv(RecvSelector::of(peer, TAG)).await;
                        mpi.send(peer, TAG, Payload::synthetic(bytes)).await;
                    }
                }
                if me == 0 {
                    let dt = mpi.time().saturating_since(t0);
                    let half_rtt_us = dt.as_micros_f64() / (2.0 * reps as f64);
                    let mbps = (bytes as f64 * 8.0) / half_rtt_us; // b/us == Mbit/s
                    mpi.record(LATENCY_US, bytes, half_rtt_us);
                    mpi.record(MBPS, bytes, mbps);
                }
            }
        }
    })
}

/// The NetPIPE sweep as a registered workload.
#[derive(Debug, Clone)]
pub struct NetpipeConfig {
    /// Largest message size of the sweep (sizes ladder up to here).
    pub max_bytes: u64,
    /// Repetition multiplier applied to every sweep size.
    pub rep_scale: f64,
    /// Offer a checkpoint before each size of the sweep (off for the
    /// Figure 6 measurements, on when run under fault injection).
    pub checkpoints: bool,
}

impl NetpipeConfig {
    /// Panics on an empty sweep (`max_bytes == 0`) or a non-positive
    /// repetition scale — both used to yield runs that complete without
    /// measuring anything meaningful.
    pub fn new(max_bytes: u64, rep_scale: f64) -> Self {
        assert!(max_bytes >= 1, "NetPIPE sweep needs max_bytes >= 1");
        assert!(
            rep_scale.is_finite() && rep_scale > 0.0,
            "NetPIPE repetition scale must be a positive finite number, got {rep_scale}"
        );
        NetpipeConfig {
            max_bytes,
            rep_scale,
            checkpoints: false,
        }
    }

    /// Offers a checkpoint before each sweep size (required to
    /// survive fault injection).
    pub fn with_checkpoints(mut self) -> Self {
        self.checkpoints = true;
        self
    }
}

impl Workload for NetpipeConfig {
    fn family(&self) -> &'static str {
        "netpipe"
    }

    fn label(&self) -> String {
        format!("{}B", self.max_bytes)
    }

    fn np(&self) -> usize {
        2
    }

    fn valid_np(&self, np: usize) -> bool {
        np == 2
    }

    /// The process image is dominated by the message buffer.
    fn state_bytes(&self) -> u64 {
        self.max_bytes.max(4096)
    }

    /// NetPIPE measures latency and bandwidth; Mflop/s is undefined.
    fn total_flops(&self) -> f64 {
        0.0
    }

    fn program(&self) -> WorkloadProgram {
        let ckpt = self.checkpoints.then(|| self.state_bytes());
        build(self.max_bytes, self.rep_scale, ckpt).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_powers_of_two() {
        assert_eq!(sizes(8), vec![1, 2, 4, 8]);
        assert_eq!(sizes(1), vec![1]);
        assert_eq!(sizes(8 << 20).len(), 24);
    }

    #[test]
    #[should_panic(expected = "max_bytes >= 1")]
    fn empty_sweep_is_rejected() {
        let _ = sizes(0);
    }

    #[test]
    #[should_panic(expected = "max_bytes >= 1")]
    fn empty_sweep_config_is_rejected() {
        let _ = NetpipeConfig::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive finite number")]
    fn zero_rep_scale_is_rejected() {
        let _ = NetpipeConfig::new(1024, 0.0);
    }

    #[test]
    fn reps_scale_down_with_size() {
        assert!(reps_for(1, 1.0) > reps_for(1 << 20, 1.0));
        assert!(reps_for(8 << 20, 1.0) >= 3);
        assert!(reps_for(1, 0.01) >= 3);
    }
}
