//! Software cost model.
//!
//! The paper's latency table (Figure 6a) decomposes into wire time plus
//! per-layer software costs. We charge those costs in virtual time using
//! the constants below, calibrated once against the paper's measurements
//! on AthlonXP 2800+ nodes (see EXPERIMENTS.md §F6a):
//!
//! * **raw** — NetPIPE directly on TCP sockets: almost no per-message CPU.
//! * **p4** — MPICH-P4: MPI matching, packetization, one process.
//! * **vdaemon** — MPICH-V: P4-like costs *plus* the daemon hop (a pipe
//!   crossing with memcpy and a context switch on each side), which the
//!   paper quantifies as the 99.56 → 134.84 µs latency increase.
//!
//! Causal-protocol costs (event creation, piggyback serialization, graph
//! maintenance, sender-based copies) are charged by `vlog-core` through its
//! own `vlog_core::costs` constants — this module only covers the
//! protocol-independent stack.

use vlog_sim::SimDuration;

/// Per-layer software costs of one stack configuration.
#[derive(Debug, Clone)]
pub struct StackProfile {
    /// Human-readable stack name ("MPICH-P4", "MPICH-Vdummy", ...).
    pub name: &'static str,
    /// Fixed cost of one pipe crossing between MPI process and daemon
    /// (context switch + syscalls). Zero when there is no daemon.
    pub pipe_fixed: SimDuration,
    /// Per-byte memcpy cost through the pipe (ns/byte).
    pub pipe_ns_per_byte: f64,
    /// Fixed per-message cost in the communication layer (matching,
    /// header processing, iovec packing) on each side.
    pub msg_fixed: SimDuration,
    /// Per-byte cost in the communication layer (ns/byte).
    pub msg_ns_per_byte: f64,
    /// Eager/rendezvous switch-over: payloads strictly larger than this
    /// use RTS/CTS.
    pub eager_threshold: u64,
    /// Sustained application compute rate (flops/s) used by
    /// `Mpi::compute`. Models the AthlonXP 2800+ on NPB kernels.
    pub flops_per_sec: f64,
}

impl StackProfile {
    /// NetPIPE on raw TCP sockets.
    pub fn raw() -> Self {
        StackProfile {
            name: "RAW-TCP",
            pipe_fixed: SimDuration::ZERO,
            pipe_ns_per_byte: 0.0,
            msg_fixed: SimDuration::from_nanos(1_500),
            msg_ns_per_byte: 0.0,
            eager_threshold: u64::MAX,
            flops_per_sec: 250e6,
        }
    }

    /// MPICH-P4 reference implementation (no daemon, message-level
    /// half-duplex; pair with `EthernetParams.half_duplex = true`).
    pub fn p4() -> Self {
        StackProfile {
            name: "MPICH-P4",
            pipe_fixed: SimDuration::ZERO,
            pipe_ns_per_byte: 0.0,
            msg_fixed: SimDuration::from_nanos(20_300),
            msg_ns_per_byte: 1.5,
            eager_threshold: 128 << 10,
            flops_per_sec: 250e6,
        }
    }

    /// MPICH-V generic communication layer (daemon + pipes).
    pub fn vdaemon() -> Self {
        StackProfile {
            name: "MPICH-V",
            pipe_fixed: SimDuration::from_nanos(16_500),
            pipe_ns_per_byte: 2.5,
            msg_fixed: SimDuration::from_nanos(21_500),
            msg_ns_per_byte: 1.5,
            eager_threshold: 128 << 10,
            flops_per_sec: 250e6,
        }
    }

    /// Pipe crossing cost for a message of `bytes` payload.
    pub fn pipe_cost(&self, bytes: u64) -> SimDuration {
        self.pipe_fixed + SimDuration::from_nanos((bytes as f64 * self.pipe_ns_per_byte) as u64)
    }

    /// Communication-layer cost for a message of `bytes` payload.
    pub fn msg_cost(&self, bytes: u64) -> SimDuration {
        self.msg_fixed + SimDuration::from_nanos((bytes as f64 * self.msg_ns_per_byte) as u64)
    }

    /// Virtual time to execute `flops` floating point operations.
    pub fn compute_time(&self, flops: f64) -> SimDuration {
        SimDuration::from_secs_f64(flops / self.flops_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_by_overhead() {
        let raw = StackProfile::raw();
        let p4 = StackProfile::p4();
        let vd = StackProfile::vdaemon();
        let one_side = |p: &StackProfile| p.pipe_cost(1) + p.msg_cost(1);
        assert!(one_side(&raw) < one_side(&p4));
        assert!(one_side(&p4) < one_side(&vd));
    }

    #[test]
    fn per_byte_costs_scale() {
        let vd = StackProfile::vdaemon();
        let small = vd.pipe_cost(1);
        let big = vd.pipe_cost(1 << 20);
        assert!(big > small);
        // 1 MiB at 2.5 ns/B ≈ 2.6 ms of memcpy.
        assert!(big.as_millis_f64() > 2.0 && big.as_millis_f64() < 3.5);
    }

    #[test]
    fn compute_time_matches_rate() {
        let vd = StackProfile::vdaemon();
        let t = vd.compute_time(250e6);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }
}
