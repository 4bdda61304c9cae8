//! # vlog-workloads — benchmarks driving the protocol evaluation
//!
//! Every benchmark is an instance of one abstraction: the
//! [`Workload`] trait (label, geometry rules, flop/state accounting,
//! program construction) plus the [`registry()`] enumerating all
//! registered configurations. The generic [`run_workload`] runner
//! executes any workload under any protocol suite and returns the run's
//! `RunReport`, on which every figure metric sits; [`mflops`] computes
//! Figure 9's Mflop/s from a workload's flop count and a run's makespan.
//!
//! Families:
//!
//! * [`nas`] — communication skeletons of the NAS Parallel Benchmarks
//!   (CG, MG, FT, LU, BT, SP) with published class geometry, iteration
//!   counts, operation counts and memory footprints,
//! * [`netpipe`] — the NetPIPE ping-pong micro-benchmark of Figure 6,
//! * [`bursty`] — a bursty request/reply service (wildcard-receive
//!   server, deterministic-RNG burst arrivals),
//! * [`halo`] — irregular sparse halo exchange over seeded random
//!   neighbor graphs with non-uniform degrees,
//! * [`fft_pipe`] — a pipelined transpose/all-to-all FFT variant with
//!   configurable tile sizes,
//! * [`runner`] — fault-plan helpers shared by the figure harnesses.

#![deny(missing_docs)]

pub mod bursty;
pub mod fft_pipe;
pub mod halo;
pub mod nas;
pub mod netpipe;
pub mod registry;
pub mod runner;
pub mod workload;

pub use bursty::BurstyConfig;
pub use fft_pipe::FftPipeConfig;
pub use halo::HaloConfig;
pub use nas::{full_flops, full_iters, grid_n, mem_bytes, Class, NasBench, NasConfig};
pub use netpipe::{NetpipeConfig, NetpipePoint};
pub use registry::{net_axes, registry, NetAxis, RegistryScale, FAMILIES};
pub use workload::{mflops, run_workload, Workload, WorkloadProgram};
