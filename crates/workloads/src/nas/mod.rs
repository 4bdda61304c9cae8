//! NAS Parallel Benchmark communication skeletons.
//!
//! The paper evaluates its protocols on NPB-2 (Bailey et al., NAS-95-020):
//! CG, MG, FT, LU, BT and SP. We reproduce each benchmark's
//! *communication skeleton*: the exact process grids, per-iteration
//! message patterns, message sizes derived from the class geometry, and
//! per-rank flop charges taken from the published operation counts. The
//! numerics themselves are not computed — protocol behaviour depends on
//! the event rate, message sizes and communication/computation ratio,
//! all of which the skeletons reproduce. The paper's own characterization
//! (§V-A) is the reference: *"CG presents heavy point-to-point latency
//! driven communications; BT presents large point-to-point messages, and
//! communications overlapped by computation; LU tests large number of
//! large \[sic\] messages communications, FT presents all-to-all
//! communication pattern."*
//!
//! Every skeleton:
//! * offers a checkpoint at each outer-iteration boundary with a state
//!   payload sized like the benchmark's per-rank memory footprint,
//! * fast-forwards to the checkpointed iteration on restart,
//! * supports *iteration scaling* (running a documented fraction of the
//!   full iteration count) so discrete-event runs stay tractable; flop
//!   accounting scales along.

mod bt;
mod cg;
mod ft;
mod lu;
mod mg;
mod sp;

use vlog_vmpi::{Mpi, Payload};

use crate::workload::{Workload, WorkloadProgram};

/// NPB problem class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Tiny (sanity tests only).
    S,
    /// The paper's measured class (Figures 7-9).
    A,
    /// The largest class the paper cites.
    B,
}

/// The benchmarks the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NasBench {
    /// Conjugate gradient: irregular sparse sendrecv pairs.
    CG,
    /// Multigrid: nearest-neighbor V-cycles over a 3D grid.
    MG,
    /// 3D FFT: global transposes (all-to-all).
    FT,
    /// LU factorization: fine-grained pipelined wavefronts.
    LU,
    /// Block tridiagonal solver on a square process grid.
    BT,
    /// Scalar pentadiagonal solver on a square process grid.
    SP,
}

impl NasBench {
    /// The kernel's canonical two-letter name.
    pub fn label(&self) -> &'static str {
        match self {
            NasBench::CG => "CG",
            NasBench::MG => "MG",
            NasBench::FT => "FT",
            NasBench::LU => "LU",
            NasBench::BT => "BT",
            NasBench::SP => "SP",
        }
    }

    /// Rank counts the benchmark supports (NPB-2 rules: powers of two,
    /// except BT/SP which need square counts).
    pub fn valid_np(&self, np: usize) -> bool {
        match self {
            NasBench::BT | NasBench::SP => {
                let d = (np as f64).sqrt().round() as usize;
                d * d == np
            }
            _ => np.is_power_of_two(),
        }
    }
}

/// One benchmark instance.
#[derive(Debug, Clone)]
pub struct NasConfig {
    /// Which NPB kernel to run.
    pub bench: NasBench,
    /// Problem class (grid size, iteration count, flop count).
    pub class: Class,
    /// Rank count (must satisfy the kernel's geometry rules).
    pub np: usize,
    /// Fraction of the full iteration count to execute (documented
    /// scaling; flops scale along). 1.0 = the published iteration count.
    pub iter_fraction: f64,
    /// Offer checkpoints at outer-iteration boundaries.
    pub checkpoints: bool,
}

impl NasConfig {
    /// A kernel instance at its default iteration fraction.
    /// Panics when `np` violates the kernel's geometry rules.
    pub fn new(bench: NasBench, class: Class, np: usize) -> Self {
        assert!(bench.valid_np(np), "{bench:?} cannot run on {np} ranks");
        NasConfig {
            bench,
            class,
            np,
            iter_fraction: default_fraction(bench),
            checkpoints: true,
        }
    }

    /// Runs the full published iteration count.
    pub fn full(mut self) -> Self {
        self.iter_fraction = 1.0;
        self
    }

    /// Sets the iteration fraction. Panics on NaN, zero or negative
    /// fractions — such a value used to be accepted silently and made
    /// the run "complete" after zero (or a nonsensical number of)
    /// iterations, which poisons every derived metric downstream.
    pub fn fraction(mut self, f: f64) -> Self {
        assert!(
            f.is_finite() && f > 0.0,
            "{:?} iteration fraction must be a positive finite number, got {f}",
            self.bench
        );
        self.iter_fraction = f;
        self
    }

    /// Outer iterations actually executed. Fractions above 1.0 repeat the
    /// benchmark (used by the Figure 1 endurance runs, which need several
    /// virtual minutes of execution); flop accounting scales along.
    pub fn iters(&self) -> u64 {
        let full = full_iters(self.bench, self.class);
        ((full as f64 * self.iter_fraction).round() as u64).max(1)
    }

    /// Per-rank, per-outer-iteration flop charge.
    pub fn flops_per_rank_iter(&self) -> f64 {
        full_flops(self.bench, self.class)
            / (full_iters(self.bench, self.class) as f64 * self.np as f64)
    }
}

impl Workload for NasConfig {
    fn family(&self) -> &'static str {
        "nas"
    }

    fn label(&self) -> String {
        format!("{}.{:?}/{}", self.bench.label(), self.class, self.np)
    }

    fn np(&self) -> usize {
        self.np
    }

    fn valid_np(&self, np: usize) -> bool {
        self.bench.valid_np(np)
    }

    /// Per-rank checkpoint state size (bytes): the benchmark's memory
    /// footprint divided across ranks.
    fn state_bytes(&self) -> u64 {
        mem_bytes(self.bench, self.class) / self.np as u64
    }

    /// Total flops the executed portion represents (the Figure 9
    /// numerator).
    fn total_flops(&self) -> f64 {
        full_flops(self.bench, self.class) * self.iters() as f64
            / full_iters(self.bench, self.class) as f64
    }

    fn program(&self) -> WorkloadProgram {
        let cfg = self.clone();
        match self.bench {
            NasBench::CG => cg::program(cfg),
            NasBench::MG => mg::program(cfg),
            NasBench::FT => ft::program(cfg),
            NasBench::LU => lu::program(cfg),
            NasBench::BT => bt::program(cfg),
            NasBench::SP => sp::program(cfg),
        }
        .into()
    }
}

/// Published outer-iteration counts (NPB-2).
pub fn full_iters(bench: NasBench, class: Class) -> u64 {
    match (bench, class) {
        (NasBench::CG, Class::S) => 3,
        (NasBench::CG, Class::A) => 15,
        (NasBench::CG, Class::B) => 75,
        (NasBench::MG, Class::S) => 2,
        (NasBench::MG, Class::A) => 4,
        (NasBench::MG, Class::B) => 20,
        (NasBench::FT, Class::S) => 2,
        (NasBench::FT, Class::A) => 6,
        (NasBench::FT, Class::B) => 20,
        (NasBench::LU, Class::S) => 10,
        (NasBench::LU, _) => 250,
        (NasBench::BT, Class::S) => 10,
        (NasBench::BT, _) => 200,
        (NasBench::SP, Class::S) => 10,
        (NasBench::SP, _) => 400,
    }
}

/// Approximate total operation counts (flops) of the full benchmark,
/// from the NPB reference outputs.
pub fn full_flops(bench: NasBench, class: Class) -> f64 {
    match (bench, class) {
        (NasBench::CG, Class::S) => 0.07e9,
        (NasBench::CG, Class::A) => 1.508e9,
        (NasBench::CG, Class::B) => 54.89e9,
        (NasBench::MG, Class::S) => 0.02e9,
        (NasBench::MG, Class::A) => 3.625e9,
        (NasBench::MG, Class::B) => 18.12e9,
        (NasBench::FT, Class::S) => 0.2e9,
        (NasBench::FT, Class::A) => 7.09e9,
        (NasBench::FT, Class::B) => 92.2e9,
        (NasBench::LU, Class::S) => 0.5e9,
        (NasBench::LU, Class::A) => 119.28e9,
        (NasBench::LU, Class::B) => 482.6e9,
        (NasBench::BT, Class::S) => 1.0e9,
        (NasBench::BT, Class::A) => 168.3e9,
        (NasBench::BT, Class::B) => 721.5e9,
        (NasBench::SP, Class::S) => 0.8e9,
        (NasBench::SP, Class::A) => 102.0e9,
        (NasBench::SP, Class::B) => 447.1e9,
    }
}

/// Approximate total resident memory of the benchmark (checkpoint image
/// sizing).
pub fn mem_bytes(bench: NasBench, class: Class) -> u64 {
    const MB: u64 = 1 << 20;
    match (bench, class) {
        (NasBench::CG, Class::S) => 4 * MB,
        (NasBench::CG, Class::A) => 60 * MB,
        (NasBench::CG, Class::B) => 400 * MB,
        (NasBench::MG, Class::S) => 8 * MB,
        (NasBench::MG, Class::A) => 450 * MB,
        (NasBench::MG, Class::B) => 450 * MB,
        (NasBench::FT, Class::S) => 8 * MB,
        (NasBench::FT, Class::A) => 320 * MB,
        (NasBench::FT, Class::B) => 1280 * MB,
        (NasBench::LU, Class::S) => 8 * MB,
        (NasBench::LU, Class::A) => 170 * MB,
        (NasBench::LU, Class::B) => 680 * MB,
        (NasBench::BT, Class::S) => 16 * MB,
        (NasBench::BT, Class::A) => 310 * MB,
        (NasBench::BT, Class::B) => 1240 * MB,
        (NasBench::SP, Class::S) => 12 * MB,
        (NasBench::SP, Class::A) => 250 * MB,
        (NasBench::SP, Class::B) => 1000 * MB,
    }
}

/// Grid extent per class for the structured-grid benchmarks.
pub fn grid_n(bench: NasBench, class: Class) -> u64 {
    match (bench, class) {
        (NasBench::LU | NasBench::BT | NasBench::SP, Class::S) => 12,
        (NasBench::LU | NasBench::BT, Class::A) => 64,
        (NasBench::SP, Class::A) => 64,
        (NasBench::LU | NasBench::BT, Class::B) => 102,
        (NasBench::SP, Class::B) => 102,
        (NasBench::MG, Class::S) => 32,
        (NasBench::MG, _) => 256,
        (NasBench::FT, Class::S) => 64,
        (NasBench::FT, Class::A) => 256,
        (NasBench::FT, Class::B) => 512,
        (NasBench::CG, Class::S) => 1400,
        (NasBench::CG, Class::A) => 14000,
        (NasBench::CG, Class::B) => 75000,
    }
}

/// Default iteration fraction keeping DES runs tractable; every figure
/// harness documents the fraction it uses and supports `--full`.
fn default_fraction(bench: NasBench) -> f64 {
    match bench {
        NasBench::CG => 1.0,  // 15 outer iterations are cheap
        NasBench::MG => 1.0,  // 4 iterations
        NasBench::FT => 1.0,  // 6 iterations
        NasBench::LU => 0.1,  // 25 of 250
        NasBench::BT => 0.15, // 30 of 200
        NasBench::SP => 0.1,  // 40 of 400
    }
}

/// Shared helper: read the restored iteration or 0.
pub(crate) fn restored_iter(mpi: &Mpi) -> u64 {
    crate::workload::restored_u64(mpi)
}

/// Shared helper: the checkpoint payload for iteration `it`.
pub(crate) fn state_payload(cfg: &NasConfig, it: u64) -> Payload {
    crate::workload::ckpt_payload(cfg.state_bytes(), it)
}

/// Integer log2 for power-of-two rank counts.
pub(crate) fn ilog2(n: usize) -> u32 {
    debug_assert!(n.is_power_of_two());
    n.trailing_zeros()
}

/// NPB-style near-square 2D factorization of a power-of-two `np`:
/// `(rows, cols)` with `cols >= rows`, both powers of two.
pub(crate) fn pow2_grid(np: usize) -> (usize, usize) {
    let k = ilog2(np);
    let rows = 1usize << (k / 2);
    let cols = np / rows;
    (rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_factor_correctly() {
        assert_eq!(pow2_grid(1), (1, 1));
        assert_eq!(pow2_grid(2), (1, 2));
        assert_eq!(pow2_grid(4), (2, 2));
        assert_eq!(pow2_grid(8), (2, 4));
        assert_eq!(pow2_grid(16), (4, 4));
    }

    #[test]
    fn np_validity_rules() {
        assert!(NasBench::BT.valid_np(9));
        assert!(NasBench::BT.valid_np(25));
        assert!(!NasBench::BT.valid_np(8));
        assert!(NasBench::CG.valid_np(8));
        assert!(!NasBench::CG.valid_np(6));
    }

    #[test]
    fn iteration_scaling_scales_flops() {
        let full = NasConfig::new(NasBench::LU, Class::A, 4).full();
        let tenth = NasConfig::new(NasBench::LU, Class::A, 4).fraction(0.1);
        assert_eq!(full.iters(), 250);
        assert_eq!(tenth.iters(), 25);
        let ratio = tenth.total_flops() / full.total_flops();
        assert!((ratio - 0.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive finite number")]
    fn zero_fraction_is_rejected() {
        let _ = NasConfig::new(NasBench::CG, Class::S, 4).fraction(0.0);
    }

    #[test]
    #[should_panic(expected = "positive finite number")]
    fn negative_fraction_is_rejected() {
        let _ = NasConfig::new(NasBench::CG, Class::S, 4).fraction(-0.5);
    }

    #[test]
    #[should_panic(expected = "positive finite number")]
    fn nan_fraction_is_rejected() {
        let _ = NasConfig::new(NasBench::CG, Class::S, 4).fraction(f64::NAN);
    }

    #[test]
    fn workload_trait_mirrors_the_config() {
        let cfg = NasConfig::new(NasBench::BT, Class::A, 9);
        assert_eq!(cfg.family(), "nas");
        assert_eq!(cfg.label(), "BT.A/9");
        assert_eq!(cfg.np(), 9);
        assert!(cfg.valid_np(16));
        assert!(!cfg.valid_np(8));
        assert_eq!(cfg.state_bytes(), mem_bytes(NasBench::BT, Class::A) / 9);
        assert!(cfg.total_flops() > 0.0);
    }

    #[test]
    fn state_bytes_shrink_with_ranks() {
        let a = NasConfig::new(NasBench::BT, Class::A, 4).state_bytes();
        let b = NasConfig::new(NasBench::BT, Class::A, 16).state_bytes();
        assert_eq!(a, 4 * b);
        assert!(b > 10 << 20, "BT/16 rank state should be >10MB");
    }
}
