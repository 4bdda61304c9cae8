//! Pipelined transpose FFT variant — all-to-all traffic in configurable
//! tiles.
//!
//! NPB FT performs one monolithic global transpose per iteration: every
//! rank ships its whole slab to every other rank in one burst, then
//! computes. The pipelined variant splits the transpose into `tiles`
//! smaller all-to-alls and interleaves the per-tile FFT work between
//! them — the classic overlap transformation. For the logging protocols
//! the two extremes are very different regimes: one big all-to-all means
//! few, huge messages (piggyback amortized to nothing), while deep
//! tiling multiplies the message count by `tiles` and shrinks each
//! payload, pushing piggyback share and per-message management cost
//! back up. Sweeping the tile size maps that trade-off.

use vlog_vmpi::{app, Payload};

use crate::workload::{ckpt_payload, restored_u64, Workload, WorkloadProgram};

/// One pipelined-transpose configuration.
#[derive(Debug, Clone)]
pub struct FftPipeConfig {
    /// Rank count of the transpose.
    pub np: usize,
    /// Outer iterations (one full transpose each).
    pub iters: u64,
    /// Total complex-grid bytes redistributed per transpose (split
    /// evenly over rank pairs, then over tiles).
    pub grid_bytes: u64,
    /// Tiles the transpose is split into; 1 reproduces FT's monolithic
    /// all-to-all.
    pub tiles: u32,
    /// FFT work per rank per iteration, flops.
    pub flops_per_iter: f64,
    /// Per-rank checkpoint state bytes.
    pub state_bytes: u64,
    /// Offer checkpoints at iteration boundaries.
    pub checkpoints: bool,
}

impl FftPipeConfig {
    /// A pipelined transpose on `np` ranks, `iters` iterations, the
    /// global exchange split into `tiles` tiles.
    pub fn new(np: usize, iters: u64, tiles: u32) -> Self {
        assert!(np >= 2, "transpose needs >=2 ranks");
        assert!(iters >= 1, "transpose needs >=1 iteration");
        assert!(tiles >= 1, "transpose needs >=1 tile");
        FftPipeConfig {
            np,
            iters,
            grid_bytes: 8 << 20,
            tiles,
            flops_per_iter: 2.0e7,
            state_bytes: 8 << 20,
            checkpoints: true,
        }
    }

    /// Bytes each rank pair exchanges per tile.
    pub fn tile_pair_bytes(&self) -> u64 {
        let pair = (self.grid_bytes / (self.np * self.np) as u64).max(64);
        (pair / self.tiles as u64).max(16)
    }
}

impl Workload for FftPipeConfig {
    fn family(&self) -> &'static str {
        "fft"
    }

    fn label(&self) -> String {
        format!("{}r.t{}", self.np, self.tiles)
    }

    fn np(&self) -> usize {
        self.np
    }

    fn valid_np(&self, np: usize) -> bool {
        np >= 2
    }

    fn state_bytes(&self) -> u64 {
        self.state_bytes
    }

    fn total_flops(&self) -> f64 {
        self.np as f64 * self.iters as f64 * self.flops_per_iter
    }

    fn program(&self) -> WorkloadProgram {
        let cfg = self.clone();
        let spec = app(move |mpi| {
            let cfg = cfg.clone();
            async move {
                let np = mpi.size();
                let tile_bytes = cfg.tile_pair_bytes();
                let flops = cfg.flops_per_iter;
                let start = restored_u64(&mpi);
                for it in start..cfg.iters {
                    if cfg.checkpoints {
                        mpi.checkpoint_point(ckpt_payload(cfg.state_bytes, it))
                            .await;
                    }
                    // FFTs along the resident dimensions.
                    mpi.compute(flops * 0.4).await;
                    // Tiled global transpose: communication of tile t
                    // overlaps (alternates) with the tile-local FFT
                    // work, instead of FT's single monolithic burst.
                    for _tile in 0..cfg.tiles {
                        let outgoing = (0..np).map(|_| Payload::synthetic(tile_bytes)).collect();
                        mpi.alltoall(outgoing).await;
                        mpi.compute(flops * 0.6 / cfg.tiles as f64).await;
                    }
                    // Checksum reduction closing the iteration.
                    mpi.allreduce_synth(16).await;
                }
            }
        });
        spec.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiling_divides_the_pair_payload() {
        let mono = FftPipeConfig::new(4, 2, 1);
        let tiled = FftPipeConfig::new(4, 2, 8);
        assert_eq!(mono.tile_pair_bytes(), 8 * tiled.tile_pair_bytes());
        // Total redistributed bytes are tile-count invariant.
        assert_eq!(
            mono.tile_pair_bytes() * 1,
            tiled.tile_pair_bytes() * tiled.tiles as u64
        );
    }

    #[test]
    fn tiny_tiles_never_collapse_to_zero() {
        let cfg = FftPipeConfig {
            grid_bytes: 1,
            ..FftPipeConfig::new(16, 1, 64)
        };
        assert!(cfg.tile_pair_bytes() >= 16);
    }

    #[test]
    #[should_panic(expected = ">=1 tile")]
    fn zero_tiles_is_rejected() {
        let _ = FftPipeConfig::new(4, 1, 0);
    }
}
