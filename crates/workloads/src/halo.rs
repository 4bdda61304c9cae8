//! Irregular sparse halo exchange — seeded random neighbor graphs with
//! non-uniform degrees.
//!
//! The NAS skeletons all talk to structured neighbors (grid faces,
//! hypercube partners, transpose pairs). Real irregular applications —
//! unstructured meshes, graph analytics, sparse solvers — exchange halos
//! over a *sparse random* topology where a few hub ranks carry far more
//! edges than the rest. That shape stresses causal piggybacking
//! differently: hub ranks accumulate (and re-ship) causality for many
//! partners while leaf ranks see long quiet stretches, so piggyback
//! volume concentrates instead of spreading evenly.
//!
//! The graph is a pure function of `(np, seed)`: a connectivity ring
//! plus extra edges whose probability is biased toward low ranks
//! (preferential weights), with log-uniform per-edge halo sizes.

use std::sync::{Arc, OnceLock};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vlog_vmpi::{app, Payload, RecvSelector};

use crate::workload::{ckpt_payload, mix_seed, restored_u64, Workload, WorkloadProgram};

const TAG_HALO: u32 = 80;

/// `graph[r]` is rank `r`'s sorted `(peer, halo_bytes)` list.
type Graph = Vec<Vec<(usize, u64)>>;

/// One irregular halo-exchange configuration.
///
/// The fields the graph is drawn from are private and fixed by
/// [`HaloConfig::new`]: the graph is built on first use and shared by
/// every clone, and a field nobody can write afterwards is what keeps
/// it from going stale.
#[derive(Debug, Clone)]
pub struct HaloConfig {
    /// Rank count (graph vertices).
    np: usize,
    /// Probability scale for extra (non-ring) edges.
    extra_edge_prob: f64,
    /// Smallest per-edge halo payload, bytes.
    min_bytes: u64,
    /// Largest per-edge halo payload, bytes (log-uniform between the
    /// two).
    max_bytes: u64,
    /// Topology seed.
    seed: u64,
    /// Outer iterations (one halo exchange each).
    pub iters: u64,
    /// Local relaxation work per rank per iteration, flops.
    pub flops_per_iter: f64,
    /// Per-rank checkpoint state bytes.
    pub state_bytes: u64,
    /// Offer checkpoints at iteration boundaries.
    pub checkpoints: bool,
    /// The neighbor graph, see [`HaloConfig::graph`].
    graph: Arc<OnceLock<Graph>>,
}

impl HaloConfig {
    /// A halo exchange over the `(np, seed)` graph running `iters`
    /// iterations.
    pub fn new(np: usize, iters: u64, seed: u64) -> Self {
        assert!(np >= 2, "halo exchange needs >=2 ranks");
        assert!(iters >= 1, "halo exchange needs >=1 iteration");
        HaloConfig {
            np,
            extra_edge_prob: 0.35,
            min_bytes: 64,
            max_bytes: 32 << 10,
            seed,
            iters,
            flops_per_iter: 4.0e6,
            state_bytes: 4 << 20,
            checkpoints: true,
            graph: Arc::default(),
        }
    }

    /// The neighbor graph: `graph()[r]` is rank `r`'s sorted
    /// `(peer, halo_bytes)` list. Symmetric (both endpoints agree on the
    /// edge and its size), connected (ring backbone), degrees biased
    /// toward low ranks. Drawn by the first caller — O(np²) seeded
    /// draws — and shared with every clone, so the per-rank programs of
    /// every incarnation read one copy.
    pub fn graph(&self) -> &[Vec<(usize, u64)>] {
        self.graph.get_or_init(|| self.draw_graph())
    }

    /// Draws the graph: one seeded RNG per rank pair, keyed `(seed, i, j)`.
    fn draw_graph(&self) -> Graph {
        let n = self.np;
        let mut adj: Graph = vec![Vec::new(); n];
        let add = |adj: &mut Graph, i: usize, j: usize, bytes: u64| {
            adj[i].push((j, bytes));
            adj[j].push((i, bytes));
        };
        for i in 0..n {
            for j in (i + 1)..n {
                let mut rng = SmallRng::seed_from_u64(mix_seed(self.seed, i as u64, j as u64));
                let ring = j == i + 1 || (i == 0 && j == n - 1);
                // Preferential weights: low ranks attract extra edges,
                // making them hubs with far higher degree.
                let w = |r: usize| 1.0 / (1.0 + r as f64).sqrt();
                let p = (self.extra_edge_prob * w(i) * w(j) * 2.0).min(0.95);
                if ring || rng.random_bool(p) {
                    let u: f64 = rng.random();
                    let ratio = self.max_bytes.max(self.min_bytes) as f64 / self.min_bytes as f64;
                    let bytes = (self.min_bytes as f64 * ratio.powf(u)) as u64;
                    add(&mut adj, i, j, bytes.clamp(self.min_bytes, self.max_bytes));
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        adj
    }

    /// The hub: the rank with the highest degree (lowest rank wins
    /// ties). Killing it mid-run is the worst-case single fault for this
    /// topology — its many partners all hold causal state about it.
    pub fn hub(&self) -> usize {
        let g = self.graph();
        (0..self.np)
            .max_by_key(|&r| (g[r].len(), std::cmp::Reverse(r)))
            .unwrap_or(0)
    }
}

impl Workload for HaloConfig {
    fn family(&self) -> &'static str {
        "halo"
    }

    fn label(&self) -> String {
        format!("{}r.x{}", self.np, self.iters)
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

    fn hub_rank(&self) -> usize {
        self.hub()
    }

    fn program(&self) -> WorkloadProgram {
        let cfg = self.clone();
        let spec = app(move |mpi| {
            let cfg = cfg.clone();
            async move {
                let me = mpi.rank();
                let neighbors = &cfg.graph()[me];
                let start = restored_u64(&mpi);
                for it in start..cfg.iters {
                    if cfg.checkpoints {
                        mpi.checkpoint_point(ckpt_payload(cfg.state_bytes, it))
                            .await;
                    }
                    // Post every outgoing halo first, then drain the
                    // incoming ones — safe regardless of eager or
                    // rendezvous transport.
                    let sends: Vec<_> = neighbors
                        .iter()
                        .map(|&(peer, bytes)| mpi.isend(peer, TAG_HALO, Payload::synthetic(bytes)))
                        .collect();
                    for &(peer, _) in neighbors {
                        mpi.recv(RecvSelector::of(peer, TAG_HALO)).await;
                    }
                    for s in sends {
                        s.wait().await;
                    }
                    mpi.compute(cfg.flops_per_iter).await;
                    // Periodic global residual check.
                    if it % 4 == 3 {
                        mpi.allreduce_synth(8).await;
                    }
                }
            }
        });
        spec.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(edge count, max degree, min degree)` of the generated graph.
    fn degree_stats(cfg: &HaloConfig) -> (usize, usize, usize) {
        let degrees: Vec<usize> = cfg.graph().iter().map(|l| l.len()).collect();
        let edges = degrees.iter().sum::<usize>() / 2;
        (
            edges,
            degrees.iter().copied().max().unwrap_or(0),
            degrees.iter().copied().min().unwrap_or(0),
        )
    }

    #[test]
    fn graph_is_symmetric_connected_and_deterministic() {
        let cfg = HaloConfig::new(12, 4, 9);
        let g = cfg.graph();
        assert_eq!(g, HaloConfig::new(12, 4, 9).graph());
        for (i, list) in g.iter().enumerate() {
            for &(j, bytes) in list {
                assert_ne!(i, j, "no self loops");
                assert!(
                    g[j].iter().any(|&(k, b)| k == i && b == bytes),
                    "edge ({i},{j}) must be symmetric with equal size"
                );
                assert!(bytes >= cfg.min_bytes && bytes <= cfg.max_bytes);
            }
            // Ring backbone guarantees degree >= 2 (np > 2).
            assert!(list.len() >= 2, "rank {i} disconnected");
        }
    }

    #[test]
    fn degrees_are_nonuniform() {
        let (_edges, max_deg, min_deg) = degree_stats(&HaloConfig::new(16, 4, 3));
        assert!(
            max_deg >= min_deg + 2,
            "hub construction should spread degrees: max={max_deg} min={min_deg}"
        );
    }

    #[test]
    fn hub_is_the_highest_degree_rank() {
        let cfg = HaloConfig::new(16, 4, 3);
        let g = cfg.graph();
        let hub = cfg.hub();
        assert!((0..16).all(|r| g[r].len() <= g[hub].len()));
        // Ties break toward the lowest rank.
        let first_max = (0..16).find(|&r| g[r].len() == g[hub].len()).unwrap();
        assert_eq!(hub, first_max);
        assert_eq!(Workload::hub_rank(&cfg), hub);
        // Preferential attachment pulls the hub toward the low ranks.
        assert!(hub < 8, "hub {hub} landed in the low-weight half");
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        assert_ne!(
            HaloConfig::new(12, 4, 1).graph(),
            HaloConfig::new(12, 4, 2).graph()
        );
    }

    /// Values captured on the commit before the graph was shared.
    #[test]
    fn shared_graph_reproduces_the_pinned_registry_entry() {
        let cfg = HaloConfig::new(32, 4, 12);
        assert_eq!(cfg.hub(), 0);
        assert_eq!(degree_stats(&cfg), (68, 9, 2));
        // A clone reads the graph its parent drew.
        let clone = cfg.clone();
        assert!(Arc::ptr_eq(&cfg.graph, &clone.graph));
        assert!(std::ptr::eq(cfg.graph(), clone.graph()));
    }
}
