//! Bursty request/reply service — the "millions of users" traffic shape.
//!
//! Ranks `0..servers` are servers; every other rank is a client firing
//! *bursts* of requests with deterministic-RNG arrivals (exponential
//! think times, heavy-tailed burst sizes), then waiting for the replies.
//! Each server drains its requests with a **wildcard receive**, so the
//! delivery order is a race decided by the network — exactly the
//! nondeterminism causal message logging exists to capture. Compared to
//! the NAS skeletons (static partners, deterministic schedules) this
//! regime stresses the determinant path: every served request is a
//! genuinely nondeterministic event the protocols must log, piggyback or
//! ack before the reply's causal effects escape.
//!
//! The default configuration runs one server (the paper-scale shape);
//! [`BurstyConfig::with_servers`] shards the service across `k` server
//! ranks with every client *hashed* to one server — a pure function of
//! `(seed, client rank)`, so the assignment survives restarts and scales
//! the regime to larger rank counts without serializing all traffic
//! through one wildcard queue.
//!
//! The RNG draws are keyed by `(seed, rank, round)`, never by elapsed
//! state, so an incarnation restarted from a round checkpoint regenerates
//! byte-identical traffic — the piecewise-determinism contract replay
//! needs. Being a pure function of the configuration, the whole arrival
//! process is drawn once, on first use, into a table every clone of the
//! configuration shares: servers, clients, restarted incarnations and
//! the harness's probes all read the same draws.

use std::sync::{Arc, OnceLock};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vlog_sim::SimDuration;
use vlog_vmpi::{app, Payload, RecvSelector};

use crate::workload::{ckpt_payload, mix_seed, restored_u64, Workload, WorkloadProgram};

const TAG_REQ: u32 = 70;
const TAG_REP: u32 = 71;

/// Salt separating the client-to-server hash from the arrival draws.
const SERVER_HASH_SALT: u64 = 0x5e4e;

/// Salt separating the *virtual*-client arrival draws (aggregated mode)
/// from the physical schedule and the server hash.
const AGG_SALT: u64 = 0xa99a;

/// One bursty service configuration.
///
/// The fields the arrival process is drawn from are private and set
/// only by [`BurstyConfig::new`], [`BurstyConfig::with_servers`] and
/// [`BurstyConfig::aggregated`]: everything derived from them lives in
/// one table built on first use and shared by every clone, and a field
/// nobody can write afterwards is what keeps that table from going
/// stale.
#[derive(Debug, Clone)]
pub struct BurstyConfig {
    /// Total ranks: ranks `0..servers` serve, ranks `servers..np` are
    /// clients.
    np: usize,
    /// Number of server ranks (1 = the classic single-server shape).
    servers: usize,
    /// Bursts each client fires.
    rounds: u64,
    /// Mean requests per burst (tail is exponential, capped at 16x).
    mean_burst: f64,
    /// Mean think time between a client's bursts.
    mean_think: SimDuration,
    /// Arrival-process seed.
    seed: u64,
    /// Virtual clients modeled per physical client rank (aggregated
    /// mode; 1 = classic). See [`BurstyConfig::aggregated`].
    clients_per_rank: u64,
    /// Request payload bytes.
    pub req_bytes: u64,
    /// Reply payload bytes.
    pub reply_bytes: u64,
    /// Service cost per request, flops.
    pub flops_per_req: f64,
    /// Server checkpoints every this many served requests; clients at
    /// every round boundary.
    pub ckpt_every: u64,
    /// Per-rank checkpoint state bytes.
    pub state_bytes: u64,
    /// Offer checkpoints (required to survive fault injection).
    pub checkpoints: bool,
    /// The arrival table, see [`BurstyConfig::arrivals`].
    arrivals: Arc<OnceLock<Arrivals>>,
}

/// One client round of the arrival process.
#[derive(Debug, PartialEq)]
struct RoundDraw {
    /// Physical requests the round fires.
    burst: u64,
    /// Think time before the burst.
    think: SimDuration,
    /// Virtual requests the round aggregates (`burst` in classic mode).
    vtotal: u64,
}

/// Everything a configuration derives from its seed — a pure function
/// of the private fields, so it is drawn once per configuration instead
/// of once per cell, rank and incarnation (the aggregated ladder's
/// largest entry sums 4,800 draws per client round).
#[derive(Debug, PartialEq)]
struct Arrivals {
    /// One entry per (client, round), `rounds` consecutive entries per
    /// client in rank order.
    draws: Vec<RoundDraw>,
    /// Requests routed to each server over the whole run.
    per_server: Vec<u64>,
    /// Requests the whole run serves.
    total: u64,
    /// Requests the whole run models (`total` in classic mode).
    modeled: u64,
    /// The server with the most routed requests (lowest rank wins ties).
    busiest: usize,
}

impl BurstyConfig {
    /// A single-server service on `np` ranks firing `rounds` bursts per
    /// client, with arrival traffic keyed off `seed`.
    pub fn new(np: usize, rounds: u64, seed: u64) -> Self {
        assert!(np >= 2, "bursty service needs a server and >=1 client");
        assert!(rounds >= 1, "bursty service needs >=1 round");
        BurstyConfig {
            np,
            servers: 1,
            rounds,
            mean_burst: 4.0,
            mean_think: SimDuration::from_micros(300),
            seed,
            clients_per_rank: 1,
            req_bytes: 256,
            reply_bytes: 1024,
            flops_per_req: 2.0e5,
            ckpt_every: 16,
            state_bytes: 2 << 20,
            checkpoints: true,
            arrivals: Arc::default(),
        }
    }

    /// Models `per_rank` virtual clients behind every physical client
    /// rank (a load-balancer front for a huge population). The physical
    /// message schedule — bursts, think times, wire bytes per request —
    /// is *identical* to the classic shape; what changes is that every
    /// request carries a multiplicity aggregating its share of the
    /// virtual arrivals (an 8-byte count inside the unchanged request
    /// payload), and the server's service cost scales with it. The
    /// per-request flops are divided by `per_rank` so total service work
    /// stays comparable across aggregation factors: the regime isolates
    /// what the *piggyback* does as the modeled population grows.
    pub fn aggregated(mut self, per_rank: u64) -> Self {
        assert!(per_rank >= 1, "aggregation factor must be >= 1");
        self.clients_per_rank = per_rank;
        self.flops_per_req /= per_rank as f64;
        self.arrivals = Arc::default();
        self
    }

    /// Clients the configuration models: physical clients times the
    /// aggregation factor.
    pub fn modeled_clients(&self) -> u64 {
        (self.np - self.servers) as u64 * self.clients_per_rank
    }

    /// Shards the service across `servers` server ranks; every client is
    /// hashed to one of them (see [`BurstyConfig::server_of`]).
    pub fn with_servers(mut self, servers: usize) -> Self {
        assert!(servers >= 1, "bursty service needs >=1 server");
        assert!(
            self.np > servers,
            "bursty service with {servers} servers needs at least {} ranks",
            servers + 1
        );
        self.servers = servers;
        self.arrivals = Arc::default();
        self
    }

    /// The client ranks of this configuration (`servers..np`).
    pub fn clients(&self) -> std::ops::Range<usize> {
        self.servers..self.np
    }

    /// The server rank client `rank` sends every request to: a pure
    /// `(seed, rank)` hash, so the assignment is deterministic across
    /// restarts and incarnations but uncorrelated with rank order.
    pub fn server_of(&self, rank: usize) -> usize {
        debug_assert!(self.clients().contains(&rank), "rank {rank} is a server");
        (mix_seed(self.seed, rank as u64, SERVER_HASH_SALT) % self.servers as u64) as usize
    }

    /// The arrival table: drawn by the first caller, shared with every
    /// clone (`program()` clones the configuration per rank per
    /// incarnation), and replaced by an empty cell whenever a builder
    /// changes a field it is drawn from.
    fn arrivals(&self) -> &Arrivals {
        self.arrivals.get_or_init(|| self.draw_arrivals())
    }

    /// One burst size: an exponential tail over a minimum of one
    /// request, capped so one outlier round cannot dominate a whole run.
    fn burst_size(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.random();
        let cap = (self.mean_burst * 16.0).max(1.0);
        ((1.0 + (-(1.0 - u).ln()) * self.mean_burst).min(cap) as u64).max(1)
    }

    /// Draws the whole arrival process. Physical draws are keyed
    /// `(seed, rank, round)`; a virtual client's burst has the same
    /// exponential shape, salted so the virtual population is
    /// statistically independent of the physical schedule, and a round
    /// aggregates the independent draws of its rank's `clients_per_rank`
    /// virtual clients.
    fn draw_arrivals(&self) -> Arrivals {
        let mut draws = Vec::with_capacity(self.clients().len() * self.rounds as usize);
        let mut per_server = vec![0; self.servers];
        let mut modeled = 0;
        for rank in self.clients() {
            let server = self.server_of(rank);
            let first_vclient = (rank - self.servers) as u64 * self.clients_per_rank;
            for round in 0..self.rounds {
                let mut rng = SmallRng::seed_from_u64(mix_seed(self.seed, rank as u64, round));
                let burst = self.burst_size(&mut rng);
                let v: f64 = rng.random();
                let think = self.mean_think.mul_f64(-(1.0 - v).ln());
                let vtotal = if self.clients_per_rank == 1 {
                    burst
                } else {
                    (first_vclient..first_vclient + self.clients_per_rank)
                        .map(|vclient| {
                            let seed = mix_seed(self.seed ^ AGG_SALT, vclient, round);
                            self.burst_size(&mut SmallRng::seed_from_u64(seed))
                        })
                        .sum()
                };
                per_server[server] += burst;
                modeled += vtotal;
                draws.push(RoundDraw {
                    burst,
                    think,
                    vtotal,
                });
            }
        }
        let busiest = (0..self.servers)
            .max_by_key(|&s| (per_server[s], std::cmp::Reverse(s)))
            .unwrap_or(0);
        Arrivals {
            draws,
            total: per_server.iter().sum(),
            per_server,
            modeled,
            busiest,
        }
    }

    /// Client `rank`'s round `round` of the arrival table.
    fn round(&self, rank: usize, round: u64) -> &RoundDraw {
        debug_assert!(self.clients().contains(&rank), "rank {rank} is a server");
        debug_assert!(round < self.rounds, "round {round} of {}", self.rounds);
        &self.arrivals().draws[(rank - self.servers) * self.rounds as usize + round as usize]
    }

    /// Burst size and think time of client `rank`'s round `round` —
    /// a pure function of the seed, so replay regenerates it exactly.
    fn draw(&self, rank: usize, round: u64) -> (u64, SimDuration) {
        let draw = self.round(rank, round);
        (draw.burst, draw.think)
    }

    /// Virtual requests client `rank`'s round aggregates.
    fn virtual_round_total(&self, rank: usize, round: u64) -> u64 {
        self.round(rank, round).vtotal
    }

    /// Multiplicities carried by the `burst` physical requests of client
    /// `rank`'s round: the round's virtual total distributed base +
    /// remainder-first, so the sum is exact. All ones in classic mode,
    /// where a round aggregates nothing but its own burst.
    fn request_multiplicities(&self, rank: usize, round: u64, burst: u64) -> Vec<u64> {
        let vtotal = self.virtual_round_total(rank, round);
        let base = vtotal / burst;
        let rem = vtotal % burst;
        (0..burst).map(|i| base + u64::from(i < rem)).collect()
    }

    /// The request payload carrying multiplicity `mult`. Classic mode
    /// stays byte-for-byte the synthetic payload it always was;
    /// aggregated mode embeds the count in the first 8 bytes without
    /// changing the wire length.
    fn request_payload(&self, mult: u64) -> Payload {
        if self.clients_per_rank == 1 {
            return Payload::synthetic(self.req_bytes);
        }
        let mut p = Payload::new(mult.to_le_bytes().to_vec());
        p.pad = self.req_bytes.saturating_sub(8);
        p
    }

    /// Multiplicity a server reads back out of a request payload.
    fn request_mult(payload: &Payload) -> u64 {
        match payload.data.as_ref().get(..8) {
            Some(head) => u64::from_le_bytes(head.try_into().unwrap()),
            None => 1,
        }
    }

    /// Requests the configuration *models*: the virtual total in
    /// aggregated mode, the physical total otherwise.
    pub fn modeled_requests(&self) -> u64 {
        self.arrivals().modeled
    }

    /// Total requests the whole run serves (the servers derive their
    /// termination conditions from the same pure arrival process).
    pub fn total_requests(&self) -> u64 {
        self.arrivals().total
    }

    /// Requests routed to `server` over the whole run — its termination
    /// condition, derived from the same pure arrival process and hash
    /// every client uses.
    pub fn total_requests_for(&self, server: usize) -> u64 {
        self.arrivals().per_server[server]
    }

    /// The busiest server rank (most routed requests; lowest rank wins
    /// ties) — the hub whose failure stresses recovery hardest.
    pub fn busiest_server(&self) -> usize {
        self.arrivals().busiest
    }
}

impl Workload for BurstyConfig {
    fn family(&self) -> &'static str {
        "bursty"
    }

    fn label(&self) -> String {
        if self.clients_per_rank > 1 {
            // Lead with the modeled population: that is the regime.
            format!(
                "{}c.{}s.x{}.agg{}",
                self.modeled_clients(),
                self.servers,
                self.rounds,
                self.clients_per_rank
            )
        } else if self.servers == 1 {
            format!("{}c.x{}", self.np - self.servers, self.rounds)
        } else {
            format!(
                "{}c.{}s.x{}",
                self.np - self.servers,
                self.servers,
                self.rounds
            )
        }
    }

    fn np(&self) -> usize {
        self.np
    }

    fn valid_np(&self, np: usize) -> bool {
        np > self.servers
    }

    fn state_bytes(&self) -> u64 {
        self.state_bytes
    }

    fn total_flops(&self) -> f64 {
        self.modeled_requests() as f64 * self.flops_per_req
    }

    fn hub_rank(&self) -> usize {
        self.busiest_server()
    }

    fn program(&self) -> WorkloadProgram {
        let cfg = self.clone();
        let spec = app(move |mpi| {
            let cfg = cfg.clone();
            async move {
                let me = mpi.rank();
                if me < cfg.servers {
                    // Server: drain this shard's share of the requests in
                    // whatever order the network delivers them; reply to
                    // the source.
                    let total = cfg.total_requests_for(me);
                    let mut served = restored_u64(&mpi);
                    while served < total {
                        if cfg.checkpoints && served.is_multiple_of(cfg.ckpt_every) {
                            mpi.checkpoint_point(ckpt_payload(cfg.state_bytes, served))
                                .await;
                        }
                        let req = mpi
                            .recv(RecvSelector {
                                src: None,
                                tag: Some(TAG_REQ),
                            })
                            .await;
                        let mult = BurstyConfig::request_mult(&req.payload);
                        mpi.compute(cfg.flops_per_req * mult as f64).await;
                        mpi.send(req.src, TAG_REP, Payload::synthetic(cfg.reply_bytes))
                            .await;
                        served += 1;
                    }
                } else {
                    // Client: think, fire a burst at the hashed server,
                    // collect the replies.
                    let server = cfg.server_of(me);
                    let start = restored_u64(&mpi);
                    for round in start..cfg.rounds {
                        if cfg.checkpoints {
                            mpi.checkpoint_point(ckpt_payload(cfg.state_bytes, round))
                                .await;
                        }
                        let (burst, think) = cfg.draw(me, round);
                        mpi.elapse(think).await;
                        for mult in cfg.request_multiplicities(me, round, burst) {
                            mpi.send(server, TAG_REQ, cfg.request_payload(mult)).await;
                        }
                        for _ in 0..burst {
                            mpi.recv_from(server, TAG_REP).await;
                        }
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

    #[test]
    fn arrivals_are_deterministic_and_nonuniform() {
        let cfg = BurstyConfig::new(4, 8, 42);
        let again = BurstyConfig::new(4, 8, 42);
        assert_eq!(cfg.total_requests(), again.total_requests());
        // Distinct (rank, round) pairs draw distinct bursts somewhere.
        let a: Vec<u64> = (0..8).map(|r| cfg.draw(1, r).0).collect();
        let b: Vec<u64> = (0..8).map(|r| cfg.draw(2, r).0).collect();
        assert_ne!(a, b, "clients must not fire identical burst trains");
        // Every burst fires at least one request.
        assert!(a.iter().chain(&b).all(|&n| n >= 1));
        // A different seed reshapes the traffic.
        assert_ne!(
            BurstyConfig::new(4, 8, 7).total_requests(),
            cfg.total_requests()
        );
    }

    #[test]
    #[should_panic(expected = "needs a server")]
    fn single_rank_service_is_rejected() {
        let _ = BurstyConfig::new(1, 4, 1);
    }

    #[test]
    fn client_to_server_assignment_is_deterministic() {
        let cfg = BurstyConfig::new(16, 4, 11).with_servers(4);
        let again = BurstyConfig::new(16, 4, 11).with_servers(4);
        let map: Vec<usize> = cfg.clients().map(|c| cfg.server_of(c)).collect();
        let map2: Vec<usize> = again.clients().map(|c| again.server_of(c)).collect();
        assert_eq!(map, map2, "assignment must be a pure (seed, rank) hash");
        // Every assignment lands on a real server.
        assert!(map.iter().all(|&s| s < 4));
        // The hash spreads clients over more than one server.
        let used: std::collections::BTreeSet<usize> = map.iter().copied().collect();
        assert!(used.len() > 1, "all clients hashed to one server: {map:?}");
        // A different seed reshuffles at least one client.
        let other = BurstyConfig::new(16, 4, 7).with_servers(4);
        let map3: Vec<usize> = other.clients().map(|c| other.server_of(c)).collect();
        assert_ne!(map, map3, "assignment must depend on the seed");
    }

    #[test]
    fn per_server_totals_partition_the_request_count() {
        let cfg = BurstyConfig::new(12, 6, 11).with_servers(3);
        let per: u64 = (0..3).map(|s| cfg.total_requests_for(s)).sum();
        assert_eq!(per, cfg.total_requests());
        // The busiest server really is the argmax of the partition.
        let hub = cfg.busiest_server();
        assert!(hub < 3);
        assert!((0..3).all(|s| cfg.total_requests_for(s) <= cfg.total_requests_for(hub)));
        assert_eq!(Workload::hub_rank(&cfg), hub);
        // Single-server configurations keep the classic shape: rank 0
        // serves everything.
        let single = BurstyConfig::new(4, 6, 11);
        assert_eq!(single.total_requests_for(0), single.total_requests());
        assert_eq!(Workload::hub_rank(&single), 0);
    }

    #[test]
    fn multi_server_labels_and_geometry() {
        let cfg = BurstyConfig::new(16, 4, 11).with_servers(4);
        assert_eq!(cfg.label(), "12c.4s.x4");
        assert_eq!(BurstyConfig::new(4, 6, 11).label(), "3c.x6");
        assert!(cfg.valid_np(16));
        assert!(!cfg.valid_np(4));
    }

    #[test]
    #[should_panic(expected = "at least 5 ranks")]
    fn too_many_servers_are_rejected() {
        let _ = BurstyConfig::new(4, 4, 1).with_servers(4);
    }

    #[test]
    fn aggregation_keeps_the_physical_schedule_identical() {
        let classic = BurstyConfig::new(24, 3, 11).with_servers(3);
        let agg = BurstyConfig::new(24, 3, 11).with_servers(3).aggregated(480);
        // Same bursts, same think times, same server hash: the wire
        // schedule is untouched by the aggregation factor.
        for rank in classic.clients() {
            assert_eq!(classic.server_of(rank), agg.server_of(rank));
            for round in 0..classic.rounds {
                assert_eq!(classic.draw(rank, round), agg.draw(rank, round));
            }
        }
        assert_eq!(classic.total_requests(), agg.total_requests());
        // Request payloads keep the wire length, and carry the count.
        let p = agg.request_payload(1234);
        assert_eq!(p.len(), agg.req_bytes);
        assert_eq!(BurstyConfig::request_mult(&p), 1234);
        // Classic payloads read back as multiplicity one.
        assert_eq!(BurstyConfig::request_mult(&classic.request_payload(1)), 1);
        assert_eq!(classic.request_payload(1), Payload::synthetic(256));
    }

    #[test]
    fn multiplicities_distribute_the_virtual_total_exactly() {
        let agg = BurstyConfig::new(24, 3, 11).with_servers(3).aggregated(48);
        let mut modeled = 0u64;
        for rank in agg.clients() {
            for round in 0..agg.rounds {
                let (burst, _) = agg.draw(rank, round);
                let mults = agg.request_multiplicities(rank, round, burst);
                assert_eq!(mults.len() as u64, burst);
                // Remainder-first: multiplicities differ by at most one
                // and are non-increasing.
                for w in mults.windows(2) {
                    assert!(w[0] >= w[1] && w[0] - w[1] <= 1);
                }
                modeled += mults.iter().sum::<u64>();
            }
        }
        assert_eq!(modeled, agg.modeled_requests());
        assert_eq!(agg.modeled_clients(), 21 * 48);
        // Every virtual client fires at least once per round.
        assert!(agg.modeled_requests() >= agg.modeled_clients() * agg.rounds);
    }

    #[test]
    fn aggregated_labels_and_flops_scale_with_the_population() {
        let base = BurstyConfig::new(24, 3, 11).with_servers(3);
        let agg = base.clone().aggregated(4800);
        assert_eq!(agg.label(), "100800c.3s.x3.agg4800");
        assert_eq!(base.label(), "21c.3s.x3");
        // Per-request flops shrink with the factor so total service work
        // stays in the same ballpark as the classic shape.
        assert!((agg.flops_per_req - base.flops_per_req / 4800.0).abs() < 1e-9);
        let ratio = agg.total_flops() / base.total_flops();
        assert!(
            (0.5..2.0).contains(&ratio),
            "aggregated work drifted {ratio}x from classic"
        );
    }

    /// Values captured on the commit before the arrival table existed:
    /// the table must reproduce the formulas it replaced.
    #[test]
    fn arrival_table_reproduces_the_pinned_ladder() {
        for (per_rank, modeled, flops) in [
            (1, 271, 54_200_000.0),
            (48, 13_331, 55_545_833.333),
            (480, 135_542, 56_475_833.333),
            (4800, 1_364_985, 56_874_375.0),
        ] {
            let cfg = BurstyConfig::new(24, 3, 11)
                .with_servers(3)
                .aggregated(per_rank);
            assert_eq!(cfg.total_requests(), 271, "agg{per_rank}");
            assert_eq!(cfg.modeled_requests(), modeled, "agg{per_rank}");
            assert_eq!(cfg.hub_rank(), 2, "agg{per_rank}");
            assert!(
                (cfg.total_flops() - flops).abs() < 0.001,
                "agg{per_rank}: {}",
                cfg.total_flops()
            );
        }
    }

    #[test]
    fn clones_share_the_table_and_builders_start_a_fresh_one() {
        let cfg = BurstyConfig::new(24, 3, 11);
        let table: *const Arrivals = cfg.arrivals();
        let clone = cfg.clone();
        assert!(Arc::ptr_eq(&cfg.arrivals, &clone.arrivals));
        assert!(std::ptr::eq(clone.arrivals(), table));
        // Stale-table regression: a builder applied to a configuration
        // whose table is already drawn (here after every step) yields the
        // arrivals of a freshly built equal configuration, and leaves
        // the configuration it was cloned from alone.
        let sharded = clone.with_servers(3);
        assert!(!Arc::ptr_eq(&cfg.arrivals, &sharded.arrivals));
        let fresh = BurstyConfig::new(24, 3, 11).with_servers(3);
        assert_eq!(sharded.arrivals(), fresh.arrivals());
        assert_ne!(sharded.arrivals(), cfg.arrivals());
        let agg = sharded.clone().aggregated(48);
        assert_eq!(agg.arrivals(), fresh.aggregated(48).arrivals());
        assert_ne!(agg.arrivals(), sharded.arrivals());
        assert!(std::ptr::eq(cfg.arrivals(), table));
    }

    #[test]
    fn racing_first_accesses_observe_one_table() {
        let cfg = BurstyConfig::new(24, 3, 11).with_servers(3).aggregated(480);
        let barrier = std::sync::Barrier::new(2);
        let first_access = || {
            let cfg = cfg.clone();
            barrier.wait();
            cfg.arrivals() as *const Arrivals as usize
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(first_access), s.spawn(first_access));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b);
        assert_eq!(a, cfg.arrivals() as *const Arrivals as usize);
    }
}
