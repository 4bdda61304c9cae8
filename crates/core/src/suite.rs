//! Protocol suites: a V-protocol bundled with its auxiliary stable
//! components, ready to hand to the cluster builder.

use vlog_sim::{NodeId, Sim, SimDuration};
use vlog_vmpi::{CkptScheduler, ClusterState, RecoveryStyle, SchedulerPolicy, Suite, VProtocol};

use crate::causal::CausalProtocol;
use crate::coordinated::CoordinatedProtocol;
use crate::detseq::ChunkPool;
use crate::el_multi::{assert_shard_count, install_distributed_el};
use crate::pessimistic::PessimisticProtocol;
use crate::piggyback::PbFormat;
use crate::reduction::Technique;

/// Causal message logging with a chosen piggyback-reduction technique,
/// with or without the Event Logger.
pub struct CausalSuite {
    pub technique: Technique,
    pub el: bool,
    pub scheduler: SchedulerPolicy,
    /// Number of Event Logger instances (1 = the paper's configuration;
    /// more = the paper's future-work distribution, see
    /// [`crate::el_multi`]).
    pub el_count: usize,
    /// Stable-clock gossip period between distributed EL shards.
    pub el_gossip: SimDuration,
    /// Piggyback wire format; starts as the technique's historical
    /// format ([`Technique::default_format`]).
    pub pb_format: PbFormat,
}

impl CausalSuite {
    pub fn new(technique: Technique, el: bool) -> Self {
        CausalSuite {
            technique,
            el,
            scheduler: SchedulerPolicy::Disabled,
            el_count: 1,
            el_gossip: SimDuration::from_millis(20),
            pb_format: technique.default_format(),
        }
    }

    /// Pins the piggyback wire format (overrides the technique default).
    pub fn with_pb_format(mut self, format: PbFormat) -> Self {
        self.pb_format = format;
        self
    }

    /// Enables uncoordinated round-robin checkpoints every `period`.
    pub fn with_checkpoints(mut self, period: SimDuration) -> Self {
        self.scheduler = SchedulerPolicy::RoundRobin { period };
        self
    }

    /// Distributes the Event Logger over `k ≥ 1` shards gossiping their
    /// stable-clock vectors every `gossip`.
    pub fn with_distributed_el(mut self, k: usize, gossip: SimDuration) -> Self {
        assert_shard_count(k);
        self.el = true;
        self.el_count = k;
        self.el_gossip = gossip;
        self
    }
}

impl Suite for CausalSuite {
    fn name(&self) -> String {
        // The format shows up only when it differs from the technique's
        // historical default, so baseline suite names (and every report
        // keyed on them) are unchanged.
        let fmt = if self.pb_format != self.technique.default_format() {
            format!(", {}", self.pb_format.label())
        } else {
            String::new()
        };
        format!(
            "MPICH-Vcausal ({}{}{})",
            self.technique.label(),
            if self.el { ", EL" } else { ", no EL" },
            fmt
        )
    }

    fn install(&self, sim: &mut Sim, stable_nodes: &[NodeId]) {
        if self.el {
            install_distributed_el(sim, stable_nodes[0], self.el_count.max(1), self.el_gossip);
        }
        CkptScheduler::install(sim, stable_nodes[1], self.scheduler);
        // The ranks' causality stores share their frozen chunks through
        // one pool, dropped with the run (see `detseq`).
        ClusterState::of(sim).suite_state = Some(Box::new(ChunkPool::new()));
    }

    fn make_protocol(&self, rank: usize, n: usize) -> Box<dyn VProtocol> {
        Box::new(CausalProtocol::new(
            self.technique,
            self.pb_format,
            self.el,
            rank,
            n,
        ))
    }

    fn recovery_style(&self) -> RecoveryStyle {
        RecoveryStyle::SingleRank
    }
}

/// Sender-based pessimistic message logging (MPICH-V2 style). Requires
/// the Event Logger.
pub struct PessimisticSuite {
    pub scheduler: SchedulerPolicy,
}

impl PessimisticSuite {
    pub fn new() -> Self {
        PessimisticSuite {
            scheduler: SchedulerPolicy::Disabled,
        }
    }

    pub fn with_checkpoints(mut self, period: SimDuration) -> Self {
        self.scheduler = SchedulerPolicy::RoundRobin { period };
        self
    }
}

impl Default for PessimisticSuite {
    fn default() -> Self {
        Self::new()
    }
}

impl Suite for PessimisticSuite {
    fn name(&self) -> String {
        "MPICH-V2 (pessimistic, EL)".into()
    }

    fn install(&self, sim: &mut Sim, stable_nodes: &[NodeId]) {
        // One shard never gossips, so the period is moot.
        install_distributed_el(sim, stable_nodes[0], 1, SimDuration::ZERO);
        CkptScheduler::install(sim, stable_nodes[1], self.scheduler);
    }

    fn make_protocol(&self, rank: usize, n: usize) -> Box<dyn VProtocol> {
        Box::new(PessimisticProtocol::new(rank, n))
    }

    fn recovery_style(&self) -> RecoveryStyle {
        RecoveryStyle::SingleRank
    }
}

/// Coordinated checkpointing (Chandy-Lamport) with global rollback.
pub struct CoordinatedSuite {
    /// Global snapshot period.
    pub period: SimDuration,
}

impl CoordinatedSuite {
    pub fn new(period: SimDuration) -> Self {
        CoordinatedSuite { period }
    }
}

impl Suite for CoordinatedSuite {
    fn name(&self) -> String {
        "MPICH-V/CL (coordinated)".into()
    }

    fn install(&self, sim: &mut Sim, stable_nodes: &[NodeId]) {
        CkptScheduler::install(
            sim,
            stable_nodes[1],
            SchedulerPolicy::Coordinated {
                period: self.period,
            },
        );
    }

    fn make_protocol(&self, rank: usize, n: usize) -> Box<dyn VProtocol> {
        Box::new(CoordinatedProtocol::new(rank, n))
    }

    fn recovery_style(&self) -> RecoveryStyle {
        RecoveryStyle::GlobalRollback
    }
}
