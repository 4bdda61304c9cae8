//! The piggyback-reduction technique abstraction.
//!
//! All three protocols of the paper share the same causal-logging
//! skeleton (sender-based payload logging + piggybacked determinants +
//! optional Event Logger) and differ only in *which* determinants they
//! piggyback and *how much it costs to decide* (paper §III-B). That
//! varying part is the [`Reduction`] trait; `vlog-core` ships the three
//! implementations the paper compares:
//!
//! * [`crate::vcausal::VcausalRed`] — per-creator sequences with channel
//!   watermarks (cheap, weak reduction),
//! * [`crate::agred::GraphRed`] (Manetho flavour) — antecedence graph,
//!   border computed by traversal from the receiver's last known event,
//! * [`crate::agred::GraphRed`] (LogOn flavour) — antecedence graph,
//!   reverse exploration from the sender's last event, emission in
//!   partial order.

use vlog_vmpi::{RClock, Rank};

use crate::detseq::ChunkPool;
use crate::event::Determinant;
use crate::piggyback;

/// Which reduction technique a configuration uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    Vcausal,
    Manetho,
    LogOn,
}

impl Technique {
    pub fn label(&self) -> &'static str {
        match self {
            Technique::Vcausal => "Vcausal",
            Technique::Manetho => "Manetho",
            Technique::LogOn => "LogOn",
        }
    }

    /// The paper's historical wire format for this technique: Vcausal and
    /// Manetho factor events by receiver rank, LogOn cannot (its partial
    /// order interleaves receivers). Suites may override with
    /// [`piggyback::PbFormat::Compact`].
    pub fn default_format(&self) -> piggyback::PbFormat {
        match self {
            Technique::Vcausal | Technique::Manetho => piggyback::PbFormat::Factored,
            Technique::LogOn => piggyback::PbFormat::Flat,
        }
    }
}

/// Work performed by a reduction operation, in structural operations. The
/// protocol converts these to virtual CPU time through
/// [`crate::costs`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Graph vertices (or sequence entries) visited.
    pub visits: u64,
    /// Vertices / entries inserted.
    pub inserts: u64,
}

impl Work {
    pub fn visits(n: u64) -> Work {
        Work {
            visits: n,
            inserts: 0,
        }
    }

    pub fn inserts(n: u64) -> Work {
        Work {
            visits: 0,
            inserts: n,
        }
    }
}

/// A piggyback-reduction technique: the causality store of one process.
/// `Send + Sync` because causality stores travel inside checkpoint images
/// (`ProtoBlob`) that the checkpoint server shares across a `Send` run.
pub trait Reduction: Send + Sync {
    /// Records a reception event created locally.
    fn add_local(&mut self, det: Determinant) -> Work;

    /// Integrates determinants piggybacked on a message from `from`,
    /// whose reception clock at emission was `sender_clock`. Updates the
    /// knowledge tracked about `from`.
    fn integrate(&mut self, from: Rank, sender_clock: RClock, dets: &[Determinant]) -> Work;

    /// Absorbs determinants recovered during a restart (no peer-knowledge
    /// update, no cost accounting — recovery time is measured separately).
    fn absorb(&mut self, dets: &[Determinant]);

    /// Selects the determinants to piggyback on a message to `dst`
    /// (`my_clock` is the sender's current reception clock) and updates
    /// the sent-knowledge so nothing is ever piggybacked twice on one
    /// channel. The returned order is the emission order.
    fn build(&mut self, dst: Rank, my_clock: RClock) -> (Vec<Determinant>, Work);

    /// Applies Event Logger stability watermarks: determinants with
    /// `clock <= stable[creator]` are garbage-collected (never piggybacked
    /// again; the EL can always provide them).
    fn apply_stable(&mut self, stable: &[RClock]);

    /// Records what `peer` reported as *its* EL-stability vector (from a
    /// GC notice): determinants with `clock <= stable[creator]` never
    /// need to reach `peer` again — it already knows they are safely
    /// logged — so [`Reduction::build`] can prune them from piggybacks on
    /// that channel without touching the local store. Default: ignore
    /// (the reduction keeps its historical behaviour).
    fn note_peer_stable(&mut self, peer: Rank, stable: &[RClock]) {
        let _ = (peer, stable);
    }

    /// Every determinant currently retained (for checkpoint images and
    /// recovery reclaim responses).
    fn retained(&self) -> Vec<Determinant>;

    /// The retained determinants of one `creator` with clock strictly
    /// above `above`, ascending — what a caller interested in a single
    /// rank's unstable events needs, without copying the whole store.
    fn retained_of(&self, creator: Rank, above: RClock) -> Vec<Determinant> {
        let mut dets = self.retained();
        dets.retain(|d| d.receiver == creator && d.clock > above);
        dets
    }

    /// Number of retained determinants (memory pressure metric; O(1) —
    /// the protocol reads it on every message for the cache-penalty
    /// model).
    fn retained_count(&self) -> usize;

    /// Shares the store's chunks frozen since the last call with the
    /// other ranks of the run through `pool` (see [`crate::detseq`],
    /// "One copy per run"). Contents never change; only how many copies
    /// the run holds. Default: keep every chunk private.
    fn share(&mut self, pool: &mut ChunkPool) {
        let _ = pool;
    }

    /// Clone for checkpoint images and restarts. The store's full chunks
    /// are shared with the clone, not copied, and each side copies a
    /// chunk only when it writes to it.
    fn clone_box(&self) -> Box<dyn Reduction>;
}

/// Constructs the reduction for a technique on an `n`-rank job.
pub fn make_reduction(t: Technique, n: usize) -> Box<dyn Reduction> {
    match t {
        Technique::Vcausal => Box::new(crate::vcausal::VcausalRed::new(n)),
        Technique::Manetho => Box::new(crate::agred::GraphRed::new(n, Technique::Manetho)),
        Technique::LogOn => Box::new(crate::agred::GraphRed::new(n, Technique::LogOn)),
    }
}

/// Drives one message at the reduction level: `from` builds its
/// piggyback for `to`, `to` integrates it and creates the reception
/// event. Returns the piggyback that travelled.
pub fn exchange(
    reds: &mut [Box<dyn Reduction>],
    clocks: &mut [RClock],
    from: Rank,
    to: Rank,
) -> Vec<Determinant> {
    let (pb, _) = reds[from].build(to, clocks[from]);
    let sender_clock = clocks[from];
    reds[to].integrate(from, sender_clock, &pb);
    clocks[to] += 1;
    let det = Determinant {
        receiver: to,
        clock: clocks[to],
        sender: from,
        ssn: 0,
        cause: sender_clock,
    };
    reds[to].add_local(det);
    pb
}

/// The paper's Figure 3 scenario: P3 has never exchanged anything
/// with P2, yet the antecedence-graph methods know P2 holds a–e and
/// piggyback only f–j, while Vcausal piggybacks all ten events. Returns
/// the piggyback of the dotted P3 -> P2 message and how many events P3
/// retains.
pub fn figure3(kind: Technique) -> (Vec<Determinant>, usize) {
    let mut reds: Vec<Box<dyn Reduction>> = (0..4).map(|_| make_reduction(kind, 4)).collect();
    let mut clocks = vec![0; 4];
    exchange(&mut reds, &mut clocks, 1, 0); // a = (P0, 1)
    exchange(&mut reds, &mut clocks, 0, 1); // b = (P1, 1), cause a
    exchange(&mut reds, &mut clocks, 1, 2); // c = (P2, 1), cause b
    exchange(&mut reds, &mut clocks, 1, 2); // d = (P2, 2), cause b
    exchange(&mut reds, &mut clocks, 1, 2); // e = (P2, 3), cause b
    exchange(&mut reds, &mut clocks, 2, 1); // f = (P1, 2), cause e
    exchange(&mut reds, &mut clocks, 1, 3); // g = (P3, 1), cause f
    exchange(&mut reds, &mut clocks, 0, 3); // h = (P3, 2), cause a
    exchange(&mut reds, &mut clocks, 1, 3); // i = (P3, 3), cause f
    exchange(&mut reds, &mut clocks, 0, 3); // j = (P3, 4), cause a

    // The dotted message: P3 -> P2.
    let (pb, _) = reds[3].build(2, clocks[3]);
    (pb, reds[3].retained_count())
}
