//! The causality stores as they were before the dense clock-indexed
//! sequences: `BTreeMap`-per-creator antecedence graph, the graph
//! reductions over it, and Vcausal's hand-kept deques. Kept verbatim
//! (renamed `Old*`) as the reference the model-based tests compare the
//! production stores against — observable for observable, order included.
#![allow(dead_code)]

use std::collections::{BTreeMap, VecDeque};

use vlog_core::{Determinant, Reduction, Technique, Work};
use vlog_vmpi::{RClock, Rank};

/// The pre-change reduction for a technique on an `n`-rank job.
pub fn make_old_reduction(t: Technique, n: usize) -> Box<dyn Reduction> {
    match t {
        Technique::Vcausal => Box::new(OldVcausalRed::new(n)),
        kind => Box::new(OldGraphRed::new(n, kind)),
    }
}

/// One process's view of the antecedence graph.
#[derive(Clone)]
pub struct OldGraph {
    n: usize,
    /// Unstable vertices per creator, keyed by clock.
    verts: Vec<BTreeMap<RClock, Determinant>>,
    /// Highest clock ever seen per creator (survives pruning).
    heads: Vec<RClock>,
    /// Stability watermarks (vertices at or below are pruned).
    stable: Vec<RClock>,
}

impl OldGraph {
    pub fn new(n: usize) -> Self {
        OldGraph {
            n,
            verts: vec![BTreeMap::new(); n],
            heads: vec![0; n],
            stable: vec![0; n],
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Highest known clock of `creator` (its last event we know of).
    pub fn head(&self, creator: Rank) -> RClock {
        self.heads[creator]
    }

    pub fn stable(&self, creator: Rank) -> RClock {
        self.stable[creator]
    }

    /// Inserts a vertex; returns false when it was already present or
    /// already stable.
    pub fn insert(&mut self, det: Determinant) -> bool {
        let c = det.receiver;
        self.heads[c] = self.heads[c].max(det.clock);
        if det.clock <= self.stable[c] {
            return false;
        }
        self.verts[c].insert(det.clock, det).is_none()
    }

    /// Number of retained (unstable) vertices.
    pub fn len(&self) -> usize {
        self.verts.iter().map(|m| m.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies stability watermarks, pruning covered vertices.
    pub fn apply_stable(&mut self, stable: &[RClock]) {
        for c in 0..self.n {
            if stable[c] > self.stable[c] {
                self.stable[c] = stable[c];
                self.verts[c] = self.verts[c].split_off(&(stable[c] + 1));
            }
        }
    }

    /// All retained determinants, ordered by (creator, clock).
    pub fn retained(&self) -> Vec<Determinant> {
        self.verts
            .iter()
            .flat_map(|m| m.values().copied())
            .collect()
    }

    /// Computes the causal past of `roots` as per-creator prefixes:
    /// `past[c]` is the highest clock of `c` reachable backwards from the
    /// roots. Pruned (stable) vertices terminate the search — they are
    /// globally known. Returns the prefix vector and the number of
    /// vertices visited (the traversal cost the paper charges Manetho and
    /// LogOn for).
    pub fn causal_past(&self, roots: &[(Rank, RClock)]) -> (Vec<RClock>, u64) {
        self.causal_past_from(roots, &vec![0; self.n])
    }

    /// [`OldGraph::causal_past`] with a per-creator floor: regions at or
    /// below `floor[c]` are treated as already covered and not walked.
    /// Manetho's incremental border computation passes its per-channel
    /// sent-cache here, so repeated sends to the same peer only traverse
    /// the events that are new since the previous send.
    pub fn causal_past_from(
        &self,
        roots: &[(Rank, RClock)],
        floor: &[RClock],
    ) -> (Vec<RClock>, u64) {
        let mut past = floor.to_vec();
        let mut visits = 0u64;
        let mut stack: Vec<(Rank, RClock)> = roots.to_vec();
        while let Some((c, k)) = stack.pop() {
            let k = k.min(self.heads[c]);
            if k <= past[c] {
                continue;
            }
            let lo = past[c].max(self.stable[c]);
            past[c] = k;
            if lo >= k {
                continue; // the whole range is stable: globally known
            }
            // Walk the newly covered range following cause edges. The
            // program-order chain below `lo` is already covered (or
            // stable).
            for (_, det) in self.verts[c].range(lo + 1..=k) {
                visits += 1;
                if let Some(cause) = det.cause_id() {
                    stack.push((cause.creator, cause.clock));
                }
            }
        }
        (past, visits)
    }

    /// Retained determinants of `creator` with clock strictly above `lo`,
    /// ascending.
    pub fn above(&self, creator: Rank, lo: RClock) -> impl Iterator<Item = &Determinant> + '_ {
        self.verts[creator].range(lo + 1..).map(|(_, d)| d)
    }
}

#[derive(Clone)]
pub struct OldGraphRed {
    kind: Technique,
    n: usize,
    graph: OldGraph,
    /// `known[peer][creator]`: clock up to which `peer` provably holds
    /// `creator`'s events (sent-to or received-from knowledge).
    known: Vec<Vec<RClock>>,
}

impl OldGraphRed {
    pub fn new(n: usize, kind: Technique) -> Self {
        assert!(matches!(kind, Technique::Manetho | Technique::LogOn));
        OldGraphRed {
            kind,
            n,
            graph: OldGraph::new(n),
            known: vec![vec![0; n]; n],
        }
    }

    pub fn graph(&self) -> &OldGraph {
        &self.graph
    }

    /// The per-creator bound of what `dst` already knows: its own events,
    /// the causal past of its last event we know of, our sent cache and
    /// global stability. The traversal is incremental: it never re-walks
    /// the region already covered by the sent cache (what Manetho's
    /// per-peer bookkeeping buys).
    fn receiver_bound(&self, dst: Rank) -> (Vec<RClock>, u64) {
        // The floor on dst's own range is the dst-head at the previous
        // build on this channel (`known[dst][dst]`): older dst events
        // were walked then and their pasts are below the cache bound
        // anyway. Everything newer — including a first-ever send, where
        // the floor is zero — is walked to discover the receiver's past.
        let floor: Vec<RClock> = (0..self.n)
            .map(|c| self.known[dst][c].max(self.graph.stable(c)))
            .collect();
        let (mut bound, visits) = self
            .graph
            .causal_past_from(&[(dst, self.graph.head(dst))], &floor);
        bound[dst] = RClock::MAX;
        (bound, visits)
    }

    fn collect_above(&self, bound: &[RClock]) -> Vec<Determinant> {
        let mut out = Vec::new();
        for c in 0..self.n {
            if bound[c] == RClock::MAX {
                continue;
            }
            out.extend(self.graph.above(c, bound[c]).copied());
        }
        out
    }

    /// Emits `set` in a valid partial order: no element is in the causal
    /// past of a *later* element (ancestors first). Kahn-style repeated
    /// passes over per-creator ascending queues.
    fn logon_order(&self, mut set: Vec<Determinant>, bound: &[RClock]) -> Vec<Determinant> {
        set.sort_by_key(|d| (d.receiver, d.clock));
        // Per-creator cursors into the sorted set.
        let mut queues: Vec<Vec<Determinant>> = vec![Vec::new(); self.n];
        for d in set {
            queues[d.receiver].push(d);
        }
        let mut cursor = vec![0usize; self.n];
        let mut emitted_up_to: Vec<RClock> = bound
            .iter()
            .map(|&b| if b == RClock::MAX { 0 } else { b })
            .collect();
        let total: usize = queues.iter().map(|q| q.len()).sum();
        let mut out = Vec::with_capacity(total);
        while out.len() < total {
            let mut progressed = false;
            for c in 0..self.n {
                while cursor[c] < queues[c].len() {
                    let d = queues[c][cursor[c]];
                    let cause_ok = match d.cause_id() {
                        None => true,
                        Some(id) => {
                            id.creator == d.receiver // program-order handled per queue
                                || id.clock <= emitted_up_to[id.creator]
                                || id.clock <= self.graph.stable(id.creator)
                                || bound[id.creator] == RClock::MAX
                                || id.clock <= bound[id.creator]
                        }
                    };
                    if !cause_ok {
                        break;
                    }
                    emitted_up_to[c] = d.clock;
                    out.push(d);
                    cursor[c] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                // A cause refers to an event we never held (it was pruned
                // before we learned of it): flush remaining in creator
                // order — still a valid order for everything we can know.
                for c in 0..self.n {
                    out.extend(queues[c][cursor[c]..].iter().copied());
                    cursor[c] = queues[c].len();
                }
            }
        }
        out
    }

    fn note_peer_knowledge(&mut self, from: Rank, sender_clock: RClock, dets: &[Determinant]) {
        for det in dets {
            let k = &mut self.known[from][det.receiver];
            *k = (*k).max(det.clock);
        }
        let k = &mut self.known[from][from];
        *k = (*k).max(sender_clock);
    }
}

impl Reduction for OldGraphRed {
    fn add_local(&mut self, det: Determinant) -> Work {
        let added = self.graph.insert(det);
        Work::inserts(added as u64)
    }

    fn integrate(&mut self, from: Rank, sender_clock: RClock, dets: &[Determinant]) -> Work {
        let mut inserts = 0;
        for det in dets {
            if self.graph.insert(*det) {
                inserts += 1;
            }
        }
        self.note_peer_knowledge(from, sender_clock, dets);
        // Manetho pays a second pass generating edges after insertion;
        // LogOn's partial order lets it link in the same crossing.
        let visits = match self.kind {
            Technique::Manetho => dets.len() as u64,
            _ => 0,
        };
        Work { visits, inserts }
    }

    fn absorb(&mut self, dets: &[Determinant]) {
        for det in dets {
            self.graph.insert(*det);
        }
    }

    fn build(&mut self, dst: Rank, my_clock: RClock) -> (Vec<Determinant>, Work) {
        let (bound, past_visits) = self.receiver_bound(dst);
        let out = self.collect_above(&bound);
        let visits = match self.kind {
            // Manetho crosses the receiver's past from its last known
            // reception: the traversal itself is the dominant cost.
            Technique::Manetho => past_visits + out.len() as u64,
            // LogOn explores backwards from the sender's own last event,
            // touching only the region it will emit.
            _ => out.len() as u64 + 1,
        };
        let out = match self.kind {
            Technique::LogOn => self.logon_order(out, &bound),
            _ => out, // already (creator, clock) ascending: maximal factoring
        };
        // Everything we hold is now known to dst.
        for c in 0..self.n {
            let head = self.graph.head(c);
            let k = &mut self.known[dst][c];
            *k = (*k).max(head);
        }
        let _ = my_clock;
        (out, Work::visits(visits))
    }

    fn apply_stable(&mut self, stable: &[RClock]) {
        self.graph.apply_stable(stable);
    }

    fn note_peer_stable(&mut self, peer: Rank, stable: &[RClock]) {
        // A peer's reported stability is exactly peer knowledge: it holds
        // (or can re-fetch from the EL) every determinant at or below the
        // vector, so it folds into the per-channel `known` floor. The
        // traversal in `receiver_bound` starts above that floor, making
        // GC notices also *cheapen* fresh-channel sends.
        for c in 0..self.n {
            let k = &mut self.known[peer][c];
            *k = (*k).max(stable[c]);
        }
    }

    fn retained(&self) -> Vec<Determinant> {
        self.graph.retained()
    }

    fn retained_count(&self) -> usize {
        self.graph.len()
    }

    fn clone_box(&self) -> Box<dyn Reduction> {
        Box::new(self.clone())
    }
}

#[derive(Clone)]
pub struct OldVcausalRed {
    n: usize,
    /// Retained determinants per creator, ascending clock.
    seqs: Vec<VecDeque<Determinant>>,
    /// Highest clock ever seen per creator (survives GC).
    heads: Vec<RClock>,
    /// `sent[peer][creator]`: highest clock of `creator`'s events this
    /// node has piggybacked to `peer` (send-side watermark only — the
    /// paper's Vcausal cannot infer what a peer learned elsewhere).
    sent: Vec<Vec<RClock>>,
    /// EL stability watermarks.
    stable: Vec<RClock>,
    /// `peer_stable[peer][creator]`: stability `peer` itself reported
    /// (via GC notices). Send-side pruning floor for that channel only —
    /// the peer already knows these events are safely logged, so they
    /// never need to reach it again.
    peer_stable: Vec<Vec<RClock>>,
}

impl OldVcausalRed {
    pub fn new(n: usize) -> Self {
        OldVcausalRed {
            n,
            seqs: vec![VecDeque::new(); n],
            heads: vec![0; n],
            sent: vec![vec![0; n]; n],
            stable: vec![0; n],
            peer_stable: vec![vec![0; n]; n],
        }
    }

    fn push(&mut self, det: Determinant) -> bool {
        let c = det.receiver;
        if det.clock <= self.heads[c] || det.clock <= self.stable[c] {
            return false; // already known or already stable
        }
        self.heads[c] = det.clock;
        self.seqs[c].push_back(det);
        true
    }
}

impl Reduction for OldVcausalRed {
    fn add_local(&mut self, det: Determinant) -> Work {
        let added = self.push(det);
        Work::inserts(added as u64)
    }

    fn integrate(&mut self, _from: Rank, _sender_clock: RClock, dets: &[Determinant]) -> Work {
        // Send-side watermarks only: learned events will be echoed back
        // to the peer that sent them (paper Figure 2) because plain
        // sequences cannot represent peer knowledge.
        let mut inserts = 0;
        for det in dets {
            if self.push(*det) {
                inserts += 1;
            }
        }
        Work {
            visits: dets.len() as u64,
            inserts,
        }
    }

    fn absorb(&mut self, dets: &[Determinant]) {
        // Recovered knowledge may arrive out of clock order; insert sorted.
        let mut sorted: Vec<_> = dets.to_vec();
        sorted.sort_by_key(|d| (d.receiver, d.clock));
        for det in sorted {
            self.push(det);
        }
    }

    fn build(&mut self, dst: Rank, _my_clock: RClock) -> (Vec<Determinant>, Work) {
        let mut out = Vec::new();
        let mut visits = 0u64;
        for c in 0..self.n {
            let wm = self.sent[dst][c]
                .max(self.stable[c])
                .max(self.peer_stable[dst][c]);
            // Sequences are ascending: walk back from the newest entry.
            let seq = &self.seqs[c];
            let mut start = seq.len();
            while start > 0 && seq[start - 1].clock > wm {
                start -= 1;
                visits += 1;
            }
            out.extend(seq.iter().skip(start).copied());
            self.sent[dst][c] = self.heads[c].max(self.sent[dst][c]);
        }
        (out, Work::visits(visits))
    }

    fn apply_stable(&mut self, stable: &[RClock]) {
        for c in 0..self.n {
            if stable[c] > self.stable[c] {
                self.stable[c] = stable[c];
                while self.seqs[c]
                    .front()
                    .is_some_and(|d| d.clock <= self.stable[c])
                {
                    self.seqs[c].pop_front();
                }
            }
        }
    }

    fn note_peer_stable(&mut self, peer: Rank, stable: &[RClock]) {
        for c in 0..self.n {
            self.peer_stable[peer][c] = self.peer_stable[peer][c].max(stable[c]);
        }
    }

    fn retained(&self) -> Vec<Determinant> {
        self.seqs.iter().flatten().copied().collect()
    }

    fn retained_count(&self) -> usize {
        self.seqs.iter().map(|s| s.len()).sum()
    }

    fn clone_box(&self) -> Box<dyn Reduction> {
        Box::new(self.clone())
    }
}
