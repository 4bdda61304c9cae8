//! Antecedence-graph piggyback reductions: Manetho and LogOn.
//!
//! Both maintain the antecedence graph ([`crate::graph`]: a [`DetStore`]
//! walked by [`extend_past`]) and guarantee no event is ever sent twice
//! to the same peer; they differ in how the border of the piggyback is
//! computed and in what the receiver pays (paper §III-B.2):
//!
//! * **Manetho** *"first searches for the last events P_r knows. To find
//!   this bound, the graph is crossed from the last known reception of
//!   P_r."* The send-side traversal covers the receiver's causal past
//!   (large when the receiver is well-informed); on receive it must
//!   *"first add the new piggybacked events, before generating new edges
//!   of the graph"* — a two-pass, more expensive integration.
//!
//! * **LogOn** *"explores the antecedence graph in a reverse order,
//!   starting from the last reception event of the sender P_s, until
//!   reaching events from the receiver"* and emits the piggyback in a
//!   partial order (ancestors first), which lets the receiver integrate
//!   in a single crossing — at the price of send-side reordering work and
//!   a fatter per-event wire format (no factoring).
//!
//! Both reductions compute the same *set* (everything retained that is
//! neither in the receiver's causal past, nor its own creation, nor
//! already sent on this channel); the paper's cost asymmetries are
//! charged through the [`Work`] counters with technique-specific
//! constants.

use vlog_vmpi::{RClock, Rank};

use crate::detseq::{runs, ChunkPool, DetStore, PeerTable};
use crate::event::Determinant;
use crate::graph::extend_past;
use crate::reduction::{Reduction, Technique, Work};

pub struct GraphRed {
    kind: Technique,
    /// The antecedence graph's vertices.
    store: DetStore,
    /// `known.row(peer)[creator]`: clock up to which `peer` provably
    /// holds `creator`'s events (sent-to or received-from knowledge).
    known: PeerTable,
    /// Scratch reused by every `build` (meaningless between calls, so a
    /// clone starts them empty): the receiver bound, the traversal stack,
    /// and LogOn's per-creator emission cursors and emitted-up-to clocks.
    bound: Vec<RClock>,
    stack: Vec<(Rank, RClock)>,
    cursor: Vec<usize>,
    emitted: Vec<RClock>,
}

impl GraphRed {
    pub fn new(n: usize, kind: Technique) -> Self {
        assert!(matches!(kind, Technique::Manetho | Technique::LogOn));
        GraphRed {
            kind,
            store: DetStore::new(n),
            known: PeerTable::new(n),
            bound: Vec::with_capacity(n),
            stack: Vec::new(),
            cursor: Vec::with_capacity(n),
            emitted: Vec::with_capacity(n),
        }
    }

    /// Fills `self.bound` with the per-creator bound of what `dst`
    /// already knows: its own events, the causal past of its last event
    /// we know of, our sent cache and global stability. The traversal is
    /// incremental: it never re-walks the region already covered by the
    /// sent cache (what Manetho's per-peer bookkeeping buys). Returns the
    /// vertices visited.
    fn receiver_bound(&mut self, dst: Rank) -> u64 {
        // The floor on dst's own range is the dst-head at the previous
        // build on this channel (`known.row(dst)[dst]`): older dst events
        // were walked then and their pasts are below the cache bound
        // anyway. Everything newer — including a first-ever send, where
        // the floor is zero — is walked to discover the receiver's past.
        let known = self.known.row(dst);
        self.bound.clear();
        self.bound
            .extend((0..self.store.n()).map(|c| known[c].max(self.store.stable(c))));
        self.stack.clear();
        self.stack.push((dst, self.store.head(dst)));
        let visits = extend_past(&self.store, &mut self.bound, &mut self.stack);
        self.bound[dst] = RClock::MAX;
        visits
    }

    /// Emits everything above `self.bound` in a valid partial order: no
    /// element is in the causal past of a *later* element (ancestors
    /// first). Kahn-style repeated passes, one cursor per creator walking
    /// the store's own ascending sequence — no copy, no sort.
    fn logon_emit(&mut self) -> Vec<Determinant> {
        let GraphRed {
            store,
            bound,
            cursor,
            emitted,
            ..
        } = self;
        cursor.clear();
        emitted.clear();
        let mut total = 0;
        for (c, &b) in bound.iter().enumerate() {
            let start = store.seq(c).through(b);
            total += store.seq(c).len() - start;
            cursor.push(start);
            emitted.push(if b == RClock::MAX { 0 } else { b });
        }
        let mut out = Vec::with_capacity(total);
        while out.len() < total {
            let mut progressed = false;
            for c in 0..bound.len() {
                while let Some(d) = store.seq(c).at(cursor[c]) {
                    let cause_ok = match d.cause_id() {
                        None => true,
                        Some(id) => {
                            id.creator == c // program order: the cursor itself
                                || id.clock <= emitted[id.creator]
                                || id.clock <= store.stable(id.creator)
                                || id.clock <= bound[id.creator]
                        }
                    };
                    if !cause_ok {
                        break;
                    }
                    emitted[c] = d.clock;
                    out.push(d);
                    cursor[c] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                // A cause refers to an event we never held (it was pruned
                // before we learned of it): flush remaining in creator
                // order — still a valid order for everything we can know.
                for (c, at) in cursor.iter_mut().enumerate() {
                    out.extend(store.seq(c).iter().skip(*at));
                    *at = store.seq(c).len();
                }
            }
        }
        out
    }
}

impl Reduction for GraphRed {
    fn add_local(&mut self, det: Determinant) -> Work {
        let added = self.store.insert(det);
        Work::inserts(added as u64)
    }

    fn integrate(&mut self, from: Rank, sender_clock: RClock, dets: &[Determinant]) -> Work {
        // One pass: each run of a creator's consecutive clocks is deduped
        // against the graph at once and raises what `from` provably holds
        // (`PeerTable::raise` reads every run).
        let mut inserts = 0;
        let store = &mut self.store;
        let learned = runs(dets).map(|run| {
            inserts += store.insert_run(run) as u64;
            let last = run[run.len() - 1];
            (last.receiver, last.clock)
        });
        self.known
            .raise(from, learned.chain([(from, sender_clock)]));
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
            self.store.insert(*det);
        }
    }

    fn build(&mut self, dst: Rank, _my_clock: RClock) -> (Vec<Determinant>, Work) {
        let past_visits = self.receiver_bound(dst);
        let out = match self.kind {
            Technique::LogOn => self.logon_emit(),
            // (creator, clock) ascending: maximal factoring
            _ => self.store.collect_above(&self.bound),
        };
        let visits = match self.kind {
            // Manetho crosses the receiver's past from its last known
            // reception: the traversal itself is the dominant cost.
            Technique::Manetho => past_visits + out.len() as u64,
            // LogOn explores backwards from the sender's own last event,
            // touching only the region it will emit.
            _ => out.len() as u64 + 1,
        };
        // Everything we hold is now known to dst.
        let heads = (0..self.store.n()).map(|c| (c, self.store.head(c)));
        self.known.raise(dst, heads);
        (out, Work::visits(visits))
    }

    fn apply_stable(&mut self, stable: &[RClock]) {
        self.store.apply_stable(stable);
    }

    fn note_peer_stable(&mut self, peer: Rank, stable: &[RClock]) {
        // A peer's reported stability is exactly peer knowledge: it holds
        // (or can re-fetch from the EL) every determinant at or below the
        // vector, so it folds into the per-channel `known` floor. The
        // traversal in `receiver_bound` starts above that floor, making
        // GC notices also *cheapen* fresh-channel sends.
        let stable = stable.iter().copied().enumerate().take(self.store.n());
        self.known.raise(peer, stable);
    }

    fn retained(&self) -> Vec<Determinant> {
        self.store.retained()
    }

    fn retained_of(&self, creator: Rank, above: RClock) -> Vec<Determinant> {
        self.store.above(creator, above)
    }

    fn retained_count(&self) -> usize {
        self.store.len()
    }

    fn share(&mut self, pool: &mut ChunkPool) {
        self.store.share(pool);
    }

    fn clone_box(&self) -> Box<dyn Reduction> {
        Box::new(GraphRed {
            kind: self.kind,
            store: self.store.clone(),
            known: self.known.clone(),
            bound: Vec::new(),
            stack: Vec::new(),
            cursor: Vec::new(),
            emitted: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::{exchange, figure3, make_reduction};

    #[test]
    fn figure3_manetho_sends_only_f_to_j() {
        let (pb, retained) = figure3(Technique::Manetho);
        assert_eq!(retained, 10, "P3 should know all ten events");
        // f..j = (P1,2), (P3,1..4): five events, none created by P2, none
        // in the past of P2's last event e.
        assert_eq!(pb.len(), 5, "piggyback should be f..j, got {pb:?}");
        assert!(pb.iter().all(|d| d.receiver != 2));
        assert!(
            pb.iter().any(|d| d.receiver == 1 && d.clock == 2),
            "f missing"
        );
        assert_eq!(pb.iter().filter(|d| d.receiver == 3).count(), 4);
    }

    #[test]
    fn figure3_logon_sends_same_set_in_partial_order() {
        let (pb, _) = figure3(Technique::LogOn);
        assert_eq!(pb.len(), 5);
        // Partial order: no element may be in the causal past of a later
        // element. Program order per creator is the observable proxy:
        // clocks per creator must be ascending.
        for c in 0..4 {
            let clocks: Vec<RClock> = pb
                .iter()
                .filter(|d| d.receiver == c)
                .map(|d| d.clock)
                .collect();
            let mut sorted = clocks.clone();
            sorted.sort_unstable();
            assert_eq!(clocks, sorted, "creator {c} out of order");
        }
        // f = (P1,2) is in the past of g = (P3,1), so f must come first.
        let pos_f = pb.iter().position(|d| d.receiver == 1 && d.clock == 2);
        let pos_g = pb.iter().position(|d| d.receiver == 3 && d.clock == 1);
        assert!(
            pos_f.unwrap() < pos_g.unwrap(),
            "ancestor emitted after descendant"
        );
    }

    #[test]
    fn figure3_vcausal_sends_everything() {
        let mut reds: Vec<Box<dyn Reduction>> = (0..4)
            .map(|_| make_reduction(Technique::Vcausal, 4))
            .collect();
        let mut clocks = vec![0; 4];
        for (from, to) in [
            (1, 0),
            (0, 1),
            (1, 2),
            (1, 2),
            (1, 2),
            (2, 1),
            (1, 3),
            (0, 3),
            (1, 3),
            (0, 3),
        ] {
            exchange(&mut reds, &mut clocks, from, to);
        }
        let (pb, _) = reds[3].build(2, clocks[3]);
        // P3 knows all 10 events and has never talked to P2: all 10 go.
        assert_eq!(pb.len(), 10, "Vcausal must send all events: {pb:?}");
        // Including P2's own events back to it (the paper's point).
        assert!(pb.iter().any(|d| d.receiver == 2));
    }

    #[test]
    fn nothing_is_ever_piggybacked_twice_per_channel() {
        for kind in [Technique::Manetho, Technique::LogOn] {
            let (pb, _) = figure3(kind);
            assert_eq!(pb.len(), 5);
            // Re-run the final build: second piggyback must be empty.
            let mut reds: Vec<Box<dyn Reduction>> =
                (0..4).map(|_| make_reduction(kind, 4)).collect();
            let mut clocks = vec![0; 4];
            exchange(&mut reds, &mut clocks, 0, 1);
            exchange(&mut reds, &mut clocks, 1, 0);
            let (first, _) = reds[0].build(1, clocks[0]);
            let (second, _) = reds[0].build(1, clocks[0]);
            assert!(first.len() <= 2);
            assert!(second.is_empty(), "{kind:?} resent events");
        }
    }

    #[test]
    fn stability_shrinks_the_graph_and_piggybacks() {
        let mut reds: Vec<Box<dyn Reduction>> = (0..4)
            .map(|_| make_reduction(Technique::Manetho, 4))
            .collect();
        let mut clocks = vec![0; 4];
        for _ in 0..3 {
            exchange(&mut reds, &mut clocks, 0, 1);
            exchange(&mut reds, &mut clocks, 1, 0);
        }
        let before = reds[0].retained_count();
        assert!(before >= 6);
        // The EL acknowledged everything up to clock 2 for both creators.
        reds[0].apply_stable(&[2, 2, 0, 0]);
        assert!(reds[0].retained_count() < before);
        let (pb, _) = reds[0].build(3, clocks[0]);
        assert!(pb.iter().all(|d| d.clock > 2));
    }

    #[test]
    fn peer_stability_raises_the_channel_bound() {
        for kind in [Technique::Manetho, Technique::LogOn] {
            let mut reds: Vec<Box<dyn Reduction>> =
                (0..4).map(|_| make_reduction(kind, 4)).collect();
            let mut clocks = vec![0; 4];
            for (from, to) in [(1, 0), (0, 1), (1, 2), (1, 2), (1, 2), (2, 1)] {
                exchange(&mut reds, &mut clocks, from, to);
            }
            // Rank 3 learns everything rank 1 knows.
            exchange(&mut reds, &mut clocks, 1, 3);
            // Rank 2's GC notice tells rank 3 that P1's and P2's events
            // up to these clocks are EL-stable at rank 2's checkpoint.
            reds[3].note_peer_stable(2, &[1, 2, 3, 0]);
            let (pb, _) = reds[3].build(2, clocks[3]);
            assert!(
                pb.iter().all(|d| d.clock > [1, 2, 3, 0][d.receiver]),
                "{kind:?} piggybacked below the peer-stable floor: {pb:?}"
            );
            // The local store is untouched: peer stability is not global.
            assert!(reds[3].retained_count() > 0);
        }
    }

    #[test]
    fn peer_stability_at_the_clock_maximum_does_not_overflow() {
        for kind in [Technique::Manetho, Technique::LogOn] {
            let mut reds: Vec<Box<dyn Reduction>> =
                (0..4).map(|_| make_reduction(kind, 4)).collect();
            let mut clocks = vec![0; 4];
            for (from, to) in [(1, 0), (0, 1), (1, 2), (2, 1), (1, 3)] {
                exchange(&mut reds, &mut clocks, from, to);
            }
            // A GC notice may carry any u64 (the compact codec does).
            reds[3].note_peer_stable(2, &[RClock::MAX, 0, RClock::MAX, 0]);
            let (pb, _) = reds[3].build(2, clocks[3]);
            assert!(pb.iter().all(|d| d.receiver == 1 || d.receiver == 3));
            reds[3].apply_stable(&[RClock::MAX; 4]);
            assert_eq!(reds[3].retained_count(), 0);
            assert!(reds[3].build(0, clocks[3]).0.is_empty());
        }
    }

    #[test]
    fn manetho_pays_a_traversal_on_fresh_channels() {
        // The Figure 3 send (P3 -> P2, never exchanged before, but P2's
        // events are known transitively): Manetho crosses P2's causal
        // past (a..e) on top of emitting f..j; LogOn only touches what it
        // emits.
        let visits_of = |kind: Technique| {
            let mut reds: Vec<Box<dyn Reduction>> =
                (0..4).map(|_| make_reduction(kind, 4)).collect();
            let mut clocks = vec![0; 4];
            for (from, to) in [
                (1, 0),
                (0, 1),
                (1, 2),
                (1, 2),
                (1, 2),
                (2, 1),
                (1, 3),
                (0, 3),
                (1, 3),
                (0, 3),
            ] {
                exchange(&mut reds, &mut clocks, from, to);
            }
            let (out, w) = reds[3].build(2, clocks[3]);
            (out.len(), w.visits)
        };
        let (m_out, m_visits) = visits_of(Technique::Manetho);
        let (l_out, l_visits) = visits_of(Technique::LogOn);
        assert_eq!(m_out, l_out, "both graph methods compute the same set");
        assert!(
            m_visits > l_visits,
            "manetho fresh-channel visits {m_visits} should exceed logon {l_visits}"
        );
    }

    #[test]
    fn a_checkpoint_clone_keeps_its_graph_through_later_traffic() {
        let det = |clock: RClock, ssn| Determinant {
            receiver: 0,
            clock,
            sender: 1,
            ssn,
            cause: 0,
        };
        for kind in [Technique::Manetho, Technique::LogOn] {
            // 150 events of creator 0 with gaps at 50 and 100, so the
            // clone shares two full chunks of a gapped sequence.
            let mut red = GraphRed::new(3, kind);
            let known: Vec<Determinant> = (1..=150)
                .filter(|k| k % 50 != 0)
                .map(|k| det(k, 0))
                .collect();
            red.integrate(1, 0, &known);
            let before = red.retained();
            let snap = red.clone_box();
            // The live side appends, fills both gaps, learns new content
            // for clocks 10..=20 (a restarted creator re-created them)
            // and prunes through 5.
            red.integrate(2, 0, &(150..=200).map(|k| det(k, 0)).collect::<Vec<_>>());
            red.absorb(&[det(100, 0), det(50, 0)]);
            red.absorb(&(10..=20).map(|k| det(k, 7)).collect::<Vec<_>>());
            red.apply_stable(&[5, 0, 0]);
            assert_eq!(red.retained_count(), 195);
            assert_eq!(red.retained()[0], det(6, 0));
            assert_eq!(red.retained_of(0, 9)[0], det(10, 7));
            assert_eq!(snap.retained(), before, "{kind:?}");
            assert_eq!(snap.retained_count(), 147);
            assert_eq!(snap.retained_of(0, 9)[..12], before[9..21]);
        }
    }

    #[test]
    fn a_clone_builds_what_its_original_builds() {
        for kind in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
            let mut reds: Vec<Box<dyn Reduction>> =
                (0..4).map(|_| make_reduction(kind, 4)).collect();
            let mut clocks = vec![0; 4];
            for (from, to) in [(1, 0), (0, 1), (1, 2), (2, 1), (1, 3), (0, 3), (3, 2)] {
                exchange(&mut reds, &mut clocks, from, to);
            }
            reds[3].note_peer_stable(1, &[1, 0, 0, 0]);
            // The original's build scratch is filled; the clone's is not.
            let mut snap = reds[3].clone_box();
            for dst in [0, 1, 2, 0] {
                let want = reds[3].build(dst, clocks[3]);
                assert_eq!(snap.build(dst, clocks[3]), want, "{kind:?} to {dst}");
            }
        }
    }

    #[test]
    fn incremental_traversal_is_cheap_on_warm_channels() {
        // Repeated sends on the same channel must not re-walk the whole
        // graph (Manetho's per-peer bookkeeping).
        let mut reds: Vec<Box<dyn Reduction>> = (0..2)
            .map(|_| make_reduction(Technique::Manetho, 2))
            .collect();
        let mut clocks = vec![0; 2];
        for _ in 0..50 {
            exchange(&mut reds, &mut clocks, 0, 1);
            exchange(&mut reds, &mut clocks, 1, 0);
        }
        let (_, w) = reds[0].build(1, clocks[0]);
        assert!(
            w.visits < 20,
            "warm-channel traversal should be O(new), got {} visits",
            w.visits
        );
    }
}
