//! Collective operations built over point-to-point messages.
//!
//! MPICH-1.2.5 implements collectives on top of the channel's p2p
//! routines, so the V-protocols see collective traffic as ordinary
//! messages — piggybacking, logging and replay apply unchanged. We do the
//! same: every collective below is a deterministic schedule of
//! sends/receives on reserved tags.
//!
//! Matching relies on per-channel FIFO order (like MPI's non-overtaking
//! rule), so collectives need no per-invocation sequence numbers — which
//! also keeps replay after a restart trivially aligned.

use bytes::Bytes;

use crate::api::{decode_f64s, encode_f64s, Mpi};
use crate::types::{Payload, Rank, RecvSelector, Tag};

/// Reserved tag space; wildcard application receives never match these.
pub const RESERVED_TAG_BASE: Tag = 0x8000_0000;
const TAG_BARRIER: Tag = RESERVED_TAG_BASE + 1;
const TAG_BCAST: Tag = RESERVED_TAG_BASE + 2;
const TAG_REDUCE: Tag = RESERVED_TAG_BASE + 3;
const TAG_ALLTOALL: Tag = RESERVED_TAG_BASE + 4;
const TAG_ALLGATHER: Tag = RESERVED_TAG_BASE + 5;
const TAG_GATHER: Tag = RESERVED_TAG_BASE + 6;

/// Combining operation for reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    fn combine(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduction length mismatch");
        for (a, b) in acc.iter_mut().zip(other) {
            *a = match self {
                ReduceOp::Sum => *a + *b,
                ReduceOp::Max => a.max(*b),
                ReduceOp::Min => a.min(*b),
            };
        }
    }
}

impl Mpi {
    /// Dissemination barrier: ⌈log2 n⌉ rounds of pairwise exchanges.
    pub async fn barrier(&self) {
        let n = self.size();
        if n <= 1 {
            return;
        }
        let me = self.rank();
        let mut k = 1usize;
        while k < n {
            let dst = (me + k) % n;
            let src = (me + n - k % n) % n;
            self.sendrecv(
                dst,
                TAG_BARRIER,
                Payload::default(),
                RecvSelector::of(src, TAG_BARRIER),
            )
            .await;
            k <<= 1;
        }
    }

    /// Binomial-tree broadcast from `root`. Every rank returns the
    /// payload.
    pub async fn bcast(&self, root: Rank, payload: Option<Payload>) -> Payload {
        let n = self.size();
        let me = self.rank();
        // Rank relative to the root.
        let vrank = (me + n - root) % n;
        let mut data = if me == root {
            payload.expect("root must provide the broadcast payload")
        } else {
            // Receive from parent: clear the lowest set bit of vrank.
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % n;
            self.recv_from(parent, TAG_BCAST).await.payload
        };
        // Forward to children: set bits above the lowest set bit.
        let lowest = if vrank == 0 {
            n.next_power_of_two()
        } else {
            1 << vrank.trailing_zeros()
        };
        let mut bit = lowest >> 1;
        while bit > 0 {
            let child_v = vrank | bit;
            if child_v != vrank && child_v < n {
                let child = (child_v + root) % n;
                self.send(child, TAG_BCAST, data.clone()).await;
            }
            bit >>= 1;
        }
        // The root keeps ownership; receivers got their own copy.
        if me == root {
            data = data.clone();
        }
        data
    }

    /// Binomial-tree reduction of an f64 vector to `root`. Returns the
    /// reduced vector on the root, `None` elsewhere.
    pub async fn reduce_f64(&self, root: Rank, values: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        let n = self.size();
        let me = self.rank();
        let vrank = (me + n - root) % n;
        let mut acc = values.to_vec();
        // Receive from children (low bits first, mirroring the bcast tree).
        let mut bit = 1usize;
        while bit < n {
            if vrank & bit == 0 {
                let child_v = vrank | bit;
                if child_v < n {
                    let child = (child_v + root) % n;
                    let m = self.recv_from(child, TAG_REDUCE).await;
                    op.combine(&mut acc, &decode_f64s(&m.payload.data));
                }
            } else {
                // Send to parent and stop participating.
                let parent_v = vrank & !bit;
                let parent = (parent_v + root) % n;
                self.send_bytes(parent, TAG_REDUCE, encode_f64s(&acc)).await;
                return None;
            }
            bit <<= 1;
        }
        Some(acc)
    }

    /// Allreduce = reduce to rank 0 + broadcast (the MPICH-1 default).
    pub async fn allreduce_f64(&self, values: &[f64], op: ReduceOp) -> Vec<f64> {
        let reduced = self.reduce_f64(0, values, op).await;
        let payload = reduced.map(|v| Payload::new(encode_f64s(&v)));
        let out = self.bcast(0, payload).await;
        decode_f64s(&out.data)
    }

    /// Allreduce communication pattern with synthetic payloads of
    /// `bytes` (used by workload skeletons where values don't matter).
    pub async fn allreduce_synth(&self, bytes: u64) {
        let n = self.size();
        let me = self.rank();
        // Reduce phase.
        let mut bit = 1usize;
        let mut active = true;
        while bit < n && active {
            if me & bit == 0 {
                if me | bit < n {
                    self.recv_from(me | bit, TAG_REDUCE).await;
                }
            } else {
                self.send_synth(me & !bit, TAG_REDUCE, bytes).await;
                active = false;
            }
            bit <<= 1;
        }
        // Broadcast phase.
        self.bcast(
            0,
            if me == 0 {
                Some(Payload::synthetic(bytes))
            } else {
                None
            },
        )
        .await;
    }

    /// Pairwise-exchange all-to-all. `outgoing[d]` is sent to rank `d`;
    /// returns the vector of received payloads indexed by source.
    pub async fn alltoall(&self, mut outgoing: Vec<Payload>) -> Vec<Payload> {
        let n = self.size();
        let me = self.rank();
        assert_eq!(outgoing.len(), n, "alltoall needs one payload per rank");
        let mut incoming: Vec<Payload> = vec![Payload::default(); n];
        incoming[me] = std::mem::take(&mut outgoing[me]);
        for phase in 1..n {
            let dst = (me + phase) % n;
            let src = (me + n - phase) % n;
            let m = self
                .sendrecv(
                    dst,
                    TAG_ALLTOALL,
                    std::mem::take(&mut outgoing[dst]),
                    RecvSelector::of(src, TAG_ALLTOALL),
                )
                .await;
            incoming[src] = m.payload;
        }
        incoming
    }

    /// Ring allgather: n-1 steps shifting payloads to the right
    /// neighbour. Returns payloads indexed by owner rank.
    pub async fn allgather(&self, mine: Payload) -> Vec<Payload> {
        let n = self.size();
        let me = self.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut out: Vec<Payload> = vec![Payload::default(); n];
        out[me] = mine.clone();
        let mut cursor = mine;
        for step in 0..n.saturating_sub(1) {
            let m = self
                .sendrecv(
                    right,
                    TAG_ALLGATHER,
                    cursor,
                    RecvSelector::of(left, TAG_ALLGATHER),
                )
                .await;
            let owner = (me + n - step - 1) % n;
            out[owner] = m.payload.clone();
            cursor = m.payload;
        }
        out
    }

    /// Flat gather to `root` (each rank one direct message).
    pub async fn gather(&self, root: Rank, mine: Payload) -> Option<Vec<Payload>> {
        let n = self.size();
        let me = self.rank();
        if me == root {
            let mut out: Vec<Payload> = vec![Payload::default(); n];
            out[me] = mine;
            // Receive in deterministic source order.
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = self.recv_from(src, TAG_GATHER).await.payload;
                }
            }
            Some(out)
        } else {
            self.send(root, TAG_GATHER, mine).await;
            None
        }
    }

    /// Broadcast of real bytes from the root (`None` elsewhere).
    pub async fn bcast_bytes(&self, root: Rank, data: Option<Bytes>) -> Bytes {
        let payload = data.map(Payload::new);
        self.bcast(root, payload).await.data
    }
}
