//! The application-facing MPI-like API.
//!
//! Programs are `async` closures receiving an [`Mpi`] handle:
//!
//! ```ignore
//! cluster.launch(|mpi| async move {
//!     if mpi.rank() == 0 {
//!         mpi.send_bytes(1, 0, vec![1, 2, 3]).await;
//!     } else {
//!         let m = mpi.recv(RecvSelector::of(0, 0)).await;
//!         assert_eq!(&m.payload.data[..], &[1, 2, 3]);
//!     }
//! });
//! ```
//!
//! All operations are mediated by the communication daemon through the
//! pipe; the handle itself never touches the simulation kernel, which
//! keeps application code oblivious to the fault-tolerance protocol
//! underneath — exactly the transparency the paper's framework provides.
//!
//! The handle is plain data (who am I, which daemon incarnation spawned
//! me). The pipe it talks through is the task's kernel-owned port, which
//! is only there while the kernel polls the application
//! ([`crate::pipe`]): an `Mpi` call made anywhere else panics rather than
//! reach another run's state. Each request wakes that daemon incarnation
//! by a timer staged on it, so a killed program's last requests wake
//! nobody.

use bytes::Bytes;
use vlog_sim::{with_task, ActorId, Event, ExecHandle, Op, OpId, OpValues, SimDuration, SimTime};

use std::sync::Arc;

use crate::cluster::Recorded;
use crate::cost::StackProfile;
use crate::daemon::TOKEN_PIPE;
use crate::pipe::{AppPort, AppRequest};
use crate::types::{Payload, Rank, RecvMsg, RecvSelector, Tag};

/// Handle on a posted send.
pub struct SendHandle {
    op: Op,
}

impl SendHandle {
    /// Completes when the message was accepted by the daemon (eager) or
    /// handed to the wire (rendezvous).
    pub async fn wait(self) {
        self.op.await
    }
}

/// Handle on a posted receive.
pub struct RecvHandle {
    op: Op,
}

impl RecvHandle {
    pub async fn wait(self) -> RecvMsg {
        result_of(self.op, "RecvHandle::wait", |port| &mut port.received).await
    }
}

/// Awaits `op`, then takes the result the daemon parked for it in the
/// `values` of the pipe.
async fn result_of<T>(op: Op, what: &str, values: fn(&mut AppPort) -> &mut OpValues<T>) -> T {
    let id = op.id();
    op.await;
    with_task(what, |cx| values(cx.ext()).take(id))
}

/// Per-process MPI handle. Cheap to clone; one per application
/// incarnation.
#[derive(Clone)]
pub struct Mpi {
    rank: Rank,
    n: usize,
    /// The daemon incarnation that spawned this program: its slot and
    /// generation.
    daemon: (ActorId, u32),
    profile: Arc<StackProfile>,
    restored: Option<Bytes>,
}

impl Mpi {
    pub(crate) fn new(
        rank: Rank,
        n: usize,
        daemon: (ActorId, u32),
        profile: Arc<StackProfile>,
        restored: Option<Bytes>,
    ) -> Mpi {
        Mpi {
            rank,
            n,
            daemon,
            profile,
            restored,
        }
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.n
    }

    /// State restored from a checkpoint image after a restart, if any.
    /// Programs use it to fast-forward to the checkpointed iteration.
    pub fn restored(&self) -> Option<&Bytes> {
        self.restored.as_ref()
    }

    /// Current virtual time (what `MPI_Wtime` would return).
    pub fn time(&self) -> SimTime {
        ExecHandle.now()
    }

    /// Writes one request into the pipe: queues it in the port and stages
    /// the wake-up that makes the daemon read it `pipe_bytes` of crossing
    /// later — a timer on the daemon incarnation that spawned this
    /// program, so it dies with the program's pipe. Returns the operation
    /// the daemon will complete.
    fn post(&self, pipe_bytes: u64, req: impl FnOnce(OpId) -> AppRequest) -> Op {
        let delay = self.profile.pipe_cost(pipe_bytes);
        with_task("Mpi request", |cx| {
            let op = cx.new_op();
            cx.ext::<AppPort>().requests.push_back(req(op.id()));
            let (actor, gen) = self.daemon;
            let wake = Event::Timer {
                actor,
                gen,
                token: TOKEN_PIPE,
            };
            cx.stage(delay, wake);
            op
        })
    }

    /// Posts a non-blocking send.
    pub fn isend(&self, dst: Rank, tag: Tag, payload: Payload) -> SendHandle {
        assert!(dst < self.n, "isend to unknown rank {dst}");
        let op = self.post(payload.len(), |done| AppRequest::Send {
            dst,
            tag,
            payload,
            done,
        });
        SendHandle { op }
    }

    /// Blocking send of a payload.
    pub async fn send(&self, dst: Rank, tag: Tag, payload: Payload) {
        self.isend(dst, tag, payload).wait().await
    }

    /// Blocking send of real bytes.
    pub async fn send_bytes(&self, dst: Rank, tag: Tag, data: impl Into<Bytes>) {
        self.send(dst, tag, Payload::new(data.into())).await
    }

    /// Blocking send of `len` synthetic bytes.
    pub async fn send_synth(&self, dst: Rank, tag: Tag, len: u64) {
        self.send(dst, tag, Payload::synthetic(len)).await
    }

    /// Posts a non-blocking receive.
    pub fn irecv(&self, sel: RecvSelector) -> RecvHandle {
        let op = self.post(0, |done| AppRequest::Recv { sel, done });
        RecvHandle { op }
    }

    /// Blocking receive.
    pub async fn recv(&self, sel: RecvSelector) -> RecvMsg {
        self.irecv(sel).wait().await
    }

    /// Blocking receive from a specific source and tag.
    pub async fn recv_from(&self, src: Rank, tag: Tag) -> RecvMsg {
        self.recv(RecvSelector::of(src, tag)).await
    }

    /// Simultaneous send and receive (the send is posted first, so the
    /// exchange cannot deadlock even against another `sendrecv`).
    pub async fn sendrecv(
        &self,
        dst: Rank,
        tag: Tag,
        payload: Payload,
        sel: RecvSelector,
    ) -> RecvMsg {
        let s = self.isend(dst, tag, payload);
        let m = self.recv(sel).await;
        s.wait().await;
        m
    }

    /// Executes `flops` floating-point operations of pure computation.
    pub async fn compute(&self, flops: f64) {
        ExecHandle.sleep(self.profile.compute_time(flops)).await
    }

    /// Lets `dur` of virtual time pass (non-flop work).
    pub async fn elapse(&self, dur: SimDuration) {
        ExecHandle.sleep(dur).await
    }

    /// Offers a checkpoint at an application-safe point. The protocol's
    /// scheduler decides whether one is actually taken; returns true when
    /// it was. The image streams to the checkpoint server in the
    /// background — the call only pays the local snapshot cost.
    pub async fn checkpoint_point(&self, state: Payload) -> bool {
        let op = self.post(state.len(), |done| AppRequest::Checkpoint { state, done });
        result_of(op, "Mpi::checkpoint_point", |port| &mut port.checkpointed).await
    }

    /// Hands `value` to the harness: it lands on
    /// [`RunReport::recorded`](crate::RunReport::recorded) as
    /// `(rank, name, key, value)`, after what this rank recorded before.
    /// Costs no virtual time and stages no event; the daemon picks it up
    /// the next time it reads the pipe, or when the program finishes. A
    /// record made by an incarnation that dies before then is lost with
    /// it.
    pub fn record(&self, name: &'static str, key: u64, value: f64) {
        let rank = self.rank;
        with_task("Mpi::record", |cx| {
            let recorded = Recorded {
                rank,
                name,
                key,
                value,
            };
            cx.ext::<AppPort>().recorded.push(recorded)
        })
    }

    /// The stack profile in effect (used by workloads to convert between
    /// flops and time).
    pub fn profile(&self) -> &StackProfile {
        &self.profile
    }
}

/// Encodes a slice of f64 as little-endian bytes (reduction payloads).
pub fn encode_f64s(values: &[f64]) -> Bytes {
    let mut v = Vec::with_capacity(values.len() * 8);
    for x in values {
        v.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(v)
}

/// Decodes little-endian f64 bytes produced by [`encode_f64s`].
pub fn decode_f64s(data: &Bytes) -> Vec<f64> {
    assert!(data.len().is_multiple_of(8), "truncated f64 payload");
    data.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let xs = vec![0.0, -1.5, std::f64::consts::PI, 1e300];
        let b = encode_f64s(&xs);
        assert_eq!(b.len(), 32);
        assert_eq!(decode_f64s(&b), xs);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_f64s_panic() {
        decode_f64s(&Bytes::from(vec![1u8, 2, 3]));
    }
}
