//! The generic communication daemon (Vdaemon).
//!
//! Paper §IV-A: *"the MPI process does not connect directly to the other
//! ones. It communicates with a generic communication daemon, through a
//! pair of system pipes. [...] The daemon handles the effective
//! communications, namely sending, receiving, reordering messages,
//! establishing connections with all components of the system and
//! detecting failures. In each of these routines, protocol dependent
//! functions are called."*
//!
//! This module is that daemon. It owns:
//!
//! * the pipe to the local MPI process (requests drained when the
//!   program's pipe wake-up fires),
//! * per-channel sequence numbers, duplicate dropping and reordering,
//! * the eager/rendezvous transport,
//! * the matching engine (posted receives / unexpected queue),
//! * checkpoint assembly and the restart/rollback state machine,
//!
//! and calls the [`VProtocol`] hooks at every protocol-relevant point.
//! Everything fault-tolerance-specific — piggybacking, event logging,
//! sender-based payload logs, replay — lives behind those hooks.
//!
//! What a checkpoint image carries of the daemon is one value,
//! [`Channels`]: the per-channel counters, the accepted messages the
//! application has not consumed yet, and the sends a protocol's gate
//! still holds. A restart restores it in one assignment. A held send
//! adds no image bytes: the pessimistic protocol logs a send before it
//! gates it, so its payload is already in the sender log the protocol
//! section counts.

use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use bytes::Bytes;
use vlog_sim::causality::Edge;
use vlog_sim::{
    Actor, ActorId, Counter, Delivery, Event, ExecHandle, NodeId, OpId, Sim, SimDuration, SimTime,
    TaskId, WireSize,
};

use crate::api::Mpi;
use crate::ckpt::{CkptReply, CkptRequest, Image};
use crate::cluster::{topo, ClusterState};
use crate::control;
use crate::cost::StackProfile;
use crate::fault::{self, ProtoPhase};
use crate::hooks::{Ctx, ProtoBlob, RecvGate, SendGate, TopoView, VProtocol};
use crate::pipe::{AppPort, AppRequest};
use crate::types::{
    AppMsg, DaemonMsg, Payload, PiggybackBlob, Rank, RecvMsg, RecvSelector, Ssn, Tag,
};

/// Timer token: the pipe has requests (staged by the program).
pub const TOKEN_PIPE: u64 = 0;
/// Timer token: boot the daemon (spawn or recover the application).
pub const TOKEN_BOOT: u64 = 1;
/// Timer token: the program finished (staged by its last poll).
const TOKEN_FINISHED: u64 = 2;
/// Timer token: the oldest rendezvous data send's CPU time is over.
const TOKEN_RDV_DATA: u64 = 3;
/// Timer tokens at or above this value belong to the protocol.
pub const PROTO_TIMER_BASE: u64 = 1_000;

/// Delay of a program's finish notice to its daemon.
const SELF_DELAY: SimDuration = SimDuration::from_micros(1);
/// Local snapshot memcpy cost (ns per image byte).
const SNAPSHOT_NS_PER_BYTE: f64 = 2.0;

/// An application program: invoked once per incarnation. The returned
/// futures must be `Send` so a whole cluster run can be moved to a worker
/// thread.
pub type AppSpec = Arc<dyn Fn(Mpi) -> Pin<Box<dyn Future<Output = ()> + Send>> + Send + Sync>;

/// Wraps an async closure into an [`AppSpec`].
pub fn app<F, Fut>(f: F) -> AppSpec
where
    F: Fn(Mpi) -> Fut + Send + Sync + 'static,
    Fut: Future<Output = ()> + Send + 'static,
{
    Arc::new(move |mpi| Box::pin(f(mpi)))
}

/// How a daemon instance starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootMode {
    /// Initial launch: run the program from the beginning.
    Fresh,
    /// Restart after a crash or rollback: fetch a checkpoint image
    /// (`None` = latest) and let the protocol recover.
    Recover { version: Option<u64> },
}

/// An accepted send with its ssn: held by the protocol's gate, waiting
/// for its clear-to-send, or on its way out. `done` is the application's
/// completion for a rendezvous send (an eager one completed at
/// acceptance).
#[derive(Clone)]
pub(crate) struct HeldSend {
    pub(crate) dst: Rank,
    pub(crate) tag: Tag,
    pub(crate) payload: Payload,
    pub(crate) ssn: Ssn,
    pub(crate) done: Option<OpId>,
}

/// The daemon's channel state: everything a checkpoint image carries of
/// the daemon besides the application state.
#[derive(Clone, Default)]
pub struct Channels {
    /// Next ssn per destination channel.
    pub(crate) next_ssn: Vec<Ssn>,
    /// Next expected ssn per source channel.
    pub(crate) expected_ssn: Vec<Ssn>,
    /// Messages accepted but not yet consumed by the application.
    pub(crate) unexpected: VecDeque<RecvMsg>,
    /// Sends accepted, assigned an ssn and held by the protocol's gate.
    pub(crate) held: VecDeque<HeldSend>,
}

impl Channels {
    pub(crate) fn new(n: usize) -> Self {
        Channels {
            next_ssn: vec![0; n],
            expected_ssn: vec![0; n],
            ..Channels::default()
        }
    }

    /// The copy an image keeps. A held send's completion handle belongs
    /// to the incarnation that issued it, so the copy carries none.
    fn for_image(&self) -> Channels {
        let mut copy = self.clone();
        for h in &mut copy.held {
            h.done = None;
        }
        copy
    }
}

struct PostedRecv {
    sel: RecvSelector,
    done: OpId,
}

/// Deferred work queued by protocol hooks, processed after the hook
/// returns (protocols are never re-entered).
enum Inject {
    /// Deliver to the matching engine after `cost` of protocol CPU.
    /// Replay-ordered deliveries come here straight, bypassing the hooks
    /// (the determinant already exists).
    Deliver { msg: RecvMsg, cost: SimDuration },
    /// Run the full acceptance path again (live messages buffered during
    /// replay; they need fresh determinants).
    Reaccept(AppMsg),
}

/// The generic (protocol-independent) part of a daemon. Exposed to
/// protocols through [`Ctx`].
pub struct DaemonCore {
    rank: Rank,
    n: usize,
    node: NodeId,
    me: ActorId,
    profile: Arc<StackProfile>,
    app_spec: AppSpec,

    /// The application incarnation; its kernel-owned port is the pipe
    /// ([`crate::pipe`]).
    app_task: Option<TaskId>,
    /// Requests taken off the pipe, being handled (empty between pipe
    /// wake-ups).
    pipe_batch: VecDeque<AppRequest>,

    channels: Channels,
    reorder: Vec<BTreeMap<Ssn, AppMsg>>,
    pending_rdv: BTreeMap<(Rank, Ssn), HeldSend>,
    /// Rendezvous data waiting for its CPU end, one timer each.
    rdv_data: VecDeque<(ActorId, WireSize, Box<DaemonMsg>, OpId)>,
    posted: VecDeque<PostedRecv>,

    ckpt_counter: u64,
    /// Image assembled at the checkpoint point, not yet shipped (the
    /// protocol controls the ship time — coordinated checkpointing waits
    /// for its markers); its protocol section is filled at ship time.
    pending_image: Option<Image>,
    ship_requested: bool,
    recovering: bool,
    recover_start: SimTime,
    finished: bool,

    release_requested: bool,
    inject: VecDeque<Inject>,
}

impl DaemonCore {
    pub fn rank(&self) -> Rank {
        self.rank
    }

    pub fn n_ranks(&self) -> usize {
        self.n
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn actor(&self) -> ActorId {
        self.me
    }

    pub fn profile(&self) -> &StackProfile {
        &self.profile
    }

    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    pub fn app_finished(&self) -> bool {
        self.finished
    }

    /// Next expected ssn per source channel — the payload-reclaim
    /// watermarks a recovering process sends to its peers.
    pub fn expected_watermarks(&self) -> Vec<Ssn> {
        self.channels.expected_ssn.clone()
    }

    /// Next expected ssn on one source channel.
    pub fn expected_of(&self, src: Rank) -> Ssn {
        self.channels.expected_ssn[src]
    }

    /// Next outgoing ssn per destination channel (how many messages were
    /// sent on each channel so far) — coordinated markers carry these.
    pub fn next_ssn_watermarks(&self) -> Vec<Ssn> {
        self.channels.next_ssn.clone()
    }

    /// Sends a protocol control message to the daemon of rank `dst`.
    pub fn control_to_rank(&self, sim: &mut Sim, dst: Rank, body: impl control::Body) {
        let actor = topo(sim).daemon(dst);
        control::send(sim, self.node, actor, body);
    }

    /// Retransmits a logged payload to a recovering peer. Replayed copies
    /// carry no piggyback; the receiver collected determinants separately.
    pub fn transmit_replay(
        &mut self,
        sim: &mut Sim,
        dst: Rank,
        tag: Tag,
        ssn: Ssn,
        payload: Payload,
    ) {
        // If this message was stuck in a rendezvous whose CTS died with
        // the receiver, the replay supersedes it: complete the
        // application's send.
        if let Some(p) = self.pending_rdv.remove(&(dst, ssn)) {
            if let Some(done) = p.done {
                sim.complete(done);
            }
        }
        let cost = self.profile.msg_cost(payload.len());
        let end = sim.charge_cpu(self.node, cost);
        let msg = AppMsg {
            src: self.rank,
            dst,
            tag,
            ssn,
            payload,
            piggyback: PiggybackBlob::empty(),
            replayed: true,
        };
        self.send_app(sim, end, msg, None);
    }

    /// Queues a replay-ordered delivery (bypasses the protocol hooks).
    pub fn inject_deliver(&mut self, src: Rank, tag: Tag, payload: Payload, cost: SimDuration) {
        let msg = RecvMsg { src, tag, payload };
        self.inject.push_back(Inject::Deliver { msg, cost });
    }

    /// Queues a buffered live message for re-acceptance through the full
    /// protocol path.
    pub fn reaccept(&mut self, msg: AppMsg) {
        self.inject.push_back(Inject::Reaccept(msg));
    }

    /// Asks the daemon to re-run the transmit path for held sends
    /// (pessimistic logging releases).
    pub fn release_held(&mut self) {
        self.release_requested = true;
    }

    /// Ships the pending checkpoint image to the server (called by the
    /// protocol from `on_image_assembled`, immediately by default or when
    /// a coordinated snapshot's channel recording completes).
    pub fn request_ship(&mut self) {
        if self.pending_image.is_some() {
            self.ship_requested = true;
        }
    }

    /// Advances the next-expected ssn on a source channel. Used by
    /// coordinated checkpointing when it re-injects recorded channel
    /// state on rollback (the re-injected messages and the marker consumed
    /// those sequence numbers before the snapshot).
    pub fn advance_expected(&mut self, src: Rank, to: Ssn) {
        if to > self.channels.expected_ssn[src] {
            self.channels.expected_ssn[src] = to;
        }
    }

    /// Declares recovery finished: normal operation resumes and the
    /// total recovery duration is recorded.
    pub fn set_recovered(&mut self, sim: &mut Sim) {
        if self.recovering {
            self.recovering = false;
            let dt = sim.now().saturating_since(self.recover_start);
            let stats = &mut ClusterState::of(sim).rank_stats[self.rank];
            stats.recovery_total.push(dt);
            // Recovery got everything it needed: any still-pending
            // replay/reclaim expectations are moot, not dangling.
            sim.record(|| Edge::CancelOwner {
                owner: self.rank as u64,
            });
            vlog_sim::event!(sim, "recovery-complete" { rank = self.rank }
                caused_by "image-fetched" { rank = self.rank });
        }
    }

    /// Sets a protocol timer; it arrives at `VProtocol::on_timer` with the
    /// given token. It is never withdrawn: a protocol that arms a retry or
    /// timeout timer checks, when it fires, whether the awaited event has
    /// arrived meanwhile.
    pub fn set_proto_timer(&self, sim: &mut Sim, delay: SimDuration, token: u64) {
        sim.set_timer(self.me, delay, PROTO_TIMER_BASE + token);
    }

    // ---- internal helpers -------------------------------------------

    /// Sends `msg` once the CPU work ending at `end` is over. A rendezvous
    /// send's data waits in `rdv_data` for a timer of this incarnation,
    /// which sends it and completes `done` (an `OpId` in `Event::Send`
    /// would grow every calendar slot). The queue is FIFO: a node's CPU
    /// ends never decrease, and timers of one instant pop in filing order.
    /// A crash drops the timer, so a dead daemon's data never leaves.
    fn send_app(&mut self, sim: &mut Sim, end: SimTime, msg: AppMsg, done: Option<OpId>) {
        let target = topo(sim).daemon(msg.dst);
        let (size, body) = (msg.wire_size(), Box::new(DaemonMsg::App(msg)));
        match done {
            None => sim.send_at(end, self.node, target, size, body),
            Some(done) => {
                self.rdv_data.push_back((target, size, body, done));
                sim.set_timer(self.me, end.saturating_since(sim.now()), TOKEN_RDV_DATA);
            }
        }
    }

    /// Spawns a program incarnation. Its wake-ups — one per pipe write,
    /// and the finish notice its last poll stages — are timers on this
    /// daemon incarnation, so a killed program's die with it.
    fn spawn_app(&mut self, sim: &mut Sim, restored: Option<Bytes>) {
        self.finished = false;
        let gen = sim.actor_gen(self.me);
        let mpi = Mpi::new(
            self.rank,
            self.n,
            (self.me, gen),
            self.profile.clone(),
            restored,
        );
        let program = (self.app_spec)(mpi);
        let finished = Event::Timer {
            actor: self.me,
            gen,
            token: TOKEN_FINISHED,
        };
        let task = sim.spawn(Some(self.node), async move {
            program.await;
            ExecHandle.stage(SELF_DELAY, finished);
        });
        sim.port_mut(task)
            .expect("just spawned")
            .install(AppPort::default());
        self.app_task = Some(task);
    }

    /// The application's side of the pipe; `None` when no incarnation is
    /// alive to read it (what would be written is simply lost).
    fn app_port<'a>(&self, sim: &'a mut Sim) -> Option<&'a mut AppPort> {
        Some(sim.port_mut(self.app_task?)?.ext())
    }

    /// Moves what the application recorded since the last read into the
    /// run state, bound for [`crate::RunReport::recorded`].
    fn take_recorded(&self, sim: &mut Sim) {
        let Some(port) = self.app_port(sim) else {
            return;
        };
        if !port.recorded.is_empty() {
            let mut recorded = std::mem::take(&mut port.recorded);
            ClusterState::of(sim).recorded.append(&mut recorded);
        }
    }

    /// Hands a matched message across the pipe: it is parked in the port
    /// now and becomes the application's when `done` completes at `at`.
    fn complete_recv(&self, sim: &mut Sim, done: OpId, at: SimTime, msg: RecvMsg) {
        if let Some(port) = self.app_port(sim) {
            port.received.park(done, msg);
        }
        sim.schedule_at(at, Event::Complete(done));
    }

    /// Answers a checkpoint offer: taken, which the application learns
    /// when the local snapshot ends at `taken_at`, or (`None`) declined
    /// on the spot.
    fn complete_checkpoint(&self, sim: &mut Sim, done: OpId, taken_at: Option<SimTime>) {
        if let Some(port) = self.app_port(sim) {
            port.checkpointed.park(done, taken_at.is_some());
        }
        match taken_at {
            Some(at) => sim.schedule_at(at, Event::Complete(done)),
            None => sim.complete(done),
        }
    }

    /// Hands an accepted message to the matching engine *synchronously*
    /// (so checkpoints always see a consistent daemon state) and delays
    /// only the application-visible completion until `ready_at` plus the
    /// pipe crossing.
    ///
    /// Synchrony here is what makes acceptance atomic with respect to
    /// checkpoints: `expected_ssn` was already advanced, so the message
    /// must be in `unexpected` (and thus in the image) or already matched
    /// before any other event can run.
    fn deliver_to_matching(&mut self, sim: &mut Sim, msg: RecvMsg, ready_at: SimTime) {
        let (src, tag) = (msg.src, msg.tag);
        if let Some(pos) = self.posted.iter().position(|p| p.sel.matches(src, tag)) {
            let p = self.posted.remove(pos).unwrap();
            let at = ready_at + self.profile.pipe_cost(msg.payload.len());
            self.complete_recv(sim, p.done, at, msg);
        } else {
            self.channels.unexpected.push_back(msg);
        }
    }
}

/// The daemon actor: generic core + protocol hooks.
pub struct Vdaemon {
    core: DaemonCore,
    proto: Box<dyn VProtocol>,
    boot: BootMode,
    /// Application messages that arrived in the *restart window*: after
    /// this replacement daemon came alive but before its checkpoint
    /// image was fetched and `finish_restart` ran. Accepting them
    /// immediately would thread them through a not-yet-recovering
    /// protocol — advancing channel watermarks and consuming deliveries
    /// the replay is about to wait for (a permanent recovery stall).
    /// They are re-fed through the normal acceptance path, in arrival
    /// order, as soon as the restored state is in place.
    pre_restart: VecDeque<AppMsg>,
}

impl Vdaemon {
    /// The daemon of `rank`, living where `topo` says that rank lives.
    pub fn new(
        rank: Rank,
        topo: &TopoView,
        profile: Arc<StackProfile>,
        app_spec: AppSpec,
        proto: Box<dyn VProtocol>,
        boot: BootMode,
    ) -> Self {
        let n = topo.n_ranks();
        Vdaemon {
            core: DaemonCore {
                rank,
                n,
                node: topo.node(rank),
                me: topo.daemon(rank),
                profile,
                app_spec,
                app_task: None,
                pipe_batch: VecDeque::new(),
                channels: Channels::new(n),
                reorder: (0..n).map(|_| BTreeMap::new()).collect(),
                pending_rdv: BTreeMap::new(),
                rdv_data: VecDeque::new(),
                posted: VecDeque::new(),
                ckpt_counter: 0,
                pending_image: None,
                ship_requested: false,
                recovering: false,
                recover_start: SimTime::ZERO,
                finished: false,
                release_requested: false,
                inject: VecDeque::new(),
            },
            proto,
            boot,
            pre_restart: VecDeque::new(),
        }
    }

    /// The generic core, for building a [`Ctx`] by hand: the seam that
    /// lets a protocol component be unit-tested against a daemon that is
    /// not registered with a kernel.
    pub fn core_mut(&mut self) -> &mut DaemonCore {
        &mut self.core
    }

    fn boot(&mut self, sim: &mut Sim) {
        match self.boot {
            BootMode::Fresh => {
                self.core.spawn_app(sim, None);
            }
            BootMode::Recover { version } => {
                self.core.recovering = true;
                self.core.recover_start = sim.now();
                // A recovery boot supersedes the dead incarnation: its
                // pending expectations are moot, and this incarnation
                // cannot progress until its checkpoint image arrives.
                sim.record(|| Edge::CancelOwner {
                    owner: self.core.rank as u64,
                });
                vlog_sim::event!(sim, "restart-boot" { rank = self.core.rank });
                sim.record(|| Edge::Expect {
                    cause: vlog_sim::ckey!("image-fetched", rank = self.core.rank),
                    waiter: vlog_sim::ckey!("restart-boot", rank = self.core.rank),
                    owner: self.core.rank as u64,
                });
                let Some((server, _)) = topo(sim).ckpt_server() else {
                    // No checkpoint infrastructure: restart from scratch.
                    self.finish_restart(sim, None);
                    return;
                };
                let req = CkptRequest::Fetch {
                    rank: self.core.rank,
                    version,
                    reply_to: self.core.me,
                };
                control::send(sim, self.core.node, server, req);
            }
        }
    }

    /// Runs one protocol hook with the daemon's context.
    fn hook<R>(&mut self, sim: &mut Sim, f: impl FnOnce(&mut dyn VProtocol, &mut Ctx) -> R) -> R {
        let mut ctx = Ctx {
            sim,
            core: &mut self.core,
        };
        f(&mut *self.proto, &mut ctx)
    }

    fn finish_restart(&mut self, sim: &mut Sim, image: Option<Arc<Image>>) {
        let (restored, blob) = match image {
            Some(img) => {
                self.core.channels = img.channels.clone();
                self.core.ckpt_counter = img.version;
                let restored = if img.app_state.data.is_empty() {
                    None
                } else {
                    Some(img.app_state.data.clone())
                };
                (restored, Some(img.proto.clone()))
            }
            None => (None, None),
        };
        vlog_sim::event!(sim, "image-fetched" { rank = self.core.rank }
            caused_by "restart-boot" { rank = self.core.rank });
        self.hook(sim, |proto, ctx| proto.on_restart(ctx, blob));
        self.core.spawn_app(sim, restored);
        // The restored image (or scratch state) is in place: the
        // ImageFetched boundary. Faults armed here model a crash during
        // recovery (a double fault from the protocol's point of view).
        fault::crossed(sim, self.core.rank, ProtoPhase::ImageFetched);
        // Re-feed everything that arrived during the restart window, in
        // arrival order, now that the restored watermarks and the
        // protocol's recovery state exist: replay supplies land in the
        // recovery buffer, stale duplicates are dropped by the ssn
        // filter.
        while let Some(m) = self.pre_restart.pop_front() {
            self.handle_app_msg(sim, m);
        }
        self.pump(sim);
    }

    /// The program ended: what it recorded last goes to the report, the
    /// protocol and the dispatcher learn of it.
    fn app_finished(&mut self, sim: &mut Sim) {
        self.core.finished = true;
        self.core.take_recorded(sim);
        // Nothing waits on a finished rank's progress: withdraw its
        // pending expectations (e.g. a final determinant batch whose ack
        // is still in flight when the program completes).
        sim.record(|| Edge::CancelOwner {
            owner: self.core.rank as u64,
        });
        vlog_sim::event!(sim, "rank-finished" { rank = self.core.rank });
        self.hook(sim, |proto, ctx| proto.on_app_finished(ctx));
        if let Some((dispatcher, _)) = topo(sim).dispatcher() {
            let done = crate::dispatcher::DispatcherMsg::Done {
                rank: self.core.rank,
            };
            control::send(sim, self.core.node, dispatcher, done);
        }
    }

    fn drain_pipe(&mut self, sim: &mut Sim) {
        // The whole batch at once (nothing can push meanwhile: the
        // application task only runs between event dispatches); swapping
        // keeps both buffers allocated.
        self.core.take_recorded(sim);
        let Some(port) = self.core.app_port(sim) else {
            return;
        };
        std::mem::swap(&mut port.requests, &mut self.core.pipe_batch);
        while let Some(req) = self.core.pipe_batch.pop_front() {
            match req {
                AppRequest::Send {
                    dst,
                    tag,
                    payload,
                    done,
                } => self.handle_app_send(sim, dst, tag, payload, done),
                AppRequest::Recv { sel, done } => self.handle_app_recv(sim, sel, done),
                AppRequest::Checkpoint { state, done } => {
                    self.handle_checkpoint_point(sim, state, done)
                }
            }
        }
    }

    fn handle_app_send(
        &mut self,
        sim: &mut Sim,
        dst: Rank,
        tag: Tag,
        payload: Payload,
        done: OpId,
    ) {
        let ssn = self.core.channels.next_ssn[dst];
        self.core.channels.next_ssn[dst] = ssn + 1;
        let eager = payload.len() <= self.core.profile.eager_threshold;
        let gate = self.hook(sim, |proto, ctx| {
            proto.on_send_accept(ctx, dst, tag, ssn, &payload)
        });
        // Eager sends complete for the application at acceptance.
        if eager {
            sim.complete(done);
        }
        let done = (!eager).then_some(done);
        let send = HeldSend {
            dst,
            tag,
            payload,
            ssn,
            done,
        };
        match gate {
            SendGate::Go { cost } => self.transmit(sim, send, cost),
            SendGate::Hold => self.core.channels.held.push_back(send),
        }
    }

    /// The transmit path: eager messages get their piggyback and leave;
    /// large messages go through RTS/CTS first.
    fn transmit(&mut self, sim: &mut Sim, send: HeldSend, gate_cost: SimDuration) {
        if send.payload.len() <= self.core.profile.eager_threshold {
            self.transmit_data(sim, send, gate_cost);
        } else {
            let cost = self.core.profile.msg_cost(0) + gate_cost;
            let end = sim.charge_cpu(self.core.node, cost);
            let rts = DaemonMsg::Rts {
                src: self.core.rank,
                ssn: send.ssn,
            };
            let target = topo(sim).daemon(send.dst);
            self.core.pending_rdv.insert((send.dst, send.ssn), send);
            let node = self.core.node;
            sim.send_at(end, node, target, rts.wire_size(), Box::new(rts));
        }
    }

    fn transmit_data(&mut self, sim: &mut Sim, send: HeldSend, gate_cost: SimDuration) {
        let HeldSend {
            dst,
            tag,
            payload,
            ssn,
            done,
        } = send;
        let (pb, pb_cost) = self.hook(sim, |proto, ctx| proto.on_transmit(ctx, dst, ssn));
        {
            let st = &mut ClusterState::of(sim).rank_stats[self.core.rank];
            st.app_msgs_sent += 1;
            st.pb_bytes_sent += pb.bytes;
            if pb.bytes == 0 {
                st.empty_pb_msgs += 1;
            }
            st.pb_send_time += pb_cost;
        }
        let cpu = self.core.profile.msg_cost(payload.len()) + gate_cost + pb_cost;
        let end = sim.charge_cpu(self.core.node, cpu);
        let msg = AppMsg {
            src: self.core.rank,
            dst,
            tag,
            ssn,
            payload,
            piggyback: pb,
            replayed: false,
        };
        self.core.send_app(sim, end, msg, done);
    }

    fn handle_app_recv(&mut self, sim: &mut Sim, sel: RecvSelector, done: OpId) {
        let unexpected = &mut self.core.channels.unexpected;
        if let Some(pos) = unexpected.iter().position(|m| sel.matches(m.src, m.tag)) {
            let msg = unexpected.remove(pos).unwrap();
            let at = sim.now() + self.core.profile.pipe_cost(msg.payload.len());
            self.core.complete_recv(sim, done, at, msg);
        } else {
            self.core.posted.push_back(PostedRecv { sel, done });
        }
    }

    fn handle_checkpoint_point(&mut self, sim: &mut Sim, state: Payload, done: OpId) {
        if self.core.recovering {
            // No checkpoints mid-recovery: an image captured between the
            // restore and the end of replay would mix restored channel
            // state with a half-replayed protocol state; a later restart
            // from it could stall forever. The application offers again
            // at its next checkpoint point.
            self.core.complete_checkpoint(sim, done, None);
            return;
        }
        let next = self.core.ckpt_counter + 1;
        let Some(version) = self.hook(sim, |proto, ctx| proto.checkpoint_due(ctx, next)) else {
            self.core.complete_checkpoint(sim, done, None);
            return;
        };
        self.core.ckpt_counter = self.core.ckpt_counter.max(version);
        // Capture the generic sections at the application-safe point; the
        // protocol decides when the image ships (immediately by default).
        let state_bytes = state.len();
        self.core.pending_image = Some(Image {
            rank: self.core.rank,
            version,
            app_state: state,
            channels: self.core.channels.for_image(),
            proto: ProtoBlob::empty(),
        });
        // Local snapshot cost (fork + copy-on-write in the real system).
        // The simulator's snapshot is copy-on-write too where it is big:
        // the causal protocols' blob clones a causality store whose full
        // chunks the image shares with the live rank (vlog-core's
        // `detseq` module), so only the bytes charged here are modeled.
        let cost = SimDuration::from_nanos((state_bytes as f64 * SNAPSHOT_NS_PER_BYTE) as u64);
        let end = sim.charge_cpu(self.core.node, cost);
        self.core.complete_checkpoint(sim, done, Some(end));
        self.hook(sim, |proto, ctx| proto.on_image_assembled(ctx, version));
    }

    /// Ships the pending image: fetches the protocol blob and streams the
    /// image to the checkpoint server. Runs from `pump`.
    fn ship_image(&mut self, sim: &mut Sim) {
        let Some(mut image) = self.core.pending_image.take() else {
            return;
        };
        image.proto = self.hook(sim, |proto, ctx| proto.checkpoint_blob(ctx));
        let image = Arc::new(image);
        let cost =
            SimDuration::from_nanos((image.wire_bytes() as f64 * SNAPSHOT_NS_PER_BYTE) as u64);
        let end = sim.charge_cpu(self.core.node, cost);
        if let Some((server, _)) = topo(sim).ckpt_server() {
            let req = CkptRequest::Store {
                image,
                reply_to: self.core.me,
            };
            control::send_at(sim, end, self.core.node, server, req);
        }
    }

    /// In-order acceptance of one application message: it consumes its
    /// ssn, then takes the re-acceptance path.
    fn accept(&mut self, sim: &mut Sim, msg: AppMsg) {
        self.core.channels.expected_ssn[msg.src] = msg.ssn + 1;
        self.accept_reinjected(sim, msg);
    }

    fn handle_app_msg(&mut self, sim: &mut Sim, msg: AppMsg) {
        let (src, dst) = (msg.src, self.core.rank);
        let expected = self.core.channels.expected_ssn[src];
        if msg.ssn < expected {
            sim.stats_mut().bump(Counter::DupDropped);
            return;
        }
        if msg.ssn > expected {
            self.core.reorder[src].entry(msg.ssn).or_insert(msg);
        } else {
            if !self.core.reorder[src].is_empty() {
                vlog_sim::event!(sim, "chan-accept" { src = src, dst = dst, ssn = expected });
            }
            self.accept(sim, msg);
            // Drain any now-contiguous reordered messages.
            loop {
                let next = self.core.channels.expected_ssn[src];
                match self.core.reorder[src].remove(&next) {
                    Some(m) => self.accept(sim, m),
                    None => break,
                }
            }
        }
        // A gap left on the channel is a wait: the buffered messages
        // cannot reach the application until the expected ssn arrives.
        if let Some(&gap) = self.core.reorder[src].keys().next() {
            let expected = self.core.channels.expected_ssn[src];
            sim.record(|| Edge::Expect {
                cause: vlog_sim::ckey!("chan-accept", src = src, dst = dst, ssn = expected),
                waiter: vlog_sim::ckey!("chan-gap", src = src, dst = dst, ssn = gap),
                owner: dst as u64,
            });
        }
    }

    fn handle_daemon_msg(&mut self, sim: &mut Sim, msg: DaemonMsg) {
        match msg {
            DaemonMsg::App(m) => {
                if self.core.recovering
                    && self.core.app_task.is_none()
                    && !ClusterState::of(sim).seeded_bugs.restart_window
                {
                    // Restart window: the checkpoint image is still being
                    // fetched, so the restored channel watermarks do not
                    // exist yet. Park the message; `finish_restart`
                    // re-feeds it through the full acceptance path.
                    // (`SeededBugs::restart_window` re-opens the pre-fix
                    // stall for the schedule explorer's self-test.)
                    self.pre_restart.push_back(m);
                } else {
                    self.handle_app_msg(sim, m)
                }
            }
            DaemonMsg::Rts { src, ssn } => {
                // Clear-to-send immediately (receiver-side buffering).
                let cost = self.core.profile.msg_cost(0);
                let end = sim.charge_cpu(self.core.node, cost);
                let cts = DaemonMsg::Cts {
                    dst: self.core.rank,
                    ssn,
                };
                let target = topo(sim).daemon(src);
                let node = self.core.node;
                sim.send_at(end, node, target, cts.wire_size(), Box::new(cts));
            }
            DaemonMsg::Cts { dst, ssn } => {
                if let Some(send) = self.core.pending_rdv.remove(&(dst, ssn)) {
                    self.transmit_data(sim, send, SimDuration::ZERO);
                }
            }
        }
    }

    /// Processes work queued by protocol hooks until quiescent.
    fn pump(&mut self, sim: &mut Sim) {
        loop {
            if self.core.ship_requested {
                self.core.ship_requested = false;
                self.ship_image(sim);
                continue;
            }
            if self.core.release_requested {
                self.core.release_requested = false;
                // Re-gate every held message: the protocol decides which
                // ones may leave now (pessimistic logging releases sends
                // whose preceding events became stable).
                let held: Vec<HeldSend> = self.core.channels.held.drain(..).collect();
                for h in held {
                    let gate = self.hook(sim, |proto, ctx| {
                        proto.on_send_accept(ctx, h.dst, h.tag, h.ssn, &h.payload)
                    });
                    match gate {
                        SendGate::Go { cost } => self.transmit(sim, h, cost),
                        SendGate::Hold => self.core.channels.held.push_back(h),
                    }
                }
                continue;
            }
            let Some(inj) = self.core.inject.pop_front() else {
                break;
            };
            match inj {
                Inject::Deliver { msg, cost } => {
                    let cpu = self.core.profile.msg_cost(msg.payload.len()) + cost;
                    let end = sim.charge_cpu(self.core.node, cpu);
                    self.core.deliver_to_matching(sim, msg, end);
                }
                Inject::Reaccept(msg) => {
                    // Bypass the ssn check: the message was already
                    // accepted once (its ssn was consumed) or is being fed
                    // back in channel order by the protocol.
                    self.accept_reinjected(sim, msg);
                }
            }
        }
    }

    /// Re-acceptance of a protocol-buffered message: runs the protocol
    /// hook (it may create a determinant now) but skips duplicate
    /// detection, which already happened on first arrival.
    fn accept_reinjected(&mut self, sim: &mut Sim, mut msg: AppMsg) {
        let gate = self.hook(sim, |proto, ctx| proto.on_app_msg(ctx, &mut msg));
        if let RecvGate::Deliver { cost } = gate {
            // Through the work queue, never synchronously: replay
            // injections queued by the protocol hook above must reach the
            // matching engine before this message (one total FIFO order
            // across injections, re-acceptances and live accepts). The
            // queue drains within this dispatch, so checkpoints still
            // observe a consistent daemon.
            let (src, tag, payload) = (msg.src, msg.tag, msg.payload);
            let msg = RecvMsg { src, tag, payload };
            self.core.inject.push_back(Inject::Deliver { msg, cost });
        }
    }
}

impl Actor for Vdaemon {
    fn on_timer(&mut self, sim: &mut Sim, _me: ActorId, token: u64) {
        match token {
            TOKEN_PIPE => self.drain_pipe(sim),
            TOKEN_BOOT => self.boot(sim),
            TOKEN_FINISHED => self.app_finished(sim),
            TOKEN_RDV_DATA => {
                let (target, size, body, done) = self.core.rdv_data.pop_front().expect("filed");
                sim.send(self.core.node, target, size, body);
                sim.complete(done);
                // No `pump`: every handler ends with it, so nothing waits.
                return;
            }
            proto => self.hook(sim, |p, ctx| p.on_timer(ctx, proto - PROTO_TIMER_BASE)),
        }
        self.pump(sim);
    }

    fn on_deliver(&mut self, sim: &mut Sim, _me: ActorId, msg: Delivery) {
        match msg.body.downcast::<DaemonMsg>() {
            Ok(dm) => self.handle_daemon_msg(sim, *dm),
            Err(body) => match body.downcast::<CkptReply>() {
                Ok(reply) => match *reply {
                    CkptReply::FetchResp { image, .. } => {
                        if self.core.recovering && self.core.app_task.is_none() {
                            self.finish_restart(sim, image);
                        }
                    }
                    CkptReply::StoreAck { version, .. } => {
                        ClusterState::of(sim).rank_stats[self.core.rank].checkpoints += 1;
                        self.hook(sim, |proto, ctx| {
                            proto.on_checkpoint_committed(ctx, version)
                        });
                    }
                    CkptReply::CompleteResp { .. } => {}
                },
                // Anything else is protocol control (EL acks and
                // responses, scheduler commands, markers, reclaim traffic
                // ...): the body is the protocol's own type, and a
                // protocol ignores what it does not know.
                Err(body) => self.hook(sim, |proto, ctx| proto.on_control(ctx, body)),
            },
        }
        self.pump(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vdummy::Vdummy;
    use vlog_sim::causality::{Key, LivenessReport};

    fn from_rank_1(ssn: Ssn) -> AppMsg {
        AppMsg {
            src: 1,
            dst: 0,
            tag: 0,
            ssn,
            payload: Payload::default(),
            piggyback: PiggybackBlob::empty(),
            replayed: false,
        }
    }

    fn verdict(sim: &mut Sim) -> LivenessReport {
        sim.causality().expect("the log is on").analyze()
    }

    #[test]
    fn a_channel_gap_is_a_declared_wait_until_the_expected_ssn_arrives() {
        let mut sim = Sim::new();
        sim.enable_causality();
        let nodes = vec![sim.add_node(), sim.add_node()];
        let state = ClusterState::with_ranks(vec![0, 1], nodes);
        let mut daemon = Vdaemon::new(
            0,
            &state.topo,
            Arc::new(StackProfile::vdaemon()),
            app(|_| async {}),
            Box::new(Vdummy),
            BootMode::Fresh,
        );
        sim.install(state);
        // Rank 1's ssn 1 overtakes its ssn 0: rank 0 holds it back, and
        // the one thing it waits on is named.
        daemon.handle_app_msg(&mut sim, from_rank_1(1));
        let live = verdict(&mut sim);
        assert_eq!(live.dangling.len(), 1, "{live:?}");
        let wait = &live.dangling[0];
        let key = |kind, ssn| Key::from_parts(kind, &["src", "dst", "ssn"], &[1, 0, ssn]);
        assert_eq!(wait.cause, key("chan-accept", 0));
        assert_eq!(wait.waiter, key("chan-gap", 1));
        assert_eq!(wait.owner, 0);
        // Ssn 0 arrives: the gap closes, both messages are accepted.
        daemon.handle_app_msg(&mut sim, from_rank_1(0));
        assert!(verdict(&mut sim).is_clean());
        assert_eq!(daemon.core.expected_of(1), 2);
        // An in-order arrival on a channel without a gap records nothing.
        let produced = verdict(&mut sim).produced_events;
        daemon.handle_app_msg(&mut sim, from_rank_1(2));
        assert_eq!(verdict(&mut sim).produced_events, produced);
    }

    type Seen = Arc<std::sync::Mutex<Vec<(SimTime, &'static str, Ssn)>>>;

    /// Logs what reaches it: application data (by ssn) and probes.
    struct Recorder(Seen);
    impl Actor for Recorder {
        fn on_deliver(&mut self, sim: &mut Sim, _me: ActorId, msg: Delivery) {
            let seen = match msg.body.downcast::<DaemonMsg>() {
                Ok(dm) => match *dm {
                    DaemonMsg::App(m) => ("app", m.ssn),
                    _ => ("control", 0),
                },
                Err(_) => ("probe", 0),
            };
            self.0.lock().unwrap().push((sim.now(), seen.0, seen.1));
        }
    }

    /// Rank 0's node crashes after its daemon charged a rendezvous
    /// payload to the CPU and before that work ends: the data timer pops
    /// and counts, but the data never reaches the wire and the killed
    /// program's send never completes.
    #[test]
    fn a_crashed_daemons_rendezvous_data_does_not_leave() {
        let probe = WireSize::payload(1_000);
        let idle_latency = {
            let mut sim = Sim::new();
            let (a, b) = (sim.add_node(), sim.add_node());
            let sink = sim.add_actor(b, Box::new(Recorder(Seen::default())));
            sim.send(a, sink, probe, Box::new(0u64));
            sim.run();
            sim.now().saturating_since(SimTime::ZERO)
        };
        let mut sim = Sim::new();
        let (n0, n1, n2) = (sim.add_node(), sim.add_node(), sim.add_node());
        let state = ClusterState::with_ranks(vec![0, 1], vec![n0, n1]);
        let profile = Arc::new(StackProfile::vdaemon());
        let mut daemon = Vdaemon::new(
            0,
            &state.topo,
            profile.clone(),
            app(|_| async {}),
            Box::new(Vdummy),
            BootMode::Fresh,
        );
        sim.install(state);
        // The sending program, suspended on its rendezvous send.
        let (op_id, resumed) = (Arc::new(std::sync::Mutex::new(None)), Seen::default());
        let (tx, r) = (op_id.clone(), resumed.clone());
        let task = sim.spawn(Some(n0), async move {
            let op = ExecHandle.new_op();
            *tx.lock().unwrap() = Some(op.id());
            op.await;
            r.lock().unwrap().push((SimTime::ZERO, "resumed", 0));
        });
        sim.run_until(SimTime::ZERO);
        let payload = Payload::synthetic(8 * profile.eager_threshold);
        let send = HeldSend {
            dst: 1,
            tag: 0,
            payload,
            ssn: 0,
            done: Some(op_id.lock().unwrap().expect("polled")),
        };
        daemon.core.pending_rdv.insert((1, 0), send);
        assert_eq!(sim.add_actor(n0, Box::new(daemon)), 0);
        let seen = Seen::default();
        assert_eq!(sim.add_actor(n1, Box::new(Recorder(seen.clone()))), 1);
        // Rank 1 clears the send; its CTS arrives well within 1 ms, and
        // the payload's CPU work (1.5 ns a byte) outlasts it.
        let cts = DaemonMsg::Cts { dst: 1, ssn: 0 };
        sim.send(n1, 0, cts.wire_size(), Box::new(cts));
        assert!(!sim.run_until(SimTime::ZERO + SimDuration::from_millis(1)));
        assert_eq!(sim.events_processed(), 1);
        // A zero charge reads when the node's CPU frees: the data's end.
        let end = sim.charge_cpu(n0, SimDuration::ZERO);
        assert!(end > sim.now());
        sim.crash_node(n0);
        let booked = (sim.stats().messages, sim.stats().bytes.total());
        sim.run_until(end);
        // The CTS and the data timer, which popped at `end` and counted.
        assert_eq!(sim.events_processed(), 2);
        assert_eq!((sim.stats().messages, sim.stats().bytes.total()), booked);
        // Rank 1's NIC is idle: a probe sent now crosses uncontended.
        sim.send(n2, 1, probe, Box::new(0u64));
        sim.run();
        assert_eq!(*seen.lock().unwrap(), [(end + idle_latency, "probe", 0)]);
        assert_eq!(sim.events_processed(), 3);
        assert!(resumed.lock().unwrap().is_empty());
        assert!(!sim.task_alive(task));
    }
}
