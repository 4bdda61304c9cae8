//! # vlog-vmpi — the MPICH-V framework analog
//!
//! Rust reconstruction of the generic fault-tolerance framework of
//! MPICH-V (Bosilca et al., SC'2002; Bouteiller et al., SC'2003), as used
//! by the paper *"Impact of Event Logger on Causal Message Logging
//! Protocols for Fault Tolerant MPI"* (IPDPS 2005) to compare V-protocols
//! fairly inside one shared communication layer.
//!
//! The crate provides, on top of the [`vlog_sim`] kernel:
//!
//! * [`daemon`] — the generic communication daemon (Vdaemon): pipes to
//!   the MPI process, channel sequence numbers, duplicate dropping,
//!   reordering, eager/rendezvous transport, matching, checkpoint
//!   assembly and the restart state machine;
//! * [`hooks`] — the V-protocol hook API ([`hooks::VProtocol`]) and the
//!   [`hooks::Suite`] bundling a protocol with its auxiliary components;
//! * [`api`] — the MPI-like application interface ([`api::Mpi`]) with
//!   point-to-point operations, [`collectives`], compute modelling and
//!   checkpoint points;
//! * [`vdummy`] — the trivial V-protocol measuring framework overhead;
//! * [`ckpt`] — checkpoint images and the transactional checkpoint
//!   server;
//! * [`scheduler`] — the checkpoint scheduler (round-robin / random /
//!   coordinated policies);
//! * [`dispatcher`] — job launch, fault detection, restart/rollback;
//! * [`control`] — the one way a control message leaves its node;
//! * [`fault`] — fault plans, the one path they take, what fired;
//! * [`cluster`] — the deployment builder used by every experiment.
//!
//! Fault-tolerance protocols themselves (causal message logging with its
//! three piggyback-reduction techniques, pessimistic logging, coordinated
//! checkpointing and the Event Logger) live in `vlog-core`.

pub mod api;
pub mod ckpt;
pub mod cluster;
pub mod collectives;
pub mod control;
pub mod cost;
pub mod daemon;
pub mod dispatcher;
pub mod fault;
pub mod hooks;
pub mod pipe;
pub mod scheduler;
pub mod types;
pub mod vdummy;

pub use api::{decode_f64s, encode_f64s, Mpi};
pub use cluster::{
    run_cluster, run_vdummy, topo, ClusterConfig, ClusterRun, ClusterState, Launch, Recorded,
    RunReport, SeededBugs,
};
pub use collectives::{ReduceOp, RESERVED_TAG_BASE};
pub use cost::StackProfile;
pub use daemon::{app, AppSpec, BootMode, DaemonCore, Vdaemon};
pub use fault::{Fault, FaultPlan, Fired, PhaseFault, ProtoPhase};
pub use hooks::{
    Ctx, ElReshard, ProtoBlob, RankStats, RecoveryStyle, RecvGate, SchedulerCmd, SendGate, Suite,
    TopoView, VProtocol,
};
pub use scheduler::{CkptScheduler, SchedulerPolicy};
pub use types::{
    AppMsg, DaemonMsg, Payload, PiggybackBlob, RClock, Rank, RecvMsg, RecvSelector, Ssn, Tag,
    MSG_HEADER_BYTES,
};
pub use vdummy::{Vdummy, VdummySuite};
