//! # vlog-core — causal message logging with an Event Logger
//!
//! The paper's contribution (*"Impact of Event Logger on Causal Message
//! Logging Protocols for Fault Tolerant MPI"*, IPDPS 2005), implemented
//! as V-protocols for the `vlog-vmpi` framework:
//!
//! * **Causal message logging** ([`causal::CausalProtocol`]) with the
//!   three piggyback-reduction techniques the paper compares —
//!   [`vcausal::VcausalRed`] (sequences + channel watermarks),
//!   Manetho and LogOn ([`agred::GraphRed`] over the antecedence
//!   graph, walked by [`graph::extend_past`]) — each runnable **with or
//!   without** the Event Logger. Every determinant store, the Event
//!   Logger's included, is a [`DetStore`] of [`detseq`].
//! * **One Event Logger** ([`el_multi::ElShard`]): the paper's single EL
//!   is the one-shard installation of the sharded server, through the
//!   same [`install_distributed_el`] call; [`el_multi`] also holds its
//!   messages with their wire sizes, gauges and the client-side [`ElBatcher`].
//! * **One log-protocol core** ([`logcore::LogCore`]) shared by causal
//!   and pessimistic logging: the EL client (batching, ack pairing,
//!   re-shard handoff), the sender log, checkpoint GC notices and the
//!   whole collect → replay → re-accept recovery engine. The protocols
//!   keep only what the paper says differs — piggybacking for causal,
//!   the send gate for pessimistic.
//! * **Sender-based payload logging** ([`sender_log::SenderLog`]) and
//!   full crash **recovery** (in the core): determinant collection from
//!   the EL and from every alive rank, payload reclaim from the senders'
//!   volatile logs, ordered replay, duplicate-send suppression.
//! * The two Figure 1 baselines: sender-based **pessimistic** logging
//!   ([`pessimistic::PessimisticProtocol`], MPICH-V2 style) and
//!   **coordinated checkpointing** with global rollback
//!   ([`coordinated::CoordinatedProtocol`], Chandy-Lamport style).
//! * Byte-exact **piggyback codecs** ([`piggyback`]): the factored
//!   `{rid, nb, events}` format shared by Vcausal and Manetho, the flat
//!   order-preserving LogOn format, and the varint/delta `compact`
//!   format ([`piggyback::PbFormat`]) that drops the O(rank-count) field
//!   widths. Each layout is written once, generic over a byte sink:
//!   [`PbFormat::wire_len`] — every piggyback byte the simulation
//!   charges — is the encoder run on a counting sink, so the modeled
//!   wire cannot drift from the real one.
//!
//! Ready-made [`suite`]s bundle each protocol with its auxiliary stable
//! components for the cluster builder:
//!
//! ```ignore
//! use vlog_core::{CausalSuite, Technique};
//! let suite = Rc::new(CausalSuite::new(Technique::Manetho, /*el=*/true));
//! let report = vlog_vmpi::run_cluster(&cfg, suite, program, &faults);
//! ```

pub mod agred;
pub mod causal;
pub mod codec;
pub mod coordinated;
pub mod costs;
pub mod detseq;
pub mod el_multi;
pub mod event;
pub mod graph;
pub mod logcore;
pub mod pessimistic;
pub mod piggyback;
pub mod reduction;
pub mod sender_log;
pub mod suite;
pub mod vcausal;

pub use bytes::Bytes;
pub use causal::CausalProtocol;
pub use coordinated::CoordinatedProtocol;
pub use detseq::{ChunkPool, DetSeq, DetStore};
pub use el_multi::{install_distributed_el, ElBatcher, ElMsg, ElReply, ElShard};
pub use event::{Determinant, EventId, PackedDet};
pub use logcore::CausalCtl;
pub use pessimistic::PessimisticProtocol;
pub use piggyback::{
    decode_compact, decode_factored, decode_flat, decode_watermarks, encode_watermarks,
    watermarks_len, PbBody, PbCodecError, PbFormat,
};
pub use reduction::{make_reduction, Reduction, Technique, Work};
pub use sender_log::SenderLog;
pub use suite::{CausalSuite, CoordinatedSuite, PessimisticSuite};
pub use vcausal::VcausalRed;
