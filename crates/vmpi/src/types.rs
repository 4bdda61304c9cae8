//! Common message-passing types shared by the daemon, the protocol hooks
//! and the application API.

use bytes::Bytes;
use std::any::Any;

/// MPI process rank.
pub type Rank = usize;
/// Message tag.
pub type Tag = u32;
/// Sender sequence number on one (source, destination) channel.
pub type Ssn = u64;
/// Reception clock: index of a reception event at one receiver.
pub type RClock = u64;

/// Fixed per-message framing added by the MPI library (kind, ranks, tag,
/// sequence numbers, lengths). Counted in the `header` byte category.
pub const MSG_HEADER_BYTES: u64 = 32;

/// An application payload. Workload skeletons usually carry *synthetic*
/// bytes (`pad`) so that multi-megabyte NAS exchanges cost nothing to
/// allocate, while correctness tests carry real `data`. The wire size is
/// the sum of both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Payload {
    /// Real bytes, transported verbatim (used by tests and reductions).
    pub data: Bytes,
    /// Additional synthetic length, transported as size only.
    pub pad: u64,
}

impl Payload {
    /// Wraps real bytes. Length-zero inputs take a fast path: every empty
    /// payload shares the one static empty backing of [`Bytes::new`], so
    /// control-style sends allocate nothing.
    pub fn new(data: impl Into<Bytes>) -> Payload {
        let data = data.into();
        let data = if data.is_empty() { Bytes::new() } else { data };
        Payload { data, pad: 0 }
    }

    /// A payload of `len` synthetic bytes.
    pub fn synthetic(len: u64) -> Payload {
        Payload {
            data: Bytes::new(),
            pad: len,
        }
    }

    /// Wire length in bytes.
    pub fn len(&self) -> u64 {
        self.data.len() as u64 + self.pad
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Piggyback attached to an application message by a causal protocol.
///
/// The body stays structured (`Box<dyn Any>`) on the simulated wire — the
/// byte-exact codecs live in `vlog-core::piggyback` and compute `bytes`,
/// which is what the network model charges and Figure 7 accounts.
pub struct PiggybackBlob {
    pub body: Option<Box<dyn Any + Send>>,
    pub bytes: u64,
}

impl PiggybackBlob {
    pub fn empty() -> Self {
        PiggybackBlob {
            body: None,
            bytes: 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.body.is_none()
    }
}

impl std::fmt::Debug for PiggybackBlob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PiggybackBlob({} bytes{})",
            self.bytes,
            if self.body.is_some() { "" } else { ", empty" }
        )
    }
}

/// An application-level message travelling between two daemons.
pub struct AppMsg {
    pub src: Rank,
    pub dst: Rank,
    pub tag: Tag,
    pub ssn: Ssn,
    pub payload: Payload,
    pub piggyback: PiggybackBlob,
    /// True when this copy is a replay retransmission from a sender log.
    pub replayed: bool,
}

impl AppMsg {
    /// Header+payload+piggyback wire size of this message.
    pub fn wire_size(&self) -> vlog_sim::WireSize {
        vlog_sim::WireSize {
            header: MSG_HEADER_BYTES,
            payload: self.payload.len(),
            piggyback: self.piggyback.bytes,
            control: 0,
        }
    }
}

impl std::fmt::Debug for AppMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppMsg")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("tag", &self.tag)
            .field("ssn", &self.ssn)
            .field("len", &self.payload.len())
            .field("pb", &self.piggyback.bytes)
            .field("replayed", &self.replayed)
            .finish()
    }
}

/// Messages exchanged between daemons. Protocol-specific control (EL
/// records/acks, reclaim, resends, markers ...) is not wrapped: its body
/// travels as the delivery body itself and reaches
/// [`VProtocol::on_control`](crate::hooks::VProtocol::on_control).
pub enum DaemonMsg {
    /// Eager data message.
    App(AppMsg),
    /// Rendezvous request: "I have a payload for you on `ssn`". The
    /// size travels with the data that follows the clear-to-send.
    Rts { src: Rank, ssn: Ssn },
    /// Clear-to-send for a rendezvous transfer.
    Cts { dst: Rank, ssn: Ssn },
}

impl DaemonMsg {
    /// Wire size: an eager message's own; 16 control bytes for RTS / CTS.
    pub fn wire_size(&self) -> vlog_sim::WireSize {
        match self {
            DaemonMsg::App(m) => m.wire_size(),
            DaemonMsg::Rts { .. } | DaemonMsg::Cts { .. } => vlog_sim::WireSize::control(16),
        }
    }
}

/// A message as delivered to the application.
#[derive(Debug, Clone)]
pub struct RecvMsg {
    pub src: Rank,
    pub tag: Tag,
    pub payload: Payload,
}

/// Receive selector: match a specific source/tag or any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvSelector {
    pub src: Option<Rank>,
    pub tag: Option<Tag>,
}

impl RecvSelector {
    pub fn of(src: Rank, tag: Tag) -> Self {
        RecvSelector {
            src: Some(src),
            tag: Some(tag),
        }
    }

    pub fn any() -> Self {
        RecvSelector {
            src: None,
            tag: None,
        }
    }

    pub fn matches(&self, src: Rank, tag: Tag) -> bool {
        self.src.is_none_or(|s| s == src) && self.tag.is_none_or(|t| t == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_lengths() {
        assert_eq!(Payload::new(vec![1u8, 2, 3]).len(), 3);
        assert_eq!(Payload::synthetic(1 << 20).len(), 1 << 20);
        let mixed = Payload {
            data: Bytes::from(vec![0u8; 5]),
            pad: 10,
        };
        assert_eq!(mixed.len(), 15);
        assert!(!mixed.is_empty());
        assert!(Payload::default().is_empty());
    }

    #[test]
    fn empty_payloads_share_static_backing() {
        // The fast path must kick in for every empty construction route.
        let a = Payload::new(Vec::new());
        let b = Payload::new(Bytes::new());
        let c = Payload::default();
        assert_eq!(a.data.as_ptr(), b.data.as_ptr());
        assert_eq!(a.data.as_ptr(), c.data.as_ptr());
        assert_eq!(a.len(), 0);
        // Synthetic padding rides on the same empty backing.
        assert_eq!(Payload::synthetic(512).data.as_ptr(), a.data.as_ptr());
    }

    #[test]
    fn selector_matching() {
        let s = RecvSelector::of(3, 7);
        assert!(s.matches(3, 7));
        assert!(!s.matches(2, 7));
        assert!(!s.matches(3, 8));
        let any = RecvSelector::any();
        assert!(any.matches(0, 0));
        let any_tag = RecvSelector {
            src: Some(1),
            tag: None,
        };
        assert!(any_tag.matches(1, 99));
        assert!(!any_tag.matches(2, 99));
    }

    #[test]
    fn appmsg_wire_size_categories() {
        let m = AppMsg {
            src: 0,
            dst: 1,
            tag: 0,
            ssn: 0,
            payload: Payload::synthetic(100),
            piggyback: PiggybackBlob {
                body: None,
                bytes: 40,
            },
            replayed: false,
        };
        let w = m.wire_size();
        assert_eq!(w.header, MSG_HEADER_BYTES);
        assert_eq!(w.payload, 100);
        assert_eq!(w.piggyback, 40);
        assert_eq!(w.total(), MSG_HEADER_BYTES + 140);
    }
}
