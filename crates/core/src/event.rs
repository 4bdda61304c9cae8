//! Reception events and their determinants.
//!
//! Message-logging protocols assume piecewise-deterministic execution: the
//! only non-deterministic events are receptions (paper §II). Each
//! reception at a process is assigned a *reception clock* and described by
//! a **determinant**: enough information to replay the same reception at
//! the same point of a re-execution. For antecedence-graph protocols the
//! determinant also carries the causality edge (the sender's last event
//! before the emission).

use crate::codec; // byte-level encode/decode helpers
use bytes::Bytes;
use vlog_vmpi::{RClock, Rank, Ssn};

/// Identifier of a reception event: its creator and reception clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// The receiver that created the event.
    pub creator: Rank,
    /// Position of the reception in the creator's event sequence (1-based;
    /// 0 means "no event yet").
    pub clock: RClock,
}

/// A reception-event determinant.
///
/// `(receiver, clock)` identifies the event; `(sender, ssn)` identifies
/// the received message; `cause` is the sender's reception clock at
/// emission time, which is the antecedence edge used by Manetho and LogOn
/// (0 when the sender had received nothing yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Determinant {
    pub receiver: Rank,
    pub clock: RClock,
    pub sender: Rank,
    pub ssn: Ssn,
    pub cause: RClock,
}

impl Determinant {
    pub fn id(&self) -> EventId {
        EventId {
            creator: self.receiver,
            clock: self.clock,
        }
    }

    /// The antecedence edge target, if any.
    pub fn cause_id(&self) -> Option<EventId> {
        (self.cause > 0).then_some(EventId {
            creator: self.sender,
            clock: self.cause,
        })
    }

    /// Wire encoding of the per-event body shared by both piggyback
    /// formats: clock (u32), sender (u16), ssn (u32), cause (u32).
    pub const BODY_BYTES: u64 = 14;

    /// Checked: a buffer ending mid-body is a
    /// [`PbCodecError`](crate::piggyback::PbCodecError), not a panic.
    pub(crate) fn decode_body(
        receiver: Rank,
        buf: &mut Bytes,
    ) -> Result<Determinant, crate::piggyback::PbCodecError> {
        let clock = codec::get_u32(buf, "clock")? as RClock;
        let sender = codec::get_u16(buf, "sender")? as Rank;
        let ssn = codec::get_u32(buf, "ssn")? as Ssn;
        let cause = codec::get_u32(buf, "cause")? as RClock;
        Ok(Determinant {
            receiver,
            clock,
            sender,
            ssn,
            cause,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_id_is_none_at_clock_zero() {
        let d = Determinant {
            receiver: 1,
            clock: 5,
            sender: 2,
            ssn: 9,
            cause: 0,
        };
        assert!(d.cause_id().is_none());
        let d2 = Determinant { cause: 3, ..d };
        assert_eq!(
            d2.cause_id(),
            Some(EventId {
                creator: 2,
                clock: 3
            })
        );
    }

    /// The 14-byte wire body of `(clock 123456, sender 3, ssn 42, cause
    /// 99)`: u32, u16, u32, u32, little endian.
    const BODY: [u8; 14] = [0x40, 0xE2, 0x01, 0x00, 3, 0, 42, 0, 0, 0, 99, 0, 0, 0];

    #[test]
    fn body_decodes_from_its_fixed_wire_bytes() {
        assert_eq!(BODY.len() as u64, Determinant::BODY_BYTES);
        let mut buf = Bytes::copy_from_slice(&BODY);
        let back = Determinant::decode_body(7, &mut buf).unwrap();
        assert_eq!(
            back,
            Determinant {
                receiver: 7,
                clock: 123_456,
                sender: 3,
                ssn: 42,
                cause: 99,
            }
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn truncated_body_is_an_error_not_a_panic() {
        let mut short = Bytes::copy_from_slice(&BODY[..8]);
        assert_eq!(
            Determinant::decode_body(7, &mut short).unwrap_err().field(),
            "ssn"
        );
    }

    #[test]
    fn event_ids_order_by_creator_then_clock() {
        let a = EventId {
            creator: 0,
            clock: 9,
        };
        let b = EventId {
            creator: 1,
            clock: 1,
        };
        assert!(a < b);
    }
}
