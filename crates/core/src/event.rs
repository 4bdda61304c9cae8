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
use crate::piggyback::PbCodecError;
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

/// A determinant as the determinant stores keep it: every field in 32
/// bits, 20 bytes against [`Determinant`]'s 40. Built only through the
/// checked [`PackedDet::try_from`], and widened back with
/// [`Determinant::from`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedDet {
    receiver: u32,
    clock: u32,
    sender: u32,
    ssn: u32,
    cause: u32,
}

impl PackedDet {
    #[inline]
    pub fn clock(&self) -> RClock {
        self.clock.into()
    }

    /// [`Determinant::cause_id`], read without widening the rest.
    #[inline]
    pub fn cause_id(&self) -> Option<EventId> {
        (self.cause > 0).then_some(EventId {
            creator: self.sender as Rank,
            clock: self.cause.into(),
        })
    }
}

impl TryFrom<&Determinant> for PackedDet {
    type Error = PbCodecError;

    /// Refuses a field wider than 32 bits with an overflow naming it,
    /// checking the fields in wire order.
    #[inline]
    fn try_from(det: &Determinant) -> Result<Self, PbCodecError> {
        let narrow = |field, value: u64| {
            u32::try_from(value).map_err(|_| PbCodecError::Overflow {
                field,
                value,
                wire_bits: 32,
            })
        };
        Ok(PackedDet {
            receiver: narrow("receiver", det.receiver as u64)?,
            clock: narrow("clock", det.clock)?,
            sender: narrow("sender", det.sender as u64)?,
            ssn: narrow("ssn", det.ssn)?,
            cause: narrow("cause", det.cause)?,
        })
    }
}

impl From<PackedDet> for Determinant {
    #[inline]
    fn from(p: PackedDet) -> Determinant {
        Determinant {
            receiver: p.receiver as Rank,
            clock: p.clock.into(),
            sender: p.sender as Rank,
            ssn: p.ssn.into(),
            cause: p.cause.into(),
        }
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

    const FIELDS: [&str; 5] = ["receiver", "clock", "sender", "ssn", "cause"];

    /// A determinant whose every field is `value`, but field `which` is
    /// `wide`.
    fn with_field(value: u64, which: usize, wide: u64) -> Determinant {
        let f = |i| if i == which { wide } else { value };
        Determinant {
            receiver: f(0) as Rank,
            clock: f(1),
            sender: f(2) as Rank,
            ssn: f(3),
            cause: f(4),
        }
    }

    #[test]
    fn a_packed_determinant_is_twenty_bytes() {
        assert_eq!(std::mem::size_of::<PackedDet>(), 20);
    }

    #[test]
    fn each_field_round_trips_at_the_u32_limit() {
        let max = u32::MAX as u64;
        for (which, field) in FIELDS.into_iter().enumerate() {
            let det = with_field(7, which, max);
            let packed = PackedDet::try_from(&det).unwrap();
            assert_eq!(Determinant::from(packed), det, "{field}");
        }
        let all = with_field(max, 0, max);
        let packed = PackedDet::try_from(&all).unwrap();
        assert_eq!(packed.clock(), max);
        assert_eq!(
            packed.cause_id(),
            Some(EventId {
                creator: u32::MAX as Rank,
                clock: max,
            })
        );
        assert_eq!(Determinant::from(packed), all);
    }

    #[test]
    fn a_field_past_u32_is_refused_by_name() {
        let wide = u32::MAX as u64 + 1;
        for (which, field) in FIELDS.into_iter().enumerate() {
            assert_eq!(
                PackedDet::try_from(&with_field(7, which, wide)),
                Err(PbCodecError::Overflow {
                    field,
                    value: wide,
                    wire_bits: 32,
                })
            );
        }
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
