//! Minimal byte-level encoding helpers (little endian). Hand-rolled to
//! keep wire sizes explicit and dependencies minimal.
//!
//! Writes go through a crate-private `Sink`: every wire layout in
//! [`crate::piggyback`] is one function generic over it, run on a `u64`
//! byte counter for the modeled length and on a `Vec<u8>` for the
//! bytes, so a length can never disagree with its encoding.
//!
//! The fixed-width getters are *checked*: a short buffer is reported as
//! [`PbCodecError::Truncated`] naming the field being decoded, mirroring
//! the encode-side overflow checks, instead of panicking mid-decode deep
//! inside the `bytes` shim. The LEB128 helpers back the `Compact`
//! piggyback format: unsigned varints plus the zigzag mapping that makes
//! small signed deltas cost one byte.

use bytes::{Buf, Bytes};

use crate::piggyback::PbCodecError;

/// Longest LEB128 encoding of a `u64` (ten 7-bit groups cover 64 bits).
pub const MAX_UVARINT_BYTES: usize = 10;

/// Where a wire layout's bytes go, in wire order.
pub(crate) trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

/// The sink that keeps only the length: a byte counter.
impl Sink for u64 {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len() as u64;
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

fn need(buf: &Bytes, field: &'static str, bytes: usize) -> Result<(), PbCodecError> {
    if buf.remaining() < bytes {
        Err(PbCodecError::Truncated {
            field,
            need: bytes,
            have: buf.remaining(),
        })
    } else {
        Ok(())
    }
}

pub fn get_u16(buf: &mut Bytes, field: &'static str) -> Result<u16, PbCodecError> {
    need(buf, field, 2)?;
    Ok(buf.get_u16_le())
}

pub fn get_u32(buf: &mut Bytes, field: &'static str) -> Result<u32, PbCodecError> {
    need(buf, field, 4)?;
    Ok(buf.get_u32_le())
}

/// Writes `v` as an unsigned LEB128 varint (7 value bits per byte, high
/// bit set on every byte but the last) — the one varint writer.
#[inline]
pub(crate) fn put_uvarint<S: Sink>(out: &mut S, mut v: u64) {
    let mut buf = [0u8; MAX_UVARINT_BYTES];
    let mut n = 0;
    while v >= 0x80 {
        buf[n] = (v as u8 & 0x7f) | 0x80;
        v >>= 7;
        n += 1;
    }
    buf[n] = v as u8;
    out.put(&buf[..n + 1]);
}

/// Reads one unsigned LEB128 varint. A buffer that ends mid-varint is
/// [`PbCodecError::Truncated`]; a varint longer than
/// [`MAX_UVARINT_BYTES`] or carrying bits beyond 64 is reported as an
/// overflow of the 64-bit wire field.
pub fn get_uvarint(buf: &mut Bytes, field: &'static str) -> Result<u64, PbCodecError> {
    let mut v = 0u64;
    for i in 0..MAX_UVARINT_BYTES {
        need(buf, field, 1)?;
        let b = buf.get_u8();
        let group = (b & 0x7f) as u64;
        // The tenth byte may only contribute the final bit of a u64.
        if i == MAX_UVARINT_BYTES - 1 && group > 1 {
            return Err(PbCodecError::Overflow {
                field,
                value: group,
                wire_bits: 64,
            });
        }
        v |= group << (7 * i);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(PbCodecError::Overflow {
        field,
        value: v,
        wire_bits: 64,
    })
}

/// Zigzag-maps a signed delta so near-zero values (of either sign) get
/// short varints: 0, -1, 1, -2, ... → 0, 1, 2, 3, ...
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_getters_read_little_endian() {
        let mut b = Bytes::copy_from_slice(&[0xEF, 0xBE, 0xEF, 0xBE, 0xAD, 0xDE]);
        assert_eq!(get_u16(&mut b, "a").unwrap(), 0xBEEF);
        assert_eq!(get_u32(&mut b, "b").unwrap(), 0xDEAD_BEEF);
        assert!(b.is_empty());
    }

    #[test]
    fn short_buffers_are_reported_not_panicked() {
        let mut b = Bytes::copy_from_slice(&[0x01]);
        assert_eq!(
            get_u32(&mut b.clone(), "clock"),
            Err(PbCodecError::Truncated {
                field: "clock",
                need: 4,
                have: 1,
            })
        );
        assert_eq!(get_u16(&mut b, "rid").unwrap_err().field(), "rid");
        let mut empty = Bytes::new();
        assert!(get_u16(&mut empty, "rid").is_err());
    }

    #[test]
    fn uvarint_roundtrips_across_all_group_boundaries() {
        let mut cases = vec![0u64, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::MAX];
        for shift in 1..64 {
            cases.push(1 << shift);
            cases.push((1 << shift) - 1);
        }
        for v in cases {
            // Both sinks run the one writer: same length, and the bytes
            // decode back.
            let (mut out, mut len) = (Vec::new(), 0u64);
            put_uvarint(&mut out, v);
            put_uvarint(&mut len, v);
            assert_eq!(out.len() as u64, len, "len of {v:#x}");
            let started_groups = (64 - v.leading_zeros() as usize).max(1).div_ceil(7);
            assert_eq!(out.len(), started_groups, "len of {v:#x}");
            let mut b = Bytes::from(out);
            assert_eq!(get_uvarint(&mut b, "v").unwrap(), v, "{v:#x}");
            assert!(b.is_empty());
        }
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        // Continuation bit set, then the buffer ends.
        let mut b = Bytes::copy_from_slice(&[0x80]);
        assert_eq!(
            get_uvarint(&mut b, "delta"),
            Err(PbCodecError::Truncated {
                field: "delta",
                need: 1,
                have: 0,
            })
        );
        // Ten continuation bytes: more than 64 bits of payload.
        let mut b = Bytes::copy_from_slice(&[0xff; 10]);
        assert!(matches!(
            get_uvarint(&mut b, "delta"),
            Err(PbCodecError::Overflow { field: "delta", .. })
        ));
        // A tenth byte carrying more than the final u64 bit overflows
        // even without a continuation bit.
        let mut b =
            Bytes::copy_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]);
        assert!(matches!(
            get_uvarint(&mut b, "delta"),
            Err(PbCodecError::Overflow { .. })
        ));
    }

    #[test]
    fn zigzag_is_a_bijection_biased_to_small_magnitudes() {
        for v in [0i64, -1, 1, -2, 2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        // Deltas of ±63 or less fit a single varint byte.
        assert!(zigzag(63) < 0x80 && zigzag(-63) < 0x80);
    }
}
