//! The piggyback wire formats (paper §III-C).
//!
//! *"In the implementation of Vcausal and Manetho protocols, in order to
//! reduce the piggybacked information size, the reception events are
//! factored by peer rank. These two implementations use the same
//! piggyback format: a list of `{rid, nb, sequence_of_events}` [...]
//! LogOn uses a partial order [...] it is not possible to factor events.
//! As a consequence, each event of the piggyback sequence contains the
//! receiver rank \[so\] for the same number of events to piggyback, the
//! actual size in bytes of data added to the message is higher for
//! LogOn."*
//!
//! The codecs are implemented byte-for-byte, and **each wire layout is
//! defined exactly once**: a function generic over a small byte sink
//! (`codec::Sink`) with two implementations, a `u64` byte counter and
//! `Vec<u8>`. [`PbFormat::wire_len`] — the length the simulation charges
//! on every causal send — is that function run on the counter;
//! [`PbFormat::encode`] is field validation plus the same function run on
//! a `Vec`. There is no separate length formula to keep in step with an
//! encoder, so the modeled wire equals the real wire by construction (the
//! watermark vector of GC notices follows the same rule). The flat codec
//! preserves the partial order LogOn relies on. Three formats are
//! selectable per suite ([`PbFormat`]): the paper's two historical
//! layouts, kept byte-identical as baselines, plus the `compact` format
//! that breaks their O(rank-count) field widths with LEB128 varints and
//! per-run delta encoding — see the [`PbFormat::Compact`] docs for the
//! layout.
//!
//! # Wire limits
//!
//! The `rid` and `sender` fields of the historical formats are u16 on the
//! wire and the per-group event count `nb` is u16. Encoding used to
//! truncate with `as u16`, silently wrapping for ranks ≥ 65 536 — and a
//! factored run of exactly 65 536 equal-receiver events encoded `nb = 0`,
//! making the decoder lose the whole group. Conversions are now checked:
//! out-of-range *values* (rank, clock, ssn) are reported as
//! [`PbCodecError`] instead of corrupting the stream, while over-long
//! runs — a shape limit, not a value limit — are transparently split into
//! several maximal groups, which the decoder reassembles for free. The
//! decode side is checked too: a truncated buffer is a
//! [`PbCodecError::Truncated`], not a panic. The compact format has no
//! value limits at all — every field travels as a varint.

use std::fmt;

use bytes::Bytes;
use vlog_vmpi::{RClock, Rank};

use crate::codec::{self, Sink};
use crate::event::Determinant;

/// Per-group header of the factored format: rid (u16) + nb (u16).
pub const GROUP_HEADER_BYTES: u64 = 4;
/// Per-event body bytes (shared by the two fixed-width formats).
pub const EVENT_BODY_BYTES: u64 = Determinant::BODY_BYTES;
/// Per-event bytes of the flat (LogOn) format: rid (u16) + body.
pub const FLAT_EVENT_BYTES: u64 = 2 + EVENT_BODY_BYTES;
/// Maximum events per factored group (the `nb` field is u16). Longer
/// equal-receiver runs are split into several groups by the encoder.
pub const GROUP_MAX_EVENTS: usize = u16::MAX as usize;

/// A piggyback wire-codec failure: a value that does not fit its wire
/// field on encode, or a buffer that ends mid-field on decode. A store's
/// packed entry ([`crate::event::PackedDet`]) refuses a field wider than
/// 32 bits with the same overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbCodecError {
    /// A determinant field does not fit its wire (or packed) representation.
    Overflow {
        /// Which wire field overflowed ("receiver", "sender", "clock", ...).
        field: &'static str,
        /// The offending value, widened.
        value: u64,
        /// Bits the wire format affords that field.
        wire_bits: u32,
    },
    /// The buffer ended in the middle of a wire field.
    Truncated {
        /// Which wire field was being decoded.
        field: &'static str,
        /// Bytes the field needed.
        need: usize,
        /// Bytes the buffer had left.
        have: usize,
    },
}

impl PbCodecError {
    /// The wire field the error is about, whichever side it hit.
    pub fn field(&self) -> &'static str {
        match self {
            PbCodecError::Overflow { field, .. } => field,
            PbCodecError::Truncated { field, .. } => field,
        }
    }
}

impl fmt::Display for PbCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PbCodecError::Overflow {
                field,
                value,
                wire_bits,
            } => write!(
                f,
                "piggyback codec: {field} = {value} exceeds the u{wire_bits} wire field"
            ),
            PbCodecError::Truncated { field, need, have } => write!(
                f,
                "piggyback codec: buffer truncated decoding {field} \
                 (needed {need} bytes, {have} left)"
            ),
        }
    }
}

impl std::error::Error for PbCodecError {}

/// Structured piggyback attached to a message by a causal protocol.
/// Travels structured through the simulated wire; [`PbFormat::wire_len`]
/// is the exact length its encoding has.
#[derive(Debug, Clone, Default)]
pub struct PbBody {
    /// The sender's reception clock at emission (the antecedence edge for
    /// the reception event this message will create at the destination).
    pub sender_clock: RClock,
    /// Determinants, in emission order (LogOn's partial order matters).
    pub dets: Vec<Determinant>,
}

/// The selectable piggyback wire format of a causal suite.
///
/// The simulation charges each message the exact encoded length of the
/// suite's format, so the choice shows up directly in the piggyback-share
/// figures. The historical formats are kept byte-identical as baselines;
/// `Compact` is the scaling format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbFormat {
    /// One `rid` per event (LogOn's order-preserving layout).
    Flat,
    /// Events factored by receiver rank, `{rid, nb, events}` groups
    /// (Vcausal/Manetho's layout).
    Factored,
    /// Varint/delta layout: maximal equal-receiver runs headed by
    /// `uvarint(rid), uvarint(nb)`, each event encoded as
    /// `uvarint(zigzag(Δclock)), uvarint(sender), uvarint(zigzag(Δssn)),
    /// uvarint(zigzag(Δcause))` with the deltas taken against the
    /// previous event of the same run (starting from 0). Reception
    /// clocks and ssns of one creator are near-consecutive, so the
    /// typical event costs 4 bytes instead of the fixed formats' 14–16,
    /// and no field carries a u16/u32 value limit.
    Compact,
}

impl PbFormat {
    /// Stable lowercase name (suite names and report keys carry it).
    pub fn label(&self) -> &'static str {
        match self {
            PbFormat::Flat => "flat",
            PbFormat::Factored => "factored",
            PbFormat::Compact => "compact",
        }
    }

    /// The single definition of this format's wire layout: every byte of
    /// `dets` goes to `out`, in wire order. [`PbFormat::wire_len`] and
    /// [`PbFormat::encode`] are this function on the two sinks.
    fn layout<S: Sink>(&self, dets: &[Determinant], out: &mut S) {
        match self {
            PbFormat::Flat => flat_layout(dets, out),
            PbFormat::Factored => factored_layout(dets, out),
            PbFormat::Compact => compact_layout(dets, out),
        }
    }

    /// Exact wire length of `dets` in this format: the layout run on the
    /// counting sink, unvalidated (a length has no field to overflow).
    pub fn wire_len(&self, dets: &[Determinant]) -> u64 {
        let mut len = 0;
        self.layout(dets, &mut len);
        len
    }

    /// Encodes `dets` in this format: one validation sweep for the
    /// fixed-width formats (compact has no wire limits and never fails),
    /// then the layout run on a buffer the counter sized.
    pub fn encode(&self, dets: &[Determinant]) -> Result<Bytes, PbCodecError> {
        if *self != PbFormat::Compact {
            validate(dets)?;
        }
        let mut out = Vec::with_capacity(self.wire_len(dets) as usize);
        self.layout(dets, &mut out);
        Ok(Bytes::from(out))
    }

    /// Decodes a buffer produced by [`PbFormat::encode`] of the same
    /// format.
    pub fn decode(&self, buf: Bytes) -> Result<Vec<Determinant>, PbCodecError> {
        match self {
            PbFormat::Flat => decode_flat(buf),
            PbFormat::Factored => decode_factored(buf),
            PbFormat::Compact => decode_compact(buf),
        }
    }
}

/// End of the run of equal-receiver events starting at `i`, cut at `max`
/// events — how both grouped layouts factor their input.
fn run_end(dets: &[Determinant], i: usize, max: usize) -> usize {
    let rid = dets[i].receiver;
    let mut j = i;
    while j < dets.len() && dets[j].receiver == rid && j - i < max {
        j += 1;
    }
    j
}

/// The 14-byte event body (clock u32, sender u16, ssn u32, cause u32 —
/// all little endian). The `as` casts cannot wrap on the encode path,
/// which has run [`validate`]; on the counting path only the width counts.
#[inline]
fn body_bytes(d: &Determinant) -> [u8; EVENT_BODY_BYTES as usize] {
    let mut b = [0u8; EVENT_BODY_BYTES as usize];
    b[0..4].copy_from_slice(&(d.clock as u32).to_le_bytes());
    b[4..6].copy_from_slice(&(d.sender as u16).to_le_bytes());
    b[6..10].copy_from_slice(&(d.ssn as u32).to_le_bytes());
    b[10..14].copy_from_slice(&(d.cause as u32).to_le_bytes());
    b
}

/// The factored `{rid, nb, events}` layout. Runs of equal receiver share
/// one group header, in input order (the caller's (creator, clock)
/// sorting survives); runs longer than [`GROUP_MAX_EVENTS`] split into
/// several maximal groups, one extra header per split.
fn factored_layout<S: Sink>(dets: &[Determinant], out: &mut S) {
    let mut i = 0;
    while i < dets.len() {
        let j = run_end(dets, i, GROUP_MAX_EVENTS);
        out.put(&(dets[i].receiver as u16).to_le_bytes());
        out.put(&((j - i) as u16).to_le_bytes());
        for d in &dets[i..j] {
            out.put(&body_bytes(d));
        }
        i = j;
    }
}

/// Decodes the factored format.
pub fn decode_factored(mut buf: Bytes) -> Result<Vec<Determinant>, PbCodecError> {
    let mut dets = Vec::new();
    while !buf.is_empty() {
        let rid = codec::get_u16(&mut buf, "receiver")? as Rank;
        let nb = codec::get_u16(&mut buf, "nb")? as usize;
        for _ in 0..nb {
            dets.push(Determinant::decode_body(rid, &mut buf)?);
        }
    }
    Ok(dets)
}

/// The flat (LogOn) layout: order-preserving, one rid per event.
fn flat_layout<S: Sink>(dets: &[Determinant], out: &mut S) {
    for d in dets {
        let mut e = [0u8; FLAT_EVENT_BYTES as usize];
        e[0..2].copy_from_slice(&(d.receiver as u16).to_le_bytes());
        e[2..].copy_from_slice(&body_bytes(d));
        out.put(&e);
    }
}

/// Decodes the flat format, preserving order.
pub fn decode_flat(mut buf: Bytes) -> Result<Vec<Determinant>, PbCodecError> {
    let mut dets = Vec::new();
    while !buf.is_empty() {
        let rid = codec::get_u16(&mut buf, "receiver")? as Rank;
        dets.push(Determinant::decode_body(rid, &mut buf)?);
    }
    Ok(dets)
}

/// The per-run delta state of the compact codec. Every field starts at
/// zero at each run header, so runs decode independently.
#[derive(Default, Clone, Copy)]
struct CompactRunState {
    clock: u64,
    ssn: u64,
    cause: u64,
}

impl CompactRunState {
    /// The four varints of one event against this state, as
    /// (Δclock-zigzagged, sender, Δssn-zigzagged, Δcause-zigzagged);
    /// advances the state.
    fn deltas(&mut self, d: &Determinant) -> [u64; 4] {
        let dz = |prev: u64, cur: u64| codec::zigzag((cur as i64).wrapping_sub(prev as i64));
        let out = [
            dz(self.clock, d.clock),
            d.sender as u64,
            dz(self.ssn, d.ssn),
            dz(self.cause, d.cause),
        ];
        self.clock = d.clock;
        self.ssn = d.ssn;
        self.cause = d.cause;
        out
    }
}

/// The compact varint/delta layout (see [`PbFormat::Compact`]): one
/// `uvarint(rid), uvarint(nb)` header per maximal run, no group cap.
fn compact_layout<S: Sink>(dets: &[Determinant], out: &mut S) {
    let mut i = 0;
    while i < dets.len() {
        let j = run_end(dets, i, usize::MAX);
        codec::put_uvarint(out, dets[i].receiver as u64);
        codec::put_uvarint(out, (j - i) as u64);
        let mut st = CompactRunState::default();
        for d in &dets[i..j] {
            let vs = st.deltas(d);
            if (vs[0] | vs[1] | vs[2] | vs[3]) < 0x80 {
                // Steady-state clustered piggyback: all four varints are
                // single-byte, so they go out as one fixed-size store
                // (and count as a constant 4) instead of four loops.
                out.put(&[vs[0] as u8, vs[1] as u8, vs[2] as u8, vs[3] as u8]);
            } else {
                for v in vs {
                    codec::put_uvarint(out, v);
                }
            }
        }
        i = j;
    }
}

/// Decodes the compact format, preserving order.
pub fn decode_compact(mut buf: Bytes) -> Result<Vec<Determinant>, PbCodecError> {
    let mut dets = Vec::new();
    while !buf.is_empty() {
        let rid = codec::get_uvarint(&mut buf, "receiver")? as Rank;
        let nb = codec::get_uvarint(&mut buf, "nb")? as usize;
        let mut st = CompactRunState::default();
        for _ in 0..nb {
            let undz = |prev: u64, z: u64| prev.wrapping_add(codec::unzigzag(z) as u64);
            let clock = undz(st.clock, codec::get_uvarint(&mut buf, "clock")?);
            let sender = codec::get_uvarint(&mut buf, "sender")? as Rank;
            let ssn = undz(st.ssn, codec::get_uvarint(&mut buf, "ssn")?);
            let cause = undz(st.cause, codec::get_uvarint(&mut buf, "cause")?);
            st.clock = clock;
            st.ssn = ssn;
            st.cause = cause;
            dets.push(Determinant {
                receiver: rid,
                clock,
                sender,
                ssn,
                cause,
            });
        }
    }
    Ok(dets)
}

/// The watermark-vector layout, run-length + delta style: `uvarint(n)`,
/// then `(uvarint(run_len), uvarint(zigzag(Δvalue)))` per maximal run of
/// equal values. Stability vectors are long and mostly flat (many ranks
/// share a watermark), so this is a handful of bytes where the raw
/// vector is `8n`.
fn watermarks_layout<S: Sink>(wm: &[RClock], out: &mut S) {
    codec::put_uvarint(out, wm.len() as u64);
    let mut prev = 0u64;
    let mut i = 0;
    while i < wm.len() {
        let mut j = i;
        while j < wm.len() && wm[j] == wm[i] {
            j += 1;
        }
        codec::put_uvarint(out, (j - i) as u64);
        codec::put_uvarint(out, codec::zigzag((wm[i] as i64).wrapping_sub(prev as i64)));
        prev = wm[i];
        i = j;
    }
}

/// Exact wire length of [`encode_watermarks`] for `wm`: the same layout
/// on the counting sink.
pub fn watermarks_len(wm: &[RClock]) -> u64 {
    let mut len = 0;
    watermarks_layout(wm, &mut len);
    len
}

/// Encodes a per-rank watermark vector (layout: `watermarks_layout`).
pub fn encode_watermarks(wm: &[RClock]) -> Bytes {
    let mut out = Vec::with_capacity(watermarks_len(wm) as usize);
    watermarks_layout(wm, &mut out);
    Bytes::from(out)
}

/// Decodes an [`encode_watermarks`] vector. Runs that overshoot the
/// declared length are an overflow of the `wm_run` field.
pub fn decode_watermarks(mut buf: Bytes) -> Result<Vec<RClock>, PbCodecError> {
    let n = codec::get_uvarint(&mut buf, "wm_len")? as usize;
    let mut wm = Vec::with_capacity(n);
    let mut prev = 0u64;
    while wm.len() < n {
        let run = codec::get_uvarint(&mut buf, "wm_run")? as usize;
        if run == 0 || run > n - wm.len() {
            return Err(PbCodecError::Overflow {
                field: "wm_run",
                value: run as u64,
                wire_bits: 64,
            });
        }
        let z = codec::get_uvarint(&mut buf, "wm_delta")?;
        let v = prev.wrapping_add(codec::unzigzag(z) as u64);
        wm.extend(std::iter::repeat_n(v, run));
        prev = v;
    }
    Ok(wm)
}

/// One validation sweep over every wire field, in encode order
/// (receiver, clock, sender, ssn, cause per event): the first field of
/// the first event that overflows is the one reported.
fn validate(dets: &[Determinant]) -> Result<(), PbCodecError> {
    let fits = |field, value: u64, wire_bits: u32| match value >> wire_bits {
        0 => Ok(()),
        _ => Err(PbCodecError::Overflow {
            field,
            value,
            wire_bits,
        }),
    };
    for d in dets {
        fits("receiver", d.receiver as u64, 16)?;
        fits("clock", d.clock, 32)?;
        fits("sender", d.sender as u64, 16)?;
        fits("ssn", d.ssn, 32)?;
        fits("cause", d.cause, 32)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::PbFormat::{Compact, Factored, Flat};
    use super::*;

    fn det(receiver: Rank, clock: RClock, sender: Rank) -> Determinant {
        Determinant {
            receiver,
            clock,
            sender,
            ssn: clock * 10,
            cause: clock.saturating_sub(1),
        }
    }

    #[test]
    fn factored_roundtrip_and_length() {
        let dets = vec![det(0, 1, 1), det(0, 2, 2), det(1, 1, 0), det(2, 5, 0)];
        let enc = Factored.encode(&dets).unwrap();
        assert_eq!(enc.len() as u64, Factored.wire_len(&dets));
        assert_eq!(
            Factored.wire_len(&dets),
            3 * GROUP_HEADER_BYTES + 4 * EVENT_BODY_BYTES
        );
        assert_eq!(decode_factored(enc).unwrap(), dets);
    }

    #[test]
    fn flat_roundtrip_preserves_order() {
        // Deliberately interleaved receivers: flat keeps the order, which
        // is what LogOn's partial-order decode relies on.
        let dets = vec![det(2, 9, 0), det(0, 1, 1), det(2, 8, 1), det(1, 3, 2)];
        let enc = Flat.encode(&dets).unwrap();
        assert_eq!(enc.len() as u64, Flat.wire_len(&dets));
        assert_eq!(decode_flat(enc).unwrap(), dets);
    }

    #[test]
    fn compact_roundtrip_length_and_order() {
        // Interleaved receivers, non-monotone clocks inside a run, and
        // ssn/cause jumps in both directions: every delta sign shows up.
        let dets = vec![
            det(2, 9, 0),
            det(2, 8, 1),
            det(0, 1, 1),
            det(0, 5, 3),
            det(0, 2, 0),
            det(1, 3, 2),
        ];
        let enc = Compact.encode(&dets).unwrap();
        assert_eq!(enc.len() as u64, Compact.wire_len(&dets));
        assert_eq!(decode_compact(enc).unwrap(), dets);
        // Empty input is zero bytes like the other formats.
        assert_eq!(Compact.wire_len(&[]), 0);
        assert!(Compact.encode(&[]).unwrap().is_empty());
        assert_eq!(decode_compact(Bytes::new()).unwrap(), Vec::new());
    }

    #[test]
    fn compact_carries_values_beyond_the_fixed_wire_limits() {
        // The historical formats reject these; compact has no limits.
        let dets = vec![
            det(u16::MAX as Rank + 7, u32::MAX as u64 + 5, 3),
            Determinant {
                receiver: u16::MAX as Rank + 7,
                clock: u64::MAX,
                sender: u16::MAX as Rank + 1,
                ssn: u64::MAX,
                cause: 0,
            },
        ];
        assert!(Factored.encode(&dets).is_err());
        assert!(Flat.encode(&dets).is_err());
        let enc = Compact.encode(&dets).unwrap();
        assert_eq!(enc.len() as u64, Compact.wire_len(&dets));
        assert_eq!(decode_compact(enc).unwrap(), dets);
    }

    #[test]
    fn compact_beats_flat_at_the_acceptance_shape() {
        // The acceptance shape, 256 determinants (4 receivers, sorted
        // by (receiver, clock)): the acceptance criterion is >= 2x fewer
        // wire bytes than flat. Consecutive clocks/ssns per run delta to
        // single-byte varints, so compact lands near 4 B/event.
        let mut dets: Vec<Determinant> = (0..256usize)
            .map(|i| Determinant {
                receiver: i % 4,
                clock: (i / 4 + 1) as u64,
                sender: (i + 1) % 4,
                ssn: i as u64,
                cause: (i / 4) as u64,
            })
            .collect();
        dets.sort_by_key(|d| (d.receiver, d.clock));
        let compact = Compact.wire_len(&dets);
        assert!(
            2 * compact <= Flat.wire_len(&dets),
            "compact {compact} B vs flat {} B: less than 2x win",
            Flat.wire_len(&dets)
        );
        assert!(
            2 * compact <= Factored.wire_len(&dets),
            "compact {compact} B vs factored {} B: less than 2x win",
            Factored.wire_len(&dets)
        );
        assert_eq!(
            decode_compact(Compact.encode(&dets).unwrap()).unwrap(),
            dets
        );
    }

    #[test]
    fn truncated_buffers_are_errors_not_panics() {
        let dets = vec![det(0, 1, 1), det(0, 2, 2), det(1, 1, 0)];
        let fac = Factored.encode(&dets).unwrap();
        assert!(decode_factored(fac.slice(..fac.len() - 3)).is_err());
        assert_eq!(
            decode_factored(fac.slice(..3)).unwrap_err().field(),
            "nb",
            "a clipped group header names the field it died in"
        );
        let flat = Flat.encode(&dets).unwrap();
        assert!(decode_flat(flat.slice(..flat.len() - 1)).is_err());
        let comp = Compact.encode(&dets).unwrap();
        assert!(decode_compact(comp.slice(..comp.len() - 1)).is_err());
    }

    #[test]
    fn watermark_vectors_roundtrip_and_compress_flat_runs() {
        let cases: Vec<Vec<RClock>> = vec![
            vec![],
            vec![0],
            vec![7; 32],
            vec![5, 5, 5, 0, 0, 9, 9, 9, 9, 8],
            (0..100).collect(),
        ];
        for wm in &cases {
            let enc = encode_watermarks(wm);
            assert_eq!(enc.len() as u64, watermarks_len(wm), "{wm:?}");
            assert_eq!(&decode_watermarks(enc).unwrap(), wm, "{wm:?}");
        }
        // A 32-rank all-equal vector is 3 bytes, not 256.
        assert_eq!(watermarks_len(&vec![7; 32]), 3);
        // Truncation and a lying run length are both checked errors.
        let enc = encode_watermarks(&[5, 5, 9]);
        assert!(decode_watermarks(enc.slice(..enc.len() - 1)).is_err());
        let mut lying = Vec::new();
        codec::put_uvarint(&mut lying, 2); // n = 2
        codec::put_uvarint(&mut lying, 3); // run of 3 > n
        codec::put_uvarint(&mut lying, 0);
        assert!(matches!(
            decode_watermarks(Bytes::from(lying)),
            Err(PbCodecError::Overflow {
                field: "wm_run",
                ..
            })
        ));
    }

    #[test]
    fn every_format_roundtrips_through_the_dispatch() {
        let dets = vec![det(0, 1, 1), det(0, 2, 2), det(1, 1, 0)];
        for f in [Flat, Factored, Compact] {
            let enc = f.encode(&dets).unwrap();
            assert_eq!(enc.len() as u64, f.wire_len(&dets), "{}", f.label());
            assert_eq!(f.decode(enc).unwrap(), dets, "{}", f.label());
        }
        assert!(Compact.wire_len(&dets) < Factored.wire_len(&dets).min(Flat.wire_len(&dets)));
    }

    #[test]
    fn flat_is_bigger_per_event_once_factoring_helps() {
        // Two events of one receiver break even; three or more win.
        let two = vec![det(0, 1, 1), det(0, 2, 1)];
        assert!(Factored.wire_len(&two) <= Flat.wire_len(&two));
        let three = vec![det(0, 1, 1), det(0, 2, 1), det(0, 3, 1)];
        assert!(Factored.wire_len(&three) < Flat.wire_len(&three));
        // One event: factored pays a header for a single event and loses
        // (the paper's "LU on four nodes" case where nothing factors).
        let single = vec![det(0, 1, 1)];
        assert!(Factored.wire_len(&single) > Flat.wire_len(&single));
    }

    #[test]
    fn empty_piggyback_is_zero_bytes() {
        assert_eq!(Factored.wire_len(&[]), 0);
        assert_eq!(Flat.wire_len(&[]), 0);
        assert!(Factored.encode(&[]).unwrap().is_empty());
        assert!(Flat.encode(&[]).unwrap().is_empty());
    }

    #[test]
    fn rank_at_the_u16_boundary_roundtrips() {
        let dets = vec![det(u16::MAX as Rank, 3, u16::MAX as Rank)];
        let enc = Factored.encode(&dets).unwrap();
        assert_eq!(decode_factored(enc).unwrap(), dets);
        let enc = Flat.encode(&dets).unwrap();
        assert_eq!(decode_flat(enc).unwrap(), dets);
    }

    #[test]
    fn rank_beyond_the_u16_boundary_is_an_error_not_a_wrap() {
        // Regression: `as u16` used to silently encode rank 65 536 as
        // rank 0, corrupting the determinant stream for large clusters.
        let oversized = vec![det(u16::MAX as Rank + 1, 3, 0)];
        let err = Factored.encode(&oversized).unwrap_err();
        assert_eq!(
            err,
            PbCodecError::Overflow {
                field: "receiver",
                value: u16::MAX as u64 + 1,
                wire_bits: 16,
            }
        );
        assert!(Flat.encode(&oversized).is_err());
        // Same for the sender field inside the shared event body.
        let bad_sender = vec![det(0, 3, u16::MAX as Rank + 1)];
        assert_eq!(Factored.encode(&bad_sender).unwrap_err().field(), "sender");
        assert_eq!(Flat.encode(&bad_sender).unwrap_err().field(), "sender");
        // And for the u32 body fields.
        let bad_clock = vec![Determinant {
            clock: u32::MAX as u64 + 1,
            ..det(0, 1, 1)
        }];
        assert_eq!(Flat.encode(&bad_clock).unwrap_err().field(), "clock");
        let err = Flat.encode(&bad_clock).unwrap_err();
        assert!(err.to_string().contains("clock"), "{err}");
    }

    /// The golden input: a two-event run, then a run whose receiver and
    /// fields expose every byte's position (little endian) and whose
    /// second event steps *backwards* (negative compact deltas).
    fn golden_dets() -> Vec<Determinant> {
        vec![
            det(0, 1, 1),
            det(0, 2, 2),
            Determinant {
                receiver: 0x0102,
                clock: 0x0102_0304,
                sender: 0x0506,
                ssn: 0x0708_090A,
                cause: 0x0B0C_0D0E,
            },
            Determinant {
                receiver: 0x0102,
                clock: 5,
                sender: 1,
                ssn: 3,
                cause: 0,
            },
        ]
    }

    /// `rid u16` + body per event.
    const GOLDEN_FLAT: [u8; 64] = [
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x14, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x00, 0x00, 0x02, 0x01, 0x04, 0x03, 0x02, 0x01, 0x06, 0x05, 0x0a, 0x09, 0x08, 0x07, 0x0e,
        0x0d, 0x0c, 0x0b, 0x02, 0x01, 0x05, 0x00, 0x00, 0x00, 0x01, 0x00, 0x03, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00,
    ];
    /// `{rid u16, nb u16}` + bodies per run.
    const GOLDEN_FACTORED: [u8; 64] = [
        0x00, 0x00, 0x02, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x14, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x00, 0x00, 0x02, 0x01, 0x02, 0x00, 0x04, 0x03, 0x02, 0x01, 0x06, 0x05, 0x0a, 0x09, 0x08,
        0x07, 0x0e, 0x0d, 0x0c, 0x0b, 0x05, 0x00, 0x00, 0x00, 0x01, 0x00, 0x03, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00,
    ];
    /// `uvarint rid, uvarint nb` + four zigzag/delta varints per event.
    const GOLDEN_COMPACT: [u8; 42] = [
        0x00, 0x02, 0x02, 0x01, 0x14, 0x00, 0x02, 0x02, 0x14, 0x02, 0x82, 0x02, 0x02, 0x88, 0x8c,
        0x90, 0x10, 0x86, 0x0a, 0x94, 0xa4, 0xc0, 0x70, 0x9c, 0xb4, 0xe0, 0xb0, 0x01, 0xfd, 0x8b,
        0x90, 0x10, 0x01, 0x8d, 0xa4, 0xc0, 0x70, 0x9b, 0xb4, 0xe0, 0xb0, 0x01,
    ];

    #[test]
    fn every_format_encodes_to_its_fixed_wire_bytes() {
        // The expectations were computed independently of this crate
        // (struct.pack / LEB128 by hand), so they pin the wire, not the
        // encoder's agreement with itself.
        let dets = golden_dets();
        let golden: [(PbFormat, &[u8]); 3] = [
            (Flat, &GOLDEN_FLAT),
            (Factored, &GOLDEN_FACTORED),
            (Compact, &GOLDEN_COMPACT),
        ];
        for (format, bytes) in golden {
            assert_eq!(&format.encode(&dets).unwrap()[..], bytes, "{format:?}");
            assert_eq!(format.wire_len(&dets), bytes.len() as u64, "{format:?}");
            assert_eq!(
                format.decode(Bytes::copy_from_slice(bytes)).unwrap(),
                dets,
                "{format:?}"
            );
            // Consecutive encodes are independent: a larger one in
            // between leaves nothing behind.
            let big: Vec<Determinant> = (1..200).map(|c| det(3, c, 1)).collect();
            assert_eq!(
                format.encode(&big).unwrap().len() as u64,
                format.wire_len(&big)
            );
            assert_eq!(&format.encode(&dets).unwrap()[..], bytes, "{format:?}");
            assert!(format.encode(&[]).unwrap().is_empty(), "{format:?}");
        }
    }

    /// `format`'s layout, unvalidated, on the counter and on a `Vec`.
    fn on_both_sinks(format: PbFormat, dets: &[Determinant]) -> (u64, Vec<u8>) {
        let (mut len, mut out) = (0, Vec::new());
        format.layout(dets, &mut len);
        format.layout(dets, &mut out);
        (len, out)
    }

    #[test]
    fn the_counter_and_the_vec_sink_agree_on_every_layout() {
        // One compact run alternating the all-single-byte fast path with
        // multi-byte varints: two clocks step by one, the third jumps to
        // the top of the u64 range (and the next delta wraps back).
        let mixed: Vec<Determinant> = (0..64u64)
            .map(|i| Determinant {
                receiver: 5,
                clock: if i % 3 == 2 { u64::MAX - i } else { i + 1 },
                sender: (i % 4) as Rank,
                ssn: i,
                cause: i,
            })
            .collect();
        let (len, out) = on_both_sinks(Compact, &mixed);
        assert_eq!(&out[..6], &[5, 64, 2, 0, 0, 0], "first event is fast-path");
        assert!(len > 2 + 4 * 64, "some events carry multi-byte varints");
        assert_eq!(decode_compact(Bytes::from(out)).unwrap(), mixed);

        // A factored run one past the group cap (the split costs a
        // second header), and values no fixed-width field can hold (the
        // counter does not validate: it charges the field widths).
        let split: Vec<Determinant> = (0..=GROUP_MAX_EVENTS)
            .map(|i| det(7, i as u64 + 1, 1))
            .collect();
        let wild = vec![
            Determinant {
                receiver: u16::MAX as Rank + 7,
                clock: u64::MAX,
                sender: u16::MAX as Rank + 1,
                ssn: u64::MAX - 1,
                cause: 1 << 40,
            },
            det(u16::MAX as Rank + 7, 3, 0),
        ];
        for dets in [&golden_dets(), &mixed, &split, &wild, &Vec::new()] {
            for format in [Flat, Factored, Compact] {
                let (len, out) = on_both_sinks(format, dets);
                assert_eq!(len, out.len() as u64, "{format:?}");
                assert_eq!(format.wire_len(dets), len, "{format:?}");
                if let Ok(enc) = format.encode(dets) {
                    assert_eq!(enc, out, "{format:?}");
                }
            }
        }
        assert_eq!(
            Factored.wire_len(&split),
            2 * GROUP_HEADER_BYTES + split.len() as u64 * EVENT_BODY_BYTES
        );

        let vectors: [&[RClock]; 5] = [
            &[],
            &[0],
            &[7; 32],
            &[u64::MAX, 0, 0, u64::MAX, 1 << 35],
            &[5, 5, 5, 0, 0, 9, 9, 9, 9, 8],
        ];
        for wm in vectors {
            let (mut len, mut out) = (0u64, Vec::new());
            watermarks_layout(wm, &mut len);
            watermarks_layout(wm, &mut out);
            assert_eq!(len, out.len() as u64, "{wm:?}");
            assert_eq!(watermarks_len(wm), len, "{wm:?}");
            assert_eq!(encode_watermarks(wm), out, "{wm:?}");
        }
    }

    #[test]
    fn a_run_past_group_max_events_splits_at_fixed_offsets() {
        let n = GROUP_MAX_EVENTS + 3;
        let long: Vec<Determinant> = (0..n).map(|i| det(7, i as u64 + 1, 1)).collect();
        let enc = Factored.encode(&long).unwrap();
        let group = GROUP_HEADER_BYTES as usize;
        let body = EVENT_BODY_BYTES as usize;
        let second = group + GROUP_MAX_EVENTS * body;
        assert_eq!(enc.len(), 2 * group + n * body);
        // First header: rid 7, nb 0xffff; its first body starts clock 1.
        assert_eq!(&enc[..group + 6], &[7, 0, 0xff, 0xff, 1, 0, 0, 0, 1, 0]);
        // Second header, exactly one maximal group later: rid 7, nb 3,
        // continuing at clock 65 536 = 0x0001_0000.
        assert_eq!(
            &enc[second..second + group + 6],
            &[7, 0, 3, 0, 0, 0, 1, 0, 1, 0]
        );
        // The flat layout has no groups to split.
        assert_eq!(
            Flat.encode(&long).unwrap().len() as u64,
            Flat.wire_len(&long)
        );
    }

    #[test]
    fn each_wire_field_overflows_to_its_own_error() {
        let ok = det(0, 1, 1);
        let over16 = u16::MAX as u64 + 1;
        let over32 = u32::MAX as u64 + 1;
        let cases: [(Determinant, &str, u64, u32); 5] = [
            (
                Determinant {
                    receiver: over16 as Rank,
                    ..ok
                },
                "receiver",
                over16,
                16,
            ),
            (
                Determinant {
                    clock: over32,
                    ..ok
                },
                "clock",
                over32,
                32,
            ),
            (
                Determinant {
                    sender: over16 as Rank,
                    ..ok
                },
                "sender",
                over16,
                16,
            ),
            (Determinant { ssn: over32, ..ok }, "ssn", over32, 32),
            (
                Determinant {
                    cause: over32,
                    ..ok
                },
                "cause",
                over32,
                32,
            ),
        ];
        for (bad, field, value, wire_bits) in cases {
            let expected = PbCodecError::Overflow {
                field,
                value,
                wire_bits,
            };
            // Behind a good event, so the sweep has to reach it.
            let dets = [ok, bad];
            assert_eq!(Factored.encode(&dets).unwrap_err(), expected);
            assert_eq!(Flat.encode(&dets).unwrap_err(), expected);
            // Compact carries it.
            assert_eq!(
                decode_compact(Compact.encode(&dets).unwrap()).unwrap(),
                dets
            );
        }
        // Error order: the first overflowing field in encode order
        // (receiver, clock, sender, ssn, cause) of the first bad event.
        let all_bad = Determinant {
            receiver: over16 as Rank,
            clock: over32,
            sender: over16 as Rank,
            ssn: over32,
            cause: over32,
        };
        let late_fields = Determinant {
            ssn: over32,
            cause: over32,
            ..ok
        };
        assert_eq!(Flat.encode(&[all_bad]).unwrap_err().field(), "receiver");
        assert_eq!(
            Factored
                .encode(&[late_fields, all_bad])
                .unwrap_err()
                .field(),
            "ssn"
        );
    }

    #[test]
    fn runs_longer_than_a_group_split_and_roundtrip() {
        // Regression: a run of exactly 65 536 equal-receiver events used
        // to encode `nb = 0`, silently dropping the group on decode. The
        // encoder now splits it into maximal groups.
        let n = GROUP_MAX_EVENTS + 3;
        let long: Vec<Determinant> = (0..n).map(|i| det(7, i as u64 + 1, 1)).collect();
        let expected_len = 2 * GROUP_HEADER_BYTES + n as u64 * EVENT_BODY_BYTES;
        assert_eq!(Factored.wire_len(&long), expected_len);
        let enc = Factored.encode(&long).unwrap();
        assert_eq!(enc.len() as u64, expected_len);
        assert_eq!(decode_factored(enc).unwrap(), long);
        // A run of exactly the maximum stays a single group.
        let exact: Vec<Determinant> = (0..GROUP_MAX_EVENTS)
            .map(|i| det(7, i as u64 + 1, 1))
            .collect();
        assert_eq!(
            Factored.wire_len(&exact),
            GROUP_HEADER_BYTES + GROUP_MAX_EVENTS as u64 * EVENT_BODY_BYTES
        );
        assert_eq!(
            decode_factored(Factored.encode(&exact).unwrap()).unwrap(),
            exact
        );
        // Compact has no group cap: one run header for the whole thing.
        let comp = Compact.encode(&long).unwrap();
        assert_eq!(comp.len() as u64, Compact.wire_len(&long));
        assert_eq!(decode_compact(comp).unwrap(), long);
    }
}
