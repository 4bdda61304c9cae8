//! Property-based tests of the piggyback wire formats.
//!
//! The compact format (varint + per-run delta + run-length) is the one
//! place in the codebase where a clever encoding could silently corrupt
//! causality information, so it gets the adversarial treatment: full
//! u64-range round trips (the deltas wrap), cross-format semantic
//! agreement on wire-range inputs, length-function exactness, encoder
//! reuse, fixed wire bytes per format, watermark-vector round trips,
//! and truncation-never-panics over every prefix of a valid encoding.

use proptest::prelude::*;
use vlog_core::{
    compact_len, decode_compact, decode_watermarks, encode_compact, encode_watermarks,
    watermarks_len, Determinant, PbEncoder, PbFormat,
};

const N: usize = 4;

/// Determinants restricted to the flat/factored wire ranges (receiver
/// and sender u16, clock/ssn/cause u32), so all three formats can carry
/// them.
fn wire_range_dets() -> impl Strategy<Value = Vec<Determinant>> {
    prop::collection::vec(
        (0..N, 1u64..100_000, 0..N, 0u64..100_000, 0u64..100_000),
        0..60,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(receiver, clock, sender, ssn, cause)| Determinant {
                receiver,
                clock,
                sender,
                ssn,
                cause,
            })
            .collect()
    })
}

/// Determinants over the full u64 range — only the compact format (and
/// its wrapping deltas) must survive these.
fn extreme_dets() -> impl Strategy<Value = Vec<Determinant>> {
    prop::collection::vec(
        (
            0usize..u16::MAX as usize,
            prop_oneof![
                Just(0u64),
                Just(1),
                Just(u64::MAX - 1),
                Just(u64::MAX),
                any::<u64>()
            ],
            0usize..u16::MAX as usize,
            prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
            prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
        ),
        0..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(receiver, clock, sender, ssn, cause)| Determinant {
                receiver,
                clock,
                sender,
                ssn,
                cause,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Compact round-trips any determinant sequence, in order, at the
    /// exact length `compact_len` predicts — including clock/ssn/cause
    /// values at the u64 extremes, where the deltas wrap.
    #[test]
    fn compact_round_trips_extreme_determinants(dets in extreme_dets()) {
        let buf = encode_compact(&dets);
        prop_assert_eq!(buf.len() as u64, compact_len(&dets));
        prop_assert_eq!(decode_compact(buf).unwrap(), dets);
    }

    /// All three formats agree semantically on wire-range input: each
    /// decodes back to exactly what it encoded, through both the free
    /// functions and the `PbFormat` dispatch, at the advertised
    /// `wire_len`. (Factored requires its canonical receiver-grouped
    /// order; sorting first puts all three on the same sequence.)
    #[test]
    fn formats_agree_on_wire_range_input(dets in wire_range_dets()) {
        let mut dets = dets;
        dets.sort_by_key(|d| (d.receiver, d.clock));
        for format in [PbFormat::Flat, PbFormat::Factored, PbFormat::Compact] {
            let buf = format.encode(&dets).unwrap();
            prop_assert_eq!(
                buf.len() as u64,
                format.wire_len(&dets),
                "wire_len lied for {:?}", format
            );
            prop_assert_eq!(
                format.decode(buf).unwrap(),
                dets.clone(),
                "{:?} did not round-trip", format
            );
        }
    }

    /// A `PbEncoder` reused across many encodes stays exact for every
    /// format: its scratch buffer must fully reset, so each output has
    /// the advertised length and decodes back to its own input.
    #[test]
    fn reused_encoder_fully_resets(batches in prop::collection::vec(wire_range_dets(), 1..5)) {
        let mut enc = PbEncoder::new();
        for dets in &batches {
            let mut dets = dets.clone();
            dets.sort_by_key(|d| (d.receiver, d.clock));
            for format in [PbFormat::Flat, PbFormat::Factored, PbFormat::Compact] {
                let buf = enc.encode(format, &dets).unwrap();
                prop_assert_eq!(buf.len() as u64, format.wire_len(&dets), "{:?}", format);
                prop_assert_eq!(format.decode(buf).unwrap(), dets.clone(), "{:?}", format);
            }
        }
    }

    /// Watermark vectors round-trip at the advertised length for any
    /// contents, including the long mostly-flat vectors the RLE targets
    /// and fully distinct worst cases.
    #[test]
    fn watermarks_round_trip(wm in prop::collection::vec(
        prop_oneof![Just(0u64), 0u64..16, any::<u64>()],
        0..64,
    )) {
        let buf = encode_watermarks(&wm);
        prop_assert_eq!(buf.len() as u64, watermarks_len(&wm));
        prop_assert_eq!(decode_watermarks(buf).unwrap(), wm);
    }

    /// Decoding any strict prefix of a valid compact encoding is an
    /// error, never a panic, and never fabricates the full sequence.
    #[test]
    fn truncated_compact_never_panics(dets in wire_range_dets(), cut in any::<u64>()) {
        let full = encode_compact(&dets);
        if !full.is_empty() {
            let at = (cut % full.len() as u64) as usize; // 0..len: strict prefix
            let prefix = vlog_core::Bytes::copy_from_slice(&full.as_ref()[..at]);
            match decode_compact(prefix) {
                Err(_) => {}
                Ok(decoded) => prop_assert!(
                    decoded.len() < dets.len(),
                    "truncated buffer decoded the full sequence"
                ),
            }
        }
    }

    /// Same for truncated watermark vectors.
    #[test]
    fn truncated_watermarks_never_panic(wm in prop::collection::vec(any::<u64>(), 1..32)) {
        let full = encode_watermarks(&wm);
        for at in 0..full.len() {
            let prefix = vlog_core::Bytes::copy_from_slice(&full.as_ref()[..at]);
            prop_assert!(
                decode_watermarks(prefix).is_err(),
                "strict prefix of a non-empty vector decoded cleanly (cut at {at})"
            );
        }
    }
}

#[test]
fn empty_and_singleton_boundaries() {
    for format in [PbFormat::Flat, PbFormat::Factored, PbFormat::Compact] {
        let empty = format.encode(&[]).unwrap();
        assert_eq!(empty.len() as u64, format.wire_len(&[]));
        assert_eq!(format.decode(empty).unwrap(), Vec::new());

        let one = vec![Determinant {
            receiver: 2,
            clock: 7,
            sender: 1,
            ssn: 3,
            cause: 5,
        }];
        let buf = format.encode(&one).unwrap();
        assert_eq!(buf.len() as u64, format.wire_len(&one));
        // The fixed wire bytes (little-endian fields; compact zigzags
        // its deltas from 0: 7 -> 14, 3 -> 6, 5 -> 10).
        let wire: &[u8] = match format {
            PbFormat::Flat => &[2, 0, 7, 0, 0, 0, 1, 0, 3, 0, 0, 0, 5, 0, 0, 0],
            PbFormat::Factored => &[2, 0, 1, 0, 7, 0, 0, 0, 1, 0, 3, 0, 0, 0, 5, 0, 0, 0],
            PbFormat::Compact => &[2, 1, 14, 1, 6, 10],
        };
        assert_eq!(buf.as_ref(), wire, "{format:?}");
        assert_eq!(format.decode(buf).unwrap(), one);
    }
}

#[test]
fn compact_wins_on_realistic_clustered_piggyback() {
    // The shape a causal run actually produces: consecutive clocks,
    // runs of equal receivers, small ssn/cause values. Compact must
    // beat both fixed-width formats by at least 2x at 256 determinants
    // (the headline acceptance ratio for this wire format).
    let dets: Vec<Determinant> = (0..256)
        .map(|i| Determinant {
            receiver: (i / 64) % N,
            clock: 100 + i as u64 % 64,
            sender: (i % 3) as usize,
            ssn: i as u64 % 64,
            cause: 90 + i as u64 % 64,
        })
        .collect();
    let compact = PbFormat::Compact.wire_len(&dets);
    let flat = PbFormat::Flat.wire_len(&dets);
    let factored = PbFormat::Factored.wire_len(&dets);
    assert!(
        compact * 2 <= flat && compact * 2 <= factored,
        "compact lost its 2x margin: compact={compact} flat={flat} factored={factored}"
    );
}
