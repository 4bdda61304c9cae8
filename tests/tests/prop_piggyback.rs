//! Property-based tests of the piggyback wire formats.
//!
//! The compact format (varint + per-run delta + run-length) is the one
//! place in the codebase where a clever encoding could silently corrupt
//! causality information, so it gets the adversarial treatment: full
//! u64-range round trips (the deltas wrap), cross-format semantic
//! agreement on wire-range inputs, sink agreement (`wire_len` is the
//! encoder on a counting sink, `encode` the same code on a `Vec`),
//! independence of consecutive encodes, fixed wire bytes per format,
//! watermark-vector round trips, and truncation-never-panics over every
//! prefix of a valid encoding.

use proptest::prelude::*;
use vlog_core::piggyback::GROUP_MAX_EVENTS;
use vlog_core::{
    decode_compact, decode_watermarks, encode_watermarks, watermarks_len, Determinant, PbFormat,
};

const N: usize = 4;
const FORMATS: [PbFormat; 3] = [PbFormat::Flat, PbFormat::Factored, PbFormat::Compact];

/// The compact encoding (infallible: no wire limits).
fn encode_compact(dets: &[Determinant]) -> vlog_core::Bytes {
    PbFormat::Compact.encode(dets).unwrap()
}

/// `dets` with every field cut to the fixed formats' wire width — what
/// those encoders accept, and what their unvalidated layouts write.
fn wire_width(dets: &[Determinant]) -> Vec<Determinant> {
    dets.iter()
        .map(|d| Determinant {
            receiver: d.receiver as u16 as usize,
            clock: d.clock as u32 as u64,
            sender: d.sender as u16 as usize,
            ssn: d.ssn as u32 as u64,
            cause: d.cause as u32 as u64,
        })
        .collect()
}

/// Sink agreement for one input: each format's counter (`wire_len`, which
/// never validates) reports the length its `Vec` sink (`encode`) writes —
/// for the fixed-width formats, of the same events at wire width.
fn assert_sinks_agree(dets: &[Determinant]) {
    let fixed = wire_width(dets);
    for format in FORMATS {
        let carried = if format == PbFormat::Compact {
            dets
        } else {
            &fixed[..]
        };
        let buf = format.encode(carried).unwrap();
        assert_eq!(buf.len() as u64, format.wire_len(dets), "{format:?}");
        assert_eq!(format.decode(buf).unwrap(), carried, "{format:?}");
    }
    let wm: Vec<u64> = dets.iter().map(|d| d.clock).collect();
    let buf = encode_watermarks(&wm);
    assert_eq!(buf.len() as u64, watermarks_len(&wm));
    assert_eq!(decode_watermarks(buf).unwrap(), wm);
}

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

    /// The counter and the `Vec` sink agree for all three formats and
    /// the watermark vector on any determinant sequence — including
    /// clock/ssn/cause values at the u64 extremes, where compact's deltas
    /// wrap and the fixed formats' counter charges plain field widths.
    /// Compact round-trips the sequence in order.
    #[test]
    fn sinks_agree_on_extreme_determinants(dets in extreme_dets()) {
        assert_sinks_agree(&dets);
    }

    /// All three formats agree semantically on wire-range input: each
    /// decodes back to exactly what it encoded, at the length its
    /// counting sink reports. (Factored requires its canonical
    /// receiver-grouped order; sorting first puts all three on the same
    /// sequence.)
    #[test]
    fn formats_agree_on_wire_range_input(dets in wire_range_dets()) {
        let mut dets = dets;
        dets.sort_by_key(|d| (d.receiver, d.clock));
        for format in FORMATS {
            let buf = format.encode(&dets).unwrap();
            prop_assert_eq!(
                buf.len() as u64,
                format.wire_len(&dets),
                "sinks disagree for {:?}", format
            );
            prop_assert_eq!(
                format.decode(buf).unwrap(),
                dets.clone(),
                "{:?} did not round-trip", format
            );
        }
    }

    /// Two consecutive `encode` calls of different sizes are
    /// independent: encoding `b` between two encodes of `a` changes
    /// neither, and each buffer decodes back to its own input.
    #[test]
    fn consecutive_encodes_are_independent(a in wire_range_dets(), b in wire_range_dets()) {
        let sorted = |mut d: Vec<Determinant>| { d.sort_by_key(|d| (d.receiver, d.clock)); d };
        let (a, b) = (sorted(a), sorted(b));
        for format in FORMATS {
            let first = format.encode(&a).unwrap();
            let other = format.encode(&b).unwrap();
            prop_assert_eq!(&format.encode(&a).unwrap(), &first, "{:?}", format);
            prop_assert_eq!(format.decode(first).unwrap(), a.clone(), "{:?}", format);
            prop_assert_eq!(format.decode(other).unwrap(), b.clone(), "{:?}", format);
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
fn sinks_agree_across_the_fast_path_and_the_group_split() {
    // One receiver's run whose events alternate compact's all-single-byte
    // fast path with multi-byte varints (every third clock jumps to the
    // top of the u64 range, so the next delta wraps back down).
    let mixed: Vec<Determinant> = (0..64u64)
        .map(|i| Determinant {
            receiver: 5,
            clock: if i % 3 == 2 { u64::MAX - i } else { i + 1 },
            sender: (i % 4) as usize,
            ssn: i,
            cause: i,
        })
        .collect();
    let compact = encode_compact(&mixed);
    assert_eq!(
        &compact[..6],
        &[5, 64, 2, 0, 0, 0],
        "first event is fast-path"
    );
    assert!(
        compact.len() > 2 + 4 * mixed.len(),
        "multi-byte events exist"
    );
    assert_sinks_agree(&mixed);

    // A factored run one past the group cap: the split's second header
    // is counted and written.
    let split: Vec<Determinant> = (0..=GROUP_MAX_EVENTS)
        .map(|i| Determinant {
            receiver: 7,
            clock: i as u64 + 1,
            sender: 1,
            ssn: i as u64,
            cause: i as u64,
        })
        .collect();
    assert_eq!(
        PbFormat::Factored.wire_len(&split),
        2 * 4 + 14 * split.len() as u64
    );
    assert_sinks_agree(&split);
}

#[test]
fn empty_and_singleton_boundaries() {
    for format in FORMATS {
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
