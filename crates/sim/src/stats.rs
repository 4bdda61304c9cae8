//! Simulation statistics.
//!
//! The benchmark harnesses derive every paper table from these counters.
//! Byte counters are split by wire category so that Figure 7 ("piggybacked
//! bytes as a percentage of total exchanged bytes") can be computed exactly;
//! named counters let the protocol crates record protocol-specific
//! quantities (events piggybacked, graph vertices visited, ...) without the
//! kernel knowing about them.

use std::collections::BTreeMap;

use crate::net::WireSize;
use crate::time::SimDuration;

/// Number of power-of-two size buckets: bucket 47 absorbs everything at
/// or above 64 TiB, far beyond any message this simulation moves.
const HIST_BUCKETS: usize = 48;

/// Message-count histogram over power-of-two total-wire-size buckets.
///
/// Bucket `i` counts delivered messages whose total wire size (header +
/// payload + piggyback + control) is in `[2^(i-1)+1, 2^i]` bytes, with
/// bucket 0 holding empty and 1-byte messages. Workload harnesses use it
/// to characterize a traffic shape (LU's sub-kilobyte storms vs FT's
/// megabyte transposes) without logging every message.
#[derive(Clone, PartialEq, Eq)]
pub struct MsgHistogram {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for MsgHistogram {
    fn default() -> Self {
        MsgHistogram {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl MsgHistogram {
    /// Bucket index for a message of `bytes` total wire size.
    fn bucket_of(bytes: u64) -> usize {
        let ceil_log2 = (64 - bytes.saturating_sub(1).leading_zeros()) as usize;
        ceil_log2.min(HIST_BUCKETS - 1)
    }

    /// Records one message of `bytes` total wire size.
    pub fn record(&mut self, bytes: u64) {
        self.buckets[Self::bucket_of(bytes)] += 1;
    }

    /// Total messages recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Messages recorded in the bucket whose upper bound is `2^i` bytes.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Non-empty `(upper_bound_bytes, count)` pairs, smallest sizes first.
    pub fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i.min(63), c))
    }

    /// Inclusive byte range `[lo, hi]` of bucket `i`: bucket 0 holds 0-
    /// and 1-byte messages, bucket `i > 0` holds `2^(i-1)+1 ..= 2^i`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        let i = i.min(HIST_BUCKETS - 1).min(63);
        if i == 0 {
            (0, 1)
        } else {
            ((1u64 << (i - 1)) + 1, 1u64 << i)
        }
    }

    /// Upper bound (bytes) of the largest non-empty bucket, 0 when empty.
    pub fn max_bucket_bytes(&self) -> u64 {
        self.nonzero().map(|(b, _)| b).max().unwrap_or(0)
    }

    /// Merges another histogram into this one, bucket-wise. Commutative
    /// and associative, so shard-local histograms can be combined in any
    /// order.
    pub fn merge(&mut self, other: &MsgHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

impl std::fmt::Debug for MsgHistogram {
    /// Compact sparse form so report fingerprints stay readable, with
    /// each bucket labelled by its full power-of-two byte range:
    /// `{0..=1: 2, 33..=64: 12, 2049..=4096: 3}` — bucket `i > 0` spans
    /// `2^(i-1)+1 ..= 2^i` bytes, bucket 0 holds empty and 1-byte
    /// messages.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut map = f.debug_map();
        for (i, &count) in self.buckets.iter().enumerate().filter(|(_, &c)| c > 0) {
            let (lo, hi) = Self::bucket_range(i);
            map.entry(&format_args!("{lo}..={hi}"), &count);
        }
        map.finish()
    }
}

/// Aggregated counters for one simulation run.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// Number of network messages delivered.
    pub messages: u64,
    /// Bytes by category, summed over all delivered messages.
    pub bytes: WireSize,
    /// Message-count histogram over power-of-two wire-size buckets.
    pub msg_sizes: MsgHistogram,
    /// Companion histogram over per-message *piggyback* bytes, recorded
    /// only for messages that carry causality piggyback. Shows the shape
    /// of the metadata (is it one fat blob per burst or a trickle?)
    /// where `bytes.piggyback` only shows the volume.
    pub pb_sizes: MsgHistogram,
    /// Named additive counters (protocol-specific). A key belongs to
    /// exactly one of `counters`/`gauges` — additive keys are written
    /// through [`Stats::add`]/[`Stats::bump`], never [`Stats::set_max`].
    counters: BTreeMap<&'static str, u64>,
    /// Named peak gauges (queue depths, outstanding-event highs),
    /// written exclusively through [`Stats::set_max`]. Kept apart from
    /// the additive counters because they combine differently: `+` for
    /// counters, `max` for gauges.
    gauges: BTreeMap<&'static str, u64>,
    /// Named duration accumulators (protocol-specific).
    durations: BTreeMap<&'static str, SimDuration>,
}

impl Stats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one delivered message of the given wire size.
    pub fn record_message(&mut self, size: WireSize) {
        self.messages += 1;
        self.bytes.header += size.header;
        self.bytes.payload += size.payload;
        self.bytes.piggyback += size.piggyback;
        self.bytes.control += size.control;
        self.msg_sizes.record(size.total());
        if size.piggyback > 0 {
            self.pb_sizes.record(size.piggyback);
        }
    }

    /// Adds `v` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, key: &'static str, v: u64) {
        *self.counters.entry(key).or_insert(0) += v;
    }

    /// Increments the named counter by one.
    pub fn bump(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Raises the named gauge to `v` if `v` exceeds its current value
    /// (peak-gauge semantics: queue depths, outstanding-event highs).
    /// A gauge key must never also be written through [`Stats::add`].
    pub fn set_max(&mut self, key: &'static str, v: u64) {
        let slot = self.gauges.entry(key).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Current value of a named counter or gauge (zero if never
    /// written). Keys are disjoint across the two classes, so one
    /// lookup namespace serves both.
    pub fn get(&self, key: &str) -> u64 {
        self.counters
            .get(key)
            .or_else(|| self.gauges.get(key))
            .copied()
            .unwrap_or(0)
    }

    /// Adds to the named duration accumulator.
    pub fn add_time(&mut self, key: &'static str, d: SimDuration) {
        *self.durations.entry(key).or_default() += d;
    }

    /// Current value of a named duration accumulator.
    pub fn get_time(&self, key: &str) -> SimDuration {
        self.durations
            .get(key)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// All named additive counters, sorted by key (deterministic
    /// iteration).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All named peak gauges, sorted by key.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// All named duration accumulators, sorted by key.
    pub fn durations(&self) -> impl Iterator<Item = (&'static str, SimDuration)> + '_ {
        self.durations.iter().map(|(k, v)| (*k, *v))
    }

    /// Total bytes that crossed the network, all categories.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.total()
    }

    /// Piggybacked bytes as a percentage of all exchanged bytes
    /// (the Figure 7 metric). Returns 0 for an empty run.
    pub fn piggyback_percent(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            100.0 * self.bytes.piggyback as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_accounting() {
        let mut s = Stats::new();
        s.record_message(WireSize {
            header: 10,
            payload: 90,
            piggyback: 0,
            control: 0,
        });
        s.record_message(WireSize {
            header: 10,
            payload: 0,
            piggyback: 100,
            control: 0,
        });
        assert_eq!(s.messages, 2);
        assert_eq!(s.total_bytes(), 210);
        assert!((s.piggyback_percent() - 100.0 * 100.0 / 210.0).abs() < 1e-9);
    }

    #[test]
    fn named_counters_and_durations() {
        let mut s = Stats::new();
        s.bump("events");
        s.add("events", 4);
        assert_eq!(s.get("events"), 5);
        assert_eq!(s.get("missing"), 0);
        s.add_time("pb_send", SimDuration::from_micros(3));
        s.add_time("pb_send", SimDuration::from_micros(2));
        assert_eq!(s.get_time("pb_send").as_nanos(), 5_000);
        let keys: Vec<_> = s.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["events"]);
    }

    #[test]
    fn empty_run_has_no_piggyback_percent() {
        let s = Stats::new();
        assert_eq!(s.piggyback_percent(), 0.0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = MsgHistogram::default();
        for bytes in [0u64, 1, 2, 3, 64, 65, 1 << 20] {
            h.record(bytes);
        }
        // 0 and 1 land in bucket 0; 2 in bucket 1; 3 in bucket 2 (<=4);
        // 64 in bucket 6; 65 in bucket 7; 1 MiB in bucket 20.
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 1);
        assert_eq!(h.bucket(6), 1);
        assert_eq!(h.bucket(7), 1);
        assert_eq!(h.bucket(20), 1);
        assert_eq!(h.count(), 7);
        assert_eq!(h.max_bucket_bytes(), 1 << 20);
        let sparse: Vec<_> = h.nonzero().collect();
        assert_eq!(sparse[0], (1, 2));
        assert_eq!(sparse.last().copied(), Some((1 << 20, 1)));
    }

    #[test]
    fn histogram_absorbs_huge_messages_without_overflow() {
        let mut h = MsgHistogram::default();
        h.record(u64::MAX);
        h.record(1u64 << 50);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket(HIST_BUCKETS - 1), 2);
    }

    #[test]
    fn messages_land_in_the_stats_histogram() {
        let mut s = Stats::new();
        s.record_message(WireSize {
            header: 10,
            payload: 90,
            piggyback: 0,
            control: 0,
        });
        assert_eq!(s.msg_sizes.count(), 1);
        assert_eq!(s.msg_sizes.bucket(7), 1); // 100 bytes in 65..=128
        assert_eq!(format!("{:?}", s.msg_sizes), "{65..=128: 1}");
    }

    #[test]
    fn piggyback_histogram_counts_only_carrying_messages() {
        let mut s = Stats::new();
        s.record_message(WireSize {
            header: 10,
            payload: 90,
            piggyback: 0,
            control: 0,
        });
        s.record_message(WireSize {
            header: 10,
            payload: 0,
            piggyback: 100,
            control: 0,
        });
        // Both land in msg_sizes; only the carrier lands in pb_sizes,
        // bucketed by its piggyback bytes alone (100 -> 65..=128).
        assert_eq!(s.msg_sizes.count(), 2);
        assert_eq!(s.pb_sizes.count(), 1);
        assert_eq!(s.pb_sizes.bucket(7), 1);

        let mut other = Stats::new();
        other.record_message(WireSize {
            header: 0,
            payload: 0,
            piggyback: 3,
            control: 0,
        });
        s.pb_sizes.merge(&other.pb_sizes);
        assert_eq!(s.pb_sizes.count(), 2);
        assert_eq!(s.pb_sizes.bucket(2), 1);
    }

    #[test]
    fn debug_output_names_the_bucket_ranges() {
        let mut h = MsgHistogram::default();
        h.record(0);
        h.record(1);
        h.record(50);
        assert_eq!(format!("{h:?}"), "{0..=1: 2, 33..=64: 1}");
        assert_eq!(MsgHistogram::bucket_range(0), (0, 1));
        assert_eq!(MsgHistogram::bucket_range(1), (2, 2));
        assert_eq!(MsgHistogram::bucket_range(6), (33, 64));
        // The overflow bucket clamps at the largest representable range.
        let (lo, hi) = MsgHistogram::bucket_range(HIST_BUCKETS - 1);
        assert!(lo < hi);
    }

    #[test]
    fn set_max_keeps_the_peak() {
        let mut s = Stats::new();
        s.set_max("peak", 3);
        s.set_max("peak", 9);
        s.set_max("peak", 5);
        assert_eq!(s.get("peak"), 9);
        // set_max on a gauge that was never written creates it.
        s.set_max("fresh", 0);
        assert_eq!(s.get("fresh"), 0);
        // Gauges live in their own namespace, not among the counters.
        assert_eq!(s.counters().count(), 0);
        let gauges: Vec<_> = s.gauges().collect();
        assert_eq!(gauges, vec![("fresh", 0), ("peak", 9)]);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = MsgHistogram::default();
        a.record(1);
        a.record(100);
        let mut b = MsgHistogram::default();
        b.record(100);
        b.record(1 << 20);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.bucket(0), 1);
        assert_eq!(a.bucket(7), 2);
        assert_eq!(a.bucket(20), 1);
    }
}
