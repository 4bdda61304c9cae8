//! Simulation statistics.
//!
//! The benchmark harnesses derive every paper table from these counters.
//! Byte counters are split by wire category so that Figure 7 ("piggybacked
//! bytes as a percentage of total exchanged bytes") can be computed exactly.
//! Named metrics are typed ids — [`Counter`], [`Gauge`] (shard-labelled
//! for the Event Logger) and [`Timer`] — whose `name()` is the one place
//! a printed name is spelled, so a wrong name or kind fails to compile.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

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

/// Additive counters, written only through [`Stats::bump`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    DispatcherFaults,
    DupDropped,
    ElAckSamples,
    ElBatches,
    ElDuplicateRecords,
    ElGossipMsgs,
    ElQueries,
    ElRecords,
    ElReshards,
    ElShardCrashes,
    GlobalRollbacks,
    NetDroppedDeadTarget,
    NodeCrashes,
}

impl Counter {
    /// The name the counter prints under (and [`Stats::get`] finds).
    pub fn name(self) -> &'static str {
        match self {
            Counter::DispatcherFaults => "dispatcher_faults",
            Counter::DupDropped => "dup_dropped",
            Counter::ElAckSamples => "el_ack_samples",
            Counter::ElBatches => "el_batches",
            Counter::ElDuplicateRecords => "el_duplicate_records",
            Counter::ElGossipMsgs => "el_gossip_msgs",
            Counter::ElQueries => "el_queries",
            Counter::ElRecords => "el_records",
            Counter::ElReshards => "el_reshards",
            Counter::ElShardCrashes => "el_shard_crashes",
            Counter::GlobalRollbacks => "global_rollbacks",
            Counter::NetDroppedDeadTarget => "net_dropped_dead_target",
            Counter::NodeCrashes => "node_crashes",
        }
    }
}

/// Peak gauges (queue depths, outstanding-event highs), written only
/// through [`Stats::set_max`]. The `ElShard*` gauges carry the index of
/// the Event Logger shard that recorded them; any index is valid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Gauge {
    ElAckLatencyPeakNs,
    ElPeakOutstanding,
    ElPeakQueue,
    ElShardAckPeakNs(usize),
    ElShardPeakQueue(usize),
}

impl Gauge {
    /// The name the gauge prints under (and [`Stats::get`] finds).
    pub fn name(self) -> Cow<'static, str> {
        match self {
            Gauge::ElAckLatencyPeakNs => "el_ack_latency_peak_ns".into(),
            Gauge::ElPeakOutstanding => "el_peak_outstanding".into(),
            Gauge::ElPeakQueue => "el_peak_queue".into(),
            Gauge::ElShardAckPeakNs(shard) => format!("el_ack_peak_s{shard}_ns").into(),
            Gauge::ElShardPeakQueue(shard) => format!("el_peak_queue_s{shard}").into(),
        }
    }
}

/// Duration accumulators, written only through [`Stats::add_time`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Timer {
    ElAckLatency,
}

impl Timer {
    /// The name the timer prints under.
    pub fn name(self) -> &'static str {
        match self {
            Timer::ElAckLatency => "el_ack_latency",
        }
    }
}

/// Aggregated counters for one simulation run.
#[derive(Default, Clone)]
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
    /// Each named metric written at least once (a gauge written at 0
    /// included), by kind.
    counters: BTreeMap<Counter, u64>,
    gauges: BTreeMap<Gauge, u64>,
    durations: BTreeMap<Timer, SimDuration>,
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

    /// Increments a counter by one.
    pub fn bump(&mut self, counter: Counter) {
        *self.counters.entry(counter).or_insert(0) += 1;
    }

    /// Raises a gauge to `v` if `v` exceeds its current value; the first
    /// write creates it, even at 0.
    pub fn set_max(&mut self, gauge: Gauge, v: u64) {
        let slot = self.gauges.entry(gauge).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Adds to a duration accumulator.
    pub fn add_time(&mut self, timer: Timer, d: SimDuration) {
        *self.durations.entry(timer).or_default() += d;
    }

    /// Current value of a counter (zero if never written).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(&counter).copied().unwrap_or(0)
    }

    /// Current value of a gauge (zero if never written).
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges.get(&gauge).copied().unwrap_or(0)
    }

    /// Current value of a duration accumulator.
    pub fn timer(&self, timer: Timer) -> SimDuration {
        self.durations.get(&timer).copied().unwrap_or_default()
    }

    /// Current value of the counter or gauge printed as `name` (zero if
    /// never written): the reader for code that holds a printed name
    /// rather than an id.
    pub fn get(&self, name: &str) -> u64 {
        let counters = self.counters.iter().map(|(c, v)| (Cow::from(c.name()), v));
        let gauges = self.gauges.iter().map(|(g, v)| (g.name(), v));
        counters
            .chain(gauges)
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
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

impl fmt::Debug for Stats {
    /// Prints each metric map under its printed names, sorted by name:
    /// the form report fingerprints pin.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let counters: BTreeMap<_, _> = self.counters.iter().map(|(c, v)| (c.name(), v)).collect();
        let gauges: BTreeMap<_, _> = self.gauges.iter().map(|(g, v)| (g.name(), v)).collect();
        let durations: BTreeMap<_, _> = self.durations.iter().map(|(t, d)| (t.name(), d)).collect();
        f.debug_struct("Stats")
            .field("messages", &self.messages)
            .field("bytes", &self.bytes)
            .field("msg_sizes", &self.msg_sizes)
            .field("pb_sizes", &self.pb_sizes)
            .field("counters", &counters)
            .field("gauges", &gauges)
            .field("durations", &durations)
            .finish()
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
        s.bump(Counter::ElRecords);
        s.bump(Counter::ElRecords);
        assert_eq!(s.counter(Counter::ElRecords), 2);
        assert_eq!(s.get("el_records"), 2);
        assert_eq!(s.counter(Counter::ElQueries), 0);
        assert_eq!(s.get("missing"), 0);
        s.add_time(Timer::ElAckLatency, SimDuration::from_micros(3));
        s.add_time(Timer::ElAckLatency, SimDuration::from_micros(2));
        assert_eq!(s.timer(Timer::ElAckLatency).as_nanos(), 5_000);
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
        s.set_max(Gauge::ElPeakQueue, 3);
        s.set_max(Gauge::ElPeakQueue, 9);
        s.set_max(Gauge::ElPeakQueue, 5);
        assert_eq!(s.gauge(Gauge::ElPeakQueue), 9);
        // Shard labels are independent gauges, and any index is valid.
        s.set_max(Gauge::ElShardPeakQueue(15), 4);
        assert_eq!(s.gauge(Gauge::ElShardPeakQueue(15)), 4);
        assert_eq!(s.gauge(Gauge::ElShardPeakQueue(14)), 0);
        assert_eq!(s.get("el_peak_queue_s15"), 4);
    }

    /// The `Debug` text is part of every pinned report fingerprint. The
    /// expected string is what the string-keyed `Stats` (a derived
    /// `Debug` over `&'static str`-keyed maps) printed for the same
    /// writes: names sorted, and a gauge written at 0 still shown.
    #[test]
    fn debug_output_is_the_pinned_text() {
        let mut s = Stats::new();
        s.record_message(WireSize {
            header: 10,
            payload: 90,
            piggyback: 4,
            control: 0,
        });
        s.bump(Counter::ElRecords);
        s.bump(Counter::ElRecords);
        s.bump(Counter::DispatcherFaults);
        s.set_max(Gauge::ElPeakOutstanding, 0);
        s.set_max(Gauge::ElShardPeakQueue(1), 4);
        s.set_max(Gauge::ElShardPeakQueue(0), 7);
        s.set_max(Gauge::ElShardAckPeakNs(0), 20_000);
        s.set_max(Gauge::ElPeakQueue, 7);
        s.add_time(Timer::ElAckLatency, SimDuration::from_micros(50));
        assert_eq!(
            format!("{s:?}"),
            "Stats { messages: 1, \
             bytes: WireSize { header: 10, payload: 90, piggyback: 4, control: 0 }, \
             msg_sizes: {65..=128: 1}, pb_sizes: {3..=4: 1}, \
             counters: {\"dispatcher_faults\": 1, \"el_records\": 2}, \
             gauges: {\"el_ack_peak_s0_ns\": 20000, \"el_peak_outstanding\": 0, \
             \"el_peak_queue\": 7, \"el_peak_queue_s0\": 7, \"el_peak_queue_s1\": 4}, \
             durations: {\"el_ack_latency\": 50.000us} }"
        );
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

/// A metric is a typed id, so a wrong one fails to compile. The right
/// kinds compile:
///
/// ```
/// use vlog_sim::{Counter, Gauge, Stats, Timer};
/// let mut stats = Stats::new();
/// stats.bump(Counter::ElRecords);
/// stats.set_max(Gauge::ElShardPeakQueue(16), 3);
/// stats.add_time(Timer::ElAckLatency, vlog_sim::SimDuration::ZERO);
/// ```
///
/// A misspelt metric does not:
///
/// ```compile_fail
/// vlog_sim::Stats::new().bump(vlog_sim::Counter::ElRecrods);
/// ```
///
/// Nor does a counter written as a gauge:
///
/// ```compile_fail
/// vlog_sim::Stats::new().set_max(vlog_sim::Counter::ElRecords, 3);
/// ```
///
/// Nor a metric named by a string:
///
/// ```compile_fail
/// vlog_sim::Stats::new().bump("el_records");
/// ```
#[cfg(doctest)]
pub struct TypedMetricIds;
