//! Per-operation probes: a layer's public entry point driven alone, in
//! a loop shaped by what the workload's traced iteration did (its event
//! count, its message-size histogram, its rank count). A probe says what
//! one operation costs when nothing else competes for the cache; the
//! profiler's busy time says what the layer cost inside the run. Each
//! probe is capped so the whole set stays well under a second.

use std::hint::black_box;
use std::time::Instant;

use vlog_core::{make_reduction, Determinant, PbFormat, Reduction, Technique};
use vlog_sim::{EventCalendar, MsgHistogram, NetProfile, Network, SimTime, Stats, WireSize};

fn ns_per(ops: u64, started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Deterministic delay stream shaped like the simulator's: mostly
/// near-future hops, some NIC-scale latencies, a few far timers.
fn delay_ns(i: u64) -> u64 {
    let r = i.wrapping_mul(2_654_435_761) % 1_000;
    match r % 16 {
        0..=9 => 1 + r * 17,
        10..=13 => 10_000 + r * 911,
        14 => 1_000_000 + r * 7_001,
        _ => 100_000_000 + r * 900_011,
    }
}

/// ns per schedule+pop pair through `EventCalendar` at a steady depth of
/// 1,024 pending events, over `events` pairs (capped at one million).
pub fn calendar_ns_per_op(events: u64) -> f64 {
    let ops = events.clamp(1, 1_000_000);
    let mut cal: EventCalendar<u64> = EventCalendar::new();
    for i in 0..1_024 {
        cal.schedule(SimTime::from_nanos(delay_ns(i)), i);
    }
    let started = Instant::now();
    let mut acc = 0u64;
    for i in 0..ops {
        let (now, _, _, payload) = cal.pop().expect("the calendar never drains");
        acc = acc.wrapping_add(payload.unwrap_or(0));
        cal.schedule(SimTime::from_nanos(now.as_nanos() + delay_ns(i)), i);
    }
    black_box(acc);
    ns_per(ops, started)
}

/// The histogram's messages as a size stream of at most `cap` entries,
/// each bucket keeping its share, sizes at the bucket's upper bound.
fn size_stream(sizes: &MsgHistogram, cap: u64) -> Vec<u64> {
    let total = sizes.count().max(1);
    let scale = (cap as f64 / total as f64).min(1.0);
    let mut out = Vec::new();
    for (bytes, count) in sizes.nonzero() {
        let n = ((count as f64 * scale).ceil() as u64).max(1);
        out.extend(std::iter::repeat_n(bytes, n as usize));
    }
    out
}

/// ns per `Network::send` on the paper's fabric, over the run's
/// message-size mix between rotating pairs of 32 nodes.
pub fn net_ns_per_send(sizes: &MsgHistogram) -> f64 {
    let stream = size_stream(sizes, 200_000);
    let mut net = Network::new(NetProfile::fast_ethernet_2005());
    let started = Instant::now();
    let mut last = SimTime::ZERO;
    for (i, &bytes) in stream.iter().enumerate() {
        let src = i % 32;
        let dst = (src + 1 + i / 32 % 31) % 32;
        last = net.send(SimTime::from_nanos(i as u64 * 10_000), src, dst, bytes);
    }
    black_box(last);
    ns_per(stream.len() as u64, started)
}

/// ns per `Stats::record_message` over the same size mix.
pub fn stats_ns_per_record(sizes: &MsgHistogram) -> f64 {
    let stream = size_stream(sizes, 200_000);
    let mut stats = Stats::new();
    let started = Instant::now();
    for &bytes in &stream {
        stats.record_message(WireSize::payload(bytes));
    }
    black_box(stats.messages);
    ns_per(stream.len() as u64, started)
}

/// ns per message through the reduction layer — `build` at the sender,
/// `integrate` and `add_local` at the receiver — over a fixed execution
/// of 1,500 messages among `ranks` processes, averaged over the three
/// techniques, each run once without stability (the no-EL regime: the
/// store only grows) and once with `apply_stable` every 64 messages.
pub fn reduction_ns_per_build(ranks: usize) -> f64 {
    const MESSAGES: u64 = 1_500;
    let n = ranks.max(2);
    let started = Instant::now();
    let mut builds = 0u64;
    for technique in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
        for stable_every in [None, Some(64)] {
            let mut reds: Vec<Box<dyn Reduction>> =
                (0..n).map(|_| make_reduction(technique, n)).collect();
            let mut clocks = vec![0u64; n];
            let mut ssn = vec![0u64; n];
            for m in 0..MESSAGES {
                let from = (m.wrapping_mul(7) % n as u64) as usize;
                let to = (from + 1 + (m / 3 % (n as u64 - 1)) as usize) % n;
                let (dets, _) = reds[from].build(to, clocks[from]);
                reds[to].integrate(from, clocks[from], &dets);
                clocks[to] += 1;
                reds[to].add_local(Determinant {
                    receiver: to,
                    clock: clocks[to],
                    sender: from,
                    ssn: ssn[from],
                    cause: clocks[from],
                });
                ssn[from] += 1;
                builds += 1;
                if stable_every.is_some_and(|k| m % k == k - 1) {
                    for red in &mut reds {
                        red.apply_stable(&clocks);
                    }
                }
            }
            black_box(reds.iter().map(|r| r.retained_count()).sum::<usize>());
        }
    }
    ns_per(builds, started)
}

/// ns per `PbFormat::wire_len` call, averaged over 16/64/256
/// determinants in each of the three formats.
pub fn wire_len_ns_per_call() -> f64 {
    const REPEATS: u64 = 2_000;
    let inputs: Vec<Vec<Determinant>> = [16usize, 64, 256]
        .iter()
        .map(|&n| {
            let mut dets: Vec<Determinant> = (0..n)
                .map(|i| Determinant {
                    receiver: i % 4,
                    clock: (i / 4 + 1) as u64,
                    sender: (i + 1) % 4,
                    ssn: i as u64,
                    cause: (i / 4) as u64,
                })
                .collect();
            dets.sort_by_key(|d| (d.receiver, d.clock));
            dets
        })
        .collect();
    let started = Instant::now();
    let mut acc = 0u64;
    for _ in 0..REPEATS {
        for dets in &inputs {
            for format in [PbFormat::Flat, PbFormat::Factored, PbFormat::Compact] {
                acc = acc.wrapping_add(format.wire_len(black_box(dets)));
            }
        }
    }
    black_box(acc);
    ns_per(REPEATS * 9, started)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_stream_keeps_every_bucket_and_respects_the_cap() {
        let mut h = MsgHistogram::default();
        for _ in 0..10_000 {
            h.record(64);
        }
        h.record(1 << 20);
        let stream = size_stream(&h, 100);
        assert!(stream.len() <= 102, "{}", stream.len());
        assert!(stream.contains(&64) && stream.contains(&(1 << 20)));
        assert!(size_stream(&MsgHistogram::default(), 100).is_empty());
    }

    #[test]
    fn probes_return_positive_finite_costs() {
        let mut h = MsgHistogram::default();
        h.record(100);
        h.record(4096);
        for cost in [
            calendar_ns_per_op(5_000),
            net_ns_per_send(&h),
            stats_ns_per_record(&h),
            reduction_ns_per_build(4),
            wire_len_ns_per_call(),
        ] {
            assert!(cost.is_finite() && cost > 0.0, "{cost}");
        }
    }
}
