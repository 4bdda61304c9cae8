//! Criterion micro-benchmarks: the real (wall-clock) cost of the
//! protocol hot paths, complementing the calibrated virtual-time cost
//! model with measured Rust numbers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use vlog_core::{
    decode_factored, decode_flat, make_reduction, AGraph, Determinant, ElBatcher, PbFormat,
    SenderLog, Technique,
};
use vlog_sim::{profiler, EventCalendar, SimDuration, SimTime};
use vlog_vmpi::{Payload, PayloadArena};

fn dets(n: usize, receivers: usize) -> Vec<Determinant> {
    (0..n)
        .map(|i| Determinant {
            receiver: i % receivers,
            clock: (i / receivers + 1) as u64,
            sender: (i + 1) % receivers,
            ssn: i as u64,
            cause: (i / receivers) as u64,
        })
        .collect()
}

fn bench_codecs(c: &mut Criterion) {
    let mut g = c.benchmark_group("piggyback_codecs");
    for &n in &[1usize, 16, 256] {
        let mut input = dets(n, 4);
        input.sort_by_key(|d| (d.receiver, d.clock));
        g.bench_with_input(BenchmarkId::new("encode_factored", n), &input, |b, d| {
            b.iter(|| PbFormat::Factored.encode(d).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("encode_flat", n), &input, |b, d| {
            b.iter(|| PbFormat::Flat.encode(d).unwrap())
        });
        let enc_f = PbFormat::Factored.encode(&input).unwrap();
        let enc_l = PbFormat::Flat.encode(&input).unwrap();
        g.bench_with_input(BenchmarkId::new("decode_factored", n), &enc_f, |b, d| {
            b.iter(|| decode_factored(d.clone()).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("decode_flat", n), &enc_l, |b, d| {
            b.iter(|| decode_flat(d.clone()).unwrap())
        });
    }
    g.finish();
}

/// The compact wire format against the fixed-width codecs it must beat:
/// encode and decode at the same determinant counts as `piggyback_codecs`. `scripts/verify.sh`
/// gates on this group being present in `BENCH_micro.json`.
fn bench_pb_compact(c: &mut Criterion) {
    use vlog_core::decode_compact;
    let mut g = c.benchmark_group("pb_compact");
    for &n in &[1usize, 16, 256] {
        let mut input = dets(n, 4);
        input.sort_by_key(|d| (d.receiver, d.clock));
        // The wire-size claim this format exists for, pinned where the
        // throughput is measured: >= 2x smaller than flat at 256.
        if n == 256 {
            assert!(
                PbFormat::Compact.wire_len(&input) * 2 <= PbFormat::Flat.wire_len(&input),
                "compact lost its 2x wire margin at n=256"
            );
        }
        g.bench_with_input(BenchmarkId::new("encode_compact", n), &input, |b, d| {
            b.iter(|| PbFormat::Compact.encode(d).unwrap())
        });
        let wire = PbFormat::Compact.encode(&input).unwrap();
        g.bench_with_input(BenchmarkId::new("decode_compact", n), &wire, |b, d| {
            b.iter(|| decode_compact(d.clone()).unwrap())
        });
    }
    g.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut g = c.benchmark_group("antecedence_graph");
    for &n in &[100usize, 1_000, 10_000] {
        // Build a chain-with-crosslinks graph of n events over 8 ranks.
        let build = || {
            let mut graph = AGraph::new(8);
            for d in dets(n, 8) {
                graph.insert(d);
            }
            graph
        };
        g.bench_with_input(BenchmarkId::new("insert_n", n), &n, |b, &n| {
            b.iter_batched(
                || dets(n, 8),
                |ds| {
                    let mut graph = AGraph::new(8);
                    for d in ds {
                        graph.insert(d);
                    }
                    graph
                },
                BatchSize::SmallInput,
            )
        });
        let graph = build();
        g.bench_with_input(BenchmarkId::new("causal_past", n), &graph, |b, graph| {
            b.iter(|| graph.causal_past(&[(0, graph.head(0))]))
        });
    }
    g.finish();
}

fn bench_reductions(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduction_build");
    for t in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
        for &n in &[100usize, 2_000] {
            g.bench_with_input(
                BenchmarkId::new(format!("{}_build", t.label()), n),
                &n,
                |b, &n| {
                    b.iter_batched(
                        || {
                            let mut red = make_reduction(t, 8);
                            red.absorb(&dets(n, 8));
                            red
                        },
                        |mut red| red.build(3, (n / 8) as u64),
                        BatchSize::SmallInput,
                    )
                },
            );
        }
    }
    g.finish();
}

/// The regime the end-to-end `causal_noel` number comes from: 16 ranks,
/// no Event Logger, so nothing ever turns stable and every store holds
/// the whole history (here 51,200 determinants, 3,200 per creator).
/// Measured per technique: integrating a 100-determinant piggyback the
/// store already holds (what most of a no-EL piggyback is), a build on a
/// channel whose sent-cache is warm (one new event to emit), and a
/// build→integrate round trip between two such stores relaying fresh
/// third-party events.
/// `scripts/verify.sh` gates on this group being present.
fn bench_causality_store(c: &mut Criterion) {
    const RANKS: usize = 16;
    const PER_CREATOR: usize = 3_200;
    let history = dets(RANKS * PER_CREATOR, RANKS);
    let loaded = |t: Technique| {
        let mut red = make_reduction(t, RANKS);
        red.integrate(1, 0, &history);
        assert!(red.retained_count() >= 50_000);
        red
    };
    let local = |receiver: usize, clock: u64| Determinant {
        receiver,
        clock,
        sender: (receiver + 1) % RANKS,
        ssn: clock,
        cause: clock - 1,
    };
    let mut g = c.benchmark_group("causality_store");
    for t in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
        // The newest 25 events of four creators, in emission order.
        let mut dup = history[history.len() - 25 * RANKS..].to_vec();
        dup.retain(|d| d.receiver < 4);
        dup.sort_by_key(|d| (d.receiver, d.clock));
        assert_eq!(dup.len(), 100);
        let mut red = loaded(t);
        g.bench_function(
            BenchmarkId::new(format!("{}_integrate_dup", t.label()), 100),
            |b| b.iter(|| red.integrate(2, PER_CREATOR as u64, &dup)),
        );

        let mut red = loaded(t);
        let mut clock = PER_CREATOR as u64;
        red.build(3, clock);
        g.bench_function(
            BenchmarkId::new(format!("{}_build_warm", t.label()), 1),
            |b| {
                b.iter(|| {
                    clock += 1;
                    red.add_local(local(0, clock));
                    red.build(3, clock)
                })
            },
        );

        // Each trip: `ping` hears 16 fresh third-party events, forwards
        // them to `pong` with its own, and `pong` answers.
        let (mut ping, mut pong) = (loaded(t), loaded(t));
        let (mut ping_clock, mut pong_clock) = (PER_CREATOR as u64, PER_CREATOR as u64);
        let mut news: Vec<Determinant> = (0..16).map(|i| local(2 + i / 4, 0)).collect();
        let mut news_clock = PER_CREATOR as u64;
        let mut trip = || {
            for (i, d) in news.iter_mut().enumerate() {
                d.clock = news_clock + 1 + i as u64 % 4;
            }
            news_clock += 4;
            ping.integrate(2, news_clock, &news);
            let (pb, _) = ping.build(1, ping_clock);
            pong.integrate(0, ping_clock, &pb);
            pong_clock += 1;
            pong.add_local(local(1, pong_clock));
            let (pb, _) = pong.build(0, pong_clock);
            ping.integrate(1, pong_clock, &pb);
            ping_clock += 1;
            ping.add_local(local(0, ping_clock));
            pb.len()
        };
        trip(); // the first exchange ships the whole history: not the steady state
        g.bench_function(
            BenchmarkId::new(format!("{}_round_trip", t.label()), 16),
            |b| b.iter(&mut trip),
        );
    }
    g.finish();
}

fn bench_sender_log(c: &mut Criterion) {
    let mut g = c.benchmark_group("sender_log");
    g.bench_function("insert_1k", |b| {
        b.iter_batched(
            || SenderLog::new(8),
            |mut log| {
                for ssn in 0..1_000u64 {
                    log.insert((ssn % 7) as usize, ssn, 0, &Payload::synthetic(256));
                }
                log
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("prune_half_of_1k", |b| {
        b.iter_batched(
            || {
                let mut log = SenderLog::new(8);
                for ssn in 0..1_000u64 {
                    log.insert(1, ssn, 0, &Payload::synthetic(256));
                }
                log
            },
            |mut log| {
                log.prune_below(1, 500);
                log
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Deterministic delay stream shaped like the simulator's: mostly
/// near-future (pipe/NIC/loopback scale), a few timers far out.
fn delays(n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let r = (i as u64).wrapping_mul(2_654_435_761) % 1_000;
            match r % 16 {
                0..=9 => 1 + r * 17,            // sub-microsecond kernel hops
                10..=13 => 10_000 + r * 911,    // NIC / service latencies
                14 => 1_000_000 + r * 7_001,    // millisecond timers
                _ => 100_000_000 + r * 900_011, // checkpoint-period scale
            }
        })
        .collect()
}

/// The event-calendar group: the run loop's schedule+dispatch hot path,
/// arena/wheel calendar vs the old global-binary-heap baseline, plus the
/// cancellation path only the calendar supports in O(1).
fn bench_calendar(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_calendar");
    for &n in &[1_024usize, 16_384] {
        let ds = delays(n);
        // Bulk: schedule everything, then drain — a cluster boot or a
        // burst of staged events.
        g.bench_with_input(BenchmarkId::new("heap_schedule_drain", n), &ds, |b, ds| {
            b.iter(|| {
                let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
                for (i, d) in ds.iter().enumerate() {
                    heap.push(Reverse((*d, i as u64, i as u64)));
                }
                let mut acc = 0u64;
                while let Some(Reverse((_, _, p))) = heap.pop() {
                    acc = acc.wrapping_add(p);
                }
                acc
            })
        });
        g.bench_with_input(
            BenchmarkId::new("calendar_schedule_drain", n),
            &ds,
            |b, ds| {
                b.iter(|| {
                    let mut cal: EventCalendar<u64> = EventCalendar::new();
                    for (i, d) in ds.iter().enumerate() {
                        cal.schedule(SimTime::from_nanos(*d), i as u64);
                    }
                    let mut acc = 0u64;
                    while let Some((_, _, _, p)) = cal.pop() {
                        acc = acc.wrapping_add(p.unwrap());
                    }
                    acc
                })
            },
        );
        // Churn: steady-state run loop — every dispatched event schedules
        // a successor, queue depth stays at `n`.
        g.bench_with_input(BenchmarkId::new("heap_churn", n), &ds, |b, ds| {
            b.iter(|| {
                let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
                let mut seq = 0u64;
                for (i, d) in ds.iter().enumerate() {
                    heap.push(Reverse((*d, seq, i as u64)));
                    seq += 1;
                }
                let mut acc = 0u64;
                for d in ds {
                    let Reverse((now, _, p)) = heap.pop().unwrap();
                    acc = acc.wrapping_add(p);
                    heap.push(Reverse((now + d, seq, p)));
                    seq += 1;
                }
                acc
            })
        });
        g.bench_with_input(BenchmarkId::new("calendar_churn", n), &ds, |b, ds| {
            b.iter(|| {
                let mut cal: EventCalendar<u64> = EventCalendar::new();
                for (i, d) in ds.iter().enumerate() {
                    cal.schedule(SimTime::from_nanos(*d), i as u64);
                }
                let mut acc = 0u64;
                for d in ds {
                    let (now, _, _, p) = cal.pop().unwrap();
                    let p = p.unwrap();
                    acc = acc.wrapping_add(p);
                    cal.schedule(now + SimDuration::from_nanos(*d), p);
                }
                acc
            })
        });
        // Cancel: arm-and-disarm, the timer-wheel specialty (the heap
        // baseline had no cancellation — stale entries reached dispatch).
        g.bench_with_input(BenchmarkId::new("calendar_cancel", n), &ds, |b, ds| {
            b.iter(|| {
                let mut cal: EventCalendar<u64> = EventCalendar::new();
                let keys: Vec<_> = ds
                    .iter()
                    .enumerate()
                    .map(|(i, d)| cal.schedule(SimTime::from_nanos(*d), i as u64))
                    .collect();
                let mut hits = 0usize;
                for k in keys {
                    hits += cal.cancel(k).is_some() as usize;
                }
                assert!(cal.pop().is_none());
                hits
            })
        });
    }
    g.finish();
}

/// Payload construction: a fresh `Vec` + `Arc` per message body vs the
/// interning `PayloadArena` (the cursor bodies workloads actually
/// build: 8 distinct values cycling across 64 sends).
fn bench_payload_arena(c: &mut Criterion) {
    let mut g = c.benchmark_group("payload_arena");
    g.bench_function("fresh_alloc_64", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for i in 0..64u64 {
                total += Payload::new((i % 8).to_le_bytes().to_vec()).len();
            }
            total
        })
    });
    g.bench_function("arena_interned_64", |b| {
        let mut arena = PayloadArena::new();
        b.iter(|| {
            let mut total = 0u64;
            for i in 0..64u64 {
                total += arena.payload(&(i % 8).to_le_bytes(), 0).len();
            }
            total
        })
    });
    g.finish();
}

/// Cost of the kernel's self-profiling scopes: the disabled guard (one
/// relaxed atomic load, what every production run pays per phase) and
/// the enabled guard (two `Instant` reads plus a thread-local bump).
fn bench_profiler_scope(c: &mut Criterion) {
    let mut g = c.benchmark_group("profiler_scope");
    g.bench_function("disabled", |b| {
        profiler::set_enabled(false);
        b.iter(|| profiler::scope(profiler::Phase::Dispatch))
    });
    g.bench_function("enabled", |b| {
        profiler::set_enabled(true);
        b.iter(|| profiler::scope(profiler::Phase::Dispatch));
        profiler::set_enabled(false);
    });
    g.finish();
}

/// The ack-clocked EL batcher on the determinant-shipping hot path: the
/// offer/ack cycle at increasing coalescing depth (how many dets pile up
/// behind the in-flight batch before the ack flushes them), and the
/// reshard handoff drain.
fn bench_el_batching(c: &mut Criterion) {
    let mut g = c.benchmark_group("el_batching");
    for &depth in &[1usize, 16, 256] {
        let input = dets(depth, 4);
        g.bench_with_input(
            BenchmarkId::new("offer_ack_cycle", depth),
            &input,
            |b, d| {
                b.iter_batched(
                    ElBatcher::new,
                    |mut batcher| {
                        // First offer ships immediately; the rest
                        // coalesce until the ack releases them.
                        let first = batcher.offer(d[0]);
                        for det in &d[1..] {
                            let _ = batcher.offer(*det);
                        }
                        (first, batcher.acked())
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        g.bench_with_input(
            BenchmarkId::new("reshard_handoff", depth),
            &input,
            |b, d| {
                b.iter_batched(
                    || {
                        let mut batcher = ElBatcher::new();
                        for det in d {
                            let _ = batcher.offer(*det);
                        }
                        batcher
                    },
                    |mut batcher| batcher.take_unacked(),
                    BatchSize::SmallInput,
                )
            },
        );
    }
    g.finish();
}

/// The run loop itself, in ns per dispatched event (one iteration is
/// one event), on three rungs of the stack the end-to-end `kernel_floor`
/// workload runs through: a poke-only actor that re-arms itself
/// (calendar pop + dispatch, nothing staged, no task ready); two tasks
/// alternating through `sleep` (op slot → staged `Event::Complete` →
/// ready queue → poll with the port lent); and a 16-rank eager ring
/// under `Vdummy` (pipe, daemon, deferred sends, network model on top).
/// `scripts/verify.sh` gates on this group being present.
fn bench_kernel_loop(c: &mut Criterion) {
    use std::time::{Duration, Instant};
    use vlog_sim::{Actor, ActorId, Delivery, Event, Sim};
    use vlog_vmpi::{app, ClusterConfig, ClusterRun, FaultPlan, RecvSelector, VdummySuite};

    const TICK: SimDuration = SimDuration::from_micros(1);
    // Exactly one event is due per tick in the two kernel-only benches.
    fn one_event(sim: &mut Sim) -> u64 {
        let before = sim.events_processed();
        sim.run_until(sim.now() + TICK);
        sim.events_processed() - before
    }

    let mut g = c.benchmark_group("kernel_loop");

    struct Metronome;
    impl Actor for Metronome {
        fn on_deliver(&mut self, _: &mut Sim, _: ActorId, _: Delivery) {}
        fn on_poke(&mut self, sim: &mut Sim, me: ActorId, token: u64) {
            sim.schedule(TICK, Event::Poke { actor: me, token });
        }
    }
    let mut sim = Sim::new(1);
    let node = sim.add_node();
    let actor = sim.add_actor(node, Box::new(Metronome));
    sim.schedule(TICK, Event::Poke { actor, token: 0 });
    assert_eq!(one_event(&mut sim), 1);
    g.bench_function("poke_rearm", |b| b.iter(|| one_event(&mut sim)));

    let mut sim = Sim::new(1);
    for offset_us in [1, 2] {
        let h = sim.exec();
        sim.spawn_detached(async move {
            h.sleep(SimDuration::from_micros(offset_us)).await;
            loop {
                h.sleep(SimDuration::from_micros(2)).await;
            }
        });
    }
    assert_eq!((one_event(&mut sim), one_event(&mut sim)), (1, 1));
    g.bench_function("task_sleep_pingpong", |b| b.iter(|| one_event(&mut sim)));

    const RANKS: usize = 16;
    let ring = app(|mpi| async move {
        let (me, n) = (mpi.rank(), mpi.size());
        for _ in 0..100 {
            mpi.send_synth((me + 1) % n, 7, 256).await;
            mpi.recv(RecvSelector::of((me + n - 1) % n, 7)).await;
        }
    });
    let build = || {
        ClusterRun::build(
            &ClusterConfig::new(RANKS),
            Arc::new(VdummySuite),
            ring.clone(),
            &FaultPlan::none(),
        )
    };
    let events = build().run().events;
    g.bench_function(BenchmarkId::new("vdummy_eager_ring", RANKS), |b| {
        // Whole runs (built off the clock), charged per event.
        b.iter_custom(|iters| {
            let runs = iters.div_ceil(events);
            let mut took = Duration::ZERO;
            for _ in 0..runs {
                let run = build();
                let start = Instant::now();
                let report = run.run();
                took += start.elapsed();
                assert!(report.completed && report.events == events);
            }
            took.mul_f64(iters as f64 / (runs * events) as f64)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_kernel_loop,
    bench_codecs,
    bench_pb_compact,
    bench_graph,
    bench_reductions,
    bench_causality_store,
    bench_sender_log,
    bench_calendar,
    bench_payload_arena,
    bench_profiler_scope,
    bench_el_batching
);
criterion_main!(benches);
