//! End-to-end tests of the generic framework under the trivial protocol:
//! transport correctness, matching semantics, collectives, timing sanity.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use vlog_sim::{Decision, SimDuration};
use vlog_vmpi::{
    app, run_cluster, run_vdummy, ClusterConfig, Ctx, FaultPlan, Payload, Rank, Recorded,
    RecvSelector, ReduceOp, Suite, VProtocol,
};

/// Shared result collector for programs (single-threaded simulation).
fn collector<T: 'static>() -> (Arc<Mutex<Vec<T>>>, Arc<Mutex<Vec<T>>>) {
    let c = Arc::new(Mutex::new(Vec::new()));
    (c.clone(), c)
}

#[test]
fn two_rank_message_roundtrip() {
    let (sink, out) = collector::<Vec<u8>>();
    let report = run_vdummy(
        &ClusterConfig::new(2),
        app(move |mpi| {
            let sink = sink.clone();
            async move {
                if mpi.rank() == 0 {
                    mpi.send_bytes(1, 7, vec![1, 2, 3]).await;
                    let m = mpi.recv_from(1, 8).await;
                    sink.lock().unwrap().push(m.payload.data.to_vec());
                } else {
                    let m = mpi.recv_from(0, 7).await;
                    let mut v = m.payload.data.to_vec();
                    v.reverse();
                    mpi.send_bytes(0, 8, v).await;
                }
            }
        }),
    );
    assert!(report.completed);
    assert_eq!(&*out.lock().unwrap(), &[vec![3, 2, 1]]);
    // 4 application messages at least crossed the network.
    assert!(report.stats.messages >= 2);
}

/// The pipe outlives the program that wrote to it: a send posted by the
/// last poll and never waited for still leaves, and the handle dropped
/// on the way out (its operation abandoned) does not disturb anything.
#[test]
fn a_send_the_program_never_waited_for_still_leaves() {
    let (sink, out) = collector::<Vec<u8>>();
    let report = run_vdummy(
        &ClusterConfig::new(2),
        app(move |mpi| {
            let sink = sink.clone();
            async move {
                if mpi.rank() == 0 {
                    let _unawaited = mpi.isend(1, 7, Payload::new(vec![4, 5, 6]));
                } else {
                    let m = mpi.recv_from(0, 7).await;
                    sink.lock().unwrap().push(m.payload.data.to_vec());
                }
            }
        }),
    );
    assert!(report.completed);
    assert_eq!(&*out.lock().unwrap(), &[vec![4, 5, 6]]);
}

#[test]
fn wildcard_receive_matches_any_source() {
    let (sink, out) = collector::<usize>();
    let report = run_vdummy(
        &ClusterConfig::new(4),
        app(move |mpi| {
            let sink = sink.clone();
            async move {
                if mpi.rank() == 0 {
                    for _ in 0..3 {
                        let m = mpi.recv(RecvSelector::any()).await;
                        sink.lock().unwrap().push(m.src);
                    }
                } else {
                    mpi.send_bytes(0, 5, vec![mpi.rank() as u8]).await;
                }
            }
        }),
    );
    assert!(report.completed);
    let mut got = out.lock().unwrap().clone();
    got.sort_unstable();
    assert_eq!(got, vec![1, 2, 3]);
}

#[test]
fn unexpected_messages_match_later_receives() {
    let (sink, out) = collector::<(usize, u32)>();
    let report = run_vdummy(
        &ClusterConfig::new(2),
        app(move |mpi| {
            let sink = sink.clone();
            async move {
                if mpi.rank() == 0 {
                    // Two sends with different tags, receiver posts the
                    // second tag first.
                    mpi.send_bytes(1, 1, vec![1]).await;
                    mpi.send_bytes(1, 2, vec![2]).await;
                } else {
                    // Let both arrive and sit in the unexpected queue.
                    mpi.elapse(vlog_sim::SimDuration::from_millis(5)).await;
                    let b = mpi.recv_from(0, 2).await;
                    let a = mpi.recv_from(0, 1).await;
                    sink.lock().unwrap().push((b.src, b.tag));
                    sink.lock().unwrap().push((a.src, a.tag));
                }
            }
        }),
    );
    assert!(report.completed);
    assert_eq!(&*out.lock().unwrap(), &[(0, 2), (0, 1)]);
}

#[test]
fn per_channel_fifo_order_is_preserved() {
    let (sink, out) = collector::<u8>();
    let report = run_vdummy(
        &ClusterConfig::new(2),
        app(move |mpi| {
            let sink = sink.clone();
            async move {
                if mpi.rank() == 0 {
                    for i in 0..20u8 {
                        mpi.send_bytes(1, 3, vec![i]).await;
                    }
                } else {
                    for _ in 0..20 {
                        let m = mpi.recv_from(0, 3).await;
                        sink.lock().unwrap().push(m.payload.data[0]);
                    }
                }
            }
        }),
    );
    assert!(report.completed);
    assert_eq!(&*out.lock().unwrap(), &(0..20).collect::<Vec<u8>>());
}

#[test]
fn rendezvous_transfers_large_payloads() {
    // 1 MiB payload exceeds the 128 KiB eager threshold.
    let report = run_vdummy(
        &ClusterConfig::new(2),
        app(move |mpi| async move {
            if mpi.rank() == 0 {
                mpi.send(1, 0, Payload::synthetic(1 << 20)).await;
            } else {
                let m = mpi.recv_from(0, 0).await;
                assert_eq!(m.payload.len(), 1 << 20);
            }
        }),
    );
    assert!(report.completed);
    // 1 MiB at ~93 Mbit/s is ~90 ms of wire time; the run must be in that
    // ballpark (rendezvous adds a round trip).
    let ms = report.makespan.as_millis_f64();
    assert!(ms > 80.0 && ms < 150.0, "unexpected makespan {ms}ms");
}

#[test]
fn barrier_synchronizes_all_ranks() {
    let (sink, out) = collector::<(usize, u64)>();
    let report = run_vdummy(
        &ClusterConfig::new(5),
        app(move |mpi| {
            let sink = sink.clone();
            async move {
                // Rank r waits r ms, then everyone meets at the barrier.
                mpi.elapse(vlog_sim::SimDuration::from_millis(mpi.rank() as u64))
                    .await;
                mpi.barrier().await;
                sink.lock()
                    .unwrap()
                    .push((mpi.rank(), mpi.time().as_nanos()));
            }
        }),
    );
    assert!(report.completed);
    let times: Vec<u64> = out.lock().unwrap().iter().map(|&(_, t)| t).collect();
    let min = *times.iter().min().unwrap();
    let max = *times.iter().max().unwrap();
    // All ranks leave the barrier after the slowest entered (4 ms).
    assert!(min >= 4_000_000, "barrier leaked early: {min}");
    // ... and within a few round trips of each other.
    assert!(max - min < 2_000_000, "barrier skew: {}", max - min);
}

#[test]
fn bcast_from_every_root() {
    for root in 0..4 {
        let (sink, out) = collector::<Vec<u8>>();
        let report = run_vdummy(
            &ClusterConfig::new(4),
            app(move |mpi| {
                let sink = sink.clone();
                async move {
                    let data = if mpi.rank() == root {
                        Some(Bytes::from(vec![9, 9, root as u8]))
                    } else {
                        None
                    };
                    let got = mpi.bcast_bytes(root, data).await;
                    sink.lock().unwrap().push(got.to_vec());
                }
            }),
        );
        assert!(report.completed);
        assert_eq!(out.lock().unwrap().len(), 4);
        for v in out.lock().unwrap().iter() {
            assert_eq!(v, &vec![9, 9, root as u8]);
        }
    }
}

#[test]
fn reduce_and_allreduce_compute_correctly() {
    for n in [1usize, 2, 3, 4, 7, 8] {
        let (sink, out) = collector::<Vec<f64>>();
        let report = run_vdummy(
            &ClusterConfig::new(n),
            app(move |mpi| {
                let sink = sink.clone();
                async move {
                    let r = mpi.rank() as f64;
                    let mine = vec![r, r * 2.0, 1.0];
                    let summed = mpi.allreduce_f64(&mine, ReduceOp::Sum).await;
                    let maxed = mpi.allreduce_f64(&mine, ReduceOp::Max).await;
                    sink.lock().unwrap().push(summed);
                    sink.lock().unwrap().push(maxed);
                }
            }),
        );
        assert!(report.completed, "n={n}");
        let total: f64 = (0..n).map(|r| r as f64).sum();
        let top = (n - 1) as f64;
        for pair in out.lock().unwrap().chunks(2) {
            assert_eq!(pair[0], vec![total, total * 2.0, n as f64], "n={n}");
            assert_eq!(pair[1], vec![top, top * 2.0, 1.0], "n={n}");
        }
    }
}

#[test]
fn alltoall_routes_every_pair() {
    let n = 5;
    let (sink, out) = collector::<(usize, Vec<u8>)>();
    let report = run_vdummy(
        &ClusterConfig::new(n),
        app(move |mpi| {
            let sink = sink.clone();
            async move {
                let me = mpi.rank() as u8;
                let outgoing: Vec<Payload> = (0..mpi.size())
                    .map(|d| Payload::new(vec![me, d as u8]))
                    .collect();
                let incoming = mpi.alltoall(outgoing).await;
                for (src, p) in incoming.iter().enumerate() {
                    sink.lock()
                        .unwrap()
                        .push((mpi.rank(), vec![src as u8, p.data[0], p.data[1]]));
                }
            }
        }),
    );
    assert!(report.completed);
    for (me, v) in out.lock().unwrap().iter() {
        let (src, from, to) = (v[0], v[1], v[2]);
        assert_eq!(src, from, "payload source mismatch");
        assert_eq!(to as usize, *me, "payload destination mismatch");
    }
    assert_eq!(out.lock().unwrap().len(), n * n);
}

#[test]
fn allgather_collects_all_payloads() {
    let n = 6;
    let report = run_vdummy(
        &ClusterConfig::new(n),
        app(move |mpi| async move {
            let mine = Payload::new(vec![mpi.rank() as u8; 3]);
            let all = mpi.allgather(mine).await;
            for (owner, p) in all.iter().enumerate() {
                assert_eq!(p.data.to_vec(), vec![owner as u8; 3]);
            }
        }),
    );
    assert!(report.completed);
}

#[test]
fn gather_to_root() {
    let n = 4;
    let report = run_vdummy(
        &ClusterConfig::new(n),
        app(move |mpi| async move {
            let mine = Payload::new(vec![mpi.rank() as u8]);
            let got = mpi.gather(2, mine).await;
            if mpi.rank() == 2 {
                let got = got.unwrap();
                for (src, p) in got.iter().enumerate() {
                    assert_eq!(p.data.to_vec(), vec![src as u8]);
                }
            } else {
                assert!(got.is_none());
            }
        }),
    );
    assert!(report.completed);
}

#[test]
fn ping_pong_latency_is_in_paper_ballpark() {
    // Vdummy 1-byte half-RTT should land near the paper's 134.84 us.
    let (sink, out) = collector::<f64>();
    let reps = 200u32;
    let report = run_vdummy(
        &ClusterConfig::new(2),
        app(move |mpi| {
            let sink = sink.clone();
            async move {
                if mpi.rank() == 0 {
                    let t0 = mpi.time();
                    for _ in 0..reps {
                        mpi.send(1, 0, Payload::synthetic(1)).await;
                        mpi.recv_from(1, 0).await;
                    }
                    let dt = mpi.time().saturating_since(t0);
                    sink.lock()
                        .unwrap()
                        .push(dt.as_micros_f64() / (2.0 * reps as f64));
                } else {
                    for _ in 0..reps {
                        mpi.recv_from(0, 0).await;
                        mpi.send(0, 0, Payload::synthetic(1)).await;
                    }
                }
            }
        }),
    );
    assert!(report.completed);
    let lat = out.lock().unwrap()[0];
    assert!(
        (100.0..180.0).contains(&lat),
        "Vdummy latency {lat:.2}us out of range"
    );
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        run_vdummy(
            &ClusterConfig::new(3),
            app(move |mpi| async move {
                let mine = vec![mpi.rank() as f64];
                mpi.allreduce_f64(&mine, ReduceOp::Sum).await;
                mpi.barrier().await;
            }),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan.as_nanos(), b.makespan.as_nanos());
    assert_eq!(a.stats.messages, b.stats.messages);
    assert_eq!(a.events, b.events);
}

/// A schedule is data on the config and its trace is data on the
/// report: `applied` holds exactly the decisions that fired, and as the
/// next run's `schedule` it reproduces the run.
#[test]
fn a_scripted_run_reports_what_fired_and_replays_from_it() {
    let run = |schedule: Vec<Decision>| {
        let mut cfg = ClusterConfig::new(3);
        cfg.schedule = schedule;
        let report = run_vdummy(
            &cfg,
            app(move |mpi| async move {
                let (me, n) = (mpi.rank(), mpi.size());
                for it in 0..20u8 {
                    let m = mpi
                        .sendrecv(
                            (me + 1) % n,
                            0,
                            Payload::new(vec![me as u8, it]),
                            RecvSelector::of((me + n - 1) % n, 0),
                        )
                        .await;
                    assert_eq!(m.payload.data.to_vec(), [((me + n - 1) % n) as u8, it]);
                }
            }),
        );
        assert!(report.completed);
        (report.fingerprint(), report.applied)
    };
    let decision = |index, us| Decision {
        index,
        delta: SimDuration::from_micros(us),
    };
    let (plain, none) = run(Vec::new());
    assert!(none.is_empty());
    // Out of order on purpose, and the run has far fewer than 100,000
    // deliveries: that entry never fires, so it is not in the trace.
    let script = vec![decision(100_000, 1), decision(17, 0), decision(3, 900)];
    let (scripted, applied) = run(script);
    assert_eq!(applied, [decision(3, 900), decision(17, 0)]);
    assert_ne!(scripted, plain, "a 900 us deferral left no mark");
    assert_eq!(run(applied.clone()), (scripted, applied));
}

/// Vdummy, except that every offered checkpoint is taken.
struct CheckpointEveryOffer;

impl VProtocol for CheckpointEveryOffer {
    fn name(&self) -> String {
        "checkpoint-every-offer".into()
    }

    fn checkpoint_due(&mut self, _ctx: &mut Ctx<'_>, next: u64) -> Option<u64> {
        Some(next)
    }
}

impl Suite for CheckpointEveryOffer {
    fn name(&self) -> String {
        "checkpoint-every-offer".into()
    }

    fn make_protocol(&self, _rank: Rank, _n: usize) -> Box<dyn VProtocol> {
        Box::new(CheckpointEveryOffer)
    }
}

/// What a program records reaches the report when its daemon reads the
/// pipe. Rank 0 records one step before each checkpoint offer (the
/// offer reads the pipe), then records once more and is killed in the
/// long computation that follows: that value is never read. Its
/// relaunched incarnation, restored at the last checkpoint, records the
/// remaining step and a final value that only the program's end reads.
#[test]
fn records_reach_the_report_when_the_pipe_is_read() {
    let prog = app(|mpi| async move {
        if mpi.rank() != 0 {
            return;
        }
        let start = mpi.restored().map_or(0, |state| state[0] as u64);
        let incarnation = if start == 0 { 0.0 } else { 1.0 };
        for step in start..3 {
            mpi.record("step", step, incarnation);
            mpi.checkpoint_point(Payload::new(vec![step as u8 + 1]))
                .await;
            if step == 1 && start == 0 {
                mpi.record("lost", step, incarnation);
                mpi.elapse(SimDuration::from_millis(100)).await;
            }
        }
        mpi.record("done", 3, incarnation);
    });
    let faults = FaultPlan::kill_at(SimDuration::from_millis(50), 0);
    let report = run_cluster(
        &ClusterConfig::new(2),
        Arc::new(CheckpointEveryOffer),
        prog,
        &faults,
    );
    assert!(report.completed);
    assert!(report.all_landed(&faults), "{:?}", report.fired);
    let record = |name, key, value| Recorded {
        rank: 0,
        name,
        key,
        value,
    };
    assert_eq!(
        report.recorded,
        [
            record("step", 0, 0.0),
            record("step", 1, 0.0),
            record("step", 2, 1.0),
            record("done", 3, 1.0),
        ]
    );
}

#[test]
fn p4_profile_runs_and_is_faster_on_latency_than_vdummy() {
    let prog = || {
        app(move |mpi| async move {
            if mpi.rank() == 0 {
                for _ in 0..50 {
                    mpi.send(1, 0, Payload::synthetic(1)).await;
                    mpi.recv_from(1, 0).await;
                }
            } else {
                for _ in 0..50 {
                    mpi.recv_from(0, 0).await;
                    mpi.send(0, 0, Payload::synthetic(1)).await;
                }
            }
        })
    };
    let p4 = run_vdummy(&ClusterConfig::new(2).p4(), prog());
    let vd = run_vdummy(&ClusterConfig::new(2), prog());
    assert!(p4.completed && vd.completed);
    assert!(
        p4.makespan < vd.makespan,
        "P4 ping-pong must beat the daemon stack: {} vs {}",
        p4.makespan,
        vd.makespan
    );
}
