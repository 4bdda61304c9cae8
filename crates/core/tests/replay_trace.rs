//! Regression test for checkpoint/replay atomicity: a rank killed while
//! peers have run ahead must replay the exact message sequence it
//! consumed before the crash (this once failed with receptions skipped
//! when a checkpoint landed between message acceptance and delivery).

use std::sync::{Arc, Mutex};

use vlog_core::{CausalSuite, Technique};
use vlog_sim::SimDuration;
use vlog_vmpi::{app, run_cluster, ClusterConfig, FaultPlan, Payload, RecvSelector};

fn token(rank: usize, it: u64) -> Vec<u8> {
    vec![rank as u8, (it & 0xff) as u8, (it >> 8) as u8]
}

#[test]
fn replayed_sequence_is_exact() {
    for technique in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
        for el in [true, false] {
            let mismatches: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
            let m2 = mismatches.clone();
            let iters = 80u64;
            let prog = app(move |mpi| {
                let mismatches = m2.clone();
                async move {
                    let n = mpi.size();
                    let me = mpi.rank();
                    let right = (me + 1) % n;
                    let left = (me + n - 1) % n;
                    let start = match mpi.restored() {
                        Some(bytes) => u64::from_le_bytes(bytes[..8].try_into().unwrap()),
                        None => 0,
                    };
                    for it in start..iters {
                        mpi.checkpoint_point(Payload::new(it.to_le_bytes().to_vec()))
                            .await;
                        let m = mpi
                            .sendrecv(
                                right,
                                0,
                                Payload::new(token(me, it)),
                                RecvSelector::of(left, 0),
                            )
                            .await;
                        if m.payload.data.to_vec() != token(left, it) {
                            mismatches
                                .lock()
                                .unwrap()
                                .push(format!("rank {me} it {it}: {:?}", m.payload.data));
                        }
                    }
                }
            });
            let mut c = ClusterConfig::new(3);
            c.detect_delay = SimDuration::from_millis(10);
            c.event_limit = Some(20_000_000);
            let suite = Arc::new(
                CausalSuite::new(technique, el).with_checkpoints(SimDuration::from_millis(4)),
            );
            let faults = FaultPlan::kill_at(SimDuration::from_millis(10), 0);
            let report = run_cluster(&c, suite, prog, &faults);
            assert!(report.completed, "{technique:?} el={el}: incomplete");
            assert!(report.all_landed(&faults), "{:?}", report.fired);
            assert!(
                mismatches.lock().unwrap().is_empty(),
                "{technique:?} el={el}: replay diverged: {:?}",
                mismatches.lock().unwrap()
            );
        }
    }
}
