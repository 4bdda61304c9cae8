//! A fault-tolerant 1D heat-diffusion stencil with *real* numerics,
//! application-level checkpoints, and an injected crash.
//!
//! Each rank owns a block of a 1D rod and iterates the explicit heat
//! equation, exchanging halo cells with its neighbours every step. Rank 1
//! is killed mid-run; causal message logging restores it from its last
//! checkpoint and replays its receptions. Each rank records its final
//! cells ([`vlog_vmpi::Mpi::record`]), and the temperature profile read
//! off the run's report is compared against a sequential reference
//! computed in plain Rust —
//! bitwise equality demonstrates that recovery is exact, not just
//! approximate.
//!
//! ```sh
//! cargo run --release -p vlog-bench --example fault_tolerant_stencil
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use vlog_core::{CausalSuite, Technique};
use vlog_sim::{Counter, SimDuration};
use vlog_vmpi::{
    app, decode_f64s, encode_f64s, run_cluster, ClusterConfig, FaultPlan, Payload, RecvSelector,
};

const RANKS: usize = 4;
const CELLS_PER_RANK: usize = 16;
const STEPS: u64 = 200;
const ALPHA: f64 = 0.25;

/// Sequential reference: the whole rod in one array.
fn reference() -> Vec<f64> {
    let n = RANKS * CELLS_PER_RANK;
    let mut rod: Vec<f64> = (0..n).map(init_temp).collect();
    for _ in 0..STEPS {
        let prev = rod.clone();
        for i in 0..n {
            let left = if i == 0 { prev[0] } else { prev[i - 1] };
            let right = if i == n - 1 { prev[n - 1] } else { prev[i + 1] };
            rod[i] = prev[i] + ALPHA * (left - 2.0 * prev[i] + right);
        }
    }
    rod
}

fn init_temp(i: usize) -> f64 {
    // A hot spike in the middle of the rod.
    let n = (RANKS * CELLS_PER_RANK) as f64;
    let x = i as f64 / n;
    100.0 * (-((x - 0.5) * 12.0).powi(2)).exp()
}

/// Serialized per-rank state: iteration counter + cell values.
fn pack_state(step: u64, cells: &[f64]) -> Payload {
    let mut bytes = step.to_le_bytes().to_vec();
    bytes.extend_from_slice(&encode_f64s(cells));
    Payload::new(bytes)
}

fn unpack_state(bytes: &[u8]) -> (u64, Vec<f64>) {
    let step = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    let cells = decode_f64s(&bytes::Bytes::copy_from_slice(&bytes[8..]));
    (step, cells)
}

fn main() {
    let program = app(|mpi| async move {
        let me = mpi.rank();
        let n = mpi.size();
        // Restore from a checkpoint image or start fresh.
        let (start, mut cells) = match mpi.restored() {
            Some(bytes) => unpack_state(bytes),
            None => (
                0,
                (0..CELLS_PER_RANK)
                    .map(|i| init_temp(me * CELLS_PER_RANK + i))
                    .collect(),
            ),
        };
        if start > 0 {
            println!("rank {me}: restored at step {start}");
        }
        for step in start..STEPS {
            // Offer a checkpoint every iteration; the scheduler decides.
            mpi.checkpoint_point(pack_state(step, &cells)).await;
            // Halo exchange (boundary ranks mirror their edge cell).
            let left_halo = if me > 0 {
                let m = mpi
                    .sendrecv(
                        me - 1,
                        0,
                        Payload::new(encode_f64s(&cells[..1])),
                        RecvSelector::of(me - 1, 1),
                    )
                    .await;
                decode_f64s(&m.payload.data)[0]
            } else {
                cells[0]
            };
            let right_halo = if me + 1 < n {
                let m = mpi
                    .sendrecv(
                        me + 1,
                        1,
                        Payload::new(encode_f64s(&cells[CELLS_PER_RANK - 1..])),
                        RecvSelector::of(me + 1, 0),
                    )
                    .await;
                decode_f64s(&m.payload.data)[0]
            } else {
                cells[CELLS_PER_RANK - 1]
            };
            // Explicit Euler step.
            let prev = cells.clone();
            for i in 0..CELLS_PER_RANK {
                let l = if i == 0 { left_halo } else { prev[i - 1] };
                let r = if i == CELLS_PER_RANK - 1 {
                    right_halo
                } else {
                    prev[i + 1]
                };
                cells[i] = prev[i] + ALPHA * (l - 2.0 * prev[i] + r);
            }
            mpi.compute(2_000.0 * CELLS_PER_RANK as f64).await;
        }
        for (i, &cell) in cells.iter().enumerate() {
            mpi.record("cell", i as u64, cell);
        }
    });

    let suite = Arc::new(
        CausalSuite::new(Technique::Vcausal, true).with_checkpoints(SimDuration::from_millis(20)),
    );
    let mut cfg = ClusterConfig::new(RANKS);
    cfg.detect_delay = SimDuration::from_millis(10);
    // Kill rank 1 in the thick of it.
    let faults = FaultPlan::kill_at(SimDuration::from_millis(45), 1);
    let report = run_cluster(&cfg, suite, program, &faults);

    assert!(report.completed, "run did not complete");
    // The last value each (rank, cell) recorded, in rod order.
    let rod: BTreeMap<_, _> = report
        .recorded
        .iter()
        .map(|r| ((r.rank, r.key), r.value))
        .collect();
    let parallel: Vec<f64> = rod.into_values().collect();
    let serial = reference();
    let max_err = parallel
        .iter()
        .zip(&serial)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!();
    println!("virtual time          : {}", report.makespan);
    println!(
        "crashes survived      : {}",
        report.stats.counter(Counter::NodeCrashes)
    );
    println!(
        "recoveries            : {:?}",
        report.rank_stats[1].recovery_total
    );
    println!("max |parallel-serial| : {max_err:e}");
    assert_eq!(
        parallel, serial,
        "recovered execution diverged from the sequential reference"
    );
    println!("OK: bitwise-identical to the sequential reference despite the crash.");
}
