//! Property tests of the event calendar: the wheel/arena structure must
//! dispatch in **exactly** the order of the old global binary heap, under
//! any interleaving of schedules, peeks, detachments and pops.
//!
//! The model is the pre-refactor structure itself — a `BinaryHeap`
//! ordered by `(time, seq)` — so any divergence is a real ordering (or
//! staleness-detection) bug in the calendar, not a modelling artifact.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use vlog_sim::{EventCalendar, EventKey, SimTime};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Pending,
    Detached,
    Popped,
}

/// Reference model: the old heap, plus explicit status tracking.
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    status: Vec<Status>,
    seq: u64,
}

impl Model {
    fn new() -> Self {
        Model {
            heap: BinaryHeap::new(),
            status: Vec::new(),
            seq: 0,
        }
    }

    fn schedule(&mut self, time: u64) -> u32 {
        let id = self.status.len() as u32;
        self.status.push(Status::Pending);
        self.heap.push(Reverse((time, self.seq, id)));
        self.seq += 1;
        id
    }

    /// Time of the next dispatch.
    fn peek(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }

    /// Next dispatch; a detached entry keeps its slot without a payload.
    fn pop(&mut self) -> Option<(u64, u64, Option<u32>)> {
        let Reverse((time, seq, id)) = self.heap.pop()?;
        let status = std::mem::replace(&mut self.status[id as usize], Status::Popped);
        match status {
            Status::Pending => Some((time, seq, Some(id))),
            Status::Detached => Some((time, seq, None)),
            Status::Popped => unreachable!("popped id still in the model heap"),
        }
    }
}

/// One scripted step. `arg` selects a delay or a victim key.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule { delay: u64 },
    Peek,
    Detach { victim: usize },
    Pop,
}

fn decode_op((kind, arg): (u8, u64)) -> Op {
    match kind % 6 {
        // Two schedule arms: near-future delays live in the wheel's low
        // levels; the rare huge ones (up to ~135 s) reach past level 3's
        // ~2^36 ns into the upper levels.
        0 | 1 => Op::Schedule {
            delay: arg % 50_000_000,
        },
        2 => Op::Schedule {
            delay: (arg % 64) * (1 << 31),
        },
        3 => Op::Peek,
        4 => Op::Detach {
            victim: arg as usize,
        },
        _ => Op::Pop,
    }
}

/// Runs the script through both structures, checking every observation.
fn run_script(raw_ops: &[(u8, u64)]) {
    let mut cal: EventCalendar<u32> = EventCalendar::new();
    let mut model = Model::new();
    let mut keys: Vec<(EventKey, u32)> = Vec::new();
    let mut now = 0u64;
    for &raw in raw_ops {
        match decode_op(raw) {
            Op::Schedule { delay } => {
                let time = now.saturating_add(delay);
                let id = model.schedule(time);
                let key = cal.schedule(SimTime::from_nanos(time), id);
                keys.push((key, id));
            }
            // `run_until`'s pause: the head is looked at but not taken,
            // and later schedules may still land before it.
            Op::Peek => {
                let got = cal.peek_time().map(|t| t.as_nanos());
                prop_assert_eq!(got, model.peek(), "peek disagreed with the model head");
            }
            Op::Detach { victim } if !keys.is_empty() => {
                let (key, id) = keys[victim % keys.len()];
                let expect = model.status[id as usize] == Status::Pending;
                if expect {
                    model.status[id as usize] = Status::Detached;
                }
                let got = cal.detach(key);
                prop_assert_eq!(
                    got.is_some(),
                    expect,
                    "detach of id {} disagreed with the model",
                    id
                );
                if let Some(p) = got {
                    prop_assert_eq!(p, id);
                }
            }
            Op::Detach { .. } => {}
            Op::Pop => {
                let want = model.pop();
                let got = cal.pop().map(|(t, s, _k, p)| (t.as_nanos(), s, p));
                prop_assert_eq!(got, want, "pop order diverged from the heap model");
                if let Some((t, _, _)) = got {
                    now = t;
                }
            }
        }
    }
    // Drain both to the end: the tails must agree too.
    loop {
        let want = model.pop();
        let got = cal.pop().map(|(t, s, _k, p)| (t.as_nanos(), s, p));
        prop_assert_eq!(got, want, "drain order diverged from the heap model");
        if got.is_none() {
            prop_assert_eq!(cal.peek_time(), None);
            return;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random `(time, seq)` schedules with interleaved peeks,
    /// detachments and pops dispatch identically through the old heap
    /// ordering model and the wheel/arena calendar.
    #[test]
    fn calendar_matches_heap_model(
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..120),
    ) {
        run_script(&ops);
    }

    /// Pure schedule-then-drain at wheel-stressing magnitudes: the lower
    /// levels up to 2^40 ns, including same-tick collisions.
    #[test]
    fn bulk_drain_is_fully_sorted(
        times in prop::collection::vec(0u64..(1u64 << 40), 1..200),
    ) {
        let mut cal: EventCalendar<u32> = EventCalendar::new();
        for (i, t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_nanos(*t), i as u32);
        }
        let mut want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (*t, i as u64))
            .collect();
        want.sort_unstable();
        let mut got = Vec::new();
        while let Some((t, s, _k, p)) = cal.pop() {
            prop_assert!(p.is_some());
            got.push((t.as_nanos(), s));
        }
        prop_assert_eq!(got, want);
    }
}
