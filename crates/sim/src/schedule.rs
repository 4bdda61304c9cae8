//! The schedule seam: one perturbation script that the run's kernel owns.
//!
//! The kernel dispatches events in exact `(time, seq)` order. For
//! schedule exploration (model-checking-lite) and seeded jitter a run
//! may carry a script: a list of [`Decision`]s, each deferring one
//! message delivery. A deferred delivery is re-inserted into the
//! calendar at `time + delta` with a fresh (highest) sequence number,
//! without advancing the clock or the event counter. A zero `delta`
//! therefore reorders the delivery behind its same-time peers; a
//! positive `delta` injects bounded extra latency (e.g. delays a
//! delivery past a checkpoint marker).
//!
//! **Data in, data out.** [`crate::Sim::set_schedule`] hands the run its
//! decisions, the run loop offers the script every
//! [`Event::Deliver`](crate::Event::Deliver) it pops — and no other
//! event: timers (a task's wake-ups included), closures and completions
//! always dispatch in place — and [`crate::Sim::applied`] reads back which decisions
//! fired. The script is a plain value in a field of the `Sim`, reached
//! through the `&mut Sim` the run loop already holds: no trait object,
//! no lock, no handle that outlives the run.
//!
//! **Per-channel FIFO is preserved.** The protocols above the kernel
//! assume reliable FIFO channels (the TCP connections of the real
//! MPICH-V), so a sound perturbation models *extra latency on a
//! channel*, never reordering within one. The script therefore tracks,
//! per channel `(src_node, dst actor)`, the deferred instances still in
//! flight — identified by the exact `(time, seq)` position the calendar
//! gave each on re-insertion — plus the highest target assigned so far.
//! A delivery popped while channel-mates are pending is held behind
//! them (re-inserted at the highest target, where its fresher sequence
//! number keeps it last); deferral targets per channel never decrease,
//! so pending instances re-offer — and dispatch — in original channel
//! order. These forced holds are derived deterministically from the
//! script, so they are not recorded as decisions. A scripted deferral of
//! a pending instance that has channel-mates queued behind it is
//! skipped (dispatching the channel head early is sound; pushing it
//! behind its successors is not). Deliveries on *other* channels still
//! overtake freely — that cross-channel reordering is the schedule
//! space being explored.
//!
//! Determinism is preserved: given the same seed and the same script,
//! the perturbed run is itself byte-reproducible, and re-running the
//! applied trace of a run reproduces that run. Each entry fires at most
//! once, so any finite script terminates; entries beyond the run's
//! delivery count are silently unused. With no script the pop path is
//! untouched, and an empty script is byte-identical to none (guarded by
//! `crates/sim/tests/schedule_properties.rs`).

use std::collections::{BTreeMap, BTreeSet};

use crate::kernel::{ActorId, NodeId};
use crate::time::{SimDuration, SimTime};

/// One perturbation decision: the `index`-th message delivery the run
/// loop pops is deferred by `delta`.
///
/// The index counts only `Deliver` events (re-offers of a deferred
/// delivery included), a stream that is deterministic given the seed
/// and the decisions applied so far — so a trace of `Decision`s replays
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Decision {
    /// Position in the run's delivery stream (0-based).
    pub index: u64,
    /// Latency injected at that position (zero = same-time reorder).
    pub delta: SimDuration,
}

/// A channel: emitting node and destination actor slot.
type Channel = (NodeId, ActorId);

/// A calendar dispatch position, `(time, seq)`.
type Position = (SimTime, u64);

/// The script of one run and what it has done so far (module docs).
pub(crate) struct Script {
    /// Decisions not yet reached, keyed by delivery index.
    script: BTreeMap<u64, SimDuration>,
    deliveries: u64,
    /// Per-channel FIFO bookkeeping for deferred deliveries in flight.
    channels: BTreeMap<Channel, ChannelHold>,
    /// The decisions that fired, in firing order.
    applied: Vec<Decision>,
}

/// Deferred-delivery state of one channel.
#[derive(Default)]
struct ChannelHold {
    /// Dispatch positions of this channel's deferred instances, in
    /// channel order (targets never decrease and ties break by the
    /// strictly increasing seq).
    pending: BTreeSet<Position>,
    /// Highest deferral target assigned on this channel; later holds
    /// and deferrals never undercut it.
    max_target: SimTime,
}

impl Script {
    /// Later duplicates of an index win (the script is keyed by delivery
    /// index).
    pub(crate) fn new(script: impl IntoIterator<Item = Decision>) -> Script {
        Script {
            script: script.into_iter().map(|d| (d.index, d.delta)).collect(),
            deliveries: 0,
            channels: BTreeMap::new(),
            applied: Vec::new(),
        }
    }

    pub(crate) fn applied(&self) -> &[Decision] {
        &self.applied
    }

    /// Offers the delivery on `chan` the run loop just popped at `at`.
    /// To defer it the script calls `reinsert` with the target instant;
    /// the kernel re-inserts the event there and answers with the
    /// position the calendar gave it, which is how the script knows the
    /// re-offer when it pops. Returns whether the delivery was deferred.
    pub(crate) fn offer(
        &mut self,
        chan: Channel,
        at: Position,
        reinsert: impl FnOnce(SimTime) -> Position,
    ) -> bool {
        let index = self.deliveries;
        self.deliveries += 1;
        // Nothing scripted here and nothing deferred on the channel (a
        // channel is in the map only while it has instances in flight):
        // dispatch in place without touching the channel map.
        if !self.script.contains_key(&index) && !self.channels.contains_key(&chan) {
            return false;
        }
        let hold = self.channels.entry(chan).or_default();
        // A pending instance pops in channel order (targets never
        // decrease, seqs strictly increase), so a match is always the
        // channel's earliest deferred delivery.
        let reoffer = hold.pending.remove(&at);
        let target = match self.script.remove(&index) {
            // Re-deferring the channel head behind its queued successors
            // would reorder the channel; dispatching it on time is
            // sound. Skip the decision (the spent index never recurs, so
            // the entry is simply unused).
            Some(_) if reoffer && !hold.pending.is_empty() => None,
            Some(delta) => {
                self.applied.push(Decision { index, delta });
                Some((at.0 + delta).max(hold.max_target))
            }
            // FIFO hold: this delivery trails deferred channel-mates and
            // must stay behind them. Derived from the script, so not
            // recorded as a decision. (`max_target >= at.0` here: a
            // pending instance's target is never in the past.)
            None if !reoffer && !hold.pending.is_empty() => Some(hold.max_target),
            None => None,
        };
        match target {
            Some(target) => {
                hold.max_target = target;
                hold.pending.insert(reinsert(target));
                true
            }
            None => {
                if hold.pending.is_empty() {
                    self.channels.remove(&chan);
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAN: Channel = (0, 0);

    fn at(nanos: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(nanos)
    }

    fn decision(index: u64, nanos: u64) -> Decision {
        Decision {
            index,
            delta: SimDuration::from_nanos(nanos),
        }
    }

    /// Offers a delivery popped at `(at(t), seq)`; a deferred one lands
    /// at calendar sequence number `lands`. Returns the deferral target.
    fn offer(s: &mut Script, chan: Channel, t: u64, seq: u64, lands: u64) -> Option<SimTime> {
        let mut target = None;
        let deferred = s.offer(chan, (at(t), seq), |to| {
            target = Some(to);
            (to, lands)
        });
        assert_eq!(deferred, target.is_some());
        target
    }

    #[test]
    fn script_fires_each_entry_once_and_records_it() {
        let mut s = Script::new([decision(1, 5)]);
        assert_eq!(offer(&mut s, CHAN, 0, 0, 9), None);
        // Deferred by 5 ns, landing at calendar position (5, 2) ...
        assert_eq!(offer(&mut s, CHAN, 0, 1, 2), Some(at(5)));
        // ... and the re-offer at that exact position is a *new* index;
        // the spent entry must not re-fire.
        assert_eq!(offer(&mut s, CHAN, 5, 2, 9), None);
        assert_eq!(s.applied(), [decision(1, 5)]);
    }

    #[test]
    fn deferral_holds_later_deliveries_on_the_same_channel() {
        let mut s = Script::new([decision(0, 100)]);
        // Delivery 0 (channel 0→0) deferred to t=100, landing at seq 10.
        assert_eq!(offer(&mut s, CHAN, 0, 0, 10), Some(at(100)));
        // Delivery 1, same channel at t=40: held back to t=100 so channel
        // FIFO survives — but not recorded as a decision.
        assert_eq!(offer(&mut s, CHAN, 40, 1, 11), Some(at(100)));
        // Delivery 2 on a *different* channel overtakes freely.
        assert_eq!(offer(&mut s, (1, 0), 40, 2, 9), None);
        // The deferred pair re-offers at the exact positions the calendar
        // gave it and dispatches in original (fresh-seq) order; the
        // holds are spent.
        assert_eq!(offer(&mut s, CHAN, 100, 10, 9), None);
        assert_eq!(offer(&mut s, CHAN, 100, 11, 9), None);
        assert_eq!(
            s.applied(),
            [decision(0, 100)],
            "forced FIFO holds must not pollute the recorded trace"
        );
    }

    #[test]
    fn re_deferring_a_held_channel_head_is_skipped() {
        // Pushing a deferred channel head behind its queued successors
        // would reorder the channel — the scripted decision is dropped
        // and the head dispatches on time instead.
        let mut s = Script::new([decision(0, 100), decision(2, 50)]);
        assert_eq!(offer(&mut s, CHAN, 0, 0, 10), Some(at(100)));
        // Same-channel successor, FIFO-held behind the deferred head.
        assert_eq!(offer(&mut s, CHAN, 40, 1, 11), Some(at(100)));
        // The head re-offers as index 2 — scripted for another deferral,
        // but a successor is queued behind it: skip and dispatch.
        assert_eq!(offer(&mut s, CHAN, 100, 10, 9), None);
        assert_eq!(offer(&mut s, CHAN, 100, 11, 9), None);
        assert_eq!(
            s.applied(),
            [decision(0, 100)],
            "a skipped decision must not be recorded"
        );
    }
}
