//! Pluggable schedule policies: a seam at the kernel's calendar pop site.
//!
//! The kernel dispatches events in exact `(time, seq)` order. For
//! schedule exploration (model-checking-lite) a [`SchedulePolicy`] may
//! intercept each payload-carrying event *before* it dispatches and
//! defer it: the event is re-inserted into the calendar at
//! `time + delta` with a fresh (highest) sequence number, without
//! advancing the clock or the event counter. A zero `delta` therefore
//! reorders the event behind its same-time peers; a positive `delta`
//! injects bounded extra latency (e.g. delays a delivery past a
//! checkpoint marker). [`ScriptPolicy`] additionally keeps every
//! perturbation *sound*: per-channel FIFO order — the reliable-channel
//! assumption the protocols are entitled to — is preserved by holding
//! later same-channel deliveries behind a deferred one.
//!
//! Determinism is preserved: given the same seed and the same policy
//! decisions, the perturbed run is itself byte-reproducible, so any
//! schedule an explorer finds can be replayed from its recorded
//! decision trace. With no policy installed the pop path is untouched;
//! the [`Fifo`] policy consults but always dispatches and is
//! byte-identical to no policy at all (guarded by
//! `crates/sim/tests/schedule_properties.rs`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::kernel::{ActorId, Event, NodeId};
use crate::time::{SimDuration, SimTime};

/// What kind of event is about to dispatch, as visible to a policy.
///
/// Carries enough metadata to make perturbation decisions addressable
/// (which actor, where the message came from, how big it is) without
/// exposing the payload itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Kernel-context work (fault injection, op completion, ...).
    Closure,
    /// A data-less actor wake-up.
    Poke {
        /// Target actor slot.
        actor: ActorId,
    },
    /// An actor timer.
    Timer {
        /// Owning actor slot.
        actor: ActorId,
    },
    /// A message delivery.
    Deliver {
        /// Destination actor slot.
        actor: ActorId,
        /// Node that emitted the message.
        src_node: NodeId,
        /// Total wire bytes of the message.
        bytes: u64,
    },
}

impl EventKind {
    /// Classifies a kernel event (internal; the kernel calls this at the
    /// pop site).
    pub(crate) fn of(event: &Event) -> EventKind {
        match event {
            // A deferred send is the closure `|sim| sim.net_send(..)` with
            // a typed body, a deferred completion `|sim| sim.complete(op)`;
            // policies see the stream they always saw.
            Event::Closure(_) | Event::NetSend { .. } | Event::Complete(_) => EventKind::Closure,
            Event::Poke { actor, .. } => EventKind::Poke { actor: *actor },
            Event::Timer { actor, .. } => EventKind::Timer { actor: *actor },
            Event::Deliver { actor, msg, .. } => EventKind::Deliver {
                actor: *actor,
                src_node: msg.src_node,
                bytes: msg.size.total(),
            },
        }
    }
}

/// Metadata of the event at the head of the calendar, offered to a
/// [`SchedulePolicy`] before dispatch.
#[derive(Debug, Clone, Copy)]
pub struct EventInfo {
    /// Scheduled dispatch instant.
    pub time: SimTime,
    /// Calendar sequence number (stable tiebreaker among same-time
    /// events; together with `time` it addresses this dispatch slot).
    pub seq: u64,
    /// Event classification and addressing metadata.
    pub kind: EventKind,
}

/// A policy's verdict on the event about to dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopDecision {
    /// Dispatch now, in the normal `(time, seq)` position.
    Dispatch,
    /// Re-insert the event at `time + delta` with a fresh sequence
    /// number. `delta == 0` reorders it behind all currently scheduled
    /// same-time events; `delta > 0` injects extra latency. The clock
    /// and `events_processed` are not touched by a deferral.
    ///
    /// Deferring a `Timer` keeps the kernel's crash-detach bookkeeping
    /// intact but invalidates any externally held [`crate::TimerHandle`]
    /// for it (a later cancel becomes a no-op), so policies normally
    /// perturb only deliveries — as [`ScriptPolicy`] does.
    Defer {
        /// Extra latency to inject (zero = same-time reorder).
        delta: SimDuration,
    },
}

/// A schedule policy: consulted by [`crate::Sim`] for every
/// payload-carrying event popped from the calendar (detached no-op
/// slots are never offered). Installed with
/// [`crate::Sim::set_schedule_policy`].
pub trait SchedulePolicy: Send {
    /// Decide the fate of the event described by `info`.
    fn on_pop(&mut self, info: &EventInfo) -> PopDecision;

    /// Called by the kernel immediately after a [`PopDecision::Defer`]
    /// re-inserted the event, with the authoritative `(time, seq)`
    /// dispatch position of the new calendar entry. A stateful policy
    /// uses this to recognize the re-offer exactly when it pops again.
    fn on_deferred(&mut self, new_time: SimTime, new_seq: u64) {
        let _ = (new_time, new_seq);
    }
}

/// The identity policy: always dispatch. A run with `Fifo` installed is
/// byte-identical to a run with no policy at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl SchedulePolicy for Fifo {
    fn on_pop(&mut self, _info: &EventInfo) -> PopDecision {
        PopDecision::Dispatch
    }
}

/// One recorded perturbation decision: the `index`-th message delivery
/// offered to the policy was deferred by `delta`.
///
/// The index counts only `Deliver` events (the policy-visible message
/// stream), which is deterministic given the seed and the decisions
/// applied so far — so a trace of `Decision`s replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Decision {
    /// Position in the run's delivery stream (0-based).
    pub index: u64,
    /// Latency injected at that position (zero = same-time reorder).
    pub delta: SimDuration,
}

/// Shared handle on the decisions a [`ScriptPolicy`] actually applied;
/// read it after the run to get the replayable trace.
pub type AppliedTrace = Arc<Mutex<Vec<Decision>>>;

/// A deterministic perturbation script: defers the `index`-th message
/// delivery by the scripted `delta`. Each entry fires at most once, so
/// any finite script terminates; non-`Deliver` events always dispatch.
///
/// **Per-channel FIFO is preserved.** The protocols above the kernel
/// assume reliable FIFO channels (the TCP connections of the real
/// MPICH-V), so a sound perturbation models *extra latency on a
/// channel*, never reordering within one. The policy therefore tracks,
/// per channel `(src_node, dst actor)`, the deferred instances still in
/// flight — identified by the exact `(time, seq)` position the kernel
/// reports through [`SchedulePolicy::on_deferred`] — plus the highest
/// target assigned so far. A delivery popped while channel-mates are
/// pending is held behind them (re-inserted at the highest target,
/// where its fresher sequence number keeps it last); deferral targets
/// per channel never decrease, so pending instances re-offer — and
/// dispatch — in original channel order. These forced holds are derived
/// deterministically from the script, so they are not recorded as
/// decisions. A scripted deferral of a pending instance that has
/// channel-mates queued behind it is skipped (dispatching the channel
/// head early is sound; pushing it behind its successors is not).
/// Deliveries on *other* channels still overtake freely — that
/// cross-channel reordering is the schedule space being explored.
///
/// The script doubles as the decision trace: running the same script on
/// the same seed replays the same schedule byte-for-byte, and
/// [`ScriptPolicy::applied`] exposes which entries actually fired
/// (entries beyond the run's delivery count are silently unused).
pub struct ScriptPolicy {
    script: BTreeMap<u64, SimDuration>,
    deliveries: u64,
    /// Per-channel FIFO bookkeeping for deferred deliveries in flight.
    channels: BTreeMap<(NodeId, ActorId), ChannelHold>,
    /// Channel whose deferral is awaiting its [`Self::on_deferred`]
    /// position report from the kernel.
    deferring: Option<(NodeId, ActorId)>,
    applied: AppliedTrace,
}

/// Deferred-delivery state of one channel.
#[derive(Default)]
struct ChannelHold {
    /// `(time, seq)` dispatch positions of this channel's deferred
    /// instances, in channel order (targets never decrease and ties
    /// break by the strictly increasing seq).
    pending: std::collections::BTreeSet<(SimTime, u64)>,
    /// Highest deferral target assigned on this channel; later holds
    /// and deferrals never undercut it.
    max_target: SimTime,
}

impl ScriptPolicy {
    /// Builds a policy from a perturbation script. Later duplicates of
    /// an index win (the script is keyed by delivery index).
    pub fn new(script: impl IntoIterator<Item = Decision>) -> ScriptPolicy {
        ScriptPolicy {
            script: script.into_iter().map(|d| (d.index, d.delta)).collect(),
            deliveries: 0,
            channels: BTreeMap::new(),
            deferring: None,
            applied: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Handle on the decisions applied so far; clone it out before
    /// installing the policy and read it after the run.
    pub fn applied(&self) -> AppliedTrace {
        self.applied.clone()
    }
}

impl SchedulePolicy for ScriptPolicy {
    fn on_pop(&mut self, info: &EventInfo) -> PopDecision {
        let EventKind::Deliver {
            actor, src_node, ..
        } = info.kind
        else {
            return PopDecision::Dispatch;
        };
        let index = self.deliveries;
        self.deliveries += 1;
        let chan = (src_node, actor);
        let hold = self.channels.entry(chan).or_default();
        // A pending instance pops in channel order (targets never
        // decrease, seqs strictly increase), so a match is always the
        // channel's earliest deferred delivery.
        let reoffer = hold.pending.remove(&(info.time, info.seq));
        let scripted = self.script.remove(&index);
        let target = match scripted {
            Some(delta) => {
                if reoffer && !hold.pending.is_empty() {
                    // Re-deferring the channel head behind its queued
                    // successors would reorder the channel; dispatching
                    // it on time is sound. Skip the decision (the spent
                    // index never recurs, so the entry is simply unused).
                    None
                } else {
                    self.applied.lock().unwrap().push(Decision { index, delta });
                    Some((info.time + delta).max(hold.max_target))
                }
            }
            // FIFO hold: this delivery trails deferred channel-mates and
            // must stay behind them. Derived from the script, so not
            // recorded as a decision. (`max_target >= info.time` here:
            // a pending instance's target is never in the past.)
            None if !reoffer && !hold.pending.is_empty() => Some(hold.max_target),
            None => None,
        };
        match target {
            Some(target) => {
                hold.max_target = target;
                self.deferring = Some(chan);
                PopDecision::Defer {
                    delta: target.saturating_since(info.time),
                }
            }
            None => {
                if hold.pending.is_empty() {
                    self.channels.remove(&chan);
                }
                PopDecision::Dispatch
            }
        }
    }

    fn on_deferred(&mut self, new_time: SimTime, new_seq: u64) {
        let chan = self
            .deferring
            .take()
            .expect("on_deferred without a pending deferral");
        self.channels
            .get_mut(&chan)
            .expect("deferring channel exists")
            .pending
            .insert((new_time, new_seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver_info_at(nanos: u64, seq: u64) -> EventInfo {
        EventInfo {
            time: SimTime::ZERO + SimDuration::from_nanos(nanos),
            seq,
            kind: EventKind::Deliver {
                actor: 0,
                src_node: 0,
                bytes: 1,
            },
        }
    }

    fn deliver_info(seq: u64) -> EventInfo {
        deliver_info_at(0, seq)
    }

    #[test]
    fn fifo_always_dispatches() {
        let mut p = Fifo;
        assert_eq!(p.on_pop(&deliver_info(0)), PopDecision::Dispatch);
    }

    #[test]
    fn script_fires_each_entry_once_and_records_it() {
        let mut p = ScriptPolicy::new([Decision {
            index: 1,
            delta: SimDuration::from_nanos(5),
        }]);
        let applied = p.applied();
        assert_eq!(p.on_pop(&deliver_info(0)), PopDecision::Dispatch);
        assert_eq!(
            p.on_pop(&deliver_info(1)),
            PopDecision::Defer {
                delta: SimDuration::from_nanos(5)
            }
        );
        // The kernel reports where the deferred event landed ...
        p.on_deferred(SimTime::ZERO + SimDuration::from_nanos(5), 2);
        // ... and the re-offer at that exact position is a *new* index;
        // the spent entry must not re-fire.
        assert_eq!(p.on_pop(&deliver_info_at(5, 2)), PopDecision::Dispatch);
        assert_eq!(
            &*applied.lock().unwrap(),
            &[Decision {
                index: 1,
                delta: SimDuration::from_nanos(5)
            }]
        );
    }

    #[test]
    fn deferral_holds_later_deliveries_on_the_same_channel() {
        let mut p = ScriptPolicy::new([Decision {
            index: 0,
            delta: SimDuration::from_nanos(100),
        }]);
        let applied = p.applied();
        let info = |t, seq, src| EventInfo {
            time: SimTime::ZERO + SimDuration::from_nanos(t),
            seq,
            kind: EventKind::Deliver {
                actor: 0,
                src_node: src,
                bytes: 1,
            },
        };
        let at = |t| SimTime::ZERO + SimDuration::from_nanos(t);
        // Delivery 0 (channel 0→0) deferred to t=100; the kernel reports
        // the fresh calendar position it landed at.
        assert_eq!(
            p.on_pop(&info(0, 0, 0)),
            PopDecision::Defer {
                delta: SimDuration::from_nanos(100)
            }
        );
        p.on_deferred(at(100), 10);
        // Delivery 1, same channel at t=40: held back to t=100 so channel
        // FIFO survives — but not recorded as a decision.
        assert_eq!(
            p.on_pop(&info(40, 1, 0)),
            PopDecision::Defer {
                delta: SimDuration::from_nanos(60)
            }
        );
        p.on_deferred(at(100), 11);
        // Delivery 2 on a *different* channel overtakes freely.
        assert_eq!(p.on_pop(&info(40, 2, 1)), PopDecision::Dispatch);
        // The deferred pair re-offers at the exact positions the kernel
        // reported and dispatches in original (fresh-seq) order; the
        // holds are spent.
        assert_eq!(p.on_pop(&info(100, 10, 0)), PopDecision::Dispatch);
        assert_eq!(p.on_pop(&info(100, 11, 0)), PopDecision::Dispatch);
        assert_eq!(
            &*applied.lock().unwrap(),
            &[Decision {
                index: 0,
                delta: SimDuration::from_nanos(100)
            }],
            "forced FIFO holds must not pollute the recorded trace"
        );
    }

    #[test]
    fn re_deferring_a_held_channel_head_is_skipped() {
        // Pushing a deferred channel head behind its queued successors
        // would reorder the channel — the scripted decision is dropped
        // and the head dispatches on time instead.
        let mut p = ScriptPolicy::new([
            Decision {
                index: 0,
                delta: SimDuration::from_nanos(100),
            },
            Decision {
                index: 2,
                delta: SimDuration::from_nanos(50),
            },
        ]);
        let applied = p.applied();
        let at = |t| SimTime::ZERO + SimDuration::from_nanos(t);
        let info = |t, seq| EventInfo {
            time: at(t),
            seq,
            kind: EventKind::Deliver {
                actor: 0,
                src_node: 0,
                bytes: 1,
            },
        };
        assert_eq!(
            p.on_pop(&info(0, 0)),
            PopDecision::Defer {
                delta: SimDuration::from_nanos(100)
            }
        );
        p.on_deferred(at(100), 10);
        // Same-channel successor, FIFO-held behind the deferred head.
        assert_eq!(
            p.on_pop(&info(40, 1)),
            PopDecision::Defer {
                delta: SimDuration::from_nanos(60)
            }
        );
        p.on_deferred(at(100), 11);
        // The head re-offers as index 2 — scripted for another deferral,
        // but a successor is queued behind it: skip and dispatch.
        assert_eq!(p.on_pop(&info(100, 10)), PopDecision::Dispatch);
        assert_eq!(p.on_pop(&info(100, 11)), PopDecision::Dispatch);
        assert_eq!(
            &*applied.lock().unwrap(),
            &[Decision {
                index: 0,
                delta: SimDuration::from_nanos(100)
            }],
            "a skipped decision must not be recorded"
        );
    }

    #[test]
    fn script_ignores_non_delivery_events() {
        let mut p = ScriptPolicy::new([Decision {
            index: 0,
            delta: SimDuration::ZERO,
        }]);
        let timer = EventInfo {
            time: SimTime::ZERO,
            seq: 0,
            kind: EventKind::Timer { actor: 3 },
        };
        // Timers neither consume a delivery index nor get deferred.
        assert_eq!(p.on_pop(&timer), PopDecision::Dispatch);
        assert_eq!(
            p.on_pop(&deliver_info(1)),
            PopDecision::Defer {
                delta: SimDuration::ZERO
            }
        );
    }
}
