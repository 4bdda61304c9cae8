//! The arena-backed event calendar: a slab of event slots addressed by
//! stable [`EventKey`] handles, filed in one hierarchical timer wheel
//! whose levels span every representable [`SimTime`].
//!
//! # Ordering contract
//!
//! The calendar dispatches in **exact `(time, seq)` order**, byte-for-byte
//! identical to one global priority queue ordered the same way. The wheel
//! only *partitions* events into time ranges; whenever a range becomes
//! current its entries are moved into a small exact-order staging buffer
//! (`cur`) that produces the final order. Determinism therefore does not depend on
//! bucket granularity, cascade timing or insertion pattern.
//!
//! # Structure
//!
//! * **Arena.** Every scheduled event lives in a slab slot — payload,
//!   `(time, seq)` and an intrusive chain link — recycled through a free
//!   list, so the steady-state run loop allocates nothing per event. The
//!   `(idx, gen)` pair is the public [`EventKey`]: stale keys (popped or
//!   recycled slots) are detected by a generation mismatch.
//! * **Wheel.** [`LEVELS`] levels of 64 slots; a wheel slot is just the
//!   `u32` head of a chain threaded through the arena's link fields, so
//!   parking an event is two stores and no allocation. A level-`k` slot
//!   spans `64^k` ticks of [`TICK_NS`] nanoseconds; level `k` covers the
//!   next `64^(k+1)` ticks, and the top level covers every tick of the
//!   `u64` nanosecond clock, so any event, however far ahead, has a
//!   level and nothing waits outside the wheel (Varghese & Lauck's
//!   hierarchical timing wheel). Insertion picks the level by distance
//!   from the wheel's current tick (O(1)); per-level occupancy bitmaps
//!   make "find the earliest non-empty slot" O(1). Entering a level-`k>0`
//!   slot cascades its chain one level down; entering a level-0 slot
//!   moves it into `cur` (one bulk sort per bucket, O(1) tail pops).
//!   Empty stretches of virtual time are skipped without touching any
//!   slot.
//!
//! # Withdrawal
//!
//! An event is withdrawn one way: [`EventCalendar::detach`] hands back
//! the payload now but keeps the dispatch slot, so `pop` still yields
//! `(time, seq, None)` at the scheduled instant, and event accounting
//! (`events_processed`, clock advancement) is the same as if the event
//! had run a handler that did nothing. The kernel exposes no withdrawal:
//! a timer, once set, pops, and its handler decides whether it still
//! matters; a dead incarnation's timer fails the generation check at
//! dispatch. `detach` stays as the calendar primitive a kernel-side
//! revision of a booked arrival needs (detach, then schedule at the new
//! instant), and the property tests keep it exact.

use crate::time::SimTime;

/// Nanoseconds per wheel tick (level-0 slot width). Events inside the
/// same tick are ordered exactly by the `cur` staging buffer, so this is
/// a pure performance knob, not a resolution limit.
pub const TICK_NS: u64 = 1 << TICK_SHIFT; // 4.096 us
const TICK_SHIFT: u32 = 12;
/// Bits per wheel level (64 slots each).
const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels: enough for `64^LEVELS` ticks to cover every
/// tick of a `u64` nanosecond clock (9 levels, `2^54` ticks).
pub const LEVELS: usize = (64 - TICK_SHIFT).div_ceil(LEVEL_BITS) as usize;
/// End-of-chain marker for the intrusive wheel lists.
const NIL: u32 = u32::MAX;

/// Ticks covered by one slot of `level`.
#[inline]
const fn slot_span(level: usize) -> u64 {
    1u64 << (LEVEL_BITS * level as u32)
}

/// Ticks covered by the whole of `level` (64 slots).
#[inline]
const fn level_span(level: usize) -> u64 {
    1u64 << (LEVEL_BITS * (level as u32 + 1))
}

#[inline]
fn tick_of(t: SimTime) -> u64 {
    t.as_nanos() >> TICK_SHIFT
}

/// Stable handle on a scheduled event. Survives any amount of wheel
/// cascading; invalidated when the event pops (detached events included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    idx: u32,
    gen: u32,
}

/// Ordering data plus the arena address, as staged in `cur`. 24 bytes,
/// `Copy`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    idx: u32,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One arena slot: the event itself plus its chain link.
///
/// `payload == None` means detached: the slot still dispatches as a
/// counted no-op. A slot returns to the free list only when it pops, so
/// chains never dangle.
struct ArenaSlot<T> {
    gen: u32,
    next: u32,
    time: SimTime,
    seq: u64,
    payload: Option<T>,
}

/// See module docs. `T` is the event payload; the simulation kernel uses
/// its `Event` enum, tests and benches use plain integers.
pub struct EventCalendar<T> {
    slots: Vec<ArenaSlot<T>>,
    free: Vec<u32>,
    seq: u64,
    /// Exact-order staging buffer for the currently active time window,
    /// sorted by `(time, seq)` ascending; `cur_head` is the next dispatch
    /// position (the consumed prefix is reclaimed when the buffer
    /// drains). Refill bulk-sorts a whole bucket once; a later arrival
    /// inside the window is placed by binary search — for the common
    /// burst shape (same tick, rising sequence numbers) that position is
    /// the end, an O(1) push.
    cur: Vec<Entry>,
    cur_head: usize,
    /// Exclusive end of the active window: every pending entry with
    /// `time < cur_end` is in `cur`; everything in the wheel is at
    /// `cur_end` or later.
    cur_end: SimTime,
    /// Chain heads into the arena, one per wheel slot.
    heads: [[u32; SLOTS]; LEVELS],
    occupied: [u64; LEVELS],
    /// Current wheel position in ticks; never exceeds the earliest
    /// pending wheel entry's tick.
    wheel_tick: u64,
}

impl<T> Default for EventCalendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventCalendar<T> {
    pub fn new() -> Self {
        EventCalendar {
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            cur: Vec::new(),
            cur_head: 0,
            cur_end: SimTime::ZERO,
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            wheel_tick: 0,
        }
    }

    /// Schedules `payload` at `time`. Events are dispatched in `(time,
    /// insertion order)`; `time` must not be earlier than the last popped
    /// entry (the kernel asserts this at its own layer).
    pub fn schedule(&mut self, time: SimTime, payload: T) -> EventKey {
        let seq = self.seq;
        self.seq += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                debug_assert!(slot.payload.is_none());
                slot.time = time;
                slot.seq = seq;
                slot.payload = Some(payload);
                slot.next = NIL;
                i
            }
            None => {
                self.slots.push(ArenaSlot {
                    gen: 0,
                    next: NIL,
                    time,
                    seq,
                    payload: Some(payload),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[idx as usize].gen;
        self.insert(Entry { time, seq, idx });
        EventKey { idx, gen }
    }

    /// The `(time, seq)` dispatch position of a pending live entry, or
    /// `None` for a stale key (popped or detached). The schedule-policy
    /// seam uses this to hand a policy the authoritative dispatch
    /// position of an event it just deferred.
    pub fn position_of(&self, key: EventKey) -> Option<(SimTime, u64)> {
        let slot = self.slots.get(key.idx as usize)?;
        (slot.gen == key.gen && slot.payload.is_some()).then_some((slot.time, slot.seq))
    }

    /// Detaches a pending event: the payload is handed back now but the
    /// dispatch slot is kept — `pop` still yields `(time, seq, None)` at
    /// the scheduled instant. Returns `None` for a stale key (popped or
    /// already detached).
    pub fn detach(&mut self, key: EventKey) -> Option<T> {
        let slot = self.slots.get_mut(key.idx as usize)?;
        if slot.gen != key.gen {
            return None;
        }
        slot.payload.take()
    }

    /// Time of the next dispatch (live or detached), if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.prepare().then(|| self.cur[self.cur_head].time)
    }

    /// Pops the next entry in exact `(time, seq)` order. The payload is
    /// `None` for detached events.
    pub fn pop(&mut self) -> Option<(SimTime, u64, EventKey, Option<T>)> {
        if !self.prepare() {
            return None;
        }
        let e = self.cur[self.cur_head];
        self.cur_head += 1;
        if self.cur_head == self.cur.len() {
            self.cur.clear();
            self.cur_head = 0;
        }
        let slot = &mut self.slots[e.idx as usize];
        let key = EventKey {
            idx: e.idx,
            gen: slot.gen,
        };
        let payload = slot.payload.take();
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(e.idx);
        Some((e.time, e.seq, key, payload))
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Routes an entry to the staging buffer or a wheel chain.
    fn insert(&mut self, e: Entry) {
        if e.time < self.cur_end {
            // Ascending order: find the first pending entry that sorts
            // after the newcomer. New events carry the highest sequence
            // number, so a same-time burst lands at the end — a plain
            // push with nothing to shift.
            let pos =
                self.cur_head + self.cur[self.cur_head..].partition_point(|x| x.cmp(&e).is_lt());
            self.cur.insert(pos, e);
            return;
        }
        // Every refill that moves the wheel ends with a level-0 take
        // whose window reaches past `wheel_tick`, so anything that missed
        // the window is at or ahead of the wheel.
        let t = tick_of(e.time);
        debug_assert!(t >= self.wheel_tick, "event behind the wheel");
        let delta = t - self.wheel_tick;
        for level in 0..LEVELS {
            if delta < level_span(level) {
                let slot = ((t >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                self.slots[e.idx as usize].next = self.heads[level][slot];
                self.heads[level][slot] = e.idx;
                self.occupied[level] |= 1 << slot;
                return;
            }
        }
        unreachable!("the top wheel level spans every tick");
    }

    /// Earliest candidate wheel slot as `(lower_bound_tick, level, slot)`,
    /// taking wrap-around into account (slots "behind" the current index
    /// belong to the next frame of their level).
    ///
    /// The bound is exact enough to drive the search: for every slot
    /// except the one holding `wheel_tick` itself, entries provably lie
    /// in a single frame, so the arithmetic range start is a reachable
    /// lower bound. The index slot of a level > 0 is the one place where
    /// current-frame and next-frame entries can legally mix (an insert
    /// near the end of a frame may wrap into the same slot one frame
    /// later while its delta stays within the level span), so its bound
    /// is computed from its actual minimum entry — otherwise a
    /// next-frame resident would shadow genuinely earlier slots and
    /// cascading it would re-insert it in place, looping forever.
    fn earliest_wheel_slot(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let shift = LEVEL_BITS * level as u32;
            let idx = ((self.wheel_tick >> shift) & (SLOTS as u64 - 1)) as u32;
            let span = slot_span(level);
            let frame = level_span(level);
            let frame_base = self.wheel_tick & !(frame - 1);
            let ahead = occ & (u64::MAX << idx);
            let wrapped = occ & !(u64::MAX << idx);
            let mut cand: Option<(u64, usize)> = None;
            let mut consider = |bound: u64, slot: usize| {
                if cand.is_none_or(|(b, _)| bound < b) {
                    cand = Some((bound, slot));
                }
            };
            if ahead != 0 {
                let s = ahead.trailing_zeros() as usize;
                if level > 0 && s as u32 == idx {
                    // The index slot can mix current-frame entries with
                    // next-frame ones; its true minimum decides, and the
                    // following ahead slot / first wrapped slot may beat
                    // an all-next-frame index slot.
                    let mut min = u64::MAX;
                    let mut link = self.heads[level][s];
                    while link != NIL {
                        let slot = &self.slots[link as usize];
                        min = min.min(tick_of(slot.time));
                        link = slot.next;
                    }
                    consider(min, s);
                    let rest = ahead & (ahead - 1);
                    if rest != 0 {
                        let s2 = rest.trailing_zeros() as usize;
                        consider(frame_base + s2 as u64 * span, s2);
                    }
                    if wrapped != 0 {
                        let w = wrapped.trailing_zeros() as usize;
                        consider(frame_base + frame + w as u64 * span, w);
                    }
                } else {
                    consider((frame_base + s as u64 * span).max(self.wheel_tick), s);
                }
            } else {
                let w = wrapped.trailing_zeros() as usize;
                consider(frame_base + frame + w as u64 * span, w);
            }
            let (start, slot) = cand.expect("level was occupied");
            // `<=` prefers cascading the highest level on ties: a coarser
            // slot starting at the same tick may hold an equally early
            // entry, so it must be broken up before a level-0 take.
            if best.is_none_or(|(bs, _, _)| start <= bs) {
                best = Some((start, level, slot));
            }
        }
        best
    }

    /// Detaches a wheel slot's chain and returns its head.
    fn take_chain(&mut self, level: usize, slot: usize) -> u32 {
        let head = self.heads[level][slot];
        self.heads[level][slot] = NIL;
        self.occupied[level] &= !(1 << slot);
        head
    }

    /// The staging entry for the chain link `idx`, and the link after it.
    #[inline]
    fn entry_at(&self, idx: u32) -> (Entry, u32) {
        let slot = &self.slots[idx as usize];
        let e = Entry {
            time: slot.time,
            seq: slot.seq,
            idx,
        };
        (e, slot.next)
    }

    /// Refills `cur` from the wheel. Returns false when the calendar has
    /// nothing pending at all. `cur` must be empty.
    fn refill(&mut self) -> bool {
        debug_assert!(self.cur.is_empty());
        while let Some((wt, level, slot)) = self.earliest_wheel_slot() {
            debug_assert!(wt >= self.wheel_tick);
            self.wheel_tick = wt;
            let mut link = self.take_chain(level, slot);
            if level == 0 {
                // This tick becomes the active window.
                self.cur_end = SimTime::from_nanos((wt << TICK_SHIFT).saturating_add(TICK_NS));
                while link != NIL {
                    let (e, next) = self.entry_at(link);
                    self.cur.push(e);
                    link = next;
                }
                self.cur.sort_unstable();
                return true;
            }
            // Cascade one level down (strictly: re-insertion lands below
            // `level` because the slot spans fewer ticks than `level`'s
            // own span).
            while link != NIL {
                let (e, next) = self.entry_at(link);
                self.insert(e);
                link = next;
            }
        }
        false
    }

    /// Ensures `cur` has a head. Returns false when the calendar is fully
    /// drained.
    fn prepare(&mut self) -> bool {
        self.cur_head < self.cur.len() || self.refill()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(cal: &mut EventCalendar<u32>) -> Vec<(u64, u64, Option<u32>)> {
        let mut out = Vec::new();
        while let Some((t, s, _k, p)) = cal.pop() {
            out.push((t.as_nanos(), s, p));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime::from_nanos(50), 0);
        cal.schedule(SimTime::from_nanos(10), 1);
        cal.schedule(SimTime::from_nanos(10), 2);
        cal.schedule(SimTime::from_nanos(7), 3);
        assert_eq!(
            drain(&mut cal),
            vec![
                (7, 3, Some(3)),
                (10, 1, Some(1)),
                (10, 2, Some(2)),
                (50, 0, Some(0))
            ]
        );
    }

    #[test]
    fn spans_every_level() {
        // One event per magnitude: same tick, next tick, each of the
        // lower wheel levels.
        let times: Vec<u64> = vec![
            1,
            TICK_NS + 1,
            TICK_NS * 100,
            TICK_NS * 5_000,
            TICK_NS * 300_000,
            TICK_NS * 10_000_000,
            TICK_NS * (1 << 25),
        ];
        let mut cal = EventCalendar::new();
        for (i, t) in times.iter().enumerate().rev() {
            cal.schedule(SimTime::from_nanos(*t), i as u32);
        }
        let popped = drain(&mut cal);
        let got: Vec<u64> = popped.iter().map(|(t, _, _)| *t).collect();
        assert_eq!(got, times);
        assert!(popped.iter().all(|(_, _, p)| p.is_some()));
    }

    #[test]
    fn orders_events_across_the_whole_clock() {
        // Both sides of level 3's reach (64^4 ticks, ~68.7 s), hours
        // ahead and the clock's last nanosecond: the upper levels.
        let level3_reach = TICK_NS << 24;
        let hour = 3_600_000_000_000;
        let times: Vec<u64> = vec![
            0,
            level3_reach - 1,
            level3_reach,
            level3_reach + TICK_NS,
            5 * hour,
            u64::MAX - 1,
        ];
        let mut cal = EventCalendar::new();
        for (i, t) in times.iter().enumerate().rev() {
            cal.schedule(SimTime::from_nanos(*t), i as u32);
        }
        let expect: Vec<_> = (0..times.len())
            .map(|i| (times[i], (times.len() - 1 - i) as u64, Some(i as u32)))
            .collect();
        assert_eq!(drain(&mut cal), expect);
    }

    #[test]
    fn detach_keeps_the_dispatch_slot() {
        let mut cal = EventCalendar::new();
        let a = cal.schedule(SimTime::from_nanos(10), 1u32);
        cal.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(cal.detach(a), Some(1));
        assert_eq!(cal.detach(a), None, "double detach is a no-op");
        assert_eq!(cal.position_of(a), None, "a detached key has no position");
        assert_eq!(
            drain(&mut cal),
            vec![(10, 0, None), (20, 1, Some(2))],
            "the detached entry kept its dispatch slot"
        );
    }

    #[test]
    fn keys_are_stale_after_pop_and_reuse() {
        let mut cal = EventCalendar::new();
        let a = cal.schedule(SimTime::from_nanos(5), 1u32);
        assert!(cal.pop().is_some());
        assert_eq!(cal.detach(a), None, "popped key is stale");
        // The freed slot is recycled with a new generation.
        let b = cal.schedule(SimTime::from_nanos(9), 2);
        assert_ne!(a, b);
        assert_eq!(cal.detach(a), None, "a recycled slot ignores the old key");
        assert_eq!(cal.detach(b), Some(2));
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_exact_order() {
        // Steady-state churn: every popped event schedules a successor a
        // little later, crossing many tick and frame boundaries.
        let mut cal = EventCalendar::new();
        let mut scheduled = Vec::new();
        for i in 0..4u64 {
            cal.schedule(SimTime::from_nanos(i * 37), i as u32);
            scheduled.push((i * 37, i as u32));
        }
        let mut next_id = 4u32;
        let mut popped = Vec::new();
        while let Some((t, _s, _k, p)) = cal.pop() {
            popped.push((t.as_nanos(), p.unwrap()));
            if next_id < 400 {
                // Deterministic pseudo-random stride, often same-tick.
                let stride = (next_id as u64 * 2_654_435_761) % 9_001;
                let at = t + crate::time::SimDuration::from_nanos(stride);
                cal.schedule(at, next_id);
                scheduled.push((at.as_nanos(), next_id));
                next_id += 1;
            }
        }
        // Ground truth: `scheduled` is in sequence order, so a *stable*
        // sort by time is exactly the `(time, seq)` dispatch order —
        // same-time ties included.
        let mut expect = scheduled;
        expect.sort_by_key(|&(t, _)| t);
        assert_eq!(popped, expect);
    }

    #[test]
    fn empty_calendar_behaves() {
        let mut cal = EventCalendar::<u32>::new();
        assert_eq!(cal.peek_time(), None);
        assert!(cal.pop().is_none());
    }

    #[test]
    fn slots_are_reused_without_growing_the_arena() {
        let mut cal = EventCalendar::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                cal.schedule(
                    SimTime::from_nanos(round * 1000 + i),
                    (round * 8 + i) as u32,
                );
            }
            for _ in 0..8 {
                assert!(cal.pop().is_some());
            }
        }
        // Steady-state churn of 8 in flight never needs more than 8
        // arena slots (free-list reuse), regardless of total volume.
        assert!(cal.slots.len() <= 8, "arena grew to {}", cal.slots.len());
    }
}
