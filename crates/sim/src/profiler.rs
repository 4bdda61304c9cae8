//! Kernel self-profiling: per-phase wall-clock counters.
//!
//! The simulator's headline number is simulated events per wall-second;
//! this module tells you where the wall time goes. Each [`Phase`] of
//! the run loop (calendar operations, event dispatch, network
//! modelling, statistics accounting, piggyback codec work) owns a
//! thread-local accumulator of call count and elapsed nanoseconds,
//! charged through cheap [`scope`] drop-guards placed on the hot paths.
//!
//! Profiling is **off by default** and costs one relaxed atomic load
//! per scope when disabled. [`set_enabled`] turns it on: a
//! process-local flag and no environment knob, since environment
//! mutation races across parallel tests.
//!
//! Wall-clock readings never enter [`crate::stats::Stats`] or any run
//! report: reports are part of the determinism fingerprint, and wall
//! time is the one quantity two identical runs legitimately disagree
//! on. A harness reads [`take`]/[`snapshot`] itself and derives what it
//! reports — `benchmark/`'s traced run turns them into its per-layer
//! rows.
//!
//! Phases may nest (the codec scope runs inside a dispatch scope), so
//! the per-phase nanoseconds are *inclusive* and do not sum to the
//! total wall time of the run.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The instrumented sections of the kernel hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Event-calendar operations: popping the next event, peeking the
    /// frontier, re-scheduling.
    Calendar,
    /// Dispatching one popped event into its actor or task handler, or
    /// the send it defers (includes all protocol hook work).
    Dispatch,
    /// Network modelling: NIC contention, frame pipelining, delivery
    /// scheduling in [`crate::net`].
    Net,
    /// Statistics accounting: per-message byte/histogram updates.
    Stats,
    /// Piggyback codec work: reduction builds and wire-length
    /// computation in the causal protocols.
    Codec,
}

/// Number of [`Phase`] variants (accumulator array size).
const N_PHASES: usize = 5;

impl Phase {
    fn index(self) -> usize {
        match self {
            Phase::Calendar => 0,
            Phase::Dispatch => 1,
            Phase::Net => 2,
            Phase::Stats => 3,
            Phase::Codec => 4,
        }
    }

    /// All phases in reporting order.
    pub fn all() -> [Phase; N_PHASES] {
        [
            Phase::Calendar,
            Phase::Dispatch,
            Phase::Net,
            Phase::Stats,
            Phase::Codec,
        ]
    }
}

/// One phase's accumulated readings on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseReading {
    /// Which phase this row describes.
    pub phase: Phase,
    /// Number of scopes charged to the phase.
    pub calls: u64,
    /// Total inclusive wall time of those scopes, nanoseconds.
    pub nanos: u64,
}

thread_local! {
    /// (calls, nanos) per phase, this thread only.
    static ACCUM: RefCell<[(u64, u64); N_PHASES]> =
        const { RefCell::new([(0, 0); N_PHASES]) };
}

/// Programmatic enable flag ([`set_enabled`]).
static FORCED: AtomicBool = AtomicBool::new(false);

/// Whether profiling scopes currently record.
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed)
}

/// Turns profiling collection on or off process-wide, independent of
/// the environment. Used by tests (environment mutation is racy under
/// a parallel test runner) and by harnesses that consume the counters
/// programmatically.
pub fn set_enabled(on: bool) {
    FORCED.store(on, Ordering::Relaxed);
}

/// Drop-guard charging its lifetime to a [`Phase`]. Inert (no clock
/// read) when profiling is disabled.
pub struct ScopeGuard {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let d = start.elapsed().as_nanos() as u64;
            ACCUM.with(|a| {
                let cell = &mut a.borrow_mut()[self.phase.index()];
                cell.0 += 1;
                cell.1 += d;
            });
        }
    }
}

/// Opens a profiling scope for `phase`; the elapsed wall time is
/// charged when the guard drops. One relaxed atomic load when
/// profiling is off.
#[inline]
pub fn scope(phase: Phase) -> ScopeGuard {
    ScopeGuard {
        phase,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

/// Current readings of every phase on this thread, reporting order.
pub fn snapshot() -> Vec<PhaseReading> {
    ACCUM.with(|a| {
        let acc = a.borrow();
        Phase::all()
            .iter()
            .map(|&phase| PhaseReading {
                phase,
                calls: acc[phase.index()].0,
                nanos: acc[phase.index()].1,
            })
            .collect()
    })
}

/// [`snapshot`] + reset: returns this thread's readings and zeroes the
/// accumulators, so successive runs on one worker thread report their
/// own deltas.
pub fn take() -> Vec<PhaseReading> {
    let out = snapshot();
    ACCUM.with(|a| *a.borrow_mut() = [(0, 0); N_PHASES]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test covers the enable/disable/accumulate/reset cycle: the
    /// enable flag is process-global, so splitting these assertions
    /// across parallel-running tests would race on it.
    #[test]
    fn scopes_accumulate_when_enabled_and_take_resets() {
        set_enabled(true);
        let _ = take();
        {
            let _g = scope(Phase::Calendar);
            std::hint::black_box(0u64);
        }
        {
            let _g = scope(Phase::Calendar);
        }
        let snap = snapshot();
        let cal = snap
            .iter()
            .find(|r| r.phase == Phase::Calendar)
            .copied()
            .unwrap();
        assert_eq!(cal.calls, 2);
        let taken = take();
        assert_eq!(
            taken.iter().map(|r| r.calls).sum::<u64>(),
            snap.iter().map(|r| r.calls).sum::<u64>()
        );
        let cleared = snapshot();
        assert!(cleared.iter().all(|r| r.calls == 0 && r.nanos == 0));
        set_enabled(false);
        // Disabled scopes are inert guards: no clock read, no record.
        let before = snapshot();
        {
            let _g = scope(Phase::Net);
        }
        assert_eq!(snapshot(), before);
    }
}
