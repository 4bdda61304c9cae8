//! Live bytes of many causality stores that share one chunk pool.
//!
//! Without an Event Logger every rank keeps the whole causal history, so
//! n ranks used to hold n copies of the same determinants. Through one
//! `ChunkPool` the ranks of a run hold one copy of each frozen chunk:
//! here 16 stores learn the same 100,000-determinant history, each in its
//! own interleaving of creators and message lengths, one message per store
//! in turn, and together must hold
//! under 1.25 copies of it plus their partial tails (16 copies without
//! the pool).
//!
//! The file is its own test binary with a single test, because the
//! counting allocator is process-wide: nothing else may allocate on the
//! counted thread while the stores are fed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

use vlog_core::{ChunkPool, DetStore, Determinant, PackedDet};

struct Counting;

/// Bytes allocated minus bytes freed on the counted thread.
static LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Only the measuring thread counts.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: i64) {
    if COUNTED.with(Cell::get) {
        LIVE.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every request is forwarded unchanged to `System`; the counter
// and the thread-local flag (const-initialised, no destructor, so usable
// from inside the allocator) do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CREATORS: usize = 16;
const STORES: usize = 16;
const PER_CREATOR: u64 = 6_250;
/// A sequence's partial tail keeps room for one chunk of 64 packed
/// determinants.
const TAIL_BYTES: usize = 64 * std::mem::size_of::<PackedDet>();

/// Creator `c`'s event `clock`: one content per run, whoever learns it.
fn det(c: usize, clock: u64) -> Determinant {
    Determinant {
        receiver: c,
        clock,
        sender: (c + 1) % CREATORS,
        ssn: clock,
        cause: clock - 1,
    }
}

/// Store `s`'s next message: a run of creator `(round + 3s) mod 16`'s
/// events from `next` on, of a length that depends on `s` and the round.
fn message(s: usize, round: usize, next: &[u64; CREATORS]) -> Vec<Determinant> {
    let c = (round + 3 * s) % CREATORS;
    let len = 1 + ((round * 7 + s * 5) % 40) as u64;
    let end = (next[c] + len).min(PER_CREATOR + 1);
    (next[c]..end).map(|k| det(c, k)).collect()
}

#[test]
fn sixteen_stores_fed_one_history_hold_about_one_copy() {
    let copy = CREATORS * PER_CREATOR as usize * std::mem::size_of::<PackedDet>();
    let tails = STORES * CREATORS * TAIL_BYTES;
    COUNTED.with(|c| c.set(true));
    let before = LIVE.load(Ordering::Relaxed);
    let mut pool = ChunkPool::new();
    let mut stores: Vec<DetStore> = (0..STORES).map(|_| DetStore::new(CREATORS)).collect();
    // Round by round every store takes one message, and offers the pool
    // its new chunks after it, as a protocol does; even stores insert
    // whole runs, odd ones one determinant at a time.
    let mut next = [[1u64; CREATORS]; STORES];
    let mut round = 0;
    while next.iter().flatten().any(|&k| k <= PER_CREATOR) {
        for (s, store) in stores.iter_mut().enumerate() {
            let run = message(s, round, &next[s]);
            if s.is_multiple_of(2) {
                store.insert_run(&run);
            } else {
                for d in &run {
                    store.insert(*d);
                }
            }
            if let Some(last) = run.last() {
                next[s][last.receiver] = last.clock + 1;
            }
            store.share(&mut pool);
        }
        round += 1;
    }
    let live = (LIVE.load(Ordering::Relaxed) - before) as usize;
    COUNTED.with(|c| c.set(false));
    println!(
        "{STORES} stores of {} determinants: {live} live bytes (one copy {copy}, tails {tails})",
        CREATORS as u64 * PER_CREATOR
    );
    assert!(
        live * 4 < copy * 5 + tails * 4,
        "{live} live bytes, not under 1.25 x {copy} + {tails}"
    );
    // Every store holds the whole history, in order.
    let whole = stores[0].retained();
    assert_eq!(whole.len(), CREATORS * PER_CREATOR as usize);
    assert!(stores.iter().all(|store| store.retained() == whole));
}
