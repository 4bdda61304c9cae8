//! Allocation cost of a checkpoint's copy of the sender-based log.
//!
//! A checkpoint image holds the sender's payload log, and so does a
//! restart from that image. `SenderLog` freezes each destination's tail
//! into a shared run every 64 entries, and `SenderLog::snapshot` freezes
//! what is left, then copies pointers. Freezing moves a tail's buffer
//! behind an `Arc`, so a snapshot allocates a run header per destination
//! and a pointer per run, and copies no entry. A deep copy of 100,000
//! logged messages would allocate at least their 100,000 stored entries,
//! 24 bytes each (pinned in `sender_log`'s unit tests).
//!
//! The file is its own test binary with a single test, because the
//! counting allocator is process-wide: nothing else may allocate on the
//! counted thread while a snapshot is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use vlog_core::SenderLog;
use vlog_vmpi::Payload;

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the measuring thread counts.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every request is forwarded unchanged to `System`; the counter
// and the thread-local flag (const-initialised, no destructor, so usable
// from inside the allocator) do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DSTS: usize = 16;
const ENTRIES: u64 = 100_000;
/// Bytes of one stored log entry.
const ENTRY_BYTES: u64 = 24;

/// A log of `entries` sends spread round-robin over `DSTS` destinations.
fn log_of(entries: u64) -> SenderLog {
    let mut log = SenderLog::new(DSTS);
    for i in 0..entries {
        log.insert(
            i as usize % DSTS,
            i / DSTS as u64,
            0,
            &Payload::synthetic(64),
        );
    }
    log
}

/// What `f` returns, and the bytes it allocated on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let out = f();
    COUNTED.with(|c| c.set(false));
    (out, BYTES.load(Ordering::Relaxed) - before)
}

#[test]
fn snapshotting_a_long_log_allocates_under_one_percent_of_a_deep_copy() {
    let mut log = log_of(ENTRIES);
    let deep = ENTRIES * ENTRY_BYTES;
    let (image, first) = counted(|| log.snapshot());
    println!("snapshot of {ENTRIES} entries: {first} bytes allocated (deep copy {deep})");
    assert!(
        first * 100 < deep,
        "a snapshot allocated {first} bytes, not under 1 % of the {deep}-byte deep copy"
    );
    // A second snapshot freezes nothing: it allocates what a clone of the
    // image, whose tails are empty, does.
    let (_, again) = counted(|| log.snapshot());
    let (_, pointers) = counted(|| image.clone());
    assert_eq!(again, pointers, "a second snapshot copied entries");
    // The image keeps every entry through later writes on the live log.
    for dst in 0..DSTS {
        log.prune_below(dst, ENTRIES / DSTS as u64 / 2);
        log.insert(dst, ENTRIES, 1, &Payload::synthetic(8));
    }
    assert_eq!(
        (image.len(), log.len()),
        (ENTRIES as usize, ENTRIES as usize / 2 + DSTS)
    );
    assert!(image
        .entries_from(3, 0)
        .map(|(ssn, _)| ssn)
        .eq(0..ENTRIES / DSTS as u64));
}
