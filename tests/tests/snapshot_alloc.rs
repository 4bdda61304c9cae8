//! Allocation cost of a checkpoint's copy of the causality store.
//!
//! A checkpoint image clones every rank's `DetSeq`s, and so does a restart
//! from that image. The sequence keeps its full chunks behind shared
//! pointers, so a clone allocates one pointer per chunk plus a copy of the
//! partial tail, not the determinants themselves: a deep copy of 100,000
//! packed 20-byte determinants would allocate 2 MB.
//!
//! The file is its own test binary with a single test, because the
//! counting allocator is process-wide: nothing else may allocate on the
//! counted thread while a clone is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use vlog_core::{DetSeq, Determinant, PackedDet};

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

const DETS: u64 = 100_000;

#[test]
fn cloning_a_long_sequence_allocates_under_one_percent_of_a_deep_copy() {
    let mut seq = DetSeq::new();
    for clock in 1..=DETS {
        seq.insert(Determinant {
            receiver: 0,
            clock,
            sender: 1,
            ssn: clock,
            cause: clock - 1,
        });
    }
    let deep = DETS * std::mem::size_of::<PackedDet>() as u64;
    let before = BYTES.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let snap = seq.clone();
    COUNTED.with(|c| c.set(false));
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    println!("clone of {DETS} determinants: {bytes} bytes allocated (deep copy {deep})");
    assert!(
        bytes * 100 < deep,
        "a clone allocated {bytes} bytes, not under 1 % of the {deep}-byte deep copy"
    );
    // The clone is a full, independent sequence.
    seq.prune_through(DETS / 2);
    assert_eq!(
        (snap.len(), seq.len()),
        (DETS as usize, (DETS / 2) as usize)
    );
    assert!(snap.iter().map(|d| d.clock).eq(1..=DETS));
}
