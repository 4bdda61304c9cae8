//! The benchmark binary's counting allocator: `System` plus two relaxed
//! counters that only move while counting is switched on (the traced
//! run). With counting off the cost is one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// and publish no other data. `realloc` and `alloc_zeroed` are forwarded
// too, so the program keeps `System`'s in-place growth and zeroed pages
// instead of the trait's alloc-copy-free defaults.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far.
pub fn counted() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test drives the whole on/off cycle: the switch is
    /// process-global and no other test touches it. Other tests allocate
    /// on parallel threads meanwhile (and one of them may be past the
    /// switch check when it flips), so the test allocates a block far
    /// larger than anything they request and looks for it in the byte
    /// counter.
    #[test]
    fn counts_only_while_enabled() {
        const BIG: usize = 64 << 20;
        set_counting(true);
        let (calls, bytes) = counted();
        drop(std::hint::black_box(Vec::<u8>::with_capacity(BIG)));
        let (calls_on, bytes_on) = counted();
        assert!(
            calls_on > calls,
            "an allocation under counting was not counted"
        );
        assert!(bytes_on - bytes >= BIG as u64);
        set_counting(false);
        drop(std::hint::black_box(Vec::<u8>::with_capacity(BIG)));
        assert!(
            counted().1 - bytes_on < BIG as u64,
            "counted with counting off"
        );
    }
}
