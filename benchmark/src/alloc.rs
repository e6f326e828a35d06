//! A counting `#[global_allocator]`: every allocation the process makes is
//! tallied, so a rep can report exactly how many allocations its timed
//! slices performed. The count is a property of the program and its input,
//! not of the host, and repeats bit for bit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting calls that obtain memory.
pub struct Counting;

/// Single-writer bump: a plain load and store, not a locked read-modify-write,
/// so counting costs one `add` on the timed single-threaded reps. Two-thread
/// reps may lose increments; their counts are never reported.
#[inline]
fn bump() {
    ALLOCS.store(ALLOCS.load(Relaxed) + 1, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations since the process started.
pub fn count() -> u64 {
    ALLOCS.load(Relaxed)
}
