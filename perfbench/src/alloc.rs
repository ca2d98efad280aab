//! A counting wrapper around the system allocator.
//!
//! The benchmark binary installs [`CountingAlloc`] as its global
//! allocator. Counting is off until [`set_enabled`] turns it on, which
//! only the traced run does; while off, each allocation costs one relaxed
//! load more than the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus allocation counters.
pub struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THIS_THREAD: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note() {
    if ENABLED.load(Ordering::Relaxed) {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        // A const-initialized `Cell` has no destructor, so this never
        // allocates and never fails outside thread teardown.
        let _ = THIS_THREAD.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and a const-initialized thread-local `Cell`, neither of which
// allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Allocations counted so far on every thread.
pub fn total() -> u64 {
    TOTAL.load(Ordering::SeqCst)
}

/// Allocations counted so far on the calling thread.
pub fn this_thread() -> u64 {
    THIS_THREAD.with(Cell::get)
}
