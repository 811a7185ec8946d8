//! Allocation counting for the benches' allocation gates.
//!
//! [`Counting`] wraps the system allocator: while [`per_unit`] runs,
//! every `alloc`, `alloc_zeroed` and `realloc` call adds one. A bench
//! binary that gates allocations installs it as its own global
//! allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: picloud_bench::allocs::Counting = picloud_bench::allocs::Counting;
//! ```
//!
//! In a binary that does not, [`per_unit`] reads 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicU64};

// Statistics only: they publish no other data, so `Relaxed` suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The counting wrapper around [`System`].
pub struct Counting;

fn note() {
    if COUNTING.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter only observes
// the calls and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `alloc` contract is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `alloc_zeroed` contract is passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller's `realloc` contract is passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls `run` makes per unit of work it reports (at least
/// one unit is counted), on every thread of the process.
pub fn per_unit(run: impl FnOnce() -> u64) -> f64 {
    CALLS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let units = run();
    COUNTING.store(false, Relaxed);
    CALLS.load(Relaxed) as f64 / units.max(1) as f64
}
