//! Live-heap accounting behind `peak_heap_mb`: a counting wrapper
//! around the system allocator.
//!
//! Resident-set peaks (`VmHWM`) depend on allocator fragmentation, so
//! they change with the *order* of the runs a process happens to make;
//! the live-heap peak of one run depends only on that run's inputs.
//! Counting is switched on only for the runs whose heap is measured:
//! every allocation then pays atomic operations, which threads allocating
//! at once contend on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicIsize};

// Statistics only: they publish no other data, so `Relaxed` suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed while counting. Signed, because
/// memory allocated before counting began may be freed while it runs.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// `LIVE` when the current window opened.
static BASE: AtomicIsize = AtomicIsize::new(0);
/// Highest `LIVE` since the current window opened.
static PEAK: AtomicIsize = AtomicIsize::new(0);

struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn delta(bytes: usize, grow: bool) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    let bytes = isize::try_from(bytes).unwrap_or(isize::MAX);
    if grow {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    } else {
        LIVE.fetch_sub(bytes, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract is passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            delta(layout.size(), true);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc_zeroed` contract is passed on as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            delta(layout.size(), true);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        delta(layout.size(), false);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` contract is passed on as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size();
            delta(new_size.abs_diff(old), new_size >= old);
        }
        p
    }
}

/// Switches counting on or off.
pub fn count(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Opens a new window at the current live-heap size.
pub fn open_window() {
    let live = LIVE.load(Relaxed);
    BASE.store(live, Relaxed);
    PEAK.store(live, Relaxed);
}

/// The most the live heap grew above its size when the window opened,
/// bytes (0 while counting is off).
pub fn window_peak() -> usize {
    usize::try_from(PEAK.load(Relaxed) - BASE.load(Relaxed)).unwrap_or(0)
}
