//! A counting global allocator for tests that bound what one call
//! allocates. A test binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: common::CountingAlloc = common::CountingAlloc;
//! ```
//!
//! and wraps the call in [`measure`]. Counts are per thread, so tests
//! running alongside on other threads do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each thread's allocations, live bytes
/// and peak live bytes.
pub struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrank(bytes: usize) {
    // memory freed here may have been allocated on another thread
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are plain thread-locals that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// What one call allocated on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Usage {
    /// Allocations and reallocations made.
    pub allocations: usize,
    /// The most heap the call held at once, beyond what was live when
    /// it started.
    pub peak_bytes: usize,
}

/// Run `f`, counting what it allocates on this thread.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    let start_allocations = ALLOCATIONS.with(Cell::get);
    let start_live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start_live));
    let out = f();
    let usage = Usage {
        allocations: ALLOCATIONS.with(Cell::get) - start_allocations,
        peak_bytes: PEAK.with(Cell::get) - start_live,
    };
    (out, usage)
}
