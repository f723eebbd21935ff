//! The process's peak live heap, counted by a global allocator that
//! wraps the system allocator.
//!
//! The resident set size is a poor gate here: the serve daemon's
//! connection threads land on the allocator's per-thread arenas, each of
//! which keeps what it freed, so the peak RSS of two runs of one seed
//! differed by a quarter. The bytes the program holds live do not; they
//! are what a change to its allocations moves.
//!
//! A shared atomic counter touched on every allocation slowed the
//! allocation-heavy passes by a tenth or more. Each thread therefore
//! keeps its own running delta and adds it to the shared count only once
//! it reaches [`FLUSH`] bytes either way; the peak is taken at those
//! flushes. The count is exact to within [`FLUSH`] per live thread, plus
//! whatever each exited thread had not flushed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// Bytes a thread's delta may reach before it is added to [`LIVE`].
const FLUSH: isize = 16 << 10;

/// Flushed live bytes of every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // const-initialised and without a destructor, so reading it never
    // allocates and works while a thread is being torn down
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    PENDING.with(|pending| {
        let sum = pending.get() + delta;
        if sum.abs() < FLUSH {
            pending.set(sum);
            return;
        }
        pending.set(0);
        let live = LIVE.fetch_add(sum, Relaxed) + sum;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    });
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

/// The system allocator, counting the bytes live and their peak.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(signed(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count(signed(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        count(-signed(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            count(signed(new_size) - signed(layout.size()));
        }
        moved
    }
}

/// Restart the peak from the bytes live now, so [`peak_mb`] reports the
/// phase that follows, such as one pass.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The peak live heap since the last [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / f64::from(1 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_covers_a_freed_allocation() {
        reset_peak();
        let block = std::hint::black_box(vec![1u8; 8 << 20]);
        drop(block);
        // other tests allocate and free concurrently, so only the block
        // itself, less one unflushed delta, is a sure lower bound
        assert!(peak_mb() >= 8.0 - 0.1, "peak {}", peak_mb());
    }
}
