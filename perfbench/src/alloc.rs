//! A counting global allocator: the number of heap allocations and the
//! peak live heap of the whole process.
//!
//! The counters are process-wide statistics. With `TYDI_THREADS=1` a
//! span's allocation count is exact; with worker threads it also
//! includes what the workers allocate while the span is open, which
//! is still that layer's work because the benchmark runs one layer
//! call at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Wraps the system allocator and counts every allocation.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System` upholds the `GlobalAlloc` contract;
// the counters only read sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` comes from the caller, who guarantees it
        // has a non-zero size, as `System.alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && counted() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && counted() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` was allocated by this
        // allocator (hence by `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if counted() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` and `layout` describe a
        // live block of this allocator and that `new_size` is valid.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() && counted() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

/// Allocations made so far by the whole process.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The largest live heap seen so far, in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

thread_local! {
    static UNCOUNTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn counted() -> bool {
    !UNCOUNTED.with(|flag| flag.get())
}

/// Runs `f` with this thread's allocations left out of every counter.
/// Everything `f` allocates must be freed before it returns.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    UNCOUNTED.with(|flag| flag.set(true));
    let out = f();
    UNCOUNTED.with(|flag| flag.set(false));
    out
}
