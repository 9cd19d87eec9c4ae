//! A counting `#[global_allocator]` for the allocation-bound suites. Each
//! such suite is its own test binary and pulls this in with
//! `#[path = "common/counting_alloc.rs"] mod counting_alloc;`. The counter
//! is process-wide, so each suite holds exactly one `#[test]`: a second
//! one would run on another harness thread and allocate inside the first
//! one's measured windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes requested from the allocator so far, by every thread.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
/// Allocator calls (`alloc` and `realloc`) so far, by every thread.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the bytes allocated meanwhile by
/// every thread of the process.
#[allow(dead_code)] // each suite uses one of the two counts
pub fn bytes_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATED.load(Ordering::Relaxed) - before)
}

/// Runs `f` and returns its result with the allocator calls (`alloc` and
/// `realloc`) made meanwhile by every thread of the process.
#[allow(dead_code)] // each suite uses one of the two counts
pub fn calls_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}
