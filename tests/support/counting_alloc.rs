//! The counting global allocator of the test binaries that pin heap calls
//! and bytes; a binary that declares this module installs it.
//!
//! Process-wide it counts allocator calls, the bytes they ask for, and the
//! bytes live and their peak. Per thread it keeps the bytes live and their
//! peak too, for a binary whose harness runs tests side by side. A
//! process-wide count is exact only on a binary without a test harness
//! (`harness = false`): libtest's own thread could allocate inside a
//! measured span.
//!
//! Included by `#[path]` from the test directories that need it.

#![allow(dead_code)] // each binary reads the counters it pins

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static ASKED: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and the most there have been since
/// [`peak_above_base`] last reset it.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's allocations minus its frees (negative when it frees
    /// what another thread allocated), and the high-water mark since
    /// [`thread_peak_above_base`] last reset it.
    static THREAD_LIVE: Cell<isize> = const { Cell::new(0) };
    static THREAD_PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Books one operation: an allocating call that asked for `asked` bytes
/// (`None` for a free), and the block going from `old` to `new` bytes.
fn book(asked: Option<usize>, old: usize, new: usize) {
    if let Some(asked) = asked {
        CALLS.fetch_add(1, Relaxed);
        ASKED.fetch_add(asked as u64, Relaxed);
    }
    if new >= old {
        let live = LIVE.fetch_add(new - old, Relaxed) + (new - old);
        PEAK.fetch_max(live, Relaxed);
    } else {
        LIVE.fetch_sub(old - new, Relaxed);
    }
    let _ = THREAD_LIVE.try_with(|live| {
        live.set(live.get() + new as isize - old as isize);
        let _ = THREAD_PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct CountingAllocator;

// SAFETY: every call is forwarded to `System` unchanged, so each pointer and
// layout is one `System` handed out or accepts; the bookkeeping touches only
// atomics and const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(Some(layout.size()), 0, layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(None, layout.size(), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(Some(new_size), layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`; returns its result with the allocator calls of the process
/// during it and the bytes they asked for.
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, asked) = (CALLS.load(Relaxed), ASKED.load(Relaxed));
    let out = f();
    (out, CALLS.load(Relaxed) - calls, ASKED.load(Relaxed) - asked)
}

/// The allocator calls of the process while `f` runs.
pub fn allocs_during(f: impl FnOnce()) -> u64 {
    measured(f).1
}

/// Runs `f` and returns its result with the most bytes that were live in
/// the process at once during it, above those live when it started.
pub fn peak_above_base<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

/// [`peak_above_base`] for the calling thread's own allocations.
pub fn thread_peak_above_base<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = THREAD_LIVE.with(Cell::get);
    THREAD_PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, (THREAD_PEAK.with(Cell::get) - base) as usize)
}
