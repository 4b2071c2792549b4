//! The counting allocator behind `*.allocs_per_op`, `*.alloc_bytes_per_op`
//! and `*.conn_heap_bytes`.
//!
//! It forwards to the system allocator and, while [`count`] is running,
//! adds up calls, bytes requested and net live bytes. Outside a counted
//! region — every timed batch — an allocation pays one relaxed load and
//! nothing else. The only `unsafe` in the repository lives in this file, so
//! the product workspace keeps its zero-`unsafe` property.
//!
//! A binary opts in with
//! `#[global_allocator] static A: slbench::alloc::Counting = slbench::alloc::Counting;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

// Plain statistics: none of them publishes other data, so `Relaxed` is
// enough (and the benchmark counts on one thread).
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

/// The allocator type; see the module documentation.
pub struct Counting;

/// One allocator call that asked for `size` bytes where `old` were held.
#[inline]
fn note(size: usize, old: usize) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        LIVE.fetch_add(size as i64 - old as i64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` asks the allocator once per step: one call,
        // `new_size` bytes requested.
        note(new_size, layout.size());
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one counted region asked of the allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes requested minus bytes released inside the region: the growth
    /// of the live heap (negative when the region freed more than it took).
    pub live: i64,
}

fn snapshot() -> Counts {
    Counts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
    }
}

/// Run `f` with counting on and return what it allocated. Regions do not
/// nest: the flag is simply cleared when `f` returns. Reads zero unless the
/// binary installed [`Counting`] as its global allocator.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let before = snapshot();
    ENABLED.store(true, Relaxed);
    let out = f();
    ENABLED.store(false, Relaxed);
    let after = snapshot();
    (
        out,
        Counts {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
            live: after.live - before.live,
        },
    )
}
