//! Recording allocates nothing: once a log exists, reading and writing
//! every site — by compile-time id or by run-time name — never reaches the
//! allocator. A counting global allocator watches this test's thread.

use slmetrics::{AccessKind, Site, SITES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised and without a destructor, so reading it inside
    // the allocator allocates nothing itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn recording_every_site_allocates_nothing() {
    let log = slmetrics::shared();
    let before = allocs();
    for _ in 0..3 {
        for site in Site::all() {
            log.borrow_mut().rec(site, AccessKind::Read);
            log.borrow_mut().rec(site, AccessKind::Write);
        }
        for &(ctx, field) in SITES {
            log.borrow_mut().r(ctx, field);
        }
        log.borrow_mut().r("no_such", "pair");
    }
    assert_eq!(allocs() - before, 0, "recording allocated");
    let log = log.borrow();
    for site in Site::all() {
        let c = log.get(site);
        assert_eq!(
            (c.reads, c.writes),
            (6, 3),
            "{}.{}",
            site.context(),
            site.field()
        );
    }
}
