//! The counting allocator counts a known pattern exactly. One test function:
//! the counters are process-wide, so assertions must not run beside other
//! allocating tests.

use slbench::alloc::{self, Counting, Counts};
use std::hint::black_box;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn counts_a_known_vec_pattern_exactly() {
    // Nothing is counted outside a region.
    let before = alloc::count(|| ()).1;
    assert_eq!(before, Counts::default());
    drop(black_box(vec![1u8; 4096]));
    assert_eq!(alloc::count(|| ()).1, Counts::default());

    // One allocation of 10 u64s, still live when the region ends.
    let (v, c) = alloc::count(|| black_box(Vec::<u64>::with_capacity(10)));
    assert_eq!(
        c,
        Counts {
            allocs: 1,
            bytes: 80,
            live: 80
        }
    );

    // Freed inside the region: counted, but no growth.
    let ((), c) = alloc::count(|| drop(black_box(Vec::<u64>::with_capacity(10))));
    assert_eq!(
        c,
        Counts {
            allocs: 1,
            bytes: 80,
            live: 0
        }
    );

    // Growing past capacity is one more call; bytes are what was requested.
    let mut v = v;
    v.extend(0..10);
    let ((), c) = alloc::count(|| v.reserve_exact(10));
    assert_eq!(
        c,
        Counts {
            allocs: 1,
            bytes: 160,
            live: 80
        }
    );

    // Freeing what an earlier region allocated shrinks the live heap.
    let ((), c) = alloc::count(|| drop(v));
    assert_eq!(
        c,
        Counts {
            allocs: 0,
            bytes: 0,
            live: -160
        }
    );

    // 100 boxes, 3 still held.
    let (kept, c) = alloc::count(|| {
        let mut kept = Vec::with_capacity(3);
        for i in 0..100u32 {
            let b = black_box(Box::new([i; 8]));
            if i < 3 {
                kept.push(b);
            }
        }
        kept
    });
    assert_eq!(
        c,
        Counts {
            allocs: 101,
            bytes: 100 * 32 + 3 * 8,
            live: 3 * 32 + 3 * 8
        }
    );
    drop(kept);
}
