//! A received segment allocates nothing of its own. Once a connection has
//! warmed up, `Stack::on_frame` with the next in-order data segment reaches
//! the allocator exactly once — for the ack frame it encodes — and
//! `HostStack::recv` exactly once, for the `Vec` it returns: the payload
//! goes from the frame into OSR's read buffer, and out of it, by copy
//! alone. A counting global allocator watches this test's thread.

use netsim::{HostStack, Stack, Time};
use slwire::{Endpoint, FourTuple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use sublayer_core::{ConnId, SlConfig, SlTcpStack};

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

/// Run `f`, returning what it returned and how many allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const CLIENT: u32 = 1;
const SERVER: u32 = 2;

/// Everything `from` has queued, driven the way a host drives a stack
/// (one connection at a time), so neither stack builds a schedule.
fn frames(from: &mut SlTcpStack, id: ConnId) -> Vec<Vec<u8>> {
    from.pump_conn(Time::ZERO, id);
    std::iter::from_fn(|| from.take_frame()).collect()
}

#[test]
fn an_in_order_segment_allocates_only_its_ack_and_a_read_only_its_vec() {
    let new = |addr| SlTcpStack::new(addr, SlConfig::default(), slmetrics::shared());
    let (mut client, mut server) = (new(CLIENT), new(SERVER));
    server.listen(80);
    let cid = client.connect(Time::ZERO, 5000, Endpoint::new(SERVER, 80));
    frames(&mut client, cid)
        .iter()
        .for_each(|f| server.on_frame(Time::ZERO, f));
    let tuple = FourTuple {
        local: Endpoint::new(SERVER, 80),
        remote: Endpoint::new(CLIENT, 5000),
    };
    let sid = server.conn_for_tuple(&tuple).expect("SYN admitted");
    let shuttle = |client: &mut SlTcpStack, server: &mut SlTcpStack| loop {
        let (up, down) = (frames(client, cid), frames(server, sid));
        if up.is_empty() && down.is_empty() {
            break;
        }
        up.iter().for_each(|f| server.on_frame(Time::ZERO, f));
        down.iter().for_each(|f| client.on_frame(Time::ZERO, f));
    };
    shuttle(&mut client, &mut server);
    assert!(server.is_established(sid) && client.is_established(cid));

    // The measured round, repeated: the first rounds size every buffer on
    // the path (the read buffer, the outbox, the mailboxes), the last one
    // is counted.
    for round in 0..8u8 {
        let data = [round; 1000];
        assert_eq!(client.send(cid, &data), 1000);
        let [segment] = &frames(&mut client, cid)[..] else {
            panic!("one segment")
        };
        let ((), on_frame) = counted(|| server.on_frame(Time::ZERO, segment));
        let (read, recv) = counted(|| server.recv(sid));
        assert_eq!(read, data);
        if round == 7 {
            assert_eq!(
                on_frame, 1,
                "on_frame: the ack frame, and nothing for the payload"
            );
            assert_eq!(recv, 1, "recv: the returned Vec, and nothing else");
        }
        shuttle(&mut client, &mut server);
    }
}
