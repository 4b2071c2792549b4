//! The monolith copies a byte as often as the sublayered stack does. Once a
//! connection has warmed up, `Stack::on_frame` with the next in-order data
//! segment reaches the allocator exactly once — for the ack frame it
//! encodes — a data frame out of `Stack::poll_transmit` exactly once, for
//! the frame, and `HostStack::recv` exactly once, for the `Vec` it returns:
//! the payload goes from the send ring into the frame, and from the frame
//! into the receive buffer, by copy alone. A counting global allocator
//! watches this test's thread.

use netsim::{HostStack, Stack, Time};
use slwire::{Endpoint, FourTuple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tcp_mono::TcpStack;

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

/// Everything `from` has to send.
fn frames(from: &mut TcpStack) -> Vec<Vec<u8>> {
    std::iter::from_fn(|| from.poll_transmit(Time::ZERO)).collect()
}

#[test]
fn an_in_order_segment_allocates_only_its_ack_a_data_frame_only_itself_and_a_read_only_its_vec() {
    let (mut client, mut server) =
        (TcpStack::new(CLIENT, slmetrics::shared()), TcpStack::new(SERVER, slmetrics::shared()));
    server.listen(80);
    let cid = client.connect(Time::ZERO, 5000, Endpoint::new(SERVER, 80));
    let sid = FourTuple { local: Endpoint::new(SERVER, 80), remote: Endpoint::new(CLIENT, 5000) };
    let shuttle = |client: &mut TcpStack, server: &mut TcpStack| loop {
        let (up, down) = (frames(client), frames(server));
        if up.is_empty() && down.is_empty() {
            break;
        }
        up.iter().for_each(|f| server.on_frame(Time::ZERO, f));
        down.iter().for_each(|f| client.on_frame(Time::ZERO, f));
    };
    shuttle(&mut client, &mut server);
    assert!(server.is_established(sid) && client.is_established(cid));

    // The measured round, repeated: the first rounds size every buffer on
    // the path (the rings, the outbox, the schedule), the last one is
    // counted.
    for round in 0..8u8 {
        let data = [round; 1000];
        assert_eq!(client.send(cid, &data), 1000);
        let (segment, poll) = counted(|| client.poll_transmit(Time::ZERO));
        let segment = segment.expect("one data segment");
        assert!(client.poll_transmit(Time::ZERO).is_none(), "one segment");
        let ((), on_frame) = counted(|| server.on_frame(Time::ZERO, &segment));
        let (read, recv) = counted(|| server.recv(sid));
        assert_eq!(read, data);
        if round == 7 {
            assert_eq!(poll, 1, "poll_transmit: the data frame, and no copy of the payload");
            assert_eq!(on_frame, 1, "on_frame: the ack frame, and nothing for the payload");
            assert_eq!(recv, 1, "recv: the returned Vec, and nothing else");
        }
        shuttle(&mut client, &mut server);
    }
}
