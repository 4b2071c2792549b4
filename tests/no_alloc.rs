//! What a segment costs the allocator, on either stack. Once a connection
//! has warmed up, `Stack::on_frame` with the next in-order data segment
//! reaches the allocator exactly once, for the ack frame it encodes; a
//! data frame going out, exactly once, for the frame; and
//! `HostStack::recv` exactly once, for the `Vec` it returns: the payload
//! goes from the send buffer into the frame, and from the frame into the
//! receive buffer, by copy alone. That is written once and run against
//! both stacks, driven the way a host drives them (one connection at a
//! time) and as a `Stack` (its schedule awake).
//!
//! In either stack an out-of-order segment, one overlapping a held
//! range, a duplicate and the one that fills the hole allocate only their
//! ack too: the payload goes to its place in the read buffer (OSR's, or
//! the monolith's receive ring). In the sublayered stack, on the way down, a write copies its bytes into the slab of the
//! write before once no view of that is left, so a write that follows its
//! predecessor's ack allocates nothing but its frames, and one made while
//! that slab is still in flight allocates one slab; a segment cut across
//! two writes is gathered in one allocation. A counting global allocator
//! watches this test's thread.

use netsim::{HostStack, Stack, Time};
use slwire::rfc793::Segment;
use slwire::{Endpoint, FourTuple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use sublayer_core::osr::MSS;
use sublayer_core::{ConnId, Osr, Packet, SlConfig, SlTcpStack};
use tcp_mono::{TcpStack, DEFAULT_MSS};

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

/// How a test takes what a stack has queued for connection `id` into `to`.
type Out<H> = fn(&mut H, <H as HostStack>::ConnId, &mut Vec<Vec<u8>>);

/// Driven the way a host drives a stack (one connection at a time), so
/// the stack builds no schedule.
fn pumped<H: HostStack>(from: &mut H, id: H::ConnId, to: &mut Vec<Vec<u8>>) {
    from.pump_conn(Time::ZERO, id);
    to.extend(std::iter::from_fn(|| from.take_frame()));
}

/// Driven as a `Stack`, which wakes its schedule.
fn polled<H: HostStack>(from: &mut H, _id: H::ConnId, to: &mut Vec<Vec<u8>>) {
    to.extend(std::iter::from_fn(|| from.poll_transmit(Time::ZERO)));
}

/// Everything `from` has queued, driven the way a host drives a stack.
fn frames<H: HostStack>(from: &mut H, id: H::ConnId) -> Vec<Vec<u8>> {
    let mut to = Vec::new();
    pumped(from, id, &mut to);
    to
}

/// Deliver what either side has queued to the other until both are quiet.
fn shuttle_by<H: HostStack>(
    out: Out<H>,
    client: &mut H,
    server: &mut H,
    cid: H::ConnId,
    sid: H::ConnId,
) {
    loop {
        let (mut up, mut down) = (Vec::new(), Vec::new());
        out(client, cid, &mut up);
        out(server, sid, &mut down);
        if up.is_empty() && down.is_empty() {
            break;
        }
        up.iter().for_each(|f| server.on_frame(Time::ZERO, f));
        down.iter().for_each(|f| client.on_frame(Time::ZERO, f));
    }
}

fn shuttle<H: HostStack>(client: &mut H, server: &mut H, cid: H::ConnId, sid: H::ConnId) {
    shuttle_by(pumped, client, server, cid, sid);
}

/// `client` connected to `server` over one established connection, and
/// both ends' handles on it.
fn established_by<H: HostStack>(
    out: Out<H>,
    mut client: H,
    mut server: H,
) -> (H, H, H::ConnId, H::ConnId) {
    server.listen(80);
    let cid = client
        .try_connect(Time::ZERO, 5000, Endpoint::new(SERVER, 80))
        .unwrap();
    let mut syn = Vec::new();
    out(&mut client, cid, &mut syn);
    syn.iter().for_each(|f| server.on_frame(Time::ZERO, f));
    let tuple = FourTuple {
        local: Endpoint::new(SERVER, 80),
        remote: Endpoint::new(CLIENT, 5000),
    };
    let sid = server.conn_for_tuple(&tuple).expect("SYN admitted");
    shuttle_by(out, &mut client, &mut server, cid, sid);
    assert!(server.is_established(sid) && client.is_established(cid));
    (client, server, cid, sid)
}

/// A sublayered client and server, their rate controller named `cc`,
/// with one established connection between them.
fn established(cc: &'static str) -> (SlTcpStack, SlTcpStack, ConnId, ConnId) {
    let config = SlConfig {
        cc,
        ..SlConfig::default()
    };
    let new = |addr| SlTcpStack::new(addr, config.clone(), slmetrics::shared());
    established_by(pumped, new(CLIENT), new(SERVER))
}

/// Once warm, the next in-order segment costs `on_frame` one allocation
/// (its ack), the data frame going out one (itself) and `recv` one (its
/// `Vec`), whether the stacks are pumped or polled.
fn in_order_round_trip<H: HostStack>(new: fn(u32) -> H) {
    for (how, out) in [("pumped", pumped::<H> as Out<H>), ("polled", polled::<H>)] {
        let (mut client, mut server, cid, sid) = established_by(out, new(CLIENT), new(SERVER));
        let mut sent = Vec::with_capacity(4);
        // The measured round, repeated: the first rounds size every buffer
        // on the path (the read buffer, the outbox, the mailboxes, the
        // schedule), the last one is counted.
        for round in 0..8u8 {
            let data = [round; 1000];
            assert_eq!(client.send(cid, &data), 1000);
            let ((), egress) = counted(|| out(&mut client, cid, &mut sent));
            let [segment] = &sent[..] else {
                panic!("{how}: one segment, not {}", sent.len())
            };
            let ((), on_frame) = counted(|| server.on_frame(Time::ZERO, segment));
            let (read, recv) = counted(|| server.recv(sid));
            assert_eq!(read, data);
            if round == 7 {
                assert_eq!(
                    egress, 1,
                    "{how}: the data frame, and no copy of the payload"
                );
                assert_eq!(
                    on_frame, 1,
                    "{how}, on_frame: the ack frame, and nothing for the payload"
                );
                assert_eq!(recv, 1, "{how}, recv: the returned Vec, and nothing else");
            }
            sent.clear();
            shuttle_by(out, &mut client, &mut server, cid, sid);
        }
    }
}

/// A frame carrying the second half of data segment `a` and the first half
/// of `b`, the segment after it, as the sublayered stack frames it.
fn straddle(a: &[u8], b: &[u8]) -> Vec<u8> {
    let (a, b) = (Packet::decode(a).unwrap(), Packet::decode(b).unwrap());
    let half = a.payload.len() / 2;
    let mut pkt = a.clone();
    pkt.rd.seq = a.rd.seq.wrapping_add(half as u32);
    pkt.payload = [&a.payload[half..], &b.payload[..half]].concat().into();
    pkt.encode()
}

/// [`straddle`], as the monolith frames it (RFC 793).
fn straddle_rfc793(a: &[u8], b: &[u8]) -> Vec<u8> {
    let (a, b) = (Segment::decode(a).unwrap(), Segment::decode(b).unwrap());
    let half = a.payload.len() / 2;
    let mut seg = a.clone();
    seg.seq = a.seq.wrapping_add(half as u32);
    seg.payload = [&a.payload[half..], &b.payload[..half]].concat();
    seg.encode()
}

/// Once warm, an out-of-order segment, one overlapping a held range, a
/// duplicate, an in-order one short of the hole and the one that fills it
/// each cost `on_frame` one allocation (its ack), and the read that
/// drains them one (its `Vec`): the payload goes to its place in the read
/// buffer. `mss` is the stack's segment size, `straddle` frames half of
/// one data segment and half of the next as one.
fn out_of_order_round_trip<H: HostStack>(
    new: fn(u32) -> H,
    mss: usize,
    straddle: fn(&[u8], &[u8]) -> Vec<u8>,
) {
    // A fixed window, which the dup acks below do not cut: every round's
    // four segments go out at once.
    let (mut client, mut server, cid, sid) = established_by(pumped, new(CLIENT), new(SERVER));
    // Each round sends four segments and delivers them shuffled: the
    // first rounds size every buffer on the path (the read buffer, the
    // range maps, the outbox), the last one is counted.
    for round in 0..8u8 {
        let data: Vec<u8> = (0..4 * mss).map(|i| round ^ i as u8).collect();
        assert_eq!(client.send(cid, &data), data.len());
        let sent = frames(&mut client, cid);
        let [s0, s1, s2, s3] = &sent[..] else {
            panic!("four segments, not {}", sent.len())
        };
        let overlap = straddle(s1, s2);
        let script: [(&str, &[u8]); 6] = [
            ("out of order", s2),
            ("overlapping a held range", &overlap),
            ("a duplicate", s2),
            ("in order, short of the hole", s0),
            ("filling the hole", s1),
            ("in order", s3),
        ];
        for (what, frame) in script {
            let ((), on_frame) = counted(|| server.on_frame(Time::ZERO, frame));
            if round == 7 {
                assert_eq!(
                    on_frame, 1,
                    "on_frame, {what}: the ack frame, and nothing else"
                );
            }
        }
        let (read, recv) = counted(|| server.recv(sid));
        assert_eq!(read, data);
        if round == 7 {
            assert_eq!(recv, 1, "recv: the returned Vec, and nothing else");
        }
        shuttle(&mut client, &mut server, cid, sid);
    }
}

mod sub {
    use super::*;

    #[test]
    fn an_in_order_segment_allocates_only_its_ack_a_data_frame_only_itself_and_a_read_only_its_vec()
    {
        in_order_round_trip(|addr| SlTcpStack::new(addr, SlConfig::default(), slmetrics::shared()));
    }

    #[test]
    fn an_out_of_order_segment_allocates_only_its_ack_whatever_it_overlaps() {
        out_of_order_round_trip(
            |addr| {
                let config = SlConfig {
                    cc: "fixed-window",
                    ..SlConfig::default()
                };
                SlTcpStack::new(addr, config, slmetrics::shared())
            },
            MSS,
            straddle,
        );
    }
}

mod mono {
    use super::*;

    #[test]
    fn an_in_order_segment_allocates_only_its_ack_a_data_frame_only_itself_and_a_read_only_its_vec()
    {
        in_order_round_trip(|addr| TcpStack::new(addr, slmetrics::shared()));
    }

    #[test]
    fn an_out_of_order_segment_allocates_only_its_ack_whatever_it_overlaps() {
        out_of_order_round_trip(
            |addr| TcpStack::with_cc(addr, "fixed-window", slmetrics::shared()).unwrap(),
            DEFAULT_MSS as usize,
            straddle_rfc793,
        );
    }
}

#[test]
fn a_segment_cut_across_two_writes_is_gathered_in_one_allocation() {
    let mut osr = Osr::new(slcc::make("fixed-window").unwrap(), slmetrics::shared());
    let mut open = Packet::default();
    open.osr.rcv_wnd = u16::MAX;
    osr.on_header(Time::ZERO, &open);
    let data: Vec<u8> = (0..2 * MSS).map(|i| i as u8).collect();
    for piece in [&data[..MSS / 2], &data[MSS / 2..MSS + 1], &data[MSS + 1..]] {
        osr.write(piece);
    }
    for cut in data.chunks(MSS) {
        let (segment, allocs) = counted(|| osr.poll_segment(Time::ZERO).unwrap());
        assert_eq!(segment[..], *cut);
        assert_eq!(allocs, 1, "one slab, gathered in place");
    }
}

#[test]
fn a_write_after_the_last_one_is_acked_allocates_only_its_frames() {
    let (mut client, mut server, cid, sid) = established("newreno");
    let mut sent: Vec<Vec<u8>> = Vec::with_capacity(4);
    // Request-sized writes, each no longer than the one before and sent
    // only once that one is acknowledged: the first rounds size the send
    // queue, the outbox and the mailboxes, the last one is counted.
    for round in 0..8u8 {
        let data = vec![round; 200 - 16 * round as usize];
        let (accepted, send) = counted(|| client.send(cid, &data));
        assert_eq!(accepted, data.len());
        let ((), pump) = counted(|| {
            client.pump_conn(Time::ZERO, cid);
            sent.extend(std::iter::from_fn(|| client.take_frame()));
        });
        if round == 7 {
            assert_eq!(send, 0, "send: the last write's slab, refilled");
            assert_eq!(
                (sent.len(), pump),
                (1, 1),
                "pump: the data frame, and nothing else"
            );
        }
        sent.drain(..).for_each(|f| server.on_frame(Time::ZERO, &f));
        shuttle(&mut client, &mut server, cid, sid);
        assert_eq!(server.recv(sid), data);
    }
}

#[test]
fn a_write_while_the_last_slab_is_in_flight_allocates_one_slab() {
    let (mut client, mut server, cid, sid) = established("newreno");
    for round in 0..8u8 {
        let first = [round; 64];
        assert_eq!(client.send(cid, &first), 64);
        let in_flight = frames(&mut client, cid);
        let ((), send) = counted(|| assert_eq!(client.send(cid, &[!round; 64]), 64));
        if round == 7 {
            assert_eq!(send, 1, "send: one new slab, the first still viewed by RD");
        }
        for frame in &in_flight {
            server.on_frame(Time::ZERO, frame);
        }
        shuttle(&mut client, &mut server, cid, sid);
        assert_eq!(server.recv(sid), [[round; 64], [!round; 64]].concat());
    }
}
