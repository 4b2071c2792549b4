//! The monolith's reassembly: out-of-order parts held in place in the
//! receive ring (`Pcb::take_payload`), checked against the receive path it
//! replaced — a `Vec` per part, kept here as the reference — on random
//! honest scripts, and case by case. The cases run at a peer ISN that puts
//! the sequence wrap inside the held parts.

use crate::pcb::{Pcb, TcpState, MAX_OOO_RANGES, RCV_BUF_CAP};
use crate::stack::TcpStack;
use crate::tests::{drain_segments, from_peer, standalone_accept_at, A, B};
use crate::wire::{Endpoint, FourTuple, ACK};
use netsim::{HostStack, Stack, Time};
use proptest::{proptest, TestRng};
use slwire::seq;
use std::collections::{BTreeMap, VecDeque};

/// The receive path before out-of-order parts were held in place: each
/// part copied into a `Vec` of its own, keyed by its sequence number, and
/// copied again into the read buffer once the hole before it filled. It
/// is that path's code but for one fix, marked below.
struct VecPerPart {
    rcv_nxt: u32,
    rcv_buf: VecDeque<u8>,
    ooo: BTreeMap<u32, Vec<u8>>,
    overflow_drops: u64,
}

impl VecPerPart {
    fn new(rcv_nxt: u32) -> VecPerPart {
        VecPerPart {
            rcv_nxt,
            rcv_buf: VecDeque::new(),
            ooo: BTreeMap::new(),
            overflow_drops: 0,
        }
    }

    fn rcv_wnd(&self) -> u32 {
        (RCV_BUF_CAP - self.rcv_buf.len()) as u32
    }

    fn take_payload(&mut self, seq: u32, payload: &[u8]) {
        let mut data = payload;
        let mut start = seq;
        // Trim anything before rcv_nxt.
        if seq::lt(start, self.rcv_nxt) {
            let skip = self.rcv_nxt.wrapping_sub(start) as usize;
            data = data.get(skip..).unwrap_or_default();
            start = self.rcv_nxt;
        }
        // Trim anything beyond our window.
        let wnd_end = self.rcv_nxt.wrapping_add(self.rcv_wnd());
        let data_end = start.wrapping_add(data.len() as u32);
        if seq::gt(data_end, wnd_end) {
            let cut = data_end.wrapping_sub(wnd_end) as usize;
            data = &data[..data.len().saturating_sub(cut)];
        }
        if data.is_empty() {
            return;
        }
        if start == self.rcv_nxt {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(data.len() as u32);
            self.rcv_buf.extend(data);
            // Drain contiguous out-of-order segments.
            while let Some((&s, _)) = self.ooo.iter().next() {
                if seq::gt(s, self.rcv_nxt) {
                    break;
                }
                let (s, d) = self.ooo.pop_first().unwrap();
                let skip = self.rcv_nxt.wrapping_sub(s) as usize;
                if skip < d.len() {
                    self.rcv_nxt = self.rcv_nxt.wrapping_add((d.len() - skip) as u32);
                    self.rcv_buf.extend(&d[skip..]);
                }
            }
        } else {
            let held: usize = self.ooo.values().map(|d| d.len()).sum();
            if self.ooo.len() < 256 && held + data.len() <= RCV_BUF_CAP {
                // The one change: the old path's `insert` let a shorter
                // part replace a longer one held at the same start, and
                // its bytes past the shorter one's end were lost.
                let kept = self.ooo.entry(start).or_default();
                if data.len() > kept.len() {
                    *kept = data.to_vec();
                }
            } else {
                self.overflow_drops += 1;
            }
        }
    }

    fn recv(&mut self) -> Vec<u8> {
        let (front, back) = self.rcv_buf.as_slices();
        let out = [front, back].concat();
        self.rcv_buf.clear();
        out
    }
}

/// The peer's stream: `len` bytes from offset `off` on. No two offsets
/// within a window's reach of each other repeat a short pattern, so a
/// byte copied to the wrong place shows.
fn bytes(off: u32, len: u32) -> Vec<u8> {
    (off..off + len)
        .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8)
        .collect()
}

/// A server stack with one connection, established by a peer whose ISN is
/// `isn`, and that connection's tuple.
fn receiver(isn: u32) -> (TcpStack, FourTuple) {
    let mut s = TcpStack::new(B, slmetrics::shared());
    s.listen(80);
    let tuple = standalone_accept_at(&mut s, Time::ZERO, Endpoint::new(A, 5000), isn);
    drain_segments(&mut s, Time::ZERO);
    (s, tuple)
}

/// The acks `s` sends, each as (stream offset acked, window).
fn acks(s: &mut TcpStack, isn: u32) -> Vec<(u32, u16)> {
    drain_segments(s, Time::ZERO)
        .iter()
        .map(|a| (a.ack.wrapping_sub(isn.wrapping_add(1)), a.wnd))
        .collect()
}

/// Deliver `len` bytes of the stream from `off` on to `s`; the acks that
/// answer.
fn deliver(s: &mut TcpStack, tuple: FourTuple, isn: u32, off: u32, len: u32) -> Vec<(u32, u16)> {
    let una = s.pcb(tuple).unwrap().snd_una;
    let seq = isn.wrapping_add(1).wrapping_add(off);
    s.on_frame(
        Time::ZERO,
        &from_peer(tuple, seq, una, ACK, bytes(off, len)).encode(),
    );
    acks(s, isn)
}

/// The ranges held out of order and their bytes.
fn held(s: &TcpStack, tuple: FourTuple) -> (usize, usize) {
    let p = s.pcb(tuple).unwrap();
    (p.ooo.len(), p.ooo_bytes as usize)
}

/// Where the reference's stream starts: far from the wrap, which the
/// reference's sequence-keyed map does not order across.
const REF_START: u32 = 1000;

proptest! {
    #[test]
    fn in_place_reassembly_agrees_with_a_vec_per_part(seed: u64) {
        // An honest peer's stream, cut on random boundaries: parts in
        // order, parts ahead of a hole (lost or reordered ones before
        // them), parts reaching back over bytes already received
        // (duplicates, and retransmits cut elsewhere, so parts overlap),
        // and reads in between. At most 80 parts of at most 800 bytes
        // keep the reference's caps out of reach, though it counts each
        // overlapping part's bytes again.
        let mut rng = TestRng::new(seed);
        let isn = if rng.below(2) == 0 {
            rng.next_u64() as u32
        } else {
            (rng.below(100_000) as u32).wrapping_neg()
        };
        let (mut s, tuple) = receiver(isn);
        let mut reference = VecPerPart::new(REF_START);
        for _ in 0..80 {
            let next = reference.rcv_nxt - REF_START;
            let len = 1 + rng.below(800) as u32;
            let part = match rng.below(6) {
                0 => None,
                1 => Some(next),
                2 => Some(next.saturating_sub(1 + rng.below(2000) as u32)),
                _ => Some(next + 1 + rng.below(12_000) as u32),
            };
            let (got, want) = match part {
                Some(off) => {
                    let got = deliver(&mut s, tuple, isn, off, len);
                    reference.take_payload(REF_START + off, &bytes(off, len));
                    (got, vec![(reference.rcv_nxt - REF_START, reference.rcv_wnd() as u16)])
                }
                None => {
                    let read = s.recv(tuple);
                    proptest::prop_assert_eq!(&read, &reference.recv());
                    let got = acks(&mut s, isn);
                    let update = (reference.rcv_nxt - REF_START, reference.rcv_wnd() as u16);
                    (got, if read.is_empty() { vec![] } else { vec![update] })
                }
            };
            proptest::prop_assert_eq!(got, want, "{:?}", part);
            let p = s.pcb(tuple).unwrap();
            proptest::prop_assert_eq!(
                p.rcv_nxt.wrapping_sub(isn.wrapping_add(1)),
                reference.rcv_nxt - REF_START
            );
            proptest::prop_assert_eq!(p.rcv_wnd(), reference.rcv_wnd());
            proptest::prop_assert_eq!(s.stats.ooo_overflow_drops, reference.overflow_drops);
        }
        proptest::prop_assert_eq!(s.recv(tuple), reference.recv());
    }
}

/// The peer's ISN in the cases below: stream offset 1499 is the last
/// before the sequence wraps.
const ISN: u32 = u32::MAX - 1500;
const CAP: u16 = RCV_BUF_CAP as u16;

#[test]
fn a_filled_hole_releases_every_range_it_reaches() {
    let (mut s, t) = receiver(ISN);
    assert_eq!(deliver(&mut s, t, ISN, 1000, 1000), [(0, CAP)]);
    assert_eq!(deliver(&mut s, t, ISN, 3000, 500), [(0, CAP)]);
    assert_eq!(held(&s, t), (2, 1500));
    assert_eq!(s.readable_len(t), 0);
    // The first hole fills: the range after it joins the unread bytes.
    assert_eq!(deliver(&mut s, t, ISN, 0, 1000), [(2000, CAP - 2000)]);
    assert_eq!(held(&s, t), (1, 500));
    // The second, by a part reaching into the range past it.
    assert_eq!(deliver(&mut s, t, ISN, 2000, 1200), [(3500, CAP - 3500)]);
    assert_eq!(held(&s, t), (0, 0));
    assert_eq!(s.recv(t), bytes(0, 3500));
}

#[test]
fn an_overlapping_part_is_held_once() {
    let (mut s, t) = receiver(ISN);
    deliver(&mut s, t, ISN, 1000, 1000);
    // Past the held range's end, then before its start: one range.
    deliver(&mut s, t, ISN, 1500, 1300);
    assert_eq!(held(&s, t), (1, 1800));
    deliver(&mut s, t, ISN, 500, 700);
    assert_eq!(held(&s, t), (1, 2300));
    // Across a gap between two ranges: the gap joins them.
    deliver(&mut s, t, ISN, 3000, 100);
    deliver(&mut s, t, ISN, 2700, 400);
    assert_eq!(held(&s, t), (1, 2600));
    assert_eq!(s.conn_buffered(t), 2600, "each byte counted once");
    assert_eq!(deliver(&mut s, t, ISN, 0, 500), [(3100, CAP - 3100)]);
    assert_eq!(s.recv(t), bytes(0, 3100));
}

#[test]
fn a_duplicate_part_changes_nothing() {
    let (mut s, t) = receiver(ISN);
    deliver(&mut s, t, ISN, 1000, 1000);
    assert_eq!(deliver(&mut s, t, ISN, 1000, 1000), [(0, CAP)]);
    // A retransmit cut shorter, at the same start, loses nothing held.
    assert_eq!(deliver(&mut s, t, ISN, 1000, 300), [(0, CAP)]);
    assert_eq!(held(&s, t), (1, 1000));
    assert_eq!(deliver(&mut s, t, ISN, 0, 1000), [(2000, CAP - 2000)]);
    // Bytes already in order, whole or in part.
    assert_eq!(deliver(&mut s, t, ISN, 500, 1000), [(2000, CAP - 2000)]);
    assert_eq!(deliver(&mut s, t, ISN, 1500, 700), [(2200, CAP - 2200)]);
    assert_eq!(s.stats.ooo_overflow_drops, 0);
    assert_eq!(s.recv(t), bytes(0, 2200));
}

#[test]
fn a_part_at_the_windows_far_edge_is_held_and_the_bytes_past_it_are_not() {
    let (mut s, t) = receiver(ISN);
    // 10,000 bytes unread: the window ends 55,535 bytes on, at offset
    // RCV_BUF_CAP.
    for off in (0..10_000).step_by(1000) {
        deliver(&mut s, t, ISN, off, 1000);
    }
    let edge = RCV_BUF_CAP as u32;
    let wnd = CAP - 10_000;
    assert_eq!(deliver(&mut s, t, ISN, edge - 1000, 1000), [(10_000, wnd)]);
    assert_eq!(held(&s, t), (1, 1000));
    assert_eq!(
        s.pcb(t).unwrap().rcv_buf.len(),
        RCV_BUF_CAP,
        "zero-filled to the edge"
    );
    // Straddling the edge: what is inside is held already; past it, not
    // at all.
    assert_eq!(deliver(&mut s, t, ISN, edge - 500, 1000), [(10_000, wnd)]);
    assert_eq!(deliver(&mut s, t, ISN, edge, 100), [(10_000, wnd)]);
    assert_eq!(held(&s, t), (1, 1000));
    // The hole fills, and the window with it.
    for off in (10_000..edge - 1000).step_by(1000) {
        deliver(&mut s, t, ISN, off, 1000.min(edge - 1000 - off));
    }
    assert_eq!(
        s.pcb(t).unwrap().rcv_nxt,
        ISN.wrapping_add(1).wrapping_add(edge)
    );
    assert_eq!(s.pcb(t).unwrap().rcv_wnd(), 0);
    assert_eq!(s.recv(t), bytes(0, edge));
}

#[test]
fn a_range_past_the_cap_is_refused_and_counted() {
    let (mut s, t) = receiver(ISN);
    let part = |i: u32| 100 + 20 * i;
    for i in 0..MAX_OOO_RANGES as u32 {
        deliver(&mut s, t, ISN, part(i), 10);
    }
    assert_eq!(held(&s, t), (MAX_OOO_RANGES, 10 * MAX_OOO_RANGES));
    assert_eq!(s.stats.ooo_overflow_drops, 0);
    // The 257th range is refused, and acked as if lost.
    assert_eq!(deliver(&mut s, t, ISN, part(256), 10), [(0, CAP)]);
    assert_eq!(held(&s, t), (MAX_OOO_RANGES, 10 * MAX_OOO_RANGES));
    assert_eq!(s.stats.ooo_overflow_drops, 1);
    // In order, nothing is refused: every range is released.
    let end = part(257);
    for off in (0..end).step_by(1000) {
        deliver(&mut s, t, ISN, off, 1000.min(end - off));
    }
    assert_eq!(held(&s, t), (0, 0));
    assert_eq!(s.recv(t), bytes(0, end));
}

#[test]
fn offsets_held_across_two_gib_are_counted_afresh() {
    let tuple = FourTuple {
        local: Endpoint::new(B, 80),
        remote: Endpoint::new(A, 5000),
    };
    let mut p = Pcb::new(tuple, TcpState::Established, 0);
    let start = 5000;
    p.rcv_nxt = start;
    let take = |p: &mut Pcb, off: u32, len: u32| p.take_payload(start + off, &bytes(off, len));
    assert!(take(&mut p, 1000, 100));
    // The same state, as if 2 GiB of stream had arrived with some range
    // held throughout: its offsets counted from 2^31 further back.
    let far = 1u32 << 31;
    p.ooo = p.ooo.iter().map(|(&s, &e)| (s + far, e + far)).collect();
    p.ooo_base = p.ooo_base.wrapping_sub(far);
    assert!(take(&mut p, 500, 100));
    assert_eq!(p.ooo_base, start, "counted from rcv_nxt again");
    assert_eq!(
        p.ooo.iter().map(|(&s, &e)| (s, e)).collect::<Vec<_>>(),
        [(500, 600), (1000, 1100)]
    );
    assert!(take(&mut p, 0, 500));
    assert_eq!(p.rcv_nxt, start + 600);
    assert!(take(&mut p, 600, 400));
    assert_eq!(p.rcv_nxt, start + 1100);
    assert_eq!(p.read(), bytes(0, 1100));
}
