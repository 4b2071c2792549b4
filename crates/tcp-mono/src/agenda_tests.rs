//! The ready set and the deadline index against the scans they replaced.
//!
//! `TcpStack` keeps the three full-table scans as test-only reference
//! functions (`scan_poll_transmit`, `scan_deadline`, `scan_on_tick`). Two
//! copies of one world — a client stack, a server stack and the wire
//! between them — take the same calls; one polls through the agenda (or is
//! first driven one connection at a time, as a host drives it, and then
//! through the agenda), the other through the scans. Everything observable
//! must agree after every call: the segments, byte for byte and in order,
//! what the applications read, and the next deadline. (`sublayer-core` has
//! the twin of this file over its own stack.)

use crate::stack::{TcpStack, ACK_PACE_DELAY, MAX_HALF_OPEN};
use crate::wire::{Endpoint, FourTuple, Segment, SYN};
use netsim::{Dur, HostStack, Keepalive, Pressure, Stack, Time};
use proptest::{collection, prop_assert, prop_assert_eq, proptest};
use std::collections::VecDeque;

const ADDR: [u32; 2] = [0x0A00_0001, 0x0A00_0002];
const CLIENT: usize = 0;
const SERVER: usize = 1;
const PORT: u16 = 80;
const ROUNDS: usize = 32;

/// How a world asks its stacks for segments, ticks and the next deadline.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Drive {
    /// `poll_transmit`, `on_tick`, `poll_deadline`: the agenda.
    Agenda,
    /// The reference scans.
    Scan,
    /// One connection at a time, as `slhost::Host` drives a stack —
    /// `pump_conn` then `take_frame`, `tick_conn`, `conn_deadline` — which
    /// never wakes the agenda.
    PerConn,
}

struct World {
    drive: Drive,
    ends: [TcpStack; 2],
    /// `wire[i]`: segments on their way to `ends[i]`.
    wire: [VecDeque<Vec<u8>>; 2],
    /// The client's handles, in connect order.
    opened: Vec<FourTuple>,
    now: Time,
    /// Everything observable, in order: `(end, segment it sent)` and
    /// `(2 + end, bytes its application read)`.
    seen: Vec<(usize, Vec<u8>)>,
}

impl World {
    fn new(drive: Drive, keepalive: bool) -> World {
        let mut ends = ADDR.map(|a| TcpStack::new(a, slmetrics::shared()));
        ends[SERVER].listen(PORT);
        if keepalive {
            for end in &mut ends {
                end.set_keepalive(KEEPALIVE);
            }
        }
        World {
            drive,
            ends,
            wire: [VecDeque::new(), VecDeque::new()],
            opened: Vec::new(),
            now: Time::ZERO,
            seen: Vec::new(),
        }
    }

    fn connect(&mut self) -> Option<FourTuple> {
        let port = 5000 + self.opened.len() as u16;
        let id = self.ends[CLIENT].try_connect(self.now, port, Endpoint::new(ADDR[SERVER], PORT));
        self.opened.extend(id.ok());
        id.ok()
    }

    /// Drain `end`'s transmit queue onto the wire.
    fn poll(&mut self, end: usize) -> usize {
        let mut segments = 0;
        loop {
            let (stack, now) = (&mut self.ends[end], self.now);
            let segment = match self.drive {
                Drive::Agenda => stack.poll_transmit(now),
                Drive::Scan => stack.scan_poll_transmit(now),
                Drive::PerConn => stack.take_frame().or_else(|| {
                    for t in stack.sorted_tuples() {
                        stack.pump_conn(now, t);
                    }
                    stack.take_frame()
                }),
            };
            let Some(segment) = segment else {
                return segments;
            };
            segments += 1;
            self.seen.push((end, segment.clone()));
            self.wire[1 - end].push_back(segment);
        }
    }

    fn tick(&mut self, end: usize) {
        let (stack, now) = (&mut self.ends[end], self.now);
        match self.drive {
            Drive::Agenda => stack.on_tick(now),
            Drive::Scan => stack.scan_on_tick(now),
            Drive::PerConn => {
                for t in stack.sorted_tuples() {
                    stack.tick_conn(now, t);
                }
            }
        }
    }

    fn deadline(&self, end: usize) -> Option<Time> {
        let (stack, now) = (&self.ends[end], self.now);
        match self.drive {
            Drive::Agenda => stack.poll_deadline(now),
            Drive::Scan => stack.scan_deadline(now),
            Drive::PerConn => {
                let tuples = stack.sorted_tuples().into_iter();
                tuples.filter_map(|t| stack.conn_deadline(now, t)).min()
            }
        }
    }

    /// Hand `end` up to `n` segments off the wire.
    fn deliver(&mut self, end: usize, n: usize) {
        for _ in 0..n {
            let Some(segment) = self.wire[end].pop_front() else {
                return;
            };
            self.ends[end].on_frame(self.now, &segment);
        }
    }

    /// Poll and deliver both ways until the wire is quiet, or for
    /// [`ROUNDS`].
    fn exchange(&mut self) {
        for _ in 0..ROUNDS {
            if self.poll(CLIENT) + self.poll(SERVER) == 0 {
                return;
            }
            self.deliver(SERVER, usize::MAX);
            self.deliver(CLIENT, usize::MAX);
        }
    }

    /// The `k`-th connection `end`'s application knows about.
    fn conn(&self, end: usize, k: usize) -> Option<FourTuple> {
        let known = match end {
            CLIENT => self.opened.clone(),
            _ => self.ends[SERVER].established(),
        };
        (!known.is_empty()).then(|| known[k % known.len()])
    }

    fn recv(&mut self, end: usize, id: FourTuple) {
        let data = self.ends[end].recv(id);
        self.seen.push((2 + end, data));
    }

    /// One call, picked by `op`, its operands by `arg`.
    fn step(&mut self, op: u8, arg: u8) {
        let end = (arg & 1) as usize;
        let k = (arg >> 1) as usize;
        let id = self.conn(end, k);
        match (op % 16, id) {
            (0, _) if self.opened.len() < 6 => {
                self.connect();
            }
            (1 | 2, Some(id)) => {
                let len = [1, 200, 1460, 6000][k % 4];
                self.ends[end].send(id, &vec![arg; len]);
            }
            (3, Some(id)) => self.recv(end, id),
            (4, Some(id)) => self.ends[end].close(id),
            (5, Some(id)) if k.is_multiple_of(4) => self.ends[end].abort(self.now, id),
            (5, _) if k % 4 == 1 => self.ends[end].set_keepalive(KEEPALIVE),
            (6, _) => {
                let tier = [
                    Pressure::Nominal,
                    Pressure::Elevated,
                    Pressure::High,
                    Pressure::Critical,
                ];
                self.ends[end].set_pressure(tier[k % 4]);
            }
            (7, _) if k.is_multiple_of(8) => {
                self.wire[end].pop_front(); // lost
            }
            (7..=9, _) => self.deliver(end, 1 + k % 4),
            (10..=12, _) => {
                self.poll(end);
            }
            (13, _) => {
                let ms = [1, 20, 50, 300, 1500, 12_000][k % 6];
                self.now += Dur::from_millis(ms);
                self.tick(end);
            }
            (14, _) => {
                let next = [self.deadline(CLIENT), self.deadline(SERVER)]
                    .into_iter()
                    .flatten()
                    .min();
                self.now = self.now.max(next.unwrap_or(self.now));
                self.tick(CLIENT);
                self.tick(SERVER);
            }
            _ => self.exchange(),
        }
    }
}

const KEEPALIVE: Keepalive = Keepalive {
    idle: Dur(2_000_000_000),
    interval: Dur(500_000_000),
    max_probes: 2,
};

/// One world driven as `first` for its first `switch` calls and through
/// the agenda after them, against a world driven through the scans: they
/// must be indistinguishable after every call, and their indices exact.
fn agrees_with_the_scans(
    first: Drive,
    switch: usize,
    keepalive: bool,
    ops: &[(u8, u8)],
) -> Result<(), String> {
    let mut world = World::new(first, keepalive);
    let mut scan = World::new(Drive::Scan, keepalive);
    for w in [&mut world, &mut scan] {
        // Four connections up before the random calls start.
        for _ in 0..4 {
            w.connect();
        }
        w.exchange();
    }
    for (i, &(op, arg)) in ops.iter().enumerate() {
        if i == switch {
            world.drive = Drive::Agenda;
        }
        world.step(op, arg);
        scan.step(op, arg);
        prop_assert_eq!(&world.seen, &scan.seen, "after call {} ({}, {})", i, op, arg);
        prop_assert_eq!(world.now, scan.now);
        for end in [CLIENT, SERVER] {
            prop_assert_eq!(
                world.deadline(end),
                scan.deadline(end),
                "end {} after call {} ({}, {})", end, i, op, arg
            );
            prop_assert!(
                world.drive == Drive::Agenda || world.ends[end].agenda_sizes() == (0, 0),
                "end {} scheduled while driven per connection", end
            );
            world.ends[end].check_indices(world.now);
            scan.ends[end].check_indices(scan.now);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn agenda_and_scan_are_indistinguishable(
        keepalive: bool,
        ops in collection::vec((proptest::num::u8::ANY, proptest::num::u8::ANY), 40..400),
    ) {
        agrees_with_the_scans(Drive::Agenda, 0, keepalive, &ops)?;
    }

    #[test]
    fn a_host_driven_prefix_then_polls_is_indistinguishable_from_the_scan(
        keepalive: bool,
        switch in 0usize..300,
        ops in collection::vec((proptest::num::u8::ANY, proptest::num::u8::ANY), 40..400),
    ) {
        agrees_with_the_scans(Drive::PerConn, switch, keepalive, &ops)?;
    }
}

/// The FIN of a `close` with data pending leaves on the next
/// `poll_transmit`, with no inbound segment in between (the sublayered
/// stack needs a second pump for it; one output pass does both here).
#[test]
fn fin_follows_pending_data_without_an_inbound_segment() {
    let mut w = World::new(Drive::Agenda, false);
    let id = w.connect().expect("table is empty");
    w.exchange();
    w.ends[CLIENT].send(id, &[7u8; 300]);
    w.ends[CLIENT].close(id);
    assert_eq!(w.poll(CLIENT), 2, "the data, then the FIN");
    let segs: Vec<Segment> = w.wire[SERVER]
        .iter()
        .map(|f| Segment::decode(f).expect("own segment"))
        .collect();
    assert_eq!(segs[0].payload.len(), 300);
    assert!(!segs[0].fin());
    assert!(segs[1].fin() && segs[1].payload.is_empty());
    w.ends[CLIENT].check_indices(w.now);
}

/// A paced ack is released by `poll_transmit` at its deadline with no
/// `on_tick` (`tests::paced_ack_is_held_then_flushed_at_deadline`), and one
/// that pacing holds goes out at once when the pressure recedes.
#[test]
fn receding_pressure_releases_a_held_ack() {
    let mut w = World::new(Drive::Agenda, false);
    let id = w.connect().expect("table is empty");
    w.exchange();
    w.ends[SERVER].set_pressure(Pressure::High);
    w.ends[CLIENT].send(id, &[9u8; 500]);
    w.poll(CLIENT);
    w.deliver(SERVER, 1);
    assert_eq!(w.poll(SERVER), 0, "pure ack held while paced");
    assert_eq!(
        w.ends[SERVER].poll_deadline(w.now),
        Some(w.now + ACK_PACE_DELAY)
    );
    w.ends[SERVER].set_pressure(Pressure::Nominal);
    assert_eq!(w.poll(SERVER), 1, "released without waiting out the delay");
    assert_eq!(w.ends[SERVER].poll_deadline(w.now), None);
    w.ends[SERVER].check_indices(w.now);
}

/// A SYN for the server from `from`, with sequence number `seq`.
fn syn(from: u32, seq: u32) -> Vec<u8> {
    Segment {
        src: Endpoint::new(from, 1000),
        dst: Endpoint::new(ADDR[SERVER], PORT),
        seq,
        ack: 0,
        flags: SYN,
        wnd: 8000,
        mss: Some(1000),
        payload: Vec::new(),
    }
    .encode()
}

fn listening_server() -> TcpStack {
    let mut server = TcpStack::new(ADDR[SERVER], slmetrics::shared());
    server.listen(PORT);
    server
}

/// Half-open eviction and the dropping of dead PCBs take their index
/// entries with them.
#[test]
fn eviction_and_reaping_leave_no_stale_entry() {
    let mut server = listening_server();
    assert_eq!(server.poll_transmit(Time::ZERO), None, "wakes the agenda");
    for i in 0..MAX_HALF_OPEN as u32 {
        server.on_frame(Time::ZERO, &syn(0xC000_0000 + i, 7000 + i));
    }
    assert_eq!(server.agenda_sizes(), (0, MAX_HALF_OPEN));
    // Two seconds on the half-opens are stale: a fresh SYN evicts one.
    let mut now = Time::ZERO + Dur::from_secs(2);
    server.on_frame(now, &syn(0xC300_0000, 9_999));
    assert_eq!(server.stats.half_open_evictions, 1);
    assert_eq!(server.half_open_count(), MAX_HALF_OPEN);
    assert_eq!(server.agenda_sizes(), (0, MAX_HALF_OPEN));
    server.check_indices(now);
    // Nobody answers: every SYN|ACK retry budget runs out.
    while let Some(next) = server.poll_deadline(now) {
        now = next;
        server.on_tick(now);
        while server.poll_transmit(now).is_some() {}
        server.check_indices(now);
    }
    assert_eq!(server.conn_count(), 0);
    assert_eq!(server.half_open_count(), 0);
    assert_eq!(server.agenda_sizes(), (0, 0));
}

/// Before its first poll a stack keeps no schedule: the half-open count
/// that every SYN reads stays exact, `poll_deadline` is the scan, and the
/// first poll indexes every deadline at once.
#[test]
fn before_its_first_poll_a_stack_counts_half_opens_and_scans_for_the_deadline() {
    let mut server = listening_server();
    for i in 0..MAX_HALF_OPEN as u32 {
        server.on_frame(Time::ZERO, &syn(0xC000_0000 + i, 7000 + i));
    }
    let now = Time::ZERO + Dur::from_secs(2);
    server.on_frame(now, &syn(0xC300_0000, 9_999));
    assert_eq!(server.stats.half_open_evictions, 1);
    assert_eq!(server.half_open_count(), MAX_HALF_OPEN);
    assert_eq!(server.agenda_sizes(), (0, 0));
    server.check_indices(now);
    let scan = server.scan_deadline(now);
    assert!(scan.is_some(), "every half-open retransmits its SYN|ACK");
    assert_eq!(server.poll_deadline(now), scan);
    // The wake: every connection ready, every deadline indexed.
    assert!(server.poll_transmit(now).is_some(), "a queued SYN|ACK");
    assert_eq!(server.agenda_sizes(), (MAX_HALF_OPEN, MAX_HALF_OPEN));
    while server.poll_transmit(now).is_some() {}
    assert_eq!(server.agenda_sizes(), (0, MAX_HALF_OPEN));
    assert_eq!(server.poll_deadline(now), scan);
    server.check_indices(now);
}
