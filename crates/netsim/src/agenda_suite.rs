//! The one check of a stack's [`Agenda`](crate::Agenda), for both stacks.
//!
//! The reference is the per-connection drive `slhost::Host` runs, which
//! never wakes the agenda. Two copies of one world — a client stack, a
//! server stack and the wire between them — take the same random calls:
//! one polls through the agenda (or is driven per connection first), the
//! other is driven per connection throughout. Everything observable must
//! agree after every call: the frames, byte for byte and in order, what
//! the applications read, and the next deadline. Beside the scripts sit
//! the hazards: a FIN that needs a second pass, a paced ack released by a
//! poll alone or by receding pressure, eviction and reaping, and a stack
//! before its first poll. Since the drive is written once
//! ([`crate::agenda`]), the stacks differ only in where they mark a
//! connection's change and how its state reads as a deadline, which is
//! what the suite exercises. A stack opts in with an [`AgendaStack`] impl
//! under `#[cfg(test)]`, a `proptest!` wrapper around
//! [`agrees_with_the_host_drive`] per [`Drive`], and
//! [`agenda_hazards!`](crate::agenda_hazards).

use crate::agenda::{scan_deadline, Scheduled, MAX_HALF_OPEN};
use crate::stack::{Keepalive, Pressure};
use crate::time::{Dur, Time};
use slwire::Endpoint;
use std::collections::VecDeque;
use std::fmt::Debug;

/// What the suite reads of a stack beyond [`Scheduled`]: a count of its
/// table, its counters and its wire format.
pub trait AgendaStack: Scheduled {
    /// How long a pure ack is held while pressure paces acks.
    const ACK_PACE_DELAY: Dur;

    /// Half-open connections, counted in the table (not read off the
    /// agenda, which `check_indices` holds against it).
    fn half_open_count(&self) -> usize;
    fn half_open_evictions(&self) -> u64;
    /// A SYN from `from` to `to` with initial sequence number `isn`.
    fn forge_syn(from: Endpoint, to: Endpoint, isn: u32) -> Vec<u8>;
    /// Whether a frame the stack sent carries a FIN, and its payload length.
    fn fin_and_len(frame: &[u8]) -> (bool, usize);
}

const ADDR: [u32; 2] = [0x0A00_0001, 0x0A00_0002];
const CLIENT: usize = 0;
const SERVER: usize = 1;
const PORT: u16 = 80;
const ROUNDS: usize = 32;

/// The keepalive of every configuration variant that has one.
pub const KEEPALIVE: Keepalive = Keepalive {
    idle: Dur(2_000_000_000),
    interval: Dur(500_000_000),
    max_probes: 2,
};

/// How a world asks its stacks for frames, ticks and the next deadline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Drive {
    /// `poll_transmit`, `on_tick`, `poll_deadline`: the agenda.
    Agenda,
    /// One connection at a time, as `slhost::Host` drives a stack —
    /// `pump_conn` then `take_frame`, `tick_conn`, `conn_deadline` — which
    /// never wakes the agenda.
    PerConn,
}

/// Every connection's handle, ascending: the order the per-connection
/// drive runs them in.
fn ids<S: Scheduled>(stack: &S) -> Vec<S::ConnId> {
    let mut ids: Vec<S::ConnId> = stack.conn_ids().collect();
    ids.sort();
    ids
}

/// Panics unless the agenda holds exactly what the table says: the
/// half-open count always, the ready set and deadline index once awake.
fn check_indices<S: AgendaStack>(stack: &S, now: Time) {
    let agenda = stack.agenda();
    assert_eq!(agenda.half_open(), stack.half_open_count());
    if !agenda.is_awake() {
        assert_eq!(agenda.sizes(), (0, 0), "a dormant agenda indexes nothing");
        return;
    }
    let ((ready, deadlines), live) = (agenda.sizes(), stack.conn_count());
    assert!(ready <= live, "{ready} ready of {live}");
    let with_deadline = stack.conn_ids().filter(|&id| stack.conn_deadline(now, id).is_some());
    assert_eq!(deadlines, with_deadline.count(), "stale or missing deadline entries");
    assert_eq!(agenda.next_deadline(), scan_deadline(stack, now));
}

struct World<S: AgendaStack> {
    drive: Drive,
    ends: [S; 2],
    /// `wire[i]`: frames on their way to `ends[i]`.
    wire: [VecDeque<Vec<u8>>; 2],
    /// The client's handles, in connect order.
    opened: Vec<S::ConnId>,
    now: Time,
    /// Everything observable, in order: `(end, frame it sent)` and
    /// `(2 + end, bytes its application read)`.
    seen: Vec<(usize, Vec<u8>)>,
}

impl<S: AgendaStack> World<S> {
    /// Stacks `new` builds, `n` connections up between them.
    fn new(drive: Drive, new: impl Fn(u32) -> S, n: usize) -> World<S> {
        let mut ends = ADDR.map(new);
        ends[SERVER].listen(PORT);
        let mut w = World {
            drive,
            ends,
            wire: [VecDeque::new(), VecDeque::new()],
            opened: Vec::new(),
            now: Time::ZERO,
            seen: Vec::new(),
        };
        for _ in 0..n {
            w.connect();
        }
        w.exchange();
        w
    }

    fn connect(&mut self) {
        let port = 5000 + self.opened.len() as u16;
        let id = self.ends[CLIENT].try_connect(self.now, port, Endpoint::new(ADDR[SERVER], PORT));
        self.opened.extend(id.ok());
    }

    /// Drain `end`'s transmit queue onto the wire.
    fn poll(&mut self, end: usize) -> usize {
        let mut frames = 0;
        loop {
            let (stack, now) = (&mut self.ends[end], self.now);
            let frame = match self.drive {
                Drive::Agenda => stack.poll_transmit(now),
                Drive::PerConn => stack.take_frame().or_else(|| {
                    for id in ids(stack) {
                        stack.pump_conn(now, id);
                    }
                    stack.take_frame()
                }),
            };
            let Some(frame) = frame else { return frames };
            frames += 1;
            self.seen.push((end, frame.clone()));
            self.wire[1 - end].push_back(frame);
        }
    }

    fn tick(&mut self, end: usize) {
        let (stack, now) = (&mut self.ends[end], self.now);
        match self.drive {
            Drive::Agenda => stack.on_tick(now),
            Drive::PerConn => {
                for id in ids(stack) {
                    stack.tick_conn(now, id);
                }
            }
        }
    }

    fn deadline(&self, end: usize) -> Option<Time> {
        let (stack, now) = (&self.ends[end], self.now);
        match self.drive {
            Drive::Agenda => stack.poll_deadline(now),
            Drive::PerConn => scan_deadline(stack, now),
        }
    }

    /// Hand `end` up to `n` frames off the wire.
    fn deliver(&mut self, end: usize, n: usize) {
        for _ in 0..n {
            let Some(frame) = self.wire[end].pop_front() else {
                return;
            };
            self.ends[end].on_frame(self.now, &frame);
        }
    }

    /// Poll and deliver both ways until the wire is quiet — or for
    /// [`ROUNDS`], since two ends that each owe the other an ack of an
    /// unexpected sequence can answer one another for as long as the clock
    /// stands still.
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
    fn conn(&self, end: usize, k: usize) -> Option<S::ConnId> {
        let known = match end {
            CLIENT => self.opened.clone(),
            _ => self.ends[SERVER].established(),
        };
        (!known.is_empty()).then(|| known[k % known.len()])
    }

    /// One call, picked by `op`, its operands by `arg`.
    fn step(&mut self, op: u8, arg: u8) {
        let end = (arg & 1) as usize;
        let k = (arg >> 1) as usize;
        let id = self.conn(end, k);
        match (op % 16, id) {
            (0, _) if self.opened.len() < 6 => self.connect(),
            (1 | 2, Some(id)) => {
                let len = [1, 200, 1460, 6000][k % 4];
                self.ends[end].send(id, &vec![arg; len]);
            }
            (3, Some(id)) => {
                let data = self.ends[end].recv(id);
                self.seen.push((2 + end, data));
            }
            (4, Some(id)) => self.ends[end].close(id),
            (5, Some(id)) if k.is_multiple_of(4) => self.ends[end].abort(self.now, id),
            (6, _) => {
                use Pressure::{Critical, Elevated, High, Nominal};
                self.ends[end].set_pressure([Nominal, Elevated, High, Critical][k % 4]);
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
                let next = Time::earliest([self.deadline(CLIENT), self.deadline(SERVER)]);
                self.now = self.now.max(next.unwrap_or(self.now));
                self.tick(CLIENT);
                self.tick(SERVER);
            }
            _ => self.exchange(),
        }
    }
}

fn same<T: PartialEq + Debug>(a: T, b: T, what: impl FnOnce() -> String) -> Result<(), String> {
    (a == b).then_some(()).ok_or_else(|| format!("{a:?} != {b:?} ({})", what()))
}

/// One world driven as `first` for its first `switch % ops.len()` calls
/// of `ops` and through the agenda after them, against a world driven per
/// connection throughout, both of stacks `new` builds: they must be
/// indistinguishable after every call, and their indices exact. Taken
/// modulo the script's length, `switch` always falls inside the script, so
/// a world that starts per connection always ends on the agenda.
pub fn agrees_with_the_host_drive<S: AgendaStack>(
    first: Drive,
    switch: usize,
    new: impl Fn(u32) -> S,
    ops: &[(u8, u8)],
) -> Result<(), String> {
    let switch = switch % ops.len().max(1);
    // Four connections up before the random calls start.
    let mut world = World::new(first, &new, 4);
    let mut host = World::new(Drive::PerConn, &new, 4);
    // What both have seen alike so far.
    let mut agreed = 0;
    for (i, &(op, arg)) in ops.iter().enumerate() {
        if i == switch {
            world.drive = Drive::Agenda;
        }
        world.step(op, arg);
        host.step(op, arg);
        let call = || format!("after call {i} ({op}, {arg})");
        same(&world.seen[agreed..], &host.seen[agreed..], call)?;
        agreed = world.seen.len();
        same(world.now, host.now, call)?;
        for end in [CLIENT, SERVER] {
            let at = || format!("end {end} {}", call());
            same(world.deadline(end), host.deadline(end), at)?;
            if world.drive == Drive::PerConn {
                same(world.ends[end].agenda().sizes(), (0, 0), || format!("scheduled, {}", at()))?;
            }
            check_indices(&world.ends[end], world.now);
            check_indices(&host.ends[end], host.now);
        }
    }
    Ok(())
}

/// `pump` need not be a fixpoint: in the sublayered stack the pass that
/// hands the last byte down runs close coordination first, so the FIN is
/// routed by the *next* pass — which must come from the next
/// `poll_transmit`, not from the next inbound frame.
pub fn fin_follows_pending_data_without_an_inbound_packet<S: AgendaStack>(new: fn(u32) -> S) {
    let mut w = World::new(Drive::Agenda, new, 1);
    let id = w.opened[0];
    w.ends[CLIENT].send(id, &[7u8; 300]);
    w.ends[CLIENT].close(id);
    assert_eq!(w.poll(CLIENT), 2, "the data, then the FIN");
    let frames: Vec<_> = w.wire[SERVER].iter().map(|f| S::fin_and_len(f)).collect();
    assert_eq!(frames, [(false, 300), (true, 0)]);
    check_indices(&w.ends[CLIENT], w.now);
}

/// A pair whose server, under pressure that paces acks, got 500 bytes
/// `after` the client sent them and holds their ack.
fn a_held_ack<S: AgendaStack>(new: fn(u32) -> S, after: Dur) -> World<S> {
    let mut w = World::new(Drive::Agenda, new, 1);
    w.ends[SERVER].set_pressure(Pressure::High);
    w.ends[CLIENT].send(w.opened[0], &[9u8; 500]);
    w.poll(CLIENT);
    w.now += after;
    w.deliver(SERVER, 1);
    assert_eq!(w.poll(SERVER), 0, "pure ack held while paced");
    assert_eq!(w.ends[SERVER].poll_deadline(w.now), Some(w.now + S::ACK_PACE_DELAY));
    w
}

/// A passed deadline is honoured by `poll_transmit` alone: a paced ack
/// leaves at its deadline with no `on_tick`.
pub fn paced_ack_is_released_by_poll_transmit_without_a_tick<S: AgendaStack>(new: fn(u32) -> S) {
    let mut w = a_held_ack(new, Dur::from_millis(10));
    let t1 = w.now;
    w.now = t1 + (S::ACK_PACE_DELAY - Dur::from_millis(1));
    assert_eq!(w.poll(SERVER), 0);
    w.now = t1 + S::ACK_PACE_DELAY;
    assert_eq!(w.poll(SERVER), 1, "released at the deadline, no on_tick");
    assert_eq!(S::fin_and_len(&w.wire[CLIENT][0]), (false, 0), "a pure ack");
    assert_eq!(w.ends[SERVER].poll_deadline(w.now), None);
    check_indices(&w.ends[SERVER], w.now);
}

/// An ack that pacing holds goes out at once when the pressure recedes.
pub fn receding_pressure_releases_a_held_ack<S: AgendaStack>(new: fn(u32) -> S) {
    let mut w = a_held_ack(new, Dur::ZERO);
    w.ends[SERVER].set_pressure(Pressure::Nominal);
    assert_eq!(w.poll(SERVER), 1, "released without waiting out the delay");
    assert_eq!(w.ends[SERVER].poll_deadline(w.now), None);
    check_indices(&w.ends[SERVER], w.now);
}

/// A server (its agenda woken first if `wake`) that took as many SYNs as it
/// keeps half-open, from distinct hosts at time zero, and two seconds
/// later, when they are stale, a fresh one that evicts one of them.
fn syn_flooded<S: AgendaStack>(new: fn(u32) -> S, wake: bool) -> (S, Time) {
    let mut server = new(ADDR[SERVER]);
    server.listen(PORT);
    if wake {
        assert_eq!(server.poll_transmit(Time::ZERO), None, "wakes the agenda");
    }
    let to = Endpoint::new(ADDR[SERVER], PORT);
    let syn = |from: u32, isn| S::forge_syn(Endpoint::new(from, 1000), to, isn);
    for i in 0..MAX_HALF_OPEN as u32 {
        server.on_frame(Time::ZERO, &syn(0xC000_0000 + i, 7000 + i));
    }
    let deadlines = if wake { MAX_HALF_OPEN } else { 0 };
    assert_eq!(server.agenda().sizes(), (0, deadlines));
    let now = Time::ZERO + Dur::from_secs(2);
    server.on_frame(now, &syn(0xC300_0000, 9_999));
    assert_eq!(server.half_open_evictions(), 1);
    assert_eq!(server.half_open_count(), MAX_HALF_OPEN);
    assert_eq!(server.agenda().sizes(), (0, deadlines));
    check_indices(&server, now);
    (server, now)
}

/// Half-open eviction and the reaping of dead connections take their index
/// entries with them.
pub fn eviction_and_reaping_leave_no_stale_entry<S: AgendaStack>(new: fn(u32) -> S) {
    let (mut server, mut now) = syn_flooded(new, true);
    // Nobody answers: every SYN|ACK retry budget runs out and the
    // connections are reaped.
    while let Some(next) = server.poll_deadline(now) {
        now = next;
        server.on_tick(now);
        while server.poll_transmit(now).is_some() {}
        check_indices(&server, now);
    }
    assert_eq!(server.conn_count(), 0);
    assert_eq!(server.half_open_count(), 0);
    assert_eq!(server.agenda().sizes(), (0, 0));
}

/// Before its first poll a stack keeps no schedule: the half-open count
/// that every SYN reads stays exact, `poll_deadline` is the scan, and the
/// first poll indexes every deadline at once.
pub fn before_its_first_poll_a_stack_counts_half_opens_and_scans_for_the_deadline<S: AgendaStack>(
    new: fn(u32) -> S,
) {
    let (mut server, now) = syn_flooded(new, false);
    let scan = scan_deadline(&server, now);
    assert!(scan.is_some(), "every half-open retransmits its SYN|ACK");
    assert_eq!(server.poll_deadline(now), scan);
    // The wake: every connection ready, every deadline indexed.
    assert!(server.poll_transmit(now).is_some(), "a queued SYN|ACK");
    assert_eq!(server.agenda().sizes(), (MAX_HALF_OPEN, MAX_HALF_OPEN));
    while server.poll_transmit(now).is_some() {}
    assert_eq!(server.agenda().sizes(), (0, MAX_HALF_OPEN));
    assert_eq!(server.poll_deadline(now), scan);
    check_indices(&server, now);
}

/// `agenda_hazards!(new)` makes every hazard above a `#[test]` against the
/// stacks `new: fn(u32) -> S` builds. `agenda_hazards!(new, fin = name)`
/// names the FIN hazard's test `name`, for a stack that speaks of segments
/// rather than packets.
#[macro_export]
macro_rules! agenda_hazards {
    ($new:expr) => {
        $crate::agenda_hazards!($new, fin = fin_follows_pending_data_without_an_inbound_packet);
    };
    ($new:expr, fin = $fin:ident) => {
        #[test]
        fn $fin() {
            $crate::agenda_suite::fin_follows_pending_data_without_an_inbound_packet($new);
        }
        $crate::agenda_hazards!(@each $new,
            paced_ack_is_released_by_poll_transmit_without_a_tick,
            receding_pressure_releases_a_held_ack,
            eviction_and_reaping_leave_no_stale_entry,
            before_its_first_poll_a_stack_counts_half_opens_and_scans_for_the_deadline);
    };
    (@each $new:expr, $($name:ident),*) => {
        $(#[test] fn $name() { $crate::agenda_suite::$name($new); })*
    };
}
