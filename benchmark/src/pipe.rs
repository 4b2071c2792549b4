//! The virtual pipe that joins the endpoints: frames wait out a fixed
//! one-way virtual delay, after a seeded fault stage has dropped,
//! duplicated or held back some of them. No wall-clock time passes here —
//! the driver jumps its virtual clock to [`Pipe::next_due`].

use netsim::{DetRng, Dur, Time};
use std::collections::VecDeque;

/// How many extra one-way delays a held-back frame waits: it arrives behind
/// the frames sent during the next three hops, which is what reorders it.
pub const HOLD_BACK_HOPS: u64 = 3;

/// Fault rates, each the probability that one frame meets that fate. The
/// fates exclude each other: one draw per frame picks drop, duplicate,
/// hold-back or none.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Faults {
    pub drop: f64,
    pub duplicate: f64,
    pub hold_back: f64,
}

impl Faults {
    pub const NONE: Faults = Faults {
        drop: 0.0,
        duplicate: 0.0,
        hold_back: 0.0,
    };

    fn any(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.hold_back > 0.0
    }
}

/// What the fault stage did, for the tests and the trace file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipeStats {
    pub offered: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub held_back: u64,
    pub delivered: u64,
}

/// A frame on its way to endpoint `to`.
#[derive(Debug)]
pub struct InFlight {
    pub due: Time,
    pub from: u32,
    pub to: u32,
    pub frame: Vec<u8>,
    /// How many times to deliver it: 2 for a frame the fault stage
    /// duplicated. The copies would sit next to each other in the queue
    /// anyway, and delivering one buffer twice spares the benchmark an
    /// allocation that the counted batch would otherwise see.
    pub copies: u8,
    /// Send order, the tie-break between frames due at one instant.
    seq: u64,
}

pub struct Pipe {
    delay: Dur,
    faults: Faults,
    rng: DetRng,
    /// Each lane adds one constant delay, so each is in due order by
    /// construction and the earlier head is the next frame overall.
    on_time: VecDeque<InFlight>,
    held: VecDeque<InFlight>,
    next_seq: u64,
    pub stats: PipeStats,
}

impl Pipe {
    /// `capacity` pre-sizes the queues so that a steady-state run never
    /// grows them: allocations then come from the code under test.
    pub fn new(delay: Dur, faults: Faults, seed: u64, capacity: usize) -> Pipe {
        assert!(
            delay > Dur::ZERO,
            "a zero delay would let one instant feed itself"
        );
        Pipe {
            delay,
            faults,
            rng: DetRng::new(seed),
            on_time: VecDeque::with_capacity(capacity),
            held: VecDeque::with_capacity(capacity / 8 + 16),
            next_seq: 0,
            stats: PipeStats::default(),
        }
    }

    /// Offer one frame sent at `now`; the fault stage decides its fate.
    pub fn send(&mut self, now: Time, from: u32, to: u32, frame: Vec<u8>) {
        self.stats.offered += 1;
        if !self.faults.any() {
            return self.enqueue(false, 1, now, from, to, frame);
        }
        let draw = self.rng.unit_f64();
        let f = self.faults;
        if draw < f.drop {
            self.stats.dropped += 1;
        } else if draw < f.drop + f.duplicate {
            self.stats.duplicated += 1;
            self.enqueue(false, 2, now, from, to, frame);
        } else if draw < f.drop + f.duplicate + f.hold_back {
            self.stats.held_back += 1;
            self.enqueue(true, 1, now, from, to, frame);
        } else {
            self.enqueue(false, 1, now, from, to, frame);
        }
    }

    fn enqueue(&mut self, hold: bool, copies: u8, now: Time, from: u32, to: u32, frame: Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (lane, hops) = if hold {
            (&mut self.held, 1 + HOLD_BACK_HOPS)
        } else {
            (&mut self.on_time, 1)
        };
        let due = now + self.delay.saturating_mul(hops);
        lane.push_back(InFlight {
            due,
            from,
            to,
            frame,
            copies,
            seq,
        });
    }

    /// Which lane holds the next frame overall: `Some(true)` for the held one.
    fn head_is_held(&self) -> Option<bool> {
        match (self.on_time.front(), self.held.front()) {
            (Some(a), Some(b)) => Some((b.due, b.seq) < (a.due, a.seq)),
            (Some(_), None) => Some(false),
            (None, Some(_)) => Some(true),
            (None, None) => None,
        }
    }

    fn head(&self) -> Option<&InFlight> {
        if self.head_is_held()? {
            self.held.front()
        } else {
            self.on_time.front()
        }
    }

    /// When the next frame arrives, if any is in flight.
    pub fn next_due(&self) -> Option<Time> {
        self.head().map(|f| f.due)
    }

    /// The endpoint the next frame is for, if that frame is due by `now`.
    pub fn due_for(&self, now: Time) -> Option<u32> {
        self.head().filter(|f| f.due <= now).map(|f| f.to)
    }

    /// Take the next frame if it is due by `now` and addressed to `to`.
    pub fn pop_due(&mut self, now: Time, to: u32) -> Option<InFlight> {
        if self.due_for(now)? != to {
            return None;
        }
        let f = if self.head_is_held()? {
            self.held.pop_front()
        } else {
            self.on_time.pop_front()
        }?;
        self.stats.delivered += f.copies as u64;
        Some(f)
    }

    pub fn is_empty(&self) -> bool {
        self.on_time.is_empty() && self.held.is_empty()
    }
}
