//! Hierarchical timer wheel.
//!
//! The host keeps one armed deadline per connection. A naive host scans
//! every connection on every tick to find due timers — O(N) work whether
//! or not anything is due, which is exactly the cost the scale experiment
//! (E15) measures. This wheel makes a tick cost proportional to the
//! timers that actually fire (plus amortized cascade work): idle
//! connections consume zero cycles.
//!
//! Layout: time is bucketed into ~1.05 ms ticks (2^20 ns). Level 0 is a
//! 256-slot wheel of single ticks (~268 ms horizon); three upper levels of
//! 64 slots each extend the horizon by 64× apiece (~17 s, ~18 min,
//! ~19.5 h). Entries beyond that sit in an overflow list that is
//! re-placed when the top level rolls over. When the clock crosses a
//! window boundary, the matching upper slot *cascades*: its entries are
//! re-placed into lower levels, so every entry reaches level 0 before its
//! deadline tick.
//!
//! Cancellation is lazy and generational: `cancel` frees the slab entry
//! and bumps its generation; the stale `(index, generation)` pair left in
//! a slot is skipped when the slot is processed. Fire order is
//! `(deadline, arm-sequence)` — deterministic, deadline-sorted, ties
//! broken by arm order.
//!
//! Because stale pairs pile up in level-0 slots (a busy connection re-arms
//! on every request), `next_deadline` does not walk them: the wheel counts
//! the *live* entries of each level-0 slot and keeps one occupancy bit per
//! slot, so the next deadline is a bit scan and a look into one slot.

use netsim::Time;

/// log2 of the tick size in nanoseconds (2^20 ns ≈ 1.05 ms).
const GRANULARITY_BITS: u32 = 20;
/// Level-0 slot count (one slot per tick).
const L0_SLOTS: usize = 256;
/// Slot count for each of the three upper levels.
const UP_SLOTS: usize = 64;
/// Ticks spanned by level 0.
const L0_SPAN: u64 = L0_SLOTS as u64;
/// Ticks spanned by levels 0..=k for k in 1..=3.
const SPANS: [u64; 3] = [
    L0_SPAN * UP_SLOTS as u64,
    L0_SPAN * (UP_SLOTS as u64) * (UP_SLOTS as u64),
    L0_SPAN * (UP_SLOTS as u64) * (UP_SLOTS as u64) * (UP_SLOTS as u64),
];

/// Handle to an armed timer; stale after the timer fires or is cancelled
/// (generation mismatch makes reuse harmless).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerKey {
    idx: u32,
    gen: u32,
}

struct SlabSlot<T> {
    gen: u32,
    entry: Option<Armed<T>>,
}

struct Armed<T> {
    deadline: u64,
    seq: u64,
    /// The level-0 slot whose live count includes this entry; `None`
    /// while it sits in `imminent`, an upper level or `overflow`.
    l0_slot: Option<u8>,
    payload: T,
}

/// A hierarchical timer wheel carrying one payload per armed timer.
pub struct TimerWheel<T> {
    cur_tick: u64,
    l0: Vec<Vec<(u32, u32)>>,
    /// Live entries in each level-0 slot (the slot's `Vec` also holds the
    /// stale pairs lazy cancellation leaves behind).
    l0_live: [u32; L0_SLOTS],
    /// Bit `s` of the 256 is set iff `l0_live[s] > 0`.
    l0_occupied: [u64; L0_SLOTS / 64],
    upper: [Vec<Vec<(u32, u32)>>; 3],
    overflow: Vec<(u32, u32)>,
    /// Entries whose deadline tick is not after `cur_tick` (due now or
    /// later within the current tick); checked on every `advance`.
    imminent: Vec<(u32, u32)>,
    slab: Vec<SlabSlot<T>>,
    free: Vec<u32>,
    next_seq: u64,
    armed: usize,
    /// Entries examined by `advance` (live fires, stale skips, cascade
    /// re-placements) — the work metric E15 compares against a naive
    /// scan-all-connections tick.
    pub touches: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            cur_tick: 0,
            l0: (0..L0_SLOTS).map(|_| Vec::new()).collect(),
            l0_live: [0; L0_SLOTS],
            l0_occupied: [0; L0_SLOTS / 64],
            upper: std::array::from_fn(|_| (0..UP_SLOTS).map(|_| Vec::new()).collect()),
            overflow: Vec::new(),
            imminent: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            armed: 0,
            touches: 0,
        }
    }

    /// Number of live (armed, not yet fired or cancelled) timers.
    pub fn len(&self) -> usize {
        self.armed
    }

    pub fn is_empty(&self) -> bool {
        self.armed == 0
    }

    /// Arm a timer for `deadline`. Deadlines at or before the current
    /// clock fire on the next `advance`.
    pub fn arm(&mut self, deadline: Time, payload: T) -> TimerKey {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slab.push(SlabSlot { gen: 0, entry: None });
                (self.slab.len() - 1) as u32
            }
        };
        let gen = self.slab[idx as usize].gen;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slab[idx as usize].entry =
            Some(Armed { deadline: deadline.nanos(), seq, l0_slot: None, payload });
        self.armed += 1;
        self.place(idx, gen, deadline.nanos() >> GRANULARITY_BITS);
        TimerKey { idx, gen }
    }

    /// Cancel an armed timer. Returns the payload if the key was live;
    /// stale keys (already fired / cancelled) are a harmless no-op.
    pub fn cancel(&mut self, key: TimerKey) -> Option<T> {
        let slot = self.slab.get_mut(key.idx as usize)?;
        if slot.gen != key.gen {
            return None;
        }
        let armed = slot.entry.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(key.idx);
        self.armed -= 1;
        if let Some(s) = armed.l0_slot {
            let s = s as usize;
            self.l0_live[s] -= 1;
            if self.l0_live[s] == 0 {
                self.l0_occupied[s / 64] &= !(1 << (s % 64));
            }
        }
        Some(armed.payload)
    }

    fn place(&mut self, idx: u32, gen: u32, dtick: u64) {
        let delta = dtick.saturating_sub(self.cur_tick);
        if dtick <= self.cur_tick {
            self.imminent.push((idx, gen));
        } else if delta < L0_SPAN {
            let s = (dtick % L0_SPAN) as usize;
            self.l0[s].push((idx, gen));
            if let Some(armed) = self.slab[idx as usize].entry.as_mut() {
                armed.l0_slot = Some(s as u8);
                self.l0_live[s] += 1;
                self.l0_occupied[s / 64] |= 1 << (s % 64);
            }
        } else if delta < SPANS[0] {
            self.upper[0][((dtick >> 8) % UP_SLOTS as u64) as usize].push((idx, gen));
        } else if delta < SPANS[1] {
            self.upper[1][((dtick >> 14) % UP_SLOTS as u64) as usize].push((idx, gen));
        } else if delta < SPANS[2] {
            self.upper[2][((dtick >> 20) % UP_SLOTS as u64) as usize].push((idx, gen));
        } else {
            self.overflow.push((idx, gen));
        }
    }

    /// Advance the clock to `now`, returning every timer that fired,
    /// sorted by `(deadline, arm-sequence)`. Each armed timer fires
    /// exactly once; cancelled timers never fire.
    pub fn advance(&mut self, now: Time) -> Vec<(Time, T)> {
        let target = now.nanos() >> GRANULARITY_BITS;
        let mut fired: Vec<(u64, u64, T)> = Vec::new();

        // Due-now bucket: entries armed at or before the current tick.
        self.drain_imminent(now.nanos(), &mut fired);

        while self.cur_tick < target {
            self.cur_tick += 1;
            // Cascade upper slots at their window boundaries so entries
            // reach level 0 before their deadline tick.
            if self.cur_tick.is_multiple_of(L0_SPAN) {
                self.cascade(0, ((self.cur_tick >> 8) % UP_SLOTS as u64) as usize);
                if (self.cur_tick >> 8).is_multiple_of(UP_SLOTS as u64) {
                    self.cascade(1, ((self.cur_tick >> 14) % UP_SLOTS as u64) as usize);
                    if (self.cur_tick >> 14).is_multiple_of(UP_SLOTS as u64) {
                        self.cascade(2, ((self.cur_tick >> 20) % UP_SLOTS as u64) as usize);
                        if (self.cur_tick >> 20).is_multiple_of(UP_SLOTS as u64) {
                            let spill = std::mem::take(&mut self.overflow);
                            for (idx, gen) in spill {
                                self.touches += 1;
                                self.replace_entry(idx, gen);
                            }
                        }
                    }
                }
            }
            // Whatever was live in this slot fires or moves to `imminent`
            // (`take_if_due` forgets the slot there).
            let s = (self.cur_tick % L0_SPAN) as usize;
            self.l0_live[s] = 0;
            self.l0_occupied[s / 64] &= !(1 << (s % 64));
            let slot = std::mem::take(&mut self.l0[s]);
            for (idx, gen) in slot {
                self.touches += 1;
                match self.take_if_due(idx, gen, now.nanos()) {
                    Taken::Fired(d, s, p) => fired.push((d, s, p)),
                    // Due later within this tick (sub-tick precision).
                    Taken::NotYet => self.imminent.push((idx, gen)),
                    Taken::Stale => {}
                }
            }
        }

        // Cascades above may have landed entries exactly on the current
        // tick, which `place` routes into `imminent` — they are due in
        // *this* advance, not the next one.
        self.drain_imminent(now.nanos(), &mut fired);

        fired.sort_by_key(|&(deadline, seq, _)| (deadline, seq));
        fired.into_iter().map(|(d, _, p)| (Time(d), p)).collect()
    }

    fn drain_imminent(&mut self, now_nanos: u64, fired: &mut Vec<(u64, u64, T)>) {
        if self.imminent.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.imminent);
        for (idx, gen) in pending {
            self.touches += 1;
            match self.take_if_due(idx, gen, now_nanos) {
                Taken::Fired(d, s, p) => fired.push((d, s, p)),
                Taken::NotYet => self.imminent.push((idx, gen)),
                Taken::Stale => {}
            }
        }
    }

    fn cascade(&mut self, level: usize, slot: usize) {
        let entries = std::mem::take(&mut self.upper[level][slot]);
        for (idx, gen) in entries {
            self.touches += 1;
            self.replace_entry(idx, gen);
        }
    }

    fn replace_entry(&mut self, idx: u32, gen: u32) {
        let Some(slot) = self.slab.get(idx as usize) else { return };
        if slot.gen != gen {
            return;
        }
        let Some(armed) = slot.entry.as_ref() else { return };
        let dtick = armed.deadline >> GRANULARITY_BITS;
        self.place(idx, gen, dtick);
    }

    fn take_if_due(&mut self, idx: u32, gen: u32, now_nanos: u64) -> Taken<T> {
        let Some(slot) = self.slab.get_mut(idx as usize) else { return Taken::Stale };
        if slot.gen != gen {
            return Taken::Stale;
        }
        let Some(armed) = slot.entry.as_mut() else { return Taken::Stale };
        if armed.deadline > now_nanos {
            armed.l0_slot = None;
            return Taken::NotYet;
        }
        let armed = slot.entry.take().unwrap();
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.armed -= 1;
        Taken::Fired(armed.deadline, armed.seq, armed.payload)
    }

    /// The next instant `advance` should be called at: the exact deadline
    /// when one is within the level-0 horizon, otherwise a *checkpoint* at
    /// the next level-0 window boundary. Advancing to a checkpoint
    /// cascades the due upper slot, after which the exact deadline becomes
    /// visible — so timers never fire late, and finding the next deadline
    /// never scans upper levels.
    pub fn next_deadline(&self) -> Option<Time> {
        if self.armed == 0 {
            return None;
        }
        let mut best: Option<u64> = None;
        for &(idx, gen) in &self.imminent {
            if let Some(d) = self.live_deadline(idx, gen) {
                best = Some(best.map_or(d, |b| b.min(d)));
            }
        }
        if let Some(d) = best {
            return Some(Time(d));
        }
        if let Some(s) = self.first_occupied_after((self.cur_tick % L0_SPAN) as usize) {
            // Every live entry of a level-0 slot is due in the one tick the
            // slot stands for until it is next drained. Newest first, and
            // no further than the last live one: a re-armed connection's
            // stale pairs sit ahead of its live one.
            let newest_first = self.l0[s].iter().rev();
            let live = newest_first.filter_map(|&(idx, gen)| self.live_deadline(idx, gen));
            let due = live.take(self.l0_live[s] as usize).min();
            debug_assert!(due.is_some(), "slot {s} is marked occupied and holds nothing live");
            if let Some(d) = due {
                return Some(Time(d));
            }
        }
        // Everything live is in an upper level (or overflow): march to the
        // next window boundary, whose cascade will surface it.
        let checkpoint = ((self.cur_tick / L0_SPAN) + 1) * L0_SPAN;
        Some(Time(checkpoint << GRANULARITY_BITS))
    }

    /// The first occupied level-0 slot after `slot`, wrapping. (`slot`
    /// itself comes last; called with the clock's slot, which `advance` has
    /// drained and `place` never fills, so it is never the answer.)
    fn first_occupied_after(&self, slot: usize) -> Option<usize> {
        const WORDS: usize = L0_SLOTS / 64;
        let start = (slot + 1) % L0_SLOTS;
        let (w0, b0) = (start / 64, start % 64);
        let head = self.l0_occupied[w0] >> b0;
        if head != 0 {
            return Some(start + head.trailing_zeros() as usize);
        }
        for k in 1..=WORDS {
            let w = (w0 + k) % WORDS;
            let mut bits = self.l0_occupied[w];
            if k == WORDS {
                // Back in the first word: the bits below where the scan began.
                bits &= (1 << b0) - 1;
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    fn live_deadline(&self, idx: u32, gen: u32) -> Option<u64> {
        let slot = self.slab.get(idx as usize)?;
        if slot.gen != gen {
            return None;
        }
        slot.entry.as_ref().map(|a| a.deadline)
    }
}

/// The walk `next_deadline` used to make over up to 255 level-0 slots,
/// stale pairs included — the reference the occupancy bitmap is tested
/// against — and the bitmap's own invariant.
#[cfg(test)]
impl<T> TimerWheel<T> {
    fn scan_deadline(&self) -> Option<Time> {
        if self.armed == 0 {
            return None;
        }
        let live_min = |slot: &[(u32, u32)], tick: Option<u64>| {
            slot.iter()
                .filter_map(|&(idx, gen)| self.live_deadline(idx, gen))
                .filter(|&d| tick.is_none_or(|t| d >> GRANULARITY_BITS == t))
                .min()
        };
        if let Some(d) = live_min(&self.imminent, None) {
            return Some(Time(d));
        }
        for i in 1..L0_SPAN {
            let tick = self.cur_tick + i;
            if let Some(d) = live_min(&self.l0[(tick % L0_SPAN) as usize], Some(tick)) {
                return Some(Time(d));
            }
        }
        let checkpoint = ((self.cur_tick / L0_SPAN) + 1) * L0_SPAN;
        Some(Time(checkpoint << GRANULARITY_BITS))
    }

    /// Count per slot = live entries recorded in that slot; bit set iff
    /// count > 0; every live entry's remembered slot is where it sits.
    fn check_occupancy(&self) {
        let mut seen = 0;
        for (s, slot) in self.l0.iter().enumerate() {
            let mut live = 0;
            for &(idx, gen) in slot {
                if self.live_deadline(idx, gen).is_some() {
                    live += 1;
                    let armed = self.slab[idx as usize].entry.as_ref().unwrap();
                    assert_eq!(armed.l0_slot, Some(s as u8), "entry {idx} sits in slot {s}");
                }
            }
            assert_eq!(self.l0_live[s], live, "live count of slot {s}");
            let bit = self.l0_occupied[s / 64] >> (s % 64) & 1 == 1;
            assert_eq!(bit, live > 0, "occupancy bit of slot {s}");
            seen += live;
        }
        // Nothing outside level 0 remembers a slot.
        let remembering = self
            .slab
            .iter()
            .filter(|e| e.entry.as_ref().is_some_and(|a| a.l0_slot.is_some()))
            .count();
        assert_eq!(remembering, seen as usize);
        assert_eq!(self.l0_live[(self.cur_tick % L0_SPAN) as usize], 0, "the drained slot");
    }
}

enum Taken<T> {
    Fired(u64, u64, T),
    NotYet,
    Stale,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Dur;

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::new();
        w.arm(Time(5_000_000), "b");
        w.arm(Time(1_000_000), "a");
        w.arm(Time(9_000_000), "c");
        let fired = w.advance(Time(10_000_000));
        let names: Vec<&str> = fired.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_deadline_fires_in_arm_order() {
        let mut w = TimerWheel::new();
        w.arm(Time(1_000_000), 1);
        w.arm(Time(1_000_000), 2);
        w.arm(Time(1_000_000), 3);
        let fired = w.advance(Time(2_000_000));
        let order: Vec<i32> = fired.iter().map(|&(_, p)| p).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn cancelled_never_fires() {
        let mut w = TimerWheel::new();
        let k = w.arm(Time(1_000_000), "x");
        w.arm(Time(2_000_000), "y");
        assert_eq!(w.cancel(k), Some("x"));
        assert_eq!(w.cancel(k), None, "double cancel is a no-op");
        let fired = w.advance(Time(5_000_000));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "y");
    }

    #[test]
    fn sub_tick_deadline_not_fired_early() {
        let mut w = TimerWheel::new();
        // Both in the same ~1ms tick; advance to between them.
        w.arm(Time(1_100_000), "early");
        w.arm(Time(1_900_000), "late");
        let fired = w.advance(Time(1_500_000));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "early");
        assert_eq!(w.next_deadline(), Some(Time(1_900_000)));
        let fired = w.advance(Time(1_900_000));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "late");
    }

    #[test]
    fn upper_level_entries_cascade_and_fire_on_time() {
        // Deadlines past the L0 horizon (~268 ms) and past L1 (~17 s).
        let mut w = TimerWheel::new();
        let d1 = Time(Dur::from_millis(500).0);
        let d2 = Time(Dur::from_secs(30).0);
        w.arm(d1, "l1");
        w.arm(d2, "l2");
        // March via next_deadline checkpoints, never overshooting.
        let mut now = Time::ZERO;
        let mut fired = Vec::new();
        while let Some(next) = w.next_deadline() {
            assert!(next > now, "progress");
            now = next;
            for (at, p) in w.advance(now) {
                fired.push((at, p));
            }
        }
        assert_eq!(fired, vec![(d1, "l1"), (d2, "l2")]);
    }

    #[test]
    fn next_deadline_is_exact_within_horizon() {
        let mut w = TimerWheel::new();
        w.arm(Time(42_000_000), "x");
        assert_eq!(w.next_deadline(), Some(Time(42_000_000)));
        assert_eq!(w.advance(Time(42_000_000)).len(), 1);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn overflow_entries_survive_arm_and_cancel() {
        let mut w = TimerWheel::new();
        // ~28 hours out: beyond the 3-level horizon.
        let far = Time(100_000_000_000_000);
        let k = w.arm(far, "far");
        assert_eq!(w.len(), 1);
        // Checkpoint marching still reports something armed.
        assert!(w.next_deadline().is_some());
        assert_eq!(w.cancel(k), Some("far"));
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn key_reuse_does_not_alias() {
        let mut w = TimerWheel::new();
        let k1 = w.arm(Time(1_000_000), "a");
        w.cancel(k1);
        let _k2 = w.arm(Time(2_000_000), "b"); // reuses slab slot 0
        assert_eq!(w.cancel(k1), None, "old key must not cancel new timer");
        let fired = w.advance(Time(3_000_000));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "b");
    }

    #[test]
    fn idle_timers_cost_no_touches() {
        let mut w = TimerWheel::new();
        for i in 0..1000 {
            w.arm(Time(Dur::from_secs(60).0 + i), i);
        }
        // Advance through 100 ms of quiet time: only cascade work (zero
        // here — the entries sit in an upper level) may be touched.
        w.advance(Time(Dur::from_millis(100).0));
        assert_eq!(w.touches, 0, "idle connections consume zero cycles");
    }

    /// An empty wheel whose clock stands at `tick` — what advancing a new
    /// wheel there leaves, without the walk over every tick on the way.
    fn wheel_at(tick: u64) -> TimerWheel<u32> {
        let mut w = TimerWheel::new();
        w.cur_tick = tick;
        w
    }

    #[test]
    fn a_new_wheel_advanced_is_an_empty_wheel_at_that_tick() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert!(w.advance(Time(1000 << GRANULARITY_BITS)).is_empty());
        assert_eq!((w.cur_tick, w.touches), (1000, 0));
        w.check_occupancy();
        let k = w.arm(Time(1003 << GRANULARITY_BITS), 7);
        let mut v = wheel_at(1000);
        v.arm(Time(1003 << GRANULARITY_BITS), 7);
        assert_eq!(w.next_deadline(), v.next_deadline());
        assert_eq!(w.l0_occupied, v.l0_occupied);
        assert_eq!(w.cancel(k), Some(7));
        assert_eq!(w.l0_occupied, [0; 4]);
    }

    #[test]
    fn bit_scan_wraps_and_skips_the_slot_it_starts_from() {
        let mut w = wheel_at(0);
        assert_eq!(w.first_occupied_after(17), None);
        for from in [0usize, 17, 63, 64, 200, 254, 255] {
            for ahead in [1usize, 2, 46, 47, 63, 64, 65, 128, 254, 255] {
                let s = (from + ahead) % L0_SLOTS;
                w.l0_occupied[s / 64] |= 1 << (s % 64);
                assert_eq!(w.first_occupied_after(from), Some(s), "{from} + {ahead}");
                // A nearer slot wins; the one behind does not.
                let behind = (from + L0_SLOTS - 1) % L0_SLOTS;
                if behind != s {
                    w.l0_occupied[behind / 64] |= 1 << (behind % 64);
                    assert_eq!(w.first_occupied_after(from), Some(s));
                }
                w.l0_occupied = [0; 4];
            }
        }
    }

    /// Where an arm lands, in ticks ahead of the clock: the current tick,
    /// level 0 (near and anywhere), just past each level's span, overflow,
    /// and anywhere at all.
    fn arm_offset(kind: u8, x: u64) -> u64 {
        match kind % 8 {
            0 => 0,
            1 => 1 + x % 8,
            2 => 1 + x % 255,
            3 => L0_SPAN + x % 600,
            4 => SPANS[0] + x % 600,
            5 => SPANS[1] + x % 600,
            6 => SPANS[2] + x % 600,
            _ => x % (2 * SPANS[2]),
        }
    }

    proptest::proptest! {
        /// `next_deadline` against the walk it replaced, and the bitmap's
        /// invariant, after every step of arm / cancel / advance — started
        /// a little short of a level-0, 1, 2, 3 or top-level rollover so
        /// that the advances cross it.
        #[test]
        fn next_deadline_equals_the_scan_after_every_step(
            start in (0u8..5, 0u64..600),
            ops in proptest::collection::vec((0u8..8, 0u8..8, proptest::num::u64::ANY), 0..120),
        ) {
            const TICK: u64 = 1 << GRANULARITY_BITS;
            let boundary = [L0_SPAN, SPANS[0], SPANS[1], SPANS[2], 2 * SPANS[2]][start.0 as usize];
            let mut w = wheel_at(boundary - start.1 % boundary);
            let mut now = w.cur_tick * TICK;
            let mut keys: Vec<TimerKey> = Vec::new();
            let mut armed = 0u32;
            for &(op, kind, x) in &ops {
                match op {
                    // Arm; the sub-tick part may fall before `now`.
                    0..=2 => {
                        let at = (now / TICK + arm_offset(kind, x)) * TICK + (x >> 40) % TICK;
                        keys.push(w.arm(Time(at), armed));
                        armed += 1;
                    }
                    // Cancel any key ever handed out: live, fired, already
                    // cancelled, or its slab entry since reused.
                    3..=4 => {
                        if !keys.is_empty() {
                            w.cancel(keys[x as usize % keys.len()]);
                        }
                    }
                    // Advance: within the tick (`NotYet`), a few ticks, up
                    // to several windows, or to where the wheel points.
                    _ => {
                        now = match kind % 4 {
                            0 => now + x % TICK,
                            1 => now + x % (8 * TICK),
                            2 => now + x % (700 * TICK),
                            _ => w.next_deadline().map_or(now, |t| t.nanos().max(now)),
                        };
                        for (at, _) in w.advance(Time(now)) {
                            proptest::prop_assert!(at.nanos() <= now);
                        }
                    }
                }
                proptest::prop_assert_eq!(w.next_deadline(), w.scan_deadline());
                w.check_occupancy();
            }
        }
    }
}
