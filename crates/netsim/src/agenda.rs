//! What a multi-connection [`Stack`](crate::Stack) keeps so that
//! `poll_transmit`, `poll_deadline` and `on_tick` cost what there is to do,
//! not what the connection table holds — and the one drive over it.
//!
//! Two small ordered sets and a counter, no per-connection field:
//!
//! * the **ready set** — connections the application touched since they
//!   last ran, which therefore may have something to send;
//! * the **deadline index** — one `(deadline, connection)` entry per
//!   connection that has a timer pending;
//! * the **half-open count**, which every inbound SYN asks for. The SYN
//!   admission bound ([`MAX_HALF_OPEN`]), the age at which a half-open
//!   connection may be evicted ([`HALF_OPEN_EVICT_AGE`]) and the SYN
//!   cookie ([`syn_cookie`]) sit beside it; each stack keeps its own
//!   admission decision.
//!
//! An agenda is built on demand. Until it is woken it is *dormant*: a stack that a host drives connection by connection (through
//! `HostStack::pump_conn`, `tick_conn` and `conn_deadline`, with the host's
//! own timers) never asks it to schedule anything, so it keeps only the
//! half-open count, and a [`Mark`] it builds carries no deadline — a pump
//! then reads no deadline and touches no tree. The drive wakes it on the
//! stack's first `poll_transmit` or `on_tick`: every connection becomes
//! ready and every deadline is indexed from one pass over the table.
//!
//! The drive is written once, here: [`poll_transmit`], [`poll_deadline`]
//! and [`on_tick`] run any [`Scheduled`] stack, and both stacks'
//! `impl Stack` scheduling methods are calls of them. A stack keeps only
//! what it alone knows: the `agenda` field, where a connection changes
//! (every call that can change one takes the connection's [`Agenda::mark`]
//! before and after and hands both to [`Agenda::reindex`]), and how its
//! state reads as a deadline (its `conn_deadline`). The deadline index is
//! exact once woken; the half-open count always.
//!
//! A connection that is not ready, and whose deadline has not passed, has
//! nothing to do: running it would emit no frame and change no state. The
//! drive rests on that — the wake does too, making ready every connection
//! whose touches a dormant agenda did not note — and one suite,
//! `agenda_suite`, proves it for both stacks (`sublayer-core` and
//! `tcp-mono`) against the per-connection drive a host runs.

use crate::stack::HostStack;
use crate::time::{Dur, Time};
use slwire::FourTuple;
use std::collections::BTreeSet;

/// Half-open connections a listener keeps: beyond it, a SYN evicts a stale
/// one or is answered with a [`syn_cookie`], never with more state.
pub const MAX_HALF_OPEN: usize = 16;
/// A half-open connection idle this long (one initial RTO, so already
/// retransmitting its SYN|ACK) is stale enough to evict for a fresh SYN.
pub const HALF_OPEN_EVICT_AGE: Dur = Dur(1_000_000_000);

/// The ISN a stack at `local_addr` answers a SYN with when it keeps no
/// state for it: a keyed mix of the flow's 4-tuple and the peer's ISN, so
/// the handshake-completing ACK can be recognised by recomputing it.
#[inline]
pub fn syn_cookie(local_addr: u32, tuple: &FourTuple, peer_isn: u32) -> u32 {
    let mut h: u32 = 0x9E37_79B9 ^ local_addr;
    for v in [
        tuple.local.addr,
        tuple.local.port as u32,
        tuple.remote.addr,
        tuple.remote.port as u32,
        peer_isn,
    ] {
        h = h.wrapping_add(v).wrapping_mul(2_654_435_761).rotate_left(13);
    }
    h
}

/// What the agenda records about one connection (`Option<Mark>`: `None`
/// for a connection that is not in the table). Built by [`Agenda::mark`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark {
    /// The connection's next timer deadline (`None` too while the agenda
    /// is dormant).
    pub deadline: Option<Time>,
    /// Passively opened, handshake not yet complete.
    pub half_open: bool,
}

/// Ready set, deadline index and half-open count over connection handles
/// `K`.
pub struct Agenda<K> {
    /// Whether [`Agenda::wake`] has run: until then the two sets stay
    /// empty and only `half_open` is kept.
    awake: bool,
    ready: BTreeSet<K>,
    deadlines: BTreeSet<(Time, K)>,
    half_open: usize,
    /// `deadlines.first()`, kept beside the sets: the polls that find
    /// nothing to do — most of them — then read no tree node at all.
    earliest: Option<Time>,
    /// The `Vec` [`Agenda::due`] hands out, kept between calls so that a
    /// poll allocates nothing.
    scratch: Vec<K>,
}

impl<K: Ord + Copy> Default for Agenda<K> {
    fn default() -> Self {
        Agenda {
            awake: false,
            ready: BTreeSet::new(),
            deadlines: BTreeSet::new(),
            half_open: 0,
            earliest: None,
            scratch: Vec::new(),
        }
    }
}

impl<K: Ord + Copy> Agenda<K> {
    /// A dormant agenda.
    pub fn new() -> Agenda<K> {
        Agenda::default()
    }

    pub fn is_awake(&self) -> bool {
        self.awake
    }

    /// Start scheduling: `table` lists every connection with its deadline.
    /// Each becomes ready and each deadline is indexed.
    pub(crate) fn wake(&mut self, table: impl IntoIterator<Item = (K, Option<Time>)>) {
        self.awake = true;
        for (k, deadline) in table {
            self.ready.insert(k);
            if let Some(t) = deadline {
                self.deadlines.insert((t, k));
            }
        }
        self.earliest = self.deadlines.first().map(|&(t, _)| t);
    }

    /// A connection's mark. `deadline` is asked only once the agenda is
    /// awake; a dormant one indexes no deadline, so it needs none.
    pub fn mark(&self, half_open: bool, deadline: impl FnOnce() -> Option<Time>) -> Mark {
        Mark {
            deadline: if self.awake { deadline() } else { None },
            half_open,
        }
    }

    /// `k` may have work that no deadline announces.
    pub fn mark_ready(&mut self, k: K) {
        if self.awake {
            self.ready.insert(k);
        }
    }

    /// `k` just ran (or is gone).
    pub fn clear_ready(&mut self, k: &K) {
        // Removing one by one keeps the set's root node allocated; `clear`
        // or `mem::take` would free it and the next insert allocate again.
        if !self.ready.is_empty() {
            self.ready.remove(k);
        }
    }

    /// `k`'s mark was `before` when the call began and is `after` now.
    pub fn reindex(&mut self, k: K, before: Option<Mark>, after: Option<Mark>) {
        if after.is_none() {
            self.clear_ready(&k);
        }
        self.move_deadline(
            k,
            before.and_then(|m| m.deadline),
            after.and_then(|m| m.deadline),
        );
        self.half_open -= usize::from(before.is_some_and(|m| m.half_open));
        self.half_open += usize::from(after.is_some_and(|m| m.half_open));
    }

    fn move_deadline(&mut self, k: K, before: Option<Time>, after: Option<Time>) {
        if before == after {
            return;
        }
        if let Some(t) = before {
            let was_indexed = self.deadlines.remove(&(t, k));
            debug_assert!(was_indexed, "a deadline changed behind the index's back");
        }
        if let Some(t) = after {
            self.deadlines.insert((t, k));
        }
        self.earliest = self.deadlines.first().map(|&(t, _)| t);
    }

    /// Connections whose mark says `half_open`.
    pub fn half_open(&self) -> usize {
        self.half_open
    }

    /// The earliest indexed deadline (`None` while dormant: the stack
    /// scans instead).
    pub(crate) fn next_deadline(&self) -> Option<Time> {
        self.earliest
    }

    /// Every connection that is ready or whose deadline is at or before
    /// `now`, ascending and without repeats — the order a sorted scan of
    /// the table would visit them in. Give the `Vec` back with
    /// [`Agenda::recycle`].
    pub(crate) fn due(&mut self, now: Time) -> Vec<K> {
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        out.extend(self.ready.iter().copied());
        let ready = out.len();
        if self.earliest.is_some_and(|t| t <= now) {
            out.extend(
                self.deadlines
                    .iter()
                    .take_while(|&&(t, _)| t <= now)
                    .map(|&(_, k)| k),
            );
        }
        if out.len() > ready {
            // The index is in deadline order, and may repeat a ready one.
            out.sort_unstable();
            out.dedup();
        }
        out
    }

    pub(crate) fn recycle(&mut self, ids: Vec<K>) {
        self.scratch = ids;
    }

    /// Entries in the ready set and in the deadline index (each at most
    /// the stack's connection count; both 0 while dormant).
    pub fn sizes(&self) -> (usize, usize) {
        (self.ready.len(), self.deadlines.len())
    }
}

/// A stack that keeps an [`Agenda`] over its connections: what the drive
/// below reads of it beyond [`HostStack`].
pub trait Scheduled: HostStack {
    fn agenda(&self) -> &Agenda<Self::ConnId>;
    fn agenda_mut(&mut self) -> &mut Agenda<Self::ConnId>;
    /// Every live connection's handle, in the table's order.
    fn conn_ids(&self) -> impl Iterator<Item = Self::ConnId> + '_;
}

/// `Stack::poll_transmit`: a queued frame, else one after running every
/// due connection. Only a ready connection, or one whose deadline has
/// passed (a paced ack is released here, with no `on_tick`), can have a
/// frame to give. Ascending, so every same-seed run runs them in the same
/// order.
pub fn poll_transmit<S: Scheduled>(stack: &mut S, now: Time) -> Option<Vec<u8>> {
    wake(stack, now);
    if let Some(frame) = stack.take_frame() {
        return Some(frame);
    }
    run_due(stack, now, S::pump_conn);
    stack.take_frame()
}

/// `Stack::poll_deadline`: the index's earliest entry once awake, which
/// debug builds check against the scan; the scan before.
pub fn poll_deadline<S: Scheduled>(stack: &S, now: Time) -> Option<Time> {
    let agenda = stack.agenda();
    if !agenda.is_awake() {
        return scan_deadline(stack, now);
    }
    debug_assert_eq!(agenda.next_deadline(), scan_deadline(stack, now));
    agenda.next_deadline()
}

/// `Stack::on_tick`: every due connection's timers — the ready ones too,
/// since a tick ends in a pump.
pub fn on_tick<S: Scheduled>(stack: &mut S, now: Time) {
    wake(stack, now);
    run_due(stack, now, S::tick_conn);
}

/// The minimum of every connection's deadline: what the per-connection
/// drive a host runs reads as the stack's next deadline.
pub(crate) fn scan_deadline<S: Scheduled>(stack: &S, now: Time) -> Option<Time> {
    stack.conn_ids().filter_map(|id| stack.conn_deadline(now, id)).min()
}

fn run_due<S: Scheduled>(stack: &mut S, now: Time, run: impl Fn(&mut S, Time, S::ConnId)) {
    let ids = stack.agenda_mut().due(now);
    for &id in &ids {
        run(stack, now, id);
    }
    stack.agenda_mut().recycle(ids);
}

/// The stack starts scheduling itself (see [`Agenda::wake`]): one branch
/// on every poll, and no allocation but the index's own on the first.
#[inline]
fn wake<S: Scheduled>(stack: &mut S, now: Time) {
    if !stack.agenda().is_awake() {
        index_table(stack, now);
    }
}

#[cold]
fn index_table<S: Scheduled>(stack: &mut S, now: Time) {
    // Out of the stack for the pass, so the table can be read meanwhile.
    let mut agenda = std::mem::take(stack.agenda_mut());
    agenda.wake(stack.conn_ids().map(|id| (id, stack.conn_deadline(now, id))));
    *stack.agenda_mut() = agenda;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn awake() -> Agenda<u32> {
        let mut a = Agenda::new();
        a.wake([]);
        a
    }

    #[test]
    fn due_is_ready_or_expired_in_key_order() {
        let mut a = awake();
        a.mark_ready(7);
        a.mark_ready(2);
        a.move_deadline(5, None, Some(Time(10)));
        a.move_deadline(2, None, Some(Time(10)));
        a.move_deadline(1, None, Some(Time(11)));
        assert_eq!(a.next_deadline(), Some(Time(10)));
        let ids = a.due(Time(9));
        assert_eq!(ids, [2, 7]);
        a.recycle(ids);
        let ids = a.due(Time(10));
        assert_eq!(ids, [2, 5, 7]);
        a.recycle(ids);
        assert_eq!(a.sizes(), (2, 3));
    }

    #[test]
    fn an_entry_follows_its_deadline() {
        let mut a = awake();
        a.move_deadline(1, None, Some(Time(30)));
        a.move_deadline(1, Some(Time(30)), Some(Time(20)));
        assert_eq!(a.next_deadline(), Some(Time(20)));
        a.move_deadline(1, Some(Time(20)), Some(Time(20)));
        a.move_deadline(1, Some(Time(20)), None);
        assert_eq!(a.next_deadline(), None);
        a.mark_ready(1);
        a.clear_ready(&1);
        assert_eq!(a.sizes(), (0, 0));
        let syn_rcvd = a.mark(true, || Some(Time(5)));
        let established = a.mark(false, || None);
        a.reindex(1, None, Some(syn_rcvd));
        a.mark_ready(1);
        assert_eq!((a.half_open(), a.next_deadline()), (1, Some(Time(5))));
        a.reindex(1, Some(syn_rcvd), Some(established));
        assert_eq!((a.half_open(), a.sizes()), (0, (1, 0)));
        a.reindex(1, Some(established), None);
        assert_eq!(a.sizes(), (0, 0));
        assert!(a.due(Time(100)).is_empty());
    }

    #[test]
    fn a_dormant_agenda_counts_half_opens_and_indexes_nothing_until_woken() {
        let mut a: Agenda<u32> = Agenda::new();
        let syn_rcvd = a.mark(true, || unreachable!("a dormant agenda reads no deadline"));
        assert_eq!(syn_rcvd, Mark { deadline: None, half_open: true });
        a.reindex(1, None, Some(syn_rcvd));
        a.reindex(2, None, Some(a.mark(false, || unreachable!())));
        a.mark_ready(2);
        assert_eq!((a.half_open(), a.sizes(), a.next_deadline()), (1, (0, 0), None));
        // The wake makes every connection ready and indexes what the scan
        // reports; after it, marks carry deadlines again.
        a.wake([(1, Some(Time(8))), (2, None), (3, Some(Time(4)))]);
        assert!(a.is_awake());
        assert_eq!((a.sizes(), a.next_deadline()), ((3, 2), Some(Time(4))));
        assert_eq!(a.mark(false, || Some(Time(9))).deadline, Some(Time(9)));
        let ids = a.due(Time(0));
        assert_eq!(ids, [1, 2, 3]);
    }
}
