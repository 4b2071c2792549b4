//! What a multi-connection [`Stack`](crate::Stack) keeps so that
//! `poll_transmit`, `poll_deadline` and `on_tick` cost what there is to do,
//! not what the connection table holds.
//!
//! Two small ordered sets and a counter, no per-connection field:
//!
//! * the **ready set** — connections the application touched since they
//!   last ran, which therefore may have something to send;
//! * the **deadline index** — one `(deadline, connection)` entry per
//!   connection that has a timer pending;
//! * the **half-open count**, which every inbound SYN asks for.
//!
//! An agenda is built on demand. Until its first [`Agenda::wake`] it is
//! *dormant*: a stack that a host drives connection by connection (through
//! `HostStack::pump_conn`, `tick_conn` and `conn_deadline`, with the host's
//! own timers) never asks it to schedule anything, so it keeps only the
//! half-open count, and a [`Mark`] it builds carries no deadline — a pump
//! then reads no deadline and touches no tree. The stack wakes it on its
//! first `poll_transmit` or `on_tick`: every connection becomes ready and
//! every deadline is indexed from one scan of the table.
//!
//! The deadline index is exact once woken; the half-open count always:
//! every call of the stack that can change a connection takes the
//! connection's [`Agenda::mark`] before and after and hands both to
//! [`Agenda::reindex`].
//!
//! A connection that is not ready, and whose deadline has not passed, has
//! nothing to do: running it would emit no frame and change no state. Both
//! stacks (`sublayer-core` and `tcp-mono`) rest on that — the wake does too,
//! making ready every connection whose touches a dormant agenda did not
//! note — and one suite, `agenda_suite`, proves it for both
//! against the per-connection drive a host runs.

use crate::time::Time;
use std::collections::BTreeSet;

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
    /// Each becomes ready and each deadline is indexed. Does nothing (and
    /// does not call `table`) once awake — one branch on every poll.
    #[inline]
    pub fn wake<I>(&mut self, table: impl FnOnce() -> I)
    where
        I: IntoIterator<Item = (K, Option<Time>)>,
    {
        if !self.awake {
            self.index(table());
        }
    }

    #[cold]
    fn index(&mut self, table: impl IntoIterator<Item = (K, Option<Time>)>) {
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
    pub fn next_deadline(&self) -> Option<Time> {
        self.earliest
    }

    /// Every connection that is ready or whose deadline is at or before
    /// `now`, ascending and without repeats — the order a sorted scan of
    /// the table would visit them in. Give the `Vec` back with
    /// [`Agenda::recycle`].
    pub fn due(&mut self, now: Time) -> Vec<K> {
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

    pub fn recycle(&mut self, ids: Vec<K>) {
        self.scratch = ids;
    }

    /// Entries in the ready set and in the deadline index (each at most
    /// the stack's connection count; both 0 while dormant).
    pub fn sizes(&self) -> (usize, usize) {
        (self.ready.len(), self.deadlines.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn awake() -> Agenda<u32> {
        let mut a = Agenda::new();
        a.wake(std::iter::empty::<(u32, Option<Time>)>);
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
        a.wake(|| [(1, Some(Time(8))), (2, None), (3, Some(Time(4)))]);
        assert!(a.is_awake());
        assert_eq!((a.sizes(), a.next_deadline()), ((3, 2), Some(Time(4))));
        a.wake(|| -> [(u32, Option<Time>); 0] { unreachable!("woken once") });
        assert_eq!(a.mark(false, || Some(Time(9))).deadline, Some(Time(9)));
        let ids = a.due(Time(0));
        assert_eq!(ids, [1, 2, 3]);
    }
}
