//! The per-connection table: one entry per slot DM hands out.
//!
//! A [`ConnId`] carries the slot its connection's state sits in, so a
//! lookup is an index and one comparison, never a hash. DM decides the
//! slot once, when it mints the handle, and every table keyed by the
//! handle ([`crate::dm::Demux`]'s tuples, [`crate::SlTcpStack`]'s
//! connections) puts the entry there. An entry answers only to the handle
//! whose serial it holds: once a slot is reused, the old handle reads
//! "gone", never the new tenant.

use crate::dm::ConnId;

/// What a slot holds. `ConnId` is a `NonZeroU64`, so `None` costs nothing:
/// an entry is as wide as the `(ConnId, V)` hash bucket it replaced.
pub(crate) type Entry<V> = Option<(ConnId, V)>;

#[derive(Clone)]
pub(crate) struct SlotTable<V> {
    entries: Vec<Entry<V>>,
    len: usize,
}

impl<V> SlotTable<V> {
    pub(crate) fn new() -> SlotTable<V> {
        SlotTable { entries: Vec::new(), len: 0 }
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, id: ConnId) -> Option<&V> {
        match self.entries.get(id.slot()) {
            Some(Some((k, v))) if *k == id => Some(v),
            _ => None,
        }
    }

    pub(crate) fn get_mut(&mut self, id: ConnId) -> Option<&mut V> {
        match self.entries.get_mut(id.slot()) {
            Some(Some((k, v))) if *k == id => Some(v),
            _ => None,
        }
    }

    /// Put `v` in `id`'s slot, which DM handed out free.
    pub(crate) fn insert(&mut self, id: ConnId, v: V) {
        let slot = id.slot();
        if slot >= self.entries.len() {
            self.entries.resize_with(slot + 1, || None);
        }
        let entry = &mut self.entries[slot];
        debug_assert!(entry.is_none(), "slot {slot} handed out twice");
        *entry = Some((id, v));
        self.len += 1;
    }

    /// Drop `id`'s entry where it sits (a `Connection` is not moved out
    /// to die); whether there was one.
    pub(crate) fn remove(&mut self, id: ConnId) -> bool {
        if self.get(id).is_none() {
            return false;
        }
        self.entries[id.slot()] = None;
        self.len -= 1;
        true
    }

    /// Live entries, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ConnId, &V)> {
        self.entries.iter().flatten().map(|(k, v)| (*k, v))
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (ConnId, &mut V)> {
        self.entries.iter_mut().flatten().map(|(k, v)| (*k, v))
    }

    pub(crate) fn ids(&self) -> impl Iterator<Item = ConnId> + '_ {
        self.iter().map(|(k, _)| k)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slwire::FourTuple;
    use std::mem::size_of;

    #[test]
    fn a_handle_is_one_word_and_an_empty_slot_costs_nothing() {
        // `sub.conn_heap_bytes` counts these entries: the niche in
        // `ConnId` keeps a slot as wide as the hash bucket it replaced.
        assert_eq!(size_of::<ConnId>(), 8);
        assert_eq!(size_of::<Option<ConnId>>(), 8);
        assert_eq!(size_of::<Entry<FourTuple>>(), size_of::<(ConnId, FourTuple)>());
    }
}
