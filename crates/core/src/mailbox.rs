//! The hand-off queue between two sublayers (DESIGN.md §6).
//!
//! A *mailbox* is filled and drained inside one [`crate::stack::SlTcpStack`]
//! pump and is nearly always one item deep, so it holds that item inline
//! and owns no heap at rest. The second item spills it to a `VecDeque`, and
//! a spilled mailbox stays spilled: a connection that bursts once (RD's
//! outbox takes a whole window of segments per pump on a bulk transfer)
//! pays for the buffer once, not once per burst.

use std::collections::VecDeque;
use std::fmt;

#[derive(Clone)]
pub(crate) enum Mailbox<T> {
    Inline(Option<T>),
    Spilled(VecDeque<T>),
}

impl<T> Mailbox<T> {
    pub(crate) fn new() -> Mailbox<T> {
        Mailbox::Inline(None)
    }

    pub(crate) fn push_back(&mut self, item: T) {
        match self {
            Mailbox::Inline(slot @ None) => *slot = Some(item),
            Mailbox::Inline(first) => {
                // What `VecDeque` itself would allocate on its first push.
                let mut q = VecDeque::with_capacity(4);
                q.extend(first.take());
                q.push_back(item);
                *self = Mailbox::Spilled(q);
            }
            Mailbox::Spilled(q) => q.push_back(item),
        }
    }

    pub(crate) fn pop_front(&mut self) -> Option<T> {
        match self {
            Mailbox::Inline(slot) => slot.take(),
            Mailbox::Spilled(q) => q.pop_front(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Mailbox::Inline(slot) => slot.is_some() as usize,
            Mailbox::Spilled(q) => q.len(),
        }
    }

    /// Oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        let (one, many) = match self {
            Mailbox::Inline(slot) => (slot.as_ref(), None),
            Mailbox::Spilled(q) => (None, Some(q)),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    /// Keep the oldest `len` items.
    pub(crate) fn truncate(&mut self, len: usize) {
        match self {
            Mailbox::Inline(slot) if len == 0 => *slot = None,
            Mailbox::Inline(_) => {}
            Mailbox::Spilled(q) => q.truncate(len),
        }
    }
}

/// The list a `VecDeque` of the same items prints: the contract keys fold
/// this text, and equal contents must give equal keys whichever
/// representation holds them.
impl<T: fmt::Debug> fmt::Debug for Mailbox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{collection, prop_assert, prop_assert_eq, proptest};

    proptest! {
        /// Any interleaving of pushes, pops and truncations reads the same
        /// as on the `VecDeque` the mailbox replaced — pops, `len`, `iter`
        /// and the `Debug` text the contract keys fold.
        #[test]
        fn prop_a_mailbox_is_a_vecdeque_to_its_callers(
            ops in collection::vec((0u8..8, 0u8..4), 0..64),
        ) {
            let mut mailbox = Mailbox::new();
            let mut model = VecDeque::new();
            let mut spilled = false;
            for (i, &(op, arg)) in ops.iter().enumerate() {
                match op {
                    0..=3 => {
                        mailbox.push_back(i);
                        model.push_back(i);
                    }
                    4..=6 => prop_assert_eq!(mailbox.pop_front(), model.pop_front()),
                    _ => {
                        mailbox.truncate(arg as usize);
                        model.truncate(arg as usize);
                    }
                }
                prop_assert_eq!(mailbox.len(), model.len());
                prop_assert!(mailbox.iter().eq(model.iter()));
                prop_assert_eq!(format!("{mailbox:?}"), format!("{model:?}"));
                // One item never spills; the second does, for good.
                spilled |= model.len() > 1;
                prop_assert_eq!(matches!(mailbox, Mailbox::Spilled(_)), spilled);
            }
        }
    }

    #[test]
    fn a_spilled_mailbox_keeps_its_buffer_across_bursts() {
        let mut mailbox = Mailbox::new();
        mailbox.push_back(0u64);
        assert!(matches!(mailbox, Mailbox::Inline(Some(0))), "one item needs no heap");
        for i in 1..8 {
            mailbox.push_back(i);
        }
        let Mailbox::Spilled(q) = &mailbox else { panic!("eight items are not inline") };
        let capacity = q.capacity();
        for burst in 0..3 {
            assert!((0..8).eq(std::iter::from_fn(|| mailbox.pop_front())), "burst {burst}");
            // Drained, and still the same buffer: the next burst does not
            // pay for it again.
            let Mailbox::Spilled(q) = &mailbox else { panic!("a drained mailbox went inline") };
            assert_eq!((q.len(), q.capacity()), (0, capacity));
            (0..8).for_each(|i| mailbox.push_back(i));
        }
    }
}
