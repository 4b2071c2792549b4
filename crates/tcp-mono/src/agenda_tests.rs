//! The agenda suite (`netsim::agenda_suite`) over the monolithic stack,
//! with keepalive and without it.

use crate::stack::TcpStack;
use netsim::agenda_suite::{agrees_with_the_host_drive, Drive, KEEPALIVE};
use proptest::{collection, proptest};

fn stack(addr: u32) -> TcpStack {
    TcpStack::new(addr, slmetrics::shared())
}

fn with_keepalive(addr: u32) -> TcpStack {
    TcpStack::with_keepalive(addr, Some(KEEPALIVE), slmetrics::shared())
}

proptest! {
    #[test]
    fn agenda_and_host_drive_are_indistinguishable(
        keepalive: bool,
        ops in collection::vec((proptest::num::u8::ANY, proptest::num::u8::ANY), 40..400),
    ) {
        let new = if keepalive { with_keepalive } else { stack };
        agrees_with_the_host_drive(Drive::Agenda, 0, new, &ops)?;
    }

    #[test]
    fn a_host_driven_prefix_then_polls_is_indistinguishable_from_the_host_drive(
        keepalive: bool,
        switch in 0usize..400,
        ops in collection::vec((proptest::num::u8::ANY, proptest::num::u8::ANY), 40..400),
    ) {
        let new = if keepalive { with_keepalive } else { stack };
        agrees_with_the_host_drive(Drive::PerConn, switch, new, &ops)?;
    }
}

netsim::agenda_hazards!(
    stack,
    fin = fin_follows_pending_data_without_an_inbound_segment
);
