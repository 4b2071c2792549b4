//! The agenda suite (`netsim::agenda_suite`) over the sublayered stack,
//! in each of its configurations: default, with keepalive, and with
//! timer-based CM.

use crate::cm::CmScheme;
use crate::stack::{SlConfig, SlTcpStack};
use netsim::agenda_suite::{agrees_with_the_host_drive, Drive, KEEPALIVE};
use netsim::Dur;
use proptest::{collection, proptest};

/// The stacks of configuration `variant`.
fn stacks(variant: u8) -> impl Fn(u32) -> SlTcpStack {
    let timer_based = CmScheme::TimerBased { quiet: Dur::from_secs(3) };
    let config = match variant % 3 {
        0 => SlConfig::default(),
        1 => SlConfig { keepalive: Some(KEEPALIVE), ..SlConfig::default() },
        _ => SlConfig { cm_scheme: timer_based, ..SlConfig::default() },
    };
    move |addr| SlTcpStack::new(addr, config.clone(), slmetrics::shared())
}

proptest! {
    #[test]
    fn agenda_and_host_drive_are_indistinguishable(
        variant in 0u8..3,
        ops in collection::vec((proptest::num::u8::ANY, proptest::num::u8::ANY), 40..400),
    ) {
        agrees_with_the_host_drive(Drive::Agenda, 0, stacks(variant), &ops)?;
    }

    #[test]
    fn a_host_driven_prefix_then_polls_is_indistinguishable_from_the_host_drive(
        variant in 0u8..3,
        switch in 0usize..400,
        ops in collection::vec((proptest::num::u8::ANY, proptest::num::u8::ANY), 40..400),
    ) {
        agrees_with_the_host_drive(Drive::PerConn, switch, stacks(variant), &ops)?;
    }
}

fn stack(addr: u32) -> SlTcpStack {
    stacks(0)(addr)
}

netsim::agenda_hazards!(stack);
