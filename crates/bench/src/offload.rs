//! E10 — hardware-offload partitions (paper Figure 5): the NIC/host
//! boundary load of each cut point of the sublayer stack, from the
//! crossing counts of a real 200 KB transfer's sending host.

use netsim::{Dur, StackNode};
use sublayer_core::offload::{analyze, BoundaryLoad, Partition};
use sublayer_core::{CrossingStats, SlConfig, SlTcpStack};

use crate::transfer::{self, Pace};
use crate::{json, Report, Table, A, B};

/// E10's pace: a 2 s handshake allowance and one read a second.
const PACE: Pace = Pace { warmup: Dur(2_000_000_000), read_every: Dur(1_000_000_000), patience: Dur(180_000_000_000) };

const BYTES: usize = 200_000;

/// The sending host's crossings after a `bytes` transfer at `loss_pct` %
/// loss between two default-configured sublayered stacks, and the bytes
/// delivered. The sender's NIC/host boundary carries OSR->RD segments
/// down and signals up; the receiving host is symmetric.
pub fn crossings(bytes: usize, loss_pct: u32, seed: u64) -> (CrossingStats, usize) {
    let (c, s) = (transfer::sub(A, SlConfig::default()), transfer::sub(B, SlConfig::default()));
    let t = transfer::transfer(c, s, bytes, transfer::standard_link(loss_pct), seed, PACE);
    let cx = t.net.node::<StackNode<SlTcpStack>>(t.client).stack.crossings.clone();
    (cx, t.report.delivered)
}

/// The claims each workload must bear out: the transfer delivers, the
/// paper's DM+CM+RD cut has the fewest crossings and carries exactly the
/// payload, and only that cut keeps loss recovery on the NIC.
fn check(name: &str, loads: &[BoundaryLoad], delivered: usize, v: &mut Vec<String>) {
    if delivered != BYTES {
        v.push(format!("[{name}] delivered {delivered}/{BYTES}"));
    }
    let (cut, others) = loads.split_last().expect("four partitions");
    if let Some(o) = others.iter().find(|o| o.crossings <= cut.crossings) {
        let (p, n) = (o.partition.name(), o.crossings);
        v.push(format!("[{name}] {p} crosses {n} times, not more than the paper's cut ({})", cut.crossings));
    }
    if cut.bytes != BYTES as u64 {
        v.push(format!("[{name}] the paper's cut carries {} bytes, not the {BYTES}-byte payload", cut.bytes));
    }
    if !cut.retransmissions_on_nic || others.iter().any(|o| o.retransmissions_on_nic) {
        v.push(format!("[{name}] loss recovery is not on the NIC for exactly the paper's cut"));
    }
}

pub fn report(_smoke: bool) -> Report {
    let mut tables = Vec::new();
    let mut docs = Vec::new();
    let mut violations = Vec::new();
    let mut gaps = Vec::new();
    for (name, loss_pct) in [("clean link", 0), ("5% loss", 5)] {
        let (cx, delivered) = crossings(BYTES, loss_pct, 31);
        let loads: Vec<BoundaryLoad> = Partition::all().iter().map(|&p| analyze(&cx, p)).collect();
        check(name, &loads, delivered, &mut violations);
        gaps.push(loads[0].crossings.saturating_sub(loads[3].crossings));
        tables.push(Table::new(
            format!("Workload: 200 KB transfer, {name}"),
            vec!["partition", "boundary crossings", "boundary bytes", "loss recovery on NIC"],
            loads
                .iter()
                .map(|l| {
                    let on_nic = l.retransmissions_on_nic.to_string();
                    vec![l.partition.name().into(), l.crossings.to_string(), l.bytes.to_string(), on_nic]
                })
                .collect(),
        ));
        docs.extend(loads.iter().map(|l| json::obj(&[
            ("loss_pct", loss_pct.to_string()), ("partition", json::str(l.partition.name())),
            ("crossings", l.crossings.to_string()), ("bytes", l.bytes.to_string()),
            ("loss_recovery_on_nic", l.retransmissions_on_nic.to_string()),
        ])));
    }
    // Under loss, acks and retransmissions stay on the NIC: the gap to
    // the host-only boundary widens.
    if gaps[1] <= gaps[0] {
        violations.push(format!("the paper's cut's lead does not widen under loss ({} -> {})", gaps[0], gaps[1]));
    }
    Report::checked(&[("partitions", docs)], tables, violations)
}
