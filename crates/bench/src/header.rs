//! E11 — header isomorphism and size (§3.1, Figure 6): the native
//! sublayered header against RFC 793, and what the shim puts on the wire.

use slwire::native::{Packet, RdHeader};
use slwire::rfc793::{Segment, ACK, SYN};
use slwire::{shim, Endpoint};

use crate::{json, Report, Table};

/// An RFC 793 header as the simulated network carries it (8 address
/// bytes + the TCP header), optionally a SYN with the MSS option.
fn rfc793_len(syn: bool) -> usize {
    let (src, dst) = (Endpoint::new(1, 1), Endpoint::new(2, 2));
    let flags = if syn { SYN } else { ACK };
    Segment { src, dst, seq: 0, ack: 0, flags, wnd: 0, mss: syn.then_some(1400), payload: Vec::new() }.encode().len()
}

/// A native data/ack packet's header, through the shim onto the wire.
fn shim_len() -> usize {
    let pkt = Packet { rd: RdHeader { has_ack: true, ..RdHeader::default() }, ..Packet::default() };
    shim::to_rfc793(&pkt).encode().len()
}

pub fn report(_smoke: bool) -> Report {
    let rfc793 = rfc793_len(false);
    // (header, bytes on wire, compared with RFC 793's data/ack header)
    let rows: Vec<(&str, usize, bool)> = vec![
        ("RFC 793 (data/ack)", rfc793, false),
        ("RFC 793 (SYN, MSS option)", rfc793_len(true), false),
        ("native sublayered, no SACK", Packet::header_len(0), true),
        ("native sublayered, 1 SACK range", Packet::header_len(1), true),
        ("native sublayered, 2 SACK ranges", Packet::header_len(2), true),
        ("native through the shim (RFC 793 wire)", shim_len(), true),
    ];
    let delta = |len: usize| len as i64 - rfc793 as i64;

    // The claims: the native header is RFC 793 + 8 bytes (the redundant
    // ISN pair plus a magic byte), each SACK range costs 8 more, and
    // the shim's output is bare RFC 793.
    let mut violations = Vec::new();
    let want = [(2, 8), (3, 16), (4, 24), (5, 0)];
    for (i, d) in want {
        let (name, len, _) = rows[i];
        if delta(len) != d {
            violations.push(format!("{name}: {len} bytes is RFC 793 {:+}, not {d:+}", delta(len)));
        }
    }

    let docs = rows.iter().map(|&(name, len, _)| json::obj(&[("header", json::str(name)), ("bytes", len.to_string())]));
    let vs = |len, compared| if compared { format!("{:+}", delta(len)) } else { "-".into() };
    let table = rows.iter().map(|&(name, len, compared)| vec![name.into(), len.to_string(), vs(len, compared)]).collect();
    let tables = vec![Table::new("Header bytes on the wire", vec!["header", "bytes on wire", "vs RFC 793"], table)];
    Report::checked(&[("headers", docs.collect())], tables, violations)
}
