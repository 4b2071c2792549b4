//! # sublayer-core — the sublayered TCP (paper §3, Figures 5 & 6)
//!
//! The paper's primary contribution, implemented in full:
//!
//! | sublayer | module | service (test T1) | owned header bits (test T3) |
//! |---|---|---|---|
//! | OSR | [`osr`] | byte stream ↔ segments, ordering, rate & flow control | ECN echo, receiver window |
//! | RD | [`rd`] | exactly-once segment delivery | seq, ack, SACK |
//! | CM | [`cm`] | ISN establishment, open/close lifecycle | SYN/FIN/RST flags, ISNs |
//! | DM | [`dm`] | port demultiplexing ("essentially UDP") | ports |
//!
//! Interfaces between adjacent sublayers are narrow (test T2): OSR hands RD
//! segments and receives, by offset, each novel part of a received payload
//! plus *summarized* congestion signals; RD obtains its ISN pair from CM's `Established` event; CM gives
//! DM a 4-tuple. Each sublayer's state lives in a private struct — Rust's
//! module system enforces the separation the paper wants, and the
//! `slmetrics` instrumentation proves it (experiment E6).
//!
//! Replaceable mechanisms (experiment E8): rate controllers ([`slcc`]:
//! Reno / CUBIC / rate-based / fixed), ISN generators ([`isn`]: RFC 793
//! clock / RFC 1948 keyed hash), and whole CM schemes ([`cm::CmScheme`]:
//! three-way handshake / Watson timer-based).
//!
//! Both wire formats live in the dependency-free leaf crate `slwire`
//! ([`wire`] is `slwire::native`), so this crate and the monolithic
//! `tcp-mono` are siblings; [`shim`] wraps the stack in `slwire`'s stateless
//! native ↔ RFC 793 translation so the two interoperate (experiment E7);
//! [`offload`] models NIC/host partitions of the sublayer stack (E10);
//! [`record`] *inserts* a new security sublayer under DM without touching
//! the other four (the QUIC-style record/transport split of §5).

pub mod cm;
pub mod dm;
pub mod fingerprint;
pub mod isn;
mod mailbox;
pub mod offload;
pub mod osr;
pub mod rd;
pub mod record;
pub mod shim;
pub mod signals;
mod slots;
pub mod stack;
/// The Figure-6 native wire format this stack speaks (it lives in `slwire`).
pub use slwire::native as wire;

pub use cm::{BuggyCm, CmDriver, CmEvent, CmPass, CmScheme, CmState, ConnMgmt};
pub use dm::{Admitted, BuggyDm, ConnId, Demux, DmDriver, DmError, DmVerdict};
pub use isn::IsnGenerator;
pub use osr::{BuggyOsr, Osr, OsrDriver};
pub use rd::{BuggyRd, RdDriver, RdEvent, ReliableDelivery};
pub use record::RecordStack;
pub use signals::CongSignal;
pub use stack::{CrossingStats, SlConfig, SlStats, SlTcpStack};
pub use wire::{Packet, WireError};

#[cfg(test)]
mod agenda_tests;
#[cfg(test)]
mod tests;
