//! # tcp-mono — the monolithic TCP baseline (paper §2.3 / §4.2)
//!
//! An lwIP/BSD-style TCP: one [`pcb::Pcb`] holding *all* connection state,
//! and one interleaved input path ([`stack::TcpStack`]) in which
//! demultiplexing, connection management, reliable delivery, congestion
//! control (NewReno), and flow control all read and write that shared
//! state — the design whose verification §4.2 found so painful. It is
//! wire-compatible RFC 793 (as carried over the simulator's 8-byte
//! network header) and is the interop peer and performance baseline for
//! the sublayered stack in `sublayer-core`.
//!
//! Features: 3-way handshake, clock-based ISNs, sliding window, cumulative
//! ACKs, RTO with Karn/Jacobson estimation and exponential backoff, fast
//! retransmit + NewReno fast recovery, out-of-order reassembly, zero-window
//! persist probes, graceful close through FIN/TIME_WAIT, RST handling,
//! simultaneous open, and checksummed segments.

pub mod pcb;
pub mod stack;
/// The RFC 793 wire format this stack speaks (it lives in `slwire`).
pub use slwire::rfc793 as wire;

pub use pcb::{Pcb, TcpState, DEFAULT_MSS};
pub use stack::{TcpStack, TcpStats};

#[cfg(test)]
mod agenda_tests;
#[cfg(test)]
mod reassembly_tests;
#[cfg(test)]
mod tests;
