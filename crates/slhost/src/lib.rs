//! # slhost — an event-driven multi-connection server host
//!
//! The paper's stacks (`sublayer_core::SlTcpStack`, `tcp_mono::TcpStack`)
//! are single-host transport endpoints; every experiment so far drove one
//! connection at a time. This crate adds the layer above: a [`Host`] that
//! serves *many* connections over either stack with costs that stay flat
//! as the connection count grows —
//!
//! - O(1) hashed 4-tuple demux per inbound frame,
//! - a hierarchical [`TimerWheel`] so a tick costs O(fired timers), not
//!   O(connections) (with [`TimerMode::NaiveScan`] as the measured
//!   baseline),
//! - batched ingest with round-robin fairness,
//! - a bounded accept backlog,
//! - an edge-triggered readiness API ([`HostEvent`]).
//!
//! [`HostStack`] (`netsim`'s, re-exported here) is the host-facing contract
//! both stacks implement on their own types, so this crate links neither:
//! they are dev-dependencies, for the tests. The API-parity test runs the
//! same scripted scenario against both. The
//! scale experiment (E15, `bench::scale` / `exp scale`) sweeps 100 → 5000
//! concurrent clients over both stacks and both timer modes.

pub mod apps;
pub mod budget;
pub mod differ;
pub mod host;
pub mod wheel;

pub use apps::EchoApp;
pub use budget::ResourceBudget;
pub use differ::{observe, ConnObs};
pub use host::{Host, HostApp, HostConfig, HostEvent, ServedHost, TimerMode};
/// [`Host`]'s bound and what its demux reads off a frame; both are `netsim`'s.
pub use netsim::{FrameMeta, HostStack};
pub use wheel::{TimerKey, TimerWheel};

#[cfg(test)]
mod ingress_tests;
