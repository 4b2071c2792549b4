//! Umbrella crate for the sublayering reproduction workspace.
//!
//! Re-exports the member crates so the examples and integration tests can use
//! a single dependency. See `DESIGN.md` for the system inventory.
pub use bitstuff;
pub use datalink;
pub use netlayer;
pub use netsim;
pub use slmetrics;
pub use slverify;
pub use slwire;
pub use sublayer_core;
pub use tcp_mono;
