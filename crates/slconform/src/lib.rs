//! # slconform — differential conformance harness (tentpole of PR 5)
//!
//! Drives **both** stacks — the sublayered `sublayer-core` and the
//! monolithic `tcp-mono` — in lockstep through the same deterministic
//! `netsim` scenarios and checks every run three ways:
//!
//! 1. **against an RFC-793/5961 oracle**: each endpoint's captured wire
//!    trace must obey sequence/ack-window arithmetic, handshake ordering,
//!    window discipline and the RFC 5961 response classes — the response
//!    relation is imported from `slverify::relation`, the *same*
//!    definition the model checker explores;
//! 2. **against the other stack**: outcomes (establishment, delivered
//!    bytes, terminal errors, close/peer-close state) must match across
//!    kinds, with benign divergences going through a documented
//!    allowlist, never a loosened oracle;
//! 3. **against golden traces** (`golden/`, regenerate with `BLESS=1`).
//!
//! The wire formats themselves carry their own proof: [`codec_equiv`]
//! walks a product automaton over both codecs' abstract segment alphabet
//! and certifies they are field-for-field equivalent (the paper's §3.1
//! isomorphism claim) through the same [`wire`] taps the harness uses on
//! live traffic.
//!
//! On any divergence the harness shrinks the scenario's event script to a
//! minimal reproducer (`shrink`) and emits a byte-replayable artifact
//! (`artifact`) that re-executes the endpoint sans-IO and compares its
//! transmissions byte-for-byte.

pub mod absseg;
pub mod artifact;
pub mod codec_equiv;
pub mod diff;
pub mod driver;
pub mod golden;
pub mod multihop;
pub mod natcodec;
pub mod oracle;
pub mod scenario;
pub mod shrink;
pub mod wire;

pub use absseg::{normalize, AbsSeg};
pub use codec_equiv::{certify, AbsWord, CodecCert, CodecEquiv, ALPHABET};
pub use diff::{allowlist, check_scenario, check_scenario_mutated, Allow, Divergence, Report};
pub use oracle::check_endpoint;
pub use shrink::{shrink, Shrunk};
pub use driver::{
    pattern, run_kind, run_scenario, run_scenario_mutated, AppOp, BugStack, ConformStack,
    EndpointOut, Mutation, RunOut,
};
pub use multihop::{diff_multihop, run_multihop, MhOut, MhScenario};
pub use natcodec::{nat_codec, peek_for, MonoNatCodec, SubNatCodec};
pub use scenario::{corpus, Ev, FaultKind, LinkSpec, RstOff, Scenario, Side};
pub use wire::{Kind, RawSeg};
