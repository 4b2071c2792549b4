//! # slverify — explicit-state verification of protocol models (paper §4)
//!
//! The paper's verification vision recast in Rust: a small explicit-state
//! model checker ([`checker`]) plus models of the protocol pieces this
//! workspace implements ([`models`]). Where the paper used Coq (bit
//! stuffing) and Dafny (lwIP TCP), we use exhaustive finite-state
//! exploration — sound and complete for the bounded models — and measure
//! the *cost* of verification the paper argues sublayering reduces:
//!
//! * per-sublayer models (handshake alone, sliding window alone) verify in
//!   small state spaces;
//! * the combined, monolithic product model explodes multiplicatively
//!   (experiment E6);
//! * the checker also *finds real protocol bugs*: the sliding-window
//!   sequence-aliasing counterexample when `S < 2W`, the stale-
//!   incarnation bug of a two-message handshake (why TCP needs three),
//!   and the pre-RFC-5961 blind in-window RST attack — with the
//!   challenge-ACK discipline proved safe against every below-threshold
//!   sequence guess ([`models::RstAttack`], experiment E14);
//! * the E16 overload policy ([`models::Overload`]) proves the host's
//!   memory budget holds under every admission/shed/evict interleaving in
//!   both shapes — and exhibits the overrun trace when the staged
//!   pressure signal is allowed to go one admission too stale;
//! * the `slshard` two-level ladder ([`models::ShardedOverload`]) extends
//!   that to a sharded host: per-shard budgets plus a coordinator-pushed
//!   global pressure floor, with budget-never-exceeded proved per shard
//!   *and* globally — and the global overrun exhibited when the staged
//!   floor goes one fleet-wide admission too stale;
//! * the E21 fault-domain contract ([`models::ShardFail`]) proves a shard
//!   crash under the same ladder is *contained*: only the dead shard's
//!   connections abort, budgets hold mid-failover with the dead shard's
//!   occupancy zeroed, downtime is bounded by the restart backoff, and no
//!   schedule strands the fleet — while the seed's uncontained panic
//!   (`isolate: false`) yields the foreign-shard-abort counterexample;
//! * the congestion-control contract ([`models::CongCtrl`]) is an
//!   assume/guarantee check run against the **real** shipped
//!   `slcc::RateController` implementations — allowance never below one
//!   MSS, ssthresh non-increasing within a loss episode, slow-start exit
//!   permanent until the next loss, recovery always terminated by its
//!   closing signals — and starves the deliberately broken
//!   `slcc::BuggyDeflate` to a zero window as the counterexample (E19);
//! * the compositional sublayer chain ([`contracts`]) gives each core
//!   sublayer — DM, CM, RD, OSR — an explicit assume/guarantee contract
//!   checked against the **real** `sublayer-core` implementation, then
//!   derives end-to-end reliable delivery by [`contracts::compose`] from
//!   the four results alone, never exploring the fused product (E22). Each
//!   contract is generic over the machine it drives and built from that
//!   machine's constructor, and every real object a model drives — the
//!   four sublayers here, the rate controller of `CongCtrl` — sits in a
//!   [`checker::Keyed`], whose fingerprint is the state's identity. The
//!   [`checker::Product`] combinator measures what that avoided product
//!   would cost, and four seeded mutation canaries (`BuggyDm`, `BuggyCm`,
//!   `BuggyRd`, `BuggyOsr`), chosen by type, are each caught by exactly the
//!   contract that owns the broken obligation, with pinned shortest
//!   counterexamples.
//!
//! The static forwarding-table check (StacKAT-style reachability and
//! loop-freedom) is not here: it lives with the network layer it checks,
//! as `netlayer::forwarding`, so that layer links no transport crate.

pub mod checker;
pub mod contracts;
pub mod models;
pub mod relation;

pub use checker::{check, CheckResult, Keyed, Model, Product, Trace};
pub use contracts::{
    chain, check_canaries, check_chain, cm_rst_response, compose, prove_end_to_end,
    validity_of, verdict_of, ChainProof, CmContract, Contract, ContractRun, ContractSpec,
    DmContract, OsrContract, RdContract, A_ENV, CM_CONTRACT, DM_CONTRACT, E2E, G_CM, G_DM,
    G_OSR, G_RD, OSR_CONTRACT, RD_CONTRACT,
};
pub use models::{
    AltBit, Combined, CongCtrl, Handshake, Overload, RstAttack, ShardFail,
    ShardedOverload, SlidingWindow,
};
pub use relation::{
    classify_seq, pressure_tier, rfc5961_response, transition_label, RespClass, SegClass,
    SeqVerdict,
};
