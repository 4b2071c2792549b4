//! Regression anchors for the paper's quantitative claims, as reproduced
//! by this workspace (see EXPERIMENTS.md for the full narrative). The
//! rule-library size and the verification-effort gap are checked by the
//! `stuffing` and `verify` campaigns, which `tests/smoke_all.rs` runs.

use bitstuff::{analyze, Ratio, StuffRule};
use slverify::{check, Handshake, SlidingWindow};

#[test]
fn paper_overhead_figures() {
    // §4.1 lesson 2: "overhead ... of 1 in 128 compared to 1 in 32 for the
    // HDLC rule". The naive model reproduces the paper's numbers exactly;
    // the exact renewal analysis sharpens HDLC's to 1/62.
    let hdlc = analyze(&StuffRule::hdlc()).unwrap();
    assert_eq!(hdlc.naive_rate, Ratio::new(1, 32)); // the paper's figure
    assert_eq!(hdlc.exact_rate, Ratio::new(1, 62)); // exact
    let low = analyze(&StuffRule::low_overhead()).unwrap();
    assert_eq!(low.naive_rate, Ratio::new(1, 128));
    assert_eq!(low.exact_rate, Ratio::new(1, 128)); // exact == naive here
}

#[test]
fn checker_rediscovers_classic_theorems() {
    // Selective repeat requires sequence space >= 2 x window.
    assert!(check(&SlidingWindow { w: 2, s_mod: 4, n_msgs: 6 }, 2_000_000).ok());
    assert!(check(&SlidingWindow { w: 2, s_mod: 3, n_msgs: 5 }, 2_000_000)
        .violation
        .is_some());
    // The three-way handshake is what rejects stale incarnations.
    assert!(check(&Handshake { three_way: true }, 2_000_000).violation.is_none());
    assert!(check(&Handshake { three_way: false }, 2_000_000).violation.is_some());
}

#[test]
fn header_isomorphism_cost() {
    // §3.1: the native header is isomorphic to RFC 793, ISN redundancy
    // acknowledged. Fixed cost: 8 bytes over the 28-byte RFC 793 carriage.
    assert_eq!(sublayer_core::Packet::header_len(0), 36);
}
