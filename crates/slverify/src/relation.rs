//! The shared protocol transition relations — one definition, several
//! consumers.
//!
//! The RFC 5961 response discipline (what a receiver must do with a
//! segment, given the sequence-validity verdict) and the overload
//! pressure-tier thresholds each used to live in two places: inside the
//! model checker's [`RstAttack`](crate::models::RstAttack) /
//! [`Overload`](crate::models::Overload) models, and re-derived
//! independently by the runtime stacks and benchmarks. This module is the
//! single authoritative copy: the bounded models *and* the `slconform`
//! conformance oracle both call these functions, so a change to the
//! discipline shows up simultaneously as a model-checking result and as a
//! conformance verdict against the real stacks. The cross-check test in
//! `slconform` walks every transition the models emit and asserts the
//! relation (and therefore the oracle) labels it identically.

/// Where a segment's sequence number lands relative to the receiver's
/// expectation — the RFC 5961 trichotomy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SeqVerdict {
    /// Exactly the next expected sequence number.
    Exact,
    /// Within the receive window but not exact.
    InWindow,
    /// Outside the receive window.
    Outside,
}

/// The protocol-relevant class of an arriving segment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SegClass {
    /// In-order-or-not payload from the peer.
    Data,
    /// A reset.
    Rst,
}

/// What a conforming receiver does in response.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RespClass {
    /// Tear the connection down (exact-sequence RST, or any in-window RST
    /// for a pre-5961 receiver).
    Reset,
    /// Emit a challenge ACK and keep the connection (RFC 5961 §3.2).
    ChallengeAck,
    /// Silently discard the segment.
    Drop,
    /// Accept the payload and advance `rcv_nxt`.
    Deliver,
}

/// Classify a 32-bit wire sequence against the receiver's `rcv_nxt` and
/// window — the conformance oracle's consumer of the trichotomy. Distance
/// arithmetic wraps, exactly like the stacks' own comparisons.
pub fn classify_seq(rcv_nxt: u32, seq: u32, wnd: u32) -> SeqVerdict {
    let dist = seq.wrapping_sub(rcv_nxt);
    if dist == 0 {
        SeqVerdict::Exact
    } else if dist < wnd {
        SeqVerdict::InWindow
    } else {
        SeqVerdict::Outside
    }
}

/// The response relation: what a receiver in the ESTABLISHED region must
/// do with a judged segment. `defended` selects the RFC 5961 discipline;
/// `false` is classic pre-5961 TCP (any in-window RST resets), kept so the
/// model checker can exhibit the attack the discipline prevents.
pub fn rfc5961_response(defended: bool, seg: SegClass, v: SeqVerdict) -> RespClass {
    match seg {
        SegClass::Rst => match v {
            SeqVerdict::Exact => RespClass::Reset,
            SeqVerdict::InWindow if defended => RespClass::ChallengeAck,
            SeqVerdict::InWindow => RespClass::Reset,
            SeqVerdict::Outside => RespClass::Drop,
        },
        // The models deliver only exact-sequence data (in-window
        // out-of-order data is reassembly, abstracted away as Drop —
        // rcv_nxt does not advance).
        SegClass::Data => match v {
            SeqVerdict::Exact => RespClass::Deliver,
            _ => RespClass::Drop,
        },
    }
}

/// The transition label the [`RstAttack`](crate::models::RstAttack) model
/// gives this `(segment, verdict, response)` triple — the vocabulary its
/// counterexample traces are written in.
pub fn transition_label(seg: SegClass, v: SeqVerdict, r: RespClass) -> &'static str {
    match (seg, r) {
        (SegClass::Rst, RespClass::Reset) => {
            if v == SeqVerdict::Exact {
                "rst_exact"
            } else {
                "rst_in_window"
            }
        }
        (SegClass::Rst, RespClass::ChallengeAck) => "challenge_ack",
        (SegClass::Rst, _) => "rst_dropped",
        (SegClass::Data, RespClass::Deliver) => "deliver",
        (SegClass::Data, _) => "data_dropped",
    }
}

/// Memory-pressure tier for `used` units against `budget` — the same
/// integer thresholds as `netsim::Pressure::from_occupancy` (50% /
/// 75% / 90%; budget 0 means unlimited). Consumed by the
/// [`Overload`](crate::models::Overload) model and by the conformance
/// harness's admission checks.
pub fn pressure_tier(used: u64, budget: u64) -> u8 {
    if budget == 0 {
        0
    } else if used.saturating_mul(10) >= budget.saturating_mul(9) {
        3
    } else if used.saturating_mul(4) >= budget.saturating_mul(3) {
        2
    } else if used.saturating_mul(2) >= budget {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_matches_window_edges() {
        assert_eq!(classify_seq(100, 100, 50), SeqVerdict::Exact);
        assert_eq!(classify_seq(100, 101, 50), SeqVerdict::InWindow);
        assert_eq!(classify_seq(100, 149, 50), SeqVerdict::InWindow);
        assert_eq!(classify_seq(100, 150, 50), SeqVerdict::Outside);
        assert_eq!(classify_seq(100, 99, 50), SeqVerdict::Outside);
        // Wraparound: rcv_nxt near the top of the space.
        assert_eq!(classify_seq(u32::MAX, 0, 50), SeqVerdict::InWindow);
        assert_eq!(classify_seq(u32::MAX, u32::MAX, 50), SeqVerdict::Exact);
    }

    #[test]
    fn defended_relation_is_rfc5961() {
        use RespClass::*;
        use SegClass::*;
        assert_eq!(rfc5961_response(true, Rst, SeqVerdict::Exact), Reset);
        assert_eq!(rfc5961_response(true, Rst, SeqVerdict::InWindow), ChallengeAck);
        assert_eq!(rfc5961_response(true, Rst, SeqVerdict::Outside), Drop);
        assert_eq!(rfc5961_response(true, Data, SeqVerdict::Exact), Deliver);
    }

    #[test]
    fn undefended_relation_is_pre5961() {
        assert_eq!(
            rfc5961_response(false, SegClass::Rst, SeqVerdict::InWindow),
            RespClass::Reset
        );
    }

    #[test]
    fn labels_cover_the_model_vocabulary() {
        use SegClass::*;
        let mut seen = std::collections::BTreeSet::new();
        for (seg, defended) in [(Rst, true), (Rst, false), (Data, true)] {
            for v in [SeqVerdict::Exact, SeqVerdict::InWindow, SeqVerdict::Outside] {
                let r = rfc5961_response(defended, seg, v);
                seen.insert(transition_label(seg, v, r));
            }
        }
        for want in [
            "rst_exact",
            "rst_in_window",
            "challenge_ack",
            "rst_dropped",
            "deliver",
            "data_dropped",
        ] {
            assert!(seen.contains(want), "missing label {want}");
        }
    }

    #[test]
    fn tier_thresholds_match_slmetrics() {
        assert_eq!(pressure_tier(0, 100), 0);
        assert_eq!(pressure_tier(49, 100), 0);
        assert_eq!(pressure_tier(50, 100), 1);
        assert_eq!(pressure_tier(74, 100), 1);
        assert_eq!(pressure_tier(75, 100), 2);
        assert_eq!(pressure_tier(89, 100), 2);
        assert_eq!(pressure_tier(90, 100), 3);
        assert_eq!(pressure_tier(5, 0), 0, "no budget means no pressure");
    }
}
