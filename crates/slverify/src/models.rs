//! Protocol models for the checker — the E6 experiment's subjects.
//!
//! Each model is deliberately small (finite ISNs, tiny windows) but
//! captures the real protocol question:
//!
//! * [`AltBit`] — alternating-bit reliable delivery over a lossy channel
//!   (the RD bootstrap in miniature);
//! * [`SlidingWindow`] — selective-repeat with sequence space `S` and
//!   window `W`: the checker *proves* safety for `S ≥ 2W` and *finds the
//!   classic aliasing counterexample* for `S < 2W`;
//! * [`Handshake`] — CM's three-way handshake against stale duplicate
//!   SYNs (Smith's CM formalization in miniature); a `two_way` mode shows
//!   the checker catching why the third message exists;
//! * [`Combined`] — handshake × window in one monolithic state machine:
//!   the state-space product that makes monolithic verification expensive
//!   (§4.2's O(N²) lesson, measured);
//! * [`RstAttack`] — an established connection under forged-RST attack:
//!   the RFC 5961 challenge-ACK discipline proved safe against every
//!   below-threshold sequence guess (E14's model-checked core), in both a
//!   sublayered (RD stamps the verdict, CM acts on it) and a monolithic
//!   shape;
//! * [`CongCtrl`] — the congestion-control assume/guarantee contract,
//!   checked against the *real* `slcc` controllers rather than a
//!   re-model: the one model in this file that links the implementation
//!   it verifies (E19).

use crate::checker::{Keyed, Model};

// ---------------------------------------------------------------------
// Alternating bit.
// ---------------------------------------------------------------------

/// Alternating-bit protocol delivering `n_msgs` messages.
pub struct AltBit {
    pub n_msgs: u8,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AltBitState {
    /// Messages fully acknowledged at the sender.
    acked: u8,
    snd_bit: bool,
    /// Data frame in flight: (bit, message index).
    data: Option<(bool, u8)>,
    /// Ack frame in flight.
    ack: Option<bool>,
    rcv_bit: bool,
    delivered: u8,
}

impl Model for AltBit {
    type State = AltBitState;

    fn init(&self) -> Vec<AltBitState> {
        vec![AltBitState {
            acked: 0,
            snd_bit: false,
            data: None,
            ack: None,
            rcv_bit: false,
            delivered: 0,
        }]
    }

    fn next(&self, s: &AltBitState) -> Vec<(&'static str, AltBitState)> {
        let mut out = Vec::new();
        // Sender (re)transmits the current message.
        if s.acked < self.n_msgs && s.data.is_none() {
            let mut ns = s.clone();
            ns.data = Some((s.snd_bit, s.acked));
            out.push(("send", ns));
        }
        // Channel loses frames.
        if s.data.is_some() {
            let mut ns = s.clone();
            ns.data = None;
            out.push(("lose_data", ns));
        }
        if s.ack.is_some() {
            let mut ns = s.clone();
            ns.ack = None;
            out.push(("lose_ack", ns));
        }
        // Receiver consumes a data frame.
        if let Some((bit, idx)) = s.data {
            let mut ns = s.clone();
            ns.data = None;
            if bit == s.rcv_bit {
                // New message.
                debug_assert!(idx >= ns.delivered);
                ns.delivered += 1;
                ns.rcv_bit = !ns.rcv_bit;
            }
            if ns.ack.is_none() {
                ns.ack = Some(bit);
                out.push(("recv_data", ns));
            } else {
                // Ack channel busy: receiver still consumes, ack dropped.
                out.push(("recv_data_ack_lost", ns));
            }
        }
        // Sender consumes an ack.
        if let Some(bit) = s.ack {
            let mut ns = s.clone();
            ns.ack = None;
            if bit == s.snd_bit {
                ns.acked += 1;
                ns.snd_bit = !ns.snd_bit;
            }
            out.push(("recv_ack", ns));
        }
        out
    }

    fn invariant(&self, s: &AltBitState) -> Result<(), String> {
        // Exactly-once, in-order: the receiver's count never exceeds the
        // sender's progress by more than the one message in flight, and
        // never falls behind what was acknowledged.
        if s.delivered < s.acked {
            return Err(format!("lost message: delivered {} < acked {}", s.delivered, s.acked));
        }
        if s.delivered > s.acked + 1 {
            return Err(format!("duplicate delivery: {} vs acked {}", s.delivered, s.acked));
        }
        Ok(())
    }

    fn is_done(&self, s: &AltBitState) -> bool {
        s.acked == self.n_msgs && s.delivered == self.n_msgs && s.data.is_none() && s.ack.is_none()
    }
}

// ---------------------------------------------------------------------
// Sliding window (selective repeat).
// ---------------------------------------------------------------------

/// Selective-repeat with window `w`, sequence space `s_mod`, transferring
/// `n_msgs` messages. Safe iff `s_mod >= 2w`.
pub struct SlidingWindow {
    pub w: u8,
    pub s_mod: u8,
    pub n_msgs: u8,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct WindowState {
    /// Sender base (lowest unacked true index).
    base: u8,
    /// Next new index to send.
    next: u8,
    /// Data frame in flight: (true index, wire seq).
    data: Option<(u8, u8)>,
    /// Cumulative ack in flight (receiver base).
    ack: Option<u8>,
    /// Receiver base (next expected true index).
    rbase: u8,
    /// Bitmask of received slots within the receiver window.
    rbuf: u8,
}

impl Model for SlidingWindow {
    type State = WindowState;

    fn init(&self) -> Vec<WindowState> {
        vec![WindowState { base: 0, next: 0, data: None, ack: None, rbase: 0, rbuf: 0 }]
    }

    fn next(&self, s: &WindowState) -> Vec<(&'static str, WindowState)> {
        let mut out = Vec::new();
        // Sender transmits any unacked frame in its window (new or
        // retransmission).
        if s.data.is_none() {
            for i in s.base..s.next.min(s.base + self.w) {
                let mut ns = s.clone();
                ns.data = Some((i, i % self.s_mod));
                out.push(("retransmit", ns));
            }
            if s.next < self.n_msgs && s.next < s.base + self.w {
                let mut ns = s.clone();
                ns.data = Some((s.next, s.next % self.s_mod));
                ns.next += 1;
                out.push(("send_new", ns));
            }
        }
        // Losses.
        if s.data.is_some() {
            let mut ns = s.clone();
            ns.data = None;
            out.push(("lose_data", ns));
        }
        if s.ack.is_some() {
            let mut ns = s.clone();
            ns.ack = None;
            out.push(("lose_ack", ns));
        }
        // Receiver consumes a data frame, deciding by WIRE SEQ ONLY.
        if let Some((true_i, seq)) = s.data {
            let mut ns = s.clone();
            ns.data = None;
            let k = (seq + self.s_mod - (s.rbase % self.s_mod)) % self.s_mod;
            if k < self.w {
                // Receiver believes this is index rbase + k.
                let claimed = s.rbase + k;
                if claimed != true_i {
                    // The aliasing bug: encode it in the state so the
                    // invariant sees it.
                    ns.rbuf = 0xFF; // poison marker
                    out.push(("recv_aliased", ns));
                } else {
                    ns.rbuf |= 1 << k;
                    // Slide over the contiguous prefix.
                    while ns.rbuf & 1 != 0 {
                        ns.rbuf >>= 1;
                        ns.rbase += 1;
                    }
                    if ns.ack.is_none() {
                        ns.ack = Some(ns.rbase);
                    }
                    out.push(("recv_data", ns));
                }
            } else {
                // Out of window: re-ack.
                if ns.ack.is_none() {
                    ns.ack = Some(ns.rbase);
                }
                out.push(("recv_dup", ns));
            }
        }
        // Sender consumes an ack.
        if let Some(a) = s.ack {
            let mut ns = s.clone();
            ns.ack = None;
            if a > ns.base {
                ns.base = a;
            }
            out.push(("recv_ack", ns));
        }
        out
    }

    fn invariant(&self, s: &WindowState) -> Result<(), String> {
        if s.rbuf == 0xFF {
            return Err("sequence aliasing: receiver accepted an old frame as new".into());
        }
        Ok(())
    }

    fn is_done(&self, s: &WindowState) -> bool {
        s.base == self.n_msgs && s.rbase == self.n_msgs && s.data.is_none() && s.ack.is_none()
    }
}

// ---------------------------------------------------------------------
// Handshake (CM).
// ---------------------------------------------------------------------

/// ISN used by delayed duplicates from an old incarnation.
pub const STALE_ISN: u8 = 9;
/// The current incarnation's client ISN / server ISN.
pub const CLIENT_ISN: u8 = 1;
pub const SERVER_ISN: u8 = 2;

/// CM's connection-establishment handshake under stale duplicate SYNs.
/// With `three_way: false` the server trusts a bare SYN (no third
/// message) — the checker finds the stale-incarnation violation.
pub struct Handshake {
    pub three_way: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HsMsg {
    Syn { isn: u8 },
    SynAck { isn: u8, ack: u8 },
    Ack { seq: u8, ack: u8 },
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct HsSide {
    established: bool,
    peer_isn: Option<u8>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HsState {
    client: HsSide,
    server: HsSide,
    /// One message slot per direction.
    to_server: Option<HsMsg>,
    to_client: Option<HsMsg>,
    /// A stale SYN may appear at most once.
    stale_injected: bool,
}

impl Model for Handshake {
    type State = HsState;

    fn init(&self) -> Vec<HsState> {
        vec![HsState {
            client: HsSide::default(),
            server: HsSide::default(),
            to_server: None,
            to_client: None,
            stale_injected: false,
        }]
    }

    fn next(&self, s: &HsState) -> Vec<(&'static str, HsState)> {
        let mut out = Vec::new();
        // Client (re)sends SYN until established.
        if !s.client.established && s.to_server.is_none() {
            let mut ns = *s;
            ns.to_server = Some(HsMsg::Syn { isn: CLIENT_ISN });
            out.push(("client_syn", ns));
        }
        // The network may deliver a stale duplicate SYN (old incarnation).
        if !s.stale_injected && s.to_server.is_none() {
            let mut ns = *s;
            ns.to_server = Some(HsMsg::Syn { isn: STALE_ISN });
            ns.stale_injected = true;
            out.push(("stale_syn", ns));
        }
        // Server retransmits its SYN-ACK while half open.
        if !s.server.established && s.to_client.is_none() {
            if let Some(stored) = s.server.peer_isn {
                let mut ns = *s;
                ns.to_client = Some(HsMsg::SynAck { isn: SERVER_ISN, ack: stored });
                out.push(("server_synack_rtx", ns));
            }
        }
        // Half-open connections time out (how a server wedged on a stale
        // SYN recovers; abstracts SYN-RCVD timeout / RST).
        if !s.server.established && s.server.peer_isn.is_some() {
            let mut ns = *s;
            ns.server.peer_isn = None;
            out.push(("server_halfopen_timeout", ns));
        }
        // Losses.
        if s.to_server.is_some() {
            let mut ns = *s;
            ns.to_server = None;
            out.push(("lose_to_server", ns));
        }
        if s.to_client.is_some() {
            let mut ns = *s;
            ns.to_client = None;
            out.push(("lose_to_client", ns));
        }
        // Server consumes.
        if let Some(msg) = s.to_server {
            let mut ns = *s;
            ns.to_server = None;
            match msg {
                HsMsg::Syn { isn } => {
                    if ns.server.peer_isn.is_none() {
                        ns.server.peer_isn = Some(isn);
                    }
                    if !self.three_way {
                        // Trusting two-way variant: established on SYN.
                        ns.server.established = true;
                    }
                    // As in TCP's SYN_RCVD, the server acks its *stored*
                    // peer ISN (irs), not whatever the duplicate carries.
                    let stored = ns.server.peer_isn.unwrap();
                    if ns.to_client.is_none() {
                        ns.to_client = Some(HsMsg::SynAck { isn: SERVER_ISN, ack: stored });
                        out.push(("server_synack", ns));
                    } else {
                        out.push(("server_synack_dropped", ns));
                    }
                }
                HsMsg::Ack { seq, ack } => {
                    // Sequence acceptability, as in TCP: the ack must come
                    // from the incarnation the server is holding (seq must
                    // match the stored peer ISN) *and* acknowledge our ISN.
                    if ack == SERVER_ISN && ns.server.peer_isn == Some(seq) {
                        ns.server.established = true;
                    }
                    out.push(("server_ack", ns));
                }
                HsMsg::SynAck { .. } => out.push(("server_ignores", ns)),
            }
        }
        // Client consumes.
        if let Some(msg) = s.to_client {
            let mut ns = *s;
            ns.to_client = None;
            match msg {
                HsMsg::SynAck { isn, ack } => {
                    if ack == CLIENT_ISN {
                        ns.client.established = true;
                        ns.client.peer_isn = Some(isn);
                        if ns.to_server.is_none() {
                            ns.to_server = Some(HsMsg::Ack { seq: CLIENT_ISN, ack: isn });
                            out.push(("client_ack", ns));
                        } else {
                            out.push(("client_ack_dropped", ns));
                        }
                    } else {
                        // SYN-ACK for a stale incarnation: reject.
                        out.push(("client_rejects_stale", ns));
                    }
                }
                _ => out.push(("client_ignores", ns)),
            }
        }
        out
    }

    fn invariant(&self, s: &HsState) -> Result<(), String> {
        // Agreement: once both are established, the server must hold the
        // *current* client ISN — a stale incarnation must never survive.
        if s.server.established && s.server.peer_isn == Some(STALE_ISN) {
            return Err("server established a stale incarnation".into());
        }
        if s.client.established && s.server.established {
            if s.server.peer_isn != Some(CLIENT_ISN) {
                return Err(format!(
                    "ISN disagreement: server thinks client ISN is {:?}",
                    s.server.peer_isn
                ));
            }
            if s.client.peer_isn != Some(SERVER_ISN) {
                return Err("client holds the wrong server ISN".into());
            }
        }
        Ok(())
    }

    fn is_done(&self, s: &HsState) -> bool {
        if s.client.established && s.server.established {
            return true;
        }
        // Half-established terminal: the client completed but the server
        // timed out its half-open entry (the client's ack was lost
        // forever). In full TCP this resolves at the first data segment
        // via RST — outside CM's scope, so it is a legitimate terminal
        // here.
        s.client.established
            && s.server.peer_isn.is_none()
            && s.to_server.is_none()
            && s.to_client.is_none()
            && s.stale_injected
    }
}

// ---------------------------------------------------------------------
// Combined (monolithic) model.
// ---------------------------------------------------------------------

/// Handshake and sliding window verified *together*, as a monolithic
/// implementation forces: the state is the product and every interleaving
/// must be explored. Experiment E6 contrasts `states(Combined)` with
/// `states(Handshake) + states(SlidingWindow)`.
pub struct Combined {
    pub hs: Handshake,
    pub win: SlidingWindow,
}

impl Model for Combined {
    type State = (HsState, WindowState);

    fn init(&self) -> Vec<Self::State> {
        let mut out = Vec::new();
        for h in self.hs.init() {
            for w in self.win.init() {
                out.push((h, w));
            }
        }
        out
    }

    fn next(&self, s: &Self::State) -> Vec<(&'static str, Self::State)> {
        let mut out = Vec::new();
        for (a, h) in self.hs.next(&s.0) {
            out.push((a, (h, s.1.clone())));
        }
        // Data may only flow once the handshake completed (the coupling a
        // monolithic proof must reason about).
        if s.0.client.established {
            for (a, w) in self.win.next(&s.1) {
                out.push((a, (s.0, w)));
            }
        }
        out
    }

    fn invariant(&self, s: &Self::State) -> Result<(), String> {
        self.hs.invariant(&s.0)?;
        self.win.invariant(&s.1)
    }

    fn is_done(&self, s: &Self::State) -> bool {
        self.hs.is_done(&s.0) && self.win.is_done(&s.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check;

    #[test]
    fn altbit_is_safe_and_live() {
        let r = check(&AltBit { n_msgs: 3 }, 100_000);
        assert!(r.ok(), "{r:?}");
        assert!(r.states > 10);
    }

    #[test]
    fn sliding_window_safe_when_space_is_twice_window() {
        for (w, s_mod) in [(1u8, 2u8), (2, 4), (3, 6), (2, 5)] {
            let r = check(&SlidingWindow { w, s_mod, n_msgs: s_mod + 2 }, 2_000_000);
            assert!(r.ok(), "W={w} S={s_mod}: {r:?}");
        }
    }

    #[test]
    fn sliding_window_aliasing_found_when_space_too_small() {
        // The classic theorem: selective repeat needs S >= 2W.
        for (w, s_mod) in [(2u8, 3u8), (2, 2), (3, 4)] {
            let r = check(&SlidingWindow { w, s_mod, n_msgs: s_mod + 2 }, 2_000_000);
            let v = r.violation.unwrap_or_else(|| panic!("W={w} S={s_mod} must alias"));
            assert!(v.reason.contains("aliasing"), "{v:?}");
            assert!(!v.actions.is_empty());
        }
    }

    #[test]
    fn three_way_handshake_rejects_stale_incarnations() {
        let r = check(&Handshake { three_way: true }, 1_000_000);
        assert!(r.violation.is_none(), "{r:?}");
    }

    #[test]
    fn two_way_handshake_is_broken() {
        // Dropping the third message lets a stale SYN establish — the
        // checker produces the counterexample explaining *why* TCP has a
        // three-way handshake.
        let r = check(&Handshake { three_way: false }, 1_000_000);
        let v = r.violation.expect("two-way must fail");
        assert!(v.reason.contains("stale"), "{v:?}");
        assert!(v.actions.contains(&"stale_syn"));
    }

    #[test]
    fn combined_state_space_is_multiplicative() {
        // The E6 headline: verifying the monolithic product costs far more
        // states than verifying each sublayer's model separately.
        let hs = check(&Handshake { three_way: true }, 2_000_000);
        let win = check(&SlidingWindow { w: 2, s_mod: 4, n_msgs: 6 }, 2_000_000);
        let combined = check(
            &Combined {
                hs: Handshake { three_way: true },
                win: SlidingWindow { w: 2, s_mod: 4, n_msgs: 6 },
            },
            5_000_000,
        );
        assert!(hs.ok() && win.ok());
        assert!(combined.violation.is_none());
        let sum = hs.states + win.states;
        assert!(
            combined.states > 3 * sum,
            "combined {} should dwarf sum {}",
            combined.states,
            sum
        );
    }

    #[test]
    fn handshake_deadlock_free_modulo_done_states() {
        let r = check(&Handshake { three_way: true }, 1_000_000);
        assert_eq!(r.deadlocks, 0, "{r:?}");
    }
}

// ---------------------------------------------------------------------
// Forged RST vs challenge ACK (RFC 5961).
// ---------------------------------------------------------------------

/// An established connection under blind-RST attack — the model-checked
/// core of experiment E14. The honest peer streams `n_msgs` in-order data
/// segments; the attacker injects up to `budget` forged RSTs.
///
/// The attacker is *below the sequence-knowledge threshold*: a forged RST
/// carries `miss`, how far its guess lands from the victim's exact
/// expectation when the segment is judged — any value except zero
/// (mirroring `SeqKnowledge::{InWindow, Blind}` in the simulator; a guess
/// that collides exactly is above-threshold by definition, and RFC 5961
/// makes no promise there).
///
/// `defended: true` is the RFC 5961 discipline: a RST is obeyed only at
/// the exact expected sequence; in-window-but-not-exact draws a challenge
/// ACK; anything else is dropped. `defended: false` is classic pre-5961
/// TCP — any in-window RST resets — and the checker produces the
/// counterexample.
///
/// `sublayered: true` mirrors core's shape: a distinct RD transition
/// stamps the sequence-validity verdict, then a CM transition acts on the
/// stamped verdict without re-reading sequence numbers. `false` mirrors
/// tcp-mono: classification and action fused in one transition. Both
/// shapes must satisfy the same invariant.
pub struct RstAttack {
    pub s_mod: u8,
    /// Receive-window size (in-window means distance `< w`).
    pub w: u8,
    pub n_msgs: u8,
    /// Forged RSTs the attacker may inject.
    pub budget: u8,
    pub defended: bool,
    pub sublayered: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RstSeg {
    /// In-order data from the honest peer (absolute wire sequence).
    Data { seq: u8 },
    /// Forged RST, encoded by how far the guess misses (never 0).
    Rst { miss: u8 },
}

pub use crate::relation::SeqVerdict;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RstAttackState {
    established: bool,
    rcv_nxt: u8,
    delivered: u8,
    /// One channel slot toward the victim.
    seg: Option<RstSeg>,
    /// Sublayered shape only: RD's stamped verdict awaiting CM/delivery.
    staged: Option<(RstSeg, SeqVerdict)>,
    /// A challenge ACK was issued at least once.
    challenged: bool,
    budget: u8,
}

impl RstAttack {
    fn classify(&self, rcv_nxt: u8, seg: &RstSeg) -> SeqVerdict {
        let dist = match seg {
            RstSeg::Data { seq } => (seq + self.s_mod - rcv_nxt) % self.s_mod,
            RstSeg::Rst { miss } => *miss,
        };
        if dist == 0 {
            SeqVerdict::Exact
        } else if dist < self.w {
            SeqVerdict::InWindow
        } else {
            SeqVerdict::Outside
        }
    }

    /// The CM/delivery action on a judged segment; returns the label.
    /// The *response* is not decided here: it comes from the shared
    /// [`relation::rfc5961_response`](crate::relation::rfc5961_response)
    /// table, the same definition the conformance oracle consults — this
    /// method only applies the response's state effect.
    fn apply(&self, ns: &mut RstAttackState, seg: RstSeg, v: SeqVerdict) -> &'static str {
        use crate::relation::{rfc5961_response, transition_label, RespClass, SegClass};
        let class = match seg {
            RstSeg::Rst { .. } => SegClass::Rst,
            RstSeg::Data { .. } => SegClass::Data,
        };
        let resp = rfc5961_response(self.defended, class, v);
        match resp {
            RespClass::Reset => ns.established = false,
            RespClass::ChallengeAck => ns.challenged = true,
            RespClass::Deliver => {
                ns.rcv_nxt = (ns.rcv_nxt + 1) % self.s_mod;
                ns.delivered += 1;
            }
            RespClass::Drop => {}
        }
        transition_label(class, v, resp)
    }
}

impl Model for RstAttack {
    type State = RstAttackState;

    fn init(&self) -> Vec<RstAttackState> {
        vec![RstAttackState {
            established: true,
            rcv_nxt: 0,
            delivered: 0,
            seg: None,
            staged: None,
            challenged: false,
            budget: self.budget,
        }]
    }

    fn next(&self, s: &RstAttackState) -> Vec<(&'static str, RstAttackState)> {
        let mut out = Vec::new();
        if !s.established {
            return out; // the invariant has already flagged this state
        }
        // Honest peer streams the next in-order byte.
        if s.seg.is_none() && s.delivered < self.n_msgs {
            let mut ns = *s;
            ns.seg = Some(RstSeg::Data { seq: s.rcv_nxt });
            out.push(("peer_data", ns));
        }
        // Attacker forges a RST at every below-threshold miss distance.
        if s.seg.is_none() && s.budget > 0 {
            for miss in 1..self.s_mod {
                let mut ns = *s;
                ns.seg = Some(RstSeg::Rst { miss });
                ns.budget -= 1;
                out.push(("attacker_rst", ns));
            }
        }
        // Victim consumes the channel slot.
        if let Some(seg) = s.seg {
            let v = self.classify(s.rcv_nxt, &seg);
            if self.sublayered {
                // RD stamps the verdict; CM acts on it in a later step.
                if s.staged.is_none() {
                    let mut ns = *s;
                    ns.seg = None;
                    ns.staged = Some((seg, v));
                    out.push(("rd_classify", ns));
                }
            } else {
                let mut ns = *s;
                ns.seg = None;
                let label = self.apply(&mut ns, seg, v);
                out.push((label, ns));
            }
        }
        // Sublayered CM/delivery step on the stamped verdict.
        if let Some((seg, v)) = s.staged {
            let mut ns = *s;
            ns.staged = None;
            let label = self.apply(&mut ns, seg, v);
            out.push((label, ns));
        }
        out
    }

    fn invariant(&self, s: &RstAttackState) -> Result<(), String> {
        if !s.established {
            return Err("victim reset by a forged RST that missed the exact sequence".into());
        }
        Ok(())
    }

    fn is_done(&self, s: &RstAttackState) -> bool {
        s.delivered == self.n_msgs && s.seg.is_none() && s.staged.is_none()
    }
}

#[cfg(test)]
mod rst_tests {
    use super::*;
    use crate::checker::check;

    fn model(defended: bool, sublayered: bool) -> RstAttack {
        RstAttack { s_mod: 8, w: 3, n_msgs: 3, budget: 2, defended, sublayered }
    }

    #[test]
    fn defended_connection_survives_every_below_threshold_rst() {
        // The E14 theorem: with RFC 5961 discipline, no schedule of
        // wrong-sequence RSTs reaches Closed from Established — in the
        // sublayered shape AND the monolithic shape.
        for sublayered in [true, false] {
            let r = check(&model(true, sublayered), 2_000_000);
            assert!(r.ok(), "sublayered={sublayered}: {r:?}");
        }
    }

    #[test]
    fn undefended_connection_killed_by_in_window_rst() {
        // Classic pre-5961 TCP: the checker exhibits the blind in-window
        // RST attack in both shapes.
        for sublayered in [true, false] {
            let r = check(&model(false, sublayered), 2_000_000);
            let v = r.violation.unwrap_or_else(|| panic!("sublayered={sublayered} must die"));
            assert!(v.reason.contains("reset"), "{v:?}");
            assert!(v.actions.contains(&"attacker_rst"), "{v:?}");
        }
    }

    #[test]
    fn in_window_miss_draws_challenge_ack_not_reset() {
        // Single-step: a defended victim answers an in-window miss with a
        // challenge ACK and stays established.
        let m = model(true, false);
        let s0 = RstAttackState {
            established: true,
            rcv_nxt: 0,
            delivered: 0,
            seg: Some(RstSeg::Rst { miss: 1 }),
            staged: None,
            challenged: false,
            budget: 0,
        };
        let succ = m.next(&s0);
        assert!(
            succ.iter().any(|(a, ns)| *a == "challenge_ack" && ns.established && ns.challenged),
            "{succ:?}"
        );
    }

    #[test]
    fn sublayered_shape_stages_the_verdict() {
        // The decomposed shape really is decomposed: classification is its
        // own transition, and the stamped verdict survives stream advance.
        let m = model(true, true);
        let s0 = RstAttackState {
            established: true,
            rcv_nxt: 0,
            delivered: 0,
            seg: Some(RstSeg::Rst { miss: 1 }),
            staged: None,
            challenged: false,
            budget: 0,
        };
        let succ = m.next(&s0);
        let (_, staged) = succ
            .iter()
            .find(|(a, _)| *a == "rd_classify")
            .expect("RD step first");
        assert_eq!(staged.staged, Some((RstSeg::Rst { miss: 1 }, SeqVerdict::InWindow)));
        let succ2 = m.next(staged);
        assert!(succ2.iter().any(|(a, ns)| *a == "challenge_ack" && ns.established));
    }
}

// ---------------------------------------------------------------------
// Flow control (OSR).
// ---------------------------------------------------------------------

/// OSR's flow-control obligation: the sender may not exceed the advertised
/// window, or the receiver's bounded buffer overflows. With
/// `respect_window: false` the checker produces the overflow
/// counterexample — the contract that makes the OSR/RD interface safe.
pub struct FlowControl {
    pub buf_cap: u8,
    pub n_msgs: u8,
    pub respect_window: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowState {
    /// Messages the sender has emitted.
    sent: u8,
    /// Messages sitting in the receiver's buffer (app not yet reading).
    buffered: u8,
    /// Messages the receiver's application consumed.
    consumed: u8,
    /// Last window advertisement the sender has seen.
    snd_window: u8,
    /// A window update in flight, if any.
    update: Option<u8>,
    /// One data message in flight, if any.
    data_in_flight: bool,
}

impl Model for FlowControl {
    type State = FlowState;

    fn init(&self) -> Vec<FlowState> {
        vec![FlowState {
            sent: 0,
            buffered: 0,
            consumed: 0,
            snd_window: self.buf_cap,
            update: None,
            data_in_flight: false,
        }]
    }

    fn next(&self, s: &FlowState) -> Vec<(&'static str, FlowState)> {
        let mut out = Vec::new();
        // Sender emits when it has budget (or recklessly, in the broken
        // variant). Data in this model is never lost (flow control is
        // orthogonal to loss; RD handles that).
        let in_flight_and_unread = (s.sent - s.consumed) as i32;
        let may_send = if self.respect_window {
            in_flight_and_unread < s.snd_window as i32
        } else {
            true
        };
        if s.sent < self.n_msgs && !s.data_in_flight && may_send {
            let mut ns = *s;
            ns.sent += 1;
            ns.data_in_flight = true;
            out.push(("send", ns));
        }
        // Delivery into the receiver buffer.
        if s.data_in_flight {
            let mut ns = *s;
            ns.data_in_flight = false;
            ns.buffered += 1; // invariant checks the bound
            out.push(("deliver", ns));
        }
        // The application reads, freeing buffer space; the receiver
        // advertises the new window.
        if s.buffered > 0 {
            let mut ns = *s;
            ns.consumed += ns.buffered;
            ns.buffered = 0;
            ns.update = Some(self.buf_cap);
            out.push(("app_read", ns));
        }
        // Window update arrives (updates may also be lost).
        if let Some(w) = s.update {
            let mut ns = *s;
            ns.update = None;
            ns.snd_window = w;
            out.push(("window_update", ns));
            let mut lost = *s;
            lost.update = None;
            out.push(("lose_update", lost));
        }
        out
    }

    fn invariant(&self, s: &FlowState) -> Result<(), String> {
        if s.buffered > self.buf_cap {
            return Err(format!(
                "receiver buffer overflow: {} > capacity {}",
                s.buffered, self.buf_cap
            ));
        }
        Ok(())
    }

    fn is_done(&self, s: &FlowState) -> bool {
        s.consumed == self.n_msgs && !s.data_in_flight
    }
}

#[cfg(test)]
mod flow_tests {
    use super::*;
    use crate::checker::check;

    #[test]
    fn window_respecting_sender_never_overflows() {
        let r = check(
            &FlowControl { buf_cap: 2, n_msgs: 6, respect_window: true },
            1_000_000,
        );
        assert!(r.violation.is_none(), "{r:?}");
    }

    #[test]
    fn reckless_sender_overflows_the_receiver() {
        let r = check(
            &FlowControl { buf_cap: 2, n_msgs: 6, respect_window: false },
            1_000_000,
        );
        let v = r.violation.expect("must overflow");
        assert!(v.reason.contains("overflow"), "{v:?}");
    }
}

// ---------------------------------------------------------------------
// Overload control (host admission + backpressure).
// ---------------------------------------------------------------------

/// The E16 overload-control policy as a small exhaustive model: a host
/// with a byte budget admits, defers, sheds, and evicts connections as
/// occupancy crosses pressure tiers.
///
/// Connections arrive (optionally as slow readers), are admitted only at
/// Nominal pressure, buffer `resp` units of response when served, and
/// drain one unit per progress step. Slow readers never drain; the
/// slow-drain checkpoint evicts them. At High pressure the host may shed
/// idle (fully drained) connections. A `drain` transition models host
/// quiesce: no further admissions, pending connections refused.
///
/// The shape flag mirrors [`RstAttack`]: with `sublayered: true` the
/// pressure tier the admission policy reads is a *staged* copy, updated
/// only by an explicit `push_pressure` transition — the sublayer boundary
/// makes the signal stale by up to `lag` admissions (the host's batched
/// ingest window). With `sublayered: false` the check is fused: every
/// transition re-derives the tier from live occupancy, so `lag` is
/// irrelevant. The checker proves the budget headroom theorem — occupancy
/// never exceeds `budget` — for the fused shape unconditionally and for
/// the staged shape only while `lag × resp` fits in the headroom above
/// the Elevated threshold; one admission more and it exhibits the
/// overrun trace.
pub struct Overload {
    /// Byte budget (abstract units).
    pub budget: u8,
    /// Units buffered per admitted connection (the response).
    pub resp: u8,
    /// Admissions the host may perform between pressure refreshes; only
    /// meaningful in the sublayered shape.
    pub lag: u8,
    /// Staged pressure propagation (true) or fused occupancy check (false).
    pub sublayered: bool,
}

const OVERLOAD_SLOTS: usize = 3;

/// One connection slot's lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConnSlot {
    Idle,
    /// Established, not yet admitted (may be deferred indefinitely).
    Pending { slow: bool },
    /// Admitted and served: `buf` response units still buffered.
    Accepted { buf: u8, slow: bool },
    Done,
    Refused,
    /// Reset by the host: `by_shed` = idle shed, else slow-drain.
    Evicted { by_shed: bool, was_slow: bool },
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OverloadState {
    conns: [ConnSlot; OVERLOAD_SLOTS],
    /// Occupancy: total buffered units (maintained incrementally; the
    /// invariant re-derives it from the slots to catch leaks).
    used: u8,
    /// The pressure tier the admission policy reads (0=Nominal,
    /// 1=Elevated, 2=High, 3=Critical). Live in the fused shape, staged
    /// in the sublayered shape.
    applied: u8,
    /// Admissions since `applied` was last refreshed.
    stale_admits: u8,
    draining: bool,
}

impl OverloadState {
    /// Live occupancy in budget units — read by the `slconform`
    /// cross-check, which re-derives the tier via the shared relation.
    pub fn occupancy(&self) -> u8 {
        self.used
    }

    /// The pressure tier the admission policy currently reads (staged in
    /// the sublayered shape, live in the fused one).
    pub fn applied_tier(&self) -> u8 {
        self.applied
    }

    /// Whether the host has begun quiescing.
    pub fn is_draining(&self) -> bool {
        self.draining
    }
}

impl Overload {
    /// Pressure tier from live occupancy — delegated to the shared
    /// [`relation::pressure_tier`](crate::relation::pressure_tier), the
    /// same thresholds as `netsim::Pressure::from_occupancy`
    /// (50% / 75% / 90%) and the conformance harness's admission checks.
    fn tier(&self, used: u8) -> u8 {
        crate::relation::pressure_tier(used as u64, self.budget as u64)
    }

    /// Fused shape: every mutation is immediately visible to the
    /// admission check, as if policy and accounting were one layer.
    fn settle(&self, ns: &mut OverloadState) {
        if !self.sublayered {
            ns.applied = self.tier(ns.used);
            ns.stale_admits = 0;
        }
    }
}

impl Model for Overload {
    type State = OverloadState;

    fn init(&self) -> Vec<OverloadState> {
        vec![OverloadState {
            conns: [ConnSlot::Idle; OVERLOAD_SLOTS],
            used: 0,
            applied: 0,
            stale_admits: 0,
            draining: false,
        }]
    }

    fn next(&self, s: &OverloadState) -> Vec<(&'static str, OverloadState)> {
        let mut out = Vec::new();
        for i in 0..OVERLOAD_SLOTS {
            match s.conns[i] {
                ConnSlot::Idle => {
                    // SYNs keep coming regardless of host state.
                    let mut ns = *s;
                    ns.conns[i] = ConnSlot::Pending { slow: false };
                    self.settle(&mut ns);
                    out.push(("arrive", ns));
                    let mut sl = *s;
                    sl.conns[i] = ConnSlot::Pending { slow: true };
                    self.settle(&mut sl);
                    out.push(("arrive_slow", sl));
                }
                ConnSlot::Pending { slow } => {
                    if s.draining || s.applied == 3 {
                        let mut ns = *s;
                        ns.conns[i] = ConnSlot::Refused;
                        self.settle(&mut ns);
                        out.push(("refuse", ns));
                    } else if s.applied == 0 && s.stale_admits < self.lag {
                        // Admission serves the response immediately; the
                        // deferral tiers are the *absence* of this
                        // transition at Elevated/High.
                        let mut ns = *s;
                        ns.conns[i] = ConnSlot::Accepted { buf: self.resp, slow };
                        ns.used += self.resp;
                        ns.stale_admits += 1;
                        self.settle(&mut ns);
                        out.push(("admit", ns));
                    }
                }
                ConnSlot::Accepted { buf, slow } => {
                    if buf > 0 && !slow {
                        let mut ns = *s;
                        ns.conns[i] = ConnSlot::Accepted { buf: buf - 1, slow };
                        ns.used -= 1;
                        self.settle(&mut ns);
                        out.push(("progress", ns));
                    }
                    if buf > 0 && slow {
                        // The drain checkpoint matures and finds no
                        // progress: evict, reclaiming the buffer.
                        let mut ns = *s;
                        ns.conns[i] =
                            ConnSlot::Evicted { by_shed: false, was_slow: true };
                        ns.used -= buf;
                        self.settle(&mut ns);
                        out.push(("slow_drain_evict", ns));
                    }
                    if buf == 0 {
                        let mut ns = *s;
                        ns.conns[i] = ConnSlot::Done;
                        self.settle(&mut ns);
                        out.push(("complete", ns));
                        if s.applied >= 2 {
                            // Shed-idle: only a fully drained lingerer.
                            let mut sh = *s;
                            sh.conns[i] =
                                ConnSlot::Evicted { by_shed: true, was_slow: slow };
                            self.settle(&mut sh);
                            out.push(("shed_idle", sh));
                        }
                    }
                }
                ConnSlot::Done | ConnSlot::Refused | ConnSlot::Evicted { .. } => {}
            }
        }
        if !s.draining {
            let mut ns = *s;
            ns.draining = true;
            self.settle(&mut ns);
            out.push(("drain", ns));
        }
        if self.sublayered
            && (s.applied != self.tier(s.used) || s.stale_admits > 0)
        {
            // The staged signal crosses the sublayer boundary.
            let mut ns = *s;
            ns.applied = self.tier(ns.used);
            ns.stale_admits = 0;
            out.push(("push_pressure", ns));
        }
        out
    }

    fn invariant(&self, s: &OverloadState) -> Result<(), String> {
        if s.used > self.budget {
            return Err(format!(
                "budget exceeded: {} used > {} budget",
                s.used, self.budget
            ));
        }
        let derived: u8 = s
            .conns
            .iter()
            .map(|c| match c {
                ConnSlot::Accepted { buf, .. } => *buf,
                _ => 0,
            })
            .sum();
        if derived != s.used {
            return Err(format!(
                "budget accounting leaked: tracked {} != held {derived}",
                s.used
            ));
        }
        for c in &s.conns {
            if let ConnSlot::Evicted { by_shed: false, was_slow: false } = c {
                return Err("evicted a progressing connection".into());
            }
        }
        Ok(())
    }

    fn is_done(&self, s: &OverloadState) -> bool {
        s.conns.iter().all(|c| {
            matches!(
                c,
                ConnSlot::Done | ConnSlot::Refused | ConnSlot::Evicted { .. }
            )
        })
    }
}

#[cfg(test)]
mod overload_tests {
    use super::*;
    use crate::checker::check;

    fn model(sublayered: bool, lag: u8) -> Overload {
        // budget 4, resp 2: Nominal means used <= 1, so one in-window
        // admission (lag 1) peaks at 3 <= 4. Total demand 3 slots x 2 = 6
        // keeps the budget genuinely contended.
        Overload { budget: 4, resp: 2, lag, sublayered }
    }

    #[test]
    fn budget_holds_in_both_shapes() {
        // The E16 safety theorem: under every interleaving of arrivals,
        // slow readers, sheds, evictions, and a mid-run drain, occupancy
        // never exceeds the budget, accounting never leaks, and no
        // progressing connection is reset.
        for sublayered in [true, false] {
            let r = check(&model(sublayered, 1), 2_000_000);
            assert!(r.ok(), "sublayered={sublayered}: {r:?}");
            assert!(r.states > 100, "state space suspiciously small: {r:?}");
        }
    }

    #[test]
    fn stale_pressure_window_can_blow_the_budget() {
        // Why the refresh cadence matters: let two admissions ride one
        // stale Nominal reading and the checker exhibits the overrun.
        let r = check(&model(true, 2), 2_000_000);
        let v = r.violation.expect("lag 2 must overrun a budget of 4");
        assert!(v.reason.contains("budget exceeded"), "{v:?}");
        let admits =
            v.actions.iter().filter(|a| **a == "admit").count();
        assert!(admits >= 2, "overrun needs back-to-back admits: {v:?}");
    }

    #[test]
    fn fused_shape_is_immune_to_admission_lag() {
        // The monolithic shape re-derives the tier on every transition,
        // so no lag value can smuggle admissions past the check.
        for lag in [2, 3] {
            let r = check(&model(false, lag), 2_000_000);
            assert!(r.ok(), "lag={lag}: {r:?}");
        }
    }

    #[test]
    fn staged_signal_costs_state_space() {
        // The sublayer boundary shows up as extra reachable states: the
        // staged tier decouples from live occupancy.
        let sub = check(&model(true, 1), 2_000_000);
        let mono = check(&model(false, 1), 2_000_000);
        println!("overload states: sub={} mono={}", sub.states, mono.states);
        assert!(sub.ok() && mono.ok());
        assert!(
            sub.states > mono.states,
            "sub {} <= mono {}",
            sub.states,
            mono.states
        );
    }

    #[test]
    fn slow_reader_eviction_reclaims_its_buffer() {
        // Single-step: a pinned slow reader's eviction returns its bytes.
        let m = model(true, 1);
        let s0 = OverloadState {
            conns: [
                ConnSlot::Accepted { buf: 2, slow: true },
                ConnSlot::Idle,
                ConnSlot::Idle,
            ],
            used: 2,
            applied: 1,
            stale_admits: 0,
            draining: false,
        };
        let succ = m.next(&s0);
        let (_, ns) = succ
            .iter()
            .find(|(a, _)| *a == "slow_drain_evict")
            .expect("checkpoint must fire");
        assert_eq!(ns.used, 0);
        assert_eq!(
            ns.conns[0],
            ConnSlot::Evicted { by_shed: false, was_slow: true }
        );
    }
}

// ---------------------------------------------------------------------
// Sharded overload control (two-level degradation ladder).
// ---------------------------------------------------------------------

/// The `slshard` two-level degradation ladder as a small exhaustive
/// model: `K = 2` shard hosts, each with its own byte budget and live
/// admission check (level one, the per-host [`Overload`] policy), under a
/// coordinator that sums shard occupancy against a *global* budget and
/// pushes the resulting pressure tier into every shard as a **floor**
/// (level two). A shard admits only when its *effective* tier —
/// `max(own, floor)` — is Nominal.
///
/// The shape flag mirrors [`Overload`]: with `sublayered: true` the
/// floor is a *staged* copy, updated only by an explicit `push_floor`
/// transition (the coordinator's flush round) — the cross-shard boundary
/// makes the global signal stale by up to `lag` fleet-wide admissions.
/// With `sublayered: false` the global check is fused: every transition
/// re-derives the floor from live total occupancy. Each shard's *own*
/// tier is live in both shapes (a host always sees its own table); what
/// the model isolates is the staleness of the **cross-shard** signal.
///
/// The checker proves budget-never-exceeded at *both* levels — every
/// shard's occupancy within its own budget, and the fleet total within
/// the global budget — for the fused shape unconditionally and for the
/// staged shape while `lag × resp` fits in the global headroom above the
/// Nominal threshold; one admission more and it exhibits the global
/// overrun trace (with per-shard budgets still intact, isolating the
/// failure to ladder level two).
pub struct ShardedOverload {
    /// Per-shard byte budget (abstract units).
    pub sbudget: u8,
    /// Global byte budget across both shards.
    pub gbudget: u8,
    /// Units buffered per admitted connection.
    pub resp: u8,
    /// Fleet-wide admissions the shards may perform between floor
    /// pushes; only meaningful in the sublayered shape.
    pub lag: u8,
    /// Staged floor propagation (true) or fused global check (false).
    pub sublayered: bool,
}

const SHARD_COUNT: usize = 2;
const SHARD_SLOTS: usize = 2;

/// One connection slot's lifecycle on a shard (no slow readers here —
/// [`Overload`] covers shed/evict; this model isolates the two budget
/// levels).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ShardSlot {
    Idle,
    Pending,
    /// Admitted and served: `buf` response units still buffered.
    Accepted { buf: u8 },
    Done,
    Refused,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ShardedOverloadState {
    conns: [[ShardSlot; SHARD_SLOTS]; SHARD_COUNT],
    /// Per-shard occupancy (maintained incrementally; the invariant
    /// re-derives it from the slots to catch leaks).
    used: [u8; SHARD_COUNT],
    /// The global-floor tier the shards read (0..=3). Live in the fused
    /// shape, staged in the sublayered shape.
    floor: u8,
    /// Fleet-wide admissions since `floor` was last pushed.
    stale_admits: u8,
    draining: bool,
}

impl ShardedOverloadState {
    /// Live fleet-wide occupancy.
    pub fn global_used(&self) -> u8 {
        self.used.iter().sum()
    }

    /// The floor tier the shards currently read.
    pub fn floor_tier(&self) -> u8 {
        self.floor
    }
}

impl ShardedOverload {
    /// Per-shard own tier from live shard occupancy — the same shared
    /// thresholds as `netsim::Pressure::from_occupancy`.
    fn own_tier(&self, used: u8) -> u8 {
        crate::relation::pressure_tier(used as u64, self.sbudget as u64)
    }

    fn global_tier(&self, s: &ShardedOverloadState) -> u8 {
        crate::relation::pressure_tier(s.global_used() as u64, self.gbudget as u64)
    }

    /// The tier shard `i`'s admission policy acts on.
    fn effective(&self, s: &ShardedOverloadState, i: usize) -> u8 {
        self.own_tier(s.used[i]).max(s.floor)
    }

    /// Fused shape: the coordinator's view is always current.
    fn settle(&self, ns: &mut ShardedOverloadState) {
        if !self.sublayered {
            ns.floor = self.global_tier(ns);
            ns.stale_admits = 0;
        }
    }
}

impl Model for ShardedOverload {
    type State = ShardedOverloadState;

    fn init(&self) -> Vec<ShardedOverloadState> {
        vec![ShardedOverloadState {
            conns: [[ShardSlot::Idle; SHARD_SLOTS]; SHARD_COUNT],
            used: [0; SHARD_COUNT],
            floor: 0,
            stale_admits: 0,
            draining: false,
        }]
    }

    fn next(&self, s: &ShardedOverloadState) -> Vec<(&'static str, ShardedOverloadState)> {
        let mut out = Vec::new();
        for sh in 0..SHARD_COUNT {
            for i in 0..SHARD_SLOTS {
                match s.conns[sh][i] {
                    ShardSlot::Idle => {
                        // The router keeps delivering SYNs regardless.
                        let mut ns = *s;
                        ns.conns[sh][i] = ShardSlot::Pending;
                        self.settle(&mut ns);
                        out.push(("arrive", ns));
                    }
                    ShardSlot::Pending => {
                        if s.draining || self.effective(s, sh) == 3 {
                            let mut ns = *s;
                            ns.conns[sh][i] = ShardSlot::Refused;
                            self.settle(&mut ns);
                            out.push(("refuse", ns));
                        } else if self.effective(s, sh) == 0
                            && s.stale_admits < self.lag
                        {
                            // Deferral at Elevated/High is the *absence*
                            // of this transition.
                            let mut ns = *s;
                            ns.conns[sh][i] = ShardSlot::Accepted { buf: self.resp };
                            ns.used[sh] += self.resp;
                            ns.stale_admits += 1;
                            self.settle(&mut ns);
                            out.push(("admit", ns));
                        }
                    }
                    ShardSlot::Accepted { buf } => {
                        if buf > 0 {
                            let mut ns = *s;
                            ns.conns[sh][i] = ShardSlot::Accepted { buf: buf - 1 };
                            ns.used[sh] -= 1;
                            self.settle(&mut ns);
                            out.push(("progress", ns));
                        } else {
                            let mut ns = *s;
                            ns.conns[sh][i] = ShardSlot::Done;
                            self.settle(&mut ns);
                            out.push(("complete", ns));
                        }
                    }
                    ShardSlot::Done | ShardSlot::Refused => {}
                }
            }
        }
        if !s.draining {
            let mut ns = *s;
            ns.draining = true;
            self.settle(&mut ns);
            out.push(("drain", ns));
        }
        if self.sublayered
            && (s.floor != self.global_tier(s) || s.stale_admits > 0)
        {
            // The coordinator's flush round: sum the (now-current) shard
            // samples and push the derived tier into every shard.
            let mut ns = *s;
            ns.floor = self.global_tier(&ns);
            ns.stale_admits = 0;
            out.push(("push_floor", ns));
        }
        out
    }

    fn invariant(&self, s: &ShardedOverloadState) -> Result<(), String> {
        for sh in 0..SHARD_COUNT {
            if s.used[sh] > self.sbudget {
                return Err(format!(
                    "shard budget exceeded: shard {sh} used {} > {} budget",
                    s.used[sh], self.sbudget
                ));
            }
            let derived: u8 = s.conns[sh]
                .iter()
                .map(|c| match c {
                    ShardSlot::Accepted { buf } => *buf,
                    _ => 0,
                })
                .sum();
            if derived != s.used[sh] {
                return Err(format!(
                    "shard {sh} accounting leaked: tracked {} != held {derived}",
                    s.used[sh]
                ));
            }
        }
        if s.global_used() > self.gbudget {
            return Err(format!(
                "global budget exceeded: {} used > {} budget",
                s.global_used(),
                self.gbudget
            ));
        }
        Ok(())
    }

    fn is_done(&self, s: &ShardedOverloadState) -> bool {
        s.conns
            .iter()
            .flatten()
            .all(|c| matches!(c, ShardSlot::Done | ShardSlot::Refused))
    }
}

#[cfg(test)]
mod sharded_overload_tests {
    use super::*;
    use crate::checker::check;

    fn model(sublayered: bool, sbudget: u8, gbudget: u8, lag: u8) -> ShardedOverload {
        ShardedOverload { sbudget, gbudget, resp: 2, lag, sublayered }
    }

    // sbudget 4, resp 2: shard-Nominal means used <= 1, so a shard peaks
    // at 3 <= 4. gbudget 5: global-Nominal means sum <= 2, so one
    // in-window admission (lag 1) peaks the fleet at 4 <= 5. Total demand
    // 2 shards x 2 slots x 2 units = 8 keeps both budgets contended.

    #[test]
    fn both_ladder_levels_hold_in_both_shapes() {
        for sublayered in [true, false] {
            let r = check(&model(sublayered, 4, 5, 1), 2_000_000);
            assert!(r.ok(), "sublayered={sublayered}: {r:?}");
            assert!(r.states > 100, "state space suspiciously small: {r:?}");
        }
    }

    #[test]
    fn stale_floor_window_can_blow_the_global_budget() {
        // Let two fleet-wide admissions ride one stale Nominal floor and
        // the checker exhibits the *global* overrun — with every
        // per-shard budget still intact (sbudget 8 keeps level one out of
        // the way), isolating the failure to ladder level two.
        let r = check(&model(true, 8, 5, 2), 2_000_000);
        let v = r.violation.expect("lag 2 must overrun a global budget of 5");
        assert!(v.reason.contains("global budget exceeded"), "{v:?}");
        let admits = v.actions.iter().filter(|a| **a == "admit").count();
        assert!(admits >= 2, "overrun needs back-to-back admits: {v:?}");
    }

    #[test]
    fn fused_global_check_is_immune_to_floor_lag() {
        // Fused coordination re-derives the floor on every transition, so
        // no lag value can smuggle admissions past the global check.
        for lag in [2, 3] {
            let r = check(&model(false, 8, 5, lag), 2_000_000);
            assert!(r.ok(), "lag={lag}: {r:?}");
        }
    }

    #[test]
    fn per_shard_level_holds_even_with_a_lazy_floor() {
        // An effectively inert global budget (never leaves Nominal) with
        // a generous lag: level one alone still keeps every shard within
        // its own budget — shard admission checks are live in both
        // shapes.
        for sublayered in [true, false] {
            let r = check(&model(sublayered, 4, 64, 3), 4_000_000);
            assert!(r.ok(), "sublayered={sublayered}: {r:?}");
        }
    }

    #[test]
    fn staged_floor_costs_state_space() {
        // The cross-shard boundary shows up as extra reachable states:
        // the staged floor decouples from live fleet occupancy.
        let sub = check(&model(true, 4, 5, 1), 2_000_000);
        let mono = check(&model(false, 4, 5, 1), 2_000_000);
        println!("sharded overload states: sub={} mono={}", sub.states, mono.states);
        assert!(sub.ok() && mono.ok());
        assert!(sub.states > mono.states, "sub {} <= mono {}", sub.states, mono.states);
    }
}

// ---------------------------------------------------------------------
// Shard fault domains (E21): crash isolation + supervised restart.
// ---------------------------------------------------------------------

/// The `slshard` fault-domain contract as a small exhaustive model:
/// `K = 2` shard hosts under the coordinator's staged pressure floor
/// (the [`ShardedOverload`] ladder), where one shard may **crash** at any
/// point. The crash aborts that shard's in-flight connections, zeroes its
/// occupancy, and starts the supervisor's clock: after `backoff`
/// coordinator rounds the shard is rebuilt and serves again.
///
/// The `isolate` flag is the design question this model answers. With
/// `isolate: true` (the shipped `catch_unwind` + typed-`ShardError`
/// boundary) a crash is contained to its own fault domain. With
/// `isolate: false` — the seed behavior, where a worker panic poisons the
/// shared ring lock and the coordinator's next `expect` takes the whole
/// process — the same crash aborts in-flight connections on the *healthy*
/// shard too, and the checker exhibits the foreign-shard-abort trace.
///
/// Proved for every interleaving of arrivals, admissions, progress,
/// crash, floor pushes, and restart:
///
/// * **isolation** — a connection is only ever aborted by its *own*
///   shard's crash (or by being routed to the dead shard while down);
/// * **budget soundness mid-failover** — per-shard budgets and the global
///   budget hold throughout, with the dead shard's occupancy zeroed the
///   moment it dies (the coordinator folds the loss into the floor at the
///   next push);
/// * **bounded downtime** — the dead shard is down for at most `backoff`
///   coordinator rounds (the supervisor's restart has priority over
///   further rounds once the backoff elapses);
/// * **restart liveness** — `is_done` additionally requires a crashed
///   shard to have been restarted, so `deadlocks == 0` proves every
///   schedule can bring the fleet back to full strength with the
///   restarted shard serving (pending connections admitted post-restart).
///
/// Rounds keep ticking while a shard is down (`push_floor` stays enabled
/// — the coordinator's `batch_due` poll); gate it on floor staleness
/// alone and the model deadlocks, which is exactly the hang the real
/// coordinator avoids.
pub struct ShardFail {
    /// Per-shard byte budget (abstract units).
    pub sbudget: u8,
    /// Global byte budget across both shards.
    pub gbudget: u8,
    /// Units buffered per admitted connection.
    pub resp: u8,
    /// Fleet-wide admissions the shards may perform between floor pushes.
    pub lag: u8,
    /// Coordinator rounds a dead shard waits before its supervised
    /// restart (the `RestartPolicy` backoff, in rounds).
    pub backoff: u8,
    /// Crash containment: `true` is the shipped fault boundary, `false`
    /// the seed's process-wide blast radius.
    pub isolate: bool,
}

const FAIL_SHARDS: usize = 2;
const FAIL_SLOTS: usize = 2;

/// One connection slot's lifecycle on a shard, extended with the typed
/// failure outcome a client observes when its shard dies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FailSlot {
    Idle,
    Pending,
    Accepted { buf: u8 },
    Done,
    Refused,
    /// Aborted by a shard death: connection state lost, client saw a
    /// typed error (`Reset` / `RetriesExhausted` / `PeerVanished`).
    Aborted,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ShardFailState {
    conns: [[FailSlot; FAIL_SLOTS]; FAIL_SHARDS],
    used: [u8; FAIL_SHARDS],
    /// Staged global-floor tier (0..=3) the shards read.
    floor: u8,
    stale_admits: u8,
    up: [bool; FAIL_SHARDS],
    /// Which shard crashed, if any (one crash per run bounds the space).
    crashed: Option<u8>,
    /// Coordinator rounds elapsed with the crashed shard down.
    down_rounds: u8,
    restarted: bool,
}

impl ShardFailState {
    pub fn global_used(&self) -> u8 {
        self.used.iter().sum()
    }
}

impl ShardFail {
    fn own_tier(&self, used: u8) -> u8 {
        crate::relation::pressure_tier(used as u64, self.sbudget as u64)
    }

    fn global_tier(&self, s: &ShardFailState) -> u8 {
        crate::relation::pressure_tier(s.global_used() as u64, self.gbudget as u64)
    }

    fn effective(&self, s: &ShardFailState, i: usize) -> u8 {
        self.own_tier(s.used[i]).max(s.floor)
    }

    fn any_down(s: &ShardFailState) -> bool {
        s.up.iter().any(|u| !u)
    }
}

impl Model for ShardFail {
    type State = ShardFailState;

    fn init(&self) -> Vec<ShardFailState> {
        vec![ShardFailState {
            conns: [[FailSlot::Idle; FAIL_SLOTS]; FAIL_SHARDS],
            used: [0; FAIL_SHARDS],
            floor: 0,
            stale_admits: 0,
            up: [true; FAIL_SHARDS],
            crashed: None,
            down_rounds: 0,
            restarted: false,
        }]
    }

    fn next(&self, s: &ShardFailState) -> Vec<(&'static str, ShardFailState)> {
        let mut out = Vec::new();
        for sh in 0..FAIL_SHARDS {
            for i in 0..FAIL_SLOTS {
                match s.conns[sh][i] {
                    FailSlot::Idle => {
                        // The router keeps delivering SYNs; whether the
                        // shard is up decides their fate below.
                        let mut ns = *s;
                        ns.conns[sh][i] = FailSlot::Pending;
                        out.push(("arrive", ns));
                    }
                    FailSlot::Pending if !s.up[sh] => {
                        // Routed to the dead shard: the coordinator drops
                        // the frame (`dead_drops`) and the client's retry
                        // budget eventually yields a typed error. The
                        // *absence* of a forced drop also lets a patient
                        // client be served after the restart.
                        let mut ns = *s;
                        ns.conns[sh][i] = FailSlot::Aborted;
                        out.push(("drop_dead_shard", ns));
                    }
                    FailSlot::Pending => {
                        if self.effective(s, sh) == 3 {
                            let mut ns = *s;
                            ns.conns[sh][i] = FailSlot::Refused;
                            out.push(("refuse", ns));
                        } else if self.effective(s, sh) == 0 && s.stale_admits < self.lag {
                            let mut ns = *s;
                            ns.conns[sh][i] = FailSlot::Accepted { buf: self.resp };
                            ns.used[sh] += self.resp;
                            ns.stale_admits += 1;
                            out.push(("admit", ns));
                        }
                    }
                    FailSlot::Accepted { buf } if s.up[sh] => {
                        if buf > 0 {
                            let mut ns = *s;
                            ns.conns[sh][i] = FailSlot::Accepted { buf: buf - 1 };
                            ns.used[sh] -= 1;
                            out.push(("progress", ns));
                        } else {
                            let mut ns = *s;
                            ns.conns[sh][i] = FailSlot::Done;
                            out.push(("complete", ns));
                        }
                    }
                    _ => {}
                }
            }
        }
        // One crash per run, on any still-healthy shard.
        if s.crashed.is_none() {
            for sh in 0..FAIL_SHARDS {
                let mut ns = *s;
                ns.up[sh] = false;
                ns.crashed = Some(sh as u8);
                ns.down_rounds = 0;
                // The dying shard's in-flight connections abort and its
                // occupancy is gone with the worker.
                for slot in ns.conns[sh].iter_mut() {
                    if matches!(slot, FailSlot::Accepted { .. }) {
                        *slot = FailSlot::Aborted;
                    }
                }
                ns.used[sh] = 0;
                if !self.isolate {
                    // Seed behavior: the panic poisons the shared ring
                    // lock; the coordinator's next `expect` takes every
                    // in-flight connection with it.
                    for other in 0..FAIL_SHARDS {
                        for slot in ns.conns[other].iter_mut() {
                            if matches!(slot, FailSlot::Accepted { .. }) {
                                *slot = FailSlot::Aborted;
                            }
                        }
                        ns.used[other] = 0;
                    }
                }
                out.push(("crash", ns));
            }
        }
        // The coordinator's flush round: re-derive the floor from live
        // shard samples (a dead shard contributes zero). Stays enabled
        // while a shard is down so the supervisor's clock advances — but
        // yields to the restart once the backoff has elapsed.
        let floor_stale = s.floor != self.global_tier(s) || s.stale_admits > 0;
        if (floor_stale || Self::any_down(s)) && s.down_rounds < self.backoff {
            let mut ns = *s;
            ns.floor = self.global_tier(&ns);
            ns.stale_admits = 0;
            if Self::any_down(&ns) {
                ns.down_rounds += 1;
            }
            out.push(("push_floor", ns));
        }
        // Supervised restart: a fresh worker from the factory, empty
        // tables, back in the routing rotation.
        if let Some(sh) = s.crashed {
            if !s.up[sh as usize] && s.down_rounds >= self.backoff {
                let mut ns = *s;
                ns.up[sh as usize] = true;
                ns.restarted = true;
                ns.down_rounds = 0;
                out.push(("restart", ns));
            }
        }
        out
    }

    fn invariant(&self, s: &ShardFailState) -> Result<(), String> {
        for sh in 0..FAIL_SHARDS {
            if s.used[sh] > self.sbudget {
                return Err(format!(
                    "shard budget exceeded mid-failover: shard {sh} used {} > {}",
                    s.used[sh], self.sbudget
                ));
            }
            let derived: u8 = s.conns[sh]
                .iter()
                .map(|c| match c {
                    FailSlot::Accepted { buf } => *buf,
                    _ => 0,
                })
                .sum();
            if derived != s.used[sh] {
                return Err(format!(
                    "shard {sh} accounting leaked: tracked {} != held {derived}",
                    s.used[sh]
                ));
            }
            if !s.up[sh] && s.used[sh] != 0 {
                return Err(format!(
                    "dead shard {sh} still holds {} units — loss not folded",
                    s.used[sh]
                ));
            }
            // Isolation: an aborted connection implies *this* shard is
            // the one that crashed.
            if s.conns[sh].iter().any(|c| matches!(c, FailSlot::Aborted))
                && s.crashed != Some(sh as u8)
            {
                return Err(format!(
                    "foreign shard abort: shard {sh} lost connections to shard \
                     {:?}'s crash",
                    s.crashed
                ));
            }
        }
        if s.global_used() > self.gbudget {
            return Err(format!(
                "global budget exceeded mid-failover: {} used > {}",
                s.global_used(),
                self.gbudget
            ));
        }
        if s.down_rounds > self.backoff {
            return Err(format!(
                "downtime exceeded the restart backoff: {} rounds > {}",
                s.down_rounds, self.backoff
            ));
        }
        Ok(())
    }

    fn is_done(&self, s: &ShardFailState) -> bool {
        s.conns
            .iter()
            .flatten()
            .all(|c| matches!(c, FailSlot::Done | FailSlot::Refused | FailSlot::Aborted))
            && s.up.iter().all(|u| *u)
            && (s.crashed.is_none() || s.restarted)
    }
}

#[cfg(test)]
mod shard_fail_tests {
    use super::*;
    use crate::checker::check;

    fn model(isolate: bool, backoff: u8) -> ShardFail {
        // Same contention profile as the ShardedOverload tests: shard
        // Nominal means used <= 1 (peak 3 <= 4), one in-window admission
        // keeps the fleet at 4 <= 5.
        ShardFail { sbudget: 4, gbudget: 5, resp: 2, lag: 1, backoff, isolate }
    }

    #[test]
    fn isolation_and_budgets_hold_through_crash_and_restart() {
        for backoff in [1, 2] {
            let r = check(&model(true, backoff), 5_000_000);
            assert!(r.ok(), "backoff={backoff}: {r:?}");
            assert!(r.states > 1_000, "state space suspiciously small: {r:?}");
        }
    }

    #[test]
    fn seed_blast_radius_exhibits_foreign_shard_abort() {
        let r = check(&model(false, 2), 5_000_000);
        let v = r.violation.expect("uncontained crash must abort foreign connections");
        assert!(v.reason.contains("foreign shard abort"), "{v:?}");
        assert!(
            v.actions.contains(&"crash"),
            "counterexample must include the crash: {v:?}"
        );
    }

    #[test]
    fn restart_liveness_no_schedule_strands_the_fleet() {
        // `is_done` demands the crashed shard be restarted and every
        // connection resolved; zero deadlocks means no interleaving —
        // crash before, during, or after traffic — can strand the fleet.
        let r = check(&model(true, 2), 5_000_000);
        assert_eq!(r.deadlocks, 0, "{r:?}");
        assert!(r.violation.is_none(), "{r:?}");
    }

    #[test]
    fn rounds_must_keep_ticking_while_a_shard_is_down() {
        // A crash with no traffic at all: the only path to the restart is
        // push_floor advancing the supervisor's clock. This is the
        // coordinator's `batch_due` poll as a liveness requirement.
        let m = model(true, 3);
        let mut s = m.init().remove(0);
        s.up[0] = false;
        s.crashed = Some(0);
        for round in 0..3 {
            assert_eq!(s.down_rounds, round);
            let next = m.next(&s);
            let (_, ns) = next
                .iter()
                .find(|(a, _)| *a == "push_floor")
                .expect("push_floor must stay enabled while a shard is down");
            s = *ns;
        }
        let next = m.next(&s);
        assert!(
            next.iter().any(|(a, _)| *a == "restart"),
            "backoff elapsed: restart must be enabled"
        );
    }
}

// ---------------------------------------------------------------------
// Congestion-control contract (assume/guarantee over real controllers).
// ---------------------------------------------------------------------

use netsim::Time;
use slcc::{CongSignal, RateController, ALLOWANCE_FLOOR, MSS};

/// The congestion-control contract model: an assume/guarantee check run
/// against the **real** shipped [`RateController`] implementations, not a
/// re-model of them.
///
/// *Assumptions* (what the feeder — RD in the sublayered stack, the pcb
/// ack path in `tcp-mono` — promises about the signal stream): outside a
/// loss episode it speaks `Acked`/`EcnEcho`/`DupAckLoss`/`TimeoutLoss`;
/// once `DupAckLoss` opens an episode it speaks only
/// `DupAck`/`PartialAck`/`FullAck`/`TimeoutLoss` until `FullAck` or
/// `TimeoutLoss` closes it. The model's `episode` flag *is* the feeder's
/// recovery bookkeeping (`in_recovery` in RD, `in_fast_recovery` in the
/// PCB) — deliberately separate from the controller's own
/// [`RateController::in_recovery`], so a controller that loses track of
/// the episode is caught rather than trusted.
///
/// *Guarantees* (checked in every reachable state; the obligations are
/// computed from the pre-state/action in [`Model::next`] and carried in
/// the successor so the per-transition contract becomes a plain state
/// invariant):
///
/// 1. `allowance()` never drops below [`ALLOWANCE_FLOOR`] — below one MSS
///    nothing can be in flight, so no acks ever arrive and the connection
///    deadlocks silently;
/// 2. `ssthresh` never increases on a transition taken *from* an open
///    episode (the inflated in-recovery window is not evidence of
///    capacity), which by induction makes it non-increasing across the
///    whole episode including the closing transition;
/// 3. slow-start exit is permanent until the next loss: an `Acked` taken
///    from congestion avoidance (`allowance ≥ ssthresh`) may not drop the
///    controller back below its threshold;
/// 4. recovery terminates: the closing signals (`FullAck`,
///    `TimeoutLoss`) leave [`RateController::in_recovery`] false.
///
/// Every name in [`slcc::SHIPPED`] passes; [`slcc::BuggyDeflate`] — whose
/// partial-ack deflation lost the 1-MSS floor in a plausible refactor
/// slip — is starved to a zero allowance by the checker in a handful of
/// partial acks (guarantee 1), the promised counterexample.
pub struct CongCtrl {
    template: Box<dyn RateController>,
    /// Depth bound: signals delivered before the run is considered done.
    pub max_ticks: u8,
}

/// Nominal inter-signal spacing — the clock handed to time-aware
/// controllers (CUBIC's growth epoch) advances this much per tick.
const CC_TICK_NS: u64 = 100_000_000;

impl CongCtrl {
    pub fn new(template: Box<dyn RateController>, max_ticks: u8) -> CongCtrl {
        CongCtrl { template, max_ticks }
    }

    /// Model over a shipped controller by [`slcc::make`] name.
    pub fn shipped(name: &str) -> CongCtrl {
        CongCtrl::new(slcc::make(name).expect("shipped controller name"), 8)
    }

    /// Model over the deliberately broken controller (the counterexample
    /// generator).
    pub fn buggy() -> CongCtrl {
        CongCtrl::new(Box::new(slcc::BuggyDeflate::new()), 8)
    }

    fn step(
        &self,
        s: &CongCtrlState,
        now: Time,
        sig: CongSignal,
        episode_after: bool,
    ) -> CongCtrlState {
        let mut ctrl = s.ctrl.clone();
        ctrl.with(|c| c.on_signal(now, sig));
        CongCtrlState {
            // Guarantee 2: transitions from an open episode may not raise
            // ssthresh above the pre-state's value.
            ssthresh_cap: if s.episode { s.ctrl.ssthresh() } else { None },
            // Guarantee 3: growth from congestion avoidance stays there.
            must_stay_ca: matches!(sig, CongSignal::Acked { .. })
                && s.ctrl.ssthresh().is_some_and(|t| s.ctrl.allowance(now) >= t),
            // Guarantee 4: the closing signals actually close.
            must_close: matches!(
                sig,
                CongSignal::FullAck { .. } | CongSignal::TimeoutLoss
            ),
            ctrl,
            tick: s.tick + 1,
            episode: episode_after,
        }
    }
}

/// A model state: the live controller plus the feeder's episode view and
/// the guarantee obligations its incoming transition imposed.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CongCtrlState {
    /// Keyed by [`RateController::state_key`] — equal keys promise
    /// behaviorally equal controllers.
    ctrl: Keyed<Box<dyn RateController>>,
    tick: u8,
    /// Feeder bookkeeping: a loss episode is open.
    episode: bool,
    ssthresh_cap: Option<u64>,
    must_stay_ca: bool,
    must_close: bool,
}

impl Model for CongCtrl {
    type State = CongCtrlState;

    fn init(&self) -> Vec<CongCtrlState> {
        vec![CongCtrlState {
            ctrl: Keyed::new(self.template.clone(), |c| c.state_key()),
            tick: 0,
            episode: false,
            ssthresh_cap: None,
            must_stay_ca: false,
            must_close: false,
        }]
    }

    fn next(&self, s: &CongCtrlState) -> Vec<(&'static str, CongCtrlState)> {
        if s.tick >= self.max_ticks {
            return vec![];
        }
        let now = Time(s.tick as u64 * CC_TICK_NS);
        let b = MSS as u32;
        if s.episode {
            // In-episode alphabet: the feeder classifies every ack
            // against the recovery point.
            vec![
                ("dupack", self.step(s, now, CongSignal::DupAck, true)),
                ("partial_ack", self.step(s, now, CongSignal::PartialAck { bytes: b }, true)),
                (
                    "full_ack",
                    self.step(s, now, CongSignal::FullAck { bytes: b, rtt: None }, false),
                ),
                ("timeout", self.step(s, now, CongSignal::TimeoutLoss, false)),
            ]
        } else {
            vec![
                ("acked", self.step(s, now, CongSignal::Acked { bytes: b, rtt: None }, false)),
                ("ecn_echo", self.step(s, now, CongSignal::EcnEcho, false)),
                ("dupack_loss", self.step(s, now, CongSignal::DupAckLoss, true)),
                ("timeout", self.step(s, now, CongSignal::TimeoutLoss, false)),
            ]
        }
    }

    fn invariant(&self, s: &CongCtrlState) -> Result<(), String> {
        let now = Time(s.tick as u64 * CC_TICK_NS);
        let allowance = s.ctrl.allowance(now);
        if allowance < ALLOWANCE_FLOOR {
            return Err(format!(
                "allowance {allowance} fell below the {ALLOWANCE_FLOOR}-byte floor: \
                 nothing can be in flight, the connection deadlocks"
            ));
        }
        if let (Some(cap), Some(cur)) = (s.ssthresh_cap, s.ctrl.ssthresh()) {
            if cur > cap {
                return Err(format!(
                    "ssthresh raised {cap} -> {cur} while a loss episode was open"
                ));
            }
        }
        if s.must_stay_ca {
            if let Some(t) = s.ctrl.ssthresh() {
                if allowance < t {
                    return Err(format!(
                        "slow-start exit not permanent: growth ack dropped \
                         allowance {allowance} below ssthresh {t} with no loss"
                    ));
                }
            }
        }
        if s.must_close && s.ctrl.in_recovery() {
            return Err(
                "recovery did not terminate: controller still in recovery \
                 after a FullAck/TimeoutLoss"
                    .to_string(),
            );
        }
        Ok(())
    }

    fn is_done(&self, s: &CongCtrlState) -> bool {
        s.tick >= self.max_ticks
    }
}

#[cfg(test)]
mod congctrl_tests {
    use super::*;
    use crate::checker::check;

    const CC_STATES: usize = 2_000_000;

    #[test]
    fn every_shipped_controller_honors_the_contract_exact_counts_pinned() {
        // (states, transitions) at depth 8. fixed-window's controller state
        // never moves, so its space is just the tick x episode x obligation
        // product; a change to a `state_key` moves the others.
        let want = [
            ("newreno", 218, 596),
            ("cubic", 1742, 3748),
            ("rate-based", 7788, 14012),
            ("fixed-window", 25, 88),
        ];
        assert_eq!(slcc::SHIPPED, want.map(|(name, ..)| name));
        for (name, states, transitions) in want {
            let r = check(&CongCtrl::shipped(name), CC_STATES);
            assert!(r.ok(), "{name}: {r:?}");
            assert_eq!((r.states, r.transitions, r.max_depth), (states, transitions, 8), "{name}");
        }
    }

    #[test]
    fn reno_alias_is_checked_too() {
        let r = check(&CongCtrl::shipped("reno"), CC_STATES);
        assert!(r.ok(), "{r:?}");
    }

    #[test]
    fn buggy_deflate_is_starved_by_partial_acks() {
        // The promised counterexample: the broken deflation loses the
        // 1-MSS floor, so a loss followed by enough partial acks walks
        // the allowance to zero — guarantee 1, found as a concrete trace.
        let r = check(&CongCtrl::buggy(), CC_STATES);
        let v = r.violation.expect("BuggyDeflate must violate the floor");
        assert!(v.reason.contains("below the"), "{v:?}");
        assert_eq!(v.actions.first(), Some(&"dupack_loss"), "{v:?}");
        assert!(
            v.actions[1..].iter().all(|a| *a == "partial_ack"),
            "shortest starvation is pure partial acks: {v:?}"
        );
    }

    #[test]
    fn deeper_bound_still_passes_for_newreno() {
        // The default depth is conservative; make sure nothing lurks just
        // past it for the default controller.
        let mut m = CongCtrl::shipped("newreno");
        m.max_ticks = 10;
        let r = check(&m, CC_STATES);
        assert!(r.ok(), "{r:?}");
    }
}
