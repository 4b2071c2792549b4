//! Leapfrog codec-equivalence certificate (satellite of the E22
//! compositional chain).
//!
//! The paper's §3.1 claim is that the native sublayered header is
//! *isomorphic* to RFC 793 — every field of one format appears in the
//! other. This module turns that claim into a machine-checked certificate:
//! [`CodecEquiv`] is a **product automaton** that walks the two wire
//! codecs — `slwire::native::Packet` and `slwire::rfc793::Segment`, two
//! modules of the one dependency-free `slwire` crate, neither built on
//! the other — in lockstep over an abstract segment alphabet (every flag
//! combination × wrap-edge sequence numbers × window and payload
//! extremes). In every reachable state the invariant demands:
//!
//! 1. **round trip**: each codec decodes its own encoding back to the
//!    exact structure it encoded;
//! 2. **equivalence**: both encodings normalize to the *same* [`RawSeg`]
//!    through this crate's [`Kind`] taps — the same normalization the
//!    differential harness judges live traffic with, so the certificate
//!    and the harness can never drift apart;
//! 3. **distinguishability**: neither format's frame is mistaken for a
//!    meaningful frame of the other (the native magic byte, and the
//!    checksum on the RFC 793 side, keep the two codecs honest on a
//!    shared network).
//!
//! The exploration is exhaustive over the alphabet (the automaton is a
//! product of toggles and selector cycles, so BFS reaches all
//! [`ALPHABET`] words), and [`certify`] refuses a partial walk. The
//! seeded mutation arm ([`CodecEquiv::skewed`]) mis-encodes the window
//! field on one side only; the certificate catches it with the shortest
//! counterexample, pinned in the tests.

use crate::wire::{Kind, RawSeg};
use slverify::Model;
use slwire::native::{CmFlags, CmHeader, DmHeader, OsrHeader, Packet, RdHeader};
use slwire::rfc793::{Endpoint, Segment, ACK, FIN, MIN_SEGMENT_BYTES, RST, SYN};

/// Sequence-number alphabet: zero and both wrap edges.
pub const SEQ_CHOICES: [u32; 3] = [0, 0x7FFF_FFFF, u32::MAX];
/// Cumulative-ack alphabet.
pub const ACK_CHOICES: [u32; 3] = [0, 1, 0x8000_0000];
/// Receive-window alphabet: closed, minimal, maximal.
pub const WND_CHOICES: [u16; 3] = [0, 1, u16::MAX];
/// Payload-length alphabet.
pub const LEN_CHOICES: [usize; 3] = [0, 1, 3];

/// Words in the abstract alphabet: 2^4 flag combinations × 3^4 selectors.
pub const ALPHABET: usize = 16 * 81;

/// One abstract segment: what both codecs are asked to say.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct AbsWord {
    pub syn: bool,
    pub fin: bool,
    pub rst: bool,
    pub ack: bool,
    pub seq_i: u8,
    pub ack_i: u8,
    pub wnd_i: u8,
    pub len_i: u8,
}

fn src() -> Endpoint {
    Endpoint::new(0x0A00_0001, 5000)
}

fn dst() -> Endpoint {
    Endpoint::new(0x0A00_0002, 80)
}

impl AbsWord {
    fn seq(self) -> u32 {
        SEQ_CHOICES[self.seq_i as usize]
    }

    fn ack_no(self) -> u32 {
        if self.ack {
            ACK_CHOICES[self.ack_i as usize]
        } else {
            0
        }
    }

    fn wnd(self) -> u16 {
        WND_CHOICES[self.wnd_i as usize]
    }

    fn payload(self) -> Vec<u8> {
        vec![0xA5; LEN_CHOICES[self.len_i as usize]]
    }

    /// This word in the monolithic RFC 793 format.
    pub fn to_mono(self) -> Segment {
        let mut flags = 0u8;
        if self.syn {
            flags |= SYN;
        }
        if self.fin {
            flags |= FIN;
        }
        if self.rst {
            flags |= RST;
        }
        if self.ack {
            flags |= ACK;
        }
        Segment {
            src: src(),
            dst: dst(),
            seq: self.seq(),
            ack: self.ack_no(),
            flags,
            wnd: self.wnd(),
            mss: None,
            payload: self.payload(),
        }
    }

    /// The same word in the native sublayered format. Each abstract field
    /// lands in exactly one sublayer's bits — the paper's Figure 6.
    pub fn to_sub(self) -> Packet {
        Packet {
            src_addr: src().addr,
            dst_addr: dst().addr,
            dm: DmHeader { src_port: src().port, dst_port: dst().port },
            cm: CmHeader {
                flags: CmFlags {
                    syn: self.syn,
                    fin: self.fin,
                    rst: self.rst,
                    cm_ack: false,
                },
                isn: self.seq(),
                ack_isn: 0,
            },
            rd: RdHeader {
                seq: self.seq(),
                ack: self.ack_no(),
                has_ack: self.ack,
                sack: Default::default(),
            },
            osr: OsrHeader { ecn_echo: false, rcv_wnd: self.wnd() },
            payload: self.payload().into(),
        }
    }
}

/// The product automaton over the abstract alphabet. `skew` arms the
/// seeded mutation: the monolithic side mis-encodes the window by one —
/// the kind of silent off-by-one a hand-written shim could introduce —
/// which the equivalence invariant must catch.
pub struct CodecEquiv {
    skew: bool,
}

impl CodecEquiv {
    pub fn honest() -> CodecEquiv {
        CodecEquiv { skew: false }
    }

    pub fn skewed() -> CodecEquiv {
        CodecEquiv { skew: true }
    }
}

impl Model for CodecEquiv {
    type State = AbsWord;

    fn init(&self) -> Vec<AbsWord> {
        vec![AbsWord::default()]
    }

    fn next(&self, s: &AbsWord) -> Vec<(&'static str, AbsWord)> {
        let mut out = Vec::with_capacity(8);
        let mut t = *s;
        t.syn = !t.syn;
        out.push(("syn", t));
        let mut t = *s;
        t.fin = !t.fin;
        out.push(("fin", t));
        let mut t = *s;
        t.rst = !t.rst;
        out.push(("rst", t));
        let mut t = *s;
        t.ack = !t.ack;
        out.push(("ack", t));
        let mut t = *s;
        t.seq_i = (t.seq_i + 1) % 3;
        out.push(("seq", t));
        let mut t = *s;
        t.ack_i = (t.ack_i + 1) % 3;
        out.push(("ackno", t));
        let mut t = *s;
        t.wnd_i = (t.wnd_i + 1) % 3;
        out.push(("wnd", t));
        let mut t = *s;
        t.len_i = (t.len_i + 1) % 3;
        out.push(("len", t));
        out
    }

    fn invariant(&self, s: &AbsWord) -> Result<(), String> {
        let mut mono = s.to_mono();
        if self.skew && mono.wnd != u16::MAX {
            mono.wnd += 1;
        }
        let sub = s.to_sub();
        let mono_bytes = mono.encode();
        let sub_bytes = sub.encode();

        // 1. Round trip: each codec is lossless on its own format.
        if mono_bytes.len() < MIN_SEGMENT_BYTES {
            return Err(format!("mono frame below the format floor: {}", mono_bytes.len()));
        }
        match Segment::decode(&mono_bytes) {
            Ok(back) if back == mono => {}
            other => return Err(format!("mono codec not lossless at {s:?}: {other:?}")),
        }
        match Packet::decode(&sub_bytes) {
            Ok(back) if back == sub => {}
            other => return Err(format!("sub codec not lossless at {s:?}: {other:?}")),
        }

        // 2. Equivalence through the harness taps: both formats say the
        // same abstract thing.
        let m: RawSeg = Kind::Mono
            .decode(&mono_bytes)
            .ok_or_else(|| format!("mono tap rejected its own frame at {s:?}"))?;
        let n: RawSeg = Kind::Sub
            .decode(&sub_bytes)
            .ok_or_else(|| format!("sub tap rejected its own frame at {s:?}"))?;
        if m != n {
            return Err(format!(
                "codec divergence at {s:?}: mono normalizes to {m:?}, sub to {n:?}"
            ));
        }

        // 3. Distinguishability: the native magic byte keeps a sub frame
        // from ever parsing as itself in the other codec, and vice versa
        // (the RFC side's checksum or structure must reject, or at worst
        // mis-parse to something visibly different).
        if Packet::decode(&mono_bytes).is_ok() {
            return Err(format!("mono frame accepted by the sub codec at {s:?}"));
        }
        if let Ok(conf) = Segment::decode(&sub_bytes) {
            if conf == mono {
                return Err(format!("sub frame parsed as the equivalent mono frame at {s:?}"));
            }
        }
        Ok(())
    }

    fn is_done(&self, _s: &AbsWord) -> bool {
        // Every word has successors (toggles are total), so the walk never
        // deadlocks; any word is a legitimate resting point.
        true
    }
}

/// The certificate: exhaustive equivalence over the whole alphabet.
#[derive(Clone, Copy, Debug)]
pub struct CodecCert {
    /// Words checked (must equal [`ALPHABET`]).
    pub words: usize,
    /// Lockstep transitions taken.
    pub transitions: usize,
}

/// Run the product automaton to exhaustion and issue the certificate.
/// Errs with the counterexample if the codecs diverge anywhere, and
/// refuses to certify a partial walk.
pub fn certify(max_states: usize) -> Result<CodecCert, String> {
    let r = slverify::check(&CodecEquiv::honest(), max_states);
    if let Some(v) = r.violation {
        return Err(format!("codec equivalence refuted ({}) after {:?}", v.reason, v.actions));
    }
    if !r.ok() {
        return Err(format!(
            "walk incomplete (deadlocks {}, truncated {}) — no certificate",
            r.deadlocks, r.truncated
        ));
    }
    if r.states != ALPHABET {
        return Err(format!(
            "alphabet not fully covered: {} of {ALPHABET} words — no certificate",
            r.states
        ));
    }
    Ok(CodecCert { words: r.states, transitions: r.transitions })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificate_covers_the_full_alphabet() {
        let cert = certify(10_000).expect("the shipped codecs are equivalent");
        assert_eq!(cert.words, ALPHABET);
        // 8 moves from every word, all staying inside the alphabet.
        assert_eq!(cert.transitions, ALPHABET * 8);
    }

    #[test]
    fn skewed_encoder_is_caught_with_shortest_counterexample() {
        let r = slverify::check(&CodecEquiv::skewed(), 10_000);
        let v = r.violation.expect("a window skew must refute equivalence");
        // The initial word has wnd = 0, already skewed to 1 on the mono
        // side: the divergence is found before a single transition.
        assert_eq!(v.actions, Vec::<&str>::new(), "{v:?}");
        assert!(v.reason.contains("codec divergence"), "{v:?}");
    }

    #[test]
    fn taps_agree_with_direct_decoding_on_a_sample_word() {
        // The cross-check the module doc promises: the certificate's
        // normalization is the harness's own `Kind` tap, not a private
        // re-implementation.
        let w = AbsWord { syn: true, ack: true, seq_i: 1, ack_i: 2, wnd_i: 2, len_i: 1, ..AbsWord::default() };
        let m = Kind::Mono.decode(&w.to_mono().encode()).unwrap();
        let s = Kind::Sub.decode(&w.to_sub().encode()).unwrap();
        assert_eq!(m, s);
        assert_eq!(m.seq, SEQ_CHOICES[1]);
        assert_eq!(m.ack_no, ACK_CHOICES[2]);
        assert_eq!(m.wnd, u16::MAX as u32);
        assert_eq!(m.seq_len, 2); // one payload byte + SYN
    }

    #[test]
    fn alphabet_floor_matches_the_mono_format_floor() {
        // The smallest word's mono encoding sits exactly on the format
        // floor tcp-mono now exports.
        assert_eq!(AbsWord::default().to_mono().encode().len(), MIN_SEGMENT_BYTES);
    }
}
