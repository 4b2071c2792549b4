//! Per-format wire knowledge: decode either stack's frames into one
//! segment shape, and forge byte-precise injections.
//!
//! The two stacks speak different wire formats (the sublayered native
//! header vs RFC 793), so the harness normalizes both into [`RawSeg`] —
//! flags, sequence span, cumulative ack, window — before any comparison
//! or oracle judgment. This is also the one forger: the harness's aimed
//! injections, the NAT's RST replies and the `bench::attack` campaign's
//! attacker ([`AttackCodec`]) all build an RST, SYN or data segment here,
//! in the victim's own format with an honest window field, so only the
//! aimed field is adversarial.

use netsim::{AttackCodec, SnoopInfo};
use slwire::native::{CmFlags, CmHeader, DmHeader, OsrHeader, Packet, Payload, RdHeader};
use slwire::rfc793::{Segment, ACK, RST, SYN};
use slwire::Endpoint;

/// Which stack implementation a run drives, and so which wire format it
/// speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Sub,
    Mono,
}

/// One decoded frame, format-neutral. Sequence numbers are still in wire
/// space; `absseg` rebases them against the learned ISNs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawSeg {
    pub syn: bool,
    pub fin: bool,
    pub rst: bool,
    /// Carries a meaningful cumulative ack.
    pub ack: bool,
    /// First wire sequence number this segment occupies (the ISN itself
    /// for a SYN).
    pub seq: u32,
    /// Sequence space consumed (payload + SYN + FIN — both formats give
    /// SYN and FIN one sequence number each).
    pub seq_len: u32,
    /// Payload bytes.
    pub len: u32,
    /// Cumulative ack (next expected wire sequence), valid when `ack`.
    pub ack_no: u32,
    /// Advertised receive window.
    pub wnd: u32,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Mono => "mono",
            Kind::Sub => "sub",
        }
    }

    /// Decode one frame; `None` for frames this format cannot parse.
    pub fn decode(self, frame: &[u8]) -> Option<RawSeg> {
        match self {
            Kind::Mono => {
                let s = Segment::decode(frame).ok()?;
                Some(RawSeg {
                    syn: s.syn(),
                    fin: s.fin(),
                    rst: s.rst(),
                    ack: s.ack_flag(),
                    seq: s.seq,
                    seq_len: s.seq_len(),
                    len: s.payload.len() as u32,
                    ack_no: s.ack,
                    wnd: s.wnd as u32,
                })
            }
            Kind::Sub => {
                let p = Packet::decode(frame).ok()?;
                let syn = p.cm.flags.syn;
                // RD acks ride `rd.ack`; pure handshake acks ride the CM
                // subheader as `ack_isn` (acknowledging the peer's ISN,
                // i.e. next expected = isn + 1).
                let (ack, ack_no) = if p.rd.has_ack {
                    (true, p.rd.ack)
                } else if p.cm.flags.cm_ack {
                    (true, p.cm.ack_isn.wrapping_add(1))
                } else {
                    (false, 0)
                };
                // Calibrated against live traces: the CM FIN consumes one
                // RD sequence number (the peer acks fin_seq + 1) even
                // though the flag rides the CM subheader.
                Some(RawSeg {
                    syn,
                    fin: p.cm.flags.fin,
                    rst: p.cm.flags.rst,
                    ack,
                    seq: if syn { p.cm.isn } else { p.rd.seq },
                    seq_len: p.payload.len() as u32 + syn as u32 + p.cm.flags.fin as u32,
                    len: p.payload.len() as u32,
                    ack_no,
                    wnd: p.osr.rcv_wnd as u32,
                })
            }
        }
    }

    /// Forge an off-path RST claiming to come from `src`, aimed at wire
    /// sequence `seq`.
    pub fn forge_rst(self, src: Endpoint, dst: Endpoint, seq: u32) -> Vec<u8> {
        match self {
            Kind::Mono => Segment {
                src,
                dst,
                seq,
                ack: 0,
                flags: RST,
                wnd: 0,
                mss: None,
                payload: Vec::new(),
            }
            .encode(),
            Kind::Sub => {
                let mut p = sub_base(src, dst);
                p.cm.flags = CmFlags { rst: true, ..CmFlags::default() };
                p.rd.seq = seq;
                p.encode()
            }
        }
    }

    /// Forge a duplicate SYN for an already-established tuple.
    pub fn forge_syn(self, src: Endpoint, dst: Endpoint, isn: u32) -> Vec<u8> {
        match self {
            Kind::Mono => Segment {
                src,
                dst,
                seq: isn,
                ack: 0,
                flags: SYN,
                wnd: u16::MAX,
                mss: Some(1400),
                payload: Vec::new(),
            }
            .encode(),
            Kind::Sub => {
                let mut p = sub_base(src, dst);
                p.cm.flags = CmFlags { syn: true, ..CmFlags::default() };
                p.cm.isn = isn;
                p.encode()
            }
        }
    }

    /// Rewrite a frame's cumulative ack forward by `delta` — the seeded
    /// mutation for the harness's own mutation tests. `None` if the frame
    /// carries no ack to corrupt.
    pub fn bump_ack(self, frame: &[u8], delta: u32) -> Option<Vec<u8>> {
        match self {
            Kind::Mono => {
                let mut s = Segment::decode(frame).ok()?;
                if !s.ack_flag() {
                    return None;
                }
                s.ack = s.ack.wrapping_add(delta);
                Some(s.encode())
            }
            Kind::Sub => {
                let mut p = Packet::decode(frame).ok()?;
                if !p.rd.has_ack {
                    return None;
                }
                p.rd.ack = p.rd.ack.wrapping_add(delta);
                Some(p.encode())
            }
        }
    }
}

fn sub_base(src: Endpoint, dst: Endpoint) -> Packet {
    Packet {
        src_addr: src.addr,
        dst_addr: dst.addr,
        dm: DmHeader { src_port: src.port, dst_port: dst.port },
        cm: CmHeader::default(),
        rd: RdHeader::default(),
        // An honest window so a forged (then discarded) header can never
        // zero-window-poison the victim's flow control.
        osr: OsrHeader { ecn_echo: false, rcv_wnd: u16::MAX },
        payload: Payload::default(),
    }
}

/// The attacker's wire knowledge: continue a snooped flow in its own
/// direction, or open one from a spoofed source.
impl AttackCodec for Kind {
    fn snoop(&self, frame: &[u8]) -> Option<SnoopInfo> {
        let (src, dst, next_seq, ack, syn, rst) = match self {
            Kind::Mono => {
                let s = Segment::decode(frame).ok()?;
                let ack = s.ack_flag().then_some(s.ack);
                (s.src, s.dst, s.seq.wrapping_add(s.seq_len()), ack, s.syn(), s.rst())
            }
            Kind::Sub => {
                let p = Packet::decode(frame).ok()?;
                // A SYN's successor in the receiver's RD space is isn + 1;
                // data advances by its payload length.
                let next_seq = if p.cm.flags.syn {
                    p.cm.isn.wrapping_add(1)
                } else {
                    p.rd.seq.wrapping_add(p.payload.len() as u32)
                };
                let ack = p.rd.has_ack.then_some(p.rd.ack);
                (p.src(), p.dst(), next_seq, ack, p.cm.flags.syn, p.cm.flags.rst)
            }
        };
        Some(SnoopInfo {
            src_addr: src.addr,
            src_port: src.port,
            dst_addr: dst.addr,
            dst_port: dst.port,
            next_seq,
            ack,
            syn,
            rst,
        })
    }
    fn forge_rst(&self, flow: &SnoopInfo, seq: u32) -> Vec<u8> {
        let (src, dst) = ends(flow);
        Kind::forge_rst(*self, src, dst, seq)
    }
    fn forge_syn(&self, flow: &SnoopInfo, isn: u32) -> Vec<u8> {
        let (src, dst) = ends(flow);
        Kind::forge_syn(*self, src, dst, isn)
    }
    fn forge_data(&self, flow: &SnoopInfo, seq: u32, payload: &[u8]) -> Vec<u8> {
        let (src, dst) = ends(flow);
        match self {
            Kind::Mono => Segment {
                src,
                dst,
                seq,
                ack: flow.ack.unwrap_or(0),
                flags: ACK,
                wnd: u16::MAX,
                mss: None,
                payload: payload.to_vec(),
            }
            .encode(),
            Kind::Sub => {
                let mut p = sub_base(src, dst);
                p.rd.seq = seq;
                p.rd.has_ack = flow.ack.is_some();
                p.rd.ack = flow.ack.unwrap_or(0);
                p.payload = payload.into();
                p.encode()
            }
        }
    }
    fn forge_syn_to(&self, sa: u32, sp: u16, da: u32, dp: u16, isn: u32) -> Vec<u8> {
        Kind::forge_syn(*self, Endpoint::new(sa, sp), Endpoint::new(da, dp), isn)
    }
}

fn ends(flow: &SnoopInfo) -> (Endpoint, Endpoint) {
    (Endpoint::new(flow.src_addr, flow.src_port), Endpoint::new(flow.dst_addr, flow.dst_port))
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Endpoint = Endpoint { addr: 0x0A000001, port: 5000 };
    const B: Endpoint = Endpoint { addr: 0x0A000002, port: 80 };

    #[test]
    fn forged_rsts_decode_as_rsts_in_both_formats() {
        for w in [Kind::Mono, Kind::Sub] {
            let bytes = w.forge_rst(B, A, 0x1234);
            let seg = w.decode(&bytes).expect("own forgery must decode");
            assert!(seg.rst, "{}", w.label());
            assert_eq!(seg.seq, 0x1234);
            assert!(!seg.syn && !seg.fin);
            // The other format must not mis-parse it.
            let other = if w == Kind::Mono { Kind::Sub } else { Kind::Mono };
            assert!(other.decode(&bytes).is_none_or(|s| !s.rst || s.seq != 0x1234));
        }
    }

    #[test]
    fn forged_syns_decode_with_isn() {
        for w in [Kind::Mono, Kind::Sub] {
            let bytes = w.forge_syn(A, B, 7777);
            let seg = w.decode(&bytes).expect("own forgery must decode");
            assert!(seg.syn && !seg.rst);
            assert_eq!(seg.seq, 7777);
            assert_eq!(seg.seq_len, 1, "a SYN occupies one sequence number");
        }
    }

    #[test]
    fn forged_data_snoops_as_the_flow_it_continues() {
        for w in [Kind::Mono, Kind::Sub] {
            let flow = w.snoop(&w.forge_syn(A, B, 7777)).expect("own forgery must snoop");
            assert!(flow.syn && !flow.rst);
            assert_eq!(ends(&flow), (A, B));
            assert_eq!(flow.next_seq, 7778, "a SYN's successor is isn + 1");
            let data = w.snoop(&w.forge_data(&flow, flow.next_seq, b"abc")).expect("snoops");
            assert_eq!(ends(&data), (A, B));
            assert_eq!(data.next_seq, 7781);
        }
    }

    #[test]
    fn forged_data_carries_the_snooped_ack() {
        for w in [Kind::Mono, Kind::Sub] {
            let syn = w.snoop(&w.forge_syn(A, B, 7777)).expect("own forgery must snoop");
            let forged = w.forge_data(&SnoopInfo { ack: Some(0xABCD), ..syn }, 7778, b"abc");
            let seg = w.decode(&forged).expect("own forgery must decode");
            assert!(seg.ack && seg.ack_no == 0xABCD, "{}: {seg:?}", w.label());
            assert_eq!(w.snoop(&forged).expect("snoops").ack, Some(0xABCD), "{}", w.label());
        }
    }

    #[test]
    fn bump_ack_moves_only_the_ack() {
        let honest = Segment {
            src: A,
            dst: B,
            seq: 100,
            ack: 200,
            flags: ACK,
            wnd: 1000,
            mss: None,
            payload: vec![1, 2, 3],
        }
        .encode();
        let bent = Kind::Mono.bump_ack(&honest, 500).unwrap();
        let seg = Kind::Mono.decode(&bent).unwrap();
        assert_eq!(seg.ack_no, 700);
        assert_eq!(seg.seq, 100);
        assert_eq!(seg.len, 3);
    }
}
