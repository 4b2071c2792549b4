//! Per-format network knowledge for the multi-hop fabric: address peeks
//! for `netlayer`'s [`StaticRouter`](netlayer::StaticRouter) ingress and
//! [`NatCodec`] implementations for its [`NatBox`](netlayer::NatBox).
//!
//! `netlayer` deliberately knows neither transport's wire format; the
//! router reads addresses through an [`AddrPeek`] function pointer and the
//! NAT rewrites endpoints through a boxed codec. Both live here, beside
//! the one harness that puts both stacks behind the fabric
//! ([`crate::topology`]), so the conformance harness never links the
//! network layer. Every rewrite round-trips through the
//! real `Segment`/`Packet` codecs, so checksums are re-sealed and a
//! mangled frame comes out as `None` (the middlebox drops it as
//! malformed) rather than as garbage on the wire.

use netlayer::{AddrPeek, NatCodec};
use slconform::Kind;
use slwire::native::{self, Packet};
use slwire::rfc793::{self, Endpoint, Segment};

/// The [`AddrPeek`] matching a stack kind: the format's own `peek`, less
/// the ports a router has no use for.
pub fn peek_for(kind: Kind) -> AddrPeek {
    match kind {
        Kind::Mono => |frame| rfc793::peek(frame).map(|(src, dst)| (src.addr, dst.addr)),
        Kind::Sub => |frame| native::peek(frame).map(|(src, dst)| (src.addr, dst.addr)),
    }
}

/// The NAT codec matching a stack kind.
pub fn nat_codec(kind: Kind) -> Box<dyn NatCodec> {
    match kind {
        Kind::Mono => Box::new(MonoNatCodec),
        Kind::Sub => Box::new(SubNatCodec),
    }
}

/// [`NatCodec`] over the monolithic RFC 793 wire format.
pub struct MonoNatCodec;

impl NatCodec for MonoNatCodec {
    fn tuple(&self, frame: &[u8]) -> Option<((u32, u16), (u32, u16))> {
        let s = Segment::decode(frame).ok()?;
        Some(((s.src.addr, s.src.port), (s.dst.addr, s.dst.port)))
    }

    fn rewrite_src(&self, frame: &[u8], addr: u32, port: u16) -> Option<Vec<u8>> {
        let mut s = Segment::decode(frame).ok()?;
        s.src = Endpoint::new(addr, port);
        Some(s.encode())
    }

    fn rewrite_dst(&self, frame: &[u8], addr: u32, port: u16) -> Option<Vec<u8>> {
        let mut s = Segment::decode(frame).ok()?;
        s.dst = Endpoint::new(addr, port);
        Some(s.encode())
    }

    fn shift_seq(&self, frame: &[u8], delta: u32) -> Option<Vec<u8>> {
        let mut s = Segment::decode(frame).ok()?;
        if s.payload.is_empty() {
            return None; // pure acks pass untouched
        }
        s.seq = s.seq.wrapping_add(delta);
        Some(s.encode())
    }

    fn forge_rst_reply(&self, frame: &[u8]) -> Option<Vec<u8>> {
        let s = Segment::decode(frame).ok()?;
        if s.rst() {
            return None; // never answer a RST with a RST
        }
        // RFC 793: a stateless host answering a stray ACK-bearing segment
        // sends RST with seq = the segment's ack; that lands exactly at
        // the sender's snd_nxt, so the reset is accepted.
        let seq = if s.ack_flag() { s.ack } else { 0 };
        Some(Kind::Mono.forge_rst(s.dst, s.src, seq))
    }
}

/// [`NatCodec`] over the sublayered native wire format.
pub struct SubNatCodec;

impl NatCodec for SubNatCodec {
    fn tuple(&self, frame: &[u8]) -> Option<((u32, u16), (u32, u16))> {
        let p = Packet::decode(frame).ok()?;
        Some(((p.src_addr, p.dm.src_port), (p.dst_addr, p.dm.dst_port)))
    }

    fn rewrite_src(&self, frame: &[u8], addr: u32, port: u16) -> Option<Vec<u8>> {
        let mut p = Packet::decode(frame).ok()?;
        p.src_addr = addr;
        p.dm.src_port = port;
        Some(p.encode())
    }

    fn rewrite_dst(&self, frame: &[u8], addr: u32, port: u16) -> Option<Vec<u8>> {
        let mut p = Packet::decode(frame).ok()?;
        p.dst_addr = addr;
        p.dm.dst_port = port;
        Some(p.encode())
    }

    fn shift_seq(&self, frame: &[u8], delta: u32) -> Option<Vec<u8>> {
        let mut p = Packet::decode(frame).ok()?;
        if p.payload.is_empty() {
            return None;
        }
        p.rd.seq = p.rd.seq.wrapping_add(delta);
        Some(p.encode())
    }

    fn forge_rst_reply(&self, frame: &[u8]) -> Option<Vec<u8>> {
        let p = Packet::decode(frame).ok()?;
        if p.cm.flags.rst {
            return None;
        }
        let seq = if p.rd.has_ack { p.rd.ack } else { 0 };
        Some(Kind::Sub.forge_rst(p.dst(), p.src(), seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slwire::rfc793::ACK;

    const C: Endpoint = Endpoint { addr: 0x0A000001, port: 5000 };
    const S: Endpoint = Endpoint { addr: 0x0A000002, port: 80 };

    fn mono_data(payload: &[u8]) -> Vec<u8> {
        Segment {
            src: C,
            dst: S,
            seq: 1000,
            ack: 2000,
            flags: ACK,
            wnd: 512,
            mss: None,
            payload: payload.to_vec(),
        }
        .encode()
    }

    fn sub_data(payload: &[u8]) -> Vec<u8> {
        let mut p = Packet {
            src_addr: C.addr,
            dst_addr: S.addr,
            dm: native::DmHeader { src_port: C.port, dst_port: S.port },
            cm: native::CmHeader::default(),
            rd: native::RdHeader::default(),
            osr: native::OsrHeader { ecn_echo: false, rcv_wnd: 512 },
            payload: payload.into(),
        };
        p.rd.seq = 1000;
        p.rd.ack = 2000;
        p.rd.has_ack = true;
        p.encode()
    }

    #[test]
    fn peeks_read_addresses_and_reject_the_other_format() {
        let m = mono_data(b"hi");
        let s = sub_data(b"hi");
        assert_eq!(peek_for(Kind::Mono)(&m), Some((C.addr, S.addr)));
        assert_eq!(peek_for(Kind::Sub)(&s), Some((C.addr, S.addr)));
        assert_eq!(peek_for(Kind::Sub)(&m), None, "mono frame must not peek as sub");
        // The mono peek has no magic byte; it may read garbage addresses
        // off a sub frame, but in a single-format topology that is moot.
        assert!(peek_for(Kind::Mono)(&[0u8; 8]).is_none(), "short frames are rejected");
    }

    #[test]
    fn rewrites_reseal_the_checksum_in_both_formats() {
        for (frame, codec) in [
            (mono_data(b"abc"), &MonoNatCodec as &dyn NatCodec),
            (sub_data(b"abc"), &SubNatCodec as &dyn NatCodec),
        ] {
            let out = codec.rewrite_src(&frame, 0xC0A80001, 40000).expect("rewrite");
            let ((sa, sp), (da, dp)) = codec.tuple(&out).expect("rewritten frame decodes");
            assert_eq!((sa, sp), (0xC0A80001, 40000));
            assert_eq!((da, dp), (S.addr, S.port));
            let back = codec.rewrite_dst(&out, C.addr, C.port).expect("rewrite back");
            let ((_, _), (da2, dp2)) = codec.tuple(&back).unwrap();
            assert_eq!((da2, dp2), (C.addr, C.port));
        }
    }

    #[test]
    fn shift_seq_skips_pure_acks() {
        for (data, pure, codec) in [
            (mono_data(b"xyz"), mono_data(b""), &MonoNatCodec as &dyn NatCodec),
            (sub_data(b"xyz"), sub_data(b""), &SubNatCodec as &dyn NatCodec),
        ] {
            assert!(codec.shift_seq(&data, 7).is_some(), "data frames shift");
            assert!(codec.shift_seq(&pure, 7).is_none(), "pure acks must not");
        }
    }

    #[test]
    fn forged_rst_replies_answer_at_the_senders_expected_seq() {
        let m = MonoNatCodec.forge_rst_reply(&mono_data(b"hi")).expect("rst");
        let seg = Kind::Mono.decode(&m).unwrap();
        assert!(seg.rst);
        assert_eq!(seg.seq, 2000, "RST seq = the offending frame's ack");
        let s = SubNatCodec.forge_rst_reply(&sub_data(b"hi")).expect("rst");
        let seg = Kind::Sub.decode(&s).unwrap();
        assert!(seg.rst);
        assert_eq!(seg.seq, 2000);
        // A RST never begets another RST.
        assert!(MonoNatCodec.forge_rst_reply(&m).is_none());
        assert!(SubNatCodec.forge_rst_reply(&s).is_none());
    }
}
