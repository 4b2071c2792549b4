//! The stateless half of the **shim sublayer** (§3.1): one native Figure-6
//! packet ↔ one RFC 793 segment.
//!
//! "Adding a shim sublayer that converts the sublayered header in Figure 6
//! to a standard TCP header, together with replicating all existing TCP
//! functionality in some sublayer, should allow interoperability." The
//! translation is possible precisely because the two headers are
//! isomorphic — every RFC 793 field has a home in some sublayer's bits:
//!
//! | RFC 793 field | native home |
//! |---|---|
//! | ports | DM |
//! | SYN/FIN/RST flags | CM flags |
//! | ISNs | CM `isn`/`ack_isn` (redundant after handshake) |
//! | seq / ack | RD |
//! | window | OSR `rcv_wnd` |
//! | (SACK has no RFC 793 home) | RD — dropped by the shim |
//!
//! `sublayer_core::shim::ShimStack` wraps a sublayered stack in these two
//! functions so it speaks RFC 793 on the wire (experiment E7).

use crate::native::Packet;
use crate::rfc793::{Segment, ACK, DEFAULT_MSS, FIN, PSH, RST, SYN};

/// Translate one native packet to an RFC 793 segment.
pub fn to_rfc793(pkt: &Packet) -> Segment {
    Segment { payload: pkt.payload.to_vec(), ..to_rfc793_header(pkt, !pkt.payload.is_empty()) }
}

/// [`to_rfc793`] of the header alone, for a packet whose payload sits
/// elsewhere (a frame read with [`Packet::decode_view`]): `has_data` says
/// whether it carries any, which sets PSH. The segment's payload is empty.
pub fn to_rfc793_header(pkt: &Packet, has_data: bool) -> Segment {
    let mut flags = 0u8;
    let (seq, ack, has_ack);
    if pkt.cm.flags.syn {
        flags |= SYN;
        // A SYN's sequence number is the ISN itself (it consumes it).
        seq = pkt.cm.isn;
        if pkt.cm.flags.cm_ack {
            has_ack = true;
            ack = pkt.cm.ack_isn.wrapping_add(1);
        } else {
            has_ack = false;
            ack = 0;
        }
    } else {
        seq = pkt.rd.seq;
        has_ack = pkt.rd.has_ack;
        ack = pkt.rd.ack;
    }
    if has_ack {
        flags |= ACK;
    }
    if pkt.cm.flags.fin {
        flags |= FIN;
    }
    if pkt.cm.flags.rst {
        flags |= RST;
    }
    if has_data {
        flags |= PSH;
    }
    Segment {
        src: pkt.src(),
        dst: pkt.dst(),
        seq,
        ack,
        flags,
        wnd: pkt.osr.rcv_wnd,
        mss: pkt.cm.flags.syn.then_some(DEFAULT_MSS),
        payload: Vec::new(),
    }
}

/// Translate one RFC 793 segment to a native packet. A segment read with
/// [`Segment::decode_view`] has an empty payload, and so has its packet:
/// the header alone is translated.
pub fn from_rfc793(seg: &Segment) -> Packet {
    let mut pkt = Packet {
        src_addr: seg.src.addr,
        dst_addr: seg.dst.addr,
        ..Default::default()
    };
    pkt.dm.src_port = seg.src.port;
    pkt.dm.dst_port = seg.dst.port;
    pkt.cm.flags.fin = seg.fin();
    pkt.cm.flags.rst = seg.rst();
    if seg.syn() {
        pkt.cm.flags.syn = true;
        pkt.cm.isn = seg.seq;
        if seg.ack_flag() {
            pkt.cm.flags.cm_ack = true;
            pkt.cm.ack_isn = seg.ack.wrapping_sub(1);
        }
    }
    pkt.rd.seq = seg.seq;
    pkt.rd.has_ack = seg.ack_flag();
    pkt.rd.ack = seg.ack;
    pkt.osr.rcv_wnd = seg.wnd;
    pkt.payload = seg.payload.as_slice().into();
    pkt
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u32 = 0x0A000001;
    const B: u32 = 0x0A000002;

    #[test]
    fn translation_round_trips_where_isomorphic() {
        // native -> 793 -> native preserves the fields RFC 793 can carry.
        let mut pkt = Packet { src_addr: A, dst_addr: B, ..Packet::default() };
        pkt.dm.src_port = 5000;
        pkt.dm.dst_port = 80;
        pkt.rd.seq = 12345;
        pkt.rd.ack = 67890;
        pkt.rd.has_ack = true;
        pkt.osr.rcv_wnd = 4096;
        pkt.payload = b"data".to_vec().into();
        let back = from_rfc793(&to_rfc793(&pkt));
        assert_eq!(back.dm, pkt.dm);
        assert_eq!(back.rd.seq, pkt.rd.seq);
        assert_eq!(back.rd.ack, pkt.rd.ack);
        assert_eq!(back.osr.rcv_wnd, pkt.osr.rcv_wnd);
        assert_eq!(back.payload, pkt.payload);
    }

    #[test]
    fn syn_translation_carries_isn() {
        let mut pkt = Packet::default();
        pkt.cm.flags.syn = true;
        pkt.cm.isn = 999;
        let seg = to_rfc793(&pkt);
        assert!(seg.syn());
        assert_eq!(seg.seq, 999);
        assert_eq!(seg.mss, Some(1000));
        let back = from_rfc793(&seg);
        assert!(back.cm.flags.syn);
        assert_eq!(back.cm.isn, 999);
    }

    #[test]
    fn synack_translation_shifts_ack_by_one() {
        let mut pkt = Packet::default();
        pkt.cm.flags.syn = true;
        pkt.cm.flags.cm_ack = true;
        pkt.cm.isn = 200;
        pkt.cm.ack_isn = 100;
        let seg = to_rfc793(&pkt);
        assert_eq!(seg.ack, 101, "TCP acks ISN+1");
        let back = from_rfc793(&seg);
        assert_eq!(back.cm.ack_isn, 100);
    }
}
