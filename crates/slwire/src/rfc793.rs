//! The standard (RFC 793) TCP segment format, carried over a minimal
//! 8-byte network header (source/destination address) standing in for IP.
//!
//! This is the *monolithic* wire format: one header whose fields are read
//! and written by every subfunction — ports by demultiplexing, SYN/FIN and
//! ISNs by connection management, seq/ack by reliable delivery, window by
//! both flow control and (implicitly) congestion control. The sublayered
//! stack's shim (experiment E7) translates its native Figure-6 format to
//! and from exactly these bytes, which is what lets the two stacks
//! interoperate.

use crate::{be16, be32};
use std::fmt;

pub use crate::{checksum, Endpoint, FourTuple, WireError, MAX_FRAME_BYTES};

pub const FIN: u8 = 0x01;
pub const SYN: u8 = 0x02;
pub const RST: u8 = 0x04;
pub const PSH: u8 = 0x08;
pub const ACK: u8 = 0x10;

/// Smallest well-formed frame: 8-byte network header plus the 20-byte
/// option-less TCP header. Exposed so cross-format tooling (the
/// `slconform` codec-equivalence certificate) can reason about the
/// format's floor without re-deriving it.
pub const MIN_SEGMENT_BYTES: usize = 28;

/// The MSS both stacks advertise on a SYN (and the shim on a translated one).
pub const DEFAULT_MSS: u16 = 1000;

// Frame offsets of the addressing fields — what [`peek`] reads and
// [`Segment::decode`] starts from. The TCP header follows the two addresses.
const SRC_ADDR: usize = 0;
const DST_ADDR: usize = 4;
const TCP: usize = 8;
const SRC_PORT: usize = TCP;
const DST_PORT: usize = TCP + 2;

/// A TCP segment plus its network-header addresses.
#[derive(Clone, PartialEq, Eq)]
pub struct Segment {
    pub src: Endpoint,
    pub dst: Endpoint,
    pub seq: u32,
    pub ack: u32,
    pub flags: u8,
    pub wnd: u16,
    /// MSS option (kind 2), carried on SYN segments.
    pub mss: Option<u16>,
    pub payload: Vec<u8>,
}

impl Segment {
    #[inline]
    pub fn fin(&self) -> bool {
        self.flags & FIN != 0
    }
    #[inline]
    pub fn syn(&self) -> bool {
        self.flags & SYN != 0
    }
    #[inline]
    pub fn rst(&self) -> bool {
        self.flags & RST != 0
    }
    #[inline]
    pub fn ack_flag(&self) -> bool {
        self.flags & ACK != 0
    }

    /// Sequence space the segment occupies (payload + SYN + FIN). A header
    /// from [`Segment::decode_view`] has no payload of its own: its data's
    /// length is the slice's, which this does not count.
    #[inline]
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.syn() as u32 + self.fin() as u32
    }

    /// Serialize, computing the checksum: [`Segment::encode_parts`] on the
    /// segment's own payload.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_parts(&self.payload, &[])
    }

    /// Serialize with `front` followed by `back` as the payload — the two
    /// halves of a ring buffer, say — so a sender encodes straight from
    /// where its bytes sit. `self.payload` is not read.
    pub fn encode_parts(&self, front: &[u8], back: &[u8]) -> Vec<u8> {
        let options_len: usize = if self.mss.is_some() { 4 } else { 0 };
        let data_offset_words = (20 + options_len) / 4;
        let mut out =
            Vec::with_capacity(MIN_SEGMENT_BYTES + options_len + front.len() + back.len());
        out.extend_from_slice(&self.src.addr.to_be_bytes());
        out.extend_from_slice(&self.dst.addr.to_be_bytes());
        let tcp_start = out.len();
        out.extend_from_slice(&self.src.port.to_be_bytes());
        out.extend_from_slice(&self.dst.port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push((data_offset_words as u8) << 4);
        out.push(self.flags);
        out.extend_from_slice(&self.wnd.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer (unused)
        if let Some(mss) = self.mss {
            out.push(2); // kind: MSS
            out.push(4); // length
            out.extend_from_slice(&mss.to_be_bytes());
        }
        out.extend_from_slice(front);
        out.extend_from_slice(back);
        let csum = checksum(self.src.addr, self.dst.addr, &out[tcp_start..]);
        out[tcp_start + 16] = (csum >> 8) as u8;
        out[tcp_start + 17] = csum as u8;
        out
    }

    /// Parse and verify the checksum; a typed [`WireError`] for malformed
    /// or corrupt segments — hostile bytes must classify, never panic. The
    /// payload is copied into a `Vec` of its own: [`Segment::decode_view`]
    /// plus that copy.
    pub fn decode(bytes: &[u8]) -> Result<Segment, WireError> {
        let (seg, payload) = Self::decode_view(bytes)?;
        Ok(Segment { payload: payload.to_vec(), ..seg })
    }

    /// [`Segment::decode`] without the copy: the checksum is verified and
    /// the header parsed in place, and the payload comes back as the part
    /// of `bytes` it occupies, beside a segment whose own payload is empty
    /// — so its [`Segment::seq_len`] counts SYN and FIN alone. Allocates
    /// nothing.
    pub fn decode_view(bytes: &[u8]) -> Result<(Segment, &[u8]), WireError> {
        if bytes.len() < MIN_SEGMENT_BYTES {
            return Err(WireError::Truncated { need: MIN_SEGMENT_BYTES, got: bytes.len() });
        }
        if bytes.len() > MAX_FRAME_BYTES {
            return Err(WireError::Oversized { limit: MAX_FRAME_BYTES, got: bytes.len() });
        }
        let src_addr = be32(bytes, SRC_ADDR);
        let dst_addr = be32(bytes, DST_ADDR);
        let tcp = &bytes[TCP..];
        if checksum(src_addr, dst_addr, tcp) != 0 {
            return Err(WireError::BadChecksum); // csum incl. its own field is 0
        }
        let seq = be32(tcp, 4);
        let ack = be32(tcp, 8);
        let data_offset = (tcp[12] >> 4) as usize * 4;
        if data_offset < 20 || data_offset > tcp.len() {
            return Err(WireError::BadDataOffset);
        }
        let flags = tcp[13] & 0x3F;
        let wnd = be16(tcp, 14);
        // Parse options (we understand only MSS).
        let mut mss = None;
        let mut i = 20;
        while i < data_offset {
            match tcp[i] {
                0 => break,    // end of options
                1 => i += 1,   // NOP
                2 => {
                    if i + 4 > data_offset || tcp[i + 1] != 4 {
                        return Err(WireError::BadOption);
                    }
                    mss = Some(be16(tcp, i + 2));
                    i += 4;
                }
                _ => {
                    // Unknown option: skip by its length byte.
                    if i + 1 >= data_offset {
                        return Err(WireError::BadOption);
                    }
                    let l = tcp[i + 1] as usize;
                    if l < 2 || i + l > data_offset {
                        return Err(WireError::BadOption);
                    }
                    i += l;
                }
            }
        }
        let seg = Segment {
            src: Endpoint::new(src_addr, be16(bytes, SRC_PORT)),
            dst: Endpoint::new(dst_addr, be16(bytes, DST_PORT)),
            seq,
            ack,
            flags,
            wnd,
            mss,
            payload: Vec::new(),
        };
        Ok((seg, &tcp[data_offset..]))
    }
}

/// Addressing read off a raw frame without decoding (or checksumming) the
/// rest; `None` for a frame shorter than the fixed header. RFC 793 has no
/// magic byte, so any long-enough frame peeks.
#[inline]
pub fn peek(frame: &[u8]) -> Option<(Endpoint, Endpoint)> {
    if frame.len() < MIN_SEGMENT_BYTES {
        return None;
    }
    Some((
        Endpoint::new(be32(frame, SRC_ADDR), be16(frame, SRC_PORT)),
        Endpoint::new(be32(frame, DST_ADDR), be16(frame, DST_PORT)),
    ))
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut flags = String::new();
        for (bit, c) in [(SYN, 'S'), (ACK, 'A'), (FIN, 'F'), (RST, 'R'), (PSH, 'P')] {
            if self.flags & bit != 0 {
                flags.push(c);
            }
        }
        write!(
            f,
            "{:?}->{:?} [{flags}] seq={} ack={} wnd={} len={}",
            self.src,
            self.dst,
            self.seq,
            self.ack,
            self.wnd,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Segment {
        Segment {
            src: Endpoint::new(0x0A000001, 1234),
            dst: Endpoint::new(0x0A000002, 80),
            seq: 0xDEADBEEF,
            ack: 0x12345678,
            flags: SYN | ACK,
            wnd: 4096,
            mss: Some(1400),
            payload: b"hello".to_vec(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = sample();
        assert_eq!(Segment::decode(&s.encode()), Ok(s));
    }

    #[test]
    fn round_trip_without_options_or_payload() {
        let s = Segment { mss: None, payload: vec![], flags: ACK, ..sample() };
        assert_eq!(Segment::decode(&s.encode()), Ok(s));
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            // Either rejected outright or decodes to something != original —
            // the checksum must catch payload/header flips.
            if let Ok(seg) = Segment::decode(&bad) {
                // A flip in the network header changes addresses, which are
                // covered by the pseudo-header; decode must fail.
                panic!("flip at byte {i} went undetected: {seg:?}");
            }
        }
    }

    #[test]
    fn short_input_rejected() {
        assert_eq!(Segment::decode(&[0; 10]), Err(WireError::Truncated { need: 28, got: 10 }));
        assert_eq!(Segment::decode(&[]), Err(WireError::Truncated { need: 28, got: 0 }));
    }

    #[test]
    fn truncation_regressions() {
        // Every prefix of a valid segment must decode to a typed error (the
        // length check, then the checksum over the shortened body) — the
        // fuzz-found class of bugs this codec must never reintroduce.
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            let err = Segment::decode(&bytes[..n]).expect_err("prefix accepted");
            if n < 28 {
                assert_eq!(err, WireError::Truncated { need: 28, got: n });
            }
            view_matches_decode(&bytes[..n]).unwrap();
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let bytes = vec![0u8; MAX_FRAME_BYTES + 1];
        assert_eq!(
            Segment::decode(&bytes),
            Err(WireError::Oversized { limit: MAX_FRAME_BYTES, got: MAX_FRAME_BYTES + 1 })
        );
    }

    /// A checksum-valid, payload-less ACK whose option area is exactly
    /// `opts` (a multiple of four bytes).
    fn frame_with_options(opts: &[u8]) -> Vec<u8> {
        let (src, dst) = (Endpoint::new(1, 10), Endpoint::new(2, 20));
        let mut tcp: Vec<u8> = Vec::new();
        tcp.extend_from_slice(&src.port.to_be_bytes());
        tcp.extend_from_slice(&dst.port.to_be_bytes());
        tcp.extend_from_slice(&7u32.to_be_bytes()); // seq
        tcp.extend_from_slice(&9u32.to_be_bytes()); // ack
        tcp.push((5 + opts.len() as u8 / 4) << 4); // data offset, in words
        tcp.push(ACK);
        tcp.extend_from_slice(&100u16.to_be_bytes());
        tcp.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent
        tcp.extend_from_slice(opts);
        let csum = checksum(src.addr, dst.addr, &tcp);
        tcp[16..18].copy_from_slice(&csum.to_be_bytes());
        let mut bytes = src.addr.to_be_bytes().to_vec();
        bytes.extend_from_slice(&dst.addr.to_be_bytes());
        bytes.extend_from_slice(&tcp);
        bytes
    }

    #[test]
    fn bad_option_classified() {
        // Valid checksum but an MSS option whose length overruns the
        // option area (NOPs, then the MSS kind at the last byte): must be
        // BadOption, not a slice panic.
        let frame = frame_with_options(&[1, 1, 1, 2]);
        assert_eq!(Segment::decode(&frame), Err(WireError::BadOption));
        view_matches_decode(&frame).unwrap();
    }

    #[test]
    fn mss_option_claiming_length_6_is_rejected() {
        // Read as four bytes, its last two bytes (here two that look like
        // NOPs) would be parsed as options of their own.
        let opts = [2, 6, 0x05, 0xB4, 1, 1, 1, 1];
        assert_eq!(Segment::decode(&frame_with_options(&opts)), Err(WireError::BadOption));
    }

    #[test]
    fn mss_option_claiming_length_3_is_rejected() {
        // Its fourth byte belongs to the next option (here an MSS of its
        // own), which a four-byte read would swallow.
        let opts = [2, 3, 0x05, 2, 4, 0x02, 0x00, 0];
        assert_eq!(Segment::decode(&frame_with_options(&opts)), Err(WireError::BadOption));
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut s = sample();
        assert_eq!(s.seq_len(), 5 + 1); // payload + SYN
        s.flags = SYN | FIN;
        assert_eq!(s.seq_len(), 5 + 2);
        s.flags = ACK;
        assert_eq!(s.seq_len(), 5);
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut bytes = sample().encode();
        bytes[8 + 12] = 0x20; // data offset 8 words = 32 bytes > segment? ok but options broken
        assert_eq!(Segment::decode(&bytes), Err(WireError::BadChecksum)); // csum fails first
    }

    #[test]
    fn unknown_options_are_skipped() {
        // NOP, an unknown kind 99 of length 3, then MSS 1234, padded.
        let mut opts = vec![1, 99, 3, 0xAA, 2, 4];
        opts.extend_from_slice(&1234u16.to_be_bytes());
        opts.extend_from_slice(&[0, 0, 0, 0]);
        let seg = Segment::decode(&frame_with_options(&opts)).expect("decodes");
        assert_eq!(seg.mss, Some(1234));
        assert_eq!(seg.seq, 7);
    }

    #[test]
    fn checksum_of_valid_segment_is_zero() {
        let bytes = sample().encode();
        assert_eq!(checksum(0x0A000001, 0x0A000002, &bytes[8..]), 0);
    }

    /// [`Segment::decode_view`] is [`Segment::decode`] without the copy:
    /// an equal header beside the payload, read in place, or the same
    /// error.
    fn view_matches_decode(bytes: &[u8]) -> Result<(), String> {
        match (Segment::decode(bytes), Segment::decode_view(bytes)) {
            (Ok(seg), Ok((head, payload))) => {
                proptest::prop_assert_eq!(payload, &seg.payload[..]);
                proptest::prop_assert!(
                    std::ptr::eq(payload, &bytes[bytes.len() - payload.len()..]),
                    "payload not read in place"
                );
                proptest::prop_assert!(head.payload.is_empty());
                proptest::prop_assert_eq!(Segment { payload: seg.payload.clone(), ..head }, seg);
            }
            (Err(a), Err(b)) => proptest::prop_assert_eq!(a, b),
            (a, b) => return Err(format!("decode {a:?}, decode_view {b:?}")),
        }
        Ok(())
    }

    #[test]
    fn a_view_decode_is_the_decode_without_the_copy() {
        let s = sample();
        let frame = s.encode();
        let (head, payload) = Segment::decode_view(&frame).unwrap();
        assert_eq!(payload, b"hello");
        assert_eq!(head, Segment { payload: vec![], ..s });
        assert_eq!(head.seq_len(), 1, "the view's header counts its SYN alone");
        view_matches_decode(&frame).unwrap();
    }

    proptest::proptest! {
        #[test]
        fn prop_any_segment_round_trips(
            sa: u32, da: u32, sp: u16, dp: u16, seq: u32, ack: u32,
            flags in 0u8..32, wnd: u16, mss in proptest::option::of(proptest::num::u16::ANY),
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..300),
        ) {
            let s = Segment {
                src: Endpoint::new(sa, sp),
                dst: Endpoint::new(da, dp),
                seq, ack, flags, wnd, mss, payload,
            };
            let bytes = s.encode();
            proptest::prop_assert_eq!(peek(&bytes), Some((s.src, s.dst)));
            view_matches_decode(&bytes)?;
            // The two-slice entry, split anywhere, encodes the joined
            // payload — and never reads the header's own.
            let head = Segment { payload: b"not read".to_vec(), ..s.clone() };
            for split in 0..=s.payload.len() {
                let (front, back) = s.payload.split_at(split);
                proptest::prop_assert_eq!(head.encode_parts(front, back), bytes, "split at {split}");
            }
            proptest::prop_assert_eq!(Segment::decode(&bytes), Ok(s));
        }

        #[test]
        fn prop_decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..600),
        ) {
            // Ok or typed Err — any panic fails the test harness itself —
            // and `peek` agrees with every frame `decode` accepts.
            let peeked = peek(&bytes);
            if let Ok(seg) = Segment::decode(&bytes) {
                proptest::prop_assert_eq!(peeked, Some((seg.src, seg.dst)));
            }
            view_matches_decode(&bytes)?;
        }

        #[test]
        fn prop_decode_never_panics_on_mutated_valid_segment(
            flip in 0usize..33, val: u8,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
        ) {
            // Mutations of *almost-valid* frames probe the deep parse paths
            // (options, offsets) that random bytes rarely reach past the
            // checksum — so re-seal the checksum after mutating.
            let mut bytes = Segment { payload, ..sample() }.encode();
            let i = flip % bytes.len();
            bytes[i] = val;
            bytes[8 + 16] = 0;
            bytes[8 + 17] = 0;
            let sa = u32::from_be_bytes(bytes[0..4].try_into().unwrap());
            let da = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
            let csum = checksum(sa, da, &bytes[8..]);
            bytes[8 + 16] = (csum >> 8) as u8;
            bytes[8 + 17] = csum as u8;
            let peeked = peek(&bytes);
            if let Ok(seg) = Segment::decode(&bytes) {
                proptest::prop_assert_eq!(peeked, Some((seg.src, seg.dst)));
            }
            view_matches_decode(&bytes)?;
        }
    }

    #[test]
    fn debug_format_shows_flags() {
        let s = format!("{:?}", sample());
        assert!(s.contains("[SA]"), "{s}");
    }
}
