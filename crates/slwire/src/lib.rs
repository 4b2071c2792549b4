//! # slwire — the wire, in one place
//!
//! Everything both TCP stacks must agree on before either can be written,
//! and nothing else: addressing ([`Endpoint`], [`FourTuple`]), sequence
//! arithmetic ([`seq`]), the seeded tuple hash ([`hash`]), the checksum and
//! the typed decode error, the two wire formats — RFC 793 ([`rfc793`], what
//! the monolithic `tcp-mono` speaks) and the paper's Figure-6 native header
//! ([`native`], what `sublayer-core` speaks) — and the stateless
//! translation between them ([`shim`]).
//!
//! The crate depends on nothing, so the contribution and the baseline are
//! siblings above it rather than one importing the other, and every tool
//! that reads or forges frames (`slhost`, `slconform`, `bench`) finds the
//! header offsets here instead of re-deriving them.

use std::fmt;

pub mod hash;
pub mod native;
pub mod rfc793;
pub mod seq;
pub mod shim;

/// One end of a connection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    pub addr: u32,
    pub port: u16,
}

impl Endpoint {
    #[inline]
    pub fn new(addr: u32, port: u16) -> Endpoint {
        Endpoint { addr, port }
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.addr.to_be_bytes();
        write!(f, "{}.{}.{}.{}:{}", b[0], b[1], b[2], b[3], self.port)
    }
}

/// Connection identifier: the classic 4-tuple, oriented (local, remote).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FourTuple {
    pub local: Endpoint,
    pub remote: Endpoint,
}

impl fmt::Debug for FourTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}<->{:?}", self.local, self.remote)
    }
}

/// Largest frame either codec will accept. Anything bigger than a maximal
/// TCP segment (60-byte header + 64 KiB payload + network header) is
/// hostile or corrupt, and rejecting it up front bounds what a decoder can
/// be made to allocate.
pub const MAX_FRAME_BYTES: usize = 8 + 60 + 65535;

/// Typed decode failure: every way a frame can be malformed, so hostile
/// input is *classified*, never panicked on and never silently mis-parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the fixed header (or an advertised variable part)
    /// requires.
    Truncated { need: usize, got: usize },
    /// Larger than [`MAX_FRAME_BYTES`].
    Oversized { limit: usize, got: usize },
    /// Checksum mismatch (corruption or deliberate mutation).
    BadChecksum,
    /// First byte is not the native-format magic (sublayered codec only).
    BadMagic,
    /// TCP data offset smaller than the minimum header or past the end of
    /// the segment.
    BadDataOffset,
    /// Malformed TCP option (bad length or overrun of the option area).
    BadOption,
    /// SACK count exceeds what the native header can carry.
    BadSackCount,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, got } => {
                write!(f, "truncated frame: need {need} bytes, got {got}")
            }
            WireError::Oversized { limit, got } => {
                write!(f, "oversized frame: {got} bytes exceeds limit {limit}")
            }
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadMagic => write!(f, "bad magic byte"),
            WireError::BadDataOffset => write!(f, "bad data offset"),
            WireError::BadOption => write!(f, "malformed TCP option"),
            WireError::BadSackCount => write!(f, "bad SACK count"),
        }
    }
}

/// Big-endian `u16` at `at`; the caller has checked the length.
#[inline]
fn be16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

/// Big-endian `u32` at `at`; the caller has checked the length.
#[inline]
fn be32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// RFC 1071 one's-complement checksum over a pseudo-header
/// (addresses + protocol 6 + length) and the TCP segment.
///
/// The segment is summed eight bytes at a time as little-endian words, in
/// two independent add-with-carry chains, and the total is folded and
/// byte-swapped once at the end. That gives the same `u16` as a 16-bit
/// big-endian sum: 2⁶⁴ ≡ 1 (mod 65535), so a carry out of a 64-bit add is
/// worth 1 (RFC 1071 §2(A), deferred carries), and a little-endian sum is
/// the big-endian one with its bytes swapped (§2(B), byte-order
/// independence). Both codecs call this one function.
pub fn checksum(src: u32, dst: u32, tcp: &[u8]) -> u16 {
    /// One's-complement add: the carry out of bit 63 wraps around.
    #[inline(always)]
    fn add(acc: u64, word: u64) -> u64 {
        let (sum, carry) = acc.overflowing_add(word);
        sum + carry as u64
    }
    #[inline(always)]
    fn le64(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[..8].try_into().expect("eight bytes"))
    }
    // Each chain counts its carries apart, so an add waits only on the
    // add before it.
    let (mut a, mut b, mut a_carries, mut b_carries) = (0u64, 0u64, 0u64, 0u64);
    let mut blocks = tcp.chunks_exact(16);
    for w in &mut blocks {
        let (sum, carry) = a.overflowing_add(le64(&w[..8]));
        (a, a_carries) = (sum, a_carries + carry as u64);
        let (sum, carry) = b.overflowing_add(le64(&w[8..]));
        (b, b_carries) = (sum, b_carries + carry as u64);
    }
    let (mut a, mut b) = (add(a, a_carries), add(b, b_carries));
    // The tail, 8, 4, 2 and 1 bytes at a time. A piece starts at an even
    // offset, where it counts the same whatever bit it sits at (2¹⁶ ≡ 1);
    // a last odd byte is the low byte of a zero-padded word.
    let mut rest = blocks.remainder();
    if rest.len() >= 8 {
        a = add(a, le64(rest));
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        b = add(b, u32::from_le_bytes(rest[..4].try_into().expect("four bytes")) as u64);
        rest = &rest[4..];
    }
    if rest.len() >= 2 {
        a = add(a, u16::from_le_bytes([rest[0], rest[1]]) as u64);
        rest = &rest[2..];
    }
    if let [last] = rest {
        b = add(b, *last as u64);
    }
    // The pseudo-header joins the little-endian sum: swapping a 16-bit
    // word's bytes multiplies it by 2⁸ (mod 65535), so an address joins
    // byte-swapped and protocol 6 + length shifted left by 8.
    let pseudo = u64::from(src.swap_bytes())
        + u64::from(dst.swap_bytes())
        + ((6 + tcp.len() as u64) << 8);
    let acc = add(add(a, b), pseudo);
    // Fold 64 → 32 → 16 bits, each an end-around add, and swap once.
    let (sum, carry) = (acc as u32).overflowing_add((acc >> 32) as u32);
    let acc = sum + carry as u32;
    let (sum, carry) = (acc as u16).overflowing_add((acc >> 16) as u16);
    !(sum + carry as u16).swap_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 16-bit-at-a-time loop [`checksum`] replaced, kept as its reference.
    fn checksum_ref(src: u32, dst: u32, tcp: &[u8]) -> u16 {
        let mut acc: u64 = 0;
        acc += (src >> 16) as u64 + (src & 0xFFFF) as u64;
        acc += (dst >> 16) as u64 + (dst & 0xFFFF) as u64;
        acc += 6; // protocol
        acc += tcp.len() as u64;
        let mut chunks = tcp.chunks_exact(2);
        for c in &mut chunks {
            acc += u16::from_be_bytes([c[0], c[1]]) as u64;
        }
        if let [last] = chunks.remainder() {
            acc += u16::from_be_bytes([*last, 0]) as u64;
        }
        while acc > 0xFFFF {
            acc = (acc & 0xFFFF) + (acc >> 16);
        }
        !(acc as u16)
    }

    #[test]
    fn checksum_matches_reference_when_every_add_carries() {
        // All-ones input makes every word addition carry: the worst case
        // for the end-around carry and for folding after the loop. 0..=33
        // covers every `len % 16` tail, with and without a full block
        // ahead of it; the last two are the largest bodies the native
        // (11-byte prefix) and RFC 793 (8-byte network header) codecs sum.
        let lens = (0..=33).chain([1000, 2047, 2048, 2049]);
        for len in lens.chain([MAX_FRAME_BYTES - 11, MAX_FRAME_BYTES - 8]) {
            let bytes = vec![0xFF; len];
            assert_eq!(
                checksum(u32::MAX, u32::MAX, &bytes),
                checksum_ref(u32::MAX, u32::MAX, &bytes),
                "len {len}"
            );
        }
    }

    #[test]
    fn both_codecs_seal_pinned_checksum_bytes() {
        // Pinned outputs, not a reference: a kernel that agrees with
        // `checksum_ref` only up to byte order fails here.
        use native::{CmFlags, CmHeader, DmHeader, OsrHeader, Packet, RdHeader};
        use rfc793::{Segment, ACK, SYN};
        let (a, b) = (Endpoint::new(0x0A00_0001, 5000), Endpoint::new(0x0A00_0002, 80));
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let native = |syn: bool, payload: &[u8]| {
            let frame = Packet {
                src_addr: a.addr,
                dst_addr: b.addr,
                dm: DmHeader { src_port: a.port, dst_port: b.port },
                cm: CmHeader {
                    flags: CmFlags { syn, ..CmFlags::default() },
                    isn: 0x1111_0000,
                    ack_isn: 0,
                },
                rd: RdHeader {
                    seq: 0x1111_0001,
                    ack: 0x2222_0001,
                    has_ack: !syn,
                    ..RdHeader::default()
                },
                osr: OsrHeader { ecn_echo: false, rcv_wnd: 0xFFFF },
                payload: payload.into(),
            }
            .encode();
            u16::from_be_bytes([frame[9], frame[10]])
        };
        let rfc = |flags: u8, payload: &[u8]| {
            let frame = Segment {
                src: a,
                dst: b,
                seq: 0x1111_0001,
                ack: if flags & SYN != 0 { 0 } else { 0x2222_0001 },
                flags,
                wnd: 0xFFFF,
                mss: (flags & SYN != 0).then_some(rfc793::DEFAULT_MSS),
                payload: payload.to_vec(),
            }
            .encode();
            u16::from_be_bytes([frame[24], frame[25]])
        };
        let got = [
            native(true, &[]),
            native(false, &[]),
            native(false, &data),
            rfc(SYN, &[]),
            rfc(ACK, &[]),
            rfc(ACK, &data),
        ];
        assert_eq!(got, [0x90c1, 0x91c0, 0x5592, 0x6106, 0x54c5, 0x0aa5], "{got:#06x?}");
    }

    proptest::proptest! {
        #[test]
        fn prop_checksum_matches_16_bit_reference(
            src: u32, dst: u32,
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..2050),
        ) {
            // The last sixteen prefixes cover every `len % 16` tail.
            for cut in 0..=bytes.len().min(15) {
                let tcp = &bytes[..bytes.len() - cut];
                proptest::prop_assert_eq!(checksum(src, dst, tcp), checksum_ref(src, dst, tcp));
            }
        }
    }
}
