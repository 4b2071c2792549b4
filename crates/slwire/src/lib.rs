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
/// Summed four bytes at a time and folded afterwards (RFC 1071 §2(A)):
/// 2¹⁶ ≡ 1 (mod 65535), so a big-endian 32-bit word contributes exactly
/// what its two 16-bit halves would. A 1–3 byte tail is zero-padded.
pub fn checksum(src: u32, dst: u32, tcp: &[u8]) -> u16 {
    let mut acc: u64 = 0;
    acc += (src >> 16) as u64 + (src & 0xFFFF) as u64;
    acc += (dst >> 16) as u64 + (dst & 0xFFFF) as u64;
    acc += 6; // protocol
    acc += tcp.len() as u64;
    let mut words = tcp.chunks_exact(4);
    for w in &mut words {
        acc += u32::from_be_bytes([w[0], w[1], w[2], w[3]]) as u64;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 4];
        last[..tail.len()].copy_from_slice(tail);
        acc += u32::from_be_bytes(last) as u64;
    }
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    !(acc as u16)
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
        // for folding after the loop instead of inside it.
        for len in (0..=9).chain([1000, 2047, 2048, 2049]) {
            let bytes = vec![0xFF; len];
            assert_eq!(
                checksum(u32::MAX, u32::MAX, &bytes),
                checksum_ref(u32::MAX, u32::MAX, &bytes),
                "len {len}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_checksum_matches_16_bit_reference(
            src: u32, dst: u32,
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..2050),
        ) {
            // The last four prefixes cover every `len % 4` tail.
            for cut in 0..=bytes.len().min(3) {
                let tcp = &bytes[..bytes.len() - cut];
                proptest::prop_assert_eq!(checksum(src, dst, tcp), checksum_ref(src, dst, tcp));
            }
        }
    }
}
