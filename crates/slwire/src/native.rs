//! The native sublayered header (paper Figure 6).
//!
//! "The header as shown bears no resemblance to the standard TCP header in
//! order to clearly separate sublayers" — each sublayer owns a distinct
//! group of bits (test **T3**), laid out bottom-up on the wire:
//!
//! ```text
//! | DM: src_port, dst_port          |  demultiplexing
//! | CM: flags, isn, ack_isn         |  connection management
//! | RD: seq, ack, sack ranges       |  reliable delivery
//! | OSR: ecn, rcv_wnd               |  ordering/segmenting/rate control
//! | payload ...                     |
//! ```
//!
//! The format is *isomorphic* to RFC 793 (the paper's §3.1 claim): every
//! field of the standard header appears here and vice versa (the ISNs are
//! redundant but static after the handshake). [`crate::shim`] performs the
//! translation in both directions, which is what makes interoperation with
//! the monolithic stack possible (experiment E7).

use crate::{be16, be32, checksum};
use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

pub use crate::{Endpoint, FourTuple, WireError, MAX_FRAME_BYTES};

/// A packet's payload: a view — a byte range — of a reference-counted
/// slab, immutable while any view shows it. Whoever first has the bytes in
/// hand — OSR taking an application write (or gathering a segment from
/// two), [`Packet::decode`] reading a frame — copies them once into a slab;
/// every later holder (OSR's send queue and the segments cut from it, RD's
/// retransmission buffer and outbox, a `Delivered` event) holds a handle,
/// and [`Payload::slice`] narrows one without touching the bytes. Nobody can
/// write a slab that any view still shows — a [`Spare`] refills one only
/// once no handle but its own is left — and it is freed when its last
/// handle goes, so a view keeps its *whole* slab alive, however short it
/// is. `Rc`, not `Arc`: no crate sends a [`Packet`] across threads
/// (`slshard` moves raw frames).
///
/// The empty payload has no slab and allocates nothing, whichever
/// constructor or slice made it. `Eq` is equality of the bytes viewed,
/// wherever they sit, and `Debug` prints them exactly as `Vec<u8>` would.
#[derive(Clone, Default)]
pub struct Payload {
    /// `None` exactly when `len == 0`.
    slab: Option<Rc<[u8]>>,
    off: u32,
    len: u32,
}

impl Payload {
    /// The sub-view `range` of this one (indices relative to it), sharing
    /// the slab. Panics when the range reaches outside the view, as slice
    /// indexing does.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} of a {}-byte payload",
            self.len()
        );
        if range.is_empty() {
            return Payload::default();
        }
        Payload {
            slab: self.slab.clone(),
            off: self.off + range.start as u32,
            len: range.len() as u32,
        }
    }

    /// A slab of `len` bytes that `fill` writes, in one allocation: how a
    /// payload gathered from several pieces is built without first
    /// collecting them into a `Vec` that [`Payload::from`] would copy again.
    pub fn gather(len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
        if len == 0 {
            return Payload::default();
        }
        let len32 = u32::try_from(len).expect("a payload is at most a frame or a slab long");
        // `RepeatN` knows its length, so the slab is allocated at its size.
        let mut slab: Rc<[u8]> = std::iter::repeat_n(0, len).collect();
        fill(Rc::get_mut(&mut slab).expect("a fresh slab has no other handle"));
        Payload {
            slab: Some(slab),
            off: 0,
            len: len32,
        }
    }

    /// Bytes this handle keeps alive: the length of its whole slab, however
    /// short the view.
    pub fn slab_len(&self) -> usize {
        self.slab.as_ref().map_or(0, |slab| slab.len())
    }

    /// Do both handles share one slab (or are both slab-less)?
    pub fn ptr_eq(&self, other: &Payload) -> bool {
        match (&self.slab, &other.slab) {
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.slab {
            Some(slab) => &slab[self.off as usize..][..self.len as usize],
            None => &[],
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Payload {
        if bytes.is_empty() {
            return Payload::default();
        }
        let len = u32::try_from(bytes.len()).expect("a payload is at most a frame or a slab long");
        Payload { slab: Some(Rc::from(bytes)), off: 0, len }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Payload {
        Payload::from(&bytes[..])
    }
}

/// The slab of the last [`Spare::write`], kept so that the next write can
/// copy its bytes into it instead of into a new one. It is refilled only
/// when this handle is its last — every view of it is gone — and it is
/// long enough; otherwise the write takes a new, exactly sized slab, and
/// the spare keeps that one instead. `Rc::get_mut` makes that call, so a
/// slab that anything still views is never written.
#[derive(Clone, Default)]
pub struct Spare(Option<Rc<[u8]>>);

impl Spare {
    /// `bytes` as a payload of their own: a view of the front of the spare
    /// slab, refilled, or of a new one. The empty write allocates nothing
    /// and leaves the spare as it was.
    pub fn write(&mut self, bytes: &[u8]) -> Payload {
        if bytes.is_empty() {
            return Payload::default();
        }
        let len = u32::try_from(bytes.len()).expect("a payload is at most a frame or a slab long");
        match self.0.as_mut().and_then(Rc::get_mut) {
            Some(slab) if slab.len() >= bytes.len() => slab[..bytes.len()].copy_from_slice(bytes),
            _ => self.0 = Some(Rc::from(bytes)),
        }
        Payload {
            slab: self.0.clone(),
            off: 0,
            len,
        }
    }

    /// Bytes the spare keeps alive: its slab's whole length, or 0.
    pub fn slab_len(&self) -> usize {
        self.0.as_ref().map_or(0, |slab| slab.len())
    }

    /// Is `view` a view of the spare slab?
    pub fn ptr_eq(&self, view: &Payload) -> bool {
        matches!((&self.0, &view.slab), (Some(a), Some(b)) if Rc::ptr_eq(a, b))
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Demultiplexing subheader — the only bits DM may touch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct DmHeader {
    pub src_port: u16,
    pub dst_port: u16,
}

/// Connection-management flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CmFlags {
    pub syn: bool,
    pub fin: bool,
    pub rst: bool,
    /// Acknowledges the peer's SYN (handshake progress) or FIN.
    pub cm_ack: bool,
}

/// Connection-management subheader — SYN/FIN/RST plus the ISN pair.
/// "The main service it provides is to establish a pair of Initial
/// Sequence Numbers."
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CmHeader {
    pub flags: CmFlags,
    /// Sender's ISN (static after the handshake; redundancy acknowledged
    /// by the paper).
    pub isn: u32,
    /// Echo of the peer's ISN (handshake confirmation).
    pub ack_isn: u32,
}

/// One SACK range `[start, end)` in absolute sequence numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SackRange {
    pub start: u32,
    pub end: u32,
}

/// The SACK ranges of one header, held inline: the wire format's 2-bit
/// count carries at most two, so [`SackList::push`] and `collect()` drop
/// any further range rather than let it alias the count bits. Reads as a
/// slice of the ranges present.
///
/// Nothing removes a range, so an unused slot is always the default value
/// and the derived `Eq` is equality of the lists.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct SackList {
    ranges: [SackRange; 2],
    len: u8,
}

impl SackList {
    pub fn push(&mut self, range: SackRange) {
        if let Some(slot) = self.ranges.get_mut(self.len as usize) {
            *slot = range;
            self.len += 1;
        }
    }
}

impl Deref for SackList {
    type Target = [SackRange];

    #[inline]
    fn deref(&self) -> &[SackRange] {
        &self.ranges[..self.len as usize]
    }
}

impl FromIterator<SackRange> for SackList {
    fn from_iter<I: IntoIterator<Item = SackRange>>(iter: I) -> SackList {
        let mut list = SackList::default();
        iter.into_iter().for_each(|r| list.push(r));
        list
    }
}

impl fmt::Debug for SackList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Reliable-delivery subheader: sequence/ack numbers and SACK — all
/// retransmission mechanics live here and nowhere else.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RdHeader {
    /// Absolute sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgment: next expected sequence.
    pub ack: u32,
    /// Is the ack field meaningful?
    pub has_ack: bool,
    /// Up to two selective-ack ranges (RD-private, invisible to other
    /// sublayers; dropped by the shim since bare RFC 793 has no SACK).
    pub sack: SackList,
}

/// OSR subheader: congestion/flow-control signals available to OSR via its
/// own bits (test **T3**): ECN echo and the receiver window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct OsrHeader {
    /// Explicit congestion notification echo.
    pub ecn_echo: bool,
    /// Receiver window (flow control).
    pub rcv_wnd: u16,
}

/// A full native packet: network addresses + the four subheaders +
/// payload.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Packet {
    pub src_addr: u32,
    pub dst_addr: u32,
    pub dm: DmHeader,
    pub cm: CmHeader,
    pub rd: RdHeader,
    pub osr: OsrHeader,
    pub payload: Payload,
}

/// Magic discriminating native sublayered packets from RFC 793 traffic on
/// the same simulated network.
const MAGIC: u8 = 0x5B; // "SubLayered"

/// Smallest well-formed frame: the header with no SACK range.
const MIN_PACKET_BYTES: usize = Packet::header_len(0);

// Frame offsets of the fields ahead of the sublayers' own — what [`peek`]
// reads and [`Packet::decode`] starts from. The checksum covers `BODY..`.
const SRC_ADDR: usize = 1;
const DST_ADDR: usize = 5;
const CSUM: usize = 9;
const BODY: usize = 11;
const SRC_PORT: usize = BODY;
const DST_PORT: usize = BODY + 2;

impl Packet {
    #[inline]
    pub fn src(&self) -> Endpoint {
        Endpoint::new(self.src_addr, self.dm.src_port)
    }

    #[inline]
    pub fn dst(&self) -> Endpoint {
        Endpoint::new(self.dst_addr, self.dm.dst_port)
    }

    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(&self.payload)
    }

    /// Serialize with `payload` in place of the packet's own (which is not
    /// read) — what a translator that decoded a frame in place encodes with.
    pub fn encode_with(&self, payload: &[u8]) -> Vec<u8> {
        let n_sack = self.rd.sack.len(); // at most two: `SackList`
        let mut out = Vec::with_capacity(Self::header_len(n_sack) + payload.len());
        out.push(MAGIC);
        out.extend_from_slice(&self.src_addr.to_be_bytes());
        out.extend_from_slice(&self.dst_addr.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        // DM
        out.extend_from_slice(&self.dm.src_port.to_be_bytes());
        out.extend_from_slice(&self.dm.dst_port.to_be_bytes());
        // CM
        let f = &self.cm.flags;
        out.push(
            (f.syn as u8) | (f.fin as u8) << 1 | (f.rst as u8) << 2 | (f.cm_ack as u8) << 3,
        );
        out.extend_from_slice(&self.cm.isn.to_be_bytes());
        out.extend_from_slice(&self.cm.ack_isn.to_be_bytes());
        // RD
        out.extend_from_slice(&self.rd.seq.to_be_bytes());
        out.extend_from_slice(&self.rd.ack.to_be_bytes());
        out.push((self.rd.has_ack as u8) | (n_sack as u8) << 1);
        for r in self.rd.sack.iter() {
            out.extend_from_slice(&r.start.to_be_bytes());
            out.extend_from_slice(&r.end.to_be_bytes());
        }
        // OSR
        out.push(self.osr.ecn_echo as u8);
        out.extend_from_slice(&self.osr.rcv_wnd.to_be_bytes());
        // payload, checksummed for parity with the monolithic stack
        out.extend_from_slice(payload);
        let csum = checksum(self.src_addr, self.dst_addr, &out[BODY..]);
        out[CSUM..BODY].copy_from_slice(&csum.to_be_bytes());
        out
    }

    /// Parse and verify; a typed [`WireError`] for anything malformed.
    /// Arbitrary hostile bytes must classify — never panic, never
    /// mis-parse into a structurally valid packet. The payload is copied
    /// into a slab of its own: [`Packet::decode_view`] plus that copy.
    pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
        let (pkt, payload) = Self::decode_view(bytes)?;
        Ok(Packet { payload: payload.into(), ..pkt })
    }

    /// [`Packet::decode`] without the copy: the header is verified and
    /// parsed in place, and the payload comes back as the part of `bytes`
    /// it occupies, beside a packet whose own payload is empty. Allocates
    /// nothing — what a receiver does with the bytes is its own affair.
    pub fn decode_view(bytes: &[u8]) -> Result<(Packet, &[u8]), WireError> {
        if bytes.first() != Some(&MAGIC) {
            return Err(WireError::BadMagic);
        }
        if bytes.len() < MIN_PACKET_BYTES {
            return Err(WireError::Truncated { need: MIN_PACKET_BYTES, got: bytes.len() });
        }
        if bytes.len() > MAX_FRAME_BYTES {
            return Err(WireError::Oversized { limit: MAX_FRAME_BYTES, got: bytes.len() });
        }
        let src_addr = be32(bytes, SRC_ADDR);
        let dst_addr = be32(bytes, DST_ADDR);
        let b = &bytes[BODY..];
        if checksum(src_addr, dst_addr, b) != be16(bytes, CSUM) {
            return Err(WireError::BadChecksum);
        }
        let src_port = be16(bytes, SRC_PORT);
        let dst_port = be16(bytes, DST_PORT);
        let mut i = 4; // body cursor, past DM's two ports
        let u32_at = |i: &mut usize| {
            let v = be32(b, *i);
            *i += 4;
            v
        };
        let fbyte = b[i];
        i += 1;
        let flags = CmFlags {
            syn: fbyte & 1 != 0,
            fin: fbyte & 2 != 0,
            rst: fbyte & 4 != 0,
            cm_ack: fbyte & 8 != 0,
        };
        let isn = u32_at(&mut i);
        let ack_isn = u32_at(&mut i);
        let seq = u32_at(&mut i);
        let ack = u32_at(&mut i);
        let rdb = b[i];
        i += 1;
        let has_ack = rdb & 1 != 0;
        let n_sack = ((rdb >> 1) & 0x3) as usize;
        if n_sack > 2 {
            return Err(WireError::BadSackCount);
        }
        if b.len() < i + n_sack * 8 + 3 {
            return Err(WireError::Truncated { need: BODY + i + n_sack * 8 + 3, got: bytes.len() });
        }
        let mut sack = SackList::default();
        for _ in 0..n_sack {
            let start = u32_at(&mut i);
            let end = u32_at(&mut i);
            sack.push(SackRange { start, end });
        }
        let ecn_echo = b[i] != 0;
        i += 1;
        let rcv_wnd = be16(b, i);
        i += 2;
        let pkt = Packet {
            src_addr,
            dst_addr,
            dm: DmHeader { src_port, dst_port },
            cm: CmHeader { flags, isn, ack_isn },
            rd: RdHeader { seq, ack, has_ack, sack },
            osr: OsrHeader { ecn_echo, rcv_wnd },
            payload: Payload::default(),
        };
        Ok((pkt, &b[i..]))
    }

    /// Render the packet as one line per sublayer — the paper's pedagogy
    /// claim ("sublayering has obvious pedagogic advantages in teaching")
    /// made tangible: every header bit is attributed to its owner.
    pub fn describe(&self) -> String {
        let f = &self.cm.flags;
        let mut flags = String::new();
        for (on, c) in [(f.syn, "SYN"), (f.fin, "FIN"), (f.rst, "RST"), (f.cm_ack, "CMACK")] {
            if on {
                if !flags.is_empty() {
                    flags.push('|');
                }
                flags.push_str(c);
            }
        }
        if flags.is_empty() {
            flags.push('-');
        }
        let sack = if self.rd.sack.is_empty() {
            String::new()
        } else {
            format!(
                " sack={:?}",
                self.rd.sack.iter().map(|r| (r.start, r.end)).collect::<Vec<_>>()
            )
        };
        format!(
            "DM [{} -> {}]  CM [{} isn={} ack_isn={}]  RD [seq={}{}{}]  OSR [wnd={}{}]  payload {}B",
            self.src_addr & 0xFF,
            self.dst_addr & 0xFF,
            flags,
            self.cm.isn,
            self.cm.ack_isn,
            self.rd.seq,
            if self.rd.has_ack { format!(" ack={}", self.rd.ack) } else { String::new() },
            sack,
            self.osr.rcv_wnd,
            if self.osr.ecn_echo { " ECN" } else { "" },
            self.payload.len()
        )
    }

    /// Header size in bytes for the given SACK count (experiment E11).
    pub const fn header_len(n_sack: usize) -> usize {
        // magic + addrs + csum + DM(4) + CM(9) + RD(9 + 8*sack) + OSR(3)
        1 + 8 + 2 + 4 + 9 + 9 + 8 * n_sack + 3
    }
}

/// Addressing read off a raw frame without decoding (or checksumming) the
/// rest; `None` for a frame shorter than the fixed header or without the
/// native magic byte — so never for RFC 793 traffic.
#[inline]
pub fn peek(frame: &[u8]) -> Option<(Endpoint, Endpoint)> {
    if frame.len() < MIN_PACKET_BYTES || frame[0] != MAGIC {
        return None;
    }
    Some((
        Endpoint::new(be32(frame, SRC_ADDR), be16(frame, SRC_PORT)),
        Endpoint::new(be32(frame, DST_ADDR), be16(frame, DST_PORT)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rfc793::{self, Segment};

    fn sample() -> Packet {
        Packet {
            src_addr: 0x0A000001,
            dst_addr: 0x0A000002,
            dm: DmHeader { src_port: 5000, dst_port: 80 },
            cm: CmHeader {
                flags: CmFlags { syn: true, fin: false, rst: false, cm_ack: true },
                isn: 0x11111111,
                ack_isn: 0x22222222,
            },
            rd: RdHeader {
                seq: 100,
                ack: 200,
                has_ack: true,
                sack: [SackRange { start: 300, end: 400 }].into_iter().collect(),
            },
            osr: OsrHeader { ecn_echo: true, rcv_wnd: 9000 },
            payload: b"native".to_vec().into(),
        }
    }

    #[test]
    fn round_trip() {
        let p = sample();
        assert_eq!(Packet::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn a_view_decode_is_the_decode_without_the_copy() {
        let p = sample();
        let frame = p.encode();
        let (head, payload) = Packet::decode_view(&frame).unwrap();
        assert_eq!(payload, b"native");
        assert!(std::ptr::eq(payload, &frame[frame.len() - 6..]), "read in place");
        assert!(head.payload.is_empty());
        assert_eq!(head.encode_with(payload), frame, "the header re-encodes around the view");
        assert_eq!(Packet { payload: payload.into(), ..head }, p);
        let mut bad = frame.clone();
        bad[frame.len() - 1] ^= 1;
        assert_eq!(Packet::decode_view(&bad), Err(WireError::BadChecksum));
    }

    #[test]
    fn round_trip_minimal() {
        let p = Packet {
            src_addr: 1,
            dst_addr: 2,
            dm: DmHeader { src_port: 1, dst_port: 2 },
            ..Default::default()
        };
        assert_eq!(Packet::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn every_empty_payload_is_the_slabless_one() {
        // "Empty" has a single representation, whichever constructor or
        // slice made it: nothing allocated, no slab kept alive.
        let pure_ack = Packet::decode(&Packet::default().encode()).unwrap();
        let full = Payload::from(&b"native"[..]);
        let empties = [
            Payload::default(),
            Payload::from(&[][..]),
            Payload::from(vec![]),
            pure_ack.payload,
            full.slice(0..0),
            full.slice(6..6),
            full.slice(2..5).slice(1..1),
            Payload::gather(0, |_| unreachable!("nothing to fill")),
        ];
        for e in &empties {
            assert!(e.is_empty());
            assert!(e.ptr_eq(&empties[0]) && e.slab_len() == 0, "an empty payload owns no slab");
            assert_eq!(e, &empties[0]);
        }
        assert!(!full.ptr_eq(&empties[0]) && full != empties[0]);
        // Equal bytes in two slabs are equal, but not shared; a clone is.
        assert_eq!(full, Payload::from(b"native".to_vec()));
        assert!(!full.ptr_eq(&Payload::from(b"native".to_vec())));
        assert!(full.ptr_eq(&full.clone()));
    }

    #[test]
    fn a_gathered_payload_is_one_exactly_sized_slab_of_what_was_written() {
        let pieces: [&[u8]; 3] = [b"nat", b"i", b"ve"];
        let p = Payload::gather(6, |slab| {
            let mut at = 0;
            for piece in pieces {
                slab[at..at + piece.len()].copy_from_slice(piece);
                at += piece.len();
            }
        });
        assert_eq!((&p[..], p.slab_len()), (&b"native"[..], 6));
    }

    #[test]
    fn a_spare_slab_is_refilled_once_no_view_of_it_is_left() {
        let mut spare = Spare::default();
        let first = spare.write(b"sublayering");
        assert!(spare.ptr_eq(&first) && spare.slab_len() == 11);
        drop(first);
        // No handle left but the spare's, and long enough: refilled at its
        // front, the view no longer than the write.
        let second = spare.write(b"layer");
        assert!(spare.ptr_eq(&second));
        assert_eq!((&second[..], second.slab_len()), (&b"layer"[..], 11));
        let narrowed = second.slice(1..4);
        drop(second);
        // A narrower view still pins it.
        let third = spare.write(b"native");
        assert!(!spare.ptr_eq(&narrowed) && spare.ptr_eq(&third));
        assert_eq!(&narrowed[..], b"aye");
        assert_eq!((&third[..], third.slab_len()), (&b"native"[..], 6));
    }

    #[test]
    fn a_spare_that_a_view_still_shows_is_left_alone() {
        let mut spare = Spare::default();
        let live = spare.write(b"sublayering");
        let other = spare.write(b"layer");
        assert!(!live.ptr_eq(&other) && spare.ptr_eq(&other));
        assert_eq!(&live[..], b"sublayering", "the live view's bytes are unchanged");
        assert_eq!((&other[..], other.slab_len()), (&b"layer"[..], 5));
        // The spare moved on: the first slab dies with its last view.
        drop(other);
        assert_eq!(&spare.write(b"tcp")[..], b"tcp");
        assert_eq!(spare.slab_len(), 5);
        assert_eq!(&live[..], b"sublayering");
        // A clone of the spare is a handle too: neither refills the slab.
        let twin = spare.clone();
        let apart = spare.write(b"osr");
        assert!(!twin.ptr_eq(&apart) && spare.ptr_eq(&apart));
    }

    #[test]
    fn a_spare_too_short_for_the_write_is_replaced() {
        let mut spare = Spare::default();
        drop(spare.write(b"tcp"));
        let longer = spare.write(b"layering");
        assert!(spare.ptr_eq(&longer));
        assert_eq!((&longer[..], longer.slab_len()), (&b"layering"[..], 8));
    }

    #[test]
    fn an_empty_write_keeps_the_spare_and_allocates_nothing() {
        let mut spare = Spare::default();
        let empty = spare.write(b"");
        assert!(empty.ptr_eq(&Payload::default()) && spare.slab_len() == 0);
        let held = spare.write(b"native");
        let empty = spare.write(&[]);
        assert!(empty.is_empty() && empty.slab_len() == 0);
        assert!(spare.ptr_eq(&held), "the spare is the slab it was");
        drop(held);
        let refilled = spare.write(b"nat");
        assert!(spare.ptr_eq(&refilled) && refilled.slab_len() == 6);
    }

    #[test]
    fn a_slice_is_a_view_of_the_same_slab() {
        let whole = Payload::from(&b"sublayering"[..]);
        let mid = whole.slice(3..8);
        assert_eq!(&mid[..], b"layer");
        assert!(mid.ptr_eq(&whole), "no bytes copied");
        assert_eq!((mid.len(), mid.slab_len()), (5, 11));
        // Ranges are relative to the view they are taken from.
        let inner = mid.slice(1..4);
        assert_eq!(&inner[..], b"aye");
        assert!(inner.ptr_eq(&whole));
        assert_eq!(whole.slice(0..11), whole);
        // `Eq` and `Debug` are the bytes', wherever they sit.
        let elsewhere = Payload::from(&b"player"[..]).slice(1..6);
        assert_eq!(mid, elsewhere);
        assert!(!mid.ptr_eq(&elsewhere));
        assert_ne!(mid, whole.slice(2..7));
        assert_eq!(format!("{mid:?}"), format!("{:?}", b"layer".to_vec()));
        // A view outlives the handle it was cut from.
        drop(whole);
        assert_eq!(&mid[..], b"layer");
    }

    #[test]
    #[should_panic(expected = "slice 4..7 of a 6-byte payload")]
    fn a_slice_past_the_end_of_the_view_panics() {
        // Out of the *view*, though still inside the slab.
        let _ = Payload::from(&b"sublayering"[..]).slice(2..8).slice(4..7);
    }

    #[test]
    #[should_panic(expected = "of a 6-byte payload")]
    fn a_backwards_slice_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        let _ = Payload::from(&b"native"[..]).slice(4..2);
    }

    #[test]
    fn a_packet_is_no_bigger_than_before_views() {
        // CM retains a 4-slot `VecDeque<Packet>` per endpoint (part of
        // `sub.conn_heap_bytes`): the view's two offsets must be paid for by
        // the inline SACK list, not by a bigger packet.
        assert!(std::mem::size_of::<Packet>() <= 88, "{}", std::mem::size_of::<Packet>());
    }

    #[test]
    fn payload_debug_is_the_vec_rendering() {
        // `describe()`, the goldens and `slconform` transcripts print
        // packets with `{:?}`: the new type must not move a byte of them.
        for bytes in [vec![], vec![7], b"native".to_vec()] {
            let p = Payload::from(bytes.clone());
            assert_eq!(format!("{p:?}"), format!("{bytes:?}"));
            assert_eq!(format!("{p:#?}"), format!("{bytes:#?}"));
        }
    }

    #[test]
    fn round_trip_two_sack_ranges() {
        let mut p = sample();
        p.rd.sack.push(SackRange { start: 500, end: 600 });
        assert_eq!(Packet::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn a_third_sack_range_is_dropped_where_it_is_added() {
        // The 2-bit on-wire count cannot carry more than two ranges; a
        // third must be dropped, not allowed to alias the count.
        let ranges = [300, 500, 700].map(|start| SackRange { start, end: start + 100 });
        let mut p = sample();
        p.rd.sack.push(ranges[1]);
        p.rd.sack.push(ranges[2]);
        assert_eq!(p.rd.sack[..], ranges[..2]);
        assert_eq!(p.rd.sack, ranges.into_iter().collect());
        assert_eq!(format!("{:?}", p.rd.sack), format!("{:?}", ranges[..2].to_vec()));
        assert_eq!(Packet::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn corruption_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            if let Ok(got) = Packet::decode(&bad) {
                panic!("flip at {i} undetected: {got:?}");
            }
        }
    }

    #[test]
    fn truncation_regressions() {
        // Every prefix of a valid packet must yield a typed error — the
        // fuzz-found class this decoder must never panic on again.
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            let err = Packet::decode(&bytes[..n]).expect_err("prefix accepted");
            if n == 0 {
                assert_eq!(err, WireError::BadMagic);
            } else if n < 36 {
                assert_eq!(err, WireError::Truncated { need: 36, got: n });
            }
        }
    }

    #[test]
    fn advertised_sack_past_end_is_truncated_error() {
        // Re-seal the checksum after raising the SACK count so the length
        // guard (not the checksum) must catch the overrun.
        let mut bytes = Packet { payload: Payload::default(), ..sample() }.encode();
        let rdb_at = 11 + 21; // body offset of the RD count byte
        bytes[rdb_at] = (bytes[rdb_at] & 1) | (2 << 1); // claim 2 ranges, carry 1
        let src = u32::from_be_bytes(bytes[1..5].try_into().unwrap());
        let dst = u32::from_be_bytes(bytes[5..9].try_into().unwrap());
        let csum = checksum(src, dst, &bytes[11..]);
        bytes[9] = (csum >> 8) as u8;
        bytes[10] = csum as u8;
        assert!(matches!(
            Packet::decode(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut bytes = vec![0u8; MAX_FRAME_BYTES + 1];
        bytes[0] = 0x5B;
        assert_eq!(
            Packet::decode(&bytes),
            Err(WireError::Oversized { limit: MAX_FRAME_BYTES, got: MAX_FRAME_BYTES + 1 })
        );
    }

    #[test]
    fn rejects_rfc793_traffic() {
        // A standard segment from the monolithic stack must not parse as a
        // native packet.
        let seg = Segment {
            src: Endpoint::new(1, 2),
            dst: Endpoint::new(3, 4),
            seq: 0,
            ack: 0,
            flags: rfc793::SYN,
            wnd: 100,
            mss: None,
            payload: vec![],
        };
        assert_eq!(Packet::decode(&seg.encode()), Err(WireError::BadMagic));
    }

    #[test]
    fn header_len_matches_encode() {
        // `encode` reserves exactly this much, so it must be the frame's
        // length to the byte: header alone, one byte, a full segment.
        for n_sack in 0..=2 {
            for payload in [0, 1, rfc793::DEFAULT_MSS as usize] {
                let mut p = sample();
                p.rd.sack = (0..n_sack as u32)
                    .map(|i| SackRange { start: i * 10, end: i * 10 + 5 })
                    .collect();
                p.payload = vec![0xA5; payload].into();
                let bytes = p.encode();
                assert_eq!(bytes.len(), Packet::header_len(n_sack) + payload);
                assert_eq!(Packet::decode(&bytes), Ok(p));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_any_packet_round_trips(
            src_addr: u32, dst_addr: u32, sp: u16, dp: u16,
            syn: bool, fin: bool, rst: bool, cm_ack: bool,
            isn: u32, ack_isn: u32, seq: u32, ack: u32, has_ack: bool,
            n_sack in 0usize..=2, ecn: bool, wnd: u16,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..300),
        ) {
            let pkt = Packet {
                src_addr,
                dst_addr,
                dm: DmHeader { src_port: sp, dst_port: dp },
                cm: CmHeader { flags: CmFlags { syn, fin, rst, cm_ack }, isn, ack_isn },
                rd: RdHeader {
                    seq,
                    ack,
                    has_ack,
                    sack: (0..n_sack as u32)
                        .map(|i| SackRange { start: seq.wrapping_add(i), end: ack.wrapping_add(i) })
                        .collect(),
                },
                osr: OsrHeader { ecn_echo: ecn, rcv_wnd: wnd },
                payload: payload.into(),
            };
            let bytes = pkt.encode();
            proptest::prop_assert_eq!(peek(&bytes), Some((pkt.src(), pkt.dst())));
            proptest::prop_assert_eq!(Packet::decode(&bytes), Ok(pkt));
        }

        #[test]
        fn prop_peek_refuses_rfc793_frames(
            sa: u32, da: u32, sp: u16, dp: u16, seq: u32, ack: u32, flags in 0u8..32, wnd: u16,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
        ) {
            // RFC 793 leads with the source address, so the magic byte tells
            // the formats apart for every source outside 91.0.0.0/8.
            let src = Endpoint::new(if sa >> 24 == MAGIC as u32 { !sa } else { sa }, sp);
            let seg = Segment { src, dst: Endpoint::new(da, dp), seq, ack, flags, wnd, mss: None, payload };
            proptest::prop_assert_eq!(peek(&seg.encode()), None);
        }

        #[test]
        fn prop_decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..600),
        ) {
            // Ok or typed Err — any panic fails the harness itself — and
            // `peek` agrees with every frame `decode` accepts.
            let peeked = peek(&bytes);
            if let Ok(pkt) = Packet::decode(&bytes) {
                proptest::prop_assert_eq!(peeked, Some((pkt.src(), pkt.dst())));
            }
        }

        #[test]
        fn prop_decode_never_panics_on_mutated_valid_packet(
            flip in 0usize..48, val: u8,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
        ) {
            // Mutate an almost-valid frame, then re-seal the checksum so the
            // parse proper (SACK counts, lengths) is what gets probed.
            let mut bytes = Packet { payload: payload.into(), ..sample() }.encode();
            let i = flip % bytes.len();
            bytes[i] = val;
            let src = u32::from_be_bytes(bytes[1..5].try_into().unwrap());
            let dst = u32::from_be_bytes(bytes[5..9].try_into().unwrap());
            let csum = checksum(src, dst, &bytes[11..]);
            bytes[9] = (csum >> 8) as u8;
            bytes[10] = csum as u8;
            let peeked = peek(&bytes);
            if let Ok(pkt) = Packet::decode(&bytes) {
                proptest::prop_assert_eq!(peeked, Some((pkt.src(), pkt.dst())));
            }
        }
    }

    #[test]
    fn describe_attributes_fields_to_sublayers() {
        let d = sample().describe();
        for part in ["DM [", "CM [SYN|CMACK", "RD [seq=100 ack=200", "OSR [wnd=9000 ECN", "payload 6B"] {
            assert!(d.contains(part), "{d:?} missing {part:?}");
        }
    }

    #[test]
    fn endpoints_combine_addr_and_port() {
        let p = sample();
        assert_eq!(p.src(), Endpoint::new(0x0A000001, 5000));
        assert_eq!(p.dst(), Endpoint::new(0x0A000002, 80));
    }
}
