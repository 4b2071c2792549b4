//! ISN-relative abstract segments.
//!
//! Raw traces from the two stacks are incomparable: different formats,
//! different (time-derived) initial sequence numbers. [`normalize`]
//! rebases every frame of one endpoint's tap against the ISNs learned
//! from the SYNs in that trace, yielding [`AbsSeg`]s where the SYN sits
//! at relative sequence 0 and the first payload byte at 1 — the space
//! the oracle reasons in and the golden snapshots are written in.

use crate::wire::Kind;
use netsim::{TapDir, TapEvent};

/// One frame of an endpoint's trace, rebased to ISN-relative sequence
/// space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbsSeg {
    pub at_ns: u64,
    pub dir: TapDir,
    pub syn: bool,
    pub fin: bool,
    pub rst: bool,
    pub ack: bool,
    /// Relative first sequence number (SYN = 0, first data byte = 1).
    pub rel_seq: u32,
    /// Sequence space consumed.
    pub seq_len: u32,
    /// Payload bytes.
    pub len: u32,
    /// Relative cumulative ack, valid when `ack`.
    pub rel_ack: u32,
    pub wnd: u32,
    /// False when the ISN for the relevant direction was never seen (e.g.
    /// a stateless refusal RST) — `rel_seq`/`rel_ack` are then raw wire
    /// values and the oracle skips sequence arithmetic on this frame.
    pub rel_known: bool,
}

impl AbsSeg {
    pub fn flags_label(&self) -> String {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN");
        }
        if self.fin {
            parts.push("FIN");
        }
        if self.rst {
            parts.push("RST");
        }
        if self.ack {
            parts.push("ACK");
        }
        if parts.is_empty() {
            parts.push("-");
        }
        parts.join("+")
    }

    /// True for a bare cumulative ack: no flags, no payload.
    pub fn pure_ack(&self) -> bool {
        self.ack && !self.syn && !self.fin && !self.rst && self.len == 0
    }
}

/// Rebase one endpoint's tap trace. `Tx` frames are "ours", `Rx` frames
/// the peer's; each direction's ISN is learned from the first SYN seen
/// traveling that way (frames the format cannot decode are skipped —
/// they cannot occur on an unimpaired link).
pub fn normalize(kind: Kind, trace: &[TapEvent]) -> Vec<AbsSeg> {
    let mut isn_tx: Option<u32> = None;
    let mut isn_rx: Option<u32> = None;
    let mut out = Vec::with_capacity(trace.len());
    for ev in trace {
        let Some(raw) = kind.decode(&ev.bytes) else {
            continue;
        };
        let (isn_here, isn_there) = match ev.dir {
            TapDir::Tx => (&mut isn_tx, &mut isn_rx),
            TapDir::Rx => (&mut isn_rx, &mut isn_tx),
        };
        if raw.syn && isn_here.is_none() {
            *isn_here = Some(raw.seq);
        }
        // Sequence numbers rebase against the sender's ISN, acks against
        // the receiver's (they name the peer's sequence space).
        let rel_seq = isn_here.map(|isn| raw.seq.wrapping_sub(isn));
        let rel_ack = if raw.ack {
            isn_there.map(|isn| raw.ack_no.wrapping_sub(isn))
        } else {
            Some(0)
        };
        let rel_known = rel_seq.is_some() && rel_ack.is_some();
        out.push(AbsSeg {
            at_ns: ev.at.nanos(),
            dir: ev.dir,
            syn: raw.syn,
            fin: raw.fin,
            rst: raw.rst,
            ack: raw.ack,
            rel_seq: rel_seq.unwrap_or(raw.seq),
            seq_len: raw.seq_len,
            len: raw.len,
            rel_ack: if raw.ack { rel_ack.unwrap_or(raw.ack_no) } else { 0 },
            wnd: raw.wnd,
            rel_known,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Time;
    use slwire::rfc793::{Endpoint, Segment, ACK, SYN};

    fn seg(seq: u32, ack: u32, flags: u8, payload: &[u8]) -> Vec<u8> {
        Segment {
            src: Endpoint::new(1, 1),
            dst: Endpoint::new(2, 2),
            seq,
            ack,
            flags,
            wnd: 1000,
            mss: None,
            payload: payload.to_vec(),
        }
        .encode()
    }

    fn ev(dir: TapDir, bytes: Vec<u8>) -> TapEvent {
        TapEvent { at: Time::ZERO, dir, bytes }
    }

    #[test]
    fn rebases_against_both_isns() {
        // Client-side view of a handshake + 3 data bytes, arbitrary ISNs.
        let trace = vec![
            ev(TapDir::Tx, seg(9000, 0, SYN, &[])),
            ev(TapDir::Rx, seg(70_000, 9001, SYN | ACK, &[])),
            ev(TapDir::Tx, seg(9001, 70_001, ACK, &[])),
            ev(TapDir::Tx, seg(9001, 70_001, ACK, b"abc")),
            ev(TapDir::Rx, seg(70_001, 9004, ACK, &[])),
        ];
        let abs = normalize(Kind::Mono, &trace);
        assert!(abs.iter().all(|s| s.rel_known));
        assert_eq!(abs[0].rel_seq, 0);
        assert_eq!(abs[0].seq_len, 1);
        assert_eq!((abs[1].rel_seq, abs[1].rel_ack), (0, 1));
        assert_eq!((abs[2].rel_seq, abs[2].rel_ack), (1, 1));
        assert_eq!((abs[3].rel_seq, abs[3].len), (1, 3));
        assert_eq!(abs[4].rel_ack, 4, "peer acked SYN + 3 bytes");
        assert!(abs[4].pure_ack());
    }

    #[test]
    fn unknown_isn_marks_rel_unknown() {
        // A lone RST with no SYN ever seen in its direction.
        let abs = normalize(
            Kind::Mono,
            &[ev(TapDir::Rx, seg(555, 0, slwire::rfc793::RST, &[]))],
        );
        assert_eq!(abs.len(), 1);
        assert!(!abs[0].rel_known);
        assert_eq!(abs[0].rel_seq, 555, "raw value kept for display");
    }
}
