//! The **reliable delivery (RD)** sublayer (§3).
//!
//! RD "uses the ISNs supplied by the lower connection management layer to
//! reliably (i.e., exactly once) deliver segments given by the upper layer
//! (OSR). OSR gives RD a segment identified by its byte offset, and RD
//! translates this to segment sequence numbers (by adding the ISN)...
//! All details of retransmission, including keeping track of a window of
//! outstanding packets are encapsulated in RD; if Selective
//! Acknowledgement is used, the SACK options are also processed by this
//! sublayer."
//!
//! Per test **T3**, RD owns the `seq`/`ack`/SACK bits of the native header
//! and nothing else. Its upward interface (test **T2**) is:
//! segments-by-offset down, possibly-out-of-order `Delivered` events up
//! (OSR does the reordering), and **summarized congestion signals**
//! ([`CongSignal`]) — OSR never sees a sequence number.
//!
//! Internally RD works in unwrapped 64-bit byte offsets (offset 0 = first
//! payload byte = wire sequence `isn + 1`); conversion to/from the 32-bit
//! wire space happens only at the header boundary.

use crate::fingerprint as fp;
use crate::mailbox::Mailbox;
use crate::signals::{CongSignal, SeqValidity};
use crate::wire::{Packet, Payload, SackRange};
use netsim::{Dur, Time};
use slmetrics::{site, SharedLog};
use slwire::seq;
use std::collections::{BTreeMap, VecDeque};

/// Events RD reports to the stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RdEvent {
    /// A (possibly out-of-order) segment for OSR, exactly once.
    Delivered { offset: u64, data: Payload },
    /// Our FIN was acknowledged (close handshake progress, relayed to CM).
    LocalFinAcked,
    /// The peer's FIN was reached in sequence (relayed to CM).
    PeerFinReached,
    /// [`MAX_RETRIES`] consecutive RTOs fired without the cumulative ack
    /// advancing. The stack must abort the connection (graceful
    /// degradation) rather than back off forever.
    RetriesExhausted,
}

/// RD counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RdStats {
    pub segments_sent: u64,
    pub retransmits: u64,
    pub fast_retransmits: u64,
    pub acks_sent: u64,
    pub duplicate_payload_dropped: u64,
    pub sacked_skips: u64,
    pub timeouts: u64,
    pub keepalive_probes: u64,
    /// Out-of-order data dropped because the range map hit its safety cap
    /// (an attacker spraying disjoint bytes cannot grow state unboundedly).
    pub ooo_range_drops: u64,
    /// Segments dropped because their sequence number was outside the
    /// plausible receive window in either direction (RFC 793
    /// acceptability; blind data injection lands here).
    pub invalid_seq_drops: u64,
    /// Pure acks deferred by pressure-driven ACK pacing.
    pub acks_paced: u64,
}

#[derive(Clone)]
struct Flight {
    /// Offset of the segment's first byte.
    off: u64,
    /// The view OSR cut, shared with the outbox entry of each (re)transmission.
    data: Payload,
    sent_at: Time,
    /// When the segment was *first* transmitted (never touched by
    /// retransmission, unlike `sent_at`) — the basis of oldest-segment
    /// accounting during partitions.
    first_sent: Time,
    retransmitted: bool,
    sacked: bool,
}

const INITIAL_RTO: Dur = Dur(1_000_000_000);
const MIN_RTO: Dur = Dur(200_000_000);
const MAX_RTO: Dur = Dur(60_000_000_000);
/// Safety cap on outstanding segments (the *policy* window is OSR's).
const MAX_IN_FLIGHT: usize = 1024;
/// Hard cap on bytes parked in the retransmission buffer. During a long
/// partition nothing is acked, so without this the application could keep
/// pushing until `MAX_IN_FLIGHT` large segments sat in memory; with it,
/// [`ReliableDelivery::can_accept`] goes false and backpressure propagates
/// up through OSR to the writer. The cap may be overshot by at most one
/// segment (the one accepted while just under it).
pub const RTX_BYTES_CAP: usize = 256 * 1024;
/// Window RD uses to classify inbound control sequences (RFC 5961): a
/// wire sequence within this many bytes past `rcv_nxt` is "in window".
/// Public so `slverify` can cross-check [`ReliableDelivery::seq_validity`]
/// against its own `classify_seq` relation over the same window.
pub const VALIDITY_WND: u32 = 64 * 1024;
/// Safety cap on disjoint out-of-order ranges tracked by the receiver.
const MAX_OOO_RANGES: usize = 256;
/// Safety cap on total out-of-order bytes accepted ahead of `rcv_nxt`
/// (matches OSR's `RCV_BUF_CAP`, which is where the bytes park).
const MAX_OOO_BYTES: u64 = 64 * 1024 - 1;
/// Consecutive RTO expirations without `snd_una` progress before RD gives
/// up and asks the stack to abort ([`RdEvent::RetriesExhausted`]).
pub const MAX_RETRIES: u32 = 8;
/// How long a pure ack may be delayed while ACK pacing is on (host memory
/// pressure). Well under [`MIN_RTO`], so pacing can never trigger a peer's
/// retransmission timer.
pub const ACK_DELAY: Dur = Dur(50_000_000);

/// The RD sublayer for one connection.
#[derive(Clone)]
pub struct ReliableDelivery {
    snd_isn: u32,
    rcv_isn: u32,

    // --- sender, in unwrapped offsets ---
    snd_una: u64,
    snd_nxt: u64,
    /// Unacknowledged segments, contiguous and in offset order: pushed at
    /// the back, acknowledged off the front.
    in_flight: VecDeque<Flight>,
    /// Total payload bytes across `in_flight` (kept incrementally so the
    /// memory-bound check is O(1)). Like `ooo_bytes`, capped far below
    /// `u32::MAX` ([`RTX_BYTES_CAP`] plus one segment), and `u32` so the
    /// two counters share one word of the per-connection state.
    flight_bytes: u32,
    /// Our FIN, once queued: its offset and when it was first sent.
    fin: Option<(u64, Time)>,
    fin_retransmitted: bool,
    fin_acked: bool,
    dupacks: u32,
    /// NewReno-style recovery: retransmit the next hole on each partial
    /// ack until `recover` is reached.
    in_recovery: bool,
    recover: u64,

    // --- RTT / RTO ---
    srtt: Option<Dur>,
    rttvar: Dur,
    rto: Dur,
    rto_deadline: Option<Time>,
    /// RTO expirations since `snd_una` last advanced.
    consecutive_rtx: u32,

    // --- receiver ---
    rcv_nxt: u64,
    /// Disjoint out-of-order received ranges, start -> end (offsets).
    ooo: BTreeMap<u64, u64>,
    /// Total bytes across `ooo` (kept incrementally so the receiver-state
    /// cap check is O(1)): at most [`MAX_OOO_BYTES`] plus one frame.
    ooo_bytes: u32,
    peer_fin_off: Option<u64>,
    peer_fin_reached: bool,
    ack_pending: bool,
    /// This pending ack must go out now (window update / probe answer) —
    /// pacing may not hold it.
    ack_forced: bool,
    /// RD's slice of the backpressure contract: when on, pure acks are
    /// held up to [`ACK_DELAY`] and coalesced, throttling the peer's ack
    /// clock. Data, FIN, and forced acks are never delayed.
    pace_acks: bool,
    delayed_ack_deadline: Option<Time>,
    /// Advertise SACK ranges (ablation knob; default on).
    use_sack: bool,

    // --- outputs ---
    /// (offset or None for a pure ack, payload, is_fin). A data entry's
    /// payload is a handle on the slab `in_flight` holds, not a copy.
    outbox: Mailbox<(Option<u64>, Payload, bool)>,
    signals: Mailbox<CongSignal>,
    events: Mailbox<RdEvent>,
    pub stats: RdStats,
    log: SharedLog,
}

impl ReliableDelivery {
    /// Create from the ISN pair CM established.
    pub fn new(snd_isn: u32, rcv_isn: u32, log: SharedLog) -> ReliableDelivery {
        ReliableDelivery {
            snd_isn,
            rcv_isn,
            snd_una: 0,
            snd_nxt: 0,
            in_flight: VecDeque::new(),
            flight_bytes: 0,
            fin: None,
            fin_retransmitted: false,
            fin_acked: false,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: Dur::ZERO,
            rto: INITIAL_RTO,
            rto_deadline: None,
            consecutive_rtx: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            peer_fin_off: None,
            peer_fin_reached: false,
            ack_pending: false,
            ack_forced: false,
            pace_acks: false,
            delayed_ack_deadline: None,
            use_sack: true,
            outbox: Mailbox::new(),
            signals: Mailbox::new(),
            events: Mailbox::new(),
            stats: RdStats::default(),
            log,
        }
    }

    // --- wire <-> offset conversions (RD-private) ---

    fn wire_snd(&self, off: u64) -> u32 {
        self.snd_isn.wrapping_add(1).wrapping_add(off as u32)
    }

    pub(crate) fn wire_rcv_ack(&self) -> u32 {
        self.rcv_isn.wrapping_add(1).wrapping_add(self.rcv_nxt as u32)
    }

    /// Classify an inbound wire sequence against the next expected one
    /// (RFC 5961). The *stack* derives this signal for CM — exactly like
    /// the `handshake_ack` boolean — so CM decides reset *policy* without
    /// ever touching RD's sequence arithmetic.
    pub fn seq_validity(&self, wire_seq: u32) -> SeqValidity {
        let expected = self.wire_rcv_ack();
        if wire_seq == expected {
            SeqValidity::Exact
        } else if seq::between(wire_seq, expected, expected.wrapping_add(VALIDITY_WND)) {
            SeqValidity::InWindow
        } else {
            SeqValidity::Outside
        }
    }

    /// Unwrap a 32-bit wire value to the 64-bit offset closest to `near`.
    fn unwrap(base_isn: u32, wire: u32, near: u64) -> u64 {
        let raw = wire.wrapping_sub(base_isn.wrapping_add(1));
        let delta = raw.wrapping_sub(near as u32) as i32 as i64;
        near.saturating_add_signed(delta)
    }

    /// Enable/disable SACK advertisement (RD-private either way).
    pub fn set_use_sack(&mut self, on: bool) {
        self.use_sack = on;
    }

    /// Late-bind the peer ISN (timer-based CM learns it from the first
    /// inbound packet). Only legal while nothing has been received.
    pub fn set_rcv_isn(&mut self, isn: u32) {
        debug_assert!(self.rcv_nxt == 0 && self.ooo.is_empty(), "receive side must be fresh");
        self.rcv_isn = isn;
    }

    // --- sender side ---

    /// May OSR push another segment? (Safety bound only — rate policy
    /// lives in OSR.) Bounded both by segment count and by
    /// [`RTX_BYTES_CAP`] bytes, so an unreachable peer stalls the writer
    /// instead of growing the retransmission buffer for as long as the
    /// partition lasts.
    pub fn can_accept(&self) -> bool {
        self.in_flight.len() < MAX_IN_FLIGHT
            && (self.flight_bytes as usize) < RTX_BYTES_CAP
            && self.fin.is_none()
    }

    /// Bytes handed to us and not yet acknowledged.
    pub fn bytes_unacked(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Bytes held in the retransmission buffer (memory-bound invariant).
    pub fn in_flight_bytes(&self) -> usize {
        self.flight_bytes as usize
    }

    /// Age of the oldest byte still waiting for an ack, measured from its
    /// *first* transmission. During a partition this grows linearly while
    /// [`in_flight_bytes`](Self::in_flight_bytes) stays capped — the pair
    /// is what the host's `ResourceBudget` accounting sees.
    pub fn oldest_unacked_age(&self, now: Time) -> Option<Dur> {
        let seg = self.in_flight.front().map(|f| f.first_sent);
        let fin = self.fin.filter(|_| !self.fin_acked).map(|(_, sent_at)| sent_at);
        seg.or(fin).map(|t0| now.since(t0))
    }

    /// Accept a segment from OSR at the next offset; RD assigns sequence
    /// numbers and guarantees eventual delivery.
    pub fn push_segment(&mut self, now: Time, data: Payload) {
        self.log.borrow_mut().write(site!("rd", "snd_nxt"));
        self.log.borrow_mut().write(site!("rd", "in_flight"));
        assert!(self.can_accept(), "pushed past RD's safety window");
        assert!(!data.is_empty());
        let off = self.snd_nxt;
        self.snd_nxt += data.len() as u64;
        self.flight_bytes += data.len() as u32;
        self.outbox.push_back((Some(off), Payload::clone(&data), false));
        self.in_flight.push_back(Flight {
            off,
            data,
            sent_at: now,
            first_sent: now,
            retransmitted: false,
            sacked: false,
        });
        self.stats.segments_sent += 1;
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
    }

    /// Queue the FIN (CM decided to close; RD owns its retransmission).
    pub fn send_fin(&mut self, now: Time) {
        if self.fin.is_some() {
            return;
        }
        self.log.borrow_mut().write(site!("rd", "snd_nxt"));
        let off = self.snd_nxt;
        self.snd_nxt += 1;
        self.fin = Some((off, now));
        self.outbox.push_back((Some(off), Payload::default(), true));
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
    }

    pub fn fin_acked(&self) -> bool {
        self.fin_acked
    }

    /// All pushed data (and FIN if queued) acknowledged?
    pub fn all_acked(&self) -> bool {
        self.snd_una == self.snd_nxt
    }

    fn rtt_sample(&mut self, sample: Dur) {
        self.log.borrow_mut().write(site!("rd", "srtt"));
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = Dur(sample.0 / 2);
            }
            Some(srtt) => {
                let err = sample.0.abs_diff(srtt.0);
                self.rttvar = Dur((3 * self.rttvar.0 + err) / 4);
                self.srtt = Some(Dur((7 * srtt.0 + sample.0) / 8));
            }
        }
        let srtt = self.srtt.unwrap();
        self.rto = Dur(srtt.0 + (4 * self.rttvar.0).max(srtt.0 / 8)).clamp(MIN_RTO, MAX_RTO);
    }

    fn retransmit_first_unacked(&mut self, now: Time) {
        self.log.borrow_mut().read(site!("rd", "in_flight"));
        // Skip SACKed segments — SACK is RD-private mechanics.
        if let Some(f) = self.in_flight.iter_mut().find(|f| !f.sacked) {
            f.retransmitted = true;
            f.sent_at = now;
            self.outbox.push_back((Some(f.off), Payload::clone(&f.data), false));
            self.stats.retransmits += 1;
        } else if let Some((fin_off, _)) = self.fin {
            if !self.fin_acked {
                self.fin_retransmitted = true;
                self.outbox.push_back((Some(fin_off), Payload::default(), true));
                self.stats.retransmits += 1;
            }
        }
    }

    // --- input processing ---

    /// Process the RD header (+ payload) of an inbound packet.
    /// `fin` is CM's flag, passed through because the FIN occupies one
    /// unit of RD's sequence space (the CM/RD coupling the paper
    /// acknowledges).
    pub fn on_packet(&mut self, now: Time, pkt: &Packet, fin: bool) {
        self.log.borrow_mut().read(site!("rd", "snd_una"));
        // Acknowledgment processing.
        if pkt.rd.has_ack {
            let ack = Self::unwrap(self.snd_isn, pkt.rd.ack, self.snd_una);
            if ack > self.snd_una && ack <= self.snd_nxt {
                self.log.borrow_mut().write(site!("rd", "snd_una"));
                self.log.borrow_mut().write(site!("rd", "in_flight"));
                let bytes = (ack - self.snd_una) as u32;
                // RTT sample from the newest fully-acked clean segment
                // (Karn's rule).
                let mut sample = None;
                // Segments are contiguous, so the fully-acked ones are a
                // prefix of the queue.
                while self.in_flight.front().is_some_and(|f| f.off + f.data.len() as u64 <= ack) {
                    let f = self.in_flight.pop_front().expect("front just seen");
                    self.flight_bytes -= f.data.len() as u32;
                    if !f.retransmitted {
                        sample = Some(now.since(f.sent_at));
                    }
                }
                self.snd_una = ack;
                self.dupacks = 0;
                self.consecutive_rtx = 0;
                if let Some(s) = sample {
                    self.rtt_sample(s);
                }
                let was_in_recovery = self.in_recovery;
                if self.in_recovery {
                    if ack >= self.recover {
                        self.in_recovery = false;
                    } else {
                        // Partial ack: the next hole is lost too —
                        // retransmit it immediately (NewReno).
                        self.retransmit_first_unacked(now);
                    }
                }
                // FIN covered by this ack?
                if let Some((foff, sent_at)) = self.fin {
                    if ack > foff && !self.fin_acked {
                        self.fin_acked = true;
                        if !self.fin_retransmitted {
                            self.rtt_sample(now.since(sent_at));
                        }
                        self.events.push_back(RdEvent::LocalFinAcked);
                    }
                }
                // Summarize progress upward (fin consumes 1 non-data unit).
                let data_bytes = bytes.saturating_sub(
                    self.fin.map_or(0, |(foff, _)| u32::from(ack > foff)),
                );
                // RD owns the recovery point; the controller only sees
                // the classification: plain progress, one more hole
                // (partial ack), or episode-closing full ack.
                self.signals.push_back(if !was_in_recovery {
                    CongSignal::Acked { bytes: data_bytes, rtt: sample }
                } else if self.in_recovery {
                    CongSignal::PartialAck { bytes: data_bytes }
                } else {
                    CongSignal::FullAck { bytes: data_bytes, rtt: sample }
                });
                self.rto_deadline =
                    if self.all_acked() { None } else { Some(now + self.rto) };
            } else if ack == self.snd_una
                && !self.all_acked()
                && pkt.payload.is_empty()
                && !fin
            {
                // Duplicate ack.
                self.log.borrow_mut().write(site!("rd", "dupacks"));
                self.dupacks += 1;
                if self.dupacks == 3 {
                    self.stats.fast_retransmits += 1;
                    self.in_recovery = true;
                    self.recover = self.snd_nxt;
                    self.retransmit_first_unacked(now);
                    self.signals.push_back(CongSignal::DupAckLoss);
                } else if self.dupacks > 3 && self.in_recovery {
                    // Further dup acks mean segments left the pipe —
                    // NewReno window inflation.
                    self.signals.push_back(CongSignal::DupAck);
                }
            }
            // SACK: mark covered segments (those that start inside a
            // range) so retransmission skips them.
            for r in pkt.rd.sack.iter() {
                let start = Self::unwrap(self.snd_isn, r.start, self.snd_una);
                let end = Self::unwrap(self.snd_isn, r.end, self.snd_una);
                // (Nothing, for a forged range that runs backwards.)
                let first = self.in_flight.partition_point(|f| f.off < start);
                for f in self.in_flight.iter_mut().skip(first).take_while(|f| f.off < end) {
                    if !f.sacked {
                        f.sacked = true;
                        self.stats.sacked_skips += 1;
                    }
                }
            }
        }

        // Payload / FIN reception.
        let payload_len = pkt.payload.len() as u64;
        if payload_len > 0 || fin {
            // RFC 793 acceptability, checked in *wire* space before
            // unwrapping: the segment must start within VALIDITY_WND of
            // the next expected sequence in either direction (ahead =
            // in-window new data, behind = a retransmission). Without
            // this, a blindly forged sequence number can alias onto a
            // live stream offset and corrupt the byte stream.
            let expected = self.wire_rcv_ack();
            let ahead = pkt.rd.seq.wrapping_sub(expected);
            let behind = expected.wrapping_sub(pkt.rd.seq);
            if ahead >= VALIDITY_WND && behind > VALIDITY_WND {
                self.stats.invalid_seq_drops += 1;
                // Re-anchor an honest-but-desynced peer (and leave a
                // blind forger none the wiser about the real window).
                self.ack_pending = true;
                return;
            }
            self.log.borrow_mut().write(site!("rd", "rcv_ranges"));
            let seq_off = Self::unwrap(self.rcv_isn, pkt.rd.seq, self.rcv_nxt);
            if payload_len > 0 {
                self.receive_range(seq_off, &pkt.payload);
            }
            if fin {
                let fin_off = seq_off + payload_len;
                self.peer_fin_off = Some(fin_off);
            }
            self.advance_rcv();
            self.ack_pending = true;
        } else if pkt.rd.has_ack {
            // Pure acks at the peer's current sequence need no response,
            // but an empty segment *behind* rcv_nxt is a keepalive probe:
            // answer with a bare ack so the prober learns we are alive
            // (TCP's unacceptable-segment rule).
            let seq_off = Self::unwrap(self.rcv_isn, pkt.rd.seq, self.rcv_nxt);
            if seq_off < self.rcv_nxt {
                self.ack_pending = true;
            }
        }
    }

    /// Record a received payload range; deliver only the novel parts
    /// (exactly-once).
    fn receive_range(&mut self, start: u64, data: &Payload) {
        let end = start + data.len() as u64;
        if start > self.rcv_nxt {
            // Receiver-state caps: accept only data that advances rcv_nxt
            // once either cap is reached, so a hostile sender ignoring the
            // advertised window (or spraying disjoint bytes) cannot grow
            // the range map or OSR's parked reassembly bytes unboundedly.
            debug_assert_eq!(
                self.ooo_bytes as u64,
                self.ooo.iter().map(|(&s, &e)| e - s).sum::<u64>()
            );
            if self.ooo.len() >= MAX_OOO_RANGES
                || self.ooo_bytes as u64 + data.len() as u64 > MAX_OOO_BYTES
            {
                self.stats.ooo_range_drops += 1;
                self.ack_pending = true;
                return;
            }
        } else if start == self.rcv_nxt
            && self.ooo.first_key_value().is_none_or(|(&s, _)| end <= s)
        {
            // The common case — the next segment in order, clear of every
            // parked range: all of it is novel. `advance_rcv` pulls in a
            // parked range it now touches. The event shares the decoded
            // packet's slab.
            self.events.push_back(RdEvent::Delivered { offset: start, data: Payload::clone(data) });
            self.rcv_nxt = end;
            return;
        }
        // Clip against what is already covered — the delivered prefix, then
        // the parked ranges (every key of `ooo` is past `rcv_nxt`, so the
        // chain is sorted) —, emitting the novel gaps of [start, end).
        let covered =
            std::iter::once((0, self.rcv_nxt)).chain(self.ooo.iter().map(|(&s, &e)| (s, e)));
        let mut cursor = start;
        let mut novel: Vec<(u64, u64)> = Vec::new();
        for (cs, ce) in covered {
            if ce <= cursor {
                continue;
            }
            if cs >= end {
                break;
            }
            if cs > cursor {
                novel.push((cursor, cs.min(end)));
            }
            cursor = cursor.max(ce);
            if cursor >= end {
                break;
            }
        }
        if cursor < end {
            novel.push((cursor, end));
        }
        if novel.is_empty() {
            self.stats.duplicate_payload_dropped += 1;
            return;
        }
        for (ns, ne) in novel {
            let range = (ns - start) as usize..(ne - start) as usize;
            // A view keeps the whole decoded payload alive, so hand one up
            // only when it covers at least half of it (all of it, for an
            // out-of-order segment that overlaps nothing); a smaller novel
            // part is copied out. Otherwise a peer resending 64 KiB frames
            // that are one byte novel each would pin 64 KiB per byte OSR
            // accounts for.
            let data =
                if 2 * range.len() >= data.len() { data.slice(range) } else { data[range].into() };
            self.events.push_back(RdEvent::Delivered { offset: ns, data });
            // Merge into the ooo range set.
            Self::merge_range(&mut self.ooo, ns, ne);
            self.ooo_bytes += (ne - ns) as u32;
        }
    }

    fn merge_range(ooo: &mut BTreeMap<u64, u64>, mut s: u64, mut e: u64) {
        // Absorb overlapping/adjacent ranges.
        let overlapping: Vec<u64> = ooo
            .range(..=e)
            .filter(|(_, &re)| re >= s)
            .map(|(&rs, _)| rs)
            .collect();
        for rs in overlapping {
            let re = ooo.remove(&rs).unwrap();
            s = s.min(rs);
            e = e.max(re);
        }
        ooo.insert(s, e);
    }

    fn advance_rcv(&mut self) {
        // Pull contiguous ranges into rcv_nxt.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.pop_first();
            self.ooo_bytes -= (e - s) as u32;
            self.rcv_nxt = self.rcv_nxt.max(e);
        }
        if let Some(foff) = self.peer_fin_off {
            if !self.peer_fin_reached && self.rcv_nxt == foff {
                self.rcv_nxt += 1; // the FIN consumes one unit
                self.peer_fin_reached = true;
                self.events.push_back(RdEvent::PeerFinReached);
            }
        }
    }

    // --- output ---

    /// Next packet to send: data/fin segments, else a pure ack if owed.
    /// Returns the packet skeleton (RD fields filled) and whether CM must
    /// stamp the FIN flag.
    ///
    /// Under ACK pacing, a non-forced pure ack is deferred up to
    /// [`ACK_DELAY`]: the first poll arms the delay, later polls emit it
    /// once `now` reaches the deadline. Acks riding on data/FIN segments
    /// are never deferred, so pacing only thins the bare-ack stream.
    pub fn poll_packet(&mut self, now: Time) -> Option<(Packet, bool)> {
        let (off, payload, is_fin) = match self.outbox.pop_front() {
            Some(x) => x,
            None => {
                if !self.ack_pending {
                    return None;
                }
                if self.pace_acks && !self.ack_forced {
                    match self.delayed_ack_deadline {
                        None => {
                            self.log.borrow_mut().write(site!("rd", "ack_delay"));
                            self.delayed_ack_deadline = Some(now + ACK_DELAY);
                            self.stats.acks_paced += 1;
                            return None;
                        }
                        Some(d) if now < d => return None,
                        Some(_) => {}
                    }
                }
                (None, Payload::default(), false)
            }
        };
        self.log.borrow_mut().read(site!("rd", "rcv_ranges"));
        let mut pkt = Packet::default();
        pkt.rd.seq = self.wire_snd(off.unwrap_or(self.snd_nxt));
        pkt.rd.has_ack = true;
        pkt.rd.ack = self.wire_rcv_ack();
        // Up to two SACK ranges from the out-of-order set.
        pkt.rd.sack = self
            .ooo
            .iter()
            .take(if self.use_sack { 2 } else { 0 })
            .map(|(&s, &e)| SackRange {
                start: self.rcv_isn.wrapping_add(1).wrapping_add(s as u32),
                end: self.rcv_isn.wrapping_add(1).wrapping_add(e as u32),
            })
            .collect();
        pkt.payload = payload;
        self.ack_pending = false;
        self.ack_forced = false;
        self.delayed_ack_deadline = None;
        if pkt.payload.is_empty() && !is_fin && off.is_none() {
            self.stats.acks_sent += 1;
        }
        Some((pkt, is_fin))
    }

    /// Stamp ack fields on a packet originated elsewhere (CM handshake
    /// acks) so every outgoing packet carries the cumulative ack, exactly
    /// like TCP.
    pub fn fill_tx(&mut self, pkt: &mut Packet) {
        self.log.borrow_mut().read(site!("rd", "rcv_ranges"));
        pkt.rd.seq = self.wire_snd(self.snd_nxt);
        pkt.rd.has_ack = true;
        pkt.rd.ack = self.wire_rcv_ack();
        self.ack_pending = false;
        self.ack_forced = false;
        self.delayed_ack_deadline = None;
    }

    /// Request a bare ack packet (used for window updates). Forced acks
    /// bypass ACK pacing — a delayed window update could deadlock a
    /// persist-probing peer.
    pub fn force_ack(&mut self) {
        self.ack_pending = true;
        self.ack_forced = true;
    }

    /// Turn pressure-driven ACK pacing on or off (plumbed down from the
    /// host through the stack).
    pub fn set_ack_pacing(&mut self, on: bool) {
        self.log.borrow_mut().write(site!("rd", "ack_delay"));
        self.pace_acks = on;
        if !on {
            // Any held ack goes out at the next poll.
            self.delayed_ack_deadline = None;
        }
    }

    /// Monotone per-connection progress: in-order bytes delivered up to
    /// OSR plus bytes the peer has cumulatively acknowledged. The host's
    /// slow-drain (slowloris) detector compares snapshots of this.
    pub fn progress_bytes(&self) -> u64 {
        self.rcv_nxt + self.snd_una
    }

    /// Queue an idle keepalive probe: an empty segment one unit behind
    /// `snd_nxt`, which the peer must answer with a bare ack (it is not an
    /// acceptable in-sequence segment). Returns `false` when no data has
    /// ever been sent — the probe sequence would be indistinguishable from
    /// a plain ack, so such connections cannot be probed.
    pub fn send_keepalive_probe(&mut self) -> bool {
        if self.snd_nxt == 0 {
            return false;
        }
        self.outbox.push_back((Some(self.snd_nxt - 1), Payload::default(), false));
        self.stats.keepalive_probes += 1;
        true
    }

    /// The current retransmission timeout (exposed so tests can verify
    /// exponential backoff).
    pub fn current_rto(&self) -> Dur {
        self.rto
    }

    /// RTO expirations since the cumulative ack last advanced.
    pub fn consecutive_retries(&self) -> u32 {
        self.consecutive_rtx
    }

    /// Next summarized congestion signal for OSR, oldest first.
    pub fn poll_signal(&mut self) -> Option<CongSignal> {
        self.signals.pop_front()
    }

    /// Next event for the stack, oldest first.
    pub fn poll_event(&mut self) -> Option<RdEvent> {
        self.events.pop_front()
    }

    // `benchmark/src/chain.rs` still drains by `Vec`, and a PR that claims a
    // gain may not edit `benchmark/`: the next benchmark-only PR moves it to
    // `poll_signal`/`poll_event` and deletes these two.
    pub fn take_signals(&mut self) -> Vec<CongSignal> {
        std::iter::from_fn(|| self.poll_signal()).collect()
    }

    pub fn take_events(&mut self) -> Vec<RdEvent> {
        std::iter::from_fn(|| self.poll_event()).collect()
    }

    pub fn poll_deadline(&self) -> Option<Time> {
        match (self.rto_deadline, self.delayed_ack_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    pub fn on_tick(&mut self, now: Time) {
        if self.rto_deadline.is_some_and(|d| now >= d) {
            self.log.borrow_mut().write(site!("rd", "rto"));
            if self.all_acked() {
                self.rto_deadline = None;
                return;
            }
            if self.consecutive_rtx >= MAX_RETRIES {
                // Retry budget spent with zero cumulative-ack progress:
                // stop the timer and tell the stack to abort.
                self.rto_deadline = None;
                self.events.push_back(RdEvent::RetriesExhausted);
                return;
            }
            self.consecutive_rtx += 1;
            self.stats.timeouts += 1;
            // Ack-clocked recovery after the timeout: partial acks will
            // pull out the remaining holes without waiting a full RTO
            // each.
            self.in_recovery = true;
            self.recover = self.snd_nxt;
            self.retransmit_first_unacked(now);
            self.signals.push_back(CongSignal::TimeoutLoss);
            self.rto = Dur((self.rto.0 * 2).min(MAX_RTO.0));
            self.rto_deadline = Some(now + self.rto);
        }
    }

    /// Receiver progress (used by the stack/tests).
    pub fn rcv_next_offset(&self) -> u64 {
        self.rcv_nxt
    }

    pub fn peer_fin_reached(&self) -> bool {
        self.peer_fin_reached
    }

    /// Deterministic behavioral fingerprint for the RD contract checker
    /// (see [`crate::fingerprint`]): equal keys must imply behaviorally
    /// identical endpoints under the contract's drive alphabet. Counters
    /// in [`RdStats`] are deliberately excluded — they never influence
    /// future behavior.
    pub fn contract_key(&self) -> Vec<u64> {
        let mut acc = fp::fold(
            fp::SEED,
            [
                self.snd_isn as u64,
                self.rcv_isn as u64,
                self.snd_una,
                self.snd_nxt,
                self.flight_bytes as u64,
                self.fin.map_or(u64::MAX, |(off, _)| off),
                self.fin.map_or(u64::MAX, |(_, sent_at)| sent_at.0),
                (self.fin_retransmitted as u64) | (self.fin_acked as u64) << 1,
                self.dupacks as u64,
                (self.in_recovery as u64) | (self.recover << 1),
                self.srtt.map_or(u64::MAX, |d| d.0),
                self.rttvar.0,
                self.rto.0,
                self.rto_deadline.map_or(u64::MAX, |t| t.0),
                self.consecutive_rtx as u64,
                self.rcv_nxt,
                self.peer_fin_off.map_or(u64::MAX, |o| o),
                (self.peer_fin_reached as u64)
                    | (self.ack_pending as u64) << 1
                    | (self.ack_forced as u64) << 2
                    | (self.pace_acks as u64) << 3
                    | (self.use_sack as u64) << 4,
                self.delayed_ack_deadline.map_or(u64::MAX, |t| t.0),
            ],
        );
        for f in &self.in_flight {
            acc = fp::fold(
                acc,
                [
                    f.off,
                    f.data.len() as u64,
                    f.sent_at.0,
                    f.first_sent.0,
                    (f.retransmitted as u64) | (f.sacked as u64) << 1,
                ],
            );
        }
        for (&s, &e) in &self.ooo {
            acc = fp::fold(acc, [s, e]);
        }
        for (off, payload, is_fin) in self.outbox.iter() {
            acc = fp::mix(acc, off.map_or(u64::MAX, |o| o));
            acc = fp::fold_bytes(acc, payload);
            acc = fp::mix(acc, *is_fin as u64);
        }
        acc = fp::fold_bytes(acc, format!("{:?}", self.signals).as_bytes());
        acc = fp::fold_bytes(acc, format!("{:?}", self.events).as_bytes());
        vec![acc]
    }
}

// ---------------------------------------------------------------------
// Contract driver (slverify::contracts::RdContract drives a *real*
// sender/receiver endpoint pair through this, exactly as CongCtrl drives
// RateController).
// ---------------------------------------------------------------------

/// The per-endpoint operations the RD assume/guarantee contract
/// exercises. Implemented by the shipped [`ReliableDelivery`] and by the
/// [`BuggyRd`] mutation canary (used as the sender arm).
pub trait RdDriver: Clone {
    fn push_segment(&mut self, now: Time, data: Payload);
    fn on_packet(&mut self, now: Time, pkt: &Packet, fin: bool);
    fn poll_packet(&mut self, now: Time) -> Option<(Packet, bool)>;
    fn on_tick(&mut self, now: Time);
    fn poll_deadline(&self) -> Option<Time>;
    fn poll_event(&mut self) -> Option<RdEvent>;
    fn all_acked(&self) -> bool;
    /// See [`ReliableDelivery::contract_key`].
    fn contract_key(&self) -> Vec<u64>;
}

impl RdDriver for ReliableDelivery {
    fn push_segment(&mut self, now: Time, data: Payload) {
        ReliableDelivery::push_segment(self, now, data)
    }
    fn on_packet(&mut self, now: Time, pkt: &Packet, fin: bool) {
        ReliableDelivery::on_packet(self, now, pkt, fin)
    }
    fn poll_packet(&mut self, now: Time) -> Option<(Packet, bool)> {
        ReliableDelivery::poll_packet(self, now)
    }
    fn on_tick(&mut self, now: Time) {
        ReliableDelivery::on_tick(self, now)
    }
    fn poll_deadline(&self) -> Option<Time> {
        ReliableDelivery::poll_deadline(self)
    }
    fn poll_event(&mut self) -> Option<RdEvent> {
        ReliableDelivery::poll_event(self)
    }
    fn all_acked(&self) -> bool {
        ReliableDelivery::all_acked(self)
    }
    fn contract_key(&self) -> Vec<u64> {
        ReliableDelivery::contract_key(self)
    }
}

/// Mutation canary for the RD contract, mirroring [`slcc::BuggyDeflate`]:
/// a plausible refactor slip concludes that one retransmission per segment
/// is enough ("the first retry already covers the loss") and silently
/// drops every RTO retransmission after the first — so a lost retry is
/// never recovered and the byte is never delivered. Never wired into
/// product code; it exists so `RdContract` has a concrete counterexample
/// for its bounded-delivery obligation.
#[derive(Clone)]
pub struct BuggyRd {
    inner: ReliableDelivery,
    rtos: u32,
}

impl BuggyRd {
    pub fn new(snd_isn: u32, rcv_isn: u32, log: SharedLog) -> BuggyRd {
        BuggyRd { inner: ReliableDelivery::new(snd_isn, rcv_isn, log), rtos: 0 }
    }
}

impl RdDriver for BuggyRd {
    fn push_segment(&mut self, now: Time, data: Payload) {
        self.inner.push_segment(now, data)
    }
    fn on_packet(&mut self, now: Time, pkt: &Packet, fin: bool) {
        self.inner.on_packet(now, pkt, fin)
    }
    fn poll_packet(&mut self, now: Time) -> Option<(Packet, bool)> {
        self.inner.poll_packet(now)
    }
    fn on_tick(&mut self, now: Time) {
        let queued = self.inner.outbox.len();
        let timeouts = self.inner.stats.timeouts;
        self.inner.on_tick(now);
        if self.inner.stats.timeouts > timeouts {
            self.rtos += 1;
            if self.rtos >= 2 {
                // THE BUG: swallow the retransmission this RTO queued.
                self.inner.outbox.truncate(queued);
            }
        }
    }
    fn poll_deadline(&self) -> Option<Time> {
        self.inner.poll_deadline()
    }
    fn poll_event(&mut self) -> Option<RdEvent> {
        self.inner.poll_event()
    }
    fn all_acked(&self) -> bool {
        self.inner.all_acked()
    }
    fn contract_key(&self) -> Vec<u64> {
        let mut k = self.inner.contract_key();
        k.push(self.rtos as u64);
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rd() -> ReliableDelivery {
        ReliableDelivery::new(1000, 2000, slmetrics::shared())
    }

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    fn events(r: &mut ReliableDelivery) -> Vec<RdEvent> {
        std::iter::from_fn(|| r.poll_event()).collect()
    }

    fn signals(r: &mut ReliableDelivery) -> Vec<CongSignal> {
        std::iter::from_fn(|| r.poll_signal()).collect()
    }

    /// Build an inbound packet as the peer would (peer's snd_isn = our
    /// rcv_isn = 2000).
    fn peer_data(seq_off: u64, data: &[u8], ack_off: Option<u64>) -> Packet {
        let mut p = Packet::default();
        p.rd.seq = 2000u32.wrapping_add(1).wrapping_add(seq_off as u32);
        if let Some(a) = ack_off {
            p.rd.has_ack = true;
            p.rd.ack = 1000u32.wrapping_add(1).wrapping_add(a as u32);
        }
        p.payload = data.into();
        p
    }

    #[test]
    fn push_assigns_sequential_offsets() {
        let mut r = rd();
        r.push_segment(t(0), vec![1; 100].into());
        r.push_segment(t(0), vec![2; 50].into());
        let (p1, _) = r.poll_packet(t(0)).unwrap();
        let (p2, _) = r.poll_packet(t(0)).unwrap();
        assert_eq!(p1.rd.seq, 1001);
        assert_eq!(p2.rd.seq, 1101);
        assert_eq!(r.bytes_unacked(), 150);
    }

    #[test]
    fn contract_key_folds_what_the_mailboxes_hold_not_how() {
        // `bursty` is drained once, after every hand-off queue has held two
        // items (which spills it); `steady` after every step, so its queues
        // never leave the inline slot. Equal contents, equal key — the 1,482
        // states of BENCH_contracts.json are counted by this key.
        let steps: [&dyn Fn(&mut ReliableDelivery); 8] = [
            &|r| r.push_segment(t(0), vec![1; 100].into()),
            &|r| r.push_segment(t(0), vec![2; 100].into()),
            &|r| r.on_packet(t(0), &peer_data(100, &[3; 50], None), false),
            &|r| r.on_packet(t(0), &peer_data(300, &[4; 50], None), false),
            // The third duplicate ack is the first to raise a signal.
            &|r| r.on_packet(t(0), &peer_data(0, &[], Some(0)), false),
            &|r| r.on_packet(t(0), &peer_data(0, &[], Some(0)), false),
            &|r| r.on_packet(t(0), &peer_data(0, &[], Some(0)), false),
            &|r| r.on_packet(t(0), &peer_data(0, &[], Some(0)), false),
        ];
        let drain = |r: &mut ReliableDelivery| {
            while r.poll_packet(t(0)).is_some() {}
            (events(r), signals(r))
        };
        let (mut bursty, mut steady) = (rd(), rd());
        for step in steps {
            step(&mut bursty);
            step(&mut steady);
            drain(&mut steady);
        }
        drain(&mut bursty);
        for (r, spilled) in [(&bursty, true), (&steady, false)] {
            assert_eq!(matches!(r.outbox, Mailbox::Spilled(_)), spilled);
            assert_eq!(matches!(r.events, Mailbox::Spilled(_)), spilled);
            assert_eq!(matches!(r.signals, Mailbox::Spilled(_)), spilled);
        }
        assert_eq!(bursty.contract_key(), steady.contract_key());
        // And with one item waiting in each queue.
        for r in [&mut bursty, &mut steady] {
            r.push_segment(t(0), vec![5; 100].into());
            r.on_packet(t(0), &peer_data(500, &[6; 50], None), false);
            r.on_packet(t(0), &peer_data(0, &[], Some(0)), false);
            assert_eq!((r.outbox.len(), r.events.len(), r.signals.len()), (1, 1, 1));
        }
        assert_eq!(bursty.contract_key(), steady.contract_key());
        assert_ne!(bursty.contract_key(), rd().contract_key());
    }

    #[test]
    fn a_pushed_slab_is_the_one_sent_and_resent() {
        // No copy between OSR's cut and the codec: the outbox entry of the
        // first transmission and of an RTO retransmission are handles on
        // the slab `in_flight` keeps.
        let mut r = rd();
        let slab = Payload::from(vec![7; 100]);
        r.push_segment(t(0), slab.clone());
        let (first, _) = r.poll_packet(t(0)).unwrap();
        assert!(first.payload.ptr_eq(&slab));
        let d = r.poll_deadline().unwrap();
        r.on_tick(d);
        let (again, _) = r.poll_packet(d).unwrap();
        assert_eq!(again.rd.seq, first.rd.seq);
        assert!(again.payload.ptr_eq(&slab), "a retransmission copies nothing");
        assert_eq!(r.stats.retransmits, 1);
    }

    #[test]
    fn in_order_delivery_shares_the_decoded_slab() {
        let mut r = rd();
        let pkt = Packet::decode(&peer_data(0, &[1; 100], None).encode()).unwrap();
        r.on_packet(t(0), &pkt, false);
        match &events(&mut r)[..] {
            [RdEvent::Delivered { offset: 0, data }] => assert!(data.ptr_eq(&pkt.payload)),
            other => panic!("{other:?}"),
        }
        // A retransmission covering [50, 150) is clipped: the novel half
        // goes up as a view of the packet's slab, the covered half nowhere.
        let pkt = peer_data(50, &[2; 100], None);
        r.on_packet(t(1), &pkt, false);
        match &events(&mut r)[..] {
            [RdEvent::Delivered { offset: 100, data }] => {
                assert_eq!(data[..], [2; 50]);
                assert!(data.ptr_eq(&pkt.payload));
            }
            other => panic!("{other:?}"),
        }
        // Less than half novel — [60, 160), of which [150, 160) — is copied
        // out, so a short view cannot keep a long frame alive.
        let pkt = peer_data(60, &[3; 100], None);
        r.on_packet(t(2), &pkt, false);
        match &events(&mut r)[..] {
            [RdEvent::Delivered { offset: 150, data }] => {
                assert_eq!(data[..], [3; 10]);
                assert!(!data.ptr_eq(&pkt.payload));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cumulative_ack_clears_in_flight() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100].into());
        r.push_segment(t(0), vec![0; 100].into());
        r.on_packet(t(50), &peer_data(0, &[], Some(200)), false);
        assert!(r.all_acked());
        let sigs = signals(&mut r);
        assert_eq!(sigs.len(), 1);
        match sigs[0] {
            CongSignal::Acked { bytes, rtt } => {
                assert_eq!(bytes, 200);
                assert_eq!(rtt, Some(Dur::from_millis(50)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cumulative_ack_pops_only_the_fully_acked_prefix() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100].into());
        r.push_segment(t(10), vec![0; 100].into());
        r.push_segment(t(20), vec![0; 100].into());
        // An ack landing inside the third segment leaves it queued whole.
        r.on_packet(t(50), &peer_data(0, &[], Some(250)), false);
        assert_eq!(r.in_flight_bytes(), 100);
        assert_eq!(r.bytes_unacked(), 50);
        // The RTT sample is the newest fully-acked segment's (sent at 10).
        assert_eq!(
            signals(&mut r),
            vec![CongSignal::Acked { bytes: 250, rtt: Some(Dur::from_millis(40)) }]
        );
        r.on_packet(t(60), &peer_data(0, &[], Some(300)), false);
        assert_eq!(r.in_flight_bytes(), 0);
        assert!(r.all_acked());
    }

    #[test]
    fn out_of_order_delivery_goes_up_immediately() {
        // The paper: "segments may be delivered out of order by the RD
        // sublayer" — reordering is OSR's job.
        let mut r = rd();
        r.on_packet(t(0), &peer_data(100, &[9; 50], None), false);
        let ev = events(&mut r);
        assert_eq!(ev, vec![RdEvent::Delivered { offset: 100, data: vec![9; 50].into() }]);
        // The cumulative ack still says 0.
        let (ack, _) = r.poll_packet(t(0)).unwrap();
        assert_eq!(ack.rd.ack, 2001);
        // And a SACK range advertises the island.
        assert_eq!(ack.rd.sack.len(), 1);
        assert_eq!(ack.rd.sack[0].start, 2001 + 100);
        assert_eq!(ack.rd.sack[0].end, 2001 + 150);
    }

    #[test]
    fn duplicates_are_dropped_exactly_once() {
        let mut r = rd();
        r.on_packet(t(0), &peer_data(0, &[7; 100], None), false);
        assert_eq!(events(&mut r).len(), 1);
        r.on_packet(t(1), &peer_data(0, &[7; 100], None), false);
        assert!(events(&mut r).is_empty(), "duplicate must not be redelivered");
        assert_eq!(r.stats.duplicate_payload_dropped, 1);
    }

    #[test]
    fn partial_overlap_delivers_only_novel_bytes() {
        let mut r = rd();
        r.on_packet(t(0), &peer_data(0, &[1; 100], None), false);
        events(&mut r);
        // Retransmission covering [50, 150): only [100, 150) is new.
        r.on_packet(t(1), &peer_data(50, &[2; 100], None), false);
        let ev = events(&mut r);
        assert_eq!(ev, vec![RdEvent::Delivered { offset: 100, data: vec![2; 50].into() }]);
        assert_eq!(r.rcv_next_offset(), 150);
    }

    #[test]
    fn cumulative_ack_advances_over_merged_ranges() {
        let mut r = rd();
        r.on_packet(t(0), &peer_data(100, &[2; 100], None), false);
        assert_eq!(r.rcv_next_offset(), 0);
        r.on_packet(t(1), &peer_data(0, &[1; 100], None), false);
        assert_eq!(r.rcv_next_offset(), 200);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit_and_signal() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100].into());
        r.push_segment(t(0), vec![0; 100].into());
        while r.poll_packet(t(0)).is_some() {}
        for i in 0..3 {
            r.on_packet(t(10 + i), &peer_data(0, &[], Some(0)), false);
        }
        assert_eq!(r.stats.fast_retransmits, 1);
        assert!(signals(&mut r).contains(&CongSignal::DupAckLoss));
        // The retransmission is the first unacked segment.
        let (p, _) = r.poll_packet(t(20)).unwrap();
        assert_eq!(p.rd.seq, 1001);
        assert_eq!(p.payload.len(), 100);
    }

    #[test]
    fn sacked_segments_are_skipped_on_retransmit() {
        let mut r = rd();
        r.push_segment(t(0), vec![1; 100].into()); // offsets 0..100
        r.push_segment(t(0), vec![2; 100].into()); // offsets 100..200
        while r.poll_packet(t(0)).is_some() {}
        // Peer SACKs the *first* segment but cumulative ack stays 0
        // (contrived, but exercises the skip logic).
        let mut p = peer_data(0, &[], Some(0));
        p.rd.sack.push(SackRange { start: 1001, end: 1001 + 100 });
        for _ in 0..3 {
            r.on_packet(t(10), &p.clone(), false);
        }
        let (rtx, _) = r.poll_packet(t(20)).unwrap();
        assert_eq!(rtx.rd.seq, 1101, "retransmit must skip the SACKed segment");
        assert!(r.stats.sacked_skips > 0);
    }

    #[test]
    fn sack_marks_the_segments_that_start_inside_a_range() {
        // Ten 100-byte segments, the first two acknowledged, so the queue
        // no longer starts at offset 0; every range over a grid that hits
        // segment starts, their middles and both sides of the window —
        // backwards ones included, which a forger can send — against the
        // segment-by-segment rule.
        for (s, e) in (0..=22).flat_map(|s| (0..=22).map(move |e| (s * 50, e * 50))) {
            let mut r = rd();
            for _ in 0..10 {
                r.push_segment(t(0), vec![0; 100].into());
            }
            r.on_packet(t(1), &peer_data(0, &[], Some(200)), false);
            let mut p = peer_data(0, &[], Some(200));
            p.rd.sack.push(SackRange { start: 1001 + s, end: 1001 + e });
            r.on_packet(t(2), &p, false);
            let marked: Vec<u64> = r.in_flight.iter().filter(|f| f.sacked).map(|f| f.off).collect();
            let want: Vec<u64> =
                (2..10).map(|i| i * 100).filter(|&off| s as u64 <= off && off < e as u64).collect();
            assert_eq!(marked, want, "sack [{s}, {e})");
            assert_eq!(r.stats.sacked_skips, want.len() as u64);
        }
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100].into());
        while r.poll_packet(t(0)).is_some() {}
        let d1 = r.poll_deadline().unwrap();
        r.on_tick(d1);
        assert_eq!(r.stats.retransmits, 1);
        assert!(signals(&mut r).contains(&CongSignal::TimeoutLoss));
        let d2 = r.poll_deadline().unwrap();
        assert!(d2.since(d1) > Dur::ZERO);
        assert_eq!(d2.since(d1), Dur::from_secs(2), "doubled RTO");
    }

    #[test]
    fn karn_rule_skips_retransmitted_samples() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100].into());
        while r.poll_packet(t(0)).is_some() {}
        let d = r.poll_deadline().unwrap();
        r.on_tick(d); // retransmitted
        r.on_packet(t(5000), &peer_data(0, &[], Some(100)), false);
        // The ack closes the RTO-recovery episode (FullAck); Karn's rule
        // still forbids an RTT sample from the retransmitted segment.
        match signals(&mut r).last() {
            Some(CongSignal::FullAck { rtt, .. }) => assert_eq!(*rtt, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fin_consumes_one_unit_and_is_acked() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 10].into());
        r.send_fin(t(0));
        let (_, f1) = r.poll_packet(t(0)).unwrap();
        assert!(!f1);
        let (fin_pkt, is_fin) = r.poll_packet(t(0)).unwrap();
        assert!(is_fin);
        assert_eq!(fin_pkt.rd.seq, 1011);
        // Ack everything incl. the FIN.
        r.on_packet(t(10), &peer_data(0, &[], Some(11)), false);
        assert!(r.fin_acked());
        assert!(r.all_acked());
        assert!(events(&mut r).contains(&RdEvent::LocalFinAcked));
    }

    #[test]
    fn peer_fin_reached_only_in_sequence() {
        let mut r = rd();
        // FIN at offset 100 (after 100 bytes we haven't seen yet).
        let mut p = peer_data(100, &[], None);
        p.rd.seq = 2001 + 100;
        r.on_packet(t(0), &p, true);
        assert!(!r.peer_fin_reached());
        // Now the data arrives; the FIN is reached.
        r.on_packet(t(1), &peer_data(0, &[3; 100], None), false);
        assert!(r.peer_fin_reached());
        assert!(events(&mut r).contains(&RdEvent::PeerFinReached));
        // The ack covers the FIN: 100 bytes + 1.
        let (ack, _) = r.poll_packet(t(2)).unwrap();
        assert_eq!(ack.rd.ack, 2001 + 101);
    }

    #[test]
    fn fin_retransmitted_on_rto() {
        let mut r = rd();
        r.send_fin(t(0));
        while r.poll_packet(t(0)).is_some() {}
        let d = r.poll_deadline().unwrap();
        r.on_tick(d);
        let (p, is_fin) = r.poll_packet(d).unwrap();
        assert!(is_fin);
        assert_eq!(p.rd.seq, 1001);
    }

    #[test]
    fn pure_ack_emitted_when_owed() {
        let mut r = rd();
        r.on_packet(t(0), &peer_data(0, &[1; 10], None), false);
        let (ack, is_fin) = r.poll_packet(t(0)).unwrap();
        assert!(!is_fin);
        assert!(ack.payload.is_empty());
        assert_eq!(ack.rd.ack, 2011);
        assert!(r.poll_packet(t(0)).is_none(), "ack owed only once");
    }

    #[test]
    fn unwrap_handles_sequence_wraparound() {
        // near the 32-bit boundary
        // base = isn+1 = u32::MAX - 9; wire 5 unwraps to raw offset 15,
        // which near `2^32 - 20` means the *second* lap: 2^32 + 15.
        let off = ReliableDelivery::unwrap(u32::MAX - 10, 5, (1u64 << 32) - 20);
        assert_eq!(off, (1u64 << 32) + 15);
    }

    #[test]
    fn merge_range_coalesces() {
        let mut m = BTreeMap::new();
        ReliableDelivery::merge_range(&mut m, 10, 20);
        ReliableDelivery::merge_range(&mut m, 30, 40);
        ReliableDelivery::merge_range(&mut m, 15, 35);
        assert_eq!(m.into_iter().collect::<Vec<_>>(), vec![(10, 40)]);
    }

    #[test]
    fn merge_range_adjacent() {
        let mut m = BTreeMap::new();
        ReliableDelivery::merge_range(&mut m, 0, 10);
        ReliableDelivery::merge_range(&mut m, 10, 20);
        assert_eq!(m.into_iter().collect::<Vec<_>>(), vec![(0, 20)]);
    }

    #[test]
    fn rto_backs_off_exponentially_then_gives_up() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100].into());
        let _ = r.poll_packet(t(0));
        let mut now;
        let mut prev_rto = r.current_rto();
        for i in 1..=MAX_RETRIES {
            now = r.poll_deadline().expect("timer armed while unacked");
            r.on_tick(now);
            assert_eq!(r.consecutive_retries(), i);
            // Doubled, up to the 60 s ceiling.
            assert_eq!(r.current_rto(), Dur((prev_rto.0 * 2).min(60_000_000_000)));
            prev_rto = r.current_rto();
            let (pkt, _) = r.poll_packet(now).expect("retransmission queued");
            assert_eq!(pkt.rd.seq, 1001);
        }
        assert!(!events(&mut r).contains(&RdEvent::RetriesExhausted));
        // One more expiry crosses the budget: no retransmission, the
        // timer stops, and the give-up event surfaces.
        now = r.poll_deadline().unwrap();
        r.on_tick(now);
        assert_eq!(events(&mut r), vec![RdEvent::RetriesExhausted]);
        assert!(r.poll_packet(now).is_none());
        assert!(r.poll_deadline().is_none(), "no retry timer after give-up");
        assert_eq!(r.stats.retransmits as u32, MAX_RETRIES);
    }

    #[test]
    fn ack_progress_resets_retry_budget() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100].into());
        r.push_segment(t(0), vec![1; 100].into());
        let _ = r.poll_packet(t(0));
        let _ = r.poll_packet(t(0));
        let d = r.poll_deadline().unwrap();
        r.on_tick(d);
        assert_eq!(r.consecutive_retries(), 1);
        // A cumulative ack covering the first segment is progress.
        r.on_packet(d + Dur::from_millis(1), &peer_data(0, &[], Some(100)), false);
        assert_eq!(r.consecutive_retries(), 0);
    }

    #[test]
    fn ack_pacing_defers_then_flushes_pure_acks() {
        let mut r = rd();
        r.set_ack_pacing(true);
        r.on_packet(t(0), &peer_data(0, &[1; 10], None), false);
        assert!(r.poll_packet(t(0)).is_none(), "first poll arms the delay");
        assert_eq!(r.stats.acks_paced, 1);
        let d = r.poll_deadline().expect("delayed-ack deadline armed");
        assert_eq!(d, t(50));
        assert!(r.poll_packet(t(10)).is_none(), "still held before the deadline");
        let (ack, _) = r.poll_packet(d).expect("flushed at the deadline");
        assert_eq!(ack.rd.ack, 2011);
        assert!(r.poll_deadline().is_none(), "nothing left armed");
    }

    #[test]
    fn forced_acks_bypass_pacing() {
        let mut r = rd();
        r.set_ack_pacing(true);
        r.force_ack();
        assert!(r.poll_packet(t(0)).is_some(), "window updates are never held");
    }

    #[test]
    fn data_segment_carries_a_held_ack() {
        let mut r = rd();
        r.set_ack_pacing(true);
        r.on_packet(t(0), &peer_data(0, &[1; 10], None), false);
        assert!(r.poll_packet(t(0)).is_none());
        r.push_segment(t(1), vec![9; 10].into());
        let (p, _) = r.poll_packet(t(1)).unwrap();
        assert_eq!(p.rd.ack, 2011, "ack rides the data segment");
        assert!(r.poll_packet(t(1)).is_none(), "no separate bare ack owed");
    }

    #[test]
    fn pacing_off_releases_a_held_ack() {
        let mut r = rd();
        r.set_ack_pacing(true);
        r.on_packet(t(0), &peer_data(0, &[1; 10], None), false);
        assert!(r.poll_packet(t(0)).is_none());
        r.set_ack_pacing(false);
        assert!(r.poll_packet(t(1)).is_some(), "released as soon as pacing ends");
    }

    #[test]
    fn progress_counts_both_directions() {
        let mut r = rd();
        assert_eq!(r.progress_bytes(), 0);
        r.on_packet(t(0), &peer_data(0, &[1; 10], None), false);
        assert_eq!(r.progress_bytes(), 10, "in-order receive progress");
        r.push_segment(t(1), vec![2; 20].into());
        let _ = r.poll_packet(t(1));
        assert_eq!(r.progress_bytes(), 10, "unacked sends are not progress");
        r.on_packet(t(2), &peer_data(10, &[], Some(20)), false);
        assert_eq!(r.progress_bytes(), 30, "acked sends count");
    }

    #[test]
    fn keepalive_probe_is_behind_snd_nxt_and_gets_answered() {
        let mut r = rd();
        assert!(!r.send_keepalive_probe(), "nothing sent yet: unprobeable");
        r.push_segment(t(0), vec![5; 100].into());
        let _ = r.poll_packet(t(0));
        r.on_packet(t(10), &peer_data(0, &[], Some(100)), false);
        assert!(r.send_keepalive_probe());
        let (probe, is_fin) = r.poll_packet(t(20)).unwrap();
        assert!(!is_fin);
        assert!(probe.payload.is_empty());
        assert_eq!(probe.rd.seq, 1001 + 99, "one unit behind snd_nxt");
        assert_eq!(r.stats.keepalive_probes, 1);

        // A peer that has received 100 bytes from us answers the probe
        // with a bare ack; an in-sequence pure ack stays unanswered.
        let mut peer = ReliableDelivery::new(2000, 1000, slmetrics::shared());
        let mut data = Packet::default();
        data.rd.seq = 1001;
        data.payload = vec![5; 100].into();
        peer.on_packet(t(5), &data, false);
        let _ = peer.poll_packet(t(5)); // drain the data ack
        let mut plain_ack = Packet::default();
        plain_ack.rd.seq = 1001 + 100;
        plain_ack.rd.has_ack = true;
        plain_ack.rd.ack = 2001;
        peer.on_packet(t(21), &plain_ack, false);
        assert!(peer.poll_packet(t(21)).is_none(), "in-sequence ack: silent");
        let mut probe_pkt = Packet::default();
        probe_pkt.rd.seq = 1001 + 99;
        probe_pkt.rd.has_ack = true;
        probe_pkt.rd.ack = 2001;
        peer.on_packet(t(22), &probe_pkt, false);
        let (answer, _) = peer.poll_packet(t(22)).expect("probe must be acked");
        assert!(answer.payload.is_empty());
        assert_eq!(answer.rd.ack, 1001 + 100);
    }

    #[test]
    fn in_order_segment_overlapping_a_parked_range_is_clipped() {
        // start == rcv_nxt, but the segment runs past the start of a parked
        // range: not the whole-segment case. Only the novel prefix goes up.
        let mut r = rd();
        r.on_packet(t(0), &peer_data(100, &[9; 50], None), false);
        events(&mut r);
        r.on_packet(t(1), &peer_data(0, &[1; 120], None), false);
        assert_eq!(events(&mut r), vec![RdEvent::Delivered { offset: 0, data: vec![1; 100].into() }]);
        assert_eq!(r.rcv_next_offset(), 150);
        // Ending exactly where the parked range starts is the whole-segment
        // case, and the parked range is pulled in behind it.
        r.on_packet(t(2), &peer_data(200, &[8; 50], None), false);
        events(&mut r);
        r.on_packet(t(3), &peer_data(150, &[2; 50], None), false);
        assert_eq!(events(&mut r), vec![RdEvent::Delivered { offset: 150, data: vec![2; 50].into() }]);
        assert_eq!(r.rcv_next_offset(), 250);
        assert_eq!(r.stats.duplicate_payload_dropped, 0);
    }

    #[test]
    fn ooo_byte_cap_counts_parked_bytes_exactly() {
        // The running `ooo_bytes` must gate exactly where the scan did.
        let mut r = rd();
        let mut off = 2; // holes at [0, 1) and [1, 2)
        while off + 1000 <= MAX_OOO_BYTES + 2 {
            r.on_packet(t(0), &peer_data(off, &[2; 1000], None), false);
            off += 1000;
        }
        let rest = (MAX_OOO_BYTES + 2 - off) as usize;
        r.on_packet(t(0), &peer_data(off, &vec![3; rest], None), false);
        assert_eq!(r.stats.ooo_range_drops, 0, "parked right up to the cap");
        r.on_packet(t(0), &peer_data(1, &[4], None), false);
        assert_eq!(r.stats.ooo_range_drops, 1, "one byte over is refused");
        r.on_packet(t(0), &peer_data(0, &[1], None), false);
        r.on_packet(t(0), &peer_data(1, &[4], None), false);
        assert_eq!(r.rcv_next_offset(), MAX_OOO_BYTES + 2);
        r.on_packet(t(0), &peer_data(MAX_OOO_BYTES + 3, &[5; 1000], None), false);
        assert_eq!(r.stats.ooo_range_drops, 1, "budget is back once the holes fill");
        assert_eq!(r.stats.invalid_seq_drops, 0);
    }

    /// The receive half of RD written the obvious way: one flag per stream
    /// byte, scanned afresh on every arrival.
    struct RefReceiver {
        got: Vec<bool>,
        rcv_nxt: usize,
        stats: RdStats,
    }

    impl RefReceiver {
        fn arrive(&mut self, start: usize, data: &[u8]) -> Vec<RdEvent> {
            let end = start + data.len();
            let mut events = vec![];
            if start > self.rcv_nxt {
                let (mut held, mut ranges, mut prev) = (0, 0, false);
                for &g in &self.got[self.rcv_nxt..] {
                    held += g as usize;
                    ranges += (g && !prev) as usize;
                    prev = g;
                }
                if ranges >= MAX_OOO_RANGES || (held + data.len()) as u64 > MAX_OOO_BYTES {
                    self.stats.ooo_range_drops += 1;
                    return events;
                }
            }
            let mut i = start;
            while i < end {
                if self.got[i] {
                    i += 1;
                    continue;
                }
                let j = (i..end).find(|&k| self.got[k]).unwrap_or(end);
                events.push(RdEvent::Delivered {
                    offset: i as u64,
                    data: data[i - start..j - start].into(),
                });
                self.got[i..j].fill(true);
                i = j;
            }
            if events.is_empty() {
                self.stats.duplicate_payload_dropped += 1;
            }
            while self.got[self.rcv_nxt] {
                self.rcv_nxt += 1;
            }
            events
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_receiver_matches_per_byte_reference(seed: u64, spray: bool) {
            // (stream length, longest segment, arrivals): everyday
            // duplication, overlap and reordering, or a spray of tiny islands
            // that runs into MAX_OOO_RANGES. (Streams this short stay inside
            // the validity window and under MAX_OOO_BYTES.)
            let (stream, max_len, arrivals) =
                if spray { (1_400, 1, 800) } else { (8_000, 300, 120) };
            let mut rng = proptest::TestRng::new(seed);
            let mut r = rd();
            // One spare flag so the prefix scan always finds a `false`.
            let mut model =
                RefReceiver { got: vec![false; stream + 1], rcv_nxt: 0, stats: RdStats::default() };
            for _ in 0..arrivals {
                let len = 1 + rng.below(max_len as u128) as usize;
                // One arrival in eight is the next segment in order (clear
                // of, touching or running into what is parked); the rest land
                // anywhere: ahead, behind, on top of each other.
                let start = if rng.below(8) == 0 {
                    model.rcv_nxt.min(stream - len)
                } else {
                    rng.below((stream - len) as u128) as usize
                };
                let data: Vec<u8> = (start..start + len).map(|i| (i * 7) as u8).collect();
                r.on_packet(t(0), &peer_data(start as u64, &data, None), false);
                proptest::prop_assert_eq!(events(&mut r), model.arrive(start, &data));
                proptest::prop_assert_eq!(r.rcv_next_offset(), model.rcv_nxt as u64);
            }
            proptest::prop_assert_eq!(model.stats.ooo_range_drops > 0, spray);
            proptest::prop_assert_eq!(&r.stats, &model.stats);
        }
    }
}
