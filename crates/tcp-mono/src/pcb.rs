//! The Protocol Control Block: **all** connection state in one struct.
//!
//! This is the paper's §2.3 exhibit: "the state maintained by the
//! transport layer (e.g., sequence numbers, window sizes, etc.) is shared
//! by all of these subfunctions, which leads to non-modular code". The
//! fields below are read and written by demultiplexing, connection
//! management, reliable delivery, congestion control, flow control and the
//! timer machinery alike — exactly the entangled layout of the BSD/lwIP
//! PCB. The instrumentation in `stack.rs` records every subfunction's
//! accesses so experiment E6 can quantify the sharing.

use crate::wire::FourTuple;
use netsim::{Dur, Time};
use slcc::{CongSignal, NewReno, RateController};
use slwire::seq;
use std::collections::{BTreeMap, VecDeque};

/// RFC 793 connection states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    Listen,
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    Closing,
    TimeWait,
    CloseWait,
    LastAck,
    Closed,
}

impl TcpState {
    /// May the application still send data?
    pub fn can_send(&self) -> bool {
        matches!(self, TcpState::Established | TcpState::CloseWait)
    }
}

/// Default maximum segment size (payload bytes per segment).
pub use slwire::rfc793::DEFAULT_MSS;
/// Receive buffer capacity; the advertised window is its free space.
pub const RCV_BUF_CAP: usize = 64 * 1024 - 1;
/// Most disjoint ranges held out of order at once.
pub(crate) const MAX_OOO_RANGES: usize = 256;
/// Initial retransmission timeout.
pub const INITIAL_RTO: Dur = Dur(1_000_000_000);
/// RTO bounds.
pub const MIN_RTO: Dur = Dur(200_000_000);
pub const MAX_RTO: Dur = Dur(60_000_000_000);
/// 2*MSL for TIME_WAIT (shortened for simulation practicality).
pub const TIME_WAIT_DUR: Dur = Dur(10_000_000_000);
/// Connection-establishment retry limit.
pub const MAX_SYN_RETRIES: u32 = 6;
/// Data retransmission limit before the connection is aborted.
pub const MAX_RETRIES: u32 = 10;

/// The monolithic protocol control block.
pub struct Pcb {
    pub tuple: FourTuple,
    pub state: TcpState,

    // --- send sequence space (RFC 793 SND.*) ---
    pub iss: u32,
    pub snd_una: u32,
    pub snd_nxt: u32,
    /// Highest sequence ever sent (BSD's `snd_max`); `snd_nxt` rewinds to
    /// `snd_una` on retransmission timeout but acks up to `snd_max` remain
    /// valid.
    pub snd_max: u32,
    /// Peer-advertised window.
    pub snd_wnd: u32,
    /// Segment/ack used for the last window update (RFC 793 WL1/WL2).
    pub snd_wl1: u32,
    pub snd_wl2: u32,

    // --- receive sequence space (RCV.*) ---
    pub irs: u32,
    pub rcv_nxt: u32,

    // --- congestion control (entangled with everything) ---
    /// The pluggable controller — the same shared [`RateController`] set
    /// the sublayered stack selects from (the paper's swap claim, cashed
    /// in for the monolith). The *feeder* state below (dupacks, recover,
    /// in_fast_recovery) stays in the PCB: classifying acks against the
    /// recovery point is sequence arithmetic, which the controller never
    /// sees.
    pub cc: Box<dyn RateController>,
    /// CC observability: window samples and loss/recovery event counts,
    /// in the shared `slmetrics` shape both stacks fill (E19).
    pub cc_stats: slmetrics::CcCounters,
    pub dupacks: u32,
    /// Right edge of fast recovery (NewReno `recover`).
    pub recover: u32,
    pub in_fast_recovery: bool,
    /// F-RTO (RFC 5682, simplified): the pre-timeout `snd_max`, armed by
    /// the first RTO of a loss episode. While set, ack progress decides
    /// between "spurious — cancel the go-back-N replay" and "genuine —
    /// keep the conventional rewind" (see `stack.rs` ACK processing).
    pub frto_mark: Option<u32>,
    /// The first post-RTO ack advance was seen (F-RTO step 2 taken).
    pub frto_probed: bool,

    // --- RTT estimation ---
    pub srtt: Option<Dur>,
    pub rttvar: Dur,
    pub rto: Dur,
    /// Sequence being timed (Karn: only un-retransmitted samples count).
    pub rtt_timing: Option<(u32, Time)>,

    // --- buffers ---
    /// Unacknowledged + unsent payload bytes; `snd_buf_seq` is the
    /// sequence number of `snd_buf[0]`.
    pub snd_buf: VecDeque<u8>,
    pub snd_buf_seq: u32,
    /// The one buffer every received byte is copied into, at its place in
    /// the stream: the in-order bytes awaiting the application, then the
    /// last `ahead` bytes, where the parts held out of order sit past
    /// `rcv_nxt`, with the holes between them zero-filled until their
    /// bytes arrive — so a hole that fills moves nothing. The window trim
    /// keeps it within [`RCV_BUF_CAP`] bytes.
    pub(crate) rcv_buf: VecDeque<u8>,
    /// What is held out of order: disjoint, non-touching ranges, start ->
    /// end, in sequence offsets from `ooo_base`.
    pub(crate) ooo: BTreeMap<u32, u32>,
    /// Where the offsets in `ooo` count from: `rcv_nxt` when a part was
    /// held with nothing else held.
    pub(crate) ooo_base: u32,
    /// Total bytes across `ooo`. Like `ahead`, at most [`RCV_BUF_CAP`]
    /// (`u16::MAX`): the window trim keeps what is held inside it.
    pub(crate) ooo_bytes: u16,
    /// How far the parts held out of order reach past `rcv_nxt` (zero
    /// when none is held).
    pub(crate) ahead: u16,

    // --- close handshake ---
    /// Application called close; FIN goes out after the buffer drains.
    pub fin_queued: bool,
    /// Sequence number our FIN occupies once sent.
    pub fin_seq: Option<u32>,

    // --- timers ---
    pub rto_deadline: Option<Time>,
    pub time_wait_deadline: Option<Time>,
    /// Zero-window probe timer.
    pub persist_deadline: Option<Time>,
    pub retries: u32,

    // --- keepalive ---
    /// Last time any segment arrived for this connection.
    pub last_rx: Time,
    /// Unanswered keepalive probes since `last_rx`.
    pub ka_probes: u32,

    /// When the oldest currently-unacked data last made cumulative-ack
    /// progress (armed when data goes outstanding, re-anchored on every
    /// ack advance, cleared when all acked). During a partition this ages
    /// linearly while `snd_buf` stays capped at [`SND_BUF_CAP`]
    /// (`crate::stack::SND_BUF_CAP`) — the oldest-segment accounting the
    /// host's resource budget reads.
    pub una_since: Option<Time>,

    pub mss: u32,
    /// Set when we owe the peer an ACK.
    pub ack_pending: bool,
    /// Pressure-driven delayed-ACK deadline. Note the entanglement: this
    /// one field is armed by the output path, cleared by the receive path,
    /// inspected by the timer scan, and gated by stack-global pressure —
    /// four subfunctions sharing a timer the sublayered stack keeps
    /// private inside RD.
    pub delayed_ack_deadline: Option<Time>,
}

impl Pcb {
    pub fn new(tuple: FourTuple, state: TcpState, iss: u32) -> Pcb {
        Self::with_cc(tuple, state, iss, Box::new(NewReno::new()))
    }

    /// Construct with an explicit (already-validated) rate controller.
    pub fn with_cc(
        tuple: FourTuple,
        state: TcpState,
        iss: u32,
        cc: Box<dyn RateController>,
    ) -> Pcb {
        Pcb {
            tuple,
            state,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_wnd: 0,
            snd_wl1: 0,
            snd_wl2: 0,
            irs: 0,
            rcv_nxt: 0,
            cc,
            cc_stats: slmetrics::CcCounters::default(),
            dupacks: 0,
            recover: iss,
            in_fast_recovery: false,
            frto_mark: None,
            frto_probed: false,
            srtt: None,
            rttvar: Dur::ZERO,
            rto: INITIAL_RTO,
            rtt_timing: None,
            snd_buf: VecDeque::new(),
            snd_buf_seq: iss.wrapping_add(1),
            rcv_buf: VecDeque::new(),
            ooo: BTreeMap::new(),
            ooo_base: 0,
            ooo_bytes: 0,
            ahead: 0,
            fin_queued: false,
            fin_seq: None,
            rto_deadline: None,
            time_wait_deadline: None,
            persist_deadline: None,
            retries: 0,
            last_rx: Time::ZERO,
            ka_probes: 0,
            una_since: None,
            mss: DEFAULT_MSS as u32,
            ack_pending: false,
            delayed_ack_deadline: None,
        }
    }

    /// Free space in the receive buffer = advertised window. What is held
    /// out of order does not close it: it sits inside the window offered.
    pub fn rcv_wnd(&self) -> u32 {
        (RCV_BUF_CAP - self.readable_len()) as u32
    }

    /// In-order bytes received and not yet read.
    pub(crate) fn readable_len(&self) -> usize {
        self.rcv_buf.len() - self.ahead as usize
    }

    /// Take `payload`, received at `seq`, trimmed to what lies between
    /// `rcv_nxt` and the window's far edge: its bytes are copied once,
    /// straight from the frame to their place in `rcv_buf`. In order, they
    /// and every held range they reach advance `rcv_nxt` where they sit;
    /// out of order, the bytes no held range covers yet are held. Returns
    /// false when an out-of-order part is refused at the reassembly caps.
    pub(crate) fn take_payload(&mut self, seq: u32, payload: &[u8]) -> bool {
        let mut data = payload;
        let mut start = seq;
        // Trim anything before rcv_nxt.
        if seq::lt(start, self.rcv_nxt) {
            let skip = self.rcv_nxt.wrapping_sub(start) as usize;
            data = data.get(skip..).unwrap_or_default();
            start = self.rcv_nxt;
        }
        // Trim anything beyond our window.
        let wnd_end = self.rcv_nxt.wrapping_add(self.rcv_wnd());
        let data_end = start.wrapping_add(data.len() as u32);
        if seq::gt(data_end, wnd_end) {
            let cut = data_end.wrapping_sub(wnd_end) as usize;
            data = &data[..data.len().saturating_sub(cut)];
        }
        if data.is_empty() {
            return true;
        }
        let skip = start.wrapping_sub(self.rcv_nxt) as usize;
        let unread = self.readable_len();
        debug_assert!(
            unread + skip + data.len() <= RCV_BUF_CAP,
            "the window trim keeps every received byte within the buffer"
        );
        if skip > 0 {
            return self.hold(skip, data);
        }
        // In order: over the held bytes at its place, then past them.
        let inside = data.len().min(self.ahead as usize);
        write_at(&mut self.rcv_buf, unread, &data[..inside]);
        self.rcv_buf.extend(&data[inside..]);
        self.release(data.len() as u32);
        // Then every held range that reaches rcv_nxt, where it sits.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            let at = self.rcv_nxt.wrapping_sub(self.ooo_base);
            if s > at {
                break;
            }
            self.ooo.pop_first();
            self.ooo_bytes -= (e - s) as u16;
            self.release(e.saturating_sub(at));
        }
        debug_assert!(!self.ooo.is_empty() || self.ahead == 0);
        true
    }

    /// Hold the out-of-order `data`, received `skip` bytes past `rcv_nxt`,
    /// at its place in `rcv_buf`: the bytes no held range covers yet are
    /// copied there and join the ranges, so an overlapping part is held
    /// once. The caps, as RD's: [`MAX_OOO_RANGES`] ranges and one receive
    /// buffer of bytes.
    fn hold(&mut self, skip: usize, data: &[u8]) -> bool {
        if self.ooo.len() >= MAX_OOO_RANGES || self.ooo_bytes as usize + data.len() > RCV_BUF_CAP {
            return false;
        }
        if self.ooo.is_empty() {
            self.ooo_base = self.rcv_nxt;
        } else if self.rcv_nxt.wrapping_sub(self.ooo_base) >= 1 << 31 {
            self.rebase_ooo();
        }
        let pos = self.readable_len() + skip;
        if skip + data.len() > self.ahead as usize {
            self.rcv_buf.resize(pos + data.len(), 0);
            self.ahead = (skip + data.len()) as u16;
        }
        let s = self.rcv_nxt.wrapping_sub(self.ooo_base) + skip as u32;
        let e = s + data.len() as u32;
        // Walk the gaps of [s, e) from the left, skipping what is held.
        let mut cursor = s;
        while cursor < e {
            let around = self.ooo.range(..=cursor).next_back();
            if let Some((_, &re)) = around.filter(|&(_, &re)| re > cursor) {
                cursor = re;
                continue;
            }
            let gap_end = self
                .ooo
                .range(cursor..)
                .next()
                .map_or(e, |(&rs, _)| rs.min(e));
            let (from, to) = ((cursor - s) as usize, (gap_end - s) as usize);
            write_at(&mut self.rcv_buf, pos + from, &data[from..to]);
            merge_range(&mut self.ooo, cursor, gap_end);
            self.ooo_bytes += (gap_end - cursor) as u16;
            cursor = gap_end;
        }
        true
    }

    /// Count `ooo`'s offsets from `rcv_nxt` again. Needed only once 2 GiB
    /// of stream have arrived with some range held throughout, so that
    /// the offsets never wrap.
    fn rebase_ooo(&mut self) {
        let shift = self.rcv_nxt.wrapping_sub(self.ooo_base);
        self.ooo = std::mem::take(&mut self.ooo)
            .into_iter()
            .map(|(s, e)| (s - shift, e - shift))
            .collect();
        self.ooo_base = self.rcv_nxt;
    }

    /// The `n` bytes at `rcv_nxt`, already in place, join the unread ones.
    fn release(&mut self, n: u32) {
        self.rcv_nxt = self.rcv_nxt.wrapping_add(n);
        self.ahead = (self.ahead as u32).saturating_sub(n) as u16;
    }

    /// Drain the in-order bytes into one exactly-sized `Vec`, one `memcpy`
    /// per half of the ring; what is held past them stays where it sits.
    pub(crate) fn read(&mut self) -> Vec<u8> {
        let n = self.readable_len();
        let (front, back) = self.rcv_buf.as_slices();
        let k = n.min(front.len());
        let out = [&front[..k], &back[..n - k]].concat();
        self.rcv_buf.drain(..n);
        out
    }

    /// The `n` send-buffer bytes starting `offset` bytes in (a segment's
    /// payload) where they sit: the part in the ring's front half, then the
    /// part in its back half (either may be empty). The encoder copies a
    /// segment's payload straight out of them.
    pub fn snd_slices(&self, offset: usize, n: usize) -> (&[u8], &[u8]) {
        let (front, back) = self.snd_buf.as_slices();
        if offset < front.len() {
            let k = n.min(front.len() - offset);
            (&front[offset..offset + k], &back[..n - k])
        } else {
            (&back[offset - front.len()..][..n], &[])
        }
    }

    /// Bytes held across this connection's buffers: unacked and unsent
    /// data, unread data, and out-of-order bytes awaiting the gap. The
    /// zero-filled holes between the last are not counted: the window
    /// keeps all of `rcv_buf` within [`RCV_BUF_CAP`].
    pub(crate) fn buffered_bytes(&self) -> usize {
        debug_assert_eq!(
            self.ooo_bytes as u32,
            self.ooo.iter().map(|(&s, &e)| e - s).sum::<u32>()
        );
        self.snd_buf.len() + self.readable_len() + self.ooo_bytes as usize
    }

    /// Bytes in flight.
    pub fn flight_size(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Current congestion allowance in bytes, clamped to window width.
    pub fn cwnd(&self, now: Time) -> u32 {
        self.cc.allowance(now).min(u32::MAX as u64) as u32
    }

    /// Feed one congestion signal to the controller, keeping the
    /// observability counters in step (the same [`slmetrics::CcCounters`]
    /// shape the sublayered OSR fills).
    pub fn feed_cc(&mut self, now: Time, sig: CongSignal) {
        match sig {
            CongSignal::DupAckLoss => {
                self.cc_stats.dupack_losses = self.cc_stats.dupack_losses.saturating_add(1)
            }
            CongSignal::PartialAck { .. } => {
                self.cc_stats.partial_acks = self.cc_stats.partial_acks.saturating_add(1)
            }
            CongSignal::TimeoutLoss => {
                self.cc_stats.rto_resets = self.cc_stats.rto_resets.saturating_add(1)
            }
            CongSignal::EcnEcho => {
                self.cc_stats.ecn_signals = self.cc_stats.ecn_signals.saturating_add(1)
            }
            _ => {}
        }
        let was_in_recovery = self.cc.in_recovery();
        self.cc.on_signal(now, sig);
        if !was_in_recovery && self.cc.in_recovery() {
            self.cc_stats.fast_recoveries = self.cc_stats.fast_recoveries.saturating_add(1);
        }
        self.cc_stats.sample(self.cc.allowance(now), self.cc.ssthresh());
    }

    /// Has every byte (and FIN, if queued) been acknowledged?
    pub fn all_acked(&self) -> bool {
        self.snd_buf.is_empty() && self.snd_una == self.snd_nxt
    }

    /// How long the oldest unacked data has gone without ack progress.
    /// `None` when nothing is outstanding.
    pub fn oldest_unacked_age(&self, now: Time) -> Option<Dur> {
        self.una_since.map(|t| now.since(t))
    }
}

/// Copy `data` into `buf` from `at` on, across the ring's wrap point.
fn write_at(buf: &mut VecDeque<u8>, at: usize, data: &[u8]) {
    let (front, back) = buf.as_mut_slices();
    if at < front.len() {
        let k = data.len().min(front.len() - at);
        front[at..at + k].copy_from_slice(&data[..k]);
        back[..data.len() - k].copy_from_slice(&data[k..]);
    } else {
        back[at - front.len()..][..data.len()].copy_from_slice(data);
    }
}

/// Add `[s, e)` to the disjoint range set, absorbing every range it
/// overlaps or touches: they sit at the back of `..=e`, nearest first.
fn merge_range(ooo: &mut BTreeMap<u32, u32>, mut s: u32, mut e: u32) {
    while let Some((&rs, &re)) = ooo.range(..=e).next_back() {
        if re < s {
            break;
        }
        ooo.remove(&rs);
        s = s.min(rs);
        e = e.max(re);
    }
    ooo.insert(s, e);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Endpoint;

    fn pcb() -> Pcb {
        let t = FourTuple {
            local: Endpoint::new(1, 10),
            remote: Endpoint::new(2, 20),
        };
        Pcb::new(t, TcpState::SynSent, 1000)
    }

    #[test]
    fn fresh_pcb_invariants() {
        let p = pcb();
        assert_eq!(p.snd_una, 1000);
        assert_eq!(p.snd_nxt, 1000);
        assert_eq!(p.snd_buf_seq, 1001, "payload starts after the SYN");
        assert_eq!(p.rcv_wnd(), RCV_BUF_CAP as u32);
        assert!(p.all_acked());
        assert_eq!(p.flight_size(), 0);
    }

    #[test]
    fn rcv_wnd_shrinks_with_buffered_data() {
        let mut p = pcb();
        p.rcv_buf.extend(std::iter::repeat_n(0u8, 1000));
        assert_eq!(p.rcv_wnd(), (RCV_BUF_CAP - 1000) as u32);
    }

    #[test]
    fn snd_slices_span_the_ring_wrap_point() {
        // Acks drain the send buffer from the front while the application
        // refills it, so its live bytes routinely straddle the wrap.
        let mut p = pcb();
        p.snd_buf.extend(0..12u8);
        p.snd_buf.drain(..10);
        let room = p.snd_buf.capacity() - p.snd_buf.len();
        p.snd_buf.extend((12..).take(room));
        let (front, back) = p.snd_buf.as_slices();
        assert!(!front.is_empty() && !back.is_empty(), "ring must be wrapped");
        let len = p.snd_buf.len();
        for offset in 0..=len {
            for n in 0..=len - offset {
                let want: Vec<u8> = p.snd_buf.iter().skip(offset).take(n).copied().collect();
                let (front, back) = p.snd_slices(offset, n);
                assert_eq!([front, back].concat(), want, "offset {offset} n {n}");
            }
        }
    }

    #[test]
    fn state_can_send() {
        assert!(TcpState::Established.can_send());
        assert!(TcpState::CloseWait.can_send());
        assert!(!TcpState::FinWait1.can_send());
        assert!(!TcpState::Listen.can_send());
    }

    #[test]
    fn flight_size_wraps() {
        let mut p = pcb();
        p.snd_una = u32::MAX - 10;
        p.snd_nxt = 20;
        assert_eq!(p.flight_size(), 31);
    }
}
