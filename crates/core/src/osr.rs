//! The **ordering, segmenting & rate control (OSR)** sublayer (§3) — the
//! uppermost TCP sublayer.
//!
//! "OSR takes the byte stream and breaks it up into segments based on
//! parameters like maximum segment size. At the receive end, segments may
//! be delivered out of order by the RD sublayer. OSR must paste segments
//! back in order... Rate control is hidden within OSR which interfaces
//! with the RD sublayer below by deciding when a segment is 'ready' to be
//! transmitted."
//!
//! Per test **T3**, OSR owns the ECN-echo and receiver-window bits of the
//! native header, the reassembly buffer, and the pluggable
//! [`RateController`]; it learns about network conditions *only* through
//! the summarized [`CongSignal`]s RD passes up and through its own header
//! bits — never from sequence numbers.

use crate::fingerprint as fp;
use crate::signals::CongSignal;
use crate::wire::{Packet, Payload};
use netsim::{Dur, Pressure, Time};
use slcc::RateController;
use slmetrics::{site, SharedLog};
use std::collections::{BTreeMap, VecDeque};

/// Maximum segment size OSR cuts the byte stream into.
pub const MSS: usize = slwire::rfc793::DEFAULT_MSS as usize;
/// Receive buffer capacity; the advertised window is its free space.
pub const RCV_BUF_CAP: usize = 64 * 1024 - 1;
/// Send-buffer cap: [`Osr::write`] accepts at most this much queued,
/// un-segmented data and reports the shortfall (backpressure), so an
/// application — or an attack campaign — cannot balloon memory by
/// writing faster than the network drains.
pub const SND_BUF_CAP: usize = 1 << 20;
/// Largest slab [`Osr::write`] copies application bytes into. Every segment
/// cut from a slab is a view that keeps the whole of it alive, so this is
/// also how far the bytes a connection holds can run ahead of the bytes it
/// accounts for (see [`Osr::buffered_bytes`]).
pub const SLAB_MAX: usize = 64 * 1024;
/// First zero-window persist timeout; doubles per unanswered probe.
const PERSIST_INITIAL: Dur = Dur(500_000_000);
/// Persist backoff ceiling.
const PERSIST_MAX: Dur = Dur(60_000_000_000);

/// OSR counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OsrStats {
    pub segments_cut: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub blocked_by_rate: u64,
    pub blocked_by_peer_window: u64,
    pub zero_window_probes: u64,
    /// Out-of-order segments dropped because the reassembly buffer hit its
    /// hard cap (a hostile sender ignoring our advertised window cannot
    /// grow memory without bound).
    pub reasm_overflow_drops: u64,
}

/// The OSR sublayer for one connection.
#[derive(Clone)]
pub struct Osr {
    // --- sender ---
    /// Written, not yet segmented: views of the slabs `write` made, oldest
    /// first; the front one shrinks as segments are cut from it.
    app_buf: VecDeque<Payload>,
    /// Total bytes across `app_buf`: at most [`SND_BUF_CAP`].
    app_buf_bytes: u32,
    /// Bytes handed to RD and not yet acked (window accounting; "the
    /// sending RD must tell the sending OSR when segments are acked so the
    /// sending OSR can advance the congestion and flow control windows").
    bytes_in_flight: u64,
    rate: Box<dyn RateController>,
    peer_wnd: u32,
    app_closed: bool,
    /// Zero-window persist timer: armed while the peer window pins us at
    /// zero with data queued; each expiry releases a 1-byte probe so a
    /// lost window update cannot deadlock the connection (TCP's persist
    /// timer).
    persist_deadline: Option<Time>,
    /// Unanswered probes so far: the persist timeout is
    /// [`PERSIST_INITIAL`] doubled this many times (a count, not a `Dur`,
    /// so the two queue counters fit in the bytes it gives back).
    persist_doublings: u8,
    probe_due: bool,

    // --- receiver ---
    reasm: BTreeMap<u64, Payload>,
    /// Total payload bytes across `reasm` (kept incrementally so the
    /// window computation on every outgoing packet is O(1)).
    parked_bytes: u32,
    rcv_next: u64,
    /// In order, not yet read: the handles RD delivered, as they came.
    app_out: VecDeque<Payload>,
    /// Total bytes across `app_out`, saturating: the advertised window
    /// keeps an honest peer under [`RCV_BUF_CAP`], but in-order data from
    /// one that ignores it is not refused while the application sits on
    /// its hands.
    app_out_bytes: u32,
    /// Pending ECN echo to reflect in our next header.
    ecn_to_echo: bool,
    /// The application freed receive-buffer space; the peer should hear
    /// about the reopened window.
    window_update_pending: bool,
    /// Host memory pressure. OSR's slice of the backpressure contract:
    /// under pressure the advertised receive window is clamped to a
    /// fraction of the real free space, slowing senders *before* the
    /// buffer fills. Never clamped to zero — accepted connections keep
    /// making progress (no starvation), just slower.
    pressure: Pressure,

    pub stats: OsrStats,
    /// CC observability: window samples and loss/recovery event counts,
    /// in the shared `slmetrics` shape both stacks fill (E19).
    pub cc: slmetrics::CcCounters,
    log: SharedLog,
}

impl Osr {
    pub fn new(rate: Box<dyn RateController>, log: SharedLog) -> Osr {
        Osr {
            app_buf: VecDeque::new(),
            app_buf_bytes: 0,
            bytes_in_flight: 0,
            rate,
            peer_wnd: MSS as u32, // conservative until the first header
            app_closed: false,
            persist_deadline: None,
            persist_doublings: 0,
            probe_due: false,
            reasm: BTreeMap::new(),
            parked_bytes: 0,
            rcv_next: 0,
            app_out: VecDeque::new(),
            app_out_bytes: 0,
            ecn_to_echo: false,
            window_update_pending: false,
            pressure: Pressure::Nominal,
            stats: OsrStats::default(),
            cc: slmetrics::CcCounters::default(),
            log,
        }
    }

    /// Total bytes this sublayer is holding (send queue, parked
    /// reassembly, unread app data) — the memory-bound invariant the
    /// attack campaign checks.
    ///
    /// This counts the bytes *viewed*; what is held is whole slabs. Going
    /// down, a slab is at most [`SLAB_MAX`] bytes and is freed as soon as
    /// the last segment cut from it is acknowledged, so the send side
    /// (this queue plus RD's retransmission buffer) holds at most one
    /// slab's worth of already-acknowledged bytes beyond what the two
    /// account for — the slab the oldest unacknowledged segment sits in —
    /// plus a handle and a slab header (some 40 bytes) per `write`. Going
    /// up, RD hands over a view only if it covers at least half of its
    /// frame's payload (it copies out smaller novel parts), so parked and
    /// unread bytes pin at most twice what they count, plus the same 40
    /// bytes per delivered segment — unread as well as parked ones now.
    pub fn buffered_bytes(&self) -> usize {
        self.app_buf_bytes as usize + self.app_out_bytes as usize + self.parked()
    }

    /// Bytes parked out of order in `reasm`.
    fn parked(&self) -> usize {
        debug_assert_eq!(
            self.parked_bytes as usize,
            self.reasm.values().map(|d| d.len()).sum::<usize>()
        );
        self.parked_bytes as usize
    }

    // --- application interface ---

    /// Queue bytes from the application; returns how many were accepted
    /// (fewer than `data.len()` once the send buffer is full). This is the
    /// one copy the bytes get on the way down: into slabs of at most
    /// [`SLAB_MAX`], which the segments are then views of.
    pub fn write(&mut self, data: &[u8]) -> usize {
        self.log.borrow_mut().write(site!("osr", "app_buf"));
        assert!(!self.app_closed, "write after close");
        let n = data.len().min(self.write_capacity());
        self.app_buf.extend(data[..n].chunks(SLAB_MAX).map(Payload::from));
        self.app_buf_bytes += n as u32;
        self.stats.bytes_written += n as u64;
        n
    }

    /// Drain in-order bytes to the application: the one copy they get on
    /// the way up, gathered into one exactly-sized `Vec`.
    pub fn read(&mut self) -> Vec<u8> {
        self.log.borrow_mut().read(site!("osr", "app_out"));
        let mut out = Vec::with_capacity(self.app_out_bytes as usize);
        for data in self.app_out.drain(..) {
            out.extend_from_slice(&data);
        }
        self.app_out_bytes = 0;
        self.stats.bytes_read += out.len() as u64;
        if out.len() >= MSS {
            // The window reopened significantly: tell the peer (window
            // update, as in TCP).
            self.window_update_pending = true;
        }
        out
    }

    /// In-order bytes available to [`Osr::read`] without draining them —
    /// the host layer's readability predicate.
    pub fn readable_len(&self) -> usize {
        self.app_out_bytes as usize
    }

    /// Free send-buffer space — the host layer's writability predicate.
    pub fn write_capacity(&self) -> usize {
        SND_BUF_CAP.saturating_sub(self.app_buf_bytes as usize)
    }

    /// True once per significant window reopening; the stack responds by
    /// emitting a bare (ack-only) packet carrying the fresh window.
    pub fn take_window_update(&mut self) -> bool {
        std::mem::take(&mut self.window_update_pending)
    }

    /// Drop a pending window update. The stack calls this once the
    /// peer's FIN is in: no more data can arrive, so advertising the
    /// reopened window would only poke a peer whose TCB may already be
    /// deleted.
    pub fn suppress_window_update(&mut self) {
        self.window_update_pending = false;
    }

    /// Application will write no more.
    pub fn close(&mut self) {
        self.app_closed = true;
    }

    /// Has the application closed its stream? The stack reads this; only
    /// [`Osr::close`] writes it:
    ///
    /// ```compile_fail
    /// fn unclose(osr: &mut sublayer_core::Osr) {
    ///     osr.app_closed = false;
    /// }
    /// ```
    pub fn app_closed(&self) -> bool {
        self.app_closed
    }

    /// All written bytes handed to RD?
    pub fn drained(&self) -> bool {
        self.app_buf.is_empty()
    }

    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }

    // --- RD interface (downward) ---

    /// Decide whether a segment is "ready" (rate control × flow control)
    /// and cut it if so.
    pub fn poll_segment(&mut self, now: Time) -> Option<Payload> {
        self.log.borrow_mut().read(site!("osr", "app_buf"));
        self.log.borrow_mut().read(site!("osr", "cwnd"));
        self.log.borrow_mut().read(site!("osr", "peer_wnd"));
        if self.app_buf.is_empty() {
            return None;
        }
        let rate_allow = self.rate.allowance(now);
        let allowance = rate_allow.min(self.peer_wnd as u64);
        let budget = allowance.saturating_sub(self.bytes_in_flight) as usize;
        let queued = self.app_buf_bytes as usize;
        let n = queued.min(MSS).min(budget);
        // Avoid silly-window segments: wait for a full MSS unless this is
        // the tail of the stream.
        if n == 0 || (n < MSS && n < queued) {
            if (self.peer_wnd as u64) < rate_allow {
                self.stats.blocked_by_peer_window += 1;
                // Nothing in flight means no ack will ever unblock us: only
                // the persist timer can rediscover the window. (With data
                // in flight, RTO owns liveness.)
                if self.bytes_in_flight == 0 && self.persist_deadline.is_none() {
                    self.persist_deadline = Some(now + self.persist_backoff());
                }
            } else {
                self.stats.blocked_by_rate += 1;
            }
            return None;
        }
        self.bytes_in_flight += n as u64;
        self.stats.segments_cut += 1;
        Some(self.cut(n))
    }

    /// Take the first `n` queued bytes (`0 < n <=` what is queued) as one
    /// payload: a view of the front slab — no copy, no allocation —
    /// unless they straddle two writes, in which case they are gathered
    /// into a slab of their own.
    fn cut(&mut self, n: usize) -> Payload {
        self.app_buf_bytes -= n as u32;
        if n <= self.app_buf.front().map_or(0, |front| front.len()) {
            return self.split_front(n);
        }
        let mut gathered = Vec::with_capacity(n);
        while gathered.len() < n {
            let front = self.app_buf.front().expect("n bytes are queued").len();
            gathered.extend_from_slice(&self.split_front(front.min(n - gathered.len())));
        }
        gathered.into()
    }

    /// Split the first `k` bytes (at most its length) off the front handle.
    fn split_front(&mut self, k: usize) -> Payload {
        let front = self.app_buf.front_mut().expect("k bytes are queued");
        if k == front.len() {
            return self.app_buf.pop_front().expect("front just seen");
        }
        let head = front.slice(0..k);
        *front = front.slice(k..front.len());
        head
    }

    /// Feed RD's summarized congestion signals into rate control.
    pub fn on_signals(&mut self, now: Time, signals: &[CongSignal]) {
        self.log.borrow_mut().write(site!("osr", "cwnd"));
        for &sig in signals {
            // Every ack-bearing variant releases flight, whatever its
            // recovery classification.
            match sig {
                CongSignal::Acked { bytes, .. }
                | CongSignal::PartialAck { bytes }
                | CongSignal::FullAck { bytes, .. } => {
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(bytes as u64);
                }
                _ => {}
            }
            match sig {
                CongSignal::DupAckLoss => {
                    self.cc.dupack_losses = self.cc.dupack_losses.saturating_add(1)
                }
                CongSignal::PartialAck { .. } => {
                    self.cc.partial_acks = self.cc.partial_acks.saturating_add(1)
                }
                CongSignal::TimeoutLoss => {
                    self.cc.rto_resets = self.cc.rto_resets.saturating_add(1)
                }
                CongSignal::EcnEcho => {
                    self.cc.ecn_signals = self.cc.ecn_signals.saturating_add(1)
                }
                _ => {}
            }
            let was_in_recovery = self.rate.in_recovery();
            self.rate.on_signal(now, sig);
            if !was_in_recovery && self.rate.in_recovery() {
                self.cc.fast_recoveries = self.cc.fast_recoveries.saturating_add(1);
            }
            self.cc.sample(self.rate.allowance(now), self.rate.ssthresh());
        }
    }

    // --- RD interface (upward: reassembly) ---

    /// A segment arrived (possibly out of order, exactly once).
    pub fn on_delivered(&mut self, offset: u64, data: Payload) {
        self.log.borrow_mut().write(site!("osr", "reasm"));
        debug_assert!(offset >= self.rcv_next, "RD guarantees exactly-once");
        if offset > self.rcv_next {
            // Hard cap: the advertised window is advisory to the peer, but
            // a hostile sender ignores it. Parked out-of-order bytes must
            // never exceed the buffer the window was advertised from.
            if self.parked() + data.len() > RCV_BUF_CAP {
                self.stats.reasm_overflow_drops += 1;
                return;
            }
            // The hole at `rcv_next` is still open: nothing to release.
            self.parked_bytes += data.len() as u32;
            if let Some(old) = self.reasm.insert(offset, data) {
                self.parked_bytes -= old.len() as u32;
            }
            return;
        }
        // In order: straight to the application, then whatever it unblocks.
        self.release(data);
        while self.reasm.first_key_value().is_some_and(|(&off, _)| off == self.rcv_next) {
            let (_, d) = self.reasm.pop_first().expect("first key just seen");
            self.parked_bytes -= d.len() as u32;
            self.release(d);
        }
    }

    /// Queue the handle at `rcv_next` for the application to read.
    fn release(&mut self, data: Payload) {
        self.rcv_next += data.len() as u64;
        self.app_out_bytes = self.app_out_bytes.saturating_add(data.len() as u32);
        self.app_out.push_back(data);
    }

    // --- header interface (its own bits, test T3) ---

    /// Update the host-pressure signal (plumbed down from the host through
    /// the stack). Takes effect at the next [`Osr::fill_tx`].
    pub fn set_pressure(&mut self, p: Pressure) {
        self.log.borrow_mut().write(site!("osr", "pressure"));
        self.pressure = p;
    }

    /// Stamp the OSR subheader on an outgoing packet. Under host memory
    /// pressure the advertised window is the free space right-shifted by
    /// the pressure tier, so peers slow down proportionally.
    pub fn fill_tx(&mut self, pkt: &mut Packet) {
        self.log.borrow_mut().read(site!("osr", "rcv_buf"));
        self.log.borrow_mut().read(site!("osr", "pressure"));
        let buffered = self.app_out_bytes as usize + self.parked();
        let free = RCV_BUF_CAP.saturating_sub(buffered);
        pkt.osr.rcv_wnd = (free >> self.pressure.wnd_shift()).min(u16::MAX as usize) as u16;
        pkt.osr.ecn_echo = self.ecn_to_echo;
    }

    /// Process the OSR subheader of an inbound packet.
    pub fn on_header(&mut self, now: Time, pkt: &Packet) {
        self.log.borrow_mut().write(site!("osr", "peer_wnd"));
        self.peer_wnd = pkt.osr.rcv_wnd as u32;
        if self.peer_wnd as usize >= MSS {
            // The window reopened usefully: the persist cycle is over.
            // (A sliver below one MSS keeps the backoff going — probes
            // trickle single bytes until real progress is possible.)
            self.persist_deadline = None;
            self.persist_doublings = 0;
            self.probe_due = false;
        }
        if pkt.osr.ecn_echo {
            self.rate.on_signal(now, CongSignal::EcnEcho);
        }
    }

    /// A network element marked this packet (simulated ECN); echo it back.
    pub fn mark_ecn(&mut self) {
        self.ecn_to_echo = true;
    }

    pub fn poll_deadline(&self, now: Time) -> Option<Time> {
        // Pacing controllers need a wake-up when tokens accrue; the
        // persist timer needs one while the peer window is closed.
        if self.app_buf.is_empty() {
            return None;
        }
        match (self.rate.poll_deadline(now), self.persist_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advance the persist timer. Spurious calls are harmless.
    pub fn on_tick(&mut self, now: Time) {
        if self.persist_deadline.is_some_and(|d| now >= d) {
            if self.app_buf.is_empty() {
                self.persist_deadline = None;
                return;
            }
            self.probe_due = true;
            if self.persist_backoff() < PERSIST_MAX {
                self.persist_doublings += 1;
            }
            self.persist_deadline = Some(now + self.persist_backoff());
        }
    }

    /// The current persist timeout.
    fn persist_backoff(&self) -> Dur {
        Dur(PERSIST_INITIAL.0 << self.persist_doublings).min(PERSIST_MAX)
    }

    /// Take the 1-byte zero-window probe released by the persist timer, if
    /// any. The byte counts as in flight and is pushed through RD like any
    /// segment, so it is retransmitted and acked normally.
    pub fn poll_probe(&mut self) -> Option<Payload> {
        if !std::mem::take(&mut self.probe_due) {
            return None;
        }
        if self.app_buf.is_empty() {
            return None;
        }
        self.bytes_in_flight += 1;
        self.stats.zero_window_probes += 1;
        Some(self.cut(1))
    }

    /// Deterministic behavioral fingerprint for the OSR contract checker
    /// (see [`crate::fingerprint`]): equal keys must imply behaviorally
    /// identical sublayers under the contract's drive alphabet. Byte
    /// *content* is folded in, not just lengths — a reordered release is a
    /// different state, which is exactly what the ordering contract needs
    /// to distinguish.
    pub fn contract_key(&self) -> Vec<u64> {
        let mut acc = fp::fold(
            fp::SEED,
            [
                self.bytes_in_flight,
                self.peer_wnd as u64,
                (self.app_closed as u64)
                    | (self.probe_due as u64) << 1
                    | (self.ecn_to_echo as u64) << 2
                    | (self.window_update_pending as u64) << 3,
                self.persist_deadline.map_or(u64::MAX, |t| t.0),
                self.persist_backoff().0,
                self.rcv_next,
                self.pressure.wnd_shift() as u64,
            ],
        );
        acc = fp::fold(acc, self.rate.state_key());
        acc = fold_stream(acc, &self.app_buf);
        for (&off, data) in &self.reasm {
            acc = fp::fold_bytes(fp::mix(acc, off), data);
        }
        acc = fold_stream(acc, &self.app_out);
        vec![acc]
    }
}

/// Fold a queue of views as the one byte stream it holds — its length, then
/// its bytes in order — so the key is the content's, however the
/// application chunked its writes or RD its deliveries. (The closing zero
/// keeps the keys equal to those of the byte rings these queues replaced.)
fn fold_stream(acc: u64, queue: &VecDeque<Payload>) -> u64 {
    let len: usize = queue.iter().map(|p| p.len()).sum();
    let bytes = queue.iter().flat_map(|p| p.iter().map(|&b| b as u64));
    fp::mix(fp::fold(fp::mix(acc, len as u64), bytes), 0)
}

// ---------------------------------------------------------------------
// Contract driver (slverify::contracts::OsrContract drives the *real*
// sublayer through this, exactly as CongCtrl drives RateController).
// ---------------------------------------------------------------------

/// The operations the OSR assume/guarantee contract exercises — the
/// upward half of OSR's service: reassembling RD's possibly-out-of-order
/// exactly-once deliveries into the in-order gap-free byte stream.
/// Implemented by the shipped [`Osr`] and by the [`BuggyOsr`] mutation
/// canary.
pub trait OsrDriver: Clone {
    fn on_delivered(&mut self, offset: u64, data: Payload);
    fn read(&mut self) -> Vec<u8>;
    fn readable_len(&self) -> usize;
    /// See [`Osr::contract_key`].
    fn contract_key(&self) -> Vec<u64>;
}

impl OsrDriver for Osr {
    fn on_delivered(&mut self, offset: u64, data: Payload) {
        Osr::on_delivered(self, offset, data)
    }
    fn read(&mut self) -> Vec<u8> {
        Osr::read(self)
    }
    fn readable_len(&self) -> usize {
        Osr::readable_len(self)
    }
    fn contract_key(&self) -> Vec<u64> {
        Osr::contract_key(self)
    }
}

/// Mutation canary for the OSR contract, mirroring [`slcc::BuggyDeflate`]:
/// a plausible "latency optimization" decides parked out-of-order data
/// might as well reach the application immediately and rebases any gapped
/// delivery onto the read cursor — releasing bytes *through* the gap, out
/// of order. Never wired into product code; it exists so `OsrContract`
/// has a concrete counterexample for its in-order obligation.
#[derive(Clone)]
pub struct BuggyOsr {
    inner: Osr,
}

impl BuggyOsr {
    pub fn new(rate: Box<dyn RateController>, log: SharedLog) -> BuggyOsr {
        BuggyOsr { inner: Osr::new(rate, log) }
    }
}

impl OsrDriver for BuggyOsr {
    fn on_delivered(&mut self, offset: u64, data: Payload) {
        // THE BUG: a delivery past the cursor is rebased onto it, so the
        // application sees the bytes now — in the wrong order, and the
        // real range is double-counted when it finally arrives.
        let offset = offset.min(self.inner.rcv_next);
        self.inner.on_delivered(offset, data)
    }
    fn read(&mut self) -> Vec<u8> {
        self.inner.read()
    }
    fn readable_len(&self) -> usize {
        self.inner.readable_len()
    }
    fn contract_key(&self) -> Vec<u64> {
        self.inner.contract_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slcc::{FixedWindow, NewReno, RateBased};
    use netsim::Dur;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    fn osr(win: u64) -> Osr {
        let mut o = Osr::new(Box::new(FixedWindow(win)), slmetrics::shared());
        o.peer_wnd = u16::MAX as u32;
        o
    }

    #[test]
    fn segments_cut_at_mss() {
        let mut o = osr(1 << 20);
        o.write(&vec![7; 2500]);
        assert_eq!(o.poll_segment(t(0)).unwrap().len(), MSS);
        assert_eq!(o.poll_segment(t(0)).unwrap().len(), MSS);
        assert_eq!(o.poll_segment(t(0)).unwrap().len(), 500, "tail may be short");
        assert!(o.poll_segment(t(0)).is_none());
        assert_eq!(o.stats.segments_cut, 3);
    }

    #[test]
    fn rate_allowance_gates_segments() {
        let mut o = osr(1500);
        o.write(&vec![7; 5000]);
        assert!(o.poll_segment(t(0)).is_some()); // 1000 in flight
        assert!(o.poll_segment(t(0)).is_none(), "window full");
        assert!(o.stats.blocked_by_rate > 0);
        // Acks release the window.
        o.on_signals(t(1), &[CongSignal::Acked { bytes: 1000, rtt: None }]);
        assert!(o.poll_segment(t(1)).is_some());
    }

    #[test]
    fn peer_window_gates_segments() {
        let mut o = osr(1 << 20);
        let mut pkt = Packet::default();
        pkt.osr.rcv_wnd = 999; // less than one MSS
        o.on_header(t(0), &pkt);
        o.write(&vec![7; 5000]);
        assert!(o.poll_segment(t(0)).is_none());
        assert!(o.stats.blocked_by_peer_window > 0);
    }

    #[test]
    fn reassembly_pastes_segments_in_order() {
        let mut o = osr(1000);
        o.on_delivered(1000, vec![2; 1000].into());
        assert!(o.read().is_empty(), "hole at the front");
        o.on_delivered(0, vec![1; 1000].into());
        let data = o.read();
        assert_eq!(data.len(), 2000);
        assert!(data[..1000].iter().all(|&b| b == 1));
        assert!(data[1000..].iter().all(|&b| b == 2));
    }

    #[test]
    fn a_parked_segment_is_held_by_handle() {
        // The slab RD delivered is what waits in `reasm`, not a copy of it.
        let mut o = osr(1000);
        let slab = Payload::from(vec![2; 1000]);
        o.on_delivered(1000, slab.clone());
        assert!(o.reasm[&1000].ptr_eq(&slab));
        o.on_delivered(0, vec![1; 1000].into());
        assert!(o.reasm.is_empty());
        assert_eq!(o.read().len(), 2000);
    }

    #[test]
    fn advertised_window_shrinks_with_buffered_data() {
        let mut o = osr(1000);
        let mut pkt = Packet::default();
        o.fill_tx(&mut pkt);
        let full = pkt.osr.rcv_wnd;
        o.on_delivered(1000, vec![0; 5000].into()); // parked in reassembly
        o.fill_tx(&mut pkt);
        assert_eq!(pkt.osr.rcv_wnd, full - 5000);
    }

    #[test]
    fn pressure_clamps_advertised_window_proportionally() {
        let mut o = osr(1000);
        let mut pkt = Packet::default();
        o.fill_tx(&mut pkt);
        let full = pkt.osr.rcv_wnd;
        o.set_pressure(Pressure::Elevated);
        o.fill_tx(&mut pkt);
        assert_eq!(pkt.osr.rcv_wnd, full / 2);
        o.set_pressure(Pressure::Critical);
        o.fill_tx(&mut pkt);
        assert_eq!(pkt.osr.rcv_wnd, full / 8);
        assert!(pkt.osr.rcv_wnd > 0, "never clamped to zero");
        o.set_pressure(Pressure::Nominal);
        o.fill_tx(&mut pkt);
        assert_eq!(pkt.osr.rcv_wnd, full, "nominal restores the full window");
    }

    #[test]
    fn ecn_echo_reaches_rate_controller() {
        // Reno halves on ECN; observe allowance drop.
        let mut o = Osr::new(Box::new(NewReno::new()), slmetrics::shared());
        let mut open = Packet::default();
        open.osr.rcv_wnd = u16::MAX;
        o.on_header(t(0), &open);
        for _ in 0..20 {
            o.on_signals(t(0), &[CongSignal::Acked { bytes: 1000, rtt: None }]);
        }
        o.write(&vec![1; 100_000]);
        let mut sent0: u64 = 0;
        while o.poll_segment(t(0)).is_some() {
            sent0 += 1;
        }
        assert!(sent0 > 10, "slow start should have opened the window: {sent0}");
        let mut pkt = Packet::default();
        pkt.osr.ecn_echo = true;
        pkt.osr.rcv_wnd = u16::MAX;
        o.on_header(t(1), &pkt);
        // Release everything, then see a smaller burst allowed.
        o.on_signals(t(1), &[CongSignal::Acked { bytes: (sent0 * 1000) as u32, rtt: None }]);
        let mut sent1: u64 = 0;
        while o.poll_segment(t(1)).is_some() {
            sent1 += 1;
        }
        assert!(sent1 < sent0, "ECN must shrink the allowance: {sent0} -> {sent1}");
    }

    #[test]
    fn ecn_mark_is_echoed_in_header() {
        let mut o = osr(1000);
        let mut pkt = Packet::default();
        o.fill_tx(&mut pkt);
        assert!(!pkt.osr.ecn_echo);
        o.mark_ecn();
        o.fill_tx(&mut pkt);
        assert!(pkt.osr.ecn_echo);
    }

    #[test]
    fn rate_based_controller_limits_in_flight() {
        // 80 kbit/s at 100ms prior RTT -> ~1 KB + 1 MSS allowance.
        let mut o = Osr::new(Box::new(RateBased::new(80_000.0)), slmetrics::shared());
        o.peer_wnd = u16::MAX as u32;
        o.write(&vec![1; 50_000]);
        let mut sent = 0;
        while o.poll_segment(t(0)).is_some() {
            sent += 1;
        }
        assert!((1..=3).contains(&sent), "rate caps the burst: {sent}");
    }

    #[test]
    fn silly_window_avoidance_waits_for_full_mss() {
        let mut o = osr(1 << 20);
        o.write(&vec![1; 2500]);
        // Constrain budget to 300 bytes: no segment (wait for window).
        let mut pkt = Packet::default();
        pkt.osr.rcv_wnd = 300;
        o.on_header(t(0), &pkt);
        assert!(o.poll_segment(t(0)).is_none());
        // But a short *tail* goes out when it's all that remains.
        pkt.osr.rcv_wnd = u16::MAX;
        o.on_header(t(0), &pkt);
        assert_eq!(o.poll_segment(t(0)).unwrap().len(), 1000);
        assert_eq!(o.poll_segment(t(0)).unwrap().len(), 1000);
        assert_eq!(o.poll_segment(t(0)).unwrap().len(), 500);
    }

    #[test]
    fn zero_window_arms_persist_and_probes_with_backoff() {
        let mut o = osr(1 << 20);
        let mut pkt = Packet::default();
        pkt.osr.rcv_wnd = 0;
        o.on_header(t(0), &pkt);
        o.write(&vec![9; 5000]);
        assert!(o.poll_segment(t(0)).is_none());
        let d1 = o.poll_deadline(t(0)).expect("persist timer armed");
        assert_eq!(d1, t(500));
        assert!(o.poll_probe().is_none(), "no probe before the timer fires");
        o.on_tick(d1);
        assert_eq!(o.poll_probe(), Some(vec![9].into()), "1-byte probe released");
        assert!(o.poll_probe().is_none(), "one probe per expiry");
        assert_eq!(o.stats.zero_window_probes, 1);
        // Backoff doubles: next expiry 1000ms later.
        assert_eq!(o.poll_deadline(d1), Some(t(1500)));
        o.on_tick(t(1500));
        assert!(o.poll_probe().is_some());
        assert_eq!(o.poll_deadline(t(1500)), Some(t(3500)));
    }

    #[test]
    fn window_reopening_cancels_persist() {
        let mut o = osr(1 << 20);
        let mut pkt = Packet::default();
        pkt.osr.rcv_wnd = 0;
        o.on_header(t(0), &pkt);
        o.write(&vec![9; 5000]);
        assert!(o.poll_segment(t(0)).is_none());
        assert!(o.poll_deadline(t(0)).is_some());
        pkt.osr.rcv_wnd = u16::MAX;
        o.on_header(t(100), &pkt);
        assert_eq!(o.poll_deadline(t(100)), None, "persist cancelled");
        assert_eq!(o.poll_segment(t(100)).unwrap().len(), MSS);
    }

    #[test]
    fn an_open_window_never_arms_persist() {
        let mut o = osr(1500);
        o.write(&vec![9; 5000]);
        assert!(o.poll_segment(t(0)).is_some());
        // Blocked by *rate*, not by the peer window: no persist timer
        // (the congestion controller owns this wait).
        assert!(o.poll_segment(t(0)).is_none());
        assert_eq!(o.persist_deadline, None);
    }

    #[test]
    fn write_read_byte_counts_tracked() {
        let mut o = osr(1 << 20);
        o.write(b"hello");
        o.on_delivered(0, b"world".to_vec().into());
        assert_eq!(o.read(), b"world");
        assert_eq!(o.stats.bytes_written, 5);
        assert_eq!(o.stats.bytes_read, 5);
    }

    #[test]
    fn reassembly_cap_counts_parked_bytes_exactly() {
        // The running `parked_bytes` must gate exactly where the scan did:
        // RCV_BUF_CAP bytes may park, one more is refused, and filling the
        // hole returns the whole budget.
        let mut o = osr(1000);
        let mut off = 1; // hole at [0, 1)
        while off + MSS <= RCV_BUF_CAP {
            o.on_delivered(off as u64, vec![2; MSS].into());
            off += MSS;
        }
        o.on_delivered(off as u64, vec![3; RCV_BUF_CAP + 1 - off].into());
        assert_eq!(o.buffered_bytes(), RCV_BUF_CAP, "parked right up to the cap");
        assert_eq!(o.stats.reasm_overflow_drops, 0);
        o.on_delivered(RCV_BUF_CAP as u64 + 1, vec![4].into());
        assert_eq!(o.stats.reasm_overflow_drops, 1, "one byte over is refused");
        let mut pkt = Packet::default();
        o.fill_tx(&mut pkt);
        assert_eq!(pkt.osr.rcv_wnd, 0, "parked bytes close the window");
        o.on_delivered(0, vec![1].into());
        assert_eq!(o.read().len(), RCV_BUF_CAP + 1);
        assert_eq!(o.buffered_bytes(), 0);
        o.fill_tx(&mut pkt);
        assert_eq!(pkt.osr.rcv_wnd as usize, RCV_BUF_CAP);
        o.on_delivered(RCV_BUF_CAP as u64 + 2, vec![5; MSS].into());
        assert_eq!(o.stats.reasm_overflow_drops, 1, "budget is back after the drain");
    }

    /// Byte `i` of a stream whose every position is recognisable.
    fn byte(i: usize) -> u8 {
        (i.wrapping_mul(31) ^ (i >> 8)) as u8
    }

    fn stream(from: usize, len: usize) -> Vec<u8> {
        (from..from + len).map(byte).collect()
    }

    #[test]
    fn a_cut_is_a_view_unless_it_straddles_two_writes() {
        let data = stream(0, 4000);
        let mut o = osr(1 << 20);
        o.write(&data[..2500]);
        o.write(&data[2500..2600]);
        o.write(&data[2600..]);
        // Wholly inside the first write: views of one slab, nothing copied.
        let a = o.poll_segment(t(0)).unwrap();
        let b = o.poll_segment(t(0)).unwrap();
        assert_eq!((&a[..], &b[..]), (&data[..1000], &data[1000..2000]));
        assert!(a.ptr_eq(&b) && a.ptr_eq(&o.app_buf[0]));
        // Tail of the first write, all of the second, head of the third:
        // gathered into a slab of its own.
        let c = o.poll_segment(t(0)).unwrap();
        assert_eq!(c[..], data[2000..3000]);
        assert!(!c.ptr_eq(&a) && !c.ptr_eq(&o.app_buf[0]));
        assert_eq!(o.app_buf.len(), 1, "consumed handles are gone");
        let d = o.poll_segment(t(0)).unwrap();
        assert_eq!(d[..], data[3000..]);
        assert!(o.poll_segment(t(0)).is_none());
        assert!(o.drained() && o.buffered_bytes() == 0);
    }

    #[test]
    fn a_probe_is_one_byte_off_the_front_slab() {
        let data = stream(0, 2001);
        let mut o = osr(1 << 20);
        o.write(&data[..1]);
        o.write(&data[1..]);
        // The front slab is the one-byte write: the probe takes all of it.
        o.probe_due = true;
        assert_eq!(o.poll_probe().unwrap()[..], data[..1]);
        assert_eq!(o.app_buf.len(), 1);
        // Now it is a view of the first byte of a longer one.
        o.probe_due = true;
        let probe = o.poll_probe().unwrap();
        assert_eq!(probe[..], data[1..2]);
        assert!(probe.ptr_eq(&o.app_buf[0]));
        assert_eq!(o.poll_segment(t(0)).unwrap()[..], data[2..1002]);
        assert_eq!(o.bytes_in_flight(), 1002);
        assert_eq!(o.stats.zero_window_probes, 2);
    }

    #[test]
    fn writes_fill_slabs_of_at_most_slab_max_up_to_the_cap() {
        let mut o = osr(1 << 20);
        let data = stream(0, SLAB_MAX + 10);
        assert_eq!(o.write(&data), data.len());
        assert_eq!(o.app_buf.iter().map(|p| p.len()).collect::<Vec<_>>(), [SLAB_MAX, 10]);
        // The cap cuts a write short in the middle; what was accepted is
        // what is queued, and the next write finds the buffer full.
        let room = SND_BUF_CAP - data.len();
        assert_eq!(o.write_capacity(), room);
        assert_eq!(o.write(&stream(data.len(), room + 5)), room);
        assert_eq!((o.write_capacity(), o.write(&[1, 2, 3])), (0, 0));
        assert_eq!(o.buffered_bytes(), SND_BUF_CAP);
        assert!(o.app_buf.iter().all(|p| p.len() <= SLAB_MAX));
        // Every byte comes back out in order — including the segments that
        // straddle a slab boundary (SLAB_MAX is not a multiple of MSS).
        let mut cut = 0;
        while let Some(seg) = o.poll_segment(t(0)) {
            assert_eq!(seg[..], stream(cut, seg.len())[..]);
            cut += seg.len();
            o.on_signals(t(0), &[CongSignal::Acked { bytes: seg.len() as u32, rtt: None }]);
        }
        assert_eq!(cut, SND_BUF_CAP);
        assert_eq!(o.write_capacity(), SND_BUF_CAP);
    }

    #[test]
    fn the_send_side_holds_at_most_one_slab_more_than_it_accounts_for() {
        // The test plays RD: it keeps every cut until it is "acknowledged",
        // and at each step acknowledges all but the newest segment — whose
        // view pins a slab that is otherwise all acknowledged bytes.
        fn held<'a>(handles: impl Iterator<Item = &'a Payload>) -> usize {
            let mut slabs: Vec<&Payload> = Vec::new();
            for h in handles {
                if !slabs.iter().any(|s| s.ptr_eq(h)) {
                    slabs.push(h);
                }
            }
            slabs.iter().map(|s| s.slab_len()).sum()
        }
        let mut o = osr(1 << 20);
        assert_eq!(o.write(&vec![7; SND_BUF_CAP]), SND_BUF_CAP);
        let mut in_flight: Vec<Payload> = Vec::new();
        loop {
            in_flight.extend(std::iter::from_fn(|| o.poll_segment(t(0))));
            let accounted = o.buffered_bytes() + in_flight.iter().map(|s| s.len()).sum::<usize>();
            assert!(held(o.app_buf.iter().chain(&in_flight)) <= accounted + SLAB_MAX);
            let acked: usize = in_flight.drain(..in_flight.len() - 1).map(|s| s.len()).sum();
            let accounted = o.buffered_bytes() + in_flight[0].len();
            assert!(held(o.app_buf.iter().chain(&in_flight)) <= accounted + SLAB_MAX);
            if acked == 0 {
                break;
            }
            o.on_signals(t(0), &[CongSignal::Acked { bytes: acked as u32, rtt: None }]);
        }
        // The lone unacknowledged tail: a short view, one whole slab held.
        assert!(o.drained());
        assert_eq!((in_flight[0].len(), in_flight[0].slab_len()), (SND_BUF_CAP % MSS, SLAB_MAX));
    }

    #[test]
    fn read_gathers_the_delivered_handles() {
        let data = stream(0, 2500);
        let mut o = osr(1000);
        let first = Payload::from(&data[..1000]);
        o.on_delivered(0, first.clone());
        assert!(o.app_out[0].ptr_eq(&first), "queued by handle, not copied");
        o.on_delivered(2000, data[2000..].into());
        o.on_delivered(1000, data[1000..2000].into());
        assert_eq!((o.app_out.len(), o.readable_len()), (3, 2500));
        assert_eq!(o.read(), data);
        assert!(o.read().is_empty() && o.app_out.is_empty());
    }

    #[test]
    fn contract_key_is_the_content_not_the_chunking() {
        let data = stream(0, 3 * MSS);
        let fresh = |chunks: &[usize]| {
            let mut o = osr(1 << 20);
            let (mut w, mut d) = (0, 0);
            for &n in chunks {
                o.write(&data[w..w + n]);
                w += n;
            }
            // The receive side too: one delivery or several, in or out of order.
            for &n in chunks.iter().rev() {
                o.on_delivered((2 * MSS - d - n) as u64, data[2 * MSS - d - n..2 * MSS - d].into());
                d += n;
            }
            o
        };
        let mut one = fresh(&[2 * MSS]);
        let mut many = fresh(&[1, MSS - 1, 7, MSS - 7]);
        assert_ne!(one.app_buf.len(), many.app_buf.len());
        assert_eq!(one.contract_key(), many.contract_key());
        // Still equal once a cut has left `many` a partly consumed front
        // slab — and it is content that is folded, not just length.
        assert_eq!(one.poll_segment(t(0)), many.poll_segment(t(0)));
        assert_eq!(one.contract_key(), many.contract_key());
        let mut other = osr(1 << 20);
        other.write(&vec![0; 2 * MSS]);
        other.on_delivered(0, data[..2 * MSS].into());
        assert_ne!(other.contract_key(), fresh(&[2 * MSS]).contract_key());
    }

    proptest::proptest! {
        #[test]
        fn prop_byte_stream_survives_any_interleaving(seed: u64) {
            // Random write / poll_segment / on_delivered / read interleavings
            // against plain `Vec<u8>` references. Writes are 1..3000 bytes and
            // cuts a full MSS, so cuts land inside one write, end on its last
            // byte and straddle two or more, again and again.
            let mut rng = proptest::TestRng::new(seed);
            let mut o = osr(1 << 20);
            // Sender side: everything written, and how much of it was cut.
            let mut written: Vec<u8> = Vec::new();
            let mut cut = 0;
            let (mut views, mut straddles, mut probes_off_many) = (0, 0, 0);
            // Receiver side: the peer's stream, how much RD has handed up
            // (in shuffled windows, exactly once), how much the app has read.
            let mut pending: Vec<(usize, usize)> = Vec::new();
            let mut generated = 0;
            let mut arrived = vec![];
            let mut read = 0;
            while written.len() < 24 * MSS || views == 0 || straddles == 0 || probes_off_many == 0 {
                proptest::prop_assert!(written.len() < 1 << 20, "{views} {straddles} {probes_off_many}");
                match rng.below(4) {
                    // Writes outpace cuts until a backlog stands, so several
                    // slabs are queued more often than not.
                    0 if (o.app_buf_bytes as usize) < 6 * MSS => {
                        let n = 1 + rng.below(3000) as usize;
                        let chunk = stream(written.len(), n);
                        proptest::prop_assert_eq!(o.write(&chunk), n);
                        written.extend(chunk);
                    }
                    0 | 1 => {
                        for _ in 0..rng.below(3) {
                            // A zero-window probe now and then: the odd byte
                            // keeps cuts from staying aligned with the writes.
                            o.probe_due = rng.below(8) == 0;
                            let (front, slabs) = (o.app_buf.front().cloned(), o.app_buf.len());
                            let probe = o.poll_probe();
                            probes_off_many += (probe.is_some() && slabs > 1) as u32;
                            let Some(seg) = probe.or_else(|| o.poll_segment(t(0))) else {
                                break;
                            };
                            // A view of the front slab exactly when that
                            // holds every byte of the cut.
                            let front = front.expect("a cut came out of something");
                            proptest::prop_assert_eq!(seg.ptr_eq(&front), seg.len() <= front.len());
                            if seg.len() <= front.len() { views += 1 } else { straddles += 1 }
                            proptest::prop_assert!(seg.len() <= MSS);
                            proptest::prop_assert_eq!(&seg[..], &written[cut..cut + seg.len()]);
                            cut += seg.len();
                            // Acked at once, so the window never gates.
                            o.on_signals(t(0), &[CongSignal::Acked { bytes: seg.len() as u32, rtt: None }]);
                        }
                    }
                    2 => {
                        if pending.is_empty() {
                            for _ in 0..1 + rng.below(6) {
                                let n = 1 + rng.below(MSS as u128) as usize;
                                pending.push((generated, n));
                                generated += n;
                            }
                        }
                        let (off, n) = pending.swap_remove(rng.below(pending.len() as u128) as usize);
                        o.on_delivered(off as u64, (off..off + n).map(byte).collect::<Vec<u8>>().into());
                        arrived.push((off, n));
                    }
                    _ => {
                        // What must be readable: the gap-free prefix.
                        arrived.sort_unstable();
                        let mut prefix = 0;
                        for &(off, n) in &arrived {
                            if off != prefix {
                                break;
                            }
                            prefix += n;
                        }
                        proptest::prop_assert_eq!(o.readable_len(), prefix - read);
                        let got = o.read();
                        let want: Vec<u8> = (read..prefix).map(byte).collect();
                        proptest::prop_assert_eq!(got, want);
                        read = prefix;
                    }
                }
                let parked: usize =
                    arrived.iter().map(|&(_, n)| n).sum::<usize>() - o.rcv_next as usize;
                proptest::prop_assert_eq!(
                    o.buffered_bytes(),
                    (written.len() - cut) + (o.rcv_next as usize - read) + parked
                );
            }
            proptest::prop_assert_eq!(o.stats.bytes_written, written.len() as u64);
            proptest::prop_assert_eq!(o.stats.bytes_read, read as u64);
        }
    }
}
