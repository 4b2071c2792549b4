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
use crate::wire::{Packet, Payload, Spare};
use netsim::{Dur, Pressure, Time};
use slcc::RateController;
use slmetrics::{site, SharedLog};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

/// Maximum segment size OSR cuts the byte stream into.
pub const MSS: usize = slwire::rfc793::DEFAULT_MSS as usize;
/// Receive buffer capacity; the advertised window is its free space.
pub const RCV_BUF_CAP: usize = 64 * 1024 - 1;
// What `Osr::read` leaves in front of the unread bytes fits the `u16` head.
const _: () = assert!(RCV_BUF_CAP == u16::MAX as usize);
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
    pub bytes_written: u64,
    pub blocked_by_rate: u64,
    pub blocked_by_peer_window: u64,
    pub zero_window_probes: u64,
    /// Out-of-order segments dropped because the reassembly buffer hit its
    /// hard cap of [`RCV_BUF_CAP`] parked bytes (a hostile sender ignoring
    /// our advertised window cannot grow memory without bound).
    pub reasm_overflow_drops: u64,
}

/// Where a part parked out of order keeps its bytes.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Parked {
    /// This many, at their place in the read buffer.
    InPlace(u32),
    /// In an exact copy of their own: the part reached past the window the
    /// read buffer was advertised from, and parking it in place would
    /// zero-fill more than that.
    Apart(Box<[u8]>),
}

impl Parked {
    fn len(&self) -> usize {
        match self {
            Parked::InPlace(len) => *len as usize,
            Parked::Apart(bytes) => bytes.len(),
        }
    }
}

/// The OSR sublayer for one connection.
#[derive(Clone)]
pub struct Osr {
    // --- sender ---
    /// Written, not yet segmented: views of the slabs `write` made, oldest
    /// first; the front one shrinks as segments are cut from it.
    app_buf: VecDeque<Payload>,
    /// The slab of the last write, refilled by the next one once no view of
    /// it is left (see [`Osr::buffered_bytes`] for what that holds).
    spare: Spare,
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
    /// The parts parked out of order, one entry per delivery and the
    /// lowest offset first out.
    reasm: BinaryHeap<Reverse<(u64, Parked)>>,
    /// Total payload bytes across `reasm` (kept incrementally so the
    /// window computation on every outgoing packet is O(1)).
    parked_bytes: u32,
    /// How far the parts parked in place reach past `rcv_next` (zero when
    /// none is): the last `ahead` bytes of `app_out`, at most
    /// [`RCV_BUF_CAP`] less the unread bytes.
    ahead: u32,
    /// Where the unread bytes start in `app_out`: in front of them, bytes
    /// already read that stay put while a hole is open, so that what is
    /// parked past it does not move. At most [`RCV_BUF_CAP`] (`u16::MAX`).
    head: u16,
    rcv_next: u64,
    /// The one read buffer every delivered byte is copied into, at its
    /// place in the stream: from `head`, the in-order bytes not yet read,
    /// then from `rcv_next` on the parts parked in place, each at its final
    /// position, with the holes between them zero-filled until their bytes
    /// arrive — so a hole that fills moves nothing. It keeps its capacity
    /// from one read to the next. The advertised window keeps an honest
    /// peer's bytes within [`RCV_BUF_CAP`] of the read position, but
    /// in-order data from one that ignores it is not refused while the
    /// application sits on its hands; the read that drains a buffer grown
    /// past the cap frees it.
    app_out: Vec<u8>,
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
            spare: Spare::default(),
            app_buf_bytes: 0,
            bytes_in_flight: 0,
            rate,
            peer_wnd: MSS as u32, // conservative until the first header
            app_closed: false,
            persist_deadline: None,
            persist_doublings: 0,
            probe_due: false,
            reasm: BinaryHeap::new(),
            parked_bytes: 0,
            ahead: 0,
            head: 0,
            rcv_next: 0,
            app_out: Vec::new(),
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
    /// This counts the bytes *viewed*; what is held is whole slabs and
    /// buffer capacity. Going down, a slab is at most [`SLAB_MAX`] bytes and
    /// is freed as soon as the last segment cut from it is acknowledged —
    /// unless it is the last write's, which OSR keeps to refill. RD lets go
    /// of its segments in stream order (a SACKed one stays until the
    /// cumulative ack passes it), so the send side (this queue, RD's
    /// retransmission buffer and the kept slab) holds at most one slab
    /// beyond the bytes the two account for: the slab the oldest
    /// unacknowledged segment sits in — its acknowledged bytes, and the
    /// tail past a shorter write that refilled it — or, once every byte
    /// written is acknowledged, the kept slab alone. Add at most a handle
    /// and a slab header (some 40 bytes) per `write`. Were segments let go
    /// of out of order, each slab an unacknowledged segment sits in would
    /// be held whole, and the kept slab besides.
    /// Going up, unread bytes sit in one read buffer, and so do the parked
    /// ones, at their place in the stream beside the holes before them —
    /// as long as they reach no further past the next in-order byte than
    /// [`RCV_BUF_CAP`] less the unread bytes, which is where the advertised
    /// window ends: a peer that keeps within it never sends further. A part
    /// from further out is an exact copy of its own until the hole before
    /// it fills. So the buffer's live span is the unread bytes plus at most
    /// what the window offered, and the zero-filled holes in it are held
    /// uncounted: one byte at the window's far edge makes a connection hold
    /// up to [`RCV_BUF_CAP`] bytes against one counted — as much as the
    /// buffer keeps between reads anyway. In front of the span lie at most
    /// [`RCV_BUF_CAP`] bytes already read, reclaimed before the buffer
    /// grows, so its capacity is at most twice the longest span it has
    /// had; the read that empties a buffer grown past [`RCV_BUF_CAP`] frees
    /// it. Each parked part also takes a 24-byte entry in the reassembly
    /// queue.
    pub fn buffered_bytes(&self) -> usize {
        self.app_buf_bytes as usize + self.readable_len() + self.parked()
    }

    /// Bytes parked out of order.
    fn parked(&self) -> usize {
        debug_assert_eq!(
            self.parked_bytes as usize,
            self.reasm.iter().map(|Reverse((_, part))| part.len()).sum::<usize>()
        );
        self.parked_bytes as usize
    }

    // --- application interface ---

    /// Queue bytes from the application; returns how many were accepted
    /// (fewer than `data.len()` once the send buffer is full). This is the
    /// one copy the bytes get on the way down: into slabs of at most
    /// [`SLAB_MAX`], which the segments are then views of. The first slab
    /// is the last write's if no view of that is left and it is long
    /// enough, so a write no longer than the last, made once that is
    /// acknowledged, allocates nothing; any other slab is a new one.
    pub fn write(&mut self, data: &[u8]) -> usize {
        self.log.borrow_mut().write(site!("osr", "app_buf"));
        assert!(!self.app_closed, "write after close");
        let n = data.len().min(self.write_capacity());
        for chunk in data[..n].chunks(SLAB_MAX) {
            self.app_buf.push_back(self.spare.write(chunk));
        }
        self.app_buf_bytes += n as u32;
        self.stats.bytes_written += n as u64;
        n
    }

    /// Drain in-order bytes to the application, copied out of the read
    /// buffer into one exactly-sized `Vec`. The buffer keeps its capacity
    /// for the next delivery unless it grew past [`RCV_BUF_CAP`]. While a
    /// hole is open, the bytes read stay where they are, and so does what
    /// is parked past the hole — until [`RCV_BUF_CAP`] read bytes have
    /// piled up in front, which the read then reclaims.
    pub fn read(&mut self) -> Vec<u8> {
        self.log.borrow_mut().read(site!("osr", "app_out"));
        let unread = self.unread();
        let out = self.app_out[unread.clone()].to_vec();
        if self.ahead == 0 {
            self.app_out.clear();
            self.head = 0;
            if self.app_out.capacity() > RCV_BUF_CAP {
                self.app_out = Vec::new();
            }
        } else if let Ok(head) = u16::try_from(unread.end) {
            self.head = head;
        } else {
            self.app_out.drain(..unread.end);
            self.head = 0;
        }
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
        self.unread().len()
    }

    /// Where the in-order bytes not yet read sit in the read buffer; the
    /// parked ones follow.
    fn unread(&self) -> Range<usize> {
        self.head as usize..self.app_out.len() - self.ahead as usize
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

    /// Free the read buffer if it is drained. The stack calls this once the
    /// peer's FIN is in, when no byte can join it any more.
    pub fn release_read_buffer(&mut self) {
        if self.app_out.is_empty() {
            self.app_out = Vec::new();
        }
    }

    /// What the read buffer holds allocated, read, unread or parked — what
    /// the bound in [`Osr::buffered_bytes`]'s doc is about.
    #[cfg(test)]
    pub(crate) fn read_capacity(&self) -> usize {
        self.app_out.capacity()
    }

    /// Application will write no more.
    pub fn close(&mut self) {
        self.app_closed = true;
        self.spare = Spare::default();
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
        Some(self.cut(n))
    }

    /// Take the first `n` queued bytes (`0 < n <=` what is queued) as one
    /// payload: a view of the front slab — no copy, no allocation —
    /// unless they straddle two writes, in which case they are gathered
    /// straight into a slab of their own (one allocation, one copy).
    fn cut(&mut self, n: usize) -> Payload {
        self.app_buf_bytes -= n as u32;
        if n <= self.app_buf.front().map_or(0, |front| front.len()) {
            return self.split_front(n);
        }
        Payload::gather(n, |slab| {
            let mut at = 0;
            while at < n {
                let front = self.app_buf.front().expect("n bytes are queued").len();
                let piece = self.split_front(front.min(n - at));
                slab[at..at + piece.len()].copy_from_slice(&piece);
                at += piece.len();
            }
        })
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

    /// [`Osr::on_delivered_bytes`] for a delivery by handle. It exists
    /// only for slbench's `SubChain`, until the benchmark moves to the view
    /// path (ROADMAP item 1).
    pub fn on_delivered(&mut self, offset: u64, data: Payload) {
        self.on_delivered_bytes(offset, &data)
    }

    /// A part of a segment arrived (possibly out of order, exactly once),
    /// in place in its frame: its bytes are copied once, to their place in
    /// the read buffer. In order, they join the unread bytes, and so does
    /// every parked part they make contiguous, where it already sits; out
    /// of order, they park until the hole before them fills — in place if
    /// they reach no further than the advertised window, else apart.
    pub fn on_delivered_bytes(&mut self, offset: u64, data: &[u8]) {
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
            let skip = offset - self.rcv_next;
            let reach = skip.saturating_add(data.len() as u64);
            let part = if reach <= RCV_BUF_CAP.saturating_sub(self.readable_len()) as u64 {
                self.put(skip as usize, data);
                self.ahead = self.ahead.max(reach as u32);
                Parked::InPlace(data.len() as u32)
            } else {
                Parked::Apart(data.into())
            };
            self.parked_bytes += data.len() as u32;
            self.reasm.push(Reverse((offset, part)));
            return;
        }
        // In order: behind the unread bytes, at the front of the hole if
        // one is open; then whatever that makes contiguous.
        self.put(0, data);
        self.release(data.len());
        while self.reasm.peek().is_some_and(|Reverse((off, _))| *off == self.rcv_next) {
            let Reverse((_, part)) = self.reasm.pop().expect("just peeked");
            self.parked_bytes -= part.len() as u32;
            if let Parked::Apart(bytes) = &part {
                self.put(0, bytes);
            }
            self.release(part.len());
        }
        debug_assert!(!self.reasm.is_empty() || self.ahead == 0);
    }

    /// Copy `data` into the read buffer `skip` bytes past `rcv_next`,
    /// zero-filling the hole before it if it lands past the end, in at most
    /// one allocation. Rather than grow, the buffer first reclaims the
    /// bytes already read in front: what is live moves down once.
    fn put(&mut self, skip: usize, data: &[u8]) {
        if self.head > 0 && self.unread().end + skip + data.len() > self.app_out.capacity() {
            self.app_out.drain(..self.head as usize);
            self.head = 0;
        }
        let at = self.unread().end + skip;
        let buf = &mut self.app_out;
        buf.reserve((at + data.len()).saturating_sub(buf.len()));
        if at > buf.len() {
            buf.resize(at, 0);
        }
        let inside = data.len().min(buf.len() - at);
        buf[at..at + inside].copy_from_slice(&data[..inside]);
        buf.extend_from_slice(&data[inside..]);
    }

    /// The `n` bytes at `rcv_next`, already in place, join the unread ones.
    fn release(&mut self, n: usize) {
        self.rcv_next += n as u64;
        self.ahead = (self.ahead as usize).saturating_sub(n) as u32;
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
        let buffered = self.readable_len() + self.parked();
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
        Time::earliest([self.rate.poll_deadline(now), self.persist_deadline])
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
        acc = fold_stream(acc, self.app_buf.iter().map(|p| &p[..]));
        let unread = self.unread();
        let mut parked: Vec<&(u64, Parked)> = self.reasm.iter().map(|p| &p.0).collect();
        parked.sort_unstable_by_key(|&&(off, _)| off);
        for (off, part) in parked {
            let bytes = match part {
                Parked::InPlace(len) => {
                    let at = unread.end + (off - self.rcv_next) as usize;
                    &self.app_out[at..][..*len as usize]
                }
                Parked::Apart(bytes) => bytes,
            };
            acc = fp::fold_bytes(fp::mix(acc, *off), bytes);
        }
        acc = fold_stream(acc, std::iter::once(&self.app_out[unread]));
        vec![acc]
    }
}

/// Fold a sequence of chunks as the one byte stream it holds — its length,
/// then its bytes in order — so the key is the content's, however the
/// application chunked its writes. (The closing zero keeps the keys equal
/// to those of the byte rings these buffers replaced.)
fn fold_stream<'a>(acc: u64, chunks: impl Iterator<Item = &'a [u8]> + Clone) -> u64 {
    let len: usize = chunks.clone().map(<[u8]>::len).sum();
    let bytes = chunks.flat_map(|c| c.iter().map(|&b| b as u64));
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
    /// See [`Osr::on_delivered_bytes`].
    fn on_delivered_bytes(&mut self, offset: u64, data: &[u8]);
    fn read(&mut self) -> Vec<u8>;
    fn readable_len(&self) -> usize;
    /// See [`Osr::contract_key`].
    fn contract_key(&self) -> Vec<u64>;
}

impl OsrDriver for Osr {
    fn on_delivered_bytes(&mut self, offset: u64, data: &[u8]) {
        Osr::on_delivered_bytes(self, offset, data)
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
    fn on_delivered_bytes(&mut self, offset: u64, data: &[u8]) {
        // THE BUG: a delivery past the cursor is rebased onto it, so the
        // application sees the bytes now — in the wrong order, and the
        // real range is double-counted when it finally arrives.
        let offset = offset.min(self.inner.rcv_next);
        self.inner.on_delivered_bytes(offset, data)
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
        o.on_delivered_bytes(1000, &[2; 1000]);
        assert!(o.read().is_empty(), "hole at the front");
        o.on_delivered_bytes(0, &[1; 1000]);
        let data = o.read();
        assert_eq!(data.len(), 2000);
        assert!(data[..1000].iter().all(|&b| b == 1));
        assert!(data[1000..].iter().all(|&b| b == 2));
    }

    #[test]
    fn a_parked_part_is_copied_to_its_place_and_moves_no_more() {
        // Parked, a part is written where it will be read from, behind a
        // zero-filled hole; the delivery that fills the hole writes the
        // hole alone, and the buffer is neither grown nor moved.
        let data = stream(0, 3000);
        let mut o = osr(1000);
        o.on_delivered_bytes(2000, &data[2000..]);
        o.on_delivered_bytes(1000, &data[1000..2000]);
        assert_eq!((o.readable_len(), o.ahead, o.parked()), (0, 3000, 2000));
        assert_eq!(o.app_out[..1000], [0; 1000]);
        assert_eq!(o.app_out[1000..], data[1000..]);
        let (at, cap) = (o.app_out.as_ptr(), o.app_out.capacity());
        o.on_delivered_bytes(0, &data[..1000]);
        assert!(o.reasm.is_empty());
        assert_eq!((o.readable_len(), o.ahead, o.parked()), (3000, 0, 0));
        assert_eq!((o.app_out.as_ptr(), o.app_out.capacity()), (at, cap));
        assert_eq!(o.read(), data);
    }

    #[test]
    fn a_read_with_a_hole_still_open_moves_nothing_parked() {
        let data = stream(0, 4000);
        let mut o = osr(1000);
        o.on_delivered_bytes(0, &data[..1000]);
        o.on_delivered_bytes(3000, &data[3000..]);
        let parked = o.app_out[3000..].as_ptr();
        assert_eq!(o.read(), data[..1000]);
        // The bytes read stay in front, the parked ones where they were.
        assert_eq!((o.head, o.readable_len(), o.ahead), (1000, 0, 3000));
        o.on_delivered_bytes(1000, &data[1000..2000]);
        assert_eq!(o.read(), data[1000..2000]);
        assert_eq!(o.head, 2000);
        o.on_delivered_bytes(2000, &data[2000..3000]);
        assert_eq!((o.readable_len(), o.ahead), (2000, 0));
        assert_eq!(o.app_out[3000..].as_ptr(), parked);
        assert_eq!(o.read(), data[2000..]);
        // Drained, the buffer starts over at its front.
        assert_eq!((o.head, o.app_out.len()), (0, 0));
        assert!(o.app_out.capacity() >= 4000);
    }

    #[test]
    fn bytes_read_in_front_of_a_hole_are_reclaimed_rather_than_grown_past() {
        // The hole at 7,000 stays open while 7,000 bytes are read in front
        // of it. A part parked past the buffer's end then moves what is
        // live down over them, and the buffer does not grow.
        let data = stream(0, 9000);
        let mut o = osr(1000);
        o.on_delivered_bytes(7999, &data[7999..8000]);
        let cap = o.app_out.capacity();
        for at in (0..7000).step_by(MSS) {
            o.on_delivered_bytes(at as u64, &data[at..at + MSS]);
            assert_eq!(o.read(), data[at..at + MSS]);
        }
        assert_eq!((o.head, o.app_out.len()), (7000, 8000));
        o.on_delivered_bytes(8000, &data[8000..]);
        assert_eq!(
            (o.head, o.app_out.len(), o.app_out.capacity()),
            (0, 2000, cap)
        );
        o.on_delivered_bytes(7000, &data[7000..7999]);
        assert_eq!(o.read(), data[7000..]);
        // Nor do more read bytes pile up in front than the `u16` head
        // holds: the read that would pass it reclaims them. The buffer has
        // grown to 80,002 bytes (two parts, the second past the first's
        // capacity), and the hole before the third runs past index 65,535.
        let data = stream(0, 70_001);
        let mut o = osr(1000);
        o.on_delivered_bytes(40_000, &data[40_000..40_001]);
        o.on_delivered_bytes(60_000, &data[60_000..60_001]);
        assert_eq!(o.app_out.capacity(), 80_002);
        o.on_delivered_bytes(0, &data[..20_000]);
        assert_eq!(o.read(), data[..20_000]);
        o.on_delivered_bytes(70_000, &data[70_000..]);
        for (from, to) in [(20_000, 40_000), (40_001, 60_000), (60_001, 69_000)] {
            o.on_delivered_bytes(from as u64, &data[from..to]);
        }
        assert_eq!((o.head, o.readable_len(), o.ahead), (20_000, 49_000, 1001));
        assert_eq!(o.read(), data[20_000..69_000]);
        assert_eq!((o.head, o.readable_len(), o.app_out.len()), (0, 0, 1001));
        o.on_delivered_bytes(69_000, &data[69_000..70_000]);
        assert_eq!(o.read(), data[69_000..]);
    }

    #[test]
    fn a_part_past_the_advertised_window_parks_apart() {
        // With 1,000 bytes unread at 1,000, the window ends RCV_BUF_CAP
        // past the stream's start. A part that reaches that far parks in
        // place behind a zero-filled hole; one a byte further, or a
        // terabyte further, keeps a copy of its own and grows nothing.
        let cap = RCV_BUF_CAP as u64;
        let data = stream(0, RCV_BUF_CAP + 1);
        let mut o = osr(1000);
        o.on_delivered_bytes(0, &data[..1000]);
        o.on_delivered_bytes(cap - 10, &data[RCV_BUF_CAP - 10..RCV_BUF_CAP]);
        assert_eq!((o.app_out.len(), o.ahead), (RCV_BUF_CAP, (cap - 1000) as u32));
        o.on_delivered_bytes(cap, &data[RCV_BUF_CAP..]);
        o.on_delivered_bytes(1 << 40, &[3]);
        assert_eq!((o.app_out.len(), o.ahead), (RCV_BUF_CAP, (cap - 1000) as u32));
        assert_eq!((o.buffered_bytes(), o.stats.reasm_overflow_drops), (1012, 0));
        // The hole fills: the part apart joins the stream behind the one in
        // place, and the read that drains the outgrown buffer frees it.
        o.on_delivered_bytes(1000, &data[1000..RCV_BUF_CAP - 10]);
        assert_eq!(o.read(), data);
        assert_eq!((o.read_capacity(), o.buffered_bytes()), (0, 1));
    }

    #[test]
    fn advertised_window_shrinks_with_buffered_data() {
        let mut o = osr(1000);
        let mut pkt = Packet::default();
        o.fill_tx(&mut pkt);
        let full = pkt.osr.rcv_wnd;
        o.on_delivered_bytes(1000, &[0; 5000]); // parked in reassembly
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
        o.on_delivered_bytes(0, b"world");
        assert_eq!(o.read(), b"world");
        assert_eq!(o.stats.bytes_written, 5);
    }

    #[test]
    fn reassembly_cap_counts_parked_bytes_exactly() {
        // The running `parked_bytes` must gate exactly where the scan did:
        // RCV_BUF_CAP bytes may park, one more is refused, and filling the
        // hole returns the whole budget.
        let mut o = osr(1000);
        let mut off = 1; // hole at [0, 1)
        while off + MSS <= RCV_BUF_CAP {
            o.on_delivered_bytes(off as u64, &[2; MSS]);
            off += MSS;
        }
        o.on_delivered_bytes(off as u64, &vec![3; RCV_BUF_CAP + 1 - off]);
        assert_eq!(o.buffered_bytes(), RCV_BUF_CAP, "parked right up to the cap");
        assert_eq!(o.stats.reasm_overflow_drops, 0);
        o.on_delivered_bytes(RCV_BUF_CAP as u64 + 1, &[4]);
        assert_eq!(o.stats.reasm_overflow_drops, 1, "one byte over is refused");
        let mut pkt = Packet::default();
        o.fill_tx(&mut pkt);
        assert_eq!(pkt.osr.rcv_wnd, 0, "parked bytes close the window");
        o.on_delivered_bytes(0, &[1]);
        assert_eq!(o.read().len(), RCV_BUF_CAP + 1);
        assert_eq!(o.buffered_bytes(), 0);
        o.fill_tx(&mut pkt);
        assert_eq!(pkt.osr.rcv_wnd as usize, RCV_BUF_CAP);
        o.on_delivered_bytes(RCV_BUF_CAP as u64 + 2, &[5; MSS]);
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
        assert_eq!(o.bytes_in_flight, 1002);
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

    /// Bytes the send side holds — every slab a queued or in-flight view
    /// pins, and the kept one — and the bytes it accounts for.
    fn held_and_accounted(o: &Osr, in_flight: &[Payload]) -> (usize, usize) {
        let mut slabs: Vec<&Payload> = Vec::new();
        for h in o.app_buf.iter().chain(in_flight) {
            if !slabs.iter().any(|s| s.ptr_eq(h)) {
                slabs.push(h);
            }
        }
        let kept = if slabs.iter().any(|s| o.spare.ptr_eq(s)) { 0 } else { o.spare.slab_len() };
        let held = slabs.iter().map(|s| s.slab_len()).sum::<usize>() + kept;
        let accounted = o.buffered_bytes() + in_flight.iter().map(|s| s.len()).sum::<usize>();
        (held, accounted)
    }

    #[test]
    fn the_send_side_holds_at_most_one_slab_more_than_it_accounts_for() {
        // The test plays RD: it keeps every cut until it is "acknowledged",
        // and at each step acknowledges, in stream order, all but the
        // newest segment — whose view pins a slab that is otherwise all
        // acknowledged bytes. Writes of every size in between refill the
        // kept slab whenever no view of it is left.
        let within = |o: &Osr, in_flight: &[Payload]| {
            let (held, accounted) = held_and_accounted(o, in_flight);
            assert!(held <= accounted + SLAB_MAX, "{held} held, {accounted} accounted");
        };
        let mut o = osr(1 << 20);
        let mut in_flight: Vec<Payload> = Vec::new();
        let mut refills = 0;
        for len in [SND_BUF_CAP, 1, SLAB_MAX, 3 * MSS / 2, SLAB_MAX + 1, 10, 2 * MSS, 5] {
            assert_eq!(o.write(&vec![7; len]), len);
            refills += o.app_buf.back().is_some_and(|b| b.slab_len() > b.len()) as u32;
            within(&o, &in_flight);
            loop {
                in_flight.extend(std::iter::from_fn(|| o.poll_segment(t(0))));
                within(&o, &in_flight);
                let acked: usize = in_flight.drain(..in_flight.len() - 1).map(|s| s.len()).sum();
                within(&o, &in_flight);
                if acked == 0 {
                    break;
                }
                o.on_signals(t(0), &[CongSignal::Acked { bytes: acked as u32, rtt: None }]);
            }
            assert!(o.drained());
            if len == SND_BUF_CAP {
                // The lone unacknowledged tail: a short view, one whole
                // slab held.
                let tail = &in_flight[0];
                assert_eq!((tail.len(), tail.slab_len()), (SND_BUF_CAP % MSS, SLAB_MAX));
            }
            // The last segment's ack: all that is held is the kept slab.
            let last = in_flight.pop().expect("the newest segment stays");
            o.on_signals(t(0), &[CongSignal::Acked { bytes: last.len() as u32, rtt: None }]);
            drop(last);
            assert_eq!(held_and_accounted(&o, &in_flight), (o.spare.slab_len(), 0));
        }
        assert!(refills >= 3, "shorter writes refilled the kept slab: {refills}");
        // Closed, the connection keeps nothing.
        o.close();
        assert_eq!(held_and_accounted(&o, &in_flight), (0, 0));
    }

    #[test]
    fn segments_let_go_of_out_of_order_hold_a_slab_more() {
        // An RD that freed SACKed segments before the hole below them
        // filled (the shipped one keeps them until the cumulative ack
        // passes) would let the last write's slab go first: both the slab
        // the hole sits in and the kept slab would be held, all but one
        // segment of them acknowledged. (Two whole slabs of segments, and
        // a window for both.)
        let len = SLAB_MAX / MSS * MSS;
        let mut o = osr(1 << 20);
        o.peer_wnd = 2 * len as u32;
        o.write(&vec![1; len]);
        o.write(&vec![2; len]);
        let mut in_flight: Vec<Payload> = std::iter::from_fn(|| o.poll_segment(t(0))).collect();
        assert_eq!(held_and_accounted(&o, &in_flight), (2 * len, 2 * len));
        // Everything after the first segment is "SACKed" and let go of.
        in_flight.truncate(1);
        let (held, accounted) = held_and_accounted(&o, &in_flight);
        assert_eq!((held, accounted), (2 * len, MSS));
        assert!(held > accounted + SLAB_MAX);
        // The next write still refills nothing a view shows: the kept slab
        // is free, the first is not.
        let before = in_flight[0].clone();
        o.write(&vec![3; MSS]);
        assert!(o.spare.ptr_eq(&o.app_buf[0]) && !before.ptr_eq(&o.app_buf[0]));
        assert!(before.iter().all(|&b| b == 1));
    }

    #[test]
    fn read_copies_out_of_one_buffer_that_keeps_its_capacity() {
        let data = stream(0, 2500);
        let mut o = osr(1000);
        // In order: copied into the read buffer.
        o.on_delivered_bytes(0, &data[..500]);
        o.on_delivered_bytes(500, &data[500..1000]);
        assert_eq!(o.app_out[..], data[..1000]);
        // Out of order: parked in the same buffer, past the hole.
        o.on_delivered_bytes(2000, &data[2000..]);
        assert_eq!(
            (o.readable_len(), o.parked(), o.app_out.len()),
            (1000, 500, 2500)
        );
        o.on_delivered_bytes(1000, &data[1000..2000]);
        assert!(o.reasm.is_empty());
        assert_eq!((o.app_out.len(), o.readable_len()), (2500, 2500));
        let cap = o.app_out.capacity();
        let out = o.read();
        assert_eq!((out.len(), out.capacity()), (2500, 2500), "one exactly sized copy");
        assert_eq!(out, data);
        assert!(o.read().is_empty());
        assert_eq!(o.app_out.capacity(), cap, "kept for the next delivery");
        // Released once it is drained, and only then.
        o.on_delivered_bytes(2500, &[1; 10]);
        o.release_read_buffer();
        assert_eq!(o.app_out.capacity(), cap);
        assert_eq!(o.read(), [1; 10]);
        o.release_read_buffer();
        assert_eq!(o.app_out.capacity(), 0);
    }

    #[test]
    fn a_read_frees_a_buffer_grown_past_the_cap() {
        // A peer ignoring the advertised window: in-order bytes are not
        // refused while the application sits on its hands, but the read
        // that drains them leaves no buffer above the cap.
        let mut o = osr(1000);
        let data = stream(0, 2 * RCV_BUF_CAP);
        for (i, chunk) in data.chunks(MSS).enumerate() {
            o.on_delivered_bytes((i * MSS) as u64, chunk);
        }
        assert_eq!(o.readable_len(), data.len());
        let mut pkt = Packet::default();
        o.fill_tx(&mut pkt);
        assert_eq!(pkt.osr.rcv_wnd, 0);
        assert_eq!(o.read(), data);
        assert_eq!(o.app_out.capacity(), 0);
        // Within the cap, the buffer stays.
        o.on_delivered_bytes(data.len() as u64, &data[..MSS]);
        o.read();
        assert!((MSS..=RCV_BUF_CAP).contains(&o.app_out.capacity()));
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
                o.on_delivered_bytes((2 * MSS - d - n) as u64, &data[2 * MSS - d - n..2 * MSS - d]);
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
        other.on_delivered_bytes(0, &data[..2 * MSS]);
        assert_ne!(other.contract_key(), fresh(&[2 * MSS]).contract_key());
    }

    proptest::proptest! {
        #[test]
        fn prop_byte_stream_survives_any_interleaving(seed: u64) {
            // Random write / poll_segment / on_delivered_bytes / read interleavings
            // against plain `Vec<u8>` references. Writes are 1..3000 bytes and
            // cuts a full MSS, so cuts land inside one write, end on its last
            // byte and straddle two or more, again and again.
            let mut rng = proptest::TestRng::new(seed);
            let mut o = osr(1 << 20);
            // Sender side: everything written, how much of it was cut, and
            // the cuts still alive — as RD's flight keeps them until their
            // ack, in any order — by the offset of their first byte.
            let mut written: Vec<u8> = Vec::new();
            let mut cut = 0;
            let mut live: Vec<(usize, Payload)> = Vec::new();
            let (mut views, mut straddles, mut probes_off_many, mut refills) = (0, 0, 0, 0);
            // Receiver side: the peer's stream, how much RD has handed up
            // (in shuffled windows, exactly once), how much the app has read.
            let mut pending: Vec<(usize, usize)> = Vec::new();
            let mut generated = 0;
            let mut arrived = vec![];
            let mut read = 0;
            while written.len() < 24 * MSS
                || views == 0
                || straddles == 0
                || probes_off_many == 0
                || refills == 0
            {
                proptest::prop_assert!(
                    written.len() < 1 << 20,
                    "{views} {straddles} {probes_off_many} {refills}"
                );
                match rng.below(4) {
                    // Writes outpace cuts until a backlog stands, so several
                    // slabs are queued more often than not.
                    0 if (o.app_buf_bytes as usize) < 6 * MSS => {
                        let n = 1 + rng.below(3000) as usize;
                        let chunk = stream(written.len(), n);
                        proptest::prop_assert_eq!(o.write(&chunk), n);
                        // Into a slab longer than the write: the kept one.
                        refills += o.app_buf.back().is_some_and(|b| b.slab_len() > n) as u32;
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
                            // Acked at once, so the window never gates; RD
                            // may still hold the view a while.
                            o.on_signals(t(0), &[CongSignal::Acked { bytes: seg.len() as u32, rtt: None }]);
                            let at = cut;
                            cut += seg.len();
                            if rng.below(2) == 0 {
                                live.push((at, seg));
                            }
                        }
                        // Acks let some views go, not necessarily in order.
                        for _ in 0..rng.below(3) {
                            if !live.is_empty() {
                                live.swap_remove(rng.below(live.len() as u128) as usize);
                            }
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
                        let bytes: Vec<u8> = (off..off + n).map(byte).collect();
                        o.on_delivered_bytes(off as u64, &bytes);
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
                // No write has touched a byte that a live view shows.
                for (at, seg) in &live {
                    proptest::prop_assert_eq!(&seg[..], &written[*at..*at + seg.len()]);
                }
            }
            proptest::prop_assert_eq!(o.stats.bytes_written, written.len() as u64);
        }
    }
}
