//! The monolithic TCP engine.
//!
//! `on_segment` is this crate's `tcp_input()`: one long function that —
//! exactly like the code on p.948 of TCP/IP Illustrated vol. 2 that the
//! paper cites — interleaves demultiplexing (finding the PCB), connection
//! management (SYN/FIN state transitions), reliable delivery (ack
//! processing, retransmission, reassembly), congestion control (cwnd
//! updates, fast retransmit) and flow control (window updates), all
//! mutating the same [`Pcb`]. The `log.borrow_mut()` annotations record
//! which *subfunction* touches which *field* (one `slmetrics::SITES` row
//! each); experiment E6 turns that into the entanglement matrix contrasted
//! with the sublayered stack.

use crate::pcb::*;
use crate::wire::{Endpoint, FourTuple, Segment, ACK, FIN, PSH, RST, SYN};
use slwire::hash::FxBuildHasher;
use slwire::seq;
use netsim::{
    Agenda, Dur, FrameMeta, HostStack, Keepalive, Mark, Pressure, Stack, Time, TransportError,
};
use slcc::{CcError, CongSignal, NewReno, RateController};
use slmetrics::{site, SharedLog};
use std::collections::{HashMap, HashSet, VecDeque};

/// Aggregate counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TcpStats {
    pub segs_sent: u64,
    pub segs_received: u64,
    pub bad_segments: u64,
    pub rto_retransmits: u64,
    pub fast_retransmits: u64,
    pub dupacks: u64,
    pub rsts_sent: u64,
    pub conns_opened: u64,
    pub conns_reset: u64,
    pub keepalive_probes: u64,
    /// RFC 5961 challenge ACKs sent for suspect in-window RST/SYN.
    pub challenge_acks: u64,
    /// Stateless SYN|ACKs sent because the half-open queue was full.
    pub syn_cookies_sent: u64,
    /// Connections completed from a returned cookie.
    pub syn_cookies_validated: u64,
    /// Stale half-open PCBs evicted to admit a new SYN.
    pub half_open_evictions: u64,
    /// ACKs dropped for being far outside the plausible window (RFC 5961 §5).
    pub old_ack_drops: u64,
    /// Retransmission timeouts F-RTO classified as spurious (the original
    /// flight was still arriving; the go-back-N replay was cancelled).
    pub spurious_rtos: u64,
    /// Out-of-order payload bytes discarded at the reassembly byte cap.
    pub ooo_overflow_drops: u64,
    /// Inbound flows refused because the connection table was full.
    pub conn_table_full_drops: u64,
    /// Inbound flows refused because the accept gate was closed (host
    /// memory pressure or drain).
    pub pressure_refusals: u64,
    /// Pure acks deferred by pressure-driven ACK pacing.
    pub acks_paced: u64,
}

/// Half-open (SYN_RCVD) connections tolerated per host; beyond this a
/// flood is answered with stateless SYN cookies or eviction, never more
/// memory.
pub const MAX_HALF_OPEN: usize = 16;
/// A half-open this old (one initial RTO, i.e. already retransmitting its
/// SYN|ACK) may be evicted for a fresh SYN.
const HALF_OPEN_EVICT_AGE: Dur = Dur(1_000_000_000);
/// Send-buffer cap: `send` accepts at most this much unacknowledged +
/// unsent data, so the retransmit queue is bounded and the application
/// feels backpressure through the short count.
pub const SND_BUF_CAP: usize = 1 << 20;
/// Largest plausible distance an honest ACK can trail `snd_una`
/// (RFC 5961 §5: anything older is blind noise and is dropped silently).
const MAX_ACK_AGE: u32 = 65_535;
/// How long a pure ack may be held under pressure-driven ACK pacing —
/// well below [`MIN_RTO`] so pacing never triggers a peer's RTO.
pub const ACK_PACE_DELAY: Dur = Dur(50_000_000);

// Subfunction labels for the entanglement instrumentation.
const DEMUX: &str = "demux";
const CONN: &str = "conn_mgmt";
const RD: &str = "reliable_delivery";
const CC: &str = "congestion_control";
const FC: &str = "flow_control";
const TIMERS: &str = "timers";

/// A monolithic TCP endpoint (host): connection table + listeners.
pub struct TcpStack {
    addr: u32,
    listeners: HashSet<u16, FxBuildHasher>,
    /// Demux table keyed by the shared seeded fx mix (`slwire::hash`) —
    /// same bucket function the sublayered demux and shard router use;
    /// `listeners` and `errors` are keyed off the wire too and share it.
    conns: HashMap<FourTuple, Pcb, FxBuildHasher>,
    outbox: VecDeque<Vec<u8>>,
    log: SharedLog,
    keepalive: Option<Keepalive>,
    /// Terminal error per connection; survives the PCB so the application
    /// can ask *why* a connection died after it is gone.
    errors: HashMap<FourTuple, TransportError, FxBuildHasher>,
    /// Connection-table capacity: beyond it, passive opens are refused
    /// with a RST and active opens fail with
    /// [`TransportError::ConnTableFull`].
    max_conns: usize,
    next_ephemeral: u16,
    /// Host memory pressure. Contrast with the sublayered stack, where
    /// the signal is split into per-sublayer slices: here one global is
    /// consulted by flow control (window stamping), the output path and
    /// timers (ack pacing), and connection management (accept gating) —
    /// the cross-cutting state the paper warns about.
    pressure: Pressure,
    /// Host-requested accept gate (drain/quiesce).
    gate: bool,
    /// The configured rate controller, validated at construction and
    /// cloned into each new PCB — the same shared [`RateController`] set
    /// the sublayered stack selects from.
    cc_template: Box<dyn RateController>,
    /// Which connections have anything to do, and how many are half-open:
    /// `poll_transmit`, `poll_deadline`, `on_tick` and the SYN path read
    /// this, never the whole table. Kept by [`TcpStack::put_back`] and
    /// [`TcpStack::take_for_good`], the only ways into and out of `conns`,
    /// at no cost in PCB fields; dormant — the half-open count alone —
    /// until the first `poll_transmit` or `on_tick`.
    agenda: Agenda<FourTuple>,
    pub stats: TcpStats,
}

impl TcpStack {
    pub fn new(addr: u32, log: SharedLog) -> TcpStack {
        Self::build(addr, Box::new(NewReno::new()), log)
    }

    /// Construct with a named congestion controller from the shared
    /// [`slcc`] set; an unknown name is a typed error at construction,
    /// never a panic on input.
    pub fn with_cc(addr: u32, cc: &str, log: SharedLog) -> Result<TcpStack, CcError> {
        Ok(Self::build(addr, slcc::make(cc)?, log))
    }

    fn build(addr: u32, cc_template: Box<dyn RateController>, log: SharedLog) -> TcpStack {
        let seeded = FxBuildHasher::with_seed(addr as u64);
        TcpStack {
            addr,
            listeners: HashSet::with_hasher(seeded),
            conns: HashMap::with_hasher(seeded),
            outbox: VecDeque::new(),
            log,
            keepalive: None,
            errors: HashMap::with_hasher(seeded),
            max_conns: 16384,
            next_ephemeral: 49152,
            pressure: Pressure::Nominal,
            gate: false,
            cc_template,
            agenda: Agenda::new(),
            stats: TcpStats::default(),
        }
    }

    /// The name of the configured congestion controller.
    pub fn cc_name(&self) -> &'static str {
        self.cc_template.name()
    }

    /// Enable keepalive probing for all connections on this host.
    pub fn set_keepalive(&mut self, ka: Keepalive) {
        let before = self.keepalive.replace(ka);
        for (&tuple, p) in &self.conns {
            let half_open = p.state == TcpState::SynRcvd;
            let was = self.agenda.mark(half_open, || Self::deadline_of(before, p));
            let is = self.agenda.mark(half_open, || Self::deadline_of(Some(ka), p));
            self.agenda.reindex(tuple, Some(was), Some(is));
        }
    }

    /// Advertised window under the stack-global pressure clamp. Every
    /// subfunction that stamps a header — handshake, output,
    /// retransmission, probes, challenges — must remember to route its
    /// window through this helper; miss one site and the clamp silently
    /// leaks (the diff-locality cost the sublayered stack avoids by
    /// clamping once, inside OSR).
    fn adv_wnd(&self, pcb: &Pcb) -> u16 {
        self.log.borrow_mut().read(site!(FC, "pressure"));
        self.log.borrow_mut().read(site!(FC, "rcv_wnd"));
        (pcb.rcv_wnd() >> self.pressure.wnd_shift()).min(u16::MAX as u32) as u16
    }

    /// Per-connection congestion-control observability: window samples
    /// and loss/recovery event counts ([`slmetrics::CcCounters`], the
    /// same shape the sublayered stack fills — E19 reads both like for
    /// like).
    pub fn conn_cc(&self, tuple: FourTuple) -> Option<slmetrics::CcCounters> {
        self.conns.get(&tuple).map(|p| p.cc_stats)
    }

    /// RFC 793 clock-driven ISN ("unique in time using the low-order bits
    /// of a clock"), salted by the 4-tuple so both simulated hosts don't
    /// collide at t=0.
    fn isn(&self, now: Time, tuple: &FourTuple) -> u32 {
        let clock = (now.micros() / 4) as u32;
        let salt = tuple
            .local
            .addr
            .wrapping_mul(2654435761)
            .wrapping_add(tuple.local.port as u32)
            .wrapping_mul(40503)
            .wrapping_add(tuple.remote.port as u32);
        clock.wrapping_add(salt)
    }

    /// Actively open a connection; returns its id. Panics if the table
    /// cannot admit it — use [`TcpStack::try_connect`] when refusal must
    /// be a value, not a crash.
    pub fn connect(&mut self, now: Time, local_port: u16, remote: Endpoint) -> FourTuple {
        self.try_connect(now, local_port, remote).expect("tuple free")
    }

    /// Allocate an ephemeral local port toward `remote`, or `None` once
    /// every port in the ephemeral range is bound to it.
    fn ephemeral_port(&mut self, remote: Endpoint) -> Option<u16> {
        const EPHEMERAL_RANGE: u32 = u16::MAX as u32 - 49152 + 1;
        for _ in 0..EPHEMERAL_RANGE {
            let p = self.next_ephemeral;
            self.next_ephemeral = self.next_ephemeral.checked_add(1).unwrap_or(49152);
            let tuple = FourTuple { local: Endpoint::new(self.addr, p), remote };
            if !self.conns.contains_key(&tuple) {
                return Some(p);
            }
        }
        None
    }

    /// RST the peer of an existing connection.
    fn send_rst(&mut self, pcb: &Pcb) {
        let seg = Segment {
            src: pcb.tuple.local,
            dst: pcb.tuple.remote,
            seq: pcb.snd_nxt,
            ack: pcb.rcv_nxt,
            flags: RST | ACK,
            wnd: 0,
            mss: None,
            payload: Vec::new(),
        };
        self.stats.rsts_sent += 1;
        self.push(seg);
    }

    pub fn state(&self, tuple: FourTuple) -> TcpState {
        self.conns.get(&tuple).map_or(TcpState::Closed, |p| p.state)
    }

    fn deadline_of(keepalive: Option<Keepalive>, p: &Pcb) -> Option<Time> {
        let ka_due = keepalive.and_then(|ka| {
            (p.state == TcpState::Established).then(|| {
                p.last_rx + ka.idle + ka.interval.saturating_mul(p.ka_probes as u64)
            })
        });
        [
            p.rto_deadline,
            p.time_wait_deadline,
            p.persist_deadline,
            p.delayed_ack_deadline,
            ka_due,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn mark_of(&self, p: &Pcb) -> Mark {
        self.agenda
            .mark(p.state == TcpState::SynRcvd, || Self::deadline_of(self.keepalive, p))
    }

    /// The other half of `self.conns.remove(..)`: the one place a PCB
    /// enters the table (`keep`) or is dropped, with the mark it had when
    /// it was taken out (`None` for a new one) so that the agenda follows.
    fn put_back(&mut self, pcb: Pcb, before: Option<Mark>, keep: bool) {
        let tuple = pcb.tuple;
        let after = keep.then(|| self.mark_of(&pcb));
        if keep {
            self.conns.insert(tuple, pcb);
        }
        self.agenda.reindex(tuple, before, after);
    }

    /// Remove a connection outright (abort, eviction).
    fn take_for_good(&mut self, tuple: FourTuple) -> Option<Pcb> {
        let pcb = self.conns.remove(&tuple)?;
        self.agenda.reindex(tuple, Some(self.mark_of(&pcb)), None);
        Some(pcb)
    }

    /// Entries in the ready set and in the deadline index — each bounded
    /// by [`TcpStack::conn_count`], and both 0 until the first
    /// `poll_transmit` or `on_tick` (so always, under a host that drives
    /// each connection itself).
    pub fn agenda_sizes(&self) -> (usize, usize) {
        self.agenda.sizes()
    }

    /// Direct PCB access for tests and campaign invariants (read-only).
    pub fn pcb(&self, tuple: FourTuple) -> Option<&Pcb> {
        self.conns.get(&tuple)
    }

    /// The wire sequence number this connection expects next — what an
    /// exact-sequence ("oracle") attacker would have to guess. Mirrors
    /// `SlTcpStack::expected_wire_seq` so differential harnesses can
    /// craft byte-precise injections against either stack.
    pub fn expected_wire_seq(&self, tuple: FourTuple) -> Option<u32> {
        self.conns.get(&tuple).map(|p| p.rcv_nxt)
    }

    fn push(&mut self, seg: Segment) {
        self.stats.segs_sent += 1;
        self.outbox.push_back(seg.encode());
    }

    fn send_syn(&mut self, pcb: &mut Pcb, with_ack: bool) {
        self.log.borrow_mut().read(site!(CONN, "iss"));
        self.log.borrow_mut().read(site!(FC, "rcv_wnd"));
        let seg = Segment {
            src: pcb.tuple.local,
            dst: pcb.tuple.remote,
            seq: pcb.iss,
            ack: if with_ack { pcb.rcv_nxt } else { 0 },
            flags: if with_ack { SYN | ACK } else { SYN },
            wnd: self.adv_wnd(pcb),
            mss: Some(pcb.mss as u16),
            payload: Vec::new(),
        };
        self.push(seg);
    }

    fn send_rst_for(&mut self, seg: &Segment) {
        if seg.rst() {
            return;
        }
        let (rseq, rack, rflags) = if seg.ack_flag() {
            (seg.ack, 0, RST)
        } else {
            (0, seg.seq.wrapping_add(seg.seq_len()), RST | ACK)
        };
        let rst = Segment {
            src: seg.dst,
            dst: seg.src,
            seq: rseq,
            ack: rack,
            flags: rflags,
            wnd: 0,
            mss: None,
            payload: Vec::new(),
        };
        self.stats.rsts_sent += 1;
        self.push(rst);
    }

    /// RFC 5961 challenge ACK: instead of acting on a suspect in-window
    /// RST or SYN, re-assert our state; a legitimate peer answers with an
    /// exact-sequence RST, a blind attacker learns nothing.
    fn challenge_ack(&mut self, pcb: &Pcb) {
        self.log.borrow_mut().read(site!(RD, "snd_nxt"));
        self.log.borrow_mut().read(site!(RD, "rcv_nxt"));
        self.log.borrow_mut().read(site!(FC, "rcv_wnd"));
        let seg = Segment {
            src: pcb.tuple.local,
            dst: pcb.tuple.remote,
            seq: pcb.snd_nxt,
            ack: pcb.rcv_nxt,
            flags: ACK,
            wnd: self.adv_wnd(pcb),
            mss: None,
            payload: Vec::new(),
        };
        self.stats.challenge_acks += 1;
        self.push(seg);
    }

    /// Connections still completing the handshake (SYN queue occupancy).
    pub fn half_open_count(&self) -> usize {
        debug_assert_eq!(
            self.agenda.half_open(),
            self.conns.values().filter(|p| p.state == TcpState::SynRcvd).count()
        );
        self.agenda.half_open()
    }

    /// Oldest half-open connection that has sat at least one RTO without
    /// progress — the eviction victim under SYN flood.
    fn stale_half_open(&self, now: Time) -> Option<FourTuple> {
        self.conns
            .values()
            .filter(|p| p.state == TcpState::SynRcvd)
            .filter(|p| now.since(p.last_rx) >= HALF_OPEN_EVICT_AGE)
            .map(|p| (p.last_rx, p.tuple))
            .min()
            .map(|(_, t)| t)
    }

    /// Stateless SYN-cookie ISN: a keyed mix of the 4-tuple and the
    /// client's ISN, recomputable when the handshake-completing ACK
    /// returns so no per-SYN state need exist.
    fn syn_cookie(&self, tuple: &FourTuple, irs: u32) -> u32 {
        let mut h = 0x9E37_79B9u32 ^ self.addr;
        for v in [
            tuple.local.addr,
            tuple.local.port as u32,
            tuple.remote.addr,
            tuple.remote.port as u32,
            irs,
        ] {
            h = h.wrapping_add(v).wrapping_mul(2_654_435_761).rotate_left(13);
        }
        h
    }

    /// Transmit whatever the window allows for `tuple` (tcp_output).
    fn output(&mut self, now: Time, tuple: FourTuple) {
        self.agenda.clear_ready(&tuple);
        let Some(mut pcb) = self.conns.remove(&tuple) else { return };
        let before = Some(self.mark_of(&pcb));
        self.output_pcb(now, &mut pcb);
        self.put_back(pcb, before, true);
    }

    fn output_pcb(&mut self, now: Time, pcb: &mut Pcb) {
        if matches!(pcb.state, TcpState::SynSent | TcpState::SynRcvd | TcpState::Listen) {
            return;
        }
        loop {
            // How much may we send? min of peer window and cwnd, minus
            // what's already in flight. [flow control + congestion control]
            self.log.borrow_mut().read(site!(RD, "snd_wnd"));
            self.log.borrow_mut().read(site!(RD, "cwnd"));
            self.log.borrow_mut().read(site!(RD, "snd_nxt"));
            self.log.borrow_mut().read(site!(RD, "snd_una"));
            self.log.borrow_mut().read(site!(RD, "mss"));
            self.log.borrow_mut().read(site!(RD, "rcv_wnd"));
            let window = pcb.snd_wnd.min(pcb.cwnd(now));
            let usable = window.saturating_sub(pcb.flight_size());
            let offset = pcb.snd_nxt.wrapping_sub(pcb.snd_buf_seq) as usize;
            let avail = pcb.snd_buf.len().saturating_sub(offset);
            let n = avail.min(pcb.mss as usize).min(usable as usize);
            if n == 0 {
                // Zero-window with data waiting: arm the persist timer.
                if avail > 0
                    && pcb.snd_wnd == 0
                    && pcb.flight_size() == 0
                    && pcb.persist_deadline.is_none()
                {
                    self.log.borrow_mut().write(site!(RD, "persist_deadline"));
                    pcb.persist_deadline = Some(now + pcb.rto);
                }
                break;
            }
            let payload = pcb.snd_payload(offset, n);
            let drains = offset + n == pcb.snd_buf.len();
            self.log.borrow_mut().write(site!(RD, "snd_nxt"));
            let seg = Segment {
                src: pcb.tuple.local,
                dst: pcb.tuple.remote,
                seq: pcb.snd_nxt,
                ack: pcb.rcv_nxt,
                flags: ACK | if drains { PSH } else { 0 },
                wnd: self.adv_wnd(pcb),
                mss: None,
                payload,
            };
            pcb.snd_nxt = pcb.snd_nxt.wrapping_add(n as u32);
            let is_new_data = seq::gt(pcb.snd_nxt, pcb.snd_max);
            pcb.snd_max = seq::max(pcb.snd_max, pcb.snd_nxt);
            // Karn's rule: only time segments that are not retransmissions.
            if pcb.rtt_timing.is_none() && is_new_data {
                self.log.borrow_mut().write(site!(RD, "rtt_timing"));
                pcb.rtt_timing = Some((pcb.snd_nxt, now));
            }
            if pcb.rto_deadline.is_none() {
                self.log.borrow_mut().write(site!(TIMERS, "rto_deadline"));
                pcb.rto_deadline = Some(now + pcb.rto);
            }
            if pcb.una_since.is_none() {
                pcb.una_since = Some(now);
            }
            pcb.ack_pending = false;
            pcb.delayed_ack_deadline = None;
            self.push(seg);
        }

        // FIN once the buffer is fully sent. [conn mgmt touching RD state]
        let offset = pcb.snd_nxt.wrapping_sub(pcb.snd_buf_seq) as usize;
        if pcb.fin_queued && pcb.fin_seq.is_none() && offset >= pcb.snd_buf.len() {
            self.log.borrow_mut().read(site!(CONN, "snd_buf"));
            self.log.borrow_mut().write(site!(CONN, "snd_nxt"));
            let seg = Segment {
                src: pcb.tuple.local,
                dst: pcb.tuple.remote,
                seq: pcb.snd_nxt,
                ack: pcb.rcv_nxt,
                flags: FIN | ACK,
                wnd: self.adv_wnd(pcb),
                mss: None,
                payload: Vec::new(),
            };
            pcb.fin_seq = Some(pcb.snd_nxt);
            pcb.snd_nxt = pcb.snd_nxt.wrapping_add(1);
            pcb.snd_max = seq::max(pcb.snd_max, pcb.snd_nxt);
            if pcb.rto_deadline.is_none() {
                pcb.rto_deadline = Some(now + pcb.rto);
            }
            if pcb.una_since.is_none() {
                pcb.una_since = Some(now);
            }
            pcb.ack_pending = false;
            pcb.delayed_ack_deadline = None;
            self.push(seg);
        }

        if pcb.ack_pending {
            // ---- ACK pacing under pressure. Note the entanglement: the
            // output path consults stack-global pressure (FC), arms a
            // timer field on the PCB (TIMERS), and the timer scan in
            // `conn_deadline` plus the receive path's clears all touch the
            // same field. The sublayered stack keeps this private in RD.
            if self.pressure.paces_acks() {
                self.log.borrow_mut().read(site!(FC, "pressure"));
                self.log.borrow_mut().write(site!(TIMERS, "delayed_ack_deadline"));
                match pcb.delayed_ack_deadline {
                    None => {
                        pcb.delayed_ack_deadline = Some(now + ACK_PACE_DELAY);
                        self.stats.acks_paced += 1;
                        return;
                    }
                    Some(d) if now < d => return,
                    Some(_) => pcb.delayed_ack_deadline = None,
                }
            } else {
                pcb.delayed_ack_deadline = None;
            }
            self.log.borrow_mut().read(site!(RD, "rcv_nxt"));
            self.log.borrow_mut().read(site!(FC, "rcv_wnd"));
            let seg = Segment {
                src: pcb.tuple.local,
                dst: pcb.tuple.remote,
                seq: pcb.snd_nxt,
                ack: pcb.rcv_nxt,
                flags: ACK,
                wnd: self.adv_wnd(pcb),
                mss: None,
                payload: Vec::new(),
            };
            pcb.ack_pending = false;
            self.push(seg);
        }
    }

    /// Rebuild and send one segment starting at `seq_from` (fast
    /// retransmit / RTO / persist probe).
    fn retransmit_one(&mut self, pcb: &mut Pcb, seq_from: u32) {
        self.log.borrow_mut().read(site!(RD, "snd_buf"));
        let offset = seq_from.wrapping_sub(pcb.snd_buf_seq) as usize;
        if offset > pcb.snd_buf.len() {
            return;
        }
        let n = (pcb.snd_buf.len() - offset).min(pcb.mss as usize);
        let payload = pcb.snd_payload(offset, n);
        let is_fin = n == 0 && pcb.fin_seq == Some(seq_from);
        if n == 0 && !is_fin {
            return;
        }
        let seg = Segment {
            src: pcb.tuple.local,
            dst: pcb.tuple.remote,
            seq: seq_from,
            ack: pcb.rcv_nxt,
            flags: ACK | if is_fin { FIN } else { 0 },
            wnd: self.adv_wnd(pcb),
            mss: None,
            payload,
        };
        self.push(seg);
    }

    /// The heart of the monolithic design: `tcp_input`, everything
    /// interleaved over the shared PCB.
    fn on_segment(&mut self, now: Time, seg: Segment) {
        self.stats.segs_received += 1;

        // ---- demultiplexing: find the PCB ----
        self.log.borrow_mut().read(site!(DEMUX, "conn_table"));
        if seg.dst.addr != self.addr {
            return;
        }
        let tuple = FourTuple { local: seg.dst, remote: seg.src };
        let Some(mut pcb) = self.conns.remove(&tuple) else {
            // Admission control first: a full connection table refuses
            // every would-be-new flow — cookie completions included —
            // with a typed drop counter and a RST, never a panic or a
            // silent discard.
            let would_open = self.listeners.contains(&seg.dst.port)
                && ((seg.syn() && !seg.ack_flag())
                    || (seg.ack_flag()
                        && !seg.syn()
                        && !seg.rst()
                        && seg.ack.wrapping_sub(1)
                            == self.syn_cookie(&tuple, seg.seq.wrapping_sub(1))));
            if would_open && self.conns.len() >= self.max_conns {
                self.stats.conn_table_full_drops += 1;
                self.send_rst_for(&seg);
                return;
            }
            // ---- connection management reading stack-global pressure:
            // accept gating. Under Critical pressure or drain, would-be
            // new flows are refused statelessly so a flood cannot grow
            // memory while the host digs itself out.
            if would_open && (self.gate || self.pressure.refuses_new_flows()) {
                self.log.borrow_mut().read(site!(CONN, "gate"));
                self.log.borrow_mut().read(site!(CONN, "pressure"));
                self.stats.pressure_refusals += 1;
                self.send_rst_for(&seg);
                return;
            }
            // ---- connection management: passive open ----
            if seg.syn() && !seg.ack_flag() && self.listeners.contains(&seg.dst.port) {
                // Resource governance: the half-open queue is bounded. At
                // the cap, evict a stale embryo if one exists, otherwise
                // fall back to a stateless SYN cookie so a flood costs
                // bandwidth, not memory.
                if self.half_open_count() >= MAX_HALF_OPEN {
                    if let Some(victim) = self.stale_half_open(now) {
                        self.take_for_good(victim);
                        self.stats.half_open_evictions += 1;
                    } else {
                        let cookie = self.syn_cookie(&tuple, seg.seq);
                        let synack = Segment {
                            src: seg.dst,
                            dst: seg.src,
                            seq: cookie,
                            ack: seg.seq.wrapping_add(1),
                            flags: SYN | ACK,
                            // Stateless, so no PCB to clamp through — yet
                            // the pressure shift must be applied here too.
                            wnd: ((RCV_BUF_CAP as u32) >> self.pressure.wnd_shift())
                                .min(u16::MAX as u32)
                                as u16,
                            mss: Some(DEFAULT_MSS),
                            payload: Vec::new(),
                        };
                        self.stats.syn_cookies_sent += 1;
                        self.push(synack);
                        return;
                    }
                }
                self.log.borrow_mut().write(site!(CONN, "state"));
                self.log.borrow_mut().write(site!(CONN, "iss"));
                self.log.borrow_mut().write(site!(CONN, "irs"));
                self.log.borrow_mut().write(site!(CONN, "rcv_nxt"));
                self.log.borrow_mut().write(site!(CONN, "snd_wnd"));
                self.log.borrow_mut().write(site!(CONN, "mss"));
                let iss = self.isn(now, &tuple);
                let mut pcb = Pcb::with_cc(tuple, TcpState::SynRcvd, iss, self.cc_template.clone());
                pcb.snd_nxt = iss.wrapping_add(1);
                pcb.snd_max = pcb.snd_nxt;
                pcb.irs = seg.seq;
                pcb.rcv_nxt = seg.seq.wrapping_add(1);
                pcb.snd_wnd = seg.wnd as u32;
                pcb.snd_wl1 = seg.seq;
                if let Some(m) = seg.mss {
                    pcb.mss = pcb.mss.min(m as u32);
                }
                pcb.rto_deadline = Some(now + pcb.rto);
                pcb.last_rx = now;
                self.stats.conns_opened += 1;
                self.send_syn(&mut pcb, true);
                self.put_back(pcb, None, true);
            } else if seg.ack_flag()
                && !seg.syn()
                && !seg.rst()
                && self.listeners.contains(&seg.dst.port)
                && seg.ack.wrapping_sub(1) == self.syn_cookie(&tuple, seg.seq.wrapping_sub(1))
            {
                // The handshake-completing ACK of a cookie we issued
                // statelessly: reconstruct the connection from the
                // sequence numbers alone. (The cookie encodes no MSS, so
                // the connection runs at the default.)
                self.log.borrow_mut().write(site!(CONN, "state"));
                let cookie = seg.ack.wrapping_sub(1);
                let mut pcb = Pcb::with_cc(tuple, TcpState::Established, cookie, self.cc_template.clone());
                pcb.snd_una = seg.ack;
                pcb.snd_nxt = seg.ack;
                pcb.snd_max = seg.ack;
                pcb.snd_buf_seq = seg.ack;
                pcb.irs = seg.seq.wrapping_sub(1);
                pcb.rcv_nxt = seg.seq;
                pcb.snd_wnd = seg.wnd as u32;
                pcb.snd_wl1 = seg.seq;
                pcb.snd_wl2 = seg.ack;
                pcb.last_rx = now;
                self.stats.conns_opened += 1;
                self.stats.syn_cookies_validated += 1;
                self.put_back(pcb, None, true);
                // Re-enter input processing: the ACK may carry data.
                self.stats.segs_received -= 1; // avoid double count
                self.on_segment(now, seg);
            } else {
                self.send_rst_for(&seg);
            }
            return;
        };
        let before = Some(self.mark_of(&pcb));
        let keep = self.input(now, seg, &mut pcb);
        self.put_back(pcb, before, keep);
    }

    /// `tcp_input` proper, on the segment's PCB, which the caller took out
    /// of the table. Returns whether the PCB lives on.
    fn input(&mut self, now: Time, seg: Segment, pcb: &mut Pcb) -> bool {
        let tuple = pcb.tuple;
        // Any segment from the peer proves liveness.
        pcb.last_rx = now;
        pcb.ka_probes = 0;

        // ---- connection management: SYN_SENT ----
        if pcb.state == TcpState::SynSent {
            self.log.borrow_mut().read(site!(CONN, "state"));
            self.log.borrow_mut().read(site!(CONN, "iss"));
            if seg.ack_flag()
                && (seq::leq(seg.ack, pcb.iss) || seq::gt(seg.ack, pcb.snd_nxt))
            {
                self.send_rst_for(&seg);
                return true;
            }
            if seg.rst() {
                if seg.ack_flag() {
                    self.stats.conns_reset += 1; // connection refused
                    self.errors.entry(tuple).or_insert(TransportError::Reset);
                    return false; // pcb dropped
                }
                return true;
            }
            if seg.syn() {
                self.log.borrow_mut().write(site!(CONN, "irs"));
                self.log.borrow_mut().write(site!(CONN, "rcv_nxt"));
                self.log.borrow_mut().write(site!(CONN, "mss"));
                pcb.irs = seg.seq;
                pcb.rcv_nxt = seg.seq.wrapping_add(1);
                if let Some(m) = seg.mss {
                    pcb.mss = pcb.mss.min(m as u32);
                }
                if seg.ack_flag() && seq::gt(seg.ack, pcb.snd_una) {
                    self.log.borrow_mut().write(site!(CONN, "snd_una"));
                    pcb.snd_una = seg.ack;
                }
                if seq::gt(pcb.snd_una, pcb.iss) {
                    // Our SYN is acknowledged: established.
                    self.log.borrow_mut().write(site!(CONN, "state"));
                    self.log.borrow_mut().write(site!(CONN, "snd_wnd"));
                    pcb.state = TcpState::Established;
                    pcb.snd_wnd = seg.wnd as u32;
                    pcb.snd_wl1 = seg.seq;
                    pcb.snd_wl2 = seg.ack;
                    pcb.rto_deadline = None;
                    pcb.retries = 0;
                    pcb.ack_pending = true;
                } else {
                    // Simultaneous open.
                    self.log.borrow_mut().write(site!(CONN, "state"));
                    pcb.state = TcpState::SynRcvd;
                    self.send_syn(pcb, true);
                }
            }
            self.output_pcb(now, pcb);
            return true;
        }

        // ---- connection management: duplicate SYN in SYN_RCVD ----
        // Covers both a retransmitted SYN and the simultaneous-open
        // SYN|ACK; in either case we (re-)ack, and if our own SYN is
        // acknowledged the connection completes.
        if pcb.state == TcpState::SynRcvd && seg.syn() && seg.seq == pcb.irs {
            self.log.borrow_mut().read(site!(CONN, "irs"));
            if seg.ack_flag()
                && seq::between(
                    seg.ack,
                    pcb.snd_una.wrapping_add(1),
                    pcb.snd_nxt.wrapping_add(1),
                )
            {
                self.log.borrow_mut().write(site!(CONN, "state"));
                self.log.borrow_mut().write(site!(CONN, "snd_una"));
                pcb.snd_una = seg.ack;
                pcb.state = TcpState::Established;
                pcb.snd_wnd = seg.wnd as u32;
                pcb.snd_wl1 = seg.seq;
                pcb.snd_wl2 = seg.ack;
                pcb.rto_deadline = None;
                pcb.retries = 0;
            }
            let ack = Segment {
                src: pcb.tuple.local,
                dst: pcb.tuple.remote,
                seq: pcb.snd_nxt,
                ack: pcb.rcv_nxt,
                flags: ACK,
                wnd: self.adv_wnd(pcb),
                mss: None,
                payload: Vec::new(),
            };
            self.push(ack);
            self.output_pcb(now, pcb);
            return true;
        }

        // ---- connection management: stray SYN (RFC 5961 §4) ----
        if seg.syn() {
            // A SYN on a synchronized connection — any sequence, in or
            // out of window — gets a challenge ACK, never a reset: a
            // spoofed SYN must not kill a live connection, and a peer
            // that genuinely restarted will answer the challenge with an
            // exact-sequence RST.
            self.challenge_ack(pcb);
            return true;
        }

        // ---- reliable delivery: sequence acceptability (RFC 793) ----
        self.log.borrow_mut().read(site!(RD, "rcv_nxt"));
        self.log.borrow_mut().read(site!(FC, "rcv_wnd"));
        let rwnd = pcb.rcv_wnd();
        let slen = seg.seq_len();
        let acceptable = if slen == 0 && rwnd == 0 {
            seg.seq == pcb.rcv_nxt
        } else if slen == 0 {
            seq::between(seg.seq, pcb.rcv_nxt, pcb.rcv_nxt.wrapping_add(rwnd))
        } else if rwnd == 0 {
            false
        } else {
            seq::between(seg.seq, pcb.rcv_nxt, pcb.rcv_nxt.wrapping_add(rwnd))
                || seq::between(
                    seg.seq.wrapping_add(slen - 1),
                    pcb.rcv_nxt,
                    pcb.rcv_nxt.wrapping_add(rwnd),
                )
        };
        if !acceptable {
            if !seg.rst() {
                pcb.ack_pending = true;
                self.output_pcb(now, pcb);
            }
            return true;
        }

        // ---- connection management: RST / stray SYN (RFC 5961) ----
        if seg.rst() {
            self.log.borrow_mut().read(site!(CONN, "rcv_nxt"));
            if seg.seq == pcb.rcv_nxt {
                // Exact-sequence RST: genuine abort. RFC 793 p.70: in
                // CLOSING, LAST-ACK and TIME-WAIT the RST just deletes
                // the TCB — both directions already shut down, so there
                // is no "connection reset" signal to the user.
                self.stats.conns_reset += 1;
                if !matches!(
                    pcb.state,
                    TcpState::Closing | TcpState::LastAck | TcpState::TimeWait
                ) {
                    self.errors.entry(tuple).or_insert(TransportError::Reset);
                }
                return false; // pcb dropped
            }
            // In-window but not exact: a blind attacker's best guess.
            // Challenge; a real peer that meant it answers with the exact
            // sequence.
            self.challenge_ack(pcb);
            return true;
        }
        if !seg.ack_flag() {
            return true;
        }

        // ---- connection management: SYN_RCVD -> ESTABLISHED ----
        if pcb.state == TcpState::SynRcvd {
            if seq::between(seg.ack, pcb.snd_una.wrapping_add(1), pcb.snd_nxt.wrapping_add(1)) {
                self.log.borrow_mut().write(site!(CONN, "state"));
                pcb.state = TcpState::Established;
                pcb.snd_wnd = seg.wnd as u32;
                pcb.snd_wl1 = seg.seq;
                pcb.snd_wl2 = seg.ack;
                pcb.rto_deadline = None;
                pcb.retries = 0;
            } else {
                self.send_rst_for(&seg);
                return true;
            }
        }

        // ---- reliable delivery + congestion control: ACK processing ----
        if seq::gt(seg.ack, pcb.snd_max) {
            // Acks something never sent: challenge (RFC 5961 §5).
            pcb.ack_pending = true;
            self.output_pcb(now, pcb);
            return true;
        }
        if seq::lt(seg.ack, pcb.snd_una.wrapping_sub(MAX_ACK_AGE)) {
            // Trails snd_una by more than any plausible window: blind
            // injection noise — drop without reply (RFC 5961 §5).
            self.stats.old_ack_drops += 1;
            return true;
        }
        if seq::gt(seg.ack, pcb.snd_una) {
            self.log.borrow_mut().write(site!(RD, "snd_una"));
            self.log.borrow_mut().read(site!(RD, "rtt_timing"));
            self.log.borrow_mut().write(site!(RD, "snd_buf"));
            self.log.borrow_mut().read(site!(CONN, "fin_seq"));
            self.log.borrow_mut().write(site!(CC, "cwnd"));
            self.log.borrow_mut().read(site!(CC, "ssthresh"));
            self.log.borrow_mut().read(site!(CC, "snd_una"));
            self.log.borrow_mut().read(site!(CC, "mss"));
            let bytes_acked = seg.ack.wrapping_sub(pcb.snd_una);

            // RTT sample (Karn's rule: only when nothing was retransmitted,
            // i.e. the timing marker survived).
            let mut rtt_sample = None;
            if let Some((tseq, t0)) = pcb.rtt_timing {
                if seq::geq(seg.ack, tseq) {
                    let sample = now.since(t0);
                    rtt_sample = Some(sample);
                    self.log.borrow_mut().write(site!(RD, "srtt"));
                    match pcb.srtt {
                        None => {
                            pcb.srtt = Some(sample);
                            pcb.rttvar = Dur(sample.0 / 2);
                        }
                        Some(srtt) => {
                            let err = sample.0.abs_diff(srtt.0);
                            pcb.rttvar = Dur((3 * pcb.rttvar.0 + err) / 4);
                            pcb.srtt = Some(Dur((7 * srtt.0 + sample.0) / 8));
                        }
                    }
                    let srtt = pcb.srtt.unwrap();
                    pcb.rto = Dur(srtt.0 + (4 * pcb.rttvar.0).max(srtt.0 / 8))
                        .clamp(MIN_RTO, MAX_RTO);
                    pcb.rtt_timing = None;
                }
            }

            // Trim acknowledged bytes from the buffer (FIN occupies one
            // extra sequence number beyond the data).
            let data_ack_limit = match pcb.fin_seq {
                Some(fs) if seq::gt(seg.ack, fs) => fs,
                _ => seg.ack,
            };
            let drop_n = data_ack_limit.wrapping_sub(pcb.snd_buf_seq) as usize;
            let drop_n = drop_n.min(pcb.snd_buf.len());
            pcb.snd_buf.drain(..drop_n);
            pcb.snd_buf_seq = pcb.snd_buf_seq.wrapping_add(drop_n as u32);
            pcb.snd_una = seg.ack;
            if seq::lt(pcb.snd_nxt, pcb.snd_una) {
                pcb.snd_nxt = pcb.snd_una;
            }
            // F-RTO resolution: the first ack advance after a timeout
            // redirects transmission back to new data (snd_nxt jumps to
            // snd_max instead of replaying the rewound flight); a second
            // advance proves the original flight is still arriving, so
            // the timeout was spurious and the replay stays cancelled. A
            // duplicate ack instead reverts to the conventional rewind
            // (see the dup-ack arm below).
            if let Some(mark) = pcb.frto_mark {
                pcb.snd_nxt = pcb.snd_max;
                if pcb.frto_probed || seq::geq(seg.ack, mark) {
                    pcb.frto_mark = None;
                    pcb.frto_probed = false;
                    self.stats.spurious_rtos += 1;
                } else {
                    pcb.frto_probed = true;
                }
            }
            pcb.retries = 0;
            pcb.una_since = if pcb.flight_size() == 0 && pcb.snd_buf.is_empty() {
                None
            } else {
                Some(now)
            };

            // Congestion control: classify the ack for the pluggable
            // controller. The classification — partial vs. full against
            // the recovery point — is sequence arithmetic and stays in
            // the PCB path; the window arithmetic lives behind the shared
            // RateController trait (same controller set as the sublayered
            // stack).
            if pcb.in_fast_recovery {
                if seq::geq(seg.ack, pcb.recover) {
                    // Full ack: leave fast recovery (controller deflates).
                    pcb.feed_cc(
                        now,
                        CongSignal::FullAck { bytes: bytes_acked, rtt: rtt_sample },
                    );
                    pcb.in_fast_recovery = false;
                    pcb.dupacks = 0;
                } else {
                    // Partial ack: retransmit the next hole, stay in
                    // recovery.
                    self.stats.fast_retransmits += 1;
                    let una = pcb.snd_una;
                    self.retransmit_one(pcb, una);
                    pcb.feed_cc(now, CongSignal::PartialAck { bytes: bytes_acked });
                }
            } else {
                pcb.dupacks = 0;
                pcb.feed_cc(now, CongSignal::Acked { bytes: bytes_acked, rtt: rtt_sample });
            }

            // Restart or clear the retransmission timer.
            self.log.borrow_mut().write(site!(TIMERS, "rto_deadline"));
            pcb.rto_deadline =
                if pcb.snd_una == pcb.snd_max { None } else { Some(now + pcb.rto) };

            // Was our FIN acknowledged?
            if let Some(fs) = pcb.fin_seq {
                if seq::gt(seg.ack, fs) {
                    self.log.borrow_mut().write(site!(CONN, "state"));
                    match pcb.state {
                        TcpState::FinWait1 => pcb.state = TcpState::FinWait2,
                        TcpState::Closing => {
                            pcb.state = TcpState::TimeWait;
                            pcb.time_wait_deadline = Some(now + TIME_WAIT_DUR);
                        }
                        TcpState::LastAck => {
                            return false;
                        }
                        _ => {}
                    }
                }
            }
        } else if seg.ack == pcb.snd_una
            && pcb.flight_size() > 0
            && seg.payload.is_empty()
            && seg.wnd as u32 == pcb.snd_wnd
            && !seg.fin()
        {
            // ---- congestion control: duplicate ack ----
            self.log.borrow_mut().write(site!(CC, "dupacks"));
            self.log.borrow_mut().read(site!(CC, "snd_una"));
            self.log.borrow_mut().read(site!(CC, "snd_nxt"));
            self.log.borrow_mut().read(site!(CC, "snd_wnd"));
            if pcb.frto_mark.take().is_some() {
                // F-RTO: a duplicate ack right after the timeout means
                // the loss was real — fall back to the conventional
                // rewound slow-start retransmission.
                pcb.frto_probed = false;
                pcb.snd_nxt = pcb.snd_una;
            }
            pcb.dupacks += 1;
            self.stats.dupacks += 1;
            if pcb.dupacks == 3 && !pcb.in_fast_recovery {
                self.log.borrow_mut().write(site!(CC, "ssthresh"));
                self.log.borrow_mut().write(site!(CC, "cwnd"));
                self.log.borrow_mut().read(site!(CC, "snd_buf"));
                self.log.borrow_mut().write(site!(CC, "recover"));
                self.stats.fast_retransmits += 1;
                // The loss cut is taken by the controller (from its own
                // cwnd, not flight size — the controller never sees
                // sequence state); the recovery point stays here.
                let una = pcb.snd_una;
                self.retransmit_one(pcb, una);
                pcb.feed_cc(now, CongSignal::DupAckLoss);
                pcb.in_fast_recovery = true;
                pcb.recover = pcb.snd_max;
            } else if pcb.in_fast_recovery {
                // Window inflation.
                pcb.feed_cc(now, CongSignal::DupAck);
            }
        }

        // ---- flow control: window update ----
        if seq::lt(pcb.snd_wl1, seg.seq)
            || (pcb.snd_wl1 == seg.seq && seq::leq(pcb.snd_wl2, seg.ack))
        {
            self.log.borrow_mut().write(site!(FC, "snd_wnd"));
            self.log.borrow_mut().write(site!(FC, "snd_wl1"));
            self.log.borrow_mut().write(site!(FC, "snd_wl2"));
            self.log.borrow_mut().write(site!(FC, "persist_deadline"));
            pcb.snd_wnd = seg.wnd as u32;
            pcb.snd_wl1 = seg.seq;
            pcb.snd_wl2 = seg.ack;
            if pcb.snd_wnd > 0 {
                pcb.persist_deadline = None;
            }
        }

        // ---- reliable delivery: payload reassembly ----
        if !seg.payload.is_empty() {
            self.log.borrow_mut().read(site!(RD, "rcv_nxt"));
            self.log.borrow_mut().write(site!(RD, "rcv_buf"));
            self.log.borrow_mut().write(site!(RD, "ooo"));
            let mut data = seg.payload.clone();
            let mut start = seg.seq;
            // Trim anything before rcv_nxt.
            if seq::lt(start, pcb.rcv_nxt) {
                let skip = pcb.rcv_nxt.wrapping_sub(start) as usize;
                if skip >= data.len() {
                    data.clear();
                } else {
                    data.drain(..skip);
                }
                start = pcb.rcv_nxt;
            }
            // Trim anything beyond our window.
            let wnd_end = pcb.rcv_nxt.wrapping_add(pcb.rcv_wnd());
            let data_end = start.wrapping_add(data.len() as u32);
            if seq::gt(data_end, wnd_end) {
                let cut = data_end.wrapping_sub(wnd_end) as usize;
                let keep = data.len().saturating_sub(cut);
                data.truncate(keep);
            }
            if !data.is_empty() {
                if start == pcb.rcv_nxt {
                    pcb.rcv_nxt = pcb.rcv_nxt.wrapping_add(data.len() as u32);
                    pcb.rcv_buf.extend(data);
                    // Drain contiguous out-of-order segments.
                    while let Some((&s, _)) = pcb.ooo.iter().next() {
                        if seq::gt(s, pcb.rcv_nxt) {
                            break;
                        }
                        let (s, d) = pcb.ooo.pop_first().unwrap();
                        let skip = pcb.rcv_nxt.wrapping_sub(s) as usize;
                        if skip < d.len() {
                            pcb.rcv_nxt = pcb.rcv_nxt.wrapping_add((d.len() - skip) as u32);
                            pcb.rcv_buf.extend(d.into_iter().skip(skip));
                        }
                    }
                } else {
                    // Out-of-order hold is capped in entries AND bytes: a
                    // peer (or injector) spraying the window can cost at
                    // most one receive buffer of memory; beyond that the
                    // data is dropped and must be retransmitted in order.
                    let held: usize = pcb.ooo.values().map(|d| d.len()).sum();
                    if pcb.ooo.len() < 256 && held + data.len() <= RCV_BUF_CAP {
                        pcb.ooo.insert(start, data);
                    } else {
                        self.stats.ooo_overflow_drops += 1;
                    }
                }
            }
            pcb.ack_pending = true;
        }

        // ---- connection management: FIN processing ----
        if seg.fin() {
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            if fin_seq == pcb.rcv_nxt {
                self.log.borrow_mut().write(site!(CONN, "state"));
                self.log.borrow_mut().write(site!(CONN, "rcv_nxt"));
                self.log.borrow_mut().write(site!(CONN, "rto_deadline"));
                pcb.rcv_nxt = pcb.rcv_nxt.wrapping_add(1);
                pcb.ack_pending = true;
                match pcb.state {
                    TcpState::Established => pcb.state = TcpState::CloseWait,
                    TcpState::FinWait1 => {
                        // Our FIN not yet acked (else we'd be in FIN_WAIT_2).
                        pcb.state = TcpState::Closing;
                    }
                    TcpState::FinWait2 => {
                        pcb.state = TcpState::TimeWait;
                        pcb.time_wait_deadline = Some(now + TIME_WAIT_DUR);
                        pcb.rto_deadline = None;
                    }
                    _ => {}
                }
            } else {
                // FIN beyond a gap: ask for the missing bytes.
                pcb.ack_pending = true;
            }
        }

        self.output_pcb(now, pcb);
        true
    }
}

/// The host-facing surface (application calls, per-connection output and
/// timers, overload control) — the same trait `sublayer-core` implements,
/// so a host or a campaign written against it runs over either stack.
impl HostStack for TcpStack {
    type ConnId = FourTuple;

    fn stack_name() -> &'static str {
        "monolithic"
    }

    fn local_addr(&self) -> u32 {
        self.addr
    }

    /// Begin listening for connections on a local port.
    fn listen(&mut self, port: u16) {
        self.listeners.insert(port);
    }

    /// Bound the connection table (default 16384).
    fn set_max_conns(&mut self, n: usize) {
        self.max_conns = n;
    }

    /// Active open surfacing capacity as a typed error instead of a panic:
    /// a full connection table or an already-bound tuple both mean the
    /// table cannot admit this connection.
    fn try_connect(
        &mut self,
        now: Time,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<FourTuple, TransportError> {
        if self.conns.len() >= self.max_conns {
            return Err(TransportError::ConnTableFull);
        }
        let tuple = FourTuple {
            local: Endpoint::new(self.addr, local_port),
            remote,
        };
        if self.conns.contains_key(&tuple) {
            return Err(TransportError::ConnTableFull);
        }
        self.log.borrow_mut().write(site!(CONN, "state"));
        self.log.borrow_mut().write(site!(CONN, "iss"));
        let iss = self.isn(now, &tuple);
        let mut pcb = Pcb::with_cc(tuple, TcpState::SynSent, iss, self.cc_template.clone());
        pcb.snd_nxt = iss.wrapping_add(1);
        pcb.snd_max = pcb.snd_nxt;
        pcb.rto_deadline = Some(now + pcb.rto);
        pcb.last_rx = now;
        self.stats.conns_opened += 1;
        self.send_syn(&mut pcb, false);
        self.put_back(pcb, None, true);
        Ok(tuple)
    }

    /// Active open with an ephemeral local port, surfacing port
    /// exhaustion and table capacity as typed errors.
    fn try_connect_ephemeral(
        &mut self,
        now: Time,
        remote: Endpoint,
    ) -> Result<FourTuple, TransportError> {
        if self.conns.len() >= self.max_conns {
            return Err(TransportError::ConnTableFull);
        }
        let Some(port) = self.ephemeral_port(remote) else {
            return Err(TransportError::PortsExhausted);
        };
        self.try_connect(now, port, remote)
    }

    /// Queue application data. Returns bytes accepted — short counts mean
    /// the bounded send buffer is full (backpressure; retry after acks
    /// drain it).
    fn send(&mut self, tuple: FourTuple, data: &[u8]) -> usize {
        let Some(pcb) = self.conns.get_mut(&tuple) else { return 0 };
        if !pcb.state.can_send() || pcb.fin_queued {
            return 0;
        }
        self.log.borrow_mut().write(site!(RD, "snd_buf"));
        let n = data.len().min(SND_BUF_CAP.saturating_sub(pcb.snd_buf.len()));
        pcb.snd_buf.extend(data[..n].iter().copied());
        // No timer field moves until the output path runs.
        self.agenda.mark_ready(tuple);
        n
    }

    /// Drain received in-order bytes.
    fn recv(&mut self, tuple: FourTuple) -> Vec<u8> {
        let Some(pcb) = self.conns.get_mut(&tuple) else { return Vec::new() };
        self.log.borrow_mut().read(site!(RD, "rcv_buf"));
        self.log.borrow_mut().write(site!(FC, "rcv_wnd"));
        // One exactly-sized `Vec`, one `memcpy` per half of the ring.
        let (front, back) = pcb.rcv_buf.as_slices();
        let out = [front, back].concat();
        pcb.rcv_buf.clear();
        // The window just opened; let the peer know — unless its FIN
        // already arrived: no more data can come, and the gratuitous
        // update would poke a peer whose TCB may already be deleted.
        if !out.is_empty()
            && !matches!(
                pcb.state,
                TcpState::CloseWait
                    | TcpState::Closing
                    | TcpState::LastAck
                    | TcpState::TimeWait
            )
        {
            pcb.ack_pending = true;
            self.agenda.mark_ready(tuple);
        }
        out
    }

    /// Graceful close: FIN after the send buffer drains.
    fn close(&mut self, tuple: FourTuple) {
        let Some(mut pcb) = self.conns.remove(&tuple) else { return };
        let before = Some(self.mark_of(&pcb));
        self.log.borrow_mut().write(site!(CONN, "state"));
        match pcb.state {
            TcpState::Established | TcpState::SynRcvd => {
                pcb.fin_queued = true;
                pcb.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                pcb.fin_queued = true;
                pcb.state = TcpState::LastAck;
            }
            _ => {}
        }
        self.agenda.mark_ready(tuple);
        // A connection that never left SYN_SENT is simply forgotten.
        let keep = pcb.state != TcpState::SynSent;
        self.put_back(pcb, before, keep);
    }

    /// Hard reset.
    fn abort(&mut self, _now: Time, tuple: FourTuple) {
        if let Some(pcb) = self.take_for_good(tuple) {
            self.errors.entry(tuple).or_insert(TransportError::Reset);
            self.send_rst(&pcb);
        }
    }

    fn is_established(&self, tuple: FourTuple) -> bool {
        // Parity tie-break (conformance audit): the sublayered CM models
        // remote half-close as Established + `peer_closed` — there is no
        // CLOSE_WAIT sublayer state, because "peer finished sending" is a
        // delivery fact, not a connection-management one. CLOSE_WAIT is
        // the monolith's name for the same condition (synchronized, app
        // may still send), so it reads as established through the parity
        // surface; `peer_closed` carries the half-close either way.
        matches!(self.state(tuple), TcpState::Established | TcpState::CloseWait)
    }

    fn is_closed(&self, tuple: FourTuple) -> bool {
        self.state(tuple) == TcpState::Closed
    }

    /// Has the peer's FIN been processed? (EOF for the application.)
    fn peer_closed(&self, tuple: FourTuple) -> bool {
        matches!(
            self.state(tuple),
            TcpState::CloseWait | TcpState::Closing | TcpState::LastAck | TcpState::TimeWait
        )
    }

    /// The terminal error recorded for `tuple`, if the connection was
    /// aborted (locally or by the peer) rather than closed cleanly.
    fn conn_error(&self, tuple: FourTuple) -> Option<TransportError> {
        self.errors.get(&tuple).copied()
    }

    /// In-order received bytes available to `recv` without draining them.
    fn readable_len(&self, tuple: FourTuple) -> usize {
        self.conns.get(&tuple).map_or(0, |p| p.rcv_buf.len())
    }

    /// How many bytes `send` would accept right now (0 once the stream is
    /// closing or the connection is gone).
    fn send_capacity(&self, tuple: FourTuple) -> usize {
        match self.conns.get(&tuple) {
            Some(p) if p.state.can_send() && !p.fin_queued => {
                SND_BUF_CAP.saturating_sub(p.snd_buf.len())
            }
            _ => 0,
        }
    }

    /// Connections currently established (for the passive side to
    /// discover accepted peers).
    fn established(&self) -> Vec<FourTuple> {
        let mut v: Vec<FourTuple> = self
            .conns
            .iter()
            .filter(|(_, p)| p.state == TcpState::Established)
            .map(|(&t, _)| t)
            .collect();
        v.sort();
        v
    }

    fn conn_count(&self) -> usize {
        self.conns.len()
    }

    fn classify_frame(frame: &[u8]) -> Option<FrameMeta> {
        slwire::rfc793::peek(frame).map(|(src, dst)| FrameMeta { src, dst })
    }

    fn conn_for_tuple(&self, tuple: &FourTuple) -> Option<FourTuple> {
        self.pcb(*tuple).map(|p| p.tuple)
    }

    /// Pop one already-encoded segment without scanning any connection —
    /// the host layer's transmit path ([`TcpStack::pump_conn`] is what
    /// fills the outbox).
    fn take_frame(&mut self) -> Option<Vec<u8>> {
        self.outbox.pop_front()
    }

    /// Run one connection's output path (tcp_output) — the
    /// per-connection half of `poll_transmit`, for hosts that know which
    /// connection changed.
    fn pump_conn(&mut self, now: Time, tuple: FourTuple) {
        self.output(now, tuple);
    }

    /// Next timer deadline for *one* connection, so a host can keep one
    /// wheel entry per connection instead of scanning them all.
    fn conn_deadline(&self, _now: Time, tuple: FourTuple) -> Option<Time> {
        Self::deadline_of(self.keepalive, self.conns.get(&tuple)?)
    }

    /// Timer processing — RTO, TIME_WAIT, persist (zero-window probe),
    /// keepalive: advance one connection's timers to `now` (the
    /// per-connection half of `on_tick`, for hosts that track deadlines
    /// per connection); spurious calls are harmless.
    fn tick_conn(&mut self, now: Time, tuple: FourTuple) {
        let Some(mut pcb) = self.conns.remove(&tuple) else { return };
        let before = Some(self.mark_of(&pcb));
        let keep = 'tick: {
            if pcb.time_wait_deadline.is_some_and(|d| now >= d) {
                break 'tick false; // 2MSL elapsed: drop the PCB.
            }

            if pcb.rto_deadline.is_some_and(|d| now >= d) {
                self.log.borrow_mut().read(site!(TIMERS, "rto_deadline"));
                self.log.borrow_mut().write(site!(TIMERS, "cwnd"));
                self.log.borrow_mut().write(site!(TIMERS, "ssthresh"));
                self.log.borrow_mut().write(site!(TIMERS, "snd_nxt"));
                self.log.borrow_mut().write(site!(TIMERS, "rtt_timing"));
                self.log.borrow_mut().write(site!(TIMERS, "fin_seq"));
                pcb.retries += 1;
                self.stats.rto_retransmits += 1;
                let give_up = match pcb.state {
                    TcpState::SynSent | TcpState::SynRcvd => pcb.retries > MAX_SYN_RETRIES,
                    _ => pcb.retries > MAX_RETRIES,
                };
                if give_up {
                    // Abandon the connection, but *surface* the failure:
                    // record why it died and tell the peer (best effort —
                    // on a dead path the RST is lost, which is fine).
                    let why = match pcb.state {
                        TcpState::SynSent | TcpState::SynRcvd => {
                            TransportError::HandshakeFailed
                        }
                        _ => TransportError::RetriesExhausted,
                    };
                    self.errors.entry(tuple).or_insert(why);
                    self.stats.conns_reset += 1;
                    self.send_rst(&pcb);
                    break 'tick false; // PCB dropped
                }
                match pcb.state {
                    TcpState::SynSent => self.send_syn(&mut pcb, false),
                    TcpState::SynRcvd => self.send_syn(&mut pcb, true),
                    _ => {
                        // Classic RTO response: the controller collapses
                        // to slow start; go back to snd_una.
                        pcb.feed_cc(now, CongSignal::TimeoutLoss);
                        pcb.in_fast_recovery = false;
                        pcb.dupacks = 0;
                        pcb.rtt_timing = None; // Karn
                        if pcb.fin_seq.is_some_and(|fs| seq::geq(fs, pcb.snd_una)) {
                            pcb.fin_seq = None; // resend FIN via output
                        }
                        // F-RTO (RFC 5682, simplified): arm spurious-
                        // timeout detection on the episode's first timeout
                        // when more than one segment is outstanding;
                        // backed-off repeats run the conventional
                        // go-back-N below.
                        pcb.frto_probed = false;
                        pcb.frto_mark = if pcb.retries == 1
                            && pcb.flight_size() > pcb.mss
                        {
                            Some(pcb.snd_max)
                        } else {
                            None
                        };
                        pcb.snd_nxt = pcb.snd_una;
                        self.output_pcb(now, &mut pcb);
                    }
                }
                pcb.rto = Dur((pcb.rto.0 * 2).min(MAX_RTO.0));
                pcb.rto_deadline = Some(now + pcb.rto);
            }

            if pcb.persist_deadline.is_some_and(|d| now >= d) {
                // Zero-window probe: one byte past the window.
                self.log.borrow_mut().read(site!(TIMERS, "snd_wnd"));
                self.log.borrow_mut().read(site!(TIMERS, "snd_buf"));
                self.log.borrow_mut().write(site!(TIMERS, "snd_nxt"));
                let offset = pcb.snd_nxt.wrapping_sub(pcb.snd_buf_seq) as usize;
                if offset < pcb.snd_buf.len() && pcb.snd_wnd == 0 {
                    let byte = pcb.snd_buf[offset];
                    let seg = Segment {
                        src: pcb.tuple.local,
                        dst: pcb.tuple.remote,
                        seq: pcb.snd_nxt,
                        ack: pcb.rcv_nxt,
                        flags: ACK,
                        wnd: self.adv_wnd(&pcb),
                        mss: None,
                        payload: vec![byte],
                    };
                    pcb.snd_nxt = pcb.snd_nxt.wrapping_add(1);
                    pcb.snd_max = seq::max(pcb.snd_max, pcb.snd_nxt);
                    if pcb.rto_deadline.is_none() {
                        pcb.rto_deadline = Some(now + pcb.rto);
                    }
                    self.push(seg);
                    pcb.persist_deadline = Some(now + pcb.rto.saturating_mul(2));
                } else {
                    pcb.persist_deadline = None;
                }
            }

            // ---- keepalive: probe a silent peer, abort a vanished one ----
            // Probes keep firing even with data in flight (they refresh the
            // peer's idle timer), but only an *idle* connection may abort on
            // probe exhaustion: while data is in flight the RTO retry budget
            // owns liveness, and counting a partition's silence against the
            // (much smaller) probe budget would abort PeerVanished long
            // before retransmission gives up — spuriously on a reroute to a
            // longer RTT, or a partition shorter than the RTO budget.
            if let Some(ka) = self.keepalive {
                if pcb.state == TcpState::Established {
                    let due = pcb.last_rx
                        + ka.idle
                        + ka.interval.saturating_mul(pcb.ka_probes as u64);
                    if now >= due {
                        if pcb.ka_probes >= ka.max_probes && pcb.flight_size() == 0 {
                            self.log.borrow_mut().write(site!(TIMERS, "state"));
                            self.errors
                                .entry(tuple)
                                .or_insert(TransportError::PeerVanished);
                            self.stats.conns_reset += 1;
                            self.send_rst(&pcb);
                            break 'tick false; // PCB dropped
                        }
                        // Probe one byte *behind* snd_nxt: unacceptable to
                        // the peer, which therefore answers with a bare
                        // ack (the RFC 793 rule on_segment already obeys).
                        self.log.borrow_mut().read(site!(TIMERS, "snd_nxt"));
                        let seg = Segment {
                            src: pcb.tuple.local,
                            dst: pcb.tuple.remote,
                            seq: pcb.snd_nxt.wrapping_sub(1),
                            ack: pcb.rcv_nxt,
                            flags: ACK,
                            wnd: self.adv_wnd(&pcb),
                            mss: None,
                            payload: Vec::new(),
                        };
                        self.push(seg);
                        pcb.ka_probes += 1;
                        self.stats.keepalive_probes += 1;
                    }
                }
            }

            true
        };
        self.put_back(pcb, before, keep);
    }

    /// Update the host memory-pressure signal. Everything downstream —
    /// window stamping, ack pacing, accept gating — reads the shared
    /// field directly; no per-connection fan-out exists to forget.
    fn set_pressure(&mut self, p: Pressure) {
        self.log.borrow_mut().write(site!(FC, "pressure"));
        if p != self.pressure {
            // An ack that pacing held goes out at the next output pass.
            for &tuple in self.conns.keys() {
                self.agenda.mark_ready(tuple);
            }
        }
        self.pressure = p;
    }

    /// Explicitly gate new-flow admission (host drain/quiesce),
    /// independent of the pressure tier.
    fn gate_new_flows(&mut self, refuse: bool) {
        self.log.borrow_mut().write(site!(CONN, "gate"));
        self.gate = refuse;
    }

    /// One connection's share of [`TcpStack::buffered_bytes`].
    fn conn_buffered(&self, tuple: FourTuple) -> usize {
        self.conns.get(&tuple).map_or(0, Pcb::buffered_bytes)
    }

    /// Monotone progress counter for slow-drain detection: in-order bytes
    /// received plus bytes the peer has cumulatively acknowledged.
    fn conn_progress(&self, tuple: FourTuple) -> u64 {
        self.conns.get(&tuple).map_or(0, |p| {
            p.rcv_nxt.wrapping_sub(p.irs) as u64 + p.snd_una.wrapping_sub(p.iss) as u64
        })
    }

    /// Total bytes held across all connection buffers — the quantity the
    /// resource-governance invariants bound under attack.
    fn buffered_bytes(&self) -> usize {
        self.conns.values().map(Pcb::buffered_bytes).sum()
    }

    fn stack_pressure_refusals(&self) -> u64 {
        self.stats.pressure_refusals
    }

    /// Bytes currently pinned awaiting retransmission (the unacked prefix
    /// of `snd_buf`, bounded by [`SND_BUF_CAP`] no matter how long the
    /// path stays partitioned).
    fn conn_rtx_bytes(&self, tuple: FourTuple) -> usize {
        self.conns
            .get(&tuple)
            .map_or(0, |p| (p.flight_size() as usize).min(p.snd_buf.len()))
    }

    /// How long the oldest unacked data has waited without cumulative ack
    /// progress — the partition-age signal a host budget can act on.
    fn conn_oldest_unacked(&self, tuple: FourTuple, now: Time) -> Option<Dur> {
        self.conns.get(&tuple).and_then(|p| p.oldest_unacked_age(now))
    }
}

impl Stack for TcpStack {
    fn on_frame(&mut self, now: Time, frame: &[u8]) {
        match Segment::decode(frame) {
            Ok(seg) => self.on_segment(now, seg),
            Err(_) => self.stats.bad_segments += 1,
        }
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        self.wake();
        if self.outbox.is_empty() {
            // Only a ready connection, or one whose deadline has passed
            // (a paced ack is released here, with no `on_tick`), can have
            // a segment to give. Ascending, so every same-seed run runs
            // the output path in the same order.
            let tuples = self.agenda.due(now);
            for &t in &tuples {
                self.output(now, t);
            }
            self.agenda.recycle(tuples);
        }
        self.outbox.pop_front()
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        if !self.agenda.is_awake() {
            return self.scan_deadline(now);
        }
        debug_assert_eq!(self.agenda.next_deadline(), self.scan_deadline(now));
        self.agenda.next_deadline()
    }

    fn on_tick(&mut self, now: Time) {
        self.wake();
        let tuples = self.agenda.due(now);
        for &t in &tuples {
            self.tick_conn(now, t);
        }
        self.agenda.recycle(tuples);
    }
}

/// The three full-table scans that `poll_transmit`, `poll_deadline` and
/// `on_tick` used to be — the reference the agenda is tested against
/// (`agenda_tests`): same segments in the same order, same deadline.
#[cfg(test)]
impl TcpStack {
    pub(crate) fn sorted_tuples(&self) -> Vec<FourTuple> {
        let mut tuples: Vec<FourTuple> = self.conns.keys().copied().collect();
        tuples.sort();
        tuples
    }

    pub(crate) fn scan_poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        if self.outbox.is_empty() {
            for t in self.sorted_tuples() {
                self.output(now, t);
            }
        }
        self.outbox.pop_front()
    }

    pub(crate) fn scan_on_tick(&mut self, now: Time) {
        for t in self.sorted_tuples() {
            self.tick_conn(now, t);
        }
    }

    /// The indices hold exactly what the table says they should: the
    /// half-open count always, the rest once the agenda is awake.
    pub(crate) fn check_indices(&self, now: Time) {
        let half_open = self.conns.values().filter(|p| p.state == TcpState::SynRcvd).count();
        assert_eq!(self.agenda.half_open(), half_open);
        if !self.agenda.is_awake() {
            assert_eq!(self.agenda.sizes(), (0, 0), "a dormant agenda indexes nothing");
            return;
        }
        let (ready, deadlines) = self.agenda.sizes();
        assert!(ready <= self.conns.len(), "{ready} ready of {}", self.conns.len());
        let with_deadline =
            self.conns.keys().filter(|&&t| self.conn_deadline(now, t).is_some()).count();
        assert_eq!(deadlines, with_deadline, "stale or missing deadline entries");
        assert_eq!(self.agenda.next_deadline(), self.scan_deadline(now));
    }
}

impl TcpStack {
    /// The minimum over the whole table, which the deadline index must
    /// equal once the agenda is awake (debug builds check on every
    /// `poll_deadline`), and which `poll_deadline` returns before.
    pub(crate) fn scan_deadline(&self, now: Time) -> Option<Time> {
        self.conns.keys().filter_map(|&t| self.conn_deadline(now, t)).min()
    }

    /// The stack starts scheduling itself (see [`netsim::Agenda::wake`]).
    #[inline]
    fn wake(&mut self) {
        let ka = self.keepalive;
        let conns = &self.conns;
        self.agenda.wake(|| conns.iter().map(|(&t, p)| (t, Self::deadline_of(ka, p))));
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn two_stacks_driven_alike_iterate_their_tables_alike() {
        // No table here draws per-instance keys (DESIGN.md §6, "Tables").
        use super::TcpStack;
        use netsim::{HostStack, Time};
        use slwire::Endpoint;
        let mut pair = [(); 2].map(|()| TcpStack::new(7, slmetrics::shared()));
        for stack in &mut pair {
            for port in 5000..5048 {
                stack.listen(port / 2);
                let id = stack.try_connect(Time::ZERO, port, Endpoint::new(9, 80)).unwrap();
                if port % 3 == 0 {
                    stack.abort(Time::ZERO, id);
                }
            }
            assert_eq!((stack.conns.len(), stack.errors.len()), (32, 16));
        }
        let [a, b] = &pair;
        assert!(a.conns.keys().eq(b.conns.keys()));
        assert!(a.errors.keys().eq(b.errors.keys()));
        assert!(a.listeners.iter().eq(b.listeners.iter()));
    }
}
