//! The sublayered TCP stack: DM < CM < RD < OSR, composed.
//!
//! This module is deliberately thin: it *wires* the four sublayers
//! together along the narrow interfaces of test **T2** and contains no
//! protocol logic of its own. Every inter-sublayer crossing is counted in
//! [`CrossingStats`] — the quantity the hardware-offload experiment (E10)
//! studies, since a NIC/host partition pays for exactly these crossings.
//!
//! Every hand-off but one has one shape: the producing sublayer queues,
//! and [`SlTcpStack::pump`] pops one item at a time until `None`
//! (`poll_event`, `poll_signal`, `poll_segment`, `poll_packet`). Received
//! bytes are the exception: RD's one receive path,
//! [`ReliableDelivery::on_packet_view`], hands each novel part of a payload
//! to a closure, by offset — the path the contracts check. Going down,
//! payload bytes travel as [`crate::wire::Payload`] views of one slab from
//! [`SlTcpStack::send`] to the codec, and no crossing copies them. Going
//! up, [`crate::wire::Packet::decode_view`] leaves them in the frame, and RD
//! hands each novel part up by offset and in place: its bytes are copied
//! once, from the frame to their place in OSR's read buffer
//! ([`Osr::on_delivered_bytes`]) — in order or not, whole or clipped, save
//! a part from past the advertised window, which waits in a copy of its
//! own — and once more out of it by [`SlTcpStack::recv`].
//!
//! One pass per event: an inbound packet runs its connection once — CM and
//! OSR's header part, then CM's events (which may build RD), then RD's
//! part, then the rest of the machinery — and a stack keeps a schedule
//! only once asked to schedule itself: under a host that drives each
//! connection (`pump_conn`, `tick_conn`, `conn_deadline`) the
//! [`netsim::Agenda`] stays dormant, and a pump reads no deadline. The
//! drive over that schedule is `netsim::agenda`'s, not this stack's: the
//! stack marks each connection before and after a change and says how its
//! state reads as a deadline (`deadline_of`).
//!
//! Contrast with `tcp-mono`: there one function mutates one PCB; here each
//! sublayer's state is a private Rust struct, so test **T3** (separate
//! state) is enforced by the compiler, and the entanglement instrumentation
//! (experiment E6) shows zero cross-sublayer field sharing. Nor is there a
//! PCB beside the sublayers: a connection is its CM, RD and OSR, and the
//! glue reads every fact it acts on from the one that holds it — the
//! application's close from OSR (`app_closed`), whether CM has decided the
//! close (`close_is_requested`) and whether the connection is dead (`Closed`)
//! from CM, and the last inbound packet and keepalive probes from CM too
//! (`last_activity`, `keepalive_deadline`).

use crate::cm::{CmEvent, CmPass, CmScheme, CmState, ConnMgmt};
use crate::dm::{ConnId, Demux, DmVerdict};
use crate::isn::{self, IsnGenerator};
use crate::osr::Osr;
use crate::rd::{RdEvent, ReliableDelivery};
use crate::signals::SeqValidity;
use crate::slots::SlotTable;
use crate::wire::Packet;
use netsim::{
    syn_cookie, Agenda, Dur, ErrorLog, FrameMeta, HostStack, Keepalive, Mark, Pressure, Scheduled,
    Stack, Time, TransportError, HALF_OPEN_EVICT_AGE, MAX_CONNS, MAX_HALF_OPEN,
};
use slmetrics::SharedLog;
use slwire::hash::FxBuildHasher;
use slwire::{Endpoint, FourTuple};
use std::collections::VecDeque;

/// Stack configuration: which mechanism fills each replaceable slot.
#[derive(Clone, Debug)]
pub struct SlConfig {
    pub cm_scheme: CmScheme,
    /// Rate controller name (see [`slcc::make`]).
    pub cc: &'static str,
    /// ISN generator name (see [`crate::isn::make`]).
    pub isn: &'static str,
    /// Advertise SACK ranges from RD's out-of-order set (ablation knob for
    /// the design choice DESIGN.md calls out; SACK is RD-private either
    /// way).
    pub use_sack: bool,
    /// Idle keepalive probing; `None` (the default) disables it.
    pub keepalive: Option<Keepalive>,
}

impl Default for SlConfig {
    fn default() -> Self {
        SlConfig {
            cm_scheme: CmScheme::ThreeWay,
            cc: "newreno",
            isn: "clock",
            use_sack: true,
            keepalive: None,
        }
    }
}

/// Counts of values crossing each sublayer boundary (experiment E10).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrossingStats {
    /// Segments OSR handed down to RD (and their bytes).
    pub osr_to_rd_segments: u64,
    pub osr_to_rd_bytes: u64,
    /// Novel parts of received payloads RD handed up to OSR (and their
    /// bytes).
    pub rd_to_osr_segments: u64,
    pub rd_to_osr_bytes: u64,
    /// Summarized congestion signals RD -> OSR.
    pub signals_up: u64,
    /// Packets crossing RD/CM (all packets pass both).
    pub packets_tx: u64,
    pub packets_rx: u64,
    /// Wire bytes through DM.
    pub wire_bytes_tx: u64,
    pub wire_bytes_rx: u64,
}

/// One connection: its three upper sublayers and nothing else (DM keys it).
struct Connection {
    cm: ConnMgmt,
    /// Built when CM establishes the ISN pair (timer-based: at the open).
    rd: Option<ReliableDelivery>,
    osr: Osr,
}

impl Connection {
    /// Bytes parked in this connection's buffers: OSR's send queue,
    /// reassembly and unread data, and RD's retransmission flight.
    fn buffered_bytes(&self) -> usize {
        self.osr.buffered_bytes() + self.rd.as_ref().map_or(0, |r| r.in_flight_bytes())
    }
}

/// Aggregate stack statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlStats {
    pub packets_sent: u64,
    pub packets_received: u64,
    pub bad_packets: u64,
    pub no_listener_drops: u64,
    /// RFC 5961 challenge ACKs accumulated from *reaped* connections;
    /// [`SlTcpStack::challenge_acks`] adds the live ones.
    pub challenge_acks: u64,
    /// Stateless SYN|ACKs sent because the half-open queue was full.
    pub syn_cookies_sent: u64,
    /// Connections rebuilt from a returning valid cookie.
    pub syn_cookies_validated: u64,
    /// Stale half-open connections evicted to admit a fresh SYN.
    pub half_open_evictions: u64,
    /// Stateless RSTs sent for packets addressed to no connection.
    pub stateless_rsts_sent: u64,
    /// Inbound flows refused because the connection table was full.
    pub conn_table_full_drops: u64,
    /// Inbound flows refused because DM's accept gate was closed (host
    /// memory pressure or drain).
    pub pressure_refusals: u64,
}

/// A sublayered TCP endpoint (host).
pub struct SlTcpStack {
    dm: Demux,
    /// At the slot of the handle DM minted: a lookup is an index, not a
    /// hash.
    conns: SlotTable<Connection>,
    isn_gen: Box<dyn IsnGenerator>,
    config: SlConfig,
    /// The configured rate controller, validated once at construction and
    /// cloned into each new connection's OSR — so a bad controller name is
    /// a typed error before any packet moves, never a panic mid-connect.
    cc_template: Box<dyn slcc::RateController>,
    /// Terminal failures, surviving connection removal so the application
    /// can learn *why* a connection died (graceful degradation: an abort
    /// is always reported, never a silent hang).
    errors: ErrorLog<ConnId>,
    /// Connection-table capacity ([`HostStack::set_max_conns`]): beyond
    /// it, passive opens are refused with a stateless RST and active opens
    /// fail with [`TransportError::ConnTableFull`].
    max_conns: usize,
    outbox: VecDeque<Vec<u8>>,
    /// Host memory pressure, fanned out to each sublayer's slice of the
    /// backpressure contract (OSR window clamp, RD ack pacing, DM accept
    /// gate) — one explicit signal down the sublayer column, no shared
    /// state.
    pressure: Pressure,
    /// Host-requested accept gate (drain/quiesce), OR-ed with the
    /// pressure-derived gate before reaching DM.
    gate: bool,
    /// Which connections have anything to do, and how many are half-open:
    /// `poll_transmit`, `poll_deadline`, `on_tick` and the SYN path read
    /// this, never the whole table. Kept by the few functions that reach
    /// into `conns` mutably ([`SlTcpStack::pump`] above all), at no cost in
    /// per-connection fields; dormant — the half-open count alone — until
    /// the first `poll_transmit` or `on_tick`.
    agenda: Agenda<ConnId>,
    /// The latest `now` the stack was run at. `send`, `recv`, `close` and
    /// `set_pressure` are not told the time, yet may uncover a deadline
    /// that the index has to record.
    clock: Time,
    pub stats: SlStats,
    pub crossings: CrossingStats,
    log: SharedLog,
    /// Passes of [`SlTcpStack::pump`], so a test can count them.
    #[cfg(test)]
    pumps: u64,
}

impl SlTcpStack {
    /// Construct with a known-good static config; panics if the config
    /// names an unknown controller. Input-driven configs should use
    /// [`SlTcpStack::try_new`].
    pub fn new(addr: u32, config: SlConfig, log: SharedLog) -> SlTcpStack {
        Self::try_new(addr, config, log).expect("invalid stack config")
    }

    /// Construct, validating the configuration: an unknown congestion
    /// controller name surfaces here as a typed error, at stack
    /// construction, rather than as a panic on the first connect.
    pub fn try_new(addr: u32, config: SlConfig, log: SharedLog) -> Result<SlTcpStack, slcc::CcError> {
        let cc_template = slcc::make(config.cc)?;
        Ok(SlTcpStack {
            dm: Demux::new(addr, log.clone()),
            conns: SlotTable::new(),
            isn_gen: isn::make(config.isn),
            config,
            cc_template,
            errors: ErrorLog::with_hasher(FxBuildHasher::default()),
            max_conns: MAX_CONNS,
            outbox: VecDeque::new(),
            pressure: Pressure::Nominal,
            gate: false,
            agenda: Agenda::new(),
            clock: Time::ZERO,
            stats: SlStats::default(),
            crossings: CrossingStats::default(),
            log,
            #[cfg(test)]
            pumps: 0,
        })
    }

    /// Active open; returns the connection handle. Panics if the tuple is
    /// taken or the table is full — use [`SlTcpStack::try_connect`] when
    /// refusal must be a value, not a crash.
    pub fn connect(&mut self, now: Time, local_port: u16, remote: Endpoint) -> ConnId {
        self.try_connect(now, local_port, remote).expect("tuple free")
    }

    /// An application call on one connection that carries no clock: the
    /// connection becomes ready (its next pump may have something to send),
    /// and a deadline the call uncovered is indexed as of the stack's last
    /// `now`.
    fn touch<R>(&mut self, id: ConnId, f: impl FnOnce(&mut Connection) -> R) -> Option<R> {
        let (ka, now) = (self.config.keepalive, self.clock);
        let conn = self.conns.get_mut(id)?;
        let before = Self::mark_of(&self.agenda, ka, conn, now);
        let out = f(conn);
        let after = Self::mark_of(&self.agenda, ka, conn, now);
        self.agenda.mark_ready(id);
        self.agenda.reindex(id, Some(before), Some(after));
        Some(out)
    }

    pub fn state(&self, id: ConnId) -> CmState {
        self.conns.get(id).map_or(CmState::Closed, |c| c.cm.state())
    }

    /// Abort a connection locally, recording `reason` as its terminal error
    /// ([`HostStack::abort`] is this with [`TransportError::Reset`]).
    pub fn abort_with(&mut self, now: Time, id: ConnId, reason: TransportError) {
        self.pump(now, id, None, &mut |conn| {
            conn.cm.abort(reason);
            false
        });
    }

    pub fn tuple(&self, id: ConnId) -> Option<FourTuple> {
        self.dm.tuple(id)
    }

    /// The deadline index keys on this value, so it must move only when
    /// the connection's state does, never with `now` alone (the shipped
    /// rate controllers are window controllers and ignore it).
    fn deadline_of(ka: Option<Keepalive>, c: &Connection, now: Time) -> Option<Time> {
        Time::earliest([
            c.cm.poll_deadline(),
            c.rd.as_ref().and_then(|r| r.poll_deadline()),
            c.osr.poll_deadline(now),
            c.rd.as_ref().and(ka).and_then(|ka| c.cm.keepalive_deadline(ka)),
        ])
    }

    fn mark_of(agenda: &Agenda<ConnId>, ka: Option<Keepalive>, c: &Connection, now: Time) -> Mark {
        agenda.mark(c.cm.state() == CmState::SynRcvd, || Self::deadline_of(ka, c, now))
    }

    /// A new connection enters the table with a fresh OSR, the one place
    /// OSR is built, and runs once: its opening events start RD and its
    /// first packets go out. A passive open takes the OSR and RD parts of
    /// the packet that opened it in that same pass (timer-based CM carries
    /// data on its first packet).
    fn admit(
        &mut self,
        now: Time,
        id: ConnId,
        cm: ConnMgmt,
        rd: Option<ReliableDelivery>,
        opener: Option<(&Packet, &[u8])>,
    ) {
        let mut osr = Osr::new(self.cc_template.clone(), self.log.clone());
        osr.set_pressure(self.pressure);
        let conn = Connection { cm, rd, osr };
        let mark = Self::mark_of(&self.agenda, self.config.keepalive, &conn, now);
        self.agenda.reindex(id, None, Some(mark));
        self.conns.insert(id, conn);
        self.pump(now, id, opener, &mut |conn| {
            opener.is_some_and(|(pkt, _)| {
                conn.osr.on_header(now, pkt);
                true
            })
        });
    }

    /// RD for an ISN pair, the one place RD is built (a function of the
    /// fields it reads, so `pump` can call it while it holds a connection).
    fn new_rd(
        config: &SlConfig,
        pressure: Pressure,
        log: &SharedLog,
        local_isn: u32,
        peer_isn: u32,
    ) -> ReliableDelivery {
        let mut rd = ReliableDelivery::new(local_isn, peer_isn, log.clone());
        rd.set_use_sack(config.use_sack);
        rd.set_ack_pacing(pressure.paces_acks());
        rd
    }

    /// A connection leaves the table without a last pump (eviction).
    fn evict(&mut self, now: Time, id: ConnId) {
        self.dm.unbind(id);
        if let Some(conn) = self.conns.get(id) {
            let mark = Self::mark_of(&self.agenda, self.config.keepalive, conn, now);
            self.conns.remove(id);
            self.agenda.reindex(id, Some(mark), None);
        }
    }

    /// The RD sublayer's counters (for tests/experiments).
    pub fn rd_stats(&self, id: ConnId) -> Option<crate::rd::RdStats> {
        self.conns.get(id).and_then(|c| c.rd.as_ref()).map(|r| r.stats.clone())
    }

    pub fn osr_stats(&self, id: ConnId) -> Option<crate::osr::OsrStats> {
        self.conns.get(id).map(|c| c.osr.stats.clone())
    }

    /// Per-connection congestion-control observability: window samples
    /// and loss/recovery event counts ([`slmetrics::CcCounters`], the
    /// same shape `tcp-mono` fills — E19 reads both like for like).
    pub fn conn_cc(&self, id: ConnId) -> Option<slmetrics::CcCounters> {
        self.conns.get(id).map(|c| c.osr.cc)
    }

    /// Simulate an ECN mark on this connection's next outgoing header.
    pub fn mark_ecn(&mut self, id: ConnId) {
        self.touch(id, |c| c.osr.mark_ecn());
    }

    /// Diagnostic: the exact wire sequence this connection's RD expects
    /// next — what an attacker must know to land an exact-sequence RST
    /// (the attack campaign's oracle mode reads this; real attackers
    /// guess).
    pub fn expected_wire_seq(&self, id: ConnId) -> Option<u32> {
        self.conns.get(id)?.rd.as_ref().map(|r| r.wire_rcv_ack())
    }

    /// Total RFC 5961 challenge ACKs issued (live connections + reaped).
    pub fn challenge_acks(&self) -> u64 {
        self.stats.challenge_acks
            + self.conns.values().map(|c| c.cm.challenge_acks()).sum::<u64>()
    }

    /// Live half-open (passively opened, not yet established) connections.
    pub fn half_open_count(&self) -> usize {
        debug_assert_eq!(
            self.agenda.half_open(),
            self.conns.values().filter(|c| c.cm.state() == CmState::SynRcvd).count()
        );
        self.agenda.half_open()
    }

    /// Oldest half-open connection idle for at least one SYN-RTO, if any.
    fn stale_half_open(&self, now: Time) -> Option<ConnId> {
        self.conns
            .iter()
            .filter(|(_, c)| {
                c.cm.state() == CmState::SynRcvd
                    && now.since(c.cm.last_activity()) >= HALF_OPEN_EVICT_AGE
            })
            .min_by_key(|&(id, c)| (c.cm.last_activity(), id))
            .map(|(id, _)| id)
    }

    /// Stateless SYN|ACK whose ISN *is* the cookie — no connection state
    /// exists until the peer's ACK proves it saw this packet. The native
    /// header makes this clean: the completing ACK echoes both ISNs in its
    /// CM subheader, so validation needs nothing remembered.
    fn send_cookie_synack(&mut self, tuple: &FourTuple, peer_isn: u32) {
        let mut pkt = Packet {
            src_addr: tuple.local.addr,
            dst_addr: tuple.remote.addr,
            ..Packet::default()
        };
        pkt.dm.src_port = tuple.local.port;
        pkt.dm.dst_port = tuple.remote.port;
        pkt.cm.flags.syn = true;
        pkt.cm.flags.cm_ack = true;
        pkt.cm.isn = syn_cookie(self.dm.local_addr(), tuple, peer_isn);
        pkt.cm.ack_isn = peer_isn;
        pkt.osr.rcv_wnd = u16::MAX;
        self.stats.packets_sent += 1;
        self.stats.syn_cookies_sent += 1;
        self.outbox.push_back(pkt.encode());
    }

    /// A new flow the connection table cannot take: counted, and answered
    /// with a stateless RST.
    fn refuse_full(&mut self, pkt: &Packet) {
        self.stats.conn_table_full_drops += 1;
        self.send_stateless_rst(pkt);
    }

    /// Stateless RST for a non-RST packet addressed to no connection.
    /// Echoing the packet's own ack as our seq makes the reply *exact*
    /// under the peer's RFC 5961 check — this is what lets the
    /// challenge-ACK dance converge when one side has lost all state.
    fn send_stateless_rst(&mut self, pkt: &Packet) {
        if pkt.cm.flags.rst {
            return; // never answer a RST with a RST
        }
        let mut rst = Packet {
            src_addr: pkt.dst_addr,
            dst_addr: pkt.src_addr,
            ..Packet::default()
        };
        rst.dm.src_port = pkt.dm.dst_port;
        rst.dm.dst_port = pkt.dm.src_port;
        rst.cm.flags.rst = true;
        rst.cm.isn = pkt.cm.ack_isn; // the ISN the peer attributes to us
        rst.cm.ack_isn = pkt.cm.isn; // echo theirs: proves we saw their SYN
        rst.rd.seq = pkt.rd.ack;
        self.stats.packets_sent += 1;
        self.stats.stateless_rsts_sent += 1;
        self.outbox.push_back(rst.encode());
    }

    /// The one way to run a connection, once per event. `step` does what
    /// the caller came for (nothing, for a plain pump) and returns whether
    /// it passed `inbound` — a header and the payload still in its frame —
    /// up to RD: for a packet, CM's and OSR's header parts. Then CM's
    /// events run (they may build RD), RD takes the passed-up packet, and
    /// the rest of the connection's machinery runs — RD's events, close
    /// coordination, segmentation, packet assembly — and the agenda takes
    /// note of whatever all of it changed. Returns whether there is such a
    /// connection.
    fn pump(
        &mut self,
        now: Time,
        id: ConnId,
        inbound: Option<(&Packet, &[u8])>,
        step: &mut dyn FnMut(&mut Connection) -> bool,
    ) -> bool {
        #[cfg(test)]
        {
            self.pumps += 1;
        }
        self.clock = now;
        self.agenda.clear_ready(&id);
        let ka = self.config.keepalive;
        let Some(conn) = self.conns.get_mut(id) else { return false };
        let before = Self::mark_of(&self.agenda, ka, conn, now);
        let pass_up = step(conn);

        // CM events upward: an established ISN pair starts RD. Timer-based
        // RD started at the open, before the peer ISN was known, and
        // late-binds it with its sender state (possibly data already in
        // flight) preserved. A reset or a close needs nothing here: CM's
        // state says so, and the reap below reads it.
        while let Some(ev) = conn.cm.poll_event() {
            if let CmEvent::Established { local_isn, peer_isn } = ev {
                match conn.rd.as_mut() {
                    None => {
                        conn.rd = Some(Self::new_rd(
                            &self.config,
                            self.pressure,
                            &self.log,
                            local_isn,
                            peer_isn,
                        ))
                    }
                    Some(rd) => rd.set_rcv_isn(peer_isn),
                }
            }
        }

        // The packet CM passed up reaches RD, which the drain above may
        // have just built (a handshake-completing ack that carries data).
        // Each novel part comes back by offset, in order or not, and its
        // bytes go from the frame straight to their place in OSR's read
        // buffer.
        if let (true, Some((pkt, payload)), Some(rd)) = (pass_up, inbound, conn.rd.as_mut()) {
            let (crossings, osr) = (&mut self.crossings, &mut conn.osr);
            rd.on_packet_view(now, pkt, payload, pkt.cm.flags.fin, &mut |offset, part| {
                crossings.rd_to_osr_segments += 1;
                crossings.rd_to_osr_bytes += part.len() as u64;
                osr.on_delivered_bytes(offset, part);
            });
        }

        // RD events upward (to OSR and CM).
        if let Some(rd) = conn.rd.as_mut() {
            while let Some(ev) = rd.poll_event() {
                match ev {
                    RdEvent::Delivered { .. } => {
                        unreachable!("only RD's `on_packet` adapter raises it")
                    }
                    RdEvent::LocalFinAcked => conn.cm.on_local_fin_acked(now),
                    RdEvent::PeerFinReached => {
                        conn.cm.on_peer_fin(now);
                        conn.osr.release_read_buffer();
                    }
                    RdEvent::RetriesExhausted => {
                        // Data retries spent: abort (RST to the peer if the
                        // path still works) instead of retrying forever.
                        conn.cm.abort(TransportError::RetriesExhausted);
                    }
                }
            }
            // Summarized signals to OSR's rate controller.
            while let Some(sig) = rd.poll_signal() {
                self.crossings.signals_up += 1;
                conn.osr.on_signals(now, &[sig]);
            }
        }

        // Close coordination: once the application's stream is fully
        // handed to RD, CM decides the close. Three-way CM routes its FIN
        // through RD; timer-based CM sends none and dies by quiet time.
        if conn.osr.app_closed() && !conn.cm.close_is_requested() && conn.osr.drained() {
            if let Some(rd) = conn.rd.as_mut() {
                if conn.cm.state() == CmState::Established && conn.cm.close_requested() {
                    rd.send_fin(now);
                }
            } else if conn.cm.state() != CmState::Established {
                // Never established: close immediately.
                conn.cm.close_requested();
            }
        }

        // Window updates: the application read; let the peer know the
        // window reopened (OSR owns the decision, RD owns the ack packet).
        if conn.osr.take_window_update() {
            if let Some(rd) = conn.rd.as_mut() {
                rd.force_ack();
            }
        }

        // Segmentation: OSR decides readiness, RD assigns sequences. A
        // zero-window probe released by OSR's persist timer takes the same
        // path, so it is sequenced and retransmitted like any segment.
        if let Some(rd) = conn.rd.as_mut() {
            if conn.cm.state() == CmState::Established || conn.cm.state() == CmState::Closing {
                while rd.can_accept() {
                    let Some(seg) = conn.osr.poll_segment(now) else { break };
                    self.crossings.osr_to_rd_segments += 1;
                    self.crossings.osr_to_rd_bytes += seg.len() as u64;
                    rd.push_segment(now, seg);
                }
                if rd.can_accept() {
                    if let Some(probe) = conn.osr.poll_probe() {
                        self.crossings.osr_to_rd_segments += 1;
                        self.crossings.osr_to_rd_bytes += probe.len() as u64;
                        rd.push_segment(now, probe);
                    }
                }
            }
        }

        // Packet assembly: CM-originated packets first (handshake), then
        // RD's data/ack packets. Each sublayer stamps only its own bits.
        loop {
            let assembled = if let Some(mut pkt) = conn.cm.poll_packet() {
                if let Some(rd) = conn.rd.as_mut() {
                    rd.fill_tx(&mut pkt);
                }
                conn.osr.fill_tx(&mut pkt);
                conn.cm.fill_tx(&mut pkt);
                Some(pkt)
            } else if let Some(rd) = conn.rd.as_mut() {
                match rd.poll_packet(now) {
                    Some((mut pkt, is_fin)) => {
                        if is_fin {
                            conn.cm.stamp_fin(&mut pkt);
                        }
                        conn.osr.fill_tx(&mut pkt);
                        conn.cm.fill_tx(&mut pkt);
                        Some(pkt)
                    }
                    None => None,
                }
            } else {
                None
            };
            let Some(mut pkt) = assembled else { break };
            self.dm.fill_tx(id, &mut pkt);
            let bytes = pkt.encode();
            self.crossings.packets_tx += 1;
            self.crossings.wire_bytes_tx += bytes.len() as u64;
            self.stats.packets_sent += 1;
            self.outbox.push_back(bytes);
        }

        // CM's state is the one record of death, whenever in this pass it
        // came: from CM's own events, an RD event (`RetriesExhausted`
        // aborts), or a close that never established.
        let after = if conn.cm.state() == CmState::Closed {
            // Reap it, keeping why it died and folding its counters into
            // the stack's.
            if let Some(reason) = conn.cm.reset_reason() {
                self.errors.record(id, reason, self.max_conns);
            }
            self.stats.challenge_acks += conn.cm.challenge_acks();
            self.dm.unbind(id);
            self.conns.remove(id);
            None
        } else {
            // One pass is not a fixpoint for a closing connection: close
            // coordination runs before segmentation, so the pass that
            // hands OSR's last byte to RD has not routed the FIN yet. The
            // next one does.
            if conn.osr.app_closed() && !conn.cm.close_is_requested() {
                self.agenda.mark_ready(id);
            }
            Some(Self::mark_of(&self.agenda, ka, conn, now))
        };
        self.agenda.reindex(id, Some(before), after);
        true
    }

    fn handle_packet(&mut self, now: Time, id: ConnId, pkt: &Packet, payload: &[u8]) {
        self.pump(now, id, Some((pkt, payload)), &mut |conn| {
            // The handshake-completing ack is recognized by the stack (not
            // CM) so CM never reads RD's bits: ack == local_isn + 1.
            let handshake_ack =
                pkt.rd.has_ack && pkt.rd.ack == conn.cm.local_isn().wrapping_add(1);
            // RFC 5961: the stack derives the RST's sequence validity from
            // RD (same pattern as `handshake_ack`); before RD exists —
            // handshake states — a RST is taken at face value, as the RFC
            // prescribes.
            let rst_seq = match conn.rd.as_ref() {
                Some(rd) if pkt.cm.flags.rst => rd.seq_validity(pkt.rd.seq),
                _ => SeqValidity::Exact,
            };
            let pass = conn.cm.on_packet(&pkt.cm, handshake_ack, rst_seq, now);
            // Window updates ride even on handshake packets.
            if pass != CmPass::Drop {
                conn.osr.on_header(now, pkt);
            }
            pass == CmPass::PassUp
        });
    }
}

/// The host-facing surface (application calls, per-connection pump and
/// timers, overload control) — the same trait `tcp-mono` implements, so a
/// host or a campaign written against it runs over either stack.
impl HostStack for SlTcpStack {
    type ConnId = ConnId;

    fn stack_name() -> &'static str {
        "sublayered"
    }

    fn local_addr(&self) -> u32 {
        self.dm.local_addr()
    }

    /// Accept connections on `port`.
    fn listen(&mut self, port: u16) {
        self.dm.listen(port);
    }

    /// Adjust the connection-table capacity at runtime (host layer knob).
    fn set_max_conns(&mut self, max: usize) {
        self.max_conns = max;
    }

    /// Active open surfacing capacity as a typed error instead of a panic:
    /// a full connection table or an already-bound tuple both mean the
    /// table cannot admit this connection.
    fn try_connect(
        &mut self,
        now: Time,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<ConnId, TransportError> {
        if self.conns.len() >= self.max_conns {
            return Err(TransportError::ConnTableFull);
        }
        let tuple = FourTuple {
            local: Endpoint::new(self.dm.local_addr(), local_port),
            remote,
        };
        let Ok(token) = self.dm.bind(tuple) else {
            return Err(TransportError::ConnTableFull);
        };
        let id = token.id();
        let local_isn = self.isn_gen.isn(now, &tuple);
        let cm =
            ConnMgmt::open_active(token, self.config.cm_scheme, local_isn, now, self.log.clone());
        // Timer-based CM is established immediately; wire RD up now.
        let rd = matches!(self.config.cm_scheme, CmScheme::TimerBased { .. })
            .then(|| Self::new_rd(&self.config, self.pressure, &self.log, local_isn, 0));
        self.admit(now, id, cm, rd, None);
        Ok(id)
    }

    /// Active open with an ephemeral local port, surfacing port exhaustion
    /// and table capacity as typed errors.
    fn try_connect_ephemeral(
        &mut self,
        now: Time,
        remote: Endpoint,
    ) -> Result<ConnId, TransportError> {
        if self.conns.len() >= self.max_conns {
            return Err(TransportError::ConnTableFull);
        }
        let Some(port) = self.dm.ephemeral_port(remote) else {
            return Err(TransportError::PortsExhausted);
        };
        self.try_connect(now, port, remote)
    }

    /// Queue application bytes.
    fn send(&mut self, id: ConnId, data: &[u8]) -> usize {
        self.touch(id, |conn| if conn.osr.app_closed() { 0 } else { conn.osr.write(data) })
            .unwrap_or(0)
    }

    /// Drain received application bytes.
    fn recv(&mut self, id: ConnId) -> Vec<u8> {
        self.touch(id, |conn| {
            let out = conn.osr.read();
            // Once the peer's FIN is in no more data can arrive, so
            // the reopened window is not worth advertising (same
            // rule as tcp-mono's recv): the gratuitous ack would
            // poke a peer whose TCB may already be deleted. Nor is the
            // drained read buffer worth keeping.
            if conn.cm.peer_fin_seen() {
                conn.osr.suppress_window_update();
                conn.osr.release_read_buffer();
            }
            out
        })
        .unwrap_or_default()
    }

    /// Graceful close (FIN after the stream drains).
    fn close(&mut self, id: ConnId) {
        self.touch(id, |conn| conn.osr.close());
    }

    fn abort(&mut self, now: Time, id: ConnId) {
        self.abort_with(now, id, TransportError::Reset);
    }

    fn is_established(&self, id: ConnId) -> bool {
        // Parity tie-break: CM defers its Established -> Closing
        // transition until the send stream drains (OSR's `app_closed` is
        // the application's request, pending until then), but the monolith
        // flips to FIN_WAIT_1 the moment the app closes. Both mean "no
        // longer open for the application", so gate on the close request.
        self.conns
            .get(id)
            .is_some_and(|c| c.cm.state() == CmState::Established && !c.osr.app_closed())
    }

    fn is_closed(&self, id: ConnId) -> bool {
        self.state(id) == CmState::Closed
    }

    /// Peer-closed + everything delivered? (EOF for the application.)
    fn peer_closed(&self, id: ConnId) -> bool {
        // Parity tie-break: the monolith derives this from the PCB state,
        // which stops reporting it once the connection reaches CLOSED;
        // CM's peer-FIN flag would persist. Half-close is only meaningful
        // while the connection is alive, so gate on it.
        self.conns
            .get(id)
            .is_some_and(|c| c.cm.peer_fin_seen() && c.cm.state() != CmState::Closed)
    }

    /// Why a connection died abnormally, if it did. Survives the
    /// connection's removal: after an abort, `state` reports `Closed` and
    /// this reports the reason.
    fn conn_error(&self, id: ConnId) -> Option<TransportError> {
        self.errors.get(&id)
    }

    /// In-order received bytes available to `recv` without draining them.
    fn readable_len(&self, id: ConnId) -> usize {
        self.conns.get(id).map_or(0, |c| c.osr.readable_len())
    }

    /// How many bytes `send` would accept right now (0 once the stream is
    /// closing or the connection is gone).
    fn send_capacity(&self, id: ConnId) -> usize {
        match self.conns.get(id) {
            Some(c) if !c.osr.app_closed() => c.osr.write_capacity(),
            _ => 0,
        }
    }

    /// Established connections (listener side discovers peers here).
    fn established(&self) -> Vec<ConnId> {
        let mut v: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| c.cm.state() == CmState::Established)
            .map(|(id, _)| id)
            .collect();
        v.sort();
        v
    }

    fn conn_count(&self) -> usize {
        self.conns.len()
    }

    fn classify_frame(frame: &[u8]) -> Option<FrameMeta> {
        slwire::native::peek(frame).map(|(src, dst)| FrameMeta { src, dst })
    }

    /// O(1) hashed 4-tuple lookup into the connection table (the host
    /// layer's demux path).
    fn conn_for_tuple(&self, tuple: &FourTuple) -> Option<ConnId> {
        self.dm.lookup(tuple)
    }

    /// Pop one already-assembled frame without scanning any connection —
    /// the host layer's transmit path ([`SlTcpStack::pump_conn`] is what
    /// fills the outbox).
    fn take_frame(&mut self) -> Option<Vec<u8>> {
        self.outbox.pop_front()
    }

    /// Run one connection's machinery (events, close coordination,
    /// segmentation, packet assembly) — the per-connection half of
    /// `poll_transmit`, for hosts that know which connection changed.
    fn pump_conn(&mut self, now: Time, id: ConnId) {
        self.pump(now, id, None, &mut |_| false);
    }

    /// Next timer deadline for *one* connection, so a host can keep one
    /// wheel entry per connection instead of scanning them all.
    fn conn_deadline(&self, now: Time, id: ConnId) -> Option<Time> {
        Self::deadline_of(self.config.keepalive, self.conns.get(id)?, now)
    }

    /// Advance one connection's timers to `now` (the per-connection half
    /// of `on_tick`); spurious calls are harmless.
    fn tick_conn(&mut self, now: Time, id: ConnId) {
        let ka = self.config.keepalive;
        self.pump(now, id, None, &mut |conn| {
            conn.cm.on_tick(now);
            if let Some(rd) = conn.rd.as_mut() {
                rd.on_tick(now);
            }
            conn.osr.on_tick(now);
            // Keepalive is CM's decision carried in RD's packet, as the FIN
            // is; a connection that never sent data probes at its ISN.
            if let (Some(ka), Some(rd)) = (ka, conn.rd.as_mut()) {
                if conn.cm.on_keepalive(ka, now, rd.bytes_unacked() == 0) {
                    rd.send_keepalive_probe();
                }
            }
            false
        });
    }

    fn crossing_events(&self) -> Option<u64> {
        let c = &self.crossings;
        Some(
            c.osr_to_rd_segments
                + c.rd_to_osr_segments
                + c.signals_up
                + c.packets_tx
                + c.packets_rx,
        )
    }

    /// Propagate host memory pressure down the sublayer column: OSR clamps
    /// the advertised window, RD paces pure acks, DM gates new flows at
    /// the `Critical` tier. Each sublayer receives only its own slice of
    /// the contract — no sublayer reads another's state.
    fn set_pressure(&mut self, p: Pressure) {
        if p == self.pressure {
            return;
        }
        self.pressure = p;
        let pace = p.paces_acks();
        let (ka, now) = (self.config.keepalive, self.clock);
        for (id, c) in self.conns.iter_mut() {
            let before = Self::mark_of(&self.agenda, ka, c, now);
            c.osr.set_pressure(p);
            if let Some(rd) = c.rd.as_mut() {
                rd.set_ack_pacing(pace);
            }
            // An ack that pacing held goes out at the next pump.
            self.agenda.mark_ready(id);
            let after = Self::mark_of(&self.agenda, ka, c, now);
            self.agenda.reindex(id, Some(before), Some(after));
        }
        self.dm.set_gate(self.gate || p.refuses_new_flows());
    }

    /// Explicitly gate new-flow admission (host drain/quiesce), independent
    /// of the pressure tier.
    fn gate_new_flows(&mut self, refuse: bool) {
        self.gate = refuse;
        self.dm.set_gate(refuse || self.pressure.refuses_new_flows());
    }

    /// One connection's share of [`SlTcpStack::buffered_bytes`].
    fn conn_buffered(&self, id: ConnId) -> usize {
        self.conns.get(id).map_or(0, Connection::buffered_bytes)
    }

    /// Monotone progress counter for slow-drain detection (bytes delivered
    /// in order + bytes the peer acked); `0` before RD exists.
    fn conn_progress(&self, id: ConnId) -> u64 {
        self.conns
            .get(id)
            .and_then(|c| c.rd.as_ref())
            .map_or(0, |r| r.progress_bytes())
    }

    /// Total bytes parked in per-connection buffers (send queues,
    /// retransmission flights, reassembly, unread app data) — the
    /// memory-bound invariant the attack campaign checks.
    fn buffered_bytes(&self) -> usize {
        self.conns.values().map(Connection::buffered_bytes).sum()
    }

    fn stack_pressure_refusals(&self) -> u64 {
        self.stats.pressure_refusals
    }

    /// Bytes currently pinned in the retransmit queue (bounded by
    /// [`crate::rd::RTX_BYTES_CAP`] no matter how long the path stays
    /// partitioned).
    fn conn_rtx_bytes(&self, id: ConnId) -> usize {
        self.conns
            .get(id)
            .and_then(|c| c.rd.as_ref())
            .map_or(0, |r| r.in_flight_bytes())
    }

    /// How long the oldest unacked segment has waited without cumulative
    /// ack progress — the partition-age signal a host budget can act on.
    fn conn_oldest_unacked(&self, id: ConnId, now: Time) -> Option<Dur> {
        self.conns
            .get(id)
            .and_then(|c| c.rd.as_ref())
            .and_then(|r| r.oldest_unacked_age(now))
    }
}

impl Stack for SlTcpStack {
    fn on_frame(&mut self, now: Time, frame: &[u8]) {
        // The payload stays in `frame`: RD copies what it must keep.
        let Ok((pkt, payload)) = Packet::decode_view(frame) else {
            self.stats.bad_packets += 1;
            return;
        };
        self.stats.packets_received += 1;
        self.crossings.packets_rx += 1;
        self.crossings.wire_bytes_rx += frame.len() as u64;
        match self.dm.classify(&pkt) {
            DmVerdict::Known(id) => self.handle_packet(now, id, &pkt, payload),
            DmVerdict::NewFlow(tuple) => {
                // Admission control first: a full connection table refuses
                // every new flow — cookie rebuilds included — with a typed
                // drop counter and a stateless RST, never a panic or a
                // silent discard. So does a DM out of handles.
                if self.conns.len() >= self.max_conns {
                    return self.refuse_full(&pkt);
                }
                let three_way = matches!(self.config.cm_scheme, CmScheme::ThreeWay);
                // A returning ACK that proves a SYN cookie rebuilds the
                // connection the stateless SYN|ACK never stored.
                if three_way
                    && !pkt.cm.flags.syn
                    && !pkt.cm.flags.rst
                    && pkt.rd.has_ack
                    && pkt.cm.ack_isn == syn_cookie(self.dm.local_addr(), &tuple, pkt.cm.isn)
                {
                    let Ok(token) = self.dm.bind(tuple) else { return self.refuse_full(&pkt) };
                    let id = token.id();
                    let cm = ConnMgmt::open_cookie(
                        token,
                        pkt.cm.ack_isn,
                        pkt.cm.isn,
                        now,
                        self.log.clone(),
                    );
                    self.stats.syn_cookies_validated += 1;
                    // The establishment event creates RD.
                    self.admit(now, id, cm, None, Some((&pkt, payload)));
                    return;
                }
                // Half-open governance: a SYN beyond the bound either
                // evicts a stale half-open entry or is answered
                // statelessly with a cookie — a flood degrades service,
                // never memory.
                if three_way
                    && pkt.cm.flags.syn
                    && !pkt.cm.flags.cm_ack
                    && self.half_open_count() >= MAX_HALF_OPEN
                {
                    if let Some(victim) = self.stale_half_open(now) {
                        self.stats.half_open_evictions += 1;
                        self.evict(now, victim);
                    } else {
                        self.send_cookie_synack(&tuple, pkt.cm.isn);
                        return;
                    }
                }
                let local_isn = self.isn_gen.isn(now, &tuple);
                // Admission first: the token CM's constructor demands is
                // minted by DM's bind. A header that cannot open releases
                // the admission again.
                let Ok(token) = self.dm.bind(tuple) else { return self.refuse_full(&pkt) };
                let id = token.id();
                let Some(cm) = ConnMgmt::open_passive(
                    token,
                    self.config.cm_scheme,
                    local_isn,
                    &pkt.cm,
                    now,
                    self.log.clone(),
                ) else {
                    self.dm.unbind(id);
                    self.stats.no_listener_drops += 1;
                    self.send_stateless_rst(&pkt);
                    return;
                };
                self.admit(now, id, cm, None, Some((&pkt, payload)));
            }
            DmVerdict::Gated(_) => {
                // DM's slice of the backpressure contract: under Critical
                // pressure or drain, new flows are refused statelessly —
                // no connection state is created, so a flood cannot grow
                // memory while the host digs itself out.
                self.stats.pressure_refusals += 1;
                self.send_stateless_rst(&pkt);
            }
            DmVerdict::NoListener => {
                self.stats.no_listener_drops += 1;
                self.send_stateless_rst(&pkt);
            }
            DmVerdict::NotForUs => {}
        }
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        netsim::agenda::poll_transmit(self, now)
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        netsim::agenda::poll_deadline(self, now)
    }

    fn on_tick(&mut self, now: Time) {
        netsim::agenda::on_tick(self, now)
    }
}

/// The schedule `netsim::agenda`'s drive keeps for this stack.
impl Scheduled for SlTcpStack {
    fn agenda(&self) -> &Agenda<ConnId> {
        &self.agenda
    }

    fn agenda_mut(&mut self) -> &mut Agenda<ConnId> {
        &mut self.agenda
    }

    fn conn_ids(&self) -> impl Iterator<Item = ConnId> + '_ {
        self.conns.ids()
    }
}

/// What the one agenda suite (`netsim::agenda_suite`) reads of this stack.
#[cfg(test)]
impl netsim::agenda_suite::AgendaStack for SlTcpStack {
    const ACK_PACE_DELAY: Dur = crate::rd::ACK_DELAY;

    fn half_open_count(&self) -> usize {
        self.conns.values().filter(|c| c.cm.state() == CmState::SynRcvd).count()
    }

    fn half_open_evictions(&self) -> u64 {
        self.stats.half_open_evictions
    }

    fn forge_syn(from: Endpoint, to: Endpoint, isn: u32) -> Vec<u8> {
        let mut pkt = Packet { src_addr: from.addr, dst_addr: to.addr, ..Packet::default() };
        pkt.dm.src_port = from.port;
        pkt.dm.dst_port = to.port;
        pkt.osr.rcv_wnd = u16::MAX;
        pkt.cm.flags.syn = true;
        pkt.cm.isn = isn;
        pkt.encode()
    }

    fn fin_and_len(frame: &[u8]) -> (bool, usize) {
        let pkt = Packet::decode(frame).expect("own frame");
        (pkt.cm.flags.fin, pkt.payload.len())
    }
}

#[cfg(test)]
impl SlTcpStack {
    /// What the connection's read buffer holds allocated.
    pub(crate) fn read_capacity(&self, id: ConnId) -> Option<usize> {
        self.conns.get(id).map(|c| c.osr.read_capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::{CmState, SlConfig, SlTcpStack};
    use crate::wire::Packet;
    use netsim::{HostStack, Stack, Time, TransportError};
    use slwire::Endpoint;

    #[test]
    fn a_connection_stays_within_its_inline_budget() {
        // The table stores `Connection` by value, so `sub.conn_heap_bytes`
        // moves by four times whatever is added here (two endpoints, probed
        // across a table doubling) against a 1 % bound. The budget since the
        // hand-off queues became mailboxes: 904 B before them, + 16 B for
        // RD's outbox slot and + 8 B for its event slot (a mailbox is as
        // wide as its one inline item; CM's two and RD's signals fit in the
        // 32 B their `VecDeque`s took, CM's outbox because it holds the
        // 12 B subheader and not the 88 B packet). That is up to + 96 B in
        // the probe (`bulk` shows all of it, `host_rr` none), against the
        // 800 B it no longer finds: an idle established pair kept CM's two
        // queue buffers (48 + 352 B) at each end, and an endpoint that had
        // moved data RD's three as well (160 + 96 + 192 B). That made 928 B:
        // CM 168 + RD 440 + OSR 304, and 16 B of glue fields (three flags,
        // the last inbound time and the probe count, padded). The glue's
        // fields are now facts CM and OSR hold: CM's probe count costs it
        // 8 B (168 -> 176, a `u32` padded), so 176 + 440 + 304 = 920 B. OSR's
        // read queue then became one read buffer: a 24 B `Vec<u8>` where a
        // 32 B `VecDeque` of handles stood (its `u32` byte count went too,
        // but only into padding), so OSR is 296 B and 176 + 440 + 296 =
        // 912 B. OSR's kept write slab (`Spare`, 16 B) is paid for by two
        // of its counters, 8 B each: `segments_cut`, which counted what
        // `CrossingStats::osr_to_rd_segments` counts, and `bytes_read`,
        // which nothing read. OSR stays 296 B.
        let size = std::mem::size_of::<super::Connection>();
        assert!(size <= 912, "{size}");
    }

    #[test]
    fn a_slot_is_as_wide_as_the_hash_bucket_it_replaced() {
        use std::mem::size_of;
        let (entry, bucket) = (
            size_of::<crate::slots::Entry<super::Connection>>(),
            size_of::<(super::ConnId, super::Connection)>(),
        );
        assert!(entry <= bucket, "{entry} > {bucket}");
    }

    #[test]
    fn a_stale_handle_reads_gone_and_leaves_its_slots_next_tenant_alone() {
        let (mut client, mut server) = (stack(CLIENT), stack(SERVER));
        server.listen(80);
        let old = client.connect(Time::ZERO, 5000, Endpoint::new(SERVER, 80));
        client.abort(Time::ZERO, old);
        drain(&mut client);
        let new = client.connect(Time::ZERO, 5001, Endpoint::new(SERVER, 80));
        assert_eq!(new.slot(), old.slot(), "the reaped connection's slot is reused");
        handshake(&mut client, &mut server);
        assert!(client.is_established(new));
        // Every query with the old handle reads "gone"; the error survives.
        assert_eq!(client.state(old), CmState::Closed);
        assert!(client.is_closed(old) && !client.is_established(old) && !client.peer_closed(old));
        assert_eq!(client.conn_error(old), Some(TransportError::Reset));
        assert_eq!(client.tuple(old), None);
        assert_eq!(client.conn_deadline(Time::ZERO, old), None);
        assert_eq!((client.readable_len(old), client.send_capacity(old)), (0, 0));
        assert_eq!((client.conn_buffered(old), client.conn_rtx_bytes(old)), (0, 0));
        assert_eq!(client.conn_progress(old), 0);
        assert_eq!(client.conn_oldest_unacked(old, Time::ZERO), None);
        assert!(client.rd_stats(old).is_none() && client.osr_stats(old).is_none());
        assert!(client.conn_cc(old).is_none() && client.expected_wire_seq(old).is_none());
        // Nor does anything done with it reach the new connection.
        assert_eq!(client.send(old, b"stale"), 0);
        assert!(client.recv(old).is_empty());
        client.mark_ecn(old);
        client.close(old);
        client.pump_conn(Time::ZERO, old);
        client.tick_conn(Time::ZERO, old);
        client.abort(Time::ZERO, old);
        assert!(drain(&mut client).is_empty(), "a stale handle sends nothing");
        assert!(client.is_established(new));
        assert_eq!(client.conn_error(new), None);
        assert_eq!(client.tuple(new).map(|t| t.local.port), Some(5001));
        assert_eq!(client.send(new, b"fresh"), 5);
        handshake(&mut client, &mut server);
        let sid = server.established()[0];
        assert_eq!(server.recv(sid), b"fresh");
    }

    #[test]
    fn a_dm_out_of_handles_refuses_active_and_passive_opens_alike() {
        use crate::dm::{Demux, MAX_SERIALS, MAX_SLOTS};
        let mut client = stack(CLIENT);
        client.dm = Demux::starting_at(CLIENT, slmetrics::shared(), MAX_SERIALS - 1, 0);
        client.connect(Time::ZERO, 5000, Endpoint::new(SERVER, 80));
        let refused = client.try_connect(Time::ZERO, 5001, Endpoint::new(SERVER, 80));
        assert_eq!(refused, Err(TransportError::ConnTableFull), "no serial left");
        let mut server = stack(SERVER);
        server.dm = Demux::starting_at(SERVER, slmetrics::shared(), 0, MAX_SLOTS);
        server.listen(80);
        for f in drain(&mut client) {
            server.on_frame(Time::ZERO, &f);
        }
        assert_eq!(server.conn_count(), 0, "no slot left");
        assert_eq!((server.stats.conn_table_full_drops, server.stats.stateless_rsts_sent), (1, 1));
        let [rst] = &drain(&mut server)[..] else { panic!("one stateless RST") };
        assert!(Packet::decode(rst).expect("own frame").cm.flags.rst);
    }

    #[test]
    fn two_stacks_driven_alike_iterate_their_tables_alike() {
        // What a `RandomState` table cannot do: each instance draws its own
        // keys, so two of them walk the same ids in different orders — and
        // then placement, growth and allocation counts differ by process.
        let mut pair = [(); 2].map(|()| stack(7));
        for stack in &mut pair {
            for port in 5000..5048 {
                let id = stack.try_connect(Time::ZERO, port, Endpoint::new(9, 80)).unwrap();
                if port % 3 == 0 {
                    stack.abort(Time::ZERO, id);
                }
            }
            assert_eq!((stack.conns.len(), stack.errors.keys().count()), (32, 16));
        }
        let [a, b] = &pair;
        assert!(a.conns.ids().eq(b.conns.ids()));
        assert!(a.errors.keys().eq(b.errors.keys()));
    }

    const CLIENT: u32 = 1;
    const SERVER: u32 = 2;

    fn stack(addr: u32) -> SlTcpStack {
        SlTcpStack::new(addr, SlConfig::default(), slmetrics::shared())
    }

    /// Everything `from` has to send, in order.
    fn drain(from: &mut SlTcpStack) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| from.poll_transmit(Time::ZERO)).collect()
    }

    /// Trade frames until neither end has any to send.
    fn handshake(client: &mut SlTcpStack, server: &mut SlTcpStack) {
        loop {
            let (up, down) = (drain(client), drain(server));
            if up.is_empty() && down.is_empty() {
                break;
            }
            up.iter().for_each(|f| server.on_frame(Time::ZERO, f));
            down.iter().for_each(|f| client.on_frame(Time::ZERO, f));
        }
    }

    #[test]
    fn a_passed_up_data_segment_runs_one_pump() {
        let (mut client, mut server) = (stack(CLIENT), stack(SERVER));
        server.listen(80);
        let id = client.connect(Time::ZERO, 5000, Endpoint::new(SERVER, 80));
        handshake(&mut client, &mut server);
        client.send(id, &[7; 100]);
        let [data] = &drain(&mut client)[..] else { panic!("one data segment") };
        let before = server.pumps;
        server.on_frame(Time::ZERO, data);
        assert_eq!(server.pumps - before, 1, "CM, OSR and RD in one pass");
        let sid = server.established()[0];
        assert_eq!(server.recv(sid), [7; 100]);
    }

    #[test]
    fn a_handshake_completing_ack_that_carries_data_is_delivered_in_its_one_pass() {
        let (mut client, mut server) = (stack(CLIENT), stack(SERVER));
        server.listen(80);
        let id = client.connect(Time::ZERO, 5000, Endpoint::new(SERVER, 80));
        // Queued in OSR before the handshake completes: it leaves with the
        // pass that establishes the client.
        client.send(id, &[9; 300]);
        drain(&mut client).iter().for_each(|f| server.on_frame(Time::ZERO, f));
        let sid = server.conns.ids().next().expect("SYN admitted");
        assert_eq!(server.state(sid), CmState::SynRcvd);
        drain(&mut server).iter().for_each(|f| client.on_frame(Time::ZERO, f));
        // The client's pure ack is lost; its data segment acks the SYN|ACK
        // too, so it is the one that completes the server's handshake.
        let data = drain(&mut client)
            .into_iter()
            .find(|f| !Packet::decode(f).expect("own frame").payload.is_empty())
            .expect("a data segment");
        assert!(server.conns.get(sid).expect("half-open").rd.is_none());
        let before = server.pumps;
        server.on_frame(Time::ZERO, &data);
        // CM established, its event built RD, and RD took the packet: all
        // in the one pass.
        assert_eq!(server.pumps - before, 1);
        assert_eq!(server.state(sid), CmState::Established);
        assert_eq!(server.recv(sid), [9; 300]);
    }
}
