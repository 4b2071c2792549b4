//! `SubChain`: a sublayered endpoint assembled *outside* the product crates
//! from their public `Packet`, `Demux`, `ConnMgmt`, `ReliableDelivery` and
//! `Osr` objects, with a span around every sublayer call.
//!
//! The glue follows `SlTcpStack::{on_frame, handle_packet, pump}` call for
//! call on the paths the workloads use — three-way open, established data
//! path, graceful close, RTO/persist/TIME-WAIT ticks — so it puts the same
//! frames on the wire (`chain.frames_match`). It leaves out what they never
//! reach: SYN cookies and half-open eviction, memory pressure and the accept
//! gate, keepalive, the timer-based CM scheme. Because it implements
//! [`HostStack`], every workload script and `ServedHost` run over it
//! unchanged; the time its spans do *not* cover is the glue itself.

use crate::trace::{span, span_opt, Name};
use crate::world::Transport;
use netsim::{Dur, Stack, Time, TransportError};
use slcc::RateController;
use slhost::{FrameMeta, HostStack};
use slmetrics::{Pressure, SharedLog};
use std::collections::{HashMap, VecDeque};
use sublayer_core::signals::SeqValidity;
use sublayer_core::{
    isn, CmEvent, CmPass, CmScheme, CmState, ConnId, ConnMgmt, Demux, DmVerdict, IsnGenerator, Osr,
    Packet, RdEvent, ReliableDelivery, SlTcpStack,
};
use tcp_mono::wire::{Endpoint, FourTuple};

struct Conn {
    cm: ConnMgmt,
    rd: Option<ReliableDelivery>,
    osr: Osr,
    want_close: bool,
    fin_routed: bool,
    dead: bool,
}

pub struct SubChain {
    dm: Demux,
    conns: HashMap<ConnId, Conn>,
    isn_gen: Box<dyn IsnGenerator>,
    cc_template: Box<dyn RateController>,
    errors: HashMap<ConnId, TransportError>,
    outbox: VecDeque<Vec<u8>>,
    max_conns: usize,
    log: SharedLog,
    pub frames_sent: u64,
    pub frames_received: u64,
}

impl SubChain {
    pub fn new(addr: u32, log: SharedLog) -> SubChain {
        SubChain {
            dm: Demux::new(addr, log.clone()),
            conns: HashMap::new(),
            isn_gen: isn::make("clock"),
            cc_template: slcc::make("newreno").expect("newreno is a shipped controller"),
            errors: HashMap::new(),
            outbox: VecDeque::new(),
            max_conns: 16384,
            log,
            frames_sent: 0,
            frames_received: 0,
        }
    }

    fn new_osr(&self) -> Osr {
        Osr::new(self.cc_template.clone(), self.log.clone())
    }

    fn insert(&mut self, id: ConnId, cm: ConnMgmt) {
        let osr = self.new_osr();
        self.conns.insert(
            id,
            Conn {
                cm,
                rd: None,
                osr,
                want_close: false,
                fin_routed: false,
                dead: false,
            },
        );
    }

    fn note_cm_events(
        events: Vec<CmEvent>,
        conn: &mut Conn,
        id: ConnId,
        errors: &mut HashMap<ConnId, TransportError>,
        log: &SharedLog,
        establish: bool,
    ) {
        for ev in events {
            match ev {
                CmEvent::Established {
                    local_isn,
                    peer_isn,
                } => {
                    if establish && conn.rd.is_none() {
                        conn.rd = Some(ReliableDelivery::new(local_isn, peer_isn, log.clone()));
                    }
                }
                CmEvent::Reset => {
                    if let Some(reason) = conn.cm.reset_reason() {
                        errors.entry(id).or_insert(reason);
                    }
                    conn.dead = true;
                }
                CmEvent::Closed => conn.dead = true,
            }
        }
    }

    fn pump(&mut self, now: Time, id: ConnId) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };

        let events = span(Name::CmTakeEvents, || conn.cm.take_events());
        Self::note_cm_events(events, conn, id, &mut self.errors, &self.log, true);

        if let Some(rd) = conn.rd.as_mut() {
            for ev in span(Name::RdTakeEvents, || rd.take_events()) {
                match ev {
                    RdEvent::Delivered { offset, data } => {
                        span(Name::OsrOnDelivered, || conn.osr.on_delivered(offset, data));
                    }
                    RdEvent::LocalFinAcked => {
                        span(Name::CmOther, || conn.cm.on_local_fin_acked(now))
                    }
                    RdEvent::PeerFinReached => span(Name::CmOther, || conn.cm.on_peer_fin(now)),
                    RdEvent::RetriesExhausted => {
                        span(Name::CmOther, || {
                            conn.cm.abort(TransportError::RetriesExhausted)
                        });
                    }
                }
            }
            let signals = span(Name::RdTakeSignals, || rd.take_signals());
            if !signals.is_empty() {
                span(Name::OsrOnSignals, || conn.osr.on_signals(now, &signals));
            }
        }

        let events = span(Name::CmTakeEvents, || conn.cm.take_events());
        Self::note_cm_events(events, conn, id, &mut self.errors, &self.log, false);

        if conn.want_close && !conn.fin_routed && conn.osr.drained() {
            if let Some(rd) = conn.rd.as_mut() {
                if conn.cm.state() == CmState::Established
                    && span(Name::CmOther, || conn.cm.close_requested())
                {
                    span(Name::RdOther, || rd.send_fin(now));
                    conn.fin_routed = true;
                }
            } else if conn.cm.state() != CmState::Established {
                span(Name::CmOther, || conn.cm.close_requested());
            }
        }

        if span(Name::OsrOther, || conn.osr.take_window_update()) {
            if let Some(rd) = conn.rd.as_mut() {
                span(Name::RdOther, || rd.force_ack());
            }
        }

        if let Some(rd) = conn.rd.as_mut() {
            if matches!(conn.cm.state(), CmState::Established | CmState::Closing) {
                while rd.can_accept() {
                    let Some(seg) = span_opt(Name::OsrPollSegment, || conn.osr.poll_segment(now))
                    else {
                        break;
                    };
                    span(Name::RdPushSegment, || rd.push_segment(now, seg));
                }
                if rd.can_accept() {
                    if let Some(probe) = span_opt(Name::OsrOther, || conn.osr.poll_probe()) {
                        span(Name::RdPushSegment, || rd.push_segment(now, probe));
                    }
                }
            }
        }

        loop {
            let assembled =
                if let Some(mut pkt) = span_opt(Name::CmPollPacket, || conn.cm.poll_packet()) {
                    if let Some(rd) = conn.rd.as_mut() {
                        span(Name::RdFillTx, || rd.fill_tx(&mut pkt));
                    }
                    span(Name::OsrFillTx, || conn.osr.fill_tx(&mut pkt));
                    span(Name::CmFillTx, || conn.cm.fill_tx(&mut pkt));
                    Some(pkt)
                } else if let Some(rd) = conn.rd.as_mut() {
                    match span_opt(Name::RdPollPacket, || rd.poll_packet(now)) {
                        Some((mut pkt, is_fin)) => {
                            if is_fin {
                                span(Name::CmOther, || conn.cm.stamp_fin(&mut pkt));
                            }
                            span(Name::OsrFillTx, || conn.osr.fill_tx(&mut pkt));
                            span(Name::CmFillTx, || conn.cm.fill_tx(&mut pkt));
                            Some(pkt)
                        }
                        None => None,
                    }
                } else {
                    None
                };
            let Some(mut pkt) = assembled else { break };
            span(Name::DmFillTx, || self.dm.fill_tx(id, &mut pkt));
            let bytes = span(Name::WireEncode, || pkt.encode());
            self.frames_sent += 1;
            self.outbox.push_back(bytes);
        }

        if conn.dead {
            span(Name::DmUnbind, || self.dm.unbind(id));
            self.conns.remove(&id);
        }
    }

    fn handle_packet(&mut self, now: Time, id: ConnId, pkt: &Packet) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let handshake_ack = pkt.rd.has_ack && pkt.rd.ack == conn.cm.local_isn().wrapping_add(1);
        let rst_seq = match conn.rd.as_ref() {
            Some(rd) if pkt.cm.flags.rst => rd.seq_validity(pkt.rd.seq),
            _ => SeqValidity::Exact,
        };
        match span(Name::CmOnPacket, || {
            conn.cm.on_packet(&pkt.cm, handshake_ack, rst_seq, now)
        }) {
            CmPass::Drop => {}
            CmPass::Consumed => span(Name::OsrOnHeader, || conn.osr.on_header(now, pkt)),
            CmPass::PassUp => {
                span(Name::OsrOnHeader, || conn.osr.on_header(now, pkt));
                self.pump(now, id);
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if let Some(rd) = conn.rd.as_mut() {
                    span(Name::RdOnPacket, || {
                        rd.on_packet(now, pkt, pkt.cm.flags.fin)
                    });
                }
            }
        }
        self.pump(now, id);
    }

    /// A non-RST packet for no connection is answered with a stateless RST,
    /// exactly as the stack does.
    fn refuse(&mut self, pkt: &Packet) {
        if pkt.cm.flags.rst {
            return;
        }
        let mut rst = Packet {
            src_addr: pkt.dst_addr,
            dst_addr: pkt.src_addr,
            ..Packet::default()
        };
        rst.dm.src_port = pkt.dm.dst_port;
        rst.dm.dst_port = pkt.dm.src_port;
        rst.cm.flags.rst = true;
        rst.cm.isn = pkt.cm.ack_isn;
        rst.cm.ack_isn = pkt.cm.isn;
        rst.rd.seq = pkt.rd.ack;
        let bytes = span(Name::WireEncode, || rst.encode());
        self.frames_sent += 1;
        self.outbox.push_back(bytes);
    }

    fn sorted_ids(&self) -> Vec<ConnId> {
        let mut ids: Vec<ConnId> = self.conns.keys().copied().collect();
        ids.sort();
        ids
    }
}

impl Stack for SubChain {
    fn on_frame(&mut self, now: Time, frame: &[u8]) {
        let Ok(pkt) = span(Name::WireDecode, || Packet::decode(frame)) else {
            return;
        };
        self.frames_received += 1;
        match span(Name::DmClassify, || self.dm.classify(&pkt)) {
            DmVerdict::Known(id) => self.handle_packet(now, id, &pkt),
            DmVerdict::NewFlow(tuple) => {
                if self.conns.len() >= self.max_conns {
                    return self.refuse(&pkt);
                }
                let local_isn = self.isn_gen.isn(now, &tuple);
                let Ok(token) = span(Name::DmBind, || self.dm.bind(tuple)) else {
                    return;
                };
                let id = token.id();
                let opened = span(Name::CmOpen, || {
                    ConnMgmt::open_passive(
                        token,
                        CmScheme::ThreeWay,
                        local_isn,
                        &pkt.cm,
                        now,
                        self.log.clone(),
                    )
                });
                let Some(cm) = opened else {
                    span(Name::DmUnbind, || self.dm.unbind(id));
                    return self.refuse(&pkt);
                };
                self.insert(id, cm);
                self.pump(now, id);
                if let Some(conn) = self.conns.get_mut(&id) {
                    span(Name::OsrOnHeader, || conn.osr.on_header(now, &pkt));
                    if let Some(rd) = conn.rd.as_mut() {
                        span(Name::RdOnPacket, || {
                            rd.on_packet(now, &pkt, pkt.cm.flags.fin)
                        });
                    }
                }
                self.pump(now, id);
            }
            DmVerdict::Gated(_) | DmVerdict::NoListener => self.refuse(&pkt),
            DmVerdict::NotForUs => {}
        }
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        if self.outbox.is_empty() {
            for id in self.sorted_ids() {
                self.pump(now, id);
            }
        }
        self.outbox.pop_front()
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        self.conns
            .keys()
            .filter_map(|&id| self.conn_deadline(now, id))
            .min()
    }

    fn on_tick(&mut self, now: Time) {
        for id in self.sorted_ids() {
            self.tick_conn(now, id);
        }
    }
}

impl HostStack for SubChain {
    type ConnId = ConnId;

    fn stack_name() -> &'static str {
        "subchain"
    }
    fn local_addr(&self) -> u32 {
        self.dm.local_addr()
    }
    fn listen(&mut self, port: u16) {
        self.dm.listen(port);
    }
    fn set_max_conns(&mut self, max: usize) {
        self.max_conns = max;
    }
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
        let Ok(token) = span(Name::DmBind, || self.dm.bind(tuple)) else {
            return Err(TransportError::ConnTableFull);
        };
        let id = token.id();
        let local_isn = self.isn_gen.isn(now, &tuple);
        let cm = span(Name::CmOpen, || {
            ConnMgmt::open_active(token, CmScheme::ThreeWay, local_isn, now, self.log.clone())
        });
        self.insert(id, cm);
        self.pump(now, id);
        Ok(id)
    }
    fn try_connect_ephemeral(
        &mut self,
        now: Time,
        remote: Endpoint,
    ) -> Result<ConnId, TransportError> {
        let Some(port) = self.dm.ephemeral_port(remote) else {
            return Err(TransportError::PortsExhausted);
        };
        self.try_connect(now, port, remote)
    }
    fn send(&mut self, id: ConnId, data: &[u8]) -> usize {
        match self.conns.get_mut(&id) {
            Some(c) if !c.want_close && !c.dead => span(Name::OsrWrite, || c.osr.write(data)),
            _ => 0,
        }
    }
    fn recv(&mut self, id: ConnId) -> Vec<u8> {
        let Some(c) = self.conns.get_mut(&id) else {
            return Vec::new();
        };
        let out = span(Name::OsrRead, || c.osr.read());
        if c.cm.peer_fin_seen() {
            c.osr.suppress_window_update();
        }
        out
    }
    fn close(&mut self, id: ConnId) {
        if let Some(c) = self.conns.get_mut(&id) {
            c.want_close = true;
            c.osr.close();
        }
    }
    fn abort(&mut self, now: Time, id: ConnId) {
        if let Some(c) = self.conns.get_mut(&id) {
            c.cm.abort(TransportError::Reset);
            self.pump(now, id);
        }
    }
    fn is_established(&self, id: ConnId) -> bool {
        self.conns
            .get(&id)
            .is_some_and(|c| c.cm.state() == CmState::Established && !c.want_close)
    }
    fn is_closed(&self, id: ConnId) -> bool {
        !self.conns.contains_key(&id)
    }
    fn peer_closed(&self, id: ConnId) -> bool {
        self.conns.get(&id).is_some_and(|c| c.cm.peer_fin_seen())
    }
    fn conn_error(&self, id: ConnId) -> Option<TransportError> {
        self.errors.get(&id).copied()
    }
    fn readable_len(&self, id: ConnId) -> usize {
        self.conns.get(&id).map_or(0, |c| c.osr.readable_len())
    }
    fn send_capacity(&self, id: ConnId) -> usize {
        match self.conns.get(&id) {
            Some(c) if !c.want_close && !c.dead => c.osr.write_capacity(),
            _ => 0,
        }
    }
    fn established(&self) -> Vec<ConnId> {
        let mut v: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| c.cm.state() == CmState::Established)
            .map(|(&id, _)| id)
            .collect();
        v.sort();
        v
    }
    fn conn_count(&self) -> usize {
        self.conns.len()
    }
    fn classify_frame(frame: &[u8]) -> Option<FrameMeta> {
        <SlTcpStack as HostStack>::classify_frame(frame)
    }
    fn conn_for_tuple(&self, tuple: &FourTuple) -> Option<ConnId> {
        self.dm.lookup(tuple)
    }
    fn take_frame(&mut self) -> Option<Vec<u8>> {
        self.outbox.pop_front()
    }
    fn pump_conn(&mut self, now: Time, id: ConnId) {
        self.pump(now, id);
    }
    fn conn_deadline(&self, now: Time, id: ConnId) -> Option<Time> {
        let c = self.conns.get(&id)?;
        [
            c.cm.poll_deadline(),
            c.rd.as_ref().and_then(|r| r.poll_deadline()),
            c.osr.poll_deadline(now),
        ]
        .into_iter()
        .flatten()
        .min()
    }
    fn tick_conn(&mut self, now: Time, id: ConnId) {
        if let Some(c) = self.conns.get_mut(&id) {
            span(Name::CmOnTick, || c.cm.on_tick(now));
            if let Some(rd) = c.rd.as_mut() {
                span(Name::RdOnTick, || rd.on_tick(now));
            }
            span(Name::OsrOther, || c.osr.on_tick(now));
        }
        self.pump(now, id);
    }

    // The workloads never raise memory pressure; these are the no-ops that
    // satisfy the host's contract.
    fn set_pressure(&mut self, _: Pressure) {}
    fn gate_new_flows(&mut self, _: bool) {}
    fn conn_buffered(&self, id: ConnId) -> usize {
        self.conns.get(&id).map_or(0, |c| {
            c.osr.buffered_bytes() + c.rd.as_ref().map_or(0, |r| r.in_flight_bytes())
        })
    }
    fn conn_progress(&self, id: ConnId) -> u64 {
        self.conns
            .get(&id)
            .and_then(|c| c.rd.as_ref())
            .map_or(0, |r| r.progress_bytes())
    }
    fn buffered_bytes(&self) -> usize {
        self.conns.keys().map(|&id| self.conn_buffered(id)).sum()
    }
    fn stack_pressure_refusals(&self) -> u64 {
        0
    }
    fn conn_rtx_bytes(&self, id: ConnId) -> usize {
        self.conns
            .get(&id)
            .and_then(|c| c.rd.as_ref())
            .map_or(0, |r| r.in_flight_bytes())
    }
    fn conn_oldest_unacked(&self, id: ConnId, now: Time) -> Option<Dur> {
        self.conns
            .get(&id)
            .and_then(|c| c.rd.as_ref())
            .and_then(|r| r.oldest_unacked_age(now))
    }
}

impl Transport for SubChain {
    type App = SubChain;
    fn build(addr: u32, log: SharedLog) -> Self {
        SubChain::new(addr, log)
    }
    fn app(&mut self) -> &mut SubChain {
        self
    }
    fn app_ref(&self) -> &SubChain {
        self
    }
    fn retransmits(&self) -> u64 {
        self.conns
            .values()
            .filter_map(|c| c.rd.as_ref())
            .map(|r| r.stats.retransmits)
            .sum()
    }
}
