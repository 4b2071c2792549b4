//! The host-facing stack surface.
//!
//! [`Host`](crate::Host) is generic over the transport underneath it: the
//! sublayered stack (`sublayer-core`) and the monolithic baseline
//! (`tcp-mono`) both drive the same event loop, timer wheel, and accept
//! path. [`HostStack`] is the contract that makes that possible — the
//! API-parity test (`tests/parity.rs`) runs one scripted scenario against
//! both implementations and asserts identical observable behaviour.

use netsim::{Stack, Time, TransportError};
use slmetrics::Pressure;
use std::fmt::Debug;
use std::hash::Hash;
use sublayer_core::{CmState, ConnId, SlTcpStack};
use slwire::{Endpoint, FourTuple};
use tcp_mono::{TcpStack, TcpState};

/// Addressing read off a raw frame without full decode — just enough for
/// the host to demux (inbound) or route (outbound) in O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameMeta {
    pub src: Endpoint,
    pub dst: Endpoint,
}

impl FrameMeta {
    /// The 4-tuple as seen by the *receiving* host.
    pub fn tuple_at_dst(&self) -> FourTuple {
        FourTuple { local: self.dst, remote: self.src }
    }
}

/// What a transport must expose for [`Host`](crate::Host) to serve many
/// connections over it: listen/connect, per-connection I/O and state
/// queries, and the per-connection timer/transmit split that lets the
/// host tick only the connections whose wheel entry fired.
pub trait HostStack: Stack {
    /// Connection handle (`ConnId` for the sublayered stack, the 4-tuple
    /// itself for the monolithic one).
    type ConnId: Copy + Ord + Eq + Hash + Debug + 'static;

    fn stack_name() -> &'static str;
    fn local_addr(&self) -> u32;
    fn listen(&mut self, port: u16);
    /// Bound the connection table (capacity beyond it refuses opens).
    fn set_max_conns(&mut self, max: usize);
    fn try_connect(
        &mut self,
        now: Time,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<Self::ConnId, TransportError>;
    fn try_connect_ephemeral(
        &mut self,
        now: Time,
        remote: Endpoint,
    ) -> Result<Self::ConnId, TransportError>;
    /// Queue data; returns bytes accepted (short count = backpressure).
    fn send(&mut self, id: Self::ConnId, data: &[u8]) -> usize;
    /// Drain received in-order bytes.
    fn recv(&mut self, id: Self::ConnId) -> Vec<u8>;
    /// Graceful close.
    fn close(&mut self, id: Self::ConnId);
    /// Hard reset.
    fn abort(&mut self, now: Time, id: Self::ConnId);
    fn is_established(&self, id: Self::ConnId) -> bool;
    /// Fully gone (or never existed).
    fn is_closed(&self, id: Self::ConnId) -> bool;
    /// Peer's FIN processed (EOF after the readable bytes drain).
    fn peer_closed(&self, id: Self::ConnId) -> bool;
    /// Terminal error, surviving the connection's removal.
    fn conn_error(&self, id: Self::ConnId) -> Option<TransportError>;
    fn readable_len(&self, id: Self::ConnId) -> usize;
    fn send_capacity(&self, id: Self::ConnId) -> usize;
    fn established(&self) -> Vec<Self::ConnId>;
    fn conn_count(&self) -> usize;

    /// Read addressing off a raw frame without decoding the rest; `None`
    /// for frames too short or not this stack's wire format.
    fn classify_frame(frame: &[u8]) -> Option<FrameMeta>;
    /// O(1) hashed 4-tuple lookup (the host's demux path).
    fn conn_for_tuple(&self, tuple: &FourTuple) -> Option<Self::ConnId>;
    /// Pop one already-assembled outgoing frame (no connection scan).
    fn take_frame(&mut self) -> Option<Vec<u8>>;
    /// Run one connection's output machinery.
    fn pump_conn(&mut self, now: Time, id: Self::ConnId);
    /// Next timer deadline for one connection (what the host arms in the
    /// wheel).
    fn conn_deadline(&self, now: Time, id: Self::ConnId) -> Option<Time>;
    /// Advance one connection's timers to `now`; spurious calls harmless.
    fn tick_conn(&mut self, now: Time, id: Self::ConnId);
    /// Total inter-sublayer boundary crossings so far, for stacks that
    /// have internal boundaries (`None` for the monolithic baseline).
    /// The scale experiment reports this as crossing overhead per
    /// connection at high connection counts.
    fn crossing_events(&self) -> Option<u64> {
        None
    }

    // ---- overload control: the host pushes memory pressure down and
    // reads buffer occupancy / progress back up. Both stacks implement
    // the same contract (OSR occupancy → RD window clamp → CM pacing →
    // DM accept gating in the sublayered stack; one stack-global field
    // in the monolith) so the host's admission policy is stack-agnostic.

    /// Push the host's memory-pressure tier into the transport.
    fn set_pressure(&mut self, p: Pressure);
    /// Refuse all new inbound flows (drain / quiesce), independent of
    /// the pressure tier.
    fn gate_new_flows(&mut self, refuse: bool);
    /// Bytes this connection holds across transport buffers.
    fn conn_buffered(&self, id: Self::ConnId) -> usize;
    /// Monotone progress counter (bytes delivered + bytes acked); a flow
    /// whose counter stalls while holding buffers is a slow drainer.
    fn conn_progress(&self, id: Self::ConnId) -> u64;
    /// Total bytes held across all connection buffers.
    fn buffered_bytes(&self) -> usize;
    /// New flows refused statelessly (RST) because the transport's accept
    /// gate was closed by pressure or drain.
    fn stack_pressure_refusals(&self) -> u64;
    /// Bytes pinned in this connection's retransmit queue. Both stacks
    /// bound this (`RTX_BYTES_CAP` / `SND_BUF_CAP`), so a partition holds
    /// memory flat instead of growing it with the blocked sender.
    fn conn_rtx_bytes(&self, id: Self::ConnId) -> usize;
    /// Age of the oldest unacked segment — how long this connection has
    /// gone without cumulative ack progress. The partition-age signal the
    /// host's [`ResourceBudget`](crate::ResourceBudget) reads to pick
    /// eviction victims: under memory pressure the flow stuck longest
    /// behind a dead path is the one to shed.
    fn conn_oldest_unacked(&self, id: Self::ConnId, now: Time) -> Option<netsim::Dur>;
}

impl HostStack for SlTcpStack {
    type ConnId = ConnId;

    fn stack_name() -> &'static str {
        "sublayered"
    }
    fn local_addr(&self) -> u32 {
        self.addr()
    }
    fn listen(&mut self, port: u16) {
        SlTcpStack::listen(self, port);
    }
    fn set_max_conns(&mut self, max: usize) {
        SlTcpStack::set_max_conns(self, max);
    }
    fn try_connect(
        &mut self,
        now: Time,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<ConnId, TransportError> {
        SlTcpStack::try_connect(self, now, local_port, remote)
    }
    fn try_connect_ephemeral(
        &mut self,
        now: Time,
        remote: Endpoint,
    ) -> Result<ConnId, TransportError> {
        SlTcpStack::try_connect_ephemeral(self, now, remote)
    }
    fn send(&mut self, id: ConnId, data: &[u8]) -> usize {
        SlTcpStack::send(self, id, data)
    }
    fn recv(&mut self, id: ConnId) -> Vec<u8> {
        SlTcpStack::recv(self, id)
    }
    fn close(&mut self, id: ConnId) {
        SlTcpStack::close(self, id);
    }
    fn abort(&mut self, now: Time, id: ConnId) {
        SlTcpStack::abort(self, now, id, TransportError::Reset);
    }
    fn is_established(&self, id: ConnId) -> bool {
        // Parity tie-break: CM defers its Established -> Closing
        // transition until the send stream drains, but the monolith flips
        // to FIN_WAIT_1 the moment the app closes. Both mean "no longer
        // open for the application", so gate on the close request.
        self.state(id) == CmState::Established && !self.close_pending(id)
    }
    fn is_closed(&self, id: ConnId) -> bool {
        self.state(id) == CmState::Closed
    }
    fn peer_closed(&self, id: ConnId) -> bool {
        // Parity tie-break: the monolith derives this from the PCB state,
        // which stops reporting it once the connection reaches CLOSED;
        // CM's peer-FIN flag would persist. Half-close is only meaningful
        // while the connection is alive, so gate on it.
        SlTcpStack::peer_closed(self, id) && self.state(id) != CmState::Closed
    }
    fn conn_error(&self, id: ConnId) -> Option<TransportError> {
        SlTcpStack::conn_error(self, id)
    }
    fn readable_len(&self, id: ConnId) -> usize {
        SlTcpStack::readable_len(self, id)
    }
    fn send_capacity(&self, id: ConnId) -> usize {
        SlTcpStack::send_capacity(self, id)
    }
    fn established(&self) -> Vec<ConnId> {
        SlTcpStack::established(self)
    }
    fn conn_count(&self) -> usize {
        SlTcpStack::conn_count(self)
    }

    fn classify_frame(frame: &[u8]) -> Option<FrameMeta> {
        slwire::native::peek(frame).map(|(src, dst)| FrameMeta { src, dst })
    }
    fn conn_for_tuple(&self, tuple: &FourTuple) -> Option<ConnId> {
        SlTcpStack::conn_for_tuple(self, tuple)
    }
    fn take_frame(&mut self) -> Option<Vec<u8>> {
        SlTcpStack::take_frame(self)
    }
    fn pump_conn(&mut self, now: Time, id: ConnId) {
        SlTcpStack::pump_conn(self, now, id);
    }
    fn conn_deadline(&self, now: Time, id: ConnId) -> Option<Time> {
        SlTcpStack::conn_deadline(self, now, id)
    }
    fn tick_conn(&mut self, now: Time, id: ConnId) {
        SlTcpStack::tick_conn(self, now, id);
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

    fn set_pressure(&mut self, p: Pressure) {
        SlTcpStack::set_pressure(self, p);
    }
    fn gate_new_flows(&mut self, refuse: bool) {
        SlTcpStack::gate_new_flows(self, refuse);
    }
    fn conn_buffered(&self, id: ConnId) -> usize {
        SlTcpStack::conn_buffered(self, id)
    }
    fn conn_progress(&self, id: ConnId) -> u64 {
        SlTcpStack::conn_progress(self, id)
    }
    fn buffered_bytes(&self) -> usize {
        SlTcpStack::buffered_bytes(self)
    }
    fn stack_pressure_refusals(&self) -> u64 {
        self.stats.pressure_refusals
    }
    fn conn_rtx_bytes(&self, id: ConnId) -> usize {
        SlTcpStack::conn_rtx_bytes(self, id)
    }
    fn conn_oldest_unacked(&self, id: ConnId, now: Time) -> Option<netsim::Dur> {
        SlTcpStack::conn_oldest_unacked(self, id, now)
    }
}

impl HostStack for TcpStack {
    type ConnId = FourTuple;

    fn stack_name() -> &'static str {
        "monolithic"
    }
    fn local_addr(&self) -> u32 {
        self.addr()
    }
    fn listen(&mut self, port: u16) {
        TcpStack::listen(self, port);
    }
    fn set_max_conns(&mut self, max: usize) {
        TcpStack::set_max_conns(self, max);
    }
    fn try_connect(
        &mut self,
        now: Time,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<FourTuple, TransportError> {
        TcpStack::try_connect(self, now, local_port, remote)
    }
    fn try_connect_ephemeral(
        &mut self,
        now: Time,
        remote: Endpoint,
    ) -> Result<FourTuple, TransportError> {
        TcpStack::try_connect_ephemeral(self, now, remote)
    }
    fn send(&mut self, id: FourTuple, data: &[u8]) -> usize {
        TcpStack::send(self, id, data)
    }
    fn recv(&mut self, id: FourTuple) -> Vec<u8> {
        TcpStack::recv(self, id)
    }
    fn close(&mut self, id: FourTuple) {
        TcpStack::close(self, id);
    }
    fn abort(&mut self, _now: Time, id: FourTuple) {
        TcpStack::abort(self, id);
    }
    fn is_established(&self, id: FourTuple) -> bool {
        // Parity tie-break (conformance audit): the sublayered CM models
        // remote half-close as Established + `peer_closed` — there is no
        // CLOSE_WAIT sublayer state, because "peer finished sending" is a
        // delivery fact, not a connection-management one. CLOSE_WAIT is
        // the monolith's name for the same condition (synchronized, app
        // may still send), so it reads as established through the parity
        // surface; `peer_closed` carries the half-close either way.
        matches!(self.state(id), TcpState::Established | TcpState::CloseWait)
    }
    fn is_closed(&self, id: FourTuple) -> bool {
        self.state(id) == TcpState::Closed
    }
    fn peer_closed(&self, id: FourTuple) -> bool {
        TcpStack::peer_closed(self, id)
    }
    fn conn_error(&self, id: FourTuple) -> Option<TransportError> {
        TcpStack::conn_error(self, id)
    }
    fn readable_len(&self, id: FourTuple) -> usize {
        TcpStack::readable_len(self, id)
    }
    fn send_capacity(&self, id: FourTuple) -> usize {
        TcpStack::send_capacity(self, id)
    }
    fn established(&self) -> Vec<FourTuple> {
        TcpStack::established(self)
    }
    fn conn_count(&self) -> usize {
        TcpStack::conn_count(self)
    }

    fn classify_frame(frame: &[u8]) -> Option<FrameMeta> {
        slwire::rfc793::peek(frame).map(|(src, dst)| FrameMeta { src, dst })
    }
    fn conn_for_tuple(&self, tuple: &FourTuple) -> Option<FourTuple> {
        self.pcb(*tuple).map(|p| p.tuple)
    }
    fn take_frame(&mut self) -> Option<Vec<u8>> {
        TcpStack::take_frame(self)
    }
    fn pump_conn(&mut self, now: Time, id: FourTuple) {
        TcpStack::pump_conn(self, now, id);
    }
    fn conn_deadline(&self, now: Time, id: FourTuple) -> Option<Time> {
        TcpStack::conn_deadline(self, now, id)
    }
    fn tick_conn(&mut self, now: Time, id: FourTuple) {
        TcpStack::tick_conn(self, now, id);
    }

    fn set_pressure(&mut self, p: Pressure) {
        TcpStack::set_pressure(self, p);
    }
    fn gate_new_flows(&mut self, refuse: bool) {
        TcpStack::gate_new_flows(self, refuse);
    }
    fn conn_buffered(&self, id: FourTuple) -> usize {
        TcpStack::conn_buffered(self, id)
    }
    fn conn_progress(&self, id: FourTuple) -> u64 {
        TcpStack::conn_progress(self, id)
    }
    fn buffered_bytes(&self) -> usize {
        TcpStack::buffered_bytes(self)
    }
    fn stack_pressure_refusals(&self) -> u64 {
        self.stats.pressure_refusals
    }
    fn conn_rtx_bytes(&self, id: FourTuple) -> usize {
        TcpStack::conn_rtx_bytes(self, id)
    }
    fn conn_oldest_unacked(&self, id: FourTuple, now: Time) -> Option<netsim::Dur> {
        TcpStack::conn_oldest_unacked(self, id, now)
    }
}
