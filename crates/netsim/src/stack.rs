//! Sans-IO protocol stack adapter.
//!
//! Protocol endpoints in this workspace (ARQ machines, both TCPs, routing
//! daemons) are written *sans-IO*, in the style of event-driven stacks like
//! smoltcp: a [`Stack`] is a pure state machine that consumes frames and the
//! clock, and is polled for frames to transmit and for its next timer
//! deadline. This keeps protocol logic directly unit-testable — you can feed
//! it frames by hand — while [`StackNode`] adapts any `Stack` onto a
//! simulator [`Node`](crate::net::Node).
//!
//! [`HostStack`] extends `Stack` with what a transport exposes to the
//! application and to a many-connection host (`slhost::Host` is generic
//! over it). Both TCP stacks (`sublayer-core`, `tcp-mono`) implement it on
//! their own type, so nothing above them links either; `slhost`'s
//! `tests/parity.rs` runs one scripted scenario against both and asserts
//! identical observable behaviour.

use crate::net::{Node, NodeCtx, PortId, TimerId};
use crate::time::{Dur, Time};
use slwire::hash::FxBuildHasher;
use slwire::{Endpoint, FourTuple};
use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

/// Terminal connection failure surfaced by a transport stack.
///
/// Graceful degradation contract: when a peer vanishes or a link stays
/// partitioned past the retry budget, a stack must *abort* the affected
/// connection and report one of these — never hang, spin, or panic. Both the
/// sublayered stack and the monolithic baseline surface the same vocabulary
/// so chaos campaigns can assert parity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransportError {
    /// Data retransmissions were exhausted without the peer acknowledging
    /// progress.
    RetriesExhausted,
    /// The peer reset the connection (inbound RST).
    Reset,
    /// Keepalive probes went unanswered; the peer is presumed gone.
    PeerVanished,
    /// The connection never completed establishment (SYN retries exhausted).
    HandshakeFailed,
    /// The host's connection table is at capacity; no new connection can
    /// be admitted (accept path refuses, active open fails typed).
    ConnTableFull,
    /// Every ephemeral port toward the requested remote endpoint is in
    /// use; an active open cannot be given a local port.
    PortsExhausted,
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::RetriesExhausted => write!(f, "connection aborted: retries exhausted"),
            TransportError::Reset => write!(f, "connection reset by peer"),
            TransportError::PeerVanished => write!(f, "connection aborted: peer vanished"),
            TransportError::HandshakeFailed => write!(f, "connection aborted: handshake failed"),
            TransportError::ConnTableFull => write!(f, "connection refused: connection table full"),
            TransportError::PortsExhausted => write!(f, "connect failed: ephemeral ports exhausted"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Why the connections that died abnormally died, kept past their removal
/// for [`HostStack::conn_error`], as many as the connection table holds:
/// recording one more first forgets the oldest.
pub struct ErrorLog<K> {
    reasons: HashMap<K, TransportError, FxBuildHasher>,
    /// The keys of `reasons`, oldest first.
    order: VecDeque<K>,
}

impl<K: Copy + Eq + Hash> ErrorLog<K> {
    pub fn with_hasher(hasher: FxBuildHasher) -> ErrorLog<K> {
        ErrorLog { reasons: HashMap::with_hasher(hasher), order: VecDeque::new() }
    }

    /// Record why `k` died, unless that is recorded already (the first
    /// cause is the one reported), keeping at most `cap` reasons — but
    /// always the newest.
    pub fn record(&mut self, k: K, reason: TransportError, cap: usize) {
        if self.reasons.contains_key(&k) {
            return;
        }
        while self.order.len() >= cap {
            let Some(oldest) = self.order.pop_front() else { break };
            self.reasons.remove(&oldest);
        }
        self.reasons.insert(k, reason);
        self.order.push_back(k);
    }

    /// A new connection took `k`: its predecessor's reason is not its own.
    pub fn forget(&mut self, k: &K) {
        if self.reasons.remove(k).is_some() {
            self.order.retain(|o| o != k);
        }
    }

    pub fn get(&self, k: &K) -> Option<TransportError> {
        self.reasons.get(k).copied()
    }

    /// The recorded keys, in the table's order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.reasons.keys()
    }
}

/// Idle keepalive policy, off unless a stack is configured with one: after
/// `idle` without inbound packets, probe every `interval`; after
/// `max_probes` unanswered probes the connection is aborted with
/// [`TransportError::PeerVanished`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Keepalive {
    /// Idle time before the first probe.
    pub idle: Dur,
    /// Gap between successive unanswered probes.
    pub interval: Dur,
    /// Unanswered probes tolerated before the connection is aborted.
    pub max_probes: u32,
}

impl Default for Keepalive {
    fn default() -> Keepalive {
        Keepalive {
            idle: Dur::from_secs(10),
            interval: Dur::from_secs(2),
            max_probes: 5,
        }
    }
}

/// A poll-driven protocol endpoint.
pub trait Stack: 'static {
    /// Handle a frame received at `now`.
    fn on_frame(&mut self, now: Time, frame: &[u8]);

    /// Return the next frame to transmit, or `None` when idle. Called
    /// repeatedly until it returns `None`.
    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>>;

    /// The next instant at which [`Stack::on_tick`] must run, or `None` when
    /// no timer is pending. Deadlines at or before `now` mean "tick me
    /// immediately".
    fn poll_deadline(&self, now: Time) -> Option<Time>;

    /// Advance timers to `now`. Spurious calls (before any deadline) must be
    /// harmless.
    fn on_tick(&mut self, now: Time);
}

/// Host memory-pressure tier, derived from budget occupancy. Shared by
/// both stacks so the overload experiment (E16) compares the sublayered
/// and monolithic backpressure plumbing like for like: the *tier* and its
/// thresholds are policy owned by the host; how each stack reacts to it
/// (window clamp, ACK pacing, accept gating) is the mechanism under test.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pressure {
    /// Under half the budget: no intervention.
    #[default]
    Nominal,
    /// Over 1/2 of budget: defer new accepts, halve advertised windows.
    Elevated,
    /// Over 3/4 of budget: shed idle connections, clamp windows to a
    /// quarter, pace pure ACKs.
    High,
    /// Over 9/10 of budget: refuse new flows outright.
    Critical,
}

impl Pressure {
    /// Tier for `used` bytes against `budget` (0 = unlimited ⇒ Nominal).
    pub fn from_occupancy(used: u64, budget: u64) -> Pressure {
        if budget == 0 {
            return Pressure::Nominal;
        }
        // Integer thresholds: >=90%, >=75%, >=50% of budget.
        if used.saturating_mul(10) >= budget.saturating_mul(9) {
            Pressure::Critical
        } else if used.saturating_mul(4) >= budget.saturating_mul(3) {
            Pressure::High
        } else if used.saturating_mul(2) >= budget {
            Pressure::Elevated
        } else {
            Pressure::Nominal
        }
    }

    /// Right-shift applied to the advertised receive window at this tier
    /// (window = free-space >> shift): deeper pressure, smaller windows,
    /// slower inbound byte growth.
    pub fn wnd_shift(self) -> u32 {
        match self {
            Pressure::Nominal => 0,
            Pressure::Elevated => 1,
            Pressure::High => 2,
            Pressure::Critical => 3,
        }
    }

    /// Should pure ACKs be paced (delayed/coalesced) at this tier?
    pub fn paces_acks(self) -> bool {
        self >= Pressure::High
    }

    /// Should brand-new inbound flows be refused at this tier?
    pub fn refuses_new_flows(self) -> bool {
        self >= Pressure::Critical
    }

    /// Stable label for reports/JSON.
    pub fn label(self) -> &'static str {
        match self {
            Pressure::Nominal => "nominal",
            Pressure::Elevated => "elevated",
            Pressure::High => "high",
            Pressure::Critical => "critical",
        }
    }
}

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

/// A connection table's capacity until [`HostStack::set_max_conns`] says
/// otherwise.
pub const MAX_CONNS: usize = 16384;

/// What a transport must expose for a host (`slhost::Host`) to serve many
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
    /// Bound the connection table (capacity beyond it refuses opens;
    /// [`MAX_CONNS`] until set), and the record of dead connections'
    /// errors with it.
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
    /// host's `slhost::ResourceBudget` reads to pick
    /// eviction victims: under memory pressure the flow stuck longest
    /// behind a dead path is the one to shed.
    fn conn_oldest_unacked(&self, id: Self::ConnId, now: Time) -> Option<Dur>;
}

/// A poll-driven protocol endpoint attached to *several* links (a server
/// host facing many clients). Identical contract to [`Stack`] except that
/// frames are tagged with the port they arrived on / should leave by.
pub trait MultiStack: 'static {
    /// Handle a frame received on `port` at `now`.
    fn on_frame(&mut self, now: Time, port: PortId, frame: &[u8]);

    /// Next frame to transmit and the port to send it on, or `None` when
    /// idle. Called repeatedly until it returns `None`.
    fn poll_transmit(&mut self, now: Time) -> Option<(PortId, Vec<u8>)>;

    /// The next instant at which [`MultiStack::on_tick`] must run.
    fn poll_deadline(&self, now: Time) -> Option<Time>;

    /// Advance timers to `now`. Spurious calls must be harmless.
    fn on_tick(&mut self, now: Time);
}

/// Keep a node's one simulator timer on its stack's next `deadline`: armed
/// earlier when the deadline moved up, cancelled when there is none, left
/// alone otherwise (a timer that fires early costs one spurious tick).
fn rearm(armed: &mut Option<(Time, TimerId)>, deadline: Option<Time>, ctx: &mut NodeCtx) {
    let deadline = deadline.map(|d| d.max(ctx.now));
    if let (Some(deadline), Some((at, _))) = (deadline, *armed) {
        if at <= deadline {
            return;
        }
    }
    if let Some((_, id)) = armed.take() {
        ctx.cancel(id);
    }
    if let Some(deadline) = deadline {
        *armed = Some((deadline, ctx.arm_at(deadline, 0)));
    }
}

/// Adapter embedding a sans-IO [`MultiStack`] as a multi-port simulator
/// node — the server end of a [`crate::star`] topology.
pub struct MultiStackNode<S: MultiStack> {
    /// The protocol endpoint, freely accessible between simulation steps.
    pub stack: S,
    armed: Option<(Time, TimerId)>,
}

impl<S: MultiStack> MultiStackNode<S> {
    pub fn new(stack: S) -> Self {
        MultiStackNode { stack, armed: None }
    }

    fn pump(&mut self, ctx: &mut NodeCtx) {
        while let Some((port, frame)) = self.stack.poll_transmit(ctx.now) {
            ctx.send(port, frame);
        }
        rearm(&mut self.armed, self.stack.poll_deadline(ctx.now), ctx);
    }
}

impl<S: MultiStack> Node for MultiStackNode<S> {
    fn on_frame(&mut self, port: PortId, frame: Vec<u8>, ctx: &mut NodeCtx) {
        self.stack.on_frame(ctx.now, port, &frame);
        self.pump(ctx);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut NodeCtx) {
        self.armed = None;
        self.stack.on_tick(ctx.now);
        self.pump(ctx);
    }

    fn poll(&mut self, ctx: &mut NodeCtx) {
        self.pump(ctx);
    }
}

/// Adapter embedding a sans-IO [`Stack`] as a single-port simulator node.
pub struct StackNode<S: Stack> {
    /// The protocol endpoint. Freely accessible for inspection and for
    /// driving the application-side API between simulation steps.
    pub stack: S,
    armed: Option<(Time, TimerId)>,
}

impl<S: Stack> StackNode<S> {
    pub fn new(stack: S) -> Self {
        StackNode { stack, armed: None }
    }

    fn pump(&mut self, ctx: &mut NodeCtx) {
        while let Some(frame) = self.stack.poll_transmit(ctx.now) {
            ctx.send(0, frame);
        }
        rearm(&mut self.armed, self.stack.poll_deadline(ctx.now), ctx);
    }
}

impl<S: Stack> Node for StackNode<S> {
    fn on_frame(&mut self, _port: PortId, frame: Vec<u8>, ctx: &mut NodeCtx) {
        self.stack.on_frame(ctx.now, &frame);
        self.pump(ctx);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut NodeCtx) {
        self.armed = None;
        self.stack.on_tick(ctx.now);
        self.pump(ctx);
    }

    fn poll(&mut self, ctx: &mut NodeCtx) {
        self.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LinkParams, SimNet};

    /// Emits `n` frames paced one per millisecond, then goes idle.
    struct Ticker {
        remaining: u32,
        next_at: Time,
        ready: bool,
    }
    impl Stack for Ticker {
        fn on_frame(&mut self, _: Time, _: &[u8]) {}
        fn poll_transmit(&mut self, _: Time) -> Option<Vec<u8>> {
            if self.ready {
                self.ready = false;
                Some(vec![self.remaining as u8])
            } else {
                None
            }
        }
        fn poll_deadline(&self, _: Time) -> Option<Time> {
            (self.remaining > 0).then_some(self.next_at)
        }
        fn on_tick(&mut self, now: Time) {
            if self.remaining > 0 && now >= self.next_at {
                self.remaining -= 1;
                self.ready = true;
                self.next_at = now + Dur::from_millis(1);
            }
        }
    }

    struct Collector {
        got: Vec<Vec<u8>>,
    }
    impl Stack for Collector {
        fn on_frame(&mut self, _: Time, frame: &[u8]) {
            self.got.push(frame.to_vec());
        }
        fn poll_transmit(&mut self, _: Time) -> Option<Vec<u8>> {
            None
        }
        fn poll_deadline(&self, _: Time) -> Option<Time> {
            None
        }
        fn on_tick(&mut self, _: Time) {}
    }

    #[test]
    fn paced_sender_delivers_all() {
        let mut net = SimNet::new(4);
        let t = net.add_node(Box::new(StackNode::new(Ticker {
            remaining: 5,
            next_at: Time::ZERO,
            ready: false,
        })));
        let c = net.add_node(Box::new(StackNode::new(Collector { got: vec![] })));
        net.connect(t, 0, c, 0, LinkParams::delay_only(Dur::from_micros(100)));
        net.poll_all();
        net.run_to_idle(Time::ZERO + Dur::from_secs(1));
        let got = &net.node::<StackNode<Collector>>(c).stack.got;
        assert_eq!(got.len(), 5);
        // `remaining` is decremented before the frame is emitted.
        assert_eq!(got[0], vec![4]);
        assert_eq!(got[4], vec![0]);
    }

    #[test]
    fn idle_stack_schedules_nothing() {
        let mut net = SimNet::new(4);
        net.add_node(Box::new(StackNode::new(Collector { got: vec![] })));
        net.poll_all();
        assert!(net.is_idle());
    }

    #[test]
    fn pressure_tiers_from_occupancy() {
        let b = 1000;
        assert_eq!(Pressure::from_occupancy(0, b), Pressure::Nominal);
        assert_eq!(Pressure::from_occupancy(499, b), Pressure::Nominal);
        assert_eq!(Pressure::from_occupancy(500, b), Pressure::Elevated);
        assert_eq!(Pressure::from_occupancy(749, b), Pressure::Elevated);
        assert_eq!(Pressure::from_occupancy(750, b), Pressure::High);
        assert_eq!(Pressure::from_occupancy(899, b), Pressure::High);
        assert_eq!(Pressure::from_occupancy(900, b), Pressure::Critical);
        assert_eq!(Pressure::from_occupancy(5000, b), Pressure::Critical);
        // No budget = no pressure, ever.
        assert_eq!(Pressure::from_occupancy(u64::MAX, 0), Pressure::Nominal);
    }

    #[test]
    fn pressure_tiers_order_and_policies() {
        assert!(Pressure::Nominal < Pressure::Elevated);
        assert!(Pressure::Elevated < Pressure::High);
        assert!(Pressure::High < Pressure::Critical);
        assert_eq!(Pressure::Nominal.wnd_shift(), 0);
        assert_eq!(Pressure::Critical.wnd_shift(), 3);
        assert!(!Pressure::Elevated.paces_acks());
        assert!(Pressure::High.paces_acks());
        assert!(!Pressure::High.refuses_new_flows());
        assert!(Pressure::Critical.refuses_new_flows());
    }
}
