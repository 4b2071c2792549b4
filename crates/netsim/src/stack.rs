//! Sans-IO protocol stack adapter.
//!
//! Protocol endpoints in this workspace (ARQ machines, both TCPs, routing
//! daemons) are written *sans-IO*, in the style of event-driven stacks like
//! smoltcp: a [`Stack`] is a pure state machine that consumes frames and the
//! clock, and is polled for frames to transmit and for its next timer
//! deadline. This keeps protocol logic directly unit-testable — you can feed
//! it frames by hand — while [`StackNode`] adapts any `Stack` onto a
//! simulator [`Node`](crate::net::Node).

use crate::net::{Node, NodeCtx, PortId, TimerId};
use crate::time::Time;

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

/// `impl Stack` for a scripted client wrapped around its transport: frames,
/// transmissions and timers go to the `stack` field, the client's
/// `drive(now)` runs after every frame and tick, and the next deadline is
/// the earlier of the transport's and the script's `own_deadline()`.
///
/// ```ignore
/// netsim::client_stack!(EchoClient<S: HostStack>);
/// ```
#[macro_export]
macro_rules! client_stack {
    ($client:ident<$s:ident: $bound:path>) => {
        impl<$s: $bound> $crate::Stack for $client<$s> {
            fn on_frame(&mut self, now: $crate::Time, frame: &[u8]) {
                $crate::Stack::on_frame(&mut self.stack, now, frame);
                self.drive(now);
            }
            fn poll_transmit(&mut self, now: $crate::Time) -> Option<Vec<u8>> {
                $crate::Stack::poll_transmit(&mut self.stack, now)
            }
            fn poll_deadline(&self, now: $crate::Time) -> Option<$crate::Time> {
                let stack = $crate::Stack::poll_deadline(&self.stack, now);
                [self.own_deadline(), stack].into_iter().flatten().min()
            }
            fn on_tick(&mut self, now: $crate::Time) {
                $crate::Stack::on_tick(&mut self.stack, now);
                self.drive(now);
            }
        }
    };
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
        match self.stack.poll_deadline(ctx.now) {
            Some(deadline) => {
                let deadline = deadline.max(ctx.now);
                let needs_rearm = match self.armed {
                    None => true,
                    Some((at, _)) => deadline < at,
                };
                if needs_rearm {
                    if let Some((_, id)) = self.armed.take() {
                        ctx.cancel(id);
                    }
                    let id = ctx.arm_at(deadline, 0);
                    self.armed = Some((deadline, id));
                }
            }
            None => {
                if let Some((_, id)) = self.armed.take() {
                    ctx.cancel(id);
                }
            }
        }
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
        match self.stack.poll_deadline(ctx.now) {
            Some(deadline) => {
                let deadline = deadline.max(ctx.now);
                let needs_rearm = match self.armed {
                    None => true,
                    Some((at, _)) => deadline < at,
                };
                if needs_rearm {
                    if let Some((_, id)) = self.armed.take() {
                        ctx.cancel(id);
                    }
                    let id = ctx.arm_at(deadline, 0);
                    self.armed = Some((deadline, id));
                }
            }
            None => {
                if let Some((_, id)) = self.armed.take() {
                    ctx.cancel(id);
                }
            }
        }
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
    use crate::time::Dur;

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
}
