//! The driver: endpoints joined by a [`Pipe`], a virtual clock, and the
//! event loop that moves frames and fires timers. One process, one thread,
//! no `netsim` event loop — the only wall-clock time that passes is spent
//! inside the stacks, in the workload's application step, or here.
//!
//! Endpoint 0 is the server, endpoint `i + 1` is client `i`. The server is
//! either a bare stack ([`Bare`]) or a [`ServedHost`] with its [`EchoApp`];
//! clients are always bare stacks. Both stacks are driven through
//! [`HostStack`], so every workload is written once.

use crate::pipe::Pipe;
use crate::trace::{self, Name};
use netsim::{MultiStack, Stack, Time};
use slhost::{EchoApp, HostStack, ServedHost};
use slmetrics::{HostCounters, SharedLog};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use sublayer_core::shim::ShimStack;
use sublayer_core::{CrossingStats, SlConfig, SlTcpStack};
use tcp_mono::TcpStack;

/// Frames due at one instant reach an endpoint in bursts of at most this
/// many before the endpoint is polled — the shape of a poll-mode NIC.
pub const BURST: usize = 32;

/// The server's endpoint number.
pub const SERVER: u32 = 0;

/// The boundary-crossing counts the benchmark reports, out of the public
/// `CrossingStats`: segments OSR→RD, deliveries RD→OSR, summarized signals
/// RD→OSR, and packets through RD/CM/DM in either direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Crossings {
    pub osr_to_rd: u64,
    pub rd_to_osr: u64,
    pub signals_up: u64,
    pub packets: u64,
}

impl Crossings {
    fn of(c: &CrossingStats) -> Crossings {
        Crossings {
            osr_to_rd: c.osr_to_rd_segments,
            rd_to_osr: c.rd_to_osr_segments,
            signals_up: c.signals_up,
            packets: c.packets_tx + c.packets_rx,
        }
    }

    /// All crossings, as `HostStack::crossing_events` adds them up.
    pub fn events(&self) -> u64 {
        self.osr_to_rd + self.rd_to_osr + self.signals_up + self.packets
    }

    /// Field by field: `self + sign * other`, `sign` being 1 or -1.
    pub fn combine(self, other: Crossings, sign: i64) -> Crossings {
        let f = |a: u64, b: u64| a.wrapping_add_signed(sign * b as i64);
        Crossings {
            osr_to_rd: f(self.osr_to_rd, other.osr_to_rd),
            rd_to_osr: f(self.rd_to_osr, other.rd_to_osr),
            signals_up: f(self.signals_up, other.signals_up),
            packets: f(self.packets, other.packets),
        }
    }
}

/// Whether the driver's calls are wrapped in spans. A type parameter, so
/// the untraced loop compiles to the bare calls.
pub trait Probe {
    const ON: bool;
    fn span<R>(name: Name, f: impl FnOnce() -> R) -> R;
    fn span_opt<R>(name: Name, f: impl FnOnce() -> Option<R>) -> Option<R>;
}

pub struct Untraced;
pub struct Traced;

impl Probe for Untraced {
    const ON: bool = false;
    #[inline(always)]
    fn span<R>(_: Name, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    fn span_opt<R>(_: Name, f: impl FnOnce() -> Option<R>) -> Option<R> {
        f()
    }
}

impl Probe for Traced {
    const ON: bool = true;
    fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
        trace::span(name, f)
    }
    fn span_opt<R>(name: Name, f: impl FnOnce() -> Option<R>) -> Option<R> {
        trace::span_opt(name, f)
    }
}

/// A bare endpoint: the wire side is [`Stack`], the application side is the
/// [`HostStack`] it exposes through [`Transport::app`].
pub trait Transport: Stack + Sized {
    type App: HostStack;
    fn build(addr: u32, log: SharedLog) -> Self;
    fn app(&mut self) -> &mut Self::App;
    fn app_ref(&self) -> &Self::App;
    /// Segments retransmitted so far. `TcpStats` counts per stack; `RdStats`
    /// counts per connection, so the sublayered figure covers the
    /// connections that are established now.
    fn retransmits(&self) -> u64;
    /// Boundary crossings so far, for stacks that have boundaries.
    fn crossings(&self) -> Option<Crossings> {
        None
    }
}

fn sub_retransmits(s: &SlTcpStack) -> u64 {
    s.established()
        .into_iter()
        .filter_map(|id| s.rd_stats(id))
        .map(|r| r.retransmits)
        .sum()
}

impl Transport for SlTcpStack {
    type App = SlTcpStack;
    fn build(addr: u32, log: SharedLog) -> Self {
        SlTcpStack::new(addr, SlConfig::default(), log)
    }
    fn app(&mut self) -> &mut SlTcpStack {
        self
    }
    fn app_ref(&self) -> &SlTcpStack {
        self
    }
    fn retransmits(&self) -> u64 {
        sub_retransmits(self)
    }
    fn crossings(&self) -> Option<Crossings> {
        Some(Crossings::of(&self.crossings))
    }
}

impl Transport for TcpStack {
    type App = TcpStack;
    fn build(addr: u32, log: SharedLog) -> Self {
        TcpStack::new(addr, log)
    }
    fn app(&mut self) -> &mut TcpStack {
        self
    }
    fn app_ref(&self) -> &TcpStack {
        self
    }
    fn retransmits(&self) -> u64 {
        self.stats.rto_retransmits + self.stats.fast_retransmits
    }
}

/// The interop arm: a sublayered stack speaking RFC 793 through the shim.
impl Transport for ShimStack {
    type App = SlTcpStack;
    fn build(addr: u32, log: SharedLog) -> Self {
        ShimStack::new(SlTcpStack::new(addr, SlConfig::default(), log))
    }
    fn app(&mut self) -> &mut SlTcpStack {
        &mut self.inner
    }
    fn app_ref(&self) -> &SlTcpStack {
        &self.inner
    }
    fn retransmits(&self) -> u64 {
        sub_retransmits(&self.inner)
    }
    fn crossings(&self) -> Option<Crossings> {
        Some(Crossings::of(&self.inner.crossings))
    }
}

/// What sits at endpoint 0. `port` is the client's index, the way a
/// `netsim::star` hub numbers its links.
pub trait Server {
    type Stack: HostStack;
    fn on_frame<P: Probe>(&mut self, now: Time, port: usize, frame: &[u8]);
    fn poll_transmit<P: Probe>(&mut self, now: Time) -> Option<(usize, Vec<u8>)>;
    fn poll_deadline<P: Probe>(&self, now: Time) -> Option<Time>;
    fn on_tick<P: Probe>(&mut self, now: Time);
    fn stack(&self) -> &Self::Stack;
    fn stack_mut(&mut self) -> &mut Self::Stack;
    fn retransmits(&self) -> u64;
    fn crossings(&self) -> Option<Crossings>;
    /// The host layer's counters, when there is a host layer.
    fn host_counters(&self) -> Option<HostCounters>;
}

/// A bare stack as the server: it has one link, so one client.
pub struct Bare<S>(pub S);

impl<S: Transport> Server for Bare<S> {
    type Stack = S::App;
    fn on_frame<P: Probe>(&mut self, now: Time, _port: usize, frame: &[u8]) {
        P::span(Name::OnFrame, || self.0.on_frame(now, frame));
    }
    fn poll_transmit<P: Probe>(&mut self, now: Time) -> Option<(usize, Vec<u8>)> {
        P::span_opt(Name::PollTransmit, || self.0.poll_transmit(now)).map(|f| (0, f))
    }
    fn poll_deadline<P: Probe>(&self, now: Time) -> Option<Time> {
        P::span(Name::PollDeadline, || self.0.poll_deadline(now))
    }
    fn on_tick<P: Probe>(&mut self, now: Time) {
        P::span(Name::OnTick, || self.0.on_tick(now));
    }
    fn stack(&self) -> &S::App {
        self.0.app_ref()
    }
    fn stack_mut(&mut self) -> &mut S::App {
        self.0.app()
    }
    fn retransmits(&self) -> u64 {
        self.0.retransmits()
    }
    fn crossings(&self) -> Option<Crossings> {
        self.0.crossings()
    }
    fn host_counters(&self) -> Option<HostCounters> {
        None
    }
}

impl<S: Transport + HostStack> Server for ServedHost<S, EchoApp> {
    type Stack = S;
    fn on_frame<P: Probe>(&mut self, now: Time, port: usize, frame: &[u8]) {
        P::span(Name::HostOnFrame, || {
            MultiStack::on_frame(self, now, port, frame)
        });
    }
    fn poll_transmit<P: Probe>(&mut self, now: Time) -> Option<(usize, Vec<u8>)> {
        P::span_opt(Name::HostPollTransmit, || {
            MultiStack::poll_transmit(self, now)
        })
    }
    fn poll_deadline<P: Probe>(&self, now: Time) -> Option<Time> {
        P::span(Name::HostPollDeadline, || {
            MultiStack::poll_deadline(self, now)
        })
    }
    fn on_tick<P: Probe>(&mut self, now: Time) {
        P::span(Name::HostOnTick, || MultiStack::on_tick(self, now));
    }
    fn stack(&self) -> &S {
        self.host.stack()
    }
    fn stack_mut(&mut self) -> &mut S {
        self.host.stack_mut()
    }
    fn retransmits(&self) -> u64 {
        Transport::retransmits(self.host.stack())
    }
    fn crossings(&self) -> Option<Crossings> {
        Transport::crossings(self.host.stack())
    }
    fn host_counters(&self) -> Option<HostCounters> {
        Some(self.host.counters)
    }
}

/// The endpoints, and the two lists a workload's application step may add
/// to: other endpoints it called into, and times it wants to be woken.
pub struct Ends<C, V> {
    pub server: V,
    pub clients: Vec<C>,
    /// Endpoints whose stack the step just called into from outside their
    /// own turn; the driver drains their transmit queues next.
    pub touched: Vec<u32>,
    /// `(when, endpoint)`: run the step for `endpoint` at `when`.
    pub wakeups: Vec<(Time, u32)>,
}

/// A workload's application logic.
pub trait Script<C: Transport, V: Server> {
    /// Endpoint `ep` was just handed a burst of frames, ticked, or woken:
    /// read, verify, write, connect or close as the workload prescribes.
    fn step<P: Probe>(&mut self, ends: &mut Ends<C, V>, ep: u32, now: Time);
    /// The request a frame between client `client` and the server belongs
    /// to (traced runs only; labels the spans).
    fn op_of(&self, client: usize, frame: &[u8], to_server: bool) -> u32;
    fn progress(&self) -> Progress;
}

/// How far a workload has come.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Ops completed with every byte verified.
    pub done: u64,
    /// Ops that mismatched, aborted or were refused.
    pub failed: u64,
}

/// Activity counters the driver keeps, read before and after a batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    pub frames: u64,
    pub wire_bytes: u64,
}

/// The event loop found nothing in flight and no timer armed while the
/// workload was still waiting: the stacks deadlocked.
#[derive(Debug, PartialEq, Eq)]
pub struct Stalled;

pub struct World<C: Transport, V: Server> {
    pub ends: Ends<C, V>,
    pub pipe: Pipe,
    pub now: Time,
    /// One live entry per endpoint at most, armed the way
    /// `netsim::StackNode::pump` arms its timer: only when the endpoint's
    /// deadline moves earlier, so a deadline that moves later costs one
    /// spurious tick, not a heap operation per frame.
    timers: BinaryHeap<Reverse<(Time, u32)>>,
    armed: Vec<Option<Time>>,
    pub traffic: Traffic,
    /// When set, the first frames delivered are copied here (the codec
    /// micro-benchmarks replay them).
    pub tap: Option<Vec<Vec<u8>>>,
}

impl<C: Transport, V: Server> World<C, V> {
    pub fn new(server: V, clients: Vec<C>, pipe: Pipe) -> World<C, V> {
        let n = clients.len() + 1;
        World {
            ends: Ends {
                server,
                clients,
                touched: Vec::with_capacity(64),
                wakeups: Vec::with_capacity(n),
            },
            pipe,
            now: Time::ZERO,
            // Room for the stale entries that wait to be skipped as well.
            timers: BinaryHeap::with_capacity(8 * n + 1024),
            armed: vec![None; n],
            traffic: Traffic::default(),
            tap: None,
        }
    }

    fn arm(&mut self, ep: u32, at: Time) {
        let at = at.max(self.now);
        if self.armed[ep as usize].is_none_or(|have| at < have) {
            self.armed[ep as usize] = Some(at);
            self.timers.push(Reverse((at, ep)));
        }
    }

    /// Drain `ep`'s transmit queue into the pipe and re-arm its timer.
    fn flush<P: Probe>(&mut self, ep: u32) {
        let now = self.now;
        let deadline = if ep == SERVER {
            while let Some((port, frame)) = self.ends.server.poll_transmit::<P>(now) {
                self.pipe.send(now, SERVER, port as u32 + 1, frame);
            }
            self.ends.server.poll_deadline::<P>(now)
        } else {
            let c = &mut self.ends.clients[ep as usize - 1];
            while let Some(frame) = P::span_opt(Name::PollTransmit, || c.poll_transmit(now)) {
                self.pipe.send(now, ep, SERVER, frame);
            }
            P::span(Name::PollDeadline, || c.poll_deadline(now))
        };
        if let Some(at) = deadline {
            self.arm(ep, at);
        }
    }

    /// Run the application step for `ep`, then flush it and whatever other
    /// endpoint the step called into.
    fn settle<P: Probe, W: Script<C, V>>(&mut self, script: &mut W, ep: u32) {
        script.step::<P>(&mut self.ends, ep, self.now);
        // An empty span per turn calibrates the clock under the very
        // conditions the real spans meet.
        P::span(Name::Empty, || ());
        self.flush::<P>(ep);
        while let Some(other) = self.ends.touched.pop() {
            if other != ep {
                self.flush::<P>(other);
            }
        }
        while let Some((at, who)) = self.ends.wakeups.pop() {
            self.arm(who, at);
        }
    }

    /// Run the step for every endpoint once — how a workload starts, and
    /// how a script that was swapped in picks up where the last one left.
    pub fn kick<P: Probe, W: Script<C, V>>(&mut self, script: &mut W) {
        for ep in 0..=self.ends.clients.len() as u32 {
            self.settle::<P, W>(script, ep);
        }
    }

    /// Advance virtual time event by event until `done` says stop.
    pub fn run<P: Probe, W: Script<C, V>>(
        &mut self,
        script: &mut W,
        mut done: impl FnMut(&Self, &W) -> bool,
    ) -> Result<(), Stalled> {
        while !done(self, script) {
            let next_timer = self.timers.peek().map(|&Reverse((at, _))| at);
            let next = match (self.pipe.next_due(), next_timer) {
                (Some(a), Some(b)) => a.min(b),
                (a, b) => a.or(b).ok_or(Stalled)?,
            };
            self.now = self.now.max(next);
            let now = self.now;

            while let Some(to) = self.pipe.due_for(now) {
                let mut burst = 0;
                while burst < BURST {
                    let Some(f) = self.pipe.pop_due(now, to) else {
                        break;
                    };
                    if let Some(tap) = self.tap.as_mut().filter(|t| t.len() < t.capacity()) {
                        tap.push(f.frame.clone());
                    }
                    let client = if to == SERVER { f.from } else { to } as usize - 1;
                    if P::ON {
                        trace::set_op(script.op_of(client, &f.frame, to == SERVER));
                    }
                    // A duplicated frame is one buffer delivered twice.
                    for _ in 0..f.copies {
                        burst += 1;
                        self.traffic.frames += 1;
                        self.traffic.wire_bytes += f.frame.len() as u64;
                        if to == SERVER {
                            self.ends.server.on_frame::<P>(now, client, &f.frame);
                        } else {
                            let c = &mut self.ends.clients[client];
                            P::span(Name::OnFrame, || c.on_frame(now, &f.frame));
                        }
                    }
                }
                self.settle::<P, W>(script, to);
            }

            while let Some(&Reverse((at, ep))) = self.timers.peek() {
                if at > now {
                    break;
                }
                self.timers.pop();
                if self.armed[ep as usize] != Some(at) {
                    continue; // superseded by an earlier deadline
                }
                self.armed[ep as usize] = None;
                if ep == SERVER {
                    self.ends.server.on_tick::<P>(now);
                } else {
                    let c = &mut self.ends.clients[ep as usize - 1];
                    P::span(Name::OnTick, || c.on_tick(now));
                }
                self.settle::<P, W>(script, ep);
            }
        }
        Ok(())
    }
}
