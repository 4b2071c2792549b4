//! The lockstep scenario runner.
//!
//! One [`run_scenario`] call plays a [`Scenario`] against one stack kind:
//! a client and a server of the *same* kind (the two formats are not
//! wire-compatible) exchange traffic through a deterministic `netsim`
//! link while every frame is captured by a [`netsim::TapStack`] on each
//! endpoint. The differential harness (`diff`) runs the same scenario
//! against both kinds with the same seed and compares the outcomes; the
//! oracle judges each captured trace on its own.
//!
//! Injections are byte-precise: the victim stack's own
//! `expected_wire_seq` introspection aims the forged RST/SYN exactly
//! (RFC 5961's "oracle attacker"), offset per [`RstOff`].

use crate::absseg::{normalize, AbsSeg};
use crate::scenario::{Ev, FaultKind, LinkSpec, RstOff, Scenario, Side};
use crate::wire::Kind;
use netsim::{
    tap_buffer, AdminOp, BurstLoss, Dur, FaultProfile, Keepalive, LinkParams, NodeId, SimNet,
    Stack, StackNode, TapEvent, TapStack, Time, TransportError,
};
use slhost::{observe, ConnObs, HostStack};
use slmetrics::{shared, SharedLog};
use sublayer_core::{SlConfig, SlTcpStack};
use slwire::{Endpoint, FourTuple};
use tcp_mono::TcpStack;

/// Client address/port (active opener).
pub const A_ADDR: u32 = 0x0A000001;
/// Server address/port (listener).
pub const B_ADDR: u32 = 0x0A000002;
pub const CLIENT_PORT: u16 = 5000;
pub const SERVER_PORT: u16 = 80;

fn client_ep() -> Endpoint {
    Endpoint::new(A_ADDR, CLIENT_PORT)
}
fn server_ep() -> Endpoint {
    Endpoint::new(B_ADDR, SERVER_PORT)
}

fn t(ms: u64) -> Time {
    Time::ZERO + Dur::from_millis(ms)
}

/// A deliberately seeded stack bug, applied to the *client* endpoint of a
/// run — the harness's own mutation tests prove the pipeline catches and
/// shrinks these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    None,
    /// Every transmitted cumulative ack claims `delta` bytes the endpoint
    /// never received.
    AckFuture { delta: u32 },
    /// Swallow every outgoing pure ack (kills challenge ACKs and
    /// handshake completion acks).
    DropPureAcks,
}

/// The fault wrapper sits *inside* the tap, so the tap records what
/// actually reached the wire.
pub struct BugStack<S: Stack> {
    pub inner: S,
    kind: Kind,
    mutation: Mutation,
}

impl<S: Stack> BugStack<S> {
    pub fn new(inner: S, kind: Kind, mutation: Mutation) -> Self {
        BugStack { inner, kind, mutation }
    }
}

impl<S: Stack> Stack for BugStack<S> {
    fn on_frame(&mut self, now: Time, frame: &[u8]) {
        self.inner.on_frame(now, frame);
    }
    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        loop {
            let frame = self.inner.poll_transmit(now)?;
            match self.mutation {
                Mutation::None => return Some(frame),
                Mutation::AckFuture { delta } => {
                    return Some(self.kind.bump_ack(&frame, delta).unwrap_or(frame))
                }
                Mutation::DropPureAcks => {
                    let pure = self
                        .kind
                        .decode(&frame)
                        .is_some_and(|r| r.ack && !r.syn && !r.fin && !r.rst && r.len == 0);
                    if !pure {
                        return Some(frame);
                    }
                    // Swallowed; try the next queued frame.
                }
            }
        }
    }
    fn poll_deadline(&self, now: Time) -> Option<Time> {
        self.inner.poll_deadline(now)
    }
    fn on_tick(&mut self, now: Time) {
        self.inner.on_tick(now);
    }
}

/// What the harnesses need from a transport beyond [`HostStack`]: a
/// constructor with the two things they vary (keepalive and the access
/// log) and the `expected_wire_seq` introspection both stacks expose for
/// byte-precise injection aiming.
pub trait ConformStack: HostStack + Sized {
    const KIND: Kind;
    /// A stack at `addr` recording into `log`, keepalive armed or off.
    fn mk_with(addr: u32, keepalive: Option<Keepalive>, log: SharedLog) -> Self;
    fn expected_seq(&self, id: Self::ConnId) -> Option<u32>;

    fn mk(addr: u32) -> Self {
        Self::mk_with(addr, None, shared())
    }

    /// Keepalive armed at its default 10 s / 2 s / x5 — chaos, attack and
    /// topology run their endpoints this way so a dead path surfaces as a
    /// typed abort, and the reroute profiles pin "keepalive defers while
    /// data is in flight" under a live RTT step.
    fn mk_keepalive(addr: u32) -> Self {
        Self::mk_with(addr, Some(Keepalive::default()), shared())
    }
}

impl ConformStack for SlTcpStack {
    const KIND: Kind = Kind::Sub;
    fn mk_with(addr: u32, keepalive: Option<Keepalive>, log: SharedLog) -> Self {
        SlTcpStack::new(addr, SlConfig { keepalive, ..SlConfig::default() }, log)
    }
    fn expected_seq(&self, id: Self::ConnId) -> Option<u32> {
        self.expected_wire_seq(id)
    }
}

impl ConformStack for TcpStack {
    const KIND: Kind = Kind::Mono;
    fn mk_with(addr: u32, keepalive: Option<Keepalive>, log: SharedLog) -> Self {
        TcpStack::with_keepalive(addr, keepalive, log)
    }
    fn expected_seq(&self, id: Self::ConnId) -> Option<u32> {
        self.expected_wire_seq(id)
    }
}

/// Application-level operation applied to one endpoint, recorded with its
/// simulated time for byte-level replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppOp {
    Listen,
    Connect,
    /// The bytes the app *offered* (the stack may accept a short count —
    /// replay re-offers the same bytes).
    Send(Vec<u8>),
    Recv,
    Close,
    Abort,
    /// A forged frame delivered straight to this endpoint.
    Inject(Vec<u8>),
}

/// Everything observed at one endpoint of one run.
#[derive(Clone, Debug, Default)]
pub struct EndpointOut {
    /// Raw captured frames, both directions.
    pub raw: Vec<TapEvent>,
    /// The same trace in ISN-relative form.
    pub abs: Vec<AbsSeg>,
    /// App ops with timestamps (ns), for replay.
    pub app: Vec<(u64, AppOp)>,
    /// Final connection observation through the parity surface.
    pub obs: ConnObs,
    /// The endpoint ever had a connection handle.
    pub conn_known: bool,
    /// Establishment was observed at some event boundary.
    pub established_ever: bool,
    /// Bytes the application read, in order.
    pub delivered: Vec<u8>,
    /// Bytes the stack accepted into its send buffer, in order.
    pub queued: Vec<u8>,
    /// Immediate error from `try_connect`, if any.
    pub connect_err: Option<TransportError>,
    /// App called close / abort at some point.
    pub closed_by_app: bool,
    pub aborted_by_app: bool,
}

/// One full scenario run against one stack kind.
#[derive(Clone, Debug)]
pub struct RunOut {
    pub kind: Kind,
    pub seed: u64,
    pub client: EndpointOut,
    pub server: EndpointOut,
}

fn link_params(spec: LinkSpec) -> LinkParams {
    let fault = match spec.fault {
        FaultKind::None => FaultProfile::none(),
        FaultKind::LossPm(pm) => FaultProfile::lossy(pm as f64 / 1000.0),
        FaultKind::Burst => {
            FaultProfile::none().with_burst(BurstLoss::gilbert(0.02, 0.25, 0.6))
        }
        FaultKind::ReorderPm(pm) => {
            FaultProfile::none().with_reorder(pm as f64 / 1000.0, Dur::from_millis(15))
        }
        FaultKind::DupPm(pm) => FaultProfile::none().with_duplicate(pm as f64 / 1000.0),
    };
    LinkParams::delay_only(Dur::from_millis(spec.delay_ms)).with_fault(fault)
}

/// Deterministic payload: each side's stream is a distinct rotating
/// pattern so misdelivery (not just loss) is detectable.
pub fn pattern(side: Side, offset: usize, len: usize) -> Vec<u8> {
    let salt: u8 = match side {
        Side::Client => 0,
        Side::Server => 101,
    };
    (0..len).map(|i| (((offset + i) % 251) as u8).wrapping_add(salt)).collect()
}

type Node<H> = StackNode<TapStack<BugStack<H>>>;

/// Run `sc` against stack kind `H::KIND` with a clean client.
pub fn run_scenario<H: ConformStack>(sc: &Scenario, seed: u64) -> RunOut {
    run_scenario_mutated::<H>(sc, seed, Mutation::None)
}

/// Dispatch by [`Kind`] value.
pub fn run_kind(kind: Kind, sc: &Scenario, seed: u64, mutation: Mutation) -> RunOut {
    match kind {
        Kind::Sub => run_scenario_mutated::<SlTcpStack>(sc, seed, mutation),
        Kind::Mono => run_scenario_mutated::<TcpStack>(sc, seed, mutation),
    }
}

/// Run `sc` with `mutation` seeded into the client endpoint.
pub fn run_scenario_mutated<H: ConformStack>(sc: &Scenario, seed: u64, mutation: Mutation) -> RunOut {
    let kind = H::KIND;
    let client = H::mk(A_ADDR);
    let mut server = H::mk(B_ADDR);
    let mut c_out = EndpointOut::default();
    let mut s_out = EndpointOut::default();
    if sc.listen {
        server.listen(SERVER_PORT);
        s_out.app.push((0, AppOp::Listen));
    }
    let c_tap = tap_buffer();
    let s_tap = tap_buffer();
    let (mut net, nc, ns) = netsim::two_party(
        seed,
        TapStack::new(BugStack::new(client, kind, mutation), c_tap.clone()),
        TapStack::new(BugStack::new(server, kind, Mutation::None), s_tap.clone()),
        link_params(sc.link),
    );

    let mut c_conn: Option<H::ConnId> = None;
    let mut s_conn: Option<H::ConnId> = None;
    let mut c_sent = 0usize; // pattern offsets
    let mut s_sent = 0usize;

    // Helper closures can't borrow `net` twice; use small fns instead.
    fn stack_mut<H: ConformStack>(net: &mut SimNet, id: NodeId) -> &mut H {
        &mut net.node_mut::<Node<H>>(id).stack.inner.inner
    }
    fn tap_stack_mut<H: ConformStack>(net: &mut SimNet, id: NodeId) -> &mut TapStack<BugStack<H>> {
        &mut net.node_mut::<Node<H>>(id).stack
    }

    let server_tuple = FourTuple { local: server_ep(), remote: client_ep() };

    for (at_ms, ev) in &sc.events {
        let target = t(*at_ms);
        if target > net.now() {
            net.run_until(target);
        }
        let now = net.now();
        let now_ns = now.nanos();
        // The server's accepted connection appears asynchronously; pick
        // the handle up at every event boundary.
        if s_conn.is_none() && !sc.server_connects {
            s_conn = stack_mut::<H>(&mut net, ns).conn_for_tuple(&server_tuple);
            if s_conn.is_some() {
                s_out.conn_known = true;
            }
        }
        match ev {
            Ev::Connect => {
                c_out.app.push((now_ns, AppOp::Connect));
                match stack_mut::<H>(&mut net, nc).try_connect(now, CLIENT_PORT, server_ep()) {
                    Ok(id) => {
                        c_conn = Some(id);
                        c_out.conn_known = true;
                    }
                    Err(e) => c_out.connect_err = Some(e),
                }
                if sc.server_connects {
                    s_out.app.push((now_ns, AppOp::Connect));
                    match stack_mut::<H>(&mut net, ns).try_connect(now, SERVER_PORT, client_ep()) {
                        Ok(id) => {
                            s_conn = Some(id);
                            s_out.conn_known = true;
                        }
                        Err(e) => s_out.connect_err = Some(e),
                    }
                }
            }
            Ev::Send { side, len } => {
                let (node, conn, out, sent) = match side {
                    Side::Client => (nc, c_conn, &mut c_out, &mut c_sent),
                    Side::Server => (ns, s_conn, &mut s_out, &mut s_sent),
                };
                if let Some(id) = conn {
                    let bytes = pattern(*side, *sent, *len as usize);
                    out.app.push((now_ns, AppOp::Send(bytes.clone())));
                    let accepted = stack_mut::<H>(&mut net, node).send(id, &bytes);
                    out.queued.extend_from_slice(&bytes[..accepted]);
                    *sent += bytes.len();
                }
            }
            Ev::Recv { side } => {
                let (node, conn, out) = match side {
                    Side::Client => (nc, c_conn, &mut c_out),
                    Side::Server => (ns, s_conn, &mut s_out),
                };
                if let Some(id) = conn {
                    out.app.push((now_ns, AppOp::Recv));
                    let got = stack_mut::<H>(&mut net, node).recv(id);
                    out.delivered.extend_from_slice(&got);
                }
            }
            Ev::Close { side } => {
                let (node, conn, out) = match side {
                    Side::Client => (nc, c_conn, &mut c_out),
                    Side::Server => (ns, s_conn, &mut s_out),
                };
                if let Some(id) = conn {
                    out.app.push((now_ns, AppOp::Close));
                    out.closed_by_app = true;
                    stack_mut::<H>(&mut net, node).close(id);
                }
            }
            Ev::Abort { side } => {
                let (node, conn, out) = match side {
                    Side::Client => (nc, c_conn, &mut c_out),
                    Side::Server => (ns, s_conn, &mut s_out),
                };
                if let Some(id) = conn {
                    out.app.push((now_ns, AppOp::Abort));
                    out.aborted_by_app = true;
                    stack_mut::<H>(&mut net, node).abort(now, id);
                }
            }
            Ev::InjectRst { to, off } => {
                let (node, conn, out, src, dst) = match to {
                    Side::Client => (nc, c_conn, &mut c_out, server_ep(), client_ep()),
                    Side::Server => (ns, s_conn, &mut s_out, client_ep(), server_ep()),
                };
                if let Some(id) = conn {
                    if let Some(exact) = stack_mut::<H>(&mut net, node).expected_seq(id) {
                        let seq = match off {
                            RstOff::Exact => exact,
                            RstOff::InWindow => exact.wrapping_add(1_000),
                            RstOff::Outside => exact.wrapping_add(0x4000_0000),
                        };
                        let frame = kind.forge_rst(src, dst, seq);
                        out.app.push((now_ns, AppOp::Inject(frame.clone())));
                        tap_stack_mut::<H>(&mut net, node).on_frame(now, &frame);
                    }
                }
            }
            Ev::InjectSyn { to } => {
                let (node, conn, out, src, dst) = match to {
                    Side::Client => (nc, c_conn, &mut c_out, server_ep(), client_ep()),
                    Side::Server => (ns, s_conn, &mut s_out, client_ep(), server_ep()),
                };
                if let Some(id) = conn {
                    if let Some(exact) = stack_mut::<H>(&mut net, node).expected_seq(id) {
                        let frame = kind.forge_syn(src, dst, exact.wrapping_add(99_999));
                        out.app.push((now_ns, AppOp::Inject(frame.clone())));
                        tap_stack_mut::<H>(&mut net, node).on_frame(now, &frame);
                    }
                }
            }
            // Admin ops are queue events; drain to `now` so the flip is
            // in effect before later same-instant events pump frames.
            Ev::LinkDown => {
                net.schedule_admin(now, AdminOp::LinkDown(0));
                net.run_until(now);
            }
            Ev::LinkUp => {
                net.schedule_admin(now, AdminOp::LinkUp(0));
                net.run_until(now);
            }
        }
        net.poll_all();
        // Establishment sampling at event boundaries.
        if let Some(id) = c_conn {
            c_out.established_ever |= stack_mut::<H>(&mut net, nc).is_established(id);
        }
        if let Some(id) = s_conn {
            s_out.established_ever |= stack_mut::<H>(&mut net, ns).is_established(id);
        }
    }

    // Quiet period: let retransmits, closes and timers settle.
    let end = t(sc.end_ms() + sc.quiet_ms);
    if end > net.now() {
        net.run_until(end);
    }
    if s_conn.is_none() && !sc.server_connects {
        s_conn = stack_mut::<H>(&mut net, ns).conn_for_tuple(&server_tuple);
        if s_conn.is_some() {
            s_out.conn_known = true;
        }
    }
    let end_ns = net.now().nanos();

    // Final drain (recorded, so replay matches), then observe.
    for (node, conn, out) in [(nc, c_conn, &mut c_out), (ns, s_conn, &mut s_out)] {
        if let Some(id) = conn {
            out.established_ever |= stack_mut::<H>(&mut net, node).is_established(id);
            out.app.push((end_ns, AppOp::Recv));
            let got = stack_mut::<H>(&mut net, node).recv(id);
            out.delivered.extend_from_slice(&got);
            out.obs = observe(stack_mut::<H>(&mut net, node), id);
        } else {
            // Never had a connection: reads as closed, nothing readable.
            out.obs = ConnObs { closed: true, ..ConnObs::default() };
        }
    }

    c_out.raw = c_tap.borrow().clone();
    s_out.raw = s_tap.borrow().clone();
    c_out.abs = normalize(kind, &c_out.raw);
    s_out.abs = normalize(kind, &s_out.raw);

    RunOut { kind: H::KIND, seed, client: c_out, server: s_out }
}
