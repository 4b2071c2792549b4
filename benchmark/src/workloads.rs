//! The four workloads: what each one's application does (the scripts) and
//! how big it is (the specs). Why each exists is in `README.md`.
//!
//! Every op's payload is a window into a seeded random buffer, so writing
//! costs the driver no generation work and the receiver checks every byte
//! with one comparison against the same window.

use crate::pipe::Faults;
use crate::stats::Hist;
use crate::trace::{self, Name, NO_OP};
use crate::world::{Ends, Probe, Progress, Script, Server, Transport, SERVER};
use netsim::{DetRng, Dur, Time};
use slhost::HostStack;
use std::time::Instant;
use tcp_mono::wire::{Endpoint, FourTuple};

pub const SERVER_ADDR: u32 = 0x0A00_0001;
pub const SERVER_PORT: u16 = 80;
const CLIENT_ADDR_BASE: u32 = 0x0A01_0000;
/// `bulk`'s connection `c` uses this local port plus `c`.
const BULK_PORT_BASE: u16 = 40_000;
/// Payload windows start at an offset below this.
const OFFSETS: usize = 4096;

pub fn client_addr(i: usize) -> u32 {
    CLIENT_ADDR_BASE + i as u32
}

pub fn server_endpoint() -> Endpoint {
    Endpoint::new(SERVER_ADDR, SERVER_PORT)
}

/// What the application does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Long-lived connections from one bare client stack to one bare server
    /// stack; op = one record written by the client app and read in full by
    /// the server app.
    Records { conns: usize },
    /// Single-connection client stacks against a `ServedHost` + `EchoApp`;
    /// op = request → verified echo on a connection that stays open.
    Echo,
    /// As `Echo`, but every op opens its own connection and the client
    /// closes it once the echo is verified.
    ConnectEchoClose,
}

/// How long set-up keeps the workload running before anything is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Warmup {
    Ops(u64),
    /// Until the virtual clock passes this (and at least one op finished).
    Until(Dur),
}

/// One workload's fixed parameters.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    /// One-way virtual delay of the pipe.
    pub delay: Dur,
    pub faults: Faults,
    pub clients: usize,
    /// Bytes the client writes per op.
    pub op_bytes: usize,
    /// Virtual time between the starts of consecutive client groups.
    pub stagger: Dur,
    /// Clients that start together.
    pub group: usize,
    pub warmup: Warmup,
    /// Until this virtual time every client runs a second op loop beside
    /// its own, doubling the op rate. See [`CHURN`].
    pub fast_start: Option<Dur>,
    /// Ops in one timed batch: about a tenth of a second, so that a run
    /// holds dozens of batches and some of them escape the box's noise.
    pub batch_ops: u64,
    /// Ops in the counted batch.
    pub count_ops: u64,
}

pub const BULK: Spec = Spec {
    name: "bulk",
    why: "64 KiB records over 4 long-lived lossless connections: RD/OSR data path and wire codec at full MSS",
    shape: Shape::Records { conns: 4 },
    delay: Dur(50_000),
    faults: Faults::NONE,
    clients: 1,
    op_bytes: 64 * 1024,
    stagger: Dur::ZERO,
    group: 1,
    warmup: Warmup::Ops(256),
    fast_start: None,
    batch_ops: 512,
    count_ops: 1024,
};

pub const BULK_LOSSY: Spec = Spec {
    name: "bulk_lossy",
    why: "bulk over a pipe that drops 2 %, duplicates 0.5 %, holds back 1 %: loss recovery, reassembly, RTO, cc reactions",
    faults: Faults { drop: 0.02, duplicate: 0.005, hold_back: 0.01 },
    batch_ops: 512,
    // Which frames are lost depends on the seed, so the counts do too; over
    // 4,096 ops they differ by about a fifth of a percent between seeds.
    count_ops: 4096,
    ..BULK
};

pub const CHURN: Spec = Spec {
    name: "churn",
    why: "connect, 200 B echo, close per op from 16 clients at 10 ms: CM handshake/teardown, DM bind, construction, TIME-WAIT",
    shape: Shape::ConnectEchoClose,
    delay: Dur(10_000_000),
    faults: Faults::NONE,
    clients: 16,
    op_bytes: 200,
    // An op takes six one-way delays, so sixteen clients a sixteenth of an
    // op apart keep about five handshakes half-open at once — well under
    // MAX_HALF_OPEN, so the SYN-cookie path is not what is measured.
    stagger: Dur(3_750_000),
    group: 1,
    // TIME-WAIT lasts 10 s: some time past 11 s as many entries expire as
    // are made, about 167 per client.
    warmup: Warmup::Until(Dur(20_000_000_000)),
    // For the count metrics. The connection tables are std `HashMap`s hashed
    // with a per-process random seed. A table grown by insertion alone to
    // fit its steady population is left more than half full, and then grows
    // once more at a moment that depends on where removals left tombstones —
    // on the seed — which would put a reallocation of up to 0.5 MB into some
    // counted batches and not others. Eight seconds at twice the op rate
    // overshoot every table (two live connections per client at the server,
    // 267 lingering per client before any has expired), so that last growth
    // is forced by the entry count, at the same insertion in every process;
    // back at the steady population each table is under half full and only
    // ever rehashes in place.
    fast_start: Some(Dur(8_000_000_000)),
    batch_ops: 1024,
    count_ops: 2048,
};

pub const HOST_RR: Spec = Spec {
    name: "host_rr",
    why: "64 B request/echo over 1,000 open connections to one ServedHost: per-packet header, demux, slhost loop, timer wheel",
    shape: Shape::Echo,
    // 1,000 closed loops over a 20 ms round trip complete 50,000 ops per
    // virtual second, within a factor of three of what the stacks manage per
    // wall second — so a 1 ms timer-wheel tick sees about the re-arms it
    // would see in real time.
    // With a LAN delay the virtual clock runs two orders of magnitude behind
    // the wall clock, the wheel's lazily cancelled entries are never swept,
    // and throughput decays for as long as the run lasts.
    delay: Dur(10_000_000),
    faults: Faults::NONE,
    clients: 1000,
    op_bytes: 64,
    // Groups of 8 a handshake apart stay under MAX_HALF_OPEN.
    stagger: Dur(25_000_000),
    group: 8,
    // 600 ms of virtual time: past the 200 ms RTO horizon, so the wheel
    // sweeps as many cancelled entries as are left behind.
    warmup: Warmup::Ops(30_000),
    fast_start: None,
    batch_ops: 10_000,
    count_ops: 10_000,
};

pub const ALL: [Spec; 4] = [BULK, BULK_LOSSY, CHURN, HOST_RR];

pub fn find(name: &str) -> Option<Spec> {
    ALL.into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The same workload shrunk for `--smoke` and the tests: a sixteenth of
    /// the batch, a short warm-up, at most 64 clients.
    pub fn smoke(self) -> Spec {
        Spec {
            clients: self.clients.min(64),
            warmup: match self.warmup {
                Warmup::Ops(n) => Warmup::Ops(n / 16),
                Warmup::Until(_) => Warmup::Until(Dur(500_000_000)),
            },
            fast_start: None,
            batch_ops: self.batch_ops / 16,
            count_ops: self.count_ops / 16,
            ..self
        }
    }

    pub fn hosted(&self) -> bool {
        !matches!(self.shape, Shape::Records { .. })
    }
}

/// Seeded payload source shared by the scripts.
struct Payloads {
    master: Vec<u8>,
    rng: DetRng,
    len: usize,
}

impl Payloads {
    fn new(seed: u64, len: usize) -> Payloads {
        let mut rng = DetRng::new(seed ^ 0x51_62_65_6E_63_68);
        Payloads {
            master: rng.bytes(len + OFFSETS),
            rng,
            len,
        }
    }

    fn next_offset(&mut self) -> usize {
        self.rng.below(OFFSETS as u64) as usize
    }

    fn window(&self, offset: usize) -> &[u8] {
        &self.master[offset..offset + self.len]
    }

    /// Does `data` continue the window at `offset` from byte `got` on?
    fn matches(&self, offset: usize, got: usize, data: &[u8]) -> bool {
        got + data.len() <= self.len && self.master[offset + got..][..data.len()] == *data
    }
}

/// Wall-clock op latencies, kept only when a run asks for them so that the
/// timed batches never read the clock per op.
#[derive(Default)]
pub struct Latency(Option<Hist>);

impl Latency {
    fn start(&self) -> Option<Instant> {
        self.0.as_ref().map(|_| Instant::now())
    }
    fn finish(&mut self, started: Option<Instant>) {
        if let (Some(h), Some(t0)) = (self.0.as_mut(), started) {
            h.record(t0.elapsed().as_nanos() as u64);
        }
    }
    pub fn enable(&mut self) {
        self.0 = Some(Hist::default());
    }
    pub fn take(&mut self) -> Option<Hist> {
        self.0.take()
    }
}

/// What the run loop needs from any script beyond [`Script`].
pub trait Workload {
    fn latency(&mut self) -> &mut Latency;
    /// Op loops still running; 0 means every connection died and waiting
    /// longer is pointless.
    fn live(&self) -> usize;
    /// Bytes received and verified so far.
    fn verified_bytes(&self) -> u64;
}

// ---------------------------------------------------------------------
// bulk, bulk_lossy
// ---------------------------------------------------------------------

struct RecordConn<CI, SI> {
    client_id: CI,
    server_id: Option<SI>,
    tuple_at_server: FourTuple,
    writing: bool,
    dead: bool,
    offset: usize,
    got: usize,
    op: u32,
    started: Option<Instant>,
}

/// The application of `bulk` and `bulk_lossy`: a writer on the client
/// stack, a verifying reader on the server stack, one record in flight per
/// connection.
pub struct Records<CI, SI> {
    conns: Vec<RecordConn<CI, SI>>,
    payloads: Payloads,
    progress: Progress,
    next_op: u32,
    latency: Latency,
    verified: u64,
}

impl<CI: Copy, SI: Copy> Records<CI, SI> {
    /// Listen, open the connections, and return the script that runs them.
    pub fn open<C, V>(spec: &Spec, seed: u64, ends: &mut Ends<C, V>) -> Records<CI, SI>
    where
        C: Transport,
        C::App: HostStack<ConnId = CI>,
        V: Server,
        V::Stack: HostStack<ConnId = SI>,
    {
        let Shape::Records { conns } = spec.shape else {
            panic!("{} is not a records workload", spec.name)
        };
        ends.server.stack_mut().listen(SERVER_PORT);
        let client = &mut ends.clients[0];
        let local_addr = client.app_ref().local_addr();
        let conns = (0..conns)
            .map(|c| {
                let port = BULK_PORT_BASE + c as u16;
                let client_id = client
                    .app()
                    .try_connect(Time::ZERO, port, server_endpoint())
                    .expect("a fresh stack admits its first connections");
                RecordConn {
                    client_id,
                    server_id: None,
                    tuple_at_server: FourTuple {
                        local: server_endpoint(),
                        remote: Endpoint::new(local_addr, port),
                    },
                    writing: false,
                    dead: false,
                    offset: 0,
                    got: 0,
                    op: NO_OP,
                    started: None,
                }
            })
            .collect();
        Records {
            conns,
            payloads: Payloads::new(seed, spec.op_bytes),
            progress: Progress::default(),
            next_op: 0,
            latency: Latency::default(),
            verified: 0,
        }
    }
}

impl<C, V> Script<C, V> for Records<<C::App as HostStack>::ConnId, <V::Stack as HostStack>::ConnId>
where
    C: Transport,
    V: Server,
{
    fn step<P: Probe>(&mut self, ends: &mut Ends<C, V>, ep: u32, _now: Time) {
        let client = &mut ends.clients[0];
        for c in self.conns.iter_mut().filter(|c| !c.dead) {
            if client.app_ref().conn_error(c.client_id).is_some() {
                c.dead = true;
                self.progress.failed += 1;
                continue;
            }
            if ep == SERVER {
                let server = ends.server.stack_mut();
                if c.server_id.is_none() {
                    c.server_id = server.conn_for_tuple(&c.tuple_at_server);
                }
                let Some(sid) = c.server_id else { continue };
                if server.conn_error(sid).is_some() {
                    c.dead = true;
                    self.progress.failed += 1;
                    continue;
                }
                if server.readable_len(sid) == 0 {
                    continue;
                }
                if P::ON {
                    trace::set_op(c.op);
                }
                let data = P::span(Name::Recv, || server.recv(sid));
                ends.touched.push(SERVER);
                if !self.payloads.matches(c.offset, c.got, &data) {
                    c.dead = true;
                    self.progress.failed += 1;
                    continue;
                }
                c.got += data.len();
                self.verified += data.len() as u64;
                if c.got < self.payloads.len {
                    continue;
                }
                self.progress.done += 1;
                self.latency.finish(c.started.take());
                c.writing = false;
            }
            // Closed loop: the next record is written the moment the last
            // one has been read in full (or the connection came up).
            if !c.writing && client.app_ref().is_established(c.client_id) {
                c.offset = self.payloads.next_offset();
                c.got = 0;
                c.op = self.next_op;
                self.next_op = self.next_op.wrapping_add(1) % NO_OP;
                c.started = self.latency.start();
                if P::ON {
                    trace::set_op(c.op);
                }
                let record = self.payloads.window(c.offset);
                let id = c.client_id;
                let accepted = P::span(Name::Send, || client.app().send(id, record));
                ends.touched.push(1);
                c.writing = true;
                if accepted != record.len() {
                    // A record always fits the empty send buffer; a short
                    // write means the stack refused the op.
                    c.dead = true;
                    self.progress.failed += 1;
                }
            }
        }
    }

    fn op_of(&self, _client: usize, frame: &[u8], to_server: bool) -> u32 {
        let Some(meta) = <C::App as HostStack>::classify_frame(frame) else {
            return NO_OP;
        };
        let port = if to_server {
            meta.src.port
        } else {
            meta.dst.port
        };
        self.conns
            .get(port.wrapping_sub(BULK_PORT_BASE) as usize)
            .map_or(NO_OP, |c| c.op)
    }

    fn progress(&self) -> Progress {
        self.progress
    }
}

impl<CI, SI> Workload for Records<CI, SI> {
    fn latency(&mut self) -> &mut Latency {
        &mut self.latency
    }
    fn live(&self) -> usize {
        self.conns.iter().filter(|c| !c.dead).count()
    }
    fn verified_bytes(&self) -> u64 {
        self.verified
    }
}

// ---------------------------------------------------------------------
// churn, host_rr
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Not connected; connects once the clock reaches `start_at`.
    Idle,
    Connecting,
    /// Request sent, echo not complete.
    Waiting,
    /// Echo verified, `close` called, peer's FIN not yet in.
    Closing,
    /// A second loop whose time is up; it does nothing more.
    Retired,
}

/// One closed op loop: at most one connection, one op in flight.
struct EchoLoop<CI> {
    phase: Phase,
    start_at: Time,
    /// The loop retires when an op of its ends after this.
    retire_at: Option<Time>,
    id: Option<CI>,
    offset: usize,
    got: usize,
    op: u32,
    started: Option<Instant>,
}

/// The client application of `churn` and `host_rr`. The server application
/// is `slhost::EchoApp`, inside the `ServedHost` at endpoint 0.
pub struct Echo<CI> {
    /// Loop `lane * clients + i` runs on client stack `i`. Lane 0 is the
    /// workload; lane 1 exists only while a fast start lasts.
    loops: Vec<EchoLoop<CI>>,
    clients: usize,
    reconnect: bool,
    /// `host_rr` only: no request is sent before this, when the last group
    /// has connected — otherwise the first clients would run ops for as long
    /// as the others take to start, and set-up would be mostly that.
    go_at: Time,
    payloads: Payloads,
    progress: Progress,
    next_op: u32,
    latency: Latency,
    verified: u64,
    /// Second loops that have retired.
    retired: usize,
}

impl<CI: Copy> Echo<CI> {
    pub fn new(spec: &Spec, seed: u64) -> Echo<CI> {
        let lanes = if spec.fast_start.is_some() { 2 } else { 1 };
        let loops = (0..lanes * spec.clients)
            .map(|k| {
                let (lane, i) = (k / spec.clients, k % spec.clients);
                let start = spec.stagger.saturating_mul((i / spec.group) as u64);
                EchoLoop {
                    phase: Phase::Idle,
                    // The second loop starts half a stagger later, so the two
                    // never move in lockstep.
                    start_at: Time::ZERO + start + Dur(spec.stagger.0 / 2 * lane as u64),
                    retire_at: spec.fast_start.filter(|_| lane > 0).map(|t| Time::ZERO + t),
                    id: None,
                    offset: 0,
                    got: 0,
                    op: NO_OP,
                    started: None,
                }
            })
            .collect();
        let reconnect = spec.shape == Shape::ConnectEchoClose;
        let groups = spec.clients.div_ceil(spec.group) as u64;
        let connected = spec.stagger.saturating_mul(groups) + spec.delay.saturating_mul(4);
        Echo {
            loops,
            clients: spec.clients,
            reconnect,
            go_at: if reconnect {
                Time::ZERO
            } else {
                Time::ZERO + connected
            },
            payloads: Payloads::new(seed, spec.op_bytes),
            progress: Progress::default(),
            next_op: 0,
            latency: Latency::default(),
            verified: 0,
            retired: 0,
        }
    }

    fn begin_op(&mut self, k: usize) {
        let op = self.next_op;
        self.next_op = self.next_op.wrapping_add(1) % NO_OP;
        let offset = self.payloads.next_offset();
        let started = self.latency.start();
        let c = &mut self.loops[k];
        (c.op, c.offset, c.got, c.started) = (op, offset, 0, started);
    }

    fn finish_op(&mut self, k: usize) {
        self.progress.done += 1;
        let started = self.loops[k].started.take();
        self.latency.finish(started);
    }

    /// The op failed: forget the connection and start over at `now`.
    fn fail_op(&mut self, k: usize, now: Time) {
        self.progress.failed += 1;
        let c = &mut self.loops[k];
        (c.phase, c.id, c.start_at, c.started) = (Phase::Idle, None, now, None);
    }

    /// Move loop `k`, which runs on `stack` at endpoint `ep`, as far as it
    /// can go without another frame.
    fn drive<P: Probe, C>(
        &mut self,
        k: usize,
        stack: &mut C,
        ep: u32,
        now: Time,
        wakeups: &mut Vec<(Time, u32)>,
    ) where
        C: Transport,
        C::App: HostStack<ConnId = CI>,
    {
        loop {
            if P::ON {
                trace::set_op(self.loops[k].op);
            }
            if let Some(id) = self.loops[k].id {
                if stack.app_ref().conn_error(id).is_some() {
                    self.fail_op(k, now); // aborted or refused
                }
            }
            match (self.loops[k].phase, self.loops[k].id) {
                (Phase::Retired, _) => return,
                (Phase::Idle, _) => {
                    if self.loops[k].retire_at.is_some_and(|t| now >= t) {
                        self.loops[k].phase = Phase::Retired;
                        self.retired += 1;
                        return;
                    }
                    if now < self.loops[k].start_at {
                        wakeups.push((self.loops[k].start_at, ep));
                        return;
                    }
                    if self.reconnect {
                        self.begin_op(k);
                        if P::ON {
                            trace::set_op(self.loops[k].op);
                        }
                    }
                    let opened = P::span(Name::Connect, || {
                        stack.app().try_connect_ephemeral(now, server_endpoint())
                    });
                    match opened {
                        Ok(id) => {
                            self.loops[k].id = Some(id);
                            self.loops[k].phase = Phase::Connecting;
                        }
                        Err(_) => {
                            // Ports or table full: look again after a delay.
                            self.fail_op(k, now + Dur::from_millis(100));
                            wakeups.push((self.loops[k].start_at, ep));
                        }
                    }
                    return;
                }
                (Phase::Connecting, Some(id)) => {
                    if !stack.app_ref().is_established(id) {
                        return;
                    }
                    if now < self.go_at {
                        wakeups.push((self.go_at, ep));
                        return;
                    }
                    if !self.reconnect {
                        self.begin_op(k);
                    }
                    self.loops[k].phase = Phase::Waiting;
                    let request = self.payloads.window(self.loops[k].offset);
                    if P::span(Name::Send, || stack.app().send(id, request)) != request.len() {
                        self.progress.failed += 1;
                    }
                    return;
                }
                (Phase::Waiting, Some(id)) => {
                    if stack.app_ref().readable_len(id) == 0 {
                        return;
                    }
                    let data = P::span(Name::Recv, || stack.app().recv(id));
                    let c = &mut self.loops[k];
                    if !self.payloads.matches(c.offset, c.got, &data) {
                        // A wrong byte: fail the op, start over on a new
                        // connection.
                        P::span(Name::Close, || stack.app().close(id));
                        self.fail_op(k, now);
                        continue;
                    }
                    c.got += data.len();
                    self.verified += data.len() as u64;
                    if c.got < self.payloads.len {
                        return;
                    }
                    if self.reconnect {
                        P::span(Name::Close, || stack.app().close(id));
                        c.phase = Phase::Closing;
                        return;
                    }
                    self.finish_op(k);
                    self.begin_op(k);
                    let request = self.payloads.window(self.loops[k].offset);
                    if P::span(Name::Send, || stack.app().send(id, request)) != request.len() {
                        self.progress.failed += 1;
                    }
                    return;
                }
                (Phase::Closing, Some(id)) => {
                    // The peer's FIN follows its ACK of ours on a FIFO pipe,
                    // so once it is in, both FINs are acknowledged (ours by
                    // the peer, the peer's by the ACK this stack now owes).
                    let app = stack.app_ref();
                    if !(app.peer_closed(id) || app.is_closed(id)) {
                        return;
                    }
                    self.finish_op(k);
                    let c = &mut self.loops[k];
                    (c.phase, c.id, c.start_at) = (Phase::Idle, None, now);
                }
                (_, None) => unreachable!("only an idle loop has no connection"),
            }
        }
    }
}

impl<C, V> Script<C, V> for Echo<<C::App as HostStack>::ConnId>
where
    C: Transport,
    V: Server,
{
    fn step<P: Probe>(&mut self, ends: &mut Ends<C, V>, ep: u32, now: Time) {
        if ep == SERVER {
            return; // EchoApp runs inside the served host
        }
        let i = ep as usize - 1;
        if i >= self.clients {
            return; // no client of this script's
        }
        for k in (i..self.loops.len()).step_by(self.clients) {
            self.drive::<P, C>(k, &mut ends.clients[i], ep, now, &mut ends.wakeups);
        }
    }

    fn op_of(&self, client: usize, _frame: &[u8], _to_server: bool) -> u32 {
        self.loops.get(client).map_or(NO_OP, |c| c.op)
    }

    fn progress(&self) -> Progress {
        self.progress
    }
}

impl<CI> Workload for Echo<CI> {
    fn latency(&mut self) -> &mut Latency {
        &mut self.latency
    }
    fn live(&self) -> usize {
        self.loops.len() - self.retired
    }
    fn verified_bytes(&self) -> u64 {
        self.verified
    }
}

/// A script that does nothing: in-flight ops stall where they are while the
/// stacks finish what needs no application (handshakes, ACKs). The
/// connection-heap probe runs under it.
pub struct Quiet;

impl<C: Transport, V: Server> Script<C, V> for Quiet {
    fn step<P: Probe>(&mut self, _: &mut Ends<C, V>, _: u32, _: Time) {}
    fn op_of(&self, _: usize, _: &[u8], _: bool) -> u32 {
        NO_OP
    }
    fn progress(&self) -> Progress {
        Progress::default()
    }
}
