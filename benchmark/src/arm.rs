//! An *arm*: one stack under one workload — a [`World`] plus its script —
//! behind an object-safe handle, so the orchestration in `run.rs` is
//! written once while the event loop stays monomorphic per stack.

use crate::alloc::{self, Counts};
use crate::chain::SubChain;
use crate::pipe::Pipe;
use crate::stats::Hist;
use crate::workloads::{
    client_addr, server_endpoint, Echo, Quiet, Records, Shape, Spec, Warmup, Workload, SERVER_ADDR,
};
use crate::world::{
    Bare, Crossings, Progress, Script, Server, Stalled, Traced, Traffic, Transport, Untraced, World,
};
use netsim::{Dur, Time};
use slhost::{EchoApp, Host, HostConfig, HostStack, ServedHost};
use slmetrics::{HostCounters, SharedLog};
use std::time::{Duration, Instant};
use sublayer_core::shim::ShimStack;
use sublayer_core::SlTcpStack;
use tcp_mono::TcpStack;

/// Virtual time the connection-heap probe waits before it counts: longer than
/// TIME-WAIT (10 s), so no lingering entry is left to expire.
const SETTLE: Dur = Dur(12_000_000_000);

/// Which implementation an arm runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `SlTcpStack` at every endpoint.
    Sub,
    /// `TcpStack` at every endpoint.
    Mono,
    /// [`SubChain`] at every endpoint.
    Chain,
    /// `ShimStack` clients against a `TcpStack` server.
    Shim,
}

/// How a batch is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No spans, allocator counting off: the only mode whose wall time is
    /// reported as throughput.
    Timed,
    /// Spans around every call.
    Traced,
    /// Allocator counting on for exactly the event loop.
    Counted,
}

/// What one batch did.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    pub ops: u64,
    pub failed: u64,
    pub wall: Duration,
    pub traffic: Traffic,
    pub retransmits: u64,
    /// What the event loop allocated; zero unless the batch was `Counted`.
    pub allocs: Counts,
    /// Boundary crossings during the batch, both ends summed.
    pub crossings: Option<Crossings>,
    /// Host-layer counters during the batch.
    pub host: Option<HostCounters>,
}

impl Batch {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// Monotone counters of an arm, read before and after a batch.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub progress: Progress,
    pub traffic: Traffic,
    pub retransmits: u64,
    pub crossings: Option<Crossings>,
    pub host: Option<HostCounters>,
}

pub trait Arm {
    /// Run until `ops` more ops have completed or failed.
    fn batch(&mut self, ops: u64, mode: Mode) -> Batch;
    fn snapshot(&self) -> Snapshot;
    /// Stall the workload, open `n` connections that then sit idle, and return
    /// how much the live heap grows when `n` more are opened. Leaves the arm
    /// unfit for batches.
    fn probe_conn_heap(&mut self, n: usize) -> Counts;
    /// Copy the next `n` delivered frames.
    fn tap(&mut self, n: usize);
    fn take_tap(&mut self) -> Vec<Vec<u8>>;
    fn record_latency(&mut self);
    fn take_latency(&mut self) -> Option<Hist>;
    /// Bytes received and verified so far.
    fn verified_bytes(&self) -> u64;
}

struct ArmOf<C: Transport, V: Server, W> {
    world: World<C, V>,
    script: W,
    /// Set once the event loop reported a deadlock; later batches fail fast.
    stalled: bool,
}

impl<C, V, W> ArmOf<C, V, W>
where
    C: Transport,
    V: Server,
    W: Script<C, V> + Workload,
{
    fn run_until(&mut self, traced: bool, done: impl FnMut(&World<C, V>, &W) -> bool) {
        if self.stalled {
            return;
        }
        let outcome = if traced {
            self.world.run::<Traced, W>(&mut self.script, done)
        } else {
            self.world.run::<Untraced, W>(&mut self.script, done)
        };
        self.stalled = outcome == Err(Stalled);
    }

    fn retransmits(&self) -> u64 {
        let ends = &self.world.ends;
        ends.server.retransmits() + ends.clients.iter().map(Transport::retransmits).sum::<u64>()
    }

    fn warm_up(&mut self, spec: &Spec) {
        self.world.kick::<Untraced, W>(&mut self.script);
        match spec.warmup {
            Warmup::Ops(n) => {
                self.batch(n, Mode::Timed);
            }
            Warmup::Until(t) => {
                let until = Time::ZERO + t;
                self.run_until(false, |w, s| {
                    (w.now >= until && s.progress().done > 0) || s.live() == 0
                });
            }
        }
    }
}

impl<C, V, W> Arm for ArmOf<C, V, W>
where
    C: Transport,
    V: Server,
    W: Script<C, V> + Workload,
{
    fn batch(&mut self, ops: u64, mode: Mode) -> Batch {
        let before = self.snapshot();
        let target = before.progress.done + before.progress.failed + ops;
        let done = |_: &World<C, V>, s: &W| {
            let p = s.progress();
            p.done + p.failed >= target || s.live() == 0
        };
        let t0 = Instant::now();
        let allocs = match mode {
            Mode::Timed => {
                self.run_until(false, done);
                Counts::default()
            }
            Mode::Traced => {
                self.run_until(true, done);
                Counts::default()
            }
            Mode::Counted => alloc::count(|| self.run_until(false, done)).1,
        };
        let wall = t0.elapsed();
        let after = self.snapshot();
        let done = after.progress.done - before.progress.done;
        let mut failed = after.progress.failed - before.progress.failed;
        if done + failed < ops {
            // Deadlocked or every connection dead: the ops never finished.
            failed += ops - done - failed;
        }
        Batch {
            ops: done,
            failed,
            wall,
            traffic: Traffic {
                frames: after.traffic.frames - before.traffic.frames,
                wire_bytes: after.traffic.wire_bytes - before.traffic.wire_bytes,
            },
            retransmits: after.retransmits.saturating_sub(before.retransmits),
            allocs,
            crossings: after
                .crossings
                .zip(before.crossings)
                .map(|(a, b)| a.combine(b, -1)),
            host: after.host.zip(before.host).map(|(a, b)| HostCounters {
                frames_in: a.frames_in - b.frames_in,
                frames_out: a.frames_out - b.frames_out,
                events_dispatched: a.events_dispatched - b.events_dispatched,
                timer_fires: a.timer_fires - b.timer_fires,
                timer_touches: a.timer_touches - b.timer_touches,
                ticks: a.ticks - b.ticks,
                lookup_misses: a.lookup_misses - b.lookup_misses,
                ..HostCounters::default()
            }),
        }
    }

    fn snapshot(&self) -> Snapshot {
        let ends = &self.world.ends;
        // Both ends cross their boundaries; report the sum, like frames.
        let crossings = ends
            .clients
            .iter()
            .filter_map(Transport::crossings)
            .chain(ends.server.crossings())
            .reduce(|a, b| a.combine(b, 1));
        Snapshot {
            progress: self.script.progress(),
            traffic: self.world.traffic,
            retransmits: self.retransmits(),
            crossings,
            host: ends.server.host_counters(),
        }
    }

    fn probe_conn_heap(&mut self, n: usize) -> Counts {
        let world = &mut self.world;
        // Stall the workload and let everything that needs no application
        // run out first — frames in flight, and every TIME-WAIT entry, whose
        // expiry inside the counted region would read as negative growth.
        let settled = world.now + SETTLE;
        let _ = world.run::<Untraced, Quiet>(&mut Quiet, |w, _| w.now >= settled);
        let mut expected = world.ends.server.stack().established().len();
        let mut ids = Vec::with_capacity(8);
        let mut open = |world: &mut World<C, V>| {
            let clients = world.ends.clients.len();
            // Groups of 8 keep the server's half-open queue short of
            // MAX_HALF_OPEN, so no SYN is answered with a cookie.
            for group in (0..n).step_by(8) {
                ids.clear();
                for k in group..n.min(group + 8) {
                    let (ep, now) = (k % clients, world.now);
                    let id = world.ends.clients[ep]
                        .app()
                        .try_connect_ephemeral(now, server_endpoint())
                        .expect("the probe's connections fit the tables");
                    ids.push((ep, id));
                }
                expected += ids.len();
                world.kick::<Untraced, Quiet>(&mut Quiet);
                // Until both ends hold every connection of the group
                // established — on a lossy pipe that can take a SYN timeout.
                let _ = world.run::<Untraced, Quiet>(&mut Quiet, |w, _| {
                    w.pipe.is_empty()
                        && ids
                            .iter()
                            .all(|&(ep, id)| w.ends.clients[ep].app_ref().is_established(id))
                        && w.ends.server.stack().established().len() >= expected
                });
            }
        };
        // How full a hash table is after a workload with removals depends on
        // the process's hash seed; after `n` insertions in a row it depends
        // on the entry count alone. So the first `n` connections only prime
        // the tables, and the growth counted is that of the next `n`.
        open(world);
        alloc::count(|| open(world)).1
    }

    fn tap(&mut self, n: usize) {
        self.world.tap = Some(Vec::with_capacity(n));
    }

    fn take_tap(&mut self) -> Vec<Vec<u8>> {
        self.world.tap.take().unwrap_or_default()
    }

    fn record_latency(&mut self) {
        self.script.latency().enable();
    }

    fn take_latency(&mut self) -> Option<Hist> {
        self.script.latency().take()
    }

    fn verified_bytes(&self) -> u64 {
        self.script.verified_bytes()
    }
}

/// How an arm's stacks log their state accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Logs {
    /// `slmetrics::muted()`: every measured arm.
    Muted,
    /// `slmetrics::shared()`: the instrumentation-tax arm only.
    Unmuted,
}

impl Logs {
    fn make(self) -> SharedLog {
        match self {
            Logs::Muted => slmetrics::muted(),
            Logs::Unmuted => slmetrics::shared(),
        }
    }
}

fn pipe_for(spec: &Spec, seed: u64) -> Pipe {
    // A window of frames per connection is the most that is ever in flight.
    let capacity = match spec.shape {
        Shape::Records { conns } => 4096 * conns,
        _ => 16 * spec.clients + 1024,
    };
    Pipe::new(spec.delay, spec.faults, seed, capacity)
}

fn clients<C: Transport>(spec: &Spec, logs: Logs) -> Vec<C> {
    (0..spec.clients)
        .map(|i| C::build(client_addr(i), logs.make()))
        .collect()
}

fn records_arm<C, S>(spec: &Spec, seed: u64, logs: Logs) -> Box<dyn Arm>
where
    C: Transport + 'static,
    S: Transport + 'static,
{
    let server = Bare(S::build(SERVER_ADDR, logs.make()));
    let mut world = World::new(server, clients::<C>(spec, logs), pipe_for(spec, seed));
    let script = Records::open(spec, seed, &mut world.ends);
    let mut arm = ArmOf {
        world,
        script,
        stalled: false,
    };
    arm.warm_up(spec);
    Box::new(arm)
}

fn echo_arm<C, S>(spec: &Spec, seed: u64, logs: Logs) -> Box<dyn Arm>
where
    C: Transport + 'static,
    S: Transport + HostStack + 'static,
{
    // Default host, wheel timers; only the table bounds are raised to fit.
    let cfg = HostConfig {
        listen_port: crate::workloads::SERVER_PORT,
        backlog: 4096,
        max_conns: 65_536,
        ..HostConfig::default()
    };
    let server = ServedHost::new(
        Host::new(S::build(SERVER_ADDR, logs.make()), cfg),
        EchoApp::default(),
    );
    let world = World::new(server, clients::<C>(spec, logs), pipe_for(spec, seed));
    let script = Echo::new(spec, seed);
    let mut arm = ArmOf {
        world,
        script,
        stalled: false,
    };
    arm.warm_up(spec);
    Box::new(arm)
}

/// Build the worlds for one arm — stacks, pipe, script — open its
/// connections and run the workload's warm-up. All of it is set-up time.
pub fn build(kind: Kind, spec: &Spec, seed: u64, logs: Logs) -> Box<dyn Arm> {
    match (spec.hosted(), kind) {
        (false, Kind::Sub) => records_arm::<SlTcpStack, SlTcpStack>(spec, seed, logs),
        (false, Kind::Mono) => records_arm::<TcpStack, TcpStack>(spec, seed, logs),
        (false, Kind::Chain) => records_arm::<SubChain, SubChain>(spec, seed, logs),
        (false, Kind::Shim) => records_arm::<ShimStack, TcpStack>(spec, seed, logs),
        (true, Kind::Sub) => echo_arm::<SlTcpStack, SlTcpStack>(spec, seed, logs),
        (true, Kind::Mono) => echo_arm::<TcpStack, TcpStack>(spec, seed, logs),
        (true, Kind::Chain) => echo_arm::<SubChain, SubChain>(spec, seed, logs),
        (true, Kind::Shim) => echo_arm::<ShimStack, TcpStack>(spec, seed, logs),
    }
}
