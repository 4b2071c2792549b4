//! Fault-domain isolation for [`slshard::ShardedHost`]: an injected shard
//! crash (panic / stall / wedge) must
//!
//! 1. abort only that shard's connections — every client homed on a
//!    healthy shard finishes with a transcript byte-identical to a
//!    no-fault baseline run;
//! 2. leave the run deterministic — two threaded runs of the same crash
//!    schedule replay identically, and threaded matches the
//!    single-threaded [`Mode::Inline`] reference, fault log included;
//! 3. recover per policy — with restarts enabled the victim shard comes
//!    back and serves *new* connections (victims reconnect to their home
//!    shard and complete); with restarts disabled the victims get typed
//!    errors and the blast radius is still one shard.
//!
//! Victim clients reconnect on a fresh local port chosen so the 4-tuple
//! still hashes to their home shard — the deterministic analogue of an OS
//! picking a new ephemeral port.

use netsim::stack::TransportError;
use netsim::{Dur, Keepalive, LinkParams, MultiStackNode, StackNode, Time};
use slhost::{EchoApp, Host, HostConfig, HostStack, ServedHost};
use slshard::{
    mute_injected_panics, FaultEventKind, FaultKind, FaultSpec, Mode, RestartPolicy,
    ShardFaultPlan, ShardHealth, ShardedConfig, ShardedHost,
};
use sublayer_core::{SlConfig, SlTcpStack};
use slwire::hash::shard_of;
use tcp_mono::stack::TcpStack;
use slwire::{Endpoint, FourTuple};

const SERVER_ADDR: u32 = 0x0A00_0001;
const CLIENT_BASE: u32 = 0x0A01_0000;
const PORT: u16 = 80;
const CLIENT_PORT: u16 = 5000;
const SEED: u64 = 0x51AD;

fn dur(ns: u64) -> Dur {
    Dur::from_nanos(ns)
}

fn request(i: usize) -> Vec<u8> {
    let len = 64 + (i * 37) % 200;
    (0..len).map(|j| ((i * 131 + j * 7) % 251) as u8).collect()
}

/// First `k` local ports (from `CLIENT_PORT` up) whose 4-tuple hashes to
/// the same shard as the client's first port — so every reconnect attempt
/// lands back on the client's home shard.
fn home_ports(caddr: u32, shards: usize, k: usize) -> (usize, Vec<u16>) {
    let tuple = |p: u16| FourTuple {
        local: Endpoint::new(SERVER_ADDR, PORT),
        remote: Endpoint::new(caddr, p),
    };
    let home = shard_of(SEED, &tuple(CLIENT_PORT), shards);
    let mut ports = Vec::with_capacity(k);
    let mut p = CLIENT_PORT;
    while ports.len() < k {
        if shard_of(SEED, &tuple(p), shards) == home {
            ports.push(p);
        }
        p += 1;
    }
    (home, ports)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Idle,
    Connecting,
    Await,
    Closing,
    RetryWait,
    Done,
    Failed,
}

/// Echo client with typed-error-driven reconnect: on a connection error
/// it abandons the attempt and retries (bounded) from the next home
/// port. `done_at` means the full echo arrived on *some* attempt.
struct FailClient<S: HostStack> {
    stack: S,
    server: Endpoint,
    req: Vec<u8>,
    ports: Vec<u16>,
    attempt: usize,
    retries: usize,
    phase: Phase,
    conn: Option<S::ConnId>,
    got: Vec<u8>,
    connect_at: Time,
    retry_at: Time,
    done_at: Option<Time>,
    first_error: Option<TransportError>,
}

impl<S: HostStack> FailClient<S> {
    fn new(stack: S, connect_at: Time, req: Vec<u8>, ports: Vec<u16>, retries: usize) -> Self {
        FailClient {
            stack,
            server: Endpoint::new(SERVER_ADDR, PORT),
            req,
            ports,
            attempt: 0,
            retries,
            phase: Phase::Idle,
            conn: None,
            got: Vec::new(),
            connect_at,
            retry_at: Time::ZERO,
            done_at: None,
            first_error: None,
        }
    }

    fn connect(&mut self, now: Time) {
        let port = self.ports[self.attempt % self.ports.len()];
        match self.stack.try_connect(now, port, self.server) {
            Ok(id) => {
                self.conn = Some(id);
                self.phase = Phase::Connecting;
            }
            Err(e) => {
                if self.first_error.is_none() {
                    self.first_error = Some(e);
                }
                self.phase = Phase::Failed;
            }
        }
    }

    /// When the script itself next needs the clock.
    fn own_deadline(&self) -> Option<Time> {
        match self.phase {
            Phase::Idle => Some(self.connect_at),
            Phase::RetryWait => Some(self.retry_at),
            _ => None,
        }
    }

    fn drive(&mut self, now: Time) {
        if let Some(id) = self.conn {
            match self.phase {
                Phase::Connecting | Phase::Await => {
                    if let Some(e) = self.stack.conn_error(id) {
                        if self.first_error.is_none() {
                            self.first_error = Some(e);
                        }
                        self.conn = None;
                        self.got.clear();
                        if self.attempt < self.retries {
                            self.attempt += 1;
                            self.retry_at = now + Dur::from_millis(200);
                            self.phase = Phase::RetryWait;
                        } else {
                            self.phase = Phase::Failed;
                        }
                    }
                }
                Phase::Closing if self.stack.conn_error(id).is_some() => {
                    // Data already delivered in full; the error only
                    // tore down the TIME_WAIT shell.
                    self.conn = None;
                    self.phase = Phase::Done;
                }
                _ => {}
            }
        }
        loop {
            match self.phase {
                Phase::Idle => {
                    if now < self.connect_at {
                        return;
                    }
                    self.connect(now);
                }
                Phase::RetryWait => {
                    if now < self.retry_at {
                        return;
                    }
                    self.connect(now);
                }
                Phase::Connecting => {
                    let id = self.conn.expect("connected past Idle");
                    if !self.stack.is_established(id) {
                        return;
                    }
                    self.stack.send(id, &self.req);
                    self.phase = Phase::Await;
                }
                Phase::Await => {
                    let id = self.conn.expect("connected past Idle");
                    let data = self.stack.recv(id);
                    self.got.extend_from_slice(&data);
                    if self.got.len() < self.req.len() {
                        return;
                    }
                    self.done_at = Some(now);
                    self.stack.close(id);
                    self.phase = Phase::Closing;
                }
                Phase::Closing => {
                    let id = self.conn.expect("connected past Idle");
                    if !self.stack.is_closed(id) {
                        return;
                    }
                    self.phase = Phase::Done;
                }
                Phase::Done | Phase::Failed => return,
            }
        }
    }
}

netsim::client_stack!(FailClient<S: HostStack>);

struct ClientOut {
    complete: bool,
    got: Vec<u8>,
    done_at: Option<Time>,
    attempts: usize,
    first_error: Option<TransportError>,
    home: usize,
}

struct FaultRun {
    clients: Vec<ClientOut>,
    /// Canonical transcript: per-client outcomes + fault log + fleet
    /// gauges. Byte-compared across reruns and modes.
    transcript: String,
    /// Per shard: did it ever die (crash or declared-dead wedge)?
    crashed: Vec<bool>,
    health: Vec<ShardHealth>,
    restarts: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_fault<S, F, G>(
    mode: Mode,
    shards: usize,
    n: usize,
    policy: RestartPolicy,
    plan: Option<&ShardFaultPlan>,
    retries: usize,
    horizon: Time,
    mk_server: F,
    mk_client: G,
) -> FaultRun
where
    S: HostStack,
    F: Fn(u32) -> S + Send + Sync + 'static,
    G: Fn(u32) -> S,
{
    mute_injected_panics();
    let cfg = ShardedConfig {
        shards,
        seed: SEED,
        batch_window: Dur::ZERO,
        ring_cap: 64,
        global_budget: 0,
        mode,
        restart: policy,
        ..ShardedConfig::default()
    };
    let mut server = ShardedHost::new(cfg, move |_shard| {
        ServedHost::new(
            Host::new(
                mk_server(SERVER_ADDR),
                HostConfig { listen_port: PORT, backlog: 64, ..HostConfig::default() },
            ),
            EchoApp::default(),
        )
    });
    if let Some(p) = plan {
        server.apply_plan(p);
    }
    let mut homes = Vec::with_capacity(n);
    let clients: Vec<FailClient<S>> = (0..n)
        .map(|i| {
            let caddr = CLIENT_BASE + i as u32;
            let (home, ports) = home_ports(caddr, shards, retries + 1);
            homes.push(home);
            FailClient::new(
                mk_client(caddr),
                Time(1_000_000 + 100_000 * i as u64),
                request(i),
                ports,
                retries,
            )
        })
        .collect();
    let (mut net, sid, cids) =
        netsim::star(7, server, clients, LinkParams::delay_only(dur(1_000_000)));
    net.poll_all();
    net.run_until(horizon);

    let mut out = Vec::with_capacity(n);
    let mut transcript = String::new();
    for (i, &cid) in cids.iter().enumerate() {
        let c = &net.node::<StackNode<FailClient<S>>>(cid).stack;
        let complete = c.done_at.is_some() && c.got == c.req;
        transcript.push_str(&format!(
            "client {i}: home={} complete={complete} got={} at={:?} attempts={} err={:?}\n",
            homes[i],
            c.got.len(),
            c.done_at.map(|t| t.nanos()),
            c.attempt,
            c.first_error,
        ));
        out.push(ClientOut {
            complete,
            got: c.got.clone(),
            done_at: c.done_at,
            attempts: c.attempt,
            first_error: c.first_error,
            home: homes[i],
        });
    }
    let srv = &mut net.node_mut::<MultiStackNode<ShardedHost<S, EchoApp>>>(sid).stack;
    let (k, echoed, served) = srv.aggregate();
    let mut crashed = vec![false; shards];
    for e in srv.fault_events() {
        transcript.push_str(&format!(
            "event: round={} shard={} kind={}\n",
            e.round,
            e.shard,
            e.kind.label()
        ));
        if matches!(e.kind, FaultEventKind::Crashed | FaultEventKind::DeclaredDead) {
            crashed[e.shard as usize] = true;
        }
    }
    let health: Vec<ShardHealth> = (0..shards).map(|i| srv.health(i)).collect();
    transcript.push_str(&format!(
        "server: accepts={} echoed={} served={} routed={:?} unclassified={} \
         health={:?} heartbeat_age={} restarts={} failover_aborts={} ring_stalls={} dead_drops={}\n",
        k.accepts,
        echoed,
        served,
        srv.routed,
        srv.unclassified,
        health.iter().map(|h| h.as_u8()).collect::<Vec<_>>(),
        k.heartbeat_age,
        k.shard_restarts,
        k.failover_aborts,
        k.ring_stalls,
        srv.supervisor().dead_drops,
    ));
    FaultRun { clients: out, transcript, crashed, health, restarts: k.shard_restarts }
}

fn sub_stack(addr: u32) -> SlTcpStack {
    SlTcpStack::new(addr, SlConfig::default(), slmetrics::shared())
}

fn mono_stack(addr: u32) -> TcpStack {
    TcpStack::new(addr, slmetrics::shared())
}

/// Client stacks run with keepalive armed (10 s / 2 s / x5): a victim
/// whose request was fully ACKed sits in `Await` with nothing in flight,
/// so only a keepalive probe can turn a silently-dead shard into a typed
/// error (the same configuration PR 6's topology campaigns use).
fn sub_client(addr: u32) -> SlTcpStack {
    let cfg = SlConfig {
        keepalive: Some(Keepalive {
            idle: Dur::from_secs(10),
            interval: Dur::from_secs(2),
            max_probes: 5,
        }),
        ..SlConfig::default()
    };
    SlTcpStack::new(addr, cfg, slmetrics::shared())
}

fn mono_client(addr: u32) -> TcpStack {
    let mut s = TcpStack::new(addr, slmetrics::shared());
    s.set_keepalive(Keepalive {
        idle: Dur::from_secs(10),
        interval: Dur::from_secs(2),
        max_probes: 5,
    });
    s
}

/// Healthy-shard clients must be untouched by the crash: identical byte
/// stream, identical completion time, no errors, no retries.
fn assert_healthy_isolated(baseline: &FaultRun, faulted: &FaultRun) {
    for (i, (b, f)) in baseline.clients.iter().zip(faulted.clients.iter()).enumerate() {
        if faulted.crashed[f.home] {
            continue;
        }
        assert!(f.complete, "healthy client {i} (shard {}) did not complete:\n{}", f.home, faulted.transcript);
        assert_eq!(f.first_error, None, "healthy client {i} saw an error");
        assert_eq!(f.attempts, 0, "healthy client {i} had to retry");
        assert_eq!(f.got, b.got, "healthy client {i} byte stream changed");
        assert_eq!(f.done_at, b.done_at, "healthy client {i} finish time changed");
    }
}

const RESTART_HORIZON: Time = Time(60_000_000_000);
// No-restart victims only error after data-RTO exhaustion (10 retries,
// RTO doubling toward 60 s): give the run a few hundred virtual seconds.
const NO_RESTART_HORIZON: Time = Time(400_000_000_000);

#[test]
fn injected_panic_kills_only_its_shard_and_restarts() {
    let shards = 4;
    let n = 16;
    let policy = RestartPolicy::default();
    let baseline = run_fault(
        Mode::Threaded, shards, n, policy, None, 3, RESTART_HORIZON, sub_stack, sub_client,
    );
    assert!(baseline.clients.iter().all(|c| c.complete), "baseline incomplete:\n{}", baseline.transcript);
    // Crash the shard client 0 homes on, mid-traffic.
    let victim = baseline.clients[0].home as u32;
    let plan = ShardFaultPlan {
        faults: vec![(victim, FaultSpec { at_round: 6, kind: FaultKind::Panic })],
    };
    let faulted = run_fault(
        Mode::Threaded, shards, n, policy, Some(&plan), 3, RESTART_HORIZON, sub_stack, sub_client,
    );
    assert!(faulted.crashed[victim as usize], "victim never crashed:\n{}", faulted.transcript);
    assert!(
        faulted.crashed.iter().filter(|&&c| c).count() == 1,
        "blast radius exceeded one shard:\n{}",
        faulted.transcript
    );
    assert!(faulted.restarts >= 1, "victim was not restarted:\n{}", faulted.transcript);
    assert_eq!(faulted.health[victim as usize], ShardHealth::Healthy, "victim not back in rotation");
    assert_healthy_isolated(&baseline, &faulted);
    // Recovery: every client — victims included, via reconnect to the
    // restarted home shard — completes with an intact echo.
    for (i, c) in faulted.clients.iter().enumerate() {
        assert!(c.complete, "client {i} never recovered:\n{}", faulted.transcript);
        assert_eq!(c.got, request(i), "client {i} echo corrupted after failover");
    }
}

#[test]
fn crashed_runs_replay_byte_identically() {
    let plan = ShardFaultPlan {
        faults: vec![
            (1, FaultSpec { at_round: 5, kind: FaultKind::Panic }),
            (2, FaultSpec { at_round: 9, kind: FaultKind::Stall(4) }),
        ],
    };
    let policy = RestartPolicy::default();
    let a = run_fault(
        Mode::Threaded, 4, 12, policy, Some(&plan), 2, RESTART_HORIZON, sub_stack, sub_client,
    );
    let b = run_fault(
        Mode::Threaded, 4, 12, policy, Some(&plan), 2, RESTART_HORIZON, sub_stack, sub_client,
    );
    assert_eq!(a.transcript, b.transcript, "crashed threaded replay diverged");
    assert!(
        a.transcript.contains("kind=crashed") && a.transcript.contains("kind=restarted"),
        "transcript lost the crash/restart events:\n{}",
        a.transcript
    );
}

#[test]
fn threaded_crash_matches_inline_reference() {
    let plan = ShardFaultPlan {
        faults: vec![(0, FaultSpec { at_round: 7, kind: FaultKind::Panic })],
    };
    let policy = RestartPolicy::default();
    let t = run_fault(
        Mode::Threaded, 2, 10, policy, Some(&plan), 2, RESTART_HORIZON, sub_stack, sub_client,
    );
    let i = run_fault(
        Mode::Inline, 2, 10, policy, Some(&plan), 2, RESTART_HORIZON, sub_stack, sub_client,
    );
    assert_eq!(t.transcript, i.transcript, "crashed threaded diverged from inline reference");
}

#[test]
fn mono_stack_crash_matches_inline() {
    let plan = ShardFaultPlan {
        faults: vec![(1, FaultSpec { at_round: 6, kind: FaultKind::Panic })],
    };
    let policy = RestartPolicy::default();
    let t = run_fault(
        Mode::Threaded, 2, 10, policy, Some(&plan), 2, RESTART_HORIZON, mono_stack, mono_client,
    );
    let i = run_fault(
        Mode::Inline, 2, 10, policy, Some(&plan), 2, RESTART_HORIZON, mono_stack, mono_client,
    );
    assert_eq!(t.transcript, i.transcript, "mono crashed threaded diverged from inline");
}

#[test]
fn no_restart_policy_blast_radius_is_one_shard() {
    let shards = 4;
    let n = 16;
    let baseline = run_fault(
        Mode::Threaded, shards, n, RestartPolicy::never(), None, 0, NO_RESTART_HORIZON,
        sub_stack, sub_client,
    );
    let victim = baseline.clients[0].home as u32;
    let plan = ShardFaultPlan {
        faults: vec![(victim, FaultSpec { at_round: 6, kind: FaultKind::Panic })],
    };
    let faulted = run_fault(
        Mode::Threaded, shards, n, RestartPolicy::never(), Some(&plan), 0, NO_RESTART_HORIZON,
        sub_stack, sub_client,
    );
    assert_eq!(faulted.health[victim as usize], ShardHealth::Failed, "no-restart victim must stay failed");
    assert_eq!(faulted.restarts, 0);
    assert_healthy_isolated(&baseline, &faulted);
    // Victims: either finished before the crash or saw a typed error —
    // never a hang past the (generous) horizon, never a panic.
    for (i, c) in faulted.clients.iter().enumerate() {
        if c.home == victim as usize {
            assert!(
                c.complete || c.first_error.is_some(),
                "victim client {i} neither finished nor errored:\n{}",
                faulted.transcript
            );
        }
    }
}

#[test]
fn wedge_is_declared_dead_and_restarted() {
    let shards = 2;
    let n = 10;
    let policy = RestartPolicy::default();
    let baseline = run_fault(
        Mode::Threaded, shards, n, policy, None, 3, RESTART_HORIZON, sub_stack, sub_client,
    );
    let victim = baseline.clients[0].home as u32;
    let plan = ShardFaultPlan {
        faults: vec![(victim, FaultSpec { at_round: 5, kind: FaultKind::Wedge })],
    };
    let faulted = run_fault(
        Mode::Threaded, shards, n, policy, Some(&plan), 3, RESTART_HORIZON, sub_stack, sub_client,
    );
    assert!(
        faulted.transcript.contains("kind=declared-dead"),
        "wedge was not declared dead:\n{}",
        faulted.transcript
    );
    assert!(faulted.restarts >= 1, "wedged shard was not replaced:\n{}", faulted.transcript);
    assert_healthy_isolated(&baseline, &faulted);
    for (i, c) in faulted.clients.iter().enumerate() {
        assert!(c.complete, "client {i} never recovered from the wedge:\n{}", faulted.transcript);
    }
}

#[test]
fn transient_stall_recovers_without_restart() {
    let shards = 2;
    let n = 10;
    // dead_after high enough that a 3-round stall never escalates.
    let policy = RestartPolicy { dead_after: 8, ..Default::default() };
    let baseline = run_fault(
        Mode::Threaded, shards, n, policy, None, 0, RESTART_HORIZON, sub_stack, sub_client,
    );
    let victim = baseline.clients[0].home as u32;
    let plan = ShardFaultPlan {
        faults: vec![(victim, FaultSpec { at_round: 4, kind: FaultKind::Stall(3) })],
    };
    let faulted = run_fault(
        Mode::Threaded, shards, n, policy, Some(&plan), 0, RESTART_HORIZON, sub_stack, sub_client,
    );
    assert_eq!(faulted.restarts, 0, "transient stall must not trigger a restart");
    assert!(!faulted.crashed.iter().any(|&c| c), "transient stall must not kill the shard");
    // A stall defers frames, it does not lose them: everyone completes.
    for (i, c) in faulted.clients.iter().enumerate() {
        assert!(c.complete, "client {i} did not survive the stall:\n{}", faulted.transcript);
    }
    assert_healthy_isolated(&baseline, &faulted);
}

/// Random fault schedules at every shard count in {1, 2, 4, 8}: isolation
/// holds, crashed runs replay identically, threaded ≡ inline — the
/// proptest-style sweep over [`ShardFaultPlan::random`] schedules.
#[test]
fn random_fault_plans_isolation_and_replay() {
    for &shards in &[1usize, 2, 4, 8] {
        for seed in 0u64..3 {
            let plan = ShardFaultPlan::random(seed.wrapping_mul(0x9E37) ^ shards as u64, shards, 25, 3);
            let policy = RestartPolicy::default();
            let n = 12;
            let baseline = run_fault(
                Mode::Threaded, shards, n, policy, None, 3, RESTART_HORIZON, sub_stack, sub_client,
            );
            let a = run_fault(
                Mode::Threaded, shards, n, policy, Some(&plan), 3, RESTART_HORIZON,
                sub_stack, sub_client,
            );
            let b = run_fault(
                Mode::Threaded, shards, n, policy, Some(&plan), 3, RESTART_HORIZON,
                sub_stack, sub_client,
            );
            let inl = run_fault(
                Mode::Inline, shards, n, policy, Some(&plan), 3, RESTART_HORIZON,
                sub_stack, sub_client,
            );
            assert_eq!(
                a.transcript, b.transcript,
                "replay diverged (shards={shards} seed={seed} plan={plan:?})"
            );
            assert_eq!(
                a.transcript, inl.transcript,
                "threaded diverged from inline (shards={shards} seed={seed} plan={plan:?})"
            );
            assert_healthy_isolated(&baseline, &a);
        }
    }
}

