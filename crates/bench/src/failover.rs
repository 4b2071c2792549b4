//! E21 — shard fault domains under load (`slshard` failover campaign).
//!
//! Each cell crashes one shard of an N-way [`slshard::ShardedHost`]
//! mid-campaign — a deterministic [`FaultKind::Panic`] armed on the
//! victim shard's logical round — and measures the blast radius against
//! a no-fault baseline run of the same seed:
//!
//! * **isolation** — every client homed on a *healthy* shard must finish
//!   with the exact byte stream and completion time of the baseline run:
//!   zero errors, zero retries, zero disruption;
//! * **recovery** — with restarts enabled the supervisor must rebuild the
//!   victim within a bounded number of coordinator rounds, and every
//!   victim client must complete by reconnecting to its restarted home
//!   shard; with restarts disabled every victim must end in a *typed*
//!   error (never a hang), the victim shard stays `Failed`, and the
//!   blast radius is still one shard;
//! * **budget soundness mid-failover** — per-shard memory peaks stay
//!   within the per-shard budget and their sum within the global budget
//!   throughout the crash and recovery.
//!
//! Victim clients reconnect on fresh local ports chosen so the 4-tuple
//! still hashes to their home shard (the deterministic analogue of an OS
//! picking a new ephemeral port); client stacks run with keepalive armed
//! so a silently-dead shard turns into a typed error. The smoke sweep
//! also re-runs each cell in [`Mode::Inline`] and requires the threaded
//! outcome to be byte-identical — crash, restart, and all.

use crate::shard::{mode_label, modes_agree};
use crate::{dur, json, Report, KINDS};
use netsim::{Dur, Keepalive, LinkParams, MultiStackNode, StackNode, Time, TransportError};
use slconform::{ConformStack, Kind};
use slhost::{EchoApp, Host, HostConfig, HostStack, ResourceBudget, ServedHost};
use slshard::{
    mute_injected_panics, FaultEvent, FaultEventKind, FaultKind, FaultSpec, Mode,
    RestartPolicy, ShardFaultPlan, ShardHealth, ShardedConfig, ShardedHost,
};
use sublayer_core::SlTcpStack;
use slwire::hash::shard_of;
use tcp_mono::stack::TcpStack;
use slwire::{Endpoint, FourTuple};

const SERVER_ADDR: u32 = crate::A;
const CLIENT_BASE: u32 = 0x0C00_0000;
const PORT: u16 = 80;
const CLIENT_PORT: u16 = 5000;
const STAGGER_NS: u64 = 100_000;
/// Per-shard byte budget; global is `shards ×` this (as in E20).
const SHARD_BUDGET: usize = 16 << 20;
/// Reconnect attempts a victim client gets when restarts are enabled.
const RETRIES: usize = 3;
/// Coordinator rounds from `crashed` to `restarted` the supervisor is
/// allowed (death detection is immediate for a panic; the default policy
/// backs off `backoff_rounds × attempt` rounds before the rebuild).
const RECOVERY_ROUND_BOUND: u64 = 8;
/// Horizon with restarts enabled: reconnects finish well inside ~20 s;
/// the tail is the active closer's TIME_WAIT.
const RESTART_HORIZON_NS: u64 = 60_000_000_000;
/// Without restarts a victim's typed error can take data-RTO exhaustion
/// (RTO doubling toward 60 s) — give those cells a few hundred virtual
/// seconds. Wall-clock stays in milliseconds: a shard that gave up no
/// longer forces coordinator rounds.
const NEVER_HORIZON_NS: u64 = 400_000_000_000;

/// Deterministic per-client request (64..264 B, diverse lengths).
fn request(i: usize) -> Vec<u8> {
    let len = 64 + (i * 37) % 200;
    (0..len).map(|j| ((i * 131 + j * 7) % 251) as u8).collect()
}

/// First `k` local ports (from `CLIENT_PORT` up) whose 4-tuple hashes to
/// the same shard as the client's first port — every reconnect attempt
/// lands back on the client's home shard.
fn home_ports(seed: u64, caddr: u32, shards: usize, k: usize) -> (usize, Vec<u16>) {
    let tuple = |p: u16| FourTuple {
        local: Endpoint::new(SERVER_ADDR, PORT),
        remote: Endpoint::new(caddr, p),
    };
    let home = shard_of(seed, &tuple(CLIENT_PORT), shards);
    let mut ports = Vec::with_capacity(k);
    let mut p = CLIENT_PORT;
    while ports.len() < k {
        if shard_of(seed, &tuple(p), shards) == home {
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
/// port.
struct FailoverClient<S: HostStack> {
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

impl<S: HostStack> FailoverClient<S> {
    fn new(stack: S, connect_at: Time, req: Vec<u8>, ports: Vec<u16>, retries: usize) -> Self {
        FailoverClient {
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

netsim::client_stack!(FailoverClient<S: HostStack>);

/// One cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct FailoverParams {
    pub stack: Kind,
    pub mode: Mode,
    pub shards: usize,
    pub n: usize,
    pub seed: u64,
    /// Supervised restart (default policy) vs [`RestartPolicy::never`].
    pub restart: bool,
}

/// Everything one cell exposes (baseline-compared), plus the invariant
/// violations (empty = clean).
#[derive(Clone, Debug)]
pub struct FailoverOutcome {
    pub stack: &'static str,
    pub mode: &'static str,
    pub policy: &'static str,
    pub shards: usize,
    pub n: usize,
    pub seed: u64,
    /// The crashed shard and the logical round its panic was armed on.
    pub victim_shard: usize,
    pub crash_round: u64,
    /// Coordinator rounds of the observed crash / restart (0 = never).
    pub crashed_at_round: u64,
    pub restarted_at_round: u64,
    pub recovery_rounds: u64,
    /// Clients homed on the victim shard / everyone else.
    pub victims: usize,
    pub victims_completed: usize,
    pub victims_errored: usize,
    pub healthy: usize,
    /// Healthy clients whose outcome differed from the baseline run in
    /// any way (bytes, completion time, errors, retries). Must be 0.
    pub healthy_disrupted: usize,
    pub completed: usize,
    /// Fleet health gauges after the run.
    pub shard_restarts: u64,
    pub failover_aborts: u64,
    pub ring_stalls: u64,
    pub dead_drops: u64,
    pub final_health: Vec<u64>,
    /// Fault log as `round:shard:kind` strings (deterministic order).
    pub events: Vec<String>,
    /// Memory mid-failover: per-shard peaks against the budgets.
    pub mem_peak_worst_shard: u64,
    pub mem_peak_total: u64,
    pub shard_budget: u64,
    pub global_budget: u64,
    pub sim_ms: u64,
    pub violations: Vec<String>,
}

struct CliOut {
    complete: bool,
    got: Vec<u8>,
    done_at: Option<Time>,
    attempts: usize,
    first_error: Option<TransportError>,
    home: usize,
}

struct RunData {
    clients: Vec<CliOut>,
    events: Vec<FaultEvent>,
    health: Vec<ShardHealth>,
    rounds: Vec<u64>,
    mem_peaks: Vec<u64>,
    shard_restarts: u64,
    failover_aborts: u64,
    ring_stalls: u64,
    dead_drops: u64,
    sim_ms: u64,
}

fn run_net<S: ConformStack>(
    p: FailoverParams,
    policy: RestartPolicy,
    plan: Option<&ShardFaultPlan>,
    retries: usize,
    horizon: Time,
) -> RunData {
    mute_injected_panics();
    // Clients run keepalive so a silently-dead shard becomes a typed error.
    let keepalive = Some(Keepalive::default());
    let per_shard_conns = (p.n / p.shards.max(1)) * 2 + 1024;
    let host_cfg = HostConfig {
        listen_port: PORT,
        backlog: 1024,
        max_conns: per_shard_conns,
        budget: ResourceBudget::bytes(SHARD_BUDGET),
        ..HostConfig::default()
    };
    let cfg = ShardedConfig {
        shards: p.shards,
        seed: p.seed,
        batch_window: Dur::ZERO,
        ring_cap: 4096,
        global_budget: SHARD_BUDGET * p.shards,
        mode: p.mode,
        restart: policy,
        ..ShardedConfig::default()
    };
    let mut server: ShardedHost<S, EchoApp> = ShardedHost::new(cfg, move |_shard| {
        let stack = S::mk_with(SERVER_ADDR, None, slmetrics::muted());
        ServedHost::new(Host::new(stack, host_cfg.clone()), EchoApp::default())
    });
    if let Some(plan) = plan {
        server.apply_plan(plan);
    }
    let mut homes = Vec::with_capacity(p.n);
    let clients: Vec<FailoverClient<S>> = (0..p.n)
        .map(|i| {
            let caddr = CLIENT_BASE + i as u32;
            let (home, ports) = home_ports(p.seed, caddr, p.shards, retries + 1);
            homes.push(home);
            FailoverClient::new(
                S::mk_with(caddr, keepalive, slmetrics::muted()),
                Time(1_000_000 + STAGGER_NS * i as u64),
                request(i),
                ports,
                retries,
            )
        })
        .collect();
    let (mut net, sid, cids) =
        netsim::star(p.seed, server, clients, LinkParams::delay_only(dur(1_000_000)));
    net.poll_all();
    net.run_until(horizon);

    let mut out = Vec::with_capacity(p.n);
    for (i, &cid) in cids.iter().enumerate() {
        let c = &net.node::<StackNode<FailoverClient<S>>>(cid).stack;
        out.push(CliOut {
            complete: c.done_at.is_some() && c.got == c.req,
            got: c.got.clone(),
            done_at: c.done_at,
            attempts: c.attempt,
            first_error: c.first_error,
            home: homes[i],
        });
    }
    let srv = &mut net.node_mut::<MultiStackNode<ShardedHost<S, EchoApp>>>(sid).stack;
    let (counters, _, _) = srv.aggregate();
    let snaps = srv.snapshots();
    RunData {
        clients: out,
        events: srv.fault_events().to_vec(),
        health: (0..p.shards).map(|i| srv.health(i)).collect(),
        rounds: snaps.iter().map(|s| s.round).collect(),
        mem_peaks: snaps.iter().map(|s| s.counters.mem_peak).collect(),
        shard_restarts: counters.shard_restarts,
        failover_aborts: counters.failover_aborts,
        ring_stalls: counters.ring_stalls,
        dead_drops: srv.supervisor().dead_drops,
        sim_ms: net.now().nanos() / 1_000_000,
    }
}

/// Run one cell: a no-fault baseline, then the same seed with the victim
/// shard's panic armed, compared client by client.
pub fn run_one(p: FailoverParams) -> FailoverOutcome {
    match p.stack {
        Kind::Sub => run_cell::<SlTcpStack>(p),
        Kind::Mono => run_cell::<TcpStack>(p),
    }
}

fn run_cell<S: ConformStack>(p: FailoverParams) -> FailoverOutcome {
    let policy = if p.restart { RestartPolicy::default() } else { RestartPolicy::never() };
    let retries = if p.restart { RETRIES } else { 0 };
    let horizon = Time(if p.restart { RESTART_HORIZON_NS } else { NEVER_HORIZON_NS });

    let baseline = run_net::<S>(p, policy, None, retries, horizon);
    // The victim is client 0's home shard; its panic is armed 40% into
    // the rounds the baseline run gave that shard — mid-traffic, with
    // connections established and echoes in flight.
    let victim = baseline.clients[0].home;
    let crash_round = (baseline.rounds[victim] * 2 / 5).max(2);
    let plan = ShardFaultPlan {
        faults: vec![(victim as u32, FaultSpec { at_round: crash_round, kind: FaultKind::Panic })],
    };
    let faulted = run_net::<S>(p, policy, Some(&plan), retries, horizon);

    let victims = faulted.clients.iter().filter(|c| c.home == victim).count();
    let victims_completed =
        faulted.clients.iter().filter(|c| c.home == victim && c.complete).count();
    let victims_errored = faulted
        .clients
        .iter()
        .filter(|c| c.home == victim && c.first_error.is_some())
        .count();
    let healthy = p.n - victims;
    let healthy_disrupted = baseline
        .clients
        .iter()
        .zip(faulted.clients.iter())
        .filter(|(b, f)| {
            f.home != victim
                && (!f.complete
                    || f.first_error.is_some()
                    || f.attempts != 0
                    || f.got != b.got
                    || f.done_at != b.done_at)
        })
        .count();
    let crashed_at_round = faulted
        .events
        .iter()
        .find(|e| e.kind == FaultEventKind::Crashed)
        .map_or(0, |e| e.round);
    let restarted_at_round = faulted
        .events
        .iter()
        .find(|e| e.kind == FaultEventKind::Restarted)
        .map_or(0, |e| e.round);
    let recovery_rounds = restarted_at_round.saturating_sub(crashed_at_round);

    let mut out = FailoverOutcome {
        stack: p.stack.label(),
        mode: mode_label(p.mode),
        policy: if p.restart { "restart" } else { "never" },
        shards: p.shards,
        n: p.n,
        seed: p.seed,
        victim_shard: victim,
        crash_round,
        crashed_at_round,
        restarted_at_round,
        recovery_rounds,
        victims,
        victims_completed,
        victims_errored,
        healthy,
        healthy_disrupted,
        completed: faulted.clients.iter().filter(|c| c.complete).count(),
        shard_restarts: faulted.shard_restarts,
        failover_aborts: faulted.failover_aborts,
        ring_stalls: faulted.ring_stalls,
        dead_drops: faulted.dead_drops,
        final_health: faulted.health.iter().map(|h| h.as_u8() as u64).collect(),
        events: faulted
            .events
            .iter()
            .map(|e| format!("{}:{}:{}", e.round, e.shard, e.kind.label()))
            .collect(),
        mem_peak_worst_shard: faulted.mem_peaks.iter().copied().max().unwrap_or(0),
        mem_peak_total: faulted.mem_peaks.iter().sum(),
        shard_budget: SHARD_BUDGET as u64,
        global_budget: (SHARD_BUDGET * p.shards) as u64,
        sim_ms: faulted.sim_ms,
        violations: Vec::new(),
    };

    // Gate 0: the baseline itself must be clean, or the comparison is
    // meaningless.
    let base_incomplete = baseline.clients.iter().filter(|c| !c.complete).count();
    if base_incomplete > 0 {
        out.violations
            .push(format!("{base_incomplete} baseline clients never completed"));
    }
    // Gate 1: the crash happened, and only on the victim shard.
    if crashed_at_round == 0 {
        out.violations.push("armed panic never fired".into());
    }
    let foreign_deaths = faulted
        .events
        .iter()
        .filter(|e| {
            matches!(e.kind, FaultEventKind::Crashed | FaultEventKind::DeclaredDead)
                && e.shard as usize != victim
        })
        .count();
    if foreign_deaths > 0 {
        out.violations
            .push(format!("{foreign_deaths} fault events on non-victim shards"));
    }
    // Gate 2: zero healthy-connection disruption.
    if out.healthy_disrupted > 0 {
        out.violations.push(format!(
            "{} healthy clients disrupted by a foreign shard's crash",
            out.healthy_disrupted
        ));
    }
    // Gate 3: recovery per policy.
    if p.restart {
        if out.shard_restarts < 1 {
            out.violations.push("victim shard was never restarted".into());
        }
        if restarted_at_round == 0 || recovery_rounds > RECOVERY_ROUND_BOUND {
            out.violations.push(format!(
                "recovery took {recovery_rounds} rounds (bound {RECOVERY_ROUND_BOUND})"
            ));
        }
        if faulted.health[victim] != ShardHealth::Healthy {
            out.violations.push(format!(
                "victim shard not back in rotation: {:?}",
                faulted.health[victim]
            ));
        }
        if victims_completed != victims {
            out.violations.push(format!(
                "{} of {victims} victims never recovered via reconnect",
                victims - victims_completed
            ));
        }
    } else {
        if out.shard_restarts != 0 {
            out.violations
                .push(format!("{} restarts under a never policy", out.shard_restarts));
        }
        if faulted.health[victim] != ShardHealth::Failed {
            out.violations.push(format!(
                "no-restart victim must stay failed, is {:?}",
                faulted.health[victim]
            ));
        }
        let hung = faulted
            .clients
            .iter()
            .filter(|c| c.home == victim && !c.complete && c.first_error.is_none())
            .count();
        if hung > 0 {
            out.violations
                .push(format!("{hung} victims neither finished nor saw a typed error"));
        }
    }
    // Gate 4: budgets hold mid-failover. Sum of per-shard peaks bounds
    // the peak of the fleet sum, so the global check is conservative.
    for (i, &peak) in faulted.mem_peaks.iter().enumerate() {
        if peak > out.shard_budget {
            out.violations.push(format!(
                "shard {i} budget exceeded mid-failover: peak {peak} > {}",
                out.shard_budget
            ));
        }
    }
    if out.mem_peak_total > out.global_budget {
        out.violations.push(format!(
            "global budget exceeded mid-failover: peak sum {} > {}",
            out.mem_peak_total, out.global_budget
        ));
    }
    out
}

/// The mode-determinism cross-check: a threaded cell and its inline
/// reference must agree on every field except the mode label — crash,
/// restart, fault log, and all.
pub fn mode_cross_checks(outs: &[FailoverOutcome]) -> Vec<String> {
    modes_agree(
        outs,
        |o| o.mode,
        |o| {
            format!(
                "stack={} policy={} shards={} n={} seed={}",
                o.stack, o.policy, o.shards, o.n, o.seed
            )
        },
        |o| outcome_json(&FailoverOutcome { mode: "", ..o.clone() }),
    )
}

/// The sweep. Smoke: both stacks × both policies at n=32, shards=4, in
/// both execution modes (the pairs feed [`mode_cross_checks`]). Full:
/// both stacks × both policies × shards {2, 4, 8}, threaded, n=200 —
/// the blast-radius-vs-shard-count table.
pub fn sweep(smoke: bool) -> Vec<FailoverOutcome> {
    let mut outs = Vec::new();
    if smoke {
        for stack in KINDS {
            for restart in [true, false] {
                for mode in [Mode::Threaded, Mode::Inline] {
                    outs.push(run_one(FailoverParams {
                        stack,
                        mode,
                        shards: 4,
                        n: 32,
                        seed: 1,
                        restart,
                    }));
                }
            }
        }
        return outs;
    }
    for &shards in &[2usize, 4, 8] {
        for stack in KINDS {
            for restart in [true, false] {
                outs.push(run_one(FailoverParams {
                    stack,
                    mode: Mode::Threaded,
                    shards,
                    n: 200,
                    seed: 1,
                    restart,
                }));
            }
        }
    }
    outs
}

/// Deterministic JSON for one outcome (stable field order, integers
/// only — byte-identical for identical seeds).
pub fn outcome_json(o: &FailoverOutcome) -> String {
    json::obj(&[
        ("stack", json::str(o.stack)),
        ("mode", json::str(o.mode)),
        ("policy", json::str(o.policy)),
        ("shards", o.shards.to_string()),
        ("n", o.n.to_string()),
        ("seed", o.seed.to_string()),
        ("victim_shard", o.victim_shard.to_string()),
        ("crash_round", o.crash_round.to_string()),
        ("crashed_at_round", o.crashed_at_round.to_string()),
        ("restarted_at_round", o.restarted_at_round.to_string()),
        ("recovery_rounds", o.recovery_rounds.to_string()),
        ("victims", o.victims.to_string()),
        ("victims_completed", o.victims_completed.to_string()),
        ("victims_errored", o.victims_errored.to_string()),
        ("healthy", o.healthy.to_string()),
        ("healthy_disrupted", o.healthy_disrupted.to_string()),
        ("completed", o.completed.to_string()),
        ("shard_restarts", o.shard_restarts.to_string()),
        ("failover_aborts", o.failover_aborts.to_string()),
        ("ring_stalls", o.ring_stalls.to_string()),
        ("dead_drops", o.dead_drops.to_string()),
        ("final_health", json::list(&o.final_health)),
        ("events", json::strs(&o.events)),
        ("mem_peak_worst_shard", o.mem_peak_worst_shard.to_string()),
        ("mem_peak_total", o.mem_peak_total.to_string()),
        ("shard_budget", o.shard_budget.to_string()),
        ("global_budget", o.global_budget.to_string()),
        ("sim_ms", o.sim_ms.to_string()),
        ("violations", json::strs(&o.violations)),
    ])
}

/// The whole sweep (plus the mode cross-checks) as one JSON document.
pub fn summary_json(outs: &[FailoverOutcome], cross: &[String]) -> String {
    let rows: Vec<String> = outs.iter().map(outcome_json).collect();
    let violations = outs.iter().map(|o| o.violations.len()).sum();
    crate::sweep_json("runs", &rows, Some(("mode_cross_checks", cross)), violations)
}

/// The campaign: [`sweep`] plus the threaded-vs-inline
/// [`mode_cross_checks`].
pub fn report(smoke: bool) -> Report {
    let outs = sweep(smoke);
    let cross = mode_cross_checks(&outs);
    Report {
        json: summary_json(&outs, &cross),
        headers: vec![
            "stack", "mode", "policy", "shards", "n", "victim", "victims ok", "victims err",
            "healthy hit", "rec rounds", "restarts", "aborts", "viol",
        ],
        rows: outs
            .iter()
            .map(|o| {
                vec![
                    o.stack.to_string(),
                    o.mode.to_string(),
                    o.policy.to_string(),
                    o.shards.to_string(),
                    o.n.to_string(),
                    o.victim_shard.to_string(),
                    format!("{}/{}", o.victims_completed, o.victims),
                    o.victims_errored.to_string(),
                    o.healthy_disrupted.to_string(),
                    o.recovery_rounds.to_string(),
                    o.shard_restarts.to_string(),
                    o.failover_aborts.to_string(),
                    o.violations.len().to_string(),
                ]
            })
            .collect(),
        violations: outs
            .iter()
            .flat_map(|o| {
                crate::tagged(
                    format!("{} {} {} shards={} n={}", o.stack, o.mode, o.policy, o.shards, o.n),
                    &o.violations,
                )
            })
            .chain(crate::tagged("mode-determinism".into(), &cross))
            .collect(),
    }
}
