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

use crate::client::{Client, Reply, CLIENT_PORT, SERVER};
use crate::shard::{mode_label, modes_agree};
use crate::{dur, json, Report, KINDS};
use netsim::{Dur, Keepalive, LinkParams, MultiStackNode, StackNode, Time, TransportError};
use slconform::{ConformStack, Kind};
use slhost::{EchoApp, Host, HostConfig, ResourceBudget, ServedHost};
use slmetrics::HostCounters;
use slshard::{
    mute_injected_panics, FaultEvent, FaultEventKind, FaultKind, FaultSpec, Mode,
    RestartPolicy, ShardFaultPlan, ShardHealth, ShardedConfig, ShardedHost,
};
use sublayer_core::SlTcpStack;
use slwire::hash::shard_of;
use tcp_mono::stack::TcpStack;
use slwire::{Endpoint, FourTuple};

const CLIENT_BASE: u32 = 0x0C00_0000;
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
    let tuple = |p: u16| FourTuple { local: SERVER, remote: Endpoint::new(caddr, p) };
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

/// One client's fate in a run.
#[derive(Debug, PartialEq)]
pub(crate) struct CliOut {
    /// The whole echo arrived intact, on some attempt: what it received
    /// is the request, byte for byte.
    pub(crate) complete: bool,
    /// The close handshake then finished without an error.
    pub(crate) closed: bool,
    /// Echo bytes received on the last attempt.
    got: usize,
    done_at: Option<Time>,
    attempts: usize,
    /// The first typed error before the echo completed; one that only
    /// tears down the connection afterwards disrupts nothing.
    first_error: Option<TransportError>,
    home: usize,
}

/// Everything a run exposes. Two runs of one seed and plan must compare
/// equal, whether threaded or inline.
#[derive(Debug, PartialEq)]
pub(crate) struct RunData {
    pub(crate) clients: Vec<CliOut>,
    events: Vec<FaultEvent>,
    health: Vec<ShardHealth>,
    rounds: Vec<u64>,
    mem_peaks: Vec<u64>,
    /// The fleet's aggregated host counters, bytes echoed and
    /// connections served, and the router's per-shard and unclassified
    /// frame counts.
    counters: HostCounters,
    echoed: u64,
    served: u64,
    routed: Vec<u64>,
    unclassified: u64,
    dead_drops: u64,
    sim_ms: u64,
}

pub(crate) fn run_net<S: ConformStack>(
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
        listen_port: SERVER.port,
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
    };
    let mut server: ShardedHost<S, EchoApp> = ShardedHost::new(cfg, move |_shard| {
        let stack = S::mk_with(SERVER.addr, None, slmetrics::shared());
        ServedHost::new(Host::new(stack, host_cfg.clone()), EchoApp::default())
    });
    if let Some(plan) = plan {
        server.apply_plan(plan);
    }
    let mut homes = Vec::with_capacity(p.n);
    let clients: Vec<Client<S>> = (0..p.n)
        .map(|i| {
            let caddr = CLIENT_BASE + i as u32;
            let (home, ports) = home_ports(p.seed, caddr, p.shards, retries + 1);
            homes.push(home);
            Client::new(
                S::mk_with(caddr, keepalive, slmetrics::shared()),
                Time(1_000_000 + STAGGER_NS * i as u64),
                request(i),
                Reply::Echo,
            )
            .with_ports(ports)
        })
        .collect();
    let (mut net, sid, cids) =
        netsim::star(p.seed, server, clients, LinkParams::delay_only(dur(1_000_000)));
    net.poll_all();
    net.run_until(horizon);

    let mut out = Vec::with_capacity(p.n);
    for (i, &cid) in cids.iter().enumerate() {
        let c = &net.node::<StackNode<Client<S>>>(cid).stack;
        out.push(CliOut {
            complete: c.done_at.is_some() && !c.corrupt,
            closed: c.closed(),
            got: c.got,
            done_at: c.done_at,
            attempts: c.attempt,
            first_error: c.error,
            home: homes[i],
        });
    }
    let srv = &mut net.node_mut::<MultiStackNode<ShardedHost<S, EchoApp>>>(sid).stack;
    let (counters, echoed, served) = srv.aggregate();
    let snaps = srv.snapshots();
    RunData {
        clients: out,
        events: srv.fault_events().to_vec(),
        health: (0..p.shards).map(|i| srv.health(i)).collect(),
        rounds: snaps.iter().map(|s| s.round).collect(),
        mem_peaks: snaps.iter().map(|s| s.counters.mem_peak).collect(),
        counters,
        echoed,
        served,
        routed: srv.routed.clone(),
        unclassified: srv.unclassified,
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
                    // A complete echo is the request, so the two byte
                    // streams differ exactly when the baseline's is not.
                    || !b.complete
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
        shard_restarts: faulted.counters.shard_restarts,
        failover_aborts: faulted.counters.failover_aborts,
        ring_stalls: faulted.counters.ring_stalls,
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
    Report::sweep(
        summary_json(&outs, &cross),
        vec![
            "stack", "mode", "policy", "shards", "n", "victim", "victims ok", "victims err",
            "healthy hit", "rec rounds", "restarts", "aborts", "viol",
        ],
        outs
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
        outs
            .iter()
            .flat_map(|o| {
                crate::tagged(
                    format!("{} {} {} shards={} n={}", o.stack, o.mode, o.policy, o.shards, o.n),
                    &o.violations,
                )
            })
            .chain(crate::tagged("mode-determinism".into(), &cross))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    //! Fault-domain isolation for [`slshard::ShardedHost`] on the
    //! campaign's own harness, [`run_net`]: an injected shard crash
    //! (panic / stall / wedge) must
    //!
    //! 1. abort only that shard's connections — every client homed on a
    //!    healthy shard finishes exactly as in a no-fault baseline run;
    //! 2. leave the run deterministic — two threaded runs of the same
    //!    crash schedule replay identically, and threaded matches the
    //!    single-threaded [`Mode::Inline`] reference, fault log included;
    //! 3. recover per policy — with restarts enabled the victim shard
    //!    comes back and serves *new* connections (victims reconnect to
    //!    their home shard and complete); with restarts disabled the
    //!    victims get typed errors and the blast radius is still one shard.

    use super::*;

    const SEED: u64 = 0x51AD;
    const RESTART_HORIZON: Time = Time(RESTART_HORIZON_NS);
    const NO_RESTART_HORIZON: Time = Time(NEVER_HORIZON_NS);

    fn run<S: ConformStack>(
        mode: Mode,
        shards: usize,
        n: usize,
        policy: RestartPolicy,
        plan: Option<&ShardFaultPlan>,
        retries: usize,
        horizon: Time,
    ) -> RunData {
        let p = FailoverParams { stack: S::KIND, mode, shards, n, seed: SEED, restart: true };
        run_net::<S>(p, policy, plan, retries, horizon)
    }

    fn panic_at(shard: usize, at_round: u64) -> ShardFaultPlan {
        ShardFaultPlan {
            faults: vec![(shard as u32, FaultSpec { at_round, kind: FaultKind::Panic })],
        }
    }

    /// Did `shard` die (crash, or a wedge declared dead) during the run?
    fn died(r: &RunData, shard: usize) -> bool {
        r.events.iter().any(|e| {
            e.shard as usize == shard
                && matches!(e.kind, FaultEventKind::Crashed | FaultEventKind::DeclaredDead)
        })
    }

    fn has_event(r: &RunData, kind: FaultEventKind) -> bool {
        r.events.iter().any(|e| e.kind == kind)
    }

    /// Healthy-shard clients must be untouched by the crash: identical
    /// byte stream, identical completion time, no errors, no retries.
    fn assert_healthy_isolated(baseline: &RunData, faulted: &RunData) {
        for (i, (b, f)) in baseline.clients.iter().zip(&faulted.clients).enumerate() {
            if died(faulted, f.home) {
                continue;
            }
            assert!(f.complete, "healthy client {i} (shard {}) did not complete:\n{faulted:?}", f.home);
            assert_eq!(f.first_error, None, "healthy client {i} saw an error");
            assert_eq!(f.attempts, 0, "healthy client {i} had to retry");
            // A complete echo is the request byte for byte, so the two
            // streams are equal exactly when the baseline's is complete.
            assert!(b.complete, "healthy client {i} byte stream changed");
            assert_eq!(f.done_at, b.done_at, "healthy client {i} finish time changed");
        }
    }

    #[test]
    fn injected_panic_kills_only_its_shard_and_restarts() {
        let (shards, n) = (4, 16);
        let policy = RestartPolicy::default();
        let baseline =
            run::<SlTcpStack>(Mode::Threaded, shards, n, policy, None, 3, RESTART_HORIZON);
        assert!(baseline.clients.iter().all(|c| c.complete), "baseline incomplete:\n{baseline:?}");
        // Crash the shard client 0 homes on, mid-traffic.
        let victim = baseline.clients[0].home;
        let plan = panic_at(victim, 6);
        let faulted =
            run::<SlTcpStack>(Mode::Threaded, shards, n, policy, Some(&plan), 3, RESTART_HORIZON);
        assert!(died(&faulted, victim), "victim never crashed:\n{faulted:?}");
        assert_eq!(
            (0..shards).filter(|&s| died(&faulted, s)).count(),
            1,
            "blast radius exceeded one shard:\n{faulted:?}"
        );
        assert!(faulted.counters.shard_restarts >= 1, "victim was not restarted:\n{faulted:?}");
        assert_eq!(faulted.health[victim], ShardHealth::Healthy, "victim not back in rotation");
        assert_healthy_isolated(&baseline, &faulted);
        // Recovery: every client — victims included, via reconnect to the
        // restarted home shard — completes with an intact echo.
        for (i, c) in faulted.clients.iter().enumerate() {
            assert!(c.complete, "client {i} never recovered with an intact echo:\n{faulted:?}");
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
        let a = run::<SlTcpStack>(Mode::Threaded, 4, 12, policy, Some(&plan), 2, RESTART_HORIZON);
        let b = run::<SlTcpStack>(Mode::Threaded, 4, 12, policy, Some(&plan), 2, RESTART_HORIZON);
        assert_eq!(a, b, "crashed threaded replay diverged");
        assert!(
            has_event(&a, FaultEventKind::Crashed) && has_event(&a, FaultEventKind::Restarted),
            "run lost the crash/restart events:\n{a:?}"
        );
    }

    #[test]
    fn threaded_crash_matches_inline_reference() {
        let plan = panic_at(0, 7);
        let policy = RestartPolicy::default();
        let t = run::<SlTcpStack>(Mode::Threaded, 2, 10, policy, Some(&plan), 2, RESTART_HORIZON);
        let i = run::<SlTcpStack>(Mode::Inline, 2, 10, policy, Some(&plan), 2, RESTART_HORIZON);
        assert_eq!(t, i, "crashed threaded diverged from inline reference");
    }

    #[test]
    fn mono_stack_crash_matches_inline() {
        let plan = panic_at(1, 6);
        let policy = RestartPolicy::default();
        let t = run::<TcpStack>(Mode::Threaded, 2, 10, policy, Some(&plan), 2, RESTART_HORIZON);
        let i = run::<TcpStack>(Mode::Inline, 2, 10, policy, Some(&plan), 2, RESTART_HORIZON);
        assert_eq!(t, i, "mono crashed threaded diverged from inline");
    }

    #[test]
    fn no_restart_policy_blast_radius_is_one_shard() {
        let (shards, n) = (4, 16);
        let policy = RestartPolicy::never();
        let baseline =
            run::<SlTcpStack>(Mode::Threaded, shards, n, policy, None, 0, NO_RESTART_HORIZON);
        let victim = baseline.clients[0].home;
        let plan = panic_at(victim, 6);
        let faulted =
            run::<SlTcpStack>(Mode::Threaded, shards, n, policy, Some(&plan), 0, NO_RESTART_HORIZON);
        assert_eq!(faulted.health[victim], ShardHealth::Failed, "no-restart victim must stay failed");
        assert_eq!(faulted.counters.shard_restarts, 0);
        assert_healthy_isolated(&baseline, &faulted);
        // Victims: either finished before the crash or saw a typed error —
        // never a hang past the (generous) horizon, never a panic.
        for (i, c) in faulted.clients.iter().enumerate() {
            if c.home == victim {
                assert!(
                    c.complete || c.first_error.is_some(),
                    "victim client {i} neither finished nor errored:\n{faulted:?}"
                );
            }
        }
    }

    #[test]
    fn wedge_is_declared_dead_and_restarted() {
        let (shards, n) = (2, 10);
        let policy = RestartPolicy::default();
        let baseline =
            run::<SlTcpStack>(Mode::Threaded, shards, n, policy, None, 3, RESTART_HORIZON);
        let victim = baseline.clients[0].home;
        let plan = ShardFaultPlan {
            faults: vec![(victim as u32, FaultSpec { at_round: 5, kind: FaultKind::Wedge })],
        };
        let faulted =
            run::<SlTcpStack>(Mode::Threaded, shards, n, policy, Some(&plan), 3, RESTART_HORIZON);
        assert!(
            has_event(&faulted, FaultEventKind::DeclaredDead),
            "wedge was not declared dead:\n{faulted:?}"
        );
        assert!(faulted.counters.shard_restarts >= 1, "wedged shard was not replaced:\n{faulted:?}");
        assert_healthy_isolated(&baseline, &faulted);
        for (i, c) in faulted.clients.iter().enumerate() {
            assert!(c.complete, "client {i} never recovered from the wedge:\n{faulted:?}");
        }
    }

    #[test]
    fn transient_stall_recovers_without_restart() {
        let (shards, n) = (2, 10);
        // dead_after high enough that a 3-round stall never escalates.
        let policy = RestartPolicy { dead_after: 8, ..Default::default() };
        let baseline =
            run::<SlTcpStack>(Mode::Threaded, shards, n, policy, None, 0, RESTART_HORIZON);
        let victim = baseline.clients[0].home;
        let plan = ShardFaultPlan {
            faults: vec![(victim as u32, FaultSpec { at_round: 4, kind: FaultKind::Stall(3) })],
        };
        let faulted =
            run::<SlTcpStack>(Mode::Threaded, shards, n, policy, Some(&plan), 0, RESTART_HORIZON);
        assert_eq!(faulted.counters.shard_restarts, 0, "transient stall must not trigger a restart");
        assert!(
            !(0..shards).any(|s| died(&faulted, s)),
            "transient stall must not kill the shard"
        );
        // A stall defers frames, it does not lose them: everyone completes.
        for (i, c) in faulted.clients.iter().enumerate() {
            assert!(c.complete, "client {i} did not survive the stall:\n{faulted:?}");
        }
        assert_healthy_isolated(&baseline, &faulted);
    }

    /// Random fault schedules at every shard count in {1, 2, 4, 8}:
    /// isolation holds, crashed runs replay identically, threaded ≡ inline
    /// — the proptest-style sweep over [`ShardFaultPlan::random`] schedules.
    #[test]
    fn random_fault_plans_isolation_and_replay() {
        for &shards in &[1usize, 2, 4, 8] {
            for seed in 0u64..3 {
                let plan = ShardFaultPlan::random(
                    seed.wrapping_mul(0x9E37) ^ shards as u64,
                    shards,
                    25,
                    3,
                );
                let policy = RestartPolicy::default();
                let n = 12;
                let baseline =
                    run::<SlTcpStack>(Mode::Threaded, shards, n, policy, None, 3, RESTART_HORIZON);
                let [a, b, inl] = [Mode::Threaded, Mode::Threaded, Mode::Inline].map(|mode| {
                    run::<SlTcpStack>(mode, shards, n, policy, Some(&plan), 3, RESTART_HORIZON)
                });
                assert_eq!(a, b, "replay diverged (shards={shards} seed={seed} plan={plan:?})");
                assert_eq!(
                    a, inl,
                    "threaded diverged from inline (shards={shards} seed={seed} plan={plan:?})"
                );
                assert_healthy_isolated(&baseline, &a);
            }
        }
    }
}
