//! E20 — the sharded multi-core host benchmark (`slshard`).
//!
//! One [`slshard::ShardedHost`] — N whole [`slhost`] hosts behind the
//! stateless 4-tuple shard router — serves a star of clients with
//! heavy-tailed request sizes ([`netsim::HeavyTailed`]) and RTT
//! diversity (four per-client link classes, 100 µs to 10 ms one-way).
//! Each client connects at a staggered time, sends one request, verifies
//! the echo byte-for-byte, lingers briefly (so a mid-run gauge sample
//! sees every connection open), then closes.
//!
//! Per-run invariants (any failure is a violation, reported and fatal to
//! `exp shard`): every echo completes intact with no transport errors
//! and no refusals; every shard's memory peak stays within its own
//! budget and the per-shard peaks sum within the global budget (sum of
//! peaks bounds the peak of the sum, so this is conservative); the
//! global pressure floor never leaves Nominal under a sanely provisioned
//! fleet; no shard starves and per-shard work stays balanced
//! (max/mean frames ≤ 1.5); and every shard's table drains to empty.
//!
//! The smoke sweep runs each cell in both execution modes and requires
//! the threaded run's outcome to be byte-identical to the single-thread
//! inline reference — the determinism claim, enforced in CI.

use crate::client::{Client, Reply, SERVER};
use crate::scale::tally;
use crate::{dur, json, Report, KINDS};
use netsim::{HeavyTailed, LinkParams, MultiStackNode, SimNet, StackNode, Time, TransportError};
use slconform::{ConformStack, Kind};
use slhost::{EchoApp, Host, HostConfig, ResourceBudget, ServedHost};
use slshard::{Mode, ShardedConfig, ShardedHost};
use sublayer_core::SlTcpStack;
use tcp_mono::stack::TcpStack;

const CLIENT_BASE: u32 = 0x0B00_0000;
/// Gap between successive client connect times.
const STAGGER_NS: u64 = 20_000;
/// Heavy-tailed request sizes: mice of 64 B, elephants to 8 KiB.
const REQ_MIN: u64 = 64;
const REQ_MAX: u64 = 8192;
/// Idle hold after the echo completes, so the mid-run gauge sample sees
/// every connection open at once.
const LINGER_NS: u64 = 5_000_000_000;
/// One-way delay classes (RTT diversity), picked per client.
const DELAY_CLASSES_NS: [u64; 4] = [100_000, 500_000, 2_500_000, 10_000_000];
/// Per-shard byte budget; the global budget is `shards ×` this. Sized so
/// a healthy run never leaves Nominal — the invariants then prove the
/// budgets were *live but never exceeded*, not absent.
const SHARD_BUDGET: usize = 16 << 20;

pub(crate) fn mode_label(m: Mode) -> &'static str {
    match m {
        Mode::Threaded => "threaded",
        Mode::Inline => "inline",
    }
}

/// One cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct ShardParams {
    pub stack: Kind,
    pub mode: Mode,
    pub shards: usize,
    pub n: usize,
    pub seed: u64,
}

/// Everything one run exposes: workload results, aggregated and
/// per-shard host counters, and the invariant violations (empty = clean).
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    pub stack: &'static str,
    pub mode: &'static str,
    pub shards: usize,
    pub n: usize,
    pub seed: u64,
    pub completed: usize,
    pub corrupt: usize,
    pub client_errors: usize,
    pub first_error: Option<TransportError>,
    pub accepts: u64,
    pub accept_refusals: u64,
    pub conns_per_sec: u64,
    /// Connect-to-established (accept) latency percentiles, microseconds.
    pub accept_p50_us: u64,
    pub accept_p99_us: u64,
    /// Connect-to-echo-complete latency percentiles, microseconds.
    pub p50_us: u64,
    pub p99_us: u64,
    /// Echoed payload bytes, and what the workload demanded.
    pub echoed_bytes: u64,
    pub expected_bytes: u64,
    /// Fleet totals from the mid-run gauge sample: open connections,
    /// buffered bytes per open connection, worst-shard occupancy %.
    pub open_mid: u64,
    pub bytes_per_conn: u64,
    pub shard_occupancy: u64,
    /// Fleet memory: sum and worst shard of `mem_peak`, and peak bytes
    /// per connection (sum of peaks / peak connections) — the
    /// memory-per-connection headline.
    pub mem_peak_total: u64,
    pub mem_peak_worst_shard: u64,
    pub peak_bytes_per_conn: u64,
    pub conns_peak_total: u64,
    /// Per-shard frames handled (work balance), and max/mean ×100.
    pub shard_frames: Vec<u64>,
    pub balance_x100: u64,
    /// Per-shard `mem_peak` against the per-shard budget.
    pub shard_mem_peaks: Vec<u64>,
    pub shard_budget: u64,
    pub global_budget: u64,
    /// Global-ladder floor tier at the end of the run (0 = Nominal).
    pub final_floor: u8,
    pub crossings: u64,
    /// Fleet health gauges (E21 fault-domain plumbing): worst heartbeat
    /// age in rounds, supervisor restarts, failover-aborted connections,
    /// and coordinator waits on a slow shard's ring. All 0 in a healthy
    /// run — asserting them here keeps the gauges honest under load.
    pub heartbeat_age: u64,
    pub shard_restarts: u64,
    pub failover_aborts: u64,
    pub ring_stalls: u64,
    /// Fleet-wide connections still tracked at the horizon (leak check).
    pub server_residual: u64,
    pub sim_ms: u64,
    pub violations: Vec<String>,
}

/// Deterministic request payload for client `i` (heavy-tailed length).
fn request(sizes: &HeavyTailed, i: usize) -> Vec<u8> {
    let len = sizes.size(i as u64) as usize;
    (0..len).map(|j| ((i * 131 + j * 7) % 251) as u8).collect()
}

/// Run one cell of the sweep.
pub fn run_one(p: ShardParams) -> ShardOutcome {
    match p.stack {
        Kind::Sub => run_generic::<SlTcpStack>(p),
        Kind::Mono => run_generic::<TcpStack>(p),
    }
}

fn run_generic<S: ConformStack>(p: ShardParams) -> ShardOutcome {
    let mk = |addr| S::mk_with(addr, None, slmetrics::shared());
    let sizes = HeavyTailed::new(p.seed ^ 0x5EED_F10D, REQ_MIN, REQ_MAX);
    let expected_bytes: u64 = (0..p.n as u64).map(|i| sizes.size(i)).sum();
    // Per-shard hosts must hold every connection the router can send
    // them; 2× the fair share absorbs hash imbalance.
    let per_shard_conns = (p.n / p.shards.max(1)) * 2 + 1024;
    let host_cfg = HostConfig {
        listen_port: SERVER.port,
        backlog: 1024,
        max_conns: per_shard_conns,
        batch_window: dur(50_000),
        budget: ResourceBudget::bytes(SHARD_BUDGET),
        refresh_every: dur(5_000_000),
        ..HostConfig::default()
    };
    let shard_cfg = ShardedConfig {
        shards: p.shards,
        seed: p.seed,
        batch_window: dur(50_000),
        ring_cap: 4096,
        global_budget: SHARD_BUDGET * p.shards,
        mode: p.mode,
        ..ShardedConfig::default()
    };
    let server: ShardedHost<S, EchoApp> = ShardedHost::new(shard_cfg, move |_shard| {
        ServedHost::new(Host::new(mk(SERVER.addr), host_cfg.clone()), EchoApp::default())
    });

    // Star with per-client RTT diversity: build the topology by hand so
    // each client link gets its own delay class.
    let mut net = SimNet::new(p.seed);
    let sid = net.add_node(Box::new(MultiStackNode::new(server)));
    let mut cids = Vec::with_capacity(p.n);
    for i in 0..p.n {
        let client = Client::new(
            mk(CLIENT_BASE + i as u32),
            Time(1_000_000 + STAGGER_NS * i as u64),
            request(&sizes, i),
            Reply::Echo,
        )
        .with_linger(dur(LINGER_NS));
        let cid = net.add_node(Box::new(StackNode::new(client)));
        let delay = DELAY_CLASSES_NS[sizes.pick(i as u64, 4) as usize];
        net.connect(sid, i, cid, 0, LinkParams::delay_only(dur(delay)));
        cids.push(cid);
    }
    net.poll_all();

    // Mid-linger: the last client has echoed (worst RTT plus transfer
    // slack) but nobody has closed — sample the gauges with every
    // connection open.
    let last_connect = 1_000_000 + STAGGER_NS * p.n as u64;
    let mid = Time(last_connect + 2_000_000_000);
    net.run_until(mid);
    let (open_mid, bytes_per_conn, shard_occupancy) = {
        let srv =
            &mut net.node_mut::<MultiStackNode<ShardedHost<S, EchoApp>>>(sid).stack;
        let (mid_counters, _, _) = srv.aggregate();
        (
            mid_counters.conns_open,
            mid_counters.bytes_per_conn,
            mid_counters.shard_occupancy,
        )
    };
    // Linger + close settle; the sublayered CM holds both closers in its
    // 10 s TIME_WAIT, so shard tables drain only after it expires.
    let horizon = Time(last_connect + 2_000_000_000 + LINGER_NS + 12_000_000_000);
    net.run_until(horizon);

    let t = tally::<S>(&net, &cids);

    let srv = &mut net.node_mut::<MultiStackNode<ShardedHost<S, EchoApp>>>(sid).stack;
    let snaps = srv.snapshots();
    let shard_frames: Vec<u64> = snaps.iter().map(|s| s.counters.frames_in).collect();
    let shard_mem_peaks: Vec<u64> = snaps.iter().map(|s| s.counters.mem_peak).collect();
    let mut total = slmetrics::HostCounters::default();
    let (mut echoed, mut crossings) = (0u64, 0u64);
    for s in &snaps {
        total.absorb(&s.counters);
        echoed += s.app_a;
        crossings += s.crossings;
    }
    let max_frames = shard_frames.iter().copied().max().unwrap_or(0);
    let min_frames = shard_frames.iter().copied().min().unwrap_or(0);
    let mean_frames =
        (total.frames_in).checked_div(p.shards as u64).unwrap_or(0).max(1);
    let balance_x100 = max_frames * 100 / mean_frames;

    let mut out = ShardOutcome {
        stack: p.stack.label(),
        mode: mode_label(p.mode),
        shards: p.shards,
        n: p.n,
        seed: p.seed,
        completed: t.completed,
        corrupt: t.corrupt,
        client_errors: t.client_errors,
        first_error: t.first_error,
        accepts: total.accepts,
        accept_refusals: total.accept_refusals + total.pressure_refusals,
        conns_per_sec: t.conns_per_sec,
        accept_p50_us: crate::percentile(&t.accept_us, 50),
        accept_p99_us: crate::percentile(&t.accept_us, 99),
        p50_us: crate::percentile(&t.lat_us, 50),
        p99_us: crate::percentile(&t.lat_us, 99),
        echoed_bytes: echoed,
        expected_bytes,
        open_mid,
        bytes_per_conn,
        shard_occupancy,
        mem_peak_total: total.mem_peak,
        mem_peak_worst_shard: shard_mem_peaks.iter().copied().max().unwrap_or(0),
        peak_bytes_per_conn: total
            .mem_peak
            .checked_div(total.conns_peak)
            .unwrap_or(0),
        conns_peak_total: total.conns_peak,
        shard_frames,
        balance_x100,
        shard_mem_peaks,
        shard_budget: SHARD_BUDGET as u64,
        global_budget: (SHARD_BUDGET * p.shards) as u64,
        final_floor: match srv.global_floor() {
            netsim::Pressure::Nominal => 0,
            netsim::Pressure::Elevated => 1,
            netsim::Pressure::High => 2,
            netsim::Pressure::Critical => 3,
        },
        crossings,
        heartbeat_age: total.heartbeat_age,
        shard_restarts: total.shard_restarts,
        failover_aborts: total.failover_aborts,
        ring_stalls: total.ring_stalls,
        server_residual: snaps.iter().map(|s| s.counters.conns_open).sum(),
        sim_ms: net.now().nanos() / 1_000_000,
        violations: Vec::new(),
    };

    out.violations =
        t.violations(p.n, out.accepts, out.accept_refusals, out.echoed_bytes, out.expected_bytes);
    for (i, &peak) in out.shard_mem_peaks.iter().enumerate() {
        if peak > out.shard_budget {
            out.violations.push(format!(
                "shard {i} budget exceeded: peak {peak} > {}",
                out.shard_budget
            ));
        }
    }
    // Sum of per-shard peaks bounds the peak of the fleet sum, so this
    // conservatively proves the global budget was never exceeded.
    if out.mem_peak_total > out.global_budget {
        out.violations.push(format!(
            "global budget exceeded: peak sum {} > {}",
            out.mem_peak_total, out.global_budget
        ));
    }
    if out.final_floor != 0 {
        out.violations
            .push(format!("global floor ended at tier {}", out.final_floor));
    }
    if min_frames == 0 {
        out.violations.push("a shard starved (0 frames handled)".into());
    }
    if out.balance_x100 > 150 {
        out.violations.push(format!(
            "shard work imbalance: max/mean = {}.{:02} > 1.50 ({:?})",
            out.balance_x100 / 100,
            out.balance_x100 % 100,
            out.shard_frames
        ));
    }
    if out.server_residual != 0 {
        out.violations.push(format!(
            "shards leaked {} connections past close",
            out.server_residual
        ));
    }
    // No faults are injected here, so the E21 fault-domain gauges must
    // stay silent: any restart or failover abort in a healthy run is a
    // supervisor false positive.
    if out.shard_restarts != 0 || out.failover_aborts != 0 {
        out.violations.push(format!(
            "fault-domain activity in a healthy run: restarts={} aborts={}",
            out.shard_restarts, out.failover_aborts
        ));
    }
    out
}

/// The mode-determinism cross-check, shared with [`crate::failover`]:
/// a threaded outcome and the inline outcome of the same `cell` must
/// encode identically once the mode label is blanked (`json_sans_mode`).
pub(crate) fn modes_agree<O>(
    outs: &[O],
    mode: impl Fn(&O) -> &'static str,
    cell: impl Fn(&O) -> String,
    json_sans_mode: impl Fn(&O) -> String,
) -> Vec<String> {
    let mut v = Vec::new();
    for t in outs.iter().filter(|o| mode(o) == "threaded") {
        let Some(i) = outs.iter().find(|o| mode(o) == "inline" && cell(o) == cell(t)) else {
            continue;
        };
        let (jt, ji) = (json_sans_mode(t), json_sans_mode(i));
        if jt != ji {
            v.push(format!(
                "threaded run diverged from inline reference at {}:\n  threaded: {jt}\n  inline:   {ji}",
                cell(t)
            ));
        }
    }
    v
}

/// A threaded run and its inline reference (same stack, shards, n, seed)
/// must agree on every field except the mode label.
pub fn mode_cross_checks(outs: &[ShardOutcome]) -> Vec<String> {
    modes_agree(
        outs,
        |o| o.mode,
        |o| format!("stack={} shards={} n={} seed={}", o.stack, o.shards, o.n, o.seed),
        |o| outcome_json(&ShardOutcome { mode: "", ..o.clone() }),
    )
}

/// The sweep. Smoke: both stacks × both modes at n=400, shards=4 (the
/// mode pair feeds [`mode_cross_checks`]). Full: both stacks, threaded,
/// 8 shards, n ∈ {10k, 100k}.
pub fn sweep(smoke: bool) -> Vec<ShardOutcome> {
    let mut outs = Vec::new();
    if smoke {
        for stack in KINDS {
            for mode in [Mode::Threaded, Mode::Inline] {
                outs.push(run_one(ShardParams {
                    stack,
                    mode,
                    shards: 4,
                    n: 400,
                    seed: 1,
                }));
            }
        }
        return outs;
    }
    for n in [10_000usize, 100_000] {
        for stack in KINDS {
            outs.push(run_one(ShardParams {
                stack,
                mode: Mode::Threaded,
                shards: 8,
                n,
                seed: 1,
            }));
        }
    }
    outs
}

/// Deterministic JSON for one outcome (stable field order, integers
/// only — byte-identical for identical seeds).
pub fn outcome_json(o: &ShardOutcome) -> String {
    json::obj(&[
        ("stack", json::str(o.stack)),
        ("mode", json::str(o.mode)),
        ("shards", o.shards.to_string()),
        ("n", o.n.to_string()),
        ("seed", o.seed.to_string()),
        ("completed", o.completed.to_string()),
        ("corrupt", o.corrupt.to_string()),
        ("client_errors", o.client_errors.to_string()),
        ("accepts", o.accepts.to_string()),
        ("accept_refusals", o.accept_refusals.to_string()),
        ("conns_per_sec", o.conns_per_sec.to_string()),
        ("accept_p50_us", o.accept_p50_us.to_string()),
        ("accept_p99_us", o.accept_p99_us.to_string()),
        ("p50_us", o.p50_us.to_string()),
        ("p99_us", o.p99_us.to_string()),
        ("echoed_bytes", o.echoed_bytes.to_string()),
        ("expected_bytes", o.expected_bytes.to_string()),
        ("open_mid", o.open_mid.to_string()),
        ("bytes_per_conn", o.bytes_per_conn.to_string()),
        ("shard_occupancy", o.shard_occupancy.to_string()),
        ("mem_peak_total", o.mem_peak_total.to_string()),
        ("mem_peak_worst_shard", o.mem_peak_worst_shard.to_string()),
        ("peak_bytes_per_conn", o.peak_bytes_per_conn.to_string()),
        ("conns_peak_total", o.conns_peak_total.to_string()),
        ("shard_frames", json::list(&o.shard_frames)),
        ("balance_x100", o.balance_x100.to_string()),
        ("shard_mem_peaks", json::list(&o.shard_mem_peaks)),
        ("shard_budget", o.shard_budget.to_string()),
        ("global_budget", o.global_budget.to_string()),
        ("final_floor", o.final_floor.to_string()),
        ("crossings", o.crossings.to_string()),
        ("heartbeat_age", o.heartbeat_age.to_string()),
        ("shard_restarts", o.shard_restarts.to_string()),
        ("failover_aborts", o.failover_aborts.to_string()),
        ("ring_stalls", o.ring_stalls.to_string()),
        ("server_residual", o.server_residual.to_string()),
        ("sim_ms", o.sim_ms.to_string()),
        ("violations", json::strs(&o.violations)),
    ])
}

/// The whole sweep (plus the mode cross-checks) as one JSON document.
pub fn summary_json(outs: &[ShardOutcome], cross: &[String]) -> String {
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
            "stack", "mode", "shards", "n", "done", "conns/s", "acc p99 us", "p99 us",
            "peak B/conn", "occ %", "balance", "floor", "viol",
        ],
        outs
            .iter()
            .map(|o| {
                vec![
                    o.stack.to_string(),
                    o.mode.to_string(),
                    o.shards.to_string(),
                    o.n.to_string(),
                    format!("{}/{}", o.completed, o.n),
                    o.conns_per_sec.to_string(),
                    o.accept_p99_us.to_string(),
                    o.p99_us.to_string(),
                    o.peak_bytes_per_conn.to_string(),
                    o.shard_occupancy.to_string(),
                    format!("{}.{:02}", o.balance_x100 / 100, o.balance_x100 % 100),
                    o.final_floor.to_string(),
                    o.violations.len().to_string(),
                ]
            })
            .collect(),
        outs
            .iter()
            .flat_map(|o| {
                crate::tagged(
                    format!("{} {} shards={} n={}", o.stack, o.mode, o.shards, o.n),
                    &o.violations,
                )
            })
            .chain(crate::tagged("mode-determinism".into(), &cross))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    //! System-level determinism for [`slshard::ShardedHost`], on the
    //! failover campaign's harness without faults:
    //!
    //! 1. Two threaded runs of the same workload replay identically —
    //!    same per-client outcomes and timestamps, same server counters —
    //!    even though shards run on real OS threads.
    //! 2. A threaded run is identical to the single-threaded
    //!    [`Mode::Inline`] reference (same cores, same command streams, no
    //!    threads), which is the system-level form of the merge's
    //!    reference cross-check.
    //! 3. Shard-count invariance: the final per-connection byte streams
    //!    are identical for N=1 and N=4 shards (routing spreads work; it
    //!    must not change what any connection observes).

    use super::*;
    use crate::failover::{run_net, FailoverParams, RunData};
    use slshard::RestartPolicy;

    /// A no-fault run of `n` echo clients. The horizon outlasts the
    /// active closer's 10 s TIME_WAIT, so clients finish their close.
    fn run<S: ConformStack>(mode: Mode, shards: usize, n: usize) -> RunData {
        let p = FailoverParams { stack: S::KIND, mode, shards, n, seed: 0x51AD, restart: true };
        run_net::<S>(p, RestartPolicy::default(), None, 0, Time(15_000_000_000))
    }

    /// Every client received its request back intact and then closed.
    fn assert_all_complete(r: &RunData, n: usize) {
        assert_eq!(r.clients.len(), n);
        for (i, c) in r.clients.iter().enumerate() {
            assert!(c.complete && c.closed, "client {i} did not complete:\n{r:?}");
        }
    }

    #[test]
    fn two_threaded_runs_replay_identically() {
        let a = run::<SlTcpStack>(Mode::Threaded, 4, 48);
        let b = run::<SlTcpStack>(Mode::Threaded, 4, 48);
        assert_all_complete(&a, 48);
        assert_eq!(a, b, "threaded replay diverged");
    }

    #[test]
    fn threaded_matches_inline_reference() {
        let t = run::<SlTcpStack>(Mode::Threaded, 4, 48);
        let i = run::<SlTcpStack>(Mode::Inline, 4, 48);
        assert_all_complete(&t, 48);
        assert_eq!(t, i, "threaded diverged from inline reference");
    }

    #[test]
    fn mono_stack_threaded_matches_inline() {
        let t = run::<TcpStack>(Mode::Threaded, 2, 32);
        let i = run::<TcpStack>(Mode::Inline, 2, 32);
        assert_all_complete(&t, 32);
        assert_eq!(t, i, "mono threaded diverged from inline");
    }

    #[test]
    fn shard_count_invariance_one_vs_four() {
        let one = run::<SlTcpStack>(Mode::Threaded, 1, 40);
        let four = run::<SlTcpStack>(Mode::Threaded, 4, 40);
        // A complete echo is the client's request byte for byte, so every
        // client's final stream is the same at N=1 and N=4.
        assert_all_complete(&one, 40);
        assert_all_complete(&four, 40);
    }
}
