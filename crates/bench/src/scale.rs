//! E15 — the many-client scale benchmark for the `slhost` server host.
//!
//! One [`ServedHost`] + [`EchoApp`] hub serves N clients in a
//! [`netsim::star`] topology. Each client connects at a staggered time,
//! sends one ~256 B request, verifies the echo byte-for-byte, then
//! **lingers** idle for 10 s before closing. Keepalive (idle 5 s) runs on
//! both sides, so during the linger phase every established connection
//! holds a standing timer — the regime where the hierarchical timer
//! wheel's O(fired)-per-tick cost separates from the naive
//! scan-every-connection baseline.
//!
//! Per-run invariants (any failure is a violation, reported and fatal to
//! the experiment binary): every client completes with an intact echo,
//! no client sees a transport error, the host accepts exactly N
//! connections with zero refusals, and the host table drains to empty
//! after the clients close.

use crate::client::{Client, Reply, SERVER};
use crate::{dur, json, Report, KINDS};
use netsim::{
    Dur, Keepalive, LinkParams, MultiStackNode, NodeId, SimNet, StackNode, Time, TransportError,
};
use slconform::{ConformStack, Kind};
use slhost::{EchoApp, Host, HostConfig, HostStack, ServedHost, TimerMode};
use sublayer_core::SlTcpStack;
use tcp_mono::stack::TcpStack;

const CLIENT_BASE: u32 = 0x0A01_0000;
/// Request payload length per client.
const REQ_LEN: usize = 256;
/// Gap between successive client connect times.
const STAGGER_NS: u64 = 200_000;
/// Idle hold after the echo completes, before the client closes — the
/// many-idle-connections phase the timer comparison measures.
const LINGER_NS: u64 = 10_000_000_000;
/// Keepalive on both sides: every established connection keeps a timer
/// armed for the whole linger phase.
const KEEPALIVE: Keepalive =
    Keepalive { idle: Dur(5_000_000_000), interval: Dur(1_000_000_000), max_probes: 5 };

fn timer_label(mode: TimerMode) -> &'static str {
    match mode {
        TimerMode::Wheel => "wheel",
        TimerMode::NaiveScan => "naive",
    }
}

/// One cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScaleParams {
    pub stack: Kind,
    pub timer_mode: TimerMode,
    pub n: usize,
    pub seed: u64,
}

/// Everything one run exposes: workload results, host counters, and the
/// invariant violations (empty = clean).
#[derive(Clone, Debug)]
pub struct ScaleOutcome {
    pub stack: &'static str,
    pub timer: &'static str,
    pub n: usize,
    pub seed: u64,
    /// Clients whose echo came back complete and intact.
    pub completed: usize,
    pub corrupt: usize,
    pub client_errors: usize,
    pub first_error: Option<TransportError>,
    pub accepts: u64,
    pub accept_refusals: u64,
    /// Completed connections per wall-second of the connect..finish window.
    pub conns_per_sec: u64,
    /// Connect-to-echo-complete latency percentiles, microseconds.
    pub p50_us: u64,
    pub p99_us: u64,
    /// Connect-to-established (accept) latency percentiles, microseconds
    /// — p99, not a mean, so accept-queue stalls at scale are visible.
    pub accept_p50_us: u64,
    pub accept_p99_us: u64,
    /// `HostCounters::bytes_per_conn` sampled mid-linger (all N
    /// connections open): buffered bytes per open connection.
    pub bytes_per_conn: u64,
    /// `HostCounters::shard_occupancy` at the same sample: open
    /// connections as % of table capacity.
    pub shard_occupancy: u64,
    pub ticks: u64,
    pub timer_fires: u64,
    pub timer_touches: u64,
    /// `timer_touches * 100 / ticks` — the wheel-vs-naive figure of merit,
    /// fixed-point so the JSON stays integers-only.
    pub work_per_tick_x100: u64,
    pub frames_in: u64,
    pub frames_out: u64,
    pub events: u64,
    pub echoed_bytes: u64,
    /// Server-side inter-sublayer boundary crossings (0 for the
    /// monolithic stack, which has none) — the crossing-overhead figure
    /// at scale.
    pub crossings: u64,
    /// Host-tracked connections still present at the horizon (leak check).
    pub server_residual: usize,
    pub sim_ms: u64,
    pub violations: Vec<String>,
}

/// What a run's echo clients saw, gathered after the horizon.
pub(crate) struct EchoTally {
    /// Clients whose echo came back complete and intact.
    pub completed: usize,
    pub corrupt: usize,
    pub client_errors: usize,
    pub first_error: Option<TransportError>,
    /// Indices of the clients that never completed.
    starved: Vec<usize>,
    /// Connect-to-echo-complete and connect-to-established latencies,
    /// microseconds, ascending.
    pub lat_us: Vec<u64>,
    pub accept_us: Vec<u64>,
    /// Completed connections per simulated second of the first-connect
    /// to last-echo window.
    pub conns_per_sec: u64,
}

pub(crate) fn tally<S: HostStack>(net: &SimNet, cids: &[NodeId]) -> EchoTally {
    let mut t = EchoTally {
        completed: 0,
        corrupt: 0,
        client_errors: 0,
        first_error: None,
        starved: Vec::new(),
        lat_us: Vec::new(),
        accept_us: Vec::new(),
        conns_per_sec: 0,
    };
    let mut first_connect = u64::MAX;
    let mut last_done = 0u64;
    for (i, &cid) in cids.iter().enumerate() {
        let c = &net.node::<StackNode<Client<S>>>(cid).stack;
        if c.corrupt {
            t.corrupt += 1;
        }
        // An echo client errs if its connection ever fails, after the
        // echo completed too.
        if let Some(e) = c.error.or(c.late_error) {
            t.client_errors += 1;
            t.first_error.get_or_insert(e);
        }
        if let (Some(t0), Some(te)) = (c.connected_at, c.established_at) {
            t.accept_us.push(te.nanos().saturating_sub(t0.nanos()) / 1_000);
        }
        match (c.connected_at, c.done_at) {
            (Some(t0), Some(t1)) if !c.corrupt => {
                t.completed += 1;
                t.lat_us.push(t1.nanos().saturating_sub(t0.nanos()) / 1_000);
                first_connect = first_connect.min(t0.nanos());
                last_done = last_done.max(t1.nanos());
            }
            _ => t.starved.push(i),
        }
    }
    t.lat_us.sort_unstable();
    t.accept_us.sort_unstable();
    let window = last_done.saturating_sub(first_connect);
    t.conns_per_sec = (t.completed as u64 * 1_000_000_000).checked_div(window).unwrap_or(0);
    t
}

impl EchoTally {
    /// The workload invariants of an echo sweep: all `n` clients complete
    /// intact and error-free, the host accepted exactly `n` with no
    /// refusals, and it echoed exactly the bytes the workload demanded.
    pub fn violations(
        &self,
        n: usize,
        accepts: u64,
        accept_refusals: u64,
        echoed: u64,
        expected: u64,
    ) -> Vec<String> {
        let mut v = Vec::new();
        if self.completed != n {
            let head: Vec<String> = self.starved.iter().take(5).map(|i| i.to_string()).collect();
            v.push(format!(
                "{} of {} clients never completed (first: [{}])",
                n - self.completed,
                n,
                head.join(",")
            ));
        }
        if self.corrupt > 0 {
            v.push(format!("{} corrupt echoes", self.corrupt));
        }
        if self.client_errors > 0 {
            v.push(format!(
                "{} client transport errors (first: {:?})",
                self.client_errors,
                self.first_error.expect("counted an error")
            ));
        }
        if accepts != n as u64 {
            v.push(format!("accepted {accepts} of {n} connections"));
        }
        if accept_refusals != 0 {
            v.push(format!("{accept_refusals} accept refusals"));
        }
        if echoed != expected {
            v.push(format!("echoed {echoed} bytes, expected {expected}"));
        }
        v
    }
}

/// Deterministic per-client request payload.
fn request(i: usize) -> Vec<u8> {
    (0..REQ_LEN).map(|j| ((i * 31 + j) % 251) as u8).collect()
}

/// Run one cell of the sweep.
pub fn run_one(p: ScaleParams) -> ScaleOutcome {
    match p.stack {
        Kind::Sub => run_generic::<SlTcpStack>(p),
        Kind::Mono => run_generic::<TcpStack>(p),
    }
}

fn run_generic<S: ConformStack>(p: ScaleParams) -> ScaleOutcome {
    let mk = |addr| S::mk_with(addr, Some(KEEPALIVE), slmetrics::shared());
    let cfg = HostConfig {
        listen_port: SERVER.port,
        backlog: 256,
        batch_window: dur(50_000),
        timer_mode: p.timer_mode,
        ..HostConfig::default()
    };
    let server = ServedHost::new(Host::new(mk(SERVER.addr), cfg), EchoApp::default());
    let clients: Vec<Client<S>> = (0..p.n)
        .map(|i| {
            Client::new(
                mk(CLIENT_BASE + i as u32),
                Time(1_000_000 + STAGGER_NS * i as u64),
                request(i),
                Reply::Echo,
            )
            .with_linger(dur(LINGER_NS))
        })
        .collect();

    let (mut net, sid, cids) = netsim::star(
        p.seed,
        server,
        clients,
        LinkParams::delay_only(dur(1_000_000)),
    );
    net.poll_all();
    // Last connect + generous handshake/echo slack + linger + close settle.
    // The settle must outlast the sublayered stack's 10 s TIME_WAIT: its CM
    // holds *both* closers there, so server-side conns are reaped only
    // after it expires (mono releases the passive closer immediately).
    let horizon = Time(
        1_000_000 + STAGGER_NS * p.n as u64 + 2_000_000_000 + LINGER_NS + 12_000_000_000,
    );
    // Mid-linger: every client has echoed but none has closed — sample
    // the occupancy gauges with all N connections open.
    let mid = Time(1_000_000 + STAGGER_NS * p.n as u64 + 2_000_000_000 + LINGER_NS / 2);
    net.run_until(mid);
    net.node_mut::<MultiStackNode<ServedHost<S, EchoApp>>>(sid)
        .stack
        .host
        .sample_gauges();
    net.run_until(horizon);

    let t = tally::<S>(&net, &cids);
    let srv = &net.node::<MultiStackNode<ServedHost<S, EchoApp>>>(sid).stack;
    let k = &srv.host.counters;
    let mut out = ScaleOutcome {
        stack: p.stack.label(),
        timer: timer_label(p.timer_mode),
        n: p.n,
        seed: p.seed,
        completed: t.completed,
        corrupt: t.corrupt,
        client_errors: t.client_errors,
        first_error: t.first_error,
        accepts: k.accepts,
        accept_refusals: k.accept_refusals,
        conns_per_sec: t.conns_per_sec,
        p50_us: crate::percentile(&t.lat_us, 50),
        p99_us: crate::percentile(&t.lat_us, 99),
        accept_p50_us: crate::percentile(&t.accept_us, 50),
        accept_p99_us: crate::percentile(&t.accept_us, 99),
        bytes_per_conn: k.bytes_per_conn,
        shard_occupancy: k.shard_occupancy,
        ticks: k.ticks,
        timer_fires: k.timer_fires,
        timer_touches: k.timer_touches,
        work_per_tick_x100: (k.timer_touches * 100).checked_div(k.ticks).unwrap_or(0),
        frames_in: k.frames_in,
        frames_out: k.frames_out,
        events: k.events_dispatched,
        echoed_bytes: srv.app.echoed,
        crossings: srv.host.stack().crossing_events().unwrap_or(0),
        server_residual: srv.host.tracked_count(),
        sim_ms: net.now().nanos() / 1_000_000,
        violations: Vec::new(),
    };

    let expected = (p.n * REQ_LEN) as u64;
    out.violations =
        t.violations(p.n, out.accepts, out.accept_refusals, out.echoed_bytes, expected);
    if out.server_residual != 0 {
        out.violations
            .push(format!("host leaked {} connections past close", out.server_residual));
    }
    out
}

/// The sweep: smoke = N=30 across both stacks × both timer modes; full =
/// wheel at N ∈ {100, 1000, 5000} × both stacks × two seeds, plus the
/// naive baseline at N ∈ {100, 1000} (quadratic — N=5000 naive is the
/// point of not having a wheel, so it is not run).
pub fn sweep(smoke: bool) -> Vec<ScaleOutcome> {
    let mut outs = Vec::new();
    if smoke {
        for stack in KINDS {
            for timer_mode in [TimerMode::Wheel, TimerMode::NaiveScan] {
                outs.push(run_one(ScaleParams { stack, timer_mode, n: 30, seed: 1 }));
            }
        }
        return outs;
    }
    for &n in &[100usize, 1000, 5000] {
        for stack in KINDS {
            for seed in [1u64, 2] {
                outs.push(run_one(ScaleParams {
                    stack,
                    timer_mode: TimerMode::Wheel,
                    n,
                    seed,
                }));
            }
        }
    }
    for &n in &[100usize, 1000] {
        for stack in KINDS {
            outs.push(run_one(ScaleParams {
                stack,
                timer_mode: TimerMode::NaiveScan,
                n,
                seed: 1,
            }));
        }
    }
    outs
}

/// Sweep-level acceptance: wherever the same (stack, n, seed) cell ran
/// under both timer modes, the wheel must do strictly less timer work per
/// tick than the naive scan.
pub fn cross_checks(outs: &[ScaleOutcome]) -> Vec<String> {
    let mut v = Vec::new();
    for naive in outs.iter().filter(|o| o.timer == "naive") {
        let Some(wheel) = outs.iter().find(|o| {
            o.timer == "wheel"
                && o.stack == naive.stack
                && o.n == naive.n
                && o.seed == naive.seed
        }) else {
            continue;
        };
        if wheel.work_per_tick_x100 >= naive.work_per_tick_x100 {
            v.push(format!(
                "wheel work/tick ({}.{:02}) not below naive ({}.{:02}) at stack={} n={}",
                wheel.work_per_tick_x100 / 100,
                wheel.work_per_tick_x100 % 100,
                naive.work_per_tick_x100 / 100,
                naive.work_per_tick_x100 % 100,
                naive.stack,
                naive.n
            ));
        }
    }
    v
}

/// Deterministic JSON for one outcome (stable field order, integers
/// only — byte-identical for identical seeds).
pub fn outcome_json(o: &ScaleOutcome) -> String {
    json::obj(&[
        ("stack", json::str(o.stack)),
        ("timer", json::str(o.timer)),
        ("n", o.n.to_string()),
        ("seed", o.seed.to_string()),
        ("completed", o.completed.to_string()),
        ("corrupt", o.corrupt.to_string()),
        ("client_errors", o.client_errors.to_string()),
        ("first_error", json::opt_err(o.first_error)),
        ("accepts", o.accepts.to_string()),
        ("accept_refusals", o.accept_refusals.to_string()),
        ("conns_per_sec", o.conns_per_sec.to_string()),
        ("p50_us", o.p50_us.to_string()),
        ("p99_us", o.p99_us.to_string()),
        ("accept_p50_us", o.accept_p50_us.to_string()),
        ("accept_p99_us", o.accept_p99_us.to_string()),
        ("bytes_per_conn", o.bytes_per_conn.to_string()),
        ("shard_occupancy", o.shard_occupancy.to_string()),
        ("ticks", o.ticks.to_string()),
        ("timer_fires", o.timer_fires.to_string()),
        ("timer_touches", o.timer_touches.to_string()),
        ("work_per_tick_x100", o.work_per_tick_x100.to_string()),
        ("frames_in", o.frames_in.to_string()),
        ("frames_out", o.frames_out.to_string()),
        ("events", o.events.to_string()),
        ("echoed_bytes", o.echoed_bytes.to_string()),
        ("crossings", o.crossings.to_string()),
        ("server_residual", o.server_residual.to_string()),
        ("sim_ms", o.sim_ms.to_string()),
        ("violations", json::strs(&o.violations)),
    ])
}

/// The whole sweep (plus sweep-level checks) as one JSON document.
pub fn summary_json(outs: &[ScaleOutcome], cross: &[String]) -> String {
    let rows: Vec<String> = outs.iter().map(outcome_json).collect();
    let violations = outs.iter().map(|o| o.violations.len()).sum();
    crate::sweep_json("runs", &rows, Some(("cross_checks", cross)), violations)
}

/// The campaign: [`sweep`] plus the wheel-vs-naive [`cross_checks`].
pub fn report(smoke: bool) -> Report {
    let outs = sweep(smoke);
    let cross = cross_checks(&outs);
    Report::sweep(
        summary_json(&outs, &cross),
        vec![
            "stack", "timer", "n", "seed", "done", "conns/s", "p50 us", "p99 us", "acc p99 us",
            "occ %", "work/tick", "ticks", "xings/conn", "viol",
        ],
        outs
            .iter()
            .map(|o| {
                vec![
                    o.stack.to_string(),
                    o.timer.to_string(),
                    o.n.to_string(),
                    o.seed.to_string(),
                    format!("{}/{}", o.completed, o.n),
                    o.conns_per_sec.to_string(),
                    o.p50_us.to_string(),
                    o.p99_us.to_string(),
                    o.accept_p99_us.to_string(),
                    o.shard_occupancy.to_string(),
                    format!("{}.{:02}", o.work_per_tick_x100 / 100, o.work_per_tick_x100 % 100),
                    o.ticks.to_string(),
                    (o.crossings / o.n as u64).to_string(),
                    o.violations.len().to_string(),
                ]
            })
            .collect(),
        outs
            .iter()
            .flat_map(|o| {
                crate::tagged(
                    format!("{} {} n={} seed={}", o.stack, o.timer, o.n, o.seed),
                    &o.violations,
                )
            })
            .chain(crate::tagged("cross".into(), &cross))
            .collect(),
    )
}
