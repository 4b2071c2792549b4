//! E16 — overload control and graceful degradation for the `slhost` host.
//!
//! One [`ServedHost`] + [`RespApp`] hub serves request/response clients in
//! a [`netsim::star`] topology, under a host-level memory budget
//! ([`slhost::ResourceBudget`]). Four campaign profiles, each run over
//! both transport stacks:
//!
//! - **baseline** — arrivals well under capacity; the uncontended
//!   per-connection goodput every other profile is compared against.
//! - **flood** — an open-loop arrival burst at ~4× the sustainable
//!   service rate. Admission must defer (not refuse) the excess, memory
//!   must stay under budget, and every deferred client must still
//!   complete once pressure recedes — degradation without a cliff.
//! - **slowloris** — deliberately slow readers ([`ReadBudget`] at rate 0)
//!   pin the server's send buffers until the slow-drain detector evicts
//!   them; normal clients arriving afterwards must be unaffected.
//! - **drain** — the host quiesces mid-run: connections admitted before
//!   the drain complete, later arrivals are refused statelessly, and the
//!   host ends fully drained.
//!
//! Per-run invariants (any failure is a violation, fatal to the
//! experiment binary): no client is silently starved — every one either
//! completes with an intact response or observes a typed transport
//! error; memory occupancy never exceeds the configured budget; the host
//! table drains to empty. The sweep-level check is the headline claim:
//! under a 4× flood, the per-connection goodput of *accepted*
//! connections stays within 80% of the uncontended baseline.

use crate::client::{Client, Reply, SERVER};
use crate::{dur, json, Report, KINDS};
use netsim::{
    LinkParams, MultiStackNode, OpenLoopArrivals, ReadBudget, StackNode,
    Time, TransportError,
};
use slconform::{ConformStack, Kind};
use slhost::{
    Host, HostApp, HostConfig, HostEvent, HostStack, ResourceBudget, ServedHost,
    TimerMode,
};
use std::collections::HashMap;
use sublayer_core::SlTcpStack;
use tcp_mono::stack::TcpStack;

const CLIENT_BASE: u32 = 0x0A01_0000;
/// Request payload length per client.
const REQ_LEN: usize = 128;
/// Response length for the short-transfer profiles.
const RESP_SHORT: usize = 16 * 1024;
/// Response length for the slowloris profile — big enough that one
/// unread response pins ~96 KB of server send buffer past the peer's
/// receive window.
const RESP_SLOW: usize = 160 * 1024;
/// Per-client access link: 1 ms delay, 2 Mbit/s. The rate cap makes
/// service time (~65 ms per short response) the bottleneck, so an
/// open-loop burst genuinely outruns the server.
const LINK_DELAY_NS: u64 = 1_000_000;
const LINK_RATE_BPS: u64 = 2_000_000;

/// Deterministic response byte `j` — same formula on both sides.
fn resp_byte(j: usize) -> u8 {
    ((j * 7) % 251) as u8
}

/// Deterministic per-client request payload.
fn request(i: usize) -> Vec<u8> {
    (0..REQ_LEN).map(|j| ((i * 31 + j) % 251) as u8).collect()
}

/// The four campaign shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    Baseline,
    Flood,
    Slowloris,
    Drain,
}

impl Profile {
    pub fn label(self) -> &'static str {
        match self {
            Profile::Baseline => "baseline",
            Profile::Flood => "flood",
            Profile::Slowloris => "slowloris",
            Profile::Drain => "drain",
        }
    }
}

/// One cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct OverloadParams {
    pub profile: Profile,
    pub stack: Kind,
    pub seed: u64,
}

/// Concrete workload a profile expands to.
struct Spec {
    /// Connect time per client; the first `n_slow` are slow readers.
    arrivals: Vec<Time>,
    n_slow: usize,
    resp_len: usize,
    budget_bytes: usize,
    backlog: usize,
    /// Quiesce the host at this time.
    drain_at: Option<Time>,
    horizon: Time,
}

/// Expand an open-loop schedule into concrete connect times. Driving the
/// iterator through `poll` keeps this the same code path a live load
/// generator would use.
fn schedule(start_ns: u64, interval_ns: u64, count: usize) -> Vec<Time> {
    let mut arr = OpenLoopArrivals::new(Time(start_ns), dur(interval_ns), count as u64);
    let mut times = Vec::with_capacity(count);
    while let Some(t) = arr.next_deadline() {
        for _ in 0..arr.poll(t) {
            times.push(t);
        }
    }
    times
}

impl Profile {
    fn spec(self) -> Spec {
        match self {
            // 16 clients, one every 100 ms: each 16 KB response takes
            // ~65 ms at 2 Mbit/s, so at most one service is in flight and
            // pressure never engages.
            Profile::Baseline => Spec {
                arrivals: schedule(100_000_000, 100_000_000, 16),
                n_slow: 0,
                resp_len: RESP_SHORT,
                budget_bytes: 512 * 1024,
                backlog: 16,
                drain_at: None,
                horizon: Time(16_000_000_000),
            },
            // 64 clients in under 100 ms — ~4× the 16-service concurrency
            // the 512 KB budget admits (Elevated at 256 KB = 16 × 16 KB).
            Profile::Flood => Spec {
                arrivals: schedule(100_000_000, 1_500_000, 64),
                n_slow: 0,
                resp_len: RESP_SHORT,
                budget_bytes: 512 * 1024,
                backlog: 16,
                drain_at: None,
                horizon: Time(18_000_000_000),
            },
            // 9 zero-rate readers arrive first and pin ~96 KB of send
            // buffer each (160 KB response minus the peer's ~64 KB
            // receive window); 6 normal clients follow once the
            // slow-drain detector has had time to evict the attackers.
            Profile::Slowloris => Spec {
                arrivals: {
                    let mut a = schedule(100_000_000, 150_000_000, 9);
                    a.extend(schedule(4_000_000_000, 700_000_000, 6));
                    a
                },
                n_slow: 9,
                resp_len: RESP_SLOW,
                budget_bytes: 1024 * 1024,
                backlog: 16,
                drain_at: None,
                horizon: Time(22_000_000_000),
            },
            // 24 clients, one every 100 ms; the host quiesces at 1.25 s,
            // splitting them into ~12 served and ~12 refused.
            Profile::Drain => Spec {
                arrivals: schedule(100_000_000, 100_000_000, 24),
                n_slow: 0,
                resp_len: RESP_SHORT,
                budget_bytes: 512 * 1024,
                backlog: 16,
                drain_at: Some(Time(1_250_000_000)),
                horizon: Time(16_000_000_000),
            },
        }
    }
}

/// Everything one run exposes: per-client fates, host counters, and the
/// invariant violations (empty = clean).
#[derive(Clone, Debug)]
pub struct OverloadOutcome {
    pub profile: &'static str,
    pub stack: &'static str,
    pub seed: u64,
    pub offered: usize,
    pub n_slow: usize,
    /// Clients whose full response arrived intact.
    pub completed: usize,
    /// Clients refused before establishment (gated SYN → reset).
    pub refused: usize,
    /// Clients reset after establishment (shed, slow-drain, or Critical).
    pub evicted: usize,
    /// Clients with neither a completion nor an error — silent
    /// starvation, always a violation.
    pub starved: usize,
    pub corrupt: usize,
    pub accepts: u64,
    pub deferrals: u64,
    pub backlog_refusals: u64,
    /// Established connections refused at host admission (Critical/drain).
    pub host_refusals: u64,
    /// SYNs refused statelessly inside the transport while gated.
    pub stack_refusals: u64,
    pub sheds: u64,
    pub slow_drain_evictions: u64,
    /// Peak memory occupancy vs the configured budget, bytes.
    pub mem_peak: u64,
    pub budget_bytes: u64,
    /// Median per-connection transfer goodput of completed clients,
    /// kbit/s over the first-response-byte → last-byte window (excludes
    /// any admission-deferral wait, per the "accepted connections keep
    /// their goodput" claim).
    pub goodput_kbps_p50: u64,
    /// Median transfer window, microseconds.
    pub xfer_p50_us: u64,
    pub first_error: Option<TransportError>,
    /// Host-tracked connections still present at the horizon.
    pub server_residual: usize,
    /// 1 if the host reported fully drained at the horizon (drain
    /// profile only; 0 elsewhere and on failure).
    pub drained: u64,
    pub sim_ms: u64,
    pub violations: Vec<String>,
}

/// Per-connection service state inside [`RespApp`].
struct Service {
    got: usize,
    sent: usize,
}

/// The server application: accumulate a [`REQ_LEN`]-byte request, then
/// send one `resp_len`-byte response. Serves only connections the host
/// actually admitted — a deferred connection's request waits, which is
/// exactly what makes admission control observable end to end.
pub struct RespApp<S: HostStack> {
    resp_len: usize,
    state: HashMap<S::ConnId, Service>,
    pub served: u64,
}

impl<S: HostStack> RespApp<S> {
    fn new(resp_len: usize) -> Self {
        RespApp { resp_len, state: HashMap::new(), served: 0 }
    }

    fn pump(&mut self, now: Time, host: &mut Host<S>, id: S::ConnId) {
        let Some(sv) = self.state.get_mut(&id) else { return };
        let data = host.recv(now, id);
        sv.got += data.len();
        if sv.got >= REQ_LEN && sv.sent < self.resp_len {
            if sv.sent == 0 {
                self.served += 1;
            }
            let body: Vec<u8> =
                (sv.sent..self.resp_len).map(resp_byte).collect();
            sv.sent += host.send(now, id, &body);
        }
    }
}

impl<S: HostStack> HostApp<S> for RespApp<S> {
    fn on_event(&mut self, now: Time, host: &mut Host<S>, ev: HostEvent<S::ConnId>) {
        match ev {
            HostEvent::Accepted(id) => {
                host.accept();
                self.state.insert(id, Service { got: 0, sent: 0 });
                self.pump(now, host, id);
            }
            // Unadmitted connections stay untouched: their request sits
            // queued until (unless) the host admits them.
            HostEvent::Readable(id) | HostEvent::Writable(id) => {
                self.pump(now, host, id);
            }
            HostEvent::PeerClosed(id) => host.close(now, id),
            HostEvent::Closed(id) | HostEvent::Error(id, _) => {
                self.state.remove(&id);
            }
        }
    }
}

/// Run one cell of the sweep.
pub fn run_one(p: OverloadParams) -> OverloadOutcome {
    match p.stack {
        Kind::Sub => run_generic::<SlTcpStack>(p),
        Kind::Mono => run_generic::<TcpStack>(p),
    }
}

fn run_generic<S: ConformStack>(p: OverloadParams) -> OverloadOutcome {
    let mk = |addr| S::mk_with(addr, None, slmetrics::shared());
    let spec = p.profile.spec();
    let n = spec.arrivals.len();
    let cfg = HostConfig {
        listen_port: SERVER.port,
        backlog: spec.backlog,
        batch_window: dur(50_000),
        timer_mode: TimerMode::Wheel,
        budget: ResourceBudget::bytes(spec.budget_bytes),
        ..HostConfig::default()
    };
    let server =
        ServedHost::new(Host::new(mk(SERVER.addr), cfg), RespApp::new(spec.resp_len));
    let reply = Reply::Pattern { len: spec.resp_len, byte: resp_byte };
    let clients: Vec<Client<S>> = spec
        .arrivals
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            // The first `n_slow` never drain their receive buffer: the
            // slowloris shape.
            let slow = i < spec.n_slow;
            Client::new(mk(CLIENT_BASE + i as u32), at, request(i), reply)
                .with_read_budget(slow.then(|| ReadBudget::new(at, 0, 0)))
        })
        .collect();

    let (mut net, sid, cids) = netsim::star(
        p.seed,
        server,
        clients,
        LinkParams::delay_only(dur(LINK_DELAY_NS)).with_rate(LINK_RATE_BPS),
    );
    net.poll_all();
    if let Some(at) = spec.drain_at {
        net.run_until(at);
        net.node_mut::<MultiStackNode<ServedHost<S, RespApp<S>>>>(sid)
            .stack
            .host
            .drain();
        net.poll_all();
    }
    net.run_until(spec.horizon);

    let mut completed = 0usize;
    let mut refused = 0usize;
    let mut evicted = 0usize;
    let mut starved: Vec<usize> = Vec::new();
    let mut corrupt = 0usize;
    let mut first_error: Option<TransportError> = None;
    let mut kbps: Vec<u64> = Vec::new();
    let mut xfer_us: Vec<u64> = Vec::new();
    let mut slow_failed = 0usize;
    let mut post_drain_completed = 0usize;
    let mut pre_drain_incomplete = 0usize;
    for (i, &cid) in cids.iter().enumerate() {
        let c = &net.node::<StackNode<Client<S>>>(cid).stack;
        if c.corrupt {
            corrupt += 1;
        }
        let pre_drain = spec.drain_at.is_none_or(|at| spec.arrivals[i] < at);
        match (c.done_at, c.error) {
            (Some(t1), _) if !c.corrupt => {
                completed += 1;
                if !pre_drain {
                    post_drain_completed += 1;
                }
                let t0 = c.first_reply_at.unwrap_or(t1);
                let us = t1.nanos().saturating_sub(t0.nanos()).max(1_000) / 1_000;
                xfer_us.push(us);
                kbps.push((spec.resp_len as u64 * 8).saturating_mul(1_000) / us);
            }
            (None, Some(e)) => {
                first_error.get_or_insert(e);
                if c.established_at.is_some() {
                    evicted += 1;
                    if i < spec.n_slow {
                        slow_failed += 1;
                    }
                } else {
                    refused += 1;
                }
                if pre_drain && spec.drain_at.is_some() {
                    pre_drain_incomplete += 1;
                }
            }
            _ => starved.push(i),
        }
    }
    kbps.sort_unstable();
    xfer_us.sort_unstable();

    let srv = &net.node::<MultiStackNode<ServedHost<S, RespApp<S>>>>(sid).stack;
    let k = &srv.host.counters;
    let mut out = OverloadOutcome {
        profile: p.profile.label(),
        stack: p.stack.label(),
        seed: p.seed,
        offered: n,
        n_slow: spec.n_slow,
        completed,
        refused,
        evicted,
        starved: starved.len(),
        corrupt,
        accepts: k.accepts,
        deferrals: k.accept_deferrals,
        backlog_refusals: k.accept_refusals,
        host_refusals: k.pressure_refusals,
        stack_refusals: srv.host.stack().stack_pressure_refusals(),
        sheds: k.sheds,
        slow_drain_evictions: k.slow_drain_evictions,
        mem_peak: k.mem_peak,
        budget_bytes: spec.budget_bytes as u64,
        goodput_kbps_p50: crate::percentile(&kbps, 50),
        xfer_p50_us: crate::percentile(&xfer_us, 50),
        first_error,
        server_residual: srv.host.tracked_count(),
        drained: u64::from(srv.host.is_drained() && spec.drain_at.is_some()),
        sim_ms: net.now().nanos() / 1_000_000,
        violations: Vec::new(),
    };

    // Universal invariants.
    if out.starved > 0 {
        let head: Vec<String> =
            starved.iter().take(5).map(|i| i.to_string()).collect();
        out.violations.push(format!(
            "{} clients silently starved — no completion, no error (first: [{}])",
            out.starved,
            head.join(",")
        ));
    }
    if out.corrupt > 0 {
        out.violations.push(format!("{} corrupt responses", out.corrupt));
    }
    if out.mem_peak > out.budget_bytes {
        out.violations.push(format!(
            "memory peaked at {} bytes, budget {}",
            out.mem_peak, out.budget_bytes
        ));
    }
    if out.server_residual != 0 {
        out.violations.push(format!(
            "host leaked {} connections past the horizon",
            out.server_residual
        ));
    }

    // Profile-specific invariants.
    match p.profile {
        Profile::Baseline => {
            if out.completed != n {
                out.violations
                    .push(format!("baseline completed {} of {n}", out.completed));
            }
            if out.deferrals != 0 || out.refused != 0 || out.evicted != 0 {
                out.violations.push(format!(
                    "baseline saw pressure: {} deferrals, {} refused, {} evicted",
                    out.deferrals, out.refused, out.evicted
                ));
            }
        }
        Profile::Flood => {
            if out.deferrals == 0 {
                out.violations.push(
                    "flood never engaged admission deferral — not overloaded".into(),
                );
            }
            if out.evicted != 0 {
                out.violations.push(format!(
                    "flood evicted {} progressing connections",
                    out.evicted
                ));
            }
            if out.completed + out.refused != n {
                out.violations.push(format!(
                    "flood: {} completed + {} refused != {n} offered",
                    out.completed, out.refused
                ));
            }
            if out.completed < n / 2 {
                out.violations.push(format!(
                    "flood goodput cliff: only {} of {n} completed",
                    out.completed
                ));
            }
        }
        Profile::Slowloris => {
            if slow_failed != spec.n_slow {
                out.violations.push(format!(
                    "only {slow_failed} of {} slow readers were evicted",
                    spec.n_slow
                ));
            }
            if out.slow_drain_evictions < spec.n_slow as u64 {
                out.violations.push(format!(
                    "slow-drain detector fired {} times for {} attackers",
                    out.slow_drain_evictions, spec.n_slow
                ));
            }
            if out.completed != n - spec.n_slow {
                out.violations.push(format!(
                    "{} of {} normal clients completed under slowloris",
                    out.completed,
                    n - spec.n_slow
                ));
            }
        }
        Profile::Drain => {
            let pre = spec
                .arrivals
                .iter()
                .filter(|&&at| at < spec.drain_at.expect("drain profile"))
                .count();
            if out.completed != pre || pre_drain_incomplete != 0 {
                out.violations.push(format!(
                    "drain: {} completed, expected the {pre} pre-drain clients \
                     ({pre_drain_incomplete} of them failed)",
                    out.completed
                ));
            }
            if post_drain_completed != 0 {
                out.violations.push(format!(
                    "{post_drain_completed} clients admitted after drain"
                ));
            }
            if out.refused != n - pre {
                out.violations.push(format!(
                    "drain refused {} of the {} post-drain arrivals",
                    out.refused,
                    n - pre
                ));
            }
            if out.drained != 1 {
                out.violations.push("host never reached drained state".into());
            }
        }
    }
    out
}

/// The sweep: every profile × both stacks; one seed for smoke, two for
/// the full run.
pub fn sweep(smoke: bool) -> Vec<OverloadOutcome> {
    let seeds: &[u64] = if smoke { &[1] } else { &[1, 2] };
    let mut outs = Vec::new();
    for &seed in seeds {
        for stack in KINDS {
            for profile in
                [Profile::Baseline, Profile::Flood, Profile::Slowloris, Profile::Drain]
            {
                outs.push(run_one(OverloadParams { profile, stack, seed }));
            }
        }
    }
    outs
}

/// Sweep-level acceptance: under the 4× flood, the median per-connection
/// transfer goodput of accepted connections must hold at ≥ 80% of the
/// same stack-and-seed's uncontended baseline.
pub fn cross_checks(outs: &[OverloadOutcome]) -> Vec<String> {
    let mut v = Vec::new();
    for flood in outs.iter().filter(|o| o.profile == "flood") {
        let Some(base) = outs.iter().find(|o| {
            o.profile == "baseline" && o.stack == flood.stack && o.seed == flood.seed
        }) else {
            continue;
        };
        if flood.goodput_kbps_p50 * 100 < base.goodput_kbps_p50 * 80 {
            v.push(format!(
                "flood p50 goodput {} kbps fell below 80% of baseline {} kbps \
                 at stack={} seed={}",
                flood.goodput_kbps_p50, base.goodput_kbps_p50, flood.stack, flood.seed
            ));
        }
    }
    v
}

/// Deterministic JSON for one outcome (stable field order, integers
/// only — byte-identical for identical seeds).
pub fn outcome_json(o: &OverloadOutcome) -> String {
    json::obj(&[
        ("profile", json::str(o.profile)),
        ("stack", json::str(o.stack)),
        ("seed", o.seed.to_string()),
        ("offered", o.offered.to_string()),
        ("n_slow", o.n_slow.to_string()),
        ("completed", o.completed.to_string()),
        ("refused", o.refused.to_string()),
        ("evicted", o.evicted.to_string()),
        ("starved", o.starved.to_string()),
        ("corrupt", o.corrupt.to_string()),
        ("accepts", o.accepts.to_string()),
        ("deferrals", o.deferrals.to_string()),
        ("backlog_refusals", o.backlog_refusals.to_string()),
        ("host_refusals", o.host_refusals.to_string()),
        ("stack_refusals", o.stack_refusals.to_string()),
        ("sheds", o.sheds.to_string()),
        ("slow_drain_evictions", o.slow_drain_evictions.to_string()),
        ("mem_peak", o.mem_peak.to_string()),
        ("budget_bytes", o.budget_bytes.to_string()),
        ("goodput_kbps_p50", o.goodput_kbps_p50.to_string()),
        ("xfer_p50_us", o.xfer_p50_us.to_string()),
        ("first_error", json::opt_err(o.first_error)),
        ("server_residual", o.server_residual.to_string()),
        ("drained", o.drained.to_string()),
        ("sim_ms", o.sim_ms.to_string()),
        ("violations", json::strs(&o.violations)),
    ])
}

/// The whole sweep (plus sweep-level checks) as one JSON document.
pub fn summary_json(outs: &[OverloadOutcome], cross: &[String]) -> String {
    let rows: Vec<String> = outs.iter().map(outcome_json).collect();
    let violations = outs.iter().map(|o| o.violations.len()).sum();
    crate::sweep_json("runs", &rows, Some(("cross_checks", cross)), violations)
}

/// The campaign: [`sweep`] plus the flood-vs-baseline [`cross_checks`].
pub fn report(smoke: bool) -> Report {
    let outs = sweep(smoke);
    let cross = cross_checks(&outs);
    Report::sweep(
        summary_json(&outs, &cross),
        vec![
            "profile", "stack", "seed", "done", "refused", "evicted", "defers", "slowdrain",
            "mem/budget", "p50 kbps", "viol",
        ],
        outs
            .iter()
            .map(|o| {
                vec![
                    o.profile.to_string(),
                    o.stack.to_string(),
                    o.seed.to_string(),
                    format!("{}/{}", o.completed, o.offered),
                    o.refused.to_string(),
                    o.evicted.to_string(),
                    o.deferrals.to_string(),
                    o.slow_drain_evictions.to_string(),
                    format!("{}k/{}k", o.mem_peak / 1024, o.budget_bytes / 1024),
                    o.goodput_kbps_p50.to_string(),
                    o.violations.len().to_string(),
                ]
            })
            .collect(),
        outs
            .iter()
            .flat_map(|o| {
                crate::tagged(format!("{} {} seed={}", o.profile, o.stack, o.seed), &o.violations)
            })
            .chain(crate::tagged("cross".into(), &cross))
            .collect(),
    )
}
