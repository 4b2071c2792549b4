//! Fairness and congestion-collapse campaigns (E19): N greedy flows
//! fan in over the rate-limited `topo_fanin` bottleneck, sweeping the
//! shared rate controllers x both stacks x seeds.
//!
//! Each campaign runs a **fixed horizon** (not run-to-completion): every
//! flow offers far more than its fair share — the aggregate offered load
//! is [`OVERLOAD`]x the bottleneck capacity — and we measure what the
//! controllers make of the contention:
//!
//! 1. **No congestion collapse** (gated): aggregate goodput must stay at
//!    or above [`COLLAPSE_FLOOR_PCT`]% of the bottleneck capacity. A
//!    controller that answers loss with more retransmissions than
//!    deliveries drags this under the floor — the classic collapse the
//!    1986 Internet saw and Van Jacobson's backoff fixed.
//! 2. **Integrity** (gated): each delivered stream is an intact prefix of
//!    exactly one client's pattern — contention must never corrupt.
//! 3. **No spurious abort / no starvation** (gated): every flow survives
//!    the horizon and delivers at least one byte.
//! 4. **Jain fairness index** (reported, not gated): `(Σx)²/(n·Σx²)` as
//!    an integer permille — 1000 is a perfectly even split, 1000/n is one
//!    flow hogging everything. Loss-driven controllers on a shared drop-
//!    tail queue converge near-even; the index is recorded so a future
//!    controller regression shows up in the committed JSON diff.
//! 5. **Bufferbloat** (reported): peak bottleneck queue delay, sampled
//!    every tick via [`netsim::SimNet::link_queue_delay`]. Window-based
//!    controllers bound this by their aggregate cwnd; a rate controller
//!    with no loss response would let it grow without bound.
//!
//! Deterministic: the same `(controller, stack, seed)` triple produces a
//! byte-identical JSON row (`BENCH_fairness.json` is committed).

use crate::natcodec::peek_for;
use crate::topology::{attach, attribute, drain_server, stack_mut, stream_pattern};
use crate::{json, sweep_grid, Report, KINDS};
use netlayer::{box_host_addr, topo_fanin, BoxNet};
use netsim::{Dur, LinkParams, NodeId, SimNet, Time};
use slconform::{ConformStack, Kind};
use slcc::CcError;
use slmetrics::CcCounters;
use sublayer_core::{SlConfig, SlTcpStack};
use tcp_mono::stack::TcpStack;
use slwire::Endpoint;

const SERVER_PORT: u16 = 80;
/// Application drain granularity (and the queue-delay sampling period).
const TICK: Dur = Dur(50_000_000);
/// Fixed measurement horizon for the standard sweep, simulated seconds.
pub const HORIZON_SECS: u64 = 20;
/// Capacity of `topo_fanin`'s rate-limited edge, bits per second.
pub const BOTTLENECK_BPS: u64 = 2_000_000;
/// Greedy client flows contending for the bottleneck.
pub const FLOWS: usize = 3;
/// Aggregate offered load as a multiple of bottleneck capacity.
pub const OVERLOAD: u64 = 4;
/// Collapse gate: aggregate goodput must be >= this % of capacity.
pub const COLLAPSE_FLOOR_PCT: u64 = 70;
/// The window-dynamics controllers the standard sweep exercises (the
/// rate-based and fixed-window controllers have no loss response, so
/// fan-in overload is outside their contract).
pub const CONTROLLERS: [&str; 2] = ["newreno", "cubic"];

/// What the fairness driver needs beyond [`ConformStack`]: construction
/// with an explicit controller (exercising each stack's validated CC
/// swap surface) and per-connection [`CcCounters`] readout.
pub trait FairStack: ConformStack {
    /// A stack whose connections run controller `cc`; an unknown name is
    /// the stack's typed error.
    fn try_mk_cc(addr: u32, cc: &'static str) -> Result<Self, CcError>;
    fn conn_cc_of(&self, id: Self::ConnId) -> Option<CcCounters>;

    fn mk_cc(addr: u32, cc: &'static str) -> Self {
        Self::try_mk_cc(addr, cc).expect("shipped controller")
    }
}

impl FairStack for SlTcpStack {
    fn try_mk_cc(addr: u32, cc: &'static str) -> Result<Self, CcError> {
        SlTcpStack::try_new(addr, SlConfig { cc, ..SlConfig::default() }, slmetrics::shared())
    }
    fn conn_cc_of(&self, id: Self::ConnId) -> Option<CcCounters> {
        self.conn_cc(id)
    }
}

impl FairStack for TcpStack {
    fn try_mk_cc(addr: u32, cc: &'static str) -> Result<Self, CcError> {
        TcpStack::with_cc(addr, cc, slmetrics::shared())
    }
    fn conn_cc_of(&self, id: Self::ConnId) -> Option<CcCounters> {
        self.conn_cc(id)
    }
}

/// One fairness campaign's measurements plus any gated violations.
#[derive(Clone, Debug)]
pub struct FairnessOutcome {
    pub cc: &'static str,
    pub stack: &'static str,
    pub seed: u64,
    pub flows: usize,
    pub horizon_secs: u64,
    /// Bytes each flow offered (aggregate = [`OVERLOAD`]x capacity).
    pub offered: usize,
    /// Bytes each flow delivered, flow order.
    pub delivered: Vec<usize>,
    /// Aggregate goodput over the horizon, bits per second.
    pub goodput_bps: u64,
    /// `goodput_bps` as a percentage of [`BOTTLENECK_BPS`].
    pub utilization_pct: u64,
    /// Jain fairness index over per-flow delivered bytes, as permille.
    pub jain_permille: u64,
    /// Peak bottleneck serialization-queue delay observed, milliseconds.
    pub peak_queue_ms: u64,
    /// CC event counters absorbed across all client flows.
    pub dupack_losses: u64,
    pub rto_resets: u64,
    pub fast_recoveries: u64,
    pub violations: Vec<String>,
}

impl FairnessOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` as integer permille (1000 =
/// perfectly even). Zero when nothing was delivered.
pub fn jain_permille(xs: &[usize]) -> u64 {
    let sum: u128 = xs.iter().map(|&x| x as u128).sum();
    let sq: u128 = xs.iter().map(|&x| (x as u128) * (x as u128)).sum();
    if sq == 0 {
        return 0;
    }
    (sum * sum * 1000 / (xs.len() as u128 * sq)) as u64
}

/// Run one `(controller, stack, seed)` campaign at the standard horizon.
pub fn run_fairness(cc: &'static str, kind: Kind, seed: u64) -> FairnessOutcome {
    run_fairness_with(cc, kind, seed, HORIZON_SECS)
}

/// As [`run_fairness`] with an explicit horizon (tests use a short one;
/// the offered load scales with the horizon so overload stays fixed).
pub fn run_fairness_with(
    cc: &'static str,
    kind: Kind,
    seed: u64,
    horizon_secs: u64,
) -> FairnessOutcome {
    match kind {
        Kind::Sub => run_f::<SlTcpStack>(cc, seed, horizon_secs),
        Kind::Mono => run_f::<TcpStack>(cc, seed, horizon_secs),
    }
}

fn run_f<H: FairStack>(cc: &'static str, seed: u64, horizon_secs: u64) -> FairnessOutcome {
    let topo = topo_fanin();
    let mut net = SimNet::new(seed);
    let bn: BoxNet = topo.build(&mut net, peek_for(H::KIND));
    // Edge 3 is the rate-limited router->server link; dir 0 carries the
    // fan-in direction, whose serialization queue is the bufferbloat.
    let bottleneck = bn.edge_links[3];

    let server_site = bn.topo.hosts.len() - 1;
    let saddr = box_host_addr(server_site);
    let mut server = H::mk_cc(saddr, cc);
    server.listen(SERVER_PORT);

    let mut clients: Vec<(NodeId, H::ConnId)> = Vec::new();
    for i in 0..FLOWS {
        let mut c = H::mk_cc(box_host_addr(i), cc);
        let conn = c
            .try_connect(Time::ZERO, 5000 + i as u16, Endpoint::new(saddr, SERVER_PORT))
            .expect("client connect");
        let id = attach(&mut net, &bn, i, c, LinkParams::delay_only(Dur::from_millis(1)));
        clients.push((id, conn));
    }
    let ns = attach(&mut net, &bn, server_site, server, LinkParams::delay_only(Dur::from_millis(1)));
    net.poll_all();

    // Aggregate offered load = OVERLOAD x what the bottleneck can carry
    // over the horizon, split evenly across the greedy flows.
    let offered = (OVERLOAD * BOTTLENECK_BPS * horizon_secs / 8) as usize / FLOWS;
    let payloads: Vec<Vec<u8>> = (0..FLOWS).map(|i| stream_pattern(i, offered)).collect();
    let mut sconns: Vec<Option<H::ConnId>> = vec![None; FLOWS];
    let mut sent = [0usize; FLOWS];
    let mut got = vec![Vec::new(); FLOWS];
    let mut peak_queue = Dur::ZERO;

    let end = Time::ZERO + Dur::from_secs(horizon_secs);
    while net.now() < end {
        net.run_for(TICK);
        peak_queue = peak_queue.max(net.link_queue_delay(bottleneck, 0));
        for (i, &(node, conn)) in clients.iter().enumerate() {
            let st = stack_mut::<H>(&mut net, node);
            if sent[i] < payloads[i].len() {
                sent[i] += st.send(conn, &payloads[i][sent[i]..]);
            }
        }
        drain_server(stack_mut::<H>(&mut net, ns), &mut sconns, &mut got);
        net.poll_all();
    }

    let mut counters = CcCounters::default();
    let client_errors: Vec<_> = clients
        .iter()
        .map(|&(node, conn)| {
            let st = stack_mut::<H>(&mut net, node);
            if let Some(c) = st.conn_cc_of(conn) {
                counters.absorb(&c);
            }
            st.conn_error(conn)
        })
        .collect();

    let mut out = FairnessOutcome {
        cc,
        stack: H::KIND.label(),
        seed,
        flows: FLOWS,
        horizon_secs,
        offered,
        delivered: Vec::new(),
        goodput_bps: 0,
        utilization_pct: 0,
        jain_permille: 0,
        peak_queue_ms: peak_queue.0 / 1_000_000,
        dupack_losses: counters.dupack_losses,
        rto_resets: counters.rto_resets,
        fast_recoveries: counters.fast_recoveries,
        violations: Vec::new(),
    };
    out.delivered = attribute(&got, &payloads, &mut out.violations);
    let aggregate: usize = out.delivered.iter().sum();
    out.goodput_bps = aggregate as u64 * 8 / horizon_secs;
    out.utilization_pct = out.goodput_bps * 100 / BOTTLENECK_BPS;
    out.jain_permille = jain_permille(&out.delivered);

    if out.goodput_bps < BOTTLENECK_BPS * COLLAPSE_FLOOR_PCT / 100 {
        out.violations.push(format!(
            "congestion collapse: aggregate goodput {} bps < {}% of {} bps capacity",
            out.goodput_bps, COLLAPSE_FLOOR_PCT, BOTTLENECK_BPS
        ));
    }
    for (i, e) in client_errors.iter().enumerate() {
        if let Some(e) = e {
            out.violations.push(format!("flow {i}: spurious abort {e:?}"));
        }
    }
    for (i, &d) in out.delivered.iter().enumerate() {
        if d == 0 {
            out.violations.push(format!("flow {i}: starved (0 bytes over the horizon)"));
        }
    }
    out
}

/// Deterministic JSON for one outcome (stable field order).
pub fn outcome_json(o: &FairnessOutcome) -> String {
    json::obj(&[
        ("cc", json::str(o.cc)),
        ("stack", json::str(o.stack)),
        ("seed", o.seed.to_string()),
        ("flows", o.flows.to_string()),
        ("horizon_secs", o.horizon_secs.to_string()),
        ("offered", o.offered.to_string()),
        ("delivered", json::list(&o.delivered)),
        ("goodput_bps", o.goodput_bps.to_string()),
        ("utilization_pct", o.utilization_pct.to_string()),
        ("jain_permille", o.jain_permille.to_string()),
        ("peak_queue_ms", o.peak_queue_ms.to_string()),
        ("dupack_losses", o.dupack_losses.to_string()),
        ("rto_resets", o.rto_resets.to_string()),
        ("fast_recoveries", o.fast_recoveries.to_string()),
        ("violations", json::strs(&o.violations)),
    ])
}

/// The whole sweep as one JSON document.
pub fn summary_json(outs: &[FairnessOutcome]) -> String {
    let rows: Vec<String> = outs.iter().map(outcome_json).collect();
    let violations = outs.iter().map(|o| o.violations.len()).sum();
    crate::sweep_json("campaigns", &rows, None, violations)
}

/// The campaign: both window-dynamics controllers x both stacks x three
/// seeds, [`FLOWS`] greedy flows at [`OVERLOAD`]x offered load for
/// [`HORIZON_SECS`] s; smoke is NewReno on one seed.
pub fn report(smoke: bool) -> Report {
    let (controllers, seeds): (&[&'static str], &[u64]) =
        if smoke { (&["newreno"], &[1]) } else { (&CONTROLLERS, &[1, 2, 3]) };
    let outs = sweep_grid(controllers, &KINDS, seeds, run_fairness);
    Report::sweep(
        summary_json(&outs),
        vec![
            "cc", "stack", "seed", "delivered", "util", "jain", "peak q ms", "dupack loss",
            "fast rec", "rto", "verdict",
        ],
        outs
            .iter()
            .map(|o| {
                vec![
                    o.cc.to_string(),
                    o.stack.to_string(),
                    o.seed.to_string(),
                    format!("{:?}", o.delivered),
                    format!("{}%", o.utilization_pct),
                    format!("{:.3}", o.jain_permille as f64 / 1000.0),
                    o.peak_queue_ms.to_string(),
                    o.dupack_losses.to_string(),
                    o.fast_recoveries.to_string(),
                    o.rto_resets.to_string(),
                    crate::verdict(&o.violations),
                ]
            })
            .collect(),
        outs
            .iter()
            .flat_map(|o| {
                crate::tagged(format!("{} {} seed={}", o.cc, o.stack, o.seed), &o.violations)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_extremes() {
        assert_eq!(jain_permille(&[100, 100, 100]), 1000);
        assert_eq!(jain_permille(&[300, 0, 0]), 333);
        assert_eq!(jain_permille(&[0, 0, 0]), 0);
    }

    #[test]
    fn fanin_overload_does_not_collapse_either_stack() {
        // Short-horizon smoke of the E19 gate: 3 greedy NewReno flows at
        // 4x offered load must keep the bottleneck productive on both
        // stacks — no collapse, no starvation, no corruption.
        for kind in [Kind::Sub, Kind::Mono] {
            let out = run_fairness_with("newreno", kind, 1, 6);
            assert!(out.ok(), "{}: {:?}", out.stack, out.violations);
            assert!(out.fast_recoveries + out.rto_resets > 0, "{}: overload never signalled loss", out.stack);
        }
    }

    #[test]
    fn cubic_swap_runs_the_same_campaign() {
        let out = run_fairness_with("cubic", Kind::Sub, 1, 6);
        assert!(out.ok(), "{:?}", out.violations);
    }

    #[test]
    fn fairness_json_is_deterministic() {
        let a = outcome_json(&run_fairness_with("newreno", Kind::Mono, 2, 6));
        let b = outcome_json(&run_fairness_with("newreno", Kind::Mono, 2, 6));
        assert_eq!(a, b);
    }
}
