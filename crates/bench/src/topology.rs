//! Topology campaigns: both stacks driven across the `netlayer` fabric —
//! multi-hop chains, a rerouting diamond, a fan-in bottleneck, a NAT that
//! restarts, and a long partition with no alternate path. This is the one
//! harness that puts the transports behind the fabric; the fairness
//! campaign reuses its attach, drain and attribution helpers, and the
//! per-format peeks and NAT codecs sit beside it in [`crate::natcodec`].
//!
//! Every run is gated by the StacKAT-flavored static forwarding check
//! ([`netlayer::BoxTopo::check`]): the primary tables must be fully
//! reachable and loop-free *before* any traffic flows, and profiles that
//! script an edge failure additionally require the post-failure tables to
//! be loop-free. Then the run is judged on universal invariants:
//!
//! 1. **terminal** — eventual delivery or a clean, typed abort on every
//!    stream; never a silent hang;
//! 2. **integrity** — each delivered stream is a prefix of exactly one
//!    client's pattern (fan-in misdelivery counts as corruption);
//! 3. **bounded retransmit memory** — the sender's retransmit queue stays
//!    under its cap (`RTX_BYTES_CAP` / `SND_BUF_CAP`) no matter how long
//!    a partition lasts;
//! 4. **no deadlock** — an aborted run leaves the simulator idle;
//!
//! plus per-profile expectations (reroutes observed, NAT abort + clean
//! reconnect, partition abort). Each expectation says what *both* stacks
//! must do, so two passing runs of one `(profile, seed)` agree on
//! completion, on which streams ended in a typed error and on the
//! reconnect — the cross-stack outcome diff needs no separate harness
//! (the per-profile `*_agrees_across_stacks` tests check it directly).
//! Clients run with keepalive enabled, so
//! the reroute profiles double as the chaos pin for "keepalive must not
//! fire across an RTT step change" — mid-flow reroute onto a path an
//! order of magnitude slower must not abort the connection.
//!
//! Deterministic: the same seed produces a byte-identical JSON summary.

use netlayer::{
    box_host_addr, schedule_nat_wipe, topo_diamond, topo_fanin, topo_line3, topo_long_haul,
    topo_nat_gateway, BoxNet, BoxTopo, NatBox, NAT_INSIDE, NAT_OUTSIDE,
};
use netsim::{AdminOp, Dur, LinkParams, NodeId, SimNet, StackNode, Time, TransportError};
use slconform::{ConformStack, Kind};
use slhost::HostStack;
use sublayer_core::SlTcpStack;
use tcp_mono::stack::TcpStack;
use slwire::Endpoint;

use crate::natcodec::{nat_codec, peek_for};
use crate::{json, sweep_grid, Report, KINDS};

/// How long (simulated) a campaign may run before we declare a hang. Must
/// cover the monolith's full RTO retry budget (~205 s) with headroom.
const PATIENCE: Dur = Dur(600_000_000_000);
/// Application drain granularity.
const TICK: Dur = Dur(50_000_000);
const SERVER_PORT: u16 = 80;
/// The `nat-restart` client's private (pre-NAT) address.
const PRIVATE_ADDR: u32 = 0xC0A8_0001;

fn t(ms: u64) -> Time {
    Time::ZERO + Dur::from_millis(ms)
}

/// Deterministic per-stream payload; distinct salts make cross-stream
/// misdelivery (not just truncation) detectable.
pub(crate) fn stream_pattern(stream: usize, len: usize) -> Vec<u8> {
    let salt = (stream as u8).wrapping_mul(53).wrapping_add(11);
    (0..len).map(|i| ((i % 251) as u8).wrapping_add(salt)).collect()
}

/// The six topology profiles of the standard sweep (five topologies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoProfile {
    /// Baseline: bulk transfer across a two-hop chain.
    Line3Bulk,
    /// Primary path dies mid-transfer; backup is ~7x the RTT (ECMP-style
    /// reordering on the switch). Must complete, no spurious abort.
    DiamondReroute,
    /// Reroute, then the primary heals and traffic swings back.
    DiamondFlap,
    /// Three clients funnel through one rate-limited edge; all complete.
    FaninBottleneck,
    /// The NAT wipes its table mid-transfer: typed abort, then a fresh
    /// connection through the restarted NAT must work.
    NatRestart,
    /// The only path partitions and never heals: typed abort, retransmit
    /// memory bounded for the whole outage.
    LongHaulPartition,
}

impl TopoProfile {
    pub fn all() -> [TopoProfile; 6] {
        [
            TopoProfile::Line3Bulk,
            TopoProfile::DiamondReroute,
            TopoProfile::DiamondFlap,
            TopoProfile::FaninBottleneck,
            TopoProfile::NatRestart,
            TopoProfile::LongHaulPartition,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            TopoProfile::Line3Bulk => "line3-bulk",
            TopoProfile::DiamondReroute => "diamond-reroute",
            TopoProfile::DiamondFlap => "diamond-flap",
            TopoProfile::FaninBottleneck => "fanin-bottleneck",
            TopoProfile::NatRestart => "nat-restart",
            TopoProfile::LongHaulPartition => "long-haul-partition",
        }
    }

    pub fn topology(&self) -> BoxTopo {
        match self {
            TopoProfile::Line3Bulk => topo_line3(),
            TopoProfile::DiamondReroute | TopoProfile::DiamondFlap => topo_diamond(),
            TopoProfile::FaninBottleneck => topo_fanin(),
            TopoProfile::NatRestart => topo_nat_gateway(),
            TopoProfile::LongHaulPartition => topo_long_haul(),
        }
    }

    /// Edge scripted to fail mid-run, if any (static-gate target).
    fn failed_edge(&self) -> Option<usize> {
        match self {
            TopoProfile::DiamondReroute | TopoProfile::DiamondFlap => Some(0),
            TopoProfile::LongHaulPartition => Some(1),
            _ => None,
        }
    }

    fn payload_len(&self) -> usize {
        match self {
            TopoProfile::Line3Bulk => 500_000,
            TopoProfile::DiamondReroute => 1_000_000,
            TopoProfile::DiamondFlap => 1_500_000,
            TopoProfile::FaninBottleneck => 150_000,
            TopoProfile::NatRestart | TopoProfile::LongHaulPartition => 2_000_000,
        }
    }

    fn streams(&self) -> usize {
        match self {
            TopoProfile::FaninBottleneck => 3,
            _ => 1,
        }
    }

    /// Client access-link parameters. Profiles whose event must land
    /// mid-transfer are rate-limited so the payload is still in flight.
    fn access(&self) -> LinkParams {
        let base = LinkParams::delay_only(Dur::from_millis(1));
        match self {
            TopoProfile::Line3Bulk | TopoProfile::FaninBottleneck => base,
            _ => base.with_rate(4_000_000),
        }
    }

    /// Must this profile end in a typed abort (rather than delivery)?
    fn expect_abort(&self) -> bool {
        matches!(self, TopoProfile::NatRestart | TopoProfile::LongHaulPartition)
    }
}

/// One campaign's result plus any invariant violations.
#[derive(Clone, Debug)]
pub struct TopoOutcome {
    pub profile: &'static str,
    pub topology: &'static str,
    pub stack: &'static str,
    pub seed: u64,
    /// Per-stream payload length.
    pub payload: usize,
    /// Per-stream bytes delivered at the server, stream-order.
    pub delivered: Vec<usize>,
    pub complete: bool,
    pub client_errors: Vec<Option<TransportError>>,
    /// `nat-restart` only: the post-abort reconnect delivered its bytes.
    pub reconnect_ok: Option<bool>,
    /// Router table installs after build (reroutes + heals).
    pub reroutes: u64,
    /// Largest retransmit-queue footprint any client ever held.
    pub max_rtx: usize,
    pub sim_ms: u64,
    /// The static forwarding gate passed (primary ok; failure loop-free).
    pub static_check: bool,
    pub violations: Vec<String>,
}

impl TopoOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-stack retransmit-memory bound: the cap plus one MSS of slack (a
/// segment may straddle the admission check).
fn rtx_cap(kind: Kind) -> usize {
    match kind {
        Kind::Sub => sublayer_core::rd::RTX_BYTES_CAP + 1_500,
        Kind::Mono => tcp_mono::stack::SND_BUF_CAP,
    }
}

/// Run one `(profile, stack, seed)` campaign and judge its invariants.
pub fn run_campaign(profile: TopoProfile, kind: Kind, seed: u64) -> TopoOutcome {
    match kind {
        Kind::Sub => run_t::<SlTcpStack>(profile, seed),
        Kind::Mono => run_t::<TcpStack>(profile, seed),
    }
}

struct DriveOut {
    got: Vec<Vec<u8>>,
    max_rtx: usize,
    client_errors: Vec<Option<TransportError>>,
}

pub(crate) fn stack_mut<H: HostStack>(net: &mut SimNet, id: NodeId) -> &mut H {
    &mut net.node_mut::<StackNode<H>>(id).stack
}

/// Add `stack` as a node and cable it into the fabric's host `site` over
/// `access`. Shared with the fairness campaign.
pub(crate) fn attach<H: HostStack + 'static>(
    net: &mut SimNet,
    bn: &BoxNet,
    site: usize,
    stack: H,
    access: LinkParams,
) -> NodeId {
    let id = net.add_node(Box::new(StackNode::new(stack)));
    let (router, port) = bn.host_ports[site];
    net.connect(id, 0, router, port, access);
    id
}

/// Claim a stream slot for each newly established server connection,
/// then drain every claimed connection into its stream. Shared with the
/// fairness campaign, whose fan-in server reads the same way.
pub(crate) fn drain_server<H: HostStack>(
    st: &mut H,
    sconns: &mut [Option<H::ConnId>],
    got: &mut [Vec<u8>],
) {
    for id in st.established() {
        if !sconns.contains(&Some(id)) {
            if let Some(slot) = sconns.iter_mut().find(|s| s.is_none()) {
                *slot = Some(id);
            }
        }
    }
    for (i, s) in sconns.iter().enumerate() {
        if let Some(id) = *s {
            got[i].extend(st.recv(id));
        }
    }
}

/// Feed each client its unsent tail, drain the server, track the largest
/// retransmit queue, step the clock. Stops on full delivery or when every
/// client carries a terminal error (plus a settle window).
fn drive<H: ConformStack>(
    net: &mut SimNet,
    clients: &[(NodeId, H::ConnId)],
    payloads: &[Vec<u8>],
    server: NodeId,
    sconns: &mut [Option<H::ConnId>],
) -> DriveOut {
    let deadline = net.now() + PATIENCE;
    let mut sent = vec![0usize; clients.len()];
    let mut got = vec![Vec::new(); clients.len()];
    let mut max_rtx = 0usize;
    while net.now() < deadline {
        net.run_for(TICK);
        for (i, &(node, conn)) in clients.iter().enumerate() {
            let st = stack_mut::<H>(net, node);
            if sent[i] < payloads[i].len() {
                sent[i] += st.send(conn, &payloads[i][sent[i]..]);
            }
            max_rtx = max_rtx.max(st.conn_rtx_bytes(conn));
        }
        drain_server(stack_mut::<H>(net, server), sconns, &mut got);
        net.poll_all();
        let done: usize = got.iter().map(Vec::len).sum();
        let want: usize = payloads.iter().map(Vec::len).sum();
        if done >= want {
            break;
        }
        let all_dead = clients
            .iter()
            .all(|&(node, conn)| stack_mut::<H>(net, node).conn_error(conn).is_some());
        if all_dead {
            // A clean abort must leave nothing spinning afterwards.
            net.run_for(Dur::from_secs(60));
            break;
        }
    }
    let client_errors = clients
        .iter()
        .map(|&(node, conn)| stack_mut::<H>(net, node).conn_error(conn))
        .collect();
    DriveOut { got, max_rtx, client_errors }
}

/// Check every delivered stream is an intact prefix of exactly one client
/// pattern; return delivered counts in stream order. Shared with the
/// fairness campaign ([`crate::fairness`]), whose fan-in runs need the
/// same misdelivery detection.
pub(crate) fn attribute(
    got: &[Vec<u8>],
    payloads: &[Vec<u8>],
    violations: &mut Vec<String>,
) -> Vec<usize> {
    let mut delivered = vec![0usize; payloads.len()];
    let mut claimed = vec![false; payloads.len()];
    for (slot, bytes) in got.iter().enumerate() {
        if bytes.is_empty() {
            continue;
        }
        let hit = payloads.iter().enumerate().position(|(i, p)| {
            !claimed[i] && bytes.len() <= p.len() && p[..bytes.len()] == bytes[..]
        });
        match hit {
            Some(i) => {
                claimed[i] = true;
                delivered[i] = bytes.len();
            }
            None => violations.push(format!(
                "integrity: server stream {slot} ({} bytes) matches no client pattern",
                bytes.len()
            )),
        }
    }
    delivered
}

fn run_t<H: ConformStack>(profile: TopoProfile, seed: u64) -> TopoOutcome {
    let topo = profile.topology();
    let topo_name = topo.name;

    // The static gate: primary tables fully reachable and loop-free, and
    // — for profiles that script a failure — the post-failure tables at
    // least loop-free. A gate failure is itself a violation; traffic
    // still runs so the dynamic behavior is on record.
    let mut static_check = topo.check(&[]).ok();
    if let Some(e) = profile.failed_edge() {
        static_check &= topo.check(&[e]).loop_free();
    }

    let mut net = SimNet::new(seed);
    let bn: BoxNet = topo.build(&mut net, peek_for(H::KIND));
    let n_streams = profile.streams();
    let server_site = bn.topo.hosts.len() - 1;
    let saddr = box_host_addr(server_site);

    let mut server = H::mk(saddr);
    server.listen(SERVER_PORT);

    // Clients occupy the leading host sites; the NAT profile's client
    // lives on a private address behind the NatBox at site 0.
    let mut clients: Vec<(NodeId, H::ConnId)> = Vec::new();
    let mut nat_node = None;
    for i in 0..n_streams {
        let addr = if profile == TopoProfile::NatRestart { PRIVATE_ADDR } else { box_host_addr(i) };
        let mut c = H::mk_keepalive(addr);
        let conn = c
            .try_connect(Time::ZERO, 5000 + i as u16, Endpoint::new(saddr, SERVER_PORT))
            .expect("client connect");
        let id = if profile == TopoProfile::NatRestart {
            let id = net.add_node(Box::new(StackNode::new(c)));
            let nat = net.add_node(Box::new(
                NatBox::new(nat_codec(H::KIND), box_host_addr(0)).rst_on_unknown(),
            ));
            let (router, port) = bn.host_ports[i];
            net.connect(id, 0, nat, NAT_INSIDE, profile.access());
            net.connect(nat, NAT_OUTSIDE, router, port, LinkParams::delay_only(Dur::from_millis(1)));
            nat_node = Some(nat);
            id
        } else {
            attach(&mut net, &bn, i, c, profile.access())
        };
        clients.push((id, conn));
    }
    let ns = attach(&mut net, &bn, server_site, server, LinkParams::delay_only(Dur::from_millis(1)));

    // The profile's fault schedule.
    match profile {
        TopoProfile::DiamondReroute => {
            bn.schedule_reroute(&mut net, 0, t(1_500), Dur::from_millis(50));
        }
        TopoProfile::DiamondFlap => {
            bn.schedule_reroute(&mut net, 0, t(1_500), Dur::from_millis(50));
            bn.schedule_heal(&mut net, 0, t(4_000), Dur::from_millis(50));
        }
        TopoProfile::NatRestart => {
            schedule_nat_wipe(&mut net, nat_node.unwrap(), t(2_000));
        }
        TopoProfile::LongHaulPartition => {
            net.schedule_admin(t(2_000), AdminOp::LinkDown(bn.edge_links[1]));
        }
        TopoProfile::Line3Bulk | TopoProfile::FaninBottleneck => {}
    }
    net.poll_all();

    let payloads: Vec<Vec<u8>> =
        (0..n_streams).map(|i| stream_pattern(i, profile.payload_len())).collect();
    let mut sconns: Vec<Option<H::ConnId>> = vec![None; n_streams];
    let d = drive::<H>(&mut net, &clients, &payloads, ns, &mut sconns);
    let idle = net.is_idle();

    let mut out = TopoOutcome {
        profile: profile.name(),
        topology: topo_name,
        stack: H::KIND.label(),
        seed,
        payload: profile.payload_len(),
        delivered: Vec::new(),
        complete: false,
        client_errors: d.client_errors,
        reconnect_ok: None,
        reroutes: bn.router_stats(&mut net, |s| s.reroutes),
        max_rtx: d.max_rtx,
        sim_ms: net.now().since(Time::ZERO).0 / 1_000_000,
        static_check,
        violations: Vec::new(),
    };
    out.delivered = attribute(&d.got, &payloads, &mut out.violations);
    out.complete = out.delivered.iter().all(|&b| b >= out.payload);

    // nat-restart second act: a fresh connection through the restarted
    // NAT must establish and deliver (reconnect-or-typed-abort).
    if profile == TopoProfile::NatRestart {
        out.reconnect_ok = Some(reconnect::<H>(&mut net, clients[0].0, ns, saddr, &sconns));
        out.sim_ms = net.now().since(Time::ZERO).0 / 1_000_000;
    }

    check_universal::<H>(profile, &mut out, idle);
    out
}

/// Open a second connection from the (aborted) client and push 10 KB.
fn reconnect<H: ConformStack>(
    net: &mut SimNet,
    nc: NodeId,
    ns: NodeId,
    saddr: u32,
    taken: &[Option<H::ConnId>],
) -> bool {
    let now = net.now();
    let payload = stream_pattern(7, 10_000);
    let Ok(conn) = stack_mut::<H>(net, nc).try_connect(now, 5001, Endpoint::new(saddr, SERVER_PORT))
    else {
        return false;
    };
    net.poll_all();
    let mut sent = 0usize;
    let mut got: Vec<u8> = Vec::new();
    let mut sconn: Option<H::ConnId> = None;
    let deadline = net.now() + Dur::from_secs(30);
    while net.now() < deadline && got.len() < payload.len() {
        net.run_for(TICK);
        if sent < payload.len() {
            sent += stack_mut::<H>(net, nc).send(conn, &payload[sent..]);
        }
        {
            let st = stack_mut::<H>(net, ns);
            if sconn.is_none() {
                sconn = st.established().into_iter().find(|id| !taken.contains(&Some(*id)));
            }
            if let Some(id) = sconn {
                got.extend(st.recv(id));
            }
        }
        net.poll_all();
    }
    got == payload
}

/// Universal invariants plus the profile's expectation.
fn check_universal<H: ConformStack>(profile: TopoProfile, out: &mut TopoOutcome, idle: bool) {
    if !out.static_check {
        out.violations.push("static gate: forwarding check failed".into());
    }
    let all_aborted = out.client_errors.iter().all(Option::is_some);
    let any_aborted = out.client_errors.iter().any(Option::is_some);
    if !out.complete && !all_aborted {
        out.violations.push("hung: neither delivered nor aborted within patience".into());
    }
    let cap = rtx_cap(H::KIND);
    if out.max_rtx > cap {
        out.violations
            .push(format!("unbounded rtx memory: {} bytes > cap {}", out.max_rtx, cap));
    }
    if any_aborted && !out.complete && !idle {
        out.violations.push("deadlock: simulator still busy after abort".into());
    }
    if profile.expect_abort() {
        if out.complete {
            out.violations.push("expected abort but delivered".into());
        }
        if !all_aborted {
            out.violations.push(format!(
                "expected typed aborts, got {:?}",
                out.client_errors
            ));
        }
    } else {
        if !out.complete {
            out.violations.push(format!(
                "expected delivery, got {:?}/{} (errors {:?})",
                out.delivered, out.payload, out.client_errors
            ));
        }
        if any_aborted {
            out.violations
                .push(format!("spurious abort: {:?}", out.client_errors));
        }
    }
    match profile {
        TopoProfile::DiamondReroute if out.reroutes < 1 => {
            out.violations.push("no router installed a backup table".into());
        }
        TopoProfile::DiamondFlap if out.reroutes < 2 => {
            out.violations
                .push(format!("expected reroute + heal installs, saw {}", out.reroutes));
        }
        TopoProfile::NatRestart if out.reconnect_ok != Some(true) => {
            out.violations.push("post-abort reconnect failed".into());
        }
        _ => {}
    }
}

/// Deterministic JSON for one outcome (stable field order —
/// byte-identical for identical seeds).
pub fn outcome_json(o: &TopoOutcome) -> String {
    json::obj(&[
        ("profile", json::str(o.profile)),
        ("topology", json::str(o.topology)),
        ("stack", json::str(o.stack)),
        ("seed", o.seed.to_string()),
        ("payload", o.payload.to_string()),
        ("delivered", json::list(&o.delivered)),
        ("complete", o.complete.to_string()),
        ("client_errors", json::list(o.client_errors.iter().map(|&e| json::opt_err(e)))),
        ("reconnect_ok", o.reconnect_ok.map_or("null".into(), |b| b.to_string())),
        ("reroutes", o.reroutes.to_string()),
        ("max_rtx", o.max_rtx.to_string()),
        ("sim_ms", o.sim_ms.to_string()),
        ("static_check", o.static_check.to_string()),
        ("violations", json::strs(&o.violations)),
    ])
}

/// The whole sweep as one JSON document.
pub fn summary_json(outs: &[TopoOutcome]) -> String {
    let rows: Vec<String> = outs.iter().map(outcome_json).collect();
    let violations = outs.iter().map(|o| o.violations.len()).sum();
    crate::sweep_json("campaigns", &rows, None, violations)
}

/// The campaign: six profiles x both stacks x three seeds (36 runs);
/// smoke is the reroute, NAT-restart and partition profiles on one seed.
pub fn report(smoke: bool) -> Report {
    let (profiles, seeds): (&[TopoProfile], &[u64]) = if smoke {
        (
            &[
                TopoProfile::DiamondReroute,
                TopoProfile::NatRestart,
                TopoProfile::LongHaulPartition,
            ],
            &[1],
        )
    } else {
        (&TopoProfile::all(), &[1, 2, 3])
    };
    let outs = sweep_grid(profiles, &KINDS, seeds, run_campaign);
    Report::sweep(
        summary_json(&outs),
        vec![
            "profile", "stack", "seed", "delivered", "client errs", "reconnect", "reroutes",
            "max rtx", "sim s", "verdict",
        ],
        outs
            .iter()
            .map(|o| {
                let errs: Vec<String> =
                    o.client_errors.iter().map(|&e| crate::err_cell(e)).collect();
                vec![
                    o.profile.to_string(),
                    o.stack.to_string(),
                    o.seed.to_string(),
                    format!(
                        "{}/{}",
                        o.delivered.iter().sum::<usize>(),
                        o.payload * o.delivered.len().max(1)
                    ),
                    errs.join(","),
                    o.reconnect_ok.map_or("-".into(), |b| b.to_string()),
                    o.reroutes.to_string(),
                    o.max_rtx.to_string(),
                    format!("{:.1}", o.sim_ms as f64 / 1000.0),
                    crate::verdict(&o.violations),
                ]
            })
            .collect(),
        outs
            .iter()
            .flat_map(|o| {
                crate::tagged(format!("{} {} seed={}", o.profile, o.stack, o.seed), &o.violations)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reroute_rtt_step_does_not_trip_keepalive() {
        // The chaos pin for the keepalive satellite: a mid-flow reroute
        // onto a 7x-slower path, with client keepalive armed, must
        // complete without any abort — on both stacks.
        for kind in [Kind::Sub, Kind::Mono] {
            let out = run_campaign(TopoProfile::DiamondReroute, kind, 1);
            assert!(out.ok(), "{}: {:?}", out.stack, out.violations);
        }
    }

    #[test]
    fn long_partition_aborts_with_bounded_memory() {
        for kind in [Kind::Sub, Kind::Mono] {
            let out = run_campaign(TopoProfile::LongHaulPartition, kind, 1);
            assert!(out.ok(), "{}: {:?}", out.stack, out.violations);
            assert!(out.max_rtx > 0, "rtx footprint was tracked");
        }
    }

    #[test]
    fn nat_restart_aborts_then_reconnects() {
        for kind in [Kind::Sub, Kind::Mono] {
            let out = run_campaign(TopoProfile::NatRestart, kind, 1);
            assert!(out.ok(), "{}: {:?}", out.stack, out.violations);
            assert_eq!(out.reconnect_ok, Some(true));
        }
    }

    /// The outcome-level differential check: `profile` passes on both
    /// stacks at seed 1, and they agree on what they must (completion,
    /// which streams died with a typed error, the reconnect).
    fn assert_stacks_agree(profile: TopoProfile) {
        let outcome = |o: &TopoOutcome| {
            let errored: Vec<bool> = o.client_errors.iter().map(Option::is_some).collect();
            (o.complete, errored, o.reconnect_ok)
        };
        let sub = run_campaign(profile, Kind::Sub, 1);
        let mono = run_campaign(profile, Kind::Mono, 1);
        assert!(sub.ok(), "{} sub: {:?}", sub.profile, sub.violations);
        assert!(mono.ok(), "{} mono: {:?}", mono.profile, mono.violations);
        assert_eq!(outcome(&sub), outcome(&mono), "{} diverges across stacks", sub.profile);
    }

    // One test per profile of `TopoProfile::all()`, fan-in included, which
    // the smoke sweep leaves out.
    #[test]
    fn line3_bulk_agrees_across_stacks() {
        assert_stacks_agree(TopoProfile::Line3Bulk);
    }

    #[test]
    fn reroute_mid_transfer_agrees_across_stacks() {
        assert_stacks_agree(TopoProfile::DiamondReroute);
    }

    #[test]
    fn diamond_flap_agrees_across_stacks() {
        assert_stacks_agree(TopoProfile::DiamondFlap);
    }

    #[test]
    fn fanin_bottleneck_agrees_across_stacks() {
        assert_stacks_agree(TopoProfile::FaninBottleneck);
    }

    #[test]
    fn nat_restart_agrees_across_stacks() {
        assert_stacks_agree(TopoProfile::NatRestart);
    }

    #[test]
    fn long_haul_partition_agrees_across_stacks() {
        assert_stacks_agree(TopoProfile::LongHaulPartition);
    }

    #[test]
    fn every_shipped_topology_passes_the_static_gate() {
        for topo in netlayer::shipped_topologies() {
            let report = topo.check(&[]);
            assert!(report.ok(), "{}: {:?}", topo.name, report.defects);
            for e in 0..topo.edges.len() {
                let post = topo.check(&[e]);
                assert!(
                    post.loop_free(),
                    "{} loses loop-freedom when edge {e} fails: {:?}",
                    topo.name,
                    post.defects
                );
            }
        }
    }
}
