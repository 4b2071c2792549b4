//! Multi-hop conformance: both stacks behind the `netlayer` fabric.
//!
//! The point-to-point corpus (`scenario`) checks protocol conformance on
//! a single wire; these scenarios put each stack behind a routed
//! [`netlayer::BoxTopo`] — multiple hops, a scripted reroute, a NAT
//! middlebox that forgets its translations — and check that the two
//! stacks agree at the *outcome* level:
//!
//! * [`MhScenario::RerouteMidTransfer`] — a diamond topology loses its
//!   primary path mid-transfer; the surviving path is an order of
//!   magnitude slower (an RTT step change) and frames in flight on the
//!   old path arrive late (ECMP-style reordering). Both stacks must
//!   absorb the switch and finish, with no spurious abort.
//! * [`MhScenario::NatRestart`] — the client sits behind a NAT that wipes
//!   its translation table mid-transfer. Retransmits re-map onto fresh
//!   public ports, the far end answers with a stateless RST, and both
//!   stacks must surface a **typed** abort — after which a fresh
//!   connection through the same NAT must work (reconnect-or-typed-abort).
//! * [`MhScenario::FaninBottleneck`] — three clients funnel through one
//!   rate-limited backbone edge into one server; all three streams must
//!   arrive complete and uncorrupted on both stacks.
//!
//! A *divergence* is an outcome-level disagreement between the stacks
//! (completion, typed-error presence, reconnect success). Per-run
//! invariant failures (corruption, missing abort, no reroute observed)
//! are *violations*, charged to the run that broke them.

use netlayer::{
    box_host_addr, schedule_nat_wipe, topo_diamond, topo_fanin, topo_nat_gateway, BoxNet,
    NatBox, NAT_INSIDE, NAT_OUTSIDE,
};
use netsim::{Dur, LinkParams, NodeId, SimNet, StackNode, Time, TransportError};
use sublayer_core::SlTcpStack;
use slwire::Endpoint;
use tcp_mono::TcpStack;

use crate::driver::ConformStack;
use crate::wire::Kind;
use crate::natcodec::{nat_codec, peek_for};

/// Server port for every multi-hop scenario.
pub const MH_SERVER_PORT: u16 = 80;
/// Private (pre-NAT) client address for [`MhScenario::NatRestart`].
pub const MH_PRIVATE_ADDR: u32 = 0xC0A8_0001;

const TICK: Dur = Dur(50_000_000); // 50 ms
const PATIENCE: Dur = Dur(120_000_000_000); // 120 s

fn t(ms: u64) -> Time {
    Time::ZERO + Dur::from_millis(ms)
}

/// The multi-hop scenario set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MhScenario {
    RerouteMidTransfer,
    NatRestart,
    FaninBottleneck,
}

impl MhScenario {
    pub fn all() -> [MhScenario; 3] {
        [MhScenario::RerouteMidTransfer, MhScenario::NatRestart, MhScenario::FaninBottleneck]
    }

    pub fn name(&self) -> &'static str {
        match self {
            MhScenario::RerouteMidTransfer => "reroute_mid_transfer",
            MhScenario::NatRestart => "nat_restart",
            MhScenario::FaninBottleneck => "fanin_bottleneck",
        }
    }
}

/// Outcome of one multi-hop run against one stack kind.
#[derive(Clone, Debug)]
pub struct MhOut {
    pub scenario: &'static str,
    pub kind: Kind,
    pub seed: u64,
    /// Per-stream payload length.
    pub payload: usize,
    /// Per-stream bytes delivered at the server, stream-order.
    pub delivered: Vec<usize>,
    /// Every stream arrived in full.
    pub complete: bool,
    /// Per-stream terminal error at the client.
    pub client_errors: Vec<Option<TransportError>>,
    /// `NatRestart` only: the post-abort reconnect delivered its bytes.
    pub reconnect_ok: Option<bool>,
    /// Sum of router table installs after build (reroutes/heals).
    pub reroutes: u64,
    /// Invariant failures charged to this run.
    pub violations: Vec<String>,
}

impl MhOut {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Deterministic per-stream payload; distinct salts make cross-stream
/// misdelivery (not just truncation) detectable.
pub fn mh_pattern(stream: usize, len: usize) -> Vec<u8> {
    let salt = (stream as u8).wrapping_mul(53).wrapping_add(11);
    (0..len).map(|i| ((i % 251) as u8).wrapping_add(salt)).collect()
}

/// Run one scenario against one stack kind.
pub fn run_multihop(kind: Kind, sc: MhScenario, seed: u64) -> MhOut {
    match kind {
        Kind::Sub => run_h::<SlTcpStack>(sc, seed),
        Kind::Mono => run_h::<TcpStack>(sc, seed),
    }
}

/// Run one scenario against both stacks and compare outcomes. Returns the
/// two runs plus the divergence list (empty = the stacks agree).
pub fn diff_multihop(sc: MhScenario, seed: u64) -> (MhOut, MhOut, Vec<String>) {
    let sub = run_multihop(Kind::Sub, sc, seed);
    let mono = run_multihop(Kind::Mono, sc, seed);
    let mut d = Vec::new();
    if sub.complete != mono.complete {
        d.push(format!(
            "completion diverges: sub={} mono={}",
            sub.complete, mono.complete
        ));
    }
    for (i, (se, me)) in sub.client_errors.iter().zip(&mono.client_errors).enumerate() {
        if se.is_some() != me.is_some() {
            d.push(format!(
                "stream {i} typed-error presence diverges: sub={se:?} mono={me:?}"
            ));
        }
    }
    if sub.reconnect_ok != mono.reconnect_ok {
        d.push(format!(
            "reconnect outcome diverges: sub={:?} mono={:?}",
            sub.reconnect_ok, mono.reconnect_ok
        ));
    }
    (sub, mono, d)
}

// ---------------------------------------------------------------------------
// The generic runner
// ---------------------------------------------------------------------------

fn attach_host<H: ConformStack>(
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

fn stack_mut<H: ConformStack>(net: &mut SimNet, id: NodeId) -> &mut H {
    &mut net.node_mut::<StackNode<H>>(id).stack
}

/// Feed each client its unsent tail, drain the server, step the clock.
/// Stops when every stream is complete, every client has a terminal
/// error, or patience runs out.
fn pump<H: ConformStack>(
    net: &mut SimNet,
    clients: &[(NodeId, H::ConnId)],
    payloads: &[Vec<u8>],
    server: NodeId,
    got: &mut [Vec<u8>],
    sconns: &mut [Option<H::ConnId>],
) {
    let deadline = net.now() + PATIENCE;
    let mut sent = vec![0usize; clients.len()];
    while net.now() < deadline {
        let step = net.now() + TICK;
        net.run_until(step);
        for (i, &(node, conn)) in clients.iter().enumerate() {
            if sent[i] < payloads[i].len() {
                sent[i] += stack_mut::<H>(net, node).send(conn, &payloads[i][sent[i]..]);
            }
        }
        {
            let st = stack_mut::<H>(net, server);
            // Streams appear asynchronously; adopt new server conns in
            // arrival order (attribution happens by salt at the end).
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
            // Let the fabric and far side settle, then stop.
            let settle = net.now() + Dur::from_secs(30);
            net.run_until(settle);
            break;
        }
    }
}

/// Check every server stream is an intact prefix of exactly one client
/// pattern, and return delivered counts in *stream* order.
fn attribute(
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

fn run_h<H: ConformStack>(sc: MhScenario, seed: u64) -> MhOut {
    match sc {
        MhScenario::RerouteMidTransfer => reroute_run::<H>(seed),
        MhScenario::NatRestart => nat_run::<H>(seed),
        MhScenario::FaninBottleneck => fanin_run::<H>(seed),
    }
}

fn base_out(sc: MhScenario, kind: Kind, seed: u64, payload: usize, streams: usize) -> MhOut {
    MhOut {
        scenario: sc.name(),
        kind,
        seed,
        payload,
        delivered: vec![0; streams],
        complete: false,
        client_errors: vec![None; streams],
        reconnect_ok: None,
        reroutes: 0,
        violations: Vec::new(),
    }
}

fn reroute_run<H: ConformStack>(seed: u64) -> MhOut {
    let mut out = base_out(MhScenario::RerouteMidTransfer, H::KIND, seed, 1_000_000, 1);
    let mut net = SimNet::new(seed);
    let bn: BoxNet = topo_diamond().build(&mut net, peek_for(H::KIND));
    let caddr = box_host_addr(0);
    let saddr = box_host_addr(1);
    let mut client = H::mk(caddr);
    let mut server = H::mk(saddr);
    server.listen(MH_SERVER_PORT);
    let conn = client
        .try_connect(Time::ZERO, 5000, Endpoint::new(saddr, MH_SERVER_PORT))
        .expect("client connect");
    // Rate-limit the client's access link so the transfer is still in
    // flight when the primary path dies.
    let access = LinkParams::delay_only(Dur::from_millis(1)).with_rate(4_000_000);
    let nc = attach_host(&mut net, &bn, 0, client, access);
    let ns = attach_host(&mut net, &bn, 1, server, LinkParams::delay_only(Dur::from_millis(1)));
    // Kill the primary's first hop at t=1.5 s; the control plane installs
    // the (15 ms-per-hop) backup tables 50 ms later.
    bn.schedule_reroute(&mut net, 0, t(1_500), Dur::from_millis(50));
    net.poll_all();

    let payloads = vec![mh_pattern(0, out.payload)];
    let mut got = vec![Vec::new()];
    let mut sconns: Vec<Option<H::ConnId>> = vec![None];
    pump::<H>(&mut net, &[(nc, conn)], &payloads, ns, &mut got, &mut sconns);

    out.delivered = attribute(&got, &payloads, &mut out.violations);
    out.complete = out.delivered[0] >= out.payload;
    out.client_errors = vec![stack_mut::<H>(&mut net, nc).conn_error(conn)];
    out.reroutes = bn.router_stats(&mut net, |s| s.reroutes);
    if !out.complete {
        out.violations.push(format!(
            "reroute: transfer stalled at {}/{} (err {:?})",
            out.delivered[0], out.payload, out.client_errors[0]
        ));
    }
    if let Some(e) = out.client_errors[0] {
        out.violations.push(format!("reroute: spurious client abort {e:?}"));
    }
    if out.reroutes == 0 {
        out.violations.push("reroute: no router installed a backup table".into());
    }
    out
}

fn nat_run<H: ConformStack>(seed: u64) -> MhOut {
    let mut out = base_out(MhScenario::NatRestart, H::KIND, seed, 2_000_000, 1);
    let mut net = SimNet::new(seed);
    let bn: BoxNet = topo_nat_gateway().build(&mut net, peek_for(H::KIND));
    let public = box_host_addr(0);
    let saddr = box_host_addr(1);
    let mut client = H::mk(MH_PRIVATE_ADDR);
    let mut server = H::mk(saddr);
    server.listen(MH_SERVER_PORT);
    let conn = client
        .try_connect(Time::ZERO, 5000, Endpoint::new(saddr, MH_SERVER_PORT))
        .expect("client connect");

    let access = LinkParams::delay_only(Dur::from_millis(1)).with_rate(4_000_000);
    let nc = net.add_node(Box::new(StackNode::new(client)));
    let nat = net.add_node(Box::new(NatBox::new(nat_codec(H::KIND), public).rst_on_unknown()));
    net.connect(nc, 0, nat, NAT_INSIDE, access);
    let (r0, p0) = bn.host_ports[0];
    net.connect(nat, NAT_OUTSIDE, r0, p0, LinkParams::delay_only(Dur::from_millis(1)));
    let ns = attach_host(&mut net, &bn, 1, server, LinkParams::delay_only(Dur::from_millis(1)));
    // The middlebox "restarts" (loses every translation) mid-transfer.
    schedule_nat_wipe(&mut net, nat, t(2_000));
    net.poll_all();

    let payloads = vec![mh_pattern(0, out.payload)];
    let mut got = vec![Vec::new()];
    let mut sconns: Vec<Option<H::ConnId>> = vec![None];
    pump::<H>(&mut net, &[(nc, conn)], &payloads, ns, &mut got, &mut sconns);

    out.delivered = attribute(&got, &payloads, &mut out.violations);
    out.complete = out.delivered[0] >= out.payload;
    out.client_errors = vec![stack_mut::<H>(&mut net, nc).conn_error(conn)];
    let wipes = net.node_mut::<NatBox>(nat).stats.table_wipes;
    if out.complete {
        out.violations.push("nat_restart: transfer survived a table wipe".into());
    }
    if out.client_errors[0].is_none() {
        out.violations.push(
            "nat_restart: no typed abort after the NAT dropped the flow".into(),
        );
    }
    if wipes != 1 {
        out.violations.push(format!("nat_restart: expected 1 wipe, saw {wipes}"));
    }

    // Reconnect-or-typed-abort, second half: a *fresh* connection through
    // the restarted NAT must establish and deliver.
    let now = net.now();
    let re_payload = mh_pattern(7, 10_000);
    let reconnect = stack_mut::<H>(&mut net, nc).try_connect(
        now,
        5001,
        Endpoint::new(saddr, MH_SERVER_PORT),
    );
    let mut re_ok = false;
    if let Ok(rconn) = reconnect {
        net.poll_all();
        let mut re_sent = 0usize;
        let mut re_got: Vec<u8> = Vec::new();
        let mut re_sconn: Option<H::ConnId> = None;
        let deadline = net.now() + Dur::from_secs(30);
        while net.now() < deadline && re_got.len() < re_payload.len() {
            let step = net.now() + TICK;
            net.run_until(step);
            if re_sent < re_payload.len() {
                re_sent += stack_mut::<H>(&mut net, nc).send(rconn, &re_payload[re_sent..]);
            }
            {
                let st = stack_mut::<H>(&mut net, ns);
                if re_sconn.is_none() {
                    re_sconn = st
                        .established()
                        .into_iter()
                        .find(|id| !sconns.contains(&Some(*id)));
                }
                if let Some(id) = re_sconn {
                    re_got.extend(st.recv(id));
                }
            }
            net.poll_all();
        }
        re_ok = re_got == re_payload;
    }
    out.reconnect_ok = Some(re_ok);
    if !re_ok {
        out.violations.push("nat_restart: post-abort reconnect failed".into());
    }
    out
}

fn fanin_run<H: ConformStack>(seed: u64) -> MhOut {
    let n_clients = 3;
    let mut out = base_out(MhScenario::FaninBottleneck, H::KIND, seed, 150_000, n_clients);
    let mut net = SimNet::new(seed);
    let bn: BoxNet = topo_fanin().build(&mut net, peek_for(H::KIND));
    let saddr = box_host_addr(3);
    let mut server = H::mk(saddr);
    server.listen(MH_SERVER_PORT);

    let mut clients = Vec::new();
    for i in 0..n_clients {
        let addr = box_host_addr(i);
        let mut c = H::mk(addr);
        let conn = c
            .try_connect(Time::ZERO, 5000 + i as u16, Endpoint::new(saddr, MH_SERVER_PORT))
            .expect("client connect");
        let id = attach_host(&mut net, &bn, i, c, LinkParams::delay_only(Dur::from_millis(1)));
        clients.push((id, conn));
    }
    let ns = attach_host(&mut net, &bn, 3, server, LinkParams::delay_only(Dur::from_millis(1)));
    net.poll_all();

    let payloads: Vec<Vec<u8>> = (0..n_clients).map(|i| mh_pattern(i, out.payload)).collect();
    let mut got = vec![Vec::new(); n_clients];
    let mut sconns: Vec<Option<H::ConnId>> = vec![None; n_clients];
    pump::<H>(&mut net, &clients, &payloads, ns, &mut got, &mut sconns);

    out.delivered = attribute(&got, &payloads, &mut out.violations);
    out.complete = out.delivered.iter().all(|&d| d >= out.payload);
    out.client_errors = clients
        .iter()
        .map(|&(node, conn)| stack_mut::<H>(&mut net, node).conn_error(conn))
        .collect();
    if !out.complete {
        out.violations.push(format!(
            "fanin: streams delivered {:?} of {} each",
            out.delivered, out.payload
        ));
    }
    for (i, e) in out.client_errors.iter().enumerate() {
        if let Some(e) = e {
            out.violations.push(format!("fanin: client {i} aborted {e:?}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reroute_mid_transfer_agrees_across_stacks() {
        let (sub, mono, d) = diff_multihop(MhScenario::RerouteMidTransfer, 1);
        assert!(sub.ok(), "sub violations: {:?}", sub.violations);
        assert!(mono.ok(), "mono violations: {:?}", mono.violations);
        assert!(d.is_empty(), "divergences: {d:?}");
    }

    #[test]
    fn nat_restart_agrees_across_stacks() {
        let (sub, mono, d) = diff_multihop(MhScenario::NatRestart, 1);
        assert!(sub.ok(), "sub violations: {:?}", sub.violations);
        assert!(mono.ok(), "mono violations: {:?}", mono.violations);
        assert!(d.is_empty(), "divergences: {d:?}");
    }

    #[test]
    fn fanin_bottleneck_agrees_across_stacks() {
        let (sub, mono, d) = diff_multihop(MhScenario::FaninBottleneck, 1);
        assert!(sub.ok(), "sub violations: {:?}", sub.violations);
        assert!(mono.ok(), "mono violations: {:?}", mono.violations);
        assert!(d.is_empty(), "divergences: {d:?}");
    }
}
