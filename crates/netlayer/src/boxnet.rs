//! # boxnet — the "Internet in a box" (multi-hop topologies for campaigns)
//!
//! Every earlier campaign ran two hosts over one point-to-point link. This
//! module puts the transports behind the network fabric they would actually
//! traverse: a [`BoxTopo`] of routers and links, hosts attached at the
//! edges, **static** route tables with partition-triggered reroute, and an
//! optional NAT middlebox ([`NatBox`]) on a host's access link.
//!
//! Design choices, in the paper's terms:
//!
//! * **Static data plane, scripted control plane.** Routers here are pure
//!   forwarding sublayer ([`StaticRouter`]): a FIB, TTL decrement, and
//!   encap/decap of raw transport frames into [`DataPacket`]s. Route
//!   computation is done *offline* by [`BoxTopo::route_tables`]
//!   (deterministic BFS), and "convergence after failure" is modelled as a
//!   scheduled table swap after a detection delay
//!   ([`BoxNet::schedule_reroute`]) — so campaigns are exactly replayable
//!   and the interesting nondeterminism stays in the transport under test.
//!   The dynamic routing sublayers (`dv`, `ls`, `neighbor`) remain the
//!   subject of their own experiments.
//! * **Verified before traffic.** [`BoxTopo::build`] refuses to construct
//!   a network whose primary tables fail the StacKAT-flavored
//!   [`crate::forwarding::check_forwarding_to`] (full reachability, zero loops),
//!   and [`BoxNet::schedule_reroute`] asserts the backup tables are
//!   loop-free before scheduling them. Loop-freedom is a *precondition*
//!   of every campaign, not a hoped-for observation.
//! * **Transport-agnostic.** The router peeks source/destination addresses
//!   off raw host frames through a caller-supplied [`AddrPeek`] function,
//!   and the NAT rewrites endpoints through a caller-supplied [`NatCodec`];
//!   netlayer never learns either transport's wire format.
//!
//! ```text
//!   host A ──[NatBox]── R0 ══ R1 ══ R2 ── host B        ══ backbone links
//!            (optional)  └────═ R3 ═────┘                ── access links
//!                          (backup path)
//! ```

use std::collections::BTreeMap;

use netsim::{AdminOp, Dur, LinkId, LinkParams, Node, NodeCtx, NodeId, PortId, SimNet, Time};
use crate::forwarding::{check_forwarding_to, ForwardReport, ForwardSpec};

use crate::fib::{Fib, Prefix};
use crate::packet::{Addr, DataPacket};

/// Reads `(src_addr, dst_addr)` off a raw transport frame. Kept as a plain
/// function pointer so a topology stays `'static` data; the per-wire-format
/// implementations live with the harness that runs the transports over
/// the fabric (`bench::natcodec::peek_for`).
pub type AddrPeek = fn(&[u8]) -> Option<(u32, u32)>;

/// Default TTL stamped on encapsulated data packets.
pub const BOX_TTL: u8 = 64;

// ---------------------------------------------------------------------------
// Topology description
// ---------------------------------------------------------------------------

/// A router-router link in a [`BoxTopo`].
#[derive(Clone, Debug)]
pub struct BoxEdge {
    pub a: usize,
    pub b: usize,
    pub params: LinkParams,
}

impl BoxEdge {
    pub fn new(a: usize, b: usize, params: LinkParams) -> BoxEdge {
        BoxEdge { a, b, params }
    }
}

/// A host attachment point: which router the host (or its NAT) cables into,
/// and the network-visible address traffic for it is routed toward. For a
/// NAT'd site this is the NAT's *public* address — the inside address never
/// appears past the middlebox.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostSite {
    pub router: usize,
    pub addr: u32,
}

/// A multi-hop topology: routers, router-router edges, and host sites.
/// Pure data — build it onto a `SimNet` with [`BoxTopo::build`].
#[derive(Clone, Debug)]
pub struct BoxTopo {
    pub name: &'static str,
    pub routers: usize,
    pub edges: Vec<BoxEdge>,
    pub hosts: Vec<HostSite>,
    /// TTL for encapsulated packets (also bounds the static walk).
    pub ttl: u8,
}

impl BoxTopo {
    pub fn new(name: &'static str, routers: usize) -> BoxTopo {
        BoxTopo { name, routers, edges: Vec::new(), hosts: Vec::new(), ttl: BOX_TTL }
    }

    pub fn edge(mut self, a: usize, b: usize, params: LinkParams) -> Self {
        assert!(a < self.routers && b < self.routers && a != b, "bad edge {a}-{b}");
        self.edges.push(BoxEdge::new(a, b, params));
        self
    }

    pub fn host(mut self, router: usize, addr: u32) -> Self {
        assert!(router < self.routers, "host on unknown router {router}");
        assert!(self.hosts.iter().all(|h| h.addr != addr), "duplicate host addr");
        self.hosts.push(HostSite { router, addr });
        self
    }

    /// Port layout: each router's edge ports come first (in `edges` order),
    /// then its host access ports (in `hosts` order). Returns
    /// `(edge_ports[edge] = (port_at_a, port_at_b), host_port[host])`.
    fn port_layout(&self) -> (Vec<(PortId, PortId)>, Vec<PortId>) {
        let mut next = vec![0usize; self.routers];
        let mut edge_ports = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            let pa = next[e.a];
            next[e.a] += 1;
            let pb = next[e.b];
            next[e.b] += 1;
            edge_ports.push((pa, pb));
        }
        let mut host_port = Vec::with_capacity(self.hosts.len());
        for h in &self.hosts {
            host_port.push(next[h.router]);
            next[h.router] += 1;
        }
        (edge_ports, host_port)
    }

    /// Per-router next-hop ports toward every host, computed by BFS over
    /// the router graph with the edges in `failed` removed. Deterministic:
    /// ties break toward the lowest-numbered neighbor.
    /// `routes[router][host] = Some(port)`; `None` = unreachable.
    fn routes(&self, failed: &[usize]) -> Vec<Vec<Option<PortId>>> {
        let (edge_ports, host_port) = self.port_layout();
        // adj[router] = (neighbor, out port), in edge order.
        let mut adj: Vec<Vec<(usize, PortId)>> = vec![Vec::new(); self.routers];
        for (i, e) in self.edges.iter().enumerate() {
            if failed.contains(&i) {
                continue;
            }
            adj[e.a].push((e.b, edge_ports[i].0));
            adj[e.b].push((e.a, edge_ports[i].1));
        }
        let mut routes = vec![vec![None; self.hosts.len()]; self.routers];
        for (h, site) in self.hosts.iter().enumerate() {
            // BFS from the attachment router.
            let mut dist = vec![usize::MAX; self.routers];
            dist[site.router] = 0;
            let mut frontier = vec![site.router];
            while !frontier.is_empty() {
                let mut nextf = Vec::new();
                for &r in &frontier {
                    for &(n, _) in &adj[r] {
                        if dist[n] == usize::MAX {
                            dist[n] = dist[r] + 1;
                            nextf.push(n);
                        }
                    }
                }
                frontier = nextf;
            }
            for r in 0..self.routers {
                if r == site.router {
                    routes[r][h] = Some(host_port[h]);
                } else if dist[r] != usize::MAX {
                    routes[r][h] = adj[r]
                        .iter()
                        .filter(|(n, _)| dist[*n] + 1 == dist[r])
                        .min_by_key(|(n, _)| *n)
                        .map(|&(_, port)| port);
                }
            }
        }
        routes
    }

    /// The installable form of [`BoxTopo::routes`]: per-router
    /// `(host_addr, out_port)` pairs.
    pub fn route_tables(&self, failed: &[usize]) -> Vec<Vec<(u32, PortId)>> {
        self.routes(failed)
            .into_iter()
            .map(|per_host| {
                per_host
                    .into_iter()
                    .enumerate()
                    .filter_map(|(h, port)| port.map(|p| (self.hosts[h].addr, p)))
                    .collect()
            })
            .collect()
    }

    /// Build the [`ForwardSpec`] for the route tables under `failed` edges:
    /// routers plus one pseudo-node per host, destinations = hosts.
    fn spec(&self, failed: &[usize]) -> (ForwardSpec, Vec<usize>) {
        let (edge_ports, host_port) = self.port_layout();
        let routes = self.routes(failed);
        let n = self.routers + self.hosts.len();
        let mut ports: Vec<Vec<Option<usize>>> = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            let peer = |r: usize| if failed.contains(&i) { None } else { Some(r) };
            let (pa, pb) = edge_ports[i];
            set_port(&mut ports[e.a], pa, peer(e.b));
            set_port(&mut ports[e.b], pb, peer(e.a));
        }
        for (h, site) in self.hosts.iter().enumerate() {
            set_port(&mut ports[site.router], host_port[h], Some(self.routers + h));
            set_port(&mut ports[self.routers + h], 0, Some(site.router));
        }
        let mut spec_routes: Vec<Vec<Option<usize>>> = vec![vec![None; n]; n];
        for r in 0..self.routers {
            for h in 0..self.hosts.len() {
                spec_routes[r][self.routers + h] = routes[r][h];
            }
        }
        for h in 0..self.hosts.len() {
            for (dst, route) in spec_routes[self.routers + h].iter_mut().enumerate() {
                if dst != self.routers + h {
                    *route = Some(0);
                }
            }
        }
        let dsts: Vec<usize> = (self.routers..n).collect();
        (ForwardSpec { n, ports, routes: spec_routes }, dsts)
    }

    /// Statically check the tables that [`BoxTopo::route_tables`] would
    /// install under the given failure set: every (node, host) pair either
    /// delivers or drops — never loops. With no failures, [`ForwardReport::ok`]
    /// additionally demands full host-to-host reachability.
    pub fn check(&self, failed: &[usize]) -> ForwardReport {
        let (spec, dsts) = self.spec(failed);
        check_forwarding_to(&spec, &dsts, self.ttl as usize)
    }

    /// Instantiate the topology on `net`: routers with their primary FIBs,
    /// backbone links, and reserved access ports for each host site.
    /// Panics if the primary tables fail the static forwarding check.
    pub fn build(self, net: &mut SimNet, peek: AddrPeek) -> BoxNet {
        let report = self.check(&[]);
        assert!(
            report.ok(),
            "topology `{}` failed the static forwarding check: {:?}",
            self.name,
            report.defects
        );
        let (edge_ports, host_port) = self.port_layout();
        let tables = self.route_tables(&[]);
        let mut routers = Vec::with_capacity(self.routers);
        for (r, table) in tables.iter().enumerate() {
            let mut sr = StaticRouter::new(peek, self.ttl);
            for (h, site) in self.hosts.iter().enumerate() {
                if site.router == r {
                    sr.add_host_port(host_port[h], site.addr);
                }
            }
            sr.install_routes(table);
            sr.stats.reroutes = 0; // the primary table is not a reroute
            routers.push(net.add_node(Box::new(sr)));
        }
        let mut edge_links = Vec::with_capacity(self.edges.len());
        for (i, e) in self.edges.iter().enumerate() {
            let (pa, pb) = edge_ports[i];
            edge_links.push(net.connect(routers[e.a], pa, routers[e.b], pb, e.params.clone()));
        }
        let host_ports =
            self.hosts.iter().enumerate().map(|(h, s)| (routers[s.router], host_port[h])).collect();
        BoxNet { topo: self, routers, edge_links, host_ports }
    }
}

fn set_port(ports: &mut Vec<Option<usize>>, port: usize, peer: Option<usize>) {
    if ports.len() <= port {
        ports.resize(port + 1, None);
    }
    ports[port] = peer;
}

/// A [`BoxTopo`] instantiated on a `SimNet`.
pub struct BoxNet {
    pub topo: BoxTopo,
    /// Router node ids, indexed like `topo` routers.
    pub routers: Vec<NodeId>,
    /// Backbone link ids, indexed like `topo.edges`.
    pub edge_links: Vec<LinkId>,
    /// Where each host site cables in: `(router node, access port)`. The
    /// caller connects its host node — or a [`NatBox`] in front of it —
    /// to this port.
    pub host_ports: Vec<(NodeId, PortId)>,
}

impl BoxNet {
    /// Partition edge `at_edge` at time `at`, then install the precomputed
    /// backup tables once the control plane "detects" it (`detect` later).
    /// Frames already in flight on the old path still arrive, so a path
    /// switch naturally reorders — the ECMP-style hazard the transports
    /// must absorb. Panics if the backup tables are not loop-free.
    pub fn schedule_reroute(&self, net: &mut SimNet, at_edge: usize, at: Time, detect: Dur) {
        let report = self.topo.check(&[at_edge]);
        assert!(
            report.loop_free(),
            "backup tables for `{}` minus edge {at_edge} loop: {:?}",
            self.topo.name,
            report.defects
        );
        net.schedule_admin(at, AdminOp::LinkDown(self.edge_links[at_edge]));
        self.schedule_tables(net, at + detect, self.topo.route_tables(&[at_edge]));
    }

    /// Heal edge `at_edge` at `at` and restore the primary tables after the
    /// same detection delay.
    pub fn schedule_heal(&self, net: &mut SimNet, at_edge: usize, at: Time, detect: Dur) {
        net.schedule_admin(at, AdminOp::LinkUp(self.edge_links[at_edge]));
        self.schedule_tables(net, at + detect, self.topo.route_tables(&[]));
    }

    fn schedule_tables(&self, net: &mut SimNet, at: Time, tables: Vec<Vec<(u32, PortId)>>) {
        let routers = self.routers.clone();
        net.schedule_call(at, move |net| {
            for (id, table) in routers.iter().zip(tables.iter()) {
                net.node_mut::<StaticRouter>(*id).install_routes(table);
            }
        });
    }

    /// Sum of a stat over every router, via `f`.
    pub fn router_stats(&self, net: &mut SimNet, f: impl Fn(&BoxRouterStats) -> u64) -> u64 {
        self.routers.iter().map(|&id| f(&net.node_mut::<StaticRouter>(id).stats)).sum()
    }
}

// ---------------------------------------------------------------------------
// StaticRouter: the forwarding sublayer alone
// ---------------------------------------------------------------------------

/// Counters for one [`StaticRouter`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BoxRouterStats {
    /// Raw host frames encapsulated at ingress.
    pub encapped: u64,
    /// Data packets forwarded router-to-router.
    pub forwarded: u64,
    /// Data packets decapsulated and delivered out a host port.
    pub delivered: u64,
    /// Host-to-host traffic delivered without leaving this router.
    pub hairpins: u64,
    pub dropped_no_route: u64,
    pub dropped_ttl: u64,
    pub malformed: u64,
    /// Table installs after build (reroutes/heals).
    pub reroutes: u64,
}

/// A static-route router: FIB + TTL + encap/decap, no routing protocol.
/// Host access ports carry **raw transport frames** (what the host's NIC
/// would emit on a point-to-point wire); backbone ports carry
/// [`DataPacket`]s. The router tells them apart by port, not by sniffing
/// bytes, so transports never collide with the network-layer kind space.
pub struct StaticRouter {
    fib: Fib<PortId>,
    /// `host_ports[port] = Some(addr)` when `port` faces a host access link.
    host_ports: Vec<Option<u32>>,
    peek: AddrPeek,
    ttl: u8,
    pub stats: BoxRouterStats,
}

impl StaticRouter {
    pub fn new(peek: AddrPeek, ttl: u8) -> StaticRouter {
        StaticRouter {
            fib: Fib::new(),
            host_ports: Vec::new(),
            peek,
            ttl,
            stats: BoxRouterStats::default(),
        }
    }

    /// Declare `port` as the access port for the host addressed `addr`.
    pub fn add_host_port(&mut self, port: PortId, addr: u32) {
        if self.host_ports.len() <= port {
            self.host_ports.resize(port + 1, None);
        }
        self.host_ports[port] = Some(addr);
    }

    /// Replace the whole FIB with `(host_addr, out_port)` routes.
    pub fn install_routes(&mut self, table: &[(u32, PortId)]) {
        self.fib.clear();
        for &(addr, port) in table {
            self.fib.insert(Prefix::host(Addr(addr)), port);
        }
        self.stats.reroutes += 1;
    }

    /// The installed host routes, sorted by address — lets tests compare a
    /// live router's table against what [`BoxTopo::route_tables`] computes.
    pub fn route_snapshot(&self) -> Vec<(u32, PortId)> {
        let mut v: Vec<(u32, PortId)> =
            self.fib.iter().into_iter().map(|(p, port)| (p.addr.0, *port)).collect();
        v.sort_unstable();
        v
    }

    fn host_port_for(&self, addr: u32) -> Option<PortId> {
        self.host_ports.iter().position(|p| *p == Some(addr))
    }

    fn is_host_port(&self, port: PortId) -> bool {
        self.host_ports.get(port).copied().flatten().is_some()
    }
}

impl Node for StaticRouter {
    fn on_frame(&mut self, port: PortId, frame: Vec<u8>, ctx: &mut NodeCtx) {
        if self.is_host_port(port) {
            // Ingress: a raw transport frame from an attached host.
            let Some((src, dst)) = (self.peek)(&frame) else {
                self.stats.malformed += 1;
                return;
            };
            if let Some(out) = self.host_port_for(dst) {
                self.stats.hairpins += 1;
                ctx.send(out, frame);
                return;
            }
            match self.fib.lookup(Addr(dst)) {
                Some(&out) => {
                    let mut pkt = DataPacket::new(Addr(src), Addr(dst), frame);
                    pkt.ttl = self.ttl;
                    self.stats.encapped += 1;
                    ctx.send(out, pkt.encode());
                }
                None => self.stats.dropped_no_route += 1,
            }
        } else {
            // Transit: a DataPacket from another router.
            let Some(mut pkt) = DataPacket::decode(&frame) else {
                self.stats.malformed += 1;
                return;
            };
            if let Some(out) = self.host_port_for(pkt.dst.0) {
                self.stats.delivered += 1;
                ctx.send(out, pkt.payload);
                return;
            }
            match self.fib.lookup(pkt.dst) {
                Some(&out) => {
                    if pkt.ttl <= 1 {
                        self.stats.dropped_ttl += 1;
                        return;
                    }
                    pkt.ttl -= 1;
                    self.stats.forwarded += 1;
                    ctx.send(out, pkt.encode());
                }
                None => self.stats.dropped_no_route += 1,
            }
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut NodeCtx) {}
}

// ---------------------------------------------------------------------------
// NatBox: an address-and-port-translating (and optionally hostile) middlebox
// ---------------------------------------------------------------------------

/// Port on a [`NatBox`] facing the private host.
pub const NAT_INSIDE: PortId = 0;
/// Port on a [`NatBox`] facing the network.
pub const NAT_OUTSIDE: PortId = 1;

/// First public port a [`NatBox`] allocates.
pub const NAT_FIRST_PORT: u16 = 40000;

/// Transport-format knowledge a [`NatBox`] needs: read the 4-tuple,
/// rewrite an endpoint (re-sealing any checksum), shift the data sequence
/// number (hostile mode), and forge a RST answering a given frame.
/// Implementations live with the harness that runs the transports over
/// the fabric (`bench::natcodec`).
pub trait NatCodec {
    /// `((src_addr, src_port), (dst_addr, dst_port))` of a raw frame.
    fn tuple(&self, frame: &[u8]) -> Option<((u32, u16), (u32, u16))>;
    /// Rewrite the source endpoint.
    fn rewrite_src(&self, frame: &[u8], addr: u32, port: u16) -> Option<Vec<u8>>;
    /// Rewrite the destination endpoint.
    fn rewrite_dst(&self, frame: &[u8], addr: u32, port: u16) -> Option<Vec<u8>>;
    /// Shift the frame's data sequence number by `delta`. Returns `None`
    /// when the frame carries no data to shift (pure ACKs pass untouched).
    fn shift_seq(&self, frame: &[u8], delta: u32) -> Option<Vec<u8>>;
    /// Forge a RST that answers `frame` toward its sender, claiming to come
    /// from the frame's destination (what a stateless stack would emit).
    fn forge_rst_reply(&self, frame: &[u8]) -> Option<Vec<u8>>;
}

/// Counters for one [`NatBox`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NatStats {
    pub translated_out: u64,
    pub translated_in: u64,
    pub mappings_created: u64,
    /// Inbound frames whose public port had no mapping (dropped).
    pub unknown_drops: u64,
    /// RSTs forged for unknown inbound flows (`rst_on_unknown`).
    pub rsts_sent: u64,
    /// Translation-table losses ([`NatBox::wipe_table`]).
    pub table_wipes: u64,
    /// Inbound data frames whose sequence number was shifted (hostile mode).
    pub hostile_rewrites: u64,
    pub malformed: u64,
}

/// A NAPT middlebox bridging a private host ([`NAT_INSIDE`]) to the fabric
/// ([`NAT_OUTSIDE`]). Outbound flows allocate a public port and rewrite the
/// source endpoint; inbound frames are matched by public port and rewritten
/// back. Three failure personalities, all scriptable mid-run:
///
/// * [`NatBox::wipe_table`] models a middlebox restart: every mapping dies.
///   Retransmits from inside re-create mappings **on fresh public ports**
///   (real NATs do not remember allocations across restarts), so the far
///   end sees an unknown 4-tuple and answers with a stateless RST — the
///   transport must surface a *typed* abort, then reconnect.
/// * `rst_on_unknown` makes the NAT itself answer unknown inbound flows
///   with a forged RST instead of silently dropping them.
/// * `hostile_seq_delta` shifts the sequence number of every inbound data
///   frame — an RFC-5961-style hostile middlebox. A correct receiver never
///   accepts the shifted payload into the stream.
pub struct NatBox {
    codec: Box<dyn NatCodec>,
    public_addr: u32,
    next_port: u16,
    /// `(in_addr, in_port, peer_addr, peer_port) -> public port`
    out_map: BTreeMap<(u32, u16, u32, u16), u16>,
    /// `public port -> (in_addr, in_port)`
    in_map: BTreeMap<u16, (u32, u16)>,
    pub rst_on_unknown: bool,
    pub hostile_seq_delta: u32,
    pub stats: NatStats,
}

impl NatBox {
    pub fn new(codec: Box<dyn NatCodec>, public_addr: u32) -> NatBox {
        NatBox {
            codec,
            public_addr,
            next_port: NAT_FIRST_PORT,
            out_map: BTreeMap::new(),
            in_map: BTreeMap::new(),
            rst_on_unknown: false,
            hostile_seq_delta: 0,
            stats: NatStats::default(),
        }
    }

    pub fn rst_on_unknown(mut self) -> Self {
        self.rst_on_unknown = true;
        self
    }

    pub fn hostile(mut self, seq_delta: u32) -> Self {
        self.hostile_seq_delta = seq_delta;
        self
    }

    /// Drop every translation. The port allocator does **not** rewind:
    /// re-created mappings land on fresh public ports, so established flows
    /// cannot silently resume.
    pub fn wipe_table(&mut self) {
        self.out_map.clear();
        self.in_map.clear();
        self.stats.table_wipes += 1;
    }

    /// Live mappings.
    pub fn table_len(&self) -> usize {
        self.out_map.len()
    }

    /// The public port currently mapped for an inside 4-tuple, if any.
    pub fn public_port(&self, src: (u32, u16), dst: (u32, u16)) -> Option<u16> {
        self.out_map.get(&(src.0, src.1, dst.0, dst.1)).copied()
    }
}

/// Schedule a [`NatBox::wipe_table`] (middlebox restart) at `at`.
pub fn schedule_nat_wipe(net: &mut SimNet, nat: NodeId, at: Time) {
    net.schedule_call(at, move |net| net.node_mut::<NatBox>(nat).wipe_table());
}

impl Node for NatBox {
    fn on_frame(&mut self, port: PortId, frame: Vec<u8>, ctx: &mut NodeCtx) {
        let Some((src, dst)) = self.codec.tuple(&frame) else {
            self.stats.malformed += 1;
            return;
        };
        if port == NAT_INSIDE {
            let key = (src.0, src.1, dst.0, dst.1);
            let public = match self.out_map.get(&key) {
                Some(&p) => p,
                None => {
                    let p = self.next_port;
                    self.next_port = self.next_port.wrapping_add(1);
                    self.out_map.insert(key, p);
                    self.in_map.insert(p, (src.0, src.1));
                    self.stats.mappings_created += 1;
                    p
                }
            };
            match self.codec.rewrite_src(&frame, self.public_addr, public) {
                Some(out) => {
                    self.stats.translated_out += 1;
                    ctx.send(NAT_OUTSIDE, out);
                }
                None => self.stats.malformed += 1,
            }
        } else {
            match self.in_map.get(&dst.1).copied() {
                Some((in_addr, in_port)) if dst.0 == self.public_addr => {
                    let Some(mut out) = self.codec.rewrite_dst(&frame, in_addr, in_port) else {
                        self.stats.malformed += 1;
                        return;
                    };
                    if self.hostile_seq_delta != 0 {
                        if let Some(shifted) = self.codec.shift_seq(&out, self.hostile_seq_delta) {
                            self.stats.hostile_rewrites += 1;
                            out = shifted;
                        }
                    }
                    self.stats.translated_in += 1;
                    ctx.send(NAT_INSIDE, out);
                }
                _ => {
                    self.stats.unknown_drops += 1;
                    if self.rst_on_unknown {
                        if let Some(rst) = self.codec.forge_rst_reply(&frame) {
                            self.stats.rsts_sent += 1;
                            ctx.send(NAT_OUTSIDE, rst);
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut NodeCtx) {}
}

// ---------------------------------------------------------------------------
// Shipped topologies
// ---------------------------------------------------------------------------

/// Address of host site `i` in the shipped topologies: `10.0.(i+1).1`.
pub fn box_host_addr(i: usize) -> u32 {
    0x0A00_0001 | ((i as u32 + 1) << 8)
}

fn backbone(delay_ms: u64) -> LinkParams {
    LinkParams::delay_only(Dur::from_millis(delay_ms))
}

/// Three routers in a chain, hosts at both ends — the multi-hop baseline.
pub fn topo_line3() -> BoxTopo {
    BoxTopo::new("line3", 3)
        .edge(0, 1, backbone(5))
        .edge(1, 2, backbone(5))
        .host(0, box_host_addr(0))
        .host(2, box_host_addr(1))
}

/// Four routers in a diamond: the primary path (via router 1) is fast, the
/// backup (via router 2) is an order of magnitude slower, so a reroute is
/// also an RTT step change. Edges 0/1 form the primary path.
pub fn topo_diamond() -> BoxTopo {
    BoxTopo::new("diamond", 4)
        .edge(0, 1, backbone(2)) // primary, hop 1
        .edge(1, 3, backbone(2)) // primary, hop 2
        .edge(0, 2, backbone(15)) // backup, hop 1
        .edge(2, 3, backbone(15)) // backup, hop 2
        .host(0, box_host_addr(0))
        .host(3, box_host_addr(1))
}

/// Three client sites on leaf routers funneling into one rate-limited
/// backbone edge (edge 3) toward the server's router.
pub fn topo_fanin() -> BoxTopo {
    BoxTopo::new("fanin", 5)
        .edge(1, 0, backbone(3))
        .edge(2, 0, backbone(3))
        .edge(3, 0, backbone(3))
        .edge(0, 4, backbone(5).with_rate(2_000_000)) // the bottleneck
        .host(1, box_host_addr(0))
        .host(2, box_host_addr(1))
        .host(3, box_host_addr(2))
        .host(4, box_host_addr(3)) // server
}

/// Two routers; site 0 is a NAT'd client (its [`HostSite::addr`] is the
/// NAT's public address), site 1 the server.
pub fn topo_nat_gateway() -> BoxTopo {
    BoxTopo::new("nat_gateway", 2)
        .edge(0, 1, backbone(8))
        .host(0, box_host_addr(0)) // public side of the NAT
        .host(1, box_host_addr(1))
}

/// Four routers in a chain with hosts at the ends and no alternate path:
/// partitioning the middle edge (index 1) strands both sides — the
/// long-partition / bounded-memory scenario.
pub fn topo_long_haul() -> BoxTopo {
    BoxTopo::new("long_haul", 4)
        .edge(0, 1, backbone(10))
        .edge(1, 2, backbone(10))
        .edge(2, 3, backbone(10))
        .host(0, box_host_addr(0))
        .host(3, box_host_addr(1))
}

/// Every topology config shipped in-repo. CI statically checks each one:
/// primary tables must be fully reachable and loop-free, and the tables
/// after **any** single edge failure must stay loop-free.
pub fn shipped_topologies() -> Vec<BoxTopo> {
    vec![topo_line3(), topo_diamond(), topo_fanin(), topo_nat_gateway(), topo_long_haul()]
}

/// A connected random topology for property tests: `routers` nodes, a
/// random spanning tree (each node links to a random earlier node) plus
/// `extra` random chords, hosts on the first and last routers. Pure
/// function of the inputs.
pub fn topo_random_connected(routers: usize, extra: usize, seed: u64) -> BoxTopo {
    assert!(routers >= 2);
    let mut t = BoxTopo::new("random_connected", routers);
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        // xorshift64* — deterministic, no external RNG dependency.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
    };
    for b in 1..routers {
        let a = next(b);
        t = t.edge(a, b, backbone(1 + next(10) as u64));
    }
    for _ in 0..extra {
        let a = next(routers);
        let b = next(routers);
        if a != b && !t.edges.iter().any(|e| (e.a, e.b) == (a, b) || (e.a, e.b) == (b, a)) {
            t = t.edge(a, b, backbone(1 + next(10) as u64));
        }
    }
    t.host(0, box_host_addr(0)).host(routers - 1, box_host_addr(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::FaultProfile;

    /// Test "transport": frames are `[src u32 BE, dst u32 BE, payload]`.
    fn raw_peek(frame: &[u8]) -> Option<(u32, u32)> {
        if frame.len() < 8 {
            return None;
        }
        let src = u32::from_be_bytes(frame[0..4].try_into().unwrap());
        let dst = u32::from_be_bytes(frame[4..8].try_into().unwrap());
        Some((src, dst))
    }

    fn raw_frame(src: u32, dst: u32, body: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&src.to_be_bytes());
        f.extend_from_slice(&dst.to_be_bytes());
        f.extend_from_slice(body);
        f
    }

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    /// Records everything it hears; transmits whatever is pushed into its
    /// outbox (via [`SimNet::schedule_call`] + [`SimNet::poll_node`]).
    struct Sink {
        got: Vec<Vec<u8>>,
        outbox: Vec<Vec<u8>>,
    }
    impl Sink {
        fn new() -> Sink {
            Sink { got: Vec::new(), outbox: Vec::new() }
        }
    }
    impl Node for Sink {
        fn on_frame(&mut self, _p: PortId, frame: Vec<u8>, _ctx: &mut NodeCtx) {
            self.got.push(frame);
        }
        fn on_timer(&mut self, _t: u64, _c: &mut NodeCtx) {}
        fn poll(&mut self, ctx: &mut NodeCtx) {
            for frame in self.outbox.drain(..) {
                ctx.send(0, frame);
            }
        }
    }

    fn attach_sink(net: &mut SimNet, bn: &BoxNet, site: usize) -> NodeId {
        let id = net.add_node(Box::new(Sink::new()));
        let (router, port) = bn.host_ports[site];
        net.connect(id, 0, router, port, LinkParams::delay_only(Dur::from_millis(1)));
        id
    }

    /// Make `host` (a [`Sink`]) originate `frame` at time `at`.
    fn inject_at(net: &mut SimNet, at: Time, host: NodeId, frame: Vec<u8>) {
        net.schedule_call(at, move |net| {
            net.node_mut::<Sink>(host).outbox.push(frame);
            net.poll_node(host);
        });
    }

    #[test]
    fn every_shipped_topology_passes_the_static_check() {
        for topo in shipped_topologies() {
            let primary = topo.check(&[]);
            assert!(primary.ok(), "{}: primary defects {:?}", topo.name, primary.defects);
            for e in 0..topo.edges.len() {
                let failed = topo.check(&[e]);
                assert!(
                    failed.loop_free(),
                    "{} minus edge {e}: loops {:?}",
                    topo.name,
                    failed.defects
                );
            }
        }
    }

    #[test]
    fn build_rejects_a_disconnected_topology() {
        let topo = BoxTopo::new("broken", 2).host(0, 1).host(1, 2); // no edge
        let r = topo.check(&[]);
        assert!(!r.ok());
        assert!(r.loop_free());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut net = SimNet::new(1);
            topo.build(&mut net, raw_peek);
        }));
        assert!(result.is_err(), "build must refuse an unreachable topology");
    }

    #[test]
    fn frames_cross_a_three_hop_line_both_ways() {
        let mut net = SimNet::new(7);
        let bn = topo_line3().build(&mut net, raw_peek);
        let a = attach_sink(&mut net, &bn, 0);
        let b = attach_sink(&mut net, &bn, 1);
        let (aa, ba) = (box_host_addr(0), box_host_addr(1));
        inject_at(&mut net, t(0), a, raw_frame(aa, ba, b"ping"));
        inject_at(&mut net, t(0), b, raw_frame(ba, aa, b"pong"));
        net.run_until(t(100));
        let got_b = &net.node_mut::<Sink>(b).got;
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0], raw_frame(aa, ba, b"ping"));
        let got_a = &net.node_mut::<Sink>(a).got;
        assert_eq!(got_a.len(), 1);
        assert_eq!(got_a[0], raw_frame(ba, aa, b"pong"));
        assert_eq!(bn.router_stats(&mut net, |s| s.encapped), 2);
        assert_eq!(bn.router_stats(&mut net, |s| s.delivered), 2);
        assert_eq!(bn.router_stats(&mut net, |s| s.dropped_no_route), 0);
    }

    #[test]
    fn unroutable_destination_is_dropped_at_ingress() {
        let mut net = SimNet::new(7);
        let bn = topo_line3().build(&mut net, raw_peek);
        let a = attach_sink(&mut net, &bn, 0);
        inject_at(&mut net, t(0), a, raw_frame(box_host_addr(0), 0xDEAD_BEEF, b"x"));
        net.run_until(t(50));
        assert_eq!(bn.router_stats(&mut net, |s| s.dropped_no_route), 1);
        assert_eq!(bn.router_stats(&mut net, |s| s.encapped), 0);
    }

    #[test]
    fn ttl_kills_a_deliberately_looped_packet() {
        let mut net = SimNet::new(7);
        let bn = topo_line3().build(&mut net, raw_peek);
        let a = attach_sink(&mut net, &bn, 0);
        let _b = attach_sink(&mut net, &bn, 1);
        // Sabotage after build: make routers 0 and 1 bounce site-1 traffic
        // at each other. (build() would have refused these tables.)
        let (r0, r1) = (bn.routers[0], bn.routers[1]);
        let b_addr = box_host_addr(1);
        net.schedule_call(Time::ZERO, move |net| {
            net.node_mut::<StaticRouter>(r0).install_routes(&[(b_addr, 0)]);
            net.node_mut::<StaticRouter>(r1).install_routes(&[(b_addr, 0)]);
        });
        inject_at(&mut net, t(1), a, raw_frame(box_host_addr(0), b_addr, b"loop"));
        net.run_until(t(2000));
        assert_eq!(bn.router_stats(&mut net, |s| s.dropped_ttl), 1);
        assert_eq!(bn.router_stats(&mut net, |s| s.delivered), 0);
        // The packet took exactly ttl-1 inter-router hops before dying.
        assert_eq!(bn.router_stats(&mut net, |s| s.forwarded), BOX_TTL as u64 - 1);
    }

    #[test]
    fn reroute_swaps_the_diamond_onto_its_backup_path() {
        let mut net = SimNet::new(7);
        let bn = topo_diamond().build(&mut net, raw_peek);
        let a = attach_sink(&mut net, &bn, 0);
        let b = attach_sink(&mut net, &bn, 1);
        let (aa, ba) = (box_host_addr(0), box_host_addr(1));
        // Partition the primary's first hop at 50ms; detection takes 20ms.
        bn.schedule_reroute(&mut net, 0, t(50), Dur::from_millis(20));
        inject_at(&mut net, t(0), a, raw_frame(aa, ba, b"before")); // primary path
        net.run_until(t(40));
        assert_eq!(net.node_mut::<Sink>(b).got.len(), 1);
        inject_at(&mut net, t(60), a, raw_frame(aa, ba, b"during")); // link down, tables stale: dropped
        inject_at(&mut net, t(80), a, raw_frame(aa, ba, b"after")); // rerouted via router 2
        net.run_until(t(300));
        let got: Vec<_> = net.node_mut::<Sink>(b).got.clone();
        assert_eq!(got, vec![raw_frame(aa, ba, b"before"), raw_frame(aa, ba, b"after")]);
        // The backup path transits router 2.
        let r2 = bn.routers[2];
        assert_eq!(net.node_mut::<StaticRouter>(r2).stats.forwarded, 1);
    }

    #[test]
    fn route_tables_after_partition_drop_instead_of_looping() {
        // long_haul minus its middle edge: both sides keep loop-free tables
        // with no route across the cut.
        let topo = topo_long_haul();
        let tables = topo.route_tables(&[1]);
        // Router 0 still reaches host 0 (attached to it via access port)
        // but has no entry for host 1.
        assert!(tables[0].iter().any(|&(addr, _)| addr == box_host_addr(0)));
        assert!(!tables[0].iter().any(|&(addr, _)| addr == box_host_addr(1)));
        assert!(topo.check(&[1]).loop_free());
    }

    // -- NAT ----------------------------------------------------------------

    /// NatCodec for the test transport: ports live at bytes 8..10 (src) and
    /// 10..12 (dst); "seq" at 12..16; flag byte at 16 (1 = RST).
    struct RawNat;
    impl NatCodec for RawNat {
        fn tuple(&self, f: &[u8]) -> Option<((u32, u16), (u32, u16))> {
            if f.len() < 17 {
                return None;
            }
            let (src, dst) = raw_peek(f)?;
            let sp = u16::from_be_bytes([f[8], f[9]]);
            let dp = u16::from_be_bytes([f[10], f[11]]);
            Some(((src, sp), (dst, dp)))
        }
        fn rewrite_src(&self, f: &[u8], addr: u32, port: u16) -> Option<Vec<u8>> {
            let mut out = f.to_vec();
            out.get_mut(0..4)?.copy_from_slice(&addr.to_be_bytes());
            out.get_mut(8..10)?.copy_from_slice(&port.to_be_bytes());
            Some(out)
        }
        fn rewrite_dst(&self, f: &[u8], addr: u32, port: u16) -> Option<Vec<u8>> {
            let mut out = f.to_vec();
            out.get_mut(4..8)?.copy_from_slice(&addr.to_be_bytes());
            out.get_mut(10..12)?.copy_from_slice(&port.to_be_bytes());
            Some(out)
        }
        fn shift_seq(&self, f: &[u8], delta: u32) -> Option<Vec<u8>> {
            if f.len() <= 17 {
                return None; // no payload
            }
            let mut out = f.to_vec();
            let seq = u32::from_be_bytes(out[12..16].try_into().unwrap());
            out[12..16].copy_from_slice(&seq.wrapping_add(delta).to_be_bytes());
            Some(out)
        }
        fn forge_rst_reply(&self, f: &[u8]) -> Option<Vec<u8>> {
            let ((sa, sp), (da, dp)) = self.tuple(f)?;
            let mut out = raw_frame(da, sa, &[]);
            out.extend_from_slice(&dp.to_be_bytes());
            out.extend_from_slice(&sp.to_be_bytes());
            out.extend_from_slice(&[0, 0, 0, 0, 1]); // seq 0, RST flag
            Some(out)
        }
    }

    fn nat_frame(src: (u32, u16), dst: (u32, u16), seq: u32, body: &[u8]) -> Vec<u8> {
        let mut f = raw_frame(src.0, dst.0, &[]);
        f.extend_from_slice(&src.1.to_be_bytes());
        f.extend_from_slice(&dst.1.to_be_bytes());
        f.extend_from_slice(&seq.to_be_bytes());
        f.push(0);
        f.extend_from_slice(body);
        f
    }

    /// client(Sink) -- NatBox -- R0 == R1 -- server(Sink), with the NAT's
    /// public address as site 0's routed address.
    fn nat_gateway_net(nat: NatBox) -> (SimNet, BoxNet, NodeId, NodeId, NodeId) {
        let mut net = SimNet::new(3);
        let bn = topo_nat_gateway().build(&mut net, raw_peek);
        let client = net.add_node(Box::new(Sink::new()));
        let nat_id = net.add_node(Box::new(nat));
        let server = attach_sink(&mut net, &bn, 1);
        let access = LinkParams::delay_only(Dur::from_millis(1));
        net.connect(client, 0, nat_id, NAT_INSIDE, access.clone());
        let (router, port) = bn.host_ports[0];
        net.connect(nat_id, NAT_OUTSIDE, router, port, access);
        (net, bn, client, nat_id, server)
    }

    const PRIVATE: u32 = 0xC0A8_0001; // 192.168.0.1, never routed
    const CPORT: u16 = 5000;
    const SPORT: u16 = 80;

    #[test]
    fn nat_translates_both_directions_and_survives_round_trips() {
        let (mut net, _bn, client, nat_id, server) =
            nat_gateway_net(NatBox::new(Box::new(RawNat), box_host_addr(0)));
        let srv = (box_host_addr(1), SPORT);
        inject_at(&mut net, t(0), client, nat_frame((PRIVATE, CPORT), srv, 1, b"req"));
        net.run_until(t(100));
        // Server sees the NAT's public endpoint, not the private one.
        let seen = net.node_mut::<Sink>(server).got.clone();
        assert_eq!(seen.len(), 1);
        let public = (box_host_addr(0), NAT_FIRST_PORT);
        assert_eq!(seen[0], nat_frame(public, srv, 1, b"req"));
        // Reply to the public endpoint arrives back at the client, un-NAT'd.
        inject_at(&mut net, t(100), server, nat_frame(srv, public, 9, b"resp"));
        net.run_until(t(200));
        let back = net.node_mut::<Sink>(client).got.clone();
        assert_eq!(back, vec![nat_frame(srv, (PRIVATE, CPORT), 9, b"resp")]);
        let nat = net.node_mut::<NatBox>(nat_id);
        assert_eq!(nat.stats.mappings_created, 1);
        assert_eq!(nat.stats.translated_out, 1);
        assert_eq!(nat.stats.translated_in, 1);
    }

    #[test]
    fn wiped_table_drops_inbound_and_remaps_outbound_to_a_fresh_port() {
        let (mut net, _bn, client, nat_id, server) =
            nat_gateway_net(NatBox::new(Box::new(RawNat), box_host_addr(0)));
        let srv = (box_host_addr(1), SPORT);
        let public0 = (box_host_addr(0), NAT_FIRST_PORT);
        inject_at(&mut net, t(0), client, nat_frame((PRIVATE, CPORT), srv, 1, b"req"));
        net.run_until(t(50));
        schedule_nat_wipe(&mut net, nat_id, t(60));
        // Inbound to the old mapping after the wipe: dropped.
        inject_at(&mut net, t(70), server, nat_frame(srv, public0, 9, b"late"));
        // Client retransmits: a NEW mapping on the next public port.
        inject_at(&mut net, t(80), client, nat_frame((PRIVATE, CPORT), srv, 1, b"req"));
        net.run_until(t(300));
        assert!(net.node_mut::<Sink>(client).got.is_empty());
        let seen = net.node_mut::<Sink>(server).got.clone();
        let public1 = (box_host_addr(0), NAT_FIRST_PORT + 1);
        assert_eq!(
            seen,
            vec![nat_frame(public0, srv, 1, b"req"), nat_frame(public1, srv, 1, b"req")]
        );
        let nat = net.node_mut::<NatBox>(nat_id);
        assert_eq!(nat.stats.table_wipes, 1);
        assert_eq!(nat.stats.unknown_drops, 1);
        assert_eq!(nat.stats.mappings_created, 2);
    }

    #[test]
    fn rst_on_unknown_forges_a_reset_toward_the_sender() {
        let (mut net, _bn, client, nat_id, server) =
            nat_gateway_net(NatBox::new(Box::new(RawNat), box_host_addr(0)).rst_on_unknown());
        let srv = (box_host_addr(1), SPORT);
        let public = (box_host_addr(0), NAT_FIRST_PORT);
        // Unsolicited inbound: no mapping exists.
        inject_at(&mut net, t(0), server, nat_frame(srv, public, 9, b"spray"));
        net.run_until(t(200));
        assert!(net.node_mut::<Sink>(client).got.is_empty());
        let seen = net.node_mut::<Sink>(server).got.clone();
        assert_eq!(seen.len(), 1, "the forged RST must route back to the sender");
        assert_eq!(seen[0][16], 1, "RST flag set");
        let nat = net.node_mut::<NatBox>(nat_id);
        assert_eq!(nat.stats.rsts_sent, 1);
    }

    #[test]
    fn hostile_mode_shifts_inbound_data_but_not_pure_acks() {
        let (mut net, _bn, client, _nat_id, server) =
            nat_gateway_net(NatBox::new(Box::new(RawNat), box_host_addr(0)).hostile(1000));
        let srv = (box_host_addr(1), SPORT);
        let public = (box_host_addr(0), NAT_FIRST_PORT);
        inject_at(&mut net, t(0), client, nat_frame((PRIVATE, CPORT), srv, 1, b"req"));
        net.run_until(t(50));
        inject_at(&mut net, t(50), server, nat_frame(srv, public, 100, b"data"));
        inject_at(&mut net, t(55), server, nat_frame(srv, public, 100, b"")); // pure ack
        net.run_until(t(300));
        let back = net.node_mut::<Sink>(client).got.clone();
        assert_eq!(
            back,
            vec![
                nat_frame(srv, (PRIVATE, CPORT), 1100, b"data"), // shifted
                nat_frame(srv, (PRIVATE, CPORT), 100, b""),      // untouched
            ]
        );
    }

    // -- deterministic random topologies (proptest rides these in tests/) ---

    #[test]
    fn random_connected_topologies_are_reachable_and_survive_any_failure() {
        for seed in 0..20u64 {
            let routers = 2 + (seed as usize % 7);
            let topo = topo_random_connected(routers, seed as usize % 4, seed * 977 + 1);
            let r = topo.check(&[]);
            assert!(r.ok(), "seed {seed}: {:?}", r.defects);
            for e in 0..topo.edges.len() {
                assert!(topo.check(&[e]).loop_free(), "seed {seed} minus edge {e}");
            }
        }
    }

    #[test]
    fn faulty_backbone_links_are_respected() {
        // A lossy backbone edge drops some frames; just confirm the fault
        // profile plumbs through BoxEdge params.
        let mut topo = topo_line3();
        topo.edges[0].params =
            LinkParams::delay_only(Dur::from_millis(5)).with_fault(FaultProfile::lossy(1.0));
        let mut net = SimNet::new(9);
        let bn = topo.build(&mut net, raw_peek);
        let a = attach_sink(&mut net, &bn, 0);
        let b = attach_sink(&mut net, &bn, 1);
        inject_at(&mut net, t(0), a, raw_frame(box_host_addr(0), box_host_addr(1), b"x"));
        net.run_until(t(100));
        assert!(net.node_mut::<Sink>(b).got.is_empty());
    }

    proptest::proptest! {
        /// Arbitrary connected topologies under random partitions: the
        /// tables never loop (statically, for any 1- or 2-edge failure
        /// set, and dynamically — zero TTL deaths), and after a scripted
        /// partition every live router converges to exactly the tables
        /// [`BoxTopo::route_tables`] computes for that failure. A
        /// post-convergence probe then behaves as the static graph
        /// predicts: delivered iff the hosts are still connected.
        #[test]
        fn prop_random_partitions_never_loop_and_converge(
            routers in 2usize..8,
            extra in 0usize..5,
            seed in 1u64..1_000_000,
            pick in proptest::num::u64::ANY,
        ) {
            let topo = topo_random_connected(routers, extra, seed);
            let n_edges = topo.edges.len();
            let primary = topo.check(&[]);
            proptest::prop_assert!(primary.ok(), "primary defects: {:?}", primary.defects);
            let e1 = (pick as usize) % n_edges;
            let e2 = ((pick >> 20) as usize) % n_edges;
            for failed in [vec![e1], vec![e1, e2]] {
                let r = topo.check(&failed);
                proptest::prop_assert!(
                    r.loop_free(),
                    "failure {:?} loops: {:?}", failed, r.defects
                );
            }

            let want_tables = topo.route_tables(&[e1]);
            // BFS over the surviving edges: are the two host routers
            // still connected once e1 is cut?
            let hosts_connected = {
                let (ra, rb) = (topo.hosts[0].router, topo.hosts[1].router);
                let mut seen = vec![false; topo.routers];
                let mut q = vec![ra];
                seen[ra] = true;
                while let Some(n) = q.pop() {
                    for (i, e) in topo.edges.iter().enumerate() {
                        if i == e1 {
                            continue;
                        }
                        let next = if e.a == n {
                            Some(e.b)
                        } else if e.b == n {
                            Some(e.a)
                        } else {
                            None
                        };
                        if let Some(m) = next {
                            if !seen[m] {
                                seen[m] = true;
                                q.push(m);
                            }
                        }
                    }
                }
                seen[rb]
            };

            let mut net = SimNet::new(seed);
            let bn = topo.clone().build(&mut net, raw_peek);
            let a = attach_sink(&mut net, &bn, 0);
            let b = attach_sink(&mut net, &bn, 1);
            bn.schedule_reroute(&mut net, e1, t(10), Dur::from_millis(5));
            inject_at(&mut net, t(1_000), a, raw_frame(box_host_addr(0), box_host_addr(1), b"probe"));
            net.run_until(t(5_000));

            for (r, want) in bn.routers.iter().zip(&want_tables) {
                let got = net.node_mut::<StaticRouter>(*r).route_snapshot();
                let mut want = want.clone();
                want.sort_unstable();
                proptest::prop_assert_eq!(got, want, "router table did not converge");
            }
            let delivered = !net.node_mut::<Sink>(b).got.is_empty();
            proptest::prop_assert_eq!(delivered, hosts_connected);
            proptest::prop_assert_eq!(
                bn.router_stats(&mut net, |s| s.dropped_ttl), 0, "a frame looped"
            );
        }
    }
}
