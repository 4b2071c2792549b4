//! Static verification of forwarding tables: reachability and
//! loop-freedom, checked *before* any traffic runs.
//!
//! StacKAT (PAPERS.md) shows that data-plane properties of a network —
//! which packets reach which nodes, and whether any forwarding cycle
//! exists — are decidable questions about the forwarding tables alone, no
//! packet simulation required. This module is the workspace's small-scale
//! version of that idea: a [`ForwardSpec`] abstracts a topology (adjacency
//! via ports) plus every node's static route table, and [`check_forwarding`]
//! walks the induced forwarding function for **every** (source,
//! destination) pair, exhaustively. Because forwarding here is
//! deterministic (one next hop per destination), each walk either reaches
//! the destination, falls off a missing route/disconnected port, or
//! revisits a node — so the check is sound and complete for the spec.
//!
//! The multi-hop topology layer ([`crate::boxnet`]) refuses to build a
//! network whose primary or post-failure tables fail this check, which is
//! what makes "no frame is ever forwarded in a loop" a *precondition* of
//! every campaign rather than a hoped-for observation. It lives beside the
//! forwarding sublayer it checks and needs nothing but `std`, so the
//! network layer links no transport crate to check its own tables.

use std::fmt;

/// An abstract forwarding plane: `n` nodes, point-to-point ports, and one
/// static route table per node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForwardSpec {
    /// Number of nodes; destinations and sources are node indices.
    pub n: usize,
    /// `ports[node][port] = Some(peer)` when that port is cabled to
    /// `peer`; `None` for unused (or administratively failed) ports.
    pub ports: Vec<Vec<Option<usize>>>,
    /// `routes[node][dst] = Some(port)` — the port `node` forwards
    /// traffic for `dst` out of; `None` = no route. `routes[node][node]`
    /// is ignored (local delivery).
    pub routes: Vec<Vec<Option<usize>>>,
}

/// One defect found by [`check_forwarding`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForwardDefect {
    /// Following the tables from `src` toward `dst` revisited `at` — a
    /// forwarding loop that would spin a packet until TTL death.
    Loop { src: usize, dst: usize, at: usize },
    /// `node` has no route toward `dst` (packet would be dropped).
    NoRoute { node: usize, dst: usize },
    /// `node`'s route for `dst` points at a port with no live peer.
    DeadPort { node: usize, dst: usize, port: usize },
    /// The walk exceeded `ttl` hops without looping — tables longer than
    /// any simple path, which deterministic static routes should never be.
    TtlExceeded { src: usize, dst: usize },
}

impl fmt::Display for ForwardDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForwardDefect::Loop { src, dst, at } => {
                write!(f, "loop at node {at} forwarding {src}->{dst}")
            }
            ForwardDefect::NoRoute { node, dst } => {
                write!(f, "node {node} has no route to {dst}")
            }
            ForwardDefect::DeadPort { node, dst, port } => {
                write!(f, "node {node} routes {dst} out dead port {port}")
            }
            ForwardDefect::TtlExceeded { src, dst } => {
                write!(f, "path {src}->{dst} exceeds ttl without looping")
            }
        }
    }
}

/// Result of a full-pair forwarding check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ForwardReport {
    /// Ordered (src, dst) pairs that reach their destination.
    pub reachable: usize,
    /// Total ordered pairs checked (`n * (n - 1)`).
    pub pairs: usize,
    /// Every defect found, in deterministic (src-major) order.
    pub defects: Vec<ForwardDefect>,
    /// Longest delivered path, in hops.
    pub max_hops: usize,
}

impl ForwardReport {
    /// Full reachability and not a single loop/dead port.
    pub fn ok(&self) -> bool {
        self.defects.is_empty() && self.reachable == self.pairs
    }

    /// No forwarding cycle exists, even if some pairs are unreachable.
    /// This is the bar for *post-failure* tables: a partitioned network
    /// legitimately drops cross-partition traffic ([`ForwardDefect::NoRoute`]
    /// or [`ForwardDefect::DeadPort`]), but must never spin it.
    pub fn loop_free(&self) -> bool {
        !self.defects.iter().any(|d| {
            matches!(d, ForwardDefect::Loop { .. } | ForwardDefect::TtlExceeded { .. })
        })
    }
}

/// Walk every ordered (src, dst) pair through the tables. `ttl` bounds
/// each walk (use the data plane's TTL so "verified" means "deliverable
/// on the real fabric"); loops are reported as [`ForwardDefect::Loop`]
/// regardless of TTL because a revisit is detected exactly.
pub fn check_forwarding(spec: &ForwardSpec, ttl: usize) -> ForwardReport {
    let dsts: Vec<usize> = (0..spec.n).collect();
    check_forwarding_to(spec, &dsts, ttl)
}

/// Like [`check_forwarding`], but only walks toward the given destination
/// nodes (every node is still exercised as a source/transit). A topology
/// with transit-only routers and host edge nodes checks exactly the
/// destinations traffic can actually terminate at.
pub fn check_forwarding_to(spec: &ForwardSpec, dsts: &[usize], ttl: usize) -> ForwardReport {
    assert_eq!(spec.ports.len(), spec.n, "ports table must cover every node");
    assert_eq!(spec.routes.len(), spec.n, "route table must cover every node");
    let mut report = ForwardReport {
        pairs: dsts.len().saturating_mul(spec.n.saturating_sub(1)),
        ..Default::default()
    };
    let mut visited = vec![usize::MAX; spec.n];
    for src in 0..spec.n {
        for &dst in dsts {
            if src == dst {
                continue;
            }
            let walk_tag = src * spec.n + dst;
            let mut at = src;
            let mut hops = 0usize;
            loop {
                if at == dst {
                    report.reachable += 1;
                    report.max_hops = report.max_hops.max(hops);
                    break;
                }
                if visited[at] == walk_tag {
                    report.defects.push(ForwardDefect::Loop { src, dst, at });
                    break;
                }
                visited[at] = walk_tag;
                if hops >= ttl {
                    report.defects.push(ForwardDefect::TtlExceeded { src, dst });
                    break;
                }
                let Some(port) = spec.routes[at].get(dst).copied().flatten() else {
                    report.defects.push(ForwardDefect::NoRoute { node: at, dst });
                    break;
                };
                let Some(peer) = spec.ports[at].get(port).copied().flatten() else {
                    report.defects.push(ForwardDefect::DeadPort { node: at, dst, port });
                    break;
                };
                at = peer;
                hops += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line 0-1-2 with correct shortest-path tables.
    fn line3() -> ForwardSpec {
        ForwardSpec {
            n: 3,
            // node 0: port 0 -> 1; node 1: port 0 -> 0, port 1 -> 2; node 2: port 0 -> 1
            ports: vec![vec![Some(1)], vec![Some(0), Some(2)], vec![Some(1)]],
            routes: vec![
                vec![None, Some(0), Some(0)],
                vec![Some(0), None, Some(1)],
                vec![Some(0), Some(0), None],
            ],
        }
    }

    #[test]
    fn correct_line_is_fully_reachable_and_loop_free() {
        let r = check_forwarding(&line3(), 64);
        assert!(r.ok(), "defects: {:?}", r.defects);
        assert_eq!(r.reachable, 6);
        assert_eq!(r.max_hops, 2);
    }

    #[test]
    fn two_node_ping_pong_is_reported_as_a_loop() {
        let mut spec = line3();
        // Node 1 bounces traffic for 2 back toward 0: 0->1->0->1... loop.
        spec.routes[1][2] = Some(0);
        let r = check_forwarding(&spec, 64);
        assert!(!r.ok());
        assert!(r
            .defects
            .iter()
            .any(|d| matches!(d, ForwardDefect::Loop { src: 0, dst: 2, .. })));
    }

    #[test]
    fn missing_route_is_reported_not_looped() {
        let mut spec = line3();
        spec.routes[1][2] = None;
        let r = check_forwarding(&spec, 64);
        assert!(r.defects.contains(&ForwardDefect::NoRoute { node: 1, dst: 2 }));
        // Both pairs through the hole break (0->2 transits node 1); the
        // remaining four still deliver.
        assert_eq!(r.reachable, 4);
    }

    #[test]
    fn failed_port_is_a_dead_port_defect() {
        let mut spec = line3();
        spec.ports[1][1] = None; // link 1-2 failed, tables not yet rerouted
        let r = check_forwarding(&spec, 64);
        assert!(r
            .defects
            .contains(&ForwardDefect::DeadPort { node: 1, dst: 2, port: 1 }));
    }

    #[test]
    fn loop_free_tolerates_drops_but_not_cycles() {
        let mut dead = line3();
        dead.ports[1][1] = None;
        assert!(check_forwarding(&dead, 64).loop_free());

        let mut looped = line3();
        looped.routes[1][2] = Some(0);
        assert!(!check_forwarding(&looped, 64).loop_free());
    }

    #[test]
    fn restricted_destinations_skip_transit_nodes() {
        // Only node 2 terminates traffic: 2 sources x 1 dst.
        let r = check_forwarding_to(&line3(), &[2], 64);
        assert_eq!(r.pairs, 2);
        assert_eq!(r.reachable, 2);
        assert!(r.ok());
    }

    #[test]
    fn ttl_bound_is_enforced() {
        let r = check_forwarding(&line3(), 1);
        assert!(r
            .defects
            .iter()
            .any(|d| matches!(d, ForwardDefect::TtlExceeded { .. })));
    }
}
