//! E2 — network-layer sublayering (§2.2, Figures 3/4): swapping route
//! computation (distance vector <-> link state) under unchanged
//! forwarding, and reconvergence after a link failure.

use netlayer::{build, DistanceVector, DvConfig, LinkState, LsConfig, RouteComputation, Topology};
use netsim::Dur;

use crate::{json, Report, Table};

type Engine = fn(netlayer::Addr) -> Box<dyn RouteComputation>;

const ENGINES: [(&str, Engine); 2] = [
    ("distance vector", |a| Box::new(DistanceVector::new(a, DvConfig::default()))),
    ("link state", |a| Box::new(LinkState::new(a, LsConfig::default()))),
];

/// One engine on one random topology: probes matching the BFS shortest
/// path, and the control plane's cost.
struct Equivalence {
    seed: u64,
    engine: &'static str,
    probes: u64,
    matches: u64,
    pdus: u64,
}

fn equivalence(seed: u64, engine: &'static str, mk: Engine) -> Equivalence {
    let topo = Topology::random_connected(8, 4, seed);
    let mut net = build(&topo, seed, Dur::from_millis(1), &mk);
    net.settle(Dur::from_secs(25));
    let (mut probes, mut matches) = (0, 0);
    for src in 0..topo.n {
        let truth = topo.bfs_hops(src);
        for (dst, &hops) in truth.iter().enumerate() {
            if src != dst {
                probes += 1;
                matches += (net.probe(src, dst) == hops) as u64;
            }
        }
    }
    let pdus = (0..topo.n).map(|i| net.router(i).rc().stats().pdus_sent).sum();
    Equivalence { seed, engine, probes, matches, pdus }
}

/// One engine on a ring of 5: hops 0 -> 1 before edge 0-1 fails, and the
/// second (at 1 s steps, up to 40) by which 0 -> 1 takes the 4-hop path.
struct Reconvergence {
    engine: &'static str,
    before: Option<u32>,
    recovered_after: Option<u64>,
}

fn reconvergence(engine: &'static str, mk: Engine) -> Reconvergence {
    let topo = Topology::ring(5);
    let mut net = build(&topo, 7, Dur::from_millis(1), &mk);
    net.settle(Dur::from_secs(15));
    let before = net.probe(0, 1);
    net.fail_edge(0);
    let recovered_after = (1..=40u64).find(|_| {
        net.settle(Dur::from_secs(1));
        net.probe(0, 1) == Some(4)
    });
    Reconvergence { engine, before, recovered_after }
}

fn opt(v: Option<impl ToString>) -> String {
    v.map_or("null".into(), |v| v.to_string())
}

pub fn report(smoke: bool) -> Report {
    let seeds: &[u64] = if smoke { &[11] } else { &[11, 12, 13] };
    let eq: Vec<Equivalence> =
        seeds.iter().flat_map(|&seed| ENGINES.map(|(name, mk)| equivalence(seed, name, mk))).collect();
    let rc: Vec<Reconvergence> = ENGINES.map(|(name, mk)| reconvergence(name, mk)).into();

    // The claims: both engines forward every probe along a BFS shortest
    // path, both reconverge around the failure, and link state floods
    // more PDUs than distance vector on these small topologies.
    let mut violations = Vec::new();
    for e in eq.iter().filter(|e| e.matches != e.probes) {
        violations.push(format!("[seed {} {}] {}/{} probes match BFS", e.seed, e.engine, e.matches, e.probes));
    }
    for pair in eq.chunks(2) {
        let (dv, ls) = (&pair[0], &pair[1]);
        if ls.pdus <= dv.pdus {
            let (seed, ls, dv) = (dv.seed, ls.pdus, dv.pdus);
            violations.push(format!("[seed {seed}] link state sent {ls} PDUs, distance vector {dv}"));
        }
    }
    for r in rc.iter().filter(|r| r.before != Some(1) || r.recovered_after.is_none()) {
        let (before, after) = (r.before, r.recovered_after);
        violations.push(format!("[{}] hops before {before:?}, reconverged after {after:?} s", r.engine));
    }

    let n = |v: u64| v.to_string();
    let sections = [
        ("equivalence", eq.iter().map(|e| json::obj(&[
            ("seed", n(e.seed)), ("engine", json::str(e.engine)), ("probes", n(e.probes)),
            ("matching_bfs", n(e.matches)), ("pdus", n(e.pdus)),
        ])).collect()),
        ("reconvergence", rc.iter().map(|r| json::obj(&[
            ("engine", json::str(r.engine)), ("hops_before", opt(r.before)), ("reconverged_s", opt(r.recovered_after)),
        ])).collect()),
    ];
    Report::checked(
        &sections,
        vec![
            Table::new(
                "Forwarding equivalence on random topologies",
                vec!["topology", "route computation", "probes matching BFS truth", "routing PDUs sent"],
                eq.iter()
                    .map(|e| {
                        let topo = format!("random(n=8,+4) seed {}", e.seed);
                        vec![topo, e.engine.into(), format!("{}/{}", e.matches, e.probes), n(e.pdus)]
                    })
                    .collect(),
            ),
            Table::new(
                "Reconvergence after link failure (ring of 5, fail edge 0-1)",
                vec!["route computation", "hops before failure", "reconverged (4-hop path)"],
                rc.iter()
                    .map(|r| {
                        let after = r.recovered_after.map_or("never".into(), |s| format!("<= {s} s"));
                        vec![r.engine.into(), format!("{:?}", r.before), after]
                    })
                    .collect(),
            ),
        ],
        violations,
    )
}
