//! Capstone integration: the **sublayered TCP running over the sublayered
//! network layer** — TCP packets encapsulated in network-layer data
//! packets, forwarded hop by hop across a multi-router topology built by
//! neighbor determination + route computation, surviving a mid-transfer
//! link failure.
//!
//! The TCP stacks live outside the simulator and are co-simulated: each
//! time slice drains their transmit queues into the attached router
//! (`send_data`) and feeds locally-delivered network packets back in.

use netlayer::{addr_of, build, DistanceVector, DvConfig, LinkState, LsConfig, RouteComputation, Router, Topology};
use netsim::{Dur, HostStack, Stack};
use sublayer_core::{CmState, SlConfig, SlTcpStack};
use slwire::Endpoint;

/// The destination network address of a native sublayered TCP frame; a
/// frame in any other format fails the test.
fn tcp_frame_dst(frame: &[u8]) -> u32 {
    slwire::native::peek(frame).expect("a native TCP frame").1.addr
}

struct Host {
    stack: SlTcpStack,
    router_idx: usize,
}

fn co_simulate(
    topo: &Topology,
    make_rc: &dyn Fn(netlayer::Addr) -> Box<dyn RouteComputation>,
    fail_edge_at: Option<(usize, Dur)>,
) -> (Vec<u8>, Vec<u8>) {
    let mut net = build(topo, 5, Dur::from_millis(2), make_rc);
    net.settle(Dur::from_secs(20)); // let routing converge

    // Host A at router 0, host B at the highest-index router.
    let last = topo.n - 1;
    let addr_a = addr_of(0).0;
    let addr_b = addr_of(last).0;
    let mut a = Host {
        stack: SlTcpStack::new(addr_a, SlConfig::default(), slmetrics::shared()),
        router_idx: 0,
    };
    let mut b = Host {
        stack: SlTcpStack::new(addr_b, SlConfig::default(), slmetrics::shared()),
        router_idx: last,
    };
    b.stack.listen(80);
    let now = net.net.now();
    let conn = a.stack.connect(now, 5000, Endpoint::new(addr_b, 80));

    let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 223) as u8).collect();
    a.stack.send(conn, &payload);

    let mut received = Vec::new();
    let mut failed = false;
    let start = net.net.now();
    for _slice in 0..4000 {
        let now = net.net.now();
        if let Some((edge, after)) = fail_edge_at {
            if !failed && now.since(start) >= after {
                net.fail_edge(edge);
                failed = true;
            }
        }
        // Hosts tick and transmit into their routers.
        for host in [&mut a, &mut b] {
            host.stack.on_tick(now);
            while let Some(frame) = host.stack.poll_transmit(now) {
                let dst = netlayer::Addr(tcp_frame_dst(&frame));
                net.router(host.router_idx).send_data(dst, frame);
            }
            let idx = host.router_idx;
            let node = net.nodes[idx];
            net.net.poll_node(node);
        }
        // Advance simulated time.
        net.settle(Dur::from_millis(10));
        // Deliver network packets up into the host stacks.
        let now = net.net.now();
        for host in [&mut a, &mut b] {
            let idx = host.router_idx;
            for pkt in net.router(idx).take_inbox() {
                host.stack.on_frame(now, &pkt.payload);
            }
        }
        received.extend(b.stack.established().first().copied().map(|c| b.stack.recv(c)).unwrap_or_default());
        if received.len() >= payload.len() {
            break;
        }
    }
    (payload, received)
}

#[test]
fn sublayered_tcp_over_dv_routed_grid() {
    let topo = Topology::grid(3, 2);
    let (sent, got) = co_simulate(
        &topo,
        &|a| Box::new(DistanceVector::new(a, DvConfig::default())),
        None,
    );
    assert_eq!(got, sent);
}

#[test]
fn sublayered_tcp_over_ls_routed_grid() {
    let topo = Topology::grid(3, 2);
    let (sent, got) = co_simulate(
        &topo,
        &|a| Box::new(LinkState::new(a, LsConfig::default())),
        None,
    );
    assert_eq!(got, sent);
}

#[test]
fn transfer_survives_mid_stream_link_failure() {
    // Ring: failing one edge leaves an alternate path; TCP retransmission
    // bridges the reconvergence gap.
    let topo = Topology::ring(5);
    let (sent, got) = co_simulate(
        &topo,
        &|a| Box::new(LinkState::new(a, LsConfig::default())),
        Some((0, Dur::from_millis(300))),
    );
    assert_eq!(got, sent, "transfer must complete over the repaired path");
}

#[test]
fn handshake_state_visible_through_the_stack() {
    // Sanity: the co-simulation really did run CM's handshake.
    let topo = Topology::line(2);
    let mut net = build(&topo, 9, Dur::from_millis(2), &|a| {
        Box::new(DistanceVector::new(a, DvConfig::default()))
    });
    net.settle(Dur::from_secs(10));
    let addr_b = addr_of(1).0;
    let mut a = SlTcpStack::new(addr_of(0).0, SlConfig::default(), slmetrics::shared());
    let mut b = SlTcpStack::new(addr_b, SlConfig::default(), slmetrics::shared());
    b.listen(80);
    let now = net.net.now();
    let conn = a.connect(now, 5000, Endpoint::new(addr_b, 80));
    for _ in 0..200 {
        let now = net.net.now();
        a.on_tick(now);
        b.on_tick(now);
        while let Some(f) = a.poll_transmit(now) {
            net.router(0).send_data(netlayer::Addr(tcp_frame_dst(&f)), f);
        }
        while let Some(f) = b.poll_transmit(now) {
            net.router(1).send_data(netlayer::Addr(tcp_frame_dst(&f)), f);
        }
        let n0 = net.nodes[0];
        let n1 = net.nodes[1];
        net.net.poll_node(n0);
        net.net.poll_node(n1);
        net.settle(Dur::from_millis(10));
        let now = net.net.now();
        for pkt in net.router(0).take_inbox() {
            a.on_frame(now, &pkt.payload);
        }
        for pkt in net.router(1).take_inbox() {
            b.on_frame(now, &pkt.payload);
        }
        if a.state(conn) == CmState::Established && !b.established().is_empty() {
            return;
        }
    }
    panic!("handshake did not complete across the routed network");
}

// Re-export used only to reference Router in signatures above.
#[allow(unused)]
fn _type_check(r: &mut Router) {
    let _ = r.addr();
}
