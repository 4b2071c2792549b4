//! End-to-end tests for the monolithic stack over the simulator.

use crate::pcb::TcpState;
use crate::stack::TcpStack;
use crate::wire::{Endpoint, FourTuple};
use netsim::{
    two_party, Dur, FaultProfile, HostStack, Keepalive, LinkParams, SimNet, StackNode, Time,
    TransportError,
};

pub const A: u32 = 0x0A000001;
pub const B: u32 = 0x0A000002;

/// Build a client/server pair with the given link, connect, and return
/// `(net, client_node, server_node, client_conn)`.
pub fn pair(
    seed: u64,
    params: LinkParams,
) -> (SimNet, usize, usize, FourTuple) {
    let mut client = TcpStack::new(A, slmetrics::shared());
    let mut server = TcpStack::new(B, slmetrics::shared());
    server.listen(80);
    let conn = client.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
    let (mut net, nc, ns) = two_party(seed, client, server, params);
    net.poll_all();
    (net, nc, ns, conn)
}

pub fn client(net: &mut SimNet, id: usize) -> &mut TcpStack {
    &mut net.node_mut::<StackNode<TcpStack>>(id).stack
}

/// Drive the pair until the server sees an established connection or the
/// deadline passes.
pub fn run_for(net: &mut SimNet, d: Dur) {
    let deadline = net.now() + d;
    net.run_until(deadline);
}

#[test]
fn three_way_handshake() {
    let (mut net, nc, ns, conn) = pair(1, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Established);
    let server_conns = client(&mut net, ns).established();
    assert_eq!(server_conns.len(), 1);
    assert_eq!(server_conns[0].local.port, 80);
}

#[test]
fn unidirectional_transfer_clean_link() {
    let (mut net, nc, ns, conn) = pair(2, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
    client(&mut net, nc).send(conn, &data);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(30));
    let sconn = client(&mut net, ns).established()[0];
    let got = client(&mut net, ns).recv(sconn);
    assert_eq!(got.len(), data.len());
    assert_eq!(got, data);
}

#[test]
fn transfer_over_lossy_link() {
    for seed in [3, 4, 5] {
        let params = LinkParams::delay_only(Dur::from_millis(5))
            .with_fault(FaultProfile::lossy(0.1));
        let (mut net, nc, ns, conn) = pair(seed, params);
        run_for(&mut net, Dur::from_secs(3));
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        client(&mut net, nc).send(conn, &data);
        net.poll_all();
        // Drain periodically so the window keeps opening.
        let mut got = Vec::new();
        for _ in 0..120 {
            run_for(&mut net, Dur::from_secs(1));
            if let Some(&sconn) = client(&mut net, ns).established().first() {
                got.extend(client(&mut net, ns).recv(sconn));
            }
            if got.len() >= data.len() {
                break;
            }
        }
        assert_eq!(got, data, "seed {seed}");
    }
}

#[test]
fn transfer_with_reordering_and_duplication() {
    let params = LinkParams::delay_only(Dur::from_millis(5)).with_fault(
        FaultProfile::none()
            .with_duplicate(0.1)
            .with_reorder(0.2, Dur::from_millis(15)),
    );
    let (mut net, nc, ns, conn) = pair(6, params);
    run_for(&mut net, Dur::from_secs(2));
    let data: Vec<u8> = (0..30_000u32).map(|i| (i % 239) as u8).collect();
    client(&mut net, nc).send(conn, &data);
    net.poll_all();
    let mut got = Vec::new();
    for _ in 0..60 {
        run_for(&mut net, Dur::from_secs(1));
        if let Some(&sconn) = client(&mut net, ns).established().first() {
            got.extend(client(&mut net, ns).recv(sconn));
        }
        if got.len() >= data.len() {
            break;
        }
    }
    assert_eq!(got, data);
}

#[test]
fn corrupted_segments_are_dropped_and_recovered() {
    let params = LinkParams::delay_only(Dur::from_millis(5))
        .with_fault(FaultProfile::none().with_corrupt(0.05));
    let (mut net, nc, ns, conn) = pair(7, params);
    run_for(&mut net, Dur::from_secs(3));
    let data: Vec<u8> = (0..10_000u32).map(|i| (i % 233) as u8).collect();
    client(&mut net, nc).send(conn, &data);
    net.poll_all();
    let mut got = Vec::new();
    for _ in 0..90 {
        run_for(&mut net, Dur::from_secs(1));
        if let Some(&sconn) = client(&mut net, ns).established().first() {
            got.extend(client(&mut net, ns).recv(sconn));
        }
        if got.len() >= data.len() {
            break;
        }
    }
    assert_eq!(got, data);
    let bad = client(&mut net, nc).stats.bad_segments
        + client(&mut net, ns).stats.bad_segments;
    assert!(bad > 0, "checksum should have rejected corrupt segments");
}

#[test]
fn bidirectional_transfer() {
    let (mut net, nc, ns, conn) = pair(8, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let up: Vec<u8> = (0..9_000u32).map(|i| (i % 13) as u8).collect();
    let down: Vec<u8> = (0..7_000u32).map(|i| (i % 17) as u8).collect();
    client(&mut net, nc).send(conn, &up);
    let sconn = client(&mut net, ns).established()[0];
    client(&mut net, ns).send(sconn, &down);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(20));
    assert_eq!(client(&mut net, ns).recv(sconn), up);
    assert_eq!(client(&mut net, nc).recv(conn), down);
}

#[test]
fn graceful_close_reaches_time_wait_and_closed() {
    let (mut net, nc, ns, conn) = pair(9, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    client(&mut net, nc).send(conn, b"bye");
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    let sconn = client(&mut net, ns).established()[0];
    // Active close from the client.
    client(&mut net, nc).close(conn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(client(&mut net, ns).state(sconn), TcpState::CloseWait);
    // Server reads remaining data and closes too.
    assert_eq!(client(&mut net, ns).recv(sconn), b"bye");
    client(&mut net, ns).close(sconn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    // Client is in TIME_WAIT; server side fully closed.
    assert_eq!(client(&mut net, nc).state(conn), TcpState::TimeWait);
    assert_eq!(client(&mut net, ns).state(sconn), TcpState::Closed);
    // After 2MSL the client PCB disappears.
    run_for(&mut net, Dur::from_secs(15));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Closed);
    assert_eq!(client(&mut net, nc).conn_count(), 0);
}

#[test]
fn close_wait_reads_established_with_peer_closed() {
    // Parity tie-break (`HostStack::is_established`): CLOSE_WAIT is the
    // sublayered stack's Established + `peer_closed` — synchronized, and
    // the application may still send.
    let (mut net, nc, ns, conn) = pair(9, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let sconn = client(&mut net, ns).established()[0];
    client(&mut net, nc).close(conn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(client(&mut net, ns).state(sconn), TcpState::CloseWait);
    assert!(client(&mut net, ns).is_established(sconn));
    assert!(client(&mut net, ns).peer_closed(sconn));
    assert_eq!(client(&mut net, ns).send(sconn, b"still open"), 10);
}

#[test]
fn connect_to_closed_port_is_refused() {
    let mut client_stack = TcpStack::new(A, slmetrics::shared());
    let server = TcpStack::new(B, slmetrics::shared());
    // No listener on port 81.
    let conn = client_stack.connect(Time::ZERO, 5000, Endpoint::new(B, 81));
    let (mut net, nc, _ns) = two_party(
        10,
        client_stack,
        server,
        LinkParams::delay_only(Dur::from_millis(5)),
    );
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Closed);
    assert_eq!(client(&mut net, nc).stats.conns_reset, 1);
}

#[test]
fn fast_retransmit_fires_under_single_loss() {
    // Moderate loss on a fat pipe: dupacks should trigger fast retransmit
    // at least once across the transfer.
    let params = LinkParams::delay_only(Dur::from_millis(10))
        .with_fault(FaultProfile::lossy(0.03));
    let (mut net, nc, ns, conn) = pair(11, params);
    run_for(&mut net, Dur::from_secs(3));
    let data = vec![7u8; 120_000];
    client(&mut net, nc).send(conn, &data);
    net.poll_all();
    let mut got = Vec::new();
    for _ in 0..120 {
        run_for(&mut net, Dur::from_secs(1));
        if let Some(&sconn) = client(&mut net, ns).established().first() {
            got.extend(client(&mut net, ns).recv(sconn));
        }
        if got.len() >= data.len() {
            break;
        }
    }
    assert_eq!(got.len(), data.len());
    assert!(
        client(&mut net, nc).stats.fast_retransmits > 0,
        "expected at least one fast retransmit"
    );
}

#[test]
fn cc_is_swappable_and_validated_at_construction() {
    let s = TcpStack::with_cc(A, "cubic", slmetrics::shared()).expect("cubic ships");
    assert_eq!(s.cc_name(), "cubic");
    let err = TcpStack::with_cc(A, "vegas", slmetrics::shared())
        .err()
        .expect("unknown controller must be a typed error, not a panic");
    assert!(err.to_string().contains("vegas"), "{err}");
}

#[test]
fn cc_counters_observe_loss_recovery() {
    // Same lossy setup as `fast_retransmit_fires_under_single_loss`; the
    // per-connection CC counters must show the episodes the stats counted.
    let params = LinkParams::delay_only(Dur::from_millis(10))
        .with_fault(FaultProfile::lossy(0.03));
    let (mut net, nc, ns, conn) = pair(11, params);
    run_for(&mut net, Dur::from_secs(3));
    let data = vec![7u8; 120_000];
    client(&mut net, nc).send(conn, &data);
    net.poll_all();
    let mut got = Vec::new();
    for _ in 0..120 {
        run_for(&mut net, Dur::from_secs(1));
        if let Some(&sconn) = client(&mut net, ns).established().first() {
            got.extend(client(&mut net, ns).recv(sconn));
        }
        if got.len() >= data.len() {
            break;
        }
    }
    assert_eq!(got.len(), data.len());
    let cc = client(&mut net, nc).conn_cc(conn).expect("live connection");
    assert!(cc.samples > 0, "{cc:?}");
    assert!(cc.cwnd_peak >= cc.cwnd_last, "{cc:?}");
    assert!(cc.dupack_losses + cc.rto_resets > 0, "3% loss must show up: {cc:?}");
    if cc.dupack_losses > 0 {
        assert!(cc.fast_recoveries > 0, "dupack loss opens an episode: {cc:?}");
    }
}

#[test]
fn frto_classifies_bufferbloat_timeout_as_spurious() {
    // Three flows slow-starting into one lossless 2 Mbps bottleneck: the
    // shared serialization queue inflates the RTT past the estimator's
    // RTO, so timeouts fire with nothing lost. F-RTO must recognize the
    // spurious timeout from ack progress and cancel the go-back-N
    // replay — the failure mode is a self-sustaining duplicate storm in
    // which every replayed segment draws dup acks that open fresh
    // "loss" episodes and collapse goodput.
    use netlayer::{box_host_addr, topo_fanin};
    let mut net = SimNet::new(1);
    let bn = topo_fanin()
        .build(&mut net, |f| slwire::rfc793::peek(f).map(|(src, dst)| (src.addr, dst.addr)));
    let saddr = box_host_addr(3);
    let mut server = TcpStack::new(saddr, slmetrics::shared());
    server.listen(80);
    let mut clients = Vec::new();
    for i in 0..3usize {
        let mut c = TcpStack::new(box_host_addr(i), slmetrics::shared());
        let conn = c.connect(Time::ZERO, 5000 + i as u16, Endpoint::new(saddr, 80));
        let id = net.add_node(Box::new(StackNode::new(c)));
        let (router, port) = bn.host_ports[i];
        net.connect(id, 0, router, port, LinkParams::delay_only(Dur::from_millis(1)));
        clients.push((id, conn));
    }
    let ns = {
        let id = net.add_node(Box::new(StackNode::new(server)));
        let (router, port) = bn.host_ports[3];
        net.connect(id, 0, router, port, LinkParams::delay_only(Dur::from_millis(1)));
        id
    };
    net.poll_all();
    let data = vec![9u8; 400_000];
    let mut sent = [0usize; 3];
    let mut got = 0usize;
    let end = Time::ZERO + Dur::from_secs(5);
    while net.now() < end {
        run_for(&mut net, Dur::from_millis(50));
        for (i, &(id, conn)) in clients.iter().enumerate() {
            if sent[i] < data.len() {
                sent[i] += client(&mut net, id).send(conn, &data[sent[i]..]);
            }
        }
        let sv = client(&mut net, ns);
        for sconn in sv.established() {
            got += sv.recv(sconn).len();
        }
        net.poll_all();
    }
    let mut spurious = 0;
    let mut dupack_losses = 0;
    for &(id, conn) in &clients {
        let c = client(&mut net, id);
        assert!(c.conn_error(conn).is_none(), "no abort on a lossless net");
        spurious += c.stats.spurious_rtos;
        dupack_losses += c.conn_cc(conn).expect("live").dupack_losses;
    }
    assert!(spurious > 0, "competing slow-starts must outrun the RTO estimator");
    assert_eq!(dupack_losses, 0, "no real loss, so no dup-ack episode may open");
    // 5 s at 2 Mbps carries 1.25 MB; the duplicate-storm collapse this
    // pins delivered well under half of that.
    assert!(got > 875_000, "goodput collapsed: {got} bytes in 5s");
}

#[test]
fn syn_retransmission_survives_lost_handshake() {
    // Drop the first several frames deterministically via heavy loss, then
    // heal the link: the handshake must still complete thanks to SYN
    // retransmission.
    let params =
        LinkParams::delay_only(Dur::from_millis(5)).with_fault(FaultProfile::lossy(1.0));
    let (mut net, nc, _ns, conn) = pair(12, params);
    run_for(&mut net, Dur::from_secs(2)); // SYNs all lost
    assert_eq!(client(&mut net, nc).state(conn), TcpState::SynSent);
    net.heal_link(0);
    run_for(&mut net, Dur::from_secs(10));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Established);
}

#[test]
fn zero_window_is_respected_then_probed() {
    let (mut net, nc, ns, conn) = pair(13, LinkParams::delay_only(Dur::from_millis(2)));
    run_for(&mut net, Dur::from_secs(1));
    // Fill the receiver's buffer completely (server app never reads).
    let data = vec![1u8; 80_000];
    client(&mut net, nc).send(conn, &data);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(30));
    let sconn = client(&mut net, ns).established()[0];
    // Receiver holds roughly its buffer capacity; sender still has bytes.
    let held = client(&mut net, ns).recv(sconn).len();
    assert!(held >= 60_000, "receiver should have buffered near capacity, got {held}");
    // After the app read, the window reopens and the rest flows.
    net.poll_all();
    run_for(&mut net, Dur::from_secs(30));
    let rest = client(&mut net, ns).recv(sconn);
    assert_eq!(held + rest.len(), data.len());
}

#[test]
fn two_connections_multiplex_on_one_host_pair() {
    let mut c = TcpStack::new(A, slmetrics::shared());
    let mut s = TcpStack::new(B, slmetrics::shared());
    s.listen(80);
    s.listen(443);
    let c1 = c.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
    let c2 = c.connect(Time::ZERO, 5001, Endpoint::new(B, 443));
    let (mut net, nc, ns) = two_party(14, c, s, LinkParams::delay_only(Dur::from_millis(3)));
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    client(&mut net, nc).send(c1, b"alpha");
    client(&mut net, nc).send(c2, b"beta");
    net.poll_all();
    run_for(&mut net, Dur::from_secs(3));
    let sconns = client(&mut net, ns).established();
    assert_eq!(sconns.len(), 2);
    let mut by_port: Vec<(u16, Vec<u8>)> = sconns
        .iter()
        .map(|&t| (t.local.port, client(&mut net, ns).recv(t)))
        .collect();
    by_port.sort();
    assert_eq!(by_port, vec![(80, b"alpha".to_vec()), (443, b"beta".to_vec())]);
}

#[test]
fn entanglement_log_shows_shared_pcb_fields() {
    // The monolithic design's signature: multiple subfunctions touch the
    // same fields.
    let log = slmetrics::shared();
    let mut c = TcpStack::new(A, log.clone());
    let mut s = TcpStack::new(B, slmetrics::shared());
    s.listen(80);
    let conn = c.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
    let (mut net, nc, _) = two_party(15, c, s, LinkParams::delay_only(Dur::from_millis(3)));
    net.poll_all();
    run_for(&mut net, Dur::from_secs(1));
    client(&mut net, nc).send(conn, &vec![0u8; 30_000]);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(10));
    let m = slmetrics::InteractionMatrix::from_log(&log.borrow());
    assert!(
        m.entanglement_score() > 0,
        "monolithic TCP must show cross-subfunction state sharing"
    );
    assert!(
        m.interacting_pairs() >= 3,
        "several subfunction pairs interact: {:?}",
        m.pair_shared
    );
}

#[test]
fn rto_backoff_on_dead_link() {
    let (mut net, nc, _ns, conn) = pair(16, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    // Establish, then kill the link and send.
    net.fail_link(0);
    client(&mut net, nc).send(conn, b"into the void");
    net.poll_all();
    // RTO backs off 1s,2s,4s,...,60s; exhausting MAX_RETRIES takes ~6 min.
    run_for(&mut net, Dur::from_secs(600));
    let st = client(&mut net, nc).stats.clone();
    assert!(st.rto_retransmits >= 3, "expected repeated RTO firing, got {st:?}");
    // Eventually the connection gives up.
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Closed);
}

#[test]
fn simultaneous_open() {
    // Both sides connect to each other at once: RFC 793's simultaneous
    // open must converge to a single established connection.
    let mut x = TcpStack::new(A, slmetrics::shared());
    let mut y = TcpStack::new(B, slmetrics::shared());
    let cx = x.connect(Time::ZERO, 7000, Endpoint::new(B, 7001));
    let cy = y.connect(Time::ZERO, 7001, Endpoint::new(A, 7000));
    let (mut net, nx, ny) = two_party(31, x, y, LinkParams::delay_only(Dur::from_millis(5)));
    net.poll_all();
    run_for(&mut net, Dur::from_secs(10));
    assert_eq!(client(&mut net, nx).state(cx), TcpState::Established);
    assert_eq!(client(&mut net, ny).state(cy), TcpState::Established);
    // And data flows.
    client(&mut net, nx).send(cx, b"simul");
    net.poll_all();
    run_for(&mut net, Dur::from_secs(3));
    assert_eq!(client(&mut net, ny).recv(cy), b"simul");
}

#[test]
fn abort_sends_rst_and_peer_resets() {
    let (mut net, nc, ns, conn) = pair(32, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let sconn = client(&mut net, ns).established()[0];
    let now = net.now();
    client(&mut net, nc).abort(now, conn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Closed);
    assert_eq!(client(&mut net, ns).state(sconn), TcpState::Closed);
    assert!(client(&mut net, ns).stats.conns_reset >= 1);
}

#[test]
fn partition_mid_transfer_surfaces_clean_abort() {
    // Parity with the sublayered stack: a link that dies mid-transfer
    // must end in a *reported* abort, never a hang.
    let (mut net, nc, _ns, conn) = pair(40, LinkParams::delay_only(Dur::from_millis(10)));
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Established);
    let data = vec![5u8; 200_000];
    client(&mut net, nc).send(conn, &data);
    net.poll_all();
    run_for(&mut net, Dur::from_millis(10));
    net.set_link_up(0, false);
    // MAX_RETRIES=10 with backoff to 60 s: exhaustion takes ~4 minutes.
    run_for(&mut net, Dur::from_secs(400));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Closed);
    assert_eq!(
        client(&mut net, nc).conn_error(conn),
        Some(TransportError::RetriesExhausted)
    );
    assert!(net.link_dir_stats(0, 0).partition_drops > 0);
    assert!(net.is_idle(), "no timers may keep spinning after the abort");
}

#[test]
fn handshake_failure_on_dead_link_is_reported() {
    let params =
        LinkParams::delay_only(Dur::from_millis(5)).with_fault(FaultProfile::lossy(1.0));
    let (mut net, nc, _ns, conn) = pair(41, params);
    // SYN retries back off 1,2,4,...; MAX_SYN_RETRIES=6 exhausts in ~2 min.
    run_for(&mut net, Dur::from_secs(200));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Closed);
    assert_eq!(
        client(&mut net, nc).conn_error(conn),
        Some(TransportError::HandshakeFailed)
    );
    assert!(net.is_idle());
}

#[test]
fn keepalive_detects_vanished_peer_on_both_sides() {
    let ka = Keepalive {
        idle: Dur::from_secs(5),
        interval: Dur::from_secs(1),
        max_probes: 3,
    };
    let mut c = TcpStack::new(A, slmetrics::shared());
    let mut s = TcpStack::new(B, slmetrics::shared());
    c.set_keepalive(ka);
    s.set_keepalive(ka);
    s.listen(80);
    let conn = c.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
    let (mut net, nc, ns) = two_party(42, c, s, LinkParams::delay_only(Dur::from_millis(5)));
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    let sconn = client(&mut net, ns).established()[0];

    // A healthy but idle connection survives: probes are answered.
    run_for(&mut net, Dur::from_secs(30));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Established);
    assert_eq!(client(&mut net, ns).state(sconn), TcpState::Established);
    assert!(client(&mut net, nc).stats.keepalive_probes > 0);

    // Partition: probes go unanswered and both sides abort cleanly.
    net.set_link_up(0, false);
    run_for(&mut net, Dur::from_secs(30));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Closed);
    assert_eq!(client(&mut net, ns).state(sconn), TcpState::Closed);
    assert_eq!(
        client(&mut net, nc).conn_error(conn),
        Some(TransportError::PeerVanished)
    );
    assert_eq!(
        client(&mut net, ns).conn_error(sconn),
        Some(TransportError::PeerVanished)
    );
    assert!(net.is_idle(), "dead keepalive conns must not leak timers");
}

#[test]
fn local_abort_records_reset_on_both_ends() {
    let (mut net, nc, ns, conn) = pair(43, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let sconn = client(&mut net, ns).established()[0];
    let now = net.now();
    client(&mut net, nc).abort(now, conn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(client(&mut net, nc).conn_error(conn), Some(TransportError::Reset));
    assert_eq!(client(&mut net, ns).conn_error(sconn), Some(TransportError::Reset));
}

#[test]
fn half_close_allows_continued_receive() {
    // Client closes its direction; server may keep sending (CLOSE_WAIT).
    let (mut net, nc, ns, conn) = pair(33, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let sconn = client(&mut net, ns).established()[0];
    client(&mut net, nc).close(conn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(client(&mut net, ns).state(sconn), TcpState::CloseWait);
    client(&mut net, ns).send(sconn, b"still talking");
    net.poll_all();
    run_for(&mut net, Dur::from_secs(3));
    assert_eq!(client(&mut net, nc).recv(conn), b"still talking");
}

// ---------------------------------------------------------------------
// RFC 5961 injection defenses + SYN-flood resource governance (PR 2)
// ---------------------------------------------------------------------

#[test]
fn inwindow_blind_rst_is_challenged_not_fatal() {
    use crate::wire::{Segment, RST};
    use netsim::Stack;
    let (mut net, nc, _ns, conn) = pair(60, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Established);
    // Forge an RST whose sequence is inside the window but not exactly
    // rcv_nxt — the best a blind (sub-threshold) attacker can do.
    let rcv_nxt = client(&mut net, nc).pcb(conn).unwrap().rcv_nxt;
    let rst = Segment {
        src: conn.remote,
        dst: conn.local,
        seq: rcv_nxt.wrapping_add(100),
        ack: 0,
        flags: RST,
        wnd: 0,
        mss: None,
        payload: Vec::new(),
    };
    let now = net.now();
    client(&mut net, nc).on_frame(now, &rst.encode());
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Established, "blind RST must not kill");
    assert_eq!(client(&mut net, nc).stats.challenge_acks, 1);
    assert_eq!(client(&mut net, nc).conn_error(conn), None);
}

#[test]
fn exact_sequence_rst_still_resets() {
    use crate::wire::{Segment, RST};
    use netsim::Stack;
    let (mut net, nc, _ns, conn) = pair(61, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(2));
    let rcv_nxt = client(&mut net, nc).pcb(conn).unwrap().rcv_nxt;
    let rst = Segment {
        src: conn.remote,
        dst: conn.local,
        seq: rcv_nxt,
        ack: 0,
        flags: RST,
        wnd: 0,
        mss: None,
        payload: Vec::new(),
    };
    let now = net.now();
    client(&mut net, nc).on_frame(now, &rst.encode());
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Closed);
    assert_eq!(client(&mut net, nc).conn_error(conn), Some(TransportError::Reset));
}

#[test]
fn inwindow_syn_is_challenged_not_reset() {
    use crate::wire::{Segment, SYN};
    use netsim::Stack;
    let (mut net, nc, _ns, conn) = pair(62, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(2));
    let rcv_nxt = client(&mut net, nc).pcb(conn).unwrap().rcv_nxt;
    let syn = Segment {
        src: conn.remote,
        dst: conn.local,
        seq: rcv_nxt.wrapping_add(5),
        ack: 0,
        flags: SYN,
        wnd: 100,
        mss: None,
        payload: Vec::new(),
    };
    let now = net.now();
    let rsts_before = client(&mut net, nc).stats.rsts_sent;
    client(&mut net, nc).on_frame(now, &syn.encode());
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Established);
    assert_eq!(client(&mut net, nc).stats.challenge_acks, 1);
    assert_eq!(client(&mut net, nc).stats.rsts_sent, rsts_before, "no RST for in-window SYN");
}

#[test]
fn ancient_blind_ack_dropped_silently() {
    use crate::wire::{Segment, ACK};
    use netsim::Stack;
    let (mut net, nc, _ns, conn) = pair(63, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(2));
    let p = client(&mut net, nc).pcb(conn).unwrap();
    let (snd_una, rcv_nxt) = (p.snd_una, p.rcv_nxt);
    let ack = Segment {
        src: conn.remote,
        dst: conn.local,
        seq: rcv_nxt,
        ack: snd_una.wrapping_sub(1_000_000),
        flags: ACK,
        wnd: 100,
        mss: None,
        payload: Vec::new(),
    };
    let now = net.now();
    client(&mut net, nc).on_frame(now, &ack.encode());
    assert_eq!(client(&mut net, nc).stats.old_ack_drops, 1);
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Established);
}

#[test]
fn syn_flood_is_bounded_and_falls_back_to_cookies() {
    use crate::stack::MAX_HALF_OPEN;
    use crate::wire::{Segment, SYN};
    use netsim::Stack;
    let mut server = TcpStack::new(B, slmetrics::shared());
    server.listen(80);
    for i in 0..100u16 {
        let syn = Segment {
            src: Endpoint::new(0xC0000000 + i as u32, 1000 + i),
            dst: Endpoint::new(B, 80),
            seq: 7777 + i as u32,
            ack: 0,
            flags: SYN,
            wnd: 1000,
            mss: Some(1000),
            payload: Vec::new(),
        };
        server.on_frame(Time::ZERO, &syn.encode());
    }
    assert!(server.half_open_count() <= MAX_HALF_OPEN, "half-open queue must stay bounded");
    assert_eq!(server.half_open_count(), MAX_HALF_OPEN);
    assert_eq!(server.stats.syn_cookies_sent, 100 - MAX_HALF_OPEN as u64);
}

#[test]
fn syn_cookie_completion_establishes_connection() {
    use crate::stack::MAX_HALF_OPEN;
    use crate::wire::{Segment, ACK, SYN};
    use netsim::Stack;
    let mut server = TcpStack::new(B, slmetrics::shared());
    server.listen(80);
    // Fill the half-open queue, then one more SYN gets a cookie.
    for i in 0..MAX_HALF_OPEN as u16 {
        let syn = Segment {
            src: Endpoint::new(0xC0000000 + i as u32, 1000 + i),
            dst: Endpoint::new(B, 80),
            seq: 1000 + i as u32,
            ack: 0,
            flags: SYN,
            wnd: 1000,
            mss: Some(1000),
            payload: Vec::new(),
        };
        server.on_frame(Time::ZERO, &syn.encode());
    }
    let legit = Endpoint::new(A, 5000);
    let syn = Segment {
        src: legit,
        dst: Endpoint::new(B, 80),
        seq: 42_000,
        ack: 0,
        flags: SYN,
        wnd: 8000,
        mss: Some(1000),
        payload: Vec::new(),
    };
    server.on_frame(Time::ZERO, &syn.encode());
    assert_eq!(server.stats.syn_cookies_sent, 1);
    // Find the stateless SYN|ACK addressed to the legit client.
    let mut cookie = None;
    while let Some(f) = server.poll_transmit(Time::ZERO) {
        let seg = Segment::decode(&f).unwrap();
        if seg.dst == legit && seg.syn() && seg.ack_flag() {
            assert_eq!(seg.ack, 42_001);
            cookie = Some(seg.seq);
        }
    }
    let cookie = cookie.expect("cookie SYN|ACK emitted");
    // Complete the handshake from the cookie alone.
    let ack = Segment {
        src: legit,
        dst: Endpoint::new(B, 80),
        seq: 42_001,
        ack: cookie.wrapping_add(1),
        flags: ACK,
        wnd: 8000,
        mss: None,
        payload: Vec::new(),
    };
    server.on_frame(Time::ZERO + Dur::from_millis(10), &ack.encode());
    assert_eq!(server.stats.syn_cookies_validated, 1);
    let tuple = FourTuple { local: Endpoint::new(B, 80), remote: legit };
    assert_eq!(server.state(tuple), TcpState::Established);
    // A wrong cookie must NOT establish and is answered with RST.
    let bad = Segment {
        src: Endpoint::new(A, 5001),
        dst: Endpoint::new(B, 80),
        seq: 9,
        ack: 1234,
        flags: ACK,
        wnd: 8000,
        mss: None,
        payload: Vec::new(),
    };
    let rsts = server.stats.rsts_sent;
    server.on_frame(Time::ZERO + Dur::from_millis(11), &bad.encode());
    assert_eq!(server.stats.syn_cookies_validated, 1);
    assert_eq!(server.stats.rsts_sent, rsts + 1);
}

#[test]
fn stale_half_open_is_evicted_for_fresh_syn() {
    use crate::stack::MAX_HALF_OPEN;
    use crate::wire::{Segment, SYN};
    use netsim::Stack;
    let mut server = TcpStack::new(B, slmetrics::shared());
    server.listen(80);
    for i in 0..MAX_HALF_OPEN as u16 {
        let syn = Segment {
            src: Endpoint::new(0xC0000000 + i as u32, 1000 + i),
            dst: Endpoint::new(B, 80),
            seq: 1000 + i as u32,
            ack: 0,
            flags: SYN,
            wnd: 1000,
            mss: Some(1000),
            payload: Vec::new(),
        };
        server.on_frame(Time::ZERO, &syn.encode());
    }
    // Two seconds later the embryos are stale; a fresh SYN evicts one
    // instead of burning a cookie.
    let syn = Segment {
        src: Endpoint::new(A, 5000),
        dst: Endpoint::new(B, 80),
        seq: 5,
        ack: 0,
        flags: SYN,
        wnd: 1000,
        mss: Some(1000),
        payload: Vec::new(),
    };
    server.on_frame(Time::ZERO + Dur::from_secs(2), &syn.encode());
    assert_eq!(server.stats.half_open_evictions, 1);
    assert_eq!(server.stats.syn_cookies_sent, 0);
    assert!(server.half_open_count() <= MAX_HALF_OPEN);
}

#[test]
fn ooo_reassembly_is_byte_capped() {
    use crate::pcb::RCV_BUF_CAP;
    use crate::wire::{Segment, ACK};
    use netsim::Stack;
    let (mut net, nc, _ns, conn) = pair(64, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(2));
    let p = client(&mut net, nc).pcb(conn).unwrap();
    let (rcv_nxt, snd_nxt) = (p.rcv_nxt, p.snd_nxt);
    let now = net.now();
    // Spray *overlapping* out-of-order segments (distinct start offsets,
    // shared bytes) behind a one-byte gap: each is in-window, but their
    // sum is far beyond the receive buffer — only the byte cap stops it.
    for i in 0..100u32 {
        let seg = Segment {
            src: conn.remote,
            dst: conn.local,
            seq: rcv_nxt.wrapping_add(1 + i * 100),
            ack: snd_nxt,
            flags: ACK,
            wnd: 8000,
            mss: None,
            payload: vec![0xEE; 900],
        };
        client(&mut net, nc).on_frame(now, &seg.encode());
    }
    let held: usize = client(&mut net, nc)
        .pcb(conn)
        .unwrap()
        .ooo
        .values()
        .map(|d| d.len())
        .sum();
    assert!(held <= RCV_BUF_CAP, "ooo bytes {held} exceed cap");
    assert!(client(&mut net, nc).stats.ooo_overflow_drops > 0);
}

#[test]
fn send_buffer_backpressure_caps_acceptance() {
    use crate::stack::SND_BUF_CAP;
    let (mut net, nc, _ns, conn) = pair(65, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(2));
    let big = vec![1u8; SND_BUF_CAP + 4096];
    let accepted = client(&mut net, nc).send(conn, &big);
    assert!(accepted <= SND_BUF_CAP);
    let again = client(&mut net, nc).send(conn, &big);
    assert_eq!(again, 0, "full buffer accepts nothing");
}

#[test]
fn conn_table_capacity_is_typed_not_fatal() {
    let mut s = TcpStack::new(A, slmetrics::shared());
    s.set_max_conns(2);
    let r = Endpoint::new(B, 80);
    assert!(s.try_connect(Time::ZERO, 5001, r).is_ok());
    assert!(s.try_connect(Time::ZERO, 5002, r).is_ok());
    assert_eq!(s.try_connect(Time::ZERO, 5003, r), Err(TransportError::ConnTableFull));
    // An already-bound tuple is the same typed refusal, not a panic.
    let mut s = TcpStack::new(A, slmetrics::shared());
    assert!(s.try_connect(Time::ZERO, 5001, r).is_ok());
    assert_eq!(s.try_connect(Time::ZERO, 5001, r), Err(TransportError::ConnTableFull));
}

#[test]
fn ephemeral_port_exhaustion_is_typed() {
    let mut s = TcpStack::new(A, slmetrics::shared());
    s.set_max_conns(usize::MAX);
    let r = Endpoint::new(B, 80);
    for _ in 0..16384 {
        s.try_connect_ephemeral(Time::ZERO, r).unwrap();
    }
    assert_eq!(
        s.try_connect_ephemeral(Time::ZERO, r),
        Err(TransportError::PortsExhausted)
    );
    // A different remote endpoint still has its whole port range.
    assert!(s.try_connect_ephemeral(Time::ZERO, Endpoint::new(B, 81)).is_ok());
}

/// Drive a standalone server stack through a stateful passive open from
/// `src` and return the established tuple (for the pressure tests, which
/// need exact control over segment timing).
fn standalone_accept(s: &mut TcpStack, now: Time, src: Endpoint) -> FourTuple {
    use crate::wire::{Segment, ACK, SYN};
    use netsim::Stack;
    let syn = Segment {
        src,
        dst: Endpoint::new(B, 80),
        seq: 100,
        ack: 0,
        flags: SYN,
        wnd: 8000,
        mss: Some(1000),
        payload: Vec::new(),
    };
    s.on_frame(now, &syn.encode());
    let mut iss = None;
    while let Some(f) = s.poll_transmit(now) {
        let seg = Segment::decode(&f).unwrap();
        if seg.dst == src && seg.syn() && seg.ack_flag() {
            iss = Some(seg.seq);
        }
    }
    let iss = iss.expect("SYN|ACK emitted");
    let ack = Segment {
        src,
        dst: Endpoint::new(B, 80),
        seq: 101,
        ack: iss.wrapping_add(1),
        flags: ACK,
        wnd: 8000,
        mss: None,
        payload: Vec::new(),
    };
    s.on_frame(now, &ack.encode());
    let tuple = FourTuple { local: Endpoint::new(B, 80), remote: src };
    assert_eq!(s.state(tuple), TcpState::Established);
    tuple
}

#[test]
fn pressure_clamps_advertised_window() {
    use crate::pcb::RCV_BUF_CAP;
    use crate::wire::Segment;
    use netsim::{Pressure, Stack};
    let syn_wnd = |p: Pressure| {
        let mut s = TcpStack::new(A, slmetrics::shared());
        s.set_pressure(p);
        s.try_connect(Time::ZERO, 5000, Endpoint::new(B, 80)).unwrap();
        let f = s.poll_transmit(Time::ZERO).expect("SYN emitted");
        Segment::decode(&f).unwrap().wnd as usize
    };
    assert_eq!(syn_wnd(Pressure::Nominal), RCV_BUF_CAP);
    assert_eq!(syn_wnd(Pressure::Elevated), RCV_BUF_CAP >> 1);
    assert_eq!(syn_wnd(Pressure::High), RCV_BUF_CAP >> 2);
    let critical = syn_wnd(Pressure::Critical);
    assert_eq!(critical, RCV_BUF_CAP >> 3);
    assert!(critical > 0, "the window never clamps to zero");
}

#[test]
fn critical_pressure_refuses_new_flows_but_not_established() {
    use crate::wire::{Segment, ACK, SYN};
    use netsim::{Pressure, Stack};
    let mut s = TcpStack::new(B, slmetrics::shared());
    s.listen(80);
    let tuple = standalone_accept(&mut s, Time::ZERO, Endpoint::new(A, 5000));
    s.set_pressure(Pressure::Critical);
    // A fresh SYN is refused statelessly with a RST.
    let rsts = s.stats.rsts_sent;
    let syn = Segment {
        src: Endpoint::new(A, 5001),
        dst: Endpoint::new(B, 80),
        seq: 7,
        ack: 0,
        flags: SYN,
        wnd: 4096,
        mss: Some(1000),
        payload: Vec::new(),
    };
    s.on_frame(Time::ZERO, &syn.encode());
    assert_eq!(s.conn_count(), 1, "new flow refused under Critical pressure");
    assert_eq!(s.stats.pressure_refusals, 1);
    assert_eq!(s.stats.rsts_sent, rsts + 1);
    // The established connection still makes progress.
    let data = Segment {
        src: tuple.remote,
        dst: tuple.local,
        seq: 101,
        ack: s.pcb(tuple).unwrap().snd_nxt,
        flags: ACK,
        wnd: 8000,
        mss: None,
        payload: vec![9u8; 300],
    };
    s.on_frame(Time::ZERO + Dur::from_millis(1), &data.encode());
    assert_eq!(s.recv(tuple), vec![9u8; 300]);
    // 301 receive-side (SYN + 300 payload bytes) + 1 send-side (our
    // SYN|ACK's sequence slot was acked).
    assert_eq!(s.conn_progress(tuple), 302);
    // Recovery reopens admission.
    s.set_pressure(Pressure::Nominal);
    s.on_frame(Time::ZERO + Dur::from_millis(2), &syn.encode());
    assert_eq!(s.conn_count(), 2, "admission resumes at Nominal");
}

#[test]
fn paced_ack_is_held_then_flushed_at_deadline() {
    use crate::stack::ACK_PACE_DELAY;
    use crate::wire::{Segment, ACK};
    use netsim::{Pressure, Stack};
    let mut s = TcpStack::new(B, slmetrics::shared());
    s.listen(80);
    let tuple = standalone_accept(&mut s, Time::ZERO, Endpoint::new(A, 5000));
    s.set_pressure(Pressure::High);
    let t1 = Time::ZERO + Dur::from_millis(10);
    let data = Segment {
        src: tuple.remote,
        dst: tuple.local,
        seq: 101,
        ack: s.pcb(tuple).unwrap().snd_nxt,
        flags: ACK,
        wnd: 8000,
        mss: None,
        payload: vec![7u8; 500],
    };
    s.on_frame(t1, &data.encode());
    assert_eq!(s.stats.acks_paced, 1);
    assert!(s.poll_transmit(t1).is_none(), "pure ack held while paced");
    // The pacing deadline surfaces through conn_deadline so hosts rearm.
    assert_eq!(s.conn_deadline(t1, tuple), Some(t1 + ACK_PACE_DELAY));
    assert!(s.poll_transmit(t1 + Dur::from_millis(49)).is_none());
    let f = s
        .poll_transmit(t1 + ACK_PACE_DELAY)
        .expect("paced ack released at deadline");
    let seg = Segment::decode(&f).unwrap();
    assert!(seg.payload.is_empty());
    assert_eq!(seg.ack, 101 + 500, "the flushed ack covers the data");
    assert_eq!(s.pcb(tuple).unwrap().delayed_ack_deadline, None);
    // Dropping back to Nominal releases immediately on the next owed ack.
    s.set_pressure(Pressure::Nominal);
    let t2 = t1 + Dur::from_millis(100);
    let more = Segment {
        src: tuple.remote,
        dst: tuple.local,
        seq: 601,
        ack: s.pcb(tuple).unwrap().snd_nxt,
        flags: ACK,
        wnd: 8000,
        mss: None,
        payload: vec![8u8; 200],
    };
    s.on_frame(t2, &more.encode());
    assert_eq!(s.stats.acks_paced, 1, "no pacing at Nominal");
}

#[test]
fn full_table_refuses_inbound_syn_with_rst() {
    use crate::wire::{Segment, SYN};
    use netsim::Stack;
    let mut s = TcpStack::new(B, slmetrics::shared());
    s.set_max_conns(1);
    s.listen(80);
    let syn = |src: Endpoint| Segment {
        src,
        dst: Endpoint::new(B, 80),
        seq: 100,
        ack: 0,
        flags: SYN,
        wnd: 4096,
        mss: Some(1000),
        payload: Vec::new(),
    };
    s.on_frame(Time::ZERO, &syn(Endpoint::new(A, 5000)).encode());
    assert_eq!(s.conn_count(), 1);
    let rsts_before = s.stats.rsts_sent;
    s.on_frame(Time::ZERO, &syn(Endpoint::new(A, 5001)).encode());
    assert_eq!(s.conn_count(), 1, "second flow refused");
    assert_eq!(s.stats.conn_table_full_drops, 1);
    assert_eq!(s.stats.rsts_sent, rsts_before + 1, "refusal is a RST, not silence");
}

// ---------------------------------------------------------------------
// Every fact that reads a received segment's data length. `on_frame`
// reads a frame in place, so the header it hands on carries an empty
// payload and its `seq_len()` counts SYN and FIN alone: each site below
// must read the data beside it instead.

/// A segment from `tuple`'s peer: `payload` at `seq`, acking `ack`.
fn from_peer(tuple: FourTuple, seq: u32, ack: u32, flags: u8, payload: Vec<u8>) -> crate::wire::Segment {
    crate::wire::Segment {
        src: tuple.remote,
        dst: tuple.local,
        seq,
        ack,
        flags,
        wnd: 8000,
        mss: None,
        payload,
    }
}

/// Everything `s` has queued, decoded.
fn drain_segments(s: &mut TcpStack, now: Time) -> Vec<crate::wire::Segment> {
    use netsim::Stack;
    std::iter::from_fn(|| s.poll_transmit(now))
        .map(|f| crate::wire::Segment::decode(&f).unwrap())
        .collect()
}

#[test]
fn a_stateless_rst_for_data_to_no_connection_acks_past_the_data() {
    use crate::wire::{ACK, PSH, RST};
    use netsim::Stack;
    let mut s = TcpStack::new(B, slmetrics::shared());
    let stray = FourTuple { local: Endpoint::new(B, 80), remote: Endpoint::new(A, 5000) };
    s.on_frame(Time::ZERO, &from_peer(stray, 500, 0, PSH, vec![1; 300]).encode());
    let [rst] = &drain_segments(&mut s, Time::ZERO)[..] else { panic!("one RST") };
    assert_eq!(rst.flags, RST | ACK);
    assert_eq!((rst.seq, rst.ack), (0, 500 + 300), "RFC 793: ack = SEG.SEQ + SEG.LEN");
}

#[test]
fn a_data_segment_is_unacceptable_to_a_zero_window() {
    use crate::pcb::RCV_BUF_CAP;
    use crate::wire::ACK;
    use netsim::Stack;
    let mut s = TcpStack::new(B, slmetrics::shared());
    s.listen(80);
    let tuple = standalone_accept(&mut s, Time::ZERO, Endpoint::new(A, 5000));
    let una = s.pcb(tuple).unwrap().snd_una;
    // Fill the receive buffer (nobody reads it): the window closes.
    let mut seq = 101u32;
    while s.pcb(tuple).unwrap().rcv_wnd() > 0 {
        s.on_frame(Time::ZERO, &from_peer(tuple, seq, una, ACK, vec![2; 1000]).encode());
        seq = s.pcb(tuple).unwrap().rcv_nxt;
    }
    assert_eq!(s.readable_len(tuple), RCV_BUF_CAP);
    drain_segments(&mut s, Time::ZERO);
    // Data at exactly rcv_nxt, with a new window: RFC 793 takes no
    // segment that occupies sequence space into a zero window, so none
    // of its fields is processed — it is answered with a bare ack.
    let mut probe = from_peer(tuple, seq, una, ACK, vec![3; 10]);
    probe.wnd = 1234;
    s.on_frame(Time::ZERO, &probe.encode());
    assert_eq!(s.pcb(tuple).unwrap().snd_wnd, 8000, "the window update was not taken");
    let [ack] = &drain_segments(&mut s, Time::ZERO)[..] else { panic!("one ack") };
    assert_eq!((ack.ack, ack.wnd, ack.payload.len()), (seq, 0, 0));
}

#[test]
fn a_data_segment_is_never_a_duplicate_ack() {
    use crate::wire::ACK;
    use netsim::Stack;
    let mut s = TcpStack::new(B, slmetrics::shared());
    s.listen(80);
    let tuple = standalone_accept(&mut s, Time::ZERO, Endpoint::new(A, 5000));
    // The server has data in flight...
    assert_eq!(s.send(tuple, &[4; 500]), 500);
    assert_eq!(drain_segments(&mut s, Time::ZERO).len(), 1);
    let una = s.pcb(tuple).unwrap().snd_una;
    assert!(s.pcb(tuple).unwrap().flight_size() > 0);
    // ...and the peer, which has not had it yet, keeps sending its own:
    // each segment repeats the ack and the window, but carries data.
    for i in 0..4u32 {
        s.on_frame(Time::ZERO, &from_peer(tuple, 101 + i * 100, una, ACK, vec![5; 100]).encode());
    }
    assert_eq!(s.readable_len(tuple), 400);
    assert_eq!((s.stats.dupacks, s.stats.fast_retransmits), (0, 0));
    assert_eq!(s.pcb(tuple).unwrap().dupacks, 0);
}

#[test]
fn a_fin_riding_on_data_is_sequenced_after_it() {
    use crate::wire::{ACK, FIN};
    use netsim::Stack;
    let mut s = TcpStack::new(B, slmetrics::shared());
    s.listen(80);
    let tuple = standalone_accept(&mut s, Time::ZERO, Endpoint::new(A, 5000));
    let una = s.pcb(tuple).unwrap().snd_una;
    s.on_frame(Time::ZERO, &from_peer(tuple, 101, una, ACK | FIN, vec![6; 500]).encode());
    assert_eq!(s.state(tuple), TcpState::CloseWait, "the FIN at 601 was taken");
    assert_eq!(s.pcb(tuple).unwrap().rcv_nxt, 101 + 500 + 1);
    assert_eq!(s.recv(tuple), vec![6; 500]);
    let acks: Vec<u32> = drain_segments(&mut s, Time::ZERO).iter().map(|a| a.ack).collect();
    assert_eq!(acks, [602]);
}
