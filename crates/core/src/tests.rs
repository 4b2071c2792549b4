//! End-to-end tests: two sublayered stacks over the simulator.

use crate::cm::{CmScheme, CmState};
use crate::dm::ConnId;
use crate::stack::{SlConfig, SlTcpStack};
use netsim::{
    two_party, Dur, FaultProfile, HostStack, Keepalive, LinkParams, SimNet, StackNode, Time,
    TransportError,
};
use slwire::Endpoint;

pub const A: u32 = 0x0A000001;
pub const B: u32 = 0x0A000002;

pub fn pair_with(
    seed: u64,
    params: LinkParams,
    config: SlConfig,
) -> (SimNet, usize, usize, ConnId) {
    let mut client = SlTcpStack::new(A, config.clone(), slmetrics::shared());
    let mut server = SlTcpStack::new(B, config, slmetrics::shared());
    server.listen(80);
    let conn = client.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
    let (mut net, nc, ns) = two_party(seed, client, server, params);
    net.poll_all();
    (net, nc, ns, conn)
}

pub fn pair(seed: u64, params: LinkParams) -> (SimNet, usize, usize, ConnId) {
    pair_with(seed, params, SlConfig::default())
}

pub fn stack(net: &mut SimNet, id: usize) -> &mut SlTcpStack {
    &mut net.node_mut::<StackNode<SlTcpStack>>(id).stack
}

pub fn run_for(net: &mut SimNet, d: Dur) {
    let deadline = net.now() + d;
    net.run_until(deadline);
}

/// Drive a one-way transfer until `data` arrives or patience runs out.
pub fn transfer(
    net: &mut SimNet,
    nc: usize,
    ns: usize,
    conn: ConnId,
    data: &[u8],
    rounds: usize,
) -> Vec<u8> {
    stack(net, nc).send(conn, data);
    net.poll_all();
    let mut got = Vec::new();
    for _ in 0..rounds {
        run_for(net, Dur::from_secs(1));
        if let Some(&sconn) = stack(net, ns).established().first() {
            got.extend(stack(net, ns).recv(sconn));
            // Let the receiver emit its window update.
            net.poll_all();
        }
        if got.len() >= data.len() {
            break;
        }
    }
    got
}

#[test]
fn handshake_establishes_both_sides() {
    let (mut net, nc, ns, conn) = pair(1, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(stack(&mut net, nc).state(conn), CmState::Established);
    assert_eq!(stack(&mut net, ns).established().len(), 1);
}

#[test]
fn bulk_transfer_clean_link() {
    let (mut net, nc, ns, conn) = pair(2, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
    let got = transfer(&mut net, nc, ns, conn, &data, 60);
    assert_eq!(got, data);
}

#[test]
fn transfer_over_lossy_link() {
    for seed in [3, 4, 5] {
        let params =
            LinkParams::delay_only(Dur::from_millis(5)).with_fault(FaultProfile::lossy(0.1));
        let (mut net, nc, ns, conn) = pair(seed, params);
        run_for(&mut net, Dur::from_secs(3));
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let got = transfer(&mut net, nc, ns, conn, &data, 120);
        assert_eq!(got, data, "seed {seed}");
    }
}

#[test]
fn transfer_under_reorder_duplicate_corrupt() {
    let params = LinkParams::delay_only(Dur::from_millis(5)).with_fault(FaultProfile {
        drop: 0.05,
        corrupt: 0.1,
        duplicate: 0.1,
        reorder: 0.15,
        reorder_delay: Dur::from_millis(15),
        ..Default::default()
    });
    let (mut net, nc, ns, conn) = pair(6, params);
    run_for(&mut net, Dur::from_secs(3));
    let data: Vec<u8> = (0..60_000u32).map(|i| (i % 239) as u8).collect();
    let got = transfer(&mut net, nc, ns, conn, &data, 120);
    assert_eq!(got, data);
    let corrupted =
        net.link_fault_stats(0, 0).corrupted + net.link_fault_stats(0, 1).corrupted;
    let bad = stack(&mut net, nc).stats.bad_packets + stack(&mut net, ns).stats.bad_packets;
    assert!(corrupted > 0, "fault injector should have corrupted something");
    assert!(bad > 0, "corrupted packets must fail the checksum (corrupted={corrupted})");
}

#[test]
fn bidirectional_transfer() {
    let (mut net, nc, ns, conn) = pair(7, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let up: Vec<u8> = (0..9_000u32).map(|i| (i % 13) as u8).collect();
    let down: Vec<u8> = (0..7_000u32).map(|i| (i % 17) as u8).collect();
    stack(&mut net, nc).send(conn, &up);
    let sconn = stack(&mut net, ns).established()[0];
    stack(&mut net, ns).send(sconn, &down);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(20));
    assert_eq!(stack(&mut net, ns).recv(sconn), up);
    assert_eq!(stack(&mut net, nc).recv(conn), down);
}

#[test]
fn graceful_close_both_directions() {
    let (mut net, nc, ns, conn) = pair(8, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    stack(&mut net, nc).send(conn, b"bye");
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    let sconn = stack(&mut net, ns).established()[0];
    stack(&mut net, nc).close(conn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    assert!(stack(&mut net, ns).peer_closed(sconn), "server saw the FIN");
    assert_eq!(stack(&mut net, ns).recv(sconn), b"bye");
    stack(&mut net, ns).close(sconn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(5));
    // Client (active closer) lingers in TIME_WAIT, then both disappear.
    let cs = stack(&mut net, nc).state(conn);
    assert!(
        matches!(cs, CmState::TimeWait | CmState::Closed),
        "client close state: {cs:?}"
    );
    run_for(&mut net, Dur::from_secs(15));
    assert_eq!(stack(&mut net, nc).conn_count(), 0);
    assert_eq!(stack(&mut net, ns).conn_count(), 0);
}

#[test]
fn a_close_request_ends_is_established_before_cm_moves() {
    // Parity tie-break (`HostStack::is_established`): CM stays
    // `Established` until the send stream has drained, the application
    // stopped being able to send at `close()`.
    let (mut net, nc, _ns, conn) = pair(8, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    assert!(stack(&mut net, nc).is_established(conn));
    stack(&mut net, nc).send(conn, &vec![7u8; 200_000]);
    stack(&mut net, nc).close(conn);
    net.poll_all();
    run_for(&mut net, Dur::from_millis(20));
    assert_eq!(stack(&mut net, nc).state(conn), CmState::Established, "stream not drained yet");
    assert!(!stack(&mut net, nc).is_established(conn));
    assert_eq!(stack(&mut net, nc).send_capacity(conn), 0);
}

#[test]
fn peer_closed_is_not_reported_past_closed() {
    // Parity tie-break (`HostStack::peer_closed`): half-close is a fact
    // about a live connection; once it is `Closed` the answer is no, as the
    // monolith's PCB state gives it.
    let (mut net, nc, ns, conn) = pair(8, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let sconn = stack(&mut net, ns).established()[0];
    stack(&mut net, nc).close(conn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    assert!(stack(&mut net, ns).peer_closed(sconn));
    stack(&mut net, ns).close(sconn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(20));
    for (node, id) in [(nc, conn), (ns, sconn)] {
        assert_eq!(stack(&mut net, node).state(id), CmState::Closed);
        assert!(!stack(&mut net, node).peer_closed(id));
    }
}

#[test]
fn close_under_loss_still_completes() {
    let params = LinkParams::delay_only(Dur::from_millis(5)).with_fault(FaultProfile::lossy(0.2));
    let (mut net, nc, ns, conn) = pair(9, params);
    run_for(&mut net, Dur::from_secs(5));
    stack(&mut net, nc).send(conn, &vec![5u8; 5000]);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(10));
    stack(&mut net, nc).close(conn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(20));
    let sconn = stack(&mut net, ns).established().first().copied();
    if let Some(sconn) = sconn {
        assert!(stack(&mut net, ns).peer_closed(sconn));
        assert_eq!(stack(&mut net, ns).recv(sconn).len(), 5000);
    } else {
        // Server already fully closed — also fine; data must have been
        // readable before. (recv on an unknown conn returns empty.)
        panic!("server connection should still exist (no close from server side)");
    }
}

#[test]
fn no_listener_drops_are_counted() {
    let mut client = SlTcpStack::new(A, SlConfig::default(), slmetrics::shared());
    let server = SlTcpStack::new(B, SlConfig::default(), slmetrics::shared());
    let conn = client.connect(Time::ZERO, 5000, Endpoint::new(B, 81));
    let (mut net, nc, ns) = two_party(10, client, server, LinkParams::delay_only(Dur::from_millis(5)));
    net.poll_all();
    run_for(&mut net, Dur::from_secs(3));
    assert!(stack(&mut net, ns).stats.no_listener_drops > 0);
    assert!(stack(&mut net, ns).stats.stateless_rsts_sent > 0);
    // The stateless RST refuses the connection promptly ("connection
    // refused") instead of leaving the client to burn SYN retries.
    assert_eq!(stack(&mut net, nc).state(conn), CmState::Closed);
    assert_eq!(stack(&mut net, nc).conn_error(conn), Some(TransportError::Reset));
}

#[test]
fn every_rate_controller_transfers_correctly() {
    for (i, cc) in ["reno", "cubic", "rate-based", "fixed-window"].iter().enumerate() {
        let config = SlConfig { cc, ..Default::default() };
        let params = LinkParams::delay_only(Dur::from_millis(10))
            .with_fault(FaultProfile::lossy(0.05));
        let (mut net, nc, ns, conn) = pair_with(20 + i as u64, params, config);
        run_for(&mut net, Dur::from_secs(3));
        let data: Vec<u8> = (0..15_000u32).map(|i| (i % 199) as u8).collect();
        let got = transfer(&mut net, nc, ns, conn, &data, 120);
        assert_eq!(got, data, "cc={cc}");
    }
}

#[test]
fn bad_cc_name_is_a_typed_error_not_a_panic() {
    let config = SlConfig { cc: "vegas", ..Default::default() };
    let err = SlTcpStack::try_new(A, config, slmetrics::shared())
        .err()
        .expect("unknown controller must surface at construction");
    assert!(err.to_string().contains("vegas"), "{err}");
}

#[test]
fn cc_counters_observe_loss_recovery() {
    // A lossy transfer must leave visible traces in the per-connection
    // CC counters: window samples, loss events, recovery episodes.
    let params =
        LinkParams::delay_only(Dur::from_millis(10)).with_fault(FaultProfile::lossy(0.05));
    let (mut net, nc, ns, conn) = pair(21, params);
    run_for(&mut net, Dur::from_secs(3));
    let data: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
    let got = transfer(&mut net, nc, ns, conn, &data, 120);
    assert_eq!(got.len(), data.len());
    let cc = stack(&mut net, nc).conn_cc(conn).expect("live connection");
    assert!(cc.samples > 0, "{cc:?}");
    assert!(cc.cwnd_peak >= cc.cwnd_last, "{cc:?}");
    assert!(cc.ssthresh_last > 0, "newreno keeps a threshold: {cc:?}");
    assert!(cc.dupack_losses + cc.rto_resets > 0, "5% loss must show up: {cc:?}");
    if cc.dupack_losses > 0 {
        assert!(cc.fast_recoveries > 0, "dupack loss opens an episode: {cc:?}");
    }
}

#[test]
fn both_isn_generators_work() {
    for (i, isn) in ["clock", "secure"].iter().enumerate() {
        let config = SlConfig { isn, ..Default::default() };
        let (mut net, nc, ns, conn) =
            pair_with(30 + i as u64, LinkParams::delay_only(Dur::from_millis(5)), config);
        run_for(&mut net, Dur::from_secs(1));
        let data = vec![9u8; 5000];
        let got = transfer(&mut net, nc, ns, conn, &data, 30);
        assert_eq!(got, data, "isn={isn}");
        let _ = (nc, conn);
    }
}

#[test]
fn timer_based_cm_transfers_without_handshake() {
    let config = SlConfig {
        cm_scheme: CmScheme::TimerBased { quiet: Dur::from_secs(5) },
        ..Default::default()
    };
    let (mut net, nc, ns, conn) = pair_with(40, LinkParams::delay_only(Dur::from_millis(5)), config);
    run_for(&mut net, Dur::from_secs(1));
    let data: Vec<u8> = (0..10_000u32).map(|i| (i % 97) as u8).collect();
    let got = transfer(&mut net, nc, ns, conn, &data, 60);
    assert_eq!(got, data);
    // No SYN ever crossed: packet count should show no pure handshake
    // (indirect check: server never saw a SYN flag -> it established from
    // a data packet; established() returned it, which transfer() used).
    let _ = nc;
}

#[test]
fn timer_based_cm_closes_by_quiet_time() {
    let config = SlConfig {
        cm_scheme: CmScheme::TimerBased { quiet: Dur::from_secs(3) },
        ..Default::default()
    };
    let (mut net, nc, ns, conn) = pair_with(41, LinkParams::delay_only(Dur::from_millis(5)), config);
    run_for(&mut net, Dur::from_secs(1));
    let got = transfer(&mut net, nc, ns, conn, b"brief", 10);
    assert_eq!(got, b"brief");
    let peer = stack(&mut net, ns).established()[0];
    stack(&mut net, nc).close(conn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(10));
    assert_eq!(stack(&mut net, nc).conn_count(), 0, "quiet time should reap the conn");
    assert!(!stack(&mut net, ns).peer_closed(peer), "a timer-based close routes no FIN");
}

#[test]
fn sublayer_state_is_fully_segregated() {
    // The paper's E6 claim: run a real workload and check the access log —
    // every field is touched by exactly one sublayer context.
    let log = slmetrics::shared();
    let mut client = SlTcpStack::new(A, SlConfig::default(), log.clone());
    let mut server = SlTcpStack::new(B, SlConfig::default(), slmetrics::shared());
    server.listen(80);
    let conn = client.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
    let (mut net, nc, ns) = two_party(
        50,
        client,
        server,
        LinkParams::delay_only(Dur::from_millis(5)).with_fault(FaultProfile::lossy(0.05)),
    );
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    let data = vec![3u8; 30_000];
    let got = transfer(&mut net, nc, ns, conn, &data, 60);
    assert_eq!(got.len(), data.len());
    let m = slmetrics::InteractionMatrix::from_log(&log.borrow());
    assert_eq!(
        m.entanglement_score(),
        0,
        "sublayered stack must have zero shared fields; matrix: {:?}",
        m.shared_fields()
    );
    assert_eq!(m.interacting_pairs(), 0);
    // And all four sublayers actually ran.
    let ctxs = log.borrow().contexts().into_iter().map(String::from).collect::<Vec<_>>();
    for ctx in ["dm", "cm", "rd", "osr"] {
        assert!(ctxs.iter().any(|c| c == ctx), "{ctx} missing from {ctxs:?}");
    }
}

#[test]
fn fast_retransmit_and_sack_operate_under_loss() {
    let params = LinkParams::delay_only(Dur::from_millis(10))
        .with_fault(FaultProfile::lossy(0.05));
    let (mut net, nc, ns, conn) = pair(60, params);
    run_for(&mut net, Dur::from_secs(3));
    let data = vec![7u8; 120_000];
    let got = transfer(&mut net, nc, ns, conn, &data, 120);
    assert_eq!(got.len(), data.len());
    let rd = stack(&mut net, nc).rd_stats(conn).unwrap();
    assert!(rd.fast_retransmits > 0, "expected fast retransmits: {rd:?}");
}

#[test]
fn crossing_stats_populated() {
    let (mut net, nc, ns, conn) = pair(70, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let data = vec![1u8; 10_000];
    let got = transfer(&mut net, nc, ns, conn, &data, 30);
    assert_eq!(got.len(), data.len());
    let cx = stack(&mut net, nc).crossings.clone();
    assert_eq!(cx.osr_to_rd_bytes, 10_000);
    assert!(cx.osr_to_rd_segments >= 10);
    assert!(cx.signals_up > 0);
    assert!(cx.wire_bytes_tx > 10_000);
    let sx = stack(&mut net, ns).crossings.clone();
    assert_eq!(sx.rd_to_osr_bytes, 10_000);
}

#[test]
fn ecn_echo_slows_the_sender() {
    let (mut net, nc, ns, conn) = pair(80, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let sconn = stack(&mut net, ns).established()[0];
    // Mark ECN on the receiver: its next headers carry the echo.
    stack(&mut net, ns).mark_ecn(sconn);
    let data = vec![2u8; 40_000];
    let got = transfer(&mut net, nc, ns, conn, &data, 60);
    assert_eq!(got.len(), data.len());
}

#[test]
fn two_connections_demultiplex() {
    let mut client = SlTcpStack::new(A, SlConfig::default(), slmetrics::shared());
    let mut server = SlTcpStack::new(B, SlConfig::default(), slmetrics::shared());
    server.listen(80);
    server.listen(443);
    let c1 = client.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
    let c2 = client.connect(Time::ZERO, 5001, Endpoint::new(B, 443));
    let (mut net, nc, ns) = two_party(90, client, server, LinkParams::delay_only(Dur::from_millis(3)));
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    stack(&mut net, nc).send(c1, b"alpha");
    stack(&mut net, nc).send(c2, b"beta");
    net.poll_all();
    run_for(&mut net, Dur::from_secs(3));
    let sconns = stack(&mut net, ns).established();
    assert_eq!(sconns.len(), 2);
    let mut by_port: Vec<(u16, Vec<u8>)> = sconns
        .iter()
        .map(|&c| {
            let port = stack(&mut net, ns).tuple(c).unwrap().local.port;
            (port, stack(&mut net, ns).recv(c))
        })
        .collect();
    by_port.sort();
    assert_eq!(by_port, vec![(80, b"alpha".to_vec()), (443, b"beta".to_vec())]);
}

#[test]
fn syn_loss_recovered_by_cm_bootstrap_reliability() {
    let params = LinkParams::delay_only(Dur::from_millis(5)).with_fault(FaultProfile::lossy(1.0));
    let (mut net, nc, _ns, conn) = pair(95, params);
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(stack(&mut net, nc).state(conn), CmState::SynSent);
    net.heal_link(0);
    run_for(&mut net, Dur::from_secs(10));
    assert_eq!(stack(&mut net, nc).state(conn), CmState::Established);
}

#[test]
fn flow_control_limits_unread_receiver() {
    let (mut net, nc, ns, conn) = pair(96, LinkParams::delay_only(Dur::from_millis(2)));
    run_for(&mut net, Dur::from_secs(1));
    let data = vec![1u8; 200_000];
    stack(&mut net, nc).send(conn, &data);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(30));
    // Receiver never read: it can hold at most its buffer capacity.
    let sconn = stack(&mut net, ns).established()[0];
    let held = stack(&mut net, ns).recv(sconn);
    assert!(held.len() <= crate::osr::RCV_BUF_CAP);
    assert!(held.len() >= 50_000, "should have filled most of the window: {}", held.len());
    // After reading, the window update lets the rest flow.
    net.poll_all();
    let mut rest = Vec::new();
    for _ in 0..120 {
        run_for(&mut net, Dur::from_secs(1));
        rest.extend(stack(&mut net, ns).recv(sconn));
        net.poll_all();
        if held.len() + rest.len() >= data.len() {
            break;
        }
    }
    assert_eq!(held.len() + rest.len(), data.len());
}

#[test]
fn partition_mid_transfer_surfaces_clean_abort() {
    let (mut net, nc, _ns, conn) = pair(97, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    assert_eq!(stack(&mut net, nc).state(conn), CmState::Established);
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 199) as u8).collect();
    stack(&mut net, nc).send(conn, &data);
    net.poll_all();
    run_for(&mut net, Dur::from_millis(10));
    // The link dies for good mid-transfer. The sender must exhaust its
    // retry budget (with exponential backoff), then abort — not hang.
    net.set_link_up(0, false);
    run_for(&mut net, Dur::from_secs(300));
    assert_eq!(stack(&mut net, nc).state(conn), CmState::Closed);
    assert_eq!(
        stack(&mut net, nc).conn_error(conn),
        Some(TransportError::RetriesExhausted)
    );
    let rtx = stack(&mut net, nc).rd_stats(conn);
    assert!(rtx.is_none(), "aborted connection is reaped");
    assert!(net.is_idle(), "no timers may survive the abort (hot-loop check)");
    assert!(net.link_dir_stats(0, 0).partition_drops > 0);
}

#[test]
fn keepalive_detects_vanished_peer_on_both_sides() {
    let config = SlConfig {
        keepalive: Some(Keepalive {
            idle: Dur::from_secs(5),
            interval: Dur::from_secs(1),
            max_probes: 3,
        }),
        ..Default::default()
    };
    let (mut net, nc, ns, conn) =
        pair_with(98, LinkParams::delay_only(Dur::from_millis(5)), config);
    run_for(&mut net, Dur::from_secs(1));
    let got = transfer(&mut net, nc, ns, conn, b"hello", 10);
    assert_eq!(got, b"hello");
    let sconn = stack(&mut net, ns).established()[0];
    // Healthy but idle: probes are answered, the connection survives.
    run_for(&mut net, Dur::from_secs(30));
    assert_eq!(stack(&mut net, nc).state(conn), CmState::Established);
    let probes = stack(&mut net, nc).rd_stats(conn).unwrap().keepalive_probes;
    assert!(probes > 0, "idle connection must have been probed");
    // Partition: probes go unanswered and both sides give up cleanly.
    net.set_link_up(0, false);
    run_for(&mut net, Dur::from_secs(60));
    assert_eq!(stack(&mut net, nc).state(conn), CmState::Closed);
    assert_eq!(stack(&mut net, nc).conn_error(conn), Some(TransportError::PeerVanished));
    assert_eq!(stack(&mut net, ns).state(sconn), CmState::Closed);
    assert_eq!(stack(&mut net, ns).conn_error(sconn), Some(TransportError::PeerVanished));
    assert!(net.is_idle(), "both endpoints fully quiesce after the aborts");
}

#[test]
fn local_abort_resets_peer() {
    let (mut net, nc, ns, conn) = pair(99, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let got = transfer(&mut net, nc, ns, conn, b"payload", 10);
    assert_eq!(got, b"payload");
    let sconn = stack(&mut net, ns).established()[0];
    let now = net.now();
    stack(&mut net, nc).abort_with(now, conn, TransportError::RetriesExhausted);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    assert_eq!(stack(&mut net, ns).state(sconn), CmState::Closed);
    assert_eq!(stack(&mut net, ns).conn_error(sconn), Some(TransportError::Reset));
}

#[test]
fn zero_window_probe_survives_lost_window_update() {
    let (mut net, nc, ns, conn) = pair(100, LinkParams::delay_only(Dur::from_millis(2)));
    run_for(&mut net, Dur::from_secs(1));
    let data = vec![3u8; 120_000];
    stack(&mut net, nc).send(conn, &data);
    net.poll_all();
    // Receiver does not read: the window slams shut and the sender stalls.
    run_for(&mut net, Dur::from_secs(30));
    let sconn = stack(&mut net, ns).established()[0];
    // Drain the receive buffer while the link is down, so the window
    // update announcing the reopened window is lost.
    net.set_link_up(0, false);
    let mut got = stack(&mut net, ns).recv(sconn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(2));
    net.set_link_up(0, true);
    // Only the persist machinery can discover the reopened window now.
    for _ in 0..180 {
        run_for(&mut net, Dur::from_secs(1));
        got.extend(stack(&mut net, ns).recv(sconn));
        net.poll_all();
        if got.len() >= data.len() {
            break;
        }
    }
    assert_eq!(got.len(), data.len(), "transfer must not deadlock on the lost update");
    assert!(got.iter().all(|&b| b == 3));
    let probes = stack(&mut net, nc).osr_stats(conn).unwrap().zero_window_probes;
    assert!(probes > 0, "the stall must have been probed");
}


// ---------------------------------------------------------------------------
// Adversarial robustness: RFC 5961 defenses and resource governance.
// ---------------------------------------------------------------------------

use crate::osr::{MSS, RCV_BUF_CAP, SND_BUF_CAP};
use crate::stack::MAX_HALF_OPEN;
use crate::wire::Packet;
use netsim::Stack as _;

/// Forge a packet the way a blind attacker would: correct addressing,
/// attacker-chosen flags and sequence, freshly sealed checksum.
fn forged(src: Endpoint, dst: Endpoint) -> Packet {
    let mut pkt = Packet { src_addr: src.addr, dst_addr: dst.addr, ..Packet::default() };
    pkt.dm.src_port = src.port;
    pkt.dm.dst_port = dst.port;
    pkt.osr.rcv_wnd = u16::MAX;
    pkt
}

fn established_pair(seed: u64) -> (SimNet, usize, usize, ConnId, ConnId) {
    let (mut net, nc, ns, conn) = pair(seed, LinkParams::delay_only(Dur::from_millis(5)));
    run_for(&mut net, Dur::from_secs(1));
    let sconn = *stack(&mut net, ns).established().first().expect("not established");
    (net, nc, ns, conn, sconn)
}

#[test]
fn inwindow_blind_rst_is_challenged_not_fatal() {
    let (mut net, nc, ns, conn, sconn) = established_pair(301);
    let expected = stack(&mut net, ns).expected_wire_seq(sconn).unwrap();
    let mut rst = forged(Endpoint::new(A, 5000), Endpoint::new(B, 80));
    rst.cm.flags.rst = true;
    rst.rd.seq = expected.wrapping_add(100); // in window, not exact
    let now = net.now();
    let frame = rst.encode();
    stack(&mut net, ns).on_frame(now, &frame);
    assert_eq!(stack(&mut net, ns).established().len(), 1, "blind RST must not kill");
    assert_eq!(stack(&mut net, ns).challenge_acks(), 1);
    run_for(&mut net, Dur::from_secs(1));
    assert_eq!(stack(&mut net, nc).state(conn), CmState::Established);
    assert_eq!(stack(&mut net, ns).established().len(), 1);
}

#[test]
fn exact_sequence_rst_still_resets() {
    let (mut net, _nc, ns, _conn, sconn) = established_pair(302);
    let expected = stack(&mut net, ns).expected_wire_seq(sconn).unwrap();
    let mut rst = forged(Endpoint::new(A, 5000), Endpoint::new(B, 80));
    rst.cm.flags.rst = true;
    rst.rd.seq = expected;
    let now = net.now();
    let frame = rst.encode();
    stack(&mut net, ns).on_frame(now, &frame);
    assert!(stack(&mut net, ns).established().is_empty());
    assert_eq!(stack(&mut net, ns).conn_error(sconn), Some(TransportError::Reset));
}

#[test]
fn outside_window_rst_is_ignored_silently() {
    let (mut net, _nc, ns, _conn, sconn) = established_pair(303);
    let expected = stack(&mut net, ns).expected_wire_seq(sconn).unwrap();
    let mut rst = forged(Endpoint::new(A, 5000), Endpoint::new(B, 80));
    rst.cm.flags.rst = true;
    rst.rd.seq = expected.wrapping_sub(100_000);
    let now = net.now();
    let frame = rst.encode();
    stack(&mut net, ns).on_frame(now, &frame);
    assert_eq!(stack(&mut net, ns).established().len(), 1);
    assert_eq!(stack(&mut net, ns).challenge_acks(), 0, "outside-window RST is noise");
}

#[test]
fn inwindow_syn_is_challenged_not_reset() {
    let (mut net, nc, ns, conn, _sconn) = established_pair(304);
    let mut syn = forged(Endpoint::new(A, 5000), Endpoint::new(B, 80));
    syn.cm.flags.syn = true;
    syn.cm.isn = 0xDEAD;
    let now = net.now();
    let frame = syn.encode();
    stack(&mut net, ns).on_frame(now, &frame);
    assert_eq!(stack(&mut net, ns).established().len(), 1, "spoofed SYN must not kill");
    assert_eq!(stack(&mut net, ns).challenge_acks(), 1);
    run_for(&mut net, Dur::from_secs(1));
    assert_eq!(stack(&mut net, nc).state(conn), CmState::Established);
    assert_eq!(stack(&mut net, ns).established().len(), 1);
}

#[test]
fn syn_flood_is_bounded_and_falls_back_to_cookies() {
    let mut server = SlTcpStack::new(B, SlConfig::default(), slmetrics::shared());
    server.listen(80);
    for i in 0..100u32 {
        let mut syn = forged(Endpoint::new(0xC000_0000 + i, 1000), Endpoint::new(B, 80));
        syn.cm.flags.syn = true;
        syn.cm.isn = 7000 + i;
        server.on_frame(Time::ZERO, &syn.encode());
    }
    assert_eq!(server.half_open_count(), MAX_HALF_OPEN);
    assert_eq!(server.conn_count(), MAX_HALF_OPEN, "flood must not grow state");
    assert_eq!(server.stats.syn_cookies_sent, 100 - MAX_HALF_OPEN as u64);
    assert_eq!(server.stats.half_open_evictions, 0, "fresh half-opens are not evictable");
}

#[test]
fn syn_cookie_completion_establishes_connection() {
    let mut server = SlTcpStack::new(B, SlConfig::default(), slmetrics::shared());
    server.listen(80);
    for i in 0..MAX_HALF_OPEN as u32 {
        let mut syn = forged(Endpoint::new(0xC000_0000 + i, 1000), Endpoint::new(B, 80));
        syn.cm.flags.syn = true;
        syn.cm.isn = 7000 + i;
        server.on_frame(Time::ZERO, &syn.encode());
    }
    let client_ep = Endpoint::new(0xC100_0000, 1234);
    let mut syn = forged(client_ep, Endpoint::new(B, 80));
    syn.cm.flags.syn = true;
    syn.cm.isn = 42_000;
    server.on_frame(Time::ZERO, &syn.encode());
    assert_eq!(server.stats.syn_cookies_sent, 1);
    assert_eq!(server.conn_count(), MAX_HALF_OPEN, "cookie SYN|ACK keeps no state");

    // Fish the stateless SYN|ACK out of the transmit queue.
    let mut cookie = None;
    while let Some(frame) = server.poll_transmit(Time::ZERO) {
        let pkt = Packet::decode(&frame).unwrap();
        if pkt.cm.flags.syn && pkt.cm.flags.cm_ack && pkt.dst_addr == client_ep.addr {
            assert_eq!(pkt.cm.ack_isn, 42_000);
            cookie = Some(pkt.cm.isn);
        }
    }
    let cookie = cookie.expect("stateless SYN|ACK was sent");

    // The completing ACK echoes both ISNs in its CM subheader; a valid
    // cookie rebuilds the connection the server never stored.
    let mut ack = forged(client_ep, Endpoint::new(B, 80));
    ack.cm.isn = 42_000;
    ack.cm.ack_isn = cookie;
    ack.rd.has_ack = true;
    ack.rd.ack = cookie.wrapping_add(1);
    ack.rd.seq = 42_001;
    server.on_frame(Time::ZERO, &ack.encode());
    assert_eq!(server.stats.syn_cookies_validated, 1);
    assert_eq!(server.established().len(), 1);

    // A guessed (wrong) cookie is refused statelessly.
    let mut bad = forged(Endpoint::new(0xC200_0000, 999), Endpoint::new(B, 80));
    bad.cm.isn = 5;
    bad.cm.ack_isn = 12_345;
    bad.rd.has_ack = true;
    server.on_frame(Time::ZERO, &bad.encode());
    assert_eq!(server.stats.syn_cookies_validated, 1);
    assert_eq!(server.established().len(), 1);
    assert!(server.stats.stateless_rsts_sent >= 1);
}

#[test]
fn stale_half_open_is_evicted_for_fresh_syn() {
    let mut server = SlTcpStack::new(B, SlConfig::default(), slmetrics::shared());
    server.listen(80);
    for i in 0..MAX_HALF_OPEN as u32 {
        let mut syn = forged(Endpoint::new(0xC000_0000 + i, 1000), Endpoint::new(B, 80));
        syn.cm.flags.syn = true;
        syn.cm.isn = 7000 + i;
        server.on_frame(Time::ZERO, &syn.encode());
    }
    // Two seconds later the original half-opens are stale: a fresh SYN
    // evicts the oldest instead of burning a cookie.
    let mut syn = forged(Endpoint::new(0xC300_0000, 2000), Endpoint::new(B, 80));
    syn.cm.flags.syn = true;
    syn.cm.isn = 9_999;
    server.on_frame(Time::ZERO + Dur::from_secs(2), &syn.encode());
    assert_eq!(server.stats.half_open_evictions, 1);
    assert_eq!(server.stats.syn_cookies_sent, 0);
    assert_eq!(server.half_open_count(), MAX_HALF_OPEN);
}

#[test]
fn ooo_spray_is_bounded_by_receiver_caps() {
    let (mut net, _nc, ns, _conn, sconn) = established_pair(305);
    let expected = stack(&mut net, ns).expected_wire_seq(sconn).unwrap();
    // Disjoint 100-byte segments sprayed ahead of rcv_nxt but *inside*
    // the RFC 793 validity window, so they reach the reassembly buffer:
    // more non-contiguous ranges than the receiver will hold.
    for i in 0..300u32 {
        let mut pkt = forged(Endpoint::new(A, 5000), Endpoint::new(B, 80));
        pkt.rd.seq = expected.wrapping_add(1 + i * 200);
        pkt.payload = vec![0xAB; 100].into();
        let now = net.now();
        let frame = pkt.encode();
        stack(&mut net, ns).on_frame(now, &frame);
    }
    // And a second volley far beyond the window, which must be refused
    // at the acceptability check before touching any buffer.
    for i in 0..50u32 {
        let mut pkt = forged(Endpoint::new(A, 5000), Endpoint::new(B, 80));
        pkt.rd.seq = expected.wrapping_add(1_000_000 + i * 2000);
        pkt.payload = vec![0xCD; 900].into();
        let now = net.now();
        let frame = pkt.encode();
        stack(&mut net, ns).on_frame(now, &frame);
    }
    let srv = stack(&mut net, ns);
    let rd = srv.rd_stats(sconn).unwrap();
    assert!(rd.ooo_range_drops > 0, "in-window spray must hit the cap");
    assert_eq!(rd.invalid_seq_drops, 50, "far spray refused at the window");
    assert!(srv.buffered_bytes() <= 96 * 1024, "held bytes stay bounded");
    assert_eq!(srv.established().len(), 1, "the flow itself survives");
}

#[test]
fn a_window_ignoring_peer_leaves_no_read_buffer_above_the_cap() {
    let (mut net, _nc, ns, _conn, sconn) = established_pair(307);
    let expected = stack(&mut net, ns).expected_wire_seq(sconn).unwrap();
    // In order, but twice what the advertised window ever allowed, with
    // the application reading none of it until the end.
    let n = 2 * RCV_BUF_CAP / 1000 + 1;
    for i in 0..n as u32 {
        let mut pkt = forged(Endpoint::new(A, 5000), Endpoint::new(B, 80));
        pkt.rd.seq = expected.wrapping_add(i * 1000);
        pkt.payload = vec![i as u8; 1000].into();
        let now = net.now();
        let frame = pkt.encode();
        stack(&mut net, ns).on_frame(now, &frame);
    }
    let srv = stack(&mut net, ns);
    assert_eq!(srv.readable_len(sconn), n * 1000, "in-order bytes are not refused");
    assert!(srv.read_capacity(sconn).unwrap() > RCV_BUF_CAP);
    assert_eq!(srv.recv(sconn).len(), n * 1000);
    assert_eq!(srv.read_capacity(sconn), Some(0), "the read frees the outgrown buffer");
}

/// Byte `i` of a forging peer's stream: every position recognisable.
fn stream_byte(i: u64) -> u8 {
    (i.wrapping_mul(31) ^ (i >> 8)) as u8
}

/// Deliver stream bytes `[start, start + len)` to the server's end of
/// `sconn`, whose next expected sequence number was `expected` at offset 0.
fn deliver(net: &mut SimNet, ns: usize, expected: u32, start: u64, len: u64) {
    let mut pkt = forged(Endpoint::new(A, 5000), Endpoint::new(B, 80));
    pkt.rd.seq = expected.wrapping_add(start as u32);
    pkt.payload = (start..start + len).map(stream_byte).collect::<Vec<u8>>().into();
    let now = net.now();
    let frame = pkt.encode();
    stack(net, ns).on_frame(now, &frame);
}

#[test]
fn a_far_byte_holds_no_more_read_buffer_than_the_window_offered() {
    // What the host budgets is `buffered_bytes`: bytes, not capacity. A
    // byte ahead of a hole parks where it will be read, behind a
    // zero-filled hole, only as far as the advertised window reaches, so
    // one byte makes the buffer hold at most the window. One byte past it
    // — RD still accepts it — is a copy of its own, and the buffer holds
    // nothing.
    let (mut net, _nc, ns, _conn, sconn) = established_pair(309);
    let expected = stack(&mut net, ns).expected_wire_seq(sconn).unwrap();
    let window = RCV_BUF_CAP as u64;
    deliver(&mut net, ns, expected, window, 1);
    let srv = stack(&mut net, ns);
    assert_eq!((srv.buffered_bytes(), srv.conn_buffered(sconn)), (1, 1));
    assert_eq!(srv.read_capacity(sconn), Some(0));
    deliver(&mut net, ns, expected, window - 1, 1);
    let srv = stack(&mut net, ns);
    assert_eq!(srv.buffered_bytes(), 2);
    assert_eq!(srv.read_capacity(sconn), Some(RCV_BUF_CAP));
    let rd = srv.rd_stats(sconn).unwrap();
    assert_eq!((rd.ooo_range_drops, rd.invalid_seq_drops), (0, 0));
}

#[test]
fn a_spray_far_ahead_of_a_hole_keeps_the_read_buffer_within_its_bound() {
    // 1,000 bytes unread, a hole at 1,000, 200 one-byte islands behind it,
    // and a segment each just past the window and at the far edge of RD's
    // validity window. The islands park in place, spanning 60,702 bytes
    // with the unread ones; the two segments apart. The buffer holds at
    // most twice RCV_BUF_CAP, and every byte is counted.
    let (mut net, _nc, ns, _conn, sconn) = established_pair(310);
    let expected = stack(&mut net, ns).expected_wire_seq(sconn).unwrap();
    deliver(&mut net, ns, expected, 0, 1000);
    for i in 0..200 {
        deliver(&mut net, ns, expected, 1001 + i * 300, 1);
    }
    let far = 1000 + crate::rd::VALIDITY_WND as u64 - 1;
    for start in [RCV_BUF_CAP as u64, far] {
        deliver(&mut net, ns, expected, start, MSS as u64);
    }
    let srv = stack(&mut net, ns);
    assert_eq!(srv.readable_len(sconn), 1000);
    assert_eq!(srv.conn_buffered(sconn), 1000 + 200 + 2 * MSS);
    let span = 1001 + 199 * 300 + 1;
    assert!((span..=2 * RCV_BUF_CAP).contains(&srv.read_capacity(sconn).unwrap()));
    assert_eq!(srv.rd_stats(sconn).unwrap().ooo_range_drops, 0);
    // Every hole fills, and the read that drains the outgrown buffer
    // frees it.
    let end = far + MSS as u64;
    for start in (1000..end).step_by(MSS) {
        deliver(&mut net, ns, expected, start, (end - start).min(MSS as u64));
    }
    let srv = stack(&mut net, ns);
    let got = srv.recv(sconn);
    assert_eq!(got.len() as u64, end);
    assert!(got.iter().zip(0..).all(|(&b, i)| b == stream_byte(i)), "stream corrupted");
    assert_eq!(srv.read_capacity(sconn), Some(0));
}

#[test]
fn a_drained_connection_holds_no_read_buffer_after_the_peers_fin() {
    let (mut net, nc, ns, conn, sconn) = established_pair(308);
    // Read before the FIN: the buffer stays for the next delivery ...
    stack(&mut net, nc).send(conn, &[1; 3000]);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(1));
    assert_eq!(stack(&mut net, ns).recv(sconn), [1; 3000]);
    assert!(stack(&mut net, ns).read_capacity(sconn).unwrap() >= 3000);
    // ... until the FIN arrives behind it: nothing more can join it.
    stack(&mut net, nc).close(conn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(1));
    assert!(stack(&mut net, ns).peer_closed(sconn));
    assert_eq!(stack(&mut net, ns).read_capacity(sconn), Some(0));
    // The FIN in before the read: the read that drains it frees it.
    stack(&mut net, ns).send(sconn, &[2; 3000]);
    stack(&mut net, ns).close(sconn);
    net.poll_all();
    run_for(&mut net, Dur::from_secs(1));
    let client = stack(&mut net, nc);
    assert!(client.peer_closed(conn));
    assert!(client.read_capacity(conn).unwrap() >= 3000);
    assert_eq!(client.recv(conn), [2; 3000]);
    assert_eq!(client.read_capacity(conn), Some(0));
}

#[test]
fn send_buffer_backpressure_caps_acceptance() {
    let (mut net, nc, _ns, conn, _sconn) = established_pair(306);
    let big = vec![7u8; 2 * SND_BUF_CAP];
    let accepted = stack(&mut net, nc).send(conn, &big);
    assert_eq!(accepted, SND_BUF_CAP, "write is capped, shortfall reported");
    let more = stack(&mut net, nc).send(conn, &big);
    assert_eq!(more, 0, "full buffer accepts nothing");
}

#[test]
fn conn_table_capacity_is_typed_not_fatal() {
    let config = SlConfig { max_conns: 2, ..Default::default() };
    let mut s = SlTcpStack::new(A, config, slmetrics::shared());
    let r = Endpoint::new(B, 80);
    assert!(s.try_connect(Time::ZERO, 5001, r).is_ok());
    assert!(s.try_connect(Time::ZERO, 5002, r).is_ok());
    assert_eq!(s.try_connect(Time::ZERO, 5003, r), Err(TransportError::ConnTableFull));
    // An already-bound tuple is the same typed refusal, not a panic.
    let config = SlConfig { max_conns: 8, ..Default::default() };
    let mut s = SlTcpStack::new(A, config, slmetrics::shared());
    assert!(s.try_connect(Time::ZERO, 5001, r).is_ok());
    assert_eq!(s.try_connect(Time::ZERO, 5001, r), Err(TransportError::ConnTableFull));
}

#[test]
fn ephemeral_port_exhaustion_is_typed() {
    let config = SlConfig { max_conns: usize::MAX, ..Default::default() };
    let mut s = SlTcpStack::new(A, config, slmetrics::shared());
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

#[test]
fn full_table_refuses_inbound_syn_with_rst() {
    use netsim::Stack;
    let config = SlConfig { max_conns: 1, ..Default::default() };
    let mut server = SlTcpStack::new(B, config, slmetrics::shared());
    server.listen(80);
    let mk_syn = |addr: u32| {
        let mut c = SlTcpStack::new(addr, SlConfig::default(), slmetrics::shared());
        c.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
        c.poll_transmit(Time::ZERO).expect("SYN frame")
    };
    server.on_frame(Time::ZERO, &mk_syn(A));
    assert_eq!(server.conn_count(), 1);
    let rsts_before = server.stats.stateless_rsts_sent;
    server.on_frame(Time::ZERO, &mk_syn(A + 1));
    assert_eq!(server.conn_count(), 1, "second flow refused");
    assert_eq!(server.stats.conn_table_full_drops, 1);
    assert_eq!(server.stats.stateless_rsts_sent, rsts_before + 1, "refusal is a RST, not silence");
}
