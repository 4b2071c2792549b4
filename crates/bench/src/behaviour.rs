//! One behavioural suite for both TCP stacks.
//!
//! Each behaviour is written once, generic over the surface the campaigns
//! already drive both stacks through: `netsim::HostStack`,
//! `slconform::ConformStack`, [`AttackTarget`] and [`FairStack`]. Every
//! forged or inspected frame goes through the victim's `slconform::Kind`.
//! `behaviours!` makes each behaviour one `#[test]` per stack
//! (`behaviour::sub::…`, `behaviour::mono::…`), so a behaviour added here
//! runs against both, and a replacement stack gets the whole suite for one
//! line.
//!
//! A behaviour runs at every seed the stacks' own copies ran at. Where the
//! two copies set up differently (link, data, warm-up, which end is
//! attacked), each seed keeps its copy's setup, and every assertion of
//! both copies applies to it, on both stacks: no assertion is kept for
//! one stack alone. Tests of one stack's own machinery stay in its
//! `tests.rs`; [`no_test_is_defined_in_both_stacks`] keeps them apart.

use crate::attack::AttackTarget;
use crate::fairness::FairStack;
use crate::{A, B};
use netsim::{
    two_party, AttackCodec, Dur, FaultProfile, HostStack, Keepalive, LinkParams, NodeId, SimNet,
    SnoopInfo, Stack, StackNode, Time, TransportError, MAX_HALF_OPEN,
};
use slconform::ConformStack;
use slwire::{Endpoint, FourTuple};

fn secs(s: u64) -> Dur {
    Dur::from_secs(s)
}

fn link(ms: u64) -> LinkParams {
    LinkParams::delay_only(Dur::from_millis(ms))
}

fn lossy(ms: u64, p: f64) -> LinkParams {
    link(ms).with_fault(FaultProfile::lossy(p))
}

/// `len` bytes counting up modulo `m`: a misplaced byte shows.
fn pattern(len: usize, m: u32) -> Vec<u8> {
    (0..len as u32).map(|i| (i % m) as u8).collect()
}

fn at<H: Stack>(net: &mut SimNet, node: NodeId) -> &mut H {
    &mut net.node_mut::<StackNode<H>>(node).stack
}

/// ESTABLISHED, not CLOSE-WAIT: open both ways.
fn open<H: HostStack>(s: &H, id: H::ConnId) -> bool {
    s.is_established(id) && !s.peer_closed(id)
}

/// A client at [`A`]:5000 connecting to a server listening at [`B`]:80.
struct Pair<H: HostStack> {
    net: SimNet,
    nc: NodeId,
    ns: NodeId,
    conn: H::ConnId,
}

fn pair_of<H: HostStack>(seed: u64, params: LinkParams, mut c: H, mut s: H) -> Pair<H> {
    s.listen(80);
    let conn = c
        .try_connect(Time::ZERO, 5000, Endpoint::new(B, 80))
        .expect("tuple free");
    let (mut net, nc, ns) = two_party(seed, c, s, params);
    net.poll_all();
    Pair { net, nc, ns, conn }
}

fn pair<H: ConformStack>(seed: u64, params: LinkParams) -> Pair<H> {
    pair_of(seed, params, H::mk(A), H::mk(B))
}

impl<H: HostStack> Pair<H> {
    fn client(&mut self) -> &mut H {
        at(&mut self.net, self.nc)
    }

    fn server(&mut self) -> &mut H {
        at(&mut self.net, self.ns)
    }

    /// The server's end, once established.
    fn sconn(&mut self) -> H::ConnId {
        *self
            .server()
            .established()
            .first()
            .expect("server established")
    }

    /// Send `data` from the client and read the server's end once a
    /// second (the read sends the window update), for at most `rounds`
    /// seconds or until `data` has arrived.
    fn transfer(&mut self, data: &[u8], rounds: usize) -> Vec<u8> {
        let conn = self.conn;
        self.client().send(conn, data);
        self.net.poll_all();
        let mut got = Vec::new();
        for _ in 0..rounds {
            self.net.run_for(secs(1));
            if let Some(&sconn) = self.server().established().first() {
                got.extend(self.server().recv(sconn));
                self.net.poll_all();
            }
            if got.len() >= data.len() {
                break;
            }
        }
        got
    }

    /// Read the server's end once a second, for at most `rounds` seconds
    /// or until `want` bytes are in `got`.
    fn drain(&mut self, sconn: H::ConnId, got: &mut Vec<u8>, want: usize, rounds: usize) {
        for _ in 0..rounds {
            self.net.run_for(secs(1));
            got.extend(self.server().recv(sconn));
            self.net.poll_all();
            if got.len() >= want {
                break;
            }
        }
    }
}

/// A pair at `seed` over a clean 5 ms link, established after `warm`
/// seconds, and the server's end.
fn established<H: ConformStack>(seed: u64, warm: u64) -> (Pair<H>, H::ConnId) {
    let mut p = pair::<H>(seed, link(5));
    p.net.run_for(secs(warm));
    let sconn = p.sconn();
    (p, sconn)
}

/// Which end of a [`Pair`] a forged frame is aimed at.
#[derive(Clone, Copy, Debug)]
enum Side {
    Client,
    Server,
}

/// The end on `side`: its node, its handle, its endpoint and its peer's.
fn end<H: HostStack>(
    p: &Pair<H>,
    sconn: H::ConnId,
    side: Side,
) -> (NodeId, H::ConnId, Endpoint, Endpoint) {
    let (client, server) = (Endpoint::new(A, 5000), Endpoint::new(B, 80));
    match side {
        Side::Client => (p.nc, p.conn, client, server),
        Side::Server => (p.ns, sconn, server, client),
    }
}

/// Hand `frame` to the stack at `node` now, as if it had just arrived.
fn inject<H: Stack>(net: &mut SimNet, node: NodeId, frame: &[u8]) {
    let now = net.now();
    at::<H>(net, node).on_frame(now, frame);
}

/// A data segment from `from` to `to` at wire sequence `seq`, acking
/// `ack` (what the victim has sent, as a snooped frame of the flow would).
fn forge_data<H: ConformStack>(
    from: Endpoint,
    to: Endpoint,
    seq: u32,
    ack: u32,
    payload: &[u8],
) -> Vec<u8> {
    let flow = SnoopInfo {
        src_addr: from.addr,
        src_port: from.port,
        dst_addr: to.addr,
        dst_port: to.port,
        next_seq: seq,
        ack: Some(ack),
        syn: false,
        rst: false,
    };
    H::KIND.forge_data(&flow, seq, payload)
}

/// A SYN from `from` to the listener at [`B`]:80.
fn syn_to_listener<H: ConformStack>(from: Endpoint, isn: u32) -> Vec<u8> {
    H::KIND.forge_syn(from, Endpoint::new(B, 80), isn)
}

/// A server at [`B`] listening on 80, its half-open queue filled at
/// t = 0 by spoofed SYNs.
fn flooded<H: AttackTarget>() -> H {
    let mut server = H::mk(B);
    server.listen(80);
    for i in 0..MAX_HALF_OPEN as u32 {
        let syn = syn_to_listener::<H>(Endpoint::new(0xC000_0000 + i, 1000 + i as u16), 7000 + i);
        server.on_frame(Time::ZERO, &syn);
    }
    server
}

/// Everything `s` has queued at `now`.
fn drain_frames<H: Stack>(s: &mut H, now: Time) -> Vec<Vec<u8>> {
    std::iter::from_fn(|| s.poll_transmit(now)).collect()
}

// ---------------------------------------------------------------------------
// Establishment and transfer
// ---------------------------------------------------------------------------

fn handshake_establishes_both_sides<H: ConformStack>() {
    let mut p = pair::<H>(1, link(5));
    p.net.run_for(secs(2));
    let conn = p.conn;
    assert!(open(p.client(), conn), "client ESTABLISHED");
    let est = p.server().established();
    assert_eq!(est.len(), 1);
    let tuple = FourTuple {
        local: Endpoint::new(B, 80),
        remote: Endpoint::new(A, 5000),
    };
    assert_eq!(
        p.server().conn_for_tuple(&tuple),
        Some(est[0]),
        "on the listening port"
    );
}

fn bulk_transfer_clean_link<H: ConformStack>() {
    let mut p = pair::<H>(2, link(5));
    p.net.run_for(secs(1));
    let data = pattern(50_000, 251);
    assert_eq!(p.transfer(&data, 30), data);
}

fn transfer_over_lossy_link<H: ConformStack>() {
    for seed in [3, 4, 5] {
        let mut p = pair::<H>(seed, lossy(5, 0.1));
        p.net.run_for(secs(3));
        let data = pattern(20_000, 241);
        assert_eq!(p.transfer(&data, 120), data, "seed {seed}");
    }
}

fn transfer_under_reorder_duplicate_corrupt<H: AttackTarget>() {
    let mixed = FaultProfile {
        drop: 0.05,
        corrupt: 0.1,
        duplicate: 0.1,
        reorder: 0.15,
        reorder_delay: Dur::from_millis(15),
        ..Default::default()
    };
    let reorder = FaultProfile::none()
        .with_duplicate(0.1)
        .with_reorder(0.2, Dur::from_millis(15));
    let corrupt = FaultProfile::none().with_corrupt(0.05);
    // (seed, faults, warm-up s, data, patience s)
    let cases = [
        (6, mixed, 3, pattern(60_000, 239), 120),
        (6, reorder, 2, pattern(30_000, 239), 60),
        (7, corrupt, 3, pattern(10_000, 233), 90),
    ];
    for (seed, fault, warm, data, rounds) in cases {
        let corrupts = fault.corrupt > 0.0;
        let mut p = pair::<H>(seed, link(5).with_fault(fault));
        p.net.run_for(secs(warm));
        assert_eq!(p.transfer(&data, rounds), data, "seed {seed}");
        if corrupts {
            let net = &p.net;
            let corrupted =
                net.link_fault_stats(0, 0).corrupted + net.link_fault_stats(0, 1).corrupted;
            assert!(
                corrupted > 0,
                "seed {seed}: the fault injector corrupted nothing"
            );
            let bad = p.client().defence(None).bad_frames_rejected
                + p.server().defence(None).bad_frames_rejected;
            assert!(
                bad > 0,
                "seed {seed}: corrupted frames must fail the checksum ({corrupted})"
            );
        }
    }
}

fn bidirectional_transfer<H: ConformStack>() {
    for seed in [7, 8] {
        let mut p = pair::<H>(seed, link(5));
        p.net.run_for(secs(1));
        let up = pattern(9_000, 13);
        let down = pattern(7_000, 17);
        let conn = p.conn;
        p.client().send(conn, &up);
        let sconn = p.sconn();
        p.server().send(sconn, &down);
        p.net.poll_all();
        p.net.run_for(secs(20));
        assert_eq!(p.server().recv(sconn), up, "seed {seed}");
        assert_eq!(p.client().recv(conn), down, "seed {seed}");
    }
}

fn two_connections_demultiplex<H: ConformStack>() {
    for seed in [90, 14] {
        let (mut c, mut s) = (H::mk(A), H::mk(B));
        s.listen(80);
        s.listen(443);
        let c1 = c
            .try_connect(Time::ZERO, 5000, Endpoint::new(B, 80))
            .unwrap();
        let c2 = c
            .try_connect(Time::ZERO, 5001, Endpoint::new(B, 443))
            .unwrap();
        let (mut net, nc, ns) = two_party(seed, c, s, link(3));
        net.poll_all();
        net.run_for(secs(2));
        at::<H>(&mut net, nc).send(c1, b"alpha");
        at::<H>(&mut net, nc).send(c2, b"beta");
        net.poll_all();
        net.run_for(secs(3));
        let server = at::<H>(&mut net, ns);
        let mut est = server.established();
        assert_eq!(est.len(), 2, "seed {seed}");
        let mut by_port = Vec::new();
        for (port, from) in [(80, 5000), (443, 5001)] {
            let tuple = FourTuple {
                local: Endpoint::new(B, port),
                remote: Endpoint::new(A, from),
            };
            let id = server
                .conn_for_tuple(&tuple)
                .expect("demultiplexed by port");
            est.retain(|&e| e != id);
            by_port.push((port, server.recv(id)));
        }
        assert!(est.is_empty(), "seed {seed}: one connection per port");
        assert_eq!(
            by_port,
            vec![(80, b"alpha".to_vec()), (443, b"beta".to_vec())]
        );
    }
}

fn syn_loss_recovered_by_cm_bootstrap_reliability<H: AttackTarget>() {
    for seed in [95, 12] {
        let mut p = pair::<H>(seed, lossy(5, 1.0));
        p.net.run_for(secs(2));
        let conn = p.conn;
        assert!(p.client().in_syn_sent(conn), "seed {seed}: every SYN lost");
        p.net.heal_link(0);
        p.net.run_for(secs(10));
        assert!(
            open(p.client(), conn),
            "seed {seed}: a retransmitted SYN got through"
        );
    }
}

fn bad_cc_name_is_a_typed_error_not_a_panic<H: FairStack>() {
    assert!(H::try_mk_cc(A, "cubic").is_ok(), "cubic ships");
    let err = H::try_mk_cc(A, "vegas")
        .err()
        .expect("an unknown controller is a typed error at construction");
    assert!(err.to_string().contains("vegas"), "{err}");
}

fn every_rate_controller_transfers_correctly<H: FairStack>() {
    for (i, cc) in ["reno", "cubic", "rate-based", "fixed-window"]
        .into_iter()
        .enumerate()
    {
        let (c, s) = (H::try_mk_cc(A, cc).unwrap(), H::try_mk_cc(B, cc).unwrap());
        let mut p = pair_of(20 + i as u64, lossy(10, 0.05), c, s);
        p.net.run_for(secs(3));
        let data = pattern(15_000, 199);
        assert_eq!(p.transfer(&data, 120), data, "cc={cc}");
    }
}

// ---------------------------------------------------------------------------
// Loss recovery and flow control
// ---------------------------------------------------------------------------

fn fast_retransmit_and_sack_operate_under_loss<H: AttackTarget>() {
    for (seed, loss) in [(60, 0.05), (11, 0.03)] {
        let mut p = pair::<H>(seed, lossy(10, loss));
        p.net.run_for(secs(3));
        let data = vec![7u8; 120_000];
        assert_eq!(p.transfer(&data, 120).len(), data.len(), "seed {seed}");
        let conn = p.conn;
        assert!(
            p.client().fast_retransmits(conn) > 0,
            "seed {seed}: no fast retransmit"
        );
    }
}

/// Sender silly-window avoidance (RFC 9293 §3.8.6.2.1). Loss leaves the
/// congestion window a size that is not a multiple of the MSS, so an ack
/// can free less than an MSS of it; the sender waits for a full one
/// rather than cut a runt. Every data segment the client puts on the wire
/// is a full MSS but the stream's tail. The data fits the receive buffer,
/// so the peer's window never holds the sender below an MSS.
fn a_window_limited_sender_cuts_no_runt<H: ConformStack>() {
    let mss = slwire::rfc793::DEFAULT_MSS as u32;
    for (seed, loss) in [(60, 0.05), (11, 0.03)] {
        let tap = netsim::tap_buffer();
        let (mut c, mut s) = (H::mk(A), H::mk(B));
        s.listen(80);
        let conn = c
            .try_connect(Time::ZERO, 5000, Endpoint::new(B, 80))
            .expect("tuple free");
        let client = netsim::TapStack::new(c, tap.clone());
        let (mut net, nc, ns) = two_party(seed, client, s, lossy(10, loss));
        net.poll_all();
        net.run_for(secs(3));
        let data = pattern(60_000, 251);
        let client = &mut at::<netsim::TapStack<H>>(&mut net, nc).inner;
        assert_eq!(client.send(conn, &data), data.len());
        net.poll_all();
        net.run_for(secs(60));
        let server = at::<H>(&mut net, ns);
        let sconn = *server.established().first().expect("server established");
        assert_eq!(server.recv(sconn), data, "seed {seed}");
        let sent: Vec<_> = tap
            .borrow()
            .iter()
            .filter(|e| e.dir == netsim::TapDir::Tx)
            .filter_map(|e| H::KIND.decode(&e.bytes))
            .collect();
        let isn = sent.iter().find(|seg| seg.syn).expect("the client's SYN").seq;
        let end = isn.wrapping_add(1 + data.len() as u32);
        let data_segs: Vec<_> = sent.iter().filter(|seg| seg.len > 0).collect();
        let mut starts: Vec<u32> = data_segs.iter().map(|seg| seg.seq).collect();
        starts.sort_unstable();
        starts.dedup();
        assert!(
            starts.len() < data_segs.len(),
            "seed {seed}: the loss must show as a retransmission"
        );
        let runts: Vec<_> = data_segs
            .iter()
            .filter(|seg| seg.len != mss && seg.seq.wrapping_add(seg.len) != end)
            .map(|seg| (seg.seq.wrapping_sub(isn), seg.len))
            .collect();
        assert!(
            runts.is_empty(),
            "seed {seed}: {} of {} data segments are runts (offset, len): {:?}",
            runts.len(),
            data_segs.len(),
            &runts[..runts.len().min(8)]
        );
    }
}

fn cc_counters_observe_loss_recovery<H: FairStack>() {
    for (seed, loss, data) in [
        (21, 0.05, pattern(60_000, 251)),
        (11, 0.03, vec![7u8; 120_000]),
    ] {
        let mut p = pair::<H>(seed, lossy(10, loss));
        p.net.run_for(secs(3));
        assert_eq!(p.transfer(&data, 120).len(), data.len(), "seed {seed}");
        let conn = p.conn;
        let cc = p.client().conn_cc_of(conn).expect("live connection");
        assert!(cc.samples > 0, "{cc:?}");
        assert!(cc.cwnd_peak >= cc.cwnd_last, "{cc:?}");
        assert!(cc.ssthresh_last > 0, "newreno keeps a threshold: {cc:?}");
        assert!(
            cc.dupack_losses + cc.rto_resets > 0,
            "seed {seed}: the loss must show: {cc:?}"
        );
        if cc.dupack_losses > 0 {
            assert!(
                cc.fast_recoveries > 0,
                "dupack loss opens an episode: {cc:?}"
            );
        }
    }
}

fn flow_control_limits_unread_receiver<H: AttackTarget>() {
    let mut p = pair::<H>(96, link(2));
    p.net.run_for(secs(1));
    let data = vec![1u8; 200_000];
    let conn = p.conn;
    p.client().send(conn, &data);
    p.net.poll_all();
    p.net.run_for(secs(30));
    // The receiver never read: it holds at most its buffer.
    let sconn = p.sconn();
    let held = p.server().recv(sconn);
    assert!(held.len() <= H::RCV_BUF_CAP, "{}", held.len());
    assert!(
        held.len() >= 50_000,
        "should have filled most of the window: {}",
        held.len()
    );
    // The read's window update lets the rest flow.
    p.net.poll_all();
    let mut rest = Vec::new();
    p.drain(sconn, &mut rest, data.len() - held.len(), 120);
    assert_eq!(held.len() + rest.len(), data.len());
}

fn zero_window_probe_survives_lost_window_update<H: AttackTarget>() {
    // (seed, bytes, fill, whether the update reopening the window is lost)
    for (seed, len, fill, lose_update) in [(100, 120_000, 3u8, true), (13, 80_000, 1u8, false)] {
        let mut p = pair::<H>(seed, link(2));
        p.net.run_for(secs(1));
        let conn = p.conn;
        p.client().send(conn, &vec![fill; len]);
        p.net.poll_all();
        // The receiver does not read: the window shuts and the sender stalls.
        p.net.run_for(secs(30));
        let sconn = p.sconn();
        if lose_update {
            p.net.set_link_up(0, false);
        }
        let mut got = p.server().recv(sconn);
        assert!(
            got.len() >= 60_000,
            "seed {seed}: buffered near capacity, got {}",
            got.len()
        );
        p.net.poll_all();
        if lose_update {
            p.net.run_for(secs(2));
            p.net.set_link_up(0, true);
            // Only the persist machinery can find the reopened window now.
            p.drain(sconn, &mut got, len, 180);
        } else {
            p.net.run_for(secs(30));
            got.extend(p.server().recv(sconn));
        }
        assert_eq!(
            got.len(),
            len,
            "seed {seed}: the transfer must not deadlock"
        );
        assert!(got.iter().all(|&b| b == fill));
        if let Some(probes) = p.client().zero_window_probes(conn) {
            assert!(probes > 0, "seed {seed}: the stall must have been probed");
        }
    }
}

fn send_buffer_backpressure_caps_acceptance<H: AttackTarget>() {
    for (seed, warm, offered) in [(306, 1, 2 * H::SND_BUF_CAP), (65, 2, H::SND_BUF_CAP + 4096)] {
        let (mut p, _) = established::<H>(seed, warm);
        let big = vec![7u8; offered];
        let conn = p.conn;
        assert_eq!(
            p.client().send(conn, &big),
            H::SND_BUF_CAP,
            "a write is capped, shortfall reported"
        );
        assert_eq!(
            p.client().send(conn, &big),
            0,
            "a full buffer accepts nothing"
        );
    }
}

// ---------------------------------------------------------------------------
// Close, abort and failure
// ---------------------------------------------------------------------------

fn graceful_close_both_directions<H: AttackTarget>() {
    for seed in [8, 9] {
        let mut p = pair::<H>(seed, link(5));
        p.net.run_for(secs(1));
        let conn = p.conn;
        p.client().send(conn, b"bye");
        p.net.poll_all();
        p.net.run_for(secs(2));
        let sconn = p.sconn();
        p.client().close(conn);
        p.net.poll_all();
        p.net.run_for(secs(2));
        let server = p.server();
        assert!(
            server.peer_closed(sconn),
            "seed {seed}: the server saw the FIN"
        );
        assert!(
            server.is_established(sconn),
            "seed {seed}: CLOSE-WAIT, still open for sending"
        );
        assert_eq!(server.recv(sconn), b"bye");
        server.close(sconn);
        p.net.poll_all();
        p.net.run_for(secs(2));
        // The active closer lingers in TIME-WAIT; the passive one is gone.
        assert!(
            p.client().in_time_wait(conn),
            "seed {seed}: client TIME-WAIT"
        );
        assert!(p.server().is_closed(sconn), "seed {seed}: server CLOSED");
        p.net.run_for(secs(3));
        let client = p.client();
        assert!(
            client.in_time_wait(conn) || client.is_closed(conn),
            "seed {seed}"
        );
        p.net.run_for(secs(12));
        assert!(p.client().is_closed(conn), "seed {seed}: TIME-WAIT ends");
        assert_eq!(p.client().conn_count(), 0, "seed {seed}");
        p.net.run_for(secs(3));
        assert_eq!(
            (p.client().conn_count(), p.server().conn_count()),
            (0, 0),
            "seed {seed}"
        );
    }
}

fn half_close_allows_continued_receive<H: ConformStack>() {
    let mut p = pair::<H>(33, link(5));
    p.net.run_for(secs(1));
    let sconn = p.sconn();
    let conn = p.conn;
    p.client().close(conn);
    p.net.poll_all();
    p.net.run_for(secs(2));
    let server = p.server();
    assert!(
        server.is_established(sconn) && server.peer_closed(sconn),
        "CLOSE-WAIT"
    );
    server.send(sconn, b"still talking");
    p.net.poll_all();
    p.net.run_for(secs(3));
    assert_eq!(p.client().recv(conn), b"still talking");
}

fn close_under_loss_still_completes<H: ConformStack>() {
    let mut p = pair::<H>(9, lossy(5, 0.2));
    p.net.run_for(secs(5));
    let conn = p.conn;
    p.client().send(conn, &[5u8; 5000]);
    p.net.poll_all();
    p.net.run_for(secs(10));
    let sconn = p.sconn();
    p.client().close(conn);
    p.net.poll_all();
    p.net.run_for(secs(20));
    // The server never closed: its end is still there, half-closed, with
    // every byte readable.
    let server = p.server();
    assert!(
        server.is_established(sconn),
        "the server's end still exists"
    );
    assert!(server.peer_closed(sconn));
    assert_eq!(server.recv(sconn).len(), 5000);
}

fn no_listener_drops_are_counted<H: AttackTarget>() {
    let mut c = H::mk(A);
    let conn = c
        .try_connect(Time::ZERO, 5000, Endpoint::new(B, 81))
        .unwrap();
    let (mut net, nc, ns) = two_party(10, c, H::mk(B), link(5));
    net.poll_all();
    net.run_for(secs(2));
    // The RST refuses the connection at once ("connection refused")
    // instead of leaving the client to burn SYN retries.
    let client = at::<H>(&mut net, nc);
    assert!(client.is_closed(conn));
    assert_eq!(client.conn_error(conn), Some(TransportError::Reset));
    if let Some(resets) = client.resets_taken() {
        assert_eq!(resets, 1);
    }
    let server = at::<H>(&mut net, ns);
    assert!(server.rsts_sent() > 0);
    if let Some(drops) = server.no_listener_drops() {
        assert!(drops > 0);
    }
}

fn local_abort_resets_peer<H: ConformStack>() {
    for (seed, payload) in [(99, Some(&b"payload"[..])), (43, None)] {
        let mut p = pair::<H>(seed, link(5));
        p.net.run_for(secs(1));
        if let Some(data) = payload {
            assert_eq!(p.transfer(data, 10), data, "seed {seed}");
        }
        let sconn = p.sconn();
        let (now, conn) = (p.net.now(), p.conn);
        p.client().abort(now, conn);
        p.net.poll_all();
        p.net.run_for(secs(2));
        assert_eq!(
            p.client().conn_error(conn),
            Some(TransportError::Reset),
            "seed {seed}"
        );
        assert!(p.server().is_closed(sconn), "seed {seed}");
        assert_eq!(
            p.server().conn_error(sconn),
            Some(TransportError::Reset),
            "seed {seed}"
        );
    }
}

fn a_reopened_tuple_does_not_inherit_its_predecessors_error<H: ConformStack>() {
    let mut p = pair::<H>(9, link(5));
    p.net.run_for(secs(1));
    let (now, old) = (p.net.now(), p.conn);
    p.client().abort(now, old);
    p.net.poll_all();
    p.net.run_for(secs(2));
    assert_eq!(p.client().conn_error(old), Some(TransportError::Reset));
    // The same 4-tuple, opened again: both ends are new connections.
    let now = p.net.now();
    let new = p
        .client()
        .try_connect(now, 5000, Endpoint::new(B, 80))
        .expect("the tuple is free again");
    p.net.poll_all();
    p.net.run_for(secs(2));
    assert!(open(p.client(), new), "client ESTABLISHED");
    assert_eq!(p.client().conn_error(new), None);
    let sconn = p.sconn();
    assert!(open(p.server(), sconn), "server ESTABLISHED");
    assert_eq!(p.server().conn_error(sconn), None);
    p.conn = new;
    assert_eq!(p.transfer(b"again", 10), b"again");
}

/// A stack keeps the errors of as many dead connections as its table holds
/// connections, the newest: a long-lived stack that sees many aborts does
/// not grow without bound.
fn errors_are_kept_for_as_many_dead_connections_as_the_table_holds<H: ConformStack>() {
    let (mut s, now, r) = (H::mk(A), Time::ZERO, Endpoint::new(B, 80));
    s.set_max_conns(8);
    let abort = |s: &mut H, port| {
        let id = s.try_connect(now, port, r).expect("the table has room");
        s.abort(now, id);
        id
    };
    let ids: Vec<H::ConnId> = (5000..5024).map(|port| abort(&mut s, port)).collect();
    for (i, &id) in ids.iter().enumerate() {
        let kept = (i >= 16).then_some(TransportError::Reset);
        assert_eq!(s.conn_error(id), kept, "connection {i} of 24");
    }
    // The newest tuple opens again, and its handshake fails: it reads the
    // newer reason, and keeps it until eight newer errors push it out.
    let again = s.try_connect(now, 5023, r).expect("the tuple is free again");
    while let Some(t) = s.conn_deadline(now, again) {
        s.tick_conn(t, again);
    }
    assert!(s.is_closed(again));
    assert_eq!(s.conn_error(again), Some(TransportError::HandshakeFailed));
    for port in 6000..6007 {
        abort(&mut s, port);
    }
    assert_eq!(s.conn_error(again), Some(TransportError::HandshakeFailed));
    let newest = abort(&mut s, 6007);
    assert_eq!(s.conn_error(again), None);
    assert_eq!(s.conn_error(newest), Some(TransportError::Reset));
}

fn partition_mid_transfer_surfaces_clean_abort<H: ConformStack>() {
    // (seed, link ms, warm-up s, data, how long the partition is watched)
    let cases = [
        (97, 5, 1, pattern(200_000, 199), 300),
        (40, 10, 2, vec![5u8; 200_000], 400),
    ];
    for (seed, ms, warm, data, watch) in cases {
        let mut p = pair::<H>(seed, link(ms));
        p.net.run_for(secs(warm));
        let conn = p.conn;
        assert!(open(p.client(), conn), "seed {seed}");
        p.client().send(conn, &data);
        p.net.poll_all();
        p.net.run_for(Dur::from_millis(10));
        // The link dies for good mid-transfer: the sender exhausts its
        // retries, backing off, and aborts — it does not hang.
        p.net.set_link_up(0, false);
        p.net.run_for(secs(watch));
        let client = p.client();
        assert!(client.is_closed(conn), "seed {seed}");
        assert_eq!(
            client.conn_error(conn),
            Some(TransportError::RetriesExhausted),
            "seed {seed}"
        );
        assert_eq!(
            client.conn_count(),
            0,
            "seed {seed}: the aborted connection is reaped"
        );
        assert!(p.net.is_idle(), "seed {seed}: no timer survives the abort");
        assert!(
            p.net.link_dir_stats(0, 0).partition_drops > 0,
            "seed {seed}"
        );
    }
}

fn handshake_failure_on_dead_link_is_reported<H: ConformStack>() {
    let mut p = pair::<H>(41, lossy(5, 1.0));
    // SYN retries back off and run out within 200 s.
    p.net.run_for(secs(200));
    let conn = p.conn;
    assert!(p.client().is_closed(conn));
    assert_eq!(
        p.client().conn_error(conn),
        Some(TransportError::HandshakeFailed)
    );
    assert!(p.net.is_idle());
}

fn rto_backoff_on_dead_link<H: AttackTarget>() {
    let mut p = pair::<H>(16, link(5));
    p.net.run_for(secs(1));
    p.net.fail_link(0);
    let conn = p.conn;
    p.client().send(conn, b"into the void");
    p.net.poll_all();
    // The RTO backs off towards its ceiling until the retries run out;
    // the count is read while the connection is still there to read.
    let mut rtos = 0;
    for _ in 0..600 {
        p.net.run_for(secs(1));
        rtos = rtos.max(p.client().rto_retransmits(conn));
    }
    assert!(rtos >= 3, "expected repeated RTO firing, got {rtos}");
    assert!(p.client().is_closed(conn), "the connection gives up");
}

fn keepalive_detects_vanished_peer_on_both_sides<H: AttackTarget>() {
    let ka = Keepalive {
        idle: secs(5),
        interval: secs(1),
        max_probes: 3,
    };
    // Seed 42 never carries data: its probes go out at the ISN.
    for (seed, warm, hello) in [(98, 1, true), (42, 2, false)] {
        let mk = |addr| H::mk_with(addr, Some(ka), slmetrics::shared());
        let mut p = pair_of(seed, link(5), mk(A), mk(B));
        p.net.run_for(secs(warm));
        if hello {
            assert_eq!(p.transfer(b"hello", 10), b"hello");
        }
        let (conn, sconn) = (p.conn, p.sconn());
        // Healthy but idle: the probes are answered, the connection lives.
        p.net.run_for(secs(30));
        assert!(open(p.client(), conn), "seed {seed}");
        assert!(open(p.server(), sconn), "seed {seed}");
        assert!(
            p.client().keepalive_probes(conn) > 0,
            "seed {seed}: idle, so probed"
        );
        // Partition: the probes go unanswered and both ends give up.
        p.net.set_link_up(0, false);
        p.net.run_for(secs(30));
        for (node, id) in [(p.nc, conn), (p.ns, sconn)] {
            let s = at::<H>(&mut p.net, node);
            assert!(s.is_closed(id), "seed {seed}");
            assert_eq!(
                s.conn_error(id),
                Some(TransportError::PeerVanished),
                "seed {seed}"
            );
        }
        assert!(
            p.net.is_idle(),
            "seed {seed}: both ends quiesce after the aborts"
        );
    }
}

fn simultaneous_open<H: ConformStack>() {
    // Both ends connect to each other at once: RFC 793's simultaneous
    // open converges on one connection.
    let (mut x, mut y) = (H::mk(A), H::mk(B));
    let cx = x
        .try_connect(Time::ZERO, 7000, Endpoint::new(B, 7001))
        .unwrap();
    let cy = y
        .try_connect(Time::ZERO, 7001, Endpoint::new(A, 7000))
        .unwrap();
    let (mut net, nx, ny) = two_party(31, x, y, link(5));
    net.poll_all();
    net.run_for(secs(10));
    assert!(open(at::<H>(&mut net, nx), cx));
    assert!(open(at::<H>(&mut net, ny), cy));
    at::<H>(&mut net, nx).send(cx, b"simul");
    net.poll_all();
    net.run_for(secs(3));
    assert_eq!(at::<H>(&mut net, ny).recv(cy), b"simul");
}

// ---------------------------------------------------------------------------
// RFC 5961 defences and resource governance
// ---------------------------------------------------------------------------

fn inwindow_blind_rst_is_challenged_not_fatal<H: AttackTarget>() {
    for (seed, warm, side) in [(301, 1, Side::Server), (60, 2, Side::Client)] {
        let (mut p, sconn) = established::<H>(seed, warm);
        let (node, id, me, peer) = end(&p, sconn, side);
        let expected = at::<H>(&mut p.net, node).expected_seq(id).unwrap();
        // In the window, not exact: the best a blind attacker can do.
        inject::<H>(
            &mut p.net,
            node,
            &H::KIND.forge_rst(peer, me, expected.wrapping_add(100)),
        );
        let victim = at::<H>(&mut p.net, node);
        assert!(open(victim, id), "seed {seed}: a blind RST must not kill");
        assert_eq!(victim.defence(Some(id)).challenge_acks, 1, "seed {seed}");
        assert_eq!(victim.conn_error(id), None, "seed {seed}");
        assert_eq!(p.server().established().len(), 1, "seed {seed}");
        p.net.run_for(secs(1));
        let conn = p.conn;
        assert!(open(p.client(), conn), "seed {seed}");
        assert_eq!(p.server().established().len(), 1, "seed {seed}");
    }
}

fn exact_sequence_rst_still_resets<H: AttackTarget>() {
    for (seed, warm, side) in [(302, 1, Side::Server), (61, 2, Side::Client)] {
        let (mut p, sconn) = established::<H>(seed, warm);
        let (node, id, me, peer) = end(&p, sconn, side);
        let expected = at::<H>(&mut p.net, node).expected_seq(id).unwrap();
        inject::<H>(&mut p.net, node, &H::KIND.forge_rst(peer, me, expected));
        let victim = at::<H>(&mut p.net, node);
        assert!(victim.is_closed(id), "seed {seed}");
        assert!(victim.established().is_empty(), "seed {seed}");
        assert_eq!(
            victim.conn_error(id),
            Some(TransportError::Reset),
            "seed {seed}"
        );
    }
}

fn outside_window_rst_is_ignored_silently<H: AttackTarget>() {
    let (mut p, sconn) = established::<H>(303, 1);
    let (node, id, me, peer) = end(&p, sconn, Side::Server);
    let expected = at::<H>(&mut p.net, node).expected_seq(id).unwrap();
    inject::<H>(
        &mut p.net,
        node,
        &H::KIND.forge_rst(peer, me, expected.wrapping_sub(100_000)),
    );
    let server = p.server();
    assert_eq!(server.established().len(), 1);
    assert_eq!(
        server.defence(Some(id)).challenge_acks,
        0,
        "an outside-window RST is noise"
    );
}

fn inwindow_syn_is_challenged_not_reset<H: AttackTarget>() {
    for (seed, warm, side) in [(304, 1, Side::Server), (62, 2, Side::Client)] {
        let (mut p, sconn) = established::<H>(seed, warm);
        let (node, id, me, peer) = end(&p, sconn, side);
        let expected = at::<H>(&mut p.net, node).expected_seq(id).unwrap();
        let isn = match side {
            Side::Server => 0xDEAD,
            Side::Client => expected.wrapping_add(5),
        };
        let rsts = at::<H>(&mut p.net, node).rsts_sent();
        inject::<H>(&mut p.net, node, &H::KIND.forge_syn(peer, me, isn));
        let victim = at::<H>(&mut p.net, node);
        assert!(open(victim, id), "seed {seed}: a spoofed SYN must not kill");
        assert_eq!(victim.defence(Some(id)).challenge_acks, 1, "seed {seed}");
        assert_eq!(
            victim.rsts_sent(),
            rsts,
            "seed {seed}: no RST for an in-window SYN"
        );
        assert_eq!(p.server().established().len(), 1, "seed {seed}");
        p.net.run_for(secs(1));
        let conn = p.conn;
        assert!(open(p.client(), conn), "seed {seed}");
        assert_eq!(p.server().established().len(), 1, "seed {seed}");
    }
}

fn ooo_spray_is_bounded_by_receiver_caps<H: AttackTarget>() {
    // The sublayered copy's spray: disjoint 100-byte segments ahead of
    // the next expected byte but inside the validity window, more ranges
    // than the receiver holds; then a volley far beyond the window, which
    // must be refused before it touches a buffer.
    let (mut p, sconn) = established::<H>(305, 1);
    let (node, id, me, peer) = end(&p, sconn, Side::Server);
    let expected = at::<H>(&mut p.net, node).expected_seq(id).unwrap();
    let conn = p.conn;
    let ack = p.client().expected_seq(conn).unwrap();
    for i in 0..300u32 {
        let seq = expected.wrapping_add(1 + i * 200);
        inject::<H>(
            &mut p.net,
            node,
            &forge_data::<H>(peer, me, seq, ack, &[0xAB; 100]),
        );
    }
    for i in 0..50u32 {
        let seq = expected.wrapping_add(1_000_000 + i * 2000);
        inject::<H>(
            &mut p.net,
            node,
            &forge_data::<H>(peer, me, seq, ack, &[0xCD; 900]),
        );
    }
    let server = p.server();
    let d = server.defence(Some(id));
    assert!(
        d.overflow_drops > 0,
        "the in-window spray must hit the cap: {d:?}"
    );
    assert_eq!(
        d.invalid_seq_drops, 50,
        "the far spray is refused at the window: {d:?}"
    );
    assert!(
        server.buffered_bytes() <= 96 * 1024,
        "held bytes stay bounded"
    );
    assert_eq!(server.established().len(), 1, "the flow itself survives");

    // Overlapping segments (distinct starts, shared bytes) behind a
    // one-byte gap, each in the window but together far beyond the
    // receive buffer.
    let (mut p, sconn) = established::<H>(64, 2);
    let (node, id, me, peer) = end(&p, sconn, Side::Client);
    let expected = at::<H>(&mut p.net, node).expected_seq(id).unwrap();
    let ack = p.server().expected_seq(sconn).unwrap();
    for i in 0..100u32 {
        let seq = expected.wrapping_add(1 + i * 100);
        inject::<H>(
            &mut p.net,
            node,
            &forge_data::<H>(peer, me, seq, ack, &[0xEE; 900]),
        );
    }
    // Either stack holds them once, as one range of 10,800 bytes: under
    // both caps, so nothing is dropped.
    let client = p.client();
    assert_eq!(client.conn_buffered(id), 10_800, "overlapping bytes are held once");
    assert_eq!(client.defence(Some(id)).overflow_drops, 0);
}

fn syn_flood_is_bounded_and_falls_back_to_cookies<H: AttackTarget>() {
    let mut server = H::mk(B);
    server.listen(80);
    for i in 0..100u32 {
        let syn = syn_to_listener::<H>(Endpoint::new(0xC000_0000 + i, 1000 + i as u16), 7000 + i);
        server.on_frame(Time::ZERO, &syn);
    }
    let d = server.defence(None);
    assert_eq!(
        server.half_open(),
        MAX_HALF_OPEN,
        "the half-open queue stays bounded"
    );
    assert_eq!(
        server.conn_count(),
        MAX_HALF_OPEN,
        "a flood must not grow state"
    );
    assert_eq!(d.syn_cookies_sent, 100 - MAX_HALF_OPEN as u64);
    assert_eq!(
        d.half_open_evictions, 0,
        "fresh half-opens are not evictable"
    );
}

fn syn_cookie_completion_establishes_connection<H: AttackTarget>() {
    let mut server = flooded::<H>();
    let legit = Endpoint::new(0xC100_0000, 1234);
    let mut client = H::mk(legit.addr);
    client
        .try_connect(Time::ZERO, legit.port, Endpoint::new(B, 80))
        .unwrap();
    let [syn] = &drain_frames(&mut client, Time::ZERO)[..] else {
        panic!("one SYN")
    };
    let isn = H::KIND.decode(syn).unwrap().seq;
    server.on_frame(Time::ZERO, syn);
    assert_eq!(server.defence(None).syn_cookies_sent, 1);
    assert_eq!(
        server.conn_count(),
        MAX_HALF_OPEN,
        "a cookie SYN|ACK keeps no state"
    );

    // Fish the stateless SYN|ACK out of the transmit queue.
    let to_legit = |f: &Vec<u8>| H::classify_frame(f).is_some_and(|m| m.dst == legit);
    let replies = drain_frames(&mut server, Time::ZERO);
    let [cookie] = &replies.into_iter().filter(to_legit).collect::<Vec<_>>()[..] else {
        panic!("one SYN|ACK to the client")
    };
    let seg = H::KIND.decode(cookie).unwrap();
    assert!(seg.syn && seg.ack);
    assert_eq!(
        seg.ack_no,
        isn.wrapping_add(1),
        "the SYN|ACK acks the client's ISN"
    );

    // The client's completing ACK echoes the cookie: a valid one rebuilds
    // the connection the server never stored.
    let later = Time::ZERO + Dur::from_millis(10);
    client.on_frame(later, cookie);
    for f in drain_frames(&mut client, later) {
        server.on_frame(later, &f);
    }
    assert_eq!(server.defence(None).syn_cookies_validated, 1);
    assert_eq!(server.established().len(), 1);
    let tuple = FourTuple {
        local: Endpoint::new(B, 80),
        remote: legit,
    };
    let id = server
        .conn_for_tuple(&tuple)
        .expect("rebuilt from the cookie");
    assert!(open(&server, id));

    // A guessed (wrong) cookie, here an ACK completing a handshake another
    // server answered, is refused statelessly with a RST.
    let stray = Endpoint::new(0xC200_0000, 999);
    let mut other = H::mk(stray.addr);
    other
        .try_connect(Time::ZERO, stray.port, Endpoint::new(B, 80))
        .unwrap();
    let mut elsewhere = H::mk(B);
    elsewhere.listen(80);
    for f in drain_frames(&mut other, Time::ZERO) {
        elsewhere.on_frame(Time::ZERO, &f);
    }
    for f in drain_frames(&mut elsewhere, Time::ZERO) {
        other.on_frame(Time::ZERO, &f);
    }
    let rsts = server.rsts_sent();
    let at_11 = Time::ZERO + Dur::from_millis(11);
    for f in drain_frames(&mut other, Time::ZERO) {
        server.on_frame(at_11, &f);
    }
    assert_eq!(server.defence(None).syn_cookies_validated, 1);
    assert_eq!(server.established().len(), 1);
    assert_eq!(server.rsts_sent(), rsts + 1, "the refusal is a RST");
}

fn stale_half_open_is_evicted_for_fresh_syn<H: AttackTarget>() {
    let mut server = flooded::<H>();
    // Two seconds on, the half-opens are stale: a fresh SYN evicts the
    // oldest instead of burning a cookie.
    let syn = syn_to_listener::<H>(Endpoint::new(0xC300_0000, 2000), 9_999);
    server.on_frame(Time::ZERO + secs(2), &syn);
    let d = server.defence(None);
    assert_eq!(d.half_open_evictions, 1);
    assert_eq!(d.syn_cookies_sent, 0);
    assert_eq!(server.half_open(), MAX_HALF_OPEN);
}

fn conn_table_capacity_is_typed_not_fatal<H: ConformStack>() {
    let r = Endpoint::new(B, 80);
    let mut s = H::mk(A);
    s.set_max_conns(2);
    assert!(s.try_connect(Time::ZERO, 5001, r).is_ok());
    assert!(s.try_connect(Time::ZERO, 5002, r).is_ok());
    assert_eq!(
        s.try_connect(Time::ZERO, 5003, r),
        Err(TransportError::ConnTableFull)
    );
    // An already-bound tuple is the same typed refusal, not a panic, with
    // room in the table or at its default size.
    for max in [Some(8), None] {
        let mut s = H::mk(A);
        if let Some(max) = max {
            s.set_max_conns(max);
        }
        assert!(s.try_connect(Time::ZERO, 5001, r).is_ok());
        assert_eq!(
            s.try_connect(Time::ZERO, 5001, r),
            Err(TransportError::ConnTableFull)
        );
    }
}

fn ephemeral_port_exhaustion_is_typed<H: ConformStack>() {
    let mut s = H::mk(A);
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
    assert!(s
        .try_connect_ephemeral(Time::ZERO, Endpoint::new(B, 81))
        .is_ok());
}

fn full_table_refuses_inbound_syn_with_rst<H: AttackTarget>() {
    let mut server = H::mk(B);
    server.set_max_conns(1);
    server.listen(80);
    server.on_frame(
        Time::ZERO,
        &syn_to_listener::<H>(Endpoint::new(A, 5000), 100),
    );
    assert_eq!(server.conn_count(), 1);
    let rsts = server.rsts_sent();
    // A second flow, from another host and from another port of the first.
    for (n, from) in [(1, Endpoint::new(A + 1, 5000)), (2, Endpoint::new(A, 5001))] {
        server.on_frame(Time::ZERO, &syn_to_listener::<H>(from, 100));
        assert_eq!(server.conn_count(), 1, "the second flow is refused");
        assert_eq!(server.conn_table_full_drops(), n);
        assert_eq!(
            server.rsts_sent(),
            rsts + n,
            "the refusal is a RST, not silence"
        );
    }
}

/// `behaviours!(Stack)` makes every behaviour above a `#[test]` against
/// `Stack`; `behaviours!(Stack; name, …)` makes the named ones.
macro_rules! behaviours {
    ($stack:ty) => {
        behaviours!($stack;
            handshake_establishes_both_sides,
            bulk_transfer_clean_link,
            transfer_over_lossy_link,
            transfer_under_reorder_duplicate_corrupt,
            bidirectional_transfer,
            two_connections_demultiplex,
            syn_loss_recovered_by_cm_bootstrap_reliability,
            bad_cc_name_is_a_typed_error_not_a_panic,
            every_rate_controller_transfers_correctly,
            fast_retransmit_and_sack_operate_under_loss,
            a_window_limited_sender_cuts_no_runt,
            cc_counters_observe_loss_recovery,
            flow_control_limits_unread_receiver,
            zero_window_probe_survives_lost_window_update,
            send_buffer_backpressure_caps_acceptance,
            graceful_close_both_directions,
            half_close_allows_continued_receive,
            close_under_loss_still_completes,
            no_listener_drops_are_counted,
            local_abort_resets_peer,
            a_reopened_tuple_does_not_inherit_its_predecessors_error,
            errors_are_kept_for_as_many_dead_connections_as_the_table_holds,
            partition_mid_transfer_surfaces_clean_abort,
            handshake_failure_on_dead_link_is_reported,
            rto_backoff_on_dead_link,
            keepalive_detects_vanished_peer_on_both_sides,
            simultaneous_open,
            inwindow_blind_rst_is_challenged_not_fatal,
            exact_sequence_rst_still_resets,
            outside_window_rst_is_ignored_silently,
            inwindow_syn_is_challenged_not_reset,
            ooo_spray_is_bounded_by_receiver_caps,
            syn_flood_is_bounded_and_falls_back_to_cookies,
            syn_cookie_completion_establishes_connection,
            stale_half_open_is_evicted_for_fresh_syn,
            conn_table_capacity_is_typed_not_fatal,
            ephemeral_port_exhaustion_is_typed,
            full_table_refuses_inbound_syn_with_rst,
        );
    };
    ($stack:ty; $($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                super::$name::<$stack>();
            }
        )*
    };
}

mod sub {
    behaviours!(sublayer_core::SlTcpStack);
}

mod mono {
    behaviours!(tcp_mono::TcpStack);
}

/// The names of the functions `src` defines right after `marker`.
fn names<'a>(src: &'a str, marker: &str) -> std::collections::BTreeSet<&'a str> {
    src.split(marker)
        .skip(1)
        .filter_map(|after| {
            after
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
        })
        .collect()
}

/// A behaviour both stacks are tested on is written once, above. A test
/// of the same name in both stacks' own `tests.rs`, or in either beside
/// the behaviour here, is a twin that belongs here alone.
#[test]
fn no_test_is_defined_in_both_stacks() {
    let sub = names(include_str!("../../core/src/tests.rs"), "#[test]\nfn ");
    let mono = names(include_str!("../../tcp-mono/src/tests.rs"), "#[test]\nfn ");
    let here = names(include_str!("behaviour.rs"), "\nfn ");
    assert!(
        sub.len() > 10 && mono.len() > 10,
        "the parser found the tests: {sub:?} {mono:?}"
    );
    assert!(
        here.contains("simultaneous_open"),
        "the parser found the behaviours: {here:?}"
    );
    let twins: Vec<_> = sub
        .intersection(&mono)
        .chain(sub.union(&mono).filter(|n| here.contains(*n)))
        .collect();
    assert!(
        twins.is_empty(),
        "defined twice; write it once in behaviour.rs: {twins:?}"
    );
}
