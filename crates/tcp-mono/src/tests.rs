//! Tests of what only the monolithic stack has: its PCB states and
//! fields, F-RTO, its entangled access log, memory-pressure pacing, the
//! sites that read a received segment's data length and its send loop's
//! silly-window rule (OSR's is tested in `osr.rs`). A behaviour both
//! stacks share is tested once, against each, in `bench`'s behavioural
//! suite (`crates/bench/src/behaviour.rs`); a test of the same name here
//! and in `sublayer-core`'s `tests.rs` fails that suite.

use crate::pcb::TcpState;
use crate::stack::TcpStack;
use crate::wire::{Endpoint, FourTuple};
use netsim::{two_party, Dur, HostStack, LinkParams, SimNet, StackNode, Time};

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

#[test]
fn close_wait_reads_established_with_peer_closed() {
    // Parity tie-break (`HostStack::is_established`): CLOSE_WAIT is the
    // sublayered stack's Established + `peer_closed` — synchronized, and
    // the application may still send.
    let (mut net, nc, ns, conn) = pair(9, LinkParams::delay_only(Dur::from_millis(5)));
    net.run_for(Dur::from_secs(1));
    let sconn = client(&mut net, ns).established()[0];
    client(&mut net, nc).close(conn);
    net.poll_all();
    net.run_for(Dur::from_secs(2));
    assert_eq!(client(&mut net, ns).state(sconn), TcpState::CloseWait);
    assert!(client(&mut net, ns).is_established(sconn));
    assert!(client(&mut net, ns).peer_closed(sconn));
    assert_eq!(client(&mut net, ns).send(sconn, b"still open"), 10);
}

#[test]
fn cc_name_names_the_configured_controller() {
    // The behavioural suite checks that a named controller ships and an
    // unknown name is a typed error; only the monolith reports the name.
    let s = TcpStack::with_cc(A, "cubic", slmetrics::shared()).expect("cubic ships");
    assert_eq!(s.cc_name(), "cubic");
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
        net.run_for(Dur::from_millis(50));
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
    net.run_for(Dur::from_secs(1));
    client(&mut net, nc).send(conn, &vec![0u8; 30_000]);
    net.poll_all();
    net.run_for(Dur::from_secs(10));
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
fn abort_sends_rst_and_peer_resets() {
    let (mut net, nc, ns, conn) = pair(32, LinkParams::delay_only(Dur::from_millis(5)));
    net.run_for(Dur::from_secs(1));
    let sconn = client(&mut net, ns).established()[0];
    let now = net.now();
    client(&mut net, nc).abort(now, conn);
    net.poll_all();
    net.run_for(Dur::from_secs(2));
    assert_eq!(client(&mut net, nc).state(conn), TcpState::Closed);
    assert_eq!(client(&mut net, ns).state(sconn), TcpState::Closed);
    assert!(client(&mut net, ns).stats.conns_reset >= 1);
}

// ---------------------------------------------------------------------
// RFC 5961 injection defenses + SYN-flood resource governance (PR 2)
// ---------------------------------------------------------------------

#[test]
fn ancient_blind_ack_dropped_silently() {
    use crate::wire::{Segment, ACK};
    use netsim::Stack;
    let (mut net, nc, _ns, conn) = pair(63, LinkParams::delay_only(Dur::from_millis(5)));
    net.run_for(Dur::from_secs(2));
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

/// Drive a standalone server stack through a stateful passive open from
/// `src` and return the established tuple (for the pressure tests, which
/// need exact control over segment timing).
fn standalone_accept(s: &mut TcpStack, now: Time, src: Endpoint) -> FourTuple {
    standalone_accept_at(s, now, src, 100)
}

/// [`standalone_accept`] from a peer whose initial sequence number is
/// `isn`.
pub(crate) fn standalone_accept_at(
    s: &mut TcpStack,
    now: Time,
    src: Endpoint,
    isn: u32,
) -> FourTuple {
    use crate::wire::{Segment, ACK, SYN};
    use netsim::Stack;
    let syn = Segment {
        src,
        dst: Endpoint::new(B, 80),
        seq: isn,
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
        seq: isn.wrapping_add(1),
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

// ---------------------------------------------------------------------
// Every fact that reads a received segment's data length. `on_frame`
// reads a frame in place, so the header it hands on carries an empty
// payload and its `seq_len()` counts SYN and FIN alone: each site below
// must read the data beside it instead.

/// A segment from `tuple`'s peer: `payload` at `seq`, acking `ack`.
pub(crate) fn from_peer(
    tuple: FourTuple,
    seq: u32,
    ack: u32,
    flags: u8,
    payload: Vec<u8>,
) -> crate::wire::Segment {
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
pub(crate) fn drain_segments(s: &mut TcpStack, now: Time) -> Vec<crate::wire::Segment> {
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

/// Sender silly-window avoidance, as OSR does it: with data in flight a
/// window-limited budget below the MSS cuts nothing, but the tail of what
/// is queued still goes, and with nothing in flight the window's worth is
/// sent (no ack would come to end the wait).
#[test]
fn silly_window_avoidance_waits_for_full_mss() {
    use crate::wire::ACK;
    use netsim::Stack;
    let mut s = TcpStack::new(B, slmetrics::shared());
    s.listen(80);
    let tuple = standalone_accept(&mut s, Time::ZERO, Endpoint::new(A, 5000));
    let una = s.pcb(tuple).unwrap().snd_una;
    let sent = |s: &mut TcpStack| -> Vec<usize> {
        drain_segments(s, Time::ZERO).iter().map(|d| d.payload.len()).collect()
    };
    // The peer acks up to `ack` and opens `wnd`: the data lengths sent.
    let ack = |s: &mut TcpStack, ack: u32, wnd: u16| {
        let mut seg = from_peer(tuple, 101, ack, ACK, Vec::new());
        seg.wnd = wnd;
        s.on_frame(Time::ZERO, &seg.encode());
        sent(s)
    };
    assert!(ack(&mut s, una, 1300).is_empty());
    assert_eq!(s.send(tuple, &[5; 2500]), 2500);
    // A full MSS goes; the 300 bytes of window left would make a runt.
    assert_eq!(sent(&mut s), [1000]);
    // Nothing in flight and a window below the MSS: the window's worth.
    assert_eq!(ack(&mut s, una + 1000, 300), [300]);
    // An open window: a full MSS, then the tail.
    assert_eq!(ack(&mut s, una + 1300, 8000), [1000, 200]);
}
