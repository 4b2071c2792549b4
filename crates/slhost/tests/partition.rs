//! Partition-survival regressions for both transports, pinned through the
//! [`HostStack`] parity surface.
//!
//! Two guarantees, each checked against the sublayered stack and the
//! monolithic baseline:
//!
//! 1. **Bounded retransmit memory** — a sender stuck behind a partitioned
//!    link holds its retransmit queue flat (`RTX_BYTES_CAP` for the
//!    sublayered RD, `SND_BUF_CAP` for the monolith) no matter how long
//!    the outage lasts and how eagerly the application keeps writing. The
//!    10 000-tick soak below is the regression the cap was added for.
//! 2. **Keepalive yields to the RTO budget** — while data is in flight,
//!    liveness belongs to the retransmission retry budget; keepalive
//!    probes may keep firing, but exhausting the (much smaller) probe
//!    budget must not abort `PeerVanished` mid-retransmit. A 25 s
//!    partition outlives the 10 s + 5×2 s keepalive window but not the
//!    RTO budget, so the transfer must complete after the link heals.

use netsim::{two_party, AdminOp, Dur, Keepalive, LinkParams, StackNode, Time};
use slhost::HostStack;
use sublayer_core::{SlConfig, SlTcpStack};
use tcp_mono::stack::TcpStack;
use slwire::Endpoint;

const A: u32 = 1;
const B: u32 = 2;
const TICK: Dur = Dur(10_000_000); // 10 ms

fn t(ms: u64) -> Time {
    Time::ZERO + Dur::from_millis(ms)
}

/// Drive a transfer generically over the parity surface: connect, feed
/// `payload` as capacity allows, drain the server, step the simulator.
/// Returns (delivered bytes, max rtx-queue bytes seen, max unacked age).
struct SoakResult {
    delivered: usize,
    max_rtx: usize,
    max_age: Dur,
    client_error: Option<netsim::TransportError>,
}

fn soak<S: HostStack>(
    client: S,
    server: S,
    payload: &[u8],
    ops: &[(Time, AdminOp)],
    ticks: u64,
) -> SoakResult {
    let mut c = client;
    let s = server;
    let conn = c.try_connect(Time::ZERO, 5000, Endpoint::new(B, 80)).unwrap();
    // Rate-limited so a multi-megabyte payload is still mid-flight when
    // the admin schedule partitions the link.
    let params = LinkParams::delay_only(Dur::from_millis(5)).with_rate(2_000_000);
    let (mut net, nc, ns) = two_party(7, c, s, params);
    for (at, op) in ops {
        net.schedule_admin(*at, op.clone());
    }
    net.poll_all();
    net.run_until(t(500));

    let mut sent = 0usize;
    let mut got: Vec<u8> = Vec::new();
    let mut sconn = None;
    let mut max_rtx = 0usize;
    let mut max_age = Dur::ZERO;
    for _ in 0..ticks {
        net.run_for(TICK);
        let now = net.now();
        {
            let st = &mut net.node_mut::<StackNode<S>>(nc).stack;
            if sent < payload.len() {
                sent += HostStack::send(st, conn, &payload[sent..]);
            }
            max_rtx = max_rtx.max(st.conn_rtx_bytes(conn));
            if let Some(age) = st.conn_oldest_unacked(conn, now) {
                max_age = max_age.max(age);
            }
        }
        {
            let st = &mut net.node_mut::<StackNode<S>>(ns).stack;
            if sconn.is_none() {
                sconn = HostStack::established(st).first().copied();
            }
            if let Some(id) = sconn {
                got.extend(HostStack::recv(st, id));
            }
        }
        net.poll_all();
        if got.len() >= payload.len() {
            break;
        }
    }
    let client_error = net.node::<StackNode<S>>(nc).stack.conn_error(conn);
    SoakResult { delivered: got.len(), max_rtx, max_age, client_error }
}

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8).collect()
}

/// Keepalive (when given) goes on the **client only**: the sender is the
/// side whose keepalive *abort* must defer to the RTO budget while data
/// is in flight (its probes still fire as liveness chatter). A pure
/// receiver has nothing outstanding, so its keepalive
/// legitimately owns liveness and would (correctly) kill a silent peer —
/// which is a different guarantee than the one pinned here.
fn mono_pair(ka: Option<Keepalive>) -> (TcpStack, TcpStack) {
    let c = TcpStack::with_keepalive(A, ka, slmetrics::shared());
    let mut s = TcpStack::new(B, slmetrics::shared());
    HostStack::listen(&mut s, 80);
    (c, s)
}

fn sub_pair(ka: Option<Keepalive>) -> (SlTcpStack, SlTcpStack) {
    let ccfg = SlConfig { keepalive: ka, ..SlConfig::default() };
    let c = SlTcpStack::new(A, ccfg, slmetrics::shared());
    let mut s = SlTcpStack::new(B, SlConfig::default(), slmetrics::shared());
    HostStack::listen(&mut s, 80);
    (c, s)
}

/// The partition starts at t=2 s and never heals; the app writes as fast
/// as the stack accepts for 10 000 ticks (100 s simulated).
fn long_partition() -> Vec<(Time, AdminOp)> {
    vec![(t(2_000), AdminOp::LinkDown(0))]
}

#[test]
fn partition_cannot_blow_the_rtx_queue_sub() {
    let (c, s) = sub_pair(None);
    let out = soak(c, s, &payload(4_000_000), &long_partition(), 10_000);
    // One segment may straddle the cap (admission is checked before the
    // push), so allow a single MSS of slack above it.
    let cap = sublayer_core::rd::RTX_BYTES_CAP + 1_500;
    assert!(
        out.max_rtx <= cap,
        "sublayered rtx queue grew to {} bytes (cap {})",
        out.max_rtx,
        cap
    );
    // The partition-age signal must have seen the outage.
    assert!(
        out.max_age >= Dur::from_secs(20),
        "oldest-unacked age only reached {:?}",
        out.max_age
    );
    assert!(out.delivered < 4_000_000, "partitioned transfer cannot complete");
}

#[test]
fn partition_cannot_blow_the_rtx_queue_mono() {
    let (c, s) = mono_pair(None);
    let out = soak(c, s, &payload(4_000_000), &long_partition(), 10_000);
    let cap = tcp_mono::stack::SND_BUF_CAP;
    assert!(
        out.max_rtx <= cap,
        "monolithic rtx queue grew to {} bytes (cap {})",
        out.max_rtx,
        cap
    );
    assert!(
        out.max_age >= Dur::from_secs(20),
        "oldest-unacked age only reached {:?}",
        out.max_age
    );
    assert!(out.delivered < 4_000_000, "partitioned transfer cannot complete");
}

/// 25 s outage: longer than the keepalive window (10 s idle + 5 probes ×
/// 2 s = 20 s) but shorter than the RTO retry budget. Keepalive must stay
/// out of the way while data is in flight and the transfer must finish.
fn healing_partition() -> Vec<(Time, AdminOp)> {
    vec![(t(2_000), AdminOp::LinkDown(0)), (t(27_000), AdminOp::LinkUp(0))]
}

#[test]
fn keepalive_defers_to_rto_across_a_partition_sub() {
    let ka = Keepalive {
        idle: Dur::from_secs(10),
        interval: Dur::from_secs(2),
        max_probes: 5,
    };
    let (c, s) = sub_pair(Some(ka));
    let n = 1_000_000;
    let out = soak(c, s, &payload(n), &healing_partition(), 20_000);
    assert_eq!(
        out.client_error, None,
        "keepalive aborted a connection the RTO budget would have saved"
    );
    assert_eq!(out.delivered, n, "transfer must complete after the link heals");
}

#[test]
fn keepalive_defers_to_rto_across_a_partition_mono() {
    let ka = Keepalive {
        idle: Dur::from_secs(10),
        interval: Dur::from_secs(2),
        max_probes: 5,
    };
    let (c, s) = mono_pair(Some(ka));
    let n = 1_000_000;
    let out = soak(c, s, &payload(n), &healing_partition(), 20_000);
    assert_eq!(
        out.client_error, None,
        "keepalive aborted a connection the RTO budget would have saved"
    );
    assert_eq!(out.delivered, n, "transfer must complete after the link heals");
}
