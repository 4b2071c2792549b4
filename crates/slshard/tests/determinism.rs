//! System-level determinism for [`slshard::ShardedHost`]:
//!
//! 1. Two threaded runs of the same workload replay identically — same
//!    per-client byte streams, timestamps, and server counters — even
//!    though shards run on real OS threads.
//! 2. A threaded run is identical to the single-threaded [`Mode::Inline`]
//!    reference (same cores, same command streams, no threads), which is
//!    the system-level form of the merge's reference cross-check.
//! 3. Shard-count invariance: the final per-connection byte streams are
//!    identical for N=1 and N=4 shards (routing spreads work; it must not
//!    change what any connection observes).

use netsim::{Dur, LinkParams, MultiStackNode, StackNode, Time};
use slhost::{EchoApp, Host, HostConfig, HostStack, ServedHost};
use slshard::{Mode, ShardedConfig, ShardedHost};
use sublayer_core::{SlConfig, SlTcpStack};
use tcp_mono::stack::TcpStack;
use slwire::Endpoint;

const SERVER_ADDR: u32 = 0x0A00_0001;
const CLIENT_BASE: u32 = 0x0A01_0000;
const PORT: u16 = 80;
const CLIENT_PORT: u16 = 5000;

fn dur(ns: u64) -> Dur {
    Dur::from_nanos(ns)
}

/// Deterministic per-client request with diverse lengths (64..264 B).
fn request(i: usize) -> Vec<u8> {
    let len = 64 + (i * 37) % 200;
    (0..len).map(|j| ((i * 131 + j * 7) % 251) as u8).collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Connecting,
    Await,
    Closing,
    Done,
    Failed,
}

/// Minimal scripted echo client: connect → send → collect the full echo →
/// close. Keeps every received byte so tests can compare final streams.
struct EchoClient<S: HostStack> {
    stack: S,
    server: Endpoint,
    req: Vec<u8>,
    phase: Phase,
    conn: Option<S::ConnId>,
    got: Vec<u8>,
    connect_at: Time,
    done_at: Option<Time>,
}

impl<S: HostStack> EchoClient<S> {
    fn new(stack: S, connect_at: Time, req: Vec<u8>) -> Self {
        EchoClient {
            stack,
            server: Endpoint::new(SERVER_ADDR, PORT),
            req,
            phase: Phase::Idle,
            conn: None,
            got: Vec::new(),
            connect_at,
            done_at: None,
        }
    }

    /// When the script itself next needs the clock.
    fn own_deadline(&self) -> Option<Time> {
        (self.phase == Phase::Idle).then_some(self.connect_at)
    }

    fn drive(&mut self, now: Time) {
        if let Some(id) = self.conn {
            if self.phase != Phase::Failed && self.stack.conn_error(id).is_some() {
                self.phase = Phase::Failed;
            }
        }
        loop {
            match self.phase {
                Phase::Idle => {
                    if now < self.connect_at {
                        return;
                    }
                    match self.stack.try_connect(now, CLIENT_PORT, self.server) {
                        Ok(id) => {
                            self.conn = Some(id);
                            self.phase = Phase::Connecting;
                        }
                        Err(_) => self.phase = Phase::Failed,
                    }
                }
                Phase::Connecting => {
                    let id = self.conn.expect("connected past Idle");
                    if !self.stack.is_established(id) {
                        return;
                    }
                    self.stack.send(id, &self.req);
                    self.phase = Phase::Await;
                }
                Phase::Await => {
                    let id = self.conn.expect("connected past Idle");
                    let data = self.stack.recv(id);
                    self.got.extend_from_slice(&data);
                    if self.got.len() < self.req.len() {
                        return;
                    }
                    self.done_at = Some(now);
                    self.stack.close(id);
                    self.phase = Phase::Closing;
                }
                Phase::Closing => {
                    let id = self.conn.expect("connected past Idle");
                    if !self.stack.is_closed(id) {
                        return;
                    }
                    self.phase = Phase::Done;
                }
                Phase::Done | Phase::Failed => return,
            }
        }
    }
}

netsim::client_stack!(EchoClient<S: HostStack>);

/// Everything one run exposes for comparison.
struct CaseResult {
    /// Per client: reached `Done`, final received byte stream, finish time.
    per_client: Vec<(bool, Vec<u8>, Option<Time>)>,
    /// Full canonical transcript (clients + aggregated server counters +
    /// router balance) — byte-compared across runs and modes.
    transcript: String,
}

fn run_case<S, F, G>(mode: Mode, shards: usize, n: usize, mk_server: F, mk_client: G) -> CaseResult
where
    S: HostStack,
    F: Fn(u32) -> S + Send + Sync + 'static,
    G: Fn(u32) -> S,
{
    let cfg = ShardedConfig {
        shards,
        seed: 0x51AD,
        batch_window: Dur::ZERO,
        ring_cap: 64,
        global_budget: 0,
        mode,
        ..ShardedConfig::default()
    };
    let server = ShardedHost::new(cfg, move |_shard| {
        ServedHost::new(
            Host::new(
                mk_server(SERVER_ADDR),
                HostConfig { listen_port: PORT, backlog: 64, ..HostConfig::default() },
            ),
            EchoApp::default(),
        )
    });
    let clients: Vec<EchoClient<S>> = (0..n)
        .map(|i| {
            EchoClient::new(
                mk_client(CLIENT_BASE + i as u32),
                Time(1_000_000 + 100_000 * i as u64),
                request(i),
            )
        })
        .collect();
    let (mut net, sid, cids) =
        netsim::star(7, server, clients, LinkParams::delay_only(dur(1_000_000)));
    net.poll_all();
    // Echoes finish within ~10 ms; the horizon must additionally outlast
    // the active closer's 10 s TIME_WAIT so clients reach `Done`.
    net.run_until(Time(15_000_000_000));

    let mut per_client = Vec::with_capacity(n);
    let mut transcript = String::new();
    for (i, &cid) in cids.iter().enumerate() {
        let c = &net.node::<StackNode<EchoClient<S>>>(cid).stack;
        let done = c.phase == Phase::Done;
        transcript.push_str(&format!(
            "client {i}: done={done} got={} at={:?}\n",
            c.got.len(),
            c.done_at.map(|t| t.nanos())
        ));
        per_client.push((done, c.got.clone(), c.done_at));
    }
    let srv = &mut net.node_mut::<MultiStackNode<ShardedHost<S, EchoApp>>>(sid).stack;
    let (k, echoed, served) = srv.aggregate();
    transcript.push_str(&format!(
        "server: accepts={} frames_in={} frames_out={} events={} echoed={} served={} \
         routed={:?} unclassified={}\n",
        k.accepts,
        k.frames_in,
        k.frames_out,
        k.events_dispatched,
        echoed,
        served,
        srv.routed,
        srv.unclassified
    ));
    CaseResult { per_client, transcript }
}

fn sub_stack(addr: u32) -> SlTcpStack {
    SlTcpStack::new(addr, SlConfig::default(), slmetrics::shared())
}

fn mono_stack(addr: u32) -> TcpStack {
    TcpStack::new(addr, slmetrics::shared())
}

fn assert_all_complete(r: &CaseResult, n: usize) {
    for (i, (done, got, _)) in r.per_client.iter().enumerate() {
        assert!(*done, "client {i} did not complete:\n{}", r.transcript);
        assert_eq!(got, &request(i), "client {i} echo corrupted");
    }
    assert_eq!(r.per_client.len(), n);
}

#[test]
fn two_threaded_runs_replay_identically() {
    let a = run_case(Mode::Threaded, 4, 48, sub_stack, sub_stack);
    let b = run_case(Mode::Threaded, 4, 48, sub_stack, sub_stack);
    assert_all_complete(&a, 48);
    assert_eq!(a.transcript, b.transcript, "threaded replay diverged");
}

#[test]
fn threaded_matches_inline_reference() {
    let t = run_case(Mode::Threaded, 4, 48, sub_stack, sub_stack);
    let i = run_case(Mode::Inline, 4, 48, sub_stack, sub_stack);
    assert_all_complete(&t, 48);
    assert_eq!(t.transcript, i.transcript, "threaded diverged from inline reference");
}

#[test]
fn mono_stack_threaded_matches_inline() {
    let t = run_case(Mode::Threaded, 2, 32, mono_stack, mono_stack);
    let i = run_case(Mode::Inline, 2, 32, mono_stack, mono_stack);
    assert_all_complete(&t, 32);
    assert_eq!(t.transcript, i.transcript, "mono threaded diverged from inline");
}

#[test]
fn shard_count_invariance_one_vs_four() {
    let one = run_case(Mode::Threaded, 1, 40, sub_stack, sub_stack);
    let four = run_case(Mode::Threaded, 4, 40, sub_stack, sub_stack);
    assert_all_complete(&one, 40);
    assert_all_complete(&four, 40);
    for (i, (a, b)) in one.per_client.iter().zip(four.per_client.iter()).enumerate() {
        assert_eq!(a.1, b.1, "client {i} final byte stream differs between N=1 and N=4");
    }
}
