//! API-parity: both transports expose the same host-facing surface with
//! the same semantics. One scripted scenario — connect, request/echo,
//! peer close, full teardown — runs against `Host<SlTcpStack>` and
//! `Host<TcpStack>` through the identical generic driver, and the
//! observable traces (per-connection event sequence, delivered bytes,
//! terminal states, accept counters) must match exactly.
//!
//! A second scenario checks refusal parity: a zero-backlog host resets
//! the connection and the client observes a typed error on both stacks.

use netsim::{MultiStack, Stack, Time, TransportError};
use slhost::{EchoApp, Host, HostConfig, HostEvent, HostStack, ServedHost, TimerMode};
use sublayer_core::{SlConfig, SlTcpStack};
use slwire::Endpoint;
use tcp_mono::TcpStack;

const SERVER_ADDR: u32 = 0x0A00_0001;
const CLIENT_ADDR: u32 = 0x0A00_0002;
const PORT: u16 = 80;

/// Conn-agnostic event label (ids differ between stacks by type).
fn label<C>(ev: &HostEvent<C>) -> String {
    match ev {
        HostEvent::Accepted(_) => "accepted".into(),
        HostEvent::Readable(_) => "readable".into(),
        HostEvent::Writable(_) => "writable".into(),
        HostEvent::PeerClosed(_) => "peer_closed".into(),
        HostEvent::Closed(_) => "closed".into(),
        HostEvent::Error(_, e) => format!("error:{e:?}"),
    }
}

/// What one scenario run exposes to the parity assertion.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    server_events: Vec<String>,
    echo: Vec<u8>,
    client_error: Option<TransportError>,
    accepts: u64,
    accept_refusals: u64,
}

/// Echo server that also records every event it sees.
struct Recorder {
    inner: EchoApp,
    seen: Vec<String>,
}

impl<S: HostStack> slhost::HostApp<S> for Recorder {
    fn on_event(&mut self, now: Time, host: &mut Host<S>, ev: HostEvent<S::ConnId>) {
        self.seen.push(label(&ev));
        <EchoApp as slhost::HostApp<S>>::on_event(&mut self.inner, now, host, ev);
    }
}

/// Drive one client stack against a served host until both go quiet,
/// moving frames directly (zero-delay full-duplex link) and advancing the
/// virtual clock to the earliest pending deadline between steps.
fn run_scenario<S: HostStack>(stack: S, client: &mut S, backlog: usize) -> Trace {
    run_scenario_mode(stack, client, backlog, TimerMode::Wheel)
}

fn run_scenario_mode<S: HostStack>(
    stack: S,
    client: &mut S,
    backlog: usize,
    timer_mode: TimerMode,
) -> Trace {
    let cfg = HostConfig { listen_port: PORT, backlog, timer_mode, ..HostConfig::default() };
    let mut server = ServedHost::new(
        Host::new(stack, cfg),
        Recorder { inner: EchoApp::default(), seen: Vec::new() },
    );

    let mut now = Time::ZERO;
    let msg = b"hello from the parity scenario".to_vec();
    let conn = client.try_connect(now, 5000, Endpoint::new(SERVER_ADDR, PORT)).unwrap();
    let mut echo = Vec::new();
    let mut sent = false;
    let mut closed = false;

    for _ in 0..200_000 {
        let mut moved = false;
        while let Some(f) = Stack::poll_transmit(client, now) {
            server.on_frame(now, 0, &f);
            moved = true;
        }
        while let Some((_, f)) = server.poll_transmit(now) {
            Stack::on_frame(client, now, &f);
            moved = true;
        }

        if !sent && client.is_established(conn) {
            client.send(conn, &msg);
            sent = true;
            moved = true;
        }
        if sent && !closed {
            let got = client.recv(conn);
            if !got.is_empty() {
                echo.extend_from_slice(&got);
                moved = true;
            }
            if echo.len() >= msg.len() {
                client.close(conn);
                closed = true;
            }
        }
        if moved {
            continue;
        }

        let next = [Stack::poll_deadline(client, now), server.poll_deadline(now)]
            .into_iter()
            .flatten()
            .min();
        match next {
            Some(t) => {
                now = if t > now { t } else { Time(now.nanos() + 1) };
                Stack::on_tick(client, now);
                server.on_tick(now);
            }
            None => break,
        }
        // Teardown complete on both ends?
        if closed && client.is_closed(conn) && server.host.tracked_count() == 0 {
            break;
        }
    }

    Trace {
        server_events: server.app.seen,
        echo,
        client_error: client.conn_error(conn),
        accepts: server.host.counters.accepts,
        accept_refusals: server.host.counters.accept_refusals,
    }
}

fn sub_stack(addr: u32) -> SlTcpStack {
    SlTcpStack::new(addr, SlConfig::default(), slmetrics::shared())
}

fn mono_stack(addr: u32) -> TcpStack {
    TcpStack::new(addr, slmetrics::shared())
}

#[test]
fn echo_scenario_traces_match_across_stacks() {
    let mut sub_client = sub_stack(CLIENT_ADDR);
    let sub = run_scenario(sub_stack(SERVER_ADDR), &mut sub_client, 128);

    let mut mono_client = mono_stack(CLIENT_ADDR);
    let mono = run_scenario(mono_stack(SERVER_ADDR), &mut mono_client, 128);

    assert_eq!(sub.echo, b"hello from the parity scenario".to_vec());
    assert_eq!(sub, mono, "host-facing behaviour must be stack-agnostic");
    assert_eq!(sub.accepts, 1);
    assert_eq!(sub.client_error, None);
    // The full lifecycle surfaced through events, in the same order.
    assert_eq!(sub.server_events[0], "accepted");
    assert!(sub.server_events.contains(&"readable".to_string()));
    assert!(sub.server_events.contains(&"peer_closed".to_string()));
}

#[test]
fn refusal_scenario_traces_match_across_stacks() {
    let mut sub_client = sub_stack(CLIENT_ADDR);
    let sub = run_scenario(sub_stack(SERVER_ADDR), &mut sub_client, 0);

    let mut mono_client = mono_stack(CLIENT_ADDR);
    let mono = run_scenario(mono_stack(SERVER_ADDR), &mut mono_client, 0);

    assert_eq!(sub.accept_refusals, 1, "zero backlog refuses the connection");
    assert_eq!(sub.accept_refusals, mono.accept_refusals);
    assert_eq!(sub.accepts, 0);
    assert_eq!(sub.accepts, mono.accepts);
    assert_eq!(sub.client_error, Some(TransportError::Reset));
    assert_eq!(sub.client_error, mono.client_error);
}

/// The timer wheel is an optimization, not a behaviour change: the same
/// scenario under `Wheel` and `NaiveScan` yields identical traces.
#[test]
fn wheel_and_naive_scan_are_behaviourally_identical() {
    let mut c1 = sub_stack(CLIENT_ADDR);
    let wheel = run_scenario_mode(sub_stack(SERVER_ADDR), &mut c1, 128, TimerMode::Wheel);
    let mut c2 = sub_stack(CLIENT_ADDR);
    let naive =
        run_scenario_mode(sub_stack(SERVER_ADDR), &mut c2, 128, TimerMode::NaiveScan);
    assert_eq!(wheel, naive);

    let mut c3 = mono_stack(CLIENT_ADDR);
    let wheel = run_scenario_mode(mono_stack(SERVER_ADDR), &mut c3, 128, TimerMode::Wheel);
    let mut c4 = mono_stack(CLIENT_ADDR);
    let naive =
        run_scenario_mode(mono_stack(SERVER_ADDR), &mut c4, 128, TimerMode::NaiveScan);
    assert_eq!(wheel, naive);
}

/// A connection closed before its handshake completes leaves the table in
/// the one pump `Host::close` makes: no stack waits for a later one.
#[test]
fn a_connection_closed_before_its_handshake_leaves_no_state() {
    fn check<S: HostStack>(stack: S, name: &str) {
        let mut host = Host::new(stack, HostConfig::default());
        let id = host.connect(Time::ZERO, Endpoint::new(SERVER_ADDR, PORT)).unwrap();
        host.close(Time::ZERO, id);
        assert_eq!(host.conn_count(), 0, "{name}");
    }
    check(sub_stack(CLIENT_ADDR), "sub");
    check(mono_stack(CLIENT_ADDR), "mono");
}

/// Both stacks report the same typed errors at the same capacity edges —
/// the host-facing error surface is part of the parity contract.
#[test]
fn capacity_errors_match_across_stacks() {
    let now = Time::ZERO;
    let remote = Endpoint::new(SERVER_ADDR, PORT);

    let mut sub = sub_stack(CLIENT_ADDR);
    HostStack::set_max_conns(&mut sub, 0);
    let mut mono = mono_stack(CLIENT_ADDR);
    HostStack::set_max_conns(&mut mono, 0);
    assert_eq!(
        HostStack::try_connect(&mut sub, now, 5000, remote).unwrap_err(),
        HostStack::try_connect(&mut mono, now, 5000, remote).unwrap_err(),
    );
    assert_eq!(
        HostStack::try_connect_ephemeral(&mut sub, now, remote).unwrap_err(),
        TransportError::ConnTableFull,
    );
    assert_eq!(
        HostStack::try_connect_ephemeral(&mut mono, now, remote).unwrap_err(),
        TransportError::ConnTableFull,
    );
}
