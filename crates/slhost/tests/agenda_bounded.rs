//! A host never calls the stack's `poll_transmit` or `on_tick`: it drives
//! connections one at a time through `pump_conn` / `take_frame` /
//! `tick_conn`, with its own timer wheel. So the stack under it keeps no
//! schedule of its own — its ready set and deadline index stay empty after
//! every step — while a bare stack polled beside it keeps both bounded:
//! never more entries than connections, none once the table drains, so
//! pumping a connection has to take it off the ready set, and a connection
//! that goes has to take its entries along.

use netsim::{MultiStack, Pressure, Scheduled, Stack, Time};
use slhost::{EchoApp, Host, HostConfig, ServedHost};
use sublayer_core::{SlConfig, SlTcpStack};
use slwire::Endpoint;
use tcp_mono::TcpStack;

const SERVER_ADDR: u32 = 0x0A00_0001;
const CLIENT_ADDR: u32 = 0x0A00_0002;
const PORT: u16 = 80;
const CONNS: usize = 4;
const OPS: usize = 1_000;

/// `OPS` 64-byte echo ops round-robin over `CONNS` connections from one
/// bare client stack to a served host, then close them all and run both
/// ends dry.
fn echo_then_drain<S: Scheduled>(stack: S, mut client: S) {
    let sizes = |s: &S| s.agenda().sizes();
    let cfg = HostConfig {
        listen_port: PORT,
        ..HostConfig::default()
    };
    let mut server = ServedHost::new(Host::new(stack, cfg), EchoApp::default());
    let mut now = Time::ZERO;
    let conns: Vec<S::ConnId> = (0..CONNS)
        .map(|i| {
            client
                .try_connect(now, 5000 + i as u16, Endpoint::new(SERVER_ADDR, PORT))
                .unwrap()
        })
        .collect();
    let request = [0x5Au8; 64];
    let (mut done, mut in_flight, mut got, mut closed) = (0, false, 0, false);

    for _ in 0..1_000_000 {
        let mut moved = false;
        while let Some(f) = Stack::poll_transmit(&mut client, now) {
            server.on_frame(now, 0, &f);
            moved = true;
        }
        while let Some((_, f)) = server.poll_transmit(now) {
            Stack::on_frame(&mut client, now, &f);
            moved = true;
        }
        assert_eq!(sizes(server.host.stack()), (0, 0), "the host's stack schedules nothing");
        let ((ready, deadlines), live) = (sizes(&client), client.conn_count());
        assert!(
            ready <= live && deadlines <= live,
            "client: {ready} ready, {deadlines} deadlines, {live} connections"
        );

        let conn = conns[done % CONNS];
        if done < OPS && !in_flight && conns.iter().all(|&c| client.is_established(c)) {
            if done == OPS / 2 {
                // Would make every connection of a scheduling stack ready
                // at once.
                server.host.set_pressure_floor(now, Pressure::High);
                server.host.set_pressure_floor(now, Pressure::Nominal);
            }
            assert_eq!(client.send(conn, &request), request.len());
            (in_flight, got, moved) = (true, 0, true);
        }
        if in_flight {
            got += client.recv(conn).len();
            if got == request.len() {
                (in_flight, moved) = (false, true);
                done += 1;
            }
        }
        if done == OPS && !closed {
            conns.iter().for_each(|&c| client.close(c));
            (closed, moved) = (true, true);
        }
        if moved {
            continue;
        }
        let next = [
            Stack::poll_deadline(&client, now),
            server.poll_deadline(now),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some(next) = next else { break };
        now = next.max(Time(now.nanos() + 1));
        Stack::on_tick(&mut client, now);
        server.on_tick(now);
    }

    assert_eq!(done, OPS);
    assert_eq!(server.app.echoed, (OPS * request.len()) as u64);
    assert!(server.host.is_drained(), "the host's table drained");
    assert_eq!(sizes(server.host.stack()), (0, 0));
    assert_eq!(client.conn_count(), 0, "TIME-WAIT ran out");
    assert_eq!(sizes(&client), (0, 0));
}

#[test]
fn sublayered_agenda_stays_bounded_under_a_host() {
    let stack = |addr| SlTcpStack::new(addr, SlConfig::default(), slmetrics::shared());
    echo_then_drain(stack(SERVER_ADDR), stack(CLIENT_ADDR));
}

#[test]
fn monolithic_agenda_stays_bounded_under_a_host() {
    let stack = |addr| TcpStack::new(addr, slmetrics::shared());
    echo_then_drain(stack(SERVER_ADDR), stack(CLIENT_ADDR));
}
