//! Deterministic host-level coverage for the overload-control mechanisms,
//! run identically against both transport stacks:
//!
//! - **shed-idle-LIFO**: at High pressure, idle-and-empty accepted
//!   connections are reset most-recently-accepted first, while a
//!   connection holding bytes is untouchable;
//! - **deferral / release**: a connection establishing under pressure is
//!   held un-accepted, then admitted once occupancy recedes;
//! - **slow-drain eviction**: an accepted connection whose buffered bytes
//!   stall past the check interval is reset and its memory reclaimed;
//! - **drain / quiesce**: after [`Host::drain`] new flows are refused
//!   statelessly while existing ones run to completion, ending with
//!   [`Host::is_drained`].
//!
//! The scenarios drive the host directly over a zero-delay full-duplex
//! frame exchange (no simulator), so every assertion is exact: which
//! connection died, in which order, and what every counter reads.

use netsim::{Dur, MultiStack, Pressure, Stack, Time, TransportError};
use slhost::{
    Host, HostApp, HostConfig, HostEvent, HostStack, ResourceBudget, ServedHost,
};
use sublayer_core::{SlConfig, SlTcpStack};
use slwire::Endpoint;
use tcp_mono::TcpStack;

const SERVER_ADDR: u32 = 0x0A00_0001;
const CLIENT_BASE: u32 = 0x0A00_0100;
const PORT: u16 = 80;

fn sub_stack(addr: u32) -> SlTcpStack {
    SlTcpStack::new(addr, SlConfig::default(), slmetrics::shared())
}

fn mono_stack(addr: u32) -> TcpStack {
    TcpStack::new(addr, slmetrics::shared())
}

/// Records every event; accepts everything; reads (and optionally echoes)
/// only when `auto_read` is set, so a test can pin server memory by
/// simply not reading.
struct RecApp<S: HostStack> {
    auto_read: bool,
    echo: bool,
    events: Vec<(&'static str, S::ConnId)>,
}

impl<S: HostStack> RecApp<S> {
    fn new(auto_read: bool, echo: bool) -> Self {
        RecApp { auto_read, echo, events: Vec::new() }
    }

    fn ids(&self, label: &str) -> Vec<S::ConnId> {
        self.events
            .iter()
            .filter(|(l, _)| *l == label)
            .map(|&(_, id)| id)
            .collect()
    }
}

impl<S: HostStack> HostApp<S> for RecApp<S> {
    fn on_event(&mut self, now: Time, host: &mut Host<S>, ev: HostEvent<S::ConnId>) {
        match ev {
            HostEvent::Accepted(id) => {
                host.accept();
                self.events.push(("accepted", id));
            }
            HostEvent::Readable(id) => {
                self.events.push(("readable", id));
                if self.auto_read {
                    let data = host.recv(now, id);
                    if self.echo && !data.is_empty() {
                        host.send(now, id, &data);
                    }
                }
            }
            HostEvent::Writable(id) => self.events.push(("writable", id)),
            HostEvent::PeerClosed(id) => {
                self.events.push(("peer_closed", id));
                host.close(now, id);
            }
            HostEvent::Closed(id) => self.events.push(("closed", id)),
            HostEvent::Error(id, _) => self.events.push(("error", id)),
        }
    }
}

/// N client stacks wired straight to one served host; client `i` is the
/// host's simulator port `i`.
struct Rig<S: HostStack> {
    server: ServedHost<S, RecApp<S>>,
    clients: Vec<S>,
    now: Time,
}

impl<S: HostStack> Rig<S> {
    fn new(server: S, cfg: HostConfig, app: RecApp<S>, clients: Vec<S>) -> Self {
        Rig { server: ServedHost::new(Host::new(server, cfg), app), clients, now: Time::ZERO }
    }

    fn connect(&mut self, i: usize) -> S::ConnId {
        let now = self.now;
        self.clients[i]
            .try_connect(now, 5000, Endpoint::new(SERVER_ADDR, PORT))
            .expect("client connect")
    }

    /// Exchange frames until both sides go quiet at the current instant.
    fn pump(&mut self) {
        loop {
            let mut moved = false;
            for (i, c) in self.clients.iter_mut().enumerate() {
                while let Some(f) = Stack::poll_transmit(c, self.now) {
                    self.server.on_frame(self.now, i, &f);
                    moved = true;
                }
            }
            while let Some((port, f)) = self.server.poll_transmit(self.now) {
                Stack::on_frame(&mut self.clients[port], self.now, &f);
                moved = true;
            }
            if !moved {
                return;
            }
        }
    }

    /// Pump and tick through every deadline up to (and including) `target`.
    fn run_until(&mut self, target: Time) {
        for _ in 0..100_000 {
            self.pump();
            let next = self
                .clients
                .iter()
                .map(|c| Stack::poll_deadline(c, self.now))
                .chain(std::iter::once(self.server.poll_deadline(self.now)))
                .flatten()
                .min()
                .filter(|&t| t <= target);
            let Some(t) = next else { break };
            self.now = if t > self.now { t } else { Time(self.now.nanos() + 1) };
            let now = self.now;
            for c in self.clients.iter_mut() {
                Stack::on_tick(c, now);
            }
            self.server.on_tick(now);
        }
        self.now = target;
        let now = self.now;
        for c in self.clients.iter_mut() {
            Stack::on_tick(c, now);
        }
        self.server.on_tick(now);
        self.pump();
    }
}

/// 64 KB budget: Elevated at 32 KB, High at 48 KB, Critical at ~57 KB.
fn tight_budget() -> ResourceBudget {
    ResourceBudget {
        max_bytes: 64 * 1024,
        // Long check / zero floor: slow-drain eviction stays out of the
        // way of the scenarios that are not about it.
        drain_check: Dur::from_secs(30),
        min_drain_bytes: 0,
        shed_idle_grace: Dur::from_millis(500),
    }
}

fn shed_scenario<S: HostStack>(mk: impl Fn(u32) -> S) {
    let cfg = HostConfig {
        listen_port: PORT,
        budget: tight_budget(),
        ..HostConfig::default()
    };
    let mut rig = Rig::new(
        mk(SERVER_ADDR),
        cfg,
        RecApp::new(/*auto_read=*/ false, false),
        (0..3).map(|i| mk(CLIENT_BASE + i as u32)).collect(),
    );

    // Clients 0 and 1 establish, then sit idle-and-empty past the grace.
    let c0 = rig.connect(0);
    rig.run_until(Time(1_000_000));
    let c1 = rig.connect(1);
    rig.run_until(Time(600_000_000));
    assert_eq!(rig.server.host.counters.accepts, 2);
    assert_eq!(rig.server.host.pressure(), Pressure::Nominal);

    // Client 2 pushes 50 KB the app never reads: occupancy crosses High
    // and the shed pass runs.
    let c2 = rig.connect(2);
    rig.run_until(Time(700_000_000));
    rig.clients[2].send(c2, &vec![0x42u8; 50 * 1024]);
    rig.run_until(Time(1_200_000_000));

    let k = &rig.server.host.counters;
    assert_eq!(k.sheds, 2, "both idle connections shed");
    assert_eq!(rig.clients[0].conn_error(c0), Some(TransportError::Reset));
    assert_eq!(rig.clients[1].conn_error(c1), Some(TransportError::Reset));
    // The buffer-holding connection is untouchable by the shed pass.
    assert_eq!(rig.clients[2].conn_error(c2), None);

    // LIFO: the most recently accepted idle connection died first.
    let accepted = rig.server.app.ids("accepted");
    let errors = rig.server.app.ids("error");
    assert_eq!(errors.len(), 2);
    assert_eq!(errors[0], accepted[1], "newest idle connection shed first");
    assert_eq!(errors[1], accepted[0]);
}

fn deferral_scenario<S: HostStack>(mk: impl Fn(u32) -> S) {
    let cfg = HostConfig {
        listen_port: PORT,
        budget: tight_budget(),
        ..HostConfig::default()
    };
    let mut rig = Rig::new(
        mk(SERVER_ADDR),
        cfg,
        RecApp::new(false, false),
        (0..2).map(|i| mk(CLIENT_BASE + i as u32)).collect(),
    );

    // Client 0 pins 40 KB of unread data: Elevated (62% of budget).
    let c0 = rig.connect(0);
    rig.run_until(Time(1_000_000));
    rig.clients[0].send(c0, &vec![7u8; 40 * 1024]);
    rig.run_until(Time(100_000_000));
    assert_eq!(rig.server.host.pressure(), Pressure::Elevated);

    // Client 1 establishes under pressure: held un-accepted, not refused.
    let c1 = rig.connect(1);
    rig.run_until(Time(200_000_000));
    assert!(rig.clients[1].is_established(c1), "deferred, not refused");
    assert_eq!(rig.clients[1].conn_error(c1), None);
    assert_eq!(rig.server.host.counters.accepts, 1);
    assert_eq!(rig.server.host.counters.accept_deferrals, 1);

    // The app finally reads: occupancy drops, pressure recedes, and the
    // deferred connection is admitted.
    let accepted = rig.server.app.ids("accepted");
    let got = rig.server.host.recv(rig.now, accepted[0]);
    assert_eq!(got.len(), 40 * 1024);
    rig.run_until(Time(300_000_000));
    assert_eq!(rig.server.host.pressure(), Pressure::Nominal);
    assert_eq!(rig.server.host.counters.accepts, 2, "deferred conn admitted");
    assert_eq!(rig.clients[1].conn_error(c1), None);
}

fn slow_drain_scenario<S: HostStack>(mk: impl Fn(u32) -> S) {
    let cfg = HostConfig {
        listen_port: PORT,
        budget: ResourceBudget {
            max_bytes: 64 * 1024,
            drain_check: Dur::from_millis(200),
            min_drain_bytes: 1024,
            shed_idle_grace: Dur::from_secs(30),
        },
        ..HostConfig::default()
    };
    let mut rig = Rig::new(
        mk(SERVER_ADDR),
        cfg,
        RecApp::new(false, false),
        vec![mk(CLIENT_BASE)],
    );

    // 40 KB arrives and then stalls (the app never reads, the peer sends
    // nothing more): two check intervals later the connection is evicted
    // and its memory reclaimed.
    let c0 = rig.connect(0);
    rig.run_until(Time(1_000_000));
    rig.clients[0].send(c0, &vec![9u8; 40 * 1024]);
    rig.run_until(Time(100_000_000));
    assert!(rig.server.host.counters.mem_used >= 40 * 1024);

    rig.run_until(Time(1_000_000_000));
    let k = &rig.server.host.counters;
    assert_eq!(k.slow_drain_evictions, 1, "stalled connection evicted");
    assert_eq!(rig.clients[0].conn_error(c0), Some(TransportError::Reset));
    assert_eq!(k.mem_used, 0, "evicted connection's memory reclaimed");
    assert_eq!(rig.server.host.tracked_count(), 0);
}

fn drain_scenario<S: HostStack>(mk: impl Fn(u32) -> S) {
    // No budget: drain/quiesce works independently of overload control.
    let cfg = HostConfig { listen_port: PORT, ..HostConfig::default() };
    let mut rig = Rig::new(
        mk(SERVER_ADDR),
        cfg,
        RecApp::new(/*auto_read=*/ true, /*echo=*/ true),
        (0..2).map(|i| mk(CLIENT_BASE + i as u32)).collect(),
    );

    let c0 = rig.connect(0);
    rig.run_until(Time(100_000_000));
    rig.clients[0].send(c0, b"request before the drain");
    rig.run_until(Time(200_000_000));

    rig.server.host.drain();
    assert!(rig.server.host.is_draining());
    assert!(!rig.server.host.is_drained(), "c0 still live");

    // A post-drain connect is refused statelessly: typed error on the
    // client, a stack-level refusal counter on the server, no host state.
    let c1 = rig.connect(1);
    rig.run_until(Time(300_000_000));
    assert_eq!(rig.clients[1].conn_error(c1), Some(TransportError::Reset));
    assert!(!rig.clients[1].is_established(c1));
    assert!(rig.server.host.stack().stack_pressure_refusals() >= 1);

    // The pre-drain connection finishes its echo untouched and closes.
    let echo = rig.clients[0].recv(c0);
    assert_eq!(echo, b"request before the drain".to_vec());
    assert_eq!(rig.clients[0].conn_error(c0), None);
    rig.clients[0].close(c0);
    // Outlast the sublayered stack's 10 s TIME_WAIT (it holds both
    // closers there).
    rig.run_until(Time(12_000_000_000));
    assert!(rig.clients[0].is_closed(c0));
    assert!(rig.server.host.is_drained(), "all connections gone after drain");
}

#[test]
fn shed_idle_lifo_both_stacks() {
    shed_scenario(sub_stack);
    shed_scenario(mono_stack);
}

#[test]
fn deferral_and_release_both_stacks() {
    deferral_scenario(sub_stack);
    deferral_scenario(mono_stack);
}

#[test]
fn slow_drain_eviction_both_stacks() {
    slow_drain_scenario(sub_stack);
    slow_drain_scenario(mono_stack);
}

#[test]
fn drain_quiesce_both_stacks() {
    drain_scenario(sub_stack);
    drain_scenario(mono_stack);
}
