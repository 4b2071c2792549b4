//! `Host::service_ingress` visits the connections that noted themselves in
//! `on_frame`, not the whole table. These tests hold that ready list to the
//! walk it replaced ([`Host::scan_busy`]): two hosts are fed the same
//! frames, one services from the list and one from the walk, and every
//! frame, event and counter that comes out of them must be the same.

use crate::{EchoApp, Host, HostConfig, HostStack, ServedHost};
use netsim::{MultiStack, Stack, Time};
use proptest::{collection, prop_assert, prop_assert_eq, proptest};
use slwire::{Endpoint, FourTuple, MAX_FRAME_BYTES};
use sublayer_core::{SlConfig, SlTcpStack};
use tcp_mono::TcpStack;

const SERVER: Endpoint = Endpoint { addr: 0x0A00_0001, port: 80 };
const CLIENT_ADDR: u32 = 0x0A00_0002;

fn sub(addr: u32) -> SlTcpStack {
    SlTcpStack::new(addr, SlConfig::default(), slmetrics::shared())
}

fn mono(addr: u32) -> TcpStack {
    TcpStack::new(addr, slmetrics::shared())
}

/// One client stack and two echo hosts that see the same frames: `listed`
/// services from the ready list, `walked` from the walk.
struct Rig<S: HostStack> {
    client: S,
    listed: ServedHost<S, EchoApp>,
    walked: ServedHost<S, EchoApp>,
    now: Time,
}

impl<S: HostStack> Rig<S> {
    fn new(mk: fn(u32) -> S, quantum: usize, ingress_cap: usize) -> Rig<S> {
        let host = || {
            let cfg = HostConfig { quantum, ingress_cap, ..HostConfig::default() };
            ServedHost::new(Host::new(mk(SERVER.addr), cfg), EchoApp::default())
        };
        Rig { client: mk(CLIENT_ADDR), listed: host(), walked: host(), now: Time::ZERO }
    }

    fn tuple(k: u8) -> FourTuple {
        FourTuple { local: Endpoint::new(CLIENT_ADDR, 5000 + k as u16), remote: SERVER }
    }

    fn connect(&mut self, k: u8) {
        let _ = self.client.try_connect(self.now, Self::tuple(k).local.port, SERVER);
    }

    fn client_conn(&self, k: u8) -> Option<S::ConnId> {
        self.client.conn_for_tuple(&Self::tuple(k))
    }

    /// What the client has to say reaches both hosts' queues; nothing is
    /// serviced yet.
    fn deliver(&mut self) {
        while let Some(frame) = Stack::poll_transmit(&mut self.client, self.now) {
            self.listed.on_frame(self.now, 0, &frame);
            self.walked.on_frame(self.now, 0, &frame);
        }
    }

    fn deliver_raw(&mut self, frame: &[u8]) {
        self.listed.on_frame(self.now, 0, frame);
        self.walked.on_frame(self.now, 0, frame);
    }

    /// Both hosts service their batch and answer; the answers must match,
    /// frame for frame, and go back to the client.
    fn service(&mut self) -> Result<(), String> {
        self.listed.host.check_ingress();
        self.walked.host.ready_from_scan();
        loop {
            let listed = self.listed.poll_transmit(self.now);
            prop_assert_eq!(&listed, &self.walked.poll_transmit(self.now));
            let Some((_, frame)) = listed else { break };
            Stack::on_frame(&mut self.client, self.now, &frame);
        }
        self.same_state()?;
        prop_assert_eq!(self.listed.host.pending_bytes(), 0);
        prop_assert!(self.listed.host.ingress_ready().is_empty());
        Ok(())
    }

    fn same_state(&self) -> Result<(), String> {
        self.listed.host.check_ingress();
        prop_assert_eq!(self.listed.host.counters, self.walked.host.counters);
        prop_assert_eq!(self.listed.app.echoed, self.walked.app.echoed);
        prop_assert_eq!(self.listed.host.pending_bytes(), self.walked.host.pending_bytes());
        Ok(())
    }

    /// The server drops connection `k` on the spot, frames pending or not.
    fn server_abort(&mut self, k: u8) {
        let at_server = FourTuple { local: SERVER, remote: Self::tuple(k).local };
        for served in [&mut self.listed, &mut self.walked] {
            if let Some(id) = served.host.stack().conn_for_tuple(&at_server) {
                served.host.abort(self.now, id);
            }
        }
    }

    fn tick(&mut self) {
        let next = [
            Stack::poll_deadline(&self.client, self.now),
            self.listed.poll_deadline(self.now),
        ];
        self.now = match next.into_iter().flatten().min() {
            Some(t) if t > self.now => t,
            _ => Time(self.now.nanos() + 1_000_000),
        };
        Stack::on_tick(&mut self.client, self.now);
        self.listed.on_tick(self.now);
        self.walked.host.ready_from_scan();
        self.walked.on_tick(self.now);
    }

    fn run(&mut self, ops: &[(u8, u8, u8)]) -> Result<(), String> {
        for &(op, k, n) in ops {
            match op {
                0 => self.connect(k),
                // Up to ~12 KB: more frames than any `ingress_cap` here
                // admits, so the tail is dropped and retransmitted.
                1 | 2 => {
                    if let Some(id) = self.client_conn(k) {
                        self.client.send(id, &vec![k; 1 + n as usize * 48]);
                    }
                }
                3 | 4 => self.deliver(),
                5 => self.service()?,
                6 => self.server_abort(k),
                // The client lets go of the tuple at once, so the next
                // connect from that port reuses it (and, on the monolith,
                // the connection id) while the server may still list it.
                7 => {
                    if let Some(id) = self.client_conn(k) {
                        self.client.abort(self.now, id);
                    }
                }
                8 => {
                    if let Some(id) = self.client_conn(k) {
                        self.client.close(id);
                    }
                }
                _ => self.tick(),
            }
            self.same_state()?;
        }
        self.deliver();
        self.service()
    }
}

proptest! {
    #[test]
    fn prop_ready_list_services_like_the_walk_sublayered(
        quantum in 1usize..4,
        ingress_cap in 1usize..6,
        ops in collection::vec((0u8..10, 0u8..6, proptest::num::u8::ANY), 0..80),
    ) {
        Rig::new(sub, quantum, ingress_cap).run(&ops)?;
    }

    #[test]
    fn prop_ready_list_services_like_the_walk_monolithic(
        quantum in 1usize..4,
        ingress_cap in 1usize..6,
        ops in collection::vec((0u8..10, 0u8..6, proptest::num::u8::ANY), 0..80),
    ) {
        Rig::new(mono, quantum, ingress_cap).run(&ops)?;
    }
}

/// A connection reset by the server with frames still queued leaves a
/// stale entry in the ready list; the client reconnecting from the same
/// port makes the monolith reuse the id before the list is serviced.
fn closed_with_frames_pending_then_reused<S: HostStack>(mk: fn(u32) -> S) {
    let mut rig = Rig::new(mk, 1, 8);
    for k in 0..3 {
        rig.connect(k);
    }
    for _ in 0..3 {
        rig.deliver();
        rig.service().unwrap();
    }
    for k in 0..3 {
        let id = rig.client_conn(k).expect("established");
        rig.client.send(id, &[k; 3000]);
    }
    rig.deliver();
    assert_eq!(rig.listed.host.ingress_ready().len(), 3);
    assert_eq!(rig.listed.host.ingress_ready(), rig.listed.host.scan_busy());
    assert!(rig.listed.host.pending_bytes() > 3 * 1000, "more than one frame each");

    rig.server_abort(1);
    assert_eq!(rig.listed.host.ingress_ready().len(), 3, "the entry outlives the connection");
    assert_eq!(rig.listed.host.scan_busy().len(), 2);
    rig.same_state().unwrap();

    // Later, so that the new incarnation draws another ISN and the reset
    // on its way to the old one cannot pass for an answer to the new SYN.
    rig.now = Time(rig.now.nanos() + 1_000_000_000);
    let id = rig.client_conn(1).expect("the reset has not reached the client");
    rig.client.abort(rig.now, id);
    rig.connect(1);
    rig.deliver();
    rig.service().unwrap();
    for _ in 0..4 {
        rig.deliver();
        rig.service().unwrap();
    }
    let id = rig.client_conn(1).expect("reconnected");
    assert!(rig.client.is_established(id));
    assert_eq!(rig.listed.app.served, 4);
}

#[test]
fn closed_with_frames_pending_then_reused_sublayered() {
    closed_with_frames_pending_then_reused(sub);
}

#[test]
fn closed_with_frames_pending_then_reused_monolithic() {
    closed_with_frames_pending_then_reused(mono);
}

#[test]
fn spare_buffers_are_bounded_in_number_and_size() {
    let mut rig = Rig::new(sub, 4, 64);
    // One frame larger than any either stack accepts, then more frames in
    // the batch than the host keeps buffers.
    rig.deliver_raw(&vec![0; MAX_FRAME_BYTES + 1]);
    for i in 0..100u8 {
        rig.deliver_raw(&[i; 40]);
    }
    rig.service().unwrap();
    // The next batch is copied into those buffers and they all come back.
    for i in 0..100u8 {
        rig.deliver_raw(&[i; 40]);
    }
    rig.service().unwrap();
}
