//! The one scripted client the host campaigns (scale, shard, overload,
//! failover) run against a server: connect → request → check the reply
//! as it arrives → linger → close.
//!
//! What differs between campaigns is data handed to [`Client::new`] and
//! its `with_*` setters: the request, the [`Reply`] expected, the local
//! ports to try (one port means no retry), the linger, and an optional
//! read budget. The client is generic over the same [`HostStack`]
//! surface the server host uses, so every campaign is stack-agnostic by
//! construction, and it keeps no copy of the reply, so the shard sweep
//! can run 100k of them.

use netsim::{Dur, HostStack, ReadBudget, Stack, Time, TransportError};
use slwire::Endpoint;

/// The server every campaign client dials.
pub const SERVER: Endpoint = Endpoint {
    addr: crate::A,
    port: 80,
};
/// The local port of a client's first attempt.
pub const CLIENT_PORT: u16 = 5000;
/// Wait between an attempt's typed error and the next attempt.
const RETRY_GAP: Dur = Dur(200_000_000);

/// The reply a client expects to its request.
#[derive(Clone, Copy, Debug)]
pub enum Reply {
    /// The request, echoed back byte for byte.
    Echo,
    /// `len` bytes, byte `j` being `byte(j)`.
    Pattern { len: usize, byte: fn(usize) -> u8 },
}

/// Client phases; time-driven transitions happen in `drive`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Waiting for `wake_at` to connect: the first attempt or a retry.
    Idle,
    Connecting,
    /// Request sent; checking the reply.
    Await,
    /// Reply complete; holding the connection open until `wake_at`.
    Linger,
    /// FIN sent; waiting out the close handshake.
    Closing,
    Done,
    Failed,
}

/// One scripted client around its own transport.
pub struct Client<S: HostStack> {
    stack: S,
    req: Vec<u8>,
    reply: Reply,
    /// Local port of each attempt; a typed error before the reply
    /// completes retries from the next one until they run out.
    ports: Vec<u16>,
    /// Idle hold between the complete reply and the close.
    linger: Dur,
    /// A slow reader drains only what its budget grants.
    read_budget: Option<ReadBudget>,
    phase: Phase,
    conn: Option<S::ConnId>,
    /// When the script next acts on its own: connect in `Idle`, close in
    /// `Linger`.
    wake_at: Time,
    /// Index into `ports` of the current attempt — the retries used.
    pub attempt: usize,
    /// Reply bytes received on the current attempt.
    pub got: usize,
    /// A reply byte on the current attempt was not the expected one.
    pub corrupt: bool,
    pub connected_at: Option<Time>,
    /// When the handshake completed (accept latency's far edge).
    pub established_at: Option<Time>,
    pub first_reply_at: Option<Time>,
    /// When the reply completed.
    pub done_at: Option<Time>,
    /// The first typed error before the reply completed, on any attempt.
    pub error: Option<TransportError>,
    /// A typed error after the reply completed, during linger or close.
    pub late_error: Option<TransportError>,
}

impl<S: HostStack> Client<S> {
    /// A client that connects from [`CLIENT_PORT`] at `connect_at`, sends
    /// `req`, expects `reply`, and closes as soon as the reply completes.
    pub fn new(stack: S, connect_at: Time, req: Vec<u8>, reply: Reply) -> Self {
        Client {
            stack,
            req,
            reply,
            ports: vec![CLIENT_PORT],
            linger: Dur::ZERO,
            read_budget: None,
            phase: Phase::Idle,
            conn: None,
            wake_at: connect_at,
            attempt: 0,
            got: 0,
            corrupt: false,
            connected_at: None,
            established_at: None,
            first_reply_at: None,
            done_at: None,
            error: None,
            late_error: None,
        }
    }

    /// Connect from `ports[0]`, and retry from each later port in turn.
    pub fn with_ports(mut self, ports: Vec<u16>) -> Self {
        self.ports = ports;
        self
    }

    pub fn with_linger(mut self, linger: Dur) -> Self {
        self.linger = linger;
        self
    }

    pub fn with_read_budget(mut self, budget: Option<ReadBudget>) -> Self {
        self.read_budget = budget;
        self
    }

    /// The close handshake finished without an error.
    pub fn closed(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Reply byte `j`, or `None` past the end of the reply.
    fn expected(&self, j: usize) -> Option<u8> {
        match self.reply {
            Reply::Echo => self.req.get(j).copied(),
            Reply::Pattern { len, byte } => (j < len).then(|| byte(j)),
        }
    }

    fn reply_len(&self) -> usize {
        match self.reply {
            Reply::Echo => self.req.len(),
            Reply::Pattern { len, .. } => len,
        }
    }

    /// When the script itself next needs the clock.
    fn own_deadline(&self) -> Option<Time> {
        matches!(self.phase, Phase::Idle | Phase::Linger).then_some(self.wake_at)
    }

    fn connect(&mut self, now: Time) {
        match self
            .stack
            .try_connect(now, self.ports[self.attempt], SERVER)
        {
            Ok(id) => {
                self.conn = Some(id);
                self.connected_at.get_or_insert(now);
                self.phase = Phase::Connecting;
            }
            Err(e) => {
                self.error.get_or_insert(e);
                self.phase = Phase::Failed;
            }
        }
    }

    fn drive(&mut self, now: Time) {
        if let Some(id) = self.conn {
            if let Some(e) = self.stack.conn_error(id) {
                self.conn = None;
                if self.done_at.is_some() {
                    self.late_error = Some(e);
                    self.phase = Phase::Failed;
                } else {
                    self.error.get_or_insert(e);
                    if self.attempt + 1 < self.ports.len() {
                        self.attempt += 1;
                        self.got = 0;
                        self.corrupt = false;
                        self.wake_at = now + RETRY_GAP;
                        self.phase = Phase::Idle;
                    } else {
                        self.phase = Phase::Failed;
                    }
                }
            }
        }
        loop {
            match self.phase {
                Phase::Idle => {
                    if now < self.wake_at {
                        return;
                    }
                    self.connect(now);
                }
                Phase::Connecting => {
                    let id = self.conn.expect("connected past Idle");
                    if !self.stack.is_established(id) {
                        return;
                    }
                    self.established_at.get_or_insert(now);
                    self.stack.send(id, &self.req);
                    self.phase = Phase::Await;
                }
                Phase::Await => {
                    let id = self.conn.expect("connected past Idle");
                    if let Some(b) = &mut self.read_budget {
                        // At rate 0, nothing is ever granted.
                        if b.grant(now) == 0 {
                            return;
                        }
                    }
                    let data = self.stack.recv(id);
                    if let Some(b) = &mut self.read_budget {
                        b.consume(data.len() as u64);
                    }
                    if !data.is_empty() {
                        self.first_reply_at.get_or_insert(now);
                    }
                    for &b in &data {
                        if self.expected(self.got) != Some(b) {
                            self.corrupt = true;
                        }
                        self.got += 1;
                    }
                    if self.got < self.reply_len() {
                        return;
                    }
                    self.done_at = Some(now);
                    self.wake_at = now + self.linger;
                    self.phase = Phase::Linger;
                }
                Phase::Linger => {
                    if now < self.wake_at {
                        return;
                    }
                    let id = self.conn.expect("connected past Idle");
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

/// Frames, transmissions and timers go to the transport; the script runs
/// after every frame and tick, and the next deadline is the earlier of
/// the transport's and the script's own.
impl<S: HostStack> Stack for Client<S> {
    fn on_frame(&mut self, now: Time, frame: &[u8]) {
        self.stack.on_frame(now, frame);
        self.drive(now);
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        self.stack.poll_transmit(now)
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        [self.own_deadline(), self.stack.poll_deadline(now)]
            .into_iter()
            .flatten()
            .min()
    }

    fn on_tick(&mut self, now: Time) {
        self.stack.on_tick(now);
        self.drive(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::tally;
    use netsim::{LinkParams, MultiStackNode, NodeId, SimNet, StackNode};
    use slconform::ConformStack;
    use slhost::{EchoApp, Host, HostConfig, ServedHost};
    use sublayer_core::SlTcpStack;

    type Server = ServedHost<SlTcpStack, EchoApp>;

    /// One echo client against an echo server 1 ms away.
    fn echo_net(linger: Dur) -> (SimNet, NodeId, NodeId) {
        let cfg = HostConfig {
            listen_port: SERVER.port,
            ..HostConfig::default()
        };
        let server = ServedHost::new(
            Host::new(SlTcpStack::mk(SERVER.addr), cfg),
            EchoApp::default(),
        );
        let client = Client::new(
            SlTcpStack::mk(crate::B),
            Time(1_000_000),
            vec![7; 100],
            Reply::Echo,
        )
        .with_linger(linger);
        let (mut net, sid, cids) = netsim::star(
            1,
            server,
            [client],
            LinkParams::delay_only(Dur::from_millis(1)),
        );
        net.poll_all();
        (net, sid, cids[0])
    }

    fn client(net: &SimNet, cid: NodeId) -> &Client<SlTcpStack> {
        &net.node::<StackNode<Client<SlTcpStack>>>(cid).stack
    }

    /// Process events until the one that completes the reply.
    fn step_to_reply(net: &mut SimNet, cid: NodeId) {
        while client(net, cid).done_at.is_none() {
            assert!(net.step(), "the net went idle before the reply completed");
        }
    }

    #[test]
    fn an_error_after_the_reply_fails_an_echo_but_not_a_failover_client() {
        let (mut net, sid, cid) = echo_net(Dur::from_secs(1));
        step_to_reply(&mut net, cid);
        // The server resets the connection while the client lingers.
        let now = net.now();
        let host = &mut net.node_mut::<MultiStackNode<Server>>(sid).stack.host;
        let ids = host.stack().established();
        assert_eq!(ids.len(), 1);
        host.abort(now, ids[0]);
        net.poll_node(sid);
        net.run_until(Time(3_000_000_000));

        let c = client(&net, cid);
        assert!(
            c.done_at.is_some() && !c.corrupt,
            "the echo completed intact"
        );
        assert_eq!(c.late_error, Some(TransportError::Reset));
        assert!(!c.closed());
        // Failover's and overload's reading: nothing went wrong before the
        // reply completed.
        assert_eq!(c.error, None);
        // Scale's and shard's reading: the connection failed.
        let t = tally::<SlTcpStack>(&net, &[cid]);
        assert_eq!(
            (t.completed, t.client_errors, t.first_error),
            (1, 1, Some(TransportError::Reset))
        );
    }

    #[test]
    fn linger_zero_closes_in_the_drive_that_completes_the_reply() {
        for (linger, phase) in [
            (Dur::ZERO, Phase::Closing),
            (Dur::from_secs(1), Phase::Linger),
        ] {
            let (mut net, _, cid) = echo_net(linger);
            step_to_reply(&mut net, cid);
            assert_eq!(client(&net, cid).phase, phase, "linger {linger:?}");
        }
    }
}
