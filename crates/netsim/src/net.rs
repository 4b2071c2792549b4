//! The discrete-event network simulator.
//!
//! A [`SimNet`] owns a set of [`Node`]s connected by point-to-point links.
//! Nodes are poll-driven, in the style of event-driven network stacks such as
//! smoltcp: the simulator calls [`Node::on_frame`] / [`Node::on_timer`] and
//! then [`Node::poll`], and the node responds by queuing actions (frames to
//! transmit, timers to arm) on its [`NodeCtx`]. All scheduling runs on the
//! simulated clock with deterministic tie-breaking, and every random choice
//! (fault injection) comes from per-link forks of one seed, so runs are
//! exactly reproducible.

use crate::event::EventQueue;
use crate::fault::{FaultInjector, FaultProfile, FaultStats};
use crate::rng::DetRng;
use crate::time::{Dur, Time};
use std::any::Any;
use std::collections::HashSet;

/// Index of a node within a [`SimNet`].
pub type NodeId = usize;
/// Index of a port (link attachment point) on a node.
pub type PortId = usize;
/// Index of a link within a [`SimNet`].
pub type LinkId = usize;

/// Identifier of an armed timer, used for cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// Physical characteristics of a link (applied independently per direction).
#[derive(Clone, Debug)]
pub struct LinkParams {
    /// One-way propagation delay.
    pub delay: Dur,
    /// Transmission rate in bits/second; `0` means infinite (no serialization
    /// delay).
    pub rate_bps: u64,
    /// Maximum frame size in bytes; larger frames are dropped. `0` = no limit.
    pub mtu: usize,
    /// Impairments applied to frames in flight.
    pub fault: FaultProfile,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            delay: Dur::from_micros(10),
            rate_bps: 0,
            mtu: 0,
            fault: FaultProfile::none(),
        }
    }
}

impl LinkParams {
    /// A link with only a propagation delay.
    pub fn delay_only(delay: Dur) -> LinkParams {
        LinkParams { delay, ..Default::default() }
    }

    pub fn with_fault(mut self, fault: FaultProfile) -> Self {
        self.fault = fault;
        self
    }

    pub fn with_rate(mut self, bps: u64) -> Self {
        self.rate_bps = bps;
        self
    }

    pub fn with_mtu(mut self, mtu: usize) -> Self {
        self.mtu = mtu;
        self
    }
}

/// Behaviour of a simulated node. Implementations embed whatever protocol
/// stack and application logic the experiment needs.
pub trait Node: Any {
    /// A frame arrived on `port`.
    fn on_frame(&mut self, port: PortId, frame: Vec<u8>, ctx: &mut NodeCtx);
    /// A previously armed timer fired. `token` is the caller-chosen tag.
    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx);
    /// Give the node an opportunity to transmit. Called once at startup and
    /// after every event delivered to this node.
    fn poll(&mut self, _ctx: &mut NodeCtx) {}
}

enum Action {
    Send { port: PortId, frame: Vec<u8> },
    Arm { at: Time, token: u64, id: TimerId },
    Cancel { id: TimerId },
}

/// Interface through which a [`Node`] interacts with the simulator during a
/// callback.
pub struct NodeCtx {
    /// Current simulated time.
    pub now: Time,
    /// The node being called.
    pub node: NodeId,
    actions: Vec<Action>,
    next_timer: u64,
}

impl NodeCtx {
    /// Queue a frame for transmission on `port`.
    pub fn send(&mut self, port: PortId, frame: Vec<u8>) {
        self.actions.push(Action::Send { port, frame });
    }

    /// Arm a one-shot timer to fire at absolute time `at` with `token`.
    pub fn arm_at(&mut self, at: Time, token: u64) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.actions.push(Action::Arm { at, token, id });
        id
    }

    /// Arm a one-shot timer to fire after `d` with `token`.
    pub fn arm_in(&mut self, d: Dur, token: u64) -> TimerId {
        self.arm_at(self.now + d, token)
    }

    /// Cancel a previously armed timer. Cancelling an already-fired timer is
    /// a harmless no-op.
    pub fn cancel(&mut self, id: TimerId) {
        self.actions.push(Action::Cancel { id });
    }
}

/// A scheduled change to the network itself (chaos campaigns): link
/// partitions, profile/rate swaps, and node restarts, executed at a chosen
/// simulated time like any other event so campaigns are fully replayable.
#[derive(Clone, Debug)]
pub enum AdminOp {
    /// Sever the link: frames offered while down are counted and discarded.
    LinkDown(LinkId),
    /// Restore a severed link.
    LinkUp(LinkId),
    /// Swap the link's fault profile (both directions).
    SetFault(LinkId, FaultProfile),
    /// Change the link's transmission rate in bits/second (`0` = infinite).
    SetRate(LinkId, u64),
    /// Restart a node: its state is rebuilt from its registered factory and
    /// all of its pending timers are invalidated. Frames already in flight
    /// toward it still arrive (at the fresh instance).
    RestartNode(NodeId),
}

enum Event {
    Deliver { node: NodeId, port: PortId, frame: Vec<u8> },
    Timer { node: NodeId, token: u64, id: TimerId, epoch: u64 },
    Admin(AdminOp),
    /// Index into [`SimNet::hooks`]: a scheduled callback with full
    /// simulator access ([`AdminOp`] is `Clone + Debug` data, so closures
    /// cannot ride it).
    Hook(usize),
}

/// A scheduled control-plane intervention needing full simulator access —
/// e.g. installing reroute tables into router nodes once a partition is
/// "detected", or wiping a middlebox's translation table.
type Hook = Box<dyn FnOnce(&mut SimNet)>;

struct Direction {
    injector: FaultInjector,
    busy_until: Time,
    stats: DirStats,
}

/// Per-direction link statistics.
#[derive(Clone, Debug, Default)]
pub struct DirStats {
    /// Frames offered by the sender.
    pub tx_frames: u64,
    /// Bytes offered by the sender.
    pub tx_bytes: u64,
    /// Frames actually delivered (after faults; includes duplicates).
    pub rx_frames: u64,
    /// Bytes actually delivered.
    pub rx_bytes: u64,
    /// Frames dropped for exceeding the MTU.
    pub mtu_drops: u64,
    /// Frames discarded because the link was partitioned (down).
    pub partition_drops: u64,
}

struct Link {
    params: LinkParams,
    ends: [(NodeId, PortId); 2],
    dirs: [Direction; 2],
    /// False while the link is partitioned by [`AdminOp::LinkDown`].
    up: bool,
}

/// Rebuilds a node from scratch after [`AdminOp::RestartNode`].
type NodeFactory = Box<dyn Fn() -> Box<dyn Node>>;

/// The simulator: nodes, links, clock, and event queue.
pub struct SimNet {
    nodes: Vec<Box<dyn Node>>,
    links: Vec<Link>,
    /// `port_map[node][port] = (link, direction index when transmitting)`
    port_map: Vec<Vec<Option<(LinkId, usize)>>>,
    queue: EventQueue<Event>,
    now: Time,
    rng: DetRng,
    next_timer: u64,
    cancelled: HashSet<TimerId>,
    events_processed: u64,
    /// Bumped on restart; timers armed in an older epoch never fire.
    node_epochs: Vec<u64>,
    /// Rebuilds a node's state after [`AdminOp::RestartNode`].
    factories: Vec<Option<NodeFactory>>,
    /// Restarts performed, per node.
    restarts: Vec<u64>,
    /// Scheduled callbacks; each slot is taken (run at most once) when its
    /// [`Event::Hook`] pops.
    hooks: Vec<Option<Hook>>,
}

impl SimNet {
    /// Create an empty network; all randomness derives from `seed`.
    pub fn new(seed: u64) -> SimNet {
        SimNet {
            nodes: Vec::new(),
            links: Vec::new(),
            port_map: Vec::new(),
            queue: EventQueue::new(),
            now: Time::ZERO,
            rng: DetRng::new(seed),
            next_timer: 0,
            cancelled: HashSet::new(),
            events_processed: 0,
            node_epochs: Vec::new(),
            factories: Vec::new(),
            restarts: Vec::new(),
            hooks: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.nodes.push(node);
        self.port_map.push(Vec::new());
        self.node_epochs.push(0);
        self.factories.push(None);
        self.restarts.push(0);
        self.nodes.len() - 1
    }

    /// Add a node built by `factory`, which is kept so the node can be
    /// restarted (state loss) by [`AdminOp::RestartNode`].
    pub fn add_restartable_node(
        &mut self,
        factory: impl Fn() -> Box<dyn Node> + 'static,
    ) -> NodeId {
        let id = self.add_node(factory());
        self.factories[id] = Some(Box::new(factory));
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Connect `a`'s port `ap` to `b`'s port `bp` with the given parameters.
    /// Both directions share the parameters but draw independent fault
    /// streams.
    pub fn connect(
        &mut self,
        a: NodeId,
        ap: PortId,
        b: NodeId,
        bp: PortId,
        params: LinkParams,
    ) -> LinkId {
        let id = self.links.len();
        let f0 = FaultInjector::new(params.fault.clone(), self.rng.fork(id as u64 * 2 + 1));
        let f1 = FaultInjector::new(params.fault.clone(), self.rng.fork(id as u64 * 2 + 2));
        self.links.push(Link {
            params,
            ends: [(a, ap), (b, bp)],
            dirs: [
                Direction { injector: f0, busy_until: Time::ZERO, stats: DirStats::default() },
                Direction { injector: f1, busy_until: Time::ZERO, stats: DirStats::default() },
            ],
            up: true,
        });
        for (node, port, dir) in [(a, ap, 0), (b, bp, 1)] {
            let ports = &mut self.port_map[node];
            if ports.len() <= port {
                ports.resize(port + 1, None);
            }
            assert!(ports[port].is_none(), "port {port} of node {node} already connected");
            ports[port] = Some((id, dir));
        }
        id
    }

    /// Replace a link's fault profile mid-run (both directions).
    pub fn set_link_fault(&mut self, link: LinkId, fault: FaultProfile) {
        for dir in &mut self.links[link].dirs {
            dir.injector.set_profile(fault.clone());
        }
    }

    /// Sever a link: everything sent on it from now on is dropped.
    pub fn fail_link(&mut self, link: LinkId) {
        self.set_link_fault(link, FaultProfile::lossy(1.0));
    }

    /// Restore a failed link to a perfect link.
    pub fn heal_link(&mut self, link: LinkId) {
        self.set_link_fault(link, FaultProfile::none());
    }

    /// Whether the link is currently up (not partitioned).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.links[link].up
    }

    /// Partition or restore a link immediately.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.links[link].up = up;
    }

    /// Restarts performed on a node so far.
    pub fn node_restarts(&self, node: NodeId) -> u64 {
        self.restarts[node]
    }

    /// Schedule an [`AdminOp`] to execute at simulated time `at`.
    pub fn schedule_admin(&mut self, at: Time, op: AdminOp) {
        self.queue.push(at.max(self.now), Event::Admin(op));
    }

    /// Schedule a callback with full simulator access to run at `at`,
    /// ordered against deliveries/timers/admin ops like any other event.
    /// This is the control-plane escape hatch the multi-hop topology layer
    /// uses for partition-triggered reroute (install backup tables after a
    /// detection delay) and middlebox state loss (wipe a NAT table) —
    /// interventions that must mutate node state, which plain-data
    /// [`AdminOp`]s cannot express.
    pub fn schedule_call(&mut self, at: Time, f: impl FnOnce(&mut SimNet) + 'static) {
        let idx = self.hooks.len();
        self.hooks.push(Some(Box::new(f)));
        self.queue.push(at.max(self.now), Event::Hook(idx));
    }

    /// Schedule a partition at `down_at` healed at `up_at`.
    pub fn schedule_partition(&mut self, link: LinkId, down_at: Time, up_at: Time) {
        self.schedule_admin(down_at, AdminOp::LinkDown(link));
        self.schedule_admin(up_at, AdminOp::LinkUp(link));
    }

    /// Schedule `cycles` down/up flaps: the link goes down at `first_down`,
    /// stays down for `down_for`, comes back for `up_for`, and repeats.
    pub fn schedule_link_flaps(
        &mut self,
        link: LinkId,
        first_down: Time,
        down_for: Dur,
        up_for: Dur,
        cycles: u32,
    ) {
        let mut t = first_down;
        for _ in 0..cycles {
            self.schedule_partition(link, t, t + down_for);
            t = t + down_for + up_for;
        }
    }

    /// Restart a node immediately: rebuild it from its factory, invalidate
    /// its pending timers, and poll the fresh instance so it can start up.
    /// Panics if the node was not added via
    /// [`SimNet::add_restartable_node`].
    pub fn restart_node(&mut self, node: NodeId) {
        let factory = self.factories[node]
            .as_ref()
            .unwrap_or_else(|| panic!("node {node} has no factory; cannot restart"));
        self.nodes[node] = factory();
        self.node_epochs[node] += 1;
        self.restarts[node] += 1;
        self.poll_node(node);
    }

    fn apply_admin(&mut self, op: AdminOp) {
        match op {
            AdminOp::LinkDown(l) => self.links[l].up = false,
            AdminOp::LinkUp(l) => self.links[l].up = true,
            AdminOp::SetFault(l, f) => self.set_link_fault(l, f),
            AdminOp::SetRate(l, bps) => self.links[l].params.rate_bps = bps,
            AdminOp::RestartNode(n) => self.restart_node(n),
        }
    }

    /// Fault statistics for one direction (`0` = first endpoint transmitting).
    pub fn link_fault_stats(&self, link: LinkId, dir: usize) -> &FaultStats {
        self.links[link].dirs[dir].injector.stats()
    }

    /// Traffic statistics for one direction.
    pub fn link_dir_stats(&self, link: LinkId, dir: usize) -> &DirStats {
        &self.links[link].dirs[dir].stats
    }

    /// Instantaneous queueing delay for one direction: how long a frame
    /// handed to the link *now* would wait behind frames still
    /// serializing under the link rate. The rate-limited link models an
    /// unbounded serialization queue, so this is the bufferbloat gauge —
    /// sample it while driving and keep the peak.
    pub fn link_queue_delay(&self, link: LinkId, dir: usize) -> Dur {
        self.links[link].dirs[dir].busy_until.since(self.now)
    }

    /// Borrow a node, downcast to its concrete type.
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        (self.nodes[id].as_ref() as &dyn Any)
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrow a node, downcast to its concrete type. After external
    /// mutation call [`SimNet::poll_node`] so the node can transmit.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        (self.nodes[id].as_mut() as &mut dyn Any)
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    fn make_ctx(&mut self, node: NodeId) -> NodeCtx {
        NodeCtx { now: self.now, node, actions: Vec::new(), next_timer: self.next_timer }
    }

    fn apply_ctx(&mut self, ctx: NodeCtx) {
        self.next_timer = ctx.next_timer;
        let node = ctx.node;
        for action in ctx.actions {
            match action {
                Action::Send { port, frame } => self.transmit(node, port, frame),
                Action::Arm { at, token, id } => {
                    let epoch = self.node_epochs[node];
                    self.queue.push(at, Event::Timer { node, token, id, epoch });
                }
                Action::Cancel { id } => {
                    self.cancelled.insert(id);
                }
            }
        }
    }

    fn transmit(&mut self, node: NodeId, port: PortId, frame: Vec<u8>) {
        let Some(Some((link_id, dir_idx))) = self.port_map[node].get(port).copied() else {
            // Sending on an unconnected port silently discards the frame,
            // like transmitting on an unplugged interface.
            return;
        };
        let link = &mut self.links[link_id];
        let dest = link.ends[1 - dir_idx];
        let dir = &mut link.dirs[dir_idx];
        dir.stats.tx_frames += 1;
        dir.stats.tx_bytes += frame.len() as u64;
        if !link.up {
            dir.stats.partition_drops += 1;
            return;
        }
        if link.params.mtu != 0 && frame.len() > link.params.mtu {
            dir.stats.mtu_drops += 1;
            return;
        }
        // Serialization (transmission) delay under the link rate.
        let tx_time = if link.params.rate_bps == 0 {
            Dur::ZERO
        } else {
            Dur((frame.len() as u128 * 8 * 1_000_000_000 / link.params.rate_bps as u128) as u64)
        };
        let start = self.now.max(dir.busy_until);
        dir.busy_until = start + tx_time;
        let base_arrival = start + tx_time + link.params.delay;
        let fate = dir.injector.apply(&frame);
        for (extra, bytes) in fate.deliveries {
            dir.stats.rx_frames += 1;
            dir.stats.rx_bytes += bytes.len() as u64;
            self.queue.push(
                base_arrival + extra,
                Event::Deliver { node: dest.0, port: dest.1, frame: bytes },
            );
        }
    }

    /// Invoke `poll` on a node and apply the resulting actions.
    pub fn poll_node(&mut self, id: NodeId) {
        let mut ctx = self.make_ctx(id);
        let mut node = std::mem::replace(&mut self.nodes[id], Box::new(NullNode));
        node.poll(&mut ctx);
        self.nodes[id] = node;
        self.apply_ctx(ctx);
    }

    /// Poll every node once (typically to bootstrap transmissions).
    pub fn poll_all(&mut self) {
        for id in 0..self.nodes.len() {
            self.poll_node(id);
        }
    }

    /// Drop cancelled and stale-epoch timers from the head of the queue,
    /// then return the time of the next *live* event.
    fn live_peek_time(&mut self) -> Option<Time> {
        loop {
            match self.queue.peek() {
                Some((_, Event::Timer { id, .. })) if self.cancelled.contains(id) => {
                    let id = *id;
                    self.queue.pop();
                    self.cancelled.remove(&id);
                }
                Some((_, Event::Timer { node, epoch, .. }))
                    if *epoch != self.node_epochs[*node] =>
                {
                    self.queue.pop();
                }
                Some((t, _)) => return Some(t),
                None => return None,
            }
        }
    }

    /// Process the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        loop {
            let Some((at, ev)) = self.queue.pop() else { return false };
            debug_assert!(at >= self.now, "time moved backwards");
            match ev {
                Event::Timer { id, .. } if self.cancelled.remove(&id) => continue,
                // A timer armed before its node restarted belongs to state
                // that no longer exists.
                Event::Timer { node, epoch, .. } if epoch != self.node_epochs[node] => continue,
                Event::Admin(op) => {
                    self.now = at;
                    self.events_processed += 1;
                    self.apply_admin(op);
                }
                Event::Hook(idx) => {
                    self.now = at;
                    self.events_processed += 1;
                    if let Some(f) = self.hooks[idx].take() {
                        f(self);
                    }
                }
                Event::Deliver { node, port, frame } => {
                    self.now = at;
                    self.events_processed += 1;
                    let mut ctx = self.make_ctx(node);
                    let mut n = std::mem::replace(&mut self.nodes[node], Box::new(NullNode));
                    n.on_frame(port, frame, &mut ctx);
                    n.poll(&mut ctx);
                    self.nodes[node] = n;
                    self.apply_ctx(ctx);
                }
                Event::Timer { node, token, .. } => {
                    self.now = at;
                    self.events_processed += 1;
                    let mut ctx = self.make_ctx(node);
                    let mut n = std::mem::replace(&mut self.nodes[node], Box::new(NullNode));
                    n.on_timer(token, &mut ctx);
                    n.poll(&mut ctx);
                    self.nodes[node] = n;
                    self.apply_ctx(ctx);
                }
            }
            return true;
        }
    }

    /// Run until the queue drains or the clock passes `deadline`.
    /// Returns the time at which the run stopped.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        while let Some(t) = self.live_peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
        self.now
    }

    /// [`SimNet::run_until`] `d` past the current time.
    pub fn run_for(&mut self, d: Dur) -> Time {
        self.run_until(self.now + d)
    }

    /// Run until no events remain, up to a safety deadline.
    /// Panics if the deadline is hit (runaway simulation).
    pub fn run_to_idle(&mut self, deadline: Time) -> Time {
        while let Some(t) = self.live_peek_time() {
            assert!(t <= deadline, "simulation did not go idle by {deadline:?}");
            self.step();
        }
        self.now
    }

    /// True when no live events are pending.
    pub fn is_idle(&mut self) -> bool {
        self.live_peek_time().is_none()
    }
}

/// Placeholder swapped in while a node's callback runs (nodes never see it).
struct NullNode;
impl Node for NullNode {
    fn on_frame(&mut self, _: PortId, _: Vec<u8>, _: &mut NodeCtx) {
        unreachable!("NullNode received a frame")
    }
    fn on_timer(&mut self, _: u64, _: &mut NodeCtx) {
        unreachable!("NullNode received a timer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every frame back on the same port, tagging it.
    struct Echo {
        seen: Vec<Vec<u8>>,
    }
    impl Node for Echo {
        fn on_frame(&mut self, port: PortId, frame: Vec<u8>, ctx: &mut NodeCtx) {
            self.seen.push(frame.clone());
            let mut reply = frame;
            reply.push(b'!');
            ctx.send(port, reply);
        }
        fn on_timer(&mut self, _: u64, _: &mut NodeCtx) {}
    }

    /// Sends one frame at startup and records replies.
    struct Pinger {
        sent: bool,
        replies: Vec<Vec<u8>>,
        reply_times: Vec<Time>,
    }
    impl Node for Pinger {
        fn on_frame(&mut self, _: PortId, frame: Vec<u8>, ctx: &mut NodeCtx) {
            self.replies.push(frame);
            self.reply_times.push(ctx.now);
        }
        fn on_timer(&mut self, _: u64, _: &mut NodeCtx) {}
        fn poll(&mut self, ctx: &mut NodeCtx) {
            if !self.sent {
                self.sent = true;
                ctx.send(0, b"ping".to_vec());
            }
        }
    }

    fn two_nodes(params: LinkParams) -> (SimNet, NodeId, NodeId) {
        let mut net = SimNet::new(99);
        let p = net.add_node(Box::new(Pinger { sent: false, replies: vec![], reply_times: vec![] }));
        let e = net.add_node(Box::new(Echo { seen: vec![] }));
        net.connect(p, 0, e, 0, params);
        (net, p, e)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut net, p, e) = two_nodes(LinkParams::delay_only(Dur::from_millis(1)));
        net.poll_all();
        net.run_to_idle(Time::ZERO + Dur::from_secs(1));
        assert_eq!(net.node::<Echo>(e).seen, vec![b"ping".to_vec()]);
        let pinger = net.node::<Pinger>(p);
        assert_eq!(pinger.replies, vec![b"ping!".to_vec()]);
        // One millisecond each way.
        assert_eq!(pinger.reply_times, vec![Time::ZERO + Dur::from_millis(2)]);
    }

    #[test]
    fn run_for_advances_the_clock_by_exactly_d_and_delivers_what_falls_inside() {
        let (mut net, p, _) = two_nodes(LinkParams::delay_only(Dur::from_millis(1)));
        net.poll_all();
        // The echo lands at 2 ms: a 1 ms run stops short of it.
        assert_eq!(net.run_for(Dur::from_millis(1)), Time::ZERO + Dur::from_millis(1));
        assert!(net.node::<Pinger>(p).replies.is_empty());
        assert_eq!(net.run_for(Dur::from_millis(1)), Time::ZERO + Dur::from_millis(2));
        assert_eq!(net.node::<Pinger>(p).replies.len(), 1);
        // An idle net still moves its clock.
        assert_eq!(net.run_for(Dur::from_secs(1)), Time::ZERO + Dur::from_millis(1002));
        assert_eq!(net.now(), Time::ZERO + Dur::from_millis(1002));
    }

    #[test]
    fn lossy_link_drops_everything() {
        let (mut net, p, e) = two_nodes(
            LinkParams::delay_only(Dur::from_millis(1)).with_fault(FaultProfile::lossy(1.0)),
        );
        net.poll_all();
        net.run_to_idle(Time::ZERO + Dur::from_secs(1));
        assert!(net.node::<Echo>(e).seen.is_empty());
        assert!(net.node::<Pinger>(p).replies.is_empty());
        assert_eq!(net.link_fault_stats(0, 0).dropped, 1);
    }

    #[test]
    fn mtu_drops_oversized() {
        let mut net = SimNet::new(1);
        let p = net.add_node(Box::new(Pinger { sent: false, replies: vec![], reply_times: vec![] }));
        let e = net.add_node(Box::new(Echo { seen: vec![] }));
        net.connect(p, 0, e, 0, LinkParams::default().with_mtu(2));
        net.poll_all();
        net.run_to_idle(Time::ZERO + Dur::from_secs(1));
        assert!(net.node::<Echo>(e).seen.is_empty());
        assert_eq!(net.link_dir_stats(0, 0).mtu_drops, 1);
    }

    #[test]
    fn serialization_delay_spaces_frames() {
        // 1000 bytes at 8 Mbps = 1 ms of transmission time per frame.
        struct Burst;
        impl Node for Burst {
            fn on_frame(&mut self, _: PortId, _: Vec<u8>, _: &mut NodeCtx) {}
            fn on_timer(&mut self, _: u64, _: &mut NodeCtx) {}
            fn poll(&mut self, ctx: &mut NodeCtx) {
                if ctx.now == Time::ZERO {
                    ctx.send(0, vec![0; 1000]);
                    ctx.send(0, vec![0; 1000]);
                }
            }
        }
        struct Sink {
            times: Vec<Time>,
        }
        impl Node for Sink {
            fn on_frame(&mut self, _: PortId, _: Vec<u8>, ctx: &mut NodeCtx) {
                self.times.push(ctx.now);
            }
            fn on_timer(&mut self, _: u64, _: &mut NodeCtx) {}
        }
        let mut net = SimNet::new(5);
        let b = net.add_node(Box::new(Burst));
        let s = net.add_node(Box::new(Sink { times: vec![] }));
        net.connect(
            b,
            0,
            s,
            0,
            LinkParams { delay: Dur::ZERO, rate_bps: 8_000_000, mtu: 0, fault: FaultProfile::none() },
        );
        net.poll_all();
        net.run_to_idle(Time::ZERO + Dur::from_secs(1));
        let times = &net.node::<Sink>(s).times;
        assert_eq!(times.len(), 2);
        assert_eq!(times[0], Time::ZERO + Dur::from_millis(1));
        assert_eq!(times[1], Time::ZERO + Dur::from_millis(2));
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct Timed {
            fired: Vec<u64>,
            armed: bool,
        }
        impl Node for Timed {
            fn on_frame(&mut self, _: PortId, _: Vec<u8>, _: &mut NodeCtx) {}
            fn on_timer(&mut self, token: u64, _: &mut NodeCtx) {
                self.fired.push(token);
            }
            fn poll(&mut self, ctx: &mut NodeCtx) {
                if !self.armed {
                    self.armed = true;
                    ctx.arm_in(Dur::from_millis(1), 1);
                    let id = ctx.arm_in(Dur::from_millis(2), 2);
                    ctx.arm_in(Dur::from_millis(3), 3);
                    ctx.cancel(id);
                }
            }
        }
        let mut net = SimNet::new(2);
        let t = net.add_node(Box::new(Timed { fired: vec![], armed: false }));
        net.poll_all();
        net.run_to_idle(Time::ZERO + Dur::from_secs(1));
        assert_eq!(net.node::<Timed>(t).fired, vec![1, 3]);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let run = || {
            let (mut net, p, _) = two_nodes(
                LinkParams::delay_only(Dur::from_millis(1))
                    .with_fault(FaultProfile::lossy(0.5)),
            );
            net.poll_all();
            net.run_to_idle(Time::ZERO + Dur::from_secs(1));
            net.node::<Pinger>(p).replies.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unconnected_port_discards() {
        let mut net = SimNet::new(3);
        let p = net.add_node(Box::new(Pinger { sent: false, replies: vec![], reply_times: vec![] }));
        net.poll_all(); // Pinger sends on port 0, which has no link.
        net.run_to_idle(Time::ZERO + Dur::from_secs(1));
        assert!(net.node::<Pinger>(p).replies.is_empty());
    }

    /// Sends one frame per millisecond, forever (stopped by the deadline).
    struct Beacon {
        next: u64,
    }
    impl Node for Beacon {
        fn on_frame(&mut self, _: PortId, _: Vec<u8>, _: &mut NodeCtx) {}
        fn on_timer(&mut self, _: u64, ctx: &mut NodeCtx) {
            ctx.send(0, vec![self.next as u8]);
            self.next += 1;
            ctx.arm_in(Dur::from_millis(1), 0);
        }
        fn poll(&mut self, ctx: &mut NodeCtx) {
            if self.next == 0 {
                self.next = 1;
                ctx.send(0, vec![0]);
                ctx.arm_in(Dur::from_millis(1), 0);
            }
        }
    }
    struct Count {
        frames: u64,
    }
    impl Node for Count {
        fn on_frame(&mut self, _: PortId, _: Vec<u8>, _: &mut NodeCtx) {
            self.frames += 1;
        }
        fn on_timer(&mut self, _: u64, _: &mut NodeCtx) {}
    }

    #[test]
    fn scheduled_partition_blackholes_frames() {
        let mut net = SimNet::new(4);
        let b = net.add_node(Box::new(Beacon { next: 0 }));
        let c = net.add_node(Box::new(Count { frames: 0 }));
        let link = net.connect(b, 0, c, 0, LinkParams::delay_only(Dur::ZERO));
        // Down during [10ms, 20ms): 10 of the first 30 beacons vanish.
        net.schedule_partition(
            link,
            Time::ZERO + Dur::from_millis(10),
            Time::ZERO + Dur::from_millis(20),
        );
        net.poll_all();
        net.run_until(Time::ZERO + Dur::from_millis(29));
        assert_eq!(net.node::<Count>(c).frames, 20);
        assert_eq!(net.link_dir_stats(link, 0).partition_drops, 10);
        assert!(net.link_is_up(link));
    }

    #[test]
    fn link_flaps_alternate_up_and_down() {
        let mut net = SimNet::new(4);
        let b = net.add_node(Box::new(Beacon { next: 0 }));
        let c = net.add_node(Box::new(Count { frames: 0 }));
        let link = net.connect(b, 0, c, 0, LinkParams::delay_only(Dur::ZERO));
        // Three flaps: down 5 ms, up 5 ms, starting at 10 ms.
        net.schedule_link_flaps(
            link,
            Time::ZERO + Dur::from_millis(10),
            Dur::from_millis(5),
            Dur::from_millis(5),
            3,
        );
        net.poll_all();
        net.run_until(Time::ZERO + Dur::from_millis(49));
        // 50 beacons offered; 3 × 5 dropped while down.
        assert_eq!(net.link_dir_stats(link, 0).partition_drops, 15);
        assert_eq!(net.node::<Count>(c).frames, 35);
    }

    #[test]
    fn scheduled_rate_change_applies() {
        let mut net = SimNet::new(4);
        let b = net.add_node(Box::new(Beacon { next: 0 }));
        let c = net.add_node(Box::new(Count { frames: 0 }));
        let link = net.connect(b, 0, c, 0, LinkParams::delay_only(Dur::ZERO));
        assert_eq!(net.links[link].params.rate_bps, 0);
        net.schedule_admin(Time::ZERO + Dur::from_millis(1), AdminOp::SetRate(link, 1_000_000));
        net.poll_all();
        net.run_until(Time::ZERO + Dur::from_millis(5));
        assert_eq!(net.links[link].params.rate_bps, 1_000_000);
    }

    #[test]
    fn node_restart_loses_state_and_invalidates_timers() {
        let mut net = SimNet::new(4);
        let b = net.add_restartable_node(|| Box::new(Beacon { next: 0 }));
        let c = net.add_node(Box::new(Count { frames: 0 }));
        net.connect(b, 0, c, 0, LinkParams::delay_only(Dur::ZERO));
        net.schedule_admin(Time::ZERO + Dur::from_millis(10), AdminOp::RestartNode(b));
        net.poll_all();
        net.run_until(Time::ZERO + Dur::from_millis(20));
        // The fresh instance restarted its sequence from zero...
        assert_eq!(net.node_restarts(b), 1);
        let fresh = net.node::<Beacon>(b);
        assert!(fresh.next < 15, "state should have been lost, next={}", fresh.next);
        // ...and exactly one beacon cadence survived (the old epoch's timer
        // chain died with the restart; only the new chain ticks).
        let frames = net.node::<Count>(c).frames;
        assert_eq!(frames, 21, "beacons 0..10ms, restart tick, then 11..20ms");
    }

    #[test]
    fn scheduled_call_runs_once_at_its_time_with_net_access() {
        let mut net = SimNet::new(4);
        let b = net.add_node(Box::new(Beacon { next: 0 }));
        let c = net.add_node(Box::new(Count { frames: 0 }));
        let link = net.connect(b, 0, c, 0, LinkParams::delay_only(Dur::ZERO));
        // The hook partitions the link itself (full simulator access) and
        // rewrites node state.
        net.schedule_call(Time::ZERO + Dur::from_millis(10), move |net| {
            net.set_link_up(link, false);
            net.node_mut::<Count>(1).frames += 1000;
        });
        net.poll_all();
        net.run_until(Time::ZERO + Dur::from_millis(20));
        // 10 beacons arrived before the hook; everything after is dropped,
        // and the hook's own mutation is visible.
        assert_eq!(net.node::<Count>(c).frames, 10 + 1000);
        assert!(!net.link_is_up(link));
    }

    #[test]
    fn restart_campaign_is_deterministic() {
        let run = || {
            let mut net = SimNet::new(77);
            let b = net.add_restartable_node(|| Box::new(Beacon { next: 0 }));
            let c = net.add_node(Box::new(Count { frames: 0 }));
            let link = net.connect(
                b,
                0,
                c,
                0,
                LinkParams::delay_only(Dur::from_micros(100))
                    .with_fault(FaultProfile::lossy(0.3)),
            );
            net.schedule_link_flaps(
                link,
                Time::ZERO + Dur::from_millis(3),
                Dur::from_millis(2),
                Dur::from_millis(2),
                2,
            );
            net.schedule_admin(Time::ZERO + Dur::from_millis(7), AdminOp::RestartNode(b));
            net.poll_all();
            net.run_until(Time::ZERO + Dur::from_millis(15));
            (net.node::<Count>(c).frames, net.link_fault_stats(link, 0).clone())
        };
        assert_eq!(run(), run());
    }
}
