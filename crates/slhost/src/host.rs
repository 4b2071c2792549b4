//! The event-driven host: one [`Host`] serves many connections over a
//! single [`HostStack`], exposing a poll-style readiness API.
//!
//! Cost model (the point of the subsystem, measured by experiment E15):
//!
//! - **Demux** is one hashed 4-tuple lookup per inbound frame — O(1) in
//!   the connection count.
//! - **Timers** live in a hierarchical [`TimerWheel`]: one armed entry
//!   per connection, re-armed only when that connection's deadline
//!   changes, so a tick costs O(fired) instead of O(connections).
//!   [`TimerMode::NaiveScan`] keeps the tick-every-connection behaviour
//!   as the measured baseline.
//! - **Ingest** is batched: frames arriving within `batch_window` are
//!   queued per-connection and serviced together, round-robin
//!   `quantum` frames per connection so one chatty peer cannot starve
//!   the rest.
//! - **Accept** is bounded: at most `backlog` established-but-unaccepted
//!   connections; beyond that new peers are refused (reset), not queued
//!   without limit.

use crate::budget::ResourceBudget;
use crate::wheel::{TimerKey, TimerWheel};
use netsim::{Dur, HostStack, MultiStack, PortId, Pressure, Time, TransportError};
use slmetrics::HostCounters;
use std::collections::{HashMap, VecDeque};
use slwire::hash::FxBuildHasher;
use slwire::{Endpoint, MAX_FRAME_BYTES};

/// How the host discovers due connection timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerMode {
    /// Hierarchical timer wheel: O(1) per tick per fired timer.
    Wheel,
    /// Tick every connection on every deadline — the baseline the wheel
    /// is measured against.
    NaiveScan,
}

/// Host tuning knobs; `Default` is sized for the scale experiment.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// Port the host listens on (bound at construction).
    pub listen_port: u16,
    /// Established-but-unaccepted connections beyond this are reset.
    pub backlog: usize,
    /// Connection-table capacity pushed down into the stack.
    pub max_conns: usize,
    /// Per-connection ingress queue bound; overflow frames are dropped
    /// (TCP retransmission recovers them).
    pub ingress_cap: usize,
    /// Frames serviced per connection per round-robin pass.
    pub quantum: usize,
    /// Frames arriving within this window are ingested as one batch.
    pub batch_window: Dur,
    pub timer_mode: TimerMode,
    /// Memory budget driving overload control; the default is unlimited
    /// (overload control disengaged).
    pub budget: ResourceBudget,
    /// Minimum interval between occupancy recomputations. `buffered_bytes`
    /// scans every connection, so at 100k connections refreshing on every
    /// ingest batch is quadratic in spirit; a non-zero interval caps the
    /// scan rate. Between refreshes the host acts on a slightly stale
    /// tier — exactly the `lag` the `slverify::Overload` model bounds.
    /// `Dur::ZERO` (the default) refreshes every call, the pre-shard
    /// behavior.
    pub refresh_every: Dur,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            listen_port: 80,
            backlog: 128,
            max_conns: netsim::MAX_CONNS,
            ingress_cap: 64,
            quantum: 4,
            batch_window: Dur::ZERO,
            timer_mode: TimerMode::Wheel,
            budget: ResourceBudget::default(),
            refresh_every: Dur::ZERO,
        }
    }
}

/// Readiness events, edge-triggered: each fires once per transition.
/// `Readable` re-arms after [`Host::recv`], `Writable` after a short
/// [`Host::send`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostEvent<C> {
    /// A new inbound connection was admitted to the accept queue.
    Accepted(C),
    /// In-order bytes are available to `recv`.
    Readable(C),
    /// An outbound connect completed, or send capacity returned after a
    /// short write.
    Writable(C),
    /// The peer closed its direction (EOF after the readable bytes).
    PeerClosed(C),
    /// The connection is fully gone (clean close).
    Closed(C),
    /// The connection died abnormally.
    Error(C, TransportError),
}

struct HostConn {
    /// Outbound connections start accepted (they never enter the accept
    /// queue); inbound ones earn it through the bounded backlog.
    accepted: bool,
    readable_flagged: bool,
    writable_blocked: bool,
    peer_closed_sent: bool,
    error_sent: bool,
    /// Inbound frames awaiting batched ingest.
    pending: VecDeque<Vec<u8>>,
    /// Armed wheel entry and the deadline it was armed for.
    wheel_key: Option<(TimerKey, Time)>,
    last_activity: Time,
    /// Admission order (LIFO shed evicts the most recently accepted
    /// first); `None` for outbound connections, which are never shed.
    accept_seq: Option<u64>,
    /// The accept-deferral counter fires once per connection.
    defer_counted: bool,
    /// Progress snapshot for slow-drain detection.
    progress_mark: u64,
    /// Next slow-drain checkpoint; armed only while the connection holds
    /// buffered bytes under pressure.
    drain_check_at: Option<Time>,
}

impl HostConn {
    fn new(now: Time, outbound: bool) -> HostConn {
        HostConn {
            accepted: outbound,
            readable_flagged: false,
            // Outbound connections report Writable once established.
            writable_blocked: outbound,
            peer_closed_sent: false,
            error_sent: false,
            pending: VecDeque::new(),
            wheel_key: None,
            last_activity: now,
            accept_seq: None,
            defer_counted: false,
            progress_mark: 0,
            drain_check_at: None,
        }
    }
}

/// How many serviced frame buffers the host keeps to copy the next inbound
/// frames into.
const SPARE_FRAMES: usize = 32;

/// Serviced frame buffers, kept so that steady ingest costs a copy per
/// frame and no allocation: never more than [`SPARE_FRAMES`] of them, none
/// larger than one frame.
#[derive(Default)]
struct SpareFrames(Vec<Vec<u8>>);

impl SpareFrames {
    /// An owned copy of `frame`, in a spare buffer when the top one is
    /// big enough (a smaller one is dropped, so the list drifts towards
    /// buffers that fit the traffic).
    fn copy(&mut self, frame: &[u8]) -> Vec<u8> {
        match self.0.pop() {
            Some(mut buf) if buf.capacity() >= frame.len() => {
                buf.extend_from_slice(frame);
                buf
            }
            _ => frame.to_vec(),
        }
    }

    fn put(&mut self, mut buf: Vec<u8>) {
        if self.0.len() < SPARE_FRAMES && buf.capacity() <= MAX_FRAME_BYTES {
            buf.clear();
            self.0.push(buf);
        }
    }
}

/// An event-driven multi-connection server host. Implements
/// [`MultiStack`] so it drops into a [`netsim::star`] topology as the
/// hub node.
pub struct Host<S: HostStack> {
    stack: S,
    cfg: HostConfig,
    /// Learned route: peer address → simulator port (from inbound frame
    /// sources; outbound frames are routed by destination address).
    /// Addresses come off the wire: fx seeded with the local address, as
    /// the stacks' demux tables are.
    routes: HashMap<u32, PortId, FxBuildHasher>,
    /// Keyed by the stack's own handle: the same mix (seeded alike, since
    /// the monolith's handle is the wire's 4-tuple).
    conns: HashMap<S::ConnId, HostConn, FxBuildHasher>,
    /// Frames not matching any connection (SYNs, cookie ACKs, strays).
    listener_q: VecDeque<Vec<u8>>,
    /// Connections whose `pending` queue has gone from empty to non-empty
    /// since the last ingest batch, in arrival order: what
    /// `service_ingress` visits, so a batch costs the connections that
    /// received frames and not the whole table. An entry may be stale (the
    /// connection closed with frames pending, its id possibly reused
    /// since); servicing a stale entry finds nothing to do.
    ingress_ready: Vec<S::ConnId>,
    /// `service_ingress`'s list of connections to pump, kept for its
    /// buffer; empty between batches.
    touched: Vec<S::ConnId>,
    spare: SpareFrames,
    accept_q: VecDeque<S::ConnId>,
    events: VecDeque<HostEvent<S::ConnId>>,
    /// Routed frames ready to transmit.
    out: VecDeque<(PortId, Vec<u8>)>,
    /// When the current ingest batch is due for servicing.
    batch_due: Option<Time>,
    wheel: TimerWheel<S::ConnId>,
    /// Effective memory-pressure tier: max of the local occupancy tier
    /// and the external floor.
    pressure: Pressure,
    /// Tier derived from this host's own budget occupancy (`Nominal`
    /// with no budget).
    own_pressure: Pressure,
    /// Externally imposed minimum tier — the second level of the
    /// degradation ladder. A sharded front pushes its *global* budget
    /// tier here so every shard degrades together even when no single
    /// shard's local budget is hot.
    pressure_floor: Pressure,
    /// When occupancy was last recomputed (throttled by
    /// [`HostConfig::refresh_every`]).
    last_refresh: Option<Time>,
    /// Quiesce mode: refuse all new flows, let existing ones finish.
    draining: bool,
    /// Monotone admission counter stamped onto accepted connections.
    next_accept_seq: u64,
    /// Bytes across all per-connection ingest queues (kept incrementally
    /// so pressure refresh does not scan every queue).
    pending_bytes: usize,
    pub counters: HostCounters,
}

impl<S: HostStack> Host<S> {
    pub fn new(mut stack: S, cfg: HostConfig) -> Host<S> {
        stack.listen(cfg.listen_port);
        stack.set_max_conns(cfg.max_conns);
        let seeded = FxBuildHasher::with_seed(stack.local_addr() as u64);
        Host {
            stack,
            cfg,
            routes: HashMap::with_hasher(seeded),
            conns: HashMap::with_hasher(seeded),
            listener_q: VecDeque::new(),
            ingress_ready: Vec::new(),
            touched: Vec::new(),
            spare: SpareFrames::default(),
            accept_q: VecDeque::new(),
            events: VecDeque::new(),
            out: VecDeque::new(),
            batch_due: None,
            wheel: TimerWheel::new(),
            pressure: Pressure::Nominal,
            own_pressure: Pressure::Nominal,
            pressure_floor: Pressure::Nominal,
            last_refresh: None,
            draining: false,
            next_accept_seq: 0,
            pending_bytes: 0,
            counters: HostCounters::default(),
        }
    }

    pub fn stack(&self) -> &S {
        &self.stack
    }

    pub fn stack_mut(&mut self) -> &mut S {
        &mut self.stack
    }

    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    pub fn conn_count(&self) -> usize {
        self.stack.conn_count()
    }

    /// Tracked (host-visible) connections.
    pub fn tracked_count(&self) -> usize {
        self.conns.len()
    }

    /// Pin a peer address to a simulator port (normally learned from
    /// inbound traffic; needed before an outbound connect to a peer that
    /// has never sent us anything).
    pub fn set_route(&mut self, addr: u32, port: PortId) {
        self.routes.insert(addr, port);
    }

    /// Current effective memory-pressure tier.
    pub fn pressure(&self) -> Pressure {
        self.pressure
    }

    /// The externally imposed tier floor.
    pub fn pressure_floor(&self) -> Pressure {
        self.pressure_floor
    }

    /// Impose (or lift) an external pressure-tier floor — level two of the
    /// degradation ladder. The effective tier becomes
    /// `max(own occupancy tier, floor)`, so a sharded front's global
    /// budget can force this host to Elevated/High/Critical behavior even
    /// when its local budget (if any) is cold. Works with no local budget
    /// configured.
    pub fn set_pressure_floor(&mut self, now: Time, floor: Pressure) {
        if floor != self.pressure_floor {
            self.pressure_floor = floor;
            self.refresh_pressure(now);
        }
    }

    /// Resample the occupancy-derived gauges (`conns_open`, `conns_peak`,
    /// `bytes_per_conn`, `shard_occupancy`, `mem_used`). Unthrottled and
    /// O(connections) — call at snapshot/report points, not per frame.
    pub fn sample_gauges(&mut self) {
        let open = self.conns.len() as u64;
        let used = self.stack.buffered_bytes().saturating_add(self.pending_bytes) as u64;
        self.counters.mem_used = used;
        self.counters.mem_peak = self.counters.mem_peak.max(used);
        self.counters.conns_open = open;
        self.counters.conns_peak = self.counters.conns_peak.max(open);
        self.counters.bytes_per_conn = used.checked_div(open).unwrap_or(0);
        self.counters.shard_occupancy = if self.cfg.max_conns == 0 {
            0
        } else {
            open.saturating_mul(100) / self.cfg.max_conns as u64
        };
    }

    /// Enter quiesce mode: all new inbound flows are refused (both at the
    /// host's admission check and statelessly in the transport), existing
    /// connections run to completion. There is no un-drain.
    pub fn drain(&mut self) {
        self.draining = true;
        self.stack.gate_new_flows(true);
    }

    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Has a drain completed — no connection left in the transport or the
    /// host's tracking table?
    pub fn is_drained(&self) -> bool {
        self.conns.is_empty() && self.stack.conn_count() == 0
    }

    /// Recompute memory occupancy against the budget, push the resulting
    /// pressure tier into the transport, and run the shed-idle pass when
    /// pressure is High or worse. Called after batched ingest and on every
    /// tick; a no-op when no budget is configured.
    fn refresh_pressure(&mut self, now: Time) {
        if !self.cfg.budget.active()
            && self.pressure_floor == Pressure::Nominal
            && self.pressure == Pressure::Nominal
        {
            return;
        }
        if self.cfg.budget.active() {
            // Throttled occupancy scan: between refreshes the host acts on
            // the cached tier (bounded staleness, the Overload model's
            // `lag`).
            let fresh_needed = match self.last_refresh {
                Some(last) if self.cfg.refresh_every > Dur::ZERO => {
                    now.since(last) >= self.cfg.refresh_every
                }
                Some(_) => true,
                None => true,
            };
            if fresh_needed {
                self.last_refresh = Some(now);
                let used = self.stack.buffered_bytes().saturating_add(self.pending_bytes);
                self.counters.mem_used = used as u64;
                self.counters.mem_peak = self.counters.mem_peak.max(used as u64);
                self.own_pressure =
                    Pressure::from_occupancy(used as u64, self.cfg.budget.max_bytes as u64);
            }
        }
        let p = self.own_pressure.max(self.pressure_floor);
        if p != self.pressure {
            self.pressure = p;
            self.stack.set_pressure(p);
            self.stack.gate_new_flows(self.draining || p.refuses_new_flows());
        }
        if p == Pressure::Nominal && !self.draining {
            // Pressure receded: admit deferred connections — but only a
            // few per refresh. Releasing the whole backlog at once would
            // start that many services in one burst and blow straight
            // through the budget the deferral protected.
            const RELEASE_QUANTUM: usize = 4;
            let mut deferred: Vec<S::ConnId> = self
                .conns
                .iter()
                .filter(|(_, hc)| !hc.accepted)
                .map(|(&id, _)| id)
                .collect();
            deferred.sort();
            deferred.truncate(RELEASE_QUANTUM);
            for id in deferred {
                self.update(now, id);
            }
        }
        if p.paces_acks() {
            self.shed_idle(now);
        }
    }

    /// Shed-idle-LIFO: at High pressure, reset accepted inbound
    /// connections that hold no bytes in either direction and have been
    /// idle past the grace period — most recently accepted first, so the
    /// oldest established work survives. Connections with buffered data
    /// are never shed (they are either progressing or will be caught by
    /// the slow-drain check), so a shed can never starve an active
    /// transfer.
    fn shed_idle(&mut self, now: Time) {
        let grace = self.cfg.budget.shed_idle_grace;
        let mut candidates: Vec<(u64, S::ConnId)> = self
            .conns
            .iter()
            .filter(|&(&id, hc)| {
                hc.accept_seq.is_some()
                    && hc.pending.is_empty()
                    && now.since(hc.last_activity) >= grace
                    && self.stack.readable_len(id) == 0
                    && self.stack.conn_buffered(id) == 0
                    && !self.stack.is_closed(id)
            })
            .map(|(&id, hc)| (hc.accept_seq.unwrap_or(0), id))
            .collect();
        candidates.sort();
        for (_, id) in candidates.into_iter().rev() {
            self.counters.sheds = self.counters.sheds.saturating_add(1);
            self.stack.abort(now, id);
            self.update(now, id);
        }
    }

    /// Pop the next readiness event.
    pub fn poll_event(&mut self) -> Option<HostEvent<S::ConnId>> {
        let ev = self.events.pop_front();
        if ev.is_some() {
            self.counters.events_dispatched =
                self.counters.events_dispatched.saturating_add(1);
        }
        ev
    }

    /// Pop one established connection from the bounded accept queue.
    pub fn accept(&mut self) -> Option<S::ConnId> {
        self.accept_q.pop_front()
    }

    /// Active open with an ephemeral port (route the peer's address with
    /// [`Host::set_route`] first).
    pub fn connect(
        &mut self,
        now: Time,
        remote: Endpoint,
    ) -> Result<S::ConnId, TransportError> {
        let id = self.stack.try_connect_ephemeral(now, remote)?;
        self.conns.insert(id, HostConn::new(now, true));
        self.note_conn_opened();
        self.stack.pump_conn(now, id);
        self.update(now, id);
        Ok(id)
    }

    /// Drain received bytes; re-arms the `Readable` edge.
    pub fn recv(&mut self, now: Time, id: S::ConnId) -> Vec<u8> {
        let data = self.stack.recv(id);
        if let Some(hc) = self.conns.get_mut(&id) {
            hc.readable_flagged = false;
            if !data.is_empty() {
                hc.last_activity = now;
            }
        }
        // The window may have reopened; let the ACK out.
        self.stack.pump_conn(now, id);
        self.update(now, id);
        // Reads free budget; recompute so pressure can recede promptly.
        self.refresh_pressure(now);
        data
    }

    /// Queue data; a short count arms the `Writable` edge for when
    /// capacity returns.
    pub fn send(&mut self, now: Time, id: S::ConnId, data: &[u8]) -> usize {
        let n = self.stack.send(id, data);
        if let Some(hc) = self.conns.get_mut(&id) {
            if n < data.len() {
                hc.writable_blocked = true;
            }
            if n > 0 {
                hc.last_activity = now;
            }
        }
        self.stack.pump_conn(now, id);
        self.update(now, id);
        n
    }

    /// Graceful close.
    pub fn close(&mut self, now: Time, id: S::ConnId) {
        self.stack.close(id);
        self.stack.pump_conn(now, id);
        self.update(now, id);
    }

    /// Hard reset.
    pub fn abort(&mut self, now: Time, id: S::ConnId) {
        self.stack.abort(now, id);
        self.update(now, id);
    }

    fn track_inbound(&mut self, now: Time, id: S::ConnId) {
        if let std::collections::hash_map::Entry::Vacant(v) = self.conns.entry(id) {
            v.insert(HostConn::new(now, false));
            self.note_conn_opened();
        }
    }

    /// Keep the live/peak connection gauges current without scanning.
    fn note_conn_opened(&mut self) {
        self.counters.conns_open = self.conns.len() as u64;
        self.counters.conns_peak = self.counters.conns_peak.max(self.counters.conns_open);
    }

    /// Ingest queued frames: listener-queue first (handshakes create
    /// connections), then round-robin over per-connection queues,
    /// `quantum` frames per connection per pass.
    fn service_ingress(&mut self, now: Time) {
        self.batch_due = None;
        let mut touched = std::mem::take(&mut self.touched);
        while let Some(frame) = self.listener_q.pop_front() {
            self.stack.on_frame(now, &frame);
            if let Some(meta) = S::classify_frame(&frame) {
                if let Some(id) = self.stack.conn_for_tuple(&meta.tuple_at_dst()) {
                    self.track_inbound(now, id);
                    touched.push(id);
                }
            }
            self.spare.put(frame);
        }
        // Ascending, so every same-seed run services in the same order.
        let mut busy = std::mem::take(&mut self.ingress_ready);
        busy.sort_unstable();
        busy.dedup();
        while !busy.is_empty() {
            busy.retain(|&id| {
                for _ in 0..self.cfg.quantum {
                    let frame = {
                        let Some(hc) = self.conns.get_mut(&id) else { return false };
                        let Some(frame) = hc.pending.pop_front() else { return false };
                        hc.last_activity = now;
                        frame
                    };
                    self.pending_bytes = self.pending_bytes.saturating_sub(frame.len());
                    self.stack.on_frame(now, &frame);
                    self.spare.put(frame);
                    touched.push(id);
                }
                self.conns.get(&id).is_some_and(|hc| !hc.pending.is_empty())
            });
        }
        self.ingress_ready = busy;
        touched.sort_unstable();
        touched.dedup();
        for &id in &touched {
            self.stack.pump_conn(now, id);
            self.update(now, id);
        }
        touched.clear();
        self.touched = touched;
        self.refresh_pressure(now);
    }

    /// Reconcile one connection's host-visible state after any stack
    /// activity: emit edge-triggered events, enforce the accept backlog,
    /// re-arm its wheel entry, and drop it once fully closed.
    fn update(&mut self, now: Time, id: S::ConnId) {
        let Some(hc) = self.conns.get_mut(&id) else { return };

        if let Some(e) = self.stack.conn_error(id) {
            if !hc.error_sent {
                hc.error_sent = true;
                self.events.push_back(HostEvent::Error(id, e));
            }
        }
        if !hc.accepted && self.stack.is_established(id) {
            // Pressure-tiered admission: refuse outright while draining
            // or at Critical, hold (defer) at Elevated/High until
            // pressure recedes, admit at Nominal.
            if self.draining || self.pressure.refuses_new_flows() {
                self.counters.pressure_refusals =
                    self.counters.pressure_refusals.saturating_add(1);
                self.stack.abort(now, id);
            } else if self.pressure != Pressure::Nominal {
                if !hc.defer_counted {
                    hc.defer_counted = true;
                    self.counters.accept_deferrals =
                        self.counters.accept_deferrals.saturating_add(1);
                }
            } else if self.accept_q.len() < self.cfg.backlog {
                hc.accepted = true;
                hc.accept_seq = Some(self.next_accept_seq);
                self.next_accept_seq += 1;
                self.accept_q.push_back(id);
                self.counters.accepts = self.counters.accepts.saturating_add(1);
                self.events.push_back(HostEvent::Accepted(id));
            } else {
                self.counters.accept_refusals =
                    self.counters.accept_refusals.saturating_add(1);
                self.stack.abort(now, id);
            }
        }
        let Some(hc) = self.conns.get_mut(&id) else {
            self.counters.lookup_misses = self.counters.lookup_misses.saturating_add(1);
            return;
        };
        if !hc.readable_flagged && self.stack.readable_len(id) > 0 {
            hc.readable_flagged = true;
            self.events.push_back(HostEvent::Readable(id));
        }
        if hc.writable_blocked
            && self.stack.is_established(id)
            && self.stack.send_capacity(id) > 0
        {
            hc.writable_blocked = false;
            self.events.push_back(HostEvent::Writable(id));
        }
        if !hc.peer_closed_sent && self.stack.peer_closed(id) {
            hc.peer_closed_sent = true;
            self.events.push_back(HostEvent::PeerClosed(id));
        }
        // Slow-drain bookkeeping: with a budget configured, an *accepted*
        // connection holding buffered bytes keeps a progress checkpoint
        // armed; `fire` evicts it if the counter stalls across an
        // interval. This is deliberately independent of the current
        // pressure tier — a slowloris peer pins memory whether or not the
        // total occupancy crosses a threshold, and tier-gating the check
        // would let an attack that stays just under it hold its buffers
        // forever. Unaccepted connections are excluded: their buffered
        // bytes (a request waiting out an admission deferral) are bounded
        // by the ingress cap, and evicting them would punish the victims
        // of pressure rather than its cause.
        let holds_bytes = self.cfg.budget.active()
            && hc.accepted
            && self.stack.conn_buffered(id) + hc.pending.iter().map(Vec::len).sum::<usize>() > 0;
        if !holds_bytes {
            hc.drain_check_at = None;
        } else if hc.drain_check_at.is_none() {
            hc.progress_mark = self.stack.conn_progress(id);
            hc.drain_check_at = Some(now + self.cfg.budget.drain_check);
        }
        if self.stack.is_closed(id) {
            if let Some(hc) = self.conns.remove(&id) {
                self.counters.conns_open = self.conns.len() as u64;
                let leftover: usize = hc.pending.iter().map(Vec::len).sum();
                self.pending_bytes = self.pending_bytes.saturating_sub(leftover);
                if let Some((key, _)) = hc.wheel_key {
                    self.wheel.cancel(key);
                }
                self.accept_q.retain(|&q| q != id);
                if !hc.error_sent {
                    self.events.push_back(HostEvent::Closed(id));
                }
            }
            return;
        }
        if self.cfg.timer_mode == TimerMode::Wheel {
            self.rearm(now, id);
        }
    }

    /// Deadline the host tracks for one connection: the stack's own
    /// timers plus the host-level slow-drain check.
    fn deadline_for(&self, now: Time, id: S::ConnId, hc: &HostConn) -> Option<Time> {
        Time::earliest([self.stack.conn_deadline(now, id), hc.drain_check_at])
    }

    fn rearm(&mut self, now: Time, id: S::ConnId) {
        let Some(hc) = self.conns.get(&id) else { return };
        let want = self.deadline_for(now, id, hc);
        let have = hc.wheel_key.map(|(_, at)| at);
        if want == have {
            return;
        }
        let Some(hc) = self.conns.get_mut(&id) else {
            self.counters.lookup_misses = self.counters.lookup_misses.saturating_add(1);
            return;
        };
        if let Some((key, _)) = hc.wheel_key.take() {
            self.wheel.cancel(key);
        }
        if let Some(at) = want {
            let key = self.wheel.arm(at, id);
            if let Some(hc) = self.conns.get_mut(&id) {
                hc.wheel_key = Some((key, at));
            } else {
                self.wheel.cancel(key);
                self.counters.lookup_misses =
                    self.counters.lookup_misses.saturating_add(1);
            }
        }
    }

    /// Advance one connection whose timer fired (or, in naive mode, every
    /// connection on every tick).
    fn fire(&mut self, now: Time, id: S::ConnId) {
        self.stack.tick_conn(now, id);
        // Slow-drain (slowloris) eviction: a connection that held buffered
        // bytes across a whole check interval without making at least
        // `min_drain_bytes` of progress is deliberately reading slowly —
        // reset it and reclaim its buffers.
        let checkpoint = self
            .conns
            .get(&id)
            .and_then(|hc| hc.drain_check_at.map(|at| (at, hc.progress_mark)));
        if let Some((at, mark)) = checkpoint {
            if now >= at && !self.stack.is_closed(id) {
                let progressed = self.stack.conn_progress(id).saturating_sub(mark);
                if progressed < self.cfg.budget.min_drain_bytes {
                    self.counters.slow_drain_evictions =
                        self.counters.slow_drain_evictions.saturating_add(1);
                    self.stack.abort(now, id);
                } else if let Some(hc) = self.conns.get_mut(&id) {
                    hc.progress_mark = self.stack.conn_progress(id);
                    hc.drain_check_at = Some(now + self.cfg.budget.drain_check);
                }
            }
        }
        self.stack.pump_conn(now, id);
        self.update(now, id);
    }
}

/// The walk over every tracked connection that `service_ingress` used to
/// start with — the reference its ready list is tested against
/// (`ingress_tests`): the same connections serviced in the same order.
#[cfg(test)]
impl<S: HostStack> Host<S> {
    pub(crate) fn scan_busy(&self) -> Vec<S::ConnId> {
        let mut busy: Vec<S::ConnId> = self
            .conns
            .iter()
            .filter(|(_, hc)| !hc.pending.is_empty())
            .map(|(&id, _)| id)
            .collect();
        busy.sort();
        busy
    }

    /// Service the next batch from the walk's answer.
    pub(crate) fn ready_from_scan(&mut self) {
        self.ingress_ready = self.scan_busy();
    }

    pub(crate) fn ingress_ready(&self) -> &[S::ConnId] {
        &self.ingress_ready
    }

    pub(crate) fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// The ingress bookkeeping holds what the table says it should.
    pub(crate) fn check_ingress(&self) {
        for id in self.scan_busy() {
            assert!(self.ingress_ready.contains(&id), "{id:?} has frames pending and is not noted");
        }
        let queued: usize = self.conns.values().flat_map(|hc| &hc.pending).map(Vec::len).sum();
        assert_eq!(self.pending_bytes, queued);
        assert!(self.touched.is_empty());
        assert!(self.spare.0.len() <= SPARE_FRAMES, "{} spare buffers", self.spare.0.len());
        for buf in &self.spare.0 {
            assert!(buf.is_empty() && buf.capacity() <= MAX_FRAME_BYTES, "{}", buf.capacity());
        }
    }
}

impl<S: HostStack> MultiStack for Host<S> {
    fn on_frame(&mut self, now: Time, port: PortId, frame: &[u8]) {
        self.counters.frames_in = self.counters.frames_in.saturating_add(1);
        match S::classify_frame(frame) {
            Some(meta) => {
                // Learned once per peer; the steady path only reads.
                if self.routes.get(&meta.src.addr) != Some(&port) {
                    self.routes.insert(meta.src.addr, port);
                }
                let tuple = meta.tuple_at_dst();
                match self.stack.conn_for_tuple(&tuple) {
                    Some(id) => {
                        self.track_inbound(now, id);
                        let Some(hc) = self.conns.get_mut(&id) else {
                            // track_inbound just inserted it; a miss here
                            // means the table is in an unexpected state —
                            // count it and drop the frame rather than
                            // panicking the ingest path.
                            self.counters.lookup_misses =
                                self.counters.lookup_misses.saturating_add(1);
                            return;
                        };
                        if hc.pending.len() < self.cfg.ingress_cap {
                            self.pending_bytes =
                                self.pending_bytes.saturating_add(frame.len());
                            if hc.pending.is_empty() {
                                self.ingress_ready.push(id);
                            }
                            hc.pending.push_back(self.spare.copy(frame));
                        }
                        // else: drop; retransmission recovers.
                    }
                    None => self.listener_q.push_back(self.spare.copy(frame)),
                }
            }
            // Unparseable: hand it to the stack's own error accounting.
            None => self.listener_q.push_back(self.spare.copy(frame)),
        }
        if self.batch_due.is_none() {
            self.batch_due = Some(now + self.cfg.batch_window);
        }
    }

    fn poll_transmit(&mut self, now: Time) -> Option<(PortId, Vec<u8>)> {
        if self.batch_due.is_some_and(|due| now >= due) {
            self.service_ingress(now);
        }
        loop {
            if let Some(out) = self.out.pop_front() {
                self.counters.frames_out = self.counters.frames_out.saturating_add(1);
                return Some(out);
            }
            let frame = self.stack.take_frame()?;
            let port = S::classify_frame(&frame)
                .and_then(|meta| self.routes.get(&meta.dst.addr).copied())
                .unwrap_or(0);
            self.out.push_back((port, frame));
        }
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        let timers = match self.cfg.timer_mode {
            TimerMode::Wheel => self.wheel.next_deadline(),
            TimerMode::NaiveScan => self
                .conns
                .iter()
                .filter_map(|(&id, hc)| self.deadline_for(now, id, hc))
                .min(),
        };
        Time::earliest([self.batch_due, timers])
    }

    fn on_tick(&mut self, now: Time) {
        self.counters.ticks = self.counters.ticks.saturating_add(1);
        if self.batch_due.is_some_and(|due| now >= due) {
            self.service_ingress(now);
        }
        match self.cfg.timer_mode {
            TimerMode::Wheel => {
                for (_, id) in self.wheel.advance(now) {
                    // The fired entry is consumed; forget the stale key so
                    // rearm doesn't cancel a later timer by accident.
                    if let Some(hc) = self.conns.get_mut(&id) {
                        hc.wheel_key = None;
                    }
                    self.counters.timer_fires = self.counters.timer_fires.saturating_add(1);
                    self.fire(now, id);
                }
                self.counters.timer_touches = self.wheel.touches;
            }
            TimerMode::NaiveScan => {
                let mut ids: Vec<S::ConnId> = self.conns.keys().copied().collect();
                ids.sort();
                self.counters.timer_touches =
                    self.counters.timer_touches.saturating_add(ids.len() as u64);
                for id in ids {
                    if self.conns.contains_key(&id) {
                        self.counters.timer_fires =
                            self.counters.timer_fires.saturating_add(1);
                        self.fire(now, id);
                    }
                }
            }
        }
        self.refresh_pressure(now);
    }
}

/// An application driving a [`Host`]: gets every readiness event and may
/// call back into the host (recv, send, close, accept).
pub trait HostApp<S: HostStack>: 'static {
    fn on_event(&mut self, now: Time, host: &mut Host<S>, ev: HostEvent<S::ConnId>);
}

/// A [`Host`] bundled with its [`HostApp`], dispatching events inline so
/// the pair drops into the simulator as one node.
pub struct ServedHost<S: HostStack, A: HostApp<S>> {
    pub host: Host<S>,
    pub app: A,
}

impl<S: HostStack, A: HostApp<S>> ServedHost<S, A> {
    pub fn new(host: Host<S>, app: A) -> Self {
        ServedHost { host, app }
    }

    fn dispatch(&mut self, now: Time) {
        while let Some(ev) = self.host.poll_event() {
            self.app.on_event(now, &mut self.host, ev);
        }
    }
}

impl<S: HostStack, A: HostApp<S>> MultiStack for ServedHost<S, A> {
    fn on_frame(&mut self, now: Time, port: PortId, frame: &[u8]) {
        self.host.on_frame(now, port, frame);
    }

    fn poll_transmit(&mut self, now: Time) -> Option<(PortId, Vec<u8>)> {
        // Service ingest, let the app react, then drain what it produced.
        let ready = self.host.poll_transmit(now);
        if ready.is_some() {
            return ready;
        }
        self.dispatch(now);
        self.host.poll_transmit(now)
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        self.host.poll_deadline(now)
    }

    fn on_tick(&mut self, now: Time) {
        self.host.on_tick(now);
        self.dispatch(now);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_tracked_connection_stays_within_its_inline_budget() {
        // The table stores `HostConn` by value, one per connection in
        // either arm; the ready list, the scratch list and the spare
        // buffers are the host's, not the connection's.
        let size = std::mem::size_of::<super::HostConn>();
        assert!(size <= 112, "{size}");
    }

    #[test]
    fn two_hosts_driven_alike_iterate_their_tables_alike() {
        // No table here draws per-instance keys (DESIGN.md §6, "Tables").
        use super::{Host, HostConfig};
        use netsim::Time;
        use slwire::Endpoint;
        use sublayer_core::{SlConfig, SlTcpStack};
        let mut pair = [(); 2].map(|()| {
            let stack = SlTcpStack::new(7, SlConfig::default(), slmetrics::shared());
            Host::new(stack, HostConfig::default())
        });
        for host in &mut pair {
            for peer in 100..148 {
                host.set_route(peer, peer as usize % 5);
                let id = host.connect(Time::ZERO, Endpoint::new(peer, 80)).unwrap();
                if peer % 3 == 0 {
                    host.abort(Time::ZERO, id);
                }
            }
            assert_eq!((host.conns.len(), host.routes.len()), (32, 48));
        }
        let [a, b] = &pair;
        assert!(a.conns.keys().eq(b.conns.keys()));
        assert!(a.routes.iter().eq(b.routes.iter()));
    }

    #[test]
    fn a_route_is_written_when_learned_and_when_it_moves() {
        use super::{Host, HostConfig};
        use netsim::{HostStack, MultiStack, Stack, Time};
        use slwire::Endpoint;
        use tcp_mono::TcpStack;
        let mut host = Host::new(TcpStack::new(7, slmetrics::shared()), HostConfig::default());
        let mut peer = TcpStack::new(9, slmetrics::shared());
        let port = host.config().listen_port;
        peer.try_connect(Time::ZERO, 5000, Endpoint::new(7, port)).unwrap();
        let syn = Stack::poll_transmit(&mut peer, Time::ZERO).unwrap();
        for arrives_on in [3, 3, 4] {
            host.on_frame(Time::ZERO, arrives_on, &syn);
            assert_eq!(host.routes.get(&9), Some(&arrives_on));
        }
        assert_eq!(host.routes.len(), 1);
    }
}
