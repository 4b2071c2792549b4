//! One shard: a whole [`slhost::Host`] (connection table, timer wheel,
//! budget, event loop) driven by a command stream.
//!
//! The stacks are deliberately **not** `Send` (they share an
//! `Rc<RefCell<AccessLog>>` with their sublayers), so a shard's
//! `ServedHost` is constructed *inside* its worker thread by a `Send`
//! factory closure; only plain data — frames, commands, counters —
//! crosses the rings. A shard's entire behavior is a function of its
//! command sequence, which arrives over a FIFO ring: no shared mutable
//! state, no locks around protocol state, no scheduling-dependent
//! results.
//!
//! Each shard is also a **fault domain**. The worker loop runs every
//! command under `catch_unwind`: a panic in host or app code kills only
//! that worker (its rings close as the stack unwinds), and every
//! coordinator-facing call reports the death as a typed
//! [`ShardError::Disconnected`] instead of propagating a panic. Faults
//! can be injected deterministically at a logical round via
//! [`Cmd::Inject`]; [`Mode::Inline`](crate::Mode) mirrors the same
//! behavior (including the unwind) on the caller's thread, so crashed
//! runs can still be checked against the single-threaded reference.

use crate::fault::{FaultKind, FaultSpec};
use crate::merge::Stamped;
use crate::ring::{self, SendStatus};
use netsim::{Dur, MultiStack, Pressure, Time};
use slhost::{HostApp, HostStack, ServedHost};
use slmetrics::HostCounters;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::Duration;

/// Typed cross-thread failure: what a coordinator call observes instead
/// of a panic when a shard worker is gone or unresponsive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// The worker is dead: it panicked (rings closed as it unwound), was
    /// shut down, or — in inline mode — its core was dropped after a
    /// caught unwind.
    Disconnected,
    /// The worker's command ring stayed full past the bounded wait; the
    /// shard is alive but not draining its feed.
    Backlogged,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Disconnected => write!(f, "shard worker disconnected"),
            ShardError::Backlogged => write!(f, "shard command ring backlogged"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Coordinator → shard commands. Every `Flush`/`Tick`/`Snapshot` gets
/// exactly one [`Rep`] back; the rest are fire-and-forget.
#[derive(Clone, Debug)]
pub enum Cmd {
    /// Deliver one raw frame to the shard's host (queued there until the
    /// next flush services the ingest batch).
    Frame(Time, Vec<u8>),
    /// Service the ingest batch and drain outgoing frames.
    Flush(Time),
    /// Advance timers to `now`, then drain outgoing frames.
    Tick(Time),
    /// Impose the global pressure-tier floor (ladder level two).
    SetFloor(Time, Pressure),
    /// Arm a deterministic fault (fires when the shard's logical round
    /// reaches `at_round`).
    Inject(FaultSpec),
    /// Report counters and app totals.
    Snapshot,
    /// Exit the worker loop.
    Shutdown,
}

/// Shard → coordinator replies.
#[derive(Clone, Debug)]
pub enum Rep {
    /// Reply to `Flush`/`Tick`.
    Flushed(FlushRep),
    /// Reply to `Snapshot`.
    Snap(Box<ShardSnapshot>),
}

/// What a flush/tick round produced and where the shard stands.
#[derive(Clone, Debug, Default)]
pub struct FlushRep {
    /// Outgoing frames, stamped for the deterministic merge.
    pub frames: Vec<Stamped>,
    /// The shard host's next timer deadline (cached by the coordinator so
    /// `poll_deadline` needs no cross-thread call).
    pub deadline: Option<Time>,
    /// Sampled buffered-byte occupancy (throttled; feeds the global
    /// budget tier).
    pub used: u64,
    /// Live connections on this shard.
    pub conns: u64,
    /// The logical round this reply acknowledges (the supervisor's
    /// heartbeat currency — rounds, not wall clock).
    pub round: u64,
    /// `true` if the shard acknowledged the round without servicing it
    /// (an armed stall/wedge is holding it). Stalled replies do not count
    /// as heartbeats.
    pub stalled: bool,
}

/// Point-in-time shard state for reports and invariant checks.
#[derive(Clone, Debug, Default)]
pub struct ShardSnapshot {
    pub shard: u32,
    pub counters: HostCounters,
    /// Effective pressure tier at snapshot time (0..=3).
    pub pressure: u8,
    /// Imposed floor at snapshot time (0..=3).
    pub floor: u8,
    /// App-level totals (for [`slhost::EchoApp`]: bytes echoed,
    /// connections served).
    pub app_a: u64,
    pub app_b: u64,
    /// Inter-sublayer boundary crossings (`None`⇒0 for the monolith).
    pub crossings: u64,
    /// The shard's logical round counter at snapshot time.
    pub round: u64,
    /// Supervisor's health classification, filled in by the coordinator
    /// (0 healthy, 1 stalled, 2 dead, 3 failed/gave-up).
    pub health: u8,
    /// How many times the supervisor has rebuilt this shard.
    pub restarts: u32,
}

/// App-side totals a shard reports in its snapshot, so campaign
/// invariants (all echoes intact) can be checked without reaching into a
/// worker thread.
pub trait AppReport {
    /// Two totals, app-defined. For [`slhost::EchoApp`]: (bytes echoed,
    /// connections served).
    fn report(&self) -> (u64, u64);
}

impl AppReport for slhost::EchoApp {
    fn report(&self) -> (u64, u64) {
        (self.echoed, self.served)
    }
}

fn tier(p: Pressure) -> u8 {
    match p {
        Pressure::Nominal => 0,
        Pressure::Elevated => 1,
        Pressure::High => 2,
        Pressure::Critical => 3,
    }
}

/// The state machine a worker (or the inline reference mode) runs: one
/// served host plus the logical clock that stamps its output.
pub struct ShardCore<S: HostStack, A: HostApp<S> + AppReport> {
    served: ServedHost<S, A>,
    shard: u32,
    /// Logical clock: one round per flush/tick processed.
    round: u64,
    /// Occupancy sampling throttle (mirrors `HostConfig::refresh_every`;
    /// `Dur::ZERO` samples every round).
    sample_every: Dur,
    last_sample: Option<Time>,
    used_cache: u64,
    /// Armed-but-unfired faults ([`Cmd::Inject`]).
    armed: Vec<FaultSpec>,
    /// Rounds of stall left to serve (`u64::MAX` while wedged).
    stall_left: u64,
    wedged: bool,
    /// Frames that arrived during a stall, replayed in order when
    /// service resumes.
    deferred: VecDeque<(Time, Vec<u8>)>,
}

impl<S: HostStack, A: HostApp<S> + AppReport> ShardCore<S, A> {
    pub fn new(served: ServedHost<S, A>, shard: u32) -> Self {
        let sample_every = served.host.config().refresh_every;
        ShardCore {
            served,
            shard,
            round: 0,
            sample_every,
            last_sample: None,
            used_cache: 0,
            armed: Vec::new(),
            stall_left: 0,
            wedged: false,
            deferred: VecDeque::new(),
        }
    }

    /// Start the logical clock at `round` — used when the supervisor
    /// rebuilds a dead shard, so the replacement's stamps continue from
    /// the coordinator round of the restart (keeping the `(round, shard,
    /// seq)` merge order deterministic across the crash).
    pub fn with_round(mut self, round: u64) -> Self {
        self.round = round;
        self
    }

    fn stalled(&self) -> bool {
        self.wedged || self.stall_left > 0
    }

    /// Fire any fault armed for the current round. A `Panic` fault is a
    /// *real* `panic!` — the worker loop's `catch_unwind` is the
    /// mechanism under test, in both modes.
    fn check_faults(&mut self) {
        let round = self.round;
        let mut i = 0;
        while i < self.armed.len() {
            if self.armed[i].at_round <= round {
                let f = self.armed.swap_remove(i);
                match f.kind {
                    FaultKind::Panic => {
                        panic!("slshard-fault: injected panic (shard {}, round {})", self.shard, round)
                    }
                    FaultKind::Stall(k) => self.stall_left = self.stall_left.saturating_add(k),
                    FaultKind::Wedge => self.wedged = true,
                }
            } else {
                i += 1;
            }
        }
    }

    /// Process one command; `Some(rep)` iff the command demands a reply.
    pub fn step(&mut self, cmd: Cmd) -> Option<Rep> {
        match cmd {
            Cmd::Frame(now, frame) => {
                if self.stalled() {
                    self.deferred.push_back((now, frame));
                } else {
                    self.served.on_frame(now, 0, &frame);
                }
                None
            }
            Cmd::Flush(now) => Some(Rep::Flushed(self.round_trip(now, false))),
            Cmd::Tick(now) => Some(Rep::Flushed(self.round_trip(now, true))),
            Cmd::SetFloor(now, floor) => {
                self.served.host.set_pressure_floor(now, floor);
                None
            }
            Cmd::Inject(spec) => {
                self.armed.push(spec);
                None
            }
            Cmd::Snapshot => {
                self.served.host.sample_gauges();
                let (app_a, app_b) = self.served.app.report();
                Some(Rep::Snap(Box::new(ShardSnapshot {
                    shard: self.shard,
                    counters: self.served.host.counters,
                    pressure: tier(self.served.host.pressure()),
                    floor: tier(self.served.host.pressure_floor()),
                    app_a,
                    app_b,
                    crossings: self.served.host.stack().crossing_events().unwrap_or(0),
                    round: self.round,
                    health: 0,
                    restarts: 0,
                })))
            }
            Cmd::Shutdown => None,
        }
    }

    /// One round: optionally tick timers, service the ingest batch, drain
    /// and stamp every outgoing frame. A stalled round is acknowledged
    /// (so the ring drains and the reply protocol stays 1:1) but not
    /// serviced: no frames, `stalled: true`.
    fn round_trip(&mut self, now: Time, tick: bool) -> FlushRep {
        self.check_faults();
        if self.stalled() {
            if !self.wedged {
                self.stall_left -= 1;
            }
            let round = self.round;
            self.round += 1;
            return FlushRep {
                frames: Vec::new(),
                deadline: self.served.poll_deadline(now),
                used: self.used_cache,
                conns: self.served.host.counters.conns_open,
                round,
                stalled: true,
            };
        }
        while let Some((at, frame)) = self.deferred.pop_front() {
            self.served.on_frame(at, 0, &frame);
        }
        if tick {
            self.served.on_tick(now);
        }
        let mut frames = Vec::new();
        let mut seq = 0u32;
        while let Some((_port, frame)) = self.served.poll_transmit(now) {
            frames.push(Stamped { round: self.round, shard: self.shard, seq, frame });
            seq += 1;
        }
        let round = self.round;
        self.round += 1;
        // Throttled occupancy sample: cheap rounds reuse the cached value,
        // so the global ladder sees bounded-staleness data without an
        // O(conns) scan per batch.
        let stale = match self.last_sample {
            Some(last) if self.sample_every > Dur::ZERO => {
                now.since(last) < self.sample_every
            }
            Some(_) => false,
            None => false,
        };
        if !stale {
            self.last_sample = Some(now);
            self.served.host.sample_gauges();
            self.used_cache = self.served.host.counters.mem_used;
        }
        FlushRep {
            frames,
            deadline: self.served.poll_deadline(now),
            used: self.used_cache,
            conns: self.served.host.counters.conns_open,
            round,
            stalled: false,
        }
    }
}

/// Where a shard runs.
pub enum Worker<S: HostStack, A: HostApp<S> + AppReport> {
    /// Same thread as the coordinator — the single-threaded reference
    /// mode the determinism tests cross-check against. `core: None`
    /// means the shard died (a caught unwind dropped it).
    Inline {
        core: Option<Box<ShardCore<S, A>>>,
        reps: VecDeque<Rep>,
    },
    /// A real `std::thread` behind a pair of bounded SPSC rings.
    Thread {
        tx: ring::Sender<Cmd>,
        rx: ring::Receiver<Rep>,
        handle: Option<JoinHandle<()>>,
    },
}

impl<S: HostStack, A: HostApp<S> + AppReport> Worker<S, A> {
    /// Spawn a threaded worker. The factory runs *inside* the new thread
    /// (the host machinery is not `Send`). `start_round` seeds the
    /// logical clock (0 at first boot; the coordinator round on a
    /// supervised restart). Spawn failure (OS thread exhaustion) is a
    /// typed error, not a panic — the supervisor maps it to a failed
    /// shard.
    pub fn spawn<F>(shard: u32, ring_cap: usize, start_round: u64, factory: F) -> std::io::Result<Self>
    where
        F: FnOnce() -> ServedHost<S, A> + Send + 'static,
    {
        let (cmd_tx, cmd_rx) = ring::ring::<Cmd>(ring_cap);
        let (rep_tx, rep_rx) = ring::ring::<Rep>(ring_cap);
        let handle = std::thread::Builder::new()
            .name(format!("slshard-{shard}"))
            .spawn(move || {
                let mut core = ShardCore::new(factory(), shard).with_round(start_round);
                while let Some(cmd) = cmd_rx.recv() {
                    let shutdown = matches!(cmd, Cmd::Shutdown);
                    // The fault boundary: a panic in host/app/injected
                    // code ends this worker only. Dropping out of the
                    // loop drops both ring halves, which closes them and
                    // surfaces `Disconnected` to the coordinator.
                    match catch_unwind(AssertUnwindSafe(|| core.step(cmd))) {
                        Ok(Some(rep)) => {
                            if !rep_tx.send(rep) {
                                break;
                            }
                        }
                        Ok(None) => {}
                        Err(_) => break,
                    }
                    if shutdown {
                        break;
                    }
                }
            })?;
        Ok(Worker::Thread { tx: cmd_tx, rx: rep_rx, handle: Some(handle) })
    }

    /// Build an inline worker (runs on the caller's thread).
    pub fn inline(shard: u32, start_round: u64, served: ServedHost<S, A>) -> Self {
        Worker::Inline {
            core: Some(Box::new(ShardCore::new(served, shard).with_round(start_round))),
            reps: VecDeque::new(),
        }
    }

    /// Issue a command. Inline workers execute it immediately (under the
    /// same `catch_unwind` discipline as the threaded loop) and queue any
    /// reply; threaded workers enqueue it on the ring. `Err` means the
    /// shard is dead.
    pub fn send(&mut self, cmd: Cmd) -> Result<(), ShardError> {
        match self {
            Worker::Inline { core, reps } => {
                let Some(c) = core.as_mut() else {
                    return Err(ShardError::Disconnected);
                };
                match catch_unwind(AssertUnwindSafe(|| c.step(cmd))) {
                    Ok(Some(rep)) => {
                        reps.push_back(rep);
                        Ok(())
                    }
                    Ok(None) => Ok(()),
                    Err(_) => {
                        // The unwound core's invariants are suspect; drop
                        // it. The shard is now exactly as dead as a
                        // panicked thread worker.
                        *core = None;
                        Err(ShardError::Disconnected)
                    }
                }
            }
            Worker::Thread { tx, .. } => {
                if tx.send(cmd) {
                    Ok(())
                } else {
                    Err(ShardError::Disconnected)
                }
            }
        }
    }

    /// Like [`send`](Self::send), but waits at most `bound` for ring
    /// room. `Err(Backlogged)` means the shard is alive but not draining
    /// its command ring — the caller's cue to count a stall instead of
    /// blocking the whole fleet behind one slow shard.
    pub fn send_bounded(&mut self, cmd: Cmd, bound: Duration) -> Result<(), ShardError> {
        match self {
            Worker::Inline { .. } => self.send(cmd),
            Worker::Thread { tx, .. } => match tx.send_timeout(cmd, bound) {
                SendStatus::Sent => Ok(()),
                SendStatus::Full(_) => Err(ShardError::Backlogged),
                SendStatus::Disconnected(_) => Err(ShardError::Disconnected),
            },
        }
    }

    /// Block for the next reply (exactly one per `Flush`/`Tick`/
    /// `Snapshot` issued). `Err` — never a panic — if the worker died
    /// before replying.
    pub fn recv(&mut self) -> Result<Rep, ShardError> {
        match self {
            Worker::Inline { core, reps } => match reps.pop_front() {
                Some(rep) => Ok(rep),
                None => {
                    debug_assert!(core.is_none(), "recv without a pending reply on a live inline shard");
                    Err(ShardError::Disconnected)
                }
            },
            Worker::Thread { rx, .. } => rx.recv().ok_or(ShardError::Disconnected),
        }
    }
}

impl<S: HostStack, A: HostApp<S> + AppReport> Drop for Worker<S, A> {
    fn drop(&mut self) {
        if let Worker::Thread { tx, handle, .. } = self {
            // Best-effort shutdown. If the command ring is jammed the
            // worker is wedged for real: detach instead of joining (the
            // ring halves we drop right after this close the ring, so a
            // worker that ever drains again exits on its own).
            let join = !matches!(tx.try_send(Cmd::Shutdown), SendStatus::Full(_));
            if let Some(h) = handle.take() {
                if join {
                    let _ = h.join();
                } else {
                    drop(h);
                }
            }
        }
    }
}
