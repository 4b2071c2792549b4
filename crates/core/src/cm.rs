//! The **connection management (CM)** sublayer (§3).
//!
//! CM's service to RD is to "establish a pair of Initial Sequence Numbers"
//! via the SYN handshake, using its own *bootstrap* reliability
//! (retransmission and timeout of SYNs, no windows) — the paper notes this
//! duplication "is implicit in TCP which uses a bootstrap reliability
//! mechanism to set up more sophisticated mechanisms in RD". CM owns the
//! SYN/FIN/RST flag bits and the ISN fields of the native header, and the
//! close/TIME_WAIT lifecycle. The FIN's in-order delivery and
//! acknowledgment ride on RD (exactly as in TCP); CM owns the close
//! *decision* and the flag bit, RD owns the retransmission — the coupling
//! the paper acknowledges, here made explicit as a two-call interface
//! (`close_requested` / `on_local_fin_acked`).
//!
//! Two schemes demonstrate replaceability (experiment E8):
//! * [`CmScheme::ThreeWay`] — classic SYN / SYN-ACK / ACK;
//! * [`CmScheme::TimerBased`] — Watson's timer-based scheme (paper [31]):
//!   no handshake at all; ISNs ride in the CM header of every packet and
//!   connections die by quiet-time, not FIN.

use crate::dm::{Admitted, ConnId};
use crate::fingerprint as fp;
use crate::mailbox::Mailbox;
use crate::signals::SeqValidity;
use crate::wire::{CmFlags, CmHeader, Packet};
use netsim::{Dur, Keepalive, Time, TransportError};
use slmetrics::{site, SharedLog};

/// Which connection-management mechanism runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmScheme {
    ThreeWay,
    /// Watson delta-t: establishment is implicit, teardown by quiet time.
    TimerBased { quiet: Dur },
}

/// CM lifecycle state (reported in TCP-like vocabulary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmState {
    Idle,
    SynSent,
    SynRcvd,
    Established,
    /// We closed; FIN in RD's hands; waiting for it to be acked and/or the
    /// peer's FIN.
    Closing,
    TimeWait,
    Closed,
}

/// Events CM reports upward to the stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CmEvent {
    /// ISN pair established; RD may initialize.
    Established { local_isn: u32, peer_isn: u32 },
    /// The connection was reset or gave up.
    Reset,
    /// Fully closed; the stack may unbind.
    Closed,
}

/// What to do with a packet after CM has seen its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmPass {
    /// CM consumed it (handshake traffic).
    Consumed,
    /// Hand the RD/OSR parts upward.
    PassUp,
    /// Connection is dead; drop.
    Drop,
}

const SYN_RTO: Dur = Dur(1_000_000_000);
const MAX_SYN_RETRIES: u32 = 6;
const TIME_WAIT: Dur = Dur(10_000_000_000);

/// Per-connection CM machine.
///
/// Construction demands an [`Admitted`] token, which only
/// [`crate::dm::Demux::bind`] can mint — the DM⇒CM half of the sublayer
/// contract chain, enforced by the type system: CM cannot sequence a flow
/// DM never admitted.
#[derive(Clone)]
pub struct ConnMgmt {
    /// The DM admission this machine manages (from the consumed token).
    conn: ConnId,
    scheme: CmScheme,
    state: CmState,
    local_isn: u32,
    peer_isn: Option<u32>,
    /// We initiated (or accepted) a close.
    close_requested: bool,
    local_fin_acked: bool,
    peer_fin_seen: bool,
    /// Peer's FIN arrived before the local close: we are the passive
    /// closer and finish in CLOSED, not TIME_WAIT.
    passive_close: bool,
    /// Handshake retransmission.
    rtx_deadline: Option<Time>,
    rtx_count: u32,
    time_wait_deadline: Option<Time>,
    /// When the last inbound packet arrived, one CM dropped included (a
    /// passive, cookie or timer-based open counts as one): timer-based quiet
    /// time, keepalive and half-open staleness all count from here.
    last_activity: Time,
    /// Keepalive probes sent since `last_activity`.
    ka_probes: u32,
    /// Why the connection died, when it died abnormally.
    reset_reason: Option<TransportError>,
    /// RFC 5961 challenge ACKs issued (in-window RST/SYN refused).
    challenge_acks: u64,
    events: Mailbox<CmEvent>,
    /// CM-originated packets, as the one subheader that tells them apart:
    /// a SYN, a RST or a bare ack carries nothing else until
    /// [`ConnMgmt::poll_packet`] builds the packet around it.
    outbox: Mailbox<CmHeader>,
    log: SharedLog,
}

impl ConnMgmt {
    fn new(token: Admitted, scheme: CmScheme, local_isn: u32, log: SharedLog) -> ConnMgmt {
        ConnMgmt {
            conn: token.id(),
            scheme,
            state: CmState::Idle,
            local_isn,
            peer_isn: None,
            close_requested: false,
            local_fin_acked: false,
            peer_fin_seen: false,
            passive_close: false,
            rtx_deadline: None,
            rtx_count: 0,
            time_wait_deadline: None,
            last_activity: Time::ZERO,
            ka_probes: 0,
            reset_reason: None,
            challenge_acks: 0,
            events: Mailbox::new(),
            outbox: Mailbox::new(),
            log,
        }
    }

    /// Active open (connect side). Consumes the [`Admitted`] token DM
    /// minted for this flow's 4-tuple (one admission, one connection).
    pub fn open_active(
        token: Admitted,
        scheme: CmScheme,
        local_isn: u32,
        now: Time,
        log: SharedLog,
    ) -> ConnMgmt {
        let mut cm = ConnMgmt::new(token, scheme, local_isn, log);
        cm.log.borrow_mut().write(site!("cm", "state"));
        cm.log.borrow_mut().write(site!("cm", "local_isn"));
        match scheme {
            CmScheme::ThreeWay => {
                cm.state = CmState::SynSent;
                cm.queue_syn(false);
                cm.rtx_deadline = Some(now + SYN_RTO);
            }
            CmScheme::TimerBased { .. } => {
                // No handshake: consider established; the peer ISN is
                // learned from the first inbound packet's CM header.
                cm.state = CmState::Established;
                cm.last_activity = now;
            }
        }
        cm
    }

    /// Passive open (listener side), given the arriving packet's CM header.
    /// Consumes the [`Admitted`] token; on `None` the caller still holds
    /// the admission in DM's table and must release it with
    /// [`crate::dm::Demux::unbind`].
    pub fn open_passive(
        token: Admitted,
        scheme: CmScheme,
        local_isn: u32,
        peer: &CmHeader,
        now: Time,
        log: SharedLog,
    ) -> Option<ConnMgmt> {
        let mut cm = ConnMgmt::new(token, scheme, local_isn, log);
        cm.log.borrow_mut().write(site!("cm", "state"));
        cm.log.borrow_mut().write(site!("cm", "peer_isn"));
        // The opening packet is the first inbound one.
        cm.last_activity = now;
        match scheme {
            CmScheme::ThreeWay => {
                if !peer.flags.syn || peer.flags.cm_ack {
                    return None; // only a bare SYN may open
                }
                cm.peer_isn = Some(peer.isn);
                cm.state = CmState::SynRcvd;
                cm.queue_syn(true);
                cm.rtx_deadline = Some(now + SYN_RTO);
                Some(cm)
            }
            CmScheme::TimerBased { .. } => {
                if peer.flags.syn || peer.flags.rst {
                    return None;
                }
                cm.peer_isn = Some(peer.isn);
                cm.state = CmState::Established;
                cm.events.push_back(CmEvent::Established {
                    local_isn: cm.local_isn,
                    peer_isn: peer.isn,
                });
                Some(cm)
            }
        }
    }

    /// Rebuild CM for a flow whose handshake completed *statelessly*: the
    /// returning ACK proved knowledge of a valid SYN cookie, so the ISN
    /// pair is already established — go straight to `Established`
    /// (ThreeWay only; the timer-based scheme keeps no half-open state to
    /// flood in the first place).
    pub fn open_cookie(
        token: Admitted,
        local_isn: u32,
        peer_isn: u32,
        now: Time,
        log: SharedLog,
    ) -> ConnMgmt {
        let mut cm = ConnMgmt::new(token, CmScheme::ThreeWay, local_isn, log);
        cm.log.borrow_mut().write(site!("cm", "state"));
        cm.log.borrow_mut().write(site!("cm", "peer_isn"));
        cm.peer_isn = Some(peer_isn);
        cm.last_activity = now;
        cm.establish();
        cm
    }

    pub fn state(&self) -> CmState {
        self.state
    }

    pub fn local_isn(&self) -> u32 {
        self.local_isn
    }

    pub fn peer_isn(&self) -> Option<u32> {
        self.peer_isn
    }

    /// Next event for the stack, oldest first.
    pub fn poll_event(&mut self) -> Option<CmEvent> {
        self.events.pop_front()
    }

    // `benchmark/src/chain.rs` still drains by `Vec`, and a PR that claims a
    // gain may not edit `benchmark/`: the next benchmark-only PR moves it to
    // `poll_event` and deletes this.
    pub fn take_events(&mut self) -> Vec<CmEvent> {
        std::iter::from_fn(|| self.poll_event()).collect()
    }

    /// Why the connection died, when it died abnormally.
    pub fn reset_reason(&self) -> Option<TransportError> {
        self.reset_reason
    }

    /// RFC 5961 challenge ACKs this connection has issued.
    pub fn challenge_acks(&self) -> u64 {
        self.challenge_acks
    }

    /// Issue an RFC 5961 challenge ACK: an empty packet whose exact
    /// seq/ack RD stamps at fill time. A blind attacker learns nothing;
    /// a legitimate peer that truly lost state answers it with an
    /// exact-sequence RST, which *is* obeyed.
    fn challenge(&mut self) {
        self.challenge_acks += 1;
        self.outbox.push_back(CmHeader::default());
    }

    /// Abort the connection: queue an RST to the peer, record `reason`,
    /// and move straight to `Closed`. Idempotent once closed.
    pub fn abort(&mut self, reason: TransportError) {
        if matches!(self.state, CmState::Closed) {
            return;
        }
        self.log.borrow_mut().write(site!("cm", "state"));
        self.state = CmState::Closed;
        self.reset_reason.get_or_insert(reason);
        self.rtx_deadline = None;
        self.time_wait_deadline = None;
        self.outbox.push_back(CmHeader {
            flags: CmFlags { rst: true, ..CmFlags::default() },
            isn: self.local_isn,
            ack_isn: 0,
        });
        self.events.push_back(CmEvent::Reset);
    }

    fn queue_syn(&mut self, with_ack: bool) {
        self.log.borrow_mut().read(site!("cm", "local_isn"));
        self.outbox.push_back(CmHeader {
            flags: CmFlags { syn: true, cm_ack: with_ack, ..CmFlags::default() },
            isn: self.local_isn,
            ack_isn: if with_ack { self.peer_isn.expect("SYN-ACK needs the peer ISN") } else { 0 },
        });
    }

    fn establish(&mut self) {
        self.log.borrow_mut().write(site!("cm", "state"));
        self.state = CmState::Established;
        self.rtx_deadline = None;
        self.rtx_count = 0;
        self.events.push_back(CmEvent::Established {
            local_isn: self.local_isn,
            peer_isn: self.peer_isn.expect("established implies peer ISN"),
        });
    }

    /// Process the CM header of an inbound packet.
    /// `handshake_ack` is true when the packet acknowledges our ISN
    /// (derived by the stack from RD's cumulative ack so CM itself never
    /// reads RD bits: ack == local_isn + 1). `rst_seq` is RD's
    /// classification of the packet's sequence number (RFC 5961),
    /// likewise derived by the stack; before RD exists (handshake
    /// states) the stack passes [`SeqValidity::Exact`] so a RST answering
    /// our SYN is still obeyed.
    pub fn on_packet(
        &mut self,
        hdr: &CmHeader,
        handshake_ack: bool,
        rst_seq: SeqValidity,
        now: Time,
    ) -> CmPass {
        self.log.borrow_mut().read(site!("cm", "state"));
        self.last_activity = now;
        self.ka_probes = 0;
        if hdr.flags.rst {
            // Before the connection synchronizes there is no RD to judge
            // sequence numbers, so CM validates a RST with its *own* bits
            // (the RFC 793 rule that a RST answering a SYN must
            // acknowledge it): believe it only if it echoes our ISN. A
            // blind forger would have to guess the 32-bit ISN.
            if matches!(self.state, CmState::SynSent | CmState::SynRcvd) {
                if hdr.ack_isn == self.local_isn {
                    self.log.borrow_mut().write(site!("cm", "state"));
                    self.state = CmState::Closed;
                    self.reset_reason.get_or_insert(TransportError::Reset);
                    self.events.push_back(CmEvent::Reset);
                }
                return CmPass::Drop;
            }
            // RFC 5961 §3: obey only an *exact*-sequence RST; challenge an
            // in-window one (a blind attacker's best guess); ignore the
            // rest. CM decides the policy, RD did the arithmetic.
            match rst_seq {
                SeqValidity::Exact => {
                    self.log.borrow_mut().write(site!("cm", "state"));
                    // RFC 793 p.70: once both directions have shut down
                    // (TIME-WAIT, or our Closing with the peer's FIN
                    // already seen — the CLOSING/LAST-ACK analogs) a RST
                    // just deletes the TCB; only synchronized states
                    // with the user still attached signal "reset".
                    let silent = self.state == CmState::TimeWait
                        || (self.state == CmState::Closing && self.peer_fin_seen);
                    self.state = CmState::Closed;
                    if !silent {
                        self.reset_reason.get_or_insert(TransportError::Reset);
                    }
                    self.events.push_back(CmEvent::Reset);
                }
                SeqValidity::InWindow => self.challenge(),
                SeqValidity::Outside => {}
            }
            return CmPass::Drop;
        }
        match self.scheme {
            CmScheme::TimerBased { .. } => {
                if self.peer_isn.is_none() && !hdr.flags.syn {
                    self.log.borrow_mut().write(site!("cm", "peer_isn"));
                    self.peer_isn = Some(hdr.isn);
                    self.events.push_back(CmEvent::Established {
                        local_isn: self.local_isn,
                        peer_isn: hdr.isn,
                    });
                }
                if matches!(self.state, CmState::Closed) {
                    return CmPass::Drop;
                }
                CmPass::PassUp
            }
            CmScheme::ThreeWay => match self.state {
                CmState::SynSent => {
                    if hdr.flags.syn && hdr.flags.cm_ack && hdr.ack_isn == self.local_isn {
                        self.log.borrow_mut().write(site!("cm", "peer_isn"));
                        self.peer_isn = Some(hdr.isn);
                        self.establish();
                        // The pure ACK completing the handshake: an empty
                        // packet whose RD ack (stamped later) confirms.
                        self.outbox.push_back(CmHeader::default());
                        CmPass::Consumed
                    } else if hdr.flags.syn && !hdr.flags.cm_ack {
                        // Simultaneous open.
                        self.log.borrow_mut().write(site!("cm", "peer_isn"));
                        self.log.borrow_mut().write(site!("cm", "state"));
                        self.peer_isn = Some(hdr.isn);
                        self.state = CmState::SynRcvd;
                        self.queue_syn(true);
                        CmPass::Consumed
                    } else {
                        CmPass::Drop
                    }
                }
                CmState::SynRcvd => {
                    if hdr.flags.syn && !hdr.flags.cm_ack {
                        // Duplicate SYN: re-answer.
                        self.queue_syn(true);
                        return CmPass::Consumed;
                    }
                    if hdr.flags.syn && hdr.flags.cm_ack && hdr.ack_isn == self.local_isn {
                        // Crossed SYN-ACK: in a simultaneous open both
                        // sides move SYN_SENT -> SYN_RCVD and their
                        // SYN-ACKs cross in flight. The peer has
                        // acknowledged our ISN, so the connection is
                        // synchronized; confirm with a pure ACK exactly
                        // as the SYN_SENT path does (RFC 793 figure 8).
                        self.establish();
                        self.outbox.push_back(CmHeader::default());
                        return CmPass::Consumed;
                    }
                    if handshake_ack || !hdr.flags.syn {
                        // Explicit handshake ack, or implicit (data
                        // arriving means our SYN-ACK got through).
                        self.establish();
                        return CmPass::PassUp;
                    }
                    CmPass::Consumed
                }
                CmState::Established | CmState::Closing => {
                    if hdr.flags.syn {
                        // RFC 5961 §4: a SYN on a synchronized connection
                        // gets a challenge ACK, never a RST — a spoofed
                        // SYN must not kill a live connection, and a peer
                        // that genuinely rebooted will answer the
                        // challenge with an exact-sequence RST.
                        self.challenge();
                        return CmPass::Consumed;
                    }
                    CmPass::PassUp
                }
                CmState::TimeWait => {
                    // Re-ack anything (handled by RD's ack stamping on the
                    // empty packet).
                    self.outbox.push_back(CmHeader::default());
                    CmPass::Consumed
                }
                CmState::Idle | CmState::Closed => CmPass::Drop,
            },
        }
    }

    /// The application asked to close. CM flips state; the *stack* routes
    /// the FIN through RD (which owns its retransmission, as in TCP).
    /// Returns true when a FIN should be queued into RD.
    pub fn close_requested(&mut self) -> bool {
        self.log.borrow_mut().write(site!("cm", "state"));
        if self.close_requested {
            return false;
        }
        self.close_requested = true;
        match self.scheme {
            CmScheme::ThreeWay => {
                if matches!(self.state, CmState::Established | CmState::SynRcvd) {
                    self.state = CmState::Closing;
                    true
                } else {
                    self.state = CmState::Closed;
                    self.events.push_back(CmEvent::Closed);
                    false
                }
            }
            CmScheme::TimerBased { .. } => {
                // No FIN: the connection dies by quiet time.
                self.state = CmState::Closing;
                false
            }
        }
    }

    /// Whether [`ConnMgmt::close_requested`] has run: once it has, the
    /// stack has routed the FIN through RD, or a scheme or state that sends
    /// none has closed without one. The stack reads this; only CM writes it:
    ///
    /// ```compile_fail
    /// fn reopen(cm: &mut sublayer_core::ConnMgmt) {
    ///     cm.close_requested = false;
    /// }
    /// ```
    pub fn close_is_requested(&self) -> bool {
        self.close_requested
    }

    /// RD reports our FIN was acknowledged.
    pub fn on_local_fin_acked(&mut self, now: Time) {
        self.log.borrow_mut().write(site!("cm", "fin_state"));
        self.local_fin_acked = true;
        self.maybe_finish(now);
    }

    /// RD reports the peer's FIN was reached in sequence.
    pub fn on_peer_fin(&mut self, now: Time) {
        self.log.borrow_mut().write(site!("cm", "fin_state"));
        if !self.close_requested {
            // The peer closed first: we are the passive closer and skip
            // TIME_WAIT (RFC 793: CLOSE_WAIT -> LAST_ACK -> CLOSED).
            self.passive_close = true;
        }
        self.peer_fin_seen = true;
        self.maybe_finish(now);
    }

    pub fn peer_fin_seen(&self) -> bool {
        self.peer_fin_seen
    }

    fn maybe_finish(&mut self, now: Time) {
        if self.close_requested && self.local_fin_acked && self.peer_fin_seen {
            if self.passive_close {
                // Passive closer: the peer holds TIME_WAIT, we go
                // straight to CLOSED once our FIN is acknowledged.
                self.state = CmState::Closed;
                self.events.push_back(CmEvent::Closed);
            } else {
                // Active (or simultaneous) closer lingers in TIME_WAIT.
                self.state = CmState::TimeWait;
                self.time_wait_deadline = Some(now + TIME_WAIT);
            }
        }
    }

    /// Stamp CM's static fields on an outgoing packet (the redundant ISN
    /// the paper notes is "static after the initial handshake").
    pub fn fill_tx(&self, pkt: &mut Packet) {
        self.log.borrow_mut().read(site!("cm", "local_isn"));
        pkt.cm.isn = self.local_isn;
        if let Some(p) = self.peer_isn {
            pkt.cm.ack_isn = p;
        }
    }

    /// Mark an RD-emitted packet as carrying the FIN (CM owns the flag
    /// bit; RD owns the packet's retransmission).
    pub fn stamp_fin(&self, pkt: &mut Packet) {
        self.log.borrow_mut().read(site!("cm", "state"));
        pkt.cm.flags.fin = true;
    }

    /// Pending CM-originated packets (SYNs, handshake acks).
    pub fn poll_packet(&mut self) -> Option<Packet> {
        self.outbox.pop_front().map(|cm| Packet { cm, ..Packet::default() })
    }

    pub fn poll_deadline(&self) -> Option<Time> {
        let quiet_deadline = match self.scheme {
            CmScheme::TimerBased { quiet }
                if matches!(self.state, CmState::Closing) =>
            {
                Some(self.last_activity + quiet)
            }
            _ => None,
        };
        [self.rtx_deadline, self.time_wait_deadline, quiet_deadline]
            .into_iter()
            .flatten()
            .min()
    }

    pub fn on_tick(&mut self, now: Time) {
        if self.rtx_deadline.is_some_and(|d| now >= d) {
            self.log.borrow_mut().write(site!("cm", "rtx"));
            self.rtx_count += 1;
            if self.rtx_count > MAX_SYN_RETRIES {
                self.state = CmState::Closed;
                self.reset_reason.get_or_insert(TransportError::HandshakeFailed);
                self.events.push_back(CmEvent::Reset);
                self.rtx_deadline = None;
                return;
            }
            match self.state {
                CmState::SynSent => self.queue_syn(false),
                CmState::SynRcvd => self.queue_syn(true),
                _ => {}
            }
            // Exponential backoff for the bootstrap reliability.
            self.rtx_deadline = Some(now + SYN_RTO.saturating_mul(1 << self.rtx_count.min(6)));
        }
        if self.time_wait_deadline.is_some_and(|d| now >= d) {
            self.state = CmState::Closed;
            self.time_wait_deadline = None;
            self.events.push_back(CmEvent::Closed);
        }
        if let CmScheme::TimerBased { quiet } = self.scheme {
            if matches!(self.state, CmState::Closing)
                && now.since(self.last_activity) >= quiet
            {
                self.state = CmState::Closed;
                self.events.push_back(CmEvent::Closed);
            }
        }
    }

    /// When the last inbound packet arrived (as the field says). The stack
    /// reads this; only CM writes it:
    ///
    /// ```compile_fail
    /// fn refresh(cm: &mut sublayer_core::ConnMgmt, now: netsim::Time) {
    ///     cm.last_activity = now;
    /// }
    /// ```
    pub fn last_activity(&self) -> Time {
        self.last_activity
    }

    /// When the next keepalive action (probe or give-up) is due: `idle`
    /// after the last inbound packet, then `interval` after each
    /// unanswered probe. Only an established connection is probed. The
    /// probe count is CM's; only CM writes it:
    ///
    /// ```compile_fail
    /// fn forgive(cm: &mut sublayer_core::ConnMgmt) {
    ///     cm.ka_probes = 0;
    /// }
    /// ```
    pub fn keepalive_deadline(&self, ka: Keepalive) -> Option<Time> {
        (self.state == CmState::Established).then(|| {
            self.last_activity + ka.idle + ka.interval.saturating_mul(self.ka_probes as u64)
        })
    }

    /// CM's keepalive decision at `now`: true when a probe is due, which
    /// RD carries (as it carries the FIN). Probes keep firing with data in
    /// flight, as cheap liveness chatter that refreshes the peer's own idle
    /// timer, but only an `idle` connection (RD holds nothing unacked) is
    /// aborted with [`TransportError::PeerVanished`] once the probe budget
    /// is spent. With data in flight RD's retry budget owns liveness: the
    /// much smaller probe budget would kill a merely slow path (a reroute
    /// onto a longer RTT, or a partition shorter than the RTO budget).
    pub fn on_keepalive(&mut self, ka: Keepalive, now: Time, idle: bool) -> bool {
        if self.keepalive_deadline(ka).is_none_or(|due| now < due) {
            return false;
        }
        if self.ka_probes >= ka.max_probes && idle {
            self.abort(TransportError::PeerVanished);
            return false;
        }
        self.ka_probes += 1;
        true
    }

    /// Deterministic behavioral fingerprint for the CM contract checker
    /// (see [`crate::fingerprint`]): equal keys must imply behaviorally
    /// identical machines under the contract's drive alphabet.
    pub fn contract_key(&self) -> Vec<u64> {
        let scheme = match self.scheme {
            CmScheme::ThreeWay => 0,
            CmScheme::TimerBased { quiet } => fp::mix(1, quiet.0),
        };
        let state = match self.state {
            CmState::Idle => 0u64,
            CmState::SynSent => 1,
            CmState::SynRcvd => 2,
            CmState::Established => 3,
            CmState::Closing => 4,
            CmState::TimeWait => 5,
            CmState::Closed => 6,
        };
        let flags = (self.close_requested as u64)
            | (self.local_fin_acked as u64) << 1
            | (self.peer_fin_seen as u64) << 2
            | (self.passive_close as u64) << 3;
        let queues = fp::fold_bytes(
            fp::fold_bytes(fp::SEED, format!("{:?}", self.events).as_bytes()),
            format!("{:?}", self.outbox).as_bytes(),
        );
        vec![
            self.conn.0 as u64,
            scheme,
            state,
            self.local_isn as u64,
            self.peer_isn.map_or(u64::MAX, |p| p as u64),
            flags,
            self.rtx_deadline.map_or(u64::MAX, |t| t.0),
            self.rtx_count as u64,
            self.time_wait_deadline.map_or(u64::MAX, |t| t.0),
            self.last_activity.0,
            fp::fold_bytes(fp::SEED, format!("{:?}", self.reset_reason).as_bytes()),
            self.challenge_acks,
            queues,
        ]
    }
}

// ---------------------------------------------------------------------
// Contract driver (slverify::contracts::CmContract drives the *real*
// sublayer through this, exactly as CongCtrl drives RateController).
// ---------------------------------------------------------------------

/// The operations the CM assume/guarantee contract exercises. Implemented
/// by the shipped [`ConnMgmt`] and by the [`BuggyCm`] mutation canary.
pub trait CmDriver: Clone {
    fn on_packet(
        &mut self,
        hdr: &CmHeader,
        handshake_ack: bool,
        rst_seq: SeqValidity,
        now: Time,
    ) -> CmPass;
    fn on_tick(&mut self, now: Time);
    fn poll_deadline(&self) -> Option<Time>;
    fn state(&self) -> CmState;
    fn peer_isn(&self) -> Option<u32>;
    fn challenge_acks(&self) -> u64;
    fn poll_event(&mut self) -> Option<CmEvent>;
    /// See [`ConnMgmt::contract_key`].
    fn contract_key(&self) -> Vec<u64>;
}

impl CmDriver for ConnMgmt {
    fn on_packet(
        &mut self,
        hdr: &CmHeader,
        handshake_ack: bool,
        rst_seq: SeqValidity,
        now: Time,
    ) -> CmPass {
        ConnMgmt::on_packet(self, hdr, handshake_ack, rst_seq, now)
    }
    fn on_tick(&mut self, now: Time) {
        ConnMgmt::on_tick(self, now)
    }
    fn poll_deadline(&self) -> Option<Time> {
        ConnMgmt::poll_deadline(self)
    }
    fn state(&self) -> CmState {
        ConnMgmt::state(self)
    }
    fn peer_isn(&self) -> Option<u32> {
        ConnMgmt::peer_isn(self)
    }
    fn challenge_acks(&self) -> u64 {
        ConnMgmt::challenge_acks(self)
    }
    fn poll_event(&mut self) -> Option<CmEvent> {
        ConnMgmt::poll_event(self)
    }
    fn contract_key(&self) -> Vec<u64> {
        ConnMgmt::contract_key(self)
    }
}

/// Mutation canary for the CM contract, mirroring [`slcc::BuggyDeflate`]:
/// a plausible refactor decides the SYN|ACK's `ack_isn` echo is "redundant
/// once the flag pair is present" and accepts whatever incarnation
/// answered first — sequencing the connection from *outside* the admitted
/// window (a stale incarnation's handshake). Never wired into product
/// code; it exists so `CmContract` has a concrete counterexample.
#[derive(Clone)]
pub struct BuggyCm {
    inner: ConnMgmt,
}

impl BuggyCm {
    /// Same signature as [`ConnMgmt::open_active`].
    pub fn open_active(
        token: Admitted,
        scheme: CmScheme,
        local_isn: u32,
        now: Time,
        log: SharedLog,
    ) -> BuggyCm {
        BuggyCm { inner: ConnMgmt::open_active(token, scheme, local_isn, now, log) }
    }
}

impl CmDriver for BuggyCm {
    fn on_packet(
        &mut self,
        hdr: &CmHeader,
        handshake_ack: bool,
        rst_seq: SeqValidity,
        now: Time,
    ) -> CmPass {
        let mut hdr = *hdr;
        if matches!(self.inner.state, CmState::SynSent | CmState::SynRcvd)
            && hdr.flags.syn
            && hdr.flags.cm_ack
        {
            // THE BUG: rewrite the echoed ISN to our own before the real
            // machine judges it, so a stale SYN|ACK establishes.
            hdr.ack_isn = self.inner.local_isn;
        }
        self.inner.on_packet(&hdr, handshake_ack, rst_seq, now)
    }
    fn on_tick(&mut self, now: Time) {
        self.inner.on_tick(now)
    }
    fn poll_deadline(&self) -> Option<Time> {
        self.inner.poll_deadline()
    }
    fn state(&self) -> CmState {
        self.inner.state()
    }
    fn peer_isn(&self) -> Option<u32> {
        self.inner.peer_isn()
    }
    fn challenge_acks(&self) -> u64 {
        self.inner.challenge_acks()
    }
    fn poll_event(&mut self) -> Option<CmEvent> {
        self.inner.poll_event()
    }
    fn contract_key(&self) -> Vec<u64> {
        self.inner.contract_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::CmFlags;
    use slwire::{Endpoint, FourTuple};

    /// Mint a real [`Admitted`] token: the only way to build a CM machine
    /// is through a DM admission, in tests too.
    fn tok() -> Admitted {
        let mut d = crate::dm::Demux::new(1, slmetrics::shared());
        d.bind(FourTuple { local: Endpoint::new(1, 1), remote: Endpoint::new(2, 2) })
            .unwrap()
    }

    fn events(cm: &mut ConnMgmt) -> Vec<CmEvent> {
        std::iter::from_fn(|| cm.poll_event()).collect()
    }

    fn hdr(syn: bool, cm_ack: bool, isn: u32, ack_isn: u32) -> CmHeader {
        CmHeader { flags: CmFlags { syn, fin: false, rst: false, cm_ack }, isn, ack_isn }
    }

    #[test]
    fn three_way_handshake_active_side() {
        let mut cm = ConnMgmt::open_active(tok(), CmScheme::ThreeWay, 100, Time::ZERO, slmetrics::shared());
        assert_eq!(cm.state(), CmState::SynSent);
        let syn = cm.poll_packet().expect("SYN queued");
        assert!(syn.cm.flags.syn && !syn.cm.flags.cm_ack);
        assert_eq!(syn.cm.isn, 100);
        // SYN-ACK arrives.
        let pass = cm.on_packet(&hdr(true, true, 200, 100), false, SeqValidity::Exact, Time::ZERO);
        assert_eq!(pass, CmPass::Consumed);
        assert_eq!(cm.state(), CmState::Established);
        assert_eq!(cm.peer_isn(), Some(200));
        assert_eq!(
            events(&mut cm),
            vec![CmEvent::Established { local_isn: 100, peer_isn: 200 }]
        );
        // The handshake-completing ack packet is queued.
        assert!(cm.poll_packet().is_some());
    }

    #[test]
    fn three_way_handshake_passive_side() {
        let peer_syn = hdr(true, false, 500, 0);
        let mut cm =
            ConnMgmt::open_passive(tok(), CmScheme::ThreeWay, 900, &peer_syn, Time::ZERO, slmetrics::shared())
                .expect("SYN opens");
        assert_eq!(cm.state(), CmState::SynRcvd);
        let synack = cm.poll_packet().unwrap();
        assert!(synack.cm.flags.syn && synack.cm.flags.cm_ack);
        assert_eq!(synack.cm.ack_isn, 500);
        // Handshake ack arrives (stack derives handshake_ack from RD ack).
        let pass = cm.on_packet(&hdr(false, false, 500, 0), true, SeqValidity::Exact, Time::ZERO);
        assert_eq!(pass, CmPass::PassUp);
        assert_eq!(cm.state(), CmState::Established);
    }

    #[test]
    fn passive_open_rejects_non_syn() {
        assert!(ConnMgmt::open_passive(tok(), 
            CmScheme::ThreeWay,
            1,
            &hdr(false, false, 5, 0),
            Time::ZERO,
            slmetrics::shared()
        )
        .is_none());
    }

    #[test]
    fn data_in_syn_rcvd_implicitly_establishes() {
        let mut cm = ConnMgmt::open_passive(tok(), 
            CmScheme::ThreeWay,
            900,
            &hdr(true, false, 500, 0),
            Time::ZERO,
            slmetrics::shared(),
        )
        .unwrap();
        cm.poll_packet();
        let pass = cm.on_packet(&hdr(false, false, 500, 0), false, SeqValidity::Exact, Time::ZERO);
        assert_eq!(pass, CmPass::PassUp);
        assert_eq!(cm.state(), CmState::Established);
    }

    #[test]
    fn syn_retransmission_with_backoff() {
        let mut cm = ConnMgmt::open_active(tok(), CmScheme::ThreeWay, 1, Time::ZERO, slmetrics::shared());
        cm.poll_packet();
        assert!(cm.poll_packet().is_none());
        let d1 = cm.poll_deadline().unwrap();
        cm.on_tick(d1);
        assert!(cm.poll_packet().is_some(), "SYN retransmitted");
        let d2 = cm.poll_deadline().unwrap();
        assert!(d2.since(d1) > d1.since(Time::ZERO), "backoff grows");
    }

    #[test]
    fn syn_gives_up_eventually() {
        let mut cm = ConnMgmt::open_active(tok(), CmScheme::ThreeWay, 1, Time::ZERO, slmetrics::shared());
        for _ in 0..10 {
            if let Some(d) = cm.poll_deadline() {
                cm.on_tick(d);
            }
        }
        assert_eq!(cm.state(), CmState::Closed);
        assert!(events(&mut cm).contains(&CmEvent::Reset));
    }

    #[test]
    fn rst_kills_connection() {
        let mut cm = ConnMgmt::open_active(tok(), CmScheme::ThreeWay, 1, Time::ZERO, slmetrics::shared());
        // Pre-synchronization, a RST is believed only if it acknowledges
        // our SYN — i.e. echoes our ISN (RFC 793).
        let mut rst = hdr(false, false, 0, 1);
        rst.flags.rst = true;
        assert_eq!(cm.on_packet(&rst, false, SeqValidity::Exact, Time::ZERO), CmPass::Drop);
        assert_eq!(cm.state(), CmState::Closed);
        assert_eq!(events(&mut cm), vec![CmEvent::Reset]);
    }

    #[test]
    fn blind_rst_in_syn_sent_is_ignored() {
        let mut cm = ConnMgmt::open_active(tok(), CmScheme::ThreeWay, 1, Time::ZERO, slmetrics::shared());
        // A forged RST that does not echo our ISN never aborts the
        // handshake, whatever sequence validity the (absent) RD reports.
        let mut rst = hdr(false, false, 0, 99);
        rst.flags.rst = true;
        assert_eq!(cm.on_packet(&rst, false, SeqValidity::Exact, Time::ZERO), CmPass::Drop);
        assert_eq!(cm.state(), CmState::SynSent);
        assert!(events(&mut cm).is_empty());
    }

    #[test]
    fn close_lifecycle_reaches_time_wait_then_closed() {
        let mut cm = ConnMgmt::open_active(tok(), CmScheme::ThreeWay, 1, Time::ZERO, slmetrics::shared());
        cm.on_packet(&hdr(true, true, 2, 1), false, SeqValidity::Exact, Time::ZERO);
        assert!(cm.close_requested(), "FIN should be routed to RD");
        assert_eq!(cm.state(), CmState::Closing);
        cm.on_local_fin_acked(Time::ZERO + Dur::from_secs(1));
        cm.on_peer_fin(Time::ZERO + Dur::from_secs(1));
        assert_eq!(cm.state(), CmState::TimeWait);
        let dl = cm.poll_deadline().unwrap();
        cm.on_tick(dl);
        assert_eq!(cm.state(), CmState::Closed);
        assert!(events(&mut cm).contains(&CmEvent::Closed));
    }

    #[test]
    fn timer_based_needs_no_handshake() {
        let mut a = ConnMgmt::open_active(tok(), 
            CmScheme::TimerBased { quiet: Dur::from_secs(5) },
            100,
            Time::ZERO,
            slmetrics::shared(),
        );
        assert_eq!(a.state(), CmState::Established);
        assert!(a.poll_packet().is_none(), "no SYN in timer-based CM");
        // First inbound packet teaches us the peer ISN.
        let pass = a.on_packet(&hdr(false, false, 777, 0), false, SeqValidity::Exact, Time::ZERO);
        assert_eq!(pass, CmPass::PassUp);
        assert_eq!(a.peer_isn(), Some(777));
        assert_eq!(
            events(&mut a),
            vec![CmEvent::Established { local_isn: 100, peer_isn: 777 }]
        );
    }

    #[test]
    fn timer_based_closes_by_quiet_time() {
        let quiet = Dur::from_secs(5);
        let mut a = ConnMgmt::open_active(tok(), 
            CmScheme::TimerBased { quiet },
            100,
            Time::ZERO,
            slmetrics::shared(),
        );
        a.on_packet(&hdr(false, false, 777, 0), false, SeqValidity::Exact, Time::ZERO);
        assert!(!a.close_requested(), "no FIN in timer-based CM");
        assert_eq!(a.state(), CmState::Closing);
        let dl = a.poll_deadline().unwrap();
        assert_eq!(dl, Time::ZERO + quiet);
        a.on_tick(dl);
        assert_eq!(a.state(), CmState::Closed);
    }

    #[test]
    fn abort_queues_rst_and_records_reason() {
        let mut cm = ConnMgmt::open_active(tok(), CmScheme::ThreeWay, 42, Time::ZERO, slmetrics::shared());
        cm.on_packet(&hdr(true, true, 77, 42), false, SeqValidity::Exact, Time::ZERO);
        while cm.poll_packet().is_some() {} // drain SYN + handshake ack
        assert_eq!(cm.state(), CmState::Established);
        cm.abort(TransportError::RetriesExhausted);
        assert_eq!(cm.state(), CmState::Closed);
        assert_eq!(cm.reset_reason(), Some(TransportError::RetriesExhausted));
        assert!(events(&mut cm).contains(&CmEvent::Reset));
        let rst = cm.poll_packet().expect("RST queued for the peer");
        assert!(rst.cm.flags.rst);
        // Idempotent: a second abort neither re-queues nor rewrites.
        cm.abort(TransportError::PeerVanished);
        assert!(cm.poll_packet().is_none());
        assert_eq!(cm.reset_reason(), Some(TransportError::RetriesExhausted));
    }

    #[test]
    fn inbound_rst_reports_peer_reset() {
        let mut cm = ConnMgmt::open_active(tok(), CmScheme::ThreeWay, 42, Time::ZERO, slmetrics::shared());
        let mut h = hdr(false, false, 77, 42);
        h.flags.rst = true;
        assert_eq!(cm.on_packet(&h, false, SeqValidity::Exact, Time::ZERO), CmPass::Drop);
        assert_eq!(cm.state(), CmState::Closed);
        assert_eq!(cm.reset_reason(), Some(TransportError::Reset));
    }

    #[test]
    fn syn_retry_exhaustion_reports_handshake_failure() {
        let mut cm = ConnMgmt::open_active(tok(), CmScheme::ThreeWay, 42, Time::ZERO, slmetrics::shared());
        while cm.state() == CmState::SynSent {
            let now = cm.poll_deadline().expect("SYN timer armed");
            cm.on_tick(now);
        }
        assert_eq!(cm.state(), CmState::Closed);
        assert_eq!(cm.reset_reason(), Some(TransportError::HandshakeFailed));
    }

    #[test]
    fn contract_key_folds_what_the_mailboxes_hold_not_how() {
        // A duplicate SYN re-answered before the first SYN-ACK was polled
        // spills the outbox; answered after, it does not. Either way the
        // same two packets went out and the same machine is left.
        let syn = hdr(true, false, 500, 0);
        let open = || {
            ConnMgmt::open_passive(tok(), CmScheme::ThreeWay, 900, &syn, Time::ZERO, slmetrics::shared())
                .unwrap()
        };
        let (mut bursty, mut steady) = (open(), open());
        bursty.on_packet(&syn, false, SeqValidity::Exact, Time::ZERO);
        let sent = [bursty.poll_packet(), bursty.poll_packet(), bursty.poll_packet()];
        let first = steady.poll_packet();
        steady.on_packet(&syn, false, SeqValidity::Exact, Time::ZERO);
        assert_eq!(sent, [first, steady.poll_packet(), steady.poll_packet()]);
        assert!(matches!(bursty.outbox, Mailbox::Spilled(_)));
        assert!(matches!(steady.outbox, Mailbox::Inline(None)));
        assert_eq!(bursty.contract_key(), steady.contract_key());
        // And with a packet and an event waiting in each.
        for cm in [&mut bursty, &mut steady] {
            cm.abort(TransportError::PeerVanished);
            assert_eq!((cm.outbox.len(), cm.events.len()), (1, 1));
        }
        assert_eq!(bursty.contract_key(), steady.contract_key());
        assert_ne!(bursty.contract_key(), open().contract_key());
    }

    #[test]
    fn any_inbound_packet_zeroes_the_probe_count_even_one_cm_drops() {
        let ka = Keepalive { idle: Dur::from_secs(10), interval: Dur::from_secs(1), max_probes: 2 };
        let at = |s| Time::ZERO + Dur::from_secs(s);
        let mut cm =
            ConnMgmt::open_active(tok(), CmScheme::ThreeWay, 42, Time::ZERO, slmetrics::shared());
        cm.on_packet(&hdr(true, true, 77, 42), false, SeqValidity::Exact, Time::ZERO);
        assert_eq!(cm.keepalive_deadline(ka), Some(at(10)));
        assert!(cm.on_keepalive(ka, at(10), true) && cm.on_keepalive(ka, at(11), true));
        assert_eq!(cm.keepalive_deadline(ka), Some(at(12)));
        // An out-of-window RST is dropped, yet the peer is alive.
        let mut rst = hdr(false, false, 77, 42);
        rst.flags.rst = true;
        assert_eq!(cm.on_packet(&rst, false, SeqValidity::Outside, at(12)), CmPass::Drop);
        assert_eq!(cm.keepalive_deadline(ka), Some(at(22)));
        // The budget starts afresh: two probes again before the give-up,
        // which waits while RD has data in flight (`idle` false).
        assert!(cm.on_keepalive(ka, at(22), true) && cm.on_keepalive(ka, at(23), true));
        assert!(cm.on_keepalive(ka, at(24), false));
        assert!(!cm.on_keepalive(ka, at(25), true));
        assert_eq!(cm.reset_reason(), Some(TransportError::PeerVanished));
    }

    #[test]
    fn a_half_open_connection_is_as_old_as_its_syn() {
        let syn_at = Time::ZERO + Dur::from_secs(7);
        let (syn, log) = (hdr(true, false, 500, 0), slmetrics::shared());
        let cm = ConnMgmt::open_passive(tok(), CmScheme::ThreeWay, 900, &syn, syn_at, log).unwrap();
        assert_eq!((cm.state(), cm.last_activity()), (CmState::SynRcvd, syn_at));
    }

    #[test]
    fn fill_tx_stamps_isns_only() {
        let mut cm = ConnMgmt::open_active(tok(), CmScheme::ThreeWay, 42, Time::ZERO, slmetrics::shared());
        cm.on_packet(&hdr(true, true, 77, 42), false, SeqValidity::Exact, Time::ZERO);
        let mut pkt = Packet::default();
        pkt.rd.seq = 5;
        cm.fill_tx(&mut pkt);
        assert_eq!(pkt.cm.isn, 42);
        assert_eq!(pkt.cm.ack_isn, 77);
        assert_eq!(pkt.rd.seq, 5, "CM must not touch RD bits");
    }
}
