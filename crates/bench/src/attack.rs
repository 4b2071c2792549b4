//! E14 — adversarial-peer robustness campaigns.
//!
//! A deterministic man-in-the-middle ([`netsim::Attacker`]) sits between a
//! legitimate client and server and forges RSTs/SYNs/data at a configured
//! sequence-guessing skill, replays frames, fuzzily mutates wire bytes and
//! mounts spoofed-source SYN floods. Each `(profile, stack, seed)` run
//! judges the RFC 5961-shaped invariants:
//!
//! * **liveness** — below the attacker's sequence-knowledge threshold the
//!   legitimate transfer still completes, with byte-exact integrity;
//! * **no spurious death** — a blind or merely in-window RST/SYN must not
//!   kill an established connection (in-window suspicion is answered with
//!   a challenge ACK instead);
//! * **bounded memory** — half-open connections never exceed
//!   `MAX_HALF_OPEN` and buffered bytes stay under the send/receive caps,
//!   so a flood degrades throughput, not memory;
//! * **honesty about the threshold** — an *exact*-sequence attacker (the
//!   oracle profile) is indistinguishable from the real peer, so there the
//!   connection is *expected* to die and the abort must be surfaced.
//!
//! Both stacks face the byte-identical attacker (same skill, same RNG
//! stream); only the [`netsim::AttackCodec`] differs — the victim's
//! [`Kind`], whose forgers live in `slconform::wire` — which is exactly
//! the like-for-like comparison experiment E14 reports.

use netsim::{
    AttackConfig, Attacker, DetRng, Dur, LinkParams, SeqKnowledge, SimNet, StackNode, Time,
    TransportError,
};
use slconform::{ConformStack, Kind};
use slmetrics::AttackCounters;
use sublayer_core::{CmState, SlTcpStack};
use tcp_mono::stack::TcpStack;
use tcp_mono::TcpState;

use crate::chaos::KINDS;
use crate::{json, keepalive_pair, stream_transfer, sweep_grid, Report};

/// Bytes the legitimate flow transfers under attack.
const PAYLOAD_LEN: usize = 120_000;
/// Buffered-bytes ceiling per endpoint: the send-buffer cap plus receive
/// reassembly caps plus slack. Both stacks use a 1 MiB send cap and
/// ~64 KiB receive-side caps.
const MEM_BOUND: usize = (1 << 20) + (128 << 10);

fn t(ms: u64) -> Time {
    Time::ZERO + Dur::from_millis(ms)
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// One adversarial scenario (what the attacker does, and at what skill).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackProfile {
    /// Honest bridge — sanity reference; nothing is forged.
    Baseline,
    /// Blind RST injection: random 32-bit sequences, mostly out of window.
    BlindRst,
    /// In-window RST injection: the classic blind-guessing attacker that
    /// RFC 5961's challenge ACK exists for.
    InWindowRst,
    /// Oracle RST: exact next-sequence knowledge. Defenses are *expected*
    /// to fail — this profile proves the harness isn't rigged.
    OracleRst,
    /// Stray SYNs injected into the established flow.
    SynInject,
    /// Blind data injection: random payloads at random sequences.
    DataInject,
    /// Spoofed-source SYN flood against the listener.
    SynFlood,
    /// Verbatim duplicate replay of legitimate frames.
    Replay,
    /// Fuzzy mutation: a forwarded frame has one bit flipped, checksum
    /// not re-sealed — a decoder-robustness probe.
    Mutate,
}

impl AttackProfile {
    pub fn all() -> [AttackProfile; 9] {
        [
            AttackProfile::Baseline,
            AttackProfile::BlindRst,
            AttackProfile::InWindowRst,
            AttackProfile::OracleRst,
            AttackProfile::SynInject,
            AttackProfile::DataInject,
            AttackProfile::SynFlood,
            AttackProfile::Replay,
            AttackProfile::Mutate,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            AttackProfile::Baseline => "baseline",
            AttackProfile::BlindRst => "blind_rst",
            AttackProfile::InWindowRst => "inwindow_rst",
            AttackProfile::OracleRst => "oracle_rst",
            AttackProfile::SynInject => "syn_inject",
            AttackProfile::DataInject => "data_inject",
            AttackProfile::SynFlood => "syn_flood",
            AttackProfile::Replay => "replay",
            AttackProfile::Mutate => "mutate",
        }
    }

    /// The attacker's schedule and skill for this profile.
    pub fn attack_config(&self) -> AttackConfig {
        let mut cfg = AttackConfig::default();
        match self {
            AttackProfile::Baseline => {}
            AttackProfile::BlindRst => cfg.rst_rate = 0.25,
            AttackProfile::InWindowRst => {
                cfg.knowledge = SeqKnowledge::InWindow;
                cfg.rst_rate = 0.25;
            }
            AttackProfile::OracleRst => {
                cfg.knowledge = SeqKnowledge::Exact;
                cfg.rst_rate = 0.25;
                // Let the legitimate connection establish first, so the
                // kill demonstrably lands on an *established* flow.
                cfg.start = t(500);
            }
            AttackProfile::SynInject => cfg.syn_rate = 0.25,
            AttackProfile::DataInject => cfg.data_rate = 0.25,
            AttackProfile::SynFlood => {
                cfg.flood_syns = 8;
                cfg.flood_interval = Dur::from_millis(50);
                cfg.stop = Some(t(60_000));
            }
            AttackProfile::Replay => cfg.replay_rate = 0.3,
            AttackProfile::Mutate => cfg.mutate_rate = 0.08,
        }
        cfg
    }

    /// Is the attacker above the sequence-knowledge threshold, i.e. is
    /// connection death the *expected* outcome?
    pub fn expect_reset(&self) -> bool {
        matches!(self, AttackProfile::OracleRst)
    }

    /// Must the defense visibly engage (challenge ACKs observed)?
    pub fn require_challenges(&self) -> bool {
        matches!(self, AttackProfile::InWindowRst | AttackProfile::SynInject)
    }

    /// Must the flood fallback visibly engage (cookies or evictions)?
    pub fn require_flood_fallback(&self) -> bool {
        matches!(self, AttackProfile::SynFlood)
    }

    /// Must the hardened decoder visibly engage (bad frames rejected)?
    pub fn require_bad_frames(&self) -> bool {
        matches!(self, AttackProfile::Mutate)
    }
}

// ---------------------------------------------------------------------------
// Outcome + judging
// ---------------------------------------------------------------------------

/// One campaign's result plus any invariant violations.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    pub profile: &'static str,
    pub stack: &'static str,
    pub seed: u64,
    pub payload: usize,
    pub delivered: usize,
    pub complete: bool,
    pub client_error: Option<TransportError>,
    pub server_error: Option<TransportError>,
    pub sim_ms: u64,
    pub wire_frames: u64,
    /// Peak simultaneous half-open connections observed on the server.
    pub max_half_open: usize,
    /// Peak buffered bytes observed on either endpoint.
    pub max_buffered: usize,
    pub counters: AttackCounters,
    pub violations: Vec<String>,
}

/// Invariants every run must satisfy, plus the profile's expectations.
fn judge(profile: AttackProfile, mut out: AttackOutcome, got: &[u8], payload: &[u8]) -> AttackOutcome {
    // Integrity: whatever was delivered is a prefix of what was sent.
    if got != &payload[..got.len().min(payload.len())] || got.len() > payload.len() {
        out.violations.push("integrity: delivered bytes differ".into());
    }
    // Bounded memory, always.
    if out.max_buffered > MEM_BOUND {
        out.violations.push(format!(
            "memory: {} buffered bytes > bound {}",
            out.max_buffered, MEM_BOUND
        ));
    }
    if out.max_half_open > netsim::MAX_HALF_OPEN {
        out.violations.push(format!(
            "half-open queue grew to {} > {}",
            out.max_half_open,
            netsim::MAX_HALF_OPEN
        ));
    }
    if profile.expect_reset() {
        // Above the knowledge threshold: the kill must land and surface.
        if out.complete {
            out.violations.push("oracle attacker failed to kill the flow".into());
        }
        if out.client_error.is_none() && out.server_error.is_none() {
            out.violations.push("reset not surfaced to either application".into());
        }
    } else {
        // Below the threshold: liveness — the legitimate flow completes
        // and nobody died spuriously.
        if !out.complete {
            out.violations.push(format!(
                "expected delivery, got {}/{} (client={:?} server={:?})",
                out.delivered, out.payload, out.client_error, out.server_error
            ));
        }
        if out.client_error.is_some() || out.server_error.is_some() {
            out.violations.push(format!(
                "spurious connection death: client={:?} server={:?}",
                out.client_error, out.server_error
            ));
        }
    }
    if profile.require_challenges() && out.counters.challenge_acks == 0 {
        out.violations.push("defense silent: no challenge ACKs issued".into());
    }
    if profile.require_flood_fallback()
        && out.counters.syn_cookies_sent == 0
        && out.counters.half_open_evictions == 0
    {
        out.violations.push("flood fallback silent: no cookies or evictions".into());
    }
    if profile.require_bad_frames() && out.counters.bad_frames_rejected == 0 {
        out.violations.push("decoder silent: no mutated frames rejected".into());
    }
    out
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

fn link() -> LinkParams {
    LinkParams::delay_only(Dur::from_millis(5))
}

/// What the campaign needs of a stack beyond the shared transfer surface:
/// the defence counters' read-out. The behavioural suite
/// (`behaviour.rs`), which runs every shared test against both stacks,
/// reads the rest: each stack's own buffer caps (the half-open bound is
/// both stacks' one `netsim::MAX_HALF_OPEN`), the two states `HostStack`
/// does not name, and the counters its assertions compare. A counter only one
/// stack keeps is an `Option`, `None` on the other.
pub trait AttackTarget: ConformStack {
    /// Bytes `send` accepts ahead of the peer's acks.
    const SND_BUF_CAP: usize;
    /// Bytes the receive buffer holds unread.
    const RCV_BUF_CAP: usize;

    fn half_open(&self) -> usize;
    /// This endpoint's defence counters (`forged_segments` left 0);
    /// `conn` is its side of the attacked flow, if it still knows one.
    fn defence(&self, conn: Option<Self::ConnId>) -> AttackCounters;
    fn in_syn_sent(&self, id: Self::ConnId) -> bool;
    fn in_time_wait(&self, id: Self::ConnId) -> bool;
    /// RSTs sent for no connection (a refused flow, a bad cookie). The
    /// monolith counts the ones an abort sends too.
    fn rsts_sent(&self) -> u64;
    /// Inbound flows refused because the connection table was full.
    fn conn_table_full_drops(&self) -> u64;
    /// Fast retransmits on `id` so far.
    fn fast_retransmits(&self, id: Self::ConnId) -> u64;
    /// Retransmission timeouts on `id` so far.
    fn rto_retransmits(&self, id: Self::ConnId) -> u64;
    /// Keepalive probes `id` sent so far.
    fn keepalive_probes(&self, id: Self::ConnId) -> u64;
    /// Zero-window probes `id` sent so far; the monolith counts none.
    fn zero_window_probes(&self, id: Self::ConnId) -> Option<u64>;
    /// Segments dropped for want of a listener; the monolith counts none.
    fn no_listener_drops(&self) -> Option<u64>;
    /// Connections a peer's RST ended; the sublayered stack counts none.
    fn resets_taken(&self) -> Option<u64>;
}

impl AttackTarget for TcpStack {
    const SND_BUF_CAP: usize = tcp_mono::stack::SND_BUF_CAP;
    const RCV_BUF_CAP: usize = tcp_mono::pcb::RCV_BUF_CAP;

    fn half_open(&self) -> usize {
        self.half_open_count()
    }
    fn defence(&self, _conn: Option<Self::ConnId>) -> AttackCounters {
        AttackCounters {
            forged_segments: 0,
            challenge_acks: self.stats.challenge_acks,
            syn_cookies_sent: self.stats.syn_cookies_sent,
            syn_cookies_validated: self.stats.syn_cookies_validated,
            half_open_evictions: self.stats.half_open_evictions,
            bad_frames_rejected: self.stats.bad_segments,
            overflow_drops: self.stats.ooo_overflow_drops,
            invalid_seq_drops: self.stats.invalid_seq_drops,
        }
    }
    fn in_syn_sent(&self, id: Self::ConnId) -> bool {
        self.state(id) == TcpState::SynSent
    }
    fn in_time_wait(&self, id: Self::ConnId) -> bool {
        self.state(id) == TcpState::TimeWait
    }
    fn rsts_sent(&self) -> u64 {
        self.stats.rsts_sent
    }
    fn conn_table_full_drops(&self) -> u64 {
        self.stats.conn_table_full_drops
    }
    fn fast_retransmits(&self, _id: Self::ConnId) -> u64 {
        self.stats.fast_retransmits
    }
    fn rto_retransmits(&self, _id: Self::ConnId) -> u64 {
        self.stats.rto_retransmits
    }
    fn keepalive_probes(&self, _id: Self::ConnId) -> u64 {
        self.stats.keepalive_probes
    }
    fn zero_window_probes(&self, _id: Self::ConnId) -> Option<u64> {
        None
    }
    fn no_listener_drops(&self) -> Option<u64> {
        None
    }
    fn resets_taken(&self) -> Option<u64> {
        Some(self.stats.conns_reset)
    }
}

impl AttackTarget for SlTcpStack {
    const SND_BUF_CAP: usize = sublayer_core::osr::SND_BUF_CAP;
    const RCV_BUF_CAP: usize = sublayer_core::osr::RCV_BUF_CAP;

    fn half_open(&self) -> usize {
        self.half_open_count()
    }
    fn defence(&self, conn: Option<Self::ConnId>) -> AttackCounters {
        // Receive-cap drops live in the connection's RD stats.
        let rd = conn.and_then(|id| self.rd_stats(id)).unwrap_or_default();
        AttackCounters {
            forged_segments: 0,
            challenge_acks: self.challenge_acks(),
            syn_cookies_sent: self.stats.syn_cookies_sent,
            syn_cookies_validated: self.stats.syn_cookies_validated,
            half_open_evictions: self.stats.half_open_evictions,
            bad_frames_rejected: self.stats.bad_packets,
            overflow_drops: rd.ooo_range_drops,
            invalid_seq_drops: rd.invalid_seq_drops,
        }
    }
    fn in_syn_sent(&self, id: Self::ConnId) -> bool {
        self.state(id) == CmState::SynSent
    }
    fn in_time_wait(&self, id: Self::ConnId) -> bool {
        self.state(id) == CmState::TimeWait
    }
    fn rsts_sent(&self) -> u64 {
        self.stats.stateless_rsts_sent
    }
    fn conn_table_full_drops(&self) -> u64 {
        self.stats.conn_table_full_drops
    }
    fn fast_retransmits(&self, id: Self::ConnId) -> u64 {
        self.rd_stats(id).map_or(0, |rd| rd.fast_retransmits)
    }
    fn rto_retransmits(&self, id: Self::ConnId) -> u64 {
        self.rd_stats(id).map_or(0, |rd| rd.timeouts)
    }
    fn keepalive_probes(&self, id: Self::ConnId) -> u64 {
        self.rd_stats(id).map_or(0, |rd| rd.keepalive_probes)
    }
    fn zero_window_probes(&self, id: Self::ConnId) -> Option<u64> {
        Some(self.osr_stats(id).map_or(0, |osr| osr.zero_window_probes))
    }
    fn no_listener_drops(&self) -> Option<u64> {
        Some(self.stats.no_listener_drops)
    }
    fn resets_taken(&self) -> Option<u64> {
        None
    }
}

/// Run one `(profile, stack, seed)` campaign and judge its invariants.
pub fn run_campaign(profile: AttackProfile, kind: Kind, seed: u64) -> AttackOutcome {
    match kind {
        Kind::Mono => run::<TcpStack>(profile, seed),
        Kind::Sub => run::<SlTcpStack>(profile, seed),
    }
}

fn run<H: AttackTarget>(profile: AttackProfile, seed: u64) -> AttackOutcome {
    let payload: Vec<u8> = (0..PAYLOAD_LEN).map(|i| (i % 251) as u8).collect();
    let (c, s, conn) = keepalive_pair::<H>();
    let mut net = SimNet::new(seed);
    let nc = net.add_node(Box::new(StackNode::new(c)));
    let na = net.add_node(Box::new(Attacker::new(
        Box::new(H::KIND),
        profile.attack_config(),
        DetRng::new(seed ^ 0xA77A_C4E5),
    )));
    let ns = net.add_node(Box::new(StackNode::new(s)));
    net.connect(nc, 0, na, 0, link());
    net.connect(na, 1, ns, 0, link());

    let mut max_half_open = 0usize;
    let mut max_buffered = 0usize;
    let t = stream_transfer::<H>(&mut net, (nc, conn), ns, &payload, |net| {
        let (c, s) = (&net.node::<StackNode<H>>(nc).stack, &net.node::<StackNode<H>>(ns).stack);
        max_half_open = max_half_open.max(s.half_open());
        max_buffered = max_buffered.max(s.buffered_bytes()).max(c.buffered_bytes());
    });

    let wire_frames = (0..2)
        .map(|l| net.link_dir_stats(l, 0).tx_frames + net.link_dir_stats(l, 1).tx_frames)
        .sum();
    let (c, s) = (&net.node::<StackNode<H>>(nc).stack, &net.node::<StackNode<H>>(ns).stack);
    let mut counters = AttackCounters {
        forged_segments: net.node::<Attacker>(na).stats.forged_total(),
        ..c.defence(Some(conn))
    };
    counters.absorb(&s.defence(t.sconn));

    let out = AttackOutcome {
        profile: profile.name(),
        stack: H::KIND.label(),
        seed,
        payload: payload.len(),
        delivered: t.got.len(),
        complete: t.complete,
        client_error: c.conn_error(conn),
        server_error: t.sconn.and_then(|id| s.conn_error(id)),
        sim_ms: t.sim_ms,
        wire_frames,
        max_half_open,
        max_buffered,
        counters,
        violations: Vec::new(),
    };
    judge(profile, out, &t.got, &payload)
}

// ---------------------------------------------------------------------------
// JSON + sweep
// ---------------------------------------------------------------------------

/// Deterministic JSON for one outcome (stable field order, integers
/// only — byte-identical for identical seeds).
pub fn outcome_json(o: &AttackOutcome) -> String {
    let c = &o.counters;
    json::obj(&[
        ("profile", json::str(o.profile)),
        ("stack", json::str(o.stack)),
        ("seed", o.seed.to_string()),
        ("payload", o.payload.to_string()),
        ("delivered", o.delivered.to_string()),
        ("complete", o.complete.to_string()),
        ("client_error", json::opt_err(o.client_error)),
        ("server_error", json::opt_err(o.server_error)),
        ("sim_ms", o.sim_ms.to_string()),
        ("wire_frames", o.wire_frames.to_string()),
        ("max_half_open", o.max_half_open.to_string()),
        ("max_buffered", o.max_buffered.to_string()),
        ("forged_segments", c.forged_segments.to_string()),
        ("challenge_acks", c.challenge_acks.to_string()),
        ("syn_cookies_sent", c.syn_cookies_sent.to_string()),
        ("syn_cookies_validated", c.syn_cookies_validated.to_string()),
        ("half_open_evictions", c.half_open_evictions.to_string()),
        ("bad_frames_rejected", c.bad_frames_rejected.to_string()),
        ("overflow_drops", c.overflow_drops.to_string()),
        ("invalid_seq_drops", c.invalid_seq_drops.to_string()),
        ("violations", json::strs(&o.violations)),
    ])
}

/// The whole sweep as one JSON document.
pub fn summary_json(outs: &[AttackOutcome]) -> String {
    let rows: Vec<String> = outs.iter().map(outcome_json).collect();
    let violations = outs.iter().map(|o| o.violations.len()).sum();
    crate::sweep_json("campaigns", &rows, None, violations)
}

/// The campaign: nine profiles x three seeds x both stacks behind the
/// same attacker (54 runs); smoke is in-window RST, oracle RST and SYN
/// flood on one seed.
pub fn report(smoke: bool) -> Report {
    let (profiles, seeds): (&[AttackProfile], &[u64]) = if smoke {
        (&[AttackProfile::InWindowRst, AttackProfile::OracleRst, AttackProfile::SynFlood], &[1])
    } else {
        (&AttackProfile::all(), &[1, 2, 3])
    };
    let outs = sweep_grid(profiles, &KINDS, seeds, run_campaign);
    Report::sweep(
        summary_json(&outs),
        vec![
            "profile", "stack", "seed", "delivered", "client err", "forged", "challenges",
            "cookies s/v", "half-open", "bad frames", "verdict",
        ],
        outs
            .iter()
            .map(|o| {
                vec![
                    o.profile.to_string(),
                    o.stack.to_string(),
                    o.seed.to_string(),
                    format!("{}/{}", o.delivered, o.payload),
                    crate::err_cell(o.client_error),
                    o.counters.forged_segments.to_string(),
                    o.counters.challenge_acks.to_string(),
                    format!("{}/{}", o.counters.syn_cookies_sent, o.counters.syn_cookies_validated),
                    o.max_half_open.to_string(),
                    o.counters.bad_frames_rejected.to_string(),
                    crate::verdict(&o.violations),
                ]
            })
            .collect(),
        outs
            .iter()
            .flat_map(|o| {
                crate::tagged(format!("{} {} seed={}", o.profile, o.stack, o.seed), &o.violations)
            })
            .collect(),
    )
}
