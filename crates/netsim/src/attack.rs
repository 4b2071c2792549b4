//! An adversarial **man-in-the-middle node** for robustness campaigns.
//!
//! [`Attacker`] is a two-port bridge: legitimate traffic between its ports
//! is forwarded, and — driven entirely by a [`DetRng`] fork, so campaigns
//! replay exactly — it injects forged segments (blind RST, blind SYN,
//! blind data), replays duplicates, fuzzily mutates wire bytes without
//! re-sealing checksums, and mounts SYN floods from spoofed sources.
//!
//! The simulator knows nothing about TCP wire formats (the dependency
//! points the other way), so the attacker is parameterized by an
//! [`AttackCodec`]: the per-stack knowledge of how to *read* a snooped
//! frame and how to *forge* one. The benchmark crate implements the codec
//! once per stack, which keeps this node — scheduling, probabilities,
//! sequence-guessing skill — identical across victims, exactly what a
//! fair two-stack comparison needs.
//!
//! Topology convention: port 0 faces the connection initiator (client),
//! port 1 faces the listener (server):
//!
//! ```text
//! client ──link── [0] attacker [1] ──link── server
//! ```

use crate::net::{Node, NodeCtx, PortId};
use crate::rng::DetRng;
use crate::time::{Dur, Time};

/// How well the attacker can guess the victim's sequence numbers — the
/// knob RFC 5961 robustness is measured against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqKnowledge {
    /// Omniscient: forged segments carry the exact next expected sequence
    /// (an on-path attacker who parses every byte). Defenses are *meant*
    /// to fail here — an exact RST is indistinguishable from a real one.
    Exact,
    /// Off-by-some: within the receive window but not exact — the best a
    /// blind in-window guesser (classic RST-injection attacker) achieves.
    InWindow,
    /// No idea: uniformly random 32-bit sequence numbers.
    Blind,
}

/// A snooped frame's transport-level summary, extracted by the codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnoopInfo {
    pub src_addr: u32,
    pub src_port: u16,
    pub dst_addr: u32,
    pub dst_port: u16,
    /// The sequence number the *receiver* of this frame will expect next
    /// once it has processed it (seq + payload + SYN/FIN units).
    pub next_seq: u32,
    /// The cumulative ack the frame carries, if it carries one.
    pub ack: Option<u32>,
    pub syn: bool,
    pub rst: bool,
}

/// Stack-specific wire knowledge: how to read a frame in flight and how
/// to forge one impersonating a snooped endpoint.
pub trait AttackCodec {
    /// Parse a forwarded frame; `None` when it is not decodable.
    fn snoop(&self, frame: &[u8]) -> Option<SnoopInfo>;
    /// Forge a RST continuing `flow` (same direction) with sequence `seq`.
    fn forge_rst(&self, flow: &SnoopInfo, seq: u32) -> Vec<u8>;
    /// Forge a SYN continuing `flow` (same direction) with ISN `isn`.
    fn forge_syn(&self, flow: &SnoopInfo, isn: u32) -> Vec<u8>;
    /// Forge a data segment continuing `flow` at `seq` carrying `payload`,
    /// acking what the snooped frame acked.
    fn forge_data(&self, flow: &SnoopInfo, seq: u32, payload: &[u8]) -> Vec<u8>;
    /// Forge a handshake-opening SYN from an arbitrary (spoofed) source to
    /// a listener — the SYN-flood primitive.
    fn forge_syn_to(
        &self,
        src_addr: u32,
        src_port: u16,
        dst_addr: u32,
        dst_port: u16,
        isn: u32,
    ) -> Vec<u8>;
}

/// What the attacker does, and how often. All probabilities are per
/// forwarded frame; the attack runs only inside `[start, stop)`.
#[derive(Clone, Debug)]
pub struct AttackConfig {
    pub knowledge: SeqKnowledge,
    /// Forge a RST continuing the most recently snooped flow.
    pub rst_rate: f64,
    /// Forge a SYN (random ISN) into the most recently snooped flow.
    pub syn_rate: f64,
    /// Forge a data segment (random payload) into the snooped flow.
    pub data_rate: f64,
    /// Re-send a verbatim copy of the forwarded frame.
    pub replay_rate: f64,
    /// Forward a fuzzily mutated copy *instead of* the original (one bit
    /// flipped, checksum NOT re-sealed: a decoder-robustness probe).
    pub mutate_rate: f64,
    /// SYN-flood burst size per tick toward port 1's listener; 0 = off.
    pub flood_syns: u32,
    /// Interval between flood bursts.
    pub flood_interval: Dur,
    /// Attack window start.
    pub start: Time,
    /// Attack window end; `None` = never stops.
    pub stop: Option<Time>,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            knowledge: SeqKnowledge::Blind,
            rst_rate: 0.0,
            syn_rate: 0.0,
            data_rate: 0.0,
            replay_rate: 0.0,
            mutate_rate: 0.0,
            flood_syns: 0,
            flood_interval: Dur::from_millis(100),
            start: Time::ZERO,
            stop: None,
        }
    }
}

/// Attacker-side counters (what was *attempted*; the victims' own stats
/// say what got through).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttackerStats {
    pub forwarded: u64,
    pub replayed: u64,
    pub mutated: u64,
    pub rst_forged: u64,
    pub syn_forged: u64,
    pub data_forged: u64,
    pub flood_syns_sent: u64,
    /// Replies addressed to spoofed flood sources, swallowed (a real
    /// spoofed host never answers, so neither does the bridge).
    pub blackholed: u64,
}

impl AttackerStats {
    /// Everything the attacker put on the wire beyond honest forwarding.
    pub fn forged_total(&self) -> u64 {
        self.replayed
            + self.mutated
            + self.rst_forged
            + self.syn_forged
            + self.data_forged
            + self.flood_syns_sent
    }
}

const FLOOD_TIMER: u64 = 1;
/// Spoofed SYN-flood sources are drawn from this block.
const FLOOD_SRC_BASE: u32 = 0xC600_0000;

/// The man-in-the-middle bridge node. See the module docs for topology.
pub struct Attacker {
    codec: Box<dyn AttackCodec>,
    cfg: AttackConfig,
    rng: DetRng,
    /// Most recent decodable frame seen per inbound port.
    last: [Option<SnoopInfo>; 2],
    /// Listener endpoint behind port 1, learned from client traffic.
    server: Option<(u32, u16)>,
    flood_src_counter: u32,
    flood_armed: bool,
    pub stats: AttackerStats,
}

impl Attacker {
    pub fn new(codec: Box<dyn AttackCodec>, cfg: AttackConfig, rng: DetRng) -> Attacker {
        Attacker {
            codec,
            cfg,
            rng,
            last: [None, None],
            server: None,
            flood_src_counter: 0,
            flood_armed: false,
            stats: AttackerStats::default(),
        }
    }

    fn active(&self, now: Time) -> bool {
        now >= self.cfg.start && self.cfg.stop.is_none_or(|s| now < s)
    }

    /// A forged sequence number at the configured skill level, relative
    /// to the exact value the snooped flow's receiver expects next.
    fn guess_seq(&mut self, flow: &SnoopInfo) -> u32 {
        match self.cfg.knowledge {
            SeqKnowledge::Exact => flow.next_seq,
            SeqKnowledge::InWindow => {
                flow.next_seq.wrapping_add(1 + self.rng.below(32_000) as u32)
            }
            SeqKnowledge::Blind => self.rng.next_u32(),
        }
    }
}

impl Node for Attacker {
    fn on_frame(&mut self, port: PortId, frame: Vec<u8>, ctx: &mut NodeCtx) {
        let out = 1 - port;
        if let Some(info) = self.codec.snoop(&frame) {
            // Replies to spoofed flood sources go nowhere: the hosts the
            // flood impersonates do not exist, so their SYN|ACKs (and any
            // later retransmissions) must never be answered or forwarded.
            if info.dst_addr >= FLOOD_SRC_BASE
                && info.dst_addr < FLOOD_SRC_BASE.wrapping_add(self.flood_src_counter.max(1))
                && self.flood_src_counter > 0
            {
                self.stats.blackholed += 1;
                return;
            }
            if port == 0 {
                self.server = Some((info.dst_addr, info.dst_port));
            }
            self.last[port] = Some(info);
        }
        self.stats.forwarded += 1;
        let active = self.active(ctx.now);

        // Forward — possibly a fuzzily mutated copy instead. Exactly one
        // bit is flipped: a single-bit error always changes exactly one
        // word of a one's-complement checksum, so every mutation MUST be
        // caught by a correct decoder. (Multiple flips can cancel in the
        // checksum — a genuine weakness of the TCP checksum, but not a
        // decoder-robustness property, so not probed here.)
        if active && self.rng.chance(self.cfg.mutate_rate) {
            let mut m = frame.clone();
            if !m.is_empty() {
                let i = self.rng.below(m.len() as u64) as usize;
                m[i] ^= 1 << self.rng.below(8);
            }
            self.stats.mutated += 1;
            ctx.send(out, m);
        } else {
            ctx.send(out, frame.clone());
        }
        if !active {
            return;
        }

        if self.rng.chance(self.cfg.replay_rate) {
            self.stats.replayed += 1;
            ctx.send(out, frame);
        }
        // Forgeries continue the flow just snooped on this port, so they
        // chase the live connection in both directions.
        let Some(flow) = self.last[port] else { return };
        if self.rng.chance(self.cfg.rst_rate) {
            let seq = self.guess_seq(&flow);
            self.stats.rst_forged += 1;
            ctx.send(out, self.codec.forge_rst(&flow, seq));
        }
        if self.rng.chance(self.cfg.syn_rate) {
            let isn = self.rng.next_u32();
            self.stats.syn_forged += 1;
            ctx.send(out, self.codec.forge_syn(&flow, isn));
        }
        if self.rng.chance(self.cfg.data_rate) {
            let seq = self.guess_seq(&flow);
            let len = 1 + self.rng.below(512) as usize;
            let payload = self.rng.bytes(len);
            self.stats.data_forged += 1;
            ctx.send(out, self.codec.forge_data(&flow, seq, &payload));
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx) {
        if token != FLOOD_TIMER || self.cfg.flood_syns == 0 {
            return;
        }
        if self.active(ctx.now) {
            if let Some((addr, dst_port)) = self.server {
                for _ in 0..self.cfg.flood_syns {
                    let src = FLOOD_SRC_BASE + self.flood_src_counter;
                    self.flood_src_counter = self.flood_src_counter.wrapping_add(1);
                    let isn = self.rng.next_u32();
                    let syn = self.codec.forge_syn_to(src, 40_000, addr, dst_port, isn);
                    self.stats.flood_syns_sent += 1;
                    ctx.send(1, syn);
                }
            }
        }
        if self.cfg.stop.is_none_or(|s| ctx.now < s) {
            ctx.arm_in(self.cfg.flood_interval, FLOOD_TIMER);
        }
    }

    fn poll(&mut self, ctx: &mut NodeCtx) {
        // Arm the flood clock exactly once, at the first poll.
        if self.cfg.flood_syns > 0 && !self.flood_armed {
            self.flood_armed = true;
            let at = self.cfg.start.max(Time::ZERO + self.cfg.flood_interval);
            ctx.arm_at(at, FLOOD_TIMER);
        }
    }
}
