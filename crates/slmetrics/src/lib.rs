//! # slmetrics — state-entanglement measurement (paper §2.3 / §4.2)
//!
//! The paper's central argument against monolithic transports is that
//! their subfunctions "share and mutate the same state (encapsulated in
//! the PCB block)", so "reasoning about the correctness of a single
//! function now requires reasoning about its interactions with all other
//! functions via operations on the shared state" — the O(N²) interactions
//! of §4.2.
//!
//! This crate *measures* that. Both TCP implementations in this workspace
//! annotate their state accesses with the subfunction ("context") doing
//! the access and the state field touched. From the resulting
//! [`AccessLog`], [`InteractionMatrix`] computes which fields are shared
//! between which subfunctions and an aggregate entanglement score.
//! Experiment E6 runs identical workloads through the monolithic and
//! sublayered stacks and compares the matrices: the monolithic PCB fields
//! are touched by many subfunctions; the sublayered stack's fields each
//! stay within one sublayer.
//!
//! Every annotated pair is a row of [`SITES`], and a call site names its
//! row at compile time with [`site!`]:
//!
//! ```
//! use slmetrics::site;
//! let log = slmetrics::shared();
//! log.borrow_mut().write(site!("rd", "snd_una"));
//! assert_eq!(log.borrow().get(site!("rd", "snd_una")).writes, 1);
//! ```
//!
//! A pair that is not in the table does not compile:
//!
//! ```compile_fail
//! let log = slmetrics::shared();
//! log.borrow_mut().write(slmetrics::site!("rd", "no_such_field"));
//! ```
//!
//! Recording is one inlined add to a fixed counter array, so the log is
//! always on: no string, no map, no allocation and no mode.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// `benchmark/` imports the host's pressure tier from here (ROADMAP item
/// 3, benchmark-only bullet); it is `netsim`'s, beside `HostStack`.
pub use netsim::Pressure;

/// Every (context, field) pair the two stacks annotate: one row per
/// [`Site`], one counter pair per row in each [`AccessLog`].
pub const SITES: &[(&str, &str)] = &[
    // sublayer-core: one context per sublayer.
    ("dm", "listeners"),
    ("dm", "gate"),
    ("dm", "conn_table"),
    ("cm", "state"),
    ("cm", "local_isn"),
    ("cm", "peer_isn"),
    ("cm", "fin_state"),
    ("cm", "rtx"),
    ("rd", "snd_nxt"),
    ("rd", "in_flight"),
    ("rd", "srtt"),
    ("rd", "snd_una"),
    ("rd", "dupacks"),
    ("rd", "rcv_ranges"),
    ("rd", "ack_delay"),
    ("rd", "rto"),
    ("osr", "app_buf"),
    ("osr", "app_out"),
    ("osr", "cwnd"),
    ("osr", "peer_wnd"),
    ("osr", "reasm"),
    ("osr", "pressure"),
    ("osr", "rcv_buf"),
    // tcp-mono: six subfunctions over one PCB.
    ("demux", "conn_table"),
    ("conn_mgmt", "gate"),
    ("conn_mgmt", "pressure"),
    ("conn_mgmt", "state"),
    ("conn_mgmt", "iss"),
    ("conn_mgmt", "irs"),
    ("conn_mgmt", "snd_una"),
    ("conn_mgmt", "snd_nxt"),
    ("conn_mgmt", "snd_wnd"),
    ("conn_mgmt", "snd_buf"),
    ("conn_mgmt", "rcv_nxt"),
    ("conn_mgmt", "mss"),
    ("conn_mgmt", "fin_seq"),
    ("conn_mgmt", "rto_deadline"),
    ("reliable_delivery", "snd_una"),
    ("reliable_delivery", "snd_nxt"),
    ("reliable_delivery", "snd_wnd"),
    ("reliable_delivery", "snd_buf"),
    ("reliable_delivery", "rcv_nxt"),
    ("reliable_delivery", "rcv_wnd"),
    ("reliable_delivery", "rcv_buf"),
    ("reliable_delivery", "ooo"),
    ("reliable_delivery", "cwnd"),
    ("reliable_delivery", "mss"),
    ("reliable_delivery", "srtt"),
    ("reliable_delivery", "rtt_timing"),
    ("reliable_delivery", "persist_deadline"),
    ("congestion_control", "cwnd"),
    ("congestion_control", "ssthresh"),
    ("congestion_control", "dupacks"),
    ("congestion_control", "recover"),
    ("congestion_control", "snd_una"),
    ("congestion_control", "snd_nxt"),
    ("congestion_control", "snd_wnd"),
    ("congestion_control", "snd_buf"),
    ("congestion_control", "mss"),
    ("flow_control", "pressure"),
    ("flow_control", "rcv_wnd"),
    ("flow_control", "snd_wnd"),
    ("flow_control", "snd_wl1"),
    ("flow_control", "snd_wl2"),
    ("flow_control", "persist_deadline"),
    ("timers", "state"),
    ("timers", "rto_deadline"),
    ("timers", "delayed_ack_deadline"),
    ("timers", "cwnd"),
    ("timers", "ssthresh"),
    ("timers", "snd_nxt"),
    ("timers", "snd_wnd"),
    ("timers", "snd_buf"),
    ("timers", "rtt_timing"),
    ("timers", "fin_seq"),
];

const _: () = assert!(SITES.len() <= u8::MAX as usize + 1, "a Site is one byte");

/// One row of [`SITES`]: a (context, field) pair, named at compile time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Site(u8);

/// The [`Site`] of a `(context, field)` pair, resolved at compile time: a
/// pair missing from [`SITES`] is a compile error.
#[macro_export]
macro_rules! site {
    ($ctx:expr, $field:expr) => {
        const { $crate::Site::of($ctx, $field) }
    };
}

impl Site {
    /// The row of `(ctx, field)`. Panics when there is none, which in a
    /// `const` — what [`site!`] expands to — fails the build.
    pub const fn of(ctx: &str, field: &str) -> Site {
        match Site::find(ctx, field) {
            Some(site) => site,
            None => panic!("(context, field) pair missing from slmetrics::SITES"),
        }
    }

    /// The row of `(ctx, field)`, if the table has one.
    const fn find(ctx: &str, field: &str) -> Option<Site> {
        let mut i = 0;
        while i < SITES.len() {
            if str_eq(SITES[i].0, ctx) && str_eq(SITES[i].1, field) {
                return Some(Site(i as u8));
            }
            i += 1;
        }
        None
    }

    /// Every row, in table order.
    pub fn all() -> impl Iterator<Item = Site> {
        (0..SITES.len()).map(|i| Site(i as u8))
    }

    pub fn context(self) -> &'static str {
        SITES[self.0 as usize].0
    }

    pub fn field(self) -> &'static str {
        SITES[self.0 as usize].1
    }
}

/// `str` equality usable in a `const fn`.
const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Per-(context, field) access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub reads: u64,
    pub writes: u64,
}

/// A log of annotated state accesses: one [`Counts`] per row of [`SITES`],
/// held inline, so recording never allocates.
#[derive(Clone, Debug)]
pub struct AccessLog {
    counts: [Counts; SITES.len()],
}

impl Default for AccessLog {
    fn default() -> AccessLog {
        AccessLog { counts: [Counts::default(); SITES.len()] }
    }
}

/// Shared handle: the stack owns one log; every subfunction/sublayer holds
/// a clone of the handle.
pub type SharedLog = Rc<RefCell<AccessLog>>;

/// A fresh shared log.
pub fn shared() -> SharedLog {
    Rc::new(RefCell::new(AccessLog::default()))
}

/// The same as [`shared`]: recording costs one add, so there is nothing to
/// mute. Kept only because `benchmark/` calls it (ROADMAP item 1's shims).
pub fn muted() -> SharedLog {
    shared()
}

impl AccessLog {
    /// Record an access to `site`. Saturating so marathon campaigns can
    /// never overflow-panic in debug builds.
    #[inline]
    pub fn rec(&mut self, site: Site, kind: AccessKind) {
        let c = &mut self.counts[site.0 as usize];
        match kind {
            AccessKind::Read => c.reads = c.reads.saturating_add(1),
            AccessKind::Write => c.writes = c.writes.saturating_add(1),
        }
    }

    /// Shorthand: record a read.
    #[inline]
    pub fn read(&mut self, site: Site) {
        self.rec(site, AccessKind::Read);
    }

    /// Shorthand: record a write.
    #[inline]
    pub fn write(&mut self, site: Site) {
        self.rec(site, AccessKind::Write);
    }

    /// Record a read named at run time; a pair outside [`SITES`] is
    /// ignored. Only `benchmark/src/micro.rs` calls this (ROADMAP item 1's
    /// shims): product code names its sites with [`site!`].
    pub fn r(&mut self, ctx: &str, field: &str) {
        if let Some(site) = Site::find(ctx, field) {
            self.read(site);
        }
    }

    /// What `site` has recorded.
    pub fn get(&self, site: Site) -> Counts {
        self.counts[site.0 as usize]
    }

    /// Every site touched at least once, in table order.
    pub fn counts(&self) -> impl Iterator<Item = (Site, Counts)> + '_ {
        Site::all().map(|s| (s, self.get(s))).filter(|(_, c)| *c != Counts::default())
    }

    /// All distinct contexts seen.
    pub fn contexts(&self) -> BTreeSet<&'static str> {
        self.counts().map(|(s, _)| s.context()).collect()
    }
}

/// Aggregate attack/defense counters for one endpoint of an adversarial
/// campaign (experiment E14). Both stacks expose the underlying numbers
/// in their own stats; the campaign harness folds them into this shared
/// shape so the two stacks' robustness is compared like for like.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttackCounters {
    /// Segments the attacker put on the wire beyond honest forwarding
    /// (forged RST/SYN/data, replays, mutations, flood SYNs).
    pub forged_segments: u64,
    /// RFC 5961 challenge ACKs the victim issued instead of obeying an
    /// in-window RST or SYN.
    pub challenge_acks: u64,
    /// Stateless SYN cookies sent while the half-open queue was full.
    pub syn_cookies_sent: u64,
    /// Connections established by a returning valid cookie.
    pub syn_cookies_validated: u64,
    /// Stale half-open connections evicted to absorb a flood.
    pub half_open_evictions: u64,
    /// Frames rejected by the hardened wire decoder.
    pub bad_frames_rejected: u64,
    /// Out-of-order data dropped by receive-buffer caps.
    pub overflow_drops: u64,
    /// Segments dropped for carrying a sequence (or ack) far outside any
    /// plausible window — blind injection noise (RFC 793 acceptability /
    /// RFC 5961 §5).
    pub invalid_seq_drops: u64,
}

impl AttackCounters {
    /// Merge another endpoint's counters into this one (saturating: long
    /// campaigns must never overflow-panic in debug builds).
    pub fn absorb(&mut self, other: &AttackCounters) {
        self.forged_segments = self.forged_segments.saturating_add(other.forged_segments);
        self.challenge_acks = self.challenge_acks.saturating_add(other.challenge_acks);
        self.syn_cookies_sent = self.syn_cookies_sent.saturating_add(other.syn_cookies_sent);
        self.syn_cookies_validated =
            self.syn_cookies_validated.saturating_add(other.syn_cookies_validated);
        self.half_open_evictions =
            self.half_open_evictions.saturating_add(other.half_open_evictions);
        self.bad_frames_rejected =
            self.bad_frames_rejected.saturating_add(other.bad_frames_rejected);
        self.overflow_drops = self.overflow_drops.saturating_add(other.overflow_drops);
        self.invalid_seq_drops =
            self.invalid_seq_drops.saturating_add(other.invalid_seq_drops);
    }
}

/// Per-host event-loop counters for the multi-connection server host
/// (`slhost`): how much accept, timer and readiness work the host did.
/// Shared shape across both stacks so the scale experiments compare the
/// hosts like for like.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Connections admitted through the accept path.
    pub accepts: u64,
    /// Connections refused at the bounded accept backlog or table cap.
    pub accept_refusals: u64,
    /// Timer entries that fired (per-connection deadlines reached).
    pub timer_fires: u64,
    /// Timer entries touched per tick, summed — with a wheel this stays
    /// proportional to *due* timers; a naive scan pays one touch per live
    /// connection per tick.
    pub timer_touches: u64,
    /// Host ticks processed (denominator for work-per-tick).
    pub ticks: u64,
    /// Readiness events dispatched to the application.
    pub events_dispatched: u64,
    /// Inbound frames ingested (batched segment ingest).
    pub frames_in: u64,
    /// Frames transmitted.
    pub frames_out: u64,
    /// Accepts deferred under Elevated pressure (retried once pressure
    /// drops; not a refusal).
    pub accept_deferrals: u64,
    /// Accepted-but-idle connections shed (LIFO) under High pressure.
    pub sheds: u64,
    /// Connections evicted by the slow-drain (slowloris) detector.
    pub slow_drain_evictions: u64,
    /// New connections refused outright under Critical pressure or while
    /// draining.
    pub pressure_refusals: u64,
    /// Host-tracked state lookups that missed (a connection vanished
    /// between classification and use — surfaced, never a panic).
    pub lookup_misses: u64,
    /// Last sampled buffered-bytes occupancy (gauge).
    pub mem_used: u64,
    /// Peak buffered-bytes occupancy seen (gauge; the budget invariant).
    pub mem_peak: u64,
    /// Live connections in the table (gauge, maintained incrementally).
    pub conns_open: u64,
    /// Peak live connections seen (gauge).
    pub conns_peak: u64,
    /// Buffered bytes per live connection at the last sample (gauge) —
    /// the memory/conn number the scale reports quote, measured rather
    /// than guessed.
    pub bytes_per_conn: u64,
    /// Connection-table occupancy in percent of `max_conns` at the last
    /// sample (gauge). On a sharded host this is per shard; the aggregate
    /// keeps the *worst* shard, which is the number capacity planning
    /// needs.
    pub shard_occupancy: u64,
    /// Oldest shard heartbeat in the fleet, in consecutive missed logical
    /// rounds (gauge; 0 = every shard serving). Set by the shard
    /// coordinator's supervisor, not by individual hosts.
    pub heartbeat_age: u64,
    /// Supervised shard restarts performed.
    pub shard_restarts: u64,
    /// Connections aborted because their shard died (failover blast
    /// radius, in connections).
    pub failover_aborts: u64,
    /// Frame sends abandoned because a shard's command ring stayed full
    /// past the bounded wait (slow-shard backpressure instead of a
    /// blocked fleet).
    pub ring_stalls: u64,
}

impl HostCounters {
    /// Merge another host's counters into this one (saturating: long
    /// campaigns must never overflow-panic in debug builds). Gauges merge
    /// by sum (`mem_used`) and max (`mem_peak`).
    pub fn absorb(&mut self, other: &HostCounters) {
        self.accepts = self.accepts.saturating_add(other.accepts);
        self.accept_refusals = self.accept_refusals.saturating_add(other.accept_refusals);
        self.timer_fires = self.timer_fires.saturating_add(other.timer_fires);
        self.timer_touches = self.timer_touches.saturating_add(other.timer_touches);
        self.ticks = self.ticks.saturating_add(other.ticks);
        self.events_dispatched =
            self.events_dispatched.saturating_add(other.events_dispatched);
        self.frames_in = self.frames_in.saturating_add(other.frames_in);
        self.frames_out = self.frames_out.saturating_add(other.frames_out);
        self.accept_deferrals =
            self.accept_deferrals.saturating_add(other.accept_deferrals);
        self.sheds = self.sheds.saturating_add(other.sheds);
        self.slow_drain_evictions =
            self.slow_drain_evictions.saturating_add(other.slow_drain_evictions);
        self.pressure_refusals =
            self.pressure_refusals.saturating_add(other.pressure_refusals);
        self.lookup_misses = self.lookup_misses.saturating_add(other.lookup_misses);
        self.mem_used = self.mem_used.saturating_add(other.mem_used);
        self.mem_peak = self.mem_peak.max(other.mem_peak);
        self.conns_open = self.conns_open.saturating_add(other.conns_open);
        self.conns_peak = self.conns_peak.saturating_add(other.conns_peak);
        // Derived gauge: recompute from the merged sums so the aggregate
        // is bytes-per-conn across every absorbed shard, not an average
        // of averages.
        self.bytes_per_conn = self.mem_used.checked_div(self.conns_open).unwrap_or(0);
        self.shard_occupancy = self.shard_occupancy.max(other.shard_occupancy);
        // Fleet-health gauges: the oldest heartbeat is the binding one;
        // restart/abort/stall totals sum.
        self.heartbeat_age = self.heartbeat_age.max(other.heartbeat_age);
        self.shard_restarts = self.shard_restarts.saturating_add(other.shard_restarts);
        self.failover_aborts = self.failover_aborts.saturating_add(other.failover_aborts);
        self.ring_stalls = self.ring_stalls.saturating_add(other.ring_stalls);
    }

    /// Average timer entries touched per tick (the wheel-vs-naive metric).
    pub fn timer_work_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.timer_touches as f64 / self.ticks as f64
        }
    }
}

/// Congestion-control observability for one connection — window samples
/// plus loss/recovery event counts. Both stacks fill the same shape from
/// the shared `slcc` signal feed (OSR in the sublayered stack, the pcb
/// ack path in `tcp-mono`), so CC behavior is compared like for like
/// across stacks and controllers (experiment E19).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CcCounters {
    /// Window samples taken (one per signal delivery; the denominator
    /// for [`CcCounters::cwnd_mean`]).
    pub samples: u64,
    /// Last sampled allowance in bytes (gauge).
    pub cwnd_last: u64,
    /// Peak sampled allowance (gauge; absorbed by max).
    pub cwnd_peak: u64,
    /// Sum of sampled allowances.
    pub cwnd_sum: u64,
    /// Last sampled slow-start threshold (0 for controllers that keep
    /// none, e.g. rate-based).
    pub ssthresh_last: u64,
    /// Losses inferred from the dup-ack threshold (fast retransmit
    /// fired).
    pub dupack_losses: u64,
    /// Fast-recovery episodes the controller actually entered.
    pub fast_recoveries: u64,
    /// Partial acks processed while a recovery episode was open.
    pub partial_acks: u64,
    /// Losses inferred from retransmission timeout (window reset).
    pub rto_resets: u64,
    /// ECN congestion echoes fed to the controller.
    pub ecn_signals: u64,
}

impl CcCounters {
    /// Record one window sample after a signal delivery.
    pub fn sample(&mut self, allowance: u64, ssthresh: Option<u64>) {
        self.samples = self.samples.saturating_add(1);
        self.cwnd_last = allowance;
        self.cwnd_peak = self.cwnd_peak.max(allowance);
        self.cwnd_sum = self.cwnd_sum.saturating_add(allowance);
        self.ssthresh_last = ssthresh.unwrap_or(0);
    }

    /// Mean sampled allowance in bytes.
    pub fn cwnd_mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.cwnd_sum as f64 / self.samples as f64
        }
    }

    /// Merge another connection's counters into this one (saturating:
    /// long campaigns must never overflow-panic in debug builds). Gauges
    /// absorb by max (`cwnd_peak`) or by whichever side sampled last
    /// (`cwnd_last`, `ssthresh_last` — `other` wins when it has samples).
    pub fn absorb(&mut self, other: &CcCounters) {
        self.samples = self.samples.saturating_add(other.samples);
        if other.samples > 0 {
            self.cwnd_last = other.cwnd_last;
            self.ssthresh_last = other.ssthresh_last;
        }
        self.cwnd_peak = self.cwnd_peak.max(other.cwnd_peak);
        self.cwnd_sum = self.cwnd_sum.saturating_add(other.cwnd_sum);
        self.dupack_losses = self.dupack_losses.saturating_add(other.dupack_losses);
        self.fast_recoveries = self.fast_recoveries.saturating_add(other.fast_recoveries);
        self.partial_acks = self.partial_acks.saturating_add(other.partial_acks);
        self.rto_resets = self.rto_resets.saturating_add(other.rto_resets);
        self.ecn_signals = self.ecn_signals.saturating_add(other.ecn_signals);
    }
}

/// The field-sharing structure derived from an [`AccessLog`]; its names
/// are [`SITES`]'.
#[derive(Clone, Debug)]
pub struct InteractionMatrix {
    /// field -> contexts touching it.
    pub field_contexts: BTreeMap<&'static str, BTreeSet<&'static str>>,
    /// field -> contexts *writing* it.
    pub field_writers: BTreeMap<&'static str, BTreeSet<&'static str>>,
    /// Unordered context pairs -> number of fields they share.
    pub pair_shared: BTreeMap<(&'static str, &'static str), usize>,
}

impl InteractionMatrix {
    pub fn from_log(log: &AccessLog) -> InteractionMatrix {
        let mut field_contexts: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut field_writers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (site, c) in log.counts() {
            field_contexts.entry(site.field()).or_default().insert(site.context());
            if c.writes > 0 {
                field_writers.entry(site.field()).or_default().insert(site.context());
            }
        }
        let mut pair_shared: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for ctxs in field_contexts.values() {
            let v: Vec<&str> = ctxs.iter().copied().collect();
            for i in 0..v.len() {
                for j in i + 1..v.len() {
                    *pair_shared.entry((v[i], v[j])).or_default() += 1;
                }
            }
        }
        InteractionMatrix { field_contexts, field_writers, pair_shared }
    }

    /// Fields touched by more than one context (the entangled state).
    pub fn shared_fields(&self) -> Vec<(&str, usize)> {
        self.field_contexts
            .iter()
            .filter(|(_, c)| c.len() > 1)
            .map(|(f, c)| (*f, c.len()))
            .collect()
    }

    /// Σ over fields of (contexts − 1): the total number of "extra owners"
    /// a verifier must reason about. Zero means perfect state segregation.
    pub fn entanglement_score(&self) -> usize {
        self.field_contexts.values().map(|c| c.len() - 1).sum()
    }

    /// Like [`InteractionMatrix::entanglement_score`] but counting only
    /// contexts that *write* — read-sharing is cheaper to reason about.
    pub fn write_entanglement_score(&self) -> usize {
        self.field_writers.values().map(|c| c.len().saturating_sub(1)).sum()
    }

    /// Number of context pairs that interact through at least one field —
    /// the paper's O(N²) interaction count.
    pub fn interacting_pairs(&self) -> usize {
        self.pair_shared.len()
    }

    /// A markdown report used by experiment E6.
    pub fn render_markdown(&self, title: &str) -> String {
        let mut out = format!("### {title}\n\n");
        out.push_str(&format!(
            "- fields: {}\n- shared fields: {}\n- entanglement score: {}\n- write entanglement: {}\n- interacting context pairs: {}\n\n",
            self.field_contexts.len(),
            self.shared_fields().len(),
            self.entanglement_score(),
            self.write_entanglement_score(),
            self.interacting_pairs(),
        ));
        if !self.pair_shared.is_empty() {
            out.push_str("| context A | context B | shared fields |\n|---|---|---|\n");
            for ((a, b), n) in &self.pair_shared {
                out.push_str(&format!("| {a} | {b} | {n} |\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RD: &str = "reliable_delivery";
    const FC: &str = "flow_control";
    const CC: &str = "congestion_control";

    fn sample() -> AccessLog {
        let mut log = AccessLog::default();
        // Three functions share `snd_wnd`; `rcv_buf` is private to RD.
        log.read(site!(RD, "snd_wnd"));
        log.write(site!(RD, "snd_wnd"));
        log.write(site!(FC, "snd_wnd"));
        log.read(site!(RD, "rcv_buf"));
        log.write(site!(RD, "rcv_buf"));
        log.read(site!(CC, "snd_wnd"));
        log.read(site!(CC, "cwnd"));
        log.write(site!(CC, "cwnd"));
        log
    }

    #[test]
    fn log_counts_accumulate() {
        let log = sample();
        assert_eq!(log.get(site!(RD, "snd_wnd")), Counts { reads: 1, writes: 1 });
        assert_eq!(log.get(site!(FC, "rcv_wnd")), Counts::default());
        assert_eq!(log.contexts().len(), 3);
        assert_eq!(log.counts().count(), 5);
    }

    #[test]
    fn every_row_is_its_own_site() {
        for (i, &(ctx, field)) in SITES.iter().enumerate() {
            let site = Site::find(ctx, field).expect("a row finds itself");
            assert_eq!(site, Site(i as u8), "({ctx}, {field}) appears twice");
            assert_eq!((site.context(), site.field()), (ctx, field));
        }
        assert_eq!(Site::all().count(), SITES.len());
    }

    #[test]
    fn run_time_names_resolve_through_the_table() {
        let mut log = AccessLog::default();
        log.r("rd", "snd_una");
        log.r("rd", "no_such_field");
        log.r("", "");
        assert_eq!(log.get(site!("rd", "snd_una")), Counts { reads: 1, writes: 0 });
        assert_eq!(log.counts().count(), 1, "unknown pairs record nothing");
    }

    #[test]
    fn matrix_identifies_shared_fields() {
        let m = InteractionMatrix::from_log(&sample());
        let shared = m.shared_fields();
        assert_eq!(shared, vec![("snd_wnd", 3)]);
        // snd_wnd has 3 contexts -> score 2; others owned singly.
        assert_eq!(m.entanglement_score(), 2);
        // snd_wnd written by RD and FC (CC only reads) -> write score 1.
        assert_eq!(m.write_entanglement_score(), 1);
        // Pairs interacting through snd_wnd: (CC,FC), (CC,RD), (FC,RD).
        assert_eq!(m.interacting_pairs(), 3);
    }

    #[test]
    fn segregated_state_scores_zero() {
        let mut log = AccessLog::default();
        log.write(site!("dm", "listeners"));
        log.write(site!("cm", "local_isn"));
        log.write(site!("rd", "snd_una"));
        log.write(site!("osr", "cwnd"));
        let m = InteractionMatrix::from_log(&log);
        assert_eq!(m.entanglement_score(), 0);
        assert_eq!(m.interacting_pairs(), 0);
        assert!(m.shared_fields().is_empty());
    }

    #[test]
    fn shared_handle_accumulates_across_clones() {
        let log = shared();
        let h2 = log.clone();
        log.borrow_mut().read(site!(RD, "snd_una"));
        h2.borrow_mut().write(site!(CC, "snd_una"));
        let m = InteractionMatrix::from_log(&log.borrow());
        assert_eq!(m.entanglement_score(), 1);
    }

    #[test]
    fn markdown_report_mentions_scores() {
        let m = InteractionMatrix::from_log(&sample());
        let md = m.render_markdown("mono");
        assert!(md.contains("entanglement score: 2"));
        assert!(md.contains("| congestion_control | flow_control | 1 |"));
    }

    #[test]
    fn empty_log_renders() {
        let m = InteractionMatrix::from_log(&AccessLog::default());
        assert_eq!(m.entanglement_score(), 0);
        assert!(m.render_markdown("empty").contains("fields: 0"));
    }

    #[test]
    fn counter_absorb_saturates() {
        let mut a = HostCounters { accepts: u64::MAX - 1, mem_peak: 10, ..Default::default() };
        let b = HostCounters { accepts: 5, mem_peak: 7, ..Default::default() };
        a.absorb(&b);
        assert_eq!(a.accepts, u64::MAX);
        assert_eq!(a.mem_peak, 10, "peak merges by max");

        let mut x = AttackCounters { forged_segments: u64::MAX, ..Default::default() };
        x.absorb(&AttackCounters { forged_segments: 9, ..Default::default() });
        assert_eq!(x.forged_segments, u64::MAX);
    }

    #[test]
    fn host_gauges_absorb_across_shards() {
        let mut a = HostCounters {
            mem_used: 3000,
            conns_open: 10,
            conns_peak: 12,
            shard_occupancy: 40,
            ..Default::default()
        };
        let b = HostCounters {
            mem_used: 1000,
            conns_open: 10,
            conns_peak: 11,
            shard_occupancy: 55,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.conns_open, 20, "live conns sum across shards");
        assert_eq!(a.conns_peak, 23, "peaks sum (upper bound on global peak)");
        assert_eq!(a.bytes_per_conn, 200, "recomputed from merged sums, not averaged");
        assert_eq!(a.shard_occupancy, 55, "keeps the worst shard");
        let mut empty = HostCounters::default();
        empty.absorb(&HostCounters::default());
        assert_eq!(empty.bytes_per_conn, 0, "no division by zero conns");
    }

    #[test]
    fn fleet_health_gauges_absorb() {
        let mut a = HostCounters {
            heartbeat_age: 2,
            shard_restarts: 1,
            failover_aborts: 3,
            ring_stalls: 4,
            ..Default::default()
        };
        a.absorb(&HostCounters {
            heartbeat_age: 5,
            shard_restarts: 2,
            failover_aborts: 1,
            ring_stalls: 1,
            ..Default::default()
        });
        assert_eq!(a.heartbeat_age, 5, "oldest heartbeat is the binding gauge");
        assert_eq!(a.shard_restarts, 3);
        assert_eq!(a.failover_aborts, 4);
        assert_eq!(a.ring_stalls, 5);
    }

    #[test]
    fn muted_and_shared_logs_count_alike() {
        let (muted, live) = (muted(), shared());
        for log in [&muted, &live] {
            log.borrow_mut().read(site!("dm", "conn_table"));
            log.borrow_mut().write(site!("rd", "snd_una"));
            log.borrow_mut().r("osr", "cwnd");
        }
        let (m, l) = (muted.borrow(), live.borrow());
        assert_eq!(m.counts().collect::<Vec<_>>(), l.counts().collect::<Vec<_>>());
        assert_eq!(m.counts().count(), 3);
    }

    #[test]
    fn cc_counters_sample_and_mean() {
        let mut c = CcCounters::default();
        c.sample(2000, Some(64 * 1024));
        c.sample(4000, Some(64 * 1024));
        assert_eq!(c.samples, 2);
        assert_eq!(c.cwnd_last, 4000);
        assert_eq!(c.cwnd_peak, 4000);
        assert_eq!(c.cwnd_mean(), 3000.0);
        assert_eq!(c.ssthresh_last, 64 * 1024);
        // A rate-based controller reports no threshold.
        c.sample(5000, None);
        assert_eq!(c.ssthresh_last, 0);
    }

    #[test]
    fn cc_counters_absorb_merges_gauges_sensibly() {
        let mut a = CcCounters::default();
        a.sample(8000, Some(4000));
        a.dupack_losses = 2;
        let mut b = CcCounters::default();
        b.sample(3000, Some(2000));
        b.rto_resets = 1;
        a.absorb(&b);
        assert_eq!(a.samples, 2);
        assert_eq!(a.cwnd_last, 3000, "other side sampled last");
        assert_eq!(a.cwnd_peak, 8000, "peak keeps the max");
        assert_eq!(a.dupack_losses, 2);
        assert_eq!(a.rto_resets, 1);
        // Absorbing an empty side leaves the gauges alone.
        a.absorb(&CcCounters::default());
        assert_eq!(a.cwnd_last, 3000);
    }
}
