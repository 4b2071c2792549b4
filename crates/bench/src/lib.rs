//! Shared harness for the experiment binaries and Criterion benches.
//! Each function runs a deterministic simulated workload and returns the
//! measurements the corresponding EXPERIMENTS.md table reports.
//!
//! # Campaigns
//!
//! The ten invariant-checked sweeps (`attack` … `topology`) sit behind
//! one registry, [`CAMPAIGNS`], and one binary, `exp <campaign>
//! [--smoke] [--json]`. A campaign is a module with a
//! `report(smoke) -> Report`: it runs its sweep (the small one when
//! `smoke`), encodes the document with [`json`], and tabulates one row
//! per run. The runner prints, writes `BENCH_<name>.json` after a full
//! run, and exits non-zero on any violation; `ci/campaigns.sh` and
//! `tests/smoke_all.rs` loop the registry.
//!
//! To add a campaign: write `src/<name>.rs` with that `report` function,
//! add `pub mod <name>;` and one [`Campaign`] line below, run
//! `exp <name> --json` once and commit the `BENCH_<name>.json` it wrote.
//! No YAML, no new binary.

pub mod attack;
pub mod chaos;
pub mod conform;
pub mod contracts;
pub mod entangle;
pub mod failover;
pub mod fairness;
pub mod json;
pub mod natcodec;
pub mod overload;
pub mod scale;
pub mod shard;
pub mod topology;

use netsim::{two_party, Dur, FaultProfile, LinkParams, NodeId, SimNet, StackNode, Time};
use slconform::{ConformStack, Kind};
use slhost::HostStack;
use sublayer_core::shim::ShimStack;
use sublayer_core::{CmScheme, SlConfig, SlTcpStack};
use tcp_mono::stack::TcpStack;
use slwire::Endpoint;

pub const A: u32 = 0x0A000001;
pub const B: u32 = 0x0A000002;

/// Both stacks, in the row order of every sweep but `chaos` and `attack`
/// (whose committed rows list the monolith first).
pub const KINDS: [Kind; 2] = [Kind::Sub, Kind::Mono];

/// What one campaign sweep hands the runner.
pub struct Report {
    /// The deterministic document (`BENCH_<name>.json`, less the final
    /// newline).
    pub json: String,
    /// The human table: one row per run.
    pub headers: Vec<&'static str>,
    pub rows: Vec<Vec<String>>,
    /// Every invariant violation, tagged with the run it came from;
    /// non-empty fails the run.
    pub violations: Vec<String>,
}

/// One registered campaign: `exp <name>` runs `run(smoke)`.
pub struct Campaign {
    pub name: &'static str,
    pub title: &'static str,
    pub run: fn(smoke: bool) -> Report,
}

impl Campaign {
    /// The committed artefact a full run rewrites.
    pub fn bench_file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// The registry `exp`, CI and `tests/smoke_all.rs` loop over.
pub const CAMPAIGNS: [Campaign; 10] = [
    Campaign { name: "attack", title: "E14 — adversarial robustness", run: attack::report },
    Campaign { name: "chaos", title: "E-chaos — fault campaigns", run: chaos::report },
    Campaign { name: "conform", title: "E17 — differential conformance", run: conform::report },
    Campaign { name: "contracts", title: "E22 — sublayer contract chain", run: contracts::report },
    Campaign { name: "failover", title: "E21 — shard fault domains", run: failover::report },
    Campaign { name: "fairness", title: "E19 — fairness under overload", run: fairness::report },
    Campaign { name: "overload", title: "E16 — overload control (slhost)", run: overload::report },
    Campaign { name: "scale", title: "E15 — many-client scale (slhost)", run: scale::report },
    Campaign { name: "shard", title: "E20 — sharded multi-core host (slshard)", run: shard::report },
    Campaign { name: "topology", title: "E18 — Internet-in-a-box", run: topology::report },
];

/// Nanoseconds as a [`Dur`] — the host campaigns keep their timing
/// constants in nanoseconds.
pub(crate) fn dur(ns: u64) -> Dur {
    Dur::from_nanos(ns)
}

/// The document a sweep commits: its rows one per line under `rows_key`,
/// the sweep-level checks if the campaign has any, and the totals
/// (`row_violations` plus one per failed check).
pub fn sweep_json(
    rows_key: &str,
    rows: &[String],
    checks: Option<(&str, &[String])>,
    row_violations: usize,
) -> String {
    let mut fields = vec![(rows_key, json::rows(rows))];
    if let Some((key, failed)) = checks {
        fields.push((key, json::strs(failed)));
    }
    fields.push(("total", rows.len().to_string()));
    let violations = row_violations + checks.map_or(0, |(_, failed)| failed.len());
    fields.push(("violations", violations.to_string()));
    json::obj(&fields)
}

/// One run's violations, each prefixed with the run's `tag`.
pub fn tagged<'a>(tag: String, violations: &'a [String]) -> impl Iterator<Item = String> + 'a {
    violations.iter().map(move |v| format!("[{tag}] {v}"))
}

/// `"ok"`, or the run's violations joined — the table's verdict cell.
pub fn verdict(violations: &[String]) -> String {
    if violations.is_empty() { "ok".into() } else { violations.join("; ") }
}

/// A transport error's name, or `-` — the table's error cells.
pub fn err_cell(e: Option<netsim::TransportError>) -> String {
    e.map_or("-".into(), |e| format!("{e:?}"))
}

/// `profiles x kinds x seeds` in a fixed order (profile-major, then
/// stack, then seed) — the row order of the profile-driven sweeps.
pub fn sweep_grid<P: Copy, O>(
    profiles: &[P],
    kinds: &[Kind],
    seeds: &[u64],
    run: impl Fn(P, Kind, u64) -> O,
) -> Vec<O> {
    let mut outs = Vec::new();
    for &p in profiles {
        for &k in kinds {
            for &seed in seeds {
                outs.push(run(p, k, seed));
            }
        }
    }
    outs
}

/// How long (simulated) a streamed transfer may run before it counts as
/// hung.
const PATIENCE: Dur = Dur(600_000_000_000);
/// Application send/drain granularity of a streamed transfer.
const STEP: Dur = Dur(250_000_000);

/// A keepalive client at [`A`] already connecting to a keepalive server
/// listening at [`B`]:80 — the two endpoints of a chaos or attack run.
pub fn keepalive_pair<H: ConformStack>() -> (H, H, H::ConnId) {
    let mut c = H::mk_keepalive(A);
    let mut s = H::mk_keepalive(B);
    s.listen(80);
    let conn = c.try_connect(Time::ZERO, 5000, Endpoint::new(B, 80)).expect("tuple free");
    (c, s, conn)
}

/// What [`stream_transfer`] saw.
pub struct Streamed<H: HostStack> {
    /// Bytes the server application read, in order.
    pub got: Vec<u8>,
    /// The server's side of the connection, once it was seen established.
    pub sconn: Option<H::ConnId>,
    pub complete: bool,
    /// Simulated time when the transfer finished or both ends had died.
    pub sim_ms: u64,
}

/// Stream `payload` from client node `nc` (over `conn`) to server node
/// `ns` across whatever `net` puts between them, until it is delivered,
/// both ends are dead, or patience runs out. The app offers the unsent
/// tail every step, so a handshake delayed past t=1 s (or a full send
/// buffer) only defers the data. `each_step` runs after the server's
/// read and before the step's frames go out. An undelivered transfer
/// gets 120 s more for the far side to finish dying: a clean abort must
/// leave nothing spinning afterwards.
pub fn stream_transfer<H: ConformStack>(
    net: &mut SimNet,
    (nc, conn): (NodeId, H::ConnId),
    ns: NodeId,
    payload: &[u8],
    mut each_step: impl FnMut(&SimNet),
) -> Streamed<H> {
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(1));
    let mut sent = net.node_mut::<StackNode<H>>(nc).stack.send(conn, payload);
    net.poll_all();

    let deadline = net.now() + PATIENCE;
    let mut got: Vec<u8> = Vec::new();
    let mut sconn = None;
    while net.now() < deadline {
        let step = net.now() + STEP;
        net.run_until(step);
        if sent < payload.len() {
            sent += net.node_mut::<StackNode<H>>(nc).stack.send(conn, &payload[sent..]);
        }
        let st = &mut net.node_mut::<StackNode<H>>(ns).stack;
        if sconn.is_none() {
            sconn = st.established().first().copied();
        }
        if let Some(id) = sconn {
            got.extend(st.recv(id));
        }
        each_step(net);
        net.poll_all();
        if got.len() >= payload.len() {
            break;
        }
        let client_dead = net.node::<StackNode<H>>(nc).stack.is_closed(conn);
        // No established server connection left (it may have been reset
        // and reaped before we ever saw it) counts as a dead server side.
        let server = &net.node::<StackNode<H>>(ns).stack;
        let server_dead = match sconn {
            Some(id) => server.is_closed(id),
            None => server.established().is_empty(),
        };
        if client_dead && server_dead {
            break;
        }
    }

    let sim_ms = net.now().since(Time::ZERO).0 / 1_000_000;
    let complete = got.len() >= payload.len();
    if !complete {
        let settle = net.now() + Dur::from_secs(120);
        net.run_until(settle);
    }
    Streamed { got, sconn, complete, sim_ms }
}

/// Which transport runs on each side of a transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackKind {
    Mono,
    Sub(&'static str),          // rate controller name
    SubTimerCm(&'static str),   // timer-based CM variant
    SubNoSack,                  // SACK-advertisement ablation
    ShimClientMonoServer,       // interop: sublayered (shim) -> mono
    MonoClientShimServer,       // interop: mono -> sublayered (shim)
}

impl StackKind {
    pub fn label(&self) -> String {
        match self {
            StackKind::Mono => "monolithic".into(),
            StackKind::Sub(cc) => format!("sublayered/{cc}"),
            StackKind::SubTimerCm(cc) => format!("sublayered/timer-cm/{cc}"),
            StackKind::SubNoSack => "sublayered/reno/no-sack".into(),
            StackKind::ShimClientMonoServer => "sub(shim)->mono".into(),
            StackKind::MonoClientShimServer => "mono->sub(shim)".into(),
        }
    }
}

/// One transfer's outcome.
#[derive(Clone, Debug)]
pub struct TransferReport {
    pub kind: String,
    pub bytes: usize,
    pub delivered: usize,
    pub sim_seconds: f64,
    pub goodput_mbps: f64,
    pub frames_on_wire: u64,
    pub wire_bytes: u64,
    pub complete: bool,
}

fn sub_config(cc: &'static str, timer_cm: bool) -> SlConfig {
    SlConfig {
        cm_scheme: if timer_cm {
            CmScheme::TimerBased { quiet: Dur::from_secs(10) }
        } else {
            CmScheme::ThreeWay
        },
        cc,
        isn: "clock",
        use_sack: true,
        keepalive: None,
        ..SlConfig::default()
    }
}

/// Run a one-directional bulk transfer and measure completion time and
/// wire efficiency.
pub fn run_transfer(
    kind: StackKind,
    bytes: usize,
    params: LinkParams,
    seed: u64,
    patience_secs: u64,
) -> TransferReport {
    let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();

    // Generic driver over the two stack shapes.
    enum Side {
        Mono(usize),
        Sub(usize),
        Shim(usize),
    }
    let mut net;
    let (tx, rx): (Side, Side);
    let mut conn_mono = None;
    let mut conn_sub = None;

    match kind {
        StackKind::Mono => {
            let mut c = TcpStack::new(A, slmetrics::shared());
            let mut s = TcpStack::new(B, slmetrics::shared());
            s.listen(80);
            conn_mono = Some(c.connect(Time::ZERO, 5000, Endpoint::new(B, 80)));
            let (n, nc, ns) = two_party(seed, c, s, params);
            net = n;
            tx = Side::Mono(nc);
            rx = Side::Mono(ns);
        }
        StackKind::Sub(_) | StackKind::SubTimerCm(_) | StackKind::SubNoSack => {
            let timer = matches!(kind, StackKind::SubTimerCm(_));
            let cc = match kind {
                StackKind::Sub(c) | StackKind::SubTimerCm(c) => c,
                _ => "reno",
            };
            let mut cfg = sub_config(cc, timer);
            if matches!(kind, StackKind::SubNoSack) {
                cfg.use_sack = false;
            }
            let mut c = SlTcpStack::new(A, cfg.clone(), slmetrics::shared());
            let mut s = SlTcpStack::new(B, cfg, slmetrics::shared());
            s.listen(80);
            conn_sub = Some(c.connect(Time::ZERO, 5000, Endpoint::new(B, 80)));
            let (n, nc, ns) = two_party(seed, c, s, params);
            net = n;
            tx = Side::Sub(nc);
            rx = Side::Sub(ns);
        }
        StackKind::ShimClientMonoServer => {
            let mut c = ShimStack::new(SlTcpStack::new(A, sub_config("reno", false), slmetrics::shared()));
            let mut s = TcpStack::new(B, slmetrics::shared());
            s.listen(80);
            conn_sub = Some(c.inner.connect(Time::ZERO, 5000, Endpoint::new(B, 80)));
            let (n, nc, ns) = two_party(seed, c, s, params);
            net = n;
            tx = Side::Shim(nc);
            rx = Side::Mono(ns);
        }
        StackKind::MonoClientShimServer => {
            let mut c = TcpStack::new(A, slmetrics::shared());
            let mut s = ShimStack::new(SlTcpStack::new(B, sub_config("reno", false), slmetrics::shared()));
            s.inner.listen(80);
            conn_mono = Some(c.connect(Time::ZERO, 5000, Endpoint::new(B, 80)));
            let (n, nc, ns) = two_party(seed, c, s, params);
            net = n;
            tx = Side::Mono(nc);
            rx = Side::Shim(ns);
        }
    }

    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(3));
    // Queue the data on the sender.
    match &tx {
        Side::Mono(id) => {
            net.node_mut::<StackNode<TcpStack>>(*id).stack.send(conn_mono.unwrap(), &data);
        }
        Side::Sub(id) => {
            net.node_mut::<StackNode<SlTcpStack>>(*id).stack.send(conn_sub.unwrap(), &data);
        }
        Side::Shim(id) => {
            net.node_mut::<StackNode<ShimStack>>(*id)
                .stack
                .inner
                .send(conn_sub.unwrap(), &data);
        }
    }
    net.poll_all();
    let start = net.now();

    let mut got = 0usize;
    let mut done_at = start;
    // 25 ms application polling: fine enough that the app read rate never
    // bounds a 20 Mbit/s link (64 KB window / 25 ms = 21 Mbit/s).
    for _ in 0..patience_secs * 40 {
        let dl = net.now() + Dur::from_millis(25);
        net.run_until(dl);
        let drained = match &rx {
            Side::Mono(id) => {
                let st = &mut net.node_mut::<StackNode<TcpStack>>(*id).stack;
                st.established().first().map(|&c| st.recv(c).len()).unwrap_or(0)
            }
            Side::Sub(id) => {
                let st = &mut net.node_mut::<StackNode<SlTcpStack>>(*id).stack;
                st.established().first().map(|&c| st.recv(c).len()).unwrap_or(0)
            }
            Side::Shim(id) => {
                let st = &mut net.node_mut::<StackNode<ShimStack>>(*id).stack.inner;
                st.established().first().map(|&c| st.recv(c).len()).unwrap_or(0)
            }
        };
        got += drained;
        net.poll_all();
        if got >= bytes {
            done_at = net.now();
            break;
        }
    }
    let complete = got >= bytes;
    if !complete {
        done_at = net.now();
    }
    let secs = done_at.since(start).secs_f64().max(1e-9);
    let d0 = net.link_dir_stats(0, 0);
    let d1 = net.link_dir_stats(0, 1);
    TransferReport {
        kind: kind.label(),
        bytes,
        delivered: got,
        sim_seconds: secs,
        goodput_mbps: got as f64 * 8.0 / secs / 1e6,
        frames_on_wire: d0.tx_frames + d1.tx_frames,
        wire_bytes: d0.tx_bytes + d1.tx_bytes,
        complete,
    }
}

/// A standard link for the TCP comparisons: 10 ms delay, 20 Mbit/s.
pub fn standard_link(loss: f64) -> LinkParams {
    LinkParams::delay_only(Dur::from_millis(10))
        .with_rate(20_000_000)
        .with_fault(FaultProfile::lossy(loss))
}

/// Nearest-rank percentile over an ascending-sorted slice (`q` in
/// `0..=100`); 0 for empty input. Shared by the scale and shard sweeps
/// so their latency columns are computed identically.
pub fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[((sorted.len() - 1) as u64 * q / 100) as usize]
    }
}

/// Render rows as a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for r in rows {
        out.push_str(&format!("| {} |\n", r.join(" | ")));
    }
    out
}

/// Crossing statistics from a sublayered transfer (for E10).
pub fn crossings_for_workload(bytes: usize, loss: f64, seed: u64) -> sublayer_core::CrossingStats {
    let mut c = SlTcpStack::new(A, SlConfig::default(), slmetrics::shared());
    let mut s = SlTcpStack::new(B, SlConfig::default(), slmetrics::shared());
    s.listen(80);
    let conn = c.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
    let (mut net, nc, ns) = two_party(seed, c, s, standard_link(loss));
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(2));
    net.node_mut::<StackNode<SlTcpStack>>(nc).stack.send(conn, &vec![7u8; bytes]);
    net.poll_all();
    for _ in 0..180 {
        let dl = net.now() + Dur::from_secs(1);
        net.run_until(dl);
        let st = &mut net.node_mut::<StackNode<SlTcpStack>>(ns).stack;
        if let Some(&sc) = st.established().first() {
            let _ = st.recv(sc);
        }
        net.poll_all();
        if net.node::<StackNode<SlTcpStack>>(nc).stack.osr_stats(conn).is_none_or(|o| o.bytes_written == bytes as u64)
            && net.node::<StackNode<SlTcpStack>>(ns).stack.crossings.rd_to_osr_bytes >= bytes as u64
        {
            break;
        }
    }
    // Sender-host view only: its NIC/host boundary carries OSR->RD
    // segments down and signals up; the receiver host is symmetric.
    net.node::<StackNode<SlTcpStack>>(nc).stack.crossings.clone()
}

/// Drive one SimNet until idle/deadline — helper for examples/tests.
pub fn settle(net: &mut SimNet, secs: u64) {
    let dl = net.now() + Dur::from_secs(secs);
    net.run_until(dl);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_map_to_committed_bench_files() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (i, c) in CAMPAIGNS.iter().enumerate() {
            assert!(CAMPAIGNS[..i].iter().all(|d| d.name != c.name), "duplicate {}", c.name);
            assert_eq!(c.bench_file(), format!("BENCH_{}.json", c.name));
            assert!(root.join(c.bench_file()).is_file(), "{} is not committed", c.bench_file());
        }
    }

    #[test]
    fn transfers_complete_for_all_stack_kinds() {
        for kind in [
            StackKind::Mono,
            StackKind::Sub("reno"),
            StackKind::ShimClientMonoServer,
            StackKind::MonoClientShimServer,
        ] {
            let r = run_transfer(kind, 30_000, standard_link(0.02), 7, 120);
            assert!(r.complete, "{:?}: {r:?}", kind);
            assert!(r.goodput_mbps > 0.01);
        }
    }

    #[test]
    fn lossier_links_are_slower() {
        let clean = run_transfer(StackKind::Sub("reno"), 100_000, standard_link(0.0), 1, 180);
        let lossy = run_transfer(StackKind::Sub("reno"), 100_000, standard_link(0.1), 1, 180);
        assert!(clean.complete && lossy.complete);
        assert!(clean.sim_seconds < lossy.sim_seconds);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 0), 7);
        assert_eq!(percentile(&[7], 100), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
    }

    #[test]
    fn markdown_renders() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn crossings_workload_produces_counts() {
        // Sender-host view: its boundary carries segments down and
        // signals up; the opposite direction belongs to the peer host.
        let cx = crossings_for_workload(20_000, 0.02, 3);
        assert!(cx.osr_to_rd_segments >= 20);
        assert_eq!(cx.osr_to_rd_bytes, 20_000);
        assert!(cx.signals_up > 0);
    }
}
