//! E3/E9, E7 and E8 — bulk transfers over the standard link: both stacks
//! across loss rates and the sublayered stack's rate controllers (E3/E9),
//! the shim against the monolith in both directions (E7), and one
//! sublayer mechanism swapped at a time (E8).
//!
//! One driver, [`transfer`], runs every row whatever stack sits at either
//! end; E10 (`offload`) runs it too, at its own [`Pace`].

use netsim::{two_party, Dur, FaultProfile, HostStack, LinkParams, NodeId, SimNet, Stack, StackNode, Time};
use slwire::Endpoint;
use sublayer_core::shim::ShimStack;
use sublayer_core::{CmScheme, SlConfig, SlTcpStack};
use tcp_mono::stack::TcpStack;

use crate::{json, Report, Table, A, B};

/// One end of a transfer: a stack, and the [`HostStack`] its application
/// drives — the stack itself, or the sublayered stack inside the shim.
pub trait End: Stack + 'static {
    type App: HostStack;
    fn app(&mut self) -> &mut Self::App;
}

impl End for TcpStack {
    type App = TcpStack;
    fn app(&mut self) -> &mut TcpStack { self }
}

impl End for SlTcpStack {
    type App = SlTcpStack;
    fn app(&mut self) -> &mut SlTcpStack { self }
}

impl End for ShimStack {
    type App = SlTcpStack;
    fn app(&mut self) -> &mut SlTcpStack { &mut self.inner }
}

/// How the application paces a transfer.
#[derive(Clone, Copy, Debug)]
pub struct Pace {
    /// Simulated time the handshake gets before the one write.
    pub warmup: Dur,
    /// How often the receiving application reads.
    pub read_every: Dur,
    /// How long the data may take before the transfer counts as
    /// incomplete.
    pub patience: Dur,
}

/// The pace of E3/E7/E8. 25 ms application polling is fine enough that
/// the app's read rate never bounds a 20 Mbit/s link (64 KB window /
/// 25 ms = 21 Mbit/s).
pub const APP_PACE: Pace =
    Pace { warmup: Dur(3_000_000_000), read_every: Dur(25_000_000), patience: Dur(600_000_000_000) };

/// One transfer's outcome.
#[derive(Clone, Debug)]
pub struct TransferReport {
    pub bytes: usize,
    pub delivered: usize,
    /// From the write to the last read (or to the end of patience).
    pub sim_us: u64,
    pub frames_on_wire: u64,
    pub wire_bytes: u64,
}

impl TransferReport {
    pub fn complete(&self) -> bool { self.delivered >= self.bytes }
    pub fn sim_seconds(&self) -> f64 { (self.sim_us as f64 / 1e6).max(1e-9) }
    pub fn goodput_mbps(&self) -> f64 { self.delivered as f64 * 8.0 / self.sim_seconds() / 1e6 }
}

/// A finished transfer, its network kept for inspection.
pub struct Transfer {
    pub report: TransferReport,
    pub net: SimNet,
    pub client: NodeId,
}

/// Stream `bytes` from client `c` at [`A`] to server `s`, which listens
/// at [`B`]:80, over one link with `params`: connect, wait `pace.warmup`,
/// write everything once, then read every `pace.read_every` until all of
/// it has arrived or patience runs out.
pub fn transfer<C: End, S: End>(
    mut c: C,
    mut s: S,
    bytes: usize,
    params: LinkParams,
    seed: u64,
    pace: Pace,
) -> Transfer {
    let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
    s.app().listen(80);
    let conn = c.app().try_connect(Time::ZERO, 5000, Endpoint::new(B, 80)).expect("tuple free");
    let (mut net, nc, ns) = two_party(seed, c, s, params);
    net.poll_all();
    net.run_until(Time::ZERO + pace.warmup);
    net.node_mut::<StackNode<C>>(nc).stack.app().send(conn, &data);
    net.poll_all();
    let start = net.now();

    let mut got = 0usize;
    for _ in 0..pace.patience.0 / pace.read_every.0 {
        net.run_for(pace.read_every);
        let st = net.node_mut::<StackNode<S>>(ns).stack.app();
        got += st.established().first().map_or(0, |&id| st.recv(id).len());
        net.poll_all();
        if got >= bytes {
            break;
        }
    }
    let (d0, d1) = (net.link_dir_stats(0, 0), net.link_dir_stats(0, 1));
    let (sim_us, frames_on_wire, wire_bytes) =
        (net.now().since(start).0 / 1000, d0.tx_frames + d1.tx_frames, d0.tx_bytes + d1.tx_bytes);
    let report = TransferReport { bytes, delivered: got, sim_us, frames_on_wire, wire_bytes };
    Transfer { report, net, client: nc }
}

/// A standard link for the TCP comparisons: 10 ms delay, 20 Mbit/s,
/// `loss_pct` % loss.
pub fn standard_link(loss_pct: u32) -> LinkParams {
    LinkParams::delay_only(Dur::from_millis(10))
        .with_rate(20_000_000)
        .with_fault(FaultProfile::lossy(loss_pct as f64 / 100.0))
}

pub fn mono(addr: u32) -> TcpStack {
    TcpStack::new(addr, slmetrics::shared())
}

pub fn sub(addr: u32, cfg: SlConfig) -> SlTcpStack {
    SlTcpStack::new(addr, cfg, slmetrics::shared())
}

/// The transfers' sublayered configuration: rate controller `cc`, RFC 793
/// clock ISNs, SACK on, no keepalive.
pub fn sub_config(cc: &'static str) -> SlConfig {
    SlConfig { cm_scheme: CmScheme::ThreeWay, cc, isn: "clock", use_sack: true, keepalive: None }
}

fn shim(addr: u32) -> ShimStack {
    ShimStack::new(sub(addr, sub_config("reno")))
}

/// One row: which experiment, what ran, and how it went.
struct Row {
    experiment: &'static str,
    label: String,
    loss_pct: u32,
    seed: u64,
    r: TransferReport,
}

fn row<C: End, S: End>(
    experiment: &'static str,
    label: &str,
    (c, s): (C, S),
    bytes: usize,
    loss_pct: u32,
    seed: u64,
) -> Row {
    let r = transfer(c, s, bytes, standard_link(loss_pct), seed, APP_PACE).report;
    Row { experiment, label: label.into(), loss_pct, seed, r }
}

const E3: &str = "E3/E9";
const E3_CC: &str = "E3/E9 rate controllers";
const E7: &str = "E7";
const E8: &str = "E8";

/// E8's variants: each swaps one mechanism of [`sub_config`]`("reno")`.
fn e8_variants() -> [(&'static str, SlConfig); 6] {
    let reno = sub_config("reno");
    [
        ("CC = Reno (baseline)", reno.clone()),
        ("CC = CUBIC", sub_config("cubic")),
        ("CC = rate-based (AIMD on rate)", sub_config("rate-based")),
        ("CC = fixed window (ablation)", sub_config("fixed-window")),
        (
            "CM = Watson timer-based (no handshake, no FIN)",
            SlConfig { cm_scheme: CmScheme::TimerBased { quiet: Dur::from_secs(10) }, ..reno.clone() },
        ),
        ("RD ablation: SACK advertisement off", SlConfig { use_sack: false, ..reno }),
    ]
}

fn run(smoke: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let losses: &[u32] = if smoke { &[0, 5] } else { &[0, 1, 2, 5, 10] };
    for &loss in losses {
        rows.push(row(E3, "monolithic", (mono(A), mono(B)), 200_000, loss, 42));
        let reno = (sub(A, sub_config("reno")), sub(B, sub_config("reno")));
        rows.push(row(E3, "sublayered/reno", reno, 200_000, loss, 42));
    }
    for cc in ["reno", "cubic", "rate-based", "fixed-window"] {
        rows.push(row(E3_CC, cc, (sub(A, sub_config(cc)), sub(B, sub_config(cc))), 200_000, 2, 7));
    }
    let losses: &[u32] = if smoke { &[5] } else { &[0, 5] };
    for &loss in losses {
        rows.push(row(E7, "monolithic", (mono(A), mono(B)), 100_000, loss, 11));
        rows.push(row(E7, "sub(shim)->mono", (shim(A), mono(B)), 100_000, loss, 11));
        rows.push(row(E7, "mono->sub(shim)", (mono(A), shim(B)), 100_000, loss, 11));
    }
    for (desc, cfg) in e8_variants() {
        rows.push(row(E8, desc, (sub(A, cfg.clone()), sub(B, cfg)), 100_000, 2, 21));
    }
    rows
}

/// The claims the rows must bear out: every transfer delivers all its
/// bytes; the sublayered stack puts no more frames on the wire than the
/// monolith at any loss rate; the handshake-free CM sends fewer frames
/// than the three-way baseline.
fn violations(rows: &[Row]) -> Vec<String> {
    let mut v = Vec::new();
    for r in rows.iter().filter(|r| r.r.delivered != r.r.bytes) {
        v.push(format!("[{} {}% {}] delivered {}/{}", r.experiment, r.loss_pct, r.label, r.r.delivered, r.r.bytes));
    }
    let e3: Vec<&Row> = rows.iter().filter(|r| r.experiment == E3).collect();
    for pair in e3.chunks(2) {
        let (m, s) = (pair[0].r.frames_on_wire, pair[1].r.frames_on_wire);
        if s > m {
            v.push(format!("[E3/E9 {}%] sublayered frames {s} above the monolith's {m}", pair[0].loss_pct));
        }
    }
    let e8: Vec<u64> = rows.iter().filter(|r| r.experiment == E8).map(|r| r.r.frames_on_wire).collect();
    if e8[4] >= e8[0] {
        v.push(format!("[E8] timer-based CM frames {} not below the three-way baseline's {}", e8[4], e8[0]));
    }
    v
}

/// One table cell of `r` under `header`; any header not named here is
/// the row's label (stack, pairing, rate controller or mechanism).
fn cell(r: &Row, header: &str) -> String {
    let t = &r.r;
    match header {
        "loss" => format!("{}%", r.loss_pct),
        "delivered" => format!("{}/{}", t.delivered, t.bytes),
        "sim time (s)" => format!("{:.2}", t.sim_seconds()),
        "goodput (Mbit/s)" => format!("{:.3}", t.goodput_mbps()),
        "wire frames" => t.frames_on_wire.to_string(),
        "complete" => if t.complete() { "yes".into() } else { "NO".into() },
        _ => r.label.clone(),
    }
}

/// Each experiment's table: its rows, title and columns.
const TABLES: [(&str, &str, &[&str]); 4] = [
    (E3, "E3/E9 — sublayered vs monolithic TCP: 200 KB over 20 Mbit/s, 10 ms, by loss rate",
        &["loss", "stack", "sim time (s)", "goodput (Mbit/s)", "wire frames", "complete"]),
    (E3_CC, "E3/E9 — rate controllers on the sublayered stack (2% loss)",
        &["rate controller", "sim time (s)", "goodput (Mbit/s)", "wire frames", "complete"]),
    (E7, "E7 — interop through the shim: sublayered <-> monolithic (RFC 793 wire), 100 KB",
        &["loss", "pairing", "delivered", "sim time (s)", "goodput (Mbit/s)", "complete"]),
    (E8, "E8 — sublayer replacement: 100 KB at 2% loss, one constructor argument each",
        &["replaced mechanism", "sim time (s)", "goodput (Mbit/s)", "wire frames", "complete"]),
];

/// The campaign: every transfer, in one row shape with an `experiment`
/// field; each experiment's table keeps its own columns.
pub fn report(smoke: bool) -> Report {
    let rows = run(smoke);
    let tables = TABLES
        .iter()
        .map(|&(e, title, headers)| {
            let of_e = rows.iter().filter(|r| r.experiment == e);
            Table::new(title, headers.to_vec(), of_e.map(|r| headers.iter().map(|h| cell(r, h)).collect()).collect())
        })
        .collect();
    let n = |v: u64| v.to_string();
    let docs = rows.iter().map(|r| json::obj(&[
        ("experiment", json::str(r.experiment)), ("stack", json::str(&r.label)), ("loss_pct", r.loss_pct.to_string()),
        ("seed", n(r.seed)), ("bytes", r.r.bytes.to_string()), ("delivered", r.r.delivered.to_string()),
        ("sim_us", n(r.r.sim_us)), ("wire_frames", n(r.r.frames_on_wire)), ("wire_bytes", n(r.r.wire_bytes)),
    ])).collect();
    Report::checked(&[("transfers", docs)], tables, violations(&rows))
}
