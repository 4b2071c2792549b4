//! The experiment harness: every experiment of EXPERIMENTS.md (E1–E22)
//! is a campaign of one registry, run by one binary. Each function runs a
//! deterministic simulated workload and returns the measurements the
//! corresponding EXPERIMENTS.md table reports.
//!
//! # Campaigns
//!
//! The campaigns (`attack` … `verify`) sit behind one registry,
//! [`CAMPAIGNS`], and one binary, `exp <campaign> [--smoke] [--json]`. A
//! campaign is a module with a `report(smoke) -> Report`: it runs its
//! sweep (the small one when `smoke`), encodes the document with
//! [`json`] (integers only: a table's float is printed from the integers
//! the document keeps), tabulates what it measured, and lists every
//! checked claim that failed. The runner prints, writes
//! `BENCH_<name>.json` after a full run, and exits non-zero on any
//! violation; `ci/campaigns.sh` and `tests/smoke_all.rs` loop the
//! registry.
//!
//! To add a campaign: write `src/<name>.rs` with that `report` function,
//! add `pub mod <name>;` and one [`Campaign`] line below, run
//! `exp <name> --json` once and commit the `BENCH_<name>.json` it wrote.
//! No YAML, no new binary.

pub mod attack;
#[cfg(test)]
mod behaviour;
pub mod chaos;
pub mod client;
pub mod conform;
pub mod contracts;
pub mod datalink;
pub mod entangle;
pub mod failover;
pub mod fairness;
pub mod header;
pub mod json;
pub mod natcodec;
pub mod offload;
pub mod overload;
pub mod routing;
pub mod scale;
pub mod shard;
pub mod stuffing;
pub mod topology;
pub mod transfer;
pub mod verify;

use netsim::{Dur, NodeId, SimNet, StackNode, Time};
use slconform::{ConformStack, Kind};
use slhost::HostStack;
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
    /// The human tables, in print order.
    pub tables: Vec<Table>,
    /// Every invariant violation, tagged with the run it came from;
    /// non-empty fails the run.
    pub violations: Vec<String>,
}

impl Report {
    /// A sweep's report: its document, and one untitled table of runs.
    pub fn sweep(json: String, headers: Vec<&'static str>, rows: Vec<Vec<String>>, violations: Vec<String>) -> Report {
        Report { json, tables: vec![Table::new("", headers, rows)], violations }
    }

    /// A report whose document is its `sections` (each a key and its rows,
    /// one per line) and the list of `violations`.
    pub fn checked(sections: &[(&str, Vec<String>)], tables: Vec<Table>, violations: Vec<String>) -> Report {
        let mut fields: Vec<(&str, String)> = sections.iter().map(|(k, rows)| (*k, json::rows(rows))).collect();
        fields.push(("violations", json::strs(&violations)));
        Report { json: json::obj(&fields), tables, violations }
    }
}

/// One printed table. A sweep's one table of runs is untitled: the
/// campaign's title heads it.
pub struct Table {
    pub title: String,
    pub headers: Vec<&'static str>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: Vec<&'static str>, rows: Vec<Vec<String>>) -> Table {
        Table { title: title.into(), headers, rows }
    }
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

    /// What `exp` prints above the JSON: a sweep's untitled table under
    /// `# <title>: <n> runs`, else each table under its own heading.
    pub fn render(&self, r: &Report) -> String {
        let md = |t: &Table| markdown_table(&t.headers, &t.rows);
        match &r.tables[..] {
            [t] if t.title.is_empty() => format!("# {}: {} runs\n\n{}", self.title, t.rows.len(), md(t)),
            tables => {
                let mut out = format!("# {}\n", self.title);
                for t in tables {
                    out += &format!("\n## {}\n\n{}", t.title, md(t));
                }
                out
            }
        }
    }
}

/// The registry `exp`, CI and `tests/smoke_all.rs` loop over.
pub const CAMPAIGNS: [Campaign; 18] = [
    Campaign { name: "attack", title: "E14 — adversarial robustness", run: attack::report },
    Campaign { name: "chaos", title: "E-chaos — fault campaigns", run: chaos::report },
    Campaign { name: "conform", title: "E17 — differential conformance", run: conform::report },
    Campaign { name: "contracts", title: "E22 — sublayer contract chain", run: contracts::report },
    Campaign { name: "datalink", title: "E1/E12 — data-link sublayers and ARQ schemes", run: datalink::report },
    Campaign { name: "entangle", title: "E6b — state entanglement", run: entangle::report },
    Campaign { name: "failover", title: "E21 — shard fault domains", run: failover::report },
    Campaign { name: "fairness", title: "E19 — fairness under overload", run: fairness::report },
    Campaign { name: "header", title: "E11 — native Figure-6 header vs RFC 793", run: header::report },
    Campaign { name: "offload", title: "E10 — offload partitions", run: offload::report },
    Campaign { name: "overload", title: "E16 — overload control (slhost)", run: overload::report },
    Campaign { name: "routing", title: "E2 — route-computation swap", run: routing::report },
    Campaign { name: "scale", title: "E15 — many-client scale (slhost)", run: scale::report },
    Campaign { name: "shard", title: "E20 — sharded multi-core host (slshard)", run: shard::report },
    Campaign { name: "stuffing", title: "E4/E5 — verified bit stuffing", run: stuffing::report },
    Campaign { name: "topology", title: "E18 — Internet-in-a-box", run: topology::report },
    Campaign { name: "transfer", title: "E3/E9, E7, E8 — bulk transfers", run: transfer::report },
    Campaign { name: "verify", title: "E6a — model-checking effort", run: verify::report },
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
        net.run_for(STEP);
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
        net.run_for(Dur::from_secs(120));
    }
    Streamed { got, sconn, complete, sim_ms }
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

    /// DESIGN.md §3's experiment index names each experiment's target:
    /// every one is a registered campaign, never a retired `exp_*` bin.
    #[test]
    fn the_design_index_names_only_registered_campaigns() {
        let design = include_str!("../../../DESIGN.md");
        let index = design.split("\n## 3.").nth(1).and_then(|s| s.split("\n## 4.").next()).unwrap();
        let is_row = |l: &&str| l.strip_prefix("| E").is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()));
        let rows: Vec<&str> = index.lines().filter(is_row).collect();
        assert!(rows.len() >= 12, "the index lists E1-E12");
        for row in rows {
            let target = row.trim_end_matches('|').rsplit('|').next().unwrap();
            let names: Vec<&str> = target.split('`').skip(1).step_by(2).collect();
            assert!(names.iter().all(|n| !n.starts_with("exp_")), "retired binary in {row}");
            let campaigns: Vec<&str> = names.iter().filter_map(|n| n.strip_prefix("exp ")).collect();
            assert!(!campaigns.is_empty(), "no campaign in {row}");
            if let Some(c) = campaigns.iter().find(|&&c| CAMPAIGNS.iter().all(|k| k.name != c)) {
                panic!("`exp {c}` is not registered ({row})");
            }
        }
    }

    #[test]
    fn transfers_complete_for_all_stack_kinds() {
        // The smoke sweep runs every pairing (mono, sub, sub(shim)->mono,
        // mono->sub(shim)) and checks each delivers all its bytes.
        let r = transfer::report(true);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn lossier_links_are_slower() {
        use transfer::{standard_link, sub, sub_config, Pace, APP_PACE};
        let pace = Pace { patience: Dur::from_secs(180), ..APP_PACE };
        let run = |loss| {
            let (c, s) = (sub(A, sub_config("reno")), sub(B, sub_config("reno")));
            transfer::transfer(c, s, 100_000, standard_link(loss), 1, pace).report
        };
        let (clean, lossy) = (run(0), run(10));
        assert!(clean.complete() && lossy.complete() && clean.sim_us < lossy.sim_us);
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
        let (cx, delivered) = offload::crossings(20_000, 2, 3);
        assert_eq!(delivered, 20_000);
        assert!(cx.osr_to_rd_segments >= 20);
        assert_eq!(cx.osr_to_rd_bytes, 20_000);
        assert!(cx.signals_up > 0);
    }
}
