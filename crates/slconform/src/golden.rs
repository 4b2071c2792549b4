//! Golden-trace snapshots.
//!
//! Every corpus scenario has a checked-in rendering of both stacks'
//! normalized traces at seed 1 under `crates/slconform/golden/`. The
//! snapshot test compares fresh runs against these files; intentional
//! behavior changes are blessed with `BLESS=1 cargo test -p slconform
//! --test golden`, and CI fails if a regeneration changes the files
//! without the commit touching them.
//!
//! Long transfers are capped at [`MAX_FRAMES`] rendered lines; the tail
//! is pinned by a frame count and an FNV-1a digest, so a behavioral
//! change anywhere in the trace still shows up without checking in
//! megabytes of text.

use crate::absseg::AbsSeg;
use crate::driver::{run_kind, Mutation, RunOut};
use crate::wire::Kind;
use crate::scenario::{Scenario, Side};
use netsim::TapDir;
use std::path::PathBuf;

/// Frames rendered verbatim before switching to the digest line.
pub const MAX_FRAMES: usize = 120;

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn seg_line(s: &AbsSeg) -> String {
    let dir = match s.dir {
        TapDir::Rx => "rx",
        TapDir::Tx => "tx",
    };
    let ack = if s.ack { s.rel_ack.to_string() } else { "-".to_string() };
    format!(
        "{:>12} {dir} {:<12} seq={} len={} ack={ack} wnd={}{}",
        s.at_ns,
        s.flags_label(),
        s.rel_seq,
        s.len,
        s.wnd,
        if s.rel_known { "" } else { " raw" },
    )
}

/// Render one run (both endpoints) into snapshot text.
pub fn render_run(run: &RunOut) -> String {
    let mut out = String::new();
    for (side, ep) in [(Side::Client, &run.client), (Side::Server, &run.server)] {
        out.push_str(&format!("[{} {}]\n", run.kind.label(), side.label()));
        out.push_str(&format!(
            "outcome est={} closed={} peer_closed={} err={:?} delivered={} queued={}\n",
            ep.obs.established,
            ep.obs.closed,
            ep.obs.peer_closed,
            ep.obs.error,
            ep.delivered.len(),
            ep.queued.len(),
        ));
        for s in ep.abs.iter().take(MAX_FRAMES) {
            out.push_str(&seg_line(s));
            out.push('\n');
        }
        if ep.abs.len() > MAX_FRAMES {
            let rest: String =
                ep.abs[MAX_FRAMES..].iter().map(|s| seg_line(s) + "\n").collect();
            out.push_str(&format!(
                "... {} more frames, fnv1a={:016x}\n",
                ep.abs.len() - MAX_FRAMES,
                fnv1a(rest.as_bytes()),
            ));
        }
    }
    out
}

/// Snapshot of one scenario: both kinds at seed 1.
pub fn render_scenario(sc: &Scenario) -> String {
    let mut out = format!("# golden conformance trace: {} (seed 1)\n", sc.name);
    for kind in [Kind::Sub, Kind::Mono] {
        out.push_str(&render_run(&run_kind(kind, sc, 1, Mutation::None)));
    }
    out
}

/// Where a scenario's golden file lives.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("{name}.txt"))
}

/// Compare (or, with `BLESS=1`, rewrite) a scenario's snapshot. Returns
/// an error string on mismatch.
pub fn check_golden(sc: &Scenario) -> Result<(), String> {
    let rendered = render_scenario(sc);
    let path = golden_path(sc.name);
    if std::env::var("BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).map_err(|e| e.to_string())?;
        std::fs::write(&path, rendered).map_err(|e| e.to_string())?;
        return Ok(());
    }
    let want = std::fs::read_to_string(&path)
        .map_err(|_| format!("{} missing — run with BLESS=1 to create it", path.display()))?;
    if want != rendered {
        // Point at the first differing line, not a wall of text.
        let (mut line_no, mut got_l, mut want_l) = (0usize, "", "");
        for (i, (g, w)) in rendered.lines().zip(want.lines()).enumerate() {
            if g != w {
                (line_no, got_l, want_l) = (i + 1, g, w);
                break;
            }
        }
        if line_no == 0 {
            line_no = rendered.lines().count().min(want.lines().count()) + 1;
        }
        return Err(format!(
            "{} diverges from golden at line {line_no}:\n  golden: {want_l}\n  run:    {got_l}\n\
             (re-bless with BLESS=1 if this change is intentional)",
            sc.name
        ));
    }
    Ok(())
}
