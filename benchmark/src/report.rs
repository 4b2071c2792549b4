//! The metric registry — every name, unit, direction and regression bound
//! the benchmark reports — and the code that prints results and checks them
//! against `BENCHMARK.json`. The registry is the source of the manifest:
//! `slbench --emit-manifest` writes the file's content from it.

use crate::workloads;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// How long one run measures, in seconds (`--seconds` when not given).
pub const RUN_SECONDS: u64 = 12;

/// What a user of the stacks sees. `failed_share` is not listed: it is 0 on
/// every workload, and a gated metric must never be 0 — every result carries
/// `attempted` and `failed` instead, and a failed op fails the run.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    // Timings on the shared two-core box move by up to 14 % between sets of
    // ten runs taken minutes apart (README, "Bounds"); a tighter bound would
    // fail the same commit against itself.
    e2e("sub.ops_per_s", "ops/s", Higher, 0.25),
    e2e("mono.ops_per_s", "ops/s", Higher, 0.25),
    e2e("sub.allocs_per_op", "count", Lower, 0.01),
    e2e("mono.allocs_per_op", "count", Lower, 0.01),
    e2e("sub.alloc_bytes_per_op", "bytes", Lower, 0.01),
    e2e("sub.conn_heap_bytes", "bytes", Lower, 0.01),
];

pub const PER_LAYER: &[Def] = &[
    // sublayer-core::stack, both endpoints
    layer("stack.on_frame_ns", "ns", Lower),
    layer("stack.poll_transmit_ns", "ns", Lower),
    layer("stack.poll_transmit_empty_share", "ratio", Lower),
    layer("stack.poll_deadline_ns", "ns", Lower),
    layer("stack.on_tick_ns", "ns", Lower),
    layer("stack.send_ns", "ns", Lower),
    layer("stack.recv_ns", "ns", Lower),
    layer("stack.seg_ns", "ns", Lower),
    layer("stack.segs_per_op", "count", Lower),
    layer("stack.allocs_per_seg", "count", Lower),
    layer("stack.wire_bytes_per_op", "bytes", Lower),
    layer("stack.retransmits_per_op", "count", Lower),
    layer("stack.sub_over_mono", "ratio", Lower),
    layer("stack.crossings_per_op", "count", Lower),
    layer("stack.osr_to_rd_per_op", "count", Lower),
    layer("stack.rd_to_osr_per_op", "count", Lower),
    layer("stack.signals_up_per_op", "count", Lower),
    layer("stack.glue_share", "ratio", Lower),
    layer("stack.unmuted_over_muted", "ratio", Lower),
    // tcp-mono
    layer("mono.on_frame_ns", "ns", Lower),
    layer("mono.poll_transmit_ns", "ns", Lower),
    layer("mono.poll_transmit_empty_share", "ratio", Lower),
    layer("mono.poll_deadline_ns", "ns", Lower),
    layer("mono.on_tick_ns", "ns", Lower),
    layer("mono.send_ns", "ns", Lower),
    layer("mono.recv_ns", "ns", Lower),
    layer("mono.seg_ns", "ns", Lower),
    layer("mono.segs_per_op", "count", Lower),
    layer("mono.allocs_per_seg", "count", Lower),
    layer("mono.wire_bytes_per_op", "bytes", Lower),
    layer("mono.retransmits_per_op", "count", Lower),
    layer("mono.alloc_bytes_per_op", "bytes", Lower),
    layer("mono.conn_heap_bytes", "bytes", Lower),
    layer("mono.unmuted_over_muted", "ratio", Lower),
    layer("mono.wire_decode_ns", "ns", Lower),
    layer("mono.wire_encode_ns", "ns", Lower),
    // the sublayers, via SubChain
    layer("wire.decode_ns", "ns", Lower),
    layer("wire.encode_ns", "ns", Lower),
    layer("wire.decode_allocs", "count", Lower),
    layer("wire.encode_allocs", "count", Lower),
    layer("dm.classify_ns", "ns", Lower),
    layer("dm.fill_tx_ns", "ns", Lower),
    layer("dm.bind_ns", "ns", Lower),
    layer("dm.unbind_ns", "ns", Lower),
    layer("cm.open_ns", "ns", Lower),
    layer("cm.on_packet_ns", "ns", Lower),
    layer("cm.poll_packet_ns", "ns", Lower),
    layer("cm.fill_tx_ns", "ns", Lower),
    layer("cm.take_events_ns", "ns", Lower),
    layer("cm.on_tick_ns", "ns", Lower),
    layer("rd.on_packet_ns", "ns", Lower),
    layer("rd.push_segment_ns", "ns", Lower),
    layer("rd.poll_packet_ns", "ns", Lower),
    layer("rd.fill_tx_ns", "ns", Lower),
    layer("rd.take_events_ns", "ns", Lower),
    layer("rd.take_signals_ns", "ns", Lower),
    layer("rd.on_tick_ns", "ns", Lower),
    layer("osr.write_ns", "ns", Lower),
    layer("osr.poll_segment_ns", "ns", Lower),
    layer("osr.on_delivered_ns", "ns", Lower),
    layer("osr.read_ns", "ns", Lower),
    layer("osr.on_header_ns", "ns", Lower),
    layer("osr.on_signals_ns", "ns", Lower),
    layer("osr.fill_tx_ns", "ns", Lower),
    layer("wire.share", "ratio", Lower),
    layer("dm.share", "ratio", Lower),
    layer("cm.share", "ratio", Lower),
    layer("rd.share", "ratio", Lower),
    layer("osr.share", "ratio", Lower),
    layer("chain.frames_match", "count", Higher),
    // slhost (0 on the two bare-stack workloads)
    layer("slhost.on_frame_ns", "ns", Lower),
    layer("slhost.poll_transmit_ns", "ns", Lower),
    layer("slhost.poll_transmit_empty_share", "ratio", Lower),
    layer("slhost.on_tick_ns", "ns", Lower),
    layer("slhost.poll_deadline_ns", "ns", Lower),
    layer("slhost.frames_in_per_op", "count", Lower),
    layer("slhost.frames_out_per_op", "count", Lower),
    layer("slhost.events_per_op", "count", Lower),
    layer("slhost.timer_fires_per_op", "count", Lower),
    layer("slhost.timer_touches_per_tick", "count", Lower),
    layer("slhost.lookup_misses", "count", Lower),
    layer("wheel.arm_ns", "ns", Lower),
    layer("wheel.cancel_ns", "ns", Lower),
    layer("wheel.advance_ns_per_fired", "ns", Lower),
    // the shim
    layer("shim.to_rfc793_ns", "ns", Lower),
    layer("shim.from_rfc793_ns", "ns", Lower),
    layer("shim.ops_per_s", "ops/s", Higher),
    // slshard
    layer("slshard.ring_same_thread_ns", "ns", Lower),
    layer("slshard.ring_rtt_ns", "ns", Lower),
    layer("slshard.merge_ns_per_item", "ns", Lower),
    // slmetrics
    layer("slmetrics.rec_muted_ns", "ns", Lower),
    layer("slmetrics.rec_unmuted_ns", "ns", Lower),
    // the benchmark itself
    layer("pipe.self_share", "ratio", Lower),
    layer("pipe.span_cost_ns", "ns", Lower),
    layer("pipe.trace_overhead", "ratio", Higher),
    layer("pipe.batch_p95_over_p50", "ratio", Lower),
    layer("pipe.op_us_p50", "us", Lower),
    layer("pipe.op_us_p99", "us", Lower),
];

/// The exact (machine-independent) metrics `--counts-only` prints.
pub const EXACT: &[&str] = &[
    "sub.allocs_per_op",
    "mono.allocs_per_op",
    "sub.alloc_bytes_per_op",
    "mono.alloc_bytes_per_op",
    "sub.conn_heap_bytes",
    "mono.conn_heap_bytes",
    "stack.segs_per_op",
    "mono.segs_per_op",
    "stack.crossings_per_op",
    "stack.retransmits_per_op",
    "mono.retransmits_per_op",
];

pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Named values in the order they were measured.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name`, which must be in the registry.
    pub fn put(&mut self, name: &str, value: f64) {
        let def = def(name).unwrap_or_else(|| panic!("{name} is not in the registry"));
        self.0.push((def.name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// `name value unit`, one metric a line.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for &(name, value) in &self.0 {
            let unit = def(name).map_or("", |d| d.unit);
            let _ = writeln!(out, "{name} {value} {unit}");
        }
        out
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`.
    pub fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|&(name, value)| {
                let unit = def(name).map_or("", |d| d.unit);
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// Every listed metric present exactly once with a finite value, and
    /// nothing else — the contract of one run's result.
    pub fn check_against(&self, listed: &[Def]) -> Result<(), String> {
        for d in listed {
            match self.0.iter().filter(|(n, _)| *n == d.name).count() {
                1 => {}
                0 => return Err(format!("metric {} was not measured", d.name)),
                _ => return Err(format!("metric {} was measured twice", d.name)),
            }
        }
        for &(name, value) in &self.0 {
            if !listed.iter().any(|d| d.name == name) {
                return Err(format!("metric {name} is not in this run's list"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
        }
        Ok(())
    }
}

/// The content of `BENCHMARK.json`, generated from the registry.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],"
    );
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(out, "  \"workloads\": [");
    let rows: Vec<String> = workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let _ = writeln!(out, "{}\n  ],", rows.join(",\n"));
    let better = |b| if b == Higher { "higher" } else { "lower" };
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                quote(d.name),
                quote(d.unit),
                better(d.better),
                d.bound
            )
        })
        .collect();
    let _ = writeln!(out, "  \"end_to_end\": [\n{}\n  ],", rows.join(",\n"));
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                quote(d.name),
                quote(d.unit),
                better(d.better)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]\n}}", rows.join(",\n"));
    out
}

/// Check that `BENCHMARK.json` (its text) is the registry's manifest. The
/// file is generated, so any difference — a metric renamed, missing or added,
/// a unit, direction or bound changed — is refused, naming the first line
/// that differs.
pub fn check_manifest(text: &str) -> Result<(), String> {
    let ours = manifest();
    if text == ours {
        return Ok(());
    }
    let (theirs, mine): (Vec<&str>, Vec<&str>) = (text.lines().collect(), ours.lines().collect());
    // Equal line for line means only the line endings differ: still refused.
    let line = (0..theirs.len().max(mine.len()))
        .find(|&i| theirs.get(i) != mine.get(i))
        .unwrap_or(0);
    let (theirs, mine) = (
        theirs.get(line).copied().unwrap_or("<end of file>"),
        mine.get(line).copied().unwrap_or("<end of file>"),
    );
    let line = line + 1;
    Err(format!(
        "BENCHMARK.json differs from the benchmark's registry at line {line}: \
         the file has `{}`, the registry `{}`; regenerate it with --emit-manifest",
        theirs.trim(),
        mine.trim()
    ))
}

/// Quote `s` as a JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
