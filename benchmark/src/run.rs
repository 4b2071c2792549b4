//! What one invocation measures on one workload: the end-to-end run
//! (untraced, timed), the per-layer run (traced, plus the arms and
//! micro-benchmarks that isolate single layers) and the counts-only run
//! (just the numbers that repeat bit for bit).

use crate::alloc::Counts;
use crate::arm::{build, Arm, Batch, Kind, Logs, Mode};
use crate::micro;
use crate::report::Metrics;
use crate::stats::{median, quantile};
use crate::trace::{self, Name, Recording, SpanCost};
use crate::workloads::Spec;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Connections the connection-heap probe adds.
const PROBE_CONNS: usize = 256;
/// Set-ups per end-to-end run, at least; `setup_s` is the fastest.
const SETUPS: usize = 3;
/// Short set-ups are repeated up to this many times, while together they
/// stay under [`SETUP_BUDGET`]: a 0.1 s set-up is easier to disturb.
const MAX_SETUPS: usize = 7;
const SETUP_BUDGET: f64 = 2.0;
/// Batches per arm where the count is fixed: traced arms, and every arm of a
/// smoke run.
const FEW: usize = 3;
/// The shim, un-muted and SubChain arms run batches this many times smaller.
const REDUCED: u64 = 4;
/// Raw spans kept per traced arm (the first ops' worth); the aggregates
/// cover every span regardless.
const RAW_SPANS: usize = 100_000;
/// Raw spans cover at most this many ops per arm.
const RAW_OPS: u64 = 1_000;
/// Frames recorded for the codec micro-benchmarks.
const TAP_FRAMES: usize = 4_096;

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Shrunk workloads, [`FEW`] batches per arm.
    pub smoke: bool,
}

/// One run's result.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Sample counts and other context, printed as `# …` lines.
    pub notes: Vec<String>,
}

impl Outcome {
    fn note_batch(&mut self, b: &Batch) {
        self.attempted += b.ops + b.failed;
        self.failed += b.failed;
    }

    /// Count the ops an arm ran during set-up (its warm-up).
    fn note_setup(&mut self, arm: &dyn Arm) {
        let p = arm.snapshot().progress;
        self.attempted += p.done + p.failed;
        self.failed += p.failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

struct Pair {
    mono: Box<dyn Arm>,
    sub: Box<dyn Arm>,
    setup: Duration,
}

fn build_pair(spec: &Spec, seed: u64, out: &mut Outcome) -> Pair {
    let t0 = Instant::now();
    let mono = build(Kind::Mono, spec, seed, Logs::Muted);
    let sub = build(Kind::Sub, spec, seed, Logs::Muted);
    let setup = t0.elapsed();
    out.note_setup(mono.as_ref());
    out.note_setup(sub.as_ref());
    Pair { mono, sub, setup }
}

fn per_op(total: u64, b: &Batch) -> f64 {
    total as f64 / b.ops.max(1) as f64
}

/// One counted batch per arm at a fixed point — right after warm-up — so
/// that what it counts depends on the seed alone.
struct Counted {
    mono: Batch,
    sub: Batch,
}

fn counted(spec: &Spec, pair: &mut Pair, out: &mut Outcome) -> Counted {
    let mono = pair.mono.batch(spec.count_ops, Mode::Counted);
    let sub = pair.sub.batch(spec.count_ops, Mode::Counted);
    out.note_batch(&mono);
    out.note_batch(&sub);
    Counted { mono, sub }
}

fn heap_per_conn(c: Counts) -> f64 {
    c.live as f64 / PROBE_CONNS as f64
}

fn crossing_events(b: &Batch) -> u64 {
    b.crossings.map_or(0, |c| c.events())
}

/// `--counts-only`: the machine-independent section.
pub fn counts_only(spec: &Spec, opt: &Options) -> Outcome {
    let mut out = Outcome::default();
    // As in the end-to-end run: probe a pair of its own, count a fresh one.
    let mut probe = build_pair(spec, opt.seed, &mut out);
    let (sub_heap, mono_heap) = (
        probe.sub.probe_conn_heap(PROBE_CONNS),
        probe.mono.probe_conn_heap(PROBE_CONNS),
    );
    drop(probe);
    let mut pair = build_pair(spec, opt.seed, &mut out);
    let x = counted(spec, &mut pair, &mut out);
    let m = &mut out.metrics;
    m.put("sub.allocs_per_op", per_op(x.sub.allocs.allocs, &x.sub));
    m.put("mono.allocs_per_op", per_op(x.mono.allocs.allocs, &x.mono));
    m.put("sub.alloc_bytes_per_op", per_op(x.sub.allocs.bytes, &x.sub));
    m.put(
        "mono.alloc_bytes_per_op",
        per_op(x.mono.allocs.bytes, &x.mono),
    );
    m.put("sub.conn_heap_bytes", heap_per_conn(sub_heap));
    m.put("mono.conn_heap_bytes", heap_per_conn(mono_heap));
    m.put("stack.segs_per_op", per_op(x.sub.traffic.frames, &x.sub));
    m.put("mono.segs_per_op", per_op(x.mono.traffic.frames, &x.mono));
    m.put(
        "stack.crossings_per_op",
        per_op(crossing_events(&x.sub), &x.sub),
    );
    m.put(
        "stack.retransmits_per_op",
        per_op(x.sub.retransmits, &x.sub),
    );
    m.put(
        "mono.retransmits_per_op",
        per_op(x.mono.retransmits, &x.mono),
    );
    out
}

/// Alternate timed batches — mono, sub, mono, … — so that machine drift hits
/// both arms, until `budget` has passed ([`FEW`] pairs in a smoke run).
fn alternate(
    pair: &mut Pair,
    ops: u64,
    budget: Duration,
    smoke: bool,
    out: &mut Outcome,
) -> (Vec<Batch>, Vec<Batch>) {
    let (mut mono, mut sub) = (Vec::with_capacity(64), Vec::with_capacity(64));
    let t0 = Instant::now();
    loop {
        let m = pair.mono.batch(ops, Mode::Timed);
        let s = pair.sub.batch(ops, Mode::Timed);
        out.note_batch(&m);
        out.note_batch(&s);
        mono.push(m);
        sub.push(s);
        let enough = if smoke {
            mono.len() >= FEW
        } else {
            t0.elapsed() >= budget
        };
        if enough || out.failed > 0 {
            return (mono, sub);
        }
    }
}

fn rates(batches: &[Batch]) -> Vec<f64> {
    batches
        .iter()
        .filter(|b| b.ops > 0)
        .map(Batch::ops_per_s)
        .collect()
}

fn median_rate(batches: &[Batch]) -> f64 {
    median(&rates(batches)).unwrap_or(0.0)
}

/// The rate every `*.ops_per_s` reports: that of the fastest batch. Whatever
/// else runs on the box only ever slows a batch down, by a third for seconds
/// at a time on the box this was written on, so the median batch says as much
/// about the neighbours as about the stacks — between runs it moved by 10 %
/// where the fastest of some fifty batches moved by 2 %.
fn best_rate(batches: &[Batch]) -> f64 {
    rates(batches).into_iter().fold(0.0, f64::max)
}

/// The batch [`best_rate`] is the rate of.
fn best(batches: &[Batch]) -> Option<&Batch> {
    batches
        .iter()
        .filter(|b| b.ops > 0)
        .max_by(|a, b| a.ops_per_s().total_cmp(&b.ops_per_s()))
}

/// The end-to-end run: set up [`SETUPS`] times, count once, then time.
pub fn end_to_end(spec: &Spec, opt: &Options) -> Outcome {
    let mut out = Outcome::default();
    // The first set-up's worlds take the connection-heap probe — at a fixed
    // point, and it leaves them stalled — the last one's are measured; each
    // set-up is timed the same way.
    let mut probe = build_pair(spec, opt.seed, &mut out);
    let mut setups = vec![probe.setup.as_secs_f64()];
    let sub_heap = probe.sub.probe_conn_heap(PROBE_CONNS);
    drop(probe);
    let mut pair = build_pair(spec, opt.seed, &mut out);
    setups.push(pair.setup.as_secs_f64());
    while !opt.smoke
        && (setups.len() < SETUPS
            || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET))
    {
        pair = build_pair(spec, opt.seed, &mut out);
        setups.push(pair.setup.as_secs_f64());
    }
    let x = counted(spec, &mut pair, &mut out);
    let budget = Duration::from_secs_f64(opt.seconds);
    let (mono, sub) = alternate(&mut pair, spec.batch_ops, budget, opt.smoke, &mut out);

    let m = &mut out.metrics;
    // The fastest, for the reason `best_rate` gives.
    m.put(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    m.put("sub.ops_per_s", best_rate(&sub));
    m.put("mono.ops_per_s", best_rate(&mono));
    m.put("sub.allocs_per_op", per_op(x.sub.allocs.allocs, &x.sub));
    m.put("mono.allocs_per_op", per_op(x.mono.allocs.allocs, &x.mono));
    m.put("sub.alloc_bytes_per_op", per_op(x.sub.allocs.bytes, &x.sub));
    m.put("sub.conn_heap_bytes", heap_per_conn(sub_heap));
    out.notes.push(format!(
        "setups {} median_setup_s {:.4} timed_batches_per_arm {} ops_per_batch {} \
         sub_over_mono {:.4} median_batch_ops_per_s sub {:.1} mono {:.1}",
        setups.len(),
        median(&setups).unwrap_or(0.0),
        sub.len(),
        spec.batch_ops,
        best_rate(&mono) / best_rate(&sub),
        median_rate(&sub),
        median_rate(&mono),
    ));
    out
}

/// What a span costs in `rec`'s arm. The spans themselves calibrate it: the
/// cheapest call recorded often enough — the empty span the driver adds once
/// per turn, or a getter that returns at once, such as `poll_packet` on an
/// empty queue — does nothing the clock can resolve, so its duration *is* the
/// span's cost, under the very conditions (hot loop or cold call, quiet box or
/// noisy) the other spans met. The start-up calibration supplies the part
/// outside the clock reads, and everything when the arm recorded too little.
fn cost_in(rec: &Recording, startup: SpanCost) -> SpanCost {
    const ENOUGH: u64 = 1_000;
    let often = || rec.aggs.iter().filter(|a| a.calls >= ENOUGH);
    let p50 = often()
        .filter_map(|a| a.durations.quantile(0.5))
        .fold(f64::INFINITY, f64::min);
    let mean = often()
        .map(|a| a.total_ns as f64 / a.calls as f64)
        .fold(f64::INFINITY, f64::min);
    if p50.is_finite() && mean.is_finite() {
        SpanCost {
            inside_ns: p50,
            inside_mean_ns: mean,
            ..startup
        }
    } else {
        startup
    }
}

/// Per-call time of `name` in `rec`: the median span, less what the span
/// itself costs. A name that was never called reads 0; one called too rarely
/// to take part in the calibration can read a nanosecond or two below it.
fn call_ns(rec: &Recording, name: Name, cost: SpanCost) -> f64 {
    rec.agg(name)
        .durations
        .quantile(0.5)
        .map_or(0.0, |p50| p50 - cost.inside_ns)
}

fn empty_share(rec: &Recording, name: Name) -> f64 {
    let a = rec.agg(name);
    if a.calls == 0 {
        0.0
    } else {
        a.empty as f64 / a.calls as f64
    }
}

/// Time spent inside spans of the given names and not inside their child
/// spans, corrected for what the spans themselves and their children's
/// bookkeeping cost. Floored at 0: a sublayer whose calls are all faster than
/// the clock resolves has no measurable share.
fn self_time_ns(rec: &Recording, names: impl Iterator<Item = Name>, cost: SpanCost) -> f64 {
    names
        .map(|n| {
            let a = rec.agg(n);
            a.self_ns as f64
                - a.calls as f64 * cost.inside_mean_ns
                - a.children as f64 * cost.outside_ns
        })
        .sum::<f64>()
        .max(0.0)
}

/// What one arm's traced batches gave.
struct TracedRun {
    /// The full-size batches (the head that raw spans cover is not one).
    batches: Vec<Batch>,
    /// Ops the recording covers, head included.
    ops: u64,
    rec: Recording,
}

/// Run a head of at most [`RAW_OPS`] ops with raw spans on, then `batches`
/// traced batches of `ops` ops with only the aggregates, and take the
/// recording — everything since the caller's `trace::reset`.
fn traced(arm: &mut dyn Arm, ops: u64, batches: usize, out: &mut Outcome) -> TracedRun {
    let head = arm.batch(ops.min(RAW_OPS), Mode::Traced);
    trace::stop_raw();
    out.note_batch(&head);
    let batches: Vec<Batch> = (0..batches)
        .map(|_| {
            let b = arm.batch(ops, Mode::Traced);
            out.note_batch(&b);
            b
        })
        .collect();
    TracedRun {
        ops: head.ops + total_ops(&batches),
        batches,
        rec: trace::take(),
    }
}

fn total_ops(batches: &[Batch]) -> u64 {
    batches.iter().map(|b| b.ops).sum()
}

const DRIVER_NAMES: [Name; 12] = [
    Name::OnFrame,
    Name::PollTransmit,
    Name::PollDeadline,
    Name::OnTick,
    Name::Connect,
    Name::Send,
    Name::Recv,
    Name::Close,
    Name::HostOnFrame,
    Name::HostPollTransmit,
    Name::HostPollDeadline,
    Name::HostOnTick,
];

/// The `stack.*` or `mono.*` metrics (`prefix` says which) that one arm's
/// traced and counted batches give.
fn arm_metrics(
    m: &mut Metrics,
    prefix: &str,
    rec: &Recording,
    timed: &[Batch],
    count: &Batch,
    cost: SpanCost,
) {
    let cost = cost_in(rec, cost);
    let (wall, frames) =
        best(timed).map_or((0.0, 0), |b| (b.wall.as_nanos() as f64, b.traffic.frames));
    for (suffix, value) in [
        ("on_frame_ns", call_ns(rec, Name::OnFrame, cost)),
        ("poll_transmit_ns", call_ns(rec, Name::PollTransmit, cost)),
        (
            "poll_transmit_empty_share",
            empty_share(rec, Name::PollTransmit),
        ),
        ("poll_deadline_ns", call_ns(rec, Name::PollDeadline, cost)),
        ("on_tick_ns", call_ns(rec, Name::OnTick, cost)),
        ("send_ns", call_ns(rec, Name::Send, cost)),
        ("recv_ns", call_ns(rec, Name::Recv, cost)),
        ("seg_ns", wall / frames.max(1) as f64),
        ("segs_per_op", per_op(count.traffic.frames, count)),
        (
            "allocs_per_seg",
            count.allocs.allocs as f64 / count.traffic.frames.max(1) as f64,
        ),
        ("wire_bytes_per_op", per_op(count.traffic.wire_bytes, count)),
        ("retransmits_per_op", per_op(count.retransmits, count)),
    ] {
        m.put(&format!("{prefix}.{suffix}"), value);
    }
}

/// Three timed batches of a secondary arm; the rate of the fastest.
fn few_timed(arm: &mut dyn Arm, ops: u64, out: &mut Outcome) -> f64 {
    let batches: Vec<Batch> = (0..FEW)
        .map(|_| {
            let b = arm.batch(ops, Mode::Timed);
            out.note_batch(&b);
            b
        })
        .collect();
    best_rate(&batches)
}

/// The per-layer run. Writes the span file to `trace_path` when given.
pub fn per_layer(spec: &Spec, opt: &Options, trace_path: Option<&Path>) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let cost = trace::calibrate(200);
    let reduced = (spec.batch_ops / REDUCED).max(1);

    let mut pair = build_pair(spec, opt.seed, &mut out);
    let sub_frames_after_setup = pair.sub.snapshot().traffic.frames;
    let x = counted(spec, &mut pair, &mut out);

    // Untraced reference batches: what the traced ones are compared with.
    pair.sub.record_latency();
    let budget = Duration::from_secs_f64(opt.seconds / 3.0);
    let (mono_ref, sub_ref) = alternate(&mut pair, spec.batch_ops, budget, opt.smoke, &mut out);
    let latency = pair.sub.take_latency().unwrap_or_default();

    trace::reset(RAW_SPANS);
    let mono_traced = traced(pair.mono.as_mut(), spec.batch_ops, FEW, &mut out);
    pair.sub.tap(TAP_FRAMES);
    trace::reset(RAW_SPANS);
    let sub_traced = traced(pair.sub.as_mut(), spec.batch_ops, FEW, &mut out);
    let frames = pair.sub.take_tap();
    // Last, because the probe leaves its arm stalled.
    let mono_heap = pair.mono.probe_conn_heap(PROBE_CONNS);
    drop(pair);

    // SubChain on the same script: where inside the stack the time goes.
    // Recorded from construction, so that the handshakes' binds and opens
    // are in it on the workloads that never open a connection afterwards.
    trace::reset(RAW_SPANS);
    let mut chain_arm = build(Kind::Chain, spec, opt.seed, Logs::Muted);
    out.note_setup(chain_arm.as_ref());
    let frames_match = chain_arm.snapshot().traffic.frames == sub_frames_after_setup;
    let mut chain = traced(chain_arm.as_mut(), reduced, 1, &mut out);
    chain.ops = chain_arm.snapshot().progress.done;
    drop(chain_arm);

    // The shim's interop tax and the access log's instrumentation tax.
    let mut shim = build(Kind::Shim, spec, opt.seed, Logs::Muted);
    out.note_setup(shim.as_ref());
    let shim_rate = few_timed(shim.as_mut(), reduced, &mut out);
    drop(shim);
    let mut loud_sub = build(Kind::Sub, spec, opt.seed, Logs::Unmuted);
    out.note_setup(loud_sub.as_ref());
    let loud_sub_rate = few_timed(loud_sub.as_mut(), reduced, &mut out);
    drop(loud_sub);
    let mut loud_mono = build(Kind::Mono, spec, opt.seed, Logs::Unmuted);
    out.note_setup(loud_mono.as_ref());
    let loud_mono_rate = few_timed(loud_mono.as_mut(), reduced, &mut out);
    drop(loud_mono);

    let codec = micro::codec(&frames);
    let wheel = micro::wheel(opt.seed);
    let shard = micro::shard();
    let log = micro::metrics();

    let (sub_rate, mono_rate) = (best_rate(&sub_ref), best_rate(&mono_ref));
    let m = &mut out.metrics;
    arm_metrics(m, "stack", &sub_traced.rec, &sub_ref, &x.sub, cost);
    m.put("stack.sub_over_mono", mono_rate / sub_rate);
    m.put(
        "stack.crossings_per_op",
        per_op(crossing_events(&x.sub), &x.sub),
    );
    let c = x.sub.crossings.unwrap_or_default();
    m.put("stack.osr_to_rd_per_op", per_op(c.osr_to_rd, &x.sub));
    m.put("stack.rd_to_osr_per_op", per_op(c.rd_to_osr, &x.sub));
    m.put("stack.signals_up_per_op", per_op(c.signals_up, &x.sub));

    // Where the time inside the program goes, all from the chain arm's own
    // recording: each sublayer's self time, and the self time of the calls
    // that contain them — SubChain's glue, and `slhost` with its app on the
    // host workloads.
    let chain_ops = chain.ops.max(1) as f64;
    let chain_cost = cost_in(&chain.rec, cost);
    let glue = self_time_ns(&chain.rec, DRIVER_NAMES.into_iter(), chain_cost);
    let layers: Vec<(&str, f64)> = trace::SUBLAYERS
        .iter()
        .map(|&layer| {
            let names = Name::ALL
                .iter()
                .copied()
                .filter(|n| n.sublayer() == Some(layer));
            (layer, self_time_ns(&chain.rec, names, chain_cost))
        })
        .collect();
    let in_calls = glue + layers.iter().map(|&(_, ns)| ns).sum::<f64>();
    m.put("stack.glue_share", glue / in_calls);
    m.put("stack.unmuted_over_muted", sub_rate / loud_sub_rate);

    arm_metrics(m, "mono", &mono_traced.rec, &mono_ref, &x.mono, cost);
    m.put(
        "mono.alloc_bytes_per_op",
        per_op(x.mono.allocs.bytes, &x.mono),
    );
    m.put("mono.conn_heap_bytes", heap_per_conn(mono_heap));
    m.put("mono.unmuted_over_muted", mono_rate / loud_mono_rate);
    m.put("mono.wire_decode_ns", codec.mono_decode_ns);
    m.put("mono.wire_encode_ns", codec.mono_encode_ns);

    // One `<sublayer>.<function>_ns` per SubChain span name; the `.other`
    // names (calls the issue lists no metric for) only count towards shares.
    for &name in Name::ALL {
        if name.sublayer().is_some() && !name.text().ends_with(".other") {
            let ns = call_ns(&chain.rec, name, chain_cost);
            m.put(&format!("{}_ns", name.text()), ns);
        }
    }
    m.put("wire.decode_allocs", codec.wire_decode_allocs);
    m.put("wire.encode_allocs", codec.wire_encode_allocs);
    for (layer, ns) in layers {
        m.put(&format!("{layer}.share"), ns / in_calls);
    }
    m.put("chain.frames_match", frames_match as u8 as f64);

    let host = x.sub.host.unwrap_or_default();
    let cost = cost_in(&sub_traced.rec, cost);
    m.put(
        "slhost.on_frame_ns",
        call_ns(&sub_traced.rec, Name::HostOnFrame, cost),
    );
    m.put(
        "slhost.poll_transmit_ns",
        call_ns(&sub_traced.rec, Name::HostPollTransmit, cost),
    );
    m.put(
        "slhost.poll_transmit_empty_share",
        empty_share(&sub_traced.rec, Name::HostPollTransmit),
    );
    m.put(
        "slhost.on_tick_ns",
        call_ns(&sub_traced.rec, Name::HostOnTick, cost),
    );
    m.put(
        "slhost.poll_deadline_ns",
        call_ns(&sub_traced.rec, Name::HostPollDeadline, cost),
    );
    m.put("slhost.frames_in_per_op", per_op(host.frames_in, &x.sub));
    m.put("slhost.frames_out_per_op", per_op(host.frames_out, &x.sub));
    m.put(
        "slhost.events_per_op",
        per_op(host.events_dispatched, &x.sub),
    );
    m.put(
        "slhost.timer_fires_per_op",
        per_op(host.timer_fires, &x.sub),
    );
    m.put(
        "slhost.timer_touches_per_tick",
        host.timer_touches as f64 / host.ticks.max(1) as f64,
    );
    m.put("slhost.lookup_misses", host.lookup_misses as f64);
    m.put("wheel.arm_ns", wheel.arm_ns);
    m.put("wheel.cancel_ns", wheel.cancel_ns);
    m.put("wheel.advance_ns_per_fired", wheel.advance_ns_per_fired);
    m.put("shim.to_rfc793_ns", codec.to_rfc793_ns);
    m.put("shim.from_rfc793_ns", codec.from_rfc793_ns);
    m.put("shim.ops_per_s", shim_rate);
    m.put("slshard.ring_same_thread_ns", shard.ring_same_thread_ns);
    m.put("slshard.ring_rtt_ns", shard.ring_rtt_ns);
    m.put("slshard.merge_ns_per_item", shard.merge_ns_per_item);
    m.put("slmetrics.rec_muted_ns", log.rec_muted_ns);
    m.put("slmetrics.rec_unmuted_ns", log.rec_unmuted_ns);

    // The traced sub arm's wall time, less what its spans cost, splits into
    // time inside calls into the program and the driver's own.
    let rec = &sub_traced.rec;
    let wall = rec.wall_ns as f64 - rec.spans() as f64 * (cost.inside_mean_ns + cost.outside_ns);
    let in_calls = self_time_ns(rec, DRIVER_NAMES.into_iter(), cost);
    m.put("pipe.self_share", 1.0 - in_calls / wall);
    m.put("pipe.span_cost_ns", cost.inside_ns);
    m.put(
        "pipe.trace_overhead",
        best_rate(&sub_traced.batches) / sub_rate,
    );
    let walls: Vec<f64> = sub_ref.iter().map(|b| b.wall.as_secs_f64()).collect();
    let (p50, p95) = (
        median(&walls).unwrap_or(0.0),
        quantile(&walls, 0.95).unwrap_or(0.0),
    );
    m.put("pipe.batch_p95_over_p50", p95 / p50);
    m.put("pipe.op_us_p50", latency.quantile(0.5).unwrap_or(0.0) / 1e3);
    m.put(
        "pipe.op_us_p99",
        latency.quantile(0.99).unwrap_or(0.0) / 1e3,
    );

    out.notes.push(format!(
        "reference_batches_per_arm {} traced_batches_per_arm {} op_latency_samples {} \
         chain_ops {} chain_spans_per_op {:.0} reduced_ops_per_batch {} span_outside_ns {:.1} \
         tapped_frames {}",
        sub_ref.len(),
        FEW,
        latency.count(),
        chain_ops,
        chain.rec.spans() as f64 / chain_ops,
        reduced,
        cost.outside_ns,
        frames.len(),
    ));

    if let Some(path) = trace_path {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = BufWriter::new(File::create(path)?);
        let prefixed = |prefix: &'static str| {
            move |n: Name| match n.text().split_once('.') {
                Some(_) => n.text().to_string(),
                None => format!("{prefix}.{}", n.text()),
            }
        };
        trace::write_jsonl(
            &mut file,
            "sub",
            sub_traced.ops,
            &sub_traced.rec,
            prefixed("stack"),
        )?;
        trace::write_jsonl(
            &mut file,
            "mono",
            mono_traced.ops,
            &mono_traced.rec,
            prefixed("mono"),
        )?;
        trace::write_jsonl(&mut file, "chain", chain.ops, &chain.rec, prefixed("stack"))?;
        file.flush()?;
    }
    Ok(out)
}
