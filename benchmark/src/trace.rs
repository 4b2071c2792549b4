//! Spans around the calls the benchmark makes into each layer's public
//! functions. Nothing inside the product crates is instrumented: the driver
//! wraps `Stack`/`HostStack`/`MultiStack` calls, and [`crate::chain`] wraps
//! each sublayer call of its own copy of the glue.
//!
//! A traced arm keeps per-name aggregates (calls, total and self time, a
//! duration histogram) for the whole run and the raw spans of its first ops
//! in a buffer reserved up front; [`write_jsonl`] writes both when the run
//! ends. Self time is a span's duration minus the time its child spans cover.

use crate::stats::Hist;
use std::cell::RefCell;
use std::io::{self, Write};
use std::time::Instant;

macro_rules! names {
    ($($variant:ident => $text:literal,)*) => {
        /// One span name per public function the benchmark calls.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Name { $($variant,)* }

        impl Name {
            pub const ALL: &'static [Name] = &[$(Name::$variant,)*];

            /// The name without its layer prefix; the driver-level names
            /// (`on_frame`, …) get `stack.`, `mono.` or `slhost.` from the
            /// arm that recorded them.
            pub fn text(self) -> &'static str {
                match self { $(Name::$variant => $text,)* }
            }
        }
    };
}

names! {
    // Bare endpoints (`netsim::Stack` + the `HostStack` app calls).
    OnFrame => "on_frame",
    PollTransmit => "poll_transmit",
    PollDeadline => "poll_deadline",
    OnTick => "on_tick",
    Connect => "connect",
    Send => "send",
    Recv => "recv",
    Close => "close",
    // The served host (`netsim::MultiStack` on `ServedHost`).
    HostOnFrame => "slhost.on_frame",
    HostPollTransmit => "slhost.poll_transmit",
    HostPollDeadline => "slhost.poll_deadline",
    HostOnTick => "slhost.on_tick",
    // SubChain: one name per sublayer call.
    WireDecode => "wire.decode",
    WireEncode => "wire.encode",
    DmClassify => "dm.classify",
    DmFillTx => "dm.fill_tx",
    DmBind => "dm.bind",
    DmUnbind => "dm.unbind",
    CmOpen => "cm.open",
    CmOnPacket => "cm.on_packet",
    CmPollPacket => "cm.poll_packet",
    CmFillTx => "cm.fill_tx",
    CmTakeEvents => "cm.take_events",
    CmOnTick => "cm.on_tick",
    CmOther => "cm.other",
    RdOnPacket => "rd.on_packet",
    RdPushSegment => "rd.push_segment",
    RdPollPacket => "rd.poll_packet",
    RdFillTx => "rd.fill_tx",
    RdTakeEvents => "rd.take_events",
    RdTakeSignals => "rd.take_signals",
    RdOnTick => "rd.on_tick",
    RdOther => "rd.other",
    OsrWrite => "osr.write",
    OsrPollSegment => "osr.poll_segment",
    OsrOnDelivered => "osr.on_delivered",
    OsrRead => "osr.read",
    OsrOnHeader => "osr.on_header",
    OsrOnSignals => "osr.on_signals",
    OsrFillTx => "osr.fill_tx",
    OsrOther => "osr.other",
    // Calibration only: an empty span, and the span that holds a run of them.
    Empty => "pipe.empty_span",
    EmptyParent => "pipe.empty_parent",
}

/// The sublayers SubChain's spans are grouped into: the prefixes of its names.
pub const SUBLAYERS: [&str; 5] = ["wire", "dm", "cm", "rd", "osr"];

impl Name {
    /// The sublayer a SubChain span belongs to (`wire`, `dm`, …), `None`
    /// for driver-level and calibration names.
    pub fn sublayer(self) -> Option<&'static str> {
        let text = self.text();
        SUBLAYERS.into_iter().find(|layer| {
            text.strip_prefix(layer)
                .is_some_and(|rest| rest.starts_with('.'))
        })
    }
}

/// "No op": the span was not made on behalf of one request.
pub const NO_OP: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was reset.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    /// Index of the enclosing span in the raw buffer, or `u32::MAX`.
    pub parent: u32,
    /// The request this call served, or [`NO_OP`].
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything recorded under one name.
#[derive(Clone, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Direct child spans, for correcting self time by their bookkeeping.
    pub children: u64,
    /// Calls that returned nothing (`poll_transmit` → `None`): wasted scans.
    pub empty: u64,
    pub durations: Hist,
}

struct Open {
    name: Name,
    start: Instant,
    child_ns: u64,
    children: u64,
    raw_index: u32,
}

pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    aggs: Vec<Agg>,
    raw: Vec<Span>,
    raw_on: bool,
    op: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            open: Vec::with_capacity(16),
            aggs: Name::ALL.iter().map(|_| Agg::default()).collect(),
            raw: Vec::new(),
            raw_on: false,
            op: NO_OP,
        }
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Start a fresh recording with room for `raw_capacity` raw spans. Raw
/// recording stops when the buffer is full or [`stop_raw`] is called;
/// aggregates keep going.
pub fn reset(raw_capacity: usize) {
    TRACER.with_borrow_mut(|t| {
        *t = Tracer::new();
        t.raw = Vec::with_capacity(raw_capacity);
        t.raw_on = raw_capacity > 0;
    });
}

/// Stop keeping raw spans (the arm has passed its first ops).
pub fn stop_raw() {
    TRACER.with_borrow_mut(|t| t.raw_on = false);
}

/// Name the request the following calls serve.
pub fn set_op(op: u32) {
    TRACER.with_borrow_mut(|t| t.op = op);
}

fn enter(name: Name) {
    TRACER.with_borrow_mut(|t| {
        let raw_index = if t.raw_on && t.raw.len() < t.raw.capacity() {
            let parent = t.open.last().map_or(NO_PARENT, |o| o.raw_index);
            t.raw.push(Span {
                name,
                parent,
                op: t.op,
                start_ns: 0,
                end_ns: 0,
            });
            (t.raw.len() - 1) as u32
        } else {
            NO_PARENT
        };
        // The clock is read last on the way in and first on the way out, so
        // the bookkeeping above lands outside the span.
        t.open.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
            children: 0,
            raw_index,
        });
    });
}

fn exit(empty: bool) {
    let end = Instant::now();
    TRACER.with_borrow_mut(|t| {
        let Some(o) = t.open.pop() else { return };
        let dur = end.duration_since(o.start).as_nanos() as u64;
        let agg = &mut t.aggs[o.name as usize];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(o.child_ns);
        agg.children += o.children;
        agg.empty += empty as u64;
        agg.durations.record(dur);
        if let Some(parent) = t.open.last_mut() {
            parent.child_ns += dur;
            parent.children += 1;
        }
        if let Some(span) = t.raw.get_mut(o.raw_index as usize) {
            span.start_ns = o.start.duration_since(t.epoch).as_nanos() as u64;
            span.end_ns = span.start_ns + dur;
        }
    });
}

/// Time `f` as one span named `name`.
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    enter(name);
    let out = f();
    exit(false);
    out
}

/// As [`span`], for a call whose `None` means it found nothing to do.
pub fn span_opt<R>(name: Name, f: impl FnOnce() -> Option<R>) -> Option<R> {
    enter(name);
    let out = f();
    exit(out.is_none());
    out
}

/// What one traced arm recorded.
pub struct Recording {
    pub aggs: Vec<Agg>,
    pub raw: Vec<Span>,
    /// Wall time from [`reset`] to [`take`].
    pub wall_ns: u64,
}

impl Recording {
    pub fn agg(&self, name: Name) -> &Agg {
        &self.aggs[name as usize]
    }

    /// Spans recorded, of every name.
    pub fn spans(&self) -> u64 {
        self.aggs.iter().map(|a| a.calls).sum()
    }
}

/// Take the recording made since [`reset`].
pub fn take() -> Recording {
    TRACER.with_borrow_mut(|t| {
        // SubChain records whenever it runs, so the tracer stays usable.
        let old = std::mem::replace(t, Tracer::new());
        Recording {
            aggs: old.aggs,
            raw: old.raw,
            wall_ns: old.epoch.elapsed().as_nanos() as u64,
        }
    })
}

/// What a span itself costs, measured with the tracer on empty closures.
#[derive(Clone, Copy, Debug)]
pub struct SpanCost {
    /// Median duration an empty span reports: the part of the cost that
    /// falls between its two clock reads. Subtracted from every `*_ns`.
    pub inside_ns: f64,
    /// The mean of the same, for correcting sums of durations.
    pub inside_mean_ns: f64,
    /// Mean cost that falls outside the clock reads and so lands in the
    /// enclosing span's self time.
    pub outside_ns: f64,
}

/// Calibrate [`SpanCost`]: `rounds` parents of 1,000 empty spans each.
pub fn calibrate(rounds: usize) -> SpanCost {
    const PER_PARENT: usize = 1_000;
    reset(0);
    for _ in 0..rounds {
        span(Name::EmptyParent, || {
            for _ in 0..PER_PARENT {
                span(Name::Empty, || std::hint::black_box(()));
            }
        });
    }
    let rec = take();
    let empty = rec.agg(Name::Empty);
    let parent = rec.agg(Name::EmptyParent);
    SpanCost {
        inside_ns: empty.durations.quantile(0.5).unwrap_or(0.0),
        inside_mean_ns: empty.total_ns as f64 / empty.calls.max(1) as f64,
        outside_ns: parent.self_ns as f64 / empty.calls.max(1) as f64,
    }
}

/// Write one arm's recording as JSON lines: one `agg` line per name that
/// was called, then one `span` line per raw span. `label` maps a name to the
/// metric prefix this arm reports it under.
pub fn write_jsonl(
    out: &mut impl Write,
    arm: &str,
    ops: u64,
    rec: &Recording,
    label: impl Fn(Name) -> String,
) -> io::Result<()> {
    for &name in Name::ALL {
        let a = rec.agg(name);
        if a.calls == 0 {
            continue;
        }
        writeln!(
            out,
            "{{\"kind\":\"agg\",\"arm\":\"{arm}\",\"name\":\"{}\",\"calls\":{},\"calls_per_op\":{:.4},\
             \"empty\":{},\"total_ns\":{},\"self_ns\":{},\"p50_ns\":{:.1},\"p99_ns\":{:.1}}}",
            label(name),
            a.calls,
            a.calls as f64 / ops.max(1) as f64,
            a.empty,
            a.total_ns,
            a.self_ns,
            a.durations.quantile(0.5).unwrap_or(0.0),
            a.durations.quantile(0.99).unwrap_or(0.0),
        )?;
    }
    for (id, s) in rec.raw.iter().enumerate() {
        write!(
            out,
            "{{\"kind\":\"span\",\"arm\":\"{arm}\",\"id\":{id},\"name\":\"{}\"",
            label(s.name)
        )?;
        if s.parent != NO_PARENT {
            write!(out, ",\"parent\":{}", s.parent)?;
        }
        if s.op != NO_OP {
            write!(out, ",\"op\":{}", s.op)?;
        }
        writeln!(
            out,
            ",\"start_ns\":{},\"end_ns\":{}}}",
            s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}
