//! Micro-benchmarks of the layers no workload isolates: both wire codecs and
//! the shim over frames a workload recorded, the timer wheel, the `slshard`
//! ring and merge, and the `slmetrics` access log. Each figure is the mean of
//! a timed loop — the clock is read once per loop, not once per call — and
//! the median of [`ROUNDS`] such loops.

use crate::alloc;
use crate::stats::median;
use netsim::{DetRng, Dur, Time};
use slhost::TimerWheel;
use slshard::ring::ring;
use slshard::{merge, Stamped};
use std::hint::black_box;
use std::time::Instant;
use sublayer_core::shim::{from_rfc793, to_rfc793};
use sublayer_core::Packet;
use tcp_mono::wire::Segment;

const ROUNDS: usize = 9;

/// Nanoseconds per item of `f`, which processes `items` items per call:
/// the median over [`ROUNDS`] calls.
fn ns_per_item(items: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Codec and shim costs over recorded native frames.
#[derive(Clone, Copy, Debug, Default)]
pub struct Codec {
    pub wire_decode_allocs: f64,
    pub wire_encode_allocs: f64,
    pub to_rfc793_ns: f64,
    pub from_rfc793_ns: f64,
    pub mono_decode_ns: f64,
    pub mono_encode_ns: f64,
}

/// Replay `frames` (native Figure-6 frames) through both codecs and the shim.
pub fn codec(frames: &[Vec<u8>]) -> Codec {
    let packets: Vec<Packet> = frames
        .iter()
        .filter_map(|f| Packet::decode(f).ok())
        .collect();
    let segments: Vec<Segment> = packets.iter().map(to_rfc793).collect();
    let rfc793: Vec<Vec<u8>> = segments.iter().map(Segment::encode).collect();
    let n = packets.len();
    if n == 0 {
        return Codec::default();
    }
    let ((), dec) = alloc::count(|| {
        for f in frames {
            black_box(Packet::decode(black_box(f)).ok());
        }
    });
    let ((), enc) = alloc::count(|| {
        for p in &packets {
            black_box(black_box(p).encode());
        }
    });
    Codec {
        wire_decode_allocs: dec.allocs as f64 / frames.len() as f64,
        wire_encode_allocs: enc.allocs as f64 / n as f64,
        to_rfc793_ns: ns_per_item(n, || {
            for p in &packets {
                black_box(to_rfc793(black_box(p)));
            }
        }),
        from_rfc793_ns: ns_per_item(n, || {
            for s in &segments {
                black_box(from_rfc793(black_box(s)));
            }
        }),
        mono_decode_ns: ns_per_item(n, || {
            for f in &rfc793 {
                black_box(Segment::decode(black_box(f)).ok());
            }
        }),
        mono_encode_ns: ns_per_item(n, || {
            for s in &segments {
                black_box(black_box(s).encode());
            }
        }),
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Wheel {
    pub arm_ns: f64,
    pub cancel_ns: f64,
    pub advance_ns_per_fired: f64,
}

/// 2,000 live timers spread over 200 ms–10 s (RTOs to TIME-WAITs); each
/// round cancels and re-arms every timer the way an ACK re-arms an RTO, then
/// advances the clock in 1 ms ticks until 2,000 have fired, re-arming each.
pub fn wheel(seed: u64) -> Wheel {
    const LIVE: usize = 2_000;
    let mut rng = DetRng::new(seed);
    let mut spread = move || Dur::from_millis(rng.range(200, 10_000));
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut now = Time::ZERO;
    let mut keys: Vec<_> = (0..LIVE as u32)
        .map(|i| wheel.arm(now + spread(), i))
        .collect();
    let mut deadlines: Vec<Time> = Vec::with_capacity(LIVE);
    let (mut arm, mut cancel, mut advance) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for &k in &keys {
            black_box(wheel.cancel(k));
        }
        cancel.push(t0.elapsed().as_nanos() as f64 / LIVE as f64);

        deadlines.clear();
        deadlines.extend((0..LIVE).map(|_| now + spread()));
        let t0 = Instant::now();
        for (i, k) in keys.iter_mut().enumerate() {
            *k = wheel.arm(deadlines[i], i as u32);
        }
        arm.push(t0.elapsed().as_nanos() as f64 / LIVE as f64);

        let mut fired = 0usize;
        let mut spent = 0u128;
        while fired < LIVE {
            now += Dur::from_millis(1);
            let t0 = Instant::now();
            let due = wheel.advance(now);
            spent += t0.elapsed().as_nanos();
            fired += due.len();
            for (_, i) in due {
                keys[i as usize] = wheel.arm(now + spread(), i);
            }
        }
        advance.push(spent as f64 / fired as f64);
    }
    Wheel {
        arm_ns: median(&arm).unwrap_or(0.0),
        cancel_ns: median(&cancel).unwrap_or(0.0),
        advance_ns_per_fired: median(&advance).unwrap_or(0.0),
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Shard {
    pub ring_same_thread_ns: f64,
    pub ring_rtt_ns: f64,
    pub merge_ns_per_item: f64,
}

pub fn shard() -> Shard {
    const PASSES: usize = 20_000;
    let (tx, rx) = ring::<u64>(64);
    let ring_same_thread_ns = ns_per_item(PASSES, || {
        for i in 0..PASSES as u64 {
            tx.send(black_box(i));
            black_box(rx.recv());
        }
    });

    // Ping-pong between two threads: bound by the scheduler's wake-up
    // latency, not by the ring, on a box this small. Informational.
    const TRIPS: usize = 5_000;
    let (ping_tx, ping_rx) = ring::<u64>(64);
    let (pong_tx, pong_rx) = ring::<u64>(64);
    let ring_rtt_ns = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Some(v) = ping_rx.recv() {
                if !pong_tx.send(v) {
                    break;
                }
            }
        });
        let rtt = ns_per_item(TRIPS, || {
            for i in 0..TRIPS as u64 {
                ping_tx.send(i);
                black_box(pong_rx.recv());
            }
        });
        drop(ping_tx); // closes the ring; the echo thread's recv returns None
        rtt
    });

    const SHARDS: u32 = 8;
    const PER_SHARD: u32 = 1_000;
    let batches: Vec<Vec<Stamped>> = (0..SHARDS)
        .map(|shard| {
            (0..PER_SHARD)
                .map(|seq| Stamped {
                    round: (seq / 8) as u64,
                    shard,
                    seq: seq % 8,
                    frame: vec![0u8; 40],
                })
                .collect()
        })
        .collect();
    let items = (SHARDS * PER_SHARD) as f64;
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let input = batches.clone(); // `merge` consumes its input
            let t0 = Instant::now();
            black_box(merge(input));
            t0.elapsed().as_nanos() as f64 / items
        })
        .collect();
    Shard {
        ring_same_thread_ns,
        ring_rtt_ns,
        merge_ns_per_item: median(&samples).unwrap_or(0.0),
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Metrics {
    pub rec_muted_ns: f64,
    pub rec_unmuted_ns: f64,
}

/// One annotated state access (`log.borrow_mut().r(..)`) on a muted and on a
/// live log — what each of the ~150 annotation sites in the stacks pays.
pub fn metrics() -> Metrics {
    const CALLS: usize = 200_000;
    let time = |log: slmetrics::SharedLog| {
        ns_per_item(CALLS, || {
            for _ in 0..CALLS {
                log.borrow_mut().r(black_box("rd"), black_box("snd_una"));
            }
        })
    };
    Metrics {
        rec_muted_ns: time(slmetrics::muted()),
        rec_unmuted_ns: time(slmetrics::shared()),
    }
}
