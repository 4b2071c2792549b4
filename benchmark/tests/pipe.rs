//! The virtual pipe: due-time order, seed determinism, fault rates.

use netsim::{Dur, Time};
use slbench::pipe::{Faults, Pipe, HOLD_BACK_HOPS};

const LOSSY: Faults = Faults {
    drop: 0.02,
    duplicate: 0.005,
    hold_back: 0.01,
};

/// Push `n` numbered frames, ten per 7 µs step, draining what is due at each
/// step; return `(frame number, arrival time)` in delivery order.
fn run(seed: u64, faults: Faults, n: u32) -> (Vec<(u32, Time)>, Pipe) {
    let mut pipe = Pipe::new(Dur::from_micros(50), faults, seed, 64);
    let mut delivered = Vec::new();
    let mut now = Time::ZERO;
    let drain = |pipe: &mut Pipe, now: Time, out: &mut Vec<(u32, Time)>| {
        while let Some(to) = pipe.due_for(now) {
            let f = pipe.pop_due(now, to).expect("due_for promised a frame");
            assert!(f.due <= now);
            for _ in 0..f.copies {
                out.push((u32::from_be_bytes(f.frame[..4].try_into().unwrap()), f.due));
            }
        }
    };
    for i in 0..n {
        if i % 10 == 0 {
            now += Dur::from_micros(7);
            drain(&mut pipe, now, &mut delivered);
        }
        pipe.send(now, 1, i % 3, i.to_be_bytes().to_vec());
    }
    while let Some(due) = pipe.next_due() {
        drain(&mut pipe, due, &mut delivered);
    }
    assert!(pipe.is_empty());
    (delivered, pipe)
}

#[test]
fn delivers_in_due_time_order_and_repeats_for_equal_seeds() {
    let (a, _) = run(7, LOSSY, 20_000);
    assert!(
        a.windows(2).all(|w| w[0].1 <= w[1].1),
        "arrival times must never go back"
    );
    // Held-back frames really are overtaken.
    assert!(
        a.windows(2).any(|w| w[0].0 > w[1].0),
        "no frame was reordered"
    );
    let (b, _) = run(7, LOSSY, 20_000);
    assert_eq!(a, b, "equal seeds must give equal deliveries");
    let (c, _) = run(8, LOSSY, 20_000);
    assert_ne!(a, c, "another seed must give other faults");
}

#[test]
fn a_lossless_pipe_is_a_fifo_with_one_delay() {
    let (got, pipe) = run(1, Faults::NONE, 5_000);
    assert_eq!(got.len(), 5_000);
    assert!(got.iter().map(|&(i, _)| i).eq(0..5_000));
    assert_eq!(
        pipe.stats.dropped + pipe.stats.duplicated + pipe.stats.held_back,
        0
    );
}

#[test]
fn fault_stage_hits_its_rates_and_repeats_for_equal_seeds() {
    const N: u32 = 200_000;
    let (got, pipe) = run(3, LOSSY, N);
    let s = pipe.stats;
    assert_eq!(s.offered, N as u64);
    let near = |count: u64, rate: f64| {
        let expect = rate * N as f64;
        (count as f64 - expect).abs() < 0.15 * expect
    };
    assert!(near(s.dropped, LOSSY.drop), "dropped {}", s.dropped);
    assert!(
        near(s.duplicated, LOSSY.duplicate),
        "duplicated {}",
        s.duplicated
    );
    assert!(
        near(s.held_back, LOSSY.hold_back),
        "held back {}",
        s.held_back
    );
    assert_eq!(s.delivered, s.offered - s.dropped + s.duplicated);
    assert_eq!(got.len() as u64, s.delivered);
    assert_eq!(run(3, LOSSY, N).1.stats, s);
}

#[test]
fn a_held_back_frame_waits_three_more_hops() {
    let always = Faults {
        drop: 0.0,
        duplicate: 0.0,
        hold_back: 1.0,
    };
    let mut pipe = Pipe::new(Dur::from_micros(50), always, 1, 8);
    pipe.send(Time::ZERO, 1, 0, vec![0]);
    assert_eq!(
        pipe.next_due(),
        Some(Time::ZERO + Dur::from_micros(50 * (1 + HOLD_BACK_HOPS)))
    );
}
