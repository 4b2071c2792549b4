//! The receive path the stack runs — RD `on_packet_view` handing every
//! novel part up by offset straight out of the frame, in order or not, and
//! OSR `on_delivered_bytes` copying it to its place in the read buffer —
//! fed random segment scripts: in order, duplicated, overlapping, out of
//! order, and sprays past `MAX_OOO_RANGES` and `MAX_OOO_BYTES`. After every
//! step RD and OSR agree on the in-order point, and what is read is the
//! stream that was sent. Hostile bytes too: a retransmission that differs
//! from what it overlaps loses to the bytes that came first, and a spray
//! far ahead of a hole stays within RD's bound.

use netsim::Time;
use sublayer_core::osr::{MSS, RCV_BUF_CAP};
use sublayer_core::rd::{MAX_OOO_BYTES, MAX_OOO_RANGES, VALIDITY_WND};
use sublayer_core::{Osr, Packet, ReliableDelivery};

/// The peer's ISN, as RD's `rcv_isn`.
const PEER_ISN: u32 = 2000;

/// Byte `i` of the peer's stream: every position recognisable.
fn byte(i: u64) -> u8 {
    (i.wrapping_mul(31) ^ (i >> 8)) as u8
}

/// The peer's frame carrying stream bytes `[start, start + len)`.
fn frame(start: u64, len: u64) -> Vec<u8> {
    forged(start, (start..start + len).map(byte).collect())
}

/// A frame carrying `bytes` at stream offset `start`, whatever they are.
fn forged(start: u64, bytes: Vec<u8>) -> Vec<u8> {
    let mut pkt = Packet::default();
    pkt.rd.seq = PEER_ISN.wrapping_add(1).wrapping_add(start as u32);
    pkt.osr.rcv_wnd = u16::MAX;
    pkt.payload = bytes.into();
    pkt.encode()
}

struct Receiver {
    rd: ReliableDelivery,
    osr: Osr,
}

impl Receiver {
    fn new() -> Receiver {
        let log = slmetrics::shared();
        Receiver {
            rd: ReliableDelivery::new(1000, PEER_ISN, log.clone()),
            osr: Osr::new(slcc::make("newreno").unwrap(), log),
        }
    }

    /// Every novel part handed up from the frame by offset.
    fn receive(&mut self, now: Time, frames: &[Vec<u8>]) {
        for frame in frames {
            let (head, payload) = Packet::decode_view(frame).unwrap();
            let osr = &mut self.osr;
            self.rd
                .on_packet_view(now, &head, payload, false, &mut |offset, part| {
                    osr.on_delivered_bytes(offset, part)
                });
        }
    }
}

/// One random script through the receiver. Returns whether a spray of
/// islands, and a run of segments ahead of a hole, each had part of it
/// refused by RD's caps.
fn run(seed: u64) -> Result<(bool, bool), String> {
    let mut rng = proptest::TestRng::new(seed);
    let mut r = Receiver::new();
    let mut read: Vec<u8> = Vec::new();
    let mut refused = (false, false);
    for step in 0..20u64 {
        let now = Time(step);
        let nxt = r.rd.rcv_next_offset();
        let drops = r.rd.stats.ooo_range_drops;
        let kind = rng.below(16);
        let mut script: Vec<(u64, u64)> = Vec::new();
        match kind {
            // The next segment in order.
            0..=3 => script.push((nxt, 1 + rng.below(MSS as u128) as u64)),
            // Already delivered: a duplicate ...
            4 | 5 if nxt > 0 => {
                let start = nxt - 1 - rng.below(nxt.min(3000) as u128) as u64;
                script.push((start, 1 + rng.below((nxt - start) as u128) as u64));
            }
            // ... or a retransmission that overlaps the delivered prefix.
            6 | 7 if nxt > 0 => {
                let start = nxt - 1 - rng.below(nxt.min(MSS as u64) as u128) as u64;
                script.push((start, nxt - start + 1 + rng.below(MSS as u128) as u64));
            }
            // Ahead of a hole, possibly on top of what is parked.
            4..=12 => {
                for _ in 0..1 + rng.below(6) {
                    let start = nxt + 1 + rng.below(20_000) as u64;
                    script.push((start, 1 + rng.below(MSS as u128) as u64));
                }
            }
            // More one-byte islands than RD tracks ranges.
            13 => {
                let base = nxt + 2 + rng.below(1000) as u64;
                script.extend((0..MAX_OOO_RANGES as u64 + 20).map(|i| (base + 2 * i, 1)));
            }
            // More bytes ahead of a hole than RD parks.
            _ => {
                let n = MAX_OOO_BYTES / MSS as u64 + 2;
                script.extend((0..n).map(|i| (nxt + 1 + i * MSS as u64, MSS as u64)));
            }
        }
        let frames: Vec<Vec<u8>> = script.iter().map(|&(s, n)| frame(s, n)).collect();
        r.receive(now, &frames);
        let capped = r.rd.stats.ooo_range_drops > drops;
        refused.0 |= kind == 13 && capped;
        refused.1 |= kind > 13 && capped;
        // RD's cumulative point is OSR's: read or readable, nothing between.
        proptest::prop_assert_eq!(
            r.rd.rcv_next_offset(),
            (read.len() + r.osr.readable_len()) as u64
        );
        proptest::prop_assert_eq!(r.osr.stats.reasm_overflow_drops, 0);
        if rng.below(3) == 0 {
            read.extend(r.osr.read());
        }
    }
    read.extend(r.osr.read());
    proptest::prop_assert_eq!(read.len() as u64, r.rd.rcv_next_offset());
    proptest::prop_assert!(
        read.iter().zip(0..).all(|(&b, i)| b == byte(i)),
        "stream corrupted"
    );
    Ok(refused)
}

proptest::proptest! {
    #[test]
    fn prop_random_scripts_read_the_stream_sent(seed: u64) {
        run(seed)?;
    }
}

#[test]
fn the_scripts_run_into_both_of_rds_caps() {
    let (mut ranges, mut bytes) = (false, false);
    for seed in 0..16 {
        let (r, b) = run(seed).unwrap();
        ranges |= r;
        bytes |= b;
        if ranges && bytes {
            return;
        }
    }
    panic!("islands refused: {ranges}, bytes refused: {bytes}");
}

/// Stream bytes `[start, start + len)` in frames of at most one MSS.
fn frames(start: u64, len: u64) -> Vec<Vec<u8>> {
    (start..start + len)
        .step_by(MSS)
        .map(|s| frame(s, (start + len - s).min(MSS as u64)))
        .collect()
}

#[test]
fn a_forged_retransmission_loses_to_the_bytes_that_came_first() {
    // [0, 200) is delivered and [1000, 2000) parked; a forgery over
    // [500, 2500), and one over [100, 200), carry other bytes throughout.
    // Only what nobody sent before is taken from them: the parked bytes
    // and the delivered prefix's stay as they came.
    let mut r = Receiver::new();
    let forgery: Vec<u8> = (500..2500u64).map(|i| !byte(i)).collect();
    r.receive(Time::ZERO, &[frame(0, 200), frame(1000, 1000)]);
    r.receive(
        Time::ZERO,
        &[forged(500, forgery), forged(100, vec![0xEE; 100])],
    );
    assert_eq!(r.rd.stats.duplicate_payload_dropped, 1);
    r.receive(Time::ZERO, &[frame(200, 300)]);
    let want: Vec<u8> = (0..2500u64)
        .map(|i| {
            if (500..1000).contains(&i) || i >= 2000 {
                !byte(i)
            } else {
                byte(i)
            }
        })
        .collect();
    assert_eq!(r.osr.read(), want);
}

#[test]
fn a_spray_far_ahead_of_a_hole_stays_within_the_bound_and_keeps_its_first_bytes() {
    // 1,000 bytes unread, a hole at 1,000, then islands behind it and, in
    // one frame at the far edge of RD's validity window — past the window
    // OSR advertised — all but 200 of the bytes RD still parks. A forgery
    // over that frame's front and the hole before it is taken only where
    // nobody sent before: the islands park in place, the rest apart, and
    // what OSR holds is the unread bytes plus at most RD's bound.
    let mut r = Receiver::new();
    let far = 1000 + VALIDITY_WND as u64 - 1;
    let tail = MAX_OOO_BYTES - 400;
    let islands: Vec<Vec<u8>> = (0..200).map(|i| frame(1001 + i * 300, 1)).collect();
    r.receive(Time::ZERO, &[frame(0, 1000)]);
    r.receive(Time::ZERO, &islands);
    r.receive(Time::ZERO, &[frame(far, tail)]);
    assert!(far + tail - 1000 > RCV_BUF_CAP as u64);
    let forgery: Vec<u8> = (far - 100..far + 100).map(|i| !byte(i)).collect();
    r.receive(Time::ZERO, &[forged(far - 100, forgery)]);
    assert_eq!(r.osr.readable_len(), 1000);
    assert_eq!(r.osr.buffered_bytes(), 1000 + MAX_OOO_BYTES as usize - 100);
    assert_eq!(
        r.rd.stats.ooo_range_drops + r.osr.stats.reasm_overflow_drops,
        0
    );
    // Every hole fills.
    r.receive(Time::ZERO, &frames(1000, far - 100 - 1000));
    let got = r.osr.read();
    assert_eq!(got.len() as u64, far + tail);
    let forged = far - 100..far;
    assert!(
        got.iter()
            .zip(0..)
            .all(|(&b, i)| b == if forged.contains(&i) { !byte(i) } else { byte(i) }),
        "stream corrupted"
    );
    assert_eq!(r.osr.buffered_bytes(), 0);
}
