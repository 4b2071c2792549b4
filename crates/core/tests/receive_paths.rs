//! RD and OSR have two receive entries each: `on_packet` + `on_delivered`,
//! where every delivery is a queued `Delivered` event holding a slab
//! (`Packet::decode` made one per frame), and `on_packet_view` +
//! `on_delivered_bytes`, where the next in-order payload is handed up by
//! offset straight out of the frame and only other novel parts are copied.
//! Random segment scripts — in order, duplicated, overlapping, out of
//! order, and sprays past `MAX_OOO_RANGES` and `MAX_OOO_BYTES` — must leave
//! both receivers alike after every step: the same bytes read, the same
//! acks, the same contract keys and the same counters.

use netsim::Time;
use sublayer_core::osr::MSS;
use sublayer_core::rd::{MAX_OOO_BYTES, MAX_OOO_RANGES};
use sublayer_core::{Osr, Packet, RdEvent, ReliableDelivery};

/// The peer's ISN, as RD's `rcv_isn`.
const PEER_ISN: u32 = 2000;

/// Byte `i` of the peer's stream: every position recognisable.
fn byte(i: u64) -> u8 {
    (i.wrapping_mul(31) ^ (i >> 8)) as u8
}

/// The peer's frame carrying stream bytes `[start, start + len)`.
fn frame(start: u64, len: u64) -> Vec<u8> {
    let mut pkt = Packet::default();
    pkt.rd.seq = PEER_ISN.wrapping_add(1).wrapping_add(start as u32);
    pkt.osr.rcv_wnd = u16::MAX;
    pkt.payload = (start..start + len).map(byte).collect::<Vec<u8>>().into();
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

    /// Every delivery queued, sharing the decoded frame's slab.
    fn by_slab(&mut self, now: Time, frame: &[u8]) {
        let pkt = Packet::decode(frame).unwrap();
        self.rd.on_packet(now, &pkt, false);
        self.drain();
    }

    /// The next in-order payload handed up from the frame by offset.
    fn by_view(&mut self, now: Time, frame: &[u8]) {
        let (head, payload) = Packet::decode_view(frame).unwrap();
        if let Some(offset) = self.rd.on_packet_view(now, &head, payload, false) {
            self.osr.on_delivered_bytes(offset, payload);
        }
        self.drain();
    }

    fn drain(&mut self) {
        while let Some(ev) = self.rd.poll_event() {
            if let RdEvent::Delivered { offset, data } = ev {
                self.osr.on_delivered(offset, data);
            }
        }
    }
}

fn assert_alike(slab: &Receiver, view: &Receiver) -> Result<(), String> {
    proptest::prop_assert_eq!(slab.rd.contract_key(), view.rd.contract_key());
    proptest::prop_assert_eq!(slab.osr.contract_key(), view.osr.contract_key());
    proptest::prop_assert_eq!(&slab.rd.stats, &view.rd.stats);
    proptest::prop_assert_eq!(&slab.osr.stats, &view.osr.stats);
    proptest::prop_assert_eq!(slab.osr.readable_len(), view.osr.readable_len());
    proptest::prop_assert_eq!(slab.osr.buffered_bytes(), view.osr.buffered_bytes());
    Ok(())
}

/// One random script through both receivers, alike after every step.
/// Returns whether a spray of islands, and a run of segments ahead of a
/// hole, each had part of it refused by RD's caps.
fn run(seed: u64) -> Result<(bool, bool), String> {
    let mut rng = proptest::TestRng::new(seed);
    let (mut slab, mut view) = (Receiver::new(), Receiver::new());
    let mut read: Vec<u8> = Vec::new();
    let mut refused = (false, false);
    for step in 0..20u64 {
        let now = Time(step);
        let nxt = slab.rd.rcv_next_offset();
        let drops = slab.rd.stats.ooo_range_drops;
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
        for &(start, len) in &script {
            let f = frame(start, len);
            slab.by_slab(now, &f);
            view.by_view(now, &f);
        }
        let capped = slab.rd.stats.ooo_range_drops > drops;
        refused.0 |= kind == 13 && capped;
        refused.1 |= kind > 13 && capped;
        proptest::prop_assert_eq!(slab.rd.rcv_next_offset(), view.rd.rcv_next_offset());
        proptest::prop_assert_eq!(slab.rd.poll_packet(now), view.rd.poll_packet(now));
        assert_alike(&slab, &view)?;
        if rng.below(3) == 0 {
            let got = slab.osr.read();
            proptest::prop_assert_eq!(&got, &view.osr.read());
            read.extend(got);
        }
    }
    let rest = slab.osr.read();
    proptest::prop_assert_eq!(&rest, &view.osr.read());
    read.extend(rest);
    proptest::prop_assert_eq!(read.len() as u64, slab.rd.rcv_next_offset());
    proptest::prop_assert!(
        read.iter().zip(0..).all(|(&b, i)| b == byte(i)),
        "stream corrupted"
    );
    Ok(refused)
}

proptest::proptest! {
    #[test]
    fn prop_both_receive_paths_read_alike(seed: u64) {
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
