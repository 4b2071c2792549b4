//! E1 — data-link sublayering (§2.1, Figure 2): the four-sublayer stack
//! end to end with one sublayer swapped at a time, detector strength, and
//! the MAC alternative for broadcast links. E12 — the error-recovery
//! sublayer's schemes (stop-and-wait, go-back-N, selective repeat) across
//! loss rates on a bandwidth-delay link.

use datalink::{
    mac_simulate, ArqEndpoint, ArqScheme, CobsFramer, Crc, DataLinkStack, ErrorDetector,
    Fletcher16, FourBFiveB, Framer, HdlcFramer, InternetChecksum, LengthFramer, LineCode,
    MacConfig, MacScheme, Manchester, Nrz, Nrzi, XorParity,
};
use netsim::{two_party, DetRng, Dur, FaultProfile, LinkParams, StackNode, Time};

use crate::{json, Report, Table};

const SR8: ArqScheme = ArqScheme::SelectiveRepeat { window: 8 };

fn stack(code: impl LineCode + 'static, framer: impl Framer + 'static, det: Crc, arq: ArqScheme) -> DataLinkStack {
    DataLinkStack::new(Box::new(code), Box::new(framer), Box::new(det), arq, Dur::from_millis(50))
}

/// A named stack constructor.
type Build = (&'static str, fn() -> DataLinkStack);

/// Each swaps one sublayer of the baseline, except that 4B/5B brings its
/// own framer and detector and the go-back-N row runs over NRZ.
const SWAPS: [Build; 6] = [
    ("baseline", || stack(Nrzi, HdlcFramer::new(), Crc::crc32(), SR8)),
    ("swap detector -> CRC-64", || stack(Nrzi, HdlcFramer::new(), Crc::crc64(), SR8)),
    ("swap framer -> COBS", || stack(Nrzi, CobsFramer, Crc::crc32(), SR8)),
    ("swap coding -> Manchester", || stack(Manchester, HdlcFramer::new(), Crc::crc32(), SR8)),
    ("swap coding -> 4B/5B", || stack(FourBFiveB, LengthFramer, Crc::crc16_ccitt(), SR8)),
    ("swap ARQ -> go-back-N", || stack(Nrz, HdlcFramer::new(), Crc::crc32(), ArqScheme::GoBackN { window: 8 })),
];

/// One swap's run: 40 frames over a 2 ms link that drops 10 % and
/// corrupts 5 %. `caught` counts the frames the detector or the line code
/// refused before ARQ saw them.
struct Swap {
    swap: &'static str,
    stack: String,
    caught: u64,
    delivered: bool,
}

fn swap((swap, mk): Build, seed: u64) -> Swap {
    let mut a = mk();
    let stack = a.describe();
    let msgs: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; (i as usize % 50) + 1]).collect();
    for m in &msgs {
        a.send(m.clone());
    }
    let fault = FaultProfile { drop: 0.1, corrupt: 0.05, ..Default::default() };
    let (mut net, _, nb) = two_party(seed, a, mk(), LinkParams::delay_only(Dur::from_millis(2)).with_fault(fault));
    net.poll_all();
    net.run_to_idle(Time::ZERO + Dur::from_secs(3600));
    let rx = &mut net.node_mut::<StackNode<DataLinkStack>>(nb).stack;
    let delivered = rx.recv_all() == msgs;
    Swap { swap, stack, caught: rx.stats.detector_drops + rx.stats.coding_errors, delivered }
}

/// Each detector against `trials` bursts of 1–4 byte-aligned random
/// corruptions of a 64-byte frame: (name, check bytes, undetected).
fn strengths(trials: u64) -> Vec<(&'static str, usize, u64)> {
    let dets: [Box<dyn ErrorDetector>; 5] = [
        Box::new(XorParity),
        Box::new(InternetChecksum),
        Box::new(Fletcher16),
        Box::new(Crc::crc16_ccitt()),
        Box::new(Crc::crc32()),
    ];
    let mut rng = DetRng::new(99);
    dets.iter()
        .map(|det| {
            let mut undetected = 0;
            for _ in 0..trials {
                let data = rng.bytes(64);
                let mut framed = det.protect(&data);
                for _ in 0..rng.range(1, 4) {
                    let i = rng.below(framed.len() as u64) as usize;
                    framed[i] ^= rng.next_u32() as u8 | 1;
                }
                undetected += det.verify(&framed).is_ok_and(|d| d != data) as u64;
            }
            (det.name(), det.check_len(), undetected)
        })
        .collect()
}

const STATIONS: usize = 20;
const FRAME_SLOTS: u64 = 10;

/// [`STATIONS`] stations, 10-slot frames: (scheme, slots, successes, Σ
/// and Σ² of the per-station successes). Goodput is the share of slots
/// carrying a successful frame; Jain's index is over the per-station
/// successes.
fn mac(scheme: MacScheme, slots: u64) -> (&'static str, u64, u64, u64, u64) {
    let (stations, frame_slots, seed) = (STATIONS, FRAME_SLOTS, 9);
    let st = mac_simulate(&MacConfig {
        scheme, stations, arrival_prob: 0.01, tx_prob: 0.05, slots, seed, max_backoff_exp: 8, frame_slots,
    });
    let sum_sq = st.per_station.iter().map(|x| x * x).sum();
    (scheme.name(), st.slots, st.successes, st.per_station.iter().sum(), sum_sq)
}

fn jain(sum: u64, sum_sq: u64) -> f64 {
    if sum_sq == 0 { 1.0 } else { (sum as f64) * (sum as f64) / (STATIONS as f64 * sum_sq as f64) }
}

const SCHEMES: [ArqScheme; 3] = [ArqScheme::StopAndWait, ArqScheme::GoBackN { window: 8 }, SR8];
const ARQ_MSGS: usize = 200;

/// One E12 run: [`ARQ_MSGS`] messages of 200 B over a 2 Mbit/s, 10 ms
/// link; `retransmissions` counts both ends'.
struct Arq {
    loss_pct: u32,
    scheme: &'static str,
    delivered: usize,
    sim_ns: u64,
    retransmissions: u64,
}

fn arq(scheme: ArqScheme, loss_pct: u32) -> Arq {
    let mut a = ArqEndpoint::new(scheme, Dur::from_millis(60));
    for i in 0..ARQ_MSGS {
        a.send(vec![(i % 256) as u8; 200]);
    }
    let params = LinkParams::delay_only(Dur::from_millis(10))
        .with_rate(2_000_000)
        .with_fault(FaultProfile::lossy(loss_pct as f64 / 100.0));
    let (mut net, na, nb) = two_party(5, a, ArqEndpoint::new(scheme, Dur::from_millis(60)), params);
    net.poll_all();
    net.run_to_idle(Time::ZERO + Dur::from_secs(3600));
    let sim_ns = net.now().nanos();
    let tx_retx = net.node::<StackNode<ArqEndpoint>>(na).stack.stats.retransmissions;
    let rx = &mut net.node_mut::<StackNode<ArqEndpoint>>(nb).stack;
    let (delivered, retransmissions) = (rx.recv_all().len(), rx.stats.retransmissions + tx_retx);
    Arq { loss_pct, scheme: scheme.name(), delivered, sim_ns, retransmissions }
}

/// The E12 claims each loss rate bears out: every scheme delivers
/// everything; stop-and-wait is the slowest; go-back-N beats selective
/// repeat at low loss (5 %), and from 15 % selective repeat is faster
/// and resends less.
fn arq_violations(rows: &[Arq], v: &mut Vec<String>) {
    for r in rows.iter().filter(|r| r.delivered != ARQ_MSGS) {
        v.push(format!("[E12 {}% {}] delivered {}/{ARQ_MSGS}", r.loss_pct, r.scheme, r.delivered));
    }
    for at in rows.chunks(3) {
        let [sw, gbn, sr] = at else { unreachable!("three schemes per loss rate") };
        let loss = sw.loss_pct;
        if sw.sim_ns <= gbn.sim_ns.max(sr.sim_ns) {
            v.push(format!("[E12 {loss}%] stop-and-wait is not the slowest"));
        }
        if loss == 5 && gbn.sim_ns >= sr.sim_ns {
            v.push(format!("[E12 {loss}%] go-back-N is not faster than selective repeat"));
        }
        if loss >= 15 && (sr.sim_ns >= gbn.sim_ns || sr.retransmissions >= gbn.retransmissions) {
            v.push(format!("[E12 {loss}%] selective repeat does not beat go-back-N"));
        }
    }
}

pub fn report(smoke: bool) -> Report {
    let swaps = &SWAPS[..if smoke { 2 } else { 6 }];
    let swaps: Vec<Swap> = swaps.iter().zip(100..).map(|(&b, seed)| swap(b, seed)).collect();
    let trials = if smoke { 2_000 } else { 20_000 };
    let strengths = strengths(trials);
    let slots = if smoke { 20_000 } else { 200_000 };
    let macs = [MacScheme::SlottedAloha, MacScheme::CsmaNonPersistent, MacScheme::CsmaPersistent];
    let macs = macs.map(|s| mac(s, slots));
    let losses: &[u32] = if smoke { &[5, 15] } else { &[0, 5, 15, 30] };
    let arqs: Vec<Arq> = losses.iter().flat_map(|&l| SCHEMES.map(|s| arq(s, l))).collect();

    // The E1 claims: every swap still delivers every frame, and neither
    // CRC lets a burst through.
    let mut violations = Vec::new();
    for s in swaps.iter().filter(|s| !s.delivered) {
        violations.push(format!("[E1 {}] not every frame delivered", s.swap));
    }
    for (det, _, undetected) in strengths.iter().filter(|(d, _, u)| d.starts_with("CRC") && *u > 0) {
        violations.push(format!("[E1 {det}] {undetected}/{trials} corruptions undetected"));
    }
    arq_violations(&arqs, &mut violations);

    let yes_no = |b: bool| if b { "yes".to_string() } else { "NO".into() };
    let tables = vec![
        Table::new(
            "E1 — the sublayered data-link stack: 40 frames over a link with 10% drop + 5% corruption",
            vec!["swap", "stack (ARQ / detector / framer / coding)", "frames caught below ARQ", "all delivered"],
            swaps
                .iter()
                .map(|s| vec![s.swap.into(), s.stack.clone(), s.caught.to_string(), yes_no(s.delivered)])
                .collect(),
        ),
        Table::new(
            "E1 — detector strength: residual undetected corruption",
            vec!["detector", "check bytes", "undetected corruptions"],
            strengths.iter().map(|(d, len, u)| vec![d.to_string(), len.to_string(), format!("{u}/{trials}")]).collect(),
        ),
        Table::new(
            "E1 — MAC alternative (broadcast links): throughput",
            vec!["scheme", "goodput (fraction of slots)", "Jain fairness"],
            macs.iter()
                .map(|&(scheme, slots, ok, sum, sum_sq)| {
                    let goodput = ok as f64 * FRAME_SLOTS as f64 / slots as f64;
                    vec![scheme.into(), format!("{goodput:.3}"), format!("{:.3}", jain(sum, sum_sq))]
                })
                .collect(),
        ),
        Table::new(
            "E12 — ARQ schemes: 200 messages x 200 B over a 2 Mbit/s, 10 ms link",
            vec!["loss", "scheme", "completion (sim s)", "retransmissions"],
            arqs.iter()
                .map(|a| {
                    let secs = format!("{:.2}", a.sim_ns as f64 / 1e9);
                    vec![format!("{}%", a.loss_pct), a.scheme.into(), secs, a.retransmissions.to_string()]
                })
                .collect(),
        ),
    ];

    let n = |v: u64| v.to_string();
    let sections = [
        ("swaps", swaps.iter().map(|s| json::obj(&[
            ("swap", json::str(s.swap)), ("stack", json::str(&s.stack)),
            ("caught_below_arq", n(s.caught)), ("all_delivered", s.delivered.to_string()),
        ])).collect()),
        ("detectors", strengths.iter().map(|&(d, len, u)| json::obj(&[
            ("detector", json::str(d)), ("check_bytes", n(len as u64)), ("undetected", n(u)), ("trials", n(trials)),
        ])).collect()),
        ("mac", macs.iter().map(|&(scheme, slots, ok, sum, sum_sq)| json::obj(&[
            ("scheme", json::str(scheme)), ("slots", n(slots)), ("successes", n(ok)),
            ("frame_slots", n(FRAME_SLOTS)), ("stations", n(STATIONS as u64)),
            ("station_successes_sum", n(sum)), ("station_successes_sum_sq", n(sum_sq)),
        ])).collect()),
        ("arq", arqs.iter().map(|a| json::obj(&[
            ("loss_pct", a.loss_pct.to_string()), ("scheme", json::str(a.scheme)),
            ("delivered", a.delivered.to_string()), ("sim_ns", n(a.sim_ns)), ("retransmissions", n(a.retransmissions)),
        ])).collect()),
    ];
    Report::checked(&sections, tables, violations)
}
