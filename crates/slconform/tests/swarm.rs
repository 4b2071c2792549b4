//! Swarm mode: property-based conformance over randomized scenarios.
//!
//! proptest generates event scripts the hand-written corpus never thought
//! of — interleaved sends, staggered closes, mid-stream injected RSTs and
//! duplicate SYNs, lossy links — and every one must come back with zero
//! unexplained divergences between the two stacks. Set `PROPTEST_CASES`
//! to widen the swarm locally; shrinking of a found divergence is handled
//! by our own event-level shrinker (`slconform::shrink`), so each failure
//! is reported with its minimal script.

use proptest::{collection, prop_assert, proptest};
use slconform::driver::Mutation;
use slconform::Kind;
use slconform::scenario::{Ev, FaultKind, LinkSpec, RstOff, Scenario, Side};
use slconform::{check_scenario, shrink};

fn idx(side: Side) -> usize {
    match side {
        Side::Client => 0,
        Side::Server => 1,
    }
}

/// Decode generated ops into a well-formed scenario. The swarm stays
/// inside the aligned behavior envelope on purpose: no sends after a
/// side's close (acceptance of post-close writes is API policy, not wire
/// conformance) and no forged segments on lossy links or after a close
/// (the corpus pins those with exact timings); everything else — order,
/// interleaving, sizes, seeds — is random.
fn build(ops: &[(u8, bool, u16)], lossy: bool) -> Scenario {
    let mut events = vec![(0u64, Ev::Connect)];
    let mut t = 300u64;
    let mut closed = [false, false];
    for &(raw, side_bit, len) in ops {
        t += 150;
        let side = if side_bit { Side::Client } else { Side::Server };
        let peer = if side_bit { Side::Server } else { Side::Client };
        let any_closed = closed[0] || closed[1];
        let ev = match raw % 10 {
            0..=2 if !closed[idx(side)] => {
                Ev::Send { side, len: 1 + (len as u32) % 4_000 }
            }
            3 | 4 => Ev::Recv { side },
            5 => {
                closed[idx(side)] = true;
                Ev::Close { side }
            }
            6 => Ev::Recv { side: peer },
            7 if !lossy && !any_closed => Ev::InjectRst { to: side, off: RstOff::InWindow },
            8 if !lossy && !any_closed => Ev::InjectRst { to: side, off: RstOff::Outside },
            9 if !lossy && !any_closed => Ev::InjectSyn { to: Side::Server },
            _ => Ev::Recv { side },
        };
        events.push((t, ev));
    }
    Scenario {
        name: if lossy { "swarm_lossy" } else { "swarm" },
        listen: true,
        server_connects: false,
        link: if lossy {
            LinkSpec { delay_ms: 5, fault: FaultKind::LossPm(20) }
        } else {
            LinkSpec::clean(5)
        },
        events,
        quiet_ms: if lossy { 20_000 } else { 4_000 },
    }
}

proptest! {
    #[test]
    fn random_scenarios_have_no_unexplained_divergence(
        ops in collection::vec(
            (proptest::num::u8::ANY, proptest::bool::ANY, proptest::num::u16::ANY),
            0..12,
        ),
        lossy in proptest::bool::ANY,
        seed in 1u64..4,
    ) {
        let sc = build(&ops, lossy);
        let rep = check_scenario(&sc, seed);
        if !rep.ok() {
            let min = shrink(&sc, seed, Kind::Sub, Mutation::None)
                .map(|s| format!("{} in {} events: {:?}", s.code, s.to_events, s.scenario.events))
                .unwrap_or_else(|| "shrink lost the divergence".into());
            prop_assert!(
                false,
                "swarm divergence seed={seed} lossy={lossy}: {:?}\nminimal: {min}\nevents: {:?}",
                rep.unexplained.first().unwrap(),
                sc.events
            );
        }
    }
}
