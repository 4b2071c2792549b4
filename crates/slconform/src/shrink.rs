//! Divergence shrinking: reduce a failing scenario's event script to a
//! 1-minimal reproducer.
//!
//! Greedy delta debugging over the event list: repeatedly drop any single
//! event whose removal still reproduces the *same* divergence code, until
//! no single removal does. The preserved code — not just "any failure" —
//! keeps the shrinker from wandering onto a different bug.

use crate::diff::{check_scenario_mutated, Report};
use crate::driver::Mutation;
use crate::wire::Kind;
use crate::scenario::Scenario;

/// A minimal reproducer for one divergence.
#[derive(Debug)]
pub struct Shrunk {
    /// The reduced scenario (same name/link/flags, fewer events).
    pub scenario: Scenario,
    /// The divergence code preserved through every reduction step.
    pub code: String,
    /// The report for the reduced scenario.
    pub report: Report,
    /// Event counts before and after.
    pub from_events: usize,
    pub to_events: usize,
}

fn has_code(rep: &Report, code: &str) -> bool {
    rep.unexplained.iter().any(|d| d.code == code)
}

/// Shrink `sc` (run with `mutation` on `mut_kind`'s client) to a minimal
/// script still showing its first divergence. Returns `None` when the
/// scenario has no unexplained divergence to begin with.
pub fn shrink(sc: &Scenario, seed: u64, mut_kind: Kind, mutation: Mutation) -> Option<Shrunk> {
    let first = check_scenario_mutated(sc, seed, mut_kind, mutation);
    let code = first.unexplained.first()?.code.clone();
    let from_events = sc.events.len();
    let mut cur = sc.clone();
    let mut cur_rep = first;
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < cur.events.len() {
            let mut cand = cur.clone();
            cand.events.remove(i);
            let rep = check_scenario_mutated(&cand, seed, mut_kind, mutation);
            if has_code(&rep, &code) {
                cur = cand;
                cur_rep = rep;
                progressed = true;
                // Same index now holds the next event; retry it.
            } else {
                i += 1;
            }
        }
        if !progressed {
            break;
        }
    }
    let to_events = cur.events.len();
    Some(Shrunk { scenario: cur, code, report: cur_rep, from_events, to_events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{corpus, Ev, Side};

    #[test]
    fn clean_scenario_does_not_shrink() {
        let sc = corpus().into_iter().find(|s| s.name == "handshake_only").unwrap();
        assert!(shrink(&sc, 1, Kind::Sub, Mutation::None).is_none());
    }

    #[test]
    fn shrunk_script_is_one_minimal() {
        // A busy scenario with an acks-into-the-future client must shrink
        // to a script where every remaining event is necessary.
        let sc = corpus().into_iter().find(|s| s.name == "data_bidirectional").unwrap();
        let shrunk = shrink(&sc, 1, Kind::Sub, Mutation::AckFuture { delta: 9_000 })
            .expect("mutation must diverge");
        assert!(shrunk.to_events <= shrunk.from_events);
        // The mutation corrupts acks as soon as any packet flows, so the
        // reproducer needs the connect and nothing obviously redundant
        // like a second data exchange.
        assert!(
            shrunk.scenario.events.iter().any(|(_, e)| matches!(e, Ev::Connect)),
            "reproducer must still connect: {:?}",
            shrunk.scenario.events
        );
        assert!(
            !shrunk.scenario.events.iter().any(|(_, e)| matches!(
                e,
                Ev::Send { side: Side::Server, .. }
            )),
            "server sends are irrelevant to a client ack bug: {:?}",
            shrunk.scenario.events
        );
    }
}
