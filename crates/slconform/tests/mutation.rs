//! Mutation tests: the harness must catch its own seeded bugs.
//!
//! A conformance harness that never fails proves nothing. These tests
//! wrap one stack's client in a deliberate protocol bug ([`Mutation`]),
//! assert the differential pipeline flags the run, shrink the scenario to
//! a minimal reproducer (the acceptance bar is ≤ 10 events), and replay
//! the mutated endpoint byte-for-byte from its artifact.

use slconform::driver::{run_kind, Mutation};
use slconform::Kind;
use slconform::scenario::{corpus, Scenario, Side};
use slconform::{artifact, check_scenario_mutated, shrink};

fn by_name(name: &str) -> Scenario {
    corpus().into_iter().find(|s| s.name == name).unwrap()
}

fn assert_caught_and_shrunk(sc: &Scenario, kind: Kind, mutation: Mutation) {
    let rep = check_scenario_mutated(sc, 1, kind, mutation);
    assert!(
        !rep.ok(),
        "{} with {mutation:?} on {} must diverge",
        sc.name,
        kind.label()
    );
    let shrunk = shrink(sc, 1, kind, mutation).expect("divergence must shrink");
    assert!(
        shrunk.to_events <= 10,
        "reproducer for {} must be <= 10 events, got {} ({:?})",
        shrunk.code,
        shrunk.to_events,
        shrunk.scenario.events
    );
    assert!(shrunk.to_events <= shrunk.from_events);
    // The minimal scenario still reproduces under a fresh run.
    let again = check_scenario_mutated(&shrunk.scenario, 1, kind, mutation);
    assert!(
        again.unexplained.iter().any(|d| d.code == shrunk.code),
        "shrunk scenario must still show {}",
        shrunk.code
    );
}

#[test]
fn ack_future_on_sub_is_caught_and_shrinks() {
    assert_caught_and_shrunk(
        &by_name("data_bidirectional"),
        Kind::Sub,
        Mutation::AckFuture { delta: 9_000 },
    );
}

#[test]
fn ack_future_on_mono_is_caught_and_shrinks() {
    assert_caught_and_shrunk(
        &by_name("data_bidirectional"),
        Kind::Mono,
        Mutation::AckFuture { delta: 9_000 },
    );
}

#[test]
fn dropped_challenge_acks_are_caught() {
    // Swallowing pure acks kills the RFC 5961 challenge the oracle
    // demands after an in-window RST (and the handshake ack before it).
    assert_caught_and_shrunk(
        &by_name("rst_in_window_client"),
        Kind::Sub,
        Mutation::DropPureAcks,
    );
    assert_caught_and_shrunk(
        &by_name("rst_in_window_client"),
        Kind::Mono,
        Mutation::DropPureAcks,
    );
}

#[test]
fn mutated_run_is_replayable_from_its_artifact() {
    // The divergence is portable: the artifact alone reproduces the
    // mutant's exact transmissions.
    let sc = by_name("data_c2s_small");
    let m = Mutation::AckFuture { delta: 9_000 };
    let run = run_kind(Kind::Sub, &sc, 1, m);
    let art = artifact::render(sc.name, &run, Side::Client, m);
    let n = artifact::replay(&art).expect("artifact must replay byte-for-byte");
    assert!(n > 0);
}
