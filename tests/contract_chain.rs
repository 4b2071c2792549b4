//! Property test: the E22 assume/guarantee chain holds on *randomized*
//! admissible schedules, driven through the **real** sublayer
//! implementations via the same contract models the checker explores
//! exhaustively (`slverify::contracts`).
//!
//! The schedules are exactly the models' own action alphabets — the fault
//! budget, the step bounds and every obligation constant are the
//! contracts' own (stated once in `slverify::contracts`, not duplicated
//! here) — so a schedule this test generates is by construction one the
//! assumptions admit. On shipped code no schedule may trip any contract;
//! the two teeth tests pin that the identical walker refutes the seeded
//! mutation canaries.

use slverify::{CmContract, DmContract, Model, OsrContract, RdContract, G_DM, G_OSR};
use sublayer_core::{BuggyDm, BuggyOsr, ConnMgmt, Demux, Osr, ReliableDelivery};

/// Walk `model` down one random path, checking its invariant at every
/// visited state. `picks[i]` selects (mod the enabled count) among the
/// successors the model itself offers — so the walk can only take
/// admissible steps.
fn walk<M: Model>(model: &M, picks: &[u8]) -> Result<usize, String> {
    let mut s = model
        .init()
        .into_iter()
        .next()
        .expect("every contract has an initial state");
    model.invariant(&s).map_err(|e| format!("init: {e}"))?;
    let mut visited = 1;
    for (i, &p) in picks.iter().enumerate() {
        let succs = model.next(&s);
        if succs.is_empty() {
            break;
        }
        let n = succs.len();
        let (label, ns) = succs.into_iter().nth(p as usize % n).expect("index in range");
        model.invariant(&ns).map_err(|e| format!("step {i} ({label}): {e}"))?;
        s = ns;
        visited += 1;
    }
    Ok(visited)
}

proptest::proptest! {
    #[test]
    fn prop_shipped_dm_contract_never_trips(
        picks in proptest::collection::vec(proptest::num::u8::ANY, 0..32),
    ) {
        if let Err(why) = walk(&DmContract::new(Demux::new), &picks) {
            proptest::prop_assert!(false, "{}", why);
        }
    }

    #[test]
    fn prop_shipped_cm_contract_never_trips(
        picks in proptest::collection::vec(proptest::num::u8::ANY, 0..32),
    ) {
        if let Err(why) = walk(&CmContract::new(ConnMgmt::open_active), &picks) {
            proptest::prop_assert!(false, "{}", why);
        }
    }

    #[test]
    fn prop_shipped_rd_contract_never_trips(
        picks in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
    ) {
        if let Err(why) = walk(&RdContract::new(ReliableDelivery::new), &picks) {
            proptest::prop_assert!(false, "{}", why);
        }
    }

    #[test]
    fn prop_shipped_osr_contract_never_trips(
        picks in proptest::collection::vec(proptest::num::u8::ANY, 0..16),
    ) {
        if let Err(why) = walk(&OsrContract::new(Osr::new), &picks) {
            proptest::prop_assert!(false, "{}", why);
        }
    }
}

#[test]
fn the_walker_has_teeth_on_the_dm_canary() {
    // The same walker, pointed at the seeded double-admission mutation,
    // refutes it on the pinned two-step schedule.
    let why = walk(&DmContract::new(BuggyDm::new), &[0, 0]).expect_err("BuggyDm must trip");
    assert!(why.contains(G_DM), "{why}");
}

#[test]
fn the_walker_has_teeth_on_the_osr_canary() {
    // Successor index 1 from the initial state is `deliver_seg1`: a
    // gapped delivery the mutation releases to the application.
    let why = walk(&OsrContract::new(BuggyOsr::new), &[1]).expect_err("BuggyOsr must trip");
    assert!(why.contains(G_OSR), "{why}");
}
