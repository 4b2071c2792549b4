//! Workspace-level chaos tests: the campaign harness's own guarantees.
//!
//! * the blackout campaign surfaces a clean abort in BOTH stacks (no
//!   hang, both ends learn why the connection died);
//! * identical seeds reproduce byte-identical JSON summaries;
//! * every standard profile passes its invariants;
//! * property test: arbitrary fault profiles, admin schedules and
//!   payloads never panic either stack — every run ends in delivery or a
//!   surfaced abort, with only correct bytes delivered.

use bench::chaos::{run_campaign, run_raw, summary_json, ChaosProfile};
use bench::{sweep_grid, KINDS};
use netsim::{AdminOp, BurstLoss, Dur, FaultProfile, LinkParams, Time};

#[test]
fn blackout_surfaces_abort_in_both_stacks() {
    for stack in KINDS {
        let o = run_campaign(ChaosProfile::Blackout, stack, 1);
        assert!(o.ok(), "{stack:?}: {:?}", o.violations);
        assert!(!o.complete, "{stack:?} delivered through a dead link?");
        assert!(o.client_error.is_some(), "{stack:?}: no client error");
        assert!(o.server_error.is_some(), "{stack:?}: no server error");
        assert!(o.partition_drops > 0);
    }
}

#[test]
fn identical_seeds_reproduce_identical_json() {
    let profiles = [ChaosProfile::Blackout, ChaosProfile::MixedMayhem];
    let a = summary_json(&sweep_grid(&profiles, &KINDS, &[3], run_campaign));
    let b = summary_json(&sweep_grid(&profiles, &KINDS, &[3], run_campaign));
    assert_eq!(a, b, "chaos campaigns must be replayable byte-for-byte");
    assert!(a.contains("\"violations\":0"));
}

#[test]
fn every_profile_passes_for_a_fresh_seed() {
    for o in sweep_grid(&ChaosProfile::all(), &KINDS, &[77], run_campaign) {
        assert!(o.ok(), "{}/{} seed {}: {:?}", o.profile, o.stack, o.seed, o.violations);
    }
}

proptest::proptest! {
    #[test]
    fn prop_arbitrary_chaos_never_hangs_or_corrupts(
        seed in proptest::num::u32::ANY,
        payload_len in 0usize..16_000,
        drop_m in 0u32..250,          // permille
        corrupt_m in 0u32..50,
        dup_m in 0u32..200,
        reorder_m in 0u32..200,
        reorder_delay_ms in 1u64..30,
        jitter_ms in 0u64..10,
        with_burst in proptest::bool::ANY,
        burst_enter_m in 1u32..30,
        burst_loss_m in 0u32..500,
        sched_kind in 0u8..3,         // 0 none, 1 flaps, 2 blackout
        t0_ms in 200u64..5_000,
        down_ms in 200u64..4_000,
        up_ms in 1_000u64..8_000,
    ) {
        let mut fault = FaultProfile::lossy(drop_m as f64 / 1000.0)
            .with_corrupt(corrupt_m as f64 / 1000.0)
            .with_duplicate(dup_m as f64 / 1000.0)
            .with_reorder(reorder_m as f64 / 1000.0, Dur::from_millis(reorder_delay_ms))
            .with_jitter(Dur::from_millis(jitter_ms));
        if with_burst {
            fault = fault.with_burst(BurstLoss::gilbert(
                burst_enter_m as f64 / 1000.0,
                0.3,
                burst_loss_m as f64 / 1000.0,
            ));
        }
        proptest::prop_assert!(fault.validate().is_ok(), "generator built an invalid profile");
        let params = LinkParams::delay_only(Dur::from_millis(10))
            .with_rate(5_000_000)
            .with_fault(fault);

        let t = |ms: u64| Time::ZERO + Dur::from_millis(ms);
        let ops: Vec<(Time, AdminOp)> = match sched_kind {
            1 => vec![
                (t(t0_ms), AdminOp::LinkDown(0)),
                (t(t0_ms + down_ms), AdminOp::LinkUp(0)),
                (t(t0_ms + down_ms + up_ms), AdminOp::LinkDown(0)),
                (t(t0_ms + 2 * down_ms + up_ms), AdminOp::LinkUp(0)),
            ],
            2 => vec![(t(t0_ms), AdminOp::LinkDown(0))],
            _ => Vec::new(),
        };

        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        for stack in KINDS {
            let o = run_raw(stack, seed as u64, &payload, params.clone(), &ops, "prop");
            proptest::prop_assert!(
                o.violations.is_empty(),
                "{:?} seed {seed}: {:?}", stack, o.violations
            );
            proptest::prop_assert!(
                o.complete || o.client_error.is_some(),
                "{:?} seed {seed}: neither delivered nor aborted", stack
            );
        }
    }
}
