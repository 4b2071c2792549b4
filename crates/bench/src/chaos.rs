//! Chaos campaigns: adversarial fault schedules soaked against both the
//! sublayered and the monolithic stack.
//!
//! Each campaign is `(fault profile, stack, seed)`. The runner drives a
//! bulk transfer while the schedule injects bursts, partitions, flaps,
//! throttling and jitter, then checks the robustness invariants the
//! chaos harness exists to enforce:
//!
//! 1. **terminal** — the run ends in eventual delivery *or* a clean,
//!    surfaced abort ([`netsim::TransportError`]); never a silent hang;
//! 2. **integrity** — every byte delivered is the right byte;
//! 3. **bounded retransmits** — the wire carries at most a small multiple
//!    of the ideal frame count;
//! 4. **no deadlock** — after an abort, no timer keeps the simulator
//!    spinning;
//! 5. **expectation** — profiles designed to kill the connection abort on
//!    *both* sides, profiles designed to be survivable deliver.
//!
//! Everything is driven by the deterministic simulator: the same seed
//! produces a byte-identical JSON summary, which CI exploits.

use netsim::{two_party, AdminOp, BurstLoss, Dur, FaultProfile, LinkParams, Time, TransportError};
use slconform::{ConformStack, Kind};
use sublayer_core::SlTcpStack;
use tcp_mono::stack::TcpStack;

use crate::{json, keepalive_pair, stream_transfer, sweep_grid, Report};

/// Both stacks in the committed row order (monolith first).
pub const KINDS: [Kind; 2] = [Kind::Mono, Kind::Sub];

/// The five adversarial fault profiles of the standard sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosProfile {
    /// Gilbert–Elliott correlated burst loss.
    BurstLoss,
    /// Repeated short link outages on a slow link.
    FlappyLink,
    /// The link dies shortly after the transfer starts and never heals.
    Blackout,
    /// Bandwidth collapses to a trickle mid-transfer, plus jitter.
    ThrottleJitter,
    /// Loss + corruption + duplication + reordering + jitter at once.
    MixedMayhem,
}

impl ChaosProfile {
    pub fn all() -> [ChaosProfile; 5] {
        [
            ChaosProfile::BurstLoss,
            ChaosProfile::FlappyLink,
            ChaosProfile::Blackout,
            ChaosProfile::ThrottleJitter,
            ChaosProfile::MixedMayhem,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            ChaosProfile::BurstLoss => "burst-loss",
            ChaosProfile::FlappyLink => "flappy-link",
            ChaosProfile::Blackout => "blackout",
            ChaosProfile::ThrottleJitter => "throttle-jitter",
            ChaosProfile::MixedMayhem => "mixed-mayhem",
        }
    }

    /// Must this profile end in an abort (rather than delivery)?
    pub fn expect_abort(&self) -> bool {
        matches!(self, ChaosProfile::Blackout)
    }

    pub fn payload_len(&self) -> usize {
        match self {
            ChaosProfile::BurstLoss => 150_000,
            ChaosProfile::FlappyLink => 400_000,
            ChaosProfile::Blackout => 200_000,
            ChaosProfile::ThrottleJitter => 300_000,
            ChaosProfile::MixedMayhem => 150_000,
        }
    }

    pub fn link_params(&self) -> LinkParams {
        let base = LinkParams::delay_only(Dur::from_millis(10));
        match self {
            ChaosProfile::BurstLoss => base.with_rate(20_000_000).with_fault(
                FaultProfile::none().with_burst(BurstLoss::gilbert(0.02, 0.3, 0.9)),
            ),
            // Slow enough that the transfer spans several flap cycles.
            ChaosProfile::FlappyLink => base.with_rate(1_000_000),
            ChaosProfile::Blackout => base.with_rate(20_000_000),
            ChaosProfile::ThrottleJitter => base
                .with_rate(20_000_000)
                .with_fault(FaultProfile::none().with_jitter(Dur::from_millis(3))),
            ChaosProfile::MixedMayhem => base.with_rate(20_000_000).with_fault(
                FaultProfile::lossy(0.05)
                    .with_corrupt(0.02)
                    .with_duplicate(0.05)
                    .with_reorder(0.10, Dur::from_millis(15))
                    .with_jitter(Dur::from_millis(2)),
            ),
        }
    }

    /// The profile's admin-op schedule. The transfer is queued at t=1 s,
    /// so schedules begin shortly after.
    pub fn admin_ops(&self) -> Vec<(Time, AdminOp)> {
        let t = |ms: u64| Time::ZERO + Dur::from_millis(ms);
        match self {
            ChaosProfile::BurstLoss | ChaosProfile::MixedMayhem => Vec::new(),
            ChaosProfile::FlappyLink => {
                // 4 cycles of 2 s down / 2 s up starting at t=1.1 s.
                let mut ops = Vec::new();
                for i in 0..4u64 {
                    ops.push((t(1_100 + 4_000 * i), AdminOp::LinkDown(0)));
                    ops.push((t(3_100 + 4_000 * i), AdminOp::LinkUp(0)));
                }
                ops
            }
            ChaosProfile::Blackout => vec![(t(1_050), AdminOp::LinkDown(0))],
            ChaosProfile::ThrottleJitter => vec![
                (t(1_050), AdminOp::SetRate(0, 64_000)),
                (t(20_000), AdminOp::SetRate(0, 20_000_000)),
            ],
        }
    }
}

/// One campaign's result plus any invariant violations.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    pub profile: &'static str,
    pub stack: &'static str,
    pub seed: u64,
    pub payload: usize,
    pub delivered: usize,
    pub complete: bool,
    pub client_error: Option<TransportError>,
    pub server_error: Option<TransportError>,
    pub sim_ms: u64,
    pub wire_frames: u64,
    pub partition_drops: u64,
    pub violations: Vec<String>,
}

impl CampaignOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run one `(profile, stack, seed)` campaign and judge its invariants.
pub fn run_campaign(profile: ChaosProfile, kind: Kind, seed: u64) -> CampaignOutcome {
    let payload: Vec<u8> = (0..profile.payload_len())
        .map(|i| (i % 251) as u8)
        .collect();
    let out = run_raw(
        kind,
        seed,
        &payload,
        profile.link_params(),
        &profile.admin_ops(),
        profile.name(),
    );
    judge(profile, out)
}

/// Run an arbitrary campaign (any payload, link, admin schedule) without
/// profile-expectation judging — the raw material for property tests.
/// Only the universal invariants (hang, integrity, bounded retransmits,
/// post-abort idleness) are checked.
pub fn run_raw(
    kind: Kind,
    seed: u64,
    payload: &[u8],
    params: LinkParams,
    ops: &[(Time, AdminOp)],
    name: &'static str,
) -> CampaignOutcome {
    match kind {
        Kind::Mono => run::<TcpStack>(seed, payload, params, ops, name),
        Kind::Sub => run::<SlTcpStack>(seed, payload, params, ops, name),
    }
}

/// Universal invariants, checked by every runner regardless of profile.
fn check_universal(out: &mut CampaignOutcome, idle: bool, got: &[u8], payload: &[u8]) {
    let aborted = out.client_error.is_some();
    if !out.complete && !aborted {
        out.violations
            .push("hung: neither delivered nor aborted within patience".into());
    }
    if got != &payload[..got.len().min(payload.len())] || got.len() > payload.len() {
        out.violations.push("integrity: delivered bytes differ".into());
    }
    let bound = (out.payload as u64 / 1_000) * 10 + 5_000;
    if out.wire_frames > bound {
        out.violations.push(format!(
            "unbounded retransmits: {} wire frames > {}",
            out.wire_frames, bound
        ));
    }
    if aborted && !out.complete && !idle {
        out.violations
            .push("deadlock: simulator still busy after abort".into());
    }
}

/// Profile-expectation judging on top of the universal checks.
fn judge(profile: ChaosProfile, mut out: CampaignOutcome) -> CampaignOutcome {
    if profile.expect_abort() {
        if out.complete {
            out.violations.push("expected abort but delivered".into());
        }
        if out.client_error.is_none() || out.server_error.is_none() {
            out.violations.push(format!(
                "expected surfaced aborts on both sides, got client={:?} server={:?}",
                out.client_error, out.server_error
            ));
        }
    } else if !out.complete {
        out.violations.push(format!(
            "expected delivery, got {}/{} (client={:?})",
            out.delivered, out.payload, out.client_error
        ));
    }
    out
}

fn run<H: ConformStack>(
    seed: u64,
    payload: &[u8],
    params: LinkParams,
    ops: &[(Time, AdminOp)],
    name: &'static str,
) -> CampaignOutcome {
    let (c, s, conn) = keepalive_pair::<H>();
    let (mut net, nc, ns) = two_party(seed, c, s, params);
    for (at, op) in ops {
        net.schedule_admin(*at, op.clone());
    }
    let t = stream_transfer::<H>(&mut net, (nc, conn), ns, payload, |_| {});
    let idle = net.is_idle();
    let d0 = net.link_dir_stats(0, 0);
    let d1 = net.link_dir_stats(0, 1);
    let stack = |id| &net.node::<netsim::StackNode<H>>(id).stack;
    let mut out = CampaignOutcome {
        profile: name,
        stack: H::KIND.label(),
        seed,
        payload: payload.len(),
        delivered: t.got.len(),
        complete: t.complete,
        client_error: stack(nc).conn_error(conn),
        server_error: t.sconn.and_then(|id| stack(ns).conn_error(id)),
        sim_ms: t.sim_ms,
        wire_frames: d0.tx_frames + d1.tx_frames,
        partition_drops: d0.partition_drops + d1.partition_drops,
        violations: Vec::new(),
    };
    check_universal(&mut out, idle, &t.got, payload);
    out
}

/// Deterministic JSON for one outcome (stable field order, integers
/// only — byte-identical for identical seeds).
pub fn outcome_json(o: &CampaignOutcome) -> String {
    json::obj(&[
        ("profile", json::str(o.profile)),
        ("stack", json::str(o.stack)),
        ("seed", o.seed.to_string()),
        ("payload", o.payload.to_string()),
        ("delivered", o.delivered.to_string()),
        ("complete", o.complete.to_string()),
        ("client_error", json::opt_err(o.client_error)),
        ("server_error", json::opt_err(o.server_error)),
        ("sim_ms", o.sim_ms.to_string()),
        ("wire_frames", o.wire_frames.to_string()),
        ("partition_drops", o.partition_drops.to_string()),
        ("violations", json::strs(&o.violations)),
    ])
}

/// The whole sweep as one JSON document.
pub fn summary_json(outs: &[CampaignOutcome]) -> String {
    let rows: Vec<String> = outs.iter().map(outcome_json).collect();
    let violations = outs.iter().map(|o| o.violations.len()).sum();
    crate::sweep_json("campaigns", &rows, None, violations)
}

/// The campaign: five profiles x five seeds x both stacks (50 runs);
/// smoke is blackout + mixed-mayhem on one seed.
pub fn report(smoke: bool) -> Report {
    let (profiles, seeds): (&[ChaosProfile], &[u64]) = if smoke {
        (&[ChaosProfile::Blackout, ChaosProfile::MixedMayhem], &[1])
    } else {
        (&ChaosProfile::all(), &[1, 2, 3, 4, 5])
    };
    let outs = sweep_grid(profiles, &KINDS, seeds, run_campaign);
    Report::sweep(
        summary_json(&outs),
        vec![
            "profile", "stack", "seed", "delivered", "client err", "server err", "sim s",
            "frames", "verdict",
        ],
        outs
            .iter()
            .map(|o| {
                vec![
                    o.profile.to_string(),
                    o.stack.to_string(),
                    o.seed.to_string(),
                    format!("{}/{}", o.delivered, o.payload),
                    crate::err_cell(o.client_error),
                    crate::err_cell(o.server_error),
                    format!("{:.1}", o.sim_ms as f64 / 1000.0),
                    o.wire_frames.to_string(),
                    crate::verdict(&o.violations),
                ]
            })
            .collect(),
        outs
            .iter()
            .flat_map(|o| {
                crate::tagged(format!("{} {} seed={}", o.profile, o.stack, o.seed), &o.violations)
            })
            .collect(),
    )
}
