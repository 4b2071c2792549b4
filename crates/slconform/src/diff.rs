//! The differential layer: run both stacks, judge both traces with the
//! oracle, compare outcomes across stacks, and filter *documented* benign
//! divergences through the allowlist.
//!
//! The allowlist discipline (conformance audit): a divergence is either
//! **fixed** (the stacks are aligned — e.g. the monolith's CLOSE_WAIT now
//! reads as established through the parity surface, matching the
//! sublayered CM's half-close model) or **registered here with a written
//! rationale**. The oracle itself is never loosened to make a stack pass.

use crate::driver::{run_kind, Mutation, RunOut};
use crate::wire::Kind;
use crate::scenario::Scenario;

/// One detected divergence: a stable machine-checkable code plus a
/// human-readable detail line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    pub code: String,
    pub detail: String,
}

/// A documented benign divergence.
pub struct Allow {
    pub id: &'static str,
    /// Divergence codes this entry absorbs (prefix match).
    pub code_prefix: &'static str,
    /// Restrict to scenarios whose name starts with this (`None` = any).
    pub scenario: Option<&'static str>,
    /// Only applies when the scenario impairs the link (fault profile or
    /// a scripted outage) — a clean-link hit is still a failure.
    pub only_impaired: bool,
    pub rationale: &'static str,
}

/// Does the scenario impair frame delivery at all?
fn impaired(sc: &Scenario) -> bool {
    sc.link.fault != crate::scenario::FaultKind::None
        || sc.events.iter().any(|(_, e)| matches!(e, crate::scenario::Ev::LinkDown))
}

/// The registered allowlist. Every entry documents *why* the divergence
/// is benign; `exp conform` reports per-entry hit counts so dead entries
/// are visible.
pub fn allowlist() -> &'static [Allow] {
    &[
        Allow {
            id: "AL-1-progress-under-impairment",
            code_prefix: "delivered.len:",
            scenario: None,
            only_impaired: true,
            rationale: "Loss/reorder/duplication are applied per frame by the \
                        deterministic fault injector; the two stacks emit different \
                        frame sequences (segmentation, ack cadence, RTO schedule), so \
                        the same impairment rate kills different frames. Delivered-byte \
                        *content* must still agree as a common prefix and integrity \
                        must hold — only the progress count at the observation instant \
                        may differ, and only on impaired links.",
        },
        Allow {
            id: "AL-2-err-class-under-outage",
            code_prefix: "outcome.error:",
            scenario: Some("handshake_timeout"),
            only_impaired: true,
            rationale: "When the link never comes back, both stacks must abort the \
                        half-open attempt; RFC 793 does not fix the error taxonomy. \
                        The sublayered stack's CM reports HandshakeFailed, the \
                        monolith folds SYN-retry exhaustion into RetriesExhausted. \
                        Both are clean local aborts with no wire traffic, so the \
                        class difference is surfaced, documented, and accepted.",
        },
        Allow {
            id: "AL-3-sws-fill-level",
            code_prefix: "delivered.len:",
            scenario: Some("zero_window"),
            only_impaired: false,
            rationale: "When the advertised window shrinks below one segment the \
                        sublayered sender waits for it to reopen (sender-side SWS \
                        avoidance, RFC 9293 \u{a7}3.8.6.2.1 lets it) while the monolith \
                        segments down to fill the window exactly. Receive buffers \
                        therefore sit a few hundred bytes apart at every zero-window \
                        stall, and the scenario cuts the transfer off mid-flight, so \
                        the delivered *count* differs by the sum of those fill gaps. \
                        Content prefix, integrity and window discipline (probe slack \
                        of one byte) are still enforced.",
        },
    ]
}

/// Everything learned from one differential scenario run.
#[derive(Debug)]
pub struct Report {
    pub scenario: String,
    pub seed: u64,
    pub sub: RunOut,
    pub mono: RunOut,
    /// Divergences not covered by the allowlist — conformance failures.
    pub unexplained: Vec<Divergence>,
    /// Divergences absorbed by an allowlist entry: `(allow id, detail)`.
    pub allowlisted: Vec<(&'static str, String)>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.unexplained.is_empty()
    }
}

/// Compare one field across kinds.
fn cmp<T: PartialEq + std::fmt::Debug>(
    out: &mut Vec<Divergence>,
    code: &str,
    sub: T,
    mono: T,
) {
    if sub != mono {
        out.push(Divergence {
            code: code.to_string(),
            detail: format!("{code} sub={sub:?} mono={mono:?}"),
        });
    }
}

fn compare_runs(sc: &Scenario, sub: &RunOut, mono: &RunOut) -> Vec<Divergence> {
    let mut d = Vec::new();
    for (side, s, m) in [
        ("client", &sub.client, &mono.client),
        ("server", &sub.server, &mono.server),
    ] {
        cmp(&mut d, &format!("outcome.established:{side}"), s.obs.established, m.obs.established);
        cmp(&mut d, &format!("outcome.closed:{side}"), s.obs.closed, m.obs.closed);
        cmp(&mut d, &format!("outcome.peer_closed:{side}"), s.obs.peer_closed, m.obs.peer_closed);
        cmp(&mut d, &format!("outcome.error:{side}"), s.obs.error, m.obs.error);
        cmp(&mut d, &format!("outcome.est_ever:{side}"), s.established_ever, m.established_ever);
        cmp(&mut d, &format!("outcome.conn_known:{side}"), s.conn_known, m.conn_known);
        cmp(&mut d, &format!("connect_err:{side}"), s.connect_err, m.connect_err);
        cmp(&mut d, &format!("delivered.len:{side}"), s.delivered.len(), m.delivered.len());
        // Whatever both delivered must agree byte-for-byte.
        let common = s.delivered.len().min(m.delivered.len());
        if s.delivered[..common] != m.delivered[..common] {
            d.push(Divergence {
                code: format!("delivered.bytes:{side}"),
                detail: format!("delivered.bytes:{side} first {common} bytes differ across stacks"),
            });
        }
    }
    let _ = sc;
    d
}

/// Per-run integrity: delivered bytes must be a prefix of what the peer's
/// application queued (no corruption, reordering, or invention).
fn integrity(run: &RunOut) -> Vec<Divergence> {
    let mut d = Vec::new();
    let kind = run.kind.label();
    for (side, ep, peer) in [
        ("client", &run.client, &run.server),
        ("server", &run.server, &run.client),
    ] {
        let got = &ep.delivered;
        let sent = &peer.queued;
        let ok = got.len() <= sent.len() && *got.as_slice() == sent[..got.len()];
        if !ok {
            d.push(Divergence {
                code: format!("integrity:{kind}:{side}"),
                detail: format!(
                    "integrity:{kind}:{side} delivered {} bytes that are not a prefix of the {} queued",
                    got.len(),
                    sent.len()
                ),
            });
        }
    }
    d
}

fn oracle_judgments(sc: &Scenario, run: &RunOut) -> Vec<Divergence> {
    let kind = run.kind.label();
    let mut d = Vec::new();
    for (side, ep, active) in [
        ("client", &run.client, true),
        ("server", &run.server, sc.server_connects),
    ] {
        for msg in crate::oracle::check_endpoint(ep, active, &format!("{kind}:{side}")) {
            d.push(Divergence { code: format!("oracle:{kind}:{side}"), detail: msg });
        }
    }
    d
}

fn apply_allowlist(
    sc: &Scenario,
    found: Vec<Divergence>,
) -> (Vec<Divergence>, Vec<(&'static str, String)>) {
    let mut unexplained = Vec::new();
    let mut allowed = Vec::new();
    'next: for div in found {
        for a in allowlist() {
            let scen_ok = a.scenario.is_none_or(|s| sc.name.starts_with(s));
            let impair_ok = !a.only_impaired || impaired(sc);
            if scen_ok && impair_ok && div.code.starts_with(a.code_prefix) {
                allowed.push((a.id, div.detail));
                continue 'next;
            }
        }
        unexplained.push(div);
    }
    (unexplained, allowed)
}

/// Run `sc` against both stacks with the same seed and judge everything.
pub fn check_scenario(sc: &Scenario, seed: u64) -> Report {
    check_scenario_mutated(sc, seed, Kind::Sub, Mutation::None)
}

/// Same, with a seeded client-side mutation applied to `mut_kind`'s run —
/// the harness's own mutation tests use this to prove divergences are
/// caught and shrink.
pub fn check_scenario_mutated(
    sc: &Scenario,
    seed: u64,
    mut_kind: Kind,
    mutation: Mutation,
) -> Report {
    let sub = run_kind(
        Kind::Sub,
        sc,
        seed,
        if mut_kind == Kind::Sub { mutation } else { Mutation::None },
    );
    let mono = run_kind(
        Kind::Mono,
        sc,
        seed,
        if mut_kind == Kind::Mono { mutation } else { Mutation::None },
    );
    let mut found = Vec::new();
    found.extend(oracle_judgments(sc, &sub));
    found.extend(oracle_judgments(sc, &mono));
    found.extend(integrity(&sub));
    found.extend(integrity(&mono));
    found.extend(compare_runs(sc, &sub, &mono));
    let (unexplained, allowlisted) = apply_allowlist(sc, found);
    Report {
        scenario: sc.name.to_string(),
        seed,
        sub,
        mono,
        unexplained,
        allowlisted,
    }
}
