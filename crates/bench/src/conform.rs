//! E17 — differential conformance sweep (`exp conform`).
//!
//! Runs the whole `slconform` corpus against **both** stacks across
//! multiple seeds, demanding zero unexplained divergences; reports
//! per-allowlist-entry hit counts (so dead entries are visible); and
//! fires two mutation canaries — deliberately buggy endpoints that the
//! harness must not only catch but shrink to a ≤ 10-event reproducer —
//! proving the detector is alive, not just quiet.

use std::collections::BTreeMap;

use slconform::driver::Mutation;
use slconform::Kind;
use slconform::{allowlist, check_scenario, corpus, shrink};

use crate::{json, Report};

/// One `scenario × seed` differential run (each run drives both stacks).
pub struct ConformOut {
    pub scenario: String,
    pub seed: u64,
    pub frames_sub: usize,
    pub frames_mono: usize,
    pub delivered_sub: usize,
    pub delivered_mono: usize,
    /// Unexplained divergences — conformance failures.
    pub unexplained: Vec<String>,
    /// Divergences absorbed by the allowlist: `(entry id, detail)`.
    pub allowlisted: Vec<(&'static str, String)>,
}

/// Seeds for the sweep: the acceptance bar is ≥ 3 seeds; `--smoke` keeps
/// CI fast with one.
pub fn seeds(smoke: bool) -> &'static [u64] {
    if smoke {
        &[1]
    } else {
        &[1, 2, 3]
    }
}

/// Run the full corpus × seeds. Every run is `sub` vs `mono` vs oracle.
pub fn sweep(smoke: bool) -> Vec<ConformOut> {
    let mut outs = Vec::new();
    for sc in corpus() {
        for &seed in seeds(smoke) {
            let rep = check_scenario(&sc, seed);
            outs.push(ConformOut {
                scenario: sc.name.to_string(),
                seed,
                frames_sub: rep.sub.client.abs.len() + rep.sub.server.abs.len(),
                frames_mono: rep.mono.client.abs.len() + rep.mono.server.abs.len(),
                delivered_sub: rep.sub.client.delivered.len()
                    + rep.sub.server.delivered.len(),
                delivered_mono: rep.mono.client.delivered.len()
                    + rep.mono.server.delivered.len(),
                unexplained: rep.unexplained.iter().map(|d| d.detail.clone()).collect(),
                allowlisted: rep.allowlisted.clone(),
            });
        }
    }
    outs
}

/// Hit counts for every registered allowlist entry — zero-hit entries are
/// listed too, so a dead entry shows up in the report instead of rotting.
pub fn allow_hits(outs: &[ConformOut]) -> Vec<(&'static str, usize)> {
    let mut counts: BTreeMap<&'static str, usize> =
        allowlist().iter().map(|a| (a.id, 0)).collect();
    for o in outs {
        for (id, _) in &o.allowlisted {
            *counts.entry(id).or_insert(0) += 1;
        }
    }
    counts.into_iter().collect()
}

/// One mutation canary: a deliberately non-conformant endpoint that the
/// harness must catch *and* shrink to a small reproducer.
pub struct CanaryOut {
    pub name: &'static str,
    pub scenario: &'static str,
    pub kind: Kind,
    pub caught: bool,
    pub code: String,
    pub from_events: usize,
    pub to_events: usize,
    /// Caught, and the shrunk script is within the ≤ 10-event bar.
    pub ok: bool,
}

/// Run the seeded-mutation canaries. A quiet detector is indistinguishable
/// from a broken one; these keep it honest.
pub fn canaries() -> Vec<CanaryOut> {
    let cases: [(&'static str, &'static str, Kind, Mutation); 3] = [
        (
            "ack_future_sub",
            "data_bidirectional",
            Kind::Sub,
            Mutation::AckFuture { delta: 9_000 },
        ),
        (
            "ack_future_mono",
            "data_bidirectional",
            Kind::Mono,
            Mutation::AckFuture { delta: 9_000 },
        ),
        (
            "dropped_challenge_acks",
            "rst_in_window_client",
            Kind::Sub,
            Mutation::DropPureAcks,
        ),
    ];
    let corpus = corpus();
    cases
        .into_iter()
        .map(|(name, scenario, kind, mutation)| {
            let sc = corpus
                .iter()
                .find(|s| s.name == scenario)
                .expect("canary scenario in corpus");
            match shrink(sc, 1, kind, mutation) {
                Some(s) => CanaryOut {
                    name,
                    scenario,
                    kind,
                    caught: true,
                    code: s.code.clone(),
                    from_events: s.from_events,
                    to_events: s.to_events,
                    ok: s.to_events <= 10,
                },
                None => CanaryOut {
                    name,
                    scenario,
                    kind,
                    caught: false,
                    code: String::new(),
                    from_events: sc.events.len(),
                    to_events: 0,
                    ok: false,
                },
            }
        })
        .collect()
}

/// Deterministic JSON summary (stable key order, no timestamps) — the CI
/// determinism job runs the binary twice and diffs this byte-for-byte.
pub fn summary_json(outs: &[ConformOut], canaries: &[CanaryOut]) -> String {
    let scenarios: std::collections::BTreeSet<&str> =
        outs.iter().map(|o| o.scenario.as_str()).collect();
    let unexplained: Vec<String> = outs
        .iter()
        .flat_map(|o| {
            o.unexplained
                .iter()
                .map(move |d| format!("[{} seed={}] {d}", o.scenario, o.seed))
        })
        .collect();
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"E17-conformance\",\n");
    s.push_str(&format!("  \"scenarios\": {},\n", scenarios.len()));
    s.push_str(&format!("  \"runs\": {},\n", outs.len()));
    s.push_str(&format!(
        "  \"seeds\": [{}],\n",
        outs.iter()
            .map(|o| o.seed)
            .collect::<std::collections::BTreeSet<u64>>()
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!("  \"unexplained\": {},\n", unexplained.len()));
    s.push_str("  \"unexplained_details\": [");
    s.push_str(
        &unexplained.iter().map(|d| json::str(d)).collect::<Vec<_>>().join(", "),
    );
    s.push_str("],\n");
    s.push_str("  \"allowlist_hits\": {");
    s.push_str(
        &allow_hits(outs)
            .iter()
            .map(|(id, n)| format!("{}: {n}", json::str(id)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    s.push_str("},\n");
    s.push_str("  \"canaries\": [\n");
    let rows: Vec<String> = canaries
        .iter()
        .map(|c| {
            format!(
                "    {{\"name\": {}, \"caught\": {}, \"code\": {}, \
                 \"shrunk_events\": {}, \"ok\": {}}}",
                json::str(c.name),
                c.caught,
                json::str(&c.code),
                c.to_events,
                c.ok
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}");
    s
}

/// The campaign: the corpus [`sweep`] plus the mutation [`canaries`]. A
/// violation is an unexplained divergence or a canary that escaped (or
/// did not shrink to ≤ 10 events).
pub fn report(smoke: bool) -> Report {
    let outs = sweep(smoke);
    let canaries = canaries();
    Report::sweep(
        summary_json(&outs, &canaries),
        vec!["scenario", "seed", "frames s/m", "bytes s/m", "allow", "diverge"],
        outs
            .iter()
            .map(|o| {
                vec![
                    o.scenario.clone(),
                    o.seed.to_string(),
                    format!("{}/{}", o.frames_sub, o.frames_mono),
                    format!("{}/{}", o.delivered_sub, o.delivered_mono),
                    o.allowlisted.first().map_or("-".into(), |(id, _)| id.to_string()),
                    o.unexplained.len().to_string(),
                ]
            })
            .collect(),
        outs
            .iter()
            .flat_map(|o| crate::tagged(format!("{} seed={}", o.scenario, o.seed), &o.unexplained))
            .chain(canaries.iter().filter(|c| !c.ok).map(|c| {
                format!(
                    "[canary {} on {:?}] caught={} shrunk {} -> {} events",
                    c.name, c.kind, c.caught, c.from_events, c.to_events
                )
            }))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_clean_and_covers_the_corpus() {
        let outs = sweep(true);
        assert!(outs.len() >= 25, "corpus must cover ≥ 25 scenarios");
        let bad: Vec<_> = outs.iter().filter(|o| !o.unexplained.is_empty()).collect();
        assert!(
            bad.is_empty(),
            "unexplained divergences: {:?}",
            bad.iter()
                .map(|o| (&o.scenario, o.seed, &o.unexplained))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn canaries_catch_and_shrink() {
        for c in canaries() {
            assert!(c.caught, "{}: mutation not caught", c.name);
            assert!(c.ok, "{}: shrunk to {} events (> 10)", c.name, c.to_events);
        }
    }

    #[test]
    fn summary_json_is_deterministic() {
        let outs = sweep(true);
        let cans = canaries();
        let a = summary_json(&outs, &cans);
        let b = summary_json(&sweep(true), &canaries());
        assert_eq!(a, b);
        assert!(a.contains("\"E17-conformance\""));
    }
}
