//! E22 — compositional sublayer contracts: the assume/guarantee chain vs
//! the fused product.
//!
//! Runs the four `slverify::contracts` models against the **real**
//! `sublayer-core` sublayers, composes them into the end-to-end proof,
//! and measures the proof-effort gap against three fused arms:
//!
//! * the workspace's original fused model (`slverify::Combined`, the
//!   handshake × window product from E6) — the historical comparison arm;
//! * an *explored* product of two contract models
//!   (`Product<DmContract, OsrContract>`) — the multiplicative cost paid
//!   the moment two sublayers are verified as one machine;
//! * the *estimated* four-way product (per-contract state counts
//!   multiplied) — what a monolithic proof of the whole chain would face.
//!
//! Also re-runs the four mutation canaries (each must be caught by the
//! contract owning the broken obligation) and the `slconform`
//! codec-equivalence certificate, so `BENCH_contracts.json` is a single
//! deterministic artifact for the whole E22 claim set.

use crate::{json, Report};
use slconform::codec_equiv;
use slverify::{check, ContractRun, DmContract, OsrContract, Product};
use sublayer_core::{Demux, Osr};

/// Cap per individual contract exploration — far above any of the spaces.
const CAP: usize = 2_000_000;

/// One contract's exploration, flattened for reporting.
#[derive(Clone, Debug)]
pub struct ContractRow {
    pub sublayer: &'static str,
    pub assumes: Vec<&'static str>,
    pub guarantees: Vec<&'static str>,
    pub states: usize,
    pub transitions: usize,
    pub depth: usize,
    pub proved: bool,
}

/// One canary's refutation.
#[derive(Clone, Debug)]
pub struct CanaryRow {
    pub sublayer: &'static str,
    pub steps: usize,
    pub actions: Vec<&'static str>,
    pub reason: String,
}

/// Everything E22 reports.
#[derive(Clone, Debug)]
pub struct ContractsOut {
    pub rows: Vec<ContractRow>,
    /// The derived end-to-end property, or the composition error.
    pub derived: Result<String, String>,
    pub sum_states: usize,
    /// Estimated monolithic cost: product of the four contract spaces.
    pub fused_estimate: u128,
    /// The historical fused arm (E6's handshake × window product).
    pub combined_states: usize,
    /// An explored two-way product of contract models.
    pub product_dm_osr_states: usize,
    pub canaries: Vec<CanaryRow>,
    /// Codec-equivalence certificate (words, transitions), or the refusal.
    pub codec: Result<(usize, usize), String>,
    /// Aggregated failures: anything here fails the experiment.
    pub violations: Vec<String>,
}

fn contract_row(run: &ContractRun) -> ContractRow {
    let (spec, r) = (run.spec(), run.result());
    ContractRow {
        sublayer: spec.sublayer,
        assumes: spec.assumes.to_vec(),
        guarantees: spec.guarantees.to_vec(),
        states: r.states,
        transitions: r.transitions,
        depth: r.max_depth,
        proved: r.ok(),
    }
}

/// Run the whole experiment. Everything is exhaustive and deterministic;
/// `_smoke` selects no smaller configuration because the full run is
/// already CI-sized (the whole point of compositional checking).
pub fn run(_smoke: bool) -> ContractsOut {
    let mut violations = Vec::new();

    // The chain, one contract at a time.
    let runs = slverify::check_chain(CAP);
    let rows: Vec<ContractRow> = runs.iter().map(contract_row).collect();
    for row in &rows {
        if !row.proved {
            violations.push(format!("contract {} did not prove", row.sublayer));
        }
    }

    // The composition theorem.
    let proof = slverify::compose(&runs);
    let (derived, sum_states, fused_estimate) = match &proof {
        Ok(p) => (Ok(p.derived.to_string()), p.sum_states, p.fused_estimate),
        Err(e) => {
            violations.push(format!("composition failed: {e}"));
            (Err(e.clone()), 0, 0)
        }
    };

    // Fused arms.
    let combined = check(
        &slverify::Combined {
            hs: slverify::Handshake { three_way: true },
            win: slverify::SlidingWindow { w: 2, s_mod: 4, n_msgs: 6 },
        },
        20_000_000,
    );
    let product =
        check(&Product::new(DmContract::new(Demux::new), OsrContract::new(Osr::new)), CAP);
    if !product.ok() {
        violations.push("explored DM x OSR product did not prove".into());
    }

    // Mutation canaries: each must be refuted by its owning contract.
    let mut canaries = Vec::new();
    for run in slverify::check_canaries(CAP) {
        let sublayer = run.spec().sublayer;
        match &run.result().violation {
            Some(v) => canaries.push(CanaryRow {
                sublayer,
                steps: v.actions.len(),
                actions: v.actions.clone(),
                reason: v.reason.clone(),
            }),
            None => violations.push(format!("canary {sublayer} escaped its contract")),
        }
    }

    // The wire-format leg: codec equivalence certificate.
    let codec = match codec_equiv::certify(CAP) {
        Ok(c) => Ok((c.words, c.transitions)),
        Err(e) => {
            violations.push(format!("codec certificate refused: {e}"));
            Err(e)
        }
    };

    ContractsOut {
        rows,
        derived,
        sum_states,
        fused_estimate,
        combined_states: combined.states,
        product_dm_osr_states: product.states,
        canaries,
        codec,
        violations,
    }
}

/// Deterministic JSON summary (byte-identical across reruns: every number
/// comes from exhaustive exploration of fixed models).
pub fn summary_json(out: &ContractsOut) -> String {
    let contracts: Vec<String> = out
        .rows
        .iter()
        .map(|r| {
            json::obj(&[
                ("sublayer", json::str(r.sublayer)),
                ("assumes", json::strs(&r.assumes)),
                ("guarantees", json::strs(&r.guarantees)),
                ("states", r.states.to_string()),
                ("transitions", r.transitions.to_string()),
                ("depth", r.depth.to_string()),
                ("proved", r.proved.to_string()),
            ])
        })
        .collect();
    let canaries: Vec<String> = out
        .canaries
        .iter()
        .map(|c| {
            json::obj(&[
                ("sublayer", json::str(c.sublayer)),
                ("steps", c.steps.to_string()),
                ("actions", json::strs(&c.actions)),
                ("reason", json::str(&c.reason)),
            ])
        })
        .collect();
    let refused = |e: &String| json::obj(&[("ok", "false".into()), ("error", json::str(e))]);
    let derived = match &out.derived {
        Ok(d) => json::obj(&[("ok", "true".into()), ("property", json::str(d))]),
        Err(e) => refused(e),
    };
    let codec = match &out.codec {
        Ok((w, t)) => json::obj(&[
            ("ok", "true".into()),
            ("words", w.to_string()),
            ("transitions", t.to_string()),
        ]),
        Err(e) => refused(e),
    };
    json::obj(&[
        ("contracts", json::rows(&contracts)),
        ("composition", derived),
        ("sum_states", out.sum_states.to_string()),
        ("fused_estimate", out.fused_estimate.to_string()),
        ("combined_states", out.combined_states.to_string()),
        ("product_dm_osr_states", out.product_dm_osr_states.to_string()),
        ("canaries", json::rows(&canaries)),
        ("codec", codec),
        ("violations", json::strs(&out.violations)),
    ])
}

/// The campaign: [`run`], one table row per contract.
pub fn report(smoke: bool) -> Report {
    let out = run(smoke);
    Report::sweep(
        summary_json(&out),
        vec![
            "contract", "assumes", "guarantees", "states", "transitions", "depth", "verdict",
        ],
        out
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.sublayer.to_string(),
                    r.assumes.join(" + "),
                    r.guarantees.join(" + "),
                    r.states.to_string(),
                    r.transitions.to_string(),
                    r.depth.to_string(),
                    if r.proved { "proved".into() } else { "FAILED".into() },
                ]
            })
            .collect(),
        out.violations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e22_is_clean_and_compositional() {
        let out = run(true);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.derived.as_deref(), Ok(slverify::E2E));
        assert_eq!(out.canaries.len(), 4);
        // The headline claim: additive cost strictly and substantially
        // below the multiplicative product.
        assert!(
            (out.sum_states as u128) * 10 < out.fused_estimate,
            "sum {} vs estimate {}",
            out.sum_states,
            out.fused_estimate
        );
        let dm = out.rows.iter().find(|r| r.sublayer == "dm").unwrap().states;
        let osr = out.rows.iter().find(|r| r.sublayer == "osr").unwrap().states;
        assert!(
            out.product_dm_osr_states > 5 * (dm + osr),
            "the explored DM x OSR product ({}) must dwarf its parts ({dm} + {osr})",
            out.product_dm_osr_states
        );
    }

    #[test]
    fn e22_json_is_deterministic() {
        let a = summary_json(&run(true));
        let b = summary_json(&run(true));
        assert_eq!(a, b);
    }
}
