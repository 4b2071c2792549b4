//! `BENCHMARK.json` and the registry say the same thing, within the limits
//! the benchmark contract sets.

use slbench::report::{self, END_TO_END, PER_LAYER};
use slbench::workloads;
use std::collections::HashSet;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

#[test]
fn the_committed_manifest_is_the_registry() {
    report::check_manifest(MANIFEST).unwrap();
}

#[test]
fn a_manifest_that_lacks_a_metric_is_refused() {
    let without = MANIFEST.replacen("\"rd.on_packet_ns\"", "\"rd.renamed_ns\"", 1);
    let err = report::check_manifest(&without).unwrap_err();
    assert!(err.contains("rd.on_packet_ns"), "{err}");
}

#[test]
fn names_units_and_counts_fit_the_contract() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((2..=8).contains(&workloads::ALL.len()));
    let ok_name = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let ok_unit = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = HashSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(ok_name(d.name), "{}", d.name);
        assert!(ok_unit(d.unit), "{} unit {}", d.name, d.unit);
        assert!(seen.insert(d.name), "{} is listed twice", d.name);
    }
    for d in END_TO_END {
        assert!(
            d.bound > 0.0 && d.bound <= 0.25,
            "{} bound {}",
            d.name,
            d.bound
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", report::Better::Lower));
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    for w in workloads::ALL {
        assert!(
            ok_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
            "{}",
            w.name
        );
        assert!(seen.insert(w.name));
    }
    for name in report::EXACT {
        assert!(report::def(name).is_some(), "{name}");
    }
    assert!(MANIFEST.len() <= 64 * 1024);
}
