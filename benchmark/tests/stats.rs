//! Median and percentile helpers against a sorted oracle.

use netsim::DetRng;
use slbench::stats::{median, quantile, Hist};

/// The textbook definition on a sorted copy: linear interpolation between
/// the two nearest ranks.
fn oracle(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[test]
fn quantiles_match_the_sorted_oracle() {
    let mut rng = DetRng::new(11);
    for n in [1usize, 2, 3, 10, 21, 100, 1001] {
        let samples: Vec<f64> = (0..n).map(|_| rng.unit_f64() * 1e6).collect();
        for q in [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            assert_eq!(
                quantile(&samples, q),
                Some(oracle(&samples, q)),
                "n {n} q {q}"
            );
        }
        assert_eq!(median(&samples), quantile(&samples, 0.5));
    }
}

#[test]
fn known_small_cases() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[4.0]), Some(4.0));
    assert_eq!(median(&[1.0, 3.0]), Some(2.0));
    assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    assert_eq!(quantile(&[0.0, 10.0], 0.95), Some(9.5));
    // The input is left unsorted.
    let v = [3.0, 1.0, 2.0];
    let _ = median(&v);
    assert_eq!(v, [3.0, 1.0, 2.0]);
}

#[test]
fn histogram_quantiles_stay_within_a_bucket_of_the_oracle() {
    let mut rng = DetRng::new(5);
    // Durations from tens of ns to tens of ms, like a traced run's.
    let samples: Vec<u64> = (0..50_000)
        .map(|_| (rng.exp(1.0) * 4_000.0) as u64 + rng.below(60))
        .collect();
    let mut h = Hist::default();
    samples.iter().for_each(|&v| h.record(v));
    assert_eq!(h.count(), samples.len() as u64);
    let exact: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
    for q in [0.05, 0.5, 0.9, 0.99] {
        let (got, want) = (h.quantile(q).unwrap(), oracle(&exact, q));
        assert!(
            (got - want).abs() <= 0.04 * want + 1.0,
            "q {q}: histogram {got}, exact {want}"
        );
    }
    assert_eq!(Hist::default().quantile(0.5), None);
}
