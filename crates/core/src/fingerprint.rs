//! Deterministic state fingerprints for the contract drivers.
//!
//! Each sublayer exposes a `contract_key() -> Vec<u64>`, and its driver
//! trait (`DmDriver`, …) repeats it. `slverify::Keyed` holds the machine a
//! contract drives together with this function: the key is the machine's
//! identity in every checker state, recomputed after every drive step —
//! exactly as `slcc::RateController::state_key` keys a controller. The
//! same promise applies: **equal fingerprints must imply behaviorally
//! identical sublayers** under the contract's drive alphabet. The folds
//! here are fixed-constant FNV-style mixes — no per-process seeding — so
//! state counts (and the JSON benchmarks derived from them) are
//! byte-identical across runs.

/// FNV-1a style 64-bit fold step.
pub fn mix(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Fold a byte slice into a single word (content-distinguishing, so the
/// OSR contract can tell reordered streams apart, not just resized ones).
pub fn fold_bytes(mut acc: u64, bytes: &[u8]) -> u64 {
    acc = mix(acc, bytes.len() as u64);
    for &b in bytes {
        acc = mix(acc, b as u64);
    }
    acc
}

/// Fold an iterator of words.
pub fn fold(mut acc: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        acc = mix(acc, w);
    }
    acc
}

/// The conventional fold seed (FNV offset basis).
pub const SEED: u64 = 0xcbf2_9ce4_8422_2325;
