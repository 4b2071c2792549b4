//! Seeded fxhash-style 4-tuple mixing — the one hash shared by the demux
//! tables in both stacks and the `slshard` shard router.
//!
//! The demux sublayer is stateless about *how* a tuple maps to a bucket, so
//! the same mix can pick a `HashMap` slot on one host and a shard index on
//! another and a tuple always lands in the same place. The mix is the
//! Firefox/rustc "fx" multiply-rotate step (word-at-a-time, no lookup
//! tables, ~1ns per tuple) with two twists the stock fxhash lacks:
//!
//! 1. a **seed**, so distinct hosts/runs can perturb bucket placement
//!    (hash-flood hardening without SipHash's cost), and
//! 2. a final xor-shift **avalanche**, so the *low* bits — the ones
//!    `HashMap` and `shard_of`'s modulo actually use — depend on every
//!    input bit. Raw fxhash is notoriously weak in its low bits.

use crate::FourTuple;
use std::hash::{BuildHasher, Hasher};

/// The fx multiply constant (64-bit golden-ratio-ish odd multiplier).
const FX_MUL: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time fx mixer with a seed and a finalizing avalanche.
#[derive(Clone, Copy, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    pub fn with_seed(seed: u64) -> FxHasher {
        // Pre-mix the seed so seed=0 is not the identity state.
        FxHasher { hash: seed ^ FX_MUL }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_MUL);
    }
}

impl Default for FxHasher {
    fn default() -> FxHasher {
        FxHasher::with_seed(0)
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // xor-shift avalanche: raw fx leaves low bits under-mixed, and the
        // low bits are exactly what modulo shard selection consumes.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(FX_MUL);
        h ^= h >> 29;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for `HashMap::with_hasher` — a seeded, deterministic
/// replacement for the std `RandomState` SipHash on the 4-tuple demux
/// tables (ROADMAP item 1: "a faster 4-tuple hash").
#[derive(Clone, Copy, Debug, Default)]
pub struct FxBuildHasher {
    seed: u64,
}

impl FxBuildHasher {
    #[inline]
    pub fn with_seed(seed: u64) -> FxBuildHasher {
        FxBuildHasher { seed }
    }
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::with_seed(self.seed)
    }
}

/// Hash a 4-tuple with the shared mix. This is the *single* tuple-hash
/// implementation: the demux `HashMap`s reach it through
/// [`FxBuildHasher`] + `FourTuple`'s derived `Hash` (which feeds the same
/// field words to [`FxHasher`]), and the shard router calls it directly.
#[inline]
pub fn tuple_hash(seed: u64, t: &FourTuple) -> u64 {
    let mut h = FxHasher::with_seed(seed);
    h.write_u32(t.local.addr);
    h.write_u16(t.local.port);
    h.write_u32(t.remote.addr);
    h.write_u16(t.remote.port);
    h.finish()
}

/// Consistent shard selection: a tuple always lands on the same shard for
/// a given (seed, shard-count), independent of arrival order or table
/// contents — the property that makes the stateless demux a shard router.
#[inline]
pub fn shard_of(seed: u64, t: &FourTuple, shards: usize) -> usize {
    if shards <= 1 {
        0
    } else {
        (tuple_hash(seed, t) % shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Endpoint;
    use std::hash::Hash;

    fn tuple(la: u32, lp: u16, ra: u32, rp: u16) -> FourTuple {
        FourTuple { local: Endpoint::new(la, lp), remote: Endpoint::new(ra, rp) }
    }

    /// A scale-bench-shaped population: one server endpoint, many client
    /// addresses/ports with low entropy (sequential addrs, same port).
    fn client_population(n: usize) -> Vec<FourTuple> {
        (0..n)
            .map(|i| tuple(0x0A000001, 80, 0x0A01_0000 + (i as u32), 5000))
            .collect()
    }

    #[test]
    fn stable_across_calls_and_seed_sensitive() {
        let t = tuple(1, 2, 3, 4);
        assert_eq!(tuple_hash(7, &t), tuple_hash(7, &t));
        assert_ne!(tuple_hash(7, &t), tuple_hash(8, &t));
        // Golden value: the shard router and any replay artifact depend on
        // this exact mix; an accidental change must fail loudly.
        assert_eq!(tuple_hash(0xC0FFEE, &t), 0xbf6d39edf618fe17);
    }

    #[test]
    fn derived_hash_goes_through_the_same_mixer() {
        // FourTuple's derive(Hash) feeds addr/port words into Hasher
        // write_u32/write_u16 — exactly what tuple_hash does by hand, so
        // the HashMap path and the shard router share one implementation.
        let t = tuple(9, 10, 11, 12);
        let mut h = FxHasher::with_seed(42);
        t.hash(&mut h);
        assert_eq!(h.finish(), tuple_hash(42, &t));
    }

    #[test]
    fn distribution_across_shard_counts() {
        // Low-entropy client population must still spread: for every shard
        // count we care about, max/mean occupancy stays under 1.25 at 100k
        // tuples (the bench gate for *work* balance is 1.5; placement
        // itself should be much tighter).
        let pop = client_population(100_000);
        for &shards in &[2usize, 4, 8, 16] {
            let mut buckets = vec![0u64; shards];
            for t in &pop {
                buckets[shard_of(0xDEADBEEF, t, shards)] += 1;
            }
            let max = *buckets.iter().max().unwrap() as f64;
            let mean = pop.len() as f64 / shards as f64;
            assert!(
                max / mean < 1.25,
                "shards={shards}: max/mean {:.3} buckets={buckets:?}",
                max / mean
            );
            assert!(buckets.iter().all(|&b| b > 0), "empty bucket at {shards} shards");
        }
    }

    #[test]
    fn low_bits_avalanche() {
        // Flipping any single input bit must flip ~half the low 16 bits on
        // average — the modulo-consuming bits raw fxhash leaves weak.
        let base = tuple(0x0A000001, 80, 0x0A010000, 5000);
        let h0 = tuple_hash(1, &base);
        let mut total_flips = 0u32;
        let mut cases = 0u32;
        for bit in 0..32 {
            let t = tuple(base.local.addr ^ (1 << bit), 80, 0x0A010000, 5000);
            total_flips += ((tuple_hash(1, &t) ^ h0) & 0xFFFF).count_ones();
            cases += 1;
        }
        for bit in 0..16 {
            let t = tuple(0x0A000001, 80, 0x0A010000, 5000 ^ (1 << bit));
            total_flips += ((tuple_hash(1, &t) ^ h0) & 0xFFFF).count_ones();
            cases += 1;
        }
        let avg = total_flips as f64 / cases as f64;
        assert!((5.0..11.0).contains(&avg), "weak avalanche: avg {avg:.2} of 16 low bits flip");
    }

    #[test]
    fn shard_of_is_consistent_and_total() {
        let t = tuple(1, 2, 3, 4);
        assert_eq!(shard_of(5, &t, 0), 0);
        assert_eq!(shard_of(5, &t, 1), 0);
        for shards in 2..10 {
            let s = shard_of(5, &t, shards);
            assert!(s < shards);
            assert_eq!(s, shard_of(5, &t, shards), "consistent re-hash");
        }
    }
}
