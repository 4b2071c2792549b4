//! Order statistics: exact ones over a sample vector, and a log-bucketed
//! histogram for the millions of per-call durations a traced run records.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` with linear interpolation
/// between the two nearest ranks — the definition NumPy calls "linear".
/// `None` for an empty sample. Sorts a copy; `samples` is left as it was.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Values below this are counted exactly, one bucket per unit.
const LINEAR: u64 = 128;
/// Sub-buckets per power of two above [`LINEAR`]: 32 keeps a bucket within
/// about 3 % of its value.
const SUB_BITS: u32 = 5;
const LINEAR_BITS: u32 = LINEAR.trailing_zeros();
/// Values at or above 2^40 (18 minutes in nanoseconds) share the last bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = LINEAR as usize + (((MAX_BITS - LINEAR_BITS) as usize) << SUB_BITS) + 1;

/// A fixed-size histogram of unsigned values (nanoseconds, here) that never
/// allocates after construction, so recording inside a traced run does not
/// disturb the allocation counts.
#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u32>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let bits = 63 - v.leading_zeros(); // position of the top set bit, >= LINEAR_BITS
    if bits >= MAX_BITS {
        return BUCKETS - 1;
    }
    let sub = ((v >> (bits - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    LINEAR as usize + (((bits - LINEAR_BITS) as usize) << SUB_BITS) + sub
}

/// The half-open value range `[lo, hi)` bucket `b` covers.
fn bounds_of(b: usize) -> (u64, u64) {
    if b < LINEAR as usize {
        return (b as u64, b as u64 + 1);
    }
    if b == BUCKETS - 1 {
        return (1 << MAX_BITS, (1 << MAX_BITS) + 1);
    }
    let rel = b - LINEAR as usize;
    let bits = LINEAR_BITS + (rel >> SUB_BITS) as u32;
    let sub = (rel & ((1 << SUB_BITS) - 1)) as u64;
    let width = 1u64 << (bits - SUB_BITS);
    let lo = (1u64 << bits) + sub * width;
    (lo, lo + width)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        let b = &mut self.buckets[bucket_of(v)];
        *b = b.saturating_add(1);
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile, interpolated inside the bucket that holds it on the
    /// assumption that the bucket's samples are spread evenly (the grouped-
    /// data median of a statistics textbook). `None` when nothing was
    /// recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (below + n as u64) as f64 >= rank {
                let (lo, hi) = bounds_of(b);
                let inside = (rank - below as f64) / n as f64;
                return Some(lo as f64 + inside * (hi - lo) as f64);
            }
            below += n as u64;
        }
        let (lo, _) = bounds_of(BUCKETS - 1);
        Some(lo as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expect_lo = 0;
        for b in 0..BUCKETS - 1 {
            let (lo, hi) = bounds_of(b);
            assert_eq!(lo, expect_lo, "bucket {b} leaves a gap");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi - 1), b);
            expect_lo = hi;
        }
        assert_eq!(expect_lo, 1 << MAX_BITS);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }
}
