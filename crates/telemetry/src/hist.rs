//! Mergeable log-bucketed histograms.
//!
//! The bucket layout is **fixed** (one bucket per power of two, 65
//! buckets covering the full `u64` range), so merging two histograms is
//! element-wise addition — exact, associative and commutative: a merge
//! of shard-local recorders equals one global recorder fed the union of
//! the samples, in any order and any grouping.

/// Number of buckets: bucket 0 holds the value `0`, bucket `i` (for
/// `i >= 1`) holds values with bit length `i`, i.e. `[2^(i-1), 2^i)`.
pub const BUCKETS: usize = 65;

/// Index of the bucket a value falls into.
#[must_use]
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive `(low, high)` bounds of bucket `index`.
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

/// A log-bucketed histogram over `u64` samples.
///
/// Tracks exact `count`, `sum`, `min` and `max` alongside the bucket
/// array, so means are exact and only quantiles are approximated (to
/// within the bucket resolution of one octave).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value`.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += n;
    }

    /// Merge another histogram into this one (element-wise bucket
    /// addition; exact because the layout is fixed).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of the recorded samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Approximate quantile (`q` in `[0, 1]`): the midpoint of the
    /// bucket containing the `q`-th sample, clamped to the observed
    /// `[min, max]` range. Empty histograms return `None`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                let mid = lo + (hi - lo) / 2;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The non-empty buckets as `(low, high, count)` triples, in
    /// ascending value order.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, n)
            })
            .collect()
    }

    /// Reconstruct a histogram from exported parts. Bucket bounds are
    /// validated against the fixed layout; `Err` carries a description
    /// of the first mismatch.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: &[(u64, u64, u64)],
    ) -> Result<Histogram, String> {
        let mut h = Histogram::new();
        for &(lo, hi, n) in buckets {
            let index = bucket_index(lo);
            let (want_lo, want_hi) = bucket_bounds(index);
            if (lo, hi) != (want_lo, want_hi) {
                return Err(format!(
                    "bucket bounds [{lo}, {hi}] do not match the fixed layout \
                     ([{want_lo}, {want_hi}] for bucket {index})"
                ));
            }
            h.buckets[index] += n;
        }
        h.count = count;
        h.sum = sum;
        if count > 0 {
            h.min = min;
            h.max = max;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
        // Bounds tile the u64 range with no gaps.
        for i in 1..BUCKETS {
            let (_, prev_hi) = bucket_bounds(i - 1);
            let (lo, _) = bucket_bounds(i);
            assert_eq!(lo, prev_hi + 1);
        }
    }

    #[test]
    fn record_tracks_exact_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        for v in [3u64, 9, 4000, 0, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 4015);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(4000));
        assert!((h.mean() - 803.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for (i, v) in [1u64, 7, 7, 120, 90_000, 0].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            both.record(*v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn quantile_is_within_bucket_resolution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((256..=767).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), Some(1000));
    }

    #[test]
    fn parts_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 5, 5, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let parts = h.nonzero_buckets();
        let back = Histogram::from_parts(
            h.count(),
            h.sum(),
            h.min().unwrap(),
            h.max().unwrap(),
            &parts,
        )
        .unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn bad_bounds_are_rejected() {
        let err = Histogram::from_parts(1, 5, 5, 5, &[(5, 7, 1)]).unwrap_err();
        assert!(err.contains("fixed layout"), "{err}");
    }
}
