//! Streaming aggregation: the [`Merge`] trait and the accumulators scenario
//! outcomes are built from.
//!
//! The engine never stores per-replica outcomes — every replica is folded
//! into an accumulator as soon as it finishes. [`StreamingStats`] carries
//! count/mean/variance/min/max via the numerically stable pairwise-merge
//! recurrence of Chan, Golub and LeVeque, and [`Histogram`] carries a
//! fixed-bucket distribution. Both merge in O(1)/O(buckets) independent of
//! how many replicas they summarize.

/// Types that can absorb another accumulator of the same type.
///
/// `merge` is the single aggregation primitive of the engine. It is **not**
/// required to be bitwise-associative (floating-point addition is not);
/// instead the [`crate::SimRunner`] guarantees that the sequential and
/// parallel paths apply exactly the same sequence of merges, which is what
/// makes their results bit-identical.
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// Streaming count/mean/variance/min/max over a sequence of `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingStats {
    /// An empty accumulator (identity element of [`Merge::merge`]).
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The accumulator of a single sample.
    pub fn of(x: f64) -> Self {
        StreamingStats {
            count: 1,
            mean: x,
            m2: 0.0,
            min: x,
            max: x,
        }
    }

    /// Absorbs one sample (equivalent to merging [`StreamingStats::of`]).
    pub fn push(&mut self, x: f64) {
        self.merge(&StreamingStats::of(x));
    }

    /// Number of samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0.0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Merge for StreamingStats {
    fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / n);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }
}

/// A fixed-bucket histogram over `[lo, hi)`; samples outside the range land
/// in dedicated underflow/overflow counters, so no sample is ever dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// An empty histogram with `buckets` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = (((x - self.lo) / width) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Per-bucket counts (ascending bin order).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// `(lo, hi)` bounds of bucket `i`.
    pub fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }

    /// Samples below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including under/overflow.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

impl Merge for Histogram {
    /// # Panics
    ///
    /// Panics if the two histograms have different bounds or bucket counts
    /// (merging them would silently misbin samples).
    fn merge(&mut self, other: &Self) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.buckets.len() == other.buckets.len(),
            "cannot merge histograms with different shapes"
        );
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_stats_match_naive_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), xs.len() as u64);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merging_empty_is_identity() {
        let mut a = StreamingStats::of(3.5);
        a.merge(&StreamingStats::new());
        assert_eq!(a, StreamingStats::of(3.5));
        let mut b = StreamingStats::new();
        b.merge(&StreamingStats::of(3.5));
        assert_eq!(b, StreamingStats::of(3.5));
    }

    #[test]
    fn merged_partitions_agree_with_single_stream_up_to_rounding() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = StreamingStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = StreamingStats::new();
        let mut right = StreamingStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn histogram_bins_and_merges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for x in [-0.1, 0.0, 0.24, 0.25, 0.5, 0.99, 1.0, 2.0] {
            h.record(x);
        }
        assert_eq!(h.buckets(), &[2, 1, 1, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 8);
        let mut other = Histogram::new(0.0, 1.0, 4);
        other.record(0.1);
        h.merge(&other);
        assert_eq!(h.buckets(), &[3, 1, 1, 1]);
        assert_eq!(h.bucket_bounds(1), (0.25, 0.5));
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn histogram_shape_mismatch_panics() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.merge(&Histogram::new(0.0, 2.0, 4));
    }
}
