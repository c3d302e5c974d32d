//! Fixed-bucket distributions with percentile queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::Stripes;

/// A lock-free histogram over a fixed set of bucket upper bounds.
///
/// Values land in the first bucket whose bound is `>= value`; anything
/// beyond the last bound lands in an implicit overflow bucket. Exact
/// sum, min, and max are tracked alongside the buckets, so percentile
/// estimates are clamped to the observed range. Clones share state.
///
/// Each thread records into its own stripe of the state (see
/// [`Stripes`]), and a snapshot folds the stripes together. One thread
/// only ever touches one stripe, so a single-threaded history reads
/// back exactly as it was recorded, sum included.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// Ascending upper bounds; the cells hold one extra overflow bucket.
    bounds: Vec<f64>,
    /// Per stripe: [`COUNT`], then the `f64` bit patterns of [`SUM`],
    /// [`MIN`] and [`MAX`], then the buckets from [`BUCKETS`] on.
    cells: Stripes,
}

const COUNT: usize = 0;
const SUM: usize = 1;
const MIN: usize = 2;
const MAX: usize = 3;
const BUCKETS: usize = 4;

/// Default bounds for latencies in milliseconds (0.5 ms – ~8 s).
const LATENCY_MS_BOUNDS: [f64; 15] = [
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
];

/// Default bounds for message sizes in bytes (16 B – 8 KiB).
const BYTES_BOUNDS: [f64; 10] =
    [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0];

impl Histogram {
    /// A histogram with the default millisecond-latency buckets.
    pub fn latency_ms() -> Self {
        Histogram::with_bounds(LATENCY_MS_BOUNDS.to_vec())
    }

    /// A histogram with the default byte-size buckets.
    pub fn bytes() -> Self {
        Histogram::with_bounds(BYTES_BOUNDS.to_vec())
    }

    /// A histogram over custom ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let cells = Stripes::new(BUCKETS + bounds.len() + 1);
        for lane in cells.lanes() {
            lane.cell(MIN).store(f64::INFINITY.to_bits(), Ordering::Relaxed);
            lane.cell(MAX).store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        }
        Histogram { inner: Arc::new(Inner { bounds, cells }) }
    }

    /// Records one observation.
    pub fn record(&self, value: f64) {
        let inner = &*self.inner;
        let idx = inner.bounds.iter().position(|&b| value <= b).unwrap_or(inner.bounds.len());
        let lane = inner.cells.local();
        lane.add(BUCKETS + idx, 1);
        lane.add(COUNT, 1);
        // Another thread may share the stripe, so these stay atomic;
        // min and max only write when the value improves on them.
        let update = |cell: &AtomicU64, f: &dyn Fn(f64) -> Option<f64>| {
            let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                f(f64::from_bits(bits)).map(f64::to_bits)
            });
        };
        update(lane.cell(SUM), &|s| Some(s + value));
        update(lane.cell(MIN), &|m| (value < m).then_some(value));
        update(lane.cell(MAX), &|m| (value > m).then_some(value));
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.inner.cells.sum(COUNT)
    }

    /// Freezes the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.inner;
        let cells = &inner.cells;
        let count = cells.sum(COUNT);
        let floats = |cell| cells.lanes().map(move |lane| f64::from_bits(lane.get(cell)));
        let (min, max) = if count == 0 {
            (0.0, 0.0)
        } else {
            (
                floats(MIN).fold(f64::INFINITY, f64::min),
                floats(MAX).fold(f64::NEG_INFINITY, f64::max),
            )
        };
        HistogramSnapshot {
            bounds: inner.bounds.clone(),
            buckets: (0..=inner.bounds.len()).map(|i| cells.sum(BUCKETS + i)).collect(),
            count,
            sum: floats(SUM).fold(0.0, |acc, s| acc + s),
            min,
            max,
        }
    }
}

/// A frozen [`Histogram`]: bucket counts plus exact sum/min/max.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one longer than `bounds` (overflow last).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated value at quantile `p` in `[0, 1]`: the upper bound of
    /// the first bucket whose cumulative count reaches `p · count`,
    /// clamped to the observed `[min, max]` range. Returns 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = (p * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                let upper = self.bounds.get(i).copied().unwrap_or(self.max);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The median (p50).
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> f64 {
        self.percentile(0.90)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Folds another snapshot into this one (bucket-wise sum).
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ (merging histograms of
    /// different shapes is a bug, not a degradation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different buckets");
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_the_right_buckets() {
        let h = Histogram::with_bounds(vec![1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 50.0, 500.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 500.0);
        assert!((s.sum - 556.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let h = Histogram::latency_ms();
        // 100 observations spread 1..=100 ms.
        for i in 1..=100 {
            h.record(f64::from(i));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 of 1..=100 lands in the (32, 64] bucket.
        assert_eq!(s.p50(), 64.0);
        assert_eq!(s.p90(), 128.0_f64.min(s.max));
        assert!(s.p99() <= s.max);
        assert!(s.percentile(0.0) >= s.min);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::bytes().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn merge_is_bucket_wise() {
        let a = Histogram::with_bounds(vec![10.0, 100.0]);
        let b = Histogram::with_bounds(vec![10.0, 100.0]);
        a.record(5.0);
        b.record(50.0);
        b.record(500.0);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.count, 3);
        assert_eq!(sa.buckets, vec![1, 1, 1]);
        assert_eq!(sa.min, 5.0);
        assert_eq!(sa.max, 500.0);
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::with_bounds(vec![1.0]).snapshot();
        let b = Histogram::with_bounds(vec![2.0]);
        a.count = 1;
        b.record(1.0);
        a.merge(&b.snapshot());
    }
}
