//! First-class latency histograms: lock-free log-bucketed atomics
//! with mergeable snapshots and quantile estimation.
//!
//! A [`Histogram`] is a fixed array of 65 power-of-two buckets (bucket
//! 0 holds the value 0; bucket `b` holds `[2^(b-1), 2^b - 1]`), plus
//! running sum/min/max cells. Recording a value is four relaxed
//! atomic operations — no locks, no allocation — so a histogram can
//! sit on a request hot path. Snapshots are plain data: they merge by
//! bucket-wise addition, and quantiles are estimated by walking the
//! cumulative distribution with linear interpolation inside the
//! landing bucket, clamped to the observed `[min, max]`. The estimate
//! is exact at bucket boundaries and never off by more than one
//! log-bucket (a factor of two) anywhere — the property test in
//! `tests/telemetry_consistency.rs` holds it to a sorted-vec oracle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 65;

/// The bucket index a value lands in: 0 for 0, else
/// `64 - leading_zeros(v)` (so bucket `b` covers `[2^(b-1), 2^b - 1]`).
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `b` (`u64::MAX` for the last).
#[must_use]
pub fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// The inclusive lower bound of bucket `b`.
#[must_use]
pub fn bucket_lower(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// The shared atomic cells behind a [`Histogram`] handle.
#[derive(Debug)]
pub(crate) struct HistCells {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistCells {
    pub(crate) fn new() -> Self {
        HistCells {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            min_seen: self.min.load(Ordering::Relaxed),
            max_seen: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A lock-free log-bucketed histogram handle (a no-op when obtained
/// from a disabled [`Recorder`](crate::Recorder)).
///
/// Cheap to clone; all clones for one name share cells.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    pub(crate) cells: Option<Arc<HistCells>>,
}

impl Histogram {
    /// A standalone always-recording histogram, not registered in any
    /// recorder — for tallies kept outside any registry (like the load
    /// generator's per-thread latency samples).
    #[must_use]
    pub fn standalone() -> Self {
        Histogram {
            cells: Some(Arc::new(HistCells::new())),
        }
    }

    /// Records one observation (four relaxed atomics; a single branch
    /// when disabled).
    pub fn observe(&self, v: u64) {
        if let Some(cells) = &self.cells {
            cells.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            cells.sum.fetch_add(v, Ordering::Relaxed);
            cells.min.fetch_min(v, Ordering::Relaxed);
            cells.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Records a [`std::time::Duration`] in microseconds.
    pub fn observe_duration_us(&self, d: std::time::Duration) {
        self.observe(d.as_micros() as u64);
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cells.is_some()
    }

    /// Freezes the current bucket counts (empty when disabled).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cells
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |c| c.snapshot())
    }
}

/// Frozen histogram contents: plain mergeable data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`BUCKETS`] entries).
    pub counts: Vec<u64>,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min_seen: u64,
    /// Largest observed value (0 when empty).
    pub max_seen: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            sum: 0,
            min_seen: u64::MAX,
            max_seen: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Smallest observed value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min_seen
        }
    }

    /// Largest observed value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// Mean observed value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`): walks the
    /// cumulative bucket counts to the landing bucket and linearly
    /// interpolates inside it, clamping to the observed `[min, max]`.
    /// The estimate is within one log-bucket of the exact
    /// rank-statistic.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based target rank, matching `sorted[ceil(q*n) - 1]`.
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lower = bucket_lower(b);
                let upper = bucket_upper(b);
                let frac = (target - cum) as f64 / c as f64;
                let est = lower + ((upper - lower) as f64 * frac) as u64;
                return est.clamp(self.min(), self.max());
            }
            cum += c;
        }
        self.max()
    }

    /// Adds `other`'s observations into `self` (bucket-wise).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 1..64 {
            assert_eq!(bucket_of(bucket_lower(b)), b);
            assert_eq!(bucket_of(bucket_upper(b)), b);
        }
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn disabled_histogram_is_inert() {
        let h = Histogram::default();
        h.observe(7);
        assert!(!h.is_enabled());
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!((s.min(), s.max()), (0, 0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn observations_land_and_quantiles_clamp() {
        let h = Histogram::standalone();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 1106);
        assert_eq!((s.min(), s.max()), (1, 1000));
        assert!(s.quantile(0.0) >= 1);
        assert_eq!(s.quantile(1.0), 1000);
        // p50 of [1,2,3,100,1000] is 3; the estimate must stay within
        // the value's log-bucket.
        let p50 = s.quantile(0.5);
        assert!(
            bucket_of(p50).abs_diff(bucket_of(3)) <= 1,
            "p50 estimate {p50} strays from oracle 3"
        );
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = Histogram::standalone();
        let b = Histogram::standalone();
        let both = Histogram::standalone();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.observe(v * 7);
            } else {
                b.observe(v * 7);
            }
            both.observe(v * 7);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn concurrent_observations_are_lock_free_and_complete() {
        let h = Histogram::standalone();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.observe(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 4000);
    }

    #[test]
    fn quantile_handles_single_value() {
        let h = Histogram::standalone();
        h.observe(42);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 42);
        }
    }
}
