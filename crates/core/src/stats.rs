//! Small statistics helpers used by the measurement protocol.
//!
//! The paper reports the median of seven runs per function, the maximum
//! runtime across threads per run, and (in Section IV) a standard
//! deviation across the nine outer runs.

/// Returns the median of `values`.
///
/// For an even number of samples the mean of the two central values is
/// returned, matching the conventional definition.
///
/// # Panics
///
/// Panics if `values` is empty.
///
/// # Examples
///
/// ```
/// use syncperf_core::stats::median;
///
/// assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
/// assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
/// ```
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        f64::midpoint(sorted[n / 2 - 1], sorted[n / 2])
    }
}

/// Returns the arithmetic mean of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Returns the population standard deviation of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn stddev(values: &[f64]) -> f64 {
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Returns the maximum of `values`.
///
/// Used per attempt: the paper records "the maximum runtime across the
/// running threads" (Section IV).
///
/// # Panics
///
/// Panics if `values` is empty or contains NaN.
#[must_use]
pub fn max(values: &[f64]) -> f64 {
    max_of(values.iter().copied())
}

/// [`max`] over an iterator, so an executor can reduce per-thread
/// times as it draws them instead of collecting them first. On a tie
/// the later value wins, exactly as in [`max`].
///
/// # Panics
///
/// Panics if `values` yields nothing, or NaN beside another value.
#[must_use]
pub fn max_of(values: impl IntoIterator<Item = f64>) -> f64 {
    values
        .into_iter()
        .max_by(|a, b| a.partial_cmp(b).expect("NaN in samples"))
        .expect("max of empty slice")
}

/// Returns the minimum of `values`.
///
/// # Panics
///
/// Panics if `values` is empty or contains NaN.
#[must_use]
pub fn min(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .min_by(|a, b| a.partial_cmp(b).expect("NaN in samples"))
        .expect("min of empty slice")
}

/// Returns the `p`-th percentile (0.0 ..= 100.0) using linear
/// interpolation between closest ranks.
///
/// # Panics
///
/// Panics if `values` is empty or `p` is outside `[0, 100]`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Relative spread `(max - min) / median`, a jitter indicator used when
/// classifying noisy series (e.g. System 3's AMD results in Fig. 4a).
///
/// # Panics
///
/// Panics if `values` is empty or the median is zero.
#[must_use]
pub fn relative_spread(values: &[f64]) -> f64 {
    let med = median(values);
    assert!(med != 0.0, "relative spread undefined for zero median");
    (max(values) - min(values)) / med
}

/// A deterministic bootstrap confidence interval for the median of
/// `values`: resamples with replacement `resamples` times using a
/// seeded xorshift generator and returns the `(lo, hi)` percentile
/// bounds at the given `confidence` (e.g. 0.95).
///
/// Used by reports to state how trustworthy a median-of-9-runs value is
/// under the simulators' jitter models.
///
/// # Panics
///
/// Panics if `values` is empty, `resamples` is zero, or `confidence`
/// is outside `(0, 1)`.
#[must_use]
pub fn bootstrap_median_ci(
    values: &[f64],
    confidence: f64,
    resamples: u32,
    seed: u64,
) -> (f64, f64) {
    assert!(!values.is_empty(), "bootstrap of empty slice");
    assert!(resamples > 0, "need at least one resample");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );

    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };

    let mut medians = Vec::with_capacity(resamples as usize);
    let mut sample = vec![0.0; values.len()];
    for _ in 0..resamples {
        for slot in &mut sample {
            *slot = values[(next() % values.len() as u64) as usize];
        }
        medians.push(median(&sample));
    }
    let alpha = (1.0 - confidence) / 2.0;
    (
        percentile(&medians, alpha * 100.0),
        percentile(&medians, (1.0 - alpha) * 100.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_contains_median_and_is_deterministic() {
        let v = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7];
        let (lo, hi) = bootstrap_median_ci(&v, 0.95, 500, 42);
        let m = median(&v);
        assert!(lo <= m && m <= hi, "median {m} outside [{lo}, {hi}]");
        assert!(lo >= min(&v) && hi <= max(&v));
        assert_eq!(
            (lo, hi),
            bootstrap_median_ci(&v, 0.95, 500, 42),
            "seeded determinism"
        );
    }

    #[test]
    fn bootstrap_tightens_with_confidence() {
        let v: Vec<f64> = (0..30).map(|i| 100.0 + f64::from(i % 7)).collect();
        let (lo95, hi95) = bootstrap_median_ci(&v, 0.95, 400, 7);
        let (lo50, hi50) = bootstrap_median_ci(&v, 0.50, 400, 7);
        assert!(
            hi50 - lo50 <= hi95 - lo95,
            "50% CI must be no wider than 95% CI"
        );
    }

    #[test]
    fn bootstrap_degenerate_constant_sample() {
        let (lo, hi) = bootstrap_median_ci(&[5.0; 9], 0.9, 100, 1);
        assert_eq!((lo, hi), (5.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn bootstrap_rejects_bad_confidence() {
        let _ = bootstrap_median_ci(&[1.0], 1.5, 10, 1);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[1.0, 9.0]), 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn median_is_order_invariant() {
        let a = [7.0, 3.0, 9.0, 1.0, 5.0];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(mean(&[1.0]), 1.0);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        assert_eq!(stddev(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn stddev_known_value() {
        // population stddev of [2,4,4,4,5,5,7,9] is 2
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_min() {
        let v = [3.0, -1.0, 7.5, 0.0];
        assert_eq!(max(&v), 7.5);
        assert_eq!(min(&v), -1.0);
    }

    #[test]
    fn percentile_endpoints_and_middle() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&v, 50.0), 25.0);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 75.0), 42.0);
    }

    #[test]
    fn relative_spread_flat_is_zero() {
        assert_eq!(relative_spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_empty_panics() {
        let _ = median(&[]);
    }

    #[test]
    fn max_of_an_iterator_is_max_of_the_slice() {
        let v = [1.0, 3.0, -0.0, 3.0, 0.0, 2.0];
        assert_eq!(max_of(v.iter().copied()).to_bits(), max(&v).to_bits());
        // On a tie the later value wins: +0.0 after -0.0.
        assert_eq!(max_of([-0.0, 0.0]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "max of empty slice")]
    fn max_of_nothing_panics() {
        let _ = max_of(std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "NaN in samples")]
    fn max_of_nan_panics() {
        let _ = max_of([1.0, f64::NAN]);
    }
}
