//! Order statistics over measured samples.

/// Nearest-rank percentile `p` (0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Fisher-Yates shuffle of `v` driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut syncperf_load::Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// The highest whole percentile with at least ten samples beyond it,
/// clamped to 50..=99: with fewer than twenty samples no tail is
/// supported and the median stands in.
pub fn tail_percentile(n: usize) -> f64 {
    if n == 0 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).floor().clamp(50.0, 99.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(5000), 99.0);
        assert_eq!(tail_percentile(12), 50.0);
        let n = 137;
        let p = tail_percentile(n);
        assert!(n as f64 * (1.0 - p / 100.0) >= 10.0);
    }
}
