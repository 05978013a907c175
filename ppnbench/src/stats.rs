//! Order statistics over timing samples.

/// Sorted copy of `xs` (total order, so NaN cannot reorder anything).
pub(crate) fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; NaN for no samples.
pub(crate) fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || !v[hi].is_finite() {
        // Exact rank, or a miss (recorded as infinity) at the upper rank.
        return if lo == hi { v[lo] } else { v[hi] };
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub(crate) fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `0..len` cut into `n` consecutive ranges of near-equal length.
pub(crate) fn round_ranges(len: usize, n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..n).map(move |r| r * len / n..(r + 1) * len / n)
}

/// The tail a sample set can support: the highest percentile with at least
/// ten samples beyond it. Returns `(value, percentile)`; with ten or fewer
/// samples it falls back to the maximum.
pub(crate) fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 90.0);
        assert!((p - 90.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }
}
