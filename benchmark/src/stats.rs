//! Order statistics over small samples.

/// Sort ascending; NaN has no place in a timing sample, so it sorts last.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for an empty
/// sample, which is how a layer that did no work reads.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the driver measures spread this way,
/// so the benchmark reports it the same way.  Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Nearest-rank `p`-th percentile (`p` in whole percent); only meaningful
/// when at least ten values lie beyond it, which callers check with
/// [`supports_percentile`].
pub fn percentile(values: &[f64], p: usize) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p).clamp(1, v.len()) - 1]
}

fn rank(n: usize, p: usize) -> usize {
    (n * p).div_ceil(100)
}

/// Whether `n` samples leave at least ten beyond the `p`-th percentile.
pub fn supports_percentile(n: usize, p: usize) -> bool {
    n >= rank(n, p) + 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert!(supports_percentile(100, 90));
        assert!(supports_percentile(104, 90));
        assert!(!supports_percentile(31, 90));
        assert!(!supports_percentile(100, 99));
    }
}
