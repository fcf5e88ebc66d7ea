//! Order statistics over measured samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// First quartile, median and third quartile, interpolated the way
/// Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method), so the compare command agrees with the spread checks run
/// on the same results elsewhere. Needs at least three values (below
/// that Python extrapolates past the data).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 3 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let at = |j: f64| {
        // Position j (1-based, may be fractional) clamped into the data.
        let m = j.floor().clamp(1.0, n - 1.0);
        let delta = (j - m).clamp(0.0, 1.0);
        let lo = sorted[m as usize - 1];
        let hi = sorted[m as usize];
        lo + (hi - lo) * delta
    };
    Some((at((n + 1.0) * 0.25), at((n + 1.0) * 0.5), at((n + 1.0) * 0.75)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0, 2.0]), None);
    }
}
