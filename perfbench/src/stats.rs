//! Order statistics over timing samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The `q`-quantile (`0.0 ..= 1.0`) of `samples` by the sorted-index
/// rule `sorted[floor((len - 1) * q)]`: always an observed value, never
/// an interpolation, and never above the true quantile's upper
/// neighbour. Returns 0 for an empty sample set (a layer that did no
/// work).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    percentiles(samples, &[q])[0]
}

/// Several quantiles of one sample set, for one sort.
pub fn percentiles(samples: &[f64], qs: &[f64]) -> Vec<f64> {
    if samples.is_empty() {
        return vec![0.0; qs.len()];
    }
    let sorted = sorted(samples);
    qs.iter()
        .map(|q| sorted[((sorted.len() - 1) as f64 * q).floor() as usize])
        .collect()
}

/// Median by the same sorted-index rule.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean (0 for an empty set).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Geometric mean of positive values: a relative change in any one
/// factor moves the result by the same share, whichever factor it is.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method), which is what the
/// acceptance check of the benchmark uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    quartiles_of_sorted(&sorted(values))
}

fn quartiles_of_sorted(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |i: usize| {
        // Position i * (n + 1) / 4 on a 1-based axis, clamped to the
        // data, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (Python's
/// `statistics.median`: the mean of the middle two for an even count).
pub fn spread(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let (q1, q3) = quartiles_of_sorted(&sorted);
    let med = (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0;
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_observed_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_weighs_factors_equally() {
        let base = geomean(&[10.0, 100.0, 1000.0]);
        let a = geomean(&[11.0, 100.0, 1000.0]);
        let b = geomean(&[10.0, 100.0, 1100.0]);
        assert!((a / base - b / base).abs() < 1e-12);
    }
}
