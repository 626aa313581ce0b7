//! Order statistics over measured samples.

/// The `p`-th percentile (0–100) of `samples`, linearly interpolated
/// between the two nearest ranks. NaN for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The geometric mean of strictly positive `values`. NaN for an empty
/// slice or any value that is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn no_samples_give_nan_not_zero() {
        assert!(median(&[]).is_nan());
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[2.0, 0.0]).is_nan());
    }
}
