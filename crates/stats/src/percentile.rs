//! Percentile and summary helpers over `f64` samples.

/// The `p`-quantile (0 ≤ p ≤ 1) of `xs` using nearest-rank on a sorted
/// copy. Returns `None` for empty input.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// [`percentile`] of samples already sorted by [`f64::total_cmp`].
pub(crate) fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let p = p.clamp(0.0, 1.0);
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted.get(idx).copied()
}

/// Arithmetic mean; `None` for empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let xs: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.5), Some(51.0)); // nearest-rank
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
    }

    #[test]
    fn unsorted_input_ok() {
        let xs = vec![5.0, 1.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn mean_basics() {
        let xs = vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
    }
}
