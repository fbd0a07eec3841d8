//! Box-plot summaries — the whisker data behind Figure 1 (RTT
//! distributions).

use crate::percentile::percentile;

/// The five-number summary a box plot draws (Fig. 1's whisker data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxStats {
    /// Compute from samples; `None` when empty.
    pub fn from_samples(xs: &[f64]) -> Option<BoxStats> {
        if xs.is_empty() {
            return None;
        }
        Some(BoxStats {
            min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            q1: percentile(xs, 0.25)?,
            median: percentile(xs, 0.5)?,
            q3: percentile(xs, 0.75)?,
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "quantiles of 1..=101 land exactly on integer samples"
    )]
    fn box_stats_basics() {
        let xs: Vec<f64> = (1..=101).map(|x| x as f64).collect();
        let b = BoxStats::from_samples(&xs).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 51.0);
        assert_eq!(b.max, 101.0);
        assert_eq!(b.q1, 26.0);
        assert_eq!(b.q3, 76.0);
        assert_eq!(b.iqr(), 50.0);
        assert!(BoxStats::from_samples(&[]).is_none());
    }
}
