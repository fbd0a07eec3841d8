//! Piecewise-linear CDFs over flow sizes, in the format the HKUST
//! TrafficGenerator (the paper's testbed traffic tool) uses: a list of
//! `(value, cumulative probability)` points, linearly interpolated.

use ecnsharp_sim::Rng;

/// A piecewise-linear cumulative distribution over `u64` values.
#[derive(Debug, Clone)]
pub struct PiecewiseCdf {
    /// `(value, P[X <= value])`, strictly increasing in both coordinates.
    points: Vec<(f64, f64)>,
}

impl PiecewiseCdf {
    /// Build from `(value, probability)` points. The last probability must
    /// be 1.0; a leading `(v0, 0.0)` anchor is required.
    ///
    /// # Panics
    /// On malformed input (unsorted, probabilities outside `[0, 1]`,
    /// missing anchors).
    pub fn new(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two CDF points");
        #[expect(
            clippy::float_cmp,
            reason = "the anchor must be given as literal 0.0, not merely close to it"
        )]
        {
            assert_eq!(points[0].1, 0.0, "first point must have probability 0");
        }
        assert!(
            (points.last().unwrap().1 - 1.0).abs() < 1e-12,
            "last point must have probability 1"
        );
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "values must strictly increase: {w:?}");
            assert!(w[0].1 <= w[1].1, "probabilities must not decrease: {w:?}");
        }
        PiecewiseCdf {
            points: points.to_vec(),
        }
    }

    /// Inverse-transform sample.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        self.quantile(rng.f64()).round().max(1.0) as u64
    }

    /// The `p`-quantile (inverse CDF), linearly interpolated.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let mut prev = self.points[0];
        for &pt in &self.points[1..] {
            if p <= pt.1 {
                #[expect(
                    clippy::float_cmp,
                    reason = "exact equality is the only division by zero below"
                )]
                if pt.1 == prev.1 {
                    return pt.0;
                }
                let f = (p - prev.1) / (pt.1 - prev.1);
                return prev.0 + f * (pt.0 - prev.0);
            }
            prev = pt;
        }
        self.points.last().unwrap().0
    }

    /// `P[X <= v]`, linearly interpolated.
    pub fn cdf(&self, v: f64) -> f64 {
        if v <= self.points[0].0 {
            return 0.0;
        }
        let mut prev = self.points[0];
        for &pt in &self.points[1..] {
            if v <= pt.0 {
                let f = (v - prev.0) / (pt.0 - prev.0);
                return prev.1 + f * (pt.1 - prev.1);
            }
            prev = pt;
        }
        1.0
    }

    /// Analytic mean of the piecewise-linear distribution (trapezoid rule
    /// is exact here: within a segment the density is uniform).
    pub fn mean(&self) -> f64 {
        let mut m = 0.0;
        for w in self.points.windows(2) {
            let ((v0, p0), (v1, p1)) = (w[0], w[1]);
            m += (p1 - p0) * (v0 + v1) / 2.0;
        }
        m
    }

    /// The underlying points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_0_100() -> PiecewiseCdf {
        PiecewiseCdf::new(&[(0.0, 0.0), (100.0, 1.0)])
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "the two-point uniform CDF at 0/0.5/1 is exactly representable"
    )]
    fn quantiles_of_uniform() {
        let c = uniform_0_100();
        assert_eq!(c.quantile(0.0), 0.0);
        assert_eq!(c.quantile(0.5), 50.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert_eq!(c.mean(), 50.0);
    }

    #[test]
    fn cdf_inverts_quantile() {
        let c = PiecewiseCdf::new(&[(1.0, 0.0), (10.0, 0.3), (100.0, 0.9), (1000.0, 1.0)]);
        for p in [0.1, 0.3, 0.5, 0.9, 0.95] {
            let v = c.quantile(p);
            assert!((c.cdf(v) - p).abs() < 1e-9, "p={p} v={v}");
        }
    }

    #[test]
    fn sample_mean_converges() {
        let c = PiecewiseCdf::new(&[(0.0, 0.0), (10.0, 0.5), (1000.0, 1.0)]);
        let expected = c.mean();
        let mut rng = Rng::seed_from_u64(5);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| c.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!(
            (mean - expected).abs() / expected < 0.02,
            "sampled {mean}, analytic {expected}"
        );
    }

    #[test]
    fn samples_within_support() {
        let c = PiecewiseCdf::new(&[(5.0, 0.0), (50.0, 1.0)]);
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..10_000 {
            let s = c.sample(&mut rng);
            assert!((5..=50).contains(&s), "{s}");
        }
    }

    #[test]
    #[should_panic(expected = "probability 0")]
    fn missing_anchor_rejected() {
        let _ = PiecewiseCdf::new(&[(0.0, 0.1), (1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn unsorted_rejected() {
        let _ = PiecewiseCdf::new(&[(0.0, 0.0), (5.0, 0.5), (3.0, 1.0)]);
    }
}
