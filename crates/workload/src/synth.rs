//! Synthetic flow-size distributions beyond the two production traces —
//! useful for sensitivity studies and unit-level experiments where a
//! controlled shape beats realism.

use crate::cdf::PiecewiseCdf;
use ecnsharp_sim::Rng;

/// A flow-size sampler.
#[derive(Debug, Clone)]
pub enum SizeDist {
    /// Every flow the same size.
    Fixed(u64),
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Smallest size.
        lo: u64,
        /// Largest size.
        hi: u64,
    },
    /// Bounded Pareto (shape `alpha`, support `[lo, hi]`) — the classic
    /// heavy-tail generator.
    BoundedPareto {
        /// Smallest size.
        lo: u64,
        /// Largest size.
        hi: u64,
        /// Tail index (smaller = heavier tail).
        alpha: f64,
    },
    /// A piecewise-linear CDF (wraps the production traces).
    Cdf(PiecewiseCdf),
}

impl SizeDist {
    /// Sample one flow size in bytes.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            SizeDist::Fixed(s) => *s,
            SizeDist::Uniform { lo, hi } => rng.range_u64(*lo, *hi + 1),
            SizeDist::BoundedPareto { lo, hi, alpha } => {
                // Inverse transform for the bounded Pareto.
                let (l, h, a) = (*lo as f64, *hi as f64, *alpha);
                let u = rng.f64();
                let la = l.powf(a);
                let ha = h.powf(a);
                let x = (-(u * (1.0 - la / ha) - 1.0) / la).powf(-1.0 / a);
                (x.round() as u64).clamp(*lo, *hi)
            }
            SizeDist::Cdf(cdf) => cdf.sample(rng),
        }
    }

    /// Analytic or estimated mean size in bytes.
    pub fn mean(&self) -> f64 {
        match self {
            SizeDist::Fixed(s) => *s as f64,
            SizeDist::Uniform { lo, hi } => (*lo + *hi) as f64 / 2.0,
            SizeDist::BoundedPareto { lo, hi, alpha } => {
                let (l, h, a) = (*lo as f64, *hi as f64, *alpha);
                if (a - 1.0).abs() < 1e-9 {
                    // α = 1: mean = ln(h/l) · l·h/(h−l)
                    (h * l) / (h - l) * (h / l).ln()
                } else {
                    (l.powf(a) / (1.0 - (l / h).powf(a)))
                        * (a / (a - 1.0))
                        * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
                }
            }
            SizeDist::Cdf(cdf) => cdf.mean(),
        }
    }
}

/// A host-permutation traffic matrix: host `i` sends only to host `π(i)`
/// for a random derangement `π` — the classic fabric stress pattern where
/// every host is both a sender and a receiver exactly once.
pub fn permutation_pairs(n_hosts: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
    assert!(n_hosts >= 2);
    // Sattolo's algorithm produces a uniform cyclic permutation — a
    // derangement by construction.
    let mut p: Vec<usize> = (0..n_hosts).collect();
    for i in (1..n_hosts).rev() {
        let j = rng.below(i as u64) as usize;
        p.swap(i, j);
    }
    (0..n_hosts).map(|i| (i, p[i])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(clippy::float_cmp, reason = "(10 + 20) / 2 is exact in f64")]
    fn fixed_and_uniform() {
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(SizeDist::Fixed(777).sample(&mut rng), 777);
        let u = SizeDist::Uniform { lo: 10, hi: 20 };
        for _ in 0..1000 {
            let s = u.sample(&mut rng);
            assert!((10..=20).contains(&s));
        }
        assert_eq!(u.mean(), 15.0);
    }

    #[test]
    fn bounded_pareto_heavy_tail() {
        let d = SizeDist::BoundedPareto {
            lo: 1_000,
            hi: 10_000_000,
            alpha: 1.2,
        };
        let mut rng = Rng::seed_from_u64(2);
        let n = 200_000;
        let xs: Vec<u64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| (1_000..=10_000_000).contains(&x)));
        // Median far below mean: heavy tail.
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let median = sorted[n / 2] as f64;
        let mean = xs.iter().sum::<u64>() as f64 / n as f64;
        assert!(mean > 2.0 * median, "mean {mean} median {median}");
        // Empirical mean tracks the analytic one within 5%.
        let analytic = d.mean();
        assert!(
            (mean - analytic).abs() / analytic < 0.05,
            "mean {mean} analytic {analytic}"
        );
    }

    #[test]
    fn permutation_is_derangement() {
        let mut rng = Rng::seed_from_u64(3);
        for n in [2usize, 3, 8, 33] {
            let pairs = permutation_pairs(n, &mut rng);
            assert_eq!(pairs.len(), n);
            let mut seen_dst = vec![false; n];
            for &(src, dst) in &pairs {
                assert_ne!(src, dst, "self-pair in n={n}");
                assert!(!seen_dst[dst], "duplicate receiver in n={n}");
                seen_dst[dst] = true;
            }
        }
    }

    #[test]
    fn cdf_variant_delegates() {
        let d = SizeDist::Cdf(crate::dists::web_search());
        let mut rng = Rng::seed_from_u64(4);
        let s = d.sample(&mut rng);
        assert!(s >= 1);
        assert!(d.mean() > 1_000_000.0);
    }
}
