//! Deterministic pseudo-random number generation.
//!
//! Experiments must be bit-reproducible across machines and across releases
//! of this workspace, so we implement xoshiro256** (Blackman & Vigna) with a
//! SplitMix64 seeder instead of depending on the `rand` crate, whose stream
//! definitions may change between major versions. The generator is tiny,
//! fast, and passes BigCrush.

use crate::time::Duration;

/// Deterministic xoshiro256** PRNG seeded via SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed. Identical seeds always yield
    /// identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derive an independent child generator; used to give each component
    /// (workload generator, ECMP hasher, …) its own stream so that adding
    /// randomness consumption in one place does not perturb the others.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift rejection
    /// method (unbiased).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= lo.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Exponentially distributed value with the given mean (used for Poisson
    /// inter-arrival times).
    #[inline]
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - f64() is in (0, 1], avoiding ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Exponentially distributed duration with the given mean.
    #[inline]
    pub fn exp_duration(&mut self, mean: Duration) -> Duration {
        Duration::from_secs_f64(self.exp_f64(mean.as_secs_f64()))
    }

    /// Standard normal deviate (Marsaglia polar method).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = self.range_f64(-1.0, 1.0);
            let v = self.range_f64(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Log-normally distributed value parameterized by the *target*
    /// arithmetic mean and standard deviation (not the underlying normal's
    /// µ/σ), which is what delay-model calibration wants.
    pub fn lognormal_mean_std(&mut self, mean: f64, std: f64) -> f64 {
        debug_assert!(mean > 0.0 && std >= 0.0);
        // std == 0.0 is a caller-supplied degenerate-distribution sentinel
        // (constant value), not a computed quantity.
        if std == 0.0 {
            return mean;
        }
        let cv2 = (std / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * self.normal()).exp()
    }

    /// Pick a uniformly random element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Stateless 64-bit mix suitable for ECMP-style flow hashing: deterministic,
/// well-distributed, and independent of the RNG streams.
#[inline]
pub fn hash_mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic multiply-rotate hasher for hot-path *lookup* maps.
///
/// Unlike the std `RandomState`, the seed is a compile-time constant, so a
/// [`DetMap`]'s internal layout is identical across processes — and unlike
/// SipHash it is a handful of arithmetic ops per word, which matters on
/// per-event paths (the engine's timer-token table re-hashes on every
/// RTO re-arm). Collision quality comes from the same finalizer as
/// [`hash_mix`]. Not a defense against adversarial keys; the simulator
/// hashes its own ids only.
#[derive(Default)]
pub struct DetHasher {
    state: u64,
}

impl std::hash::Hasher for DetHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state.rotate_left(5) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table derives its control bytes from the high bits, so run
        // the avalanche finalizer over the raw multiply-rotate state.
        hash_mix(self.state)
    }
}

/// [`BuildHasher`](std::hash::BuildHasher) for [`DetHasher`] (zero-sized,
/// constant seed).
#[derive(Default, Clone, Copy)]
pub struct DetState;

impl std::hash::BuildHasher for DetState {
    type Hasher = DetHasher;

    #[inline]
    fn build_hasher(&self) -> DetHasher {
        DetHasher::default()
    }
}

/// A hash map with the deterministic [`DetState`] hasher, for keyed-lookup
/// tables on per-event paths. Iteration order is still arbitrary (it
/// follows the table layout, not insertion or key order) — callers must
/// only ever look up by key, never iterate; anything that walks entries
/// belongs in a `BTreeMap`.
#[expect(
    clippy::disallowed_types,
    reason = "constant-seed DetState hasher, not RandomState; keyed lookup only"
)]
pub type DetMap<K, V> = std::collections::HashMap<K, V, DetState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_unbiased_small_range() {
        let mut r = Rng::seed_from_u64(9);
        let mut counts = [0u32; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(5) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.2).abs() < 0.01, "bucket fraction {frac}");
        }
    }

    #[test]
    fn exp_mean_converges() {
        let mut r = Rng::seed_from_u64(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp_f64(3.5)).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::seed_from_u64(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn lognormal_calibration() {
        let mut r = Rng::seed_from_u64(17);
        let n = 300_000;
        let xs: Vec<f64> = (0..n).map(|_| r.lognormal_mean_std(39.3, 12.2)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 39.3).abs() < 0.3, "mean {mean}");
        assert!((var.sqrt() - 12.2).abs() < 0.3, "std {}", var.sqrt());
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exp_duration_positive() {
        let mut r = Rng::seed_from_u64(19);
        let d = r.exp_duration(Duration::from_micros(100));
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn fork_independence() {
        let mut parent = Rng::seed_from_u64(31);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn hash_mix_spreads() {
        // adjacent inputs should map far apart (no trivial linearity)
        let a = hash_mix(1);
        let b = hash_mix(2);
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
    }
}
