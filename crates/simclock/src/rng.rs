//! Deterministic randomness helpers.
//!
//! All stochastic behaviour in the simulation (access-pattern sampling,
//! trace generation) flows through seeded [`rand::rngs::StdRng`] instances
//! created here, so that every experiment run is reproducible bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
///
/// let mut a = simclock::rng::seeded(7);
/// let mut b = simclock::rng::seeded(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child RNG deterministically from a parent seed and a label.
///
/// Different subsystems seed their RNGs from `(experiment_seed, label)` so
/// that adding a new consumer of randomness does not perturb the streams of
/// existing ones.
pub fn derived(seed: u64, label: &str) -> StdRng {
    // FNV-1a over the label, mixed with the seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    StdRng::seed_from_u64(seed ^ h)
}

/// Samples an exponentially distributed inter-arrival gap with the given
/// mean, in fractional seconds.
///
/// Used by the trace generator for Poisson arrivals. Always returns a
/// finite, non-negative value.
pub fn exp_sample<R: Rng>(rng: &mut R, mean_secs: f64) -> f64 {
    assert!(mean_secs > 0.0, "mean must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (-u.ln()) * mean_secs
}

/// A reusable Zipf sampler over ranks `[0, n)`.
///
/// # Example
///
/// ```
/// use simclock::rng::{seeded, ZipfSampler};
///
/// let mut rng = seeded(1);
/// let z = ZipfSampler::new(10, 1.0);
/// let r = z.sample(&mut rng);
/// assert!(r < 10);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with skew `s` (`s = 0` is uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "skew must be finite and >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` only for the degenerate zero-rank sampler (unreachable via
    /// `new`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(99);
        let mut b = seeded(99);
        let va: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn derived_streams_differ_by_label() {
        let mut a = derived(1, "alpha");
        let mut b = derived(1, "beta");
        let va: u64 = a.gen();
        let vb: u64 = b.gen();
        assert_ne!(va, vb);
        // Same label ⇒ same stream.
        let mut c = derived(1, "alpha");
        let vc: u64 = c.gen();
        assert_eq!(va, vc);
    }

    #[test]
    fn exp_sample_has_roughly_right_mean() {
        let mut rng = seeded(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exp_sample(&mut rng, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn exp_sample_rejects_nonpositive_mean() {
        let mut rng = seeded(0);
        let _ = exp_sample(&mut rng, 0.0);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = seeded(3);
        let z = ZipfSampler::new(100, 1.2);
        let mut low = 0;
        let trials = 10_000;
        for _ in 0..trials {
            if z.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        // With s=1.2 the top-10 ranks should dominate.
        assert!(low > trials / 2, "low-rank hits: {low}/{trials}");
    }

    #[test]
    fn zipf_zero_skew_is_roughly_uniform() {
        let mut rng = seeded(4);
        let z = ZipfSampler::new(10, 0.0);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((700..=1300).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty_domain() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn zipf_samples_stay_in_range() {
        let mut rng = seeded(5);
        let z = ZipfSampler::new(3, 2.5);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }
}
