//! A tiny seeded PRNG for trace generation.
//!
//! The workspace runs offline (no `rand` crate), so trace generators use
//! this self-contained splitmix64 stream. Determinism matters more than
//! statistical perfection here: the same seed must produce byte-identical
//! traces — and therefore byte-identical serving reports — on every run.

/// A splitmix64 generator (Steele et al., "Fast splittable pseudorandom
/// number generators").
#[derive(Debug, Clone)]
pub(crate) struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a stream from a seed. Distinct seeds give independent
    /// streams for practical purposes.
    #[must_use]
    pub(crate) fn new(seed: u64) -> Self {
        Rng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform double in `[0, 1)` with 53 bits of precision.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An exponentially distributed sample with the given mean (inverse
    /// transform), for Poisson inter-arrival gaps.
    pub(crate) fn next_exp(&mut self, mean: f64) -> f64 {
        // 1 - u is in (0, 1], so ln is finite
        -mean * (1.0 - self.next_f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exp_mean_roughly_right() {
        let mut r = Rng::new(9);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(100.0)).sum();
        let mean = sum / f64::from(n);
        assert!((80.0..120.0).contains(&mean), "mean {mean}");
    }
}
