//! Deterministic weight-initialisation helpers.
//!
//! The reproduction has no training loop, so every "learned" parameter in
//! the repository is produced by one of these constructors with a fixed
//! seed. Gaussian draws use [`SplitMix64`] seeded explicitly, so the whole
//! experiment suite is bit-reproducible with zero external dependencies.

/// Minimal deterministic PRNG (SplitMix64, Steele et al.). Passes BigCrush
/// on its own and is more than adequate for weight initialisation; kept
/// in-tree so the workspace builds with no external crates.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)` from the top 24 bits.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Uniform `usize` in `[0, n)`; `n` must be non-zero.
    pub fn next_below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Deterministic Gaussian sampler based on the Box–Muller transform.
///
/// # Example
///
/// ```
/// use nvc_tensor::init::Gaussian;
/// let mut g = Gaussian::new(42);
/// let x = g.sample(0.0, 1.0);
/// let y = g.sample(0.0, 1.0);
/// assert_ne!(x, y);
/// ```
#[derive(Debug, Clone)]
pub struct Gaussian {
    rng: SplitMix64,
    cached: Option<f32>,
}

impl Gaussian {
    /// Creates a sampler from a seed.
    pub fn new(seed: u64) -> Self {
        Gaussian {
            rng: SplitMix64::new(seed),
            cached: None,
        }
    }

    /// Draws one sample from `N(mean, std²)`.
    pub fn sample(&mut self, mean: f32, std: f32) -> f32 {
        let z = if let Some(z) = self.cached.take() {
            z
        } else {
            // Box–Muller: two uniforms in (0, 1] -> two independent normals.
            let u1: f32 = 1.0 - self.rng.next_f32();
            let u2: f32 = self.rng.next_f32();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            self.cached = Some(r * theta.sin());
            r * theta.cos()
        };
        mean + std * z
    }

    /// Fills a buffer with `N(0, std²)` samples.
    pub fn fill(&mut self, buf: &mut [f32], std: f32) {
        for v in buf {
            *v = self.sample(0.0, std);
        }
    }
}

/// He/Kaiming-style standard deviation for a convolution with `fan_in`
/// input connections (`cin * k * k`).
pub fn he_std(fan_in: usize) -> f32 {
    (2.0 / fan_in.max(1) as f32).sqrt()
}

/// Generates a `len`-element Gaussian vector with the given seed and std.
pub fn randn_vec(len: usize, std: f32, seed: u64) -> Vec<f32> {
    let mut g = Gaussian::new(seed);
    let mut v = vec![0.0; len];
    g.fill(&mut v, std);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_is_deterministic_per_seed() {
        let mut a = Gaussian::new(7);
        let mut b = Gaussian::new(7);
        for _ in 0..16 {
            assert_eq!(a.sample(0.0, 1.0), b.sample(0.0, 1.0));
        }
        let mut c = Gaussian::new(8);
        let same: Vec<f32> = (0..8).map(|_| c.sample(0.0, 1.0)).collect();
        let mut a2 = Gaussian::new(7);
        let diff: Vec<f32> = (0..8).map(|_| a2.sample(0.0, 1.0)).collect();
        assert_ne!(same, diff);
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let v = randn_vec(20_000, 1.0, 123);
        let mean: f64 = v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        let var: f64 = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn he_std_shrinks_with_fan_in() {
        assert!(he_std(9) > he_std(144));
        assert!(he_std(0).is_finite());
    }
}
