//! Deterministic random number generation for simulations.
//!
//! All stochastic inputs (arrival times, sequence lengths, address noise) draw
//! from a [`SimRng`] seeded from the experiment configuration, so every run is
//! exactly reproducible.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna) seeded
//! through SplitMix64, so the crate has no external dependencies and the
//! streams are identical on every platform.

use crate::time::{Cycle, Duration};

/// SplitMix64 step: used to expand a 64-bit seed into the xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded pseudo-random generator with the sampling helpers the workloads
/// need.
///
/// # Examples
///
/// ```
/// use sim_core::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child stream; `salt` distinguishes siblings.
    ///
    /// Used to give each benchmark/scheduler pair its own stream so adding a
    /// scheduler never perturbs another's arrivals.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from(s)
    }

    /// Next raw 64-bit value (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 high bits -> uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift; the bias is < 2^-64 per draw, far below
        // anything a simulation statistic can resolve.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Samples an exponential inter-arrival gap for a Poisson process with
    /// `rate_per_sec` events per second, as the paper does for job arrivals
    /// (Section 5.3).
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not strictly positive.
    pub fn exp_interarrival(&mut self, rate_per_sec: f64) -> Duration {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        // Inverse-CDF sampling; clamp u away from 0 to avoid ln(0).
        let u = self.uniform_f64().max(1e-12);
        let secs = -u.ln() / rate_per_sec;
        Duration::from_us_f64(secs * 1e6)
    }

    /// Samples a geometric-like sequence length with the given mean,
    /// truncated to `[min, max]`.
    ///
    /// Used for RNN sequence lengths (WMT'15 trace has mean 16). The
    /// truncated geometric keeps the long tail that makes LJF/SJF behave
    /// distinctly in the paper.
    pub fn seq_length(&mut self, mean: f64, min: u32, max: u32) -> u32 {
        assert!(mean > 1.0 && min >= 1 && min <= max);
        // Geometric on {1,2,...} with success prob p has mean 1/p.
        let p = 1.0 / mean;
        let u = self.uniform_f64().max(1e-12);
        let k = (u.ln() / (1.0 - p).ln()).ceil() as u32;
        k.clamp(min, max)
    }

    /// Multiplicative noise factor `1 ± spread`, uniform.
    ///
    /// `spread` must be in `[0, 1)`.
    pub fn noise(&mut self, spread: f64) -> f64 {
        assert!((0.0..1.0).contains(&spread));
        1.0 + (self.uniform_f64() * 2.0 - 1.0) * spread
    }
}

/// The two draws every seeded fault plan makes, at one intensity over one
/// span: how many faults of a class, and where each one's window lies.
/// The device plan (`gpu_sim::faults::FaultPlan::seeded`) and the fleet
/// plan (`gpu_sim::fleet::FleetFaultPlan::seeded`) both draw through it,
/// each from its own per-class sub-streams.
#[derive(Debug, Clone, Copy)]
pub struct FaultDraws {
    intensity: f64,
    span_cycles: u64,
}

impl FaultDraws {
    /// Draws for a plan at `intensity` whose windows fall inside `span`.
    pub fn new(intensity: f64, span: Duration) -> Self {
        FaultDraws { intensity, span_cycles: span.as_cycles() }
    }

    /// How many faults of a class averaging `mean` per unit intensity:
    /// the scaled mean's floor, plus one with probability its fractional
    /// part (one uniform draw from `r`).
    pub fn count(&self, r: &mut SimRng, mean: f64) -> usize {
        let scaled = mean * self.intensity;
        let base = scaled.floor();
        let extra = usize::from(r.uniform_f64() < (scaled - base));
        base as usize + extra
    }

    /// A window `frac` of the span long (at least one cycle), starting
    /// uniformly where it still ends inside the span when it fits (one
    /// draw from `r`).
    pub fn window(&self, r: &mut SimRng, frac: f64) -> (Cycle, Cycle) {
        let len = ((self.span_cycles as f64 * frac).max(1.0)) as u64;
        let start = r.below(self.span_cycles.saturating_sub(len).max(1));
        (Cycle::from_cycles(start), Cycle::from_cycles(start + len))
    }
}

/// Incremental 64-bit FNV-1a: the one hash every seed derivation
/// (sweep, fleet and scenario-file cell seeds) folds its fields through,
/// so cells that must pair across schedulers or policies agree by
/// construction.
///
/// # Examples
///
/// ```
/// use sim_core::rng::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.eat(b"foobar");
/// assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a-64 offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash of everything eaten so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.eat(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
        // Incremental feeding hashes the concatenation.
        let mut split = Fnv1a::new();
        split.eat(b"foo");
        split.eat(b"bar");
        assert_eq!(split.finish(), hash(b"foobar"));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_sibling_count() {
        let mut root1 = SimRng::seed_from(1);
        let mut root2 = SimRng::seed_from(1);
        let mut f1 = root1.fork(10);
        let mut f2 = root2.fork(10);
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval_and_varies() {
        let mut rng = SimRng::seed_from(11);
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let u = rng.uniform_f64();
            assert!((0.0..1.0).contains(&u));
            distinct.insert(u.to_bits());
        }
        assert!(distinct.len() > 990, "draws should almost never collide");
    }

    #[test]
    fn below_is_in_range_and_covers_small_domains() {
        let mut rng = SimRng::seed_from(13);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn exp_interarrival_has_roughly_correct_mean() {
        let mut rng = SimRng::seed_from(99);
        let rate = 8_000.0; // jobs per second -> mean gap 125us
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exp_interarrival(rate).as_us_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 125.0).abs() < 5.0, "mean gap {mean}us, expected ~125us");
    }

    #[test]
    fn seq_length_has_roughly_correct_mean_and_respects_bounds() {
        let mut rng = SimRng::seed_from(3);
        let n = 20_000;
        let mut total = 0u64;
        for _ in 0..n {
            let l = rng.seq_length(16.0, 1, 64);
            assert!((1..=64).contains(&l));
            total += l as u64;
        }
        let mean = total as f64 / n as f64;
        assert!((mean - 16.0).abs() < 1.5, "mean seq length {mean}, expected ~16");
    }

    #[test]
    fn noise_stays_in_band() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            let f = rng.noise(0.1);
            assert!((0.9..=1.1).contains(&f));
        }
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        SimRng::seed_from(0).below(0);
    }
}
