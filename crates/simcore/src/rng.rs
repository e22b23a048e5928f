//! Deterministic random numbers for reproducible simulations.
//!
//! We implement xoshiro256** (seeded through SplitMix64) directly rather
//! than relying on an external generator, so that a given seed produces the
//! same experiment on every platform and dependency version — the property
//! the paper's "each scheme is tested 100 times" methodology depends on.

/// Derives the `index`-th seed of the SplitMix64 stream rooted at `base`.
///
/// Each index yields a statistically independent seed, and the mapping
/// depends only on `(base, index)` — never on evaluation order — which is
/// what lets [`crate::exec::Executor::par_map_seeded`] hand every experiment point
/// its own stream while staying bit-identical at any thread count.
///
/// # Example
///
/// ```
/// use dsh_simcore::split_seed;
/// assert_eq!(split_seed(42, 3), split_seed(42, 3));
/// assert_ne!(split_seed(42, 3), split_seed(42, 4));
/// ```
#[must_use]
pub fn split_seed(base: u64, index: u64) -> u64 {
    // SplitMix64 with the stream position folded into the state, per
    // Vigna's reference implementation (same constants as `SimRng::new`).
    let sm = base.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E3779B97F4A7C15));
    let mut z = sm;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic pseudo-random number generator (xoshiro256**).
///
/// # Example
///
/// ```
/// use dsh_simcore::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.gen_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion, per Vigna's reference implementation.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        SimRng { s: [next(), next(), next(), next()] }
    }

    /// Derives an independent child generator; use to give each component
    /// its own stream without correlating them.
    #[must_use]
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range requires n > 0");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            // Rejection zone check (rare path).
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform usize index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(n as u64) as usize
    }

    /// Samples an exponential random variable with the given mean.
    ///
    /// Used for Poisson inter-arrival times (the paper's flow arrivals).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "exponential mean must be positive");
        let u = loop {
            let u = self.gen_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.gen_index(items.len())]
    }

    /// Fisher–Yates shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_is_bounded_and_covers() {
        let mut r = SimRng::new(4);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = r.gen_range(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(5);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.gen_exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "empirical mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(6);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input unchanged");
    }

    #[test]
    fn fork_streams_are_uncorrelated() {
        let mut parent = SimRng::new(8);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_seed_is_order_free_and_spreads() {
        let a: Vec<u64> = (0..64).map(|i| split_seed(7, i)).collect();
        let b: Vec<u64> = (0..64).rev().map(|i| split_seed(7, i)).collect();
        assert_eq!(a, b.into_iter().rev().collect::<Vec<_>>());
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "derived seeds collided");
        // Streams rooted at different bases diverge.
        let same = (0..64).filter(|&i| split_seed(7, i) == split_seed(8, i)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_bool_probability() {
        let mut r = SimRng::new(9);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "{frac}");
    }
}
