//! Deterministic pseudo-random number generation.
//!
//! All stochastic behaviour in the simulator — Poisson flow arrivals,
//! flow-size sampling, shadowing, fast fading, TCP jitter — draws from a
//! [`Rng`] that is explicitly seeded by the experiment configuration.
//! The generator is xoshiro256\*\* (Blackman & Vigna), implemented locally
//! so that the exact stream can never change underneath us: there is no
//! external generator crate to rev.

/// xoshiro256\*\* generator with SplitMix64 seeding.
///
/// Cheap to fork: [`Rng::fork`] derives an independent child stream from a
/// label, which lets each UE / each subsystem own its own generator while
/// the whole simulation remains reproducible from a single root seed.
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
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent child generator from this one and a label.
    ///
    /// The label keeps forks structurally stable: adding a new subsystem
    /// fork does not shift the streams of existing subsystems, as long as
    /// their labels stay the same.
    pub fn fork(&self, label: u64) -> Rng {
        // Mix the current state with the label through SplitMix64 so the
        // child stream is decorrelated from the parent's future output.
        let mut sm = self
            .s
            .iter()
            .fold(label ^ 0xA076_1D64_78BD_642F, |acc, &w| {
                acc.wrapping_mul(0x0100_0000_01B3).wrapping_add(w)
            });
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Borrow the raw xoshiro256** state (checkpointing).
    pub fn state(&self) -> &[u64; 4] {
        &self.s
    }

    /// Rebuild a generator from a previously captured state. The state
    /// must not be all zeros (the one fixed point of xoshiro256**);
    /// callers restoring from a snapshot validate that before calling.
    pub fn from_state(s: [u64; 4]) -> Rng {
        debug_assert!(s != [0, 0, 0, 0], "all-zero xoshiro state");
        Rng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
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

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `(0, 1]` — safe input for `ln()`.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform f64 in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Uniform integer in `[0, n)` (Lemire's method, unbiased enough for
    /// simulation purposes via rejection).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Simple rejection against the biased tail.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64_raw();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform usize index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
            let o = r.f64_open();
            assert!(o > 0.0 && o <= 1.0);
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let root = Rng::new(42);
        let mut a1 = root.fork(1);
        let mut a2 = root.fork(1);
        let mut b = root.fork(2);
        // Same label twice => identical stream.
        for _ in 0..100 {
            assert_eq!(a1.next_u64_raw(), a2.next_u64_raw());
        }
        // Different label => different stream.
        let mut a3 = root.fork(1);
        let same = (0..100)
            .filter(|_| a3.next_u64_raw() == b.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(13);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_rate_tracks_p() {
        let mut r = Rng::new(77);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate={rate}");
    }
}
