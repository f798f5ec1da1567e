//! Samplers for the stochastic processes used in the evaluation.
//!
//! * [`Exponential`] — inter-arrival times of the Poisson flow-arrival
//!   processes used in §3, §6.1 and §6.2 of the paper.
//! * [`Poisson`] — counting distribution (used for burst sizing in the
//!   incast case study).
//! * [`Normal`] — Box–Muller; log-normal shadowing in the channel model
//!   one value at a time, and the per-TTI fading innovations a batch at
//!   a time ([`Normal::fill`]; a whole cell's streams through
//!   [`Normal::uniforms`] and one [`Normal::transform`]).
//! * [`Empirical`] — inverse-CDF sampling of tabulated flow-size
//!   distributions (the LTE cellular distribution of Huang et al. \[41\],
//!   MIRAGE mobile-app \[12\], websearch \[13\]) with log-linear interpolation
//!   between knots, which matches how heavy-tailed size CDFs are usually
//!   digitised from published figures.

use crate::math::{cos_tau, ln_positive};
use crate::rng::Rng;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create with rate `lambda` (> 0) events per unit.
    pub fn new(lambda: f64) -> Exponential {
        assert!(lambda > 0.0 && lambda.is_finite(), "lambda={lambda}");
        Exponential { lambda }
    }

    /// Create from the mean inter-arrival instead of the rate.
    pub fn from_mean(mean: f64) -> Exponential {
        Exponential::new(1.0 / mean)
    }

    /// Rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        -rng.f64_open().ln() / self.lambda
    }
}

/// Poisson counting distribution with mean `lambda`.
///
/// Uses Knuth's product method for small means and a normal approximation
/// above `lambda = 64` (counts in our workloads are small, so the
/// approximation path is rarely taken and accuracy there is not critical).
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Create with mean `lambda` (> 0).
    pub fn new(lambda: f64) -> Poisson {
        assert!(lambda > 0.0 && lambda.is_finite(), "lambda={lambda}");
        Poisson { lambda }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.lambda < 64.0 {
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let n = Normal::new(self.lambda, self.lambda.sqrt());
            n.sample(rng).round().max(0.0) as u64
        }
    }
}

/// Values per pass of [`Normal::fill`]: two stack arrays of this many
/// uniforms. One UE's fading advance (2·(8 + 1) draws at the default
/// sub-band count) fits in a single pass.
const FILL_CHUNK: usize = 32;

/// Normal distribution via Box–Muller (one value per draw; the antithetic
/// twin is discarded to keep the sampler stateless).
///
/// Every entry point shares one stream contract: every value consumes
/// exactly two `u64` from the [`Rng`] — `f64_open` for the radius, then
/// `f64` for the angle — so `n` calls of [`Normal::sample`], one
/// [`Normal::fill`] of `n` values and one [`Normal::uniforms`] of `n`
/// values leave the generator in the same state.
/// They differ in who computes `ln` and `cos`: `sample` calls the host's
/// libm and is the reference; `fill` runs the crate's own kernels
/// (`math::ln_positive`, `math::cos_tau`) and agrees with it to `1e-15 · sd`
/// per unit of Box–Muller radius (~1e-15 typically, under 3e-15 in the
/// tails), not bit for bit. `sample` stays on libm because static
/// shadowing draws feed comparisons that a 1-ulp change can flip (see
/// DESIGN.md "Gaussian kernels").
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Create with the given mean and standard deviation (sd >= 0).
    pub fn new(mean: f64, sd: f64) -> Normal {
        assert!(sd >= 0.0 && sd.is_finite(), "sd={sd}");
        Normal { mean, sd }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let u1 = rng.f64_open();
        let u2 = rng.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.sd * z
    }

    /// Fill `out` with samples, drawing from `rng` in [`Normal::sample`]'s
    /// order (see the type's stream contract).
    ///
    /// Works a chunk at a time: first every uniform of the chunk
    /// ([`Normal::uniforms`]; the generator is one serial dependency
    /// chain), then [`Normal::transform`], a loop with no call and no
    /// branch in it, which is what the batching buys — consecutive values
    /// overlap in the pipeline. A caller with several streams can run the
    /// two pieces itself: every stream's uniforms into one buffer, then one
    /// transform over all of them, bit for bit what `fill` per stream
    /// produces.
    pub fn fill(&self, rng: &mut Rng, out: &mut [f64]) {
        let mut radius = [0.0; FILL_CHUNK];
        let mut angle = [0.0; FILL_CHUNK];
        for chunk in out.chunks_mut(FILL_CHUNK) {
            let n = chunk.len();
            Normal::uniforms(rng, &mut radius[..n], &mut angle[..n]);
            self.transform(&radius[..n], &angle[..n], chunk);
        }
    }

    /// Draw the two uniforms of `radius.len()` values from `rng`, in
    /// [`Normal::sample`]'s order: value `i` takes `f64_open` into
    /// `radius[i]`, then `f64` into `angle[i]`. `angle` must be as long
    /// as `radius`.
    #[inline]
    pub fn uniforms(rng: &mut Rng, radius: &mut [f64], angle: &mut [f64]) {
        debug_assert_eq!(radius.len(), angle.len());
        for (a, b) in radius.iter_mut().zip(angle) {
            *a = rng.f64_open();
            *b = rng.f64();
        }
    }

    /// The Box–Muller transform of uniforms [`Normal::uniforms`] drew:
    /// `out[i]` is the value `radius[i]` and `angle[i]` make, through the
    /// crate's own `ln` and `cos` kernels. Each value depends on its own
    /// pair only, so where a batch is cut never moves a bit. All three
    /// slices must have one length.
    #[inline]
    pub fn transform(&self, radius: &[f64], angle: &[f64], out: &mut [f64]) {
        debug_assert!(radius.len() == out.len() && angle.len() == out.len());
        for ((o, &a), &b) in out.iter_mut().zip(radius).zip(angle) {
            let z = (-2.0 * ln_positive(a)).sqrt() * cos_tau(b);
            *o = self.mean + self.sd * z;
        }
    }
}

/// Empirical distribution defined by CDF knots `(value, cum_prob)`.
///
/// Sampling inverts the CDF; between knots the value is interpolated
/// **geometrically** (linear in `log(value)`), which is the natural
/// interpolation for the heavy-tailed, orders-of-magnitude-spanning flow
/// size distributions in Figure 2(a) of the paper.
#[derive(Debug, Clone)]
pub struct Empirical {
    /// (value, cumulative probability), strictly increasing in both.
    knots: Vec<(f64, f64)>,
    /// `ln(value)` per knot, so a quantile costs one `exp` and no `ln`.
    ln_values: Vec<f64>,
    /// `ln` of the nominal minimum one decade below the first knot.
    ln_floor: f64,
}

impl Empirical {
    /// Build from CDF knots. Requirements (checked):
    /// values > 0 and strictly increasing; probabilities strictly
    /// increasing, within (0, 1]; last probability == 1.0.
    pub fn from_cdf(knots: &[(f64, f64)]) -> Empirical {
        assert!(knots.len() >= 2, "need at least two CDF knots");
        for w in knots.windows(2) {
            assert!(w[0].0 < w[1].0, "values must increase: {w:?}");
            assert!(w[0].1 < w[1].1, "probs must increase: {w:?}");
        }
        for &(v, p) in knots {
            assert!(v > 0.0, "values must be positive, got {v}");
            assert!(p > 0.0 && p <= 1.0, "probs in (0,1], got {p}");
        }
        #[expect(clippy::unwrap_used, reason = "`knots.len() >= 2` asserted at entry")]
        let last = knots.last().unwrap();
        assert!(
            (last.1 - 1.0).abs() < 1e-9,
            "last knot must close the CDF at 1.0, got {}",
            last.1
        );
        Empirical {
            knots: knots.to_vec(),
            ln_values: knots.iter().map(|&(v, _)| v.ln()).collect(),
            ln_floor: (knots[0].0 * 0.1).ln(),
        }
    }

    /// Draw one sample by inverse-CDF with log-linear interpolation.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.quantile(rng.f64())
    }

    /// The value at cumulative probability `p` (0 ≤ p ≤ 1).
    #[expect(
        clippy::unwrap_used,
        reason = "constructor asserts >= 2 knots; the scan above returns for every p <= 1.0"
    )]
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let first = self.knots[0];
        if p <= first.1 {
            // Below the first knot: interpolate from a nominal minimum one
            // decade below the first knot value.
            let f = p / first.1;
            return (self.ln_floor + f * (self.ln_values[0] - self.ln_floor)).exp();
        }
        for (w, ln) in self.knots.windows(2).zip(self.ln_values.windows(2)) {
            let (_, p0) = w[0];
            let (_, p1) = w[1];
            if p <= p1 {
                let f = (p - p0) / (p1 - p0);
                return (ln[0] + f * (ln[1] - ln[0])).exp();
            }
        }
        self.knots.last().unwrap().0
    }

    /// The CDF evaluated at `v` (inverse of [`Empirical::quantile`]).
    pub fn cdf(&self, v: f64) -> f64 {
        let first = self.knots[0];
        if v <= first.0 * 0.1 {
            return 0.0;
        }
        if v <= first.0 {
            let f = (v.ln() - self.ln_floor) / (self.ln_values[0] - self.ln_floor);
            return f * first.1;
        }
        for (w, ln) in self.knots.windows(2).zip(self.ln_values.windows(2)) {
            let (_, p0) = w[0];
            let (v1, p1) = w[1];
            if v <= v1 {
                let f = (v.ln() - ln[0]) / (ln[1] - ln[0]);
                return p0 + f * (p1 - p0);
            }
        }
        1.0
    }

    /// Mean of the interpolated distribution, computed by numerical
    /// integration of the quantile function (10k-point midpoint rule —
    /// plenty for workload-calibration purposes).
    pub fn mean(&self) -> f64 {
        let n = 10_000;
        (0..n)
            .map(|i| self.quantile((i as f64 + 0.5) / n as f64))
            .sum::<f64>()
            / n as f64
    }

    /// The knots this distribution was built from.
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.knots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean() {
        let d = Exponential::from_mean(0.25);
        let mut rng = Rng::new(1);
        let n = 200_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.005, "mean={mean}");
        assert!((d.lambda() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::new(1000.0);
        let mut rng = Rng::new(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn poisson_small_mean() {
        let d = Poisson::new(3.0);
        let mut rng = Rng::new(3);
        let n = 100_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<u64>() as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_path() {
        let d = Poisson::new(400.0);
        let mut rng = Rng::new(4);
        let n = 20_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<u64>() as f64 / n as f64;
        assert!((mean - 400.0).abs() < 2.0, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(5.0, 2.0);
        let mut rng = Rng::new(5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.02, "mean={mean}");
        assert!((var - 4.0).abs() < 0.1, "var={var}");
    }

    /// `fill` against `sample` as the reference: same stream position,
    /// values within `1e-15 · sd` per unit of Box–Muller radius (the
    /// kernels' `cos` error, ≤ 6.4e-16, is multiplied by the radius).
    fn assert_fill_matches_sample(d: Normal, seed: u64, len: usize) {
        let mut batched = Rng::new(seed);
        let mut reference = batched.clone();
        let mut got = vec![f64::NAN; len];
        d.fill(&mut batched, &mut got);
        for (i, &v) in got.iter().enumerate() {
            let radius = (-2.0 * reference.clone().f64_open().ln()).sqrt();
            let want = d.sample(&mut reference);
            assert!(
                (v - want).abs() <= 1e-15 * d.sd * radius.max(1.0),
                "len {len} value {i}: fill={v} sample={want}"
            );
        }
        assert_eq!(batched.state(), reference.state(), "len {len}");
    }

    #[test]
    fn fill_matches_sample_across_every_chunk_boundary() {
        for len in 0..=2 * FILL_CHUNK + 6 {
            assert_fill_matches_sample(Normal::new(0.0, 1.0), 100 + len as u64, len);
            assert_fill_matches_sample(Normal::new(0.0, 0.25), 200 + len as u64, len);
        }
    }

    #[test]
    fn fill_with_zero_sd_is_the_mean_and_still_draws() {
        let mut rng = Rng::new(8);
        let mut out = [0.0; 5];
        Normal::new(3.5, 0.0).fill(&mut rng, &mut out);
        assert_eq!(out, [3.5; 5]);
        let mut skipped = Rng::new(8);
        for _ in 0..10 {
            skipped.next_u64_raw();
        }
        assert_eq!(rng.state(), skipped.state());
    }

    /// Several streams' uniforms drawn into one buffer, then one
    /// transform over all of them, is `fill` per stream, bit for bit:
    /// for stream counts {1, 2, 3, 16, 33} and per-stream lengths on
    /// both sides of `FILL_CHUNK` (one chunk, two, three).
    #[test]
    fn uniforms_then_one_transform_is_fill_per_stream() {
        let d = Normal::new(0.0, std::f64::consts::FRAC_1_SQRT_2);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for streams in [1usize, 2, 3, 16, 33] {
            for len in [2usize, 18, FILL_CHUNK + 2, 2 * FILL_CHUNK + 3] {
                let seeds = |s: usize| Rng::new(1000 * streams as u64 + s as u64).fork(len as u64);
                let mut filled = vec![0.0; streams * len];
                let mut by_fill: Vec<Rng> = (0..streams).map(seeds).collect();
                for (rng, out) in by_fill.iter_mut().zip(filled.chunks_mut(len)) {
                    d.fill(rng, out);
                }
                let (mut radius, mut angle) = (vec![0.0; streams * len], vec![0.0; streams * len]);
                let mut by_parts: Vec<Rng> = (0..streams).map(seeds).collect();
                for ((rng, r), a) in by_parts
                    .iter_mut()
                    .zip(radius.chunks_mut(len))
                    .zip(angle.chunks_mut(len))
                {
                    Normal::uniforms(rng, r, a);
                }
                let mut composed = vec![f64::NAN; streams * len];
                d.transform(&radius, &angle, &mut composed);
                assert_eq!(bits(&composed), bits(&filled), "{streams} × {len}");
                for (a, b) in by_parts.iter().zip(&by_fill) {
                    assert_eq!(a.state(), b.state(), "{streams} × {len}");
                }
            }
        }
    }

    /// Filling two adjacent sub-slices is filling the whole slice:
    /// no value depends on where the chunking put it.
    #[test]
    fn fill_on_sub_slices_composes() {
        crate::check("fill_on_sub_slices_composes", 64, |rng| {
            let seed = rng.below(1 << 40);
            let len = rng.index(150);
            let cut = rng.index(150).min(len);
            let d = Normal::new(rng.range_f64(-10.0, 10.0), rng.range_f64(0.0, 5.0));
            let mut whole = vec![0.0; len];
            d.fill(&mut Rng::new(seed), &mut whole);
            let mut parts = vec![0.0; len];
            let mut rng = Rng::new(seed);
            let (a, b) = parts.split_at_mut(cut);
            d.fill(&mut rng, a);
            d.fill(&mut rng, b);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&whole), bits(&parts));
        });
    }

    /// Φ(x) by Abramowitz & Stegun 7.1.26 (|error| < 1.5e-7).
    fn normal_cdf(x: f64) -> f64 {
        let t = 1.0 / (1.0 + 0.327_591_1 * x.abs() / std::f64::consts::SQRT_2);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let erf = 1.0 - poly * (-x * x / 2.0).exp();
        0.5 * (1.0 + erf.copysign(x))
    }

    #[test]
    fn fill_is_normally_distributed() {
        let n = 100_000;
        let mut xs = vec![0.0; n];
        Normal::new(5.0, 2.0).fill(&mut Rng::new(5), &mut xs);
        assert!(xs.iter().all(|x| x.is_finite()));
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.02, "mean={mean}");
        assert!((var - 4.0).abs() < 0.1, "var={var}");
        // Kolmogorov–Smirnov distance to N(5, 2²); the 0.1 % critical
        // value at n = 10⁵ is 1.95 / √n ≈ 0.0062.
        xs.sort_by(f64::total_cmp);
        let ks = crate::stats::ks_distance(&xs, |x| normal_cdf((x - 5.0) / 2.0));
        assert!(ks < 0.0062, "ks={ks}");
    }

    fn toy_cdf() -> Empirical {
        Empirical::from_cdf(&[(1e3, 0.5), (1e4, 0.9), (1e6, 1.0)])
    }

    #[test]
    fn empirical_quantile_hits_knots() {
        let d = toy_cdf();
        assert!((d.quantile(0.5) - 1e3).abs() < 1e-6);
        assert!((d.quantile(0.9) - 1e4).abs() < 1e-6);
        assert!((d.quantile(1.0) - 1e6).abs() < 1e-3);
    }

    #[test]
    fn empirical_cdf_inverts_quantile() {
        let d = toy_cdf();
        for p in [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.999] {
            let v = d.quantile(p);
            assert!((d.cdf(v) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn empirical_sampling_matches_cdf() {
        let d = toy_cdf();
        let mut rng = Rng::new(6);
        let n = 100_000;
        let below_1k = (0..n).filter(|_| d.sample(&mut rng) <= 1e3).count();
        let frac = below_1k as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn empirical_mean_is_heavier_than_median() {
        // Heavy tail: mean far above the median.
        let d = toy_cdf();
        let mean = d.mean();
        assert!(mean > 5e3, "mean={mean}");
    }

    #[test]
    #[should_panic]
    fn empirical_rejects_unsorted() {
        let _ = Empirical::from_cdf(&[(1e4, 0.5), (1e3, 1.0)]);
    }

    #[test]
    #[should_panic]
    fn empirical_rejects_open_cdf() {
        let _ = Empirical::from_cdf(&[(1e3, 0.5), (1e4, 0.9)]);
    }
}
