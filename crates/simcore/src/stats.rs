//! Streaming statistics primitives.
//!
//! * [`RunningStats`] — Welford mean/variance plus min/max, used for FCT
//!   aggregation and resource-usage summaries.
//! * [`Ewma`] — exponentially-weighted moving average. This is exactly the
//!   "long-term average throughput r̃_u(t)" of the PF per-RB metric in
//!   eq. (1) of the paper; the smoothing constant is derived from the
//!   *fairness window* T_f swept in the §6.3 ablation (Figure 18a/b).
//! * [`Percentiles`] — exact percentiles over a retained sample vector
//!   (the evaluation's sample counts — tens of thousands of flows — make
//!   exact retention cheap).
//! * [`ks_distance`] — the Kolmogorov–Smirnov statistic of a sample
//!   against a reference CDF, for the distribution tests.

/// Welford online mean/variance with min/max tracking.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    pub(crate) n: u64,
    pub(crate) mean: f64,
    pub(crate) m2: f64,
    pub(crate) min: f64,
    pub(crate) max: f64,
}

impl RunningStats {
    /// Create an empty accumulator.
    pub fn new() -> RunningStats {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exponentially-weighted moving average with explicit smoothing factor.
///
/// `alpha` is the weight of the newest observation:
/// `avg ← (1 − α)·avg + α·x`. For a PF fairness window of `T_f` spanning
/// `N = T_f / TTI` scheduling intervals, use [`Ewma::from_window`], which
/// sets `α = 1/N` — the standard LTE PF formulation where T_f acts as the
/// averaging horizon (Girici et al. \[37\], Musleh et al. \[57\]).
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    pub(crate) alpha: f64,
    pub(crate) value: f64,
    pub(crate) primed: bool,
}

impl Ewma {
    /// Create with the given smoothing factor `alpha ∈ (0, 1]`.
    pub fn new(alpha: f64) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha={alpha}");
        Ewma {
            alpha,
            value: 0.0,
            primed: false,
        }
    }

    /// Create from an averaging window of `n` updates (`alpha = 1/n`).
    pub fn from_window(n: u64) -> Ewma {
        Ewma::new(1.0 / n.max(1) as f64)
    }

    /// Smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Update with a new observation, returning the new average.
    ///
    /// The first observation initialises the average directly (avoids the
    /// cold-start bias of starting from zero).
    pub fn update(&mut self, x: f64) -> f64 {
        if self.primed {
            self.value += self.alpha * (x - self.value);
        } else {
            self.value = x;
            self.primed = true;
        }
        self.value
    }

    /// Fold in `k` zero observations at once — the composed equivalent
    /// of an idle span in a per-tick EWMA. Matches the semantics of `k`
    /// consecutive `update(0.0)` calls (the first primes an unprimed
    /// average at zero; primed averages decay geometrically), computed
    /// in O(1) so virtual-time skipping can batch arbitrarily long idle
    /// runs. Note the composed product `v·(1−α)^k` is the *definition*
    /// of the idle decay under skipping — both the dense and
    /// event-driven cell loops defer to this same composition at the
    /// next active tick, which is what keeps them bit-identical.
    pub fn decay(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        if self.primed {
            self.value *= (1.0 - self.alpha).powf(k as f64);
        } else {
            self.value = 0.0;
            self.primed = true;
        }
    }

    /// Current average (0 until the first update).
    pub fn get(&self) -> f64 {
        if self.primed {
            self.value
        } else {
            0.0
        }
    }

    /// Whether at least one observation was folded in.
    pub fn is_primed(&self) -> bool {
        self.primed
    }

    /// Force the average to a specific value (used when initialising the
    /// PF average from a known rate to avoid a start-up transient).
    pub fn prime(&mut self, x: f64) {
        self.value = x;
        self.primed = true;
    }
}

/// Exact percentile computation over retained samples.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    pub(crate) samples: Vec<f64>,
    pub(crate) sorted: bool,
}

impl Percentiles {
    /// Create an empty collector.
    pub fn new() -> Percentiles {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of retained observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`) by nearest-rank with linear
    /// interpolation; NaN when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.samples.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (self.samples.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            self.samples[lo]
        } else {
            let f = rank - lo as f64;
            self.samples[lo] * (1.0 - f) + self.samples[hi] * f
        }
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Sample mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            f64::NAN
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Immutable view of the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Produce `(value, cum_prob)` CDF points suitable for plotting,
    /// down-sampled to at most `max_points`.
    pub fn cdf_points(&mut self, max_points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() {
            return Vec::new();
        }
        // Sorting is needed; reuse percentile's lazy sort.
        let _ = self.percentile(0.0);
        let n = self.samples.len();
        let step = (n / max_points.max(1)).max(1);
        let mut out = Vec::with_capacity(n / step + 1);
        let mut i = 0;
        while i < n {
            out.push((self.samples[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|&(_, p)| p) != Some(1.0) {
            out.push((self.samples[n - 1], 1.0));
        }
        out
    }
}

/// Jain's fairness index over a slice of non-negative values — eq. (3) of
/// the paper: `(Σx)² / (n·Σx²)`. Returns 1.0 for an empty or all-zero
/// input (a degenerate allocation is trivially "fair").
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sum_sq)
}

/// Kolmogorov–Smirnov distance `sup |F_n(x) − cdf(x)|` between the
/// empirical CDF of `sorted` (ascending) and `cdf`. 0.0 for no samples.
pub fn ks_distance(sorted: &[f64], cdf: impl Fn(f64) -> f64) -> f64 {
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = cdf(x);
            (f - i as f64 / n).max((i + 1) as f64 / n - f)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        xs[..37].iter().for_each(|&x| a.push(x));
        xs[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn ewma_first_update_primes() {
        let mut e = Ewma::new(0.1);
        assert!(!e.is_primed());
        assert_eq!(e.update(10.0), 10.0);
        let v = e.update(0.0);
        assert!((v - 9.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_window_convergence() {
        // With window n, a step input converges with time constant ~n.
        let mut e = Ewma::from_window(100);
        e.prime(0.0);
        for _ in 0..100 {
            e.update(1.0);
        }
        // After n updates, should be ~1 - 1/e = 0.632.
        assert!((e.get() - 0.634).abs() < 0.02, "got {}", e.get());
    }

    #[test]
    fn percentiles_exact_on_small_sets() {
        let mut p = Percentiles::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            p.push(x);
        }
        assert_eq!(p.percentile(0.0), 1.0);
        assert_eq!(p.percentile(100.0), 5.0);
        assert_eq!(p.median(), 3.0);
        assert_eq!(p.percentile(25.0), 2.0);
        assert!((p.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolates() {
        let mut p = Percentiles::new();
        p.push(0.0);
        p.push(10.0);
        assert!((p.percentile(50.0) - 5.0).abs() < 1e-12);
        assert!((p.percentile(99.0) - 9.9).abs() < 1e-12);
    }

    #[test]
    fn percentiles_empty_is_nan() {
        let mut p = Percentiles::new();
        assert!(p.percentile(50.0).is_nan());
        assert!(p.mean().is_nan());
        assert!(p.cdf_points(10).is_empty());
    }

    #[test]
    fn cdf_points_are_monotonic_and_closed() {
        let mut p = Percentiles::new();
        for i in 0..1000 {
            p.push((i % 97) as f64);
        }
        let pts = p.cdf_points(50);
        assert!(pts.len() <= 52);
        for w in pts.windows(2) {
            assert!(w[0].1 <= w[1].1);
            assert!(w[0].0 <= w[1].0);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One user hogging everything among n users => 1/n.
        let idx = jain_fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn push_after_percentile_resorts() {
        let mut p = Percentiles::new();
        p.push(5.0);
        p.push(1.0);
        assert_eq!(p.percentile(0.0), 1.0);
        p.push(0.5);
        assert_eq!(p.percentile(0.0), 0.5);
    }
}
