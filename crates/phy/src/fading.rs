//! Time- and frequency-selective small-scale fading.
//!
//! The paper feeds srsENB and NS-3 with 3GPP TS 36.141 fading traces
//! (EPA-like pedestrian profile). We synthesise an equivalent process:
//!
//! * **Time selectivity** — each tap is a complex Gauss–Markov (AR(1))
//!   process whose correlation across one TTI derives from the Doppler
//!   spread: `ρ = exp(−Δt / T_c)` with coherence time `T_c ≈ 0.423 / f_d`
//!   (Clarke's model rule of thumb) and `f_d = v·f_c / c`.
//! * **Frequency selectivity** — the band is split into `n_subbands`
//!   groups of RBs; each subband gets an independent Rayleigh tap, plus a
//!   common wideband component, mimicking the RB-to-RB variation the
//!   frequency-selective channel produces (paper §4.1: "the channel
//!   condition of a user varies across different RBs").
//!
//! The output per subband is a power gain in dB relative to the local
//! mean (0 dB average in linear power).

use outran_simcore::{Dur, Rng};

/// One complex AR(1) Rayleigh tap.
#[derive(Debug, Clone, Copy)]
struct Tap {
    re: f64,
    im: f64,
}

impl Tap {
    fn new(rng: &mut Rng) -> Tap {
        // Complex Gaussian with variance 1/2 per dimension => E[|h|²]=1.
        let g = outran_simcore::Normal::new(0.0, std::f64::consts::FRAC_1_SQRT_2);
        Tap {
            re: g.sample(rng),
            im: g.sample(rng),
        }
    }

    fn advance(&mut self, rho: f64, rng: &mut Rng) {
        let g = outran_simcore::Normal::new(0.0, std::f64::consts::FRAC_1_SQRT_2);
        let w = (1.0 - rho * rho).sqrt();
        // `fill`, not `sample`: the same kernels `CellChannel` advances
        // its tap planes with, so the two stay bit-identical.
        let mut z = [0.0; 2];
        g.fill(rng, &mut z);
        self.re = rho * self.re + w * z[0];
        self.im = rho * self.im + w * z[1];
    }

    /// Instantaneous power gain |h|² (mean 1.0).
    fn power(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

/// Fading process for one UE: `n_subbands` subband taps + 1 wideband tap.
#[derive(Debug, Clone)]
pub struct FadingProcess {
    subband: Vec<Tap>,
    wideband: Tap,
    /// AR(1) coefficient per advance step.
    rho: f64,
    /// Mixing weight of the wideband component (0 = fully frequency
    /// selective, 1 = flat fading).
    flatness: f64,
    rng: Rng,
}

impl FadingProcess {
    /// Create a fading process.
    ///
    /// * `n_subbands` — number of independently fading frequency groups.
    /// * `doppler_hz` — maximum Doppler shift `f_d` (0 allowed: static).
    /// * `step` — simulation step between [`FadingProcess::advance`] calls.
    /// * `flatness` — weight of the common wideband tap in (0..=1).
    pub fn new(
        n_subbands: usize,
        doppler_hz: f64,
        step: Dur,
        flatness: f64,
        mut rng: Rng,
    ) -> FadingProcess {
        assert!(n_subbands >= 1);
        assert!((0.0..=1.0).contains(&flatness));
        let rho = if doppler_hz <= 0.0 {
            1.0
        } else {
            let coherence_s = 0.423 / doppler_hz;
            (-step.as_secs_f64() / coherence_s).exp()
        };
        let subband = (0..n_subbands).map(|_| Tap::new(&mut rng)).collect();
        let wideband = Tap::new(&mut rng);
        FadingProcess {
            subband,
            wideband,
            rho,
            flatness,
            rng,
        }
    }

    /// Number of subbands.
    pub fn n_subbands(&self) -> usize {
        self.subband.len()
    }

    /// AR(1) coefficient in use (1.0 = frozen channel).
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Advance all taps by one step.
    pub fn advance(&mut self) {
        if self.rho >= 1.0 {
            return; // static channel
        }
        let rho = self.rho;
        for tap in &mut self.subband {
            tap.advance(rho, &mut self.rng);
        }
        self.wideband.advance(rho, &mut self.rng);
    }

    /// Advance all taps by `steps` steps in one composed AR(1) jump.
    ///
    /// The k-step transition of a Gauss–Markov tap is itself Gauss–Markov
    /// with coefficient `ρᵏ`, so a single draw pair per tap lands on the
    /// exact k-step marginal distribution. `steps == 1` delegates to
    /// [`FadingProcess::advance`] and is bitwise-identical to calling it
    /// directly; `steps == 0` is a no-op.
    pub fn advance_by(&mut self, steps: u64) {
        match steps {
            0 => {}
            1 => self.advance(),
            k => {
                if self.rho >= 1.0 {
                    return; // static channel
                }
                let rho_k = self.rho.powi(k.min(i32::MAX as u64) as i32);
                for tap in &mut self.subband {
                    tap.advance(rho_k, &mut self.rng);
                }
                self.wideband.advance(rho_k, &mut self.rng);
            }
        }
    }

    /// Instantaneous power gain (linear, mean ≈ 1.0) for a subband.
    pub fn gain_linear(&self, subband: usize) -> f64 {
        let s = self.subband[subband].power();
        let w = self.wideband.power();
        self.flatness * w + (1.0 - self.flatness) * s
    }

    /// Instantaneous gain in dB for a subband.
    pub fn gain_db(&self, subband: usize) -> f64 {
        10.0 * self.gain_linear(subband).max(1e-12).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc_with(doppler: f64, flat: f64) -> FadingProcess {
        FadingProcess::new(8, doppler, Dur::from_millis(1), flat, Rng::new(11))
    }

    #[test]
    fn mean_power_is_unity() {
        let mut p = proc_with(30.0, 0.0);
        let mut acc = 0.0;
        let n = 50_000;
        for _ in 0..n {
            p.advance();
            acc += p.gain_linear(3);
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn static_channel_never_changes() {
        let mut p = proc_with(0.0, 0.0);
        let g0 = p.gain_linear(0);
        for _ in 0..100 {
            p.advance();
        }
        assert_eq!(p.gain_linear(0), g0);
        assert_eq!(p.rho(), 1.0);
    }

    #[test]
    fn high_doppler_decorrelates_faster() {
        let slow = proc_with(5.0, 0.0);
        let fast = proc_with(200.0, 0.0);
        assert!(fast.rho() < slow.rho());
        assert!(slow.rho() < 1.0);
    }

    #[test]
    fn subbands_differ_when_selective() {
        let p = proc_with(30.0, 0.0);
        let gains: Vec<f64> = (0..8).map(|i| p.gain_linear(i)).collect();
        let spread = gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - gains.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 1e-6, "subbands should not be identical");
    }

    #[test]
    fn flat_fading_makes_subbands_equal() {
        let p = proc_with(30.0, 1.0);
        let g0 = p.gain_linear(0);
        for i in 1..8 {
            assert!((p.gain_linear(i) - g0).abs() < 1e-12);
        }
    }

    #[test]
    fn rayleigh_tail_exists() {
        // Rayleigh power gain dips below -10 dB about 10% of the time.
        let mut p = proc_with(50.0, 0.0);
        let n = 100_000;
        let mut deep = 0;
        for _ in 0..n {
            p.advance();
            if p.gain_db(0) < -10.0 {
                deep += 1;
            }
        }
        let frac = deep as f64 / n as f64;
        assert!((0.05..0.15).contains(&frac), "deep-fade frac={frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FadingProcess::new(4, 30.0, Dur::from_millis(1), 0.3, Rng::new(5));
        let mut b = FadingProcess::new(4, 30.0, Dur::from_millis(1), 0.3, Rng::new(5));
        for _ in 0..100 {
            a.advance();
            b.advance();
            assert_eq!(a.gain_linear(2), b.gain_linear(2));
        }
    }
}
