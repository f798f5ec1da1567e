//! Additional classic LTE downlink schedulers from the survey the paper
//! builds on (Capozzi et al. \[24\]): Blind Equal Throughput and Modified
//! Largest Weighted Delay First. Neither is flow-aware; both are useful
//! reference points between RR and the QoS-aware baselines.

use outran_simcore::{Dur, Ewma, Time};

use crate::types::{Allocation, RateSource, Scheduler, UeTti};
use outran_simcore::snap_fields;

/// Blind Equal Throughput: metric `1 / r̃_u` — equalises *throughput*
/// across users regardless of channel (unlike PF, which equalises a
/// channel-normalised share). Costs spectral efficiency to lift
/// cell-edge users.
#[derive(Debug, Clone)]
pub struct BetScheduler {
    avg: Vec<Ewma>,
}

impl BetScheduler {
    /// Create for `n_ues` with averaging window `tf` at TTI `tti`.
    pub fn new(n_ues: usize, tf: Dur, tti: Dur) -> BetScheduler {
        let window = (tf.as_nanos() / tti.as_nanos()).max(1);
        BetScheduler {
            avg: vec![Ewma::from_window(window); n_ues],
        }
    }
}

snap_fields! { overlay BetScheduler { avg: fixed } }

impl Scheduler for BetScheduler {
    fn allocate_into(
        &mut self,
        _now: Time,
        ues: &[UeTti],
        active: &[u16],
        rates: &dyn RateSource,
        alloc: &mut Allocation,
    ) {
        let n_rbs = rates.n_rbs();
        alloc.reset(n_rbs, ues.len());
        for rb in 0..n_rbs {
            let mut best: Option<(usize, f64, f64)> = None;
            for &u in active {
                let u = u as usize;
                let r = rates.rate(u, rb);
                if r <= 0.0 {
                    continue;
                }
                let avg = self.avg[u].get();
                let m = if avg <= 0.0 { f64::INFINITY } else { 1.0 / avg };
                if best.is_none_or(|(_, bm, _)| m > bm) {
                    best = Some((u, m, r));
                }
            }
            if let Some((u, _, r)) = best {
                alloc.assign(rb, u as u16, r);
            }
        }
    }

    fn on_served(&mut self, served_bits: &[f64]) {
        for (e, &s) in self.avg.iter_mut().zip(served_bits) {
            e.update(s);
        }
    }

    fn on_idle(&mut self, k: u64) {
        for e in &mut self.avg {
            e.decay(k);
        }
    }

    fn name(&self) -> &'static str {
        "BET"
    }
}

/// Modified Largest Weighted Delay First: metric
/// `a_u · d_HOL(u) · r_{u,b} / r̃_u` with `a_u = −log(δ)/τ` from the
/// class's delay budget τ and violation probability δ. Head-of-line
/// delay multiplies the PF metric, so queues that have waited longest
/// win ties — a delay-aware PF without flow-size knowledge.
#[derive(Debug, Clone)]
pub struct MlwdfScheduler {
    avg: Vec<Ewma>,
    /// Per-class weight `a = −log(δ)/τ` (1/s).
    weight: f64,
}

impl MlwdfScheduler {
    /// Create with delay budget `tau` and violation probability `delta`.
    pub fn new(n_ues: usize, tf: Dur, tti: Dur, tau: Dur, delta: f64) -> MlwdfScheduler {
        assert!(delta > 0.0 && delta < 1.0);
        let window = (tf.as_nanos() / tti.as_nanos()).max(1);
        MlwdfScheduler {
            avg: vec![Ewma::from_window(window); n_ues],
            weight: -delta.ln() / tau.as_secs_f64(),
        }
    }

    /// The default 3GPP-ish parametrisation: τ = 100 ms, δ = 0.05.
    pub fn with_defaults(n_ues: usize, tf: Dur, tti: Dur) -> MlwdfScheduler {
        MlwdfScheduler::new(n_ues, tf, tti, Dur::from_millis(100), 0.05)
    }
}

// `weight` is config-derived; only the averages move.
snap_fields! { overlay MlwdfScheduler { avg: fixed } rebuilt { weight } }

impl Scheduler for MlwdfScheduler {
    fn allocate_into(
        &mut self,
        _now: Time,
        ues: &[UeTti],
        active: &[u16],
        rates: &dyn RateSource,
        alloc: &mut Allocation,
    ) {
        let n_rbs = rates.n_rbs();
        alloc.reset(n_rbs, ues.len());
        for rb in 0..n_rbs {
            let mut best: Option<(usize, f64, f64)> = None;
            for &u in active {
                let u = u as usize;
                let r = rates.rate(u, rb);
                if r <= 0.0 {
                    continue;
                }
                let avg = self.avg[u].get();
                let pf = if avg <= 0.0 { r * 1e9 } else { r / avg };
                // +1 TTI so a freshly arrived queue is not zero-weighted.
                let hol = ues[u].hol_delay.as_secs_f64() + 1e-3;
                let m = self.weight * hol * pf;
                if best.is_none_or(|(_, bm, _)| m > bm) {
                    best = Some((u, m, r));
                }
            }
            if let Some((u, _, r)) = best {
                alloc.assign(rb, u as u16, r);
            }
        }
    }

    fn on_served(&mut self, served_bits: &[f64]) {
        for (e, &s) in self.avg.iter_mut().zip(served_bits) {
            e.update(s);
        }
    }

    fn on_idle(&mut self, k: u64) {
        for e in &mut self.avg {
            e.decay(k);
        }
    }

    fn name(&self) -> &'static str {
        "M-LWDF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FlatRates;

    fn active(n: usize) -> Vec<UeTti> {
        (0..n)
            .map(|_| UeTti {
                active: true,
                queued_bytes: 100_000,
                ..UeTti::idle()
            })
            .collect()
    }

    #[test]
    fn bet_equalizes_throughput_not_airtime() {
        let mut bet = BetScheduler::new(2, Dur::from_millis(200), Dur::from_millis(1));
        let rates = FlatRates {
            per_ue: vec![300.0, 100.0], // 3:1 channel disparity
            rbs: 12,
        };
        let ues = active(2);
        let mut totals = [0.0f64; 2];
        for _ in 0..2000 {
            let a = bet.allocate(Time::ZERO, &ues, &rates);
            totals[0] += a.bits_per_ue[0];
            totals[1] += a.bits_per_ue[1];
            bet.on_served(&a.bits_per_ue);
        }
        let ratio = totals[0] / totals[1];
        assert!(
            (0.8..1.25).contains(&ratio),
            "BET must equalise throughput: ratio={ratio}"
        );
    }

    #[test]
    fn mlwdf_prefers_stale_queue() {
        let mut s = MlwdfScheduler::with_defaults(2, Dur::from_millis(200), Dur::from_millis(1));
        s.on_served(&[1000.0, 1000.0]); // equal PF averages
        let rates = FlatRates {
            per_ue: vec![100.0, 100.0],
            rbs: 4,
        };
        let mut ues = active(2);
        ues[0].hol_delay = Dur::from_millis(2);
        ues[1].hol_delay = Dur::from_millis(80);
        let a = s.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(1)));
    }

    #[test]
    fn mlwdf_still_channel_aware() {
        let mut s = MlwdfScheduler::with_defaults(2, Dur::from_millis(200), Dur::from_millis(1));
        s.on_served(&[1000.0, 1000.0]);
        let rates = FlatRates {
            per_ue: vec![1000.0, 10.0], // 100x channel gap
            rbs: 4,
        };
        let mut ues = active(2);
        // Mild delay difference cannot overcome a 100x channel gap.
        ues[0].hol_delay = Dur::from_millis(5);
        ues[1].hol_delay = Dur::from_millis(10);
        let a = s.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(0)));
    }

    #[test]
    fn skip_inactive_and_zero_rate() {
        let mut bet = BetScheduler::new(3, Dur::from_millis(100), Dur::from_millis(1));
        let mut ues = active(3);
        ues[0].active = false;
        let rates = FlatRates {
            per_ue: vec![100.0, 0.0, 50.0],
            rbs: 4,
        };
        let a = bet.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(2)));
    }

    #[test]
    #[should_panic]
    fn mlwdf_rejects_bad_delta() {
        let _ = MlwdfScheduler::new(
            1,
            Dur::from_millis(100),
            Dur::from_millis(1),
            Dur::from_millis(100),
            1.5,
        );
    }
}
