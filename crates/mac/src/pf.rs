//! The Proportional Fair metric core, and the Round Robin scheduler.
//!
//! eq. (1) of the paper — both metrics run in
//! [`crate::outran::OutRanScheduler`], PF through [`PfCore`]:
//!
//! ```text
//! m_{u,b}(t) = r_{u,b}(t)              (MT)
//! m_{u,b}(t) = r_{u,b}(t) / r̃_u(t−1)   (PF)
//! ```
//!
//! `r̃_u` is the exponentially smoothed served rate; its smoothing window
//! is the **fairness window T_f** (§6.3): a small T_f behaves like round
//! robin, a huge T_f degenerates toward MT (Figure 18a).

use outran_simcore::{Dur, Ewma, Time};

use crate::cache::walk_free_rbs;
use crate::types::{Allocation, RateSource, Scheduler, UeTti};
use outran_simcore::snap_fields;

/// The PF metric core: per-UE long-term average throughput with a
/// T_f-derived smoothing factor. Shared by the PF-based configurations
/// of [`crate::outran::OutRanScheduler`] (PF, OutRAN over PF) and by the
/// QoS baselines [`crate::qos::PssScheduler`] and
/// [`crate::qos::CqaScheduler`].
#[derive(Debug, Clone)]
pub struct PfCore {
    avg: Vec<Ewma>,
    rev: Vec<u64>,
}

impl PfCore {
    /// Create for `n_ues`, with fairness window `tf` at TTI length `tti`.
    pub fn new(n_ues: usize, tf: Dur, tti: Dur) -> PfCore {
        let window_ttis = (tf.as_nanos() / tti.as_nanos()).max(1);
        PfCore {
            avg: vec![Ewma::from_window(window_ttis); n_ues],
            rev: vec![0; n_ues],
        }
    }

    /// The PF metric `r / r̃` for a given instantaneous rate. A UE that
    /// was never served gets an effectively infinite metric so it is
    /// served promptly (cold-start behaviour of real PF implementations).
    pub fn metric(&self, ue: usize, rate: f64) -> f64 {
        let avg = self.avg[ue].get();
        if avg <= 0.0 {
            rate * 1e9
        } else {
            rate / avg
        }
    }

    /// Fold in the bits served this TTI (0 for unserved UEs — the
    /// standard PF update runs every TTI for every UE).
    pub fn update(&mut self, served_bits: &[f64]) {
        for ((e, rev), &s) in self
            .avg
            .iter_mut()
            .zip(self.rev.iter_mut())
            .zip(served_bits)
        {
            let before = e.get();
            e.update(s);
            if e.get() != before {
                *rev = rev.wrapping_add(1);
            }
        }
    }

    /// Fold in `k` all-idle TTIs at once: every UE's average decays as
    /// if `update` had seen `k` zero-service ticks (see
    /// [`Ewma::decay`]). Keeps the standard "PF updates every TTI"
    /// semantics across idle spans the cell loop skips.
    pub fn decay(&mut self, k: u64) {
        for (e, rev) in self.avg.iter_mut().zip(self.rev.iter_mut()) {
            let before = e.get();
            e.decay(k);
            if e.get() != before {
                *rev = rev.wrapping_add(1);
            }
        }
    }

    /// Revision counter for `ue`'s metric state: bumped exactly when the
    /// long-term average behind [`PfCore::metric`] changes, so a stable
    /// revision guarantees identical metric values for identical rates.
    pub fn rev(&self, ue: usize) -> u64 {
        self.rev[ue]
    }
}

snap_fields! { overlay PfCore { avg: fixed, rev: fixed } }

/// Round-robin over active UEs, free RB by free RB (the small-T_f limit
/// of PF).
#[derive(Debug, Clone, Default)]
pub struct RrScheduler {
    next: usize,
}

snap_fields! { overlay RrScheduler { next } }

impl Scheduler for RrScheduler {
    fn allocate_into(
        &mut self,
        _now: Time,
        ues: &[UeTti],
        active: &[u16],
        rates: &dyn RateSource,
        alloc: &mut Allocation,
    ) {
        alloc.reset(rates.n_rbs(), ues.len());
        if active.is_empty() {
            return;
        }
        walk_free_rbs(alloc, rates, |sb, sr| {
            let u = active[self.next % active.len()];
            self.next = self.next.wrapping_add(1);
            Some((u, sr.get(u, sb)))
        });
    }

    fn on_served(&mut self, _served_bits: &[f64]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outran::{OutRanScheduler, PfScheduler};
    use crate::types::FlatRates;

    fn active(n: usize) -> Vec<UeTti> {
        (0..n)
            .map(|_| UeTti {
                active: true,
                queued_bytes: 1_000_000,
                ..UeTti::idle()
            })
            .collect()
    }

    #[test]
    fn mt_picks_best_channel_always() {
        let mut mt = OutRanScheduler::mt();
        let rates = FlatRates {
            per_ue: vec![10.0, 30.0, 20.0],
            rbs: 6,
        };
        let a = mt.allocate(Time::ZERO, &active(3), &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(1)));
        assert_eq!(a.bits_per_ue[1], 180.0);
    }

    #[test]
    fn pf_equalizes_service_on_equal_channels() {
        let mut pf = PfScheduler::with_tf(2, Dur::from_millis(100), Dur::from_millis(1));
        let rates = FlatRates {
            per_ue: vec![100.0, 100.0],
            rbs: 10,
        };
        let ues = active(2);
        let mut totals = [0.0f64; 2];
        for tti in 0..3000 {
            let a = pf.allocate(Time::ZERO, &ues, &rates);
            // Skip the cold-start transient in the accounting.
            if tti >= 500 {
                totals[0] += a.bits_per_ue[0];
                totals[1] += a.bits_per_ue[1];
            }
            pf.on_served(&a.bits_per_ue);
        }
        let ratio = totals[0] / totals[1];
        assert!((0.8..1.25).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn pf_gives_more_to_better_channel_but_not_all() {
        let mut pf = PfScheduler::with_tf(2, Dur::from_millis(200), Dur::from_millis(1));
        let rates = FlatRates {
            per_ue: vec![300.0, 100.0],
            rbs: 10,
        };
        let ues = active(2);
        let mut totals = [0.0f64; 2];
        for _ in 0..500 {
            let a = pf.allocate(Time::ZERO, &ues, &rates);
            totals[0] += a.bits_per_ue[0];
            totals[1] += a.bits_per_ue[1];
            pf.on_served(&a.bits_per_ue);
        }
        // With static flat channels PF converges to equal *time* share,
        // so throughput share tracks the rate ratio.
        let share = totals[0] / (totals[0] + totals[1]);
        assert!(share > 0.5 && share < 0.95, "share={share}");
        assert!(totals[1] > 0.0, "weak user must not starve");
    }

    #[test]
    fn pf_skips_inactive_and_zero_rate() {
        let mut pf = PfScheduler::with_tf(3, Dur::from_secs(1), Dur::from_millis(1));
        let mut ues = active(3);
        ues[0].active = false;
        let rates = FlatRates {
            per_ue: vec![100.0, 0.0, 50.0],
            rbs: 4,
        };
        let a = pf.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(2)));
    }

    #[test]
    fn no_active_ues_leaves_rbs_idle() {
        let mut pf = PfScheduler::with_tf(2, Dur::from_secs(1), Dur::from_millis(1));
        let rates = FlatRates {
            per_ue: vec![100.0, 100.0],
            rbs: 4,
        };
        let ues = vec![UeTti::idle(), UeTti::idle()];
        let a = pf.allocate(Time::ZERO, &ues, &rates);
        assert_eq!(a.rbs_used(), 0);
        assert_eq!(a.total_bits(), 0.0);
    }

    #[test]
    fn rr_cycles_users() {
        let mut rr = RrScheduler::default();
        let rates = FlatRates {
            per_ue: vec![10.0, 10.0, 10.0],
            rbs: 6,
        };
        let a = rr.allocate(Time::ZERO, &active(3), &rates);
        let counts = (0..3)
            .map(|u| a.rb_to_ue.iter().filter(|&&x| x == Some(u as u16)).count())
            .collect::<Vec<_>>();
        assert_eq!(counts, vec![2, 2, 2]);
    }

    #[test]
    fn pf_core_window_derivation() {
        let alpha = |tf, tti| PfCore::new(1, tf, tti).avg[0].alpha();
        let from_window = |n| Ewma::from_window(n).alpha();
        assert_eq!(
            alpha(Dur::from_secs(1), Dur::from_millis(1)),
            from_window(1000)
        );
        assert_eq!(
            alpha(Dur::from_millis(10), Dur::from_micros(125)),
            from_window(80)
        );
    }

    #[test]
    fn pf_cold_start_prefers_unserved() {
        let mut core = PfCore::new(2, Dur::from_millis(100), Dur::from_millis(1));
        core.update(&[1000.0, 0.0]);
        // UE 1 never served => enormous metric.
        assert!(core.metric(1, 10.0) > core.metric(0, 10.0));
    }
}
