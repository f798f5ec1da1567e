//! Proportional Fair, Max Throughput, and Round Robin schedulers.
//!
//! eq. (1) of the paper:
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

use crate::cache::{allocate_by_subband, best_of, SubbandMetricCache};
use crate::types::{Allocation, RateSource, Scheduler, UeTti};
use outran_simcore::snap_fields;

/// The PF metric core: per-UE long-term average throughput with a
/// T_f-derived smoothing factor. Shared by [`PfScheduler`] and
/// [`crate::outran::OutRanScheduler`].
#[derive(Debug, Clone)]
pub struct PfCore {
    avg: Vec<Ewma>,
    rev: Vec<u64>,
    window_ttis: u64,
}

impl PfCore {
    /// Create for `n_ues`, with fairness window `tf` at TTI length `tti`.
    pub fn new(n_ues: usize, tf: Dur, tti: Dur) -> PfCore {
        let window_ttis = (tf.as_nanos() / tti.as_nanos()).max(1);
        PfCore {
            avg: vec![Ewma::from_window(window_ttis); n_ues],
            rev: vec![0; n_ues],
            window_ttis,
        }
    }

    /// Number of TTIs in the averaging window.
    pub fn window_ttis(&self) -> u64 {
        self.window_ttis
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

    /// Current long-term average of a UE (bits/TTI).
    pub fn avg(&self, ue: usize) -> f64 {
        self.avg[ue].get()
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

// `window_ttis` is derived from the run config and not written.
snap_fields! { overlay PfCore { avg: fixed, rev: fixed } rebuilt { window_ttis } }

/// The Proportional Fair scheduler (the de-facto baseline, §6 Baselines).
#[derive(Debug, Clone)]
pub struct PfScheduler {
    core: PfCore,
    cache: SubbandMetricCache,
}

impl PfScheduler {
    /// Default fairness window: 1 s (a "few seconds … should be
    /// sufficient" per the §6.3 discussion of \[37, 57\]).
    pub const DEFAULT_TF: Dur = Dur::from_millis(1000);

    /// Create with the default T_f.
    pub fn new(n_ues: usize, tti: Dur) -> PfScheduler {
        PfScheduler::with_tf(n_ues, Self::DEFAULT_TF, tti)
    }

    /// Create with an explicit fairness window.
    pub fn with_tf(n_ues: usize, tf: Dur, tti: Dur) -> PfScheduler {
        PfScheduler {
            core: PfCore::new(n_ues, tf, tti),
            cache: SubbandMetricCache::new(),
        }
    }

    /// Access the metric core (tests/ablations).
    pub fn core(&self) -> &PfCore {
        &self.core
    }
}

// The subband metric cache is a pure memo and re-derives itself.
snap_fields! { overlay PfScheduler { core } rebuilt { cache } }

impl Scheduler for PfScheduler {
    fn allocate_into(
        &mut self,
        _now: Time,
        ues: &[UeTti],
        active: &[u16],
        rates: &dyn RateSource,
        alloc: &mut Allocation,
    ) {
        alloc.reset(rates.n_rbs(), ues.len());
        let core = &self.core;
        self.cache.refresh_rows(
            rates,
            active.iter().map(|&u| u as usize),
            |u| core.rev(u),
            |u, r| core.metric(u, r),
        );
        let cache = &self.cache;
        // Ineligible rows (rate <= 0, stored as -inf) can never win the
        // argmax, so this matches the old per-RB loop that skipped them
        // explicitly.
        allocate_by_subband(alloc, rates, |sb| {
            best_of(cache.column(sb), active).map(|(u, _)| u)
        });
    }

    fn on_served(&mut self, served_bits: &[f64]) {
        self.core.update(served_bits);
    }

    fn on_idle(&mut self, k: u64) {
        self.core.decay(k);
    }

    fn name(&self) -> &'static str {
        "PF"
    }

    fn metric_rows_refreshed(&self) -> u64 {
        self.cache.misses
    }
}

/// The Max Throughput scheduler: pure `r_{u,b}` metric.
///
/// Rides the same subband metric cache as PF (metric = rate, revision
/// pinned to 0 since the metric has no scheduler-side state). The cached
/// strict-`>` argmax from -inf selects exactly the UE the historical
/// `best_r = 0.0` loop did: only strictly positive rates can win either
/// way, and the iteration order is unchanged.
#[derive(Debug, Clone, Default)]
pub struct MtScheduler {
    cache: SubbandMetricCache,
}

snap_fields! { overlay MtScheduler {} rebuilt { cache } }

impl Scheduler for MtScheduler {
    fn allocate_into(
        &mut self,
        _now: Time,
        ues: &[UeTti],
        active: &[u16],
        rates: &dyn RateSource,
        alloc: &mut Allocation,
    ) {
        alloc.reset(rates.n_rbs(), ues.len());
        self.cache
            .refresh_rows(rates, active.iter().map(|&u| u as usize), |_| 0, |_, r| r);
        let cache = &self.cache;
        allocate_by_subband(alloc, rates, |sb| {
            best_of(cache.column(sb), active).map(|(u, _)| u)
        });
    }

    fn on_served(&mut self, _served_bits: &[f64]) {}

    fn name(&self) -> &'static str {
        "MT"
    }

    fn metric_rows_refreshed(&self) -> u64 {
        self.cache.misses
    }
}

/// Round-robin over active UEs, RB by RB (the small-T_f limit of PF).
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
        let n_rbs = rates.n_rbs();
        alloc.reset(n_rbs, ues.len());
        if active.is_empty() {
            return;
        }
        for rb in 0..n_rbs {
            let u = active[self.next % active.len()];
            self.next = self.next.wrapping_add(1);
            alloc.assign(rb, u, rates.rate(u as usize, rb));
        }
    }

    fn on_served(&mut self, _served_bits: &[f64]) {}

    fn name(&self) -> &'static str {
        "RR"
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
                queued_bytes: 1_000_000,
                ..UeTti::idle()
            })
            .collect()
    }

    #[test]
    fn mt_picks_best_channel_always() {
        let mut mt = MtScheduler::default();
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
        let mut pf = PfScheduler::new(3, Dur::from_millis(1));
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
        let mut pf = PfScheduler::new(2, Dur::from_millis(1));
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
        let core = PfCore::new(1, Dur::from_secs(1), Dur::from_millis(1));
        assert_eq!(core.window_ttis(), 1000);
        let core = PfCore::new(1, Dur::from_millis(10), Dur::from_micros(125));
        assert_eq!(core.window_ttis(), 80);
    }

    #[test]
    fn pf_cold_start_prefers_unserved() {
        let mut core = PfCore::new(2, Dur::from_millis(100), Dur::from_millis(1));
        core.update(&[1000.0, 0.0]);
        // UE 1 never served => enormous metric.
        assert!(core.metric(1, 10.0) > core.metric(0, 10.0));
    }
}
