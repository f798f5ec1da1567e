//! OutRAN's inter-user flow scheduler — Algorithm 1 of the paper — and
//! the legacy schedulers it wraps, which are its first iteration alone.
//!
//! For every RB `b` of every TTI:
//!
//! 1. **First iteration** (identical to the legacy scheduler): find
//!    `û = argmax_u m_{u,b}(t)` and remember `m_max`.
//! 2. **Second iteration**: collect the primary candidate set
//!    `U′ = { u : m_{u,b}(t) ≥ (1−ε)·m_max }` and re-select
//!    `u* = argmax_{u∈U′} (max_{f∈F_u} Priority(f))` — the candidate whose
//!    MLFQ head priority (carried in OutRAN's extended BSR) is highest,
//!    ties broken toward the better metric.
//!
//! PF and MT run the first iteration only. OutRAN at ε = 0 still runs
//! the second: an *exact* metric tie then goes to the better MLFQ head,
//! where the legacy scheduler keeps the lower UE index.
//!
//! This "guarantees at least (1−ε) of the per-RB metric … while expanding
//! the room |ε| for SJF flow scheduling", keeps the legacy scheduler's
//! O(|U|·|B|) complexity (one extra linear pass), and — unlike a top-K
//! selection — naturally condenses the candidate set when the user metric
//! distribution is heterogeneous (Figure 6).

use outran_simcore::{Dur, Time};

use crate::cache::{allocate_by_subband, best_of, SubbandMetricCache};
use crate::pf::PfCore;
use crate::types::{Allocation, RateSource, Scheduler, UeTti};
use outran_simcore::snap_fields;

/// The one Algorithm 1 kernel: a legacy metric core (PF or MT), and,
/// for the OutRAN family, the ε-relaxed re-selection by MLFQ priority.
#[derive(Debug, Clone)]
pub struct OutRanScheduler {
    /// The legacy metric: Proportional Fair with its fairness-window
    /// state, or `None` for Max Throughput (rate only).
    base: Option<PfCore>,
    /// The relaxation threshold ε of the second iteration, or `None`
    /// for the legacy scheduler alone.
    epsilon: Option<f64>,
    cache: SubbandMetricCache,
}

/// The Proportional Fair scheduler (the de-facto baseline, §6
/// Baselines): Algorithm 1's first iteration over the PF metric.
pub type PfScheduler = OutRanScheduler;

impl OutRanScheduler {
    /// The paper's default relaxation threshold (§4.3 Parameter choice:
    /// "We chose ε = 0.2 … the best balance").
    pub const DEFAULT_EPSILON: f64 = 0.2;

    fn new(base: Option<PfCore>, epsilon: Option<f64>) -> OutRanScheduler {
        if let Some(e) = epsilon {
            assert!((0.0..=1.0).contains(&e), "epsilon={e}");
        }
        OutRanScheduler {
            base,
            epsilon,
            cache: SubbandMetricCache::new(),
        }
    }

    /// Proportional Fair with fairness window `tf`: `r_{u,b} / r̃_u`.
    pub fn with_tf(n_ues: usize, tf: Dur, tti: Dur) -> OutRanScheduler {
        OutRanScheduler::new(Some(PfCore::new(n_ues, tf, tti)), None)
    }

    /// Max Throughput: the pure `r_{u,b}` metric.
    pub fn mt() -> OutRanScheduler {
        OutRanScheduler::new(None, None)
    }

    /// OutRAN over PF with the given fairness window.
    pub fn over_pf(n_ues: usize, tf: Dur, tti: Dur, epsilon: f64) -> OutRanScheduler {
        OutRanScheduler::new(Some(PfCore::new(n_ues, tf, tti)), Some(epsilon))
    }

    /// OutRAN over the MT metric (used by the Fig 18b ablation).
    pub fn over_mt(epsilon: f64) -> OutRanScheduler {
        OutRanScheduler::new(None, Some(epsilon))
    }

    /// Effective user priority for re-selection: the head MLFQ priority,
    /// or a sentinel worse than any real level when the Tx queue is empty
    /// (AM retx-only users — §4.4 keeps per-flow state only for TxQ).
    fn user_prio(ue: &UeTti) -> u8 {
        ue.head_priority.map_or(u8::MAX, |p| p.0)
    }
}

// Whether there is a PF core is configuration: its presence must match.
snap_fields! { overlay OutRanScheduler { base: fixed_opt } rebuilt { epsilon, cache } }

impl Scheduler for OutRanScheduler {
    fn allocate_into(
        &mut self,
        _now: Time,
        ues: &[UeTti],
        active: &[u16],
        rates: &dyn RateSource,
        alloc: &mut Allocation,
    ) {
        alloc.reset(rates.n_rbs(), ues.len());
        // Metrics are cached per (UE, subband) and revalidated, for the
        // active UEs, only when the UE's rate row or PF average moved;
        // the Algorithm 1 passes then run once per subband instead of
        // once per RB. MT's metric has no state: its revision stays 0.
        let base = &self.base;
        self.cache.refresh_rows(
            rates,
            active.iter().map(|&u| u as usize),
            |u| base.as_ref().map_or(0, |core| core.rev(u)),
            |u, r| base.as_ref().map_or(r, |core| core.metric(u, r)),
        );
        let cache = &self.cache;
        let epsilon = self.epsilon;
        allocate_by_subband(alloc, rates, |sb| {
            // Both Algorithm 1 passes read the subband's metric column
            // at the active UEs.
            let col = cache.column(sb);
            // First iteration: legacy best (Algorithm 1 lines 4–8).
            // Ineligible rows are -inf and can never win the strict
            // argmax, so ties go to the lowest index.
            // No eligible user for this subband: leave its RBs idle.
            let (legacy_best, m_max) = best_of(active, |u| col[u])?;
            let Some(epsilon) = epsilon else {
                return Some(legacy_best);
            };
            // Second iteration: re-select within the ε band by MLFQ
            // priority (Algorithm 1 lines 10–16).
            let floor = (1.0 - epsilon) * m_max;
            let mut selected = legacy_best;
            let mut sel_prio = Self::user_prio(&ues[legacy_best as usize]);
            let mut sel_metric = m_max;
            for &u in active {
                if u == legacy_best {
                    continue;
                }
                let m = col[u as usize];
                if m < floor {
                    continue;
                }
                let p = Self::user_prio(&ues[u as usize]);
                // Higher MLFQ priority = numerically smaller level; equal
                // levels go to the better metric.
                if p < sel_prio || (p == sel_prio && m > sel_metric) {
                    selected = u;
                    sel_prio = p;
                    sel_metric = m;
                }
            }
            Some(selected)
        });
    }

    fn on_served(&mut self, served_bits: &[f64]) {
        if let Some(core) = &mut self.base {
            core.update(served_bits);
        }
    }

    fn on_idle(&mut self, k: u64) {
        if let Some(core) = &mut self.base {
            core.decay(k);
        }
    }

    fn metric_rows_refreshed(&self) -> u64 {
        self.cache.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FlatRates;
    use outran_pdcp::Priority;

    fn ue(active: bool, prio: Option<u8>) -> UeTti {
        UeTti {
            active,
            head_priority: prio.map(Priority),
            queued_bytes: 1000,
            ..UeTti::idle()
        }
    }

    fn tf() -> Dur {
        Dur::from_millis(200)
    }
    fn tti() -> Dur {
        Dur::from_millis(1)
    }

    /// Equal metrics, heads P2 and P0: the legacy argmax keeps the lower
    /// index, and OutRAN at ε = 0 still re-selects the exact tie by head
    /// priority — so PF is not OutRAN at ε = 0.
    #[test]
    fn epsilon_zero_breaks_exact_ties_by_priority_and_pf_does_not() {
        let rates = FlatRates {
            per_ue: vec![100.0, 100.0],
            rbs: 4,
        };
        let ues = vec![ue(true, Some(2)), ue(true, Some(0))];
        let mut pf = PfScheduler::with_tf(2, tf(), tti());
        let mut or = OutRanScheduler::over_pf(2, tf(), tti(), 0.0);
        let a = pf.allocate(Time::ZERO, &ues, &rates);
        let b = or.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(0)));
        assert!(b.rb_to_ue.iter().all(|&x| x == Some(1)));
        let a = OutRanScheduler::mt().allocate(Time::ZERO, &ues, &rates);
        let b = OutRanScheduler::over_mt(0.0).allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(0)));
        assert!(b.rb_to_ue.iter().all(|&x| x == Some(1)));
    }

    #[test]
    fn reselects_higher_priority_within_band() {
        // Two users with near-equal metrics; the short-flow user (P1)
        // must win even though its metric is slightly lower.
        let rates = FlatRates {
            per_ue: vec![100.0, 95.0],
            rbs: 4,
        };
        let ues = vec![ue(true, Some(2)), ue(true, Some(0))];
        let mut or = OutRanScheduler::over_mt(0.2);
        let a = or.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(1)));
    }

    #[test]
    fn does_not_reselect_outside_band() {
        // The short-flow user's metric is 50% below max — outside ε=0.2.
        let rates = FlatRates {
            per_ue: vec![100.0, 50.0],
            rbs: 4,
        };
        let ues = vec![ue(true, Some(2)), ue(true, Some(0))];
        let mut or = OutRanScheduler::over_mt(0.2);
        let a = or.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(0)));
    }

    #[test]
    fn epsilon_one_is_pure_sjf_among_active() {
        // ε=1: every active user is a candidate; lowest priority level
        // wins regardless of channel ("expands the entire room for SJF").
        let rates = FlatRates {
            per_ue: vec![1000.0, 1.0],
            rbs: 4,
        };
        let ues = vec![ue(true, Some(1)), ue(true, Some(0))];
        let mut or = OutRanScheduler::over_mt(1.0);
        let a = or.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(1)));
    }

    #[test]
    fn empty_txq_user_loses_reselection() {
        // AM retx-only user (no head priority) must not beat a P1 user.
        let rates = FlatRates {
            per_ue: vec![100.0, 100.0],
            rbs: 4,
        };
        let ues = vec![ue(true, None), ue(true, Some(0))];
        let mut or = OutRanScheduler::over_mt(0.2);
        let a = or.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(1)));
    }

    #[test]
    fn tie_priorities_keep_legacy_choice() {
        let rates = FlatRates {
            per_ue: vec![100.0, 99.0],
            rbs: 4,
        };
        let ues = vec![ue(true, Some(1)), ue(true, Some(1))];
        let mut or = OutRanScheduler::over_mt(0.5);
        let a = or.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(0)));
    }

    #[test]
    fn guarantees_metric_floor() {
        // Property: for every assigned RB, the winner's metric is within
        // (1-eps) of the per-RB max over active users.
        let eps = 0.3;
        let rates = FlatRates {
            per_ue: vec![120.0, 100.0, 90.0, 60.0],
            rbs: 16,
        };
        let ues = vec![
            ue(true, Some(3)),
            ue(true, Some(2)),
            ue(true, Some(0)),
            ue(true, Some(0)),
        ];
        let mut or = OutRanScheduler::over_mt(eps);
        let a = or.allocate(Time::ZERO, &ues, &rates);
        let m_max = 120.0;
        for &assigned in a.rb_to_ue.iter() {
            let u = assigned.unwrap() as usize;
            assert!(rates.per_ue[u] >= (1.0 - eps) * m_max - 1e-9);
        }
        // And the winner is the P1 user inside the band (90 >= 84).
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(2)));
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_epsilon() {
        let _ = OutRanScheduler::over_mt(1.5);
    }
}
