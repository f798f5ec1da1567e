//! QoS-aware baseline schedulers: PSS and CQA.
//!
//! §6.2 Baselines: "Priority Set Scheduler (PSS) \[56\] and Channel &
//! QoS-aware (CQA) Scheduler \[20\] are variants of PF scheduler that
//! support QoS provisioning. We assume they are aware of the flow size of
//! each flow, and apply QoS of low-latency service type (delay
//! budget = 50 ms) for short flows (< 10 KB)."
//!
//! * **PSS** (Monghal et al.): time-domain priority set — UEs whose queue
//!   holds a delay-budget (QoS) flow form the priority set and are
//!   scheduled first by PF among themselves; the remaining capacity falls
//!   back to ordinary PF. This prioritises *detection-tagged* flows but
//!   keeps PF's channel blindness about urgency → "suboptimal performance
//!   in short flow FCT" (Fig 15b).
//! * **CQA** (Bojovic & Baldo): the PF metric is weighted by head-of-line
//!   delay urgency `(1 + d_HOL/budget)^β` for QoS UEs. Aggressive
//!   weighting meets the deadline of the tagged flows but "entails
//!   starvation of other (user) flows" (Fig 15c).

use outran_simcore::{Dur, Time};

use crate::cache::{allocate_by_subband, best_of, SubbandMetricCache};
use crate::pf::PfCore;
use crate::types::{Allocation, RateSource, Scheduler, UeTti};
use outran_simcore::snap_fields;

/// Packet delay budget of the low-latency QoS class (§6.2: 50 ms).
pub const DELAY_BUDGET: Dur = Dur::from_millis(50);
/// CQA's urgency exponent β.
pub const CQA_BETA: f64 = 2.0;

/// Bring `cache`'s rows of the active UEs up to date with `core`'s PF
/// metric, as OutRAN over PF does.
fn refresh_pf(
    cache: &mut SubbandMetricCache,
    core: &PfCore,
    rates: &dyn RateSource,
    active: &[u16],
) {
    cache.refresh_rows(
        rates,
        active.iter().map(|&u| u as usize),
        |u| core.rev(u),
        |u, r| core.metric(u, r),
    );
}

/// Priority Set Scheduler.
#[derive(Debug, Clone)]
pub struct PssScheduler {
    core: PfCore,
    cache: SubbandMetricCache,
}

impl PssScheduler {
    /// Create with the given PF fairness window.
    pub fn new(n_ues: usize, tf: Dur, tti: Dur) -> PssScheduler {
        PssScheduler {
            core: PfCore::new(n_ues, tf, tti),
            cache: SubbandMetricCache::new(),
        }
    }
}

snap_fields! { overlay PssScheduler { core } rebuilt { cache } }

impl Scheduler for PssScheduler {
    fn allocate_into(
        &mut self,
        _now: Time,
        ues: &[UeTti],
        active: &[u16],
        rates: &dyn RateSource,
        alloc: &mut Allocation,
    ) {
        alloc.reset(rates.n_rbs(), ues.len());
        refresh_pf(&mut self.cache, &self.core, rates, active);
        let cache = &self.cache;
        allocate_by_subband(alloc, rates, |sb| {
            // PF among the priority set (the UEs holding a QoS flow)
            // first, then ordinary PF.
            let col = cache.column(sb);
            let in_set = |u: usize| {
                if ues[u].oracle_has_qos_flow {
                    col[u]
                } else {
                    f64::NEG_INFINITY
                }
            };
            best_of(active, in_set)
                .or_else(|| best_of(active, |u| col[u]))
                .map(|(u, _)| u)
        });
    }

    fn on_served(&mut self, served_bits: &[f64]) {
        self.core.update(served_bits);
    }

    fn on_idle(&mut self, k: u64) {
        self.core.decay(k);
    }

    fn metric_rows_refreshed(&self) -> u64 {
        self.cache.misses
    }
}

/// Channel & QoS Aware scheduler.
#[derive(Debug, Clone)]
pub struct CqaScheduler {
    core: PfCore,
    cache: SubbandMetricCache,
    /// The TTI's urgency weight per UE (scratch, valid at active UEs).
    weight: Vec<f64>,
}

impl CqaScheduler {
    /// Create with the given PF fairness window.
    pub fn new(n_ues: usize, tf: Dur, tti: Dur) -> CqaScheduler {
        CqaScheduler {
            core: PfCore::new(n_ues, tf, tti),
            cache: SubbandMetricCache::new(),
            weight: Vec::new(),
        }
    }
}

/// CQA's weight on a UE's PF metric: `(1 + d_HOL/budget)^β` while it
/// holds a QoS flow, 1 otherwise.
fn urgency(ue: &UeTti) -> f64 {
    if !ue.oracle_has_qos_flow {
        return 1.0;
    }
    (1.0 + ue.hol_delay.as_secs_f64() / DELAY_BUDGET.as_secs_f64()).powf(CQA_BETA)
}

snap_fields! { overlay CqaScheduler { core } rebuilt { cache, weight } }

impl Scheduler for CqaScheduler {
    fn allocate_into(
        &mut self,
        _now: Time,
        ues: &[UeTti],
        active: &[u16],
        rates: &dyn RateSource,
        alloc: &mut Allocation,
    ) {
        alloc.reset(rates.n_rbs(), ues.len());
        refresh_pf(&mut self.cache, &self.core, rates, active);
        self.weight.resize(ues.len(), 1.0);
        for &u in active {
            self.weight[u as usize] = urgency(&ues[u as usize]);
        }
        let (cache, weight) = (&self.cache, &self.weight);
        allocate_by_subband(alloc, rates, |sb| {
            let col = cache.column(sb);
            best_of(active, |u| col[u] * weight[u]).map(|(u, _)| u)
        });
    }

    fn on_served(&mut self, served_bits: &[f64]) {
        self.core.update(served_bits);
    }

    fn on_idle(&mut self, k: u64) {
        self.core.decay(k);
    }

    fn metric_rows_refreshed(&self) -> u64 {
        self.cache.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FlatRates;

    fn ue(active: bool, qos: bool, hol_ms: u64) -> UeTti {
        UeTti {
            active,
            oracle_has_qos_flow: qos,
            hol_delay: Dur::from_millis(hol_ms),
            queued_bytes: 1000,
            ..UeTti::idle()
        }
    }

    #[test]
    fn pss_serves_priority_set_first() {
        let mut s = PssScheduler::new(2, Dur::from_millis(100), Dur::from_millis(1));
        let rates = FlatRates {
            per_ue: vec![1000.0, 10.0],
            rbs: 4,
        };
        // UE 1 has the QoS flow despite a far worse channel.
        let ues = vec![ue(true, false, 0), ue(true, true, 0)];
        let a = s.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(1)));
    }

    #[test]
    fn pss_falls_back_to_pf_without_qos_flows() {
        let mut s = PssScheduler::new(2, Dur::from_millis(100), Dur::from_millis(1));
        let rates = FlatRates {
            per_ue: vec![1000.0, 10.0],
            rbs: 4,
        };
        let ues = vec![ue(true, false, 0), ue(true, false, 0)];
        let a = s.allocate(Time::ZERO, &ues, &rates);
        assert_eq!(a.rbs_used(), 4);
    }

    #[test]
    fn cqa_weight_grows_with_hol_delay() {
        let fresh = urgency(&ue(true, true, 0));
        let stale = urgency(&ue(true, true, 50));
        let non_qos = urgency(&ue(true, false, 500));
        assert!(stale > fresh);
        assert!((fresh - 1.0).abs() < 1e-9);
        assert!((non_qos - 1.0).abs() < 1e-9);
        // At the budget the weight is (1+1)^2 = 4.
        assert!((stale - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cqa_prioritizes_urgent_qos_ue() {
        let mut s = CqaScheduler::new(2, Dur::from_millis(100), Dur::from_millis(1));
        // Equalise PF averages first.
        s.on_served(&[100.0, 100.0]);
        let rates = FlatRates {
            per_ue: vec![300.0, 100.0],
            rbs: 4,
        };
        // UE 1: worse channel but urgent QoS flow at 2× budget.
        let ues = vec![ue(true, false, 0), ue(true, true, 100)];
        let a = s.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(1)));
    }
}
