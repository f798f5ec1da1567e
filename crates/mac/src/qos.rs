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

use crate::pf::PfCore;
use crate::types::{Allocation, RateSource, Scheduler, UeTti};
use outran_simcore::snap_fields;

/// Shared QoS parameters for the baselines.
#[derive(Debug, Clone, Copy)]
pub struct QosParams {
    /// Packet delay budget of the low-latency class (paper: 50 ms).
    pub delay_budget: Dur,
    /// CQA urgency exponent β.
    pub beta: f64,
}

impl Default for QosParams {
    fn default() -> Self {
        QosParams {
            delay_budget: Dur::from_millis(50),
            beta: 2.0,
        }
    }
}

/// Priority Set Scheduler.
#[derive(Debug, Clone)]
pub struct PssScheduler {
    core: PfCore,
}

impl PssScheduler {
    /// Create with the given PF fairness window.
    pub fn new(n_ues: usize, tf: Dur, tti: Dur) -> PssScheduler {
        PssScheduler {
            core: PfCore::new(n_ues, tf, tti),
        }
    }
}

snap_fields! { overlay PssScheduler { core } }

impl Scheduler for PssScheduler {
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
        let any_qos = active.iter().any(|&u| ues[u as usize].oracle_has_qos_flow);
        for rb in 0..n_rbs {
            // Pass 1: PF among the priority set (QoS UEs), if any.
            let mut best: Option<(usize, f64, f64)> = None;
            if any_qos {
                for &u in active {
                    let u = u as usize;
                    if !ues[u].oracle_has_qos_flow {
                        continue;
                    }
                    let r = rates.rate(u, rb);
                    if r <= 0.0 {
                        continue;
                    }
                    let m = self.core.metric(u, r);
                    if best.is_none_or(|(_, bm, _)| m > bm) {
                        best = Some((u, m, r));
                    }
                }
            }
            // Pass 2: ordinary PF fallback.
            if best.is_none() {
                for &u in active {
                    let u = u as usize;
                    let r = rates.rate(u, rb);
                    if r <= 0.0 {
                        continue;
                    }
                    let m = self.core.metric(u, r);
                    if best.is_none_or(|(_, bm, _)| m > bm) {
                        best = Some((u, m, r));
                    }
                }
            }
            if let Some((u, _, r)) = best {
                alloc.assign(rb, u as u16, r);
            }
        }
    }

    fn on_served(&mut self, served_bits: &[f64]) {
        self.core.update(served_bits);
    }

    fn on_idle(&mut self, k: u64) {
        self.core.decay(k);
    }
}

/// Channel & QoS Aware scheduler.
#[derive(Debug, Clone)]
pub struct CqaScheduler {
    core: PfCore,
    params: QosParams,
}

impl CqaScheduler {
    /// Create with the given PF fairness window and QoS parameters.
    pub fn new(n_ues: usize, tf: Dur, tti: Dur, params: QosParams) -> CqaScheduler {
        CqaScheduler {
            core: PfCore::new(n_ues, tf, tti),
            params,
        }
    }

    fn weight(&self, ue: &UeTti) -> f64 {
        if !ue.oracle_has_qos_flow {
            return 1.0;
        }
        let urgency = 1.0 + ue.hol_delay.as_secs_f64() / self.params.delay_budget.as_secs_f64();
        urgency.powf(self.params.beta)
    }
}

snap_fields! { overlay CqaScheduler { core } rebuilt { params } }

impl Scheduler for CqaScheduler {
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
                let m = self.core.metric(u, r) * self.weight(&ues[u]);
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
        self.core.update(served_bits);
    }

    fn on_idle(&mut self, k: u64) {
        self.core.decay(k);
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
        let s = CqaScheduler::new(
            1,
            Dur::from_millis(100),
            Dur::from_millis(1),
            QosParams::default(),
        );
        let fresh = s.weight(&ue(true, true, 0));
        let stale = s.weight(&ue(true, true, 50));
        let non_qos = s.weight(&ue(true, false, 500));
        assert!(stale > fresh);
        assert!((fresh - 1.0).abs() < 1e-9);
        assert!((non_qos - 1.0).abs() < 1e-9);
        // At the budget the weight is (1+1)^2 = 4.
        assert!((stale - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cqa_prioritizes_urgent_qos_ue() {
        let mut s = CqaScheduler::new(
            2,
            Dur::from_millis(100),
            Dur::from_millis(1),
            QosParams::default(),
        );
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
