//! Property-based tests on the MAC schedulers: allocation sanity and
//! the Algorithm 1 guarantees.

use outran::mac::types::FlatRates;
use outran::mac::{OutRanScheduler, PfScheduler, Scheduler, UeTti};
use outran::pdcp::Priority;
use outran::simcore::{check, Dur, Rng, Time};

fn ues_from(active: &[bool], prios: &[u8]) -> Vec<UeTti> {
    active
        .iter()
        .zip(prios)
        .map(|(&a, &p)| UeTti {
            active: a,
            head_priority: Some(Priority(p % 4)),
            queued_bytes: 10_000,
            oracle_min_remaining: Some(1_000),
            hol_delay: Dur::ZERO,
            oracle_has_qos_flow: false,
        })
        .collect()
}

/// `n` rates uniform in `[lo, hi)`.
fn rates(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.range_f64(lo, hi)).collect()
}

/// `n` head-of-line priorities.
fn prios(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.below(4) as u8).collect()
}

/// Every RB is assigned to at most one UE, only to active UEs with a
/// positive rate, and bits accounting matches the assignment.
#[test]
fn allocation_sanity() {
    check("allocation_sanity", 128, |rng| {
        let n = 2 + rng.index(18);
        let per_ue = rates(rng, n, 0.0, 2000.0);
        let active: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let prios = prios(rng, n);
        let rbs = 1 + rng.below(59) as u16;
        let eps = rng.f64();
        let rates = FlatRates { per_ue, rbs };
        let ues = ues_from(&active, &prios);
        let mut s = OutRanScheduler::over_pf(n, Dur::from_secs(1), Dur::from_millis(1), eps);
        let alloc = s.allocate(Time::ZERO, &ues, &rates);
        assert_eq!(alloc.rb_to_ue.len(), rbs as usize);
        let mut bits = vec![0.0f64; n];
        for &assigned in &alloc.rb_to_ue {
            if let Some(u) = assigned {
                let u = u as usize;
                assert!(ues[u].active, "assigned to inactive UE");
                assert!(rates.per_ue[u] > 0.0, "assigned at zero rate");
                bits[u] += rates.per_ue[u];
            }
        }
        for (u, &b) in bits.iter().enumerate() {
            assert!((b - alloc.bits_per_ue[u]).abs() < 1e-6);
        }
    });
}

/// Algorithm 1's guarantee: the selected user's metric is within
/// (1 − ε) of the per-RB maximum over eligible users. With flat
/// per-UE rates and a fresh PF core the metric ordering equals the
/// rate ordering, so the property is directly checkable.
#[test]
fn epsilon_floor_guarantee() {
    check("epsilon_floor_guarantee", 128, |rng| {
        let n = 2 + rng.index(14);
        let flat = FlatRates {
            per_ue: rates(rng, n, 1.0, 2000.0),
            rbs: 8,
        };
        let ues = ues_from(&vec![true; n], &prios(rng, n));
        let eps = rng.f64();
        let mut s = OutRanScheduler::over_mt(eps);
        let alloc = s.allocate(Time::ZERO, &ues, &flat);
        let m_max = flat
            .per_ue
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        for &assigned in &alloc.rb_to_ue {
            let u = assigned.expect("all UEs active with positive rates") as usize;
            assert!(
                flat.per_ue[u] >= (1.0 - eps) * m_max - 1e-9,
                "metric floor violated: rate={} floor={}",
                flat.per_ue[u],
                (1.0 - eps) * m_max
            );
        }
    });
}

/// ε = 0 reproduces the legacy PF allocation exactly, TTI after TTI,
/// with evolving PF state.
#[test]
fn epsilon_zero_equals_pf_over_time() {
    check("epsilon_zero_equals_pf_over_time", 128, |rng| {
        let n = 2 + rng.index(10);
        let flat = FlatRates {
            per_ue: rates(rng, n, 1.0, 2000.0),
            rbs: 10,
        };
        let ues = ues_from(&vec![true; n], &prios(rng, n));
        let steps = 1 + rng.index(29);
        let tf = Dur::from_millis(100);
        let tti = Dur::from_millis(1);
        let mut pf = PfScheduler::with_tf(n, tf, tti);
        let mut or = OutRanScheduler::over_pf(n, tf, tti, 0.0);
        for _ in 0..steps {
            let a = pf.allocate(Time::ZERO, &ues, &flat);
            let b = or.allocate(Time::ZERO, &ues, &flat);
            assert_eq!(&a.rb_to_ue, &b.rb_to_ue);
            pf.on_served(&a.bits_per_ue);
            or.on_served(&b.bits_per_ue);
        }
    });
}
