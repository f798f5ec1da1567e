//! Criterion micro-benchmarks behind Figure 14: the per-TTI RB
//! allocation cost of each MAC scheduler as the number of RBs (i.e. the
//! DL bandwidth) and users scale. The claim under test: OutRAN's second
//! per-RB pass keeps the same O(|U|·|B|) complexity as PF, so its cost
//! ratio over PF stays constant as either dimension grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use outran_mac::{types::FlatRates, OutRanScheduler, PfScheduler, Scheduler, SrjfScheduler, UeTti};
use outran_pdcp::Priority;
use outran_simcore::{Dur, Rng, Time};

fn mk_ues(n: usize, rng: &mut Rng) -> Vec<UeTti> {
    (0..n)
        .map(|_| UeTti {
            active: true,
            head_priority: Some(Priority(rng.below(4) as u8)),
            queued_bytes: 10_000 + rng.below(100_000),
            oracle_min_remaining: Some(1_000 + rng.below(1_000_000)),
            hol_delay: Dur::from_millis(rng.below(50)),
            oracle_has_qos_flow: rng.chance(0.3),
        })
        .collect()
}

fn mk_rates(n_ues: usize, rbs: u16, rng: &mut Rng) -> FlatRates {
    FlatRates {
        per_ue: (0..n_ues).map(|_| 100.0 + rng.f64() * 900.0).collect(),
        rbs,
    }
}

fn bench_rb_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocate_vs_rbs_40ues");
    for rbs in [25u16, 50, 75, 100, 273] {
        let mut rng = Rng::new(7);
        let ues = mk_ues(40, &mut rng);
        let rates = mk_rates(40, rbs, &mut rng);
        g.bench_with_input(BenchmarkId::new("PF", rbs), &rbs, |b, _| {
            let mut s = PfScheduler::new(40, Dur::from_millis(1));
            b.iter(|| {
                let a = s.allocate(Time::ZERO, &ues, &rates);
                s.on_served(&a.bits_per_ue);
                a
            })
        });
        g.bench_with_input(BenchmarkId::new("OutRAN", rbs), &rbs, |b, _| {
            let mut s = OutRanScheduler::over_pf(40, Dur::from_secs(1), Dur::from_millis(1), 0.2);
            b.iter(|| {
                let a = s.allocate(Time::ZERO, &ues, &rates);
                s.on_served(&a.bits_per_ue);
                a
            })
        });
    }
    g.finish();
}

fn bench_user_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocate_vs_users_100rbs");
    for n_ues in [10usize, 40, 100] {
        let mut rng = Rng::new(9);
        let ues = mk_ues(n_ues, &mut rng);
        let rates = mk_rates(n_ues, 100, &mut rng);
        g.bench_with_input(BenchmarkId::new("PF", n_ues), &n_ues, |b, _| {
            let mut s = PfScheduler::new(n_ues, Dur::from_millis(1));
            b.iter(|| s.allocate(Time::ZERO, &ues, &rates))
        });
        g.bench_with_input(BenchmarkId::new("OutRAN", n_ues), &n_ues, |b, _| {
            let mut s =
                OutRanScheduler::over_pf(n_ues, Dur::from_secs(1), Dur::from_millis(1), 0.2);
            b.iter(|| s.allocate(Time::ZERO, &ues, &rates))
        });
        g.bench_with_input(BenchmarkId::new("SRJF", n_ues), &n_ues, |b, _| {
            let mut s = SrjfScheduler::default();
            b.iter(|| s.allocate(Time::ZERO, &ues, &rates))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_rb_scaling, bench_user_scaling);
criterion_main!(benches);
