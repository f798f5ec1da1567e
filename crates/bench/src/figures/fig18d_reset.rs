//! Figure 18(d) — the "Priority Boost" safety measure: an incast-heavy
//! workload (simultaneous 8 KB bursts = 10 % of volume, total load 80 %)
//! where unbounded MLFQ demotion would penalise long flows; sweeping the
//! reset period S trades the short-flow gain against long-flow recovery.

use super::*;
use outran_core::OutRanConfig;
use outran_metrics::FctCollector;
use outran_ran::experiment::DRAIN;
use outran_ran::{Cell, CellConfig};
use outran_simcore::{Rng, Time};
use outran_workload::{FlowSizeDist, PoissonFlowGen};

/// One seed: LTE cell, 40 UEs; background LTE-dist Poisson at 72 % load +
/// synchronized 8 KB incast bursts adding ~8 % (10 % of the total).
fn run_seed(kind: SchedulerKind, reset: Option<Dur>, seed: u64) -> (f64, f64) {
    let horizon = Time::from_secs(20);
    let mut cfg = CellConfig::lte_default(40, kind, seed);
    cfg.outran = OutRanConfig {
        reset_period: reset,
        ..OutRanConfig::default()
    };
    let mut cell = Cell::new(cfg);
    let capacity = 87e6;
    let mut gen = PoissonFlowGen::new(
        FlowSizeDist::LteCellular,
        0.72,
        capacity,
        40,
        Rng::new(seed ^ 0xBEE),
    );
    for a in gen.take_until(horizon) {
        cell.schedule_flow(a.at, a.ue, a.bytes, None);
    }
    // Incast bursts: every 50 ms, 9 simultaneous 8 KB flows to random
    // UEs ≈ 11.5 Mbps ≈ 8/80 of the offered volume.
    let mut rng = Rng::new(seed ^ 0x1CA5);
    let mut t = Time::from_millis(50);
    while t < horizon {
        for _ in 0..9 {
            let ue = rng.index(40);
            cell.schedule_flow(t, ue, 8_000, None);
        }
        t += Dur::from_millis(50);
    }
    cell.run_until(horizon + DRAIN);
    let mut fct = FctCollector::new();
    for d in cell.take_completions() {
        fct.record(d.bytes, d.fct);
    }
    let r = fct.report();
    (r.short_mean_ms, r.long_mean_ms)
}

pub(super) fn run(threads: usize, out: &mut String) {
    let cases = vec![
        ("PF", SchedulerKind::Pf, None),
        ("none", SchedulerKind::OutRan, None),
        ("10s", SchedulerKind::OutRan, Some(Dur::from_secs(10))),
        ("1s", SchedulerKind::OutRan, Some(Dur::from_secs(1))),
        ("0.5s", SchedulerKind::OutRan, Some(Dur::from_millis(500))),
        ("0.2s", SchedulerKind::OutRan, Some(Dur::from_millis(200))),
        ("0.1s", SchedulerKind::OutRan, Some(Dur::from_millis(100))),
    ];
    let results = run_grid(threads, cases, &SEEDS, |&(_, kind, reset), seed| {
        run_seed(kind, reset, seed)
    });
    let mut avgs = results.iter().map(|(_, per_seed)| {
        let (s, l) = per_seed
            .iter()
            .fold((0.0, 0.0), |(s, l), &(a, b)| (s + a, l + b));
        (s / SEEDS.len() as f64, l / SEEDS.len() as f64)
    });
    let (pf_s, pf_l) = avgs.next().expect("PF is the first case");
    let mut t = Table::new(
        "Fig 18(d): priority reset sweep (incast, load 0.8) — normalized to PF",
        &["reset period S", "short avg (norm)", "long avg (norm)"],
    );
    t.row(&["PF".into(), f2(1.0), f2(1.0)]);
    for (((label, ..), _), (s, l)) in results[1..].iter().zip(avgs) {
        t.row(&[format!("OutRAN {label}"), f2(s / pf_s), f2(l / pf_l)]);
    }
    *out += &t.render();
    *out += "\npaper: without reset, short −40 % / long +20 % vs PF; at S = 0.5 s the\n\
         long-flow FCT returns to PF levels while shorts keep a ~30 % gain\n";
}
