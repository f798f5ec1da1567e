//! Figure 8 — OutRAN sensitivity to the relaxation threshold ε:
//! fairness vs spectral efficiency as ε sweeps from 0 to 1, with the PF
//! baseline at ε = 0. The paper observes steady performance for ε < 0.4
//! and picks ε = 0.2.

use super::*;

pub(super) fn run(threads: usize, out: &mut String) {
    let mut t = Table::new(
        "Fig 8: OutRAN sensitivity to epsilon (LTE, load 0.6)",
        &[
            "epsilon",
            "SE (bit/s/Hz)",
            "fairness",
            "S avg (ms)",
            "S p95 (ms)",
        ],
    );
    let mut points: Vec<(String, SchedulerKind)> = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0]
        .iter()
        .map(|&eps| (format!("{eps:.1}"), SchedulerKind::OutRanEps(eps)))
        .collect();
    points.push(("PF".into(), SchedulerKind::Pf));
    let results = run_grid(threads, points, &SEEDS, |(_, kind), seed| {
        lte40(0.6, *kind, seed).run()
    });
    let mean = ExperimentReport::mean;
    for ((label, _), runs) in results {
        t.row(&[
            label,
            f2(mean(&runs, |r| r.spectral_efficiency)),
            f3(mean(&runs, |r| r.fairness)),
            f1(mean(&runs, |r| r.fct.short_mean_ms)),
            f1(mean(&runs, |r| r.fct.short_p95_ms)),
        ]);
    }
    *out += &t.render();
    *out += "\npaper: SE/fairness degrade slowly until e≈0.4 then collapse toward\n\
         the strict-MLFQ corner; e=0.2 is the chosen balance\n";
}
