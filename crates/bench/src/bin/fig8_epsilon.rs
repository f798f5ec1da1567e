//! Figure 8 — OutRAN sensitivity to the relaxation threshold ε:
//! fairness vs spectral efficiency as ε sweeps from 0 to 1, with the PF
//! baseline at ε = 0. The paper observes steady performance for ε < 0.4
//! and picks ε = 0.2.

use outran_bench::{run_avg_grid, SEEDS};
use outran_metrics::table::{f1, f2, f3};
use outran_metrics::Table;
use outran_ran::{Experiment, SchedulerKind};

fn main() {
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
    // The whole ε sweep (plus the PF reference) is one parallel grid.
    let mut points: Vec<(String, SchedulerKind)> = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0]
        .iter()
        .map(|&eps| (format!("{eps:.1}"), SchedulerKind::OutRanEps(eps)))
        .collect();
    points.push(("PF".into(), SchedulerKind::Pf));
    let results = run_avg_grid(points, &SEEDS, |(_, kind), seed| {
        Experiment::lte_default()
            .users(40)
            .load(0.6)
            .duration_secs(20)
            .scheduler(*kind)
            .seed(seed)
    });
    for ((label, _), r) in results {
        t.row(&[
            label,
            f2(r.spectral_efficiency),
            f3(r.fairness),
            f1(r.short_mean_ms),
            f1(r.short_p95_ms),
        ]);
    }
    t.print();
    println!(
        "\npaper: SE/fairness degrade slowly until e≈0.4 then collapse toward\n\
         the strict-MLFQ corner; e=0.2 is the chosen balance"
    );
}
