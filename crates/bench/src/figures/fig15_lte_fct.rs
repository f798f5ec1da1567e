//! Figure 15 — [NS-3 LTE] FCT across cell loads 0.4–0.8 under the LTE
//! cellular workload, for PF / SRJF / PSS / CQA / OutRAN:
//! (a) overall average, (b) short-flow 95th percentile,
//! (c) medium-flow average, (d) long-flow average.

use super::*;

const KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Pf,
    SchedulerKind::Srjf,
    SchedulerKind::Pss,
    SchedulerKind::Cqa,
    SchedulerKind::OutRan,
];

pub(super) fn run(threads: usize, out: &mut String) {
    let loads = [0.4, 0.5, 0.6, 0.7, 0.8];
    let mut tables = [
        "Fig 15(a): overall average FCT (ms)",
        "Fig 15(b): short (0,10KB] 95%-ile FCT (ms)",
        "Fig 15(c): medium (10KB,0.1MB] avg FCT (ms)",
        "Fig 15(d): long (0.1MB,inf) avg FCT (ms)",
    ]
    .map(|title| Table::new(title, &["scheduler", "0.4", "0.5", "0.6", "0.7", "0.8"]));
    let mut health = Table::new(
        "Fig 15 runs: loss / fault health (all loads)",
        &[
            "scheduler",
            "buffer drops",
            "residual losses",
            "fault events",
            "violations",
        ],
    );
    let points: Vec<(SchedulerKind, f64)> = KINDS
        .iter()
        .flat_map(|&k| loads.iter().map(move |&l| (k, l)))
        .collect();
    let results = run_grid(threads, points, &SEEDS, |&(kind, load), seed| {
        lte40(load, kind, seed).run()
    });
    let mean = ExperimentReport::mean;
    for (kind, per_kind) in KINDS.iter().zip(results.chunks(loads.len())) {
        let mut rows: [Vec<String>; 4] = std::array::from_fn(|_| vec![kind.name().to_string()]);
        let mut health_sums = [0u64; 4];
        for (_, runs) in per_kind {
            rows[0].push(f1(mean(runs, |r| r.fct.overall_mean_ms)));
            rows[1].push(f1(mean(runs, |r| r.fct.short_p95_ms)));
            rows[2].push(f1(mean(runs, |r| r.fct.medium_mean_ms)));
            rows[3].push(f1(mean(runs, |r| r.fct.long_mean_ms)));
            for run in runs {
                health_sums[0] += run.buffer_drops;
                health_sums[1] += run.residual_losses;
                health_sums[2] += run.fault_stats.total_events();
                health_sums[3] += run.total_violations;
            }
        }
        for (t, row) in tables.iter_mut().zip(&rows) {
            t.row(row);
        }
        let [drops, losses, faults, violations] = health_sums;
        health.rowd(&[&kind.name(), &drops, &losses, &faults, &violations]);
    }
    for t in &tables {
        *out += &t.render();
        out.push('\n');
    }
    *out += &health.render();
    *out += "expected shapes (paper): OutRAN ≈ SRJF on (b), far below PF whose tail\n\
         inflates with load; SRJF worst on (a)/(d); CQA strong on (b) but\n\
         costly elsewhere; OutRAN does not starve long flows.\n";
}
