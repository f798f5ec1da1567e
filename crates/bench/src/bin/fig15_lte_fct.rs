//! Figure 15 — [NS-3 LTE] FCT across cell loads 0.4–0.8 under the LTE
//! cellular workload, for PF / SRJF / PSS / CQA / OutRAN:
//! (a) overall average, (b) short-flow 95th percentile,
//! (c) medium-flow average, (d) long-flow average.

use outran_bench::{run_avg_grid, AvgReport, SEEDS};
use outran_metrics::table::f1;
use outran_metrics::Table;
use outran_ran::{Experiment, SchedulerKind};

const KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Pf,
    SchedulerKind::Srjf,
    SchedulerKind::Pss,
    SchedulerKind::Cqa,
    SchedulerKind::OutRan,
];

fn main() {
    let loads = [0.4, 0.5, 0.6, 0.7, 0.8];
    let mut tables = [
        Table::new(
            "Fig 15(a): overall average FCT (ms)",
            &["scheduler", "0.4", "0.5", "0.6", "0.7", "0.8"],
        ),
        Table::new(
            "Fig 15(b): short (0,10KB] 95%-ile FCT (ms)",
            &["scheduler", "0.4", "0.5", "0.6", "0.7", "0.8"],
        ),
        Table::new(
            "Fig 15(c): medium (10KB,0.1MB] avg FCT (ms)",
            &["scheduler", "0.4", "0.5", "0.6", "0.7", "0.8"],
        ),
        Table::new(
            "Fig 15(d): long (0.1MB,inf) avg FCT (ms)",
            &["scheduler", "0.4", "0.5", "0.6", "0.7", "0.8"],
        ),
    ];
    let mut health = Table::new(
        "Fig 15 runs: loss / fault health (all loads)",
        &AvgReport::health_headers(),
    );
    // One grid point per (scheduler, load): the whole figure fans out
    // across the worker pool in one shot.
    let points: Vec<(SchedulerKind, f64)> = KINDS
        .iter()
        .flat_map(|&k| loads.iter().map(move |&l| (k, l)))
        .collect();
    let results = run_avg_grid(points, &SEEDS, |&(kind, load), seed| {
        Experiment::lte_default()
            .srjf_mode(outran_mac::SrjfMode::WinnerOnly)
            .users(40)
            .load(load)
            .duration_secs(20)
            .scheduler(kind)
            .seed(seed)
    });
    let mut it = results.into_iter();
    for kind in KINDS {
        let mut rows: [Vec<String>; 4] = [
            vec![kind.name().to_string()],
            vec![kind.name().to_string()],
            vec![kind.name().to_string()],
            vec![kind.name().to_string()],
        ];
        let mut hsum: Option<AvgReport> = None;
        for _ in &loads {
            let (_, r) = it.next().expect("grid covers every (kind, load)");
            rows[0].push(f1(r.overall_mean_ms));
            rows[1].push(f1(r.short_p95_ms));
            rows[2].push(f1(r.medium_mean_ms));
            rows[3].push(f1(r.long_mean_ms));
            match &mut hsum {
                None => hsum = Some(r),
                Some(h) => {
                    h.buffer_drops += r.buffer_drops;
                    h.residual_losses += r.residual_losses;
                    h.fault_events += r.fault_events;
                    h.violations += r.violations;
                }
            }
        }
        for (t, row) in tables.iter_mut().zip(&rows) {
            t.row(row);
        }
        if let Some(h) = &hsum {
            health.row(&h.health_row());
        }
        eprintln!("  [fig15] {} done", kind.name());
    }
    for t in &tables {
        t.print();
        println!();
    }
    health.print();
    println!(
        "expected shapes (paper): OutRAN ≈ SRJF on (b), far below PF whose tail\n\
         inflates with load; SRJF worst on (a)/(d); CQA strong on (b) but\n\
         costly elsewhere; OutRAN does not starve long flows."
    );
}
