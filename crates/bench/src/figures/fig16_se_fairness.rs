//! Figure 16 — [NS-3 LTE] overall spectral efficiency vs fairness for
//! every scheduler across cell loads (the scatter plot).

use super::*;

pub(super) fn run(threads: usize, out: &mut String) {
    let mut t = Table::new(
        "Fig 16: spectral efficiency vs fairness across loads",
        &["scheduler", "load", "SE (bit/s/Hz)", "fairness"],
    );
    let points: Vec<(SchedulerKind, f64)> = [
        SchedulerKind::Pf,
        SchedulerKind::Srjf,
        SchedulerKind::OutRan,
        SchedulerKind::Pss,
        SchedulerKind::Cqa,
    ]
    .iter()
    .flat_map(|&k| [0.4, 0.6, 0.8].map(|l| (k, l)))
    .collect();
    let results = run_grid(threads, points, &SEEDS, |&(kind, load), seed| {
        lte40(load, kind, seed).run()
    });
    for ((kind, load), runs) in results {
        t.row(&[
            kind.name().to_string(),
            format!("{load:.1}"),
            f2(ExperimentReport::mean(&runs, |r| r.spectral_efficiency)),
            f3(ExperimentReport::mean(&runs, |r| r.fairness)),
        ]);
    }
    *out += &t.render();
    *out += "\npaper: OutRAN preserves ≥98 % SE and ≥97 % fairness of PF at every\n\
         load; SRJF collapses in both; PSS/CQA cost up to 33 % SE / 65 % fairness\n";
}
