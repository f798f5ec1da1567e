//! Figure 20 — [NS-3 5G] FCT across cell loads under the MIRAGE
//! mobile-app workload, plus the SE/fairness scatter. On the stable
//! 5G-LENA-like channel SRJF performs ideally (Appendix B).

use super::*;

pub(super) fn run(threads: usize, out: &mut String) {
    let mut fct = Table::new(
        "Fig 20(a): 5G overall average FCT (ms), MIRAGE workload",
        &["scheduler", "0.4", "0.5", "0.6", "0.7", "0.8"],
    );
    let mut sf = Table::new(
        "Fig 20(b): 5G spectral efficiency / fairness",
        &["scheduler", "load", "SE", "fairness"],
    );
    let points: Vec<(SchedulerKind, f64)> = [
        SchedulerKind::Pf,
        SchedulerKind::Srjf,
        SchedulerKind::OutRan,
    ]
    .iter()
    .flat_map(|&kind| [0.4, 0.5, 0.6, 0.7, 0.8].map(|load| (kind, load)))
    .collect();
    let results = run_grid(threads, points, &SEEDS, |&(kind, load), seed| {
        Experiment::nr_default(1)
            .load(load)
            .duration_secs(8)
            .scheduler(kind)
            .seed(seed)
            .run()
    });
    let mean = ExperimentReport::mean;
    for per_kind in results.chunks(5) {
        let kind = per_kind[0].0 .0;
        let mut row = vec![kind.name().to_string()];
        for ((_, load), runs) in per_kind {
            row.push(f1(mean(runs, |r| r.fct.overall_mean_ms)));
            if (load - 0.4).abs() < 1e-9 || (load - 0.6).abs() < 1e-9 || (load - 0.8).abs() < 1e-9 {
                sf.row(&[
                    kind.name().to_string(),
                    format!("{load:.1}"),
                    f2(mean(runs, |r| r.spectral_efficiency)),
                    f3(mean(runs, |r| r.fairness)),
                ]);
            }
        }
        fct.row(&row);
    }
    *out += &fct.render();
    out.push('\n');
    *out += &sf.render();
    *out += "\npaper: on the stable 5G channel SRJF attains the best FCT (as in a\n\
         datacenter) and its SE/fairness penalty shrinks; OutRAN tracks SRJF\n\
         without oracle knowledge.\n";
}
