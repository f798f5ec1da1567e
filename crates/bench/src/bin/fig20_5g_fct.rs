//! Figure 20 — [NS-3 5G] FCT across cell loads under the MIRAGE
//! mobile-app workload, plus the SE/fairness scatter. On the stable
//! 5G-LENA-like channel SRJF performs ideally (Appendix B).

use outran_bench::{run_avg, SEEDS};
use outran_metrics::table::{f1, f2, f3};
use outran_metrics::Table;
use outran_ran::{Experiment, SchedulerKind};

fn main() {
    let mut fct = Table::new(
        "Fig 20(a): 5G overall average FCT (ms), MIRAGE workload",
        &["scheduler", "0.4", "0.5", "0.6", "0.7", "0.8"],
    );
    let mut sf = Table::new(
        "Fig 20(b): 5G spectral efficiency / fairness",
        &["scheduler", "load", "SE", "fairness"],
    );
    for kind in [
        SchedulerKind::Pf,
        SchedulerKind::Srjf,
        SchedulerKind::OutRan,
    ] {
        let mut row = vec![kind.name().to_string()];
        for load in [0.4, 0.5, 0.6, 0.7, 0.8] {
            let r = run_avg(
                |seed| {
                    Experiment::nr_default(1)
                        .load(load)
                        .duration_secs(8)
                        .scheduler(kind)
                        .seed(seed)
                },
                &SEEDS,
            );
            row.push(f1(r.overall_mean_ms));
            if (load - 0.4).abs() < 1e-9 || (load - 0.6).abs() < 1e-9 || (load - 0.8).abs() < 1e-9 {
                sf.row(&[
                    kind.name().to_string(),
                    format!("{load:.1}"),
                    f2(r.spectral_efficiency),
                    f3(r.fairness),
                ]);
            }
        }
        fct.row(&row);
        eprintln!("  [fig20] {} done", kind.name());
    }
    fct.print();
    println!();
    sf.print();
    println!(
        "\npaper: on the stable 5G channel SRJF attains the best FCT (as in a\n\
         datacenter) and its SE/fairness penalty shrinks; OutRAN tracks SRJF\n\
         without oracle knowledge."
    );
}
