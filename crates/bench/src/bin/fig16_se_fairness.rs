//! Figure 16 — [NS-3 LTE] overall spectral efficiency vs fairness for
//! every scheduler across cell loads (the scatter plot).

use outran_bench::{run_avg, SEEDS};
use outran_metrics::table::{f2, f3};
use outran_metrics::Table;
use outran_ran::{Experiment, SchedulerKind};

fn main() {
    let mut t = Table::new(
        "Fig 16: spectral efficiency vs fairness across loads",
        &["scheduler", "load", "SE (bit/s/Hz)", "fairness"],
    );
    for kind in [
        SchedulerKind::Pf,
        SchedulerKind::Srjf,
        SchedulerKind::OutRan,
        SchedulerKind::Pss,
        SchedulerKind::Cqa,
    ] {
        for load in [0.4, 0.6, 0.8] {
            let r = run_avg(
                |seed| {
                    Experiment::lte_default()
                        .srjf_mode(outran_mac::SrjfMode::WinnerOnly)
                        .users(40)
                        .load(load)
                        .duration_secs(20)
                        .scheduler(kind)
                        .seed(seed)
                },
                &SEEDS,
            );
            t.row(&[
                kind.name().to_string(),
                format!("{load:.1}"),
                f2(r.spectral_efficiency),
                f3(r.fairness),
            ]);
        }
        eprintln!("  [fig16] {} done", kind.name());
    }
    t.print();
    println!(
        "\npaper: OutRAN preserves ≥98 % SE and ≥97 % fairness of PF at every\n\
         load; SRJF collapses in both; PSS/CQA cost up to 33 % SE / 65 % fairness"
    );
}
