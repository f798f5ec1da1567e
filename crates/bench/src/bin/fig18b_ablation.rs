//! Figure 18(b) — ablation of OutRAN's two design components across the
//! legacy scheduler's fairness window: legacy (PF with T_f, or MT) vs
//! +intra-user scheduler only (ε = 0) vs full OutRAN (ε = 0.2).
//!
//! Paper: with a small T_f most of the gain comes from the intra-user
//! scheduler; the inter-user scheduler contributes more as T_f grows
//! (+11 % at T_f = 10 s), and full OutRAN always wins.

use outran_bench::{run_avg, SEEDS};
use outran_metrics::table::f2;
use outran_metrics::Table;
use outran_ran::{Experiment, SchedulerKind};
use outran_simcore::Dur;

fn main() {
    let mut t = Table::new(
        "Fig 18(b): ablation — normalized avg FCT (vs legacy at each T_f)",
        &[
            "T_f",
            "legacy(ms)",
            "legacy",
            "+intra (e=0)",
            "OutRAN (e=0.2)",
        ],
    );
    let cases: [(&str, Option<Dur>); 5] = [
        ("10ms", Some(Dur::from_millis(10))),
        ("100ms", Some(Dur::from_millis(100))),
        ("1s", Some(Dur::from_secs(1))),
        ("10s", Some(Dur::from_secs(10))),
        ("MT", None),
    ];
    for (label, tf) in cases {
        let run = |kind: SchedulerKind| {
            run_avg(
                |seed| {
                    let mut e = Experiment::lte_default()
                        .users(40)
                        .load(0.6)
                        .duration_secs(20)
                        .scheduler(kind)
                        .seed(seed);
                    if let Some(tf) = tf {
                        e = e.fairness_window(tf);
                    }
                    e
                },
                &SEEDS,
            )
        };
        let (legacy, intra, full) = match tf {
            Some(_) => (
                run(SchedulerKind::Pf),
                run(SchedulerKind::OutRanEps(0.0)),
                run(SchedulerKind::OutRanEps(0.2)),
            ),
            None => (
                run(SchedulerKind::Mt),
                run(SchedulerKind::OutRanOverMt(0.0)),
                run(SchedulerKind::OutRanOverMt(0.2)),
            ),
        };
        let base = legacy.overall_mean_ms;
        t.row(&[
            label.into(),
            f2(base),
            f2(1.0),
            f2(intra.overall_mean_ms / base),
            f2(full.overall_mean_ms / base),
        ]);
        eprintln!("  [fig18b] T_f={label} done");
    }
    t.print();
    println!(
        "\npaper: both components always help; the inter-user component's\n\
         share of the gain grows with T_f (and is largest for MT)"
    );
}
