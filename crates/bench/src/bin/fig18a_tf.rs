//! Figure 18(a) — PF with different fairness windows T_f: a small T_f
//! behaves like round robin (high fairness, lower SE), a huge T_f drifts
//! toward MT (max SE, lower fairness).

use outran_bench::{run_avg, SEEDS};
use outran_metrics::table::{f2, f3};
use outran_metrics::Table;
use outran_ran::{Experiment, SchedulerKind};
use outran_simcore::Dur;

fn main() {
    let mut t = Table::new(
        "Fig 18(a): PF fairness-window sweep (LTE, load 0.6)",
        &["T_f", "SE (bit/s/Hz)", "fairness"],
    );
    for (label, tf) in [
        ("10ms", Dur::from_millis(10)),
        ("100ms", Dur::from_millis(100)),
        ("1s", Dur::from_secs(1)),
        ("10s", Dur::from_secs(10)),
        ("100s", Dur::from_secs(100)),
    ] {
        let r = run_avg(
            |seed| {
                Experiment::lte_default()
                    .users(40)
                    .load(0.6)
                    .duration_secs(20)
                    .scheduler(SchedulerKind::Pf)
                    .fairness_window(tf)
                    .seed(seed)
            },
            &SEEDS,
        );
        t.row(&[label.into(), f2(r.spectral_efficiency), f3(r.fairness)]);
    }
    let mt = run_avg(
        |seed| {
            Experiment::lte_default()
                .users(40)
                .load(0.6)
                .duration_secs(20)
                .scheduler(SchedulerKind::Mt)
                .seed(seed)
        },
        &SEEDS,
    );
    t.row(&["MT".into(), f2(mt.spectral_efficiency), f3(mt.fairness)]);
    t.print();
    println!(
        "\npaper: fairness decreases monotonically from the 10 ms (RR-like)\n\
         corner toward MT while SE increases"
    );
}
