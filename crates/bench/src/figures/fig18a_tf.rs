//! Figure 18(a) — PF with different fairness windows T_f: a small T_f
//! behaves like round robin (high fairness, lower SE), a huge T_f drifts
//! toward MT (max SE, lower fairness).

use super::*;

pub(super) fn run(threads: usize, out: &mut String) {
    let mut t = Table::new(
        "Fig 18(a): PF fairness-window sweep (LTE, load 0.6)",
        &["T_f", "SE (bit/s/Hz)", "fairness"],
    );
    let points = vec![
        ("10ms", Some(Dur::from_millis(10))),
        ("100ms", Some(Dur::from_millis(100))),
        ("1s", Some(Dur::from_secs(1))),
        ("10s", Some(Dur::from_secs(10))),
        ("100s", Some(Dur::from_secs(100))),
        ("MT", None),
    ];
    let results = run_grid(threads, points, &SEEDS, |&(_, tf), seed| match tf {
        Some(tf) => lte40(0.6, SchedulerKind::Pf, seed).fairness_window(tf).run(),
        None => lte40(0.6, SchedulerKind::Mt, seed).run(),
    });
    let mean = ExperimentReport::mean;
    for ((label, _), runs) in results {
        let (se, fairness) = (mean(&runs, |r| r.spectral_efficiency), mean(&runs, |r| r.fairness));
        t.row(&[label.into(), f2(se), f3(fairness)]);
    }
    *out += &t.render();
    *out += "\npaper: fairness decreases monotonically from the 10 ms (RR-like)\n\
         corner toward MT while SE increases\n";
}
