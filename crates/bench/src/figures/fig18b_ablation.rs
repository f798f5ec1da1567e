//! Figure 18(b) — ablation of OutRAN's two design components across the
//! legacy scheduler's fairness window: legacy (PF with T_f, or MT) vs
//! +intra-user scheduler only (ε = 0) vs full OutRAN (ε = 0.2).
//!
//! Paper: with a small T_f most of the gain comes from the intra-user
//! scheduler; the inter-user scheduler contributes more as T_f grows
//! (+11 % at T_f = 10 s), and full OutRAN always wins.

use super::*;

pub(super) fn run(threads: usize, out: &mut String) {
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
    // Per case: legacy, +intra, full.
    use SchedulerKind::{Mt, OutRanEps, OutRanOverMt, Pf};
    let over_pf = [Pf, OutRanEps(0.0), OutRanEps(0.2)];
    let cases = [
        ("10ms", Some(Dur::from_millis(10)), over_pf),
        ("100ms", Some(Dur::from_millis(100)), over_pf),
        ("1s", Some(Dur::from_secs(1)), over_pf),
        ("10s", Some(Dur::from_secs(10)), over_pf),
        ("MT", None, [Mt, OutRanOverMt(0.0), OutRanOverMt(0.2)]),
    ];
    let points: Vec<(Option<Dur>, SchedulerKind)> = cases
        .iter()
        .flat_map(|&(_, tf, kinds)| kinds.map(|kind| (tf, kind)))
        .collect();
    let results = run_grid(threads, points, &SEEDS, |&(tf, kind), seed| {
        let e = lte40(0.6, kind, seed);
        match tf {
            Some(tf) => e.fairness_window(tf),
            None => e,
        }
        .run()
    });
    let overall = |runs: &[ExperimentReport]| ExperimentReport::mean(runs, |r| r.fct.overall_mean_ms);
    for ((label, ..), per_case) in cases.iter().zip(results.chunks(3)) {
        let base = overall(&per_case[0].1);
        t.row(&[
            label.to_string(),
            f2(base),
            f2(1.0),
            f2(overall(&per_case[1].1) / base),
            f2(overall(&per_case[2].1) / base),
        ]);
    }
    *out += &t.render();
    *out += "\npaper: both components always help; the inter-user component's\n\
         share of the gain grows with T_f (and is largest for MT)\n";
}
