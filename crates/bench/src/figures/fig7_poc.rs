//! Figure 7 — proof-of-concept CDFs: spectral efficiency, fairness, and
//! short/long FCT for OutRAN (ε = 0.2) vs strict MLFQ (ε = 1) vs PF,
//! plus the ε = 0 (intra-user-only) tail comparison.

use super::*;
use outran_metrics::cdf;

pub(super) fn run(threads: usize, out: &mut String) {
    let points = vec![
        ("PF", SchedulerKind::Pf),
        ("OutRAN(e=0.2)", SchedulerKind::OutRanEps(0.2)),
        ("StrictMLFQ", SchedulerKind::StrictMlfq),
        ("OutRAN(e=0)", SchedulerKind::OutRanEps(0.0)),
    ];
    let grid = run_grid(threads, points, &SEEDS, |&(_, kind), seed| {
        lte40(0.6, kind, seed).run()
    });
    let [pf, outran, strict, intra] = [0, 1, 2, 3].map(|i| &grid[i].1);
    let se = |runs: &[ExperimentReport]| ExperimentReport::mean(runs, |r| r.spectral_efficiency);
    let fairness = |runs: &[ExperimentReport]| ExperimentReport::mean(runs, |r| r.fairness);

    *out += "Figure 7(a): spectral-efficiency CDFs (windowed samples)\n\n";
    for runs in [pf, outran, strict] {
        let se_cdf = cdf(&runs[0].se_series, 200);
        *out += &render_series(&format!("{} SE CDF", runs[0].scheduler), &se_cdf, 12);
    }
    *out += &format!(
        "\nmean SE: PF {}  OutRAN {} ({:.0} % of PF; paper ≥98 %)  strictMLFQ {}\n\n",
        f2(se(pf)),
        f2(se(outran)),
        100.0 * se(outran) / se(pf),
        f2(se(strict)),
    );

    *out += "Figure 7(b): fairness CDFs\n\n";
    for runs in [pf, outran, strict] {
        let fairness_cdf = cdf(&runs[0].fairness_series, 200);
        *out += &render_series(&format!("{} fairness CDF", runs[0].scheduler), &fairness_cdf, 12);
    }
    *out += &format!(
        "\nmean fairness: PF {}  OutRAN {} ({:.0} % of PF; paper ≥97 %)  strictMLFQ {}\n\n",
        f3(fairness(pf)),
        f3(fairness(outran)),
        100.0 * fairness(outran) / fairness(pf),
        f3(fairness(strict)),
    );
    let [pf95, or95, strict95, intra95] = [pf, outran, strict, intra]
        .map(|runs| f1(ExperimentReport::mean(runs, |r| r.fct.short_p95_ms)));

    *out += "Figure 7(c): FCT distributions (tail region)\n\n";
    for ((label, _), runs) in &grid {
        for (bucket, name, rows) in [
            (SizeBucket::Short, "short", 10),
            (SizeBucket::Long, "long", 6),
        ] {
            let tail = fct_cdf_tail(runs, bucket);
            *out += &render_series(&format!("{label} {name} FCT (ms) CDF tail"), &tail, rows);
        }
    }
    *out += &format!(
        "\nsummary: short p95 (ms): PF {pf95}  OutRAN(0.2) {or95}  strict {strict95}  OutRAN(0) {intra95}\n"
    );
    *out += "paper: OutRAN(0.2) ≈ strict MLFQ on short FCT without the SE/fairness\n\
        cost, and improves short tails ~10 % over the intra-only e=0 variant\n";
}
