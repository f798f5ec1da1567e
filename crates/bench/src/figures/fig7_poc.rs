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
    let mut grid = run_avg_grid(threads, points, &SEEDS, |&(_, kind), seed| {
        lte40(0.6, kind, seed)
    });
    let [pf, outran, strict, intra] = [0, 1, 2, 3].map(|i| &grid[i].1);

    *out += "Figure 7(a): spectral-efficiency CDFs (windowed samples)\n\n";
    for r in [pf, outran, strict] {
        let se = cdf(&r.runs[0].se_series, 200);
        *out += &render_series(&format!("{} SE CDF", r.scheduler), &se, 12);
    }
    *out += &format!(
        "\nmean SE: PF {}  OutRAN {} ({:.0} % of PF; paper ≥98 %)  strictMLFQ {}\n\n",
        f2(pf.spectral_efficiency),
        f2(outran.spectral_efficiency),
        100.0 * outran.spectral_efficiency / pf.spectral_efficiency,
        f2(strict.spectral_efficiency),
    );

    *out += "Figure 7(b): fairness CDFs\n\n";
    for r in [pf, outran, strict] {
        let fairness = cdf(&r.runs[0].fairness_series, 200);
        *out += &render_series(&format!("{} fairness CDF", r.scheduler), &fairness, 12);
    }
    *out += &format!(
        "\nmean fairness: PF {}  OutRAN {} ({:.0} % of PF; paper ≥97 %)  strictMLFQ {}\n\n",
        f3(pf.fairness),
        f3(outran.fairness),
        100.0 * outran.fairness / pf.fairness,
        f3(strict.fairness),
    );
    let [pf95, or95, strict95, intra95] = [pf, outran, strict, intra].map(|r| f1(r.short_p95_ms));

    *out += "Figure 7(c): FCT distributions (tail region)\n\n";
    for ((label, _), r) in &mut grid {
        for (bucket, name, rows) in [
            (SizeBucket::Short, "short", 10),
            (SizeBucket::Long, "long", 6),
        ] {
            let tail = fct_cdf_tail(r, bucket);
            *out += &render_series(&format!("{label} {name} FCT (ms) CDF tail"), &tail, rows);
        }
    }
    *out += &format!(
        "\nsummary: short p95 (ms): PF {pf95}  OutRAN(0.2) {or95}  strict {strict95}  OutRAN(0) {intra95}\n"
    );
    *out += "paper: OutRAN(0.2) ≈ strict MLFQ on short FCT without the SE/fairness\n\
        cost, and improves short tails ~10 % over the intra-only e=0 variant\n";
}
