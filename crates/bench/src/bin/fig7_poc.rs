//! Figure 7 — proof-of-concept CDFs: spectral efficiency, fairness, and
//! short/long FCT for OutRAN (ε = 0.2) vs strict MLFQ (ε = 1) vs PF,
//! plus the ε = 0 (intra-user-only) tail comparison.

use outran_bench::{pooled_fct_cdf, run_avg, SEEDS};
use outran_metrics::table::{f1, f2, f3, print_series};
use outran_metrics::SizeBucket;
use outran_ran::{Experiment, SchedulerKind};

fn main() {
    let build = |kind: SchedulerKind| {
        move |seed: u64| {
            Experiment::lte_default()
                .users(40)
                .load(0.6)
                .duration_secs(20)
                .scheduler(kind)
                .seed(seed)
        }
    };
    let mut pf = run_avg(build(SchedulerKind::Pf), &SEEDS);
    let mut outran = run_avg(build(SchedulerKind::OutRanEps(0.2)), &SEEDS);
    let mut strict = run_avg(build(SchedulerKind::StrictMlfq), &SEEDS);
    let mut intra = run_avg(build(SchedulerKind::OutRanEps(0.0)), &SEEDS);
    intra.scheduler = "OutRAN(e=0)".into();

    println!("Figure 7(a): spectral-efficiency CDFs (windowed samples)\n");
    for r in [&pf, &outran, &strict] {
        print_series(&format!("{} SE CDF", r.scheduler), &r.runs[0].se_cdf, 12);
    }
    println!(
        "\nmean SE: PF {}  OutRAN {} ({:.0} % of PF; paper ≥98 %)  strictMLFQ {}\n",
        f2(pf.spectral_efficiency),
        f2(outran.spectral_efficiency),
        100.0 * outran.spectral_efficiency / pf.spectral_efficiency,
        f2(strict.spectral_efficiency),
    );

    println!("Figure 7(b): fairness CDFs\n");
    for r in [&pf, &outran, &strict] {
        print_series(
            &format!("{} fairness CDF", r.scheduler),
            &r.runs[0].fairness_cdf,
            12,
        );
    }
    println!(
        "\nmean fairness: PF {}  OutRAN {} ({:.0} % of PF; paper ≥97 %)  strictMLFQ {}\n",
        f3(pf.fairness),
        f3(outran.fairness),
        100.0 * outran.fairness / pf.fairness,
        f3(strict.fairness),
    );

    println!("Figure 7(c): FCT distributions (tail region)\n");
    for (r, label) in [
        (&mut pf, "PF"),
        (&mut outran, "OutRAN(e=0.2)"),
        (&mut strict, "StrictMLFQ"),
        (&mut intra, "OutRAN(e=0)"),
    ] {
        let short = pooled_fct_cdf(r, Some(SizeBucket::Short), 400);
        let tail: Vec<(f64, f64)> = short.into_iter().filter(|&(_, p)| p >= 0.9).collect();
        print_series(&format!("{label} short FCT (ms) CDF tail"), &tail, 10);
        let long = pooled_fct_cdf(r, Some(SizeBucket::Long), 400);
        let ltail: Vec<(f64, f64)> = long.into_iter().filter(|&(_, p)| p >= 0.9).collect();
        print_series(&format!("{label} long FCT (ms) CDF tail"), &ltail, 6);
    }
    println!(
        "\nsummary: short p95 (ms): PF {}  OutRAN(0.2) {}  strict {}  OutRAN(0) {}",
        f1(pf.short_p95_ms),
        f1(outran.short_p95_ms),
        f1(strict.short_p95_ms),
        f1(intra.short_p95_ms),
    );
    println!(
        "paper: OutRAN(0.2) ≈ strict MLFQ on short FCT without the SE/fairness\n\
        cost, and improves short tails ~10 % over the intra-only e=0 variant"
    );
}
