//! Figure 18(c) — the RLC AM case study: short-flow FCT tail CDFs for
//! {AM, UM} × {PF, OutRAN}. AM's retransmission machinery adds latency
//! versus UM; OutRAN helps in both modes by prioritising the Tx queue
//! within the opportunity left after Ctrl/Retx (§4.4).

use outran_bench::{pooled_fct_cdf, run_avg, SEEDS};
use outran_metrics::table::{f1, print_series};
use outran_metrics::SizeBucket;
use outran_ran::{Experiment, RlcMode, SchedulerKind};

fn main() {
    let build = |mode: RlcMode, kind: SchedulerKind| {
        move |seed: u64| {
            Experiment::lte_default()
                .users(40)
                .load(0.6)
                .duration_secs(20)
                .rlc_mode(mode)
                .scheduler(kind)
                .seed(seed)
        }
    };
    println!("Fig 18(c): short-flow FCT tail CDFs, RLC UM vs AM\n");
    let mut summary = Vec::new();
    for (mode, mlabel) in [(RlcMode::Am, "AM"), (RlcMode::Um, "UM")] {
        for kind in [SchedulerKind::Pf, SchedulerKind::OutRan] {
            let mut r = run_avg(build(mode, kind), &SEEDS);
            let cdf = pooled_fct_cdf(&mut r, Some(SizeBucket::Short), 400);
            let tail: Vec<(f64, f64)> = cdf.into_iter().filter(|&(_, p)| p >= 0.9).collect();
            let label = format!("{mlabel}+{}", kind.name());
            print_series(&format!("{label} short FCT (ms) CDF tail"), &tail, 10);
            summary.push((label, r.short_mean_ms, r.short_p95_ms, r.overall_mean_ms));
        }
    }
    println!("\nsummary:");
    println!(
        "  {:<12} {:>10} {:>10} {:>12}",
        "config", "S avg(ms)", "S p95(ms)", "overall(ms)"
    );
    for (label, avg, p95, overall) in summary {
        println!(
            "  {:<12} {:>10} {:>10} {:>12}",
            label,
            f1(avg),
            f1(p95),
            f1(overall)
        );
    }
    println!(
        "\npaper: AM+PF is the worst tail; AM+OutRAN beats even UM+PF;\n\
         UM+OutRAN is best overall (avg FCT −30 % vs PF in AM mode)"
    );
}
