//! Figure 18(c) — the RLC AM case study: short-flow FCT tail CDFs for
//! {AM, UM} × {PF, OutRAN}. AM's retransmission machinery adds latency
//! versus UM; OutRAN helps in both modes by prioritising the Tx queue
//! within the opportunity left after Ctrl/Retx (§4.4).

use super::*;
use outran_ran::RlcMode;

pub(super) fn run(threads: usize, out: &mut String) {
    let points: Vec<(RlcMode, &str, SchedulerKind)> = [(RlcMode::Am, "AM"), (RlcMode::Um, "UM")]
        .iter()
        .flat_map(|&(mode, mlabel)| {
            [SchedulerKind::Pf, SchedulerKind::OutRan].map(|kind| (mode, mlabel, kind))
        })
        .collect();
    let results = run_grid(threads, points, &SEEDS, |&(mode, _, kind), seed| {
        lte40(0.6, kind, seed).rlc_mode(mode).run()
    });
    *out += "Fig 18(c): short-flow FCT tail CDFs, RLC UM vs AM\n\n";
    let mut summary = format!(
        "\nsummary:\n  {:<12} {:>10} {:>10} {:>12}\n",
        "config", "S avg(ms)", "S p95(ms)", "overall(ms)"
    );
    for ((_, mlabel, kind), runs) in results {
        let tail = fct_cdf_tail(&runs, SizeBucket::Short);
        let label = format!("{mlabel}+{}", kind.name());
        *out += &render_series(&format!("{label} short FCT (ms) CDF tail"), &tail, 10);
        let avg = f1(ExperimentReport::mean(&runs, |r| r.fct.short_mean_ms));
        let p95 = f1(ExperimentReport::mean(&runs, |r| r.fct.short_p95_ms));
        let overall = f1(ExperimentReport::mean(&runs, |r| r.fct.overall_mean_ms));
        summary += &format!("  {label:<12} {avg:>10} {p95:>10} {overall:>12}\n");
    }
    *out += &summary;
    *out += "\npaper: AM+PF is the worst tail; AM+OutRAN beats even UM+PF;\n\
         UM+OutRAN is best overall (avg FCT −30 % vs PF in AM mode)\n";
}
