//! Figure 4 — side-effects of naive flow scheduling at the xNodeB:
//! SRJF costs spectral efficiency (paper −48 %) and fairness (−47 %)
//! relative to PF, shown as time series of the windowed samples.

use outran_bench::{run_avg, SEEDS};
use outran_metrics::table::{f2, f3, print_series};
use outran_ran::{Experiment, SchedulerKind};

fn main() {
    let build = |kind: SchedulerKind| {
        move |seed: u64| {
            Experiment::lte_default()
                .srjf_mode(outran_mac::SrjfMode::WinnerOnly)
                .users(40)
                .load(0.7)
                .duration_secs(20)
                .scheduler(kind)
                .seed(seed)
        }
    };
    let pf = run_avg(build(SchedulerKind::Pf), &SEEDS);
    let srjf = run_avg(build(SchedulerKind::Srjf), &SEEDS);

    println!("Figure 4(a): spectral efficiency over time (bit/s/Hz)\n");
    for r in [&pf, &srjf] {
        let series: Vec<(f64, f64)> = r.runs[0]
            .se_series
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * 0.05, v)) // 50-TTI windows
            .collect();
        print_series(&format!("{} SE(t)", r.scheduler), &series, 15);
    }
    println!(
        "\nmean SE: PF {} vs SRJF {}  (SRJF/PF = {:.0} %; paper: −48 %)\n",
        f2(pf.spectral_efficiency),
        f2(srjf.spectral_efficiency),
        100.0 * srjf.spectral_efficiency / pf.spectral_efficiency
    );

    println!("Figure 4(b): fairness index over time\n");
    for r in [&pf, &srjf] {
        let series: Vec<(f64, f64)> = r.runs[0]
            .fairness_series
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * 0.05, v))
            .collect();
        print_series(&format!("{} fairness(t)", r.scheduler), &series, 15);
    }
    println!(
        "\nmean fairness: PF {} vs SRJF {}  (SRJF/PF = {:.0} %; paper: −47 %)",
        f3(pf.fairness),
        f3(srjf.fairness),
        100.0 * srjf.fairness / pf.fairness
    );
}
