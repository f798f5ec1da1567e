//! Figure 4 — side-effects of naive flow scheduling at the xNodeB:
//! SRJF costs spectral efficiency (paper −48 %) and fairness (−47 %)
//! relative to PF, shown as time series of the windowed samples.

use super::*;

/// Windowed samples (50 TTIs each) against time in seconds.
fn over_time(samples: &[f64]) -> Vec<(f64, f64)> {
    samples
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as f64 * 0.05, v))
        .collect()
}

pub(super) fn run(threads: usize, out: &mut String) {
    let points = vec![SchedulerKind::Pf, SchedulerKind::Srjf];
    let grid = run_grid(threads, points, &SEEDS, |&kind, seed| {
        lte40(0.7, kind, seed).run()
    });
    let (pf, srjf) = (&grid[0].1, &grid[1].1);
    let se = |runs: &[ExperimentReport]| ExperimentReport::mean(runs, |r| r.spectral_efficiency);
    let fairness = |runs: &[ExperimentReport]| ExperimentReport::mean(runs, |r| r.fairness);

    *out += "Figure 4(a): spectral efficiency over time (bit/s/Hz)\n\n";
    for runs in [pf, srjf] {
        let series = over_time(&runs[0].se_series);
        *out += &render_series(&format!("{} SE(t)", runs[0].scheduler), &series, 15);
    }
    *out += &format!(
        "\nmean SE: PF {} vs SRJF {}  (SRJF/PF = {:.0} %; paper: −48 %)\n\n",
        f2(se(pf)),
        f2(se(srjf)),
        100.0 * se(srjf) / se(pf)
    );

    *out += "Figure 4(b): fairness index over time\n\n";
    for runs in [pf, srjf] {
        let series = over_time(&runs[0].fairness_series);
        *out += &render_series(&format!("{} fairness(t)", runs[0].scheduler), &series, 15);
    }
    *out += &format!(
        "\nmean fairness: PF {} vs SRJF {}  (SRJF/PF = {:.0} %; paper: −47 %)\n",
        f3(fairness(pf)),
        f3(fairness(srjf)),
        100.0 * fairness(srjf) / fairness(pf)
    );
}
