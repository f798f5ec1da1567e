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
    let grid = run_avg_grid(threads, points, &SEEDS, |&kind, seed| {
        lte40(0.7, kind, seed).srjf_mode(outran_mac::SrjfMode::WinnerOnly)
    });
    let (pf, srjf) = (&grid[0].1, &grid[1].1);

    *out += "Figure 4(a): spectral efficiency over time (bit/s/Hz)\n\n";
    for r in [pf, srjf] {
        let series = over_time(&r.runs[0].se_series);
        *out += &render_series(&format!("{} SE(t)", r.scheduler), &series, 15);
    }
    *out += &format!(
        "\nmean SE: PF {} vs SRJF {}  (SRJF/PF = {:.0} %; paper: −48 %)\n\n",
        f2(pf.spectral_efficiency),
        f2(srjf.spectral_efficiency),
        100.0 * srjf.spectral_efficiency / pf.spectral_efficiency
    );

    *out += "Figure 4(b): fairness index over time\n\n";
    for r in [pf, srjf] {
        let series = over_time(&r.runs[0].fairness_series);
        *out += &render_series(&format!("{} fairness(t)", r.scheduler), &series, 15);
    }
    *out += &format!(
        "\nmean fairness: PF {} vs SRJF {}  (SRJF/PF = {:.0} %; paper: −47 %)\n",
        f3(pf.fairness),
        f3(srjf.fairness),
        100.0 * srjf.fairness / pf.fairness
    );
}
