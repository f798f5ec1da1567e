//! Figure 2 — (a) downlink flow-size CDFs and (b) the SINR distribution
//! across UEs in the pedestrian LTE cell.

use super::*;
use outran_phy::channel::CellChannel;
use outran_phy::Scenario;
use outran_simcore::{Percentiles, Rng};
use outran_workload::FlowSizeDist;

pub(super) fn run(_threads: usize, out: &mut String) {
    *out += "=== Figure 2(a): flow size distributions ===\n\n";
    for d in [FlowSizeDist::LteCellular, FlowSizeDist::MirageMobileApp] {
        let cdf = d.cdf();
        let points: Vec<(f64, f64)> = (1..=40)
            .map(|i| {
                let p = i as f64 / 40.0;
                (cdf.quantile(p) / 1000.0, p) // KB
            })
            .collect();
        *out += &render_series(&format!("{d:?} flow size (KB) vs CDF"), &points, 20);
        *out += &format!(
            "  anchor: CDF(35.9 KB) = {:.3}  (paper: 0.90 for the LTE cellular dist)\n",
            cdf.cdf(35_900.0)
        );
        *out += &format!("  mean flow = {:.1} KB\n\n", cdf.mean() / 1000.0);
    }

    *out += "=== Figure 2(b): per-UE mean SINR distribution ===\n\n";
    let cfg = Scenario::LtePedestrian.channel_config();
    let ch = CellChannel::new(cfg, 200, &Rng::new(42));
    let mut sinrs = Percentiles::new();
    for u in 0..200 {
        sinrs.push(ch.mean_sinr_db(u));
    }
    let pts = sinrs.cdf_points(25);
    *out += &render_series("UE mean SINR (dB) vs CDF", &pts, 25);
    let (med, good, exc) = (
        sinrs.percentile(25.0),
        sinrs.percentile(60.0),
        sinrs.percentile(90.0),
    );
    *out += &format!(
        "\n  clusters: Medium ≈ {med:.1} dB, Good ≈ {good:.1} dB, Excellent ≈ {exc:.1} dB\n\
         (paper Fig 2b: groups around ~10 / ~25-35 / ~45 dB within a 0–50 dB span)\n"
    );
}
