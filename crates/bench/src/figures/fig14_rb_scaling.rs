//! Figure 14 — scalability with the number of Resource Blocks (25–100):
//! OutRAN's extra per-RB pass keeps the same O(|U|·|B|) complexity as the
//! MAC scheduler. Counted, not timed: per TTI, the metric rows (one per
//! UE, one entry per CQI subband) the scheduler recomputes and the UEs
//! with radio work it walks, next to the achieved throughput. Host
//! µs/TTI goes to stderr; the benchmark's `mac.allocate_*_us` arms time
//! the allocator.

use super::*;
use std::time::Instant;

use outran_phy::numerology::RadioConfig;
use outran_ran::cell::{Cell, CellConfig};
use outran_simcore::Time;

/// (Mbps, metric rows refreshed per TTI, active UEs per TTI).
fn run_cell(kind: SchedulerKind, rbs: u16) -> (f64, f64, f64) {
    let mut cfg = CellConfig::lte_default(16, kind, 5);
    cfg.channel.radio = RadioConfig::lte_rbs(rbs);
    let mut cell = Cell::new(cfg);
    // Saturate all UEs.
    for i in 0..64 {
        cell.schedule_flow(Time::from_millis((i % 20) as u64), i % 16, 2_000_000, None);
    }
    let horizon = Time::from_secs(4);
    #[expect(clippy::disallowed_methods, reason = "timing printed to stderr only")]
    let start = Instant::now();
    cell.run_until(horizon);
    let wall = start.elapsed().as_secs_f64();
    let n_ttis = horizon.as_secs_f64() / cell.tti().as_secs_f64();
    eprintln!(
        "  [fig14] {rbs} RBs {}: {:.2} us/TTI (host time)",
        kind.name(),
        wall * 1e6 / n_ttis
    );
    let w = cell.work();
    (
        cell.metrics.total_bits() / horizon.as_secs_f64() / 1e6,
        w.metric_rows_refreshed as f64 / n_ttis,
        w.active_ue_ttis as f64 / n_ttis,
    )
}

pub(super) fn run(_threads: usize, out: &mut String) {
    let mut t = Table::new(
        "Fig 14: throughput and counted scheduling work vs #RBs (16 UEs, saturated)",
        &[
            "# RBs",
            "PF Mbps",
            "OutRAN Mbps",
            "PF rows/TTI",
            "OutRAN rows/TTI",
            "PF UEs/TTI",
            "OutRAN UEs/TTI",
        ],
    );
    for rbs in [25u16, 50, 75, 100] {
        let (pf_mbps, pf_rows, pf_ues) = run_cell(SchedulerKind::Pf, rbs);
        let (or_mbps, or_rows, or_ues) = run_cell(SchedulerKind::OutRan, rbs);
        t.row(&[
            rbs.to_string(),
            f1(pf_mbps),
            f1(or_mbps),
            f2(pf_rows),
            f2(or_rows),
            f2(pf_ues),
            f2(or_ues),
        ]);
    }
    *out += &t.render();
    *out += "\npaper: negligible overhead at every RB count. Counted: under either\n\
         scheduler a TTI recomputes at most one metric row (an entry per CQI\n\
         subband, so at most |B|) per UE with radio work: rows/TTI <= UEs/TTI\n\
         <= 16 at every bandwidth, the same O(U*B) bound for OutRAN as for PF.\n";
}
