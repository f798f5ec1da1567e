//! Figure 14 — scalability with the number of Resource Blocks (25–100):
//! OutRAN's extra per-RB pass keeps the same O(|U|·|B|) complexity as the
//! MAC scheduler, so the per-TTI scheduling cost and achieved throughput
//! track the vanilla scheduler at every bandwidth.

use std::time::Instant;

use outran_metrics::table::{f1, f2};
use outran_metrics::Table;
use outran_phy::numerology::RadioConfig;
use outran_ran::cell::{Cell, CellConfig, SchedulerKind};
use outran_simcore::Time;

fn run_cell(kind: SchedulerKind, rbs: u16) -> (f64, f64) {
    let mut cfg = CellConfig::lte_default(16, kind, 5);
    cfg.channel.radio = RadioConfig::lte_rbs(rbs);
    let mut cell = Cell::new(cfg);
    // Saturate all UEs.
    for i in 0..64 {
        cell.schedule_flow(Time::from_millis((i % 20) as u64), i % 16, 2_000_000, None);
    }
    let horizon = Time::from_secs(4);
    let start = Instant::now();
    cell.run_until(horizon);
    let wall = start.elapsed().as_secs_f64();
    let n_ttis = horizon.as_secs_f64() / cell.tti().as_secs_f64();
    let us_per_tti = wall * 1e6 / n_ttis;
    let mbps = cell.metrics.total_bits() / horizon.as_secs_f64() / 1e6;
    (mbps, us_per_tti)
}

fn main() {
    let mut t = Table::new(
        "Fig 14: throughput and scheduling cost vs #RBs (16 UEs, saturated)",
        &[
            "# RBs",
            "PF Mbps",
            "OutRAN Mbps",
            "PF us/TTI",
            "OutRAN us/TTI",
            "cost ratio",
        ],
    );
    for rbs in [25u16, 50, 75, 100] {
        let (pf_mbps, pf_cost) = run_cell(SchedulerKind::Pf, rbs);
        let (or_mbps, or_cost) = run_cell(SchedulerKind::OutRan, rbs);
        t.row(&[
            rbs.to_string(),
            f1(pf_mbps),
            f1(or_mbps),
            f2(pf_cost),
            f2(or_cost),
            f2(or_cost / pf_cost),
        ]);
        eprintln!("  [fig14] {rbs} RBs done");
    }
    t.print();
    println!(
        "\npaper: negligible overhead at every RB count — the whole-simulator\n\
         cost here stays well under one TTI (1000 us) of wall time, and the\n\
         OutRAN/PF cost ratio stays ~constant (same O(U*B) complexity).\n\
         The benchmark's `mac.allocate_*_us` arms isolate the allocator itself."
    );
}
