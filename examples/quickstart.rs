//! Quickstart: compare OutRAN against the PF baseline on one LTE cell.
//!
//! Run with: `cargo run --release --example quickstart`

use outran::ran::{Experiment, SchedulerKind};

fn main() {
    println!("OutRAN quickstart: LTE pedestrian cell, load 0.8, 40 UEs\n");
    for kind in [
        SchedulerKind::Pf,
        SchedulerKind::Srjf,
        SchedulerKind::OutRan,
    ] {
        let r = Experiment::lte_default()
            .users(40)
            .load(0.8)
            .duration_secs(20)
            .scheduler(kind)
            .seed(11)
            .run();
        println!(
            "{:<10} flows={:<5} overall={:>7.1}ms S_avg={:>7.1}ms S_p95={:>8.1}ms M={:>7.1}ms L={:>8.1}ms SE={:.2} fair={:.3} drops={}",
            r.scheduler, r.fct.count, r.fct.overall_mean_ms, r.fct.short_mean_ms,
            r.fct.short_p95_ms, r.fct.medium_mean_ms, r.fct.long_mean_ms,
            r.spectral_efficiency, r.fairness, r.buffer_drops,
        );
    }
}
