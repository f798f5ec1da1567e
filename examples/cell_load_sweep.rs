//! Sweep the offered cell load and print how each scheduler's short-flow
//! tail FCT responds — the headline comparison of the paper (Fig 15).
//!
//! Usage:
//!   cargo run --release --example cell_load_sweep [-- <users> <secs>]
//!
//! Fault-injection knobs (smoltcp-style), via env vars:
//!   OUTRAN_RESIDUAL_LOSS=0.01    post-HARQ segment loss probability
//!   OUTRAN_BUFFER_SDUS=64       per-UE RLC buffer capacity

use outran::ran::{Experiment, SchedulerKind};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let users: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
    let secs: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(10);
    let buffer: usize = std::env::var("OUTRAN_BUFFER_SDUS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    let residual_loss: f64 = std::env::var("OUTRAN_RESIDUAL_LOSS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.002);

    println!("{users} UEs, {secs}s horizon, buffer {buffer} SDUs, residual loss {residual_loss}\n");
    println!(
        "{:<6} {:<12} {:>9} {:>10} {:>10} {:>8} {:>9}",
        "load", "scheduler", "S avg", "S p95", "L avg", "SE", "fairness"
    );
    for load in [0.4, 0.6, 0.8] {
        for kind in [
            SchedulerKind::Pf,
            SchedulerKind::OutRan,
            SchedulerKind::Srjf,
        ] {
            let r = Experiment::lte_default()
                .users(users)
                .load(load)
                .duration_secs(secs)
                .buffer_sdus(buffer)
                .residual_loss(residual_loss)
                .scheduler(kind)
                .seed(7)
                .run();
            println!(
                "{:<6} {:<12} {:>8.1}ms {:>9.1}ms {:>9.1}ms {:>8.2} {:>9.3}",
                load,
                r.scheduler,
                r.fct.short_mean_ms,
                r.fct.short_p95_ms,
                r.fct.long_mean_ms,
                r.spectral_efficiency,
                r.fairness
            );
        }
        println!();
    }
}
