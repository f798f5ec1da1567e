//! Explore 5G NR numerologies (Fig 17's RAN axis): how the slot length
//! changes RTT, queueing delay and short-flow tails, and what OutRAN
//! adds on top at each setting.
//!
//! Usage: cargo run --release --example nr_numerology [-- <load>]

use outran::ran::{Experiment, SchedulerKind};
use outran::simcore::Dur;

fn main() {
    let load: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.6);
    println!("NR 100 MHz, MEC server (5 ms), 40 UEs, load {load}\n");
    println!(
        "{:<4} {:>9} {:<8} {:>9} {:>10} {:>12}",
        "mu", "slot(us)", "sched", "RTT(ms)", "avgQ(ms)", "S p95(ms)"
    );
    for mu in 0u8..=3 {
        for kind in [SchedulerKind::Pf, SchedulerKind::OutRan] {
            let r = Experiment::nr_default(mu)
                .load(load)
                .duration_secs(6)
                .cn_delay(Dur::from_millis(5))
                .scheduler(kind)
                .seed(11)
                .run();
            println!(
                "{:<4} {:>9} {:<8} {:>9.1} {:>10.1} {:>12.1}",
                mu,
                1000 >> mu,
                r.scheduler,
                r.mean_rtt_ms,
                r.mean_qdelay_ms,
                r.fct.short_p95_ms
            );
        }
    }
    println!(
        "\npaper (Fig 17): shorter slots cut in-air latency, but under load the\n\
         gNodeB queue — not the slot length — dominates short-flow latency;\n\
         OutRAN removes that queueing component."
    );
}
