//! Figure 3 — the motivation experiment: flow scheduling at the xNodeB.
//!
//! (a) With oracle SRJF flow scheduling, short-flow (<10 KB) average and
//!     tail FCT improve substantially over PF (paper: −35 % avg, −59 %
//!     p99).
//! (b) With a ×5 per-user buffer, PF's short FCT inflates (bufferbloat)
//!     while SRJF's stays low.

use outran_bench::{run_avg, SEEDS};
use outran_metrics::table::f2;
use outran_metrics::Table;
use outran_ran::{Experiment, SchedulerKind};

fn exp(kind: SchedulerKind, buffer: usize) -> impl Fn(u64) -> Experiment {
    move |seed| {
        Experiment::lte_default()
            .srjf_mode(outran_mac::SrjfMode::WinnerOnly)
            .users(40)
            .load(0.6)
            .duration_secs(20)
            .scheduler(kind)
            .buffer_sdus(buffer)
            .seed(seed)
    }
}

fn main() {
    println!("Figure 3(a): SRJF vs PF, short-flow FCT (normalized to PF)\n");
    let pf = run_avg(exp(SchedulerKind::Pf, 128), &SEEDS);
    let srjf = run_avg(exp(SchedulerKind::Srjf, 128), &SEEDS);

    let mut t = Table::new(
        "Fig 3(a) normalized short FCT",
        &[
            "scheduler",
            "S avg (norm)",
            "S p99 (norm)",
            "S avg (ms)",
            "S p99 (ms)",
        ],
    );
    for r in [&srjf, &pf] {
        t.row(&[
            r.scheduler.clone(),
            f2(r.short_mean_ms / pf.short_mean_ms),
            f2(r.short_p99_ms / pf.short_p99_ms),
            f2(r.short_mean_ms),
            f2(r.short_p99_ms),
        ]);
    }
    t.print();
    println!("paper: SRJF ≈ 0.65 avg / 0.41 p99 relative to PF\n");

    println!("Figure 3(b): per-user buffer sensitivity (short FCT, normalized to PF x1)\n");
    let mut t2 = Table::new(
        "Fig 3(b) buffer scaling",
        &["scheduler", "buffer", "S avg (norm)", "S avg (ms)"],
    );
    for (kind, label) in [(SchedulerKind::Srjf, "SRJF"), (SchedulerKind::Pf, "PF")] {
        for (mult, cap) in [("x1", 128usize), ("x5", 640)] {
            let r = run_avg(exp(kind, cap), &SEEDS);
            t2.row(&[
                label.to_string(),
                mult.to_string(),
                f2(r.short_mean_ms / pf.short_mean_ms),
                f2(r.short_mean_ms),
            ]);
        }
    }
    t2.print();
    println!("paper: PF short FCT grows dramatically at x5 while SRJF stays flat");
}
