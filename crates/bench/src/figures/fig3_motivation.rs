//! Figure 3 — the motivation experiment: flow scheduling at the xNodeB.
//!
//! (a) With oracle SRJF flow scheduling, short-flow (<10 KB) average and
//!     tail FCT improve substantially over PF (paper: −35 % avg, −59 %
//!     p99).
//! (b) With a ×5 per-user buffer, PF's short FCT inflates (bufferbloat)
//!     while SRJF's stays low.

use super::*;

pub(super) fn run(threads: usize, out: &mut String) {
    let points = vec![
        (SchedulerKind::Srjf, "SRJF", "x1", 128usize),
        (SchedulerKind::Srjf, "SRJF", "x5", 640),
        (SchedulerKind::Pf, "PF", "x1", 128),
        (SchedulerKind::Pf, "PF", "x5", 640),
    ];
    let grid = run_grid(threads, points, &SEEDS, |&(kind, _, _, buffer), seed| {
        lte40(0.6, kind, seed).buffer_sdus(buffer).run()
    });
    let (srjf, pf) = (&grid[0].1, &grid[2].1);
    let short = |runs: &[ExperimentReport]| ExperimentReport::mean(runs, |r| r.fct.short_mean_ms);
    let p99 = |runs: &[ExperimentReport]| ExperimentReport::mean(runs, |r| r.fct.short_p99_ms);

    *out += "Figure 3(a): SRJF vs PF, short-flow FCT (normalized to PF)\n\n";
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
    for runs in [srjf, pf] {
        t.row(&[
            runs[0].scheduler.clone(),
            f2(short(runs) / short(pf)),
            f2(p99(runs) / p99(pf)),
            f2(short(runs)),
            f2(p99(runs)),
        ]);
    }
    *out += &t.render();
    *out += "paper: SRJF ≈ 0.65 avg / 0.41 p99 relative to PF\n\n";

    *out += "Figure 3(b): per-user buffer sensitivity (short FCT, normalized to PF x1)\n\n";
    let mut t2 = Table::new(
        "Fig 3(b) buffer scaling",
        &["scheduler", "buffer", "S avg (norm)", "S avg (ms)"],
    );
    for ((_, label, mult, _), runs) in &grid {
        t2.row(&[
            label.to_string(),
            mult.to_string(),
            f2(short(runs) / short(pf)),
            f2(short(runs)),
        ]);
    }
    *out += &t2.render();
    *out += "paper: PF short FCT grows dramatically at x5 while SRJF stays flat\n";
}
