//! Chaos soak (beyond the paper) — survival/recovery sweep across
//! fault-plan intensities.
//!
//! Runs the standard LTE OutRAN experiment under `FaultPlan::chaos`
//! plans of increasing intensity (0 = fault-free baseline, 1 = hostile)
//! and prints one row per intensity: flow survival, drop/loss totals,
//! recovery-path activity, and the invariant-audit verdict. Any
//! recorded invariant violation fails the figure, so its `--check`
//! doubles as a robustness gate.

use super::*;
use outran_faults::FaultPlan;

const SECS: u64 = 8;
const USERS: usize = 12;
const SEED: u64 = 7;

pub(super) fn run(threads: usize, out: &mut String) {
    let mut t = Table::new(
        "Chaos soak: OutRAN under seeded fault plans (LTE, 12 UEs, load 0.5)",
        &[
            "intensity",
            "windows",
            "completed/offered",
            "survival%",
            "buf drops",
            "resid loss",
            "rlf",
            "reest",
            "detach",
            "evict",
            "wdog kicks",
            "violations",
        ],
    );
    // Each intensity is an independent seeded experiment: fan them out.
    let runs = parallel_map(threads, vec![0.0, 0.25, 0.5, 0.75, 1.0], |intensity| {
        let plan = FaultPlan::chaos(SEED, Dur::from_secs(SECS), USERS, intensity);
        let windows = plan.windows().len();
        let r = Experiment::lte_default()
            .scheduler(SchedulerKind::OutRan)
            .users(USERS)
            .load(0.5)
            .duration_secs(SECS)
            .seed(SEED)
            .faults(plan)
            .watchdog(Some(Dur::from_millis(750)))
            .max_flow_entries(Some(256))
            .run();
        (intensity, windows, r)
    });
    for (intensity, windows, r) in runs {
        // A violating table is never printed or recorded.
        assert!(
            r.total_violations == 0,
            "chaos_soak: intensity {intensity:.2}: {} invariant violation(s): {:?}",
            r.total_violations,
            r.violations
        );
        let survival = if r.offered == 0 {
            100.0
        } else {
            100.0 * r.completed as f64 / r.offered as f64
        };
        let s = &r.fault_stats;
        t.row(&[
            format!("{intensity:.2}"),
            windows.to_string(),
            format!("{}/{}", r.completed, r.offered),
            f1(survival),
            r.buffer_drops.to_string(),
            r.residual_losses.to_string(),
            s.rlf_events.to_string(),
            s.reestablishments.to_string(),
            s.detach_events.to_string(),
            s.flows_evicted.to_string(),
            s.watchdog_kicks.to_string(),
            r.total_violations.to_string(),
        ]);
    }
    *out += &t.render();
    *out += "\nall intensities clean: every run passed the invariant audit.\n";
}
