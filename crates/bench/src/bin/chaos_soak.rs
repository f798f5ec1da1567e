//! Chaos soak — survival/recovery sweep across fault-plan intensities.
//!
//! Runs the standard LTE OutRAN experiment under `FaultPlan::chaos`
//! plans of increasing intensity (0 = fault-free baseline, 1 = hostile)
//! and prints one row per intensity: flow survival, drop/loss totals,
//! recovery-path activity, and the invariant-audit verdict. The process
//! exits non-zero if any run records an invariant violation, so the
//! binary doubles as a robustness gate.
//!
//! ```console
//! cargo run --release -p outran-bench --bin chaos_soak
//! ```

use outran_faults::FaultPlan;
use outran_metrics::table::f1;
use outran_metrics::Table;
use outran_ran::{Experiment, SchedulerKind};
use outran_simcore::Dur;

const SECS: u64 = 8;
const USERS: usize = 12;
const SEED: u64 = 7;

fn main() {
    let intensities = [0.0, 0.25, 0.5, 0.75, 1.0];
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
    let mut total_violations = 0u64;
    let args: Vec<String> = std::env::args().collect();
    let threads =
        outran_bench::threads_from_args(&args).unwrap_or_else(outran_ran::default_threads);
    // Each intensity is an independent seeded experiment: fan them out.
    let runs = outran_ran::parallel_map(threads, intensities.to_vec(), |intensity| {
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
    for res in runs {
        let (intensity, windows, r) = match res {
            Ok(point) => point,
            Err(f) => {
                eprintln!("chaos_soak: {f} — failing");
                std::process::exit(1);
            }
        };
        let survival = if r.offered == 0 {
            100.0
        } else {
            100.0 * r.completed as f64 / r.offered as f64
        };
        total_violations += r.total_violations;
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
        for v in &r.violations {
            eprintln!("  [chaos_soak] intensity {intensity:.2}: violation: {v}");
        }
    }
    t.print();
    if total_violations > 0 {
        eprintln!("chaos_soak: {total_violations} invariant violation(s) — failing");
        std::process::exit(1);
    }
    println!("\nall intensities clean: every run passed the invariant audit.");
}
