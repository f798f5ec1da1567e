//! The parallel sweep engine must be a drop-in for the serial loop:
//! fanning independent experiments across worker threads changes wall
//! clock only, never a single byte of any report — including chaos runs
//! that replay a seeded fault plan.

use outran_faults::FaultPlan;
use outran_ran::{parallel_map, Experiment, ExperimentReport, SchedulerKind};
use outran_simcore::Dur;

const SECS: u64 = 3;

fn standard(seed: u64) -> Experiment {
    Experiment::lte_default()
        .users(6)
        .load(0.5)
        .duration_secs(SECS)
        .scheduler(SchedulerKind::OutRan)
        .seed(seed)
}

fn chaos(seed: u64) -> Experiment {
    standard(seed)
        .faults(FaultPlan::chaos(seed, Dur::from_secs(SECS), 6, 0.6))
        .watchdog(Some(Dur::from_millis(750)))
}

/// Debug output covers every public field of the report (FCT tables,
/// SE and fairness series, per-flow records, fault counters,
/// violations), so equal debug strings mean byte-identical results.
fn fingerprints(reports: &[ExperimentReport]) -> Vec<String> {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn parallel_standard_sweep_is_bit_identical_to_serial() {
    let seeds = [11u64, 23, 47, 101, 202, 303];
    let serial: Vec<ExperimentReport> = seeds.iter().map(|&s| standard(s).run()).collect();
    let parallel = parallel_map(4, seeds.to_vec(), |s| standard(s).run());
    assert_eq!(fingerprints(&serial), fingerprints(&parallel));
}

#[test]
fn parallel_chaos_sweep_replays_fault_plans_identically() {
    let seeds = [7u64, 13, 29, 31];
    let serial: Vec<ExperimentReport> = seeds.iter().map(|&s| chaos(s).run()).collect();
    let parallel = parallel_map(4, seeds.to_vec(), |s| chaos(s).run());
    let (sf, pf) = (fingerprints(&serial), fingerprints(&parallel));
    assert_eq!(sf, pf);
    // The chaos plans actually did something (otherwise this test would
    // only cover the fault-free path).
    assert!(
        serial.iter().any(|r| r.fault_stats.total_events() > 0),
        "chaos plans injected no faults — weaken nothing, fix the plan"
    );
}

#[test]
fn thread_count_does_not_change_results() {
    let seeds = [5u64, 6, 7, 8, 9];
    let one = parallel_map(1, seeds.to_vec(), |s| standard(s).run());
    let many = parallel_map(8, seeds.to_vec(), |s| standard(s).run());
    assert_eq!(fingerprints(&one), fingerprints(&many));
}
