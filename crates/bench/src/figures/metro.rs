//! Metro deployment (beyond the paper, extending Fig 19's multi-cell
//! run) — per-scheduler FCT under handover churn on the two-ring
//! 19-site / 57-cell layout with 1200 mobile UEs, plus the
//! handover/ping-pong health table.
//!
//! Not a performance measurement (that is `benchmark/`, whose `metro`
//! workload times a smaller layout). Every column is simulated, so the
//! coupled network replays it byte-identically for any thread count and
//! on any machine; `report_fnv` pins each scheduler's entire report
//! (per-cell counts included) without spelling every field out.

use super::*;
use outran_phy::Scenario;
use outran_ran::{Network, NetworkReport};
use outran_simcore::{fnv1a, Time};

/// Two hex rings of 3-sector sites: the classic 57-cell metro layout.
const SITES: usize = 19;
const SECTORS: usize = 3;
/// Attach capacity per cell; 57 · 32 = 1824 slots at ~66% occupancy —
/// a full target cell blocks a handover, so the layout needs headroom
/// for churn to actually move UEs.
const SLOTS: usize = 32;
/// Mobile population (pedestrian walks + vehicular corridors).
const UES: usize = 1200;
/// Aggregate offered load versus nominal network capacity.
const LOAD: f64 = 0.6;
/// Arrival horizon (the run drains 4 extra seconds).
const SECS: u64 = 10;
const SEED: u64 = 42;

/// Run one deployment and return its report, or why it is not a
/// baseline: a watchdog abort, no executed handover (a churn table
/// without churn is vacuous) or an invariant violation.
fn checked_run(net: Network) -> Result<NetworkReport, String> {
    let run = net.run();
    let r = run.report;
    let why = if run.aborted_at.is_some() {
        "hit the watchdog".to_string()
    } else if r.handover.successes == 0 {
        "executed zero handovers — the churn table is vacuous".to_string()
    } else if r.total_violations > 0 {
        format!("has {} invariant violation(s)", r.total_violations)
    } else {
        return Ok(r);
    };
    Err(format!("metro: {} run {why}", r.scheduler))
}

/// The FCT and handover-health tables, one row per report.
fn render(rows: &[NetworkReport], out: &mut String) {
    let mut fct = Table::new(
        "metro FCT under handover churn (ms)",
        &[
            "scheduler",
            "overall",
            "S avg",
            "S p95",
            "M avg",
            "L avg",
            "done/offered",
        ],
    );
    let mut headers = vec!["scheduler"];
    headers.extend(rows[0].handover.rows().iter().map(|&(label, _)| label));
    headers.extend(["violations", "report_fnv"]);
    let mut health = Table::new("handover health", &headers);
    for r in rows {
        fct.row(&[
            r.scheduler.clone(),
            f3(r.fct.overall_mean_ms),
            f3(r.fct.short_mean_ms),
            f3(r.fct.short_p95_ms),
            f3(r.fct.medium_mean_ms),
            f3(r.fct.long_mean_ms),
            format!("{}/{}", r.completed, r.offered),
        ]);
        let mut cells = vec![r.scheduler.clone()];
        cells.extend(r.handover.rows().iter().map(|(_, v)| v.to_string()));
        cells.push(r.total_violations.to_string());
        cells.push(format!("{:016x}", fnv1a(format!("{r:?}").as_bytes())));
        health.row(&cells);
    }
    *out += &fct.render();
    *out += &health.render();
}

pub(super) fn run(threads: usize, out: &mut String) {
    use SchedulerKind::{Mt, OutRan, Pf, Rr, Srjf};
    let rows = [Pf, Rr, Mt, Srjf, OutRan].map(|kind| {
        let mut net = Network::metro(Scenario::LtePedestrian, kind, LOAD);
        net.n_sites = SITES;
        net.sectors_per_site = SECTORS;
        net.slots_per_cell = SLOTS;
        net.n_ues = UES;
        net.duration = Time::from_secs(SECS);
        net.seed = SEED;
        net.threads = threads;
        // A vacuous or violating table is never printed or recorded.
        checked_run(net).unwrap_or_else(|why| panic!("{why}"))
    });
    *out += &format!(
        "metro: {SITES} sites x {SECTORS} sectors = {} cells, {SLOTS} slots/cell, \
         {UES} UEs, load {LOAD}, {SECS} s, seed {SEED}\n",
        SITES * SECTORS
    );
    render(&rows, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CI's 6-cell smoke layout (`metro-smoke`), which hands over.
    fn smoke() -> Network {
        let mut net = Network::metro(Scenario::LtePedestrian, SchedulerKind::OutRan, 0.25);
        net.n_sites = 2;
        net.isd_m = 350.0;
        net.n_ues = 12;
        net.vehicle_speed_mps = 30.0;
        net.corridor_frac = 0.5;
        net.duration = Time::from_secs(5);
        net.seed = 7;
        net
    }

    #[test]
    fn a_run_that_hands_over_and_audits_clean_is_a_row() {
        let r = checked_run(smoke()).expect("the smoke layout hands over and audits clean");
        assert!(r.handover.successes > 0 && r.completed > 0, "{r:?}");
    }

    #[test]
    fn a_run_without_handovers_is_refused_as_vacuous() {
        let mut net = smoke();
        net.n_sites = 1;
        net.sectors_per_site = 1;
        net.slots_per_cell = 12;
        let why = checked_run(net).expect_err("one cell has no handover target");
        assert!(why.contains("vacuous"), "{why}");
    }
}
