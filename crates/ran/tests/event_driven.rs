//! The event-driven idle-skip stepper must be an *exact* replacement
//! for dense per-TTI stepping: same completion records (so the same
//! FCT distributions), same RNG draw sequence — only wall clock may
//! differ. These tests pin that equivalence (including under a chaos
//! fault plan and in AM mode with GBR bearers), the soundness of the
//! activity predicate, and that the idle-heavy workload really is
//! skipped (how much wall clock that saves is the benchmark's
//! `idle_soak` workload).

use outran_faults::FaultPlan;
use outran_ran::cell::{Cell, CellConfig, GbrBearer, SchedulerKind};
use outran_ran::experiment::DRAIN;
use outran_ran::webplt::idle_heavy_arrivals;
use outran_ran::{Experiment, RlcMode};
use outran_simcore::{Dur, Time};

fn small_cfg(kind: SchedulerKind, seed: u64, n_ues: usize) -> CellConfig {
    let mut cfg = CellConfig::lte_default(n_ues, kind, seed);
    cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(25);
    cfg.channel.n_subbands = 4;
    cfg
}

fn idle_heavy_cell(seed: u64) -> Cell {
    let mut cell = Cell::new(small_cfg(SchedulerKind::OutRan, seed, 2));
    // Five page loads spread over 25 simulated minutes: the active
    // bursts are a fraction of a percent of the TTIs, which is the
    // regime the tentpole targets (and what an idle overnight soak or a
    // think-time-dominated browsing session look like).
    let horizon = Time::from_secs(1500);
    for (at, ue, bytes) in idle_heavy_arrivals(horizon, Dur::from_secs(300), 2, seed) {
        cell.schedule_flow(at, ue, bytes, None);
    }
    cell
}

/// The acceptance bar: on the idle-heavy browsing workload the
/// event-driven loop produces a bit-identical completion log (every
/// record, hence every FCT statistic) and metrics while skipping over
/// 90 % of the idle TTIs dense stepping walks through.
#[test]
fn event_driven_is_bit_identical_and_skips_idle_heavy() {
    let end = Time::from_secs(1504);

    let mut dense = idle_heavy_cell(7);
    dense.run_until_dense(end);

    let mut event = idle_heavy_cell(7);
    event.run_until(end);

    // Exact equivalence, not statistical closeness.
    let dc = dense.take_completions();
    let ec = event.take_completions();
    assert!(dc.len() > 50, "workload too thin: {} completions", dc.len());
    assert_eq!(dc, ec, "completion records diverged");
    assert_eq!(
        dense.metrics.total_bits(),
        event.metrics.total_bits(),
        "delivered bits diverged"
    );
    assert_eq!(
        dense.metrics.spectral_efficiency(),
        event.metrics.spectral_efficiency()
    );
    assert_eq!(
        dense.now(),
        event.now(),
        "modes must end on the same grid point"
    );
    assert_eq!(dense.idle_ttis, event.idle_ttis, "idle accounting diverged");
    assert_eq!(dense.skipped_ttis, 0, "dense stepping never skips");
    assert!(
        event.skipped_ttis as f64 > 0.9 * event.idle_ttis as f64,
        "event-driven run skipped only {} of {} idle TTIs",
        event.skipped_ttis,
        event.idle_ttis
    );
}

/// Dense and event-driven stepping replay a seeded chaos fault plan to
/// byte-identical experiment reports (fault windows bound every skip,
/// so transitions land on exactly the same TTIs). The dense arm steps
/// the cell through the drain window itself; `run_cell` then finds the
/// clock at the end and only assembles the report.
#[test]
fn dense_and_event_driven_replay_chaos_identically() {
    for seed in [3u64, 9] {
        let base = Experiment::lte_default()
            .users(6)
            .load(0.4)
            .duration_secs(3)
            .scheduler(SchedulerKind::OutRan)
            .faults(FaultPlan::chaos(seed, Dur::from_secs(3), 6, 0.6))
            .watchdog(Some(Dur::from_millis(750)))
            .seed(seed);
        let event = base.clone().run();
        let mut cell = base.build_cell();
        cell.run_until_dense(base.duration + DRAIN);
        let dense = base.run_cell(cell);
        assert_eq!(
            format!("{event:?}"),
            format!("{dense:?}"),
            "seed {seed}: chaos replay diverged between stepping modes"
        );
    }
}

/// AM mode exercises the poll-retransmit timer (the reason a
/// non-quiescent AM entity pins dense ticks); GBR bearers generate work
/// out of quiet forever. Both must agree across stepping modes.
#[test]
fn dense_and_event_driven_agree_in_am_mode_with_gbr() {
    let build = || {
        let mut cfg = small_cfg(SchedulerKind::OutRan, 11, 4);
        cfg.rlc_mode = RlcMode::Am;
        let mut cell = Cell::new(cfg);
        cell.add_gbr_bearer(GbrBearer::volte(0));
        // Sparse flows with multi-second gaps: plenty of idle to skip.
        cell.schedule_flow(Time::from_millis(100), 1, 80_000, None);
        cell.schedule_flow(Time::from_secs(3), 2, 12_000, None);
        cell.schedule_flow(Time::from_secs(6), 3, 150_000, None);
        cell
    };
    let end = Time::from_secs(8);

    let mut dense = build();
    dense.run_until_dense(end);
    let mut event = build();
    event.run_until(end);

    let done = dense.take_completions();
    assert!(!done.is_empty(), "no flow completed");
    assert_eq!(
        done,
        event.take_completions(),
        "completion records diverged"
    );
    assert_eq!(dense.metrics.total_bits(), event.metrics.total_bits());
    assert_eq!(
        format!("{:?}", dense.gbr_latency),
        format!("{:?}", event.gbr_latency),
        "GBR delivery latencies diverged"
    );
    assert_eq!(dense.idle_ttis, event.idle_ttis);
}

/// Skip-soundness: `next_activity_time()` is never later than the
/// first TTI at which dense stepping actually does work. Runs the
/// dense loop and checks the predicate before every step; any
/// active step earlier than the predicted activity instant is a
/// bug that would make the event-driven loop skip real work.
#[test]
fn next_activity_time_is_never_late() {
    outran_simcore::check("next_activity_time_is_never_late", 10, |rng| {
        let seed = rng.below(512);
        let flows: Vec<(u64, u64)> = (0..1 + rng.index(7))
            .map(|_| (5 + rng.below(2995), 1_000 + rng.below(199_000)))
            .collect();
        let with_faults = rng.chance(0.5);
        let mut cfg = CellConfig::lte_default(3, SchedulerKind::Pf, seed);
        cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(15);
        cfg.channel.n_subbands = 4;
        let mut t_ms = 0u64;
        let horizon = {
            let total: u64 = flows.iter().map(|&(gap, _)| gap).sum();
            Dur::from_millis(total + 2_000)
        };
        if with_faults {
            cfg.faults = FaultPlan::chaos(seed, horizon, 3, 0.5);
        }
        let mut cell = Cell::new(cfg);
        for &(gap, bytes) in &flows {
            t_ms += gap;
            cell.schedule_flow(Time::from_millis(t_ms), (t_ms % 3) as usize, bytes, None);
        }
        let end = Time::ZERO + horizon;
        while cell.now() < end {
            let na = cell.next_activity_time();
            let idle_before = cell.idle_ttis;
            cell.step();
            if cell.idle_ttis == idle_before {
                // This step did work: it must not predate the predicted
                // next activity.
                assert!(
                    na <= cell.now(),
                    "dense stepping worked at {:?} but next_activity_time said {:?}",
                    cell.now(),
                    na
                );
            }
        }
    });
}
