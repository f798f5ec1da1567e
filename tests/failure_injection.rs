//! Failure injection: the simulator must stay sane — no panics, byte
//! conservation, eventual TCP recovery — under hostile conditions
//! (heavy residual loss, starved buffers, outage-grade channels).

use outran::faults::FaultPlan;
use outran::phy::numerology::RadioConfig;
use outran::ran::cell::{Cell, CellConfig, RlcMode, SchedulerKind};
use outran::simcore::{Dur, Time};

fn tiny_cell(mutator: impl FnOnce(&mut CellConfig)) -> Cell {
    let mut cfg = CellConfig::lte_default(4, SchedulerKind::OutRan, 99);
    cfg.channel.radio = RadioConfig::lte_rbs(25);
    cfg.channel.n_subbands = 4;
    mutator(&mut cfg);
    Cell::new(cfg)
}

#[test]
fn survives_heavy_residual_loss() {
    let mut cell = tiny_cell(|c| c.residual_loss = 0.15);
    for i in 0..8u64 {
        cell.schedule_flow(
            Time::from_millis(10 + i * 50),
            (i % 4) as usize,
            30_000,
            None,
        );
    }
    cell.run_until(Time::from_secs(30));
    // 15 % segment loss is brutal but TCP must still finish most flows.
    assert!(
        cell.n_completed() >= 6,
        "completed {}/8 under 15% loss",
        cell.n_completed()
    );
}

#[test]
fn survives_starved_buffer() {
    let mut cell = tiny_cell(|c| c.buffer_sdus = 4);
    for i in 0..6u64 {
        cell.schedule_flow(
            Time::from_millis(10 + i * 100),
            (i % 4) as usize,
            100_000,
            None,
        );
    }
    cell.run_until(Time::from_secs(40));
    assert!(cell.buffer_drops() > 0, "a 4-SDU buffer must drop");
    assert!(
        cell.n_completed() >= 5,
        "completed {}/6 with 4-SDU buffers",
        cell.n_completed()
    );
}

#[test]
fn survives_outage_grade_channel() {
    // Push every UE near the CQI floor: most TTIs carry nothing.
    let mut cell = tiny_cell(|c| {
        c.channel.tx_power_dbm = -2.0;
        c.channel.shadowing_sd_db = 8.0;
    });
    cell.schedule_flow(Time::from_millis(10), 0, 20_000, None);
    // Must not panic; completion is not guaranteed in outage.
    cell.run_until(Time::from_secs(10));
}

#[test]
fn survives_loss_plus_am_retransmission_storm() {
    let mut cell = tiny_cell(|c| {
        c.rlc_mode = RlcMode::Am;
        c.residual_loss = 0.10;
    });
    for i in 0..6u64 {
        cell.schedule_flow(
            Time::from_millis(10 + i * 80),
            (i % 4) as usize,
            50_000,
            None,
        );
    }
    cell.run_until(Time::from_secs(40));
    assert!(
        cell.n_completed() >= 5,
        "AM must recover: {}/6",
        cell.n_completed()
    );
}

#[test]
fn idle_cell_runs_forever_without_events() {
    let mut cell = tiny_cell(|_| {});
    cell.run_until(Time::from_secs(5));
    assert_eq!(cell.n_flows(), 0);
    assert_eq!(cell.metrics.total_bits(), 0.0);
}

#[test]
fn burst_of_simultaneous_flows() {
    // 200 flows landing in the same millisecond (incast at the CN).
    let mut cell = tiny_cell(|_| {});
    for i in 0..200u64 {
        cell.schedule_flow(Time::from_millis(10), (i % 4) as usize, 4_000, None);
    }
    cell.run_until(Time::from_secs(30));
    assert!(
        cell.n_completed() >= 190,
        "incast must mostly complete: {}",
        cell.n_completed()
    );
}

// ---- scripted fault plans -------------------------------------------------
//
// Each scenario runs a small cell under one FaultPlan, asserts the fault
// actually fired (via the fault counters), that TCP + the recovery paths
// brought every flow home well after `plan.last_end()`, and that a final
// invariant sweep (byte conservation, RB accounting, ordering, bounds)
// reports zero violations.

/// Run `cell` far past the fault plan's last window, then audit.
fn run_and_audit(cell: &mut Cell, plan_end: Time) -> u64 {
    let horizon = Time::from_secs(40).max(Time(plan_end.0 * 2));
    cell.run_until(horizon);
    cell.audit_now()
}

#[test]
fn recovers_from_cn_outage_mid_flow() {
    let plan = FaultPlan::new().cn_outage(Time::from_millis(150), Time::from_millis(600));
    let end = plan.last_end();
    let mut cell = tiny_cell(|c| {
        c.faults = plan;
        c.watchdog = Some(Dur::from_millis(500));
    });
    for i in 0..8u64 {
        cell.schedule_flow(
            Time::from_millis(10 + i * 30),
            (i % 4) as usize,
            30_000,
            None,
        );
    }
    let violations = run_and_audit(&mut cell, end);
    let s = cell.fault_stats();
    assert!(
        s.cn_dropped_pkts > 0,
        "outage window never dropped a packet"
    );
    assert_eq!(
        cell.n_completed(),
        8,
        "flows must finish after the CN outage lifts: {}/8",
        cell.n_completed()
    );
    assert_eq!(violations, 0, "violations: {:?}", cell.violations());
}

#[test]
fn recovers_from_cn_degradation_mid_flow() {
    let plan = FaultPlan::new().cn_degrade(
        Time::from_millis(150),
        Time::from_millis(600),
        Dur::from_millis(40),
        0.0,
    );
    let end = plan.last_end();
    let mut cell = tiny_cell(|c| c.faults = plan);
    for i in 0..8u64 {
        cell.schedule_flow(
            Time::from_millis(10 + i * 30),
            (i % 4) as usize,
            30_000,
            None,
        );
    }
    let violations = run_and_audit(&mut cell, end);
    let s = cell.fault_stats();
    assert!(
        s.cn_delayed_pkts > 0,
        "degrade window never delayed a packet"
    );
    assert_eq!(s.cn_dropped_pkts, 0, "a loss-free degrade dropped packets");
    assert_eq!(
        cell.n_completed(),
        8,
        "flows must finish through the degraded CN: {}/8",
        cell.n_completed()
    );
    assert_eq!(violations, 0, "violations: {:?}", cell.violations());
}

#[test]
fn survives_stale_and_corrupt_cqi() {
    let plan = FaultPlan::new()
        .cqi_freeze(Time::from_millis(100), Time::from_millis(900), None)
        .cqi_corrupt(Time::from_millis(900), Time::from_millis(1500), None);
    let end = plan.last_end();
    let mut cell = tiny_cell(|c| c.faults = plan);
    for i in 0..8u64 {
        cell.schedule_flow(
            Time::from_millis(10 + i * 40),
            (i % 4) as usize,
            25_000,
            None,
        );
    }
    let violations = run_and_audit(&mut cell, end);
    let s = cell.fault_stats();
    assert!(
        s.cqi_frozen_reports > 0,
        "freeze window never held a report"
    );
    assert!(s.cqi_corrupted_reports > 0, "corrupt window never fired");
    assert!(
        cell.n_completed() >= 7,
        "stale CQI must not strand flows: {}/8",
        cell.n_completed()
    );
    assert_eq!(violations, 0, "violations: {:?}", cell.violations());
}

#[test]
fn rlf_reestablishment_recovers_the_flow() {
    // UE 0 loses its radio link mid-transfer; RLC is re-established
    // (buffers flushed) and the TCP sender must refill them.
    let plan =
        FaultPlan::new().radio_link_failure(Time::from_millis(200), Dur::from_millis(400), 0);
    let end = plan.last_end();
    let mut cell = tiny_cell(|c| {
        c.faults = plan;
        c.watchdog = Some(Dur::from_millis(500));
    });
    cell.schedule_flow(Time::from_millis(10), 0, 60_000, None);
    cell.schedule_flow(Time::from_millis(10), 1, 60_000, None);
    let violations = run_and_audit(&mut cell, end);
    let s = cell.fault_stats();
    assert_eq!(s.rlf_events, 1);
    assert!(s.reestablishments >= 1, "RLF must re-establish RLC");
    assert_eq!(
        cell.n_completed(),
        2,
        "both flows must survive the RLF: {}/2",
        cell.n_completed()
    );
    assert_eq!(violations, 0, "violations: {:?}", cell.violations());
}

#[test]
fn detach_reattach_churn_recovers() {
    // UE 2 detaches twice; in-flight data is flushed, TCP retransmits
    // once the UE re-attaches.
    let plan = FaultPlan::new()
        .detach(Time::from_millis(200), Time::from_millis(500), 2)
        .detach(Time::from_millis(900), Time::from_millis(1200), 2);
    let end = plan.last_end();
    let mut cell = tiny_cell(|c| {
        c.faults = plan;
        c.watchdog = Some(Dur::from_millis(500));
    });
    for i in 0..4u64 {
        cell.schedule_flow(Time::from_millis(10), i as usize % 4, 40_000, None);
    }
    let violations = run_and_audit(&mut cell, end);
    let s = cell.fault_stats();
    assert_eq!(s.detach_events, 2);
    assert_eq!(s.reattach_events, 2);
    assert_eq!(
        cell.n_completed(),
        4,
        "detach churn must not strand flows: {}/4",
        cell.n_completed()
    );
    assert_eq!(violations, 0, "violations: {:?}", cell.violations());
}

#[test]
fn mid_run_buffer_shrink_sheds_and_recovers() {
    // The RLC buffer collapses to 2 SDUs mid-run: excess SDUs are shed
    // (accounted as drops), capacity returns when the window ends.
    let plan = FaultPlan::new().buffer_shrink(Time::from_millis(150), Time::from_millis(800), 2);
    let end = plan.last_end();
    let mut cell = tiny_cell(|c| {
        c.faults = plan;
        c.watchdog = Some(Dur::from_millis(500));
    });
    for i in 0..6u64 {
        cell.schedule_flow(
            Time::from_millis(10 + i * 20),
            (i % 4) as usize,
            50_000,
            None,
        );
    }
    let violations = run_and_audit(&mut cell, end);
    let s = cell.fault_stats();
    assert_eq!(s.buffer_shrink_events, 1);
    assert!(
        cell.n_completed() >= 5,
        "flows must finish once capacity returns: {}/6",
        cell.n_completed()
    );
    assert_eq!(violations, 0, "violations: {:?}", cell.violations());
}

#[test]
fn overload_evicts_flow_state_without_violations() {
    // Flow-table admission control under a flood of concurrent flows:
    // state is evicted (LRU), data delivery must be unaffected.
    let mut cell = tiny_cell(|c| c.max_flow_entries = Some(2));
    for i in 0..40u64 {
        cell.schedule_flow(Time::from_millis(10 + i), (i % 4) as usize, 4_000, None);
    }
    cell.run_until(Time::from_secs(30));
    let violations = cell.audit_now();
    let s = cell.fault_stats();
    assert!(s.flows_evicted > 0, "cap of 2 must evict under 40 flows");
    assert!(
        cell.n_completed() >= 38,
        "eviction loses marking state, not data: {}/40",
        cell.n_completed()
    );
    assert_eq!(violations, 0, "violations: {:?}", cell.violations());
}

#[test]
fn chaos_runs_are_bit_identical() {
    // Same seed + same plan ⇒ the same completions, byte for byte.
    let run = || {
        let plan = FaultPlan::chaos(42, Dur::from_secs(3), 4, 0.8);
        let end = plan.last_end();
        let mut cell = tiny_cell(|c| {
            c.faults = plan;
            c.watchdog = Some(Dur::from_millis(500));
        });
        for i in 0..12u64 {
            cell.schedule_flow(
                Time::from_millis(10 + i * 25),
                (i % 4) as usize,
                20_000,
                None,
            );
        }
        let violations = run_and_audit(&mut cell, end);
        assert_eq!(violations, 0, "violations: {:?}", cell.violations());
        let dones: Vec<(usize, usize, u64, u64, u64)> = cell
            .take_completions()
            .into_iter()
            .map(|d| (d.id, d.ue, d.bytes, d.spawn.0, d.fct.0))
            .collect();
        (dones, cell.fault_stats())
    };
    let (a_dones, a_stats) = run();
    let (b_dones, b_stats) = run();
    assert_eq!(a_dones, b_dones, "completions diverged across replays");
    assert_eq!(a_stats, b_stats, "fault counters diverged across replays");
}

#[test]
fn handover_state_transfer_during_cn_outage_conserves_bytes() {
    // §7-style check: a UE is handed over from cell A to cell B while a
    // CN outage is in force, through the path a network takes. The PDCP
    // flow state leaves the source and reaches the target whole, each
    // interrupted flow continues at the target with its undelivered tail,
    // both cells pass their invariant audits, and every flow completes at
    // one of the two cells.
    let outage = FaultPlan::new().cn_outage(Time::from_millis(100), Time::from_millis(900));
    let mut src = tiny_cell(|c| {
        c.faults = outage;
        c.watchdog = Some(Dur::from_millis(500));
    });
    let mut dst = tiny_cell(|_| {});

    for i in 0..6u64 {
        src.schedule_flow(
            Time::from_millis(10 + i * 10),
            (i % 4) as usize,
            30_000,
            None,
        );
    }
    // Run into the middle of the outage window, then hand UE 0 over.
    src.run_until(Time::from_millis(400));
    dst.run_until(Time::from_millis(400));
    let (src_state, dst_state) = (src.flow_state_bytes(), dst.flow_state_bytes());
    let export = src.handover_detach(0);
    assert!(
        !export.pdcp.is_empty() && !export.flows.is_empty(),
        "UE 0 must have live flow state mid-outage"
    );
    let continued = dst.handover_attach(0, &export);
    let moved = src_state - src.flow_state_bytes();
    assert!(moved > 0, "the source kept UE 0's flow state");
    assert_eq!(
        dst.flow_state_bytes() - dst_state,
        moved,
        "handover must carry the PDCP flow state exactly once"
    );
    assert_eq!(continued.len(), export.flows.len());

    // Both cells keep running past the outage and stay invariant-clean.
    src.run_until(Time::from_secs(40));
    dst.run_until(Time::from_secs(40));
    assert_eq!(src.audit_now(), 0, "src violations: {:?}", src.violations());
    assert_eq!(dst.audit_now(), 0, "dst violations: {:?}", dst.violations());
    let (src_done, dst_done) = (src.take_completions(), dst.take_completions());
    for (hf, id) in export.flows.iter().zip(&continued) {
        assert!(0 < hf.remaining && hf.remaining <= hf.size);
        assert!(
            dst_done
                .iter()
                .any(|d| d.id == *id && d.bytes == hf.remaining),
            "flow {} did not finish its {}-byte tail at the target",
            hf.src_flow,
            hf.remaining
        );
    }
    assert_eq!(
        src_done.len() + dst_done.len(),
        6,
        "every flow completes at one of the two cells"
    );
}
