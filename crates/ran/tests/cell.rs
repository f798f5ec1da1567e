//! Unit tests of the single-cell simulator, migrated out of the former
//! `cell.rs` monolith when it was decomposed into the staged pipeline.
//! They exercise the `Cell` orchestrator strictly through its public
//! API.

use outran_metrics::FctCollector;
use outran_ran::cell::GbrBearer;
use outran_ran::{Cell, CellConfig, Experiment, RlcMode, SchedulerKind};
use outran_simcore::{Dur, Time};

fn small_cfg(kind: SchedulerKind, seed: u64) -> CellConfig {
    let mut cfg = CellConfig::lte_default(4, kind, seed);
    // Keep unit tests fast: modest bandwidth.
    cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(25);
    cfg.channel.n_subbands = 4;
    cfg
}

#[test]
fn single_flow_completes() {
    let mut cell = Cell::new(small_cfg(SchedulerKind::Pf, 1));
    cell.schedule_flow(Time::from_millis(10), 0, 50_000, None);
    cell.run_until(Time::from_secs(5));
    let done = cell.take_completions();
    assert_eq!(
        done.len(),
        1,
        "flow must complete (drops={})",
        cell.buffer_drops()
    );
    let d = done[0];
    // Sanity: FCT at least two RTT-ish (CN delay both ways).
    assert_eq!(d.bytes, 50_000);
    assert!(d.fct >= Dur::from_millis(20), "fct={}", d.fct);
    assert!(d.fct <= Dur::from_secs(3), "fct={}", d.fct);
}

#[test]
fn many_flows_all_complete_all_schedulers() {
    for kind in [
        SchedulerKind::Pf,
        SchedulerKind::Mt,
        SchedulerKind::Rr,
        SchedulerKind::Srjf,
        SchedulerKind::Pss,
        SchedulerKind::Cqa,
        SchedulerKind::OutRan,
        SchedulerKind::StrictMlfq,
    ] {
        let mut cell = Cell::new(small_cfg(kind, 2));
        for i in 0..12 {
            let size = if i % 3 == 0 { 200_000 } else { 4_000 };
            cell.schedule_flow(Time::from_millis(5 + i * 40), (i % 4) as usize, size, None);
        }
        cell.run_until(Time::from_secs(12));
        assert_eq!(
            cell.n_completed(),
            12,
            "{}: only {}/{} flows completed",
            kind.name(),
            cell.n_completed(),
            12
        );
    }
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut cell = Cell::new(small_cfg(SchedulerKind::OutRan, 7));
        for i in 0..10 {
            cell.schedule_flow(
                Time::from_millis(10 + i * 30),
                (i % 4) as usize,
                20_000,
                None,
            );
        }
        cell.run_until(Time::from_secs(6));
        cell.take_completions()
    };
    assert_eq!(run(), run());
}

/// The MAC stores UE indices as `u16`: a cell with more slots than that
/// indexes is refused, not run with UE `i` scheduled as `i mod 65 536`.
#[test]
#[should_panic(expected = "UE slots")]
fn more_ue_slots_than_the_mac_indexes_are_refused() {
    let _ = Cell::new(CellConfig::lte_default(
        outran_ran::cell::MAX_UES + 1,
        SchedulerKind::Pf,
        1,
    ));
}

#[test]
fn outran_beats_pf_for_short_behind_long() {
    // One UE downloads a huge file; another UE's short flows must not
    // be starved. Compare mean short FCT OutRAN vs PF on the same
    // seed/arrivals. (Coarse single-seed check; the full comparison
    // lives in the integration tests and benches.)
    let run = |kind| {
        let mut cell = Cell::new(small_cfg(kind, 11));
        // Long flow to UE 0 keeps its buffer hot.
        cell.schedule_flow(Time::from_millis(5), 0, 3_000_000, None);
        // Short flows to the same UE 0, arriving behind the elephant.
        for i in 0..10u64 {
            cell.schedule_flow(Time::from_millis(300 + i * 300), 0, 5_000, None);
        }
        cell.run_until(Time::from_secs(8));
        let mut fct = FctCollector::new();
        for d in cell.take_completions() {
            fct.record(d.bytes, d.fct);
        }
        fct.report().short_mean_ms
    };
    let pf = run(SchedulerKind::Pf);
    let or = run(SchedulerKind::OutRan);
    assert!(
        or < pf,
        "OutRAN short FCT ({or:.1} ms) must beat PF ({pf:.1} ms)"
    );
}

#[test]
fn buffer_overflow_drops_and_recovers() {
    let mut cfg = small_cfg(SchedulerKind::Pf, 3);
    cfg.buffer_sdus = 8; // tiny buffer forces drops
    let mut cell = Cell::new(cfg);
    cell.schedule_flow(Time::from_millis(5), 0, 500_000, None);
    cell.run_until(Time::from_secs(20));
    assert!(cell.buffer_drops() > 0, "tiny buffer must drop");
    assert_eq!(cell.n_completed(), 1, "TCP must recover from drops");
}

#[test]
fn am_mode_completes_flows() {
    let mut cfg = small_cfg(SchedulerKind::OutRan, 4);
    cfg.rlc_mode = RlcMode::Am;
    cfg.residual_loss = 0.01; // exercise NACK recovery
    let mut cell = Cell::new(cfg);
    for i in 0..6 {
        cell.schedule_flow(
            Time::from_millis(10 + i * 50),
            (i % 4) as usize,
            30_000,
            None,
        );
    }
    cell.run_until(Time::from_secs(10));
    assert_eq!(cell.n_completed(), 6);
}

/// An AM PDU abandoned at maxRetxThreshold re-establishes its UE's RLC,
/// as radio link failure does, so the receiver stops waiting for that
/// SN and the UE's later flows still complete (they stalled for good
/// before: 566 of 686 completed).
#[test]
fn abandoned_am_pdu_reestablishes_the_ue() {
    let report = Experiment::lte_default()
        .scheduler(SchedulerKind::Pf)
        .rlc_mode(RlcMode::Am)
        .residual_loss(0.3)
        .users(2)
        .load(0.6)
        .duration_secs(8)
        .seed(1)
        .run();
    assert!(report.fault_stats.reestablishments > 0, "nothing abandoned");
    assert!(
        report.completed * 100 >= report.offered * 98,
        "{} of {} flows completed",
        report.completed,
        report.offered
    );
}

#[test]
fn qos_oracle_feeds_qos_schedulers() {
    let mut cell = Cell::new(small_cfg(SchedulerKind::Cqa, 5));
    cell.schedule_flow(Time::from_millis(5), 0, 5_000, None); // short => QoS
    cell.schedule_flow(Time::from_millis(5), 1, 500_000, None);
    cell.run_until(Time::from_secs(6));
    assert_eq!(cell.n_completed(), 2);
}

#[test]
fn metrics_populated() {
    let mut cell = Cell::new(small_cfg(SchedulerKind::Pf, 6));
    for i in 0..8 {
        cell.schedule_flow(
            Time::from_millis(10 + i * 20),
            (i % 4) as usize,
            50_000,
            None,
        );
    }
    cell.run_until(Time::from_secs(5));
    assert!(cell.metrics.spectral_efficiency() > 0.0);
    assert!(cell.metrics.mean_qdelay_ms() >= 0.0);
    assert!(!cell.take_completions().is_empty());
    assert!(cell.flow_state_bytes() > 0 || cell.flow_table_entries() == 0);
}

#[test]
fn shared_conn_aggregates_sent_bytes() {
    // Two flows on one QUIC connection: the second one inherits the
    // accumulated sent-bytes (the §4.2 limitation).
    let mut cell = Cell::new(small_cfg(SchedulerKind::OutRan, 8));
    cell.schedule_flow(Time::from_millis(5), 0, 150_000, Some(777));
    cell.schedule_flow(Time::from_millis(1500), 0, 5_000, Some(777));
    cell.run_until(Time::from_secs(8));
    assert_eq!(cell.n_completed(), 2);
    // The flow table saw one tuple with both flows' bytes.
    assert!(
        cell.flow_table_entries() <= 1,
        "entries={}",
        cell.flow_table_entries()
    );
}

#[test]
fn priority_reset_runs() {
    let mut cfg = small_cfg(SchedulerKind::OutRan, 9);
    cfg.outran.reset_period = Some(Dur::from_millis(500));
    let mut cell = Cell::new(cfg);
    cell.schedule_flow(Time::from_millis(5), 0, 100_000, None);
    cell.run_until(Time::from_secs(3));
    assert!(cell.priority_resets().unwrap() >= 4);
}

mod harq {
    use super::*;
    use outran_phy::harq::HarqConfig;

    fn harq_cfg(kind: SchedulerKind, seed: u64) -> CellConfig {
        let mut cfg = CellConfig::lte_default(4, kind, seed);
        cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(25);
        cfg.channel.n_subbands = 4;
        cfg.harq = Some(HarqConfig::default());
        cfg
    }

    #[test]
    fn explicit_harq_completes_flows() {
        // A TB that exhausts its HARQ attempts during a deep fade is a
        // whole-window burst loss for TCP, so some flows legitimately
        // take several RTO backoffs to finish — allow a long horizon.
        let mut cell = Cell::new(harq_cfg(SchedulerKind::OutRan, 31));
        for i in 0..8u64 {
            cell.schedule_flow(
                Time::from_millis(10 + i * 60),
                (i % 4) as usize,
                40_000,
                None,
            );
        }
        cell.run_until(Time::from_secs(40));
        assert_eq!(cell.n_completed(), 8);
        // The explicit path must actually exercise retransmissions.
        assert!(
            cell.harq_retx_served() > 0,
            "no HARQ retransmissions happened"
        );
    }

    #[test]
    fn explicit_harq_am_mode_completes() {
        let mut cfg = harq_cfg(SchedulerKind::Pf, 32);
        cfg.rlc_mode = RlcMode::Am;
        let mut cell = Cell::new(cfg);
        for i in 0..6u64 {
            cell.schedule_flow(
                Time::from_millis(10 + i * 80),
                (i % 4) as usize,
                30_000,
                None,
            );
        }
        cell.run_until(Time::from_secs(12));
        assert_eq!(cell.n_completed(), 6);
    }

    #[test]
    fn explicit_harq_is_deterministic() {
        let run = || {
            let mut cell = Cell::new(harq_cfg(SchedulerKind::OutRan, 33));
            for i in 0..6u64 {
                cell.schedule_flow(
                    Time::from_millis(10 + i * 50),
                    (i % 4) as usize,
                    20_000,
                    None,
                );
            }
            cell.run_until(Time::from_secs(8));
            cell.take_completions()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn harq_drops_surface_as_losses_under_deep_fade() {
        let mut cfg = harq_cfg(SchedulerKind::Pf, 34);
        // Weak combining + single attempt => frequent exhaustion.
        cfg.harq = Some(HarqConfig {
            max_tx: 1,
            combining_gain_db: 0.0,
            ..HarqConfig::default()
        });
        // Cap the SINR so the link sits at mid-CQI with a real error rate.
        cfg.channel.sinr_cap_db = 16.0;
        let mut cell = Cell::new(cfg);
        cell.schedule_flow(Time::from_millis(10), 0, 200_000, None);
        cell.run_until(Time::from_secs(30));
        assert!(
            cell.residual_losses() > 0,
            "max_tx=1 must surface losses to TCP"
        );
        // A ~30 % TB-loss link drives real TCP into deep RTO backoff;
        // completion is not guaranteed, but data must keep flowing and
        // the simulator must stay sane.
        assert!(
            cell.metrics.total_bits() > 100_000.0,
            "link must still deliver data"
        );
    }
}

mod gbr {
    use super::*;

    fn cell_with_volte(kind: SchedulerKind, seed: u64) -> Cell {
        let mut cfg = CellConfig::lte_default(4, kind, seed);
        cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(25);
        cfg.channel.n_subbands = 4;
        let mut cell = Cell::new(cfg);
        cell.add_gbr_bearer(GbrBearer::volte(0));
        cell
    }

    #[test]
    fn volte_latency_is_bounded_under_load() {
        // Table 1's point: the Conversational class rides a dedicated
        // GBR bearer and is isolated from best-effort congestion.
        for kind in [SchedulerKind::Pf, SchedulerKind::OutRan] {
            let mut cell = cell_with_volte(kind, 41);
            // Heavy best-effort elephants on every UE.
            for i in 0..8u64 {
                cell.schedule_flow(
                    Time::from_millis(5 + i * 20),
                    (i % 4) as usize,
                    1_000_000,
                    None,
                );
            }
            cell.run_until(Time::from_secs(10));
            let n = cell.gbr_latency.count();
            assert!(n > 400, "{}: VoLTE packets delivered = {n}", kind.name());
            let p99 = cell.gbr_latency.percentile(99.0);
            assert!(
                p99 <= 25.0,
                "{}: VoLTE p99 latency {p99} ms must stay near one packet interval",
                kind.name()
            );
        }
    }

    #[test]
    fn gbr_consumes_little_capacity() {
        // 14 kbps of VoLTE must not dent best-effort throughput.
        let tput = |with_gbr: bool| {
            let mut cfg = CellConfig::lte_default(2, SchedulerKind::Pf, 42);
            cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(25);
            cfg.channel.n_subbands = 4;
            let mut cell = Cell::new(cfg);
            if with_gbr {
                cell.add_gbr_bearer(GbrBearer::volte(0));
            }
            cell.schedule_flow(Time::from_millis(5), 1, 4_000_000, None);
            cell.run_until(Time::from_secs(6));
            cell.metrics.total_bits()
        };
        let without = tput(false);
        let with = tput(true);
        assert!(
            with > without * 0.93,
            "GBR carve-out too costly: {with:.0} vs {without:.0}"
        );
    }

    #[test]
    fn gbr_delivery_is_deterministic() {
        let run = || {
            let mut cell = cell_with_volte(SchedulerKind::OutRan, 43);
            cell.schedule_flow(Time::from_millis(5), 1, 200_000, None);
            cell.run_until(Time::from_secs(4));
            (cell.gbr_latency.count(), cell.n_completed())
        };
        assert_eq!(run(), run());
    }

    /// VoLTE on every UE beside saturating best-effort load: whatever
    /// the scheduler, no RB a GBR grant holds is granted again, and the
    /// run audits clean.
    #[test]
    fn every_scheduler_leaves_the_gbr_grants_alone() {
        use SchedulerKind::*;
        for kind in [
            Pf,
            Mt,
            Rr,
            Srjf,
            Pss,
            Cqa,
            OutRan,
            OutRanEps(0.5),
            OutRanOverMt(0.2),
            StrictMlfq,
        ] {
            let mut cell = cell_with_volte(kind, 44);
            for ue in 1..4 {
                cell.add_gbr_bearer(GbrBearer::volte(ue));
            }
            for ue in 0..4 {
                cell.schedule_flow(Time::from_millis(5 + ue as u64), ue, 5_000_000, None);
            }
            cell.run_until(Time::from_secs(3));
            cell.audit_now();
            assert_eq!(
                cell.total_violations(),
                0,
                "{}: first {:?}",
                kind.name(),
                cell.violations().first()
            );
            assert!(cell.gbr_latency.count() > 400, "{}", kind.name());
        }
    }
}
