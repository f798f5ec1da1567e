//! Ingress's live-flow index: the RTO and watchdog scans walk the ids
//! of the `started ∧ ¬done` flows instead of the whole flow table, so
//! the index has to *be* that set, in ascending id order, at every scan
//! — through watchdog kicks, handover aborts, run-time registrations,
//! out-of-order arrivals and checkpoint restore — and the work the
//! scans do must not depend on how much the run has scheduled.
//!
//! `Cell::check_live_index` compares the index with the flow table
//! (O(flows)); the scan itself carries an O(live) `debug_assert!` of the
//! same contract, so every other test in the workspace checks it too.

use std::sync::{Arc, Mutex};

use outran_faults::FaultPlan;
use outran_ran::cell::{Cell, CellConfig, RlcMode, SchedulerKind};
use outran_ran::checkpoint::{restore_cell, snapshot_cell, CheckpointMeta};
use outran_ran::stages::{StageObserver, TtiSummary};
use outran_ran::webplt::idle_heavy_arrivals;
use outran_ran::Experiment;
use outran_simcore::{Dur, Time};

/// Step `cell` densely to `to`, checking the index after every TTI.
/// Returns the largest open-flow count seen.
fn step_checked(cell: &mut Cell, to: Time) -> u64 {
    let mut max_open = 0;
    while cell.now() < to {
        cell.step();
        if let Err(e) = cell.check_live_index() {
            panic!("at {:?}: {e}", cell.now());
        }
        max_open = max_open.max(cell.open_flows());
    }
    max_open
}

fn small_cell(kind: SchedulerKind, seed: u64) -> Cell {
    let mut cfg = CellConfig::lte_default(4, kind, seed);
    cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(25);
    cfg.channel.n_subbands = 4;
    Cell::new(cfg)
}

/// PF + RLC AM + HARQ + residual loss under a chaos plan, with flows
/// open at 1.7 s (the shape of the benchmark's `chaos_cell`).
fn chaos_experiment() -> Experiment {
    const SECS: u64 = 4;
    Experiment::lte_default()
        .scheduler(SchedulerKind::Pf)
        .users(8)
        .load(0.6)
        .duration_secs(SECS)
        .seed(0xD1CE)
        .rlc_mode(RlcMode::Am)
        .harq(Some(outran_phy::harq::HarqConfig::default()))
        .residual_loss(0.02)
        .faults(FaultPlan::chaos(0xD1CE, Dur::from_secs(SECS), 8, 0.6))
        .watchdog(Some(Dur::from_millis(750)))
}

#[test]
fn index_tracks_open_flows_under_chaos_am_with_watchdog_kicks() {
    let mut cell = chaos_experiment().build_cell();
    step_checked(&mut cell, Time::from_secs(8));
    assert!(
        cell.fault_stats().watchdog_kicks > 0,
        "the watchdog never kicked — the scan's kick arm went untested"
    );
    assert!(cell.n_completed() > 0);
}

/// The calls the network barrier makes, made by hand so every TTI on
/// both sides can be checked: `abort_flow` on a started flow (a stale
/// index entry the next scan drops) and on a not-yet-started one (its
/// arrival must not open it), and continuation flows registered at run
/// time with ids above flows that have yet to arrive.
#[test]
fn index_survives_handover_detach_and_attach() {
    let mut src = small_cell(SchedulerKind::OutRan, 11);
    let mut dst = small_cell(SchedulerKind::OutRan, 12);
    // UE 1 at the source: one flow mid-transfer at the handover, one
    // that has not arrived yet. UE 0 keeps the source busy throughout.
    src.schedule_flow(Time::from_millis(10), 1, 3_000_000, None);
    src.schedule_flow(Time::from_millis(2_000), 1, 50_000, None);
    src.schedule_flow(Time::from_millis(20), 0, 1_000_000, None);
    src.schedule_flow(Time::from_millis(900), 0, 20_000, None);
    // The target has flows of its own still to arrive, so the
    // continuations (higher ids) open first.
    dst.schedule_flow(Time::from_millis(5), 0, 200_000, None);
    dst.schedule_flow(Time::from_millis(1_500), 3, 40_000, None);
    dst.schedule_flow(Time::from_millis(2_500), 3, 40_000, None);

    let barrier = Time::from_millis(500);
    step_checked(&mut src, barrier);
    step_checked(&mut dst, barrier);

    let export = src.handover_detach(1);
    assert_eq!(
        export.flows.iter().map(|f| f.src_flow).collect::<Vec<_>>(),
        [0, 1],
        "expected the started and the not-yet-started flow of UE 1"
    );
    assert!(export.flows[0].remaining < 3_000_000 && export.flows[1].remaining == 50_000);
    src.check_live_index().unwrap();
    let continued = dst.handover_attach(2, &export);
    assert_eq!(continued, [3, 4]);
    dst.check_live_index().unwrap();

    let end = Time::from_secs(8);
    step_checked(&mut src, end);
    let dst_open = step_checked(&mut dst, end);
    assert!(dst_open >= 2, "continuations never overlapped: {dst_open}");
    // Source: both UE 0 flows complete, both UE 1 flows stay aborted.
    assert_eq!((src.n_completed(), src.open_flows()), (4, 0));
    assert_eq!(src.take_completions().len(), 2);
    // Target: its own three flows and both continuations complete.
    assert_eq!((dst.n_completed(), dst.open_flows()), (5, 0));
    assert_eq!(dst.take_completions().len(), 5);
}

/// The same contract inside a coupled network, where the barrier makes
/// those calls itself. The cells are out of reach there, so the check
/// is the scan's own `debug_assert!`.
#[cfg(debug_assertions)]
#[test]
fn index_assertion_holds_across_network_handovers() {
    let mut net = outran_ran::Network::metro(
        outran_phy::Scenario::LtePedestrian,
        SchedulerKind::OutRan,
        0.25,
    );
    net.n_sites = 2;
    net.isd_m = 350.0;
    net.n_ues = 12;
    net.corridor_frac = 0.5;
    net.vehicle_speed_mps = 30.0;
    net.duration = Time::from_secs(5);
    net.seed = 33;
    let r = net.run().report;
    assert!(
        r.handover.successes > 0 && r.handover.flows_transferred > 0,
        "no flow crossed cells mid-transfer: {:?}",
        r.handover
    );
}

#[test]
fn ids_registered_out_of_arrival_order_are_inserted_in_id_order() {
    let mut cell = small_cell(SchedulerKind::OutRan, 5);
    // Id i arrives at (700 − 100·i) ms: every arrival but the first has
    // a lower id than the flows already open.
    for i in 0..6u64 {
        cell.schedule_flow(
            Time::from_millis(700 - 100 * i),
            (i % 4) as usize,
            600_000,
            None,
        );
    }
    let max_open = step_checked(&mut cell, Time::from_secs(10));
    assert!(
        max_open >= 3,
        "flows never overlapped ({max_open} open at most): the sorted insert went untested"
    );
    assert_eq!(cell.n_completed(), 6);
}

fn digest(cell: &Cell) -> u64 {
    let meta = CheckpointMeta {
        argv: vec!["digest".into()],
        sim_time: cell.now(),
        dense: true,
        n_cells: 1,
    };
    snapshot_cell(&meta, cell).digest()
}

/// The index never travels: a cell restored from a checkpoint taken
/// with flows open rebuilds it from the flow table and then runs
/// TTI-for-TTI like the cell that was never interrupted.
#[test]
fn index_is_rebuilt_on_restore_with_flows_open() {
    let at = Time::from_millis(1_700);
    let end = Time::from_secs(8);
    let mut straight = chaos_experiment().build_cell();
    step_checked(&mut straight, at);
    assert!(
        straight.open_flows() > 0,
        "no flow open at the checkpoint — the rebuild would be vacuous"
    );
    let meta = CheckpointMeta {
        argv: vec!["test".into()],
        sim_time: straight.now(),
        dense: true,
        n_cells: 1,
    };
    let file = snapshot_cell(&meta, &straight);

    let mut resumed = chaos_experiment().build_cell();
    restore_cell(&file, 0, &mut resumed).unwrap();
    resumed.check_live_index().unwrap();
    assert_eq!(resumed.open_flows(), straight.open_flows());

    step_checked(&mut straight, end);
    step_checked(&mut resumed, end);
    assert_eq!(digest(&resumed), digest(&straight));
    assert_eq!(resumed.n_completed(), straight.n_completed());
}

/// A 2-UE, 25-RB cell with `secs` of page loads scheduled up front.
fn soak_cell(secs: u64) -> Cell {
    let mut cfg = CellConfig::lte_default(2, SchedulerKind::OutRan, 42);
    cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(25);
    cfg.channel.n_subbands = 4;
    let mut cell = Cell::new(cfg);
    let horizon = Time::from_secs(secs);
    for (at, ue, bytes) in idle_heavy_arrivals(horizon, Dur::from_secs(300), 2, 42) {
        cell.schedule_flow(at, ue, bytes, None);
    }
    cell
}

/// A 2-UE browsing soak to `secs`, stopped at every whole second to
/// check the endpoint slab against the flow records. Returns
/// `(n_flows, n_completed, endpoint high water)`.
fn soak(secs: u64, dense: bool) -> (usize, usize, u64) {
    let mut cell = soak_cell(secs);
    for s in 1..=secs + 4 {
        if dense {
            cell.run_until_dense(Time::from_secs(s));
        } else {
            cell.run_until(Time::from_secs(s));
        }
        let live = cell.open_flows();
        assert!(live <= cell.work().flow_endpoints_high_water);
        if live > 0 || s % 300 == 0 {
            cell.check_live_index().unwrap();
        }
    }
    let high_water = cell.work().flow_endpoints_high_water;
    (cell.n_flows(), cell.n_completed(), high_water)
}

/// The memory a flow's TCP endpoints take follows the flows open at
/// once — here, the objects of one page — not the flows the run has
/// registered: three simulated hours of browsing register over a
/// thousand flows and never hold more endpoint pairs than one page has
/// objects. The high water is deterministic work: dense stepping reads
/// what event-driven stepping reads.
#[test]
fn endpoints_follow_open_flows_not_flows_scheduled() {
    let (n_flows, completed, high_water) = soak(3 * 3_600, false);
    assert!(
        n_flows >= 1_000 && completed == n_flows,
        "{completed} of {n_flows}"
    );
    // A page is a few dozen objects, 3 ms apart: 27 are open at once at
    // most, seven times the flows after 25 minutes raise that from 18.
    assert!(high_water < 32, "{high_water} endpoint pairs at once");
    let short = soak(1_500, false);
    assert!(short.0 * 7 < n_flows && short.2 >= 10, "{short:?}");
    assert_eq!(soak(1_500, true), short);
}

/// Memory read at one whole second: order-audit entries, far-heap
/// length and capacity, open flows, and the near store's high water and
/// capacity.
type Footprint = (usize, usize, usize, u64, usize, usize);

/// `cell`'s memory at `s` seconds, each part checked against its bound:
/// per-flow state follows the open flows, the far heap its pending
/// arrivals, the near store its high water, and no drained MLFQ level
/// holds a buffer.
fn footprint(cell: &Cell, s: u64) -> Footprint {
    let order = cell.auditor().order_entries();
    let open = cell.open_flows();
    let (len, cap) = cell.event_far_footprint();
    let (near, near_cap) = cell.event_near_footprint();
    assert!(
        order as u64 <= open,
        "at {s} s: {order} order entries, {open} open flows"
    );
    assert!(
        cap <= (4 * len).max(64),
        "at {s} s: far heap {len} in {cap}"
    );
    assert!(
        near_cap <= 2 * near,
        "at {s} s: near store {near} high water in {near_cap}"
    );
    let idle = cell.mlfq_idle_capacity();
    assert_eq!(idle, 0, "at {s} s: drained MLFQ levels hold {idle} slots");
    (order, len, cap, open, near, near_cap)
}

/// [`footprint`] at every whole second to `secs`.
fn footprints(mut cell: Cell, secs: u64, dense: bool) -> Vec<Footprint> {
    (1..=secs)
        .map(|s| {
            if dense {
                cell.run_until_dense(Time::from_secs(s));
            } else {
                cell.run_until(Time::from_secs(s));
            }
            footprint(&cell, s)
        })
        .collect()
}

/// A finished flow costs its record and nothing else: the order audit
/// holds history for open flows only, and the far event heap gives its
/// capacity back as the arrivals it holds fire. Capacity follows what
/// is live: the near event slots share one node store no larger than
/// twice the most events they held at once, which stops growing once
/// the busy cell is warm, and an MLFQ level that drains gives its
/// buffer back. Checked at every whole second of the
/// three-hour soak, of a busy 16-UE cell and of a small metro, whose
/// handovers flush the leaving UEs' queues. The cell readings are
/// deterministic work: dense stepping reads what event-driven stepping
/// reads (over the soak's first 1 500 s; the whole soak steps
/// event-driven only).
#[test]
fn memory_follows_open_flows() {
    const SOAK: u64 = 3 * 3_600;
    let soak = footprints(soak_cell(SOAK), SOAK + 4, false);
    let (first, last) = (soak[0], soak[soak.len() - 1]);
    assert!(first.1 > 1_000, "arrivals not on the heap: {first:?}");
    assert_eq!(
        (last.0, last.1, last.2, last.3),
        (0, 0, 0, 0),
        "a drained soak holds nothing"
    );
    // A page's events at most, not three hours' worth.
    assert!(last.4 <= 2 * first.4, "near store {first:?} → {last:?}");
    assert_eq!(footprints(soak_cell(SOAK), 1_500, true), soak[..1_500]);

    // A page is open for milliseconds, so the soak's whole seconds find
    // none open; a busy cell's find audited flows open at every one.
    let busy = || {
        Experiment::lte_default()
            .scheduler(SchedulerKind::OutRan)
            .users(16)
            .load(0.6)
            .duration_secs(5)
            .seed(42)
            .build_cell()
    };
    let run = footprints(busy(), 9, false);
    assert!(
        run[..5].iter().all(|r| r.0 > 0),
        "the order audit never ran: {run:?}"
    );
    assert_eq!(run[run.len() - 1].2, 0, "arrivals still held: {run:?}");
    assert!(
        run[2..].iter().all(|r| r.4 == run[2].4),
        "the near store still grows after warm-up: {run:?}"
    );
    assert_eq!(footprints(busy(), 9, true), run);

    let mut net = outran_ran::Network::metro(
        outran_phy::Scenario::LtePedestrian,
        SchedulerKind::OutRan,
        0.6,
    );
    net.duration = Time::from_secs(3);
    let mut seconds = 0;
    let r = net.run_inspected(&mut |t, cells| {
        seconds += 1;
        for (c, cell) in cells.iter().enumerate() {
            let at = t.as_nanos() / 1_000_000_000;
            let (order, .., near, _) = footprint(cell, at);
            assert!(near > 0 || order == 0, "cell {c} at {at} s: no near event");
        }
    });
    assert_eq!((net.n_sites, seconds), (7, 7));
    assert!(
        r.report.handover.flows_transferred > 0,
        "no handover flushed a queue: {:?}",
        r.report.handover
    );
}

/// Records every active TTI's summary (what the golden trace digests).
struct TraceLog(Arc<Mutex<Vec<u64>>>);

impl StageObserver for TraceLog {
    fn on_tti(&mut self, now: Time, s: &TtiSummary) {
        self.0.lock().unwrap().extend([
            now.0,
            s.used_rbs as u64,
            s.total_rbs as u64,
            s.delivered_bytes,
            s.completed_flows,
        ]);
    }
}

/// Horizon independence as a count: what the scans visit is decided by
/// the flows that are open, not by the flows the run has registered.
#[test]
fn scan_work_is_independent_of_flows_scheduled_beyond_the_horizon() {
    const SECS: u64 = 5;
    // (scan visits, TTI trace + completions, Σ_TTI open flows, completed flows)
    let run = |extra_flows: u64| {
        let mut cell = Experiment::lte_default()
            .scheduler(SchedulerKind::OutRan)
            .users(16)
            .load(0.6)
            .duration_secs(SECS)
            .seed(42)
            .build_cell();
        // Registered after the in-horizon flows, so those keep their ids.
        for i in 0..extra_flows {
            cell.schedule_flow(
                Time::from_secs(1_000) + Dur::from_millis(i),
                (i % 16) as usize,
                10_000,
                None,
            );
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        cell.set_stage_observer(Box::new(TraceLog(log.clone())));
        let mut open_sum = 0;
        while cell.now() < Time::from_secs(SECS) {
            cell.step();
            open_sum += cell.open_flows();
        }
        let mut trace = std::mem::take(&mut *log.lock().unwrap());
        for d in cell.take_completions() {
            trace.extend([
                d.id as u64,
                d.ue as u64,
                d.bytes,
                d.spawn.0,
                d.fct.as_nanos(),
            ]);
        }
        (
            cell.work().ingress_scan_visits,
            trace,
            open_sum,
            cell.n_completed() as u64,
        )
    };
    let (visits, trace, open_sum, completed) = run(0);
    // (`assert!`, not `assert_eq!`: a mismatch should not print 25 000 words.)
    assert!(
        run(100_000) == (visits, trace, open_sum, completed),
        "100 000 flows scheduled beyond the horizon changed the run or its scan work"
    );
    // No watchdog here, so only the RTO scan runs: one visit per open
    // flow per TTI. `open_sum` samples after delivery, which misses the
    // scan of a flow's final TTI; one more visit compacts its entry.
    assert!(completed > 100, "workload too light: {completed} flows");
    assert!(
        open_sum <= visits && visits <= open_sum + 2 * completed,
        "visits {visits} outside [{open_sum}, {open_sum} + 2·{completed}]"
    );
}
