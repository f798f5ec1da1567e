//! Network-layer contracts: handover must not break determinism,
//! conservation or crash-safety.
//!
//! * Sharding the cells of one coupled run across worker threads changes
//!   wall clock only — the merged report is byte-identical to serial,
//!   *with handovers actually executing*.
//! * A seeded chaos `FaultPlan` replays identically while UEs cross
//!   cells (RLF + handover interleavings included).
//! * A flow interrupted mid-transfer conserves bytes: the continuation
//!   at the target cell is sized exactly at the undelivered tail, and
//!   the invariant auditors stay clean in every cell.
//! * A mid-run checkpoint restores bit-identically under handover churn.
//! * A wall-time watchdog abort leaves a checkpoint that resumes to the
//!   uninterrupted run's report.
//! * A digest-valid `network` section whose per-cell vectors or epoch
//!   disagree with the configuration or the cells, or a `cell.<i>`
//!   section from another instant, is refused, not indexed out of
//!   bounds, overflowed or run.
//! * The epoch barrier's work is counted, in closed form, and the same
//!   on any number of threads.

use outran_faults::FaultPlan;
use outran_phy::Scenario;
use outran_ran::network::Network;
use outran_ran::{Experiment, SchedulerKind};
use outran_simcore::snap::{SnapError, SnapKind, SnapWriter, SnapshotFile};
use outran_simcore::{Dur, Time};

const SECS: u64 = 5;

/// A small two-site, six-cell deployment with fast vehicular UEs — big
/// enough to hand over repeatedly, small enough for a unit test.
fn churny(seed: u64) -> Network {
    let mut net = Network::metro(Scenario::LtePedestrian, SchedulerKind::OutRan, 0.25);
    net.n_sites = 2;
    net.isd_m = 350.0;
    net.slots_per_cell = 8;
    net.n_ues = 12;
    net.corridor_frac = 0.5;
    net.vehicle_speed_mps = 30.0;
    net.duration = Time::from_secs(SECS);
    net.seed = seed;
    net
}

#[test]
fn threaded_network_is_bit_identical_to_serial_with_handover() {
    let serial = churny(7);
    let mut threaded = churny(7);
    threaded.threads = 4;
    let rs = serial.run().report;
    let rt = threaded.run().report;
    assert!(
        rs.handover.successes > 0,
        "no handovers executed — this test would only cover the uncoupled path: {:?}",
        rs.handover
    );
    assert_eq!(
        format!("{rs:?}"),
        format!("{rt:?}"),
        "sharded network run diverged from serial"
    );
}

#[test]
fn chaos_plan_replays_identically_across_handover() {
    let plan = FaultPlan::chaos(21, Dur::from_secs(SECS), 5, 0.6);
    let mut a = churny(21);
    a.faults = plan.clone();
    let mut b = churny(21);
    b.faults = plan;
    b.threads = 4;
    let ra = a.run().report;
    let rb = b.run().report;
    assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
    assert!(
        ra.fault_stats.total_events() > 0,
        "chaos plan injected nothing — fix the plan, not the assertion"
    );
    assert!(
        ra.handover.successes > 0,
        "chaos run executed no handovers: {:?}",
        ra.handover
    );
}

#[test]
fn bytes_are_conserved_across_mid_transfer_crossings() {
    let out = churny(33).run();
    let r = out.report;
    // Flows crossed cells mid-transfer (continuations were created) and
    // every cell's byte-ledger audit stayed clean — injected bytes are
    // accounted as delivered, dropped or in flight in *every* cell,
    // including the re-established source and the importing target.
    assert!(
        r.handover.flows_transferred > 0,
        "no mid-transfer crossing happened: {:?}",
        r.handover
    );
    assert_eq!(r.total_violations, 0, "conservation audit failed");
    // Origin attribution never duplicates a flow: each network flow
    // completes at most once.
    assert!(r.completed <= r.offered, "{} > {}", r.completed, r.offered);
}

#[test]
fn checkpoint_resume_is_bit_identical_under_churn() {
    let dir = std::env::temp_dir().join(format!("outran-net-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let baseline = churny(9).run();
    assert!(baseline.aborted_at.is_none());

    let mut ck = churny(9);
    ck.checkpoint_every = Some(Dur::from_secs(2));
    ck.checkpoint_dir = Some(dir.clone());
    let ck_run = ck.run();
    assert_eq!(
        format!("{:?}", baseline.report),
        format!("{:?}", ck_run.report),
        "checkpointing itself perturbed the run"
    );

    // Resume from the 2 s snapshot and compare the final report byte for
    // byte against the uninterrupted run.
    let path = dir.join("metro-ckpt-2s.orsn");
    let (_meta, file) = outran_ran::checkpoint::read_checkpoint(&path).unwrap();
    let resumed = churny(9).resume(&file).unwrap();
    assert_eq!(
        format!("{:?}", baseline.report),
        format!("{:?}", resumed.report),
        "resumed run diverged from the uninterrupted one"
    );
    assert!(
        resumed.report.handover.successes > 0,
        "resume path never exercised a handover"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watchdog_aborts_gracefully_with_resumable_checkpoint() {
    let dir = std::env::temp_dir().join(format!("outran-net-wd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut wedged = churny(9);
    // A zero wall limit trips after the very first epoch.
    wedged.epoch_wall_limit = Some(std::time::Duration::ZERO);
    wedged.checkpoint_dir = Some(dir.clone());
    let out = wedged.run();
    assert_eq!(out.aborted_at, Some(Time::from_secs(1)));
    let ckpt = out.checkpoint.expect("abort checkpoint should be written");
    assert_eq!(ckpt, dir.join("metro-abort-1s.orsn"));

    // The abort checkpoint is an ordinary network checkpoint: resuming
    // it without the watchdog finishes the run the abort cut short.
    let (meta, file) = outran_ran::checkpoint::read_checkpoint(&ckpt).unwrap();
    assert_eq!(meta.n_cells, 6);
    assert_eq!(meta.sim_time, Time::from_secs(1));
    let resumed = churny(9).resume(&file).unwrap();
    assert!(resumed.aborted_at.is_none());
    assert_eq!(
        format!("{:?}", churny(9).run().report),
        format!("{:?}", resumed.report),
        "run resumed from the abort checkpoint diverged from the uninterrupted one"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The fading work a network does follows its occupied slots, not its
/// provisioned ones — and counts the same on any number of threads.
#[test]
fn fading_draws_follow_occupied_slots() {
    let serial = churny(7).run();
    let mut threaded = churny(7);
    threaded.threads = 3;
    let w = serial.work;
    assert_eq!(w, threaded.run().work);
    assert!(serial.report.handover.successes > 0);

    // Every slot step, live or replayed, is one draw of 2·(8 + 1)
    // Gaussians; handovers into empty slots replayed some.
    let per_step = 2 * (8 + 1);
    assert!(w.replayed_slot_steps > 0, "{w:?}");
    assert_eq!(
        w.fading_draws,
        per_step * (w.live_slot_steps + w.replayed_slot_steps),
        "{w:?}"
    );
    // Handed-over flows hold endpoints at both ends in turn, never a
    // pair per flow registered.
    assert!(
        w.flow_endpoints_high_water > 0
            && w.flow_endpoints_high_water < serial.report.offered as u64,
        "{w:?} vs {} offered",
        serial.report.offered
    );
    // 12 UEs in 48 slots: most of what stepping every slot on every
    // active TTI would draw is never drawn.
    let eager = per_step * 8 * w.active_cell_ttis;
    assert!(w.fading_draws < eager / 2, "{w:?} vs {eager}");
    assert!(w.fading_draws >= per_step * 2 * w.active_cell_ttis, "{w:?}");
}

/// The barrier evaluates each (UE, cell) RSRP once and pushes each UE's
/// geometry once, whatever the handovers did; what it replays is part of
/// what the run replayed. (`fading_draws_follow_occupied_slots` holds the
/// whole of `WorkCounters` equal on one thread and three.)
#[test]
fn barrier_work_has_a_closed_form() {
    let mut net = churny(7);
    net.threads = 2;
    let run = net.run();
    let w = run.work;
    assert!(run.report.handover.successes > 0);
    let (barriers, n_ues, n_cells) = (SECS + 4, 12, 6);
    assert_eq!(w.barrier_rsrp_evals, barriers * n_ues * n_cells, "{w:?}");
    assert_eq!(w.barrier_geometry_pushes, barriers * n_ues, "{w:?}");
    assert!(w.barrier_replayed_slot_steps > 0, "{w:?}");
    assert!(
        w.barrier_replayed_slot_steps <= w.replayed_slot_steps,
        "{w:?}"
    );
}

/// The CQI-classification and metric-row counters are deterministic
/// work: the same on any number of threads and in both stepping modes,
/// every measured sub-band is counted once, and a scheduler recomputes
/// rows of active UEs only.
#[test]
fn classification_and_metric_row_counters_follow_the_work() {
    let w = churny(7).run().work;
    let mut threaded = churny(7);
    threaded.threads = 3;
    assert_eq!(w, threaded.run().work);
    // A report is measured one 8-sub-band row at a time; nearly all of
    // them without the host's `log10`.
    assert_eq!((w.cqi_fast + w.cqi_exact) % 8, 0, "{w:?}");
    assert!(w.cqi_fast > 1_000 * w.cqi_exact.max(1), "{w:?}");
    // Only an active UE's metric row is ever recomputed, and most
    // occupied slots are idle in most TTIs.
    assert!(w.metric_rows_refreshed > 0, "{w:?}");
    assert!(w.metric_rows_refreshed <= w.active_ue_ttis, "{w:?}");
    assert!(w.active_ue_ttis < 8 * w.active_cell_ttis / 2, "{w:?}");

    let run = |dense: bool| {
        let mut cell = Experiment::lte_default()
            .scheduler(SchedulerKind::OutRan)
            .users(6)
            .load(0.3)
            .duration_secs(3)
            .seed(11)
            .build_cell();
        if dense {
            cell.run_until_dense(Time::from_secs(4));
        } else {
            cell.run_until(Time::from_secs(4));
        }
        let w = cell.work();
        (
            cell.skipped_ttis,
            (w.cqi_fast, w.cqi_exact),
            w.active_ue_ttis,
            w.metric_rows_refreshed,
        )
    };
    let (skipped, cqi, active, rows) = run(false);
    assert!(skipped > 0, "no idle jump in the event-driven run");
    assert_eq!((0, cqi, active, rows), run(true));
    assert!(rows > 0 && rows <= active, "rows {rows} active {active}");
}

/// In a single cell nothing ever lags: every slot is stepped once per
/// channel advance, and a composed idle jump is one advance.
#[test]
fn single_cell_steps_every_slot_on_every_advance() {
    let mut cell = Experiment::lte_default()
        .scheduler(SchedulerKind::OutRan)
        .users(4)
        .load(0.2)
        .duration_secs(2)
        .seed(5)
        .build_cell();
    cell.run_until(Time::from_secs(3));
    assert!(cell.skipped_ttis > 0, "no idle jump in the run");
    let advances = cell.now().as_nanos() / cell.tti().as_nanos() - cell.idle_ttis;
    let w = cell.work();
    assert_eq!(
        (w.live_slot_steps, w.replayed_slot_steps),
        (4 * advances, 0)
    );
    assert_eq!(w.fading_draws, 4 * advances * 2 * (8 + 1));
}

/// The 2 s and 4 s checkpoints of `churny(9)`.
fn churny_checkpoints(tag: &str) -> [SnapshotFile; 2] {
    let dir = std::env::temp_dir().join(format!("outran-net-{tag}-{}", std::process::id()));
    let mut ck = churny(9);
    ck.checkpoint_every = Some(Dur::from_secs(2));
    ck.checkpoint_dir = Some(dir.clone());
    ck.run();
    let read = |secs: u64| {
        let path = dir.join(format!("metro-ckpt-{secs}s.orsn"));
        outran_ran::checkpoint::read_checkpoint(&path).unwrap().1
    };
    let files = [read(2), read(4)];
    std::fs::remove_dir_all(&dir).ok();
    files
}

/// `good` with section `name` replaced. Rebuilding the file recomputes
/// every FNV digest, so the only defence left is the layout's own
/// checks.
fn with_section(good: &SnapshotFile, name: &str, payload: &[u8]) -> SnapshotFile {
    let mut bad = SnapshotFile::new();
    for n in good.section_names() {
        let bytes = if n == name {
            payload
        } else {
            good.section(n).unwrap()
        };
        let mut w = SnapWriter::new();
        bytes.iter().for_each(|&b| w.u8(b));
        bad.add(n, w);
    }
    SnapshotFile::from_bytes(&bad.to_bytes()).expect("digests are valid")
}

#[test]
fn short_per_cell_vector_in_network_section_is_malformed_not_a_panic() {
    let [good, _] = churny_checkpoints("short");
    let net = good.section("network").unwrap();
    let trace = churny(9).network_section_trace(&good).unwrap();

    // Drop the last `loads` element (one per cell) and say so in the
    // length prefix.
    let n_cells = 6u64;
    let len = trace.get("loads", SnapKind::Len).unwrap();
    assert_eq!(len.value(net), n_cells);
    let last = trace.get("loads[5]", SnapKind::F64).unwrap();
    let mut short = len.with(net, n_cells - 1);
    short.drain(last.span.clone());
    let bad = with_section(&good, "network", &short);

    assert!(matches!(
        churny(9).resume(&bad),
        Err(SnapError::Malformed(_))
    ));
    assert!(churny(9).resume(&good).is_ok());
}

/// An epoch past the run's last multiplies into a wrapped clock, and
/// one inside the run that is not the cells' would inject the wrong
/// arrivals: each is refused.
#[test]
fn out_of_range_epoch_or_cursor_in_network_section_is_malformed() {
    let [good, _] = churny_checkpoints("clock");
    let net = good.section("network").unwrap();
    let trace = churny(9).network_section_trace(&good).unwrap();
    let epoch = trace.get("epoch", SnapKind::U64).unwrap();
    assert_eq!(epoch.value(net), 2);

    let last_epoch = SECS + 4;
    for value in [
        1,
        3,
        last_epoch,
        last_epoch + 1,
        u64::MAX / 1_000_000_000 + 1,
        u64::MAX,
    ] {
        let refused = churny(9).resume(&with_section(&good, "network", &epoch.with(net, value)));
        assert!(
            matches!(refused, Err(SnapError::Malformed(_))),
            "epoch {value}: {:?}",
            refused.map(|run| run.report.offered)
        );
    }
}

/// A `cell.<i>` section from another instant of the same run is refused:
/// its clock is not the network's epoch.
#[test]
fn cell_section_from_a_later_checkpoint_is_malformed() {
    let [good, later] = churny_checkpoints("splice");
    let spliced = with_section(&good, "cell.0", later.section("cell.0").unwrap());
    assert!(matches!(
        churny(9).resume(&spliced),
        Err(SnapError::Malformed(_))
    ));
}
