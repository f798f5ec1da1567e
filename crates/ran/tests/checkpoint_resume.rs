//! Kill-mid-run + resume proof: a checkpoint taken at an arbitrary
//! mid-run TTI under an **active chaos fault plan**, restored into a
//! freshly built cell, must yield bit-identical final state (snapshot
//! digest) and an identical experiment report — in both stepping modes.
//!
//! This is the golden-digest guarantee the checkpoint layer promises:
//! crash + resume is indistinguishable from never having crashed.

use std::path::{Path, PathBuf};

use outran_faults::FaultPlan;
use outran_phy::Scenario;
use outran_ran::cell::{Cell, GbrBearer, SchedulerKind};
use outran_ran::checkpoint::{
    read_checkpoint, restore_cell, snapshot_cell, write_checkpoint, CheckpointMeta,
};
use outran_ran::{Experiment, Network};
use outran_simcore::snap::{fnv1a, SnapshotFile, SNAP_VERSION};
use outran_simcore::{Dur, Time};

const SECS: u64 = 4;
const SEED: u64 = 0xD1CE;

/// Wire-format pins (see `wire_format_is_pinned`), format v4.
///
/// The `_T0` pins hash each cell straight after construction, before
/// any TTI runs, so they see every field's position but no value a
/// running TTI produced; the running pins hash the same cells at
/// `t = 1 s`, fading-tap mantissas included. Every pin but `PIN_NETWORK`
/// hashes the raw bytes of a file the checkpoint writers streamed to
/// disk. The `METRO_*` pins are metro checkpoints, cell sections and
/// their taps included: a 1 s checkpoint, and the CI smoke shape
/// (2 sites × 3 sectors, 8 slots, 12 UEs, 30 m/s corridors) checkpointed
/// once a handover has landed in a slot that was empty until then,
/// without and with a chaos plan on every cell.
///
/// All seven were re-recorded **once**, when format v2 replaced the
/// eager per-flow layout of the ingress stage (a sender and a receiver
/// for every flow ever registered) with flow records plus the open
/// flows' endpoints. What they pinned before carries over: with the
/// ingress stage cut out of `Cell`'s snapshot layout on both trees (and
/// the header version made equal), 49e7801 and the v2 code produce the
/// same digest for each of the seven — every byte outside the flow
/// table, `CellChannel`'s lagging slots written as if caught up
/// included, is where and what it was:
///
/// | pin | v1 (recorded at) | both trees, ingress cut | v2 |
/// |---|---|---|---|
/// | `UM_OUTRAN_T0` | `0840468e53af8fcf` (ab80f83) | `302ed7702c823b8e` | below |
/// | `AM_PF_CHAOS_T0` | `e4886db50e3a0891` (ab80f83) | `a894fe393d663166` | |
/// | `UM_OUTRAN` | `bf19d3f4fe03f3e4` (`Normal::fill`) | `e3402c8b5b1c144a` | |
/// | `AM_PF_CHAOS` | `09ab4643e8d159df` (`Normal::fill`) | `914b7a43b9a8584e` | |
/// | `METRO_FILE` | `c70f58d8d3f25609` (fc7d677) | `862f5879135c4749` | |
/// | `METRO_CHURN_FILE` | `d525d368c93eec85` (fc7d677) | `51fa9deb46cec574` | |
/// | `METRO_CHURN_CHAOS_FILE` | `78803fdd6df676fe` (fc7d677) | `daa3f11ea74c7497` | |
///
/// The v1 whole-file pins were recorded at fc7d677, where every slot —
/// occupied or empty — was stepped on every active TTI, so a checkpoint
/// that holds the v2 bytes still wrote its empty slots exactly as
/// stepping them would have left them. A change that moves tap *values*
/// only re-records the `t = 1 s` pins and must leave the `_T0` pins
/// alone.
///
/// All seven were re-recorded once more for format v3, which writes
/// each fact once (DESIGN.md "Checkpoint format v3"). A copy of 338897a
/// with only the v3 layout edits applied — the removed state moved to
/// `rebuilt`, the channel's planes written as they are, a presence byte
/// before the OutRAN scheduler's PF core, the completed-flows ledger term
/// counted where the cell's FCT collector recorded, the header version
/// made equal — writes exactly these digests, so no state value moved:
///
/// | pin | v2 (338897a) | v3 |
/// |---|---|---|
/// | `UM_OUTRAN_T0` | `1c355738f300c6fe` | below |
/// | `AM_PF_CHAOS_T0` | `01e94c15afc20161` | |
/// | `UM_OUTRAN` | `10cbf638cf665d40` | |
/// | `AM_PF_CHAOS` | `3141817c996321d8` | |
/// | `METRO_FILE` | `91d8a150f6b9a40b` | |
/// | `METRO_CHURN_FILE` | `3ac6c1a31a97a2f8` | |
/// | `METRO_CHURN_CHAOS_FILE` | `08b6a3225030df3e` | |
///
/// The four pins of a checkpoint that holds a running OutRAN-over-UM
/// cell — where the invariant auditor checks delivery order — were
/// re-recorded once more when the order audit came to hold open flows
/// only (the layout did not move: `SNAP_VERSION` stayed 3, and the two
/// `_T0` pins held). A copy of the parent, 9e6cdc8, that drops the
/// history of every flow not open just before it writes a checkpoint
/// prints the new digests; the untouched parent prints the old ones:
///
/// | pin | 9e6cdc8 | 9e6cdc8, order history of open flows only |
/// |---|---|---|
/// | `UM_OUTRAN` | `ab885c48d4b8bc8c` | below |
/// | `METRO_FILE` | `94a162bdaaee9458` | |
/// | `METRO_CHURN_FILE` | `e7c55bf62f42a45a` | |
/// | `METRO_CHURN_CHAOS_FILE` | `0251dbe07819096f` | |
///
/// All seven were re-recorded once more for format v4, in which PF and
/// MT are configurations of the OutRAN scheduler type and take its
/// layout: a presence byte before PF's core, a `false` byte for MT, and
/// OutRAN's own layout unchanged. Every file's header says 4, so every
/// whole-file pin moves, `PIN_NETWORK` (a section, no header) does not.
/// A copy of 91e0766 with only those layout edits applied — a persisted
/// `true` before `PfScheduler`'s core, a persisted `false` in
/// `MtScheduler`, the header version 4 — writes exactly these digests;
/// the untouched 91e0766 writes the v3 column:
///
/// | pin | v3 (91e0766) | v4 |
/// |---|---|---|
/// | `UM_OUTRAN_T0` | `c106de32b88b6b05` | below |
/// | `AM_PF_CHAOS_T0` | `e37f6184b1d65d60` | |
/// | `UM_OUTRAN` | `f2605eddefba9fe7` | |
/// | `AM_PF_CHAOS` | `85b05c8ed7273121` | |
/// | `METRO_FILE` | `348b886cfbb0048b` | |
/// | `METRO_CHURN_FILE` | `9f1475946d9fd1ad` | |
/// | `METRO_CHURN_CHAOS_FILE` | `908357b8b9389ae2` | |
const PIN_UM_OUTRAN_T0: u64 = 0xb2d8_d252_139e_3c64;
const PIN_AM_PF_CHAOS_T0: u64 = 0x1f32_eab2_b0e4_dc2a;
const PIN_UM_OUTRAN: u64 = 0x0410_30a9_865e_7fde;
const PIN_AM_PF_CHAOS: u64 = 0x1397_ace0_7ead_76bb;
/// A 1 s metro checkpoint's `network` section (no taps, no flow table
/// in it). Recorded at 2575d6d; formats v2, v3 and v4 left it alone.
const PIN_NETWORK: u64 = 0x6489_136e_a3df_eade;
const PIN_METRO_FILE: u64 = 0x52f7_fedd_9482_2ae4;
const PIN_METRO_CHURN_FILE: u64 = 0x010f_de7c_8c0e_7640;
const PIN_METRO_CHURN_CHAOS_FILE: u64 = 0x90c8_47f6_0b23_5beb;

/// A chaos-active experiment, identical every call (one root seed).
fn experiment() -> Experiment {
    Experiment::lte_default()
        .scheduler(SchedulerKind::OutRan)
        .users(4)
        .load(0.5)
        .duration_secs(SECS)
        .seed(SEED)
        .faults(FaultPlan::chaos(SEED, Dur::from_secs(SECS), 4, 0.6))
        .watchdog(Some(Dur::from_millis(750)))
}

fn advance(cell: &mut Cell, dense: bool, to: Time) {
    if dense {
        cell.run_until_dense(to);
    } else {
        cell.run_until(to);
    }
}

/// Run `cell` through the drain window and fingerprint its final state.
fn final_digest(mut cell: Cell, dense: bool) -> (u64, usize) {
    // duration + drain, the same horizon `Experiment::run_cell` walks.
    advance(&mut cell, dense, Time::from_secs(SECS + 4));
    let meta = CheckpointMeta {
        argv: vec!["digest".into()],
        sim_time: cell.now(),
        dense,
        n_cells: 1,
    };
    (snapshot_cell(&meta, &cell).digest(), cell.n_completed())
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("outran-resume-{tag}-{}", std::process::id()))
}

fn kill_and_resume_case(dense: bool, ckpt_at: Time) {
    // Uninterrupted reference run.
    let (want_digest, want_done) = final_digest(experiment().build_cell(), dense);

    // "Crashing" run: advance to an arbitrary mid-run instant with
    // faults landing, persist a checkpoint, drop everything.
    let dir = tmp_dir(if dense { "dense" } else { "event" });
    let path = dir.join("mid.orsn");
    let taken_at;
    {
        let mut cell = experiment().build_cell();
        advance(&mut cell, dense, ckpt_at);
        taken_at = cell.now();
        let meta = CheckpointMeta {
            argv: vec!["test".into()],
            sim_time: taken_at,
            dense,
            n_cells: 1,
        };
        write_checkpoint(&path, &meta, &[&cell]).unwrap();
    }

    // "Restart": fresh cell from the same configuration, overlay the
    // checkpointed dynamic state, run out the horizon.
    let (meta, file) = read_checkpoint(&path).unwrap();
    assert_eq!(meta.sim_time, taken_at);
    assert_eq!(meta.dense, dense);
    let mut cell = experiment().build_cell();
    restore_cell(&file, 0, &mut cell).unwrap();
    assert_eq!(cell.now(), taken_at);
    let (got_digest, got_done) = final_digest(cell, dense);

    assert_eq!(
        got_digest, want_digest,
        "resumed run diverged from uninterrupted (dense={dense})"
    );
    assert_eq!(got_done, want_done);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_mid_run_and_resume_is_bit_identical_event_driven() {
    kill_and_resume_case(false, Time::from_millis(1700));
}

/// The payload-buffer pools are runtime machinery: a checkpoint never
/// serializes them, restore rebuilds them empty, and a resumed run
/// (re-warming its pools from scratch) stays bit-identical to the
/// uninterrupted one — pooled buffers cannot influence outcomes.
#[test]
fn pools_rebuild_empty_on_restore_and_run_stays_bit_identical() {
    // Explicit HARQ + elevated residual loss drives failed transport
    // blocks through the pooled HARQ-payload path.
    let exp = || {
        experiment()
            .harq(Some(outran_phy::harq::HarqConfig::default()))
            .residual_loss(0.05)
    };
    let (want_digest, want_done) = final_digest(exp().build_cell(), true);

    let dir = tmp_dir("pools");
    let path = dir.join("pools.orsn");
    {
        let mut cell = exp().build_cell();
        advance(&mut cell, true, Time::from_millis(2100));
        let warm = cell.pool_stats();
        assert!(
            warm.hits > 0 && warm.returns > 0,
            "warmup exercised no pooled path: {warm:?}"
        );
        let meta = CheckpointMeta {
            argv: vec!["test".into()],
            sim_time: cell.now(),
            dense: true,
            n_cells: 1,
        };
        write_checkpoint(&path, &meta, &[&cell]).unwrap();
    }

    let (_meta, file) = read_checkpoint(&path).unwrap();
    let mut cell = exp().build_cell();
    restore_cell(&file, 0, &mut cell).unwrap();
    let rebuilt = cell.pool_stats();
    assert_eq!(
        (
            rebuilt.hits,
            rebuilt.misses,
            rebuilt.returns,
            rebuilt.high_water
        ),
        (0, 0, 0, 0),
        "pools must restore empty (construct-then-overlay)"
    );
    assert_eq!(cell.pool_retained_bytes(), 0);

    let (got_digest, got_done) = final_digest(cell, true);
    assert_eq!(
        got_digest, want_digest,
        "re-warming pools after resume changed the run"
    );
    assert_eq!(got_done, want_done);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_mid_run_and_resume_is_bit_identical_dense() {
    kill_and_resume_case(true, Time::from_millis(2300));
}

/// The chunked checkpoint loop inside `Experiment::run_cell` must not
/// perturb results, and resuming from one of its periodic snapshots
/// must reproduce the uninterrupted report byte-for-byte.
#[test]
fn checkpointed_run_report_matches_plain_run() {
    let want = experiment().run();

    let dir = tmp_dir("rep");
    let got = experiment()
        .checkpoint_every(
            Dur::from_secs(1),
            dir.clone(),
            vec!["outran-sim".into(), "run".into()],
        )
        .run();
    assert_eq!(
        format!("{want:?}"),
        format!("{got:?}"),
        "periodic checkpointing changed the report"
    );

    // Resume from the 2 s snapshot and run to completion.
    let ckpt = dir.join("ckpt-2s.orsn");
    let (_meta, file) = read_checkpoint(&ckpt).expect("periodic checkpoint written");
    let e = experiment();
    let mut cell = e.build_cell();
    restore_cell(&file, 0, &mut cell).unwrap();
    let resumed = e.run_cell(cell);
    assert_eq!(
        format!("{want:?}"),
        format!("{resumed:?}"),
        "resume from periodic checkpoint diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a digest of the file `write_checkpoint` streams to disk for
/// `cell` as it stands.
fn cell_digest(cell: &Cell) -> u64 {
    let meta = CheckpointMeta {
        argv: vec!["pin".into()],
        sim_time: cell.now(),
        dense: false,
        n_cells: 1,
    };
    let dir = tmp_dir("pin-cell");
    let path = dir.join("cell.orsn");
    write_checkpoint(&path, &meta, &[cell]).unwrap();
    let digest = file_digest(&path);
    std::fs::remove_dir_all(&dir).ok();
    digest
}

/// FNV-1a digest of the raw bytes of the file at `path`.
fn file_digest(path: &Path) -> u64 {
    fnv1a(&std::fs::read(path).unwrap())
}

/// Wire-format pin: the exact bytes of three small deterministic
/// checkpoints. The ORSN format is not self-describing, so *any* moved,
/// added or dropped byte must come with a `SNAP_VERSION` bump — this is
/// the test that enforces that comment.
#[test]
fn wire_format_is_pinned() {
    const HINT: &str = "layout changed: bump `SNAP_VERSION` and re-record";
    assert_eq!(SNAP_VERSION, 4, "{HINT}");

    let mut um_outran = Experiment::lte_default()
        .scheduler(SchedulerKind::OutRan)
        .users(3)
        .load(0.5)
        .duration_secs(2)
        .seed(0x5EED)
        .build_cell();
    assert_eq!(cell_digest(&um_outran), PIN_UM_OUTRAN_T0, "{HINT}");
    um_outran.run_until(Time::from_secs(1));
    assert_eq!(cell_digest(&um_outran), PIN_UM_OUTRAN, "{HINT}");

    let mut am_pf_chaos = Experiment::lte_default()
        .scheduler(SchedulerKind::Pf)
        .users(3)
        .load(0.5)
        .duration_secs(2)
        .seed(0x5EED)
        .rlc_mode(outran_ran::cell::RlcMode::Am)
        .harq(Some(outran_phy::harq::HarqConfig::default()))
        .residual_loss(0.02)
        .faults(FaultPlan::chaos(0x5EED, Dur::from_secs(2), 3, 0.6))
        .watchdog(Some(Dur::from_millis(750)))
        .build_cell();
    am_pf_chaos.add_gbr_bearer(GbrBearer::volte(0));
    assert_eq!(cell_digest(&am_pf_chaos), PIN_AM_PF_CHAOS_T0, "{HINT}");
    am_pf_chaos.run_until(Time::from_secs(1));
    assert_eq!(cell_digest(&am_pf_chaos), PIN_AM_PF_CHAOS, "{HINT}");

    let dir = tmp_dir("pin-net");
    let mut net = Network::metro(Scenario::LtePedestrian, SchedulerKind::OutRan, 0.25);
    net.n_sites = 3;
    net.isd_m = 350.0;
    net.slots_per_cell = 4;
    net.n_ues = 9;
    net.corridor_frac = 0.5;
    net.vehicle_speed_mps = 30.0;
    net.duration = Time::from_secs(2);
    net.seed = 0x5EED;
    net.checkpoint_every = Some(Dur::from_secs(1));
    net.checkpoint_dir = Some(dir.clone());
    net.run();
    let path = dir.join("metro-ckpt-1s.orsn");
    let (_meta, file) = read_checkpoint(&path).unwrap();
    assert_eq!(
        fnv1a(file.section("network").unwrap()),
        PIN_NETWORK,
        "{HINT}"
    );
    assert_eq!(file_digest(&path), PIN_METRO_FILE, "{HINT}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The 6 s checkpoint of the CI smoke deployment (its first handovers
/// execute at the 4 s and 5 s barriers), optionally under a chaos plan
/// of `chaos` intensity on every cell, with the digest of its raw file.
fn churny_checkpoint(tag: &str, chaos: Option<f64>) -> (SnapshotFile, u64) {
    let dir = tmp_dir(tag);
    let mut net = Network::metro(Scenario::LtePedestrian, SchedulerKind::OutRan, 0.25);
    net.n_sites = 2;
    net.isd_m = 350.0;
    net.slots_per_cell = 8;
    net.n_ues = 12;
    net.corridor_frac = 0.5;
    net.vehicle_speed_mps = 30.0;
    net.duration = Time::from_secs(5);
    net.seed = 7;
    if let Some(x) = chaos {
        net.faults = FaultPlan::chaos(7, Dur::from_secs(5), 12, x);
    }
    net.checkpoint_every = Some(Dur::from_secs(6));
    net.checkpoint_dir = Some(dir.clone());
    net.run();
    let path = dir.join("metro-ckpt-6s.orsn");
    let (_meta, file) = read_checkpoint(&path).unwrap();
    let digest = file_digest(&path);
    std::fs::remove_dir_all(&dir).ok();
    (file, digest)
}

/// `HandoverStats::successes` of a network checkpoint: the stats are the
/// last field of the `network` section, six `u64`s, successes second.
fn handover_successes(file: &SnapshotFile) -> u64 {
    let net = file.section("network").unwrap();
    let at = net.len() - 5 * 8;
    u64::from_le_bytes(net[at..at + 8].try_into().unwrap())
}

/// Metro checkpoints taken under handover churn are pinned byte for
/// byte. With 12 UEs in 48 slots every handover lands in an empty slot,
/// so a checkpoint with a success on its books holds a cell whose
/// channel state was handed to a UE that did not own it from t = 0.
#[test]
fn metro_checkpoints_under_churn_are_pinned() {
    const HINT: &str = "a metro checkpoint's bytes moved";
    let (plain, digest) = churny_checkpoint("pin-churn", None);
    assert!(handover_successes(&plain) > 0, "no handover before 6 s");
    assert_eq!(digest, PIN_METRO_CHURN_FILE, "{HINT}");

    let (chaos, digest) = churny_checkpoint("pin-churn-chaos", Some(0.6));
    assert!(handover_successes(&chaos) > 0, "no handover before 6 s");
    assert_eq!(digest, PIN_METRO_CHURN_CHAOS_FILE, "{HINT} (chaos)");
}
