//! Crash-safe checkpoint files for long-horizon runs.
//!
//! A checkpoint is a [`SnapshotFile`] (magic, format version, per-section
//! digests — see `outran_simcore::snap`) holding:
//!
//! * a `meta` section — the original CLI argv (so `resume` can rebuild
//!   the *identical* experiment configuration), the simulation instant
//!   of the snapshot, the stepping mode and the cell count;
//! * one `cell.<i>` section per cell — the full dynamic state captured
//!   by the cell's [`Snap`] layout.
//!
//! Restore is construct-then-overlay: rebuild each [`Cell`] from the run
//! configuration (construction draws the same RNG forks), then overlay
//! the checkpointed dynamic state with [`LoadSnap::load_snap`]. A resumed
//! run is bit-identical to an uninterrupted one — the golden-digest
//! tests in `crates/ran/tests/checkpoint_resume.rs` prove it in both
//! stepping modes with chaos faults active.
//!
//! Persistence streams and is atomic: [`write_checkpoint`] encodes the
//! sections straight into a temp sibling, one chunk at a time, then
//! fsyncs it and renames it into place, so a crash mid-write leaves
//! either the previous checkpoint or none — never a torn one.

use std::io::{self, Seek, Write};
use std::path::Path;

use outran_simcore::snap::{
    write_atomic_with, LoadSnap, Snap, SnapEncoder, SnapError, SnapReader, SnapshotFile, Unsnap,
};
use outran_simcore::{snap_fields, Time};

use crate::cell::Cell;

/// Everything `resume` needs to rebuild the run around the cell state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// The original process argv (program name included), replayed by
    /// `outran-sim resume` to reconstruct the experiment configuration.
    pub argv: Vec<String>,
    /// Simulation instant the snapshot was taken at (a whole-second
    /// epoch boundary).
    pub sim_time: Time,
    /// Whether the run stepped every TTI densely. Every runner steps
    /// event-driven and writes `false`; the field stays in the layout
    /// (both stepping modes restore from the same state anyway).
    pub dense: bool,
    /// Number of `cell.<i>` sections present.
    pub n_cells: usize,
}

snap_fields! { CheckpointMeta { argv, sim_time, dense, n_cells } }

/// Name of cell section `i`.
fn cell_section(i: usize) -> String {
    format!("cell.{i}")
}

/// Encode `meta` and the cells' dynamic state as a checkpoint's
/// sections: the one section list both the in-memory and the streamed
/// checkpoint are written from.
pub fn encode_cells<W: Write + Seek>(
    enc: &mut SnapEncoder<W>,
    meta: &CheckpointMeta,
    cells: &[&Cell],
) -> io::Result<()> {
    debug_assert_eq!(meta.n_cells, cells.len());
    enc.section("meta", |w| meta.snap(w))?;
    for (i, cell) in cells.iter().enumerate() {
        enc.section(&cell_section(i), |w| cell.snap(w))?;
    }
    Ok(())
}

/// Assemble a checkpoint from `meta` and the cells' dynamic state, in
/// memory.
pub fn snapshot_cells(meta: &CheckpointMeta, cells: &[&Cell]) -> SnapshotFile {
    let mut f = SnapshotFile::new();
    f.encode(|enc| encode_cells(enc, meta, cells));
    f
}

/// [`snapshot_cells`] for the common single-cell run.
pub fn snapshot_cell(meta: &CheckpointMeta, cell: &Cell) -> SnapshotFile {
    snapshot_cells(meta, &[cell])
}

/// Stream a checkpoint to `path` atomically (temp sibling, fsync,
/// rename): beside the cells, the write holds one chunk in memory.
pub fn write_checkpoint(
    path: &Path,
    meta: &CheckpointMeta,
    cells: &[&Cell],
) -> Result<(), SnapError> {
    write_atomic_with(path, |f| {
        encode_cells(&mut SnapEncoder::new(f)?, meta, cells)
    })
}

/// Read a checkpoint file and decode its `meta` section (sections are
/// digest-verified on read; corruption surfaces as
/// [`SnapError::DigestMismatch`], truncation as [`SnapError::Truncated`]).
pub fn read_checkpoint(path: &Path) -> Result<(CheckpointMeta, SnapshotFile), SnapError> {
    let file = SnapshotFile::read_file(path)?;
    let meta = read_meta(&file)?;
    Ok((meta, file))
}

/// Decode the `meta` section of an already-loaded checkpoint.
pub fn read_meta(file: &SnapshotFile) -> Result<CheckpointMeta, SnapError> {
    let mut r = SnapReader::new(file.section("meta")?);
    let meta = CheckpointMeta::unsnap(&mut r)?;
    if !r.is_exhausted() {
        return Err(SnapError::Malformed("trailing bytes in meta section"));
    }
    Ok(meta)
}

/// Overlay checkpointed state for cell `i` onto a cell freshly built
/// from the same configuration the snapshot was taken under.
pub fn restore_cell(file: &SnapshotFile, i: usize, cell: &mut Cell) -> Result<(), SnapError> {
    overlay_cell(file.section(&cell_section(i))?, cell)
}

/// Overlay one cell section's payload onto `cell`, all of it.
fn overlay_cell(payload: &[u8], cell: &mut Cell) -> Result<(), SnapError> {
    let mut r = SnapReader::new(payload);
    cell.load_snap(&mut r)?;
    if !r.is_exhausted() {
        return Err(SnapError::Malformed("trailing bytes in cell section"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellConfig, RlcMode, SchedulerKind};
    use outran_simcore::snap::{SnapField, SnapKind, SnapTrace, SnapWriter};
    use outran_simcore::Dur;
    use outran_transport::Segment;

    fn tiny_cell() -> Cell {
        let mut cell = Cell::new(CellConfig::lte_default(2, SchedulerKind::OutRan, 7));
        cell.schedule_flow(Time::from_millis(1), 0, 40_000, None);
        cell.schedule_flow(Time::from_millis(3), 1, 8_000, None);
        cell
    }

    /// [`tiny_cell`] plus two flows that keep transferring and one yet
    /// to arrive, stopped at 40 ms: the flow table holds two done, two
    /// open and a pending record, and queues and events are populated.
    fn mid_transfer_cell() -> (Cell, CheckpointMeta) {
        mid_transfer_cell_in(RlcMode::Um)
    }

    /// [`mid_transfer_cell`] in either RLC mode.
    fn mid_transfer_cell_in(rlc_mode: RlcMode) -> (Cell, CheckpointMeta) {
        let mut cell = mid_transfer_target_in(rlc_mode);
        cell.run_until(Time::from_millis(40));
        assert_eq!(
            (cell.n_flows(), cell.n_completed(), cell.open_flows()),
            (5, 2, 2),
            "want every flow state in the table"
        );
        let meta = meta_at(&cell);
        (cell, meta)
    }

    fn meta_at(cell: &Cell) -> CheckpointMeta {
        CheckpointMeta {
            argv: vec!["x".into()],
            sim_time: cell.now(),
            dense: false,
            n_cells: 1,
        }
    }

    fn mid_transfer_target() -> Cell {
        mid_transfer_target_in(RlcMode::Um)
    }

    /// [`tiny_cell`]'s flows plus the three of [`mid_transfer_cell`].
    fn mid_transfer_target_in(rlc_mode: RlcMode) -> Cell {
        let mut cfg = CellConfig::lte_default(2, SchedulerKind::OutRan, 7);
        cfg.rlc_mode = rlc_mode;
        let mut cell = Cell::new(cfg);
        for (ms, ue, bytes) in [
            (1, 0, 40_000),
            (3, 1, 8_000),
            (2, 1, 400_000),
            (900, 0, 8_000),
            (5, 0, 300_000),
        ] {
            cell.schedule_flow(Time::from_millis(ms), ue, bytes, None);
        }
        cell
    }

    /// `cell`'s section as [`snapshot_cell`] writes it, and its trace.
    fn traced(cell: &Cell) -> (Vec<u8>, SnapTrace) {
        let mut w = SnapWriter::tracing();
        cell.snap(&mut w);
        let (bytes, trace) = w.into_traced();
        let file = snapshot_cell(&meta_at(cell), cell);
        assert!(
            file.section("cell.0").unwrap() == bytes,
            "tracing moved a byte"
        );
        (bytes, trace)
    }

    /// The first primitive of `kind` at `path` in `trace`.
    fn field<'t>(trace: &'t SnapTrace, path: &str, kind: SnapKind) -> &'t SnapField {
        trace
            .get(path, kind)
            .unwrap_or_else(|| panic!("no {kind:?} at {path}"))
    }

    /// Overlay `hostile` onto a fresh [`mid_transfer_target_in`] cell,
    /// as a resume does; if it loads, the cell must run a simulated
    /// second with its live index sound.
    fn restore_and_run(hostile: &[u8], rlc_mode: RlcMode) -> Result<(), SnapError> {
        let mut target = mid_transfer_target_in(rlc_mode);
        overlay_cell(hostile, &mut target)?;
        target.check_live_index().unwrap();
        target.run_until(target.now() + Dur::from_secs(1));
        target.check_live_index().unwrap();
        Ok(())
    }

    /// [`restore_and_run`]: `false` if refused as malformed, `true` if it
    /// ran.
    fn loads_and_runs(hostile: &[u8], rlc_mode: RlcMode) -> bool {
        match restore_and_run(hostile, rlc_mode) {
            Ok(()) => true,
            Err(SnapError::Malformed(_)) => false,
            Err(e) => panic!("refused, but not as malformed: {e:?}"),
        }
    }

    #[test]
    fn meta_roundtrip() {
        let meta = CheckpointMeta {
            argv: vec![
                "outran-sim".into(),
                "run".into(),
                "--load".into(),
                "0.6".into(),
            ],
            sim_time: Time::from_secs(3),
            dense: false,
            n_cells: 1,
        };
        let mut w = SnapWriter::new();
        meta.snap(&mut w);
        let bytes = w.into_bytes();
        let back = CheckpointMeta::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn cell_snapshot_roundtrip_is_bit_identical() {
        let mut a = tiny_cell();
        a.run_until(Time::from_secs(1));
        let meta = CheckpointMeta {
            argv: vec!["test".into()],
            sim_time: a.now(),
            dense: false,
            n_cells: 1,
        };
        let file = snapshot_cell(&meta, &a);
        let bytes = file.to_bytes();
        let back = SnapshotFile::from_bytes(&bytes).unwrap();
        let mut b = tiny_cell();
        restore_cell(&back, 0, &mut b).unwrap();
        // Continue both sides and compare final state snapshots.
        a.run_until(Time::from_secs(6));
        b.run_until(Time::from_secs(6));
        let fa = snapshot_cell(&meta, &a);
        let fb = snapshot_cell(&meta, &b);
        assert_eq!(fa.digest(), fb.digest(), "diverged after restore");
        assert_eq!(a.n_completed(), b.n_completed());
    }

    /// A file written before the order audit forgot completed flows holds
    /// history for every flow it ever delivered. Restore keeps only the
    /// open flows' entries, so such a file resumes into the footprint a
    /// running cell keeps, and the cell runs on clean.
    #[test]
    fn restore_prunes_order_history_to_the_open_flows() {
        let (mut cell, meta) = mid_transfer_cell();
        let kept = cell.auditor().order_entries();
        assert!(kept > 0 && kept as u64 <= cell.open_flows(), "{kept}");
        // What the older auditor kept: the completed flows' entries —
        // plus one naming a flow past the table, and one an open flow
        // under the wrong UE.
        let now = cell.now();
        let done = cell.take_completions();
        assert_eq!(done.len(), 2);
        // Flow i goes to UE `UES[i]`, and flow 3 has not arrived.
        const UES: [usize; 5] = [0, 1, 1, 0, 0];
        let open = (0..5).find(|&fi| fi != 3 && done.iter().all(|d| d.id != fi));
        let open = open.expect("an open flow");
        let planted = done.iter().map(|d| (d.ue, d.id as u64));
        for (ue, flow) in planted.chain([(0, 12), (1 - UES[open], open as u64)]) {
            cell.hk_mut().observe_delivery(now, ue, flow, 1);
        }
        assert_eq!(cell.auditor().order_entries(), kept + 4);
        let file = snapshot_cell(&meta, &cell);

        let mut back = mid_transfer_target();
        restore_cell(&file, 0, &mut back).unwrap();
        assert_eq!(back.auditor().order_entries(), kept);
        back.run_until(back.now() + Dur::from_secs(1));
        back.check_live_index().unwrap();
        assert!(back.auditor().order_entries() as u64 <= back.open_flows());
        assert_eq!(back.audit_now(), 0, "{:?}", back.violations());
    }

    #[test]
    fn atomic_write_then_read_back() {
        let dir = std::env::temp_dir().join(format!("outran-ckpt-test-{}", std::process::id()));
        let path = dir.join("t.ckpt");
        let mut cell = tiny_cell();
        cell.run_until_dense(Time::from_millis(500));
        let meta = CheckpointMeta {
            argv: vec!["x".into()],
            sim_time: cell.now(),
            dense: true,
            n_cells: 1,
        };
        write_checkpoint(&path, &meta, &[&cell]).unwrap();
        let (back_meta, file) = read_checkpoint(&path).unwrap();
        assert_eq!(back_meta, meta);
        let mut fresh = tiny_cell();
        restore_cell(&file, 0, &mut fresh).unwrap();
        assert_eq!(fresh.now(), cell.now());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every strict prefix of a full cell section — UE contexts, flow
    /// records in every state, the open flows' TCP endpoints, the event
    /// queue, channel planes, collectors — must surface as an error from
    /// whichever layout runs out of bytes: never a panic, never a
    /// silently short restore.
    #[test]
    fn every_truncation_of_a_cell_section_is_an_error() {
        let (cell, meta) = mid_transfer_cell();
        let file = snapshot_cell(&meta, &cell);
        let section = file.section("cell.0").unwrap();
        let mut target = mid_transfer_target();
        for cut in 0..section.len() {
            let mut r = SnapReader::new(&section[..cut]);
            assert!(target.load_snap(&mut r).is_err(), "prefix of {cut} bytes");
        }
        let mut r = SnapReader::new(section);
        target.load_snap(&mut r).unwrap();
        assert!(r.is_exhausted());
    }

    /// The generic hostile mutator, over the UM and the AM mid-transfer
    /// cell sections: see [`mutate`].
    #[test]
    fn every_field_of_a_cell_section_is_refused_or_runs() {
        let mut panicked = Vec::new();
        for mode in [RlcMode::Um, RlcMode::Am] {
            let cell = mid_transfer_cell_in(mode).0;
            let (section, trace) = traced(&cell);
            let n_sb = cell.config().channel.n_subbands as u64;
            let spaces = [
                ("flows", cell.n_flows() as u64),
                ("ues", 2),
                ("subbands", n_sb),
            ];
            let restore = |hostile: &[u8]| restore_and_run(hostile, mode);
            panicked.extend(mutate(
                &format!("{mode:?}"),
                &section,
                &trace,
                &spaces,
                restore,
            ));
        }
        assert!(panicked.is_empty(), "{panicked:#?}");
    }

    /// The cell of the `AM_PF_CHAOS` checkpoint pin: PF, RLC AM, explicit
    /// HARQ, residual loss, a chaos fault plan and a GBR bearer.
    fn am_chaos_cell() -> Cell {
        let mut cell = crate::Experiment::lte_default()
            .scheduler(SchedulerKind::Pf)
            .users(3)
            .load(0.5)
            .duration_secs(2)
            .seed(0x5EED)
            .rlc_mode(RlcMode::Am)
            .harq(Some(outran_phy::harq::HarqConfig::default()))
            .residual_loss(0.02)
            .faults(outran_faults::FaultPlan::chaos(
                0x5EED,
                Dur::from_secs(2),
                3,
                0.6,
            ))
            .watchdog(Some(Dur::from_millis(750)))
            .build_cell();
        cell.add_gbr_bearer(crate::config::GbrBearer::volte(0));
        cell
    }

    /// [`mutate`] over the AM + chaos cell's section at 1 s, each case
    /// restored into a fresh such cell and run a simulated second.
    /// Release only (≈ 54 s in debug on two cores, ≈ 5 s in release): the
    /// durability CI job runs it.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release only: the durability CI job runs it"
    )]
    fn every_field_of_an_am_chaos_section_is_refused_or_runs() {
        let mut cell = am_chaos_cell();
        cell.run_until(Time::from_secs(1));
        let (section, trace) = traced(&cell);
        let n_sb = cell.config().channel.n_subbands as u64;
        let spaces = [
            ("flows", cell.n_flows() as u64),
            ("ues", 3),
            ("subbands", n_sb),
        ];
        let restore = |hostile: &[u8]| {
            let mut target = am_chaos_cell();
            overlay_cell(hostile, &mut target)?;
            target.run_until(target.now() + Dur::from_secs(1));
            target.check_live_index().unwrap();
            Ok(())
        };
        let panicked = mutate("AM chaos", &section, &trace, &spaces, restore);
        assert!(panicked.is_empty(), "{panicked:#?}");
    }

    /// [`mutate`] over a metro checkpoint's `network` section: 6 cells
    /// of 8 slots on 2 sites, 12 UEs half of them vehicular, checkpointed
    /// after handovers; each case resumes the run to its end. Release
    /// only (≈ 10 s in debug on two cores, which takes the debug
    /// `outran-ran` lib tests past 30 s): the durability CI job runs it.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release only: the durability CI job runs it"
    )]
    fn every_field_of_a_network_section_is_refused_or_runs() {
        use crate::network::Network;
        use outran_phy::Scenario;
        let net = || {
            let mut net = Network::metro(Scenario::LtePedestrian, SchedulerKind::OutRan, 0.25);
            (net.n_sites, net.isd_m, net.slots_per_cell, net.n_ues) = (2, 350.0, 8, 12);
            (net.corridor_frac, net.vehicle_speed_mps) = (0.5, 30.0);
            (net.duration, net.seed) = (Time::from_secs(1), 9);
            net
        };
        let dir = std::env::temp_dir().join(format!("outran-net-mut-{}", std::process::id()));
        let mut ck = net();
        (ck.checkpoint_every, ck.checkpoint_dir) = (Some(Dur::from_secs(4)), Some(dir.clone()));
        assert!(
            ck.run().report.handover.successes > 0,
            "no handover to mutate"
        );
        let (_, good) = read_checkpoint(&dir.join("metro-ckpt-4s.orsn")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let section = good.section("network").unwrap().to_vec();
        let trace = net().network_section_trace(&good).unwrap();
        let spaces = [("cells", 6), ("slots", 8), ("sites", 2)];
        let restore = |hostile: &[u8]| {
            let mut file = SnapshotFile::new();
            for name in good.section_names() {
                let payload = if name == "network" {
                    hostile
                } else {
                    good.section(name)?
                };
                file.encode(|enc| enc.section(name, |w| payload.iter().for_each(|&b| w.u8(b))));
            }
            net().resume(&file).map(|_| ())
        };
        let panicked = mutate("network", &section, &trace, &spaces, restore);
        assert!(panicked.is_empty(), "{panicked:#?}");
    }

    /// The generic hostile mutator. Over the [`sampled`] fields of
    /// `section` it writes each field's [`hostile_values`]: its kind's,
    /// and its declared domain's edges ([`domain_edges`], with the size
    /// of each id space in `spaces`). Each case must be refused with a
    /// `SnapError`, or `restore` it (which runs what loads); a panic (a
    /// debug build's overflow checks included) is returned as a line
    /// naming the case, and counts are printed. The cases are spread
    /// over up to four threads.
    fn mutate(
        name: &str,
        section: &[u8],
        trace: &SnapTrace,
        spaces: &[(&str, u64)],
        restore: impl Fn(&[u8]) -> Result<(), SnapError> + Sync,
    ) -> Vec<String> {
        let fields = sampled(trace, section);
        let cases: Vec<(&SnapField, u64)> = fields
            .iter()
            .flat_map(|&f| {
                hostile_values(f, section, trace, spaces)
                    .into_iter()
                    .map(move |v| (f, v))
            })
            .collect();
        let run = |&(f, value): &(&SnapField, u64)| {
            let hostile = f.with(section, value);
            let run = || restore(&hostile);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                Ok(result) => Ok(result.is_ok()),
                Err(e) => Err(format!(
                    "{name} {} {:?} = {value:#x}: {}",
                    f.path,
                    f.kind,
                    panic_message(&*e)
                )),
            }
        };
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        let (all, run) = (&cases, &run);
        let outcomes: Vec<Result<bool, String>> = std::thread::scope(|s| {
            let share = |t| {
                move || {
                    all.iter()
                        .skip(t)
                        .step_by(threads)
                        .map(run)
                        .collect::<Vec<_>>()
                }
            };
            let workers: Vec<_> = (0..threads).map(|t| s.spawn(share(t))).collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let ran = outcomes.iter().filter(|o| matches!(o, Ok(true))).count();
        let refused = outcomes.iter().filter(|o| matches!(o, Ok(false))).count();
        let panicked: Vec<String> = outcomes.into_iter().filter_map(Result::err).collect();
        eprintln!(
            "{name}: {} fields, {} cases: {refused} refused, {ran} ran, {} panicked",
            fields.len(),
            cases.len(),
            panicked.len(),
        );
        assert!(
            refused > 0 && ran > 0,
            "{name}: {refused} refused, {ran} ran"
        );
        panicked
    }

    /// The mutator's three panic classes, one field each: a flow id in a
    /// UE's flow list, RLC queue or reassembly that names no flow of the
    /// table, and a reported or pending CQI past 15, are refused as
    /// malformed; an AM PDU numbered far past what its transmitter sent
    /// restores and runs, its receiver's STATUS NACK list bounded.
    #[test]
    fn hostile_flow_ids_cqis_and_sns_are_refused_or_run() {
        let (cell, _) = mid_transfer_cell();
        let (section, trace) = traced(&cell);
        let n_flows = cell.n_flows() as u64;
        let cases = [
            ("ues[0].flows[0]", SnapKind::Usize),
            (
                "ues[0].rlc_tx.um.queues.queues[0][0].flow_id",
                SnapKind::U64,
            ),
            ("ues[0].rlc_rx.um.partials[0].1.flow_id", SnapKind::U64),
        ];
        for (path, kind) in cases {
            let id = field(&trace, path, kind);
            for (value, runs) in [(n_flows, false), (u64::MAX, false), (n_flows - 1, true)] {
                let hostile = id.with(&section, value);
                assert_eq!(
                    loads_and_runs(&hostile, RlcMode::Um),
                    runs,
                    "{path} = {value}"
                );
            }
        }
        for plane in ["reported", "pending"] {
            let cqi = field(&trace, &format!("phy.channel.{plane}[0].0"), SnapKind::U8);
            for (value, runs) in [(16, false), (0xFF, false), (15, true)] {
                let hostile = cqi.with(&section, value);
                assert_eq!(
                    loads_and_runs(&hostile, RlcMode::Um),
                    runs,
                    "{plane} CQI {value}"
                );
            }
        }

        let (section, trace) = traced(&mid_transfer_cell_in(RlcMode::Am).0);
        let sn = field(&trace, "ues[0].rlc_tx.am.flight[0].1.0.sn", SnapKind::U32);
        for value in [u32::MAX - 1, u32::MAX] {
            let hostile = sn.with(&section, value.into());
            assert!(loads_and_runs(&hostile, RlcMode::Am), "sn {value}");
        }
    }

    /// The queued ingress events of a real AM cell section — `Arrival`,
    /// `PktAtEnb`, `AckAtServer` naming a flow, `StatusAtEnb` a UE — with
    /// the first of each kind's id overwritten: past the table (or the
    /// UE count) and absurd values are refused as malformed, since they
    /// would index out of bounds when the event fires; in-range ids load
    /// and run a simulated second.
    ///
    /// Then the first STATUS PDU's payload. An `ack_sn` of 0 or
    /// `u32::MAX`, or a NACK of an SN never sent, only acknowledges or
    /// NACKs what is in flight: each loads and runs. A NACK count past
    /// the bytes left is refused as malformed by the sequence guard; at
    /// exactly that limit the guard (one byte per element) lets it
    /// through and the reader runs out of bytes, a `Truncated` error.
    #[test]
    fn mutated_ingress_events_are_refused_or_run() {
        // Stop at the first millisecond with every kind of event queued.
        let mut cell = mid_transfer_target_in(RlcMode::Am);
        let (section, trace, firsts) = loop {
            cell.run_until(cell.now() + Dur::from_millis(1));
            assert!(
                cell.now() < Time::from_millis(800),
                "no STATUS PDU in flight"
            );
            let (section, trace) = traced(&cell);
            if let [Some(a), Some(p), Some(k), Some(s)] = first_event_ids(&section, &trace) {
                break (section, trace, [a, p, k, s]);
            }
        };
        let n_flows = cell.n_flows() as u64;
        for (tag, event) in firsts.iter().enumerate() {
            let (id, limit) = match tag {
                3 => (format!("{event}.ue"), 2),
                _ => (format!("{event}.flow"), n_flows),
            };
            let id = field(&trace, &id, SnapKind::Usize);
            for (value, in_range) in [
                (limit, false),
                (u64::MAX, false),
                (limit - 1, true),
                (0, true),
            ] {
                assert_eq!(
                    loads_and_runs(&id.with(&section, value), RlcMode::Am),
                    in_range,
                    "event tag {tag}, id {value}"
                );
            }
        }

        // The first STATUS PDU's payload.
        let status = &firsts[3];
        let ack_sn = field(&trace, &format!("{status}.status.ack_sn"), SnapKind::U32);
        let count = field(&trace, &format!("{status}.status.nacks"), SnapKind::Len);
        let (n, nacks_at) = (count.value(&section), count.span.end);
        let limit = (section.len() - nacks_at) as u64;
        let mut spliced = count.with(&section, n + 1);
        spliced.splice(nacks_at..nacks_at, u32::MAX.to_le_bytes());
        for (what, hostile, runs) in [
            ("ack_sn 0", ack_sn.with(&section, 0), true),
            ("ack_sn max", ack_sn.with(&section, u32::MAX.into()), true),
            ("NACK of u32::MAX", spliced, true),
            ("count past limit", count.with(&section, limit + 1), false),
            ("count u64::MAX", count.with(&section, u64::MAX), false),
        ] {
            assert_eq!(loads_and_runs(&hostile, RlcMode::Am), runs, "{what}");
        }
        let at_limit = count.with(&section, limit);
        assert!(matches!(
            restore_and_run(&at_limit, RlcMode::Am),
            Err(SnapError::Truncated)
        ));
    }

    /// The fields the mutator writes: per index-erased path and kind
    /// (and, of a tag, per variant), in write order, the first occurrence
    /// and the last. A sequence is written at both ends — each element
    /// of one of two — and a sequence nested in another at the first and
    /// last element of the whole walk; what lies between is left out, as
    /// the debug `test` job's time asks.
    fn sampled<'t>(trace: &'t SnapTrace, payload: &[u8]) -> Vec<&'t SnapField> {
        let key = |f: &SnapField| {
            let variant = (f.kind == SnapKind::Tag).then(|| f.value(payload));
            (erased_path(f), f.kind, variant)
        };
        let mut count = std::collections::BTreeMap::new();
        for f in trace.fields() {
            *count.entry(key(f)).or_insert(0usize) += 1;
        }
        let mut seen = std::collections::BTreeMap::new();
        let mut keep = |f: &&SnapField| {
            let k = key(f);
            let n = count[&k];
            let i = seen.entry(k).or_insert(0usize);
            *i += 1;
            let at = *i - 1;
            at == 0 || at + 1 == n
        };
        trace.fields().iter().filter(|f| keep(f)).collect()
    }

    /// `f`'s path with every sequence index erased (`flows[].size`).
    fn erased_path(f: &SnapField) -> String {
        let mut parts = f.path.split('[');
        let root = parts.next().unwrap_or_default();
        let indexed = parts.map(|p| p.trim_start_matches(|c: char| c.is_ascii_digit()));
        [root]
            .into_iter()
            .chain(indexed)
            .collect::<Vec<_>>()
            .join("[")
    }

    /// The hostile values of `f`, each different from the value
    /// `payload` holds: its kind's — `0, 1, MAX-1, MAX` of an integer,
    /// instant or span; `NaN, +-inf, -1, 1e308` of a float; `2` of a
    /// bool; the neighbouring tags `n-1`, `n+1` (another variant's bytes
    /// under this one's) and an unknown one, `0xFF`; a length of `n-1`,
    /// `n+1` or `u64::MAX` — and its domain's [`domain_edges`].
    fn hostile_values(
        f: &SnapField,
        payload: &[u8],
        trace: &SnapTrace,
        spaces: &[(&str, u64)],
    ) -> Vec<u64> {
        let max = width_max(f);
        let n = f.value(payload);
        let mut values = match f.kind {
            SnapKind::F64 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 1e308]
                .map(f64::to_bits)
                .to_vec(),
            SnapKind::Bool => vec![2],
            SnapKind::Tag => vec![n.wrapping_sub(1) & 0xFF, (n + 1) & 0xFF, 0xFF],
            SnapKind::Len | SnapKind::Str => {
                vec![n.wrapping_sub(1), n.wrapping_add(1), u64::MAX]
            }
            _ => vec![0, 1, max - 1, max],
        };
        values.extend(domain_edges(f, payload, trace, spaces));
        values.retain(|&v| v != n);
        values.sort_unstable();
        values.dedup();
        values
    }

    /// The largest value `f`'s bytes hold.
    fn width_max(f: &SnapField) -> u64 {
        match f.kind {
            SnapKind::Str => u64::MAX,
            _ if f.span.len() >= 8 => u64::MAX,
            _ => (1u64 << (8 * f.span.len())) - 1,
        }
    }

    /// The edges of the domain `f`'s layout declared, as `f`'s bytes:
    /// of `counter`, its bound and one past it; of `sign`, -2 to 2; of a
    /// comparison with `b`, `b - 1`, `b`, `b + 1` (of a float, also
    /// `b`'s neighbouring floats), `b` a literal or the nearest sibling
    /// field's value (none when the sibling does not travel); of
    /// `index(space)`, the space's last id and its size. A length, tag,
    /// presence byte or string has no domain.
    fn domain_edges(
        f: &SnapField,
        payload: &[u8],
        trace: &SnapTrace,
        spaces: &[(&str, u64)],
    ) -> Vec<u64> {
        use SnapKind::{Bool, Len, Str, Tag, F64};
        if matches!(f.kind, Len | Tag | Bool | Str) {
            return Vec::new();
        }
        let float = f.kind == F64;
        let max = width_max(f);
        let ints = |xs: &[i128]| -> Vec<u64> {
            let ok = |x: &&i128| (0..=max as i128).contains(*x);
            xs.iter().filter(ok).map(|&x| x as u64).collect()
        };
        let floats = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
        let mut out = Vec::new();
        for kind in f.domain.split('&').map(str::trim).filter(|k| !k.is_empty()) {
            let (op, arg) = match kind.split_once('(') {
                Some((op, rest)) => (op, rest.trim_end_matches(')').trim()),
                None => (kind, ""),
            };
            out.extend(match op {
                "counter" => ints(&[(max as i128 >> 2) + 1, (max as i128 >> 2) + 2]),
                "finite" => Vec::new(),
                "sign" if float => floats(&[-2.0, -1.0, 0.0, 1.0, 2.0]),
                "index" => {
                    let size = spaces.iter().find(|(s, _)| *s == arg);
                    let size = size.unwrap_or_else(|| panic!("no size for {arg}")).1;
                    ints(&[size as i128 - 1, size as i128])
                }
                "lt" | "le" | "eq" | "ge" | "gt" => match bound(f, arg, payload, trace) {
                    None => Vec::new(),
                    Some(Ok(b)) if !float => ints(&[b - 1, b, b + 1]),
                    Some(b) => {
                        let b = b.map_or_else(|b| b, |b| b as f64);
                        let up = f64::from_bits(b.to_bits().wrapping_add(1));
                        let down = f64::from_bits(b.to_bits().wrapping_sub(1));
                        floats(&[b - 1.0, down, b, up, b + 1.0])
                    }
                },
                _ => panic!("{}: unknown domain kind {kind}", f.path),
            });
        }
        out
    }

    /// A comparison's bound for `f`: the literal `arg`, or the value of
    /// the sibling field `arg` written nearest `f` (an integer's exactly);
    /// `None` for a sibling that does not travel (configuration).
    fn bound(
        f: &SnapField,
        arg: &str,
        payload: &[u8],
        trace: &SnapTrace,
    ) -> Option<Result<i128, f64>> {
        let arg = arg.replace(' ', "");
        if let Ok(b) = arg.parse::<i128>() {
            return Some(Ok(b));
        }
        if let Ok(b) = arg.parse::<f64>() {
            return Some(Err(b));
        }
        let parent = f
            .path
            .trim_end_matches(|c: char| c == ']' || c == '[' || c.is_ascii_digit());
        let parent = parent.rsplit_once('.').map_or("", |(p, _)| p);
        let path = if parent.is_empty() {
            arg.to_string()
        } else {
            format!("{parent}.{arg}")
        };
        let near = |g: &&SnapField| g.span.start.abs_diff(f.span.start);
        let sib = trace
            .fields()
            .iter()
            .filter(|g| g.path == path)
            .min_by_key(near)?;
        Some(match sib.kind {
            SnapKind::F64 => Err(f64::from_bits(sib.value(payload))),
            _ => Ok(sib.value(payload).into()),
        })
    }

    #[test]
    fn hostile_values_follow_the_kind_and_skip_the_held_value() {
        let payload = [2, 7, 0, 2, 0, 0, 0, 0, 0, 0, 0];
        let at = |kind, span| SnapField {
            path: "x".into(),
            kind,
            span,
            domain: "",
        };
        let cases = [
            (at(SnapKind::Tag, 0..1), vec![1, 3, 0xFF]),
            (at(SnapKind::U16, 1..3), vec![0, 1, 0xFFFE, 0xFFFF]),
            (at(SnapKind::Len, 3..11), vec![1, 3, u64::MAX]),
            (at(SnapKind::Bool, 2..3), vec![2]),
            (at(SnapKind::U8, 0..1), vec![0, 1, 0xFE, 0xFF]),
        ];
        let none = SnapTrace::default();
        for (f, want) in cases {
            assert_eq!(
                hostile_values(&f, &payload, &none, &[]),
                want,
                "{:?}",
                f.kind
            );
        }
        let x = at(SnapKind::F64, 3..11);
        assert_eq!(hostile_values(&x, &payload, &none, &[]).len(), 5);
        let mut w = SnapWriter::tracing();
        (vec![Some(3u16), None], 1u8).snap(&mut w);
        let (bytes, trace) = w.into_traced();
        let erased: Vec<_> = sampled(&trace, &bytes)
            .iter()
            .map(|f| erased_path(f))
            .collect();
        assert_eq!(erased, ["0", "0[]", "0[]", "0[]", "1"]);
    }

    /// A sequence's first and last elements are sampled; a domain adds
    /// its edges — a sibling bound's, a counter's, an index space's.
    #[test]
    fn sampling_and_domain_edges() {
        let mut w = SnapWriter::tracing();
        (0..40u32).collect::<Vec<_>>().snap(&mut w);
        let (bytes, trace) = w.into_traced();
        let at: Vec<_> = sampled(&trace, &bytes)
            .iter()
            .map(|f| f.path.clone())
            .collect();
        assert_eq!(at, ["", "[0]", "[39]"]);

        #[derive(Debug)]
        struct Span {
            len: u32,
            offset: u32,
            seen: u64,
            flow: u64,
        }
        outran_simcore::snap_fields! {
            Span { len, offset in lt(len), seen in counter, flow in index(flows) }
        }
        let mut w = SnapWriter::tracing();
        (Span {
            len: 9,
            offset: 2,
            seen: 5,
            flow: 1,
        })
        .snap(&mut w);
        let (bytes, trace) = w.into_traced();
        let spaces = [("flows", 4)];
        let edges = |path: &str| {
            let f = trace.fields().iter().find(|f| f.path == path).unwrap();
            domain_edges(f, &bytes, &trace, &spaces)
        };
        assert_eq!(edges("offset"), [8, 9, 10]);
        assert_eq!(edges("seen"), [1 << 62, (1 << 62) + 1]);
        assert_eq!(edges("flow"), [3, 4]);
    }

    /// The message a panic was raised with.
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        let text = payload.downcast_ref::<String>().map(String::as_str);
        text.or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("(no message)")
    }

    /// Path of the first queued event of each kind, by tag.
    fn first_event_ids(section: &[u8], trace: &SnapTrace) -> [Option<String>; 4] {
        let mut firsts = [None, None, None, None];
        let tags = trace.fields().iter().filter(|f| f.kind == SnapKind::Tag);
        for f in tags.filter(|f| erased_path(f) == "ingress.events[]") {
            firsts[f.value(section) as usize].get_or_insert_with(|| f.path.clone());
        }
        firsts
    }

    /// The `kind` primitive at `path` in the first open flow's sender.
    fn first_sender_field<'t>(trace: &'t SnapTrace, path: &str, kind: SnapKind) -> &'t SnapField {
        let path = format!("ingress.flows[].sender.{path}");
        let mut fields = trace.fields().iter();
        fields
            .find(|f| f.kind == kind && erased_path(f) == path)
            .unwrap_or_else(|| panic!("no {kind:?} at {path}"))
    }

    /// Each hostile value the next RTO arm would panic on — non-finite or
    /// negative `srtt`, `rttvar`, `rto`, or an `rto` past the 60 s
    /// `max_rto` — written into the first open flow's sender: refused as
    /// malformed. The bounds themselves load and run.
    #[test]
    fn hostile_rtt_estimate_is_refused() {
        let (section, trace) = traced(&mid_transfer_cell().0);
        let sender = |path: &str, kind| first_sender_field(&trace, path, kind);
        assert_eq!(
            sender("rtt.srtt", SnapKind::Bool).value(&section),
            1,
            "the handshake seeded srtt"
        );
        let [srtt, rttvar, rto] =
            ["srtt", "rttvar", "rto"].map(|f| sender(&format!("rtt.{f}"), SnapKind::F64));
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-9];
        for (field, value, accepted) in [srtt, rttvar, rto]
            .into_iter()
            .flat_map(|f| hostile.map(|v| (f, v, false)))
            .chain([
                (rto, 60.0 + 1e-9, false),
                (rto, 60.0, true),
                (srtt, 0.0, true),
            ])
        {
            assert_eq!(
                loads_and_runs(&field.with(&section, value.to_bits()), RlcMode::Um),
                accepted,
                "{value} at {}",
                field.path
            );
        }
    }

    /// Each hostile value the sender's own arithmetic would trip on,
    /// written into the first open flow's sender: `snd_una > snd_nxt` or
    /// `snd_nxt > flow_size` (`in_flight` and `emit_into` underflow), an
    /// RTT sample before `snd_una` (`rtt_probe` asserts against it), a
    /// `recover` past `flow_size`, a pending retransmission that is empty,
    /// starts before `snd_una` or ends past `flow_size`, and a NaN,
    /// negative or infinite `cwnd`, `ssthresh`, CUBIC `w_max` or `k` —
    /// refused as malformed. The boundaries, `ssthresh`'s initial +∞
    /// among them, load and run.
    #[test]
    fn hostile_tcp_sender_is_refused() {
        let (section, trace) = traced(&mid_transfer_cell().0);
        let sender = |path: &str, kind| first_sender_field(&trace, path, kind);
        let [flow_size, snd_una, snd_nxt, recover] =
            ["flow_size", "snd_una", "snd_nxt", "recover"].map(|f| sender(f, SnapKind::U64));
        let [cwnd, ssthresh, w_max, k] =
            ["cwnd", "ssthresh", "cubic.w_max", "cubic.k"].map(|f| sender(f, SnapKind::F64));
        let retx_pending = sender("retx_pending", SnapKind::Bool);
        assert_eq!(
            retx_pending.value(&section),
            0,
            "emit takes a pending retransmission"
        );
        assert_eq!(
            sender("sample_seq", SnapKind::Bool).value(&section),
            1,
            "a sample is in flight"
        );
        let sample = sender("sample_seq.0", SnapKind::U64);
        let [size, una, nxt, seq] =
            [flow_size, snd_una, snd_nxt, sample].map(|f| f.value(&section));
        assert!(0 < una && una <= seq && seq < nxt && nxt < size);
        let mut cases: Vec<(&SnapField, u64, bool)> = vec![
            (snd_nxt, una - 1, false),
            (snd_nxt, size + 1, false),
            (sample, una - 1, false),
            (recover, size + 1, false),
            (snd_nxt, size, true),
            (snd_una, seq, true),
            (snd_una, 0, true),
            (recover, nxt, true),
        ];
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-9];
        for field in [cwnd, ssthresh, w_max, k] {
            for v in hostile {
                let ok = field == ssthresh && v == f64::INFINITY;
                cases.push((field, v.to_bits(), ok));
            }
            cases.push((field, 0f64.to_bits(), true));
        }
        for (field, value, accepted) in cases {
            assert_eq!(
                loads_and_runs(&field.with(&section, value), RlcMode::Um),
                accepted,
                "{value:#x} at {}",
                field.path
            );
        }
        // A pending retransmission `(seq, len)`, spliced in as `Some`.
        for (seq, len, accepted) in [
            (una, 0u32, false),
            (una - 1, 1, false),
            (size - 1, 2, false),
            (u64::MAX, 1, false),
            (size - 1, 1, true),
            (una, 1400, true),
        ] {
            let mut seg = SnapWriter::new();
            let is_retx = true;
            Segment { seq, len, is_retx }.snap(&mut seg);
            let mut mutated = retx_pending.with(&section, 1);
            let at = retx_pending.span.end;
            mutated.splice(at..at, seg.into_bytes());
            assert_eq!(
                loads_and_runs(&mutated, RlcMode::Um),
                accepted,
                "retransmission of {len} bytes at {seq}"
            );
        }
    }

    /// A v5 reader refuses a v1 to v4 file by its header, whatever
    /// follows.
    #[test]
    fn version_1_header_is_refused() {
        let (cell, meta) = mid_transfer_cell();
        let mut bytes = snapshot_cell(&meta, &cell).to_bytes();
        assert_eq!(bytes[4..8], 5u32.to_le_bytes());
        for old in [1u32, 2, 3, 4] {
            bytes[4..8].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                SnapshotFile::from_bytes(&bytes),
                Err(SnapError::BadVersion(v)) if v == old
            ));
        }
    }

    #[test]
    fn restore_into_wrong_config_is_an_error() {
        let cell = tiny_cell();
        let meta = CheckpointMeta {
            argv: vec!["x".into()],
            sim_time: Time::ZERO,
            dense: false,
            n_cells: 1,
        };
        let file = snapshot_cell(&meta, &cell);
        // Different UE count must be rejected, not mis-restored.
        let mut wrong = Cell::new(CellConfig::lte_default(3, SchedulerKind::OutRan, 7));
        assert!(restore_cell(&file, 0, &mut wrong).is_err());
    }
}
