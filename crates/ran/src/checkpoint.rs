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

    /// The generic hostile mutator. In the UM and the AM mid-transfer
    /// cell section it takes one representative of every field the
    /// layouts reach ([`firsts`]) and writes each of its kind's
    /// [`hostile_values`] there. Each case is refused with a `SnapError`,
    /// or restores into a cell that runs a simulated second with its
    /// live index sound; a panic (a debug build's overflow checks
    /// included) fails the test, naming every case that panicked.
    #[test]
    fn every_field_of_a_cell_section_is_refused_or_runs() {
        let mut panicked = Vec::new();
        for mode in [RlcMode::Um, RlcMode::Am] {
            let (section, trace) = traced(&mid_transfer_cell_in(mode).0);
            let fields = firsts(&trace, &section);
            let (mut refused, mut ran, before) = (0, 0, panicked.len());
            for f in &fields {
                for value in hostile_values(f, &section) {
                    let hostile = f.with(&section, value);
                    let run = || restore_and_run(&hostile, mode);
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                        Ok(Ok(())) => ran += 1,
                        Ok(Err(_)) => refused += 1,
                        Err(e) => panicked.push(format!(
                            "{mode:?} {} {:?} = {value:#x}: {}",
                            f.path,
                            f.kind,
                            panic_message(&*e)
                        )),
                    }
                }
            }
            let failed = panicked.len() - before;
            eprintln!(
                "{mode:?}: {} paths, {} cases: {refused} refused, {ran} ran, {failed} panicked",
                fields.len(),
                refused + ran + failed,
            );
            assert!(
                refused > 0 && ran > 0,
                "{mode:?}: {refused} refused, {ran} ran"
            );
        }
        assert!(panicked.is_empty(), "{panicked:#?}");
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

    /// One representative of every field the layouts reach in
    /// `payload`: the first primitive of each index-erased path and
    /// kind, and of a tag, the first of each variant it holds. In write
    /// order.
    fn firsts<'t>(trace: &'t SnapTrace, payload: &[u8]) -> Vec<&'t SnapField> {
        let mut seen = std::collections::BTreeSet::new();
        let mut first = |f: &&SnapField| {
            let variant = (f.kind == SnapKind::Tag).then(|| f.value(payload));
            seen.insert((erased_path(f), f.kind, variant))
        };
        trace.fields().iter().filter(|f| first(f)).collect()
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

    /// The hostile values of `f`'s kind, each different from the value
    /// `payload` holds: `0, 1, MAX-1, MAX` of an integer, instant or
    /// span; `NaN, +-inf, -1, 1e308` of a float; `2` of a bool; the
    /// neighbouring tags `n-1`, `n+1` (another variant's bytes under
    /// this one's) and an unknown one, `0xFF`; a length of `n-1`, `n+1`
    /// or `u64::MAX`.
    fn hostile_values(f: &SnapField, payload: &[u8]) -> Vec<u64> {
        let width = match f.kind {
            SnapKind::Str => 8,
            _ => f.span.len(),
        };
        let max = match width {
            8 => u64::MAX,
            w => (1u64 << (8 * w)) - 1,
        };
        let n = f.value(payload);
        let values = match f.kind {
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
        let mut out: Vec<u64> = values.into_iter().filter(|&v| v != n).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn hostile_values_follow_the_kind_and_skip_the_held_value() {
        let payload = [2, 7, 0, 2, 0, 0, 0, 0, 0, 0, 0];
        let at = |kind, span| SnapField {
            path: "x".into(),
            kind,
            span,
        };
        let cases = [
            (at(SnapKind::Tag, 0..1), vec![1, 3, 0xFF]),
            (at(SnapKind::U16, 1..3), vec![0, 1, 0xFFFE, 0xFFFF]),
            (at(SnapKind::Len, 3..11), vec![1, 3, u64::MAX]),
            (at(SnapKind::Bool, 2..3), vec![2]),
            (at(SnapKind::U8, 0..1), vec![0, 1, 0xFE, 0xFF]),
        ];
        for (f, want) in cases {
            assert_eq!(hostile_values(&f, &payload), want, "{:?}", f.kind);
        }
        let x = at(SnapKind::F64, 3..11);
        assert_eq!(hostile_values(&x, &payload).len(), 5);
        let mut w = SnapWriter::tracing();
        (vec![Some(3u16), None], 1u8).snap(&mut w);
        let (bytes, trace) = w.into_traced();
        let erased: Vec<_> = firsts(&trace, &bytes)
            .iter()
            .map(|f| erased_path(f))
            .collect();
        assert_eq!(erased, ["0", "0[]", "0[]", "1"]);
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

    /// Each hostile value the next RTO arm would panic on — non-finite or
    /// negative `srtt`, `rttvar`, `rto`, or an `rto` past the 60 s
    /// `max_rto` — written into the first open flow's sender: refused as
    /// malformed. The bounds themselves load and run.
    #[test]
    fn hostile_rtt_estimate_is_refused() {
        let (section, trace) = traced(&mid_transfer_cell().0);
        let sender =
            |path: &str, kind| field(&trace, &format!("ingress.flows.sender.{path}"), kind);
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
        let sender =
            |path: &str, kind| field(&trace, &format!("ingress.flows.sender.{path}"), kind);
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

    /// A v3 reader refuses a v1 or v2 file by its header, whatever
    /// follows.
    #[test]
    fn version_1_header_is_refused() {
        let (cell, meta) = mid_transfer_cell();
        let mut bytes = snapshot_cell(&meta, &cell).to_bytes();
        assert_eq!(bytes[4..8], 4u32.to_le_bytes());
        for old in [1u32, 2, 3] {
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
