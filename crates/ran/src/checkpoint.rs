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
    let mut r = SnapReader::new(file.section(&cell_section(i))?);
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
    use outran_simcore::snap::SnapWriter;
    use outran_simcore::Dur;

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
        let mut cell = mid_transfer_target();
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

    /// Start and state tag of every record in a cell section's flow
    /// table — format v2: n_flows u64, then per record ue u32 | size u64
    /// | spawn u64 | tuple 13 | state tag u8 | done: last_rtt opt Dur,
    /// probe opt (u64, Time) — and where the endpoint count follows.
    fn walk_records(section: &[u8], cell: &Cell) -> (Vec<(usize, u8)>, usize) {
        let mut at = cell.ingress_snap_spans()[0].start + 8;
        let mut recs = Vec::new();
        for _ in 0..cell.n_flows() {
            let tag = section[at + 33];
            recs.push((at, tag));
            at += 34;
            if tag == 2 {
                for width in [8, 16] {
                    at += 1 + if section[at] == 1 { width } else { 0 };
                }
            }
        }
        (recs, at)
    }

    /// Load `hostile` into a fresh [`mid_transfer_target_in`] cell:
    /// `false` if refused as malformed; otherwise the cell must run a
    /// simulated second with its live index sound.
    fn loads_and_runs(hostile: &[u8], rlc_mode: RlcMode) -> bool {
        let mut target = mid_transfer_target_in(rlc_mode);
        match target.load_snap(&mut SnapReader::new(hostile)) {
            Err(SnapError::Malformed(_)) => return false,
            Err(e) => panic!("refused, but not as malformed: {e:?}"),
            Ok(()) => {}
        }
        target.check_live_index().unwrap();
        target.run_until(target.now() + Dur::from_secs(1));
        target.check_live_index().unwrap();
        true
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

    /// A structure-aware walk over the flow table's bytes in a real cell
    /// section (format v2: records, endpoint count, `(id, endpoints)`
    /// for the open flows): every field of every record, the count and
    /// the first endpoint id are overwritten with hostile values. Each
    /// result is either refused with a `SnapError`, or — where the
    /// layout cannot tell it from the truth — restores into a cell that
    /// then runs a simulated second with its live index sound.
    #[test]
    fn mutated_flow_table_is_refused_or_runs() {
        let (cell, meta) = mid_transfer_cell();
        let file = snapshot_cell(&meta, &cell);
        let section = file.section("cell.0").unwrap();
        let n_flows = cell.n_flows();
        let (recs, at) = walk_records(section, &cell);
        let mut mutations: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut by_state: [Vec<u64>; 3] = Default::default(); // pending, open, done
        for (fi, &(rec, tag)) in recs.iter().enumerate() {
            mutations.push((rec, 2u32.to_le_bytes().to_vec())); // ue = n_ues
            mutations.push((rec, u32::MAX.to_le_bytes().to_vec()));
            for field in [rec + 4, rec + 12] {
                mutations.push((field, 0u64.to_le_bytes().to_vec())); // size, spawn
                mutations.push((field, u64::MAX.to_le_bytes().to_vec()));
            }
            mutations.push((rec + 20, vec![0xFF; 13])); // tuple
            by_state[tag as usize].push(fi as u64);
            mutations.extend((0..=3u8).filter(|&t| t != tag).map(|t| (rec + 33, vec![t])));
            if tag == 2 {
                // Non-canonical presence bytes of the two options.
                let last_rtt = rec + 34;
                let probe = last_rtt + 1 + if section[last_rtt] == 1 { 8 } else { 0 };
                mutations.push((last_rtt, vec![2]));
                mutations.push((probe, vec![2]));
            }
        }
        let count = u64::from_le_bytes(section[at..at + 8].try_into().unwrap());
        assert_eq!(count, cell.open_flows(), "walked off the records");
        for hostile in [0, count - 1, count + 1, u64::MAX] {
            mutations.push((at, hostile.to_le_bytes().to_vec()));
        }
        let first_id = u64::from_le_bytes(section[at + 8..at + 16].try_into().unwrap());
        assert_eq!(first_id, by_state[1][0]);
        // Past the table, on a pending flow, on a done one, on the next
        // open one (so that one comes twice), absurd.
        let (pending, next_open, done) = (by_state[0][0], by_state[1][1], by_state[2][0]);
        for hostile in [n_flows as u64, pending, done, next_open, u64::MAX] {
            mutations.push((at + 8, hostile.to_le_bytes().to_vec()));
        }

        let (mut refused, mut ran) = (0, 0);
        for (at, bytes) in mutations {
            let mut hostile = section.to_vec();
            hostile[at..at + bytes.len()].copy_from_slice(&bytes);
            if loads_and_runs(&hostile, RlcMode::Um) {
                ran += 1;
            } else {
                refused += 1;
            }
        }
        assert!(refused >= 20 && ran >= 20, "{refused} refused, {ran} ran");
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
        let (section, firsts) = loop {
            cell.run_until(cell.now() + Dur::from_millis(1));
            assert!(
                cell.now() < Time::from_millis(800),
                "no STATUS PDU in flight"
            );
            let file = snapshot_cell(&meta_at(&cell), &cell);
            let section = file.section("cell.0").unwrap().to_vec();
            if let [Some(a), Some(p), Some(k), Some(s)] = first_event_ids(&section, &cell) {
                break (section, [a, p, k, s]);
            }
        };
        let n_flows = cell.n_flows() as u64;
        for (tag, id_at) in firsts.into_iter().enumerate() {
            let limit = if tag == 3 { 2 } else { n_flows };
            for (id, in_range) in [
                (limit, false),
                (u64::MAX, false),
                (limit - 1, true),
                (0, true),
            ] {
                let mut hostile = section.to_vec();
                hostile[id_at..id_at + 8].copy_from_slice(&id.to_le_bytes());
                assert_eq!(
                    loads_and_runs(&hostile, RlcMode::Am),
                    in_range,
                    "event tag {tag}, id {id}"
                );
            }
        }

        // STATUS payload after the UE id: ack_sn u32 | n u64 | n × u32.
        let ack_sn = firsts[3] + 8;
        let (count_at, nacks_at) = (ack_sn + 4, ack_sn + 12);
        let count = u64::from_le_bytes(section[count_at..count_at + 8].try_into().unwrap());
        let limit = (section.len() - nacks_at) as u64;
        let with = |at: usize, bytes: &[u8]| {
            let mut hostile = section.clone();
            hostile[at..at + bytes.len()].copy_from_slice(bytes);
            hostile
        };
        let mut spliced = with(count_at, &(count + 1).to_le_bytes());
        spliced.splice(nacks_at..nacks_at, u32::MAX.to_le_bytes());
        for (what, hostile, runs) in [
            ("ack_sn 0", with(ack_sn, &0u32.to_le_bytes()), true),
            ("ack_sn max", with(ack_sn, &u32::MAX.to_le_bytes()), true),
            ("NACK of u32::MAX", spliced, true),
            (
                "count past limit",
                with(count_at, &(limit + 1).to_le_bytes()),
                false,
            ),
            (
                "count u64::MAX",
                with(count_at, &u64::MAX.to_le_bytes()),
                false,
            ),
        ] {
            assert_eq!(loads_and_runs(&hostile, RlcMode::Am), runs, "{what}");
        }
        let at_limit = with(count_at, &limit.to_le_bytes());
        let mut target = mid_transfer_target_in(RlcMode::Am);
        assert!(matches!(
            target.load_snap(&mut SnapReader::new(&at_limit)),
            Err(SnapError::Truncated)
        ));
    }

    /// Offset of the id (flow or UE, a u64 right after the tag) of the
    /// first queued event of each kind, by tag. The queue's layout:
    /// counter u64 | n u64, then per event time u64 | seq u64 | tag u8 |
    /// id u64 | `PktAtEnb`: seq u64, len u32 | `AckAtServer`: cum u64 |
    /// `StatusAtEnb`: ack_sn u32, n u64, n × u32.
    fn first_event_ids(section: &[u8], cell: &Cell) -> [Option<usize>; 4] {
        let events = cell.ingress_snap_spans()[1].clone();
        let u64_at = |at: usize| u64::from_le_bytes(section[at..at + 8].try_into().unwrap());
        let mut firsts = [None; 4];
        let mut at = events.start + 16;
        for _ in 0..u64_at(events.start + 8) {
            let tag = section[at + 16];
            firsts[tag as usize].get_or_insert(at + 17);
            at += 25
                + match tag {
                    0 => 0,
                    1 => 12,
                    2 => 8,
                    _ => 12 + 4 * u64_at(at + 29) as usize,
                };
        }
        assert_eq!(at, events.end, "walked off the event queue");
        firsts
    }

    /// Each hostile value the next RTO arm would panic on — non-finite or
    /// negative `srtt`, `rttvar`, `rto`, or an `rto` past the 60 s
    /// `max_rto` — written into the first open flow's sender: refused as
    /// malformed. The bounds themselves load and run.
    #[test]
    fn hostile_rtt_estimate_is_refused() {
        let (cell, meta) = mid_transfer_cell();
        let file = snapshot_cell(&meta, &cell);
        let section = file.section("cell.0").unwrap();
        // Count u64 | first id u64 | sender: flow_size, snd_una, snd_nxt
        // u64 | cwnd, ssthresh f64 | phase u8 | dup_acks u32 | recover
        // u64 | retx_pending opt (u64, u32, u8) | rtt: srtt opt f64,
        // rttvar f64, rto f64.
        let retx_pending = first_sender(section, &cell) + 53;
        let srtt = retx_pending + 1 + if section[retx_pending] == 1 { 13 } else { 0 };
        assert_eq!(section[srtt], 1, "the handshake seeded srtt");
        let (srtt, rttvar, rto) = (srtt + 1, srtt + 9, srtt + 17);
        let f64_at = |at: usize| f64::from_le_bytes(section[at..at + 8].try_into().unwrap());
        assert!(
            f64_at(rto) > 0.0 && f64_at(rto) <= 60.0,
            "walked off the sender"
        );
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
            let mut bytes = section.to_vec();
            bytes[field..field + 8].copy_from_slice(&value.to_le_bytes());
            assert_eq!(
                loads_and_runs(&bytes, RlcMode::Um),
                accepted,
                "{value} at {field}"
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
        let (cell, meta) = mid_transfer_cell();
        let file = snapshot_cell(&meta, &cell);
        let section = file.section("cell.0").unwrap();
        // flow_size, snd_una, snd_nxt u64 | cwnd, ssthresh f64 | phase u8
        // | dup_acks u32 | recover u64 | retx_pending opt (u64, u32, u8) |
        // rtt: srtt opt f64, rttvar, rto f64 | sample_seq opt (u64, Time)
        // | rto_deadline opt Time | retx_bytes, timeouts u64 | last_rtt
        // opt Dur | cubic: epoch_start opt Time, w_max, k f64.
        let at = first_sender(section, &cell);
        let (flow_size, snd_una, snd_nxt) = (at, at + 8, at + 16);
        let (cwnd, ssthresh, recover) = (at + 24, at + 32, at + 45);
        // Steps `end` past an option of `width` payload bytes; returns
        // the offset of its presence byte.
        let option = |end: &mut usize, width: usize| {
            let tag = *end;
            *end += 1 + if section[tag] == 1 { width } else { 0 };
            tag
        };
        let mut end = at + 53;
        let retx_tag = option(&mut end, 13);
        assert_eq!(section[retx_tag], 0, "emit takes a pending retransmission");
        assert_eq!(section[option(&mut end, 8)], 1, "the handshake seeded srtt");
        end += 16; // rttvar, rto
        let sample_tag = option(&mut end, 16);
        option(&mut end, 8); // rto_deadline
        end += 16; // retx_bytes, timeouts
        option(&mut end, 8); // last_rtt
        option(&mut end, 8); // epoch_start
        let (w_max, k) = (end, end + 8);
        assert_eq!(section[sample_tag], 1, "a sample is in flight");
        let sample = sample_tag + 1;

        let u64_at = |at: usize| u64::from_le_bytes(section[at..at + 8].try_into().unwrap());
        let (size, una, nxt, seq) = (
            u64_at(flow_size),
            u64_at(snd_una),
            u64_at(snd_nxt),
            u64_at(sample),
        );
        assert!(
            0 < una && una <= seq && seq < nxt && nxt < size,
            "walked off the sender: {una} {seq} {nxt} {size}"
        );
        let mut cases: Vec<(usize, [u8; 8], bool)> = [
            (snd_nxt, una - 1, false),
            (snd_nxt, size + 1, false),
            (sample, una - 1, false),
            (recover, size + 1, false),
            (snd_nxt, size, true),
            (snd_una, seq, true),
            (snd_una, 0, true),
            (recover, nxt, true),
        ]
        .map(|(at, v, ok)| (at, v.to_le_bytes(), ok))
        .into();
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-9];
        for field in [cwnd, ssthresh, w_max, k] {
            for v in hostile {
                let ok = field == ssthresh && v == f64::INFINITY;
                cases.push((field, v.to_le_bytes(), ok));
            }
            cases.push((field, 0f64.to_le_bytes(), true));
        }
        for (field, bytes, accepted) in cases {
            let mut mutated = section.to_vec();
            mutated[field..field + 8].copy_from_slice(&bytes);
            assert_eq!(
                loads_and_runs(&mutated, RlcMode::Um),
                accepted,
                "{bytes:?} at {field}"
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
            let mut mutated = section.to_vec();
            let seg = [&seq.to_le_bytes()[..], &len.to_le_bytes(), &[1]].concat();
            mutated[retx_tag] = 1;
            mutated.splice(retx_tag + 1..retx_tag + 1, seg);
            assert_eq!(
                loads_and_runs(&mutated, RlcMode::Um),
                accepted,
                "retransmission of {len} bytes at {seq}"
            );
        }
    }

    /// Offset of the first open flow's sender in a cell section: past
    /// the flow records, the endpoint count and the flow's id.
    fn first_sender(section: &[u8], cell: &Cell) -> usize {
        walk_records(section, cell).1 + 16
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
