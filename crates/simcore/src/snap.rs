//! Crash-safe snapshot primitives: a hand-rolled, versioned, std-only
//! binary format for checkpointing simulator state.
//!
//! Long soaks (metro-scale scenarios, chaos endurance runs) are
//! multi-hour jobs; a panic or CI timeout must not throw the run away.
//! This module provides the byte-level plumbing every crate's snapshot
//! impl builds on:
//!
//! * [`SnapWriter`] / [`SnapReader`] — little-endian primitive codec.
//!   Floats travel as IEEE-754 bit patterns ([`f64::to_bits`]) so a
//!   round trip is bit-exact, which is what makes a resumed run
//!   *bit-identical* to an uninterrupted one rather than merely close.
//! * [`SnapshotFile`] — a container of named sections, each guarded by
//!   an FNV-1a digest, behind a magic number and a format version.
//! * [`write_atomic`] — temp-file + rename persistence so an
//!   interrupted writer never leaves a torn checkpoint behind.
//!
//! The format is deliberately not self-describing: readers must know
//! the layout (the version field exists so they can refuse layouts
//! they don't). Sections keep corruption localized and give resume
//! errors a name to point at.

use std::fmt;
use std::io::Write as _;
use std::path::Path;

use crate::events::EventQueue;
use crate::rng::Rng;
use crate::stats::{Ewma, Percentiles, RunningStats};
use crate::time::{Dur, Time};

/// File magic: "ORSN" (OutRAN SNapshot).
pub const SNAP_MAGIC: [u8; 4] = *b"ORSN";

/// Current snapshot format version. Bump on ANY layout change — the
/// reader refuses other versions rather than misinterpreting bytes.
pub const SNAP_VERSION: u32 = 1;

/// Errors surfaced while reading or persisting a snapshot.
#[derive(Debug)]
pub enum SnapError {
    /// The buffer ended before the expected data.
    Truncated,
    /// The file does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The file's format version is not [`SNAP_VERSION`].
    BadVersion(u32),
    /// A section's stored digest does not match its payload.
    DigestMismatch(String),
    /// A required section is absent.
    MissingSection(String),
    /// Structurally invalid data (context in the message).
    Malformed(&'static str),
    /// Filesystem-level failure while persisting or loading.
    Io(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAP_VERSION})"
                )
            }
            SnapError::DigestMismatch(s) => write!(f, "section '{s}' failed its digest check"),
            SnapError::MissingSection(s) => write!(f, "section '{s}' missing"),
            SnapError::Malformed(what) => write!(f, "malformed snapshot data: {what}"),
            SnapError::Io(e) => write!(f, "snapshot i/o: {e}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit over a byte slice — the same digest the golden-trace
/// harness uses, cheap and std-only.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only little-endian encoder for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Fresh empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
    }

    /// Finished payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` (as `u64`; the simulator never exceeds that).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a [`Time`] instant.
    pub fn time(&mut self, t: Time) {
        self.u64(t.as_nanos());
    }

    /// Write a [`Dur`] span.
    pub fn dur(&mut self, d: Dur) {
        self.u64(d.as_nanos());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write an `Option` via a presence byte plus the closure on `Some`.
    pub fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut SnapWriter, &T)) {
        match v {
            Some(x) => {
                self.bool(true);
                f(self, x);
            }
            None => self.bool(false),
        }
    }

    /// Write a sequence via a length prefix plus the closure per item.
    pub fn seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut f: impl FnMut(&mut SnapWriter, T),
    ) {
        self.usize(items.len());
        for it in items {
            f(self, it);
        }
    }
}

/// Cursor over a snapshot payload, mirroring [`SnapWriter`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.pos + n > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    /// Read a `usize`, erroring if it would overflow the platform.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Malformed("usize overflow"))
    }

    /// Read an `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`, rejecting non-canonical bytes.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed("bool byte")),
        }
    }

    /// Read a [`Time`].
    pub fn time(&mut self) -> Result<Time, SnapError> {
        Ok(Time::from_nanos(self.u64()?))
    }

    /// Read a [`Dur`].
    pub fn dur(&mut self) -> Result<Dur, SnapError> {
        Ok(Dur::from_nanos(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.usize()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Malformed("utf-8 string"))
    }

    /// Read an `Option` via its presence byte.
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Read a length-prefixed sequence into a `Vec`.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let n = self.usize()?;
        // Guard against a corrupt length causing an absurd reservation:
        // each element needs at least one byte in this format.
        if n > self.buf.len() - self.pos {
            return Err(SnapError::Malformed("sequence length exceeds payload"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// A snapshot file: named, digest-guarded sections behind a magic and
/// a format version.
///
/// Layout (all integers little-endian):
///
/// ```text
/// magic "ORSN" | version u32 | section_count u32
/// per section: name (len-prefixed str) | payload_len u64 | fnv1a u64 | payload
/// ```
#[derive(Debug, Default)]
pub struct SnapshotFile {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotFile {
    /// Empty container.
    pub fn new() -> SnapshotFile {
        SnapshotFile {
            sections: Vec::new(),
        }
    }

    /// Append a named section from a finished writer.
    pub fn add(&mut self, name: &str, w: SnapWriter) {
        self.sections.push((name.to_string(), w.into_bytes()));
    }

    /// Borrow a section's payload by name.
    pub fn section(&self, name: &str) -> Result<&[u8], SnapError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
            .ok_or_else(|| SnapError::MissingSection(name.to_string()))
    }

    /// Names of all sections, in file order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Serialize the container to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.buf.extend_from_slice(&SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w.u32(self.sections.len() as u32);
        for (name, payload) in &self.sections {
            w.str(name);
            w.u64(payload.len() as u64);
            w.u64(fnv1a(payload));
            w.buf.extend_from_slice(payload);
        }
        w.into_bytes()
    }

    /// Parse a container from bytes, verifying magic, version and every
    /// section digest.
    pub fn from_bytes(bytes: &[u8]) -> Result<SnapshotFile, SnapError> {
        let mut r = SnapReader::new(bytes);
        if r.take(4)? != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let count = r.u32()? as usize;
        let mut sections = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            let name = r.str()?;
            let len = r.usize()?;
            let digest = r.u64()?;
            let payload = r.take(len)?.to_vec();
            if fnv1a(&payload) != digest {
                return Err(SnapError::DigestMismatch(name));
            }
            sections.push((name, payload));
        }
        Ok(SnapshotFile { sections })
    }

    /// Digest of the whole serialized container — two snapshots are
    /// bit-identical iff these match.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }

    /// Persist atomically to `path` (temp file in the same directory,
    /// fsync, then rename).
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapError> {
        write_atomic(path, &self.to_bytes())
    }

    /// Load and parse a snapshot file from disk.
    pub fn read_file(path: &Path) -> Result<SnapshotFile, SnapError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapError::Io(format!("read {}: {e}", path.display())))?;
        SnapshotFile::from_bytes(&bytes)
    }
}

/// Write `bytes` to `path` atomically: write to a sibling temp file,
/// fsync, then rename over the destination. A crash mid-write leaves
/// either the old file or nothing — never a torn one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapError> {
    let io = |e: std::io::Error| SnapError::Io(format!("{}: {e}", path.display()));
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(io)?;
        }
    }
    let tmp = path.with_extension("tmp~");
    {
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    std::fs::rename(&tmp, path).map_err(io)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Snapshot impls for simcore's own stateful types. These live here (same
// crate) so the types' fields can stay private.
// ---------------------------------------------------------------------------

impl Rng {
    /// The raw xoshiro256** state, for checkpointing.
    pub fn snap(&self, w: &mut SnapWriter) {
        for &word in self.state() {
            w.u64(word);
        }
    }

    /// Restore a generator from a checkpointed state.
    pub fn unsnap(r: &mut SnapReader<'_>) -> Result<Rng, SnapError> {
        let s = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if s == [0, 0, 0, 0] {
            return Err(SnapError::Malformed("all-zero rng state"));
        }
        Ok(Rng::from_state(s))
    }
}

impl RunningStats {
    /// Serialize the accumulator (exact bit patterns, including the
    /// ±infinity min/max sentinels of an empty accumulator).
    pub fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.n);
        w.f64(self.mean);
        w.f64(self.m2);
        w.f64(self.min);
        w.f64(self.max);
    }

    /// Restore an accumulator.
    pub fn unsnap(r: &mut SnapReader<'_>) -> Result<RunningStats, SnapError> {
        Ok(RunningStats {
            n: r.u64()?,
            mean: r.f64()?,
            m2: r.f64()?,
            min: r.f64()?,
            max: r.f64()?,
        })
    }
}

impl Ewma {
    /// Serialize the average, including the priming flag (an unprimed
    /// average must stay unprimed across a resume — `get()` masks the
    /// difference but `update()` does not).
    pub fn snap(&self, w: &mut SnapWriter) {
        w.f64(self.alpha);
        w.f64(self.value);
        w.bool(self.primed);
    }

    /// Restore an average.
    pub fn unsnap(r: &mut SnapReader<'_>) -> Result<Ewma, SnapError> {
        let alpha = r.f64()?;
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(SnapError::Malformed("ewma alpha out of range"));
        }
        Ok(Ewma {
            alpha,
            value: r.f64()?,
            primed: r.bool()?,
        })
    }
}

impl Percentiles {
    /// Serialize retained samples in their *current* order plus the
    /// lazy-sort flag: `percentile()` reorders samples in place, so
    /// capturing order is required for bit-identical resumption.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.bool(self.sorted);
        w.seq(self.samples.iter(), |w, &x| w.f64(x));
    }

    /// Restore a collector.
    pub fn unsnap(r: &mut SnapReader<'_>) -> Result<Percentiles, SnapError> {
        let sorted = r.bool()?;
        let samples = r.seq(|r| r.f64())?;
        Ok(Percentiles { samples, sorted })
    }
}

impl<E> EventQueue<E> {
    /// Serialize pending events in deterministic `(time, seq)` order,
    /// preserving the exact sequence numbers and the allocation counter
    /// so a restored queue pops in the identical order and continues
    /// numbering where the original left off.
    pub fn snap_with(&self, w: &mut SnapWriter, mut f: impl FnMut(&mut SnapWriter, &E)) {
        w.u64(self.seq_counter());
        let entries = self.sorted_entries();
        w.usize(entries.len());
        for (t, seq, e) in entries {
            w.time(t);
            w.u64(seq);
            f(w, e);
        }
    }

    /// Restore a queue serialized with [`EventQueue::snap_with`].
    pub fn unsnap_with<'a>(
        r: &mut SnapReader<'a>,
        mut f: impl FnMut(&mut SnapReader<'a>) -> Result<E, SnapError>,
    ) -> Result<EventQueue<E>, SnapError> {
        let counter = r.u64()?;
        let n = r.usize()?;
        let mut q = EventQueue::new();
        for _ in 0..n {
            let t = r.time()?;
            let seq = r.u64()?;
            if seq >= counter {
                return Err(SnapError::Malformed("event seq beyond counter"));
            }
            let e = f(r)?;
            q.schedule_with_seq(t, seq, e);
        }
        q.set_seq_counter(counter);
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(std::f64::consts::PI);
        w.f64(f64::INFINITY);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("hello snapshot");
        w.time(Time::from_millis(5));
        w.dur(Dur::from_micros(125));
        w.opt(&Some(9u64), |w, &v| w.u64(v));
        w.opt(&None::<u64>, |w, &v| w.u64(v));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello snapshot");
        assert_eq!(r.time().unwrap(), Time::from_millis(5));
        assert_eq!(r.dur().unwrap(), Dur::from_micros(125));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(9));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        assert!(matches!(r.u64(), Err(SnapError::Truncated)));
    }

    #[test]
    fn snapshot_file_roundtrip_and_digests() {
        let mut f = SnapshotFile::new();
        let mut w = SnapWriter::new();
        w.u64(123);
        f.add("meta", w);
        let mut w2 = SnapWriter::new();
        w2.str("cell");
        f.add("cell0", w2);
        let bytes = f.to_bytes();
        let back = SnapshotFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.section_names(), vec!["meta", "cell0"]);
        let mut r = SnapReader::new(back.section("meta").unwrap());
        assert_eq!(r.u64().unwrap(), 123);
        assert!(matches!(
            back.section("nope"),
            Err(SnapError::MissingSection(_))
        ));
    }

    #[test]
    fn corruption_detected_by_section_digest() {
        let mut f = SnapshotFile::new();
        let mut w = SnapWriter::new();
        w.u64(0xABCD);
        f.add("meta", w);
        let mut bytes = f.to_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // flip a payload byte
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapError::DigestMismatch(_))
        ));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let f = SnapshotFile::new();
        let mut bytes = f.to_bytes();
        assert!(SnapshotFile::from_bytes(&bytes).is_ok());
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapError::BadMagic)
        ));
        let mut bytes2 = SnapshotFile::new().to_bytes();
        bytes2[4] = 99;
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes2),
            Err(SnapError::BadVersion(_))
        ));
    }

    #[test]
    fn rng_roundtrip_continues_identical_stream() {
        let mut a = Rng::new(0xFEED);
        for _ in 0..17 {
            a.next_u64_raw();
        }
        let mut w = SnapWriter::new();
        a.snap(&mut w);
        let bytes = w.into_bytes();
        let mut b = Rng::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        for _ in 0..1000 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn stats_roundtrip_bit_exact() {
        let mut s = RunningStats::new();
        for x in [1.5, -2.25, 7.0] {
            s.push(x);
        }
        let mut w = SnapWriter::new();
        s.snap(&mut w);
        let bytes = w.into_bytes();
        let t = RunningStats::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(s.count(), t.count());
        assert_eq!(s.mean().to_bits(), t.mean().to_bits());
        assert_eq!(s.variance().to_bits(), t.variance().to_bits());

        let mut e = Ewma::new(0.125);
        e.update(3.0);
        e.update(1.0);
        let mut w = SnapWriter::new();
        e.snap(&mut w);
        let bytes = w.into_bytes();
        let e2 = Ewma::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(e.get().to_bits(), e2.get().to_bits());
        assert_eq!(e.is_primed(), e2.is_primed());

        // Unprimed flag must survive.
        let u = Ewma::new(0.5);
        let mut w = SnapWriter::new();
        u.snap(&mut w);
        let bytes = w.into_bytes();
        assert!(!Ewma::unsnap(&mut SnapReader::new(&bytes))
            .unwrap()
            .is_primed());
    }

    #[test]
    fn percentiles_roundtrip_preserves_order_and_sort_flag() {
        let mut p = Percentiles::new();
        p.push(5.0);
        p.push(1.0);
        p.push(3.0);
        let mut w = SnapWriter::new();
        p.snap(&mut w);
        let bytes = w.into_bytes();
        let mut q = Percentiles::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(p.samples(), q.samples());
        // Sorting after restore behaves identically.
        assert_eq!(p.percentile(50.0), q.percentile(50.0));
        assert_eq!(p.samples(), q.samples());
    }

    #[test]
    fn event_queue_roundtrip_preserves_pop_order_and_seq() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = Time::from_millis(3);
        q.schedule(t, 10);
        q.schedule(Time::from_millis(1), 20);
        q.schedule(t, 30); // same instant as the first — FIFO order matters
        let _ = q.pop(); // consume the earliest, counter keeps running
        let mut w = SnapWriter::new();
        q.snap_with(&mut w, |w, &e| w.u32(e));
        let bytes = w.into_bytes();
        let mut back = EventQueue::unsnap_with(&mut SnapReader::new(&bytes), |r| r.u32()).unwrap();
        assert_eq!(back.len(), 2);
        // New events in both queues get the same sequence numbers.
        q.schedule(t, 40);
        back.schedule(t, 40);
        let a: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let b: Vec<u32> = std::iter::from_fn(|| back.pop().map(|(_, e)| e)).collect();
        assert_eq!(a, b);
        assert_eq!(a, vec![10, 30, 40]);
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join("outran_snap_test");
        let path = dir.join("ckpt.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second-longer");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
