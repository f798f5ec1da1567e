//! Crash-safe snapshot primitives: a hand-rolled, versioned, std-only
//! binary format for checkpointing simulator state.
//!
//! Long soaks (metro-scale scenarios, chaos endurance runs) are
//! multi-hour jobs; a panic or CI timeout must not throw the run away.
//! This module provides the byte-level plumbing every crate's snapshot
//! layout builds on:
//!
//! * [`SnapWriter`] / [`SnapReader`] — little-endian primitive codec.
//!   Floats travel as IEEE-754 bit patterns ([`f64::to_bits`]) so a
//!   round trip is bit-exact, which is what makes a resumed run
//!   *bit-identical* to an uninterrupted one rather than merely close.
//!   A writer either keeps its bytes or streams them to a sink in
//!   [`SNAP_CHUNK`]s.
//! * [`Snap`] / [`Unsnap`] / [`LoadSnap`] — the three traits every
//!   persisted type implements: one writer (`snap`) and the two restore
//!   shapes. *By value* (`T::unsnap(r)`): the bytes alone rebuild the
//!   value. *Construct-then-overlay* (`x.load_snap(r)`): the owner
//!   rebuilds the object from the run configuration, then overlays the
//!   dynamic state — the shape for anything holding configuration,
//!   caches or scratch that never travels. Every by-value type is
//!   overlay-able (the overlay just replaces it), and [`LoadSnap`] is
//!   object-safe, so `Box<dyn Scheduler>` restores through it.
//! * [`snap_fields!`](crate::snap_fields) / [`snap_enum!`](crate::snap_enum)
//!   — declare a type's wire layout **once**, as an ordered field (or
//!   tagged-variant) list; writer and reader are generated from it, so
//!   they cannot disagree. The struct form destructures `Self { .. }`
//!   exhaustively: a field that is neither persisted nor named under
//!   `rebuilt` is a compile error.
//! * [`counters!`](crate::counters) — declare a set of `u64` event
//!   counters once: struct, `merge`, `rows`, `total_events` and layout.
//! * [`SnapEncoder`] — the one encoder of the container: named
//!   sections, each guarded by an FNV-1a digest, behind a magic number
//!   and a format version. Each payload streams to the sink, and the
//!   encoder seeks back to fill in its length and digest, so writing a
//!   checkpoint holds one chunk beside the live state.
//! * [`SnapshotFile`] — the container in memory, one buffer with each
//!   section a range into it: what a read kept, or what the encoder
//!   wrote into a `Vec`.
//! * [`write_atomic_with`] — the one durability routine: stream into a
//!   temp sibling, fsync, rename. An interrupted or failed write never
//!   leaves a torn checkpoint, or a temp file, behind.
//!
//! The format is deliberately not self-describing: readers must know
//! the layout (the version field exists so they can refuse layouts
//! they don't). Sections keep corruption localized and give resume
//! errors a name to point at. Blanket impls cover the primitives and
//! the std containers (length-prefixed sequences, presence-byte
//! options, field-by-field tuples); only layouts that no field list
//! can express keep a hand-written impl, each documented where it
//! lives ([`Rng`], [`EventQueue`], the cell channel's
//! written-as-if-caught-up planes in `outran-phy`, and the ingress flow
//! table's records-plus-open-endpoints form in `outran-ran`).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs::File;
use std::io::{self, Cursor, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

use crate::events::EventQueue;
use crate::rng::Rng;
use crate::stats::{Ewma, Percentiles, RunningStats};
use crate::time::{Dur, Time};

/// File magic: "ORSN" (OutRAN SNapshot).
pub const SNAP_MAGIC: [u8; 4] = *b"ORSN";

/// Current snapshot format version. Bump on ANY layout change — the
/// reader refuses other versions rather than misinterpreting bytes.
pub const SNAP_VERSION: u32 = 4;

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
            SnapError::DigestMismatch(s) => {
                write!(f, "snapshot section '{s}' failed its digest check")
            }
            SnapError::MissingSection(s) => write!(f, "snapshot section '{s}' missing"),
            SnapError::Malformed(what) => write!(f, "malformed snapshot data: {what}"),
            SnapError::Io(e) => write!(f, "snapshot i/o: {e}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit over a byte slice — the same digest the golden-trace
/// harness uses, cheap and std-only.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// FNV-1a's offset basis: the digest of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a digest `h` over `bytes`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bytes a streaming [`SnapWriter`] holds before it spills them to its
/// sink: all a checkpoint write needs beside the live state.
pub const SNAP_CHUNK: usize = 64 * 1024;

/// Append-only little-endian encoder for snapshot payloads.
///
/// [`SnapWriter::new`] keeps every byte in memory for
/// [`into_bytes`](SnapWriter::into_bytes). The writer that
/// [`SnapEncoder`] hands each section's layout has a *sink* instead: it
/// holds at most [`SNAP_CHUNK`] bytes, spills each full chunk to the
/// sink, and keeps the section's running length and FNV-1a digest. The
/// first spill error is kept and returned when the section ends; later
/// spills are skipped.
pub struct SnapWriter<'s> {
    buf: Vec<u8>,
    sink: Option<&'s mut dyn Write>,
    /// Bytes already spilled to `sink`.
    spilled: usize,
    /// FNV-1a state over the spilled bytes.
    digest: u64,
    err: Option<io::Error>,
}

impl fmt::Debug for SnapWriter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapWriter")
            .field("len", &self.len())
            .field("streaming", &self.sink.is_some())
            .finish()
    }
}

impl Default for SnapWriter<'_> {
    fn default() -> Self {
        SnapWriter::new()
    }
}

impl<'s> SnapWriter<'s> {
    /// Fresh empty in-memory writer.
    pub fn new() -> SnapWriter<'s> {
        SnapWriter {
            buf: Vec::new(),
            sink: None,
            spilled: 0,
            digest: FNV_OFFSET,
            err: None,
        }
    }

    /// A writer that spills every full chunk to `sink`.
    fn streaming(sink: &'s mut dyn Write) -> SnapWriter<'s> {
        SnapWriter {
            buf: Vec::with_capacity(SNAP_CHUNK),
            sink: Some(sink),
            ..SnapWriter::new()
        }
    }

    /// Finished payload bytes of an in-memory writer.
    pub fn into_bytes(self) -> Vec<u8> {
        debug_assert!(
            self.sink.is_none(),
            "a streaming writer's bytes are in its sink"
        );
        self.buf
    }

    /// Bytes written so far, spilled ones included.
    pub fn len(&self) -> usize {
        self.spilled + self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        if self.sink.is_some() && self.buf.len() + bytes.len() >= SNAP_CHUNK {
            self.put_spilling(bytes);
        } else {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Fill the chunk, spill it, repeat: the buffer never grows.
    fn put_spilling(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let n = bytes.len().min(SNAP_CHUNK - self.buf.len());
            self.buf.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            if self.buf.len() == SNAP_CHUNK {
                self.spill();
            }
        }
    }

    fn spill(&mut self) {
        if self.err.is_none() {
            if let Some(sink) = self.sink.as_mut() {
                self.err = sink.write_all(&self.buf).err();
            }
        }
        self.digest = fnv1a_extend(self.digest, &self.buf);
        self.spilled += self.buf.len();
        self.buf.clear();
    }

    /// Spill the tail of a streaming section; its length and digest, or
    /// the first spill error.
    fn finish(mut self) -> io::Result<(usize, u64)> {
        self.spill();
        match self.err {
            Some(e) => Err(e),
            None => Ok((self.spilled, self.digest)),
        }
    }

    /// Write a single byte.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Write a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Write a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Write a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Write an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.put(&v.to_le_bytes());
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
        self.put(s.as_bytes());
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
        // Compare against the bytes *remaining*: `pos + n` overflows for
        // a hostile length field.
        if n > self.buf.len() - self.pos {
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

    /// Read any by-value type (the target type is inferred).
    pub fn get<T: Unsnap>(&mut self) -> Result<T, SnapError> {
        T::unsnap(self)
    }

    /// Overlay a sequence whose length is fixed by the configuration:
    /// the stored count must equal the constructed one, then every
    /// element is overlaid in place.
    pub fn fixed<T: LoadSnap>(&mut self, items: &mut [T]) -> Result<(), SnapError> {
        if self.usize()? != items.len() {
            return Err(SnapError::Malformed(
                "sequence length disagrees with the configuration",
            ));
        }
        items.iter_mut().try_for_each(|it| it.load_snap(self))
    }

    /// Overlay an `Option` whose presence is fixed by the configuration.
    pub fn fixed_opt<T: LoadSnap>(&mut self, slot: &mut Option<T>) -> Result<(), SnapError> {
        match (self.bool()?, slot) {
            (true, Some(x)) => x.load_snap(self),
            (false, None) => Ok(()),
            _ => Err(SnapError::Malformed(
                "optional state disagrees with the configuration",
            )),
        }
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
///
/// [`SnapEncoder`] is the one writer of this layout; a `SnapshotFile` is
/// the layout in memory: the container's bytes in one buffer, each
/// section a range into it. [`read_file`](SnapshotFile::read_file) keeps
/// the buffer it read, so a resume holds the file once.
pub struct SnapshotFile {
    enc: SnapEncoder<Cursor<Vec<u8>>>,
}

impl fmt::Debug for SnapshotFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sizes = self.enc.index.iter().map(|(n, r)| (n, r.len()));
        f.debug_map().entries(sizes).finish()
    }
}

impl Default for SnapshotFile {
    fn default() -> Self {
        SnapshotFile::new()
    }
}

impl SnapshotFile {
    /// Empty container.
    pub fn new() -> SnapshotFile {
        SnapshotFile {
            enc: in_memory(SnapEncoder::new(Cursor::new(Vec::new()))),
        }
    }

    /// Append sections through the container encoder, in memory. `body`
    /// returns the encoder's errors, and in memory there are none.
    pub fn encode(
        &mut self,
        body: impl FnOnce(&mut SnapEncoder<Cursor<Vec<u8>>>) -> io::Result<()>,
    ) {
        in_memory(body(&mut self.enc));
    }

    /// Append a named section from a finished in-memory writer.
    pub fn add(&mut self, name: &str, w: SnapWriter<'_>) {
        let payload = w.into_bytes();
        self.encode(|enc| enc.section(name, |s| s.put(&payload)));
    }

    /// Borrow a section's payload by name.
    pub fn section(&self, name: &str) -> Result<&[u8], SnapError> {
        self.enc
            .index
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| &self.bytes()[r.clone()])
            .ok_or_else(|| SnapError::MissingSection(name.to_string()))
    }

    /// Names of all sections, in file order.
    pub fn section_names(&self) -> Vec<&str> {
        self.enc.index.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The serialized container.
    fn bytes(&self) -> &[u8] {
        self.enc.out.get_ref()
    }

    /// A copy of the serialized container.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes().to_vec()
    }

    /// Parse a container from bytes, verifying magic, version and every
    /// section digest.
    pub fn from_bytes(bytes: &[u8]) -> Result<SnapshotFile, SnapError> {
        SnapshotFile::parse(bytes.to_vec())
    }

    /// [`from_bytes`](SnapshotFile::from_bytes) over a buffer it keeps:
    /// each section becomes a range into `bytes`.
    fn parse(mut bytes: Vec<u8>) -> Result<SnapshotFile, SnapError> {
        let mut r = SnapReader::new(&bytes);
        if r.take(4)? != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let count = r.u32()? as usize;
        let mut index = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            let name = r.str()?;
            let len = r.usize()?;
            let digest = r.u64()?;
            let at = r.pos;
            if fnv1a(r.take(len)?) != digest {
                return Err(SnapError::DigestMismatch(name));
            }
            index.push((name, at..at + len));
        }
        // Bytes past the last section are not part of the container.
        let len = r.pos;
        bytes.truncate(len);
        let mut out = Cursor::new(bytes);
        out.set_position(len as u64);
        Ok(SnapshotFile {
            enc: SnapEncoder {
                out,
                start: 0,
                len,
                index,
            },
        })
    }

    /// Digest of the whole serialized container — two snapshots are
    /// bit-identical iff these match.
    pub fn digest(&self) -> u64 {
        fnv1a(self.bytes())
    }

    /// Load and parse a snapshot file from disk.
    pub fn read_file(path: &Path) -> Result<SnapshotFile, SnapError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapError::Io(format!("read {}: {e}", path.display())))?;
        SnapshotFile::parse(bytes)
    }
}

/// Unwrap the result of encoding into a `Vec`.
#[expect(
    clippy::expect_used,
    reason = "a Vec cursor fails neither a write nor a seek"
)]
fn in_memory<T>(r: io::Result<T>) -> T {
    r.expect("in-memory snapshot encoding")
}

/// The one encoder of the [`SnapshotFile`] layout, over any seekable
/// sink. Per section it writes the name and a 16-byte placeholder,
/// streams the payload through a [`SnapWriter`] that spills to the sink
/// in [`SNAP_CHUNK`]s, then seeks back to fill in the payload's length
/// and digest and the header's section count. Every sink gets the same
/// bytes; a file never holds more than one chunk of them in memory.
#[derive(Debug)]
pub struct SnapEncoder<W> {
    out: W,
    /// Where the header starts in `out`.
    start: u64,
    /// Bytes written from `start` on.
    len: usize,
    /// Each section's name and payload range, from `start`.
    index: Vec<(String, Range<usize>)>,
}

impl<W: Write + Seek> SnapEncoder<W> {
    /// Write a header that counts no section yet at `out`'s position.
    pub fn new(mut out: W) -> io::Result<SnapEncoder<W>> {
        let start = out.stream_position()?;
        let mut head = SnapWriter::new();
        head.put(&SNAP_MAGIC);
        head.u32(SNAP_VERSION);
        head.u32(0);
        let head = head.into_bytes();
        out.write_all(&head)?;
        Ok(SnapEncoder {
            out,
            start,
            len: head.len(),
            index: Vec::new(),
        })
    }

    /// Append section `name`, whose payload `body` writes.
    pub fn section(
        &mut self,
        name: &str,
        body: impl FnOnce(&mut SnapWriter<'_>),
    ) -> io::Result<()> {
        let count = u32::try_from(self.index.len() + 1)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many sections"))?;
        let mut head = SnapWriter::new();
        head.str(name);
        let fill = self.len + head.len();
        head.u64(0);
        head.u64(0);
        self.out.write_all(&head.into_bytes())?;
        let mut w = SnapWriter::streaming(&mut self.out);
        body(&mut w);
        let (len, digest) = w.finish()?;
        let payload = fill + 16;
        self.len = payload + len;
        self.write_at(
            fill,
            &[(len as u64).to_le_bytes(), digest.to_le_bytes()].concat(),
        )?;
        self.write_at(8, &count.to_le_bytes())?;
        self.out
            .seek(SeekFrom::Start(self.start + self.len as u64))?;
        self.index.push((name.to_string(), payload..self.len));
        Ok(())
    }

    fn write_at(&mut self, at: usize, bytes: &[u8]) -> io::Result<()> {
        self.out.seek(SeekFrom::Start(self.start + at as u64))?;
        self.out.write_all(bytes)
    }
}

/// The one durability routine: `body` writes the file into a temp
/// sibling of `path`, which is fsynced, then renamed over `path`, and
/// the rename is made durable by syncing the directory. A crash leaves
/// the old file or the new one, never a torn one. An error from `body`,
/// the fsync or the rename removes the temp file and leaves `path` as
/// it was.
pub fn write_atomic_with(
    path: &Path,
    body: impl FnOnce(&mut File) -> io::Result<()>,
) -> Result<(), SnapError> {
    let io = |e: io::Error| SnapError::Io(format!("{}: {e}", path.display()));
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let tmp = path.with_extension("tmp~");
    let written = File::create(&tmp)
        .and_then(|mut f| {
            body(&mut f)?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        // Best effort: the error being reported is the write's.
        let _ = std::fs::remove_file(&tmp);
    }
    written.map_err(io)?;
    #[cfg(unix)]
    File::open(dir.unwrap_or(Path::new(".")))
        .and_then(|d| d.sync_all())
        .map_err(io)?;
    Ok(())
}

/// [`write_atomic_with`] for bytes already in memory.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapError> {
    write_atomic_with(path, |f| f.write_all(bytes))
}

// ---------------------------------------------------------------------------
// The layout traits, their blanket impls and the declaration macros.
// ---------------------------------------------------------------------------

/// Writer half of a snapshot layout: append this value's wire form.
pub trait Snap {
    /// Serialize `self` (checkpointing).
    fn snap(&self, w: &mut SnapWriter);
}

/// Restore shape 1 — *by value*: the bytes alone rebuild the value.
pub trait Unsnap: Snap + Sized {
    /// Rebuild a value from [`Snap::snap`] output.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Restore shape 2 — *construct-then-overlay*: `self` was freshly built
/// from the run configuration; overwrite its dynamic state from
/// [`Snap::snap`] output, keeping whatever the configuration fixed.
/// Object-safe. Every [`Unsnap`] type gets it for free (the overlay
/// replaces the value).
pub trait LoadSnap: Snap {
    /// Overlay checkpointed state onto `self`.
    fn load_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl<T: Unsnap> LoadSnap for T {
    fn load_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = T::unsnap(r)?;
        Ok(())
    }
}

impl<T: Snap + ?Sized> Snap for &T {
    fn snap(&self, w: &mut SnapWriter) {
        (**self).snap(w);
    }
}

/// Primitives: `type: codec-method(deref)`.
macro_rules! snap_prims {
    ($($ty:ty: $m:ident($($deref:tt)?)),* $(,)?) => {$(
        impl Snap for $ty {
            fn snap(&self, w: &mut SnapWriter) {
                w.$m($($deref)? self);
            }
        }
        impl Unsnap for $ty {
            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$m()
            }
        }
    )*};
}
snap_prims!(
    u8: u8(*), u16: u16(*), u32: u32(*), u64: u64(*), i64: i64(*), usize: usize(*),
    f64: f64(*), bool: bool(*), Time: time(*), Dur: dur(*), String: str(),
);

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(x) = self {
            x.snap(w);
        }
    }
}
impl<T: Unsnap> Unsnap for Option<T> {
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(if r.bool()? { Some(r.get()?) } else { None })
    }
}

/// Length-prefixed collections: `[params: extra reader bound] Type, of Item;`.
macro_rules! snap_seqs {
    ($([$($p:ident $(: $b:ident)?),+] $ty:ty, of $item:ty;)*) => {$(
        impl<$($p: Snap),+> Snap for $ty {
            fn snap(&self, w: &mut SnapWriter) {
                w.seq(self.iter(), |w, x| x.snap(w));
            }
        }
        impl<$($p: Unsnap $(+ $b)?),+> Unsnap for $ty {
            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(r.seq(<$item>::unsnap)?.into_iter().collect())
            }
        }
    )*};
}
snap_seqs! {
    [T] Vec<T>, of T;
    [T] VecDeque<T>, of T;
    [K: Ord, V] BTreeMap<K, V>, of (K, V);
}

/// Tuples travel field by field, no framing.
macro_rules! snap_tuples {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn snap(&self, w: &mut SnapWriter) {
                $(self.$i.snap(w);)+
            }
        }
        impl<$($t: Unsnap),+> Unsnap for ($($t,)+) {
            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($t::unsnap(r)?,)+))
            }
        }
    )*};
}
snap_tuples!((A.0, B.1)(A.0, B.1, C.2));

/// Declare a struct's snapshot layout **once**: an ordered list of the
/// persisted fields, from which writer and reader are both generated.
///
/// ```
/// use outran_simcore::snap::{SnapReader, SnapWriter, Snap, Unsnap};
///
/// #[derive(Debug, PartialEq)]
/// struct Counter { hits: u64, label: String, scratch: Vec<u8> }
/// outran_simcore::snap_fields! { Counter { hits, label } rebuilt { scratch } }
///
/// let mut w = SnapWriter::new();
/// Counter { hits: 3, label: "x".into(), scratch: vec![9] }.snap(&mut w);
/// let bytes = w.into_bytes();
/// let back = Counter::unsnap(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!(back, Counter { hits: 3, label: "x".into(), scratch: vec![] });
/// ```
///
/// Two shapes, matching the two restore traits:
///
/// * `Type { a, b } [rebuilt { c }] [then path]` — by value: implements
///   [`Snap`] + [`Unsnap`]; `rebuilt` fields start as `Default` and the
///   optional `then` step (`fn(&mut Self) -> Result<(), SnapError>`)
///   derives them and validates cross-field conditions.
/// * `overlay Type { a, b: fixed, c: fixed_opt } [rebuilt { d }] [then path]`
///   — construct-then-overlay: implements [`Snap`] + [`LoadSnap`]; each
///   field is overlaid with its own `load_snap`, or through the named
///   [`SnapReader`] helper ([`SnapReader::fixed`] for a length the
///   configuration fixes, [`SnapReader::fixed_opt`] for a presence).
///
/// Fields are named by identifier or tuple index (`Wrapper { 0 }`), and
/// one list of type parameters is accepted (`Queue<T> { .. }`, each
/// bounded by [`Unsnap`]). The writer destructures `Self { .. }`
/// *exhaustively*, so a field in neither list does not build:
///
/// ```compile_fail
/// struct Leaky { kept: u64, forgotten: u64 }
/// outran_simcore::snap_fields! { Leaky { kept } }
/// ```
#[macro_export]
macro_rules! snap_fields {
    (
        $ty:ident $(<$($g:ident),+>)? { $($f:tt),* $(,)? }
        $(rebuilt { $($d:tt),* $(,)? })?
        $(then $post:path)?
    ) => {
        impl $(<$($g: $crate::snap::Unsnap),+>)? $crate::snap::Snap for $ty $(<$($g),+>)? {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                let Self { $($f: _,)* $($($d: _,)*)? } = self;
                $($crate::snap::Snap::snap(&self.$f, w);)*
            }
        }
        impl $(<$($g: $crate::snap::Unsnap),+>)? $crate::snap::Unsnap for $ty $(<$($g),+>)? {
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapError> {
                #[allow(unused_mut, reason = "mutated only by a `then` hook")]
                let mut v = Self {
                    $($f: $crate::snap::Unsnap::unsnap(r)?,)*
                    $($($d: ::std::default::Default::default(),)*)?
                };
                $($post(&mut v)?;)?
                Ok(v)
            }
        }
    };
    (
        overlay $ty:ident $(<$($g:ident),+>)?
        { $($f:tt $(: $how:ident)?),* $(,)? }
        $(rebuilt { $($d:tt),* $(,)? })?
        $(then $post:path)?
    ) => {
        impl $(<$($g: $crate::snap::Unsnap),+>)? $crate::snap::Snap for $ty $(<$($g),+>)? {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                #[allow(unused_imports, reason = "the caller may have the trait in scope")]
                use $crate::snap::Snap as _;
                let Self { $($f: _,)* $($($d: _,)*)? } = self;
                $(self.$f.snap(w);)*
            }
        }
        impl $(<$($g: $crate::snap::Unsnap),+>)? $crate::snap::LoadSnap for $ty $(<$($g),+>)? {
            fn load_snap(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<(), $crate::snap::SnapError> {
                #[allow(unused_imports, reason = "unused when every field loads by helper")]
                use $crate::snap::LoadSnap as _;
                $($crate::snap_fields!(@load self r $f $($how)?);)*
                $($post(self)?;)?
                Ok(())
            }
        }
    };
    (@load $s:ident $r:ident $f:tt) => { $s.$f.load_snap($r)? };
    (@load $s:ident $r:ident $f:tt $how:ident) => { $r.$how(&mut $s.$f)? };
}

/// Declare an enum's snapshot layout once: a `u8` tag per variant, then
/// the variant's fields in the listed order. `what` names the enum in
/// the `Malformed` error an unknown (or, for `overlay`, disagreeing)
/// tag yields. The generated `match self` is exhaustive, so an unlisted
/// variant does not build.
///
/// * `Type, what { 0 => Unit, 1 => Tuple(a, b), 2 => Struct { x, y } }`
///   — by value ([`Snap`] + [`Unsnap`]).
/// * `overlay Type, what { 0 => A(a), 1 => B(b) }` — single-payload
///   variants whose payloads restore by overlay ([`Snap`] +
///   [`LoadSnap`]): the variant was fixed at construction, so the
///   stored tag must equal the constructed one.
#[macro_export]
macro_rules! snap_enum {
    (
        $ty:ident, $what:literal
        { $($tag:literal => $v:ident $({ $($f:ident),* $(,)? })? $(( $($t:ident),* ))?),* $(,)? }
    ) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self {$(
                    Self::$v $({ $($f),* })? $(( $($t),* ))? => {
                        w.u8($tag);
                        $($($crate::snap::Snap::snap($f, w);)*)?
                        $($($crate::snap::Snap::snap($t, w);)*)?
                    }
                )*}
            }
        }
        impl $crate::snap::Unsnap for $ty {
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapError> {
                Ok(match r.u8()? {
                    $($tag => Self::$v
                        $({ $($f: r.get()?),* })?
                        $(( $($crate::snap_enum!(@get r $t)),* ))?,)*
                    _ => return Err($crate::snap::SnapError::Malformed($what)),
                })
            }
        }
    };
    (overlay $ty:ident, $what:literal { $($tag:literal => $v:ident($p:ident)),* $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self {$(
                    Self::$v($p) => {
                        w.u8($tag);
                        $crate::snap::Snap::snap($p, w);
                    }
                )*}
            }
        }
        impl $crate::snap::LoadSnap for $ty {
            fn load_snap(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<(), $crate::snap::SnapError> {
                match (r.u8()?, self) {
                    $(($tag, Self::$v($p)) => $crate::snap::LoadSnap::load_snap($p, r),)*
                    _ => Err($crate::snap::SnapError::Malformed($what)),
                }
            }
        }
    };
    (@get $r:ident $t:ident) => { $r.get()? };
}

/// Declare a set of event counters **once**: a struct of documented
/// `pub u64` fields, from which the derives (`Debug`, `Clone`, `Copy`,
/// `Default`, `PartialEq`, `Eq`), `merge`, `rows`, `total_events` and
/// the snapshot layout (through [`snap_fields!`](crate::snap_fields),
/// in declaration order) are all generated, so no list can miss a field.
///
/// ```
/// outran_simcore::counters! {
///     /// What a toy link did.
///     pub struct LinkStats {
///         /// Packets sent.
///         pub sent: u64,
///         /// Packets dropped.
///         pub dropped: u64,
///     }
/// }
///
/// let mut a = LinkStats { sent: 3, dropped: 1 };
/// a.merge(&LinkStats { sent: 2, dropped: 0 });
/// assert_eq!(a.rows(), [("sent", 5), ("dropped", 1)]);
/// assert_eq!(a.total_events(), 6);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $ty:ident {
            $($(#[$fmeta:meta])* pub $f:ident: u64),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $ty {
            $($(#[$fmeta])* pub $f: u64,)*
        }

        impl $ty {
            /// Add every counter of `other` into this one.
            pub fn merge(&mut self, other: &Self) {
                $(self.$f += other.$f;)*
            }

            /// `(label, value)` rows for summary tables, in declaration
            /// order.
            pub fn rows(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                ::std::vec![$((::std::stringify!($f), self.$f)),*]
            }

            /// Sum of every counter (a quick "anything happened?" signal).
            pub fn total_events(&self) -> u64 {
                0 $(+ self.$f)*
            }
        }

        $crate::snap_fields! { $ty { $($f),* } }
    };
}

// ---------------------------------------------------------------------------
// Layouts of simcore's own stateful types. These live here (same crate)
// so the types' fields can stay private.
// ---------------------------------------------------------------------------

/// Irregular: the four raw xoshiro256** words with no length prefix,
/// and the all-zero state (the generator's one fixed point) is refused.
impl Snap for Rng {
    fn snap(&self, w: &mut SnapWriter) {
        for &word in self.state() {
            w.u64(word);
        }
    }
}
impl Unsnap for Rng {
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Rng, SnapError> {
        let s = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if s == [0, 0, 0, 0] {
            return Err(SnapError::Malformed("all-zero rng state"));
        }
        Ok(Rng::from_state(s))
    }
}

// Exact bit patterns, including the ±infinity min/max sentinels of an
// empty accumulator.
snap_fields! { RunningStats { n, mean, m2, min, max } }

impl Ewma {
    fn check_alpha(&mut self) -> Result<(), SnapError> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(SnapError::Malformed("ewma alpha out of range"));
        }
        Ok(())
    }
}
// The priming flag travels: an unprimed average must stay unprimed
// across a resume — `get()` masks the difference but `update()` does not.
snap_fields! { Ewma { alpha, value, primed } then Ewma::check_alpha }

// Retained samples travel in their *current* order plus the lazy-sort
// flag: `percentile()` reorders samples in place, so capturing order is
// required for bit-identical resumption.
snap_fields! { Percentiles { sorted, samples } }

/// Irregular: which tier holds an event depends on the queue's history,
/// so the wire form is the `(time, seq)`-sorted dump of pending events with
/// their exact sequence numbers, behind the allocation counter — a
/// restored queue pops in the identical order and continues numbering
/// where the original left off.
impl<E: Snap> Snap for EventQueue<E> {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.seq_counter());
        w.seq(self.sorted_entries().into_iter(), |w, (t, seq, e)| {
            w.time(t);
            w.u64(seq);
            e.snap(w);
        });
    }
}
impl<E: Unsnap> Unsnap for EventQueue<E> {
    fn unsnap(r: &mut SnapReader<'_>) -> Result<EventQueue<E>, SnapError> {
        let counter = r.u64()?;
        let mut q = EventQueue::new();
        for (t, seq, e) in r.get::<Vec<(Time, u64, E)>>()? {
            if seq >= counter {
                return Err(SnapError::Malformed("event seq beyond counter"));
            }
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
        Some(9u64).snap(&mut w);
        None::<u64>.snap(&mut w);
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
        assert_eq!(r.get::<Option<u64>>().unwrap(), Some(9));
        assert_eq!(r.get::<Option<u64>>().unwrap(), None);
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

    /// A hostile `u64::MAX` length must compare against the bytes
    /// remaining, not overflow `pos + n` — in a string, in a section
    /// name, and in a section's `payload_len` (all read before any
    /// digest is verified).
    #[test]
    fn absurd_length_fields_are_truncation_not_overflow() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            SnapReader::new(&bytes).str(),
            Err(SnapError::Truncated)
        ));

        let mut f = SnapshotFile::new();
        let mut w = SnapWriter::new();
        w.u64(7);
        f.add("meta", w);
        let good = f.to_bytes();
        // magic 4 | version 4 | count 4 | name_len 8 | "meta" 4 | payload_len 8 | …
        for field_at in [12, 24] {
            let mut bad = good.clone();
            bad[field_at..field_at + 8].fill(0xFF);
            assert!(
                matches!(SnapshotFile::from_bytes(&bad), Err(SnapError::Truncated)),
                "length field at byte {field_at}"
            );
        }
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
        q.snap(&mut w);
        let bytes = w.into_bytes();
        let mut back = EventQueue::<u32>::unsnap(&mut SnapReader::new(&bytes)).unwrap();
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

    /// A fresh directory under the system temp dir.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("outran-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The container layout written field by field from finished
    /// payloads, independently of [`SnapEncoder`].
    fn reference(sections: &[(String, Vec<u8>)]) -> Vec<u8> {
        let mut out = SNAP_MAGIC.to_vec();
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for (name, payload) in sections {
            out.extend_from_slice(&(name.len() as u64).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Write `payload` in pieces of 1 to 40 bytes through the codec's
    /// own calls, so chunk boundaries fall inside a write.
    fn write_pieces(w: &mut SnapWriter<'_>, payload: &[u8], rng: &mut Rng) {
        let mut rest = payload;
        while !rest.is_empty() {
            let n = (1 + rng.index(40)).min(rest.len());
            let (piece, tail) = rest.split_at(n);
            match piece.len() {
                1 => w.u8(piece[0]),
                8 => w.u64(u64::from_le_bytes(piece.try_into().unwrap())),
                _ => piece.iter().for_each(|&b| w.u8(b)),
            }
            rest = tail;
        }
    }

    /// Sections of 0, one chunk less one, one chunk, one chunk more one
    /// and several chunks, streamed to a file through the durability
    /// routine and encoded in memory: both are the reference bytes, and
    /// both read back section by section.
    #[test]
    fn streamed_sections_equal_the_reference_layout() {
        let dir = scratch_dir("stream");
        let path = dir.join("s.orsn");
        crate::check("streamed_sections_equal_the_reference_layout", 8, |rng| {
            let several = 3 * SNAP_CHUNK + rng.index(SNAP_CHUNK);
            let sizes = [0, SNAP_CHUNK - 1, SNAP_CHUNK, SNAP_CHUNK + 1, several];
            let sections: Vec<(String, Vec<u8>)> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let payload = (0..n).map(|_| rng.below(256) as u8).collect();
                    (format!("s{i}"), payload)
                })
                .collect();
            let want = reference(&sections);

            let (mut a, mut b) = (rng.clone(), rng.clone());
            write_atomic_with(&path, |f| {
                let mut enc = SnapEncoder::new(f)?;
                for (name, payload) in &sections {
                    enc.section(name, |w| write_pieces(w, payload, &mut a))?;
                }
                Ok(())
            })
            .unwrap();
            assert!(std::fs::read(&path).unwrap() == want, "streamed file");

            let mut file = SnapshotFile::new();
            for (name, payload) in &sections {
                file.encode(|enc| enc.section(name, |w| write_pieces(w, payload, &mut b)));
            }
            assert!(file.to_bytes() == want, "in-memory encoding");

            let back = SnapshotFile::read_file(&path).unwrap();
            for (name, payload) in &sections {
                assert!(back.section(name).unwrap() == payload.as_slice(), "{name}");
                assert!(file.section(name).unwrap() == payload.as_slice(), "{name}");
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Streaming a multi-MiB section, in small writes and in one write
    /// of several chunks, never grows the writer's buffer past a chunk,
    /// and `len()` counts every byte.
    #[test]
    fn streaming_holds_at_most_one_chunk() {
        let big = vec![7u8; 3 * SNAP_CHUNK + 5];
        let mut enc = SnapEncoder::new(Cursor::new(Vec::new())).unwrap();
        enc.section("big", |w| {
            let mut written = 0;
            for i in 0..(2 << 20) / 8 {
                w.u64(i);
                written += 8;
                assert!(w.buf.capacity() <= SNAP_CHUNK);
            }
            w.str(std::str::from_utf8(&big).unwrap());
            written += 8 + big.len();
            assert!(w.buf.capacity() <= SNAP_CHUNK);
            assert_eq!(w.len(), written);
        })
        .unwrap();
        let len = enc.index[0].1.len();
        assert_eq!(len, (2 << 20) + 8 + big.len());
    }

    /// A sink that accepts `left` bytes and fails the next write. After
    /// that it fails every write, or, if it `recovers`, none: a write
    /// path that ignored the one failure would rename a file with a
    /// hole in it.
    struct FailAfter<'a> {
        inner: &'a mut File,
        left: Option<usize>,
        recovers: bool,
    }

    impl Write for FailAfter<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.left {
                Some(0) => {
                    self.left = if self.recovers { None } else { Some(0) };
                    Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
                }
                Some(left) => {
                    let n = buf.len().min(left);
                    self.left = Some(left - n);
                    self.inner.write(&buf[..n])
                }
                None => self.inner.write(buf),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl Seek for FailAfter<'_> {
        fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
            self.inner.seek(to)
        }
    }

    /// A sink that fails after N bytes — in the header, in a section
    /// head, in the first spill, in a later spill, in the tail — once or
    /// for good, makes the write an `Io` error that renames nothing: the
    /// destination keeps its previous bytes and no temp sibling remains.
    #[test]
    fn a_failed_write_leaves_the_old_file_and_no_temp_file() {
        let dir = scratch_dir("fail");
        let path = dir.join("ckpt.orsn");
        write_atomic(&path, b"previous").unwrap();
        let payload = vec![1u8; 2 * SNAP_CHUNK + 100];
        // Header 12 bytes, `meta` 28 + 8 + its 20 patched, `cell.0`'s
        // head 30: its payload starts at byte 98 of what the sink takes.
        let fail_ats = [0, 13, 30, 100, SNAP_CHUNK + 40, 2 * SNAP_CHUNK + 100];
        for (fail_at, recovers) in fail_ats.into_iter().flat_map(|n| [(n, false), (n, true)]) {
            let mut body_ran_to_its_end = false;
            let result = write_atomic_with(&path, |f| {
                let mut sink = FailAfter {
                    inner: f,
                    left: Some(fail_at),
                    recovers,
                };
                let mut enc = SnapEncoder::new(&mut sink)?;
                enc.section("meta", |w| w.u64(1))?;
                enc.section("cell.0", |w| {
                    payload.iter().for_each(|&b| w.u8(b));
                    body_ran_to_its_end = true;
                })
            });
            assert!(
                matches!(&result, Err(SnapError::Io(e)) if e.contains("disk full")),
                "fail at {fail_at} ({recovers}): {result:?}"
            );
            // A spill error is kept, not raised, so the layout that hit
            // it still runs to its end; a failed head starts no layout.
            assert_eq!(body_ran_to_its_end, fail_at >= 98, "fail at {fail_at}");
            assert_eq!(std::fs::read(&path).unwrap(), b"previous", "{fail_at}");
            assert!(!path.with_extension("tmp~").exists(), "{fail_at}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The helpers that pin a shape to the configuration refuse any
    /// other shape instead of adopting it.
    #[test]
    fn fixed_shapes_refuse_a_different_length_or_presence() {
        let mut w = SnapWriter::new();
        vec![1u64, 2].snap(&mut w);
        Some(5u32).snap(&mut w);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        let (mut two, mut slot) = ([0u64; 2], Some(0u32));
        r.fixed(&mut two).unwrap();
        r.fixed_opt(&mut slot).unwrap();
        assert!(r.is_exhausted());
        assert_eq!((two, slot), ([1, 2], Some(5)));

        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.fixed(&mut [0u64; 3]),
            Err(SnapError::Malformed(_))
        ));
        let mut r = SnapReader::new(&bytes[24..]);
        assert!(matches!(
            r.fixed_opt(&mut None::<u32>),
            Err(SnapError::Malformed(_))
        ));
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Unit,
        Pair(u8, Time),
        Named { id: u64, tags: Vec<u16> },
    }
    snap_enum! { Shape, "unknown shape tag" {
        0 => Unit,
        1 => Pair(a, b),
        2 => Named { id, tags },
    } }

    #[derive(Debug, PartialEq)]
    struct Wrapper(u32);
    snap_fields! { Wrapper { 0 } }

    /// Overlay shape with both field markers: `limit` is configuration
    /// and must survive, `lanes` has a configured length, `spare` a
    /// configured presence.
    #[derive(Debug, PartialEq)]
    struct Lanes {
        limit: u32,
        lanes: Vec<u64>,
        spare: Option<u64>,
        total: u64,
    }
    impl Lanes {
        fn retotal(&mut self) -> Result<(), SnapError> {
            self.total = self.lanes.iter().sum();
            Ok(())
        }
    }
    snap_fields! {
        overlay Lanes { lanes: fixed, spare: fixed_opt }
        rebuilt { limit, total }
        then Lanes::retotal
    }

    fn roundtrip<T: Unsnap + PartialEq + std::fmt::Debug>(x: &T) {
        let mut w = SnapWriter::new();
        x.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(&T::unsnap(&mut r).unwrap(), x);
        assert!(r.is_exhausted(), "reader not exhausted");
        // No strict prefix decodes: truncation is an error, never a panic.
        for cut in 0..bytes.len() {
            assert!(T::unsnap(&mut SnapReader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn macro_generated_layouts_roundtrip() {
        roundtrip(&Shape::Unit);
        roundtrip(&Shape::Pair(9, Time::from_millis(4)));
        roundtrip(&Shape::Named {
            id: 77,
            tags: vec![1, 2, 3],
        });
        roundtrip(&Wrapper(0xABCD));
        assert!(matches!(
            Shape::unsnap(&mut SnapReader::new(&[9])),
            Err(SnapError::Malformed("unknown shape tag"))
        ));

        let src = Lanes {
            limit: 1,
            lanes: vec![3, 4],
            spare: Some(5),
            total: 7,
        };
        let mut w = SnapWriter::new();
        src.snap(&mut w);
        let bytes = w.into_bytes();
        let mut dst = Lanes {
            limit: 8,
            lanes: vec![0, 0],
            spare: Some(0),
            total: 0,
        };
        dst.load_snap(&mut SnapReader::new(&bytes)).unwrap();
        let want = Lanes {
            limit: 8,
            lanes: vec![3, 4],
            spare: Some(5),
            total: 7,
        };
        assert_eq!(dst, want);
        dst.lanes.push(0);
        assert!(dst.load_snap(&mut SnapReader::new(&bytes)).is_err());
    }

    /// `T::unsnap(snap(x)) == x` with the reader exhausted, for
    /// every blanket impl (floats compare by bit pattern upstream;
    /// here they are finite so `==` is exact).
    #[test]
    fn blanket_impls_roundtrip() {
        crate::check("blanket_impls_roundtrip", 64, |rng| {
            let a = rng.next_u64_raw();
            let b = rng.next_u64_raw() as u32;
            let c = rng.below(0x1_0000) as u16;
            let d = rng.below(256) as u8;
            let signed = rng.next_u64_raw() as i64;
            let x = rng.range_f64(-1e12, 1e12);
            let flag = rng.chance(0.5);
            let words: Vec<u64> = (0..rng.index(6)).map(|_| rng.next_u64_raw()).collect();
            let keys: Vec<(usize, u64)> = (0..rng.index(6))
                .map(|_| (rng.index(50), rng.below(50)))
                .collect();
            roundtrip(&(a, b, c));
            roundtrip(&(d, signed, a as usize));
            roundtrip(&(x, flag));
            roundtrip(&(Time::from_nanos(a), Dur::from_nanos(signed as u64)));
            roundtrip(&format!("s{a:x}"));
            roundtrip(&flag.then_some(b));
            roundtrip(&words);
            roundtrip(&words.iter().copied().collect::<VecDeque<u64>>());
            let nested: BTreeMap<(usize, u64), Vec<Option<Time>>> = keys
                .iter()
                .map(|&(k, v)| {
                    let times = (0..v % 4)
                        .map(|i| (i != 1).then_some(Time::from_nanos(v + i)))
                        .collect();
                    ((k, v), times)
                })
                .collect();
            roundtrip(&nested);
        });
    }

    crate::counters! {
        /// Three counters, to check what `counters!` generates.
        struct Tally {
            /// First.
            pub a: u64,
            /// Second.
            pub b: u64,
            /// Third.
            pub c: u64,
        }
    }

    #[test]
    fn counters_generate_every_field_list() {
        crate::check("counters", 64, |rng| {
            let mut draw = || Tally {
                a: rng.below(1 << 40),
                b: rng.below(1 << 40),
                c: rng.below(1 << 40),
            };
            let (x, y) = (draw(), draw());
            let mut sum = x;
            sum.merge(&y);
            assert_eq!(
                sum,
                Tally {
                    a: x.a + y.a,
                    b: x.b + y.b,
                    c: x.c + y.c,
                }
            );
            assert_eq!(x.rows(), [("a", x.a), ("b", x.b), ("c", x.c)]);
            assert_eq!(x.total_events(), x.a + x.b + x.c);
            roundtrip(&x);
            let mut w = SnapWriter::new();
            x.snap(&mut w);
            assert_eq!(w.into_bytes().len(), 3 * 8, "one u64 a field");
        });
    }
}
