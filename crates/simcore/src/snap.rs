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
//! * [`SnapTrace`] — what a *tracing* writer ([`SnapWriter::tracing`])
//!   records beside the bytes: per primitive, the field path the layouts
//!   named (`ingress.flows[3].size`), its [`SnapKind`], its byte span and
//!   its field's domain.
//!   The layouts stay the one description of the wire format: a test
//!   addresses a field by path instead of by a hand-computed offset, and
//!   a mutator can write kind-typed hostile values into each
//!   [`SnapField`] of a real checkpoint section. The trace only reads:
//!   the bytes are the plain writer's.
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
//!   tagged-variant) list with each field's domain; writer, reader and
//!   restore checks are generated from it, so they cannot disagree, and
//!   the writer names each field ([`SnapWriter::open`]) and each tag
//!   ([`SnapWriter::tag`]) for a trace. The struct form destructures
//!   `Self { .. }` exhaustively: a field that is neither persisted nor
//!   named under `rebuilt` is a compile error.
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
//! lives ([`Rng`], [`EventQueue`] and the ingress flow table's
//! records, each open one followed by its endpoints, in `outran-ran`). What one writes
//! bare shares its own path; the layouts it calls name theirs.
//!
//! A layout names each field's legal values once, as a **domain**
//! (`offset in lt(len)`; on a sequence or option, each element's): one
//! or more kinds joined by `&`. `counter` is an integer, a clock's
//! nanoseconds included, at most a quarter of its type's range (2^62 for
//! 64 bits), so its own increments cannot overflow; `finite` and `sign`
//! (exactly ±1) are a float's; `lt le eq ge gt (b)` compare with a
//! literal or a sibling field; `index(space)` is an id into a table the
//! layout does not own: the reader keeps the largest id read per space,
//! and the table's owner checks it once after its own load (a `spaces`
//! clause, [`SnapReader::check_space`]). Restore checks a layout's
//! domains in one call to one out-of-line checker ([`check_domains`]),
//! which reads each from the text it refuses a value with; `then` hooks
//! keep what involves several fields at once (a sum, a pairing). A trace
//! records each number's domain, so a mutator can write its edges.

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
pub const SNAP_VERSION: u32 = 5;

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
///
/// A *tracing* writer ([`SnapWriter::tracing`]) also records, for every
/// primitive it writes, the field path the layouts named on the way
/// down, the primitive's [`SnapKind`] and its byte span: a
/// [`SnapTrace`]. The layouts name their fields whatever the writer;
/// outside trace mode a name costs one call per field that returns at
/// once.
pub struct SnapWriter<'s> {
    buf: Vec<u8>,
    sink: Option<&'s mut dyn Write>,
    /// Bytes already spilled to `sink`.
    spilled: usize,
    /// FNV-1a state over the spilled bytes.
    digest: u64,
    err: Option<io::Error>,
    trace: Option<Box<Tracer>>,
}

/// A tracing writer's state: the path of the field being written, one
/// frame per layout it is inside, and the primitives recorded so far.
#[derive(Debug, Default)]
struct Tracer {
    path: String,
    frames: Vec<Frame>,
    fields: Vec<SnapField>,
}

/// A layout being traced: the path's length where it starts, the names
/// of its fields still to come, each ended by a `,` (none for a
/// sequence, whose elements are named `[i]` and keep its domain), how
/// many came before, and the domain of the field being written.
#[derive(Debug)]
struct Frame {
    mark: usize,
    names: &'static str,
    next: usize,
    domain: &'static str,
}

/// What one primitive of a payload is: the writer method that wrote
/// it, a sequence's length prefix, or an enum's tag byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SnapKind {
    /// [`SnapWriter::u8`].
    U8,
    /// [`SnapWriter::u16`].
    U16,
    /// [`SnapWriter::u32`].
    U32,
    /// [`SnapWriter::u64`].
    U64,
    /// [`SnapWriter::i64`].
    I64,
    /// [`SnapWriter::usize`].
    Usize,
    /// [`SnapWriter::f64`].
    F64,
    /// [`SnapWriter::bool`].
    Bool,
    /// [`SnapWriter::time`].
    Time,
    /// [`SnapWriter::dur`].
    Dur,
    /// [`SnapWriter::str`]: its length prefix and its bytes.
    Str,
    /// The length prefix of [`SnapWriter::seq`].
    Len,
    /// An enum's tag ([`SnapWriter::tag`]).
    Tag,
}

/// One primitive of a traced payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapField {
    /// Field names from the payload's root, `.`-separated, with `[i]`
    /// for the `i`-th element of a sequence (`ingress.flows[3].size`).
    /// A hand-written layout names nothing below its own field, so its
    /// primitives share that path.
    pub path: String,
    /// What was written.
    pub kind: SnapKind,
    /// Where its bytes lie in the payload.
    pub span: Range<usize>,
    /// The domain of the field it is written under (`counter & le(9)`).
    pub domain: &'static str,
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
            trace: None,
        }
    }

    /// An in-memory writer that traces every primitive it writes.
    pub fn tracing() -> SnapWriter<'s> {
        SnapWriter {
            trace: Some(Box::default()),
            ..SnapWriter::new()
        }
    }

    /// Finished payload bytes of an in-memory writer and, if it was
    /// [`tracing`](SnapWriter::tracing), their trace (else an empty one).
    pub fn into_traced(mut self) -> (Vec<u8>, SnapTrace) {
        let fields = self.trace.take().map(|t| t.fields).unwrap_or_default();
        (self.into_bytes(), SnapTrace(fields))
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

    /// Write one primitive of `kind`: the one copy of the write path
    /// the primitive methods share.
    #[inline(never)]
    fn prim(&mut self, kind: SnapKind, bytes: &[u8]) {
        if self.trace.is_some() {
            self.record(kind, bytes.len());
        }
        self.put(bytes);
    }

    /// Trace the `len` bytes about to be written as one `kind`.
    #[cold]
    #[inline(never)]
    fn record(&mut self, kind: SnapKind, len: usize) {
        let at = self.len();
        if let Some(t) = self.trace.as_deref_mut() {
            t.fields.push(SnapField {
                path: t.path.clone(),
                kind,
                span: at..at + len,
                domain: t.frames.last().map_or("", |f| f.domain),
            });
        }
    }

    /// Start a layout whose fields a trace names `names` (each ended by
    /// a `,`, a domain after ` in `: `"id,len,offset in lt(len),"`), in
    /// order, each as the layout writes it after a
    /// [`next`](SnapWriter::next): what the layout macros emit. The three
    /// calls stay out of line, so a layout costs a plain writer one call
    /// per field.
    #[inline(never)]
    pub fn open(&mut self, names: &'static str) {
        if let Some(t) = self.trace.as_deref_mut() {
            let mark = t.path.len();
            let domain = t.frames.last().map_or("", |f| f.domain);
            t.frames.push(Frame {
                mark,
                names,
                next: 0,
                domain,
            });
        }
    }

    /// Name what follows as the open layout's next field, or for a
    /// sequence, its next element `[i]`.
    #[inline(never)]
    pub fn next(&mut self) {
        if let Some(t) = self.trace.as_deref_mut() {
            if let Some(f) = t.frames.last_mut() {
                t.path.truncate(f.mark);
                match f.names.split_once(',') {
                    Some((name, rest)) => {
                        // `name` or `name in domain`: a name has no space.
                        let (name, domain) = match name.split_once(' ') {
                            Some((name, domain)) => (name, domain.trim_start_matches("in ")),
                            None => (name, ""),
                        };
                        push_name(&mut t.path, name);
                        f.domain = domain;
                        f.names = rest;
                    }
                    None => t.path.push_str(&format!("[{}]", f.next)),
                }
                f.next += 1;
            }
        }
    }

    /// End the layout the matching [`open`](SnapWriter::open) started.
    #[inline(never)]
    pub fn close(&mut self) {
        if let Some(t) = self.trace.as_deref_mut() {
            if let Some(f) = t.frames.pop() {
                t.path.truncate(f.mark);
            }
        }
    }

    /// Write an enum's tag byte.
    pub fn tag(&mut self, v: u8) {
        self.prim(SnapKind::Tag, &[v]);
    }

    /// Write a single byte.
    pub fn u8(&mut self, v: u8) {
        self.prim(SnapKind::U8, &[v]);
    }

    /// Write a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.prim(SnapKind::U16, &v.to_le_bytes());
    }

    /// Write a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.prim(SnapKind::U32, &v.to_le_bytes());
    }

    /// Write a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.prim(SnapKind::U64, &v.to_le_bytes());
    }

    /// Write an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.prim(SnapKind::I64, &v.to_le_bytes());
    }

    /// Write a `usize` (as `u64`; the simulator never exceeds that).
    pub fn usize(&mut self, v: usize) {
        self.prim(SnapKind::Usize, &(v as u64).to_le_bytes());
    }

    /// Write an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.prim(SnapKind::F64, &v.to_bits().to_le_bytes());
    }

    /// Write a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.prim(SnapKind::Bool, &[v as u8]);
    }

    /// Write a [`Time`] instant.
    pub fn time(&mut self, t: Time) {
        self.prim(SnapKind::Time, &t.as_nanos().to_le_bytes());
    }

    /// Write a [`Dur`] span.
    pub fn dur(&mut self, d: Dur) {
        self.prim(SnapKind::Dur, &d.as_nanos().to_le_bytes());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        if self.trace.is_some() {
            self.record(SnapKind::Str, 8 + s.len());
        }
        self.put(&(s.len() as u64).to_le_bytes());
        self.put(s.as_bytes());
    }

    /// Write a sequence's length prefix and open its elements.
    #[inline(never)]
    fn open_seq(&mut self, n: usize) {
        self.prim(SnapKind::Len, &(n as u64).to_le_bytes());
        self.open("");
    }

    /// Write a sequence via a length prefix plus the closure per item;
    /// a trace names the items `[0]`, `[1]`, ….
    pub fn seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut f: impl FnMut(&mut SnapWriter, T),
    ) {
        self.open_seq(items.len());
        for it in items {
            self.next();
            f(self, it);
        }
        self.close();
    }
}

/// Append `.name` (`name` at the root) to a traced path.
fn push_name(path: &mut String, name: &str) {
    if !path.is_empty() {
        path.push('.');
    }
    path.push_str(name);
}

/// The primitives a [`SnapWriter::tracing`] writer recorded, in write
/// order: they tile the payload, one span after the other.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapTrace(Vec<SnapField>);

impl SnapTrace {
    /// Every traced primitive, in write order.
    pub fn fields(&self) -> &[SnapField] {
        &self.0
    }

    /// The first primitive of `kind` written at `path`.
    pub fn get(&self, path: &str, kind: SnapKind) -> Option<&SnapField> {
        self.0.iter().find(|f| f.kind == kind && f.path == path)
    }
}

impl SnapField {
    /// The primitive's value in `payload`, little-endian: an `f64`'s bit
    /// pattern, a string's length.
    pub fn value(&self, payload: &[u8]) -> u64 {
        let mut word = [0u8; 8];
        let width = self.width();
        word[..width].copy_from_slice(&payload[self.span.start..][..width]);
        u64::from_le_bytes(word)
    }

    /// `payload` with this primitive's leading bytes set to `value`'s
    /// low-order bytes, at the primitive's own width.
    pub fn with(&self, payload: &[u8], value: u64) -> Vec<u8> {
        let mut out = payload.to_vec();
        let at = self.span.start;
        let width = self.width();
        out[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        out
    }

    /// Bytes of the value [`with`](SnapField::with) rewrites: a string's
    /// length prefix, all of any other primitive.
    fn width(&self) -> usize {
        match self.kind {
            SnapKind::Str => 8,
            _ => self.span.len(),
        }
    }
}

/// Cursor over a snapshot payload, mirroring [`SnapWriter`]. It also
/// keeps, per named space, the largest `index(space)` id read so far.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    ids: Vec<(&'static str, u64)>,
}

impl<'a> SnapReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader {
            buf,
            pos: 0,
            ids: Vec::new(),
        }
    }

    /// Refuse, as [`SnapError::Malformed`]`(what)`, an `index(space)` id
    /// read so far that is not below `n`, the size of the table `space`
    /// names: what the table's owner calls once its own load is done.
    pub fn check_space(&self, space: &str, n: usize, what: &'static str) -> Result<(), SnapError> {
        let past = |&(s, max): &(&str, u64)| s == space && max >= n as u64;
        (!self.ids.iter().any(past))
            .then_some(())
            .ok_or(SnapError::Malformed(what))
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

/// A number a domain checks: an integer and its type's `MAX` (a clock
/// counts nanoseconds), or a float.
#[derive(Debug, Clone, Copy)]
pub enum Num {
    /// An integer and its type's largest value.
    Int(i128, i128),
    /// A float.
    Float(f64),
}

/// A persisted value a domain applies to: each number it holds — a
/// scalar's own, an option's if present, every element of a sequence.
pub trait Bounded {
    /// Call `f` on each number, stopping at the first `false`; whether
    /// none was.
    fn each(&self, f: &mut dyn FnMut(Num) -> bool) -> bool;
}

/// Scalars: `type: |x| number`.
macro_rules! bounded {
    ($($ty:ty: |$x:ident| $num:expr),* $(,)?) => {$(
        impl Bounded for $ty {
            fn each(&self, f: &mut dyn FnMut(Num) -> bool) -> bool {
                let $x = *self;
                f($num)
            }
        }
    )*};
}
bounded!(
    u8: |x| Num::Int(x.into(), u8::MAX.into()), u16: |x| Num::Int(x.into(), u16::MAX.into()),
    u32: |x| Num::Int(x.into(), u32::MAX.into()), u64: |x| Num::Int(x.into(), u64::MAX.into()),
    usize: |x| Num::Int(x as i128, usize::MAX as i128),
    Time: |x| Num::Int(x.as_nanos().into(), u64::MAX.into()),
    Dur: |x| Num::Int(x.as_nanos().into(), u64::MAX.into()), f64: |x| Num::Float(x),
);

impl<T: Bounded> Bounded for Option<T> {
    fn each(&self, f: &mut dyn FnMut(Num) -> bool) -> bool {
        self.as_ref().is_none_or(|x| x.each(f))
    }
}
impl<T: Bounded> Bounded for Vec<T> {
    fn each(&self, f: &mut dyn FnMut(Num) -> bool) -> bool {
        self.iter().all(|x| x.each(f))
    }
}

/// The one checker of every domain, called once per layout: `whats` has
/// a line per field of `values`, `Type.field outside <domain>`, what a
/// value outside is refused with ([`SnapError::Malformed`]) and the
/// domain read here. `bounds` has an entry per kind with an argument: a
/// comparison's bound (`index`: none, its id is noted in `r`).
#[inline(never)]
pub fn check_domains(
    r: &mut SnapReader<'_>,
    values: &[&dyn Bounded],
    bounds: &[Option<&dyn Bounded>],
    whats: &'static str,
) -> Result<(), SnapError> {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let float = |n| match n {
        Num::Int(v, _) => v as f64,
        Num::Float(v) => v,
    };
    let (mut bounds, mut lines) = (bounds.iter(), whats);
    for v in values {
        let what;
        (what, lines) = cut(lines, '\n');
        // `Type.field outside kind & op(arg)`: no name has a space.
        let mut kinds = cut(cut(what, ' ').1, ' ').1;
        while !kinds.is_empty() {
            let kind;
            (kind, kinds) = cut(kinds, ' ');
            let (op, arg) = cut(kind.trim_end_matches(')'), '(');
            let bound = match (op, arg) {
                ("&", _) => continue,
                (_, "") => None,
                _ => bounds.next().copied().flatten(),
            };
            let holds = v.each(&mut |n| match (op, n) {
                ("counter", Num::Int(v, max)) => v <= (max >> 2) + 1,
                ("finite", _) => float(n).is_finite(),
                ("sign", _) => float(n).abs() == 1.0,
                ("index", Num::Int(id, _)) if id >= 0 => {
                    match r.ids.iter_mut().find(|(s, _)| *s == arg) {
                        Some((_, max)) => *max = (*max).max(id as u64),
                        None => r.ids.push((arg, id as u64)),
                    }
                    true
                }
                ("counter" | "index", _) => false,
                _ => bound.is_some_and(|b| {
                    b.each(&mut |b| {
                        let ord = match (n, b) {
                            (Num::Int(v, _), Num::Int(b, _)) => Some(v.cmp(&b)),
                            _ => float(n).partial_cmp(&float(b)),
                        };
                        matches!(
                            (op, ord),
                            ("lt" | "le", Some(Less))
                                | ("le" | "eq" | "ge", Some(Equal))
                                | ("ge" | "gt", Some(Greater))
                        )
                    })
                }),
            });
            if !holds {
                return Err(SnapError::Malformed(what));
            }
        }
    }
    Ok(())
}

/// `s` up to the first `c` and what follows (`""` if none), out of line.
#[inline(never)]
fn cut(s: &'static str, c: char) -> (&'static str, &'static str) {
    s.split_once(c).unwrap_or((s, ""))
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

impl<T: Snap + ?Sized> Snap for Box<T> {
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

/// A presence byte, then the value under the option's own path.
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

/// Tuples travel field by field, no framing; a trace names the
/// fields `0`, `1`, ….
macro_rules! snap_tuples {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn snap(&self, w: &mut SnapWriter) {
                w.open(concat!($(stringify!($i), ","),+));
                $(w.next(); self.$i.snap(w);)+
                w.close();
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
/// persisted fields, each with its domain if it has one, from which
/// writer and reader are both generated.
///
/// ```
/// use outran_simcore::snap::{SnapError, SnapReader, SnapWriter, Snap, Unsnap};
///
/// #[derive(Debug, PartialEq)]
/// struct Counter { hits: u64, cap: u64, label: String, scratch: Vec<u8> }
/// outran_simcore::snap_fields! {
///     Counter { hits in le(cap), cap in counter, label } rebuilt { scratch }
/// }
///
/// let mut w = SnapWriter::new();
/// Counter { hits: 3, cap: 5, label: "x".into(), scratch: vec![9] }.snap(&mut w);
/// let bytes = w.into_bytes();
/// let back = Counter::unsnap(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!(back, Counter { hits: 3, cap: 5, label: "x".into(), scratch: vec![] });
///
/// let mut w = SnapWriter::new();
/// Counter { hits: 6, cap: 5, label: "x".into(), scratch: vec![] }.snap(&mut w);
/// let refused = Counter::unsnap(&mut SnapReader::new(&w.into_bytes()));
/// assert!(matches!(refused, Err(SnapError::Malformed("Counter.hits outside le(cap)"))));
/// ```
///
/// Two shapes, matching the two restore traits:
///
/// * `Type { a, b in dom } [rebuilt { c }] [then path]` — by value
///   ([`Snap`] + [`Unsnap`]): `rebuilt` fields start as `Default`; the
///   `then` step (`fn(&mut Self) -> Result<(), SnapError>`) derives them
///   and checks what involves several fields at once.
/// * `overlay Type { a, b: fixed, c: fixed_opt in dom } [rebuilt { d }]
///   [spaces { flows: flows.len() }] [written_as method] [then path]` —
///   construct-then-overlay ([`Snap`] + [`LoadSnap`]): each field
///   overlays itself, or through the named [`SnapReader`] helper
///   ([`fixed`](SnapReader::fixed), [`fixed_opt`](SnapReader::fixed_opt));
///   `spaces` checks each space's `index` ids against a size read off
///   `self` ([`SnapReader::check_space`]); `written_as` names a
///   `fn(&self, &mut SnapWriter) -> bool` that writes a stand-in for
///   `self` when it needs one.
///
/// Domains (grammar in the [module docs](self)) are checked once every
/// field is read, before `then`: a value outside is refused as
/// [`SnapError::Malformed`]`("Type.field outside domain")`. A trace names
/// each field, and its domain after ` in ` ([`SnapWriter::open`]).
/// Fields are identifiers or tuple indices (`Wrapper { 0 }`); one list
/// of type parameters is accepted (`Queue<T> { .. }`, each bounded by
/// [`Unsnap`]). The writer destructures `Self { .. }` *exhaustively*,
/// so a field in neither list does not build:
///
/// ```compile_fail
/// struct Leaky { kept: u64, forgotten: u64 }
/// outran_simcore::snap_fields! { Leaky { kept } }
/// ```
#[macro_export]
macro_rules! snap_fields {
    (
        $ty:ident $(<$($g:ident),+>)?
        { $($f:tt $(in $($dk:ident $(($($da:tt)+))?)&+)?),* $(,)? }
        $(rebuilt { $($d:tt),* $(,)? })?
        $(then $post:path)?
    ) => {
        $crate::snap_fields! {
            @snap [$($($g),+)?] $ty []
            { $($f $(in $($dk $(($($da)+))?)&+)?),* } { $($($d),*)? }
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
                $crate::snap_fields!(@check r [v.] $ty { $($f $(in $($dk $(($($da)+))?)&+)?),* });
                $($post(&mut v)?;)?
                Ok(v)
            }
        }
    };
    (
        overlay $ty:ident $(<$($g:ident),+>)?
        { $($f:tt $(: $how:ident)? $(in $($dk:ident $(($($da:tt)+))?)&+)?),* $(,)? }
        $(rebuilt { $($d:tt),* $(,)? })?
        $(spaces { $($sp:ident: $($n:ident).+ ()),* $(,)? })?
        $(written_as $conv:ident)?
        $(then $post:path)?
    ) => {
        $crate::snap_fields! {
            @snap [$($($g),+)?] $ty [$($conv)?]
            { $($f $(in $($dk $(($($da)+))?)&+)?),* } { $($($d),*)? }
        }
        impl $(<$($g: $crate::snap::Unsnap),+>)? $crate::snap::LoadSnap for $ty $(<$($g),+>)? {
            fn load_snap(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<(), $crate::snap::SnapError> {
                #[allow(unused_imports, reason = "unused when every field loads by helper")]
                use $crate::snap::LoadSnap as _;
                $($crate::snap_fields!(@load self r $f $($how)?);)*
                $crate::snap_fields!(@check r [self.] $ty { $($f $(in $($dk $(($($da)+))?)&+)?),* });
                $($(r.check_space(
                    ::std::stringify!($sp),
                    self.$($n).+(),
                    ::std::concat!("an id past the ", ::std::stringify!($sp), " table"),
                )?;)*)?
                $($post(self)?;)?
                Ok(())
            }
        }
    };
    (
        @snap [$($g:ident),*] $ty:ident [$($conv:ident)?]
        { $($f:tt $(in $($dk:ident $(($($da:tt)+))?)&+)?),* } { $($d:tt),* }
    ) => {
        impl<$($g: $crate::snap::Unsnap),*> $crate::snap::Snap for $ty<$($g),*> {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                $(if Self::$conv(self, w) {
                    return;
                })?
                let Self { $($f: _,)* $($d: _,)* } = self;
                w.open(::std::concat!($(
                    ::std::stringify!($f),
                    $(" in ", $crate::snap_fields!(@text $($dk $(($($da)+))?)&+),)?
                    ","
                ),*));
                $(w.next(); $crate::snap::Snap::snap(&self.$f, w);)*
                w.close();
            }
        }
    };
    (@load $s:ident $r:ident $f:tt) => { $s.$f.load_snap($r)? };
    (@load $s:ident $r:ident $f:tt $how:ident) => { $r.$how(&mut $s.$f)? };
    // One call per layout, none for a layout without domains: the
    // fields, a bound per kind with an argument, a message line each.
    (@check $r:ident $at:tt $ty:ident
        { $($f:tt $(in $($dk:ident $(($($da:tt)+))?)&+)?),* }) => {
        let values: &[&dyn $crate::snap::Bounded] =
            &[$($($crate::snap_fields!(@value $at $f $($dk)+),)?)*];
        if !values.is_empty() {
            $crate::snap::check_domains(
                $r, values,
                &[$($($($($crate::snap_fields!(@bound $at $dk $($da)+),)?)+)?)*],
                ::std::concat!($($(
                    ::std::stringify!($ty), ".", ::std::stringify!($f), " outside ",
                    $crate::snap_fields!(@text $($dk $(($($da)+))?)&+), "\n",
                )?)*),
            )?;
        }
    };
    (@value [$($v:tt)*] $f:tt $($dk:ident)+) => { &$($v)* $f };
    (@bound $at:tt index $space:ident) => { None };
    (@bound $at:tt $op:ident $b:literal) => { Some(&($b as f64) as &dyn $crate::snap::Bounded) };
    (@bound $at:tt $op:ident $b:ident) => { Some(&$crate::snap_fields!(@at $at $b) as _) };
    (@at [$($v:tt)*] $f:tt) => { $($v)* $f };
    (@text $dk:ident $(($($da:tt)+))? $(& $($rest:tt)+)?) => {
        ::std::concat!(
            ::std::stringify!($dk),
            $("(", ::std::stringify!($($da)+), ")",)?
            $(" & ", $crate::snap_fields!(@text $($rest)+))?
        )
    };
}

/// Declare an enum's snapshot layout once: a `u8` tag per variant, then
/// the variant's fields in the listed order. A trace records the tag as
/// a [`SnapKind::Tag`] at the enum's own path and names each field by
/// its binding in the list (`1 => Um(segs)` writes `….segs`). `what`
/// names the enum in the `Malformed` error an unknown (or, for
/// `overlay`, disagreeing) tag yields. The generated `match self` is
/// exhaustive, so an unlisted variant does not build.
///
/// * `Type, what { 0 => Unit, 1 => Tuple(a, b), 2 => Struct { x, y in dom } }`
///   — by value ([`Snap`] + [`Unsnap`]); a struct variant's field may
///   carry a domain, as in [`snap_fields!`](crate::snap_fields).
/// * `overlay Type, what { 0 => A(a), 1 => B(b) }` — single-payload
///   variants whose payloads restore by overlay ([`Snap`] +
///   [`LoadSnap`]): the variant was fixed at construction, so the
///   stored tag must equal the constructed one.
#[macro_export]
macro_rules! snap_enum {
    (
        $ty:ident, $what:literal
        { $($tag:literal => $v:ident
            $({ $($f:ident $(in $($dk:ident $(($($da:tt)+))?)&+)?),* $(,)? })?
            $(( $($t:ident),* ))?),* $(,)? }
    ) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self {$(
                    Self::$v $({ $($f),* })? $(( $($t),* ))? => {
                        w.tag($tag);
                        w.open(::std::concat!(
                            $($(
                                ::std::stringify!($f),
                                $(" in ", $crate::snap_fields!(@text $($dk $(($($da)+))?)&+),)?
                                ","
                            ),*)?
                            $($(::std::stringify!($t), ","),*)?
                        ));
                        $($(w.next(); $crate::snap::Snap::snap($f, w);)*)?
                        $($(w.next(); $crate::snap::Snap::snap($t, w);)*)?
                        w.close();
                    }
                )*}
            }
        }
        impl $crate::snap::Unsnap for $ty {
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapError> {
                Ok(match r.u8()? {
                    $($tag => {
                        $(
                            $(let $f = r.get()?;)*
                            $crate::snap_fields!(
                                @check r [] $ty { $($f $(in $($dk $(($($da)+))?)&+)?),* }
                            );
                        )?
                        Self::$v
                            $({ $($f),* })?
                            $(( $($crate::snap_enum!(@get r $t)),* ))?
                    })*
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
                        w.tag($tag);
                        w.open(::std::concat!(::std::stringify!($p), ","));
                        w.next();
                        $crate::snap::Snap::snap($p, w);
                        w.close();
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
/// in declaration order, each field a `counter`) are all generated, so
/// no list can miss a field.
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

        $crate::snap_fields! { $ty { $($f in counter),* } }
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
snap_fields! { RunningStats { n in counter, mean, m2, min, max } }

// The priming flag travels: an unprimed average must stay unprimed
// across a resume — `get()` masks the difference but `update()` does not.
snap_fields! { Ewma { alpha in gt(0) & le(1), value, primed } }

// Retained samples travel in their *current* order plus the lazy-sort
// flag: `percentile()` reorders samples in place, so capturing order is
// required for bit-identical resumption.
snap_fields! { Percentiles { sorted, samples } }

/// Irregular: which tier holds an event depends on the queue's history,
/// so the wire form is the `(time, seq)`-sorted dump of pending events with
/// their exact sequence numbers, behind the allocation counter (a trace
/// names it `seq_counter`, a `counter`) — a restored queue pops in the
/// identical order and continues numbering where the original left off.
impl<E: Snap> Snap for EventQueue<E> {
    fn snap(&self, w: &mut SnapWriter) {
        w.open("seq_counter in counter,");
        w.next();
        w.u64(self.seq_counter());
        w.close();
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
        let what = "EventQueue.seq_counter outside counter";
        check_domains(r, &[&counter], &[], what)?;
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
        let mut w = SnapWriter::tracing();
        vec![1u64, 2].snap(&mut w);
        Some(5u32).snap(&mut w);
        let (bytes, trace) = w.into_traced();

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
        let presence = trace.get("", SnapKind::Bool).unwrap().span.start;
        let mut r = SnapReader::new(&bytes[presence..]);
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

    /// A tracing writer writes the same bytes as a plain one, and its
    /// trace names every primitive by field path, kind and span: the
    /// spans tile the payload in write order.
    #[test]
    fn trace_names_every_primitive() {
        #[derive(Debug, PartialEq)]
        struct Doc {
            shapes: Vec<Shape>,
            label: String,
            at: Option<(Dur, f64)>,
        }
        snap_fields! { Doc { shapes, label, at } }
        let doc = Doc {
            shapes: vec![
                Shape::Unit,
                Shape::Named {
                    id: 7,
                    tags: vec![1, 2],
                },
            ],
            label: "ab".into(),
            at: Some((Dur::from_micros(3), -0.5)),
        };
        let mut plain = SnapWriter::new();
        doc.snap(&mut plain);
        let mut w = SnapWriter::tracing();
        doc.snap(&mut w);
        let (bytes, trace) = w.into_traced();
        assert_eq!(bytes, plain.into_bytes());

        use SnapKind::{Bool, Len, Str, Tag, F64, U16, U64};
        let want = [
            ("shapes", Len, 8),
            ("shapes[0]", Tag, 1),
            ("shapes[1]", Tag, 1),
            ("shapes[1].id", U64, 8),
            ("shapes[1].tags", Len, 8),
            ("shapes[1].tags[0]", U16, 2),
            ("shapes[1].tags[1]", U16, 2),
            ("label", Str, 10),
            ("at", Bool, 1),
            ("at.0", SnapKind::Dur, 8),
            ("at.1", F64, 8),
        ];
        let got: Vec<_> = trace
            .fields()
            .iter()
            .map(|f| (f.path.as_str(), f.kind, f.span.len()))
            .collect();
        assert_eq!(got, want);
        let mut at = 0;
        for f in trace.fields() {
            assert_eq!(f.span.start, at, "{}", f.path);
            at = f.span.end;
        }
        assert_eq!(at, bytes.len());

        let tags = trace.get("shapes[1].tags", Len).unwrap();
        assert_eq!(tags.value(&bytes), 2);
        let label = trace.get("label", Str).unwrap();
        let longer = label.with(&bytes, 3);
        assert_eq!(
            longer[label.span.clone()],
            [3, 0, 0, 0, 0, 0, 0, 0, b'a', b'b']
        );
        assert!(Doc::unsnap(&mut SnapReader::new(&longer)).is_err());
        let x = trace.get("at.1", F64).unwrap();
        let nan = x.with(&bytes, f64::NAN.to_bits());
        let back = Doc::unsnap(&mut SnapReader::new(&nan)).unwrap();
        assert!(back.at.is_some_and(|(_, v)| v.is_nan()));
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
