//! The versioned binary container for machine snapshots.
//!
//! A snapshot is a self-describing byte blob:
//!
//! ```text
//! +--------+---------+------------------------------------+----------+
//! | magic  | version | sections: tag(4) + len(8) + bytes  | checksum |
//! | "TM3S" |   u32   |            (repeated)              | FNV-1a64 |
//! +--------+---------+------------------------------------+----------+
//! ```
//!
//! All state travels as little-endian integers, so restore is bit-exact.
//! The trailing checksum is FNV-1a 64 over everything before it, so
//! corruption is detected up front, before any section is interpreted.
//! Decoding never panics: every failure mode — truncation, a version
//! from the future, flipped bits — is a typed [`SnapshotError`].
//!
//! What goes inside the sections is declared once per struct, in a
//! [`snapshot_table!`](crate::snapshot_table): one row per saved field,
//! giving its [`Codec`] (the wire format) and optionally its invariant.
//! Saving, loading, the `well_formed` predicate, the row layout and the
//! edge cases of every invariant are all derived from those rows. The
//! tables sit beside their structs: `Machine` in `tm3270-core` (sections
//! `CORE`, `REGS`, `WRNG`, `TRCE`, `MEMS`) and the memory system, its
//! caches, prefetch unit, DRAM channel and statistics in `tm3270-mem`.
//! Bumping [`SNAPSHOT_VERSION`] is required whenever any row's codec or
//! order changes — old blobs are then rejected with
//! [`SnapshotError::VersionMismatch`] rather than misread.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;

use tm3270_isa::{FlatMemory, Reg, RegFile};

/// Magic bytes identifying a machine snapshot blob.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TM3S";

/// The largest counter, cycle or tick time a snapshot may carry: 2^53.
/// No run gets near it, a `u64` counter restored at or below it has more
/// than 2^63 increments left before it could overflow, and a cycle at or
/// below it converts to memory-model ticks in a `u64` at any rate under
/// 2^11 ticks per cycle (1600 on every configuration).
pub const SNAPSHOT_COUNT_LIMIT: u64 = 1 << 53;

/// Current snapshot format version. Bump on any layout change of any
/// section; readers reject every other version.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Typed failures of snapshot decoding. Decoding never panics; arbitrary
/// bytes degrade into one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The blob was written by a different format version.
    VersionMismatch {
        /// The version field found in the blob.
        found: u32,
        /// The version this reader understands ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The blob ends before the named item is complete.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// The blob is internally inconsistent (checksum mismatch, impossible
    /// lengths, state that violates an invariant of the restored type).
    Corrupt {
        /// What inconsistency was detected.
        what: &'static str,
    },
    /// A required section is absent from the blob.
    MissingSection {
        /// The four-byte section tag, rendered as text.
        tag: [u8; 4],
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format version {found} (expected {expected})")
            }
            SnapshotError::Truncated { what } => write!(f, "snapshot truncated in {what}"),
            SnapshotError::Corrupt { what } => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::MissingSection { tag } => {
                write!(f, "snapshot section `{}` missing", tag.escape_ascii())
            }
        }
    }
}

impl Error for SnapshotError {}

/// FNV-1a 64 over `bytes` — the integrity trailer of the container.
/// Public so tests (and external tools) can re-seal a deliberately
/// modified blob.
pub fn snapshot_checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Builds a snapshot blob: header, then tagged sections, then the
/// checksum trailer on [`finish`](SnapshotWriter::finish).
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> SnapshotWriter {
        SnapshotWriter::new()
    }
}

impl SnapshotWriter {
    /// Starts a blob: magic + current format version.
    pub fn new() -> SnapshotWriter {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        SnapshotWriter { buf }
    }

    /// Appends one section: `fill` writes the payload, the length frame
    /// is patched in afterwards.
    pub fn section(&mut self, tag: [u8; 4], fill: impl FnOnce(&mut SectionWriter)) {
        self.sections(|w| {
            w.begin(tag);
            fill(w);
        });
    }

    /// Appends the sections `fill` opens with [`SectionWriter::begin`].
    pub fn sections(&mut self, fill: impl FnOnce(&mut SectionWriter)) {
        let mut w = SectionWriter {
            buf: &mut self.buf,
            start: 0,
            frame: None,
        };
        fill(&mut w);
        w.close();
    }

    /// Seals the blob with its checksum trailer and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = snapshot_checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Appends to one section's payload; the rows of a
/// [`snapshot_table!`](crate::snapshot_table) write through it.
#[derive(Debug)]
pub struct SectionWriter<'a> {
    buf: &'a mut Vec<u8>,
    start: usize,
    /// Where the open section's length frame goes.
    frame: Option<usize>,
}

impl SectionWriter<'_> {
    /// Closes the open section, if any, and opens one tagged `tag`.
    pub fn begin(&mut self, tag: [u8; 4]) {
        self.close();
        self.buf.extend_from_slice(&tag);
        self.frame = Some(self.buf.len());
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        self.start = self.buf.len();
    }

    /// Patches the open section's length frame, if a section is open.
    fn close(&mut self) {
        if let Some(at) = self.frame.take() {
            let len = (self.buf.len() - self.start) as u64;
            self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        }
    }

    /// Bytes written to this section so far.
    pub fn position(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// A parsed snapshot blob: header and checksum validated, sections
/// indexed by tag.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Parses and validates a blob: magic, version, checksum and section
    /// framing. Never panics on arbitrary input.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant except `MissingSection`.
    pub fn parse(bytes: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        if bytes.len() < 4 {
            return Err(SnapshotError::Truncated { what: "magic" });
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated { what: "version" });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        if bytes.len() < 16 {
            return Err(SnapshotError::Truncated { what: "checksum" });
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if snapshot_checksum(body) != stored {
            return Err(SnapshotError::Corrupt {
                what: "checksum mismatch",
            });
        }
        let mut sections = Vec::new();
        let mut at = 8;
        while at < body.len() {
            if body.len() - at < 12 {
                return Err(SnapshotError::Truncated {
                    what: "section header",
                });
            }
            let tag: [u8; 4] = body[at..at + 4].try_into().expect("4 bytes");
            let len = u64::from_le_bytes(body[at + 4..at + 12].try_into().expect("8 bytes"));
            at += 12;
            let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt {
                what: "section length overflows",
            })?;
            if body.len() - at < len {
                return Err(SnapshotError::Truncated {
                    what: "section payload",
                });
            }
            sections.push((tag, &body[at..at + len]));
            at += len;
        }
        Ok(SnapshotReader { sections })
    }

    /// A cursor over the payload of the section tagged `tag`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] if the blob has no such section.
    pub fn section(&self, tag: [u8; 4]) -> Result<SectionReader<'_>, SnapshotError> {
        let mut r = self.sections();
        r.enter(tag)?;
        Ok(r)
    }

    /// A cursor in no section yet, which [`SectionReader::enter`] moves
    /// from section to section.
    pub fn sections(&self) -> SectionReader<'_> {
        SectionReader {
            sections: &self.sections,
            buf: &[],
            at: 0,
            row: "section payload",
        }
    }
}

/// Sequential reader over one section's payload: running out of it is
/// a [`SnapshotError::Truncated`] naming the row being read, never a
/// panic.
#[derive(Debug)]
pub struct SectionReader<'a> {
    sections: &'a [([u8; 4], &'a [u8])],
    buf: &'a [u8],
    at: usize,
    row: &'static str,
}

impl<'a> SectionReader<'a> {
    /// Moves to the start of the section tagged `tag`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] if the blob has no such section.
    pub fn enter(&mut self, tag: [u8; 4]) -> Result<(), SnapshotError> {
        let found = self.sections.iter().find(|(t, _)| *t == tag);
        self.buf = found.ok_or(SnapshotError::MissingSection { tag })?.1;
        self.at = 0;
        Ok(())
    }

    /// Names the row that the next reads belong to, for errors.
    pub fn row(&mut self, name: &'static str) {
        self.row = name;
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`].
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.at < n {
            return Err(SnapshotError::Truncated { what: self.row });
        }
        self.at += n;
        Ok(&self.buf[self.at - n..self.at])
    }

    /// Reads `N` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`].
    pub fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }
}

/// The wire format of one table row: how a `T` is appended to a section
/// and read back in place. The marker types below name the codecs.
pub trait Codec<T> {
    /// Appends `v`.
    fn save(v: &T, w: &mut SectionWriter<'_>);

    /// Reads a value into `v`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`], or [`SnapshotError::Corrupt`] on a
    /// value the codec does not carry.
    fn load(v: &mut T, r: &mut SectionReader<'_>) -> Result<(), SnapshotError>;

    /// Appends `v`, marking where each row of a [`Nested`] table starts.
    fn layout(v: &T, w: &mut SectionWriter<'_>, _: &mut dyn FnMut(&str, usize)) {
        Self::save(v, w);
    }

    /// The invariants inside `v`: only a [`Nested`] table has any.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the first row out of range.
    fn check(_: &T) -> Result<(), SnapshotError> {
        Ok(())
    }

    /// Copies of `v` with one bounded row of a [`Nested`] table moved to
    /// a bound or just past it.
    fn edges(_: &T) -> Vec<(Edge, T)> {
        Vec::new()
    }
}

macro_rules! markers {
    ($($(#[$doc:meta])* $name:ident $(<$c:ident>)?;)*) => {$(
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name $(<$c>(PhantomData<$c>))?;
    )*};
}

markers! {
    /// One byte; a register travels as its index and must be one of 128.
    U8;
    /// A little-endian `u32`.
    U32;
    /// A little-endian `u64`; a `usize` must fit the host's address space.
    U64;
    /// An event counter, a cycle or a tick time: a `u64` of at most
    /// [`SNAPSHOT_COUNT_LIMIT`].
    Count;
    /// Booleans in one byte, the first in bit 0; other bits must be clear.
    Flags;
    /// A flat memory up to its last non-zero byte: its size, the stored
    /// length, the bytes. The size must be the target's own, since no
    /// input resizes a memory.
    MemoryRun;
    /// A table of its own ([`State`]), with its invariants and edges.
    Nested;
    /// A fixed array, element by element. A register file is its 128
    /// registers, and its two constant registers must hold 0 and 1.
    Array<C>;
    /// A `u64` length, then the elements of a `Vec` or `VecDeque`. A
    /// row's bound applies to the length; elements carry no invariants.
    List<C>;
    /// An `Option`: a flag byte (0 none, 1 some), then the value, or the
    /// default value as padding.
    Opt<C>;
}

macro_rules! scalars {
    ($($codec:ident: $t:ty $(where $ok:expr, $what:literal)?;)*) => {$(
        impl Codec<$t> for $codec {
            fn save(v: &$t, w: &mut SectionWriter<'_>) {
                w.bytes(&v.to_le_bytes());
            }

            fn load(v: &mut $t, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
                *v = <$t>::from_le_bytes(r.take()?);
                $(if !$ok(*v) {
                    return Err(corrupt($what));
                })?
                Ok(())
            }
        }
    )*};
}

scalars! {
    U8: u8;
    U32: u32;
    U64: u64;
    Count: u64 where |v| v <= SNAPSHOT_COUNT_LIMIT, "counter out of range";
}

fn corrupt(what: &'static str) -> SnapshotError {
    SnapshotError::Corrupt { what }
}

impl Codec<Reg> for U8 {
    fn save(v: &Reg, w: &mut SectionWriter<'_>) {
        w.bytes(&[v.index() as u8]);
    }

    fn load(v: &mut Reg, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        *v = Reg::try_new(r.take::<1>()?[0]).ok_or(corrupt("register out of range"))?;
        Ok(())
    }
}

impl Codec<usize> for U64 {
    fn save(v: &usize, w: &mut SectionWriter<'_>) {
        U64::save(&(*v as u64), w);
    }

    fn load(v: &mut usize, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let wide = u64::from_le_bytes(r.take()?);
        *v = usize::try_from(wide).map_err(|_| corrupt("index overflows the address space"))?;
        Ok(())
    }
}

impl Codec<(bool, bool, bool)> for Flags {
    fn save(&(a, b, c): &(bool, bool, bool), w: &mut SectionWriter<'_>) {
        w.bytes(&[u8::from(a) | u8::from(b) << 1 | u8::from(c) << 2]);
    }

    fn load(v: &mut (bool, bool, bool), r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let [bits] = r.take()?;
        if bits > 0b111 {
            return Err(corrupt("undefined flag bits"));
        }
        *v = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
        Ok(())
    }
}

impl Codec<FlatMemory> for MemoryRun {
    fn save(v: &FlatMemory, w: &mut SectionWriter<'_>) {
        let stored = v.trailing_nonzero_len();
        U64::save(&v.len(), w);
        U64::save(&stored, w);
        v.for_each_chunk(stored, |chunk| w.bytes(chunk));
    }

    fn load(v: &mut FlatMemory, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let [size, stored] = [r.take()?, r.take()?].map(u64::from_le_bytes);
        if size != v.len() as u64 {
            return Err(corrupt("memory size does not match the configuration"));
        }
        if stored > size {
            return Err(corrupt("stored memory exceeds the memory size"));
        }
        let src = r.bytes(stored as usize)?;
        v.clear();
        v.write_from(0, src);
        Ok(())
    }
}

impl<T: State + Clone> Codec<T> for Nested {
    fn save(v: &T, w: &mut SectionWriter<'_>) {
        v.save_state(w);
    }

    fn load(v: &mut T, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        v.load_state(r)
    }

    fn layout(v: &T, w: &mut SectionWriter<'_>, mark: &mut dyn FnMut(&str, usize)) {
        v.layout(w, mark);
    }

    fn check(v: &T) -> Result<(), SnapshotError> {
        v.well_formed()
    }

    fn edges(v: &T) -> Vec<(Edge, T)> {
        let mut cases = Vec::new();
        v.clone()
            .for_each_edge(&mut |x, e| cases.push((e, x.clone())));
        cases
    }
}

impl<T, C: Codec<T>, const N: usize> Codec<[T; N]> for Array<C> {
    fn save(v: &[T; N], w: &mut SectionWriter<'_>) {
        v.iter().for_each(|x| C::save(x, w));
    }

    fn load(v: &mut [T; N], r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        v.iter_mut().try_for_each(|x| C::load(x, r))
    }
}

impl Codec<RegFile> for Array<U32> {
    fn save(v: &RegFile, w: &mut SectionWriter<'_>) {
        (0..128).for_each(|i| U32::save(&v.read(Reg::new(i)), w));
    }

    fn load(v: &mut RegFile, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        for i in 0..128 {
            let value = u32::from_le_bytes(r.take()?);
            if !v.write(Reg::new(i), value) && v.read(Reg::new(i)) != value {
                return Err(corrupt("constant register holds another value"));
            }
        }
        Ok(())
    }
}

macro_rules! lists {
    ($($list:ident.$push:ident),*) => {$(
        impl<T: Default, C: Codec<T>> Codec<$list<T>> for List<C> {
            fn save(v: &$list<T>, w: &mut SectionWriter<'_>) {
                U64::save(&v.len(), w);
                v.iter().for_each(|x| C::save(x, w));
            }

            // Grows one decoded element at a time, so a forged length
            // allocates no more than the bytes behind it can fill.
            fn load(v: &mut $list<T>, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
                v.clear();
                for _ in 0..u64::from_le_bytes(r.take()?) {
                    let mut x = T::default();
                    C::load(&mut x, r)?;
                    v.$push(x);
                }
                Ok(())
            }
        }

        impl<T: Clone + Default> Bounded for $list<T> {
            fn measure(&self) -> Option<u64> {
                Some(self.len() as u64)
            }

            fn set(&mut self, m: u64) {
                let last = self.iter().last().cloned().unwrap_or_default();
                self.resize(m as usize, last);
            }
        }
    )*};
}

lists!(Vec.push, VecDeque.push_back);

impl<T: Default, C: Codec<T>> Codec<Option<T>> for Opt<C> {
    fn save(v: &Option<T>, w: &mut SectionWriter<'_>) {
        w.bytes(&[u8::from(v.is_some())]);
        C::save(v.as_ref().unwrap_or(&T::default()), w);
    }

    fn load(v: &mut Option<T>, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let [flag] = r.take()?;
        let mut x = T::default();
        C::load(&mut x, r)?;
        *v = match flag {
            0 => None,
            1 => Some(x),
            _ => return Err(corrupt("undefined option flag")),
        };
        Ok(())
    }
}

impl<A, B, CA: Codec<A>, CB: Codec<B>> Codec<(A, B)> for (CA, CB) {
    fn save((a, b): &(A, B), w: &mut SectionWriter<'_>) {
        CA::save(a, w);
        CB::save(b, w);
    }

    fn load((a, b): &mut (A, B), r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        CA::load(a, r)?;
        CB::load(b, r)
    }
}

/// A struct described by a [`snapshot_table!`](crate::snapshot_table).
pub trait State {
    /// Appends every row.
    fn save_state(&self, w: &mut SectionWriter<'_>) {
        self.layout(w, &mut |_, _| {});
    }

    /// Reads every row in place, then runs the table's post-load hook.
    ///
    /// # Errors
    ///
    /// The first row's codec error.
    fn load_state(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError>;

    /// Appends every row, telling `mark` the dotted path and section
    /// offset of each, nested rows included.
    fn layout(&self, w: &mut SectionWriter<'_>, mark: &mut dyn FnMut(&str, usize));

    /// Whether every row, nested ones included, meets its invariant.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the first row out of range.
    fn well_formed(&self) -> Result<(), SnapshotError>;

    /// Calls `visit` with `self` moved, one case at a time, to a bound
    /// of one bounded row or just past it, nested rows included; `self`
    /// is put back after each case.
    fn for_each_edge(&mut self, visit: &mut dyn FnMut(&mut Self, Edge));
}

/// One edge case of a table invariant (see [`State::for_each_edge`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// The row, as a dotted path from the outermost table.
    pub field: String,
    /// Whether the bound is the row's upper one, not its lower one.
    pub upper: bool,
    /// Whether the value lies just past the bound, where restore must
    /// refuse it, and not on it, where restore must accept it.
    pub past: bool,
}

/// A row value an invariant bounds, measured as a `u64`: an integer, an
/// optional pair by its first element, or a list by its length.
pub trait Bounded: Clone {
    /// The measure, or `None` for an absent value, which meets any bound.
    fn measure(&self) -> Option<u64>;

    /// Moves the value to measure `m`; a list grows by repeating its
    /// last element.
    fn set(&mut self, m: u64);

    /// Whether the measure lies in `lo..=hi`.
    fn within(&self, lo: u64, hi: u64) -> bool {
        self.measure().is_none_or(|m| (lo..=hi).contains(&m))
    }
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl Bounded for $t {
            fn measure(&self) -> Option<u64> {
                u64::try_from(*self).ok()
            }

            fn set(&mut self, m: u64) {
                *self = <$t>::try_from(m).unwrap_or(<$t>::MAX);
            }
        }
    )*};
}

integers!(u32, u64, usize);

impl<A: Bounded + Default, B: Clone + Default> Bounded for Option<(A, B)> {
    fn measure(&self) -> Option<u64> {
        self.as_ref()?.0.measure()
    }

    fn set(&mut self, m: u64) {
        self.get_or_insert_with(Default::default).0.set(m);
    }
}

/// The edge cases of one bounded row: `v` moved to each end of `lo..=hi`
/// that has a measure past it, and to that measure.
pub fn bound_edges<B: Bounded>(v: &B, lo: u64, hi: u64, field: &str) -> Vec<(Edge, B)> {
    let mut cases = Vec::new();
    for (end, upper) in [(lo, false), (hi, true)] {
        let beyond = if upper {
            end.checked_add(1)
        } else {
            end.checked_sub(1)
        };
        for (m, past) in beyond.into_iter().flat_map(|b| [(end, false), (b, true)]) {
            let mut x = v.clone();
            x.set(m);
            let field = field.to_string();
            cases.push((Edge { field, upper, past }, x));
        }
    }
    cases
}

/// Declares the snapshot table of a struct: one row per saved field, in
/// wire order, naming the field, its [`Codec`] and, optionally, its
/// invariant: an inclusive `u64` range `[lo, hi]` its [`Bounded`]
/// measure must lie in, unless an escape condition holds.
///
/// ```text
/// snapshot_table! {
///     impl Type |s| {
///         field: Codec,
///         (inner.field): Codec where [lo, hi],
///         other: Codec where [lo, hi] unless condition,
///         (flag_a, flag_b, flag_c): Flags,
///     }
///     after_load { /* rebuild what follows from the rows */ }
/// }
/// ```
///
/// A place is a field, a parenthesised dotted path or a parenthesised
/// tuple of fields (a tuple row carries no invariant); a row
/// `b"TAG": Section` closes the open section and opens the one tagged
/// `TAG`, for a table that spans a whole snapshot (see
/// [`SnapshotWriter::sections`] and [`SnapshotReader::sections`]).
/// Bounds and conditions are expressions over the binder.
/// The struct gets [`State`].
#[macro_export]
macro_rules! snapshot_table {
    (impl $ty:ty |$s:ident| {
        $($place:tt: $codec:ty $(where [$lo:expr, $hi:expr] $(unless $exc:expr)?)?),* $(,)?
    } $(after_load $hook:block)?) => {
        impl $crate::snapshot::State for $ty {
            fn load_state(
                &mut self,
                r: &mut $crate::SectionReader<'_>,
            ) -> Result<(), $crate::SnapshotError> {
                let $s = self;
                $($crate::snapshot_table!(@load $ty, $s r $place $codec);)*
                $($hook)?
                Ok(())
            }

            fn layout(
                &self,
                w: &mut $crate::SectionWriter<'_>,
                mark: &mut dyn FnMut(&str, usize),
            ) {
                let $s = self;
                $($crate::snapshot_table!(@layout $s w mark $place $codec);)*
            }

            fn well_formed(&self) -> Result<(), $crate::SnapshotError> {
                let $s = self;
                $($crate::snapshot_table!(
                    @check $ty, $s $place $codec $([$lo, $hi] $($exc)?)?
                );)*
                Ok(())
            }

            fn for_each_edge(
                &mut self,
                visit: &mut dyn FnMut(&mut Self, $crate::snapshot::Edge),
            ) {
                let $s = self;
                $($crate::snapshot_table!(@edges $s visit $place $codec $([$lo, $hi])?);)*
            }
        }
    };

    (@get $s:ident ($f0:ident, $($f:ident),+)) => { ($s.$f0, $($s.$f),+) };
    (@get $s:ident ($f0:ident $(. $f:ident)*)) => { $s.$f0$(.$f)* };
    (@get $s:ident $f:ident) => { $s.$f };

    (@name ($f0:ident $(. $f:ident)*)) => { concat!(stringify!($f0) $(, ".", stringify!($f))*) };
    (@name $place:tt) => { stringify!($place) };

    (@load $ty:ty, $s:ident $r:ident $tag:literal $codec:ty) => { $r.enter(*$tag)? };
    (@load $ty:ty, $s:ident $r:ident ($f0:ident, $($f:ident),+) $codec:ty) => {
        $r.row(concat!(stringify!($ty), ".", stringify!(($f0, $($f),+))));
        let mut v = ($s.$f0, $($s.$f),+);
        <$codec as $crate::snapshot::Codec<_>>::load(&mut v, $r)?;
        ($s.$f0, $($s.$f),+) = v;
    };
    (@load $ty:ty, $s:ident $r:ident $place:tt $codec:ty) => {
        $r.row(concat!(stringify!($ty), ".", $crate::snapshot_table!(@name $place)));
        let place = &mut $crate::snapshot_table!(@get $s $place);
        <$codec as $crate::snapshot::Codec<_>>::load(place, $r)?
    };

    (@layout $s:ident $w:ident $mark:ident $tag:literal $codec:ty) => { $w.begin(*$tag) };
    (@layout $s:ident $w:ident $mark:ident $place:tt $codec:ty) => {
        let name = $crate::snapshot_table!(@name $place);
        $mark(name, $w.position());
        <$codec as $crate::snapshot::Codec<_>>::layout(
            &$crate::snapshot_table!(@get $s $place),
            $w,
            &mut |row: &str, at| $mark(&format!("{name}.{row}"), at),
        )
    };

    (@check $ty:ty, $s:ident $tag:literal $codec:ty) => {};
    (@check $ty:ty, $s:ident $place:tt $codec:ty $([$lo:expr, $hi:expr] $($exc:expr)?)?) => {
        let place = &$crate::snapshot_table!(@get $s $place);
        <$codec as $crate::snapshot::Codec<_>>::check(place)?;
        $(if !($crate::snapshot::Bounded::within(place, $lo, $hi) $(|| $exc)?) {
            return Err($crate::SnapshotError::Corrupt {
                what: concat!(
                    stringify!($ty), ".", $crate::snapshot_table!(@name $place), " out of range"
                ),
            });
        })?
    };

    (@edges $s:ident $visit:ident $tag:literal $codec:ty) => {};
    (@edges $s:ident $visit:ident $place:tt $codec:ty $([$lo:expr, $hi:expr])?) => {
        let name = $crate::snapshot_table!(@name $place);
        #[allow(unused_mut)]
        let mut cases: Vec<_> =
            <$codec as $crate::snapshot::Codec<_>>::edges(&$crate::snapshot_table!(@get $s $place))
                .into_iter()
                .map(|(e, v)| {
                    let field = format!("{name}.{}", e.field);
                    ($crate::snapshot::Edge { field, ..e }, v)
                })
                .collect();
        $(cases.extend($crate::snapshot::bound_edges(
            &$crate::snapshot_table!(@get $s $place), $lo, $hi, name));)?
        for (edge, mut v) in cases {
            std::mem::swap(&mut $crate::snapshot_table!(@get $s $place), &mut v);
            $visit($s, edge);
            std::mem::swap(&mut $crate::snapshot_table!(@get $s $place), &mut v);
        }
    };
}

/// Renders bytes as lowercase hex (for embedding snapshots in JSON
/// crash reports).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write as _;
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Parses the hex produced by [`to_hex`].
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] on odd length or non-hex characters.
pub fn from_hex(s: &str) -> Result<Vec<u8>, SnapshotError> {
    if !s.len().is_multiple_of(2) {
        return Err(SnapshotError::Corrupt {
            what: "odd-length hex",
        });
    }
    let digit = |c: u8| -> Result<u8, SnapshotError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(SnapshotError::Corrupt {
                what: "non-hex character",
            }),
        }
    };
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in b.chunks_exact(2) {
        out.push((digit(pair[0])? << 4) | digit(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section(*b"AAAA", |s| {
            U8::save(&7u8, s);
            U32::save(&0xdead_beef, s);
            U64::save(&(u64::MAX - 1), s);
        });
        w.section(*b"BBBB", |s| s.bytes(&[1, 2, 3]));
        w.finish()
    }

    /// Reads one value with codec `C`.
    fn read<T: Default, C: Codec<T>>(r: &mut SectionReader<'_>) -> Result<T, SnapshotError> {
        let mut v = T::default();
        C::load(&mut v, r).map(|()| v)
    }

    #[test]
    fn counts_are_range_checked() {
        let mut w = SnapshotWriter::new();
        w.section(*b"AAAA", |s| {
            for v in [0, SNAPSHOT_COUNT_LIMIT, SNAPSHOT_COUNT_LIMIT + 1, u64::MAX] {
                U64::save(&v, s);
            }
        });
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut a = r.section(*b"AAAA").unwrap();
        assert_eq!(read::<u64, Count>(&mut a), Ok(0));
        assert_eq!(read::<u64, Count>(&mut a), Ok(SNAPSHOT_COUNT_LIMIT));
        for _ in 0..2 {
            assert!(matches!(
                read::<u64, Count>(&mut a),
                Err(SnapshotError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn round_trips_sections_and_primitives() {
        let bytes = blob();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut a = r.section(*b"AAAA").unwrap();
        assert_eq!(read::<u8, U8>(&mut a), Ok(7));
        assert_eq!(read::<u32, U32>(&mut a), Ok(0xdead_beef));
        assert_eq!(read::<u64, U64>(&mut a), Ok(u64::MAX - 1));
        assert!(a.bytes(1).is_err());
        let mut b = r.section(*b"BBBB").unwrap();
        assert_eq!(b.bytes(3).unwrap(), &[1, 2, 3]);
        assert_eq!(
            r.section(*b"CCCC").unwrap_err(),
            SnapshotError::MissingSection { tag: *b"CCCC" }
        );
    }

    #[derive(Debug, Clone, Default, PartialEq)]
    struct Inner {
        n: u64,
        list: Vec<u32>,
    }

    snapshot_table! {
        impl Inner |s| {
            n: Count where [1, 10],
            list: List<U32> where [0, 3],
        }
    }

    #[derive(Debug, Clone, Default, PartialEq)]
    struct Outer {
        a: bool,
        b: bool,
        c: bool,
        t: u64,
        inner: Inner,
        opt: Option<(u32, usize)>,
        loads: u32,
    }

    snapshot_table! {
        impl Outer |s| {
            (a, b, c): Flags,
            t: Count where [0, 4] unless s.a,
            inner: Nested,
            opt: Opt<(U32, U64)> where [1, 3],
        }
        after_load {
            s.loads += 1;
        }
    }

    fn sealed(v: &Outer) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section(*b"TEST", |s| v.save_state(s));
        w.finish()
    }

    fn reload(bytes: &[u8]) -> Result<Outer, SnapshotError> {
        let r = SnapshotReader::parse(bytes)?;
        let mut v = Outer::default();
        v.load_state(&mut r.section(*b"TEST")?)?;
        v.well_formed().map(|()| v)
    }

    #[test]
    fn tables_derive_codec_invariants_layout_and_edges() {
        let v = Outer {
            b: true,
            t: 2,
            inner: Inner {
                n: 3,
                list: vec![4, 5],
            },
            opt: Some((2, 9)),
            ..Outer::default()
        };
        assert_eq!(
            reload(&sealed(&v)),
            Ok(Outer {
                loads: 1,
                ..v.clone()
            })
        );

        let mut rows = Vec::new();
        let mut w = SnapshotWriter::new();
        w.section(*b"TEST", |s| {
            v.layout(s, &mut |row, at| rows.push((row.to_string(), at)))
        });
        let rows: Vec<(&str, usize)> = rows.iter().map(|(r, at)| (r.as_str(), *at)).collect();
        assert_eq!(
            rows,
            [
                ("(a, b, c)", 0),
                ("t", 1),
                ("inner", 9),
                ("inner.n", 9),
                ("inner.list", 17),
                ("opt", 33)
            ]
        );

        let mut out_of_range = v.clone();
        out_of_range.inner.list.push(6);
        out_of_range.inner.list.push(7);
        assert_eq!(
            reload(&sealed(&out_of_range)),
            Err(SnapshotError::Corrupt {
                what: "Inner.list out of range"
            })
        );
        out_of_range.a = true;
        out_of_range.t = 5;
        out_of_range.inner.list.pop();
        out_of_range.inner.list.pop();
        assert!(reload(&sealed(&out_of_range)).is_ok(), "escape condition");

        let mut edges = Vec::new();
        v.clone()
            .for_each_edge(&mut |x, e| edges.push((e, x.clone())));
        let fields: Vec<(&str, bool, bool)> = edges
            .iter()
            .map(|(e, _)| (e.field.as_str(), e.upper, e.past))
            .collect();
        assert_eq!(
            fields,
            [
                ("t", true, false),
                ("t", true, true),
                ("inner.n", false, false),
                ("inner.n", false, true),
                ("inner.n", true, false),
                ("inner.n", true, true),
                ("inner.list", true, false),
                ("inner.list", true, true),
                ("opt", false, false),
                ("opt", false, true),
                ("opt", true, false),
                ("opt", true, true),
            ]
        );
        for (edge, state) in edges {
            assert_eq!(reload(&sealed(&state)).is_ok(), !edge.past, "{edge:?}");
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = blob();
        for n in 0..bytes.len() {
            let err = SnapshotReader::parse(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::Corrupt { .. }
                ),
                "prefix of {n} bytes: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let good = blob();
        for at in [0, 5, 12, 20] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            let err = SnapshotReader::parse(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Corrupt { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::VersionMismatch { .. }
                ),
                "flip at {at}: {err}"
            );
        }
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = blob();
        bytes[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        // Re-seal so the version check (not the checksum) is what trips.
        let len = bytes.len();
        let sum = snapshot_checksum(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SnapshotReader::parse(&bytes).unwrap_err(),
            SnapshotError::VersionMismatch {
                found: SNAPSHOT_VERSION + 1,
                expected: SNAPSHOT_VERSION
            }
        );
    }

    #[test]
    fn hex_round_trips() {
        let bytes = blob();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn section_reads_past_the_end_are_truncated_errors() {
        let bytes = blob();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut b = r.section(*b"BBBB").unwrap();
        assert!(matches!(
            read::<u64, U64>(&mut b),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}
