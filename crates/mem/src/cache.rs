//! Set-associative cache tag/state array with LRU replacement and
//! per-byte validity.
//!
//! Used for both the 64 KB 8-way instruction cache and the 128 KB 4-way
//! data cache (paper, Table 1). Data values live in the flat backing
//! memory of the simulator; the cache array tracks presence, dirtiness,
//! byte validity (§4.1) and recency, which is what drives timing and
//! memory traffic.
//!
//! The array sits on the simulator's per-access hot path, so its state
//! is kept branch-poor and allocation-free: byte validity is a fixed
//! [`ByteMask`] bitmask (not a heap `Vec<bool>`), set/tag extraction
//! uses shift/mask fields hoisted out of [`CacheGeometry`] at
//! construction, and the common same-line / same-way access patterns
//! are served by a last-line memo plus an MRU-first way probe. None of
//! this changes observable behaviour — lookup results, victims, LRU
//! decisions and statistics are bit-identical to the straightforward
//! implementation (pinned by `tests/tests/cache_differential.rs` and
//! the engine-equivalence golden cells).

use tm3270_encode::snapshot::{Array, Count, Flags, List, Nested, U32, U64};

/// Maximum line size the fixed validity bitmask supports, in bytes. The
/// paper machines use 64/128-byte lines; the ablation studies sweep up
/// to 256.
pub const MAX_LINE: u32 = 256;

const MASK_WORDS: usize = (MAX_LINE as usize) / 64;

/// Fixed-width per-byte validity bitmask of one cache line (bit `i` set
/// = byte `i` of the line holds validated data). Replaces a per-line
/// `Vec<bool>`: all-valid checks are word compares, copy-back sizing is
/// `count_ones`, and whole-line validation/invalidation are constant
/// stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ByteMask {
    w: [u64; MASK_WORDS],
}

impl ByteMask {
    const EMPTY: ByteMask = ByteMask { w: [0; MASK_WORDS] };

    /// The mask with bits `0..line` set (every byte of a `line`-byte
    /// line valid).
    fn full(line: u32) -> ByteMask {
        let mut m = ByteMask::EMPTY;
        m.set_range(0, line);
        m
    }

    /// Sets bits `[off, off + len)`.
    fn set_range(&mut self, off: u32, len: u32) {
        debug_assert!(off + len <= MAX_LINE, "byte range beyond mask width");
        let mut o = off;
        let mut l = len;
        while l > 0 {
            let wi = (o / 64) as usize;
            let bit = o % 64;
            let n = (64 - bit).min(l);
            let mask = if n == 64 {
                u64::MAX
            } else {
                ((1u64 << n) - 1) << bit
            };
            self.w[wi] |= mask;
            o += n;
            l -= n;
        }
    }

    /// Whether every bit in `[off, off + len)` is set.
    fn covers(&self, off: u32, len: u32) -> bool {
        debug_assert!(off + len <= MAX_LINE, "byte range beyond mask width");
        let mut o = off;
        let mut l = len;
        while l > 0 {
            let wi = (o / 64) as usize;
            let bit = o % 64;
            let n = (64 - bit).min(l);
            let mask = if n == 64 {
                u64::MAX
            } else {
                ((1u64 << n) - 1) << bit
            };
            if self.w[wi] & mask != mask {
                return false;
            }
            o += n;
            l -= n;
        }
        true
    }

    /// Number of set bits (valid bytes).
    fn count(&self) -> u32 {
        self.w.iter().map(|w| w.count_ones()).sum()
    }
}

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size: u32,
    /// Line size in bytes.
    pub line: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheGeometry {
    /// The TM3270 data cache: 128 KB, 4-way, 128-byte lines (Table 1).
    pub fn tm3270_dcache() -> CacheGeometry {
        CacheGeometry {
            size: 128 * 1024,
            line: 128,
            ways: 4,
        }
    }

    /// The TM3270 instruction cache: 64 KB, 8-way, 128-byte lines.
    pub fn tm3270_icache() -> CacheGeometry {
        CacheGeometry {
            size: 64 * 1024,
            line: 128,
            ways: 8,
        }
    }

    /// The TM3260 data cache: 16 KB, 8-way, 64-byte lines (Table 6).
    pub fn tm3260_dcache() -> CacheGeometry {
        CacheGeometry {
            size: 16 * 1024,
            line: 64,
            ways: 8,
        }
    }

    /// The TM3260 instruction cache: 64 KB, 8-way, 64-byte lines (Table 6).
    pub fn tm3260_icache() -> CacheGeometry {
        CacheGeometry {
            size: 64 * 1024,
            line: 64,
            ways: 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size / self.line / self.ways
    }

    /// `log2(line)`: shift that turns an address into a line number.
    pub fn line_shift(&self) -> u32 {
        self.line.trailing_zeros()
    }

    /// `sets - 1`: mask that extracts the set index from a line number
    /// (set counts are validated to be powers of two).
    pub fn set_mask(&self) -> u32 {
        self.sets() - 1
    }

    /// `log2(sets)`: shift that separates the tag from the set index.
    pub fn set_shift(&self) -> u32 {
        self.sets().trailing_zeros()
    }

    /// The set index of an address.
    pub fn set_of(&self, addr: u32) -> u32 {
        (addr >> self.line_shift()) & self.set_mask()
    }

    /// The line-aligned base address.
    pub fn line_base(&self, addr: u32) -> u32 {
        addr & !(self.line - 1)
    }

    /// Validates the geometry (power-of-two fields, consistent sizes).
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent geometry.
    pub fn validate(&self) {
        assert!(self.line.is_power_of_two(), "line size not a power of two");
        assert!(
            self.line <= MAX_LINE,
            "line size beyond the fixed validity-mask width"
        );
        assert!(
            self.size.is_multiple_of(self.line * self.ways),
            "size not divisible"
        );
        assert!(
            self.sets().is_power_of_two(),
            "set count not a power of two"
        );
    }
}

/// State of one cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Per-byte validity (allocate-on-write-miss, §4.1).
    valid_bytes: ByteMask,
    /// LRU counter: larger = more recently used.
    lru: u64,
    /// Set when the line was brought in by the prefetch unit and not yet
    /// referenced by a demand access (prefetch usefulness accounting).
    prefetched: bool,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present and all requested bytes valid.
    Hit,
    /// Line present but some requested bytes invalid (possible under
    /// allocate-on-write-miss, §4.2).
    PartialHit,
    /// Line absent.
    Miss,
}

/// A victim line evicted by a fill or allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line base address of the victim.
    pub base: u32,
    /// Number of dirty-valid bytes that must be copied back (§4.1: only
    /// validated bytes are copied back).
    pub copyback_bytes: u32,
}

/// Sentinel for "no memoized line".
const NO_MEMO: u32 = u32::MAX;

/// The tag/state array of a set-associative cache.
#[derive(Debug, Clone)]
pub struct CacheArray {
    geometry: CacheGeometry,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
    // Geometry shift/mask fields hoisted out of `geometry` at
    // construction so the per-access paths never divide.
    line_shift: u32,
    line_mask: u32,
    set_mask: u32,
    set_shift: u32,
    ways: u32,
    /// `ByteMask::full(line)`, precomputed: fills are constant stores.
    full_mask: ByteMask,
    /// Last-line memo: base address and absolute line index of the most
    /// recently found line. Hot kernels touch the same line repeatedly;
    /// the memo turns those probes into one compare. Verified on use
    /// (valid + tag), so eviction/replacement cannot alias it.
    memo_base: u32,
    memo_idx: u32,
    /// Most-recently-used way per set: probed before the linear way
    /// scan. Purely a search hint — hit/miss results are
    /// order-independent because a tag resides in at most one way.
    mru_way: Vec<u8>,
    /// Packed `(tag << 1) | valid` per line, mirroring `lines`: the way
    /// scan walks this dense array (8 bytes per line) instead of the
    /// ~56-byte `Line` records, so probes of scattered addresses stay
    /// inside a few host cache lines. Kept in sync by every operation
    /// that changes a line's tag or validity.
    tags: Vec<u64>,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit with all bytes valid.
    pub hits: u64,
    /// Lookups that found the line but missed on byte validity.
    pub partial_hits: u64,
    /// Lookups that missed entirely.
    pub misses: u64,
    /// Lines filled from memory.
    pub fills: u64,
    /// Fills that merged into an already-allocated line, validating its
    /// remaining bytes (the refill path of allocate-on-write-miss).
    pub refill_merges: u64,
    /// Lines allocated without a fill (allocate-on-write-miss).
    pub allocations: u64,
    /// Victims copied back.
    pub copybacks: u64,
    /// Bytes copied back (valid bytes only).
    pub copyback_bytes: u64,
    /// Demand hits on prefetched lines (prefetch usefulness).
    pub prefetch_hits: u64,
}

impl CacheArray {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on an invalid geometry.
    pub fn new(geometry: CacheGeometry) -> CacheArray {
        geometry.validate();
        let n = (geometry.sets() * geometry.ways) as usize;
        CacheArray {
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    valid_bytes: ByteMask::EMPTY,
                    lru: 0,
                    prefetched: false,
                };
                n
            ],
            tick: 0,
            stats: CacheStats::default(),
            line_shift: geometry.line_shift(),
            line_mask: geometry.line - 1,
            set_mask: geometry.set_mask(),
            set_shift: geometry.set_shift(),
            ways: geometry.ways,
            full_mask: ByteMask::full(geometry.line),
            memo_base: NO_MEMO,
            memo_idx: 0,
            mru_way: vec![0; geometry.sets() as usize],
            tags: vec![0; n],
            geometry,
        }
    }

    /// The packed search-array entry for a valid line with `tag`.
    #[inline]
    fn packed_tag(tag: u32) -> u64 {
        (u64::from(tag) << 1) | 1
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    #[inline]
    fn set_of(&self, addr: u32) -> u32 {
        (addr >> self.line_shift) & self.set_mask
    }

    #[inline]
    fn line_base(&self, addr: u32) -> u32 {
        addr & !self.line_mask
    }

    #[inline]
    fn tag_of(&self, addr: u32) -> u32 {
        addr >> self.line_shift >> self.set_shift
    }

    /// Read-only line search: last-line memo first, then the MRU way of
    /// the set, then the remaining ways. Returns the absolute line
    /// index. A tag lives in at most one way of its set, so the probe
    /// order cannot change the result — only how fast it is found.
    #[inline]
    fn probe(&self, addr: u32) -> Option<usize> {
        let base = self.line_base(addr);
        let want = Self::packed_tag(self.tag_of(addr));
        if self.memo_base == base {
            // The memo is only ever set to an index inside `base`'s own
            // set, so valid + tag confirms identity.
            let i = self.memo_idx as usize;
            if self.tags[i] == want {
                return Some(i);
            }
        }
        let set = self.set_of(addr) as usize;
        let ways = self.ways as usize;
        let start = set * ways;
        let mru = self.mru_way[set] as usize;
        if self.tags[start + mru] == want {
            return Some(start + mru);
        }
        for w in 0..ways {
            if w == mru {
                continue;
            }
            if self.tags[start + w] == want {
                return Some(start + w);
            }
        }
        None
    }

    /// [`probe`](Self::probe) plus memo/MRU-hint refresh on a hit.
    #[inline]
    fn find(&mut self, addr: u32) -> Option<usize> {
        let hit = self.probe(addr);
        if let Some(i) = hit {
            self.remember(addr, i);
        }
        hit
    }

    /// Records `idx` as the line holding `addr` in the memo and the MRU
    /// hint of its set.
    #[inline]
    fn remember(&mut self, addr: u32, idx: usize) {
        self.memo_base = self.line_base(addr);
        self.memo_idx = idx as u32;
        let set = self.set_of(addr) as usize;
        self.mru_way[set] = (idx - set * self.ways as usize) as u8;
    }

    /// Drops the memo if it points at `idx` (the line is being
    /// invalidated or repurposed).
    #[inline]
    fn forget(&mut self, idx: usize) {
        if self.memo_idx == idx as u32 {
            self.memo_base = NO_MEMO;
        }
    }

    /// Whether the line containing `addr` is present (no LRU update, no
    /// stats; used by the prefetch unit's filter).
    pub fn contains(&self, addr: u32) -> bool {
        self.probe(addr).is_some()
    }

    /// Looks up the byte range `[addr, addr + len)`, which must be
    /// non-empty and must not cross a line boundary. Updates LRU and
    /// statistics.
    pub fn lookup(&mut self, addr: u32, len: u32) -> Lookup {
        debug_assert!(len > 0, "empty lookup");
        debug_assert!(
            self.line_base(addr) == self.line_base(addr.wrapping_add(len - 1)),
            "lookup crosses a line boundary"
        );
        self.tick += 1;
        match self.find(addr) {
            Some(i) => {
                self.lines[i].lru = self.tick;
                if self.lines[i].prefetched {
                    self.lines[i].prefetched = false;
                    self.stats.prefetch_hits += 1;
                }
                let off = addr & self.line_mask;
                if self.lines[i].valid_bytes.covers(off, len) {
                    self.stats.hits += 1;
                    Lookup::Hit
                } else {
                    self.stats.partial_hits += 1;
                    Lookup::PartialHit
                }
            }
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
        }
    }

    fn evict_slot(&mut self, addr: u32) -> (usize, Option<Victim>) {
        let set = self.set_of(addr) as usize;
        let ways = self.ways as usize;
        let range = set * ways..(set + 1) * ways;
        // Prefer an invalid way; otherwise evict the LRU way.
        let slot = range
            .clone()
            .find(|&i| self.tags[i] & 1 == 0)
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.lines[i].lru)
                    .expect("non-empty set")
            });
        let victim = if self.lines[slot].valid && self.lines[slot].dirty {
            let vb = self.lines[slot].valid_bytes.count();
            self.stats.copybacks += 1;
            self.stats.copyback_bytes += u64::from(vb);
            Some(Victim {
                base: ((self.lines[slot].tag << self.set_shift) | set as u32) << self.line_shift,
                copyback_bytes: vb,
            })
        } else {
            None
        };
        (slot, victim)
    }

    /// Fills the line containing `addr` from memory (refill or prefetch
    /// completion). All bytes become valid; returns the victim if a dirty
    /// line had to be evicted.
    pub fn fill(&mut self, addr: u32, prefetched: bool) -> Option<Victim> {
        if let Some(i) = self.find(addr) {
            // Refill merge into a partially valid (allocated) line.
            self.lines[i].valid_bytes = self.full_mask;
            self.stats.refill_merges += 1;
            return None;
        }
        let tag = self.tag_of(addr);
        let (slot, victim) = self.evict_slot(addr);
        self.tick += 1;
        let full = self.full_mask;
        let line = &mut self.lines[slot];
        line.tag = tag;
        line.valid = true;
        line.dirty = false;
        line.valid_bytes = full;
        line.lru = self.tick;
        line.prefetched = prefetched;
        self.tags[slot] = Self::packed_tag(tag);
        self.stats.fills += 1;
        self.remember(addr, slot);
        victim
    }

    /// Allocates the line containing `addr` without fetching
    /// (allocate-on-write-miss, §4.1). No byte becomes valid; returns the
    /// victim if a dirty line had to be evicted.
    pub fn allocate(&mut self, addr: u32) -> Option<Victim> {
        if self.find(addr).is_some() {
            return None;
        }
        let tag = self.tag_of(addr);
        let (slot, victim) = self.evict_slot(addr);
        self.tick += 1;
        let line = &mut self.lines[slot];
        line.tag = tag;
        line.valid = true;
        line.dirty = false;
        line.valid_bytes = ByteMask::EMPTY;
        line.lru = self.tick;
        line.prefetched = false;
        self.tags[slot] = Self::packed_tag(tag);
        self.stats.allocations += 1;
        self.remember(addr, slot);
        victim
    }

    /// Records a store of `len` bytes at `addr` into a present line,
    /// marking the bytes valid and the line dirty. The range must be
    /// non-empty, must not cross a line boundary, and the line must be
    /// present.
    ///
    /// # Panics
    ///
    /// Panics if the line is absent.
    pub fn write(&mut self, addr: u32, len: u32) {
        debug_assert!(len > 0, "empty write");
        debug_assert!(
            self.line_base(addr) == self.line_base(addr.wrapping_add(len - 1)),
            "write crosses a line boundary"
        );
        let i = self.find(addr).expect("store into absent line");
        self.tick += 1;
        self.lines[i].lru = self.tick;
        self.lines[i].dirty = true;
        if self.lines[i].prefetched {
            self.lines[i].prefetched = false;
            self.stats.prefetch_hits += 1;
        }
        let off = addr & self.line_mask;
        self.lines[i].valid_bytes.set_range(off, len);
    }

    /// [`lookup`](Self::lookup) immediately followed by
    /// [`write`](Self::write) when the line is present — one tag search
    /// instead of two. On a miss only the lookup half runs (the caller
    /// allocates or fills the line and then calls `write`). Tick
    /// advance, final LRU values, statistics and byte validity are
    /// bit-identical to the two separate calls.
    pub fn lookup_write(&mut self, addr: u32, len: u32) -> Lookup {
        debug_assert!(len > 0, "empty lookup");
        debug_assert!(
            self.line_base(addr) == self.line_base(addr.wrapping_add(len - 1)),
            "lookup crosses a line boundary"
        );
        self.tick += 1;
        match self.find(addr) {
            Some(i) => {
                if self.lines[i].prefetched {
                    self.lines[i].prefetched = false;
                    self.stats.prefetch_hits += 1;
                }
                let off = addr & self.line_mask;
                let result = if self.lines[i].valid_bytes.covers(off, len) {
                    self.stats.hits += 1;
                    Lookup::Hit
                } else {
                    self.stats.partial_hits += 1;
                    Lookup::PartialHit
                };
                // The write half: the line's final recency is the
                // second tick, exactly as if `write` had re-found it.
                self.tick += 1;
                self.lines[i].lru = self.tick;
                self.lines[i].dirty = true;
                self.lines[i].valid_bytes.set_range(off, len);
                result
            }
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Invalidates the line containing `addr` without copy-back
    /// (`dinvalid`). Returns whether a line was invalidated.
    pub fn invalidate(&mut self, addr: u32) -> bool {
        if let Some(i) = self.probe(addr) {
            self.lines[i].valid = false;
            self.lines[i].dirty = false;
            self.tags[i] = 0;
            self.forget(i);
            true
        } else {
            false
        }
    }

    /// Flushes the line containing `addr` (`dflush`): returns the number of
    /// valid dirty bytes to copy back, and invalidates the line.
    pub fn flush(&mut self, addr: u32) -> u32 {
        if let Some(i) = self.probe(addr) {
            let bytes = if self.lines[i].dirty {
                self.lines[i].valid_bytes.count()
            } else {
                0
            };
            if bytes > 0 {
                self.stats.copybacks += 1;
                self.stats.copyback_bytes += u64::from(bytes);
            }
            self.lines[i].valid = false;
            self.lines[i].dirty = false;
            self.tags[i] = 0;
            self.forget(i);
            bytes
        } else {
            0
        }
    }

    /// Cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Lines in the array: sets × ways.
    fn line_count(&self) -> u64 {
        u64::from(self.geometry.sets() * self.geometry.ways)
    }
}

// The search hints (last-line memo, MRU ways) and the packed tag array
// are not saved: they follow from the lines, so loading rebuilds them.
tm3270_encode::snapshot_table! {
    impl CacheArray |c| {
        tick: Count,
        stats: Nested,
        lines: List<Nested> where [c.line_count(), c.line_count()],
    }
    after_load {
        let packed = |l: &Line| if l.valid { Self::packed_tag(l.tag) } else { 0 };
        c.tags = c.lines.iter().map(packed).collect();
        c.memo_base = NO_MEMO;
        c.memo_idx = 0;
        c.mru_way.fill(0);
    }
}

tm3270_encode::snapshot_table! {
    impl Line |l| {
        tag: U32,
        (valid, dirty, prefetched): Flags,
        lru: U64,
        (valid_bytes.w): Array<U64>,
    }
}

tm3270_encode::snapshot_table! {
    impl CacheStats |s| {
        hits: Count,
        partial_hits: Count,
        misses: Count,
        fills: Count,
        refill_merges: Count,
        allocations: Count,
        copybacks: Count,
        copyback_bytes: Count,
        prefetch_hits: Count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray {
        // 4 sets x 2 ways x 64-byte lines = 512 bytes.
        CacheArray::new(CacheGeometry {
            size: 512,
            line: 64,
            ways: 2,
        })
    }

    #[test]
    fn geometry_of_paper_caches() {
        assert_eq!(CacheGeometry::tm3270_dcache().sets(), 256);
        assert_eq!(CacheGeometry::tm3270_icache().sets(), 64);
        assert_eq!(CacheGeometry::tm3260_dcache().sets(), 32);
    }

    #[test]
    fn geometry_shift_mask_fields_match_divides() {
        for geom in [
            CacheGeometry::tm3270_dcache(),
            CacheGeometry::tm3270_icache(),
            CacheGeometry::tm3260_dcache(),
            CacheGeometry::tm3260_icache(),
        ] {
            for addr in [0u32, 0x7f, 0x80, 0x1234, 0xffff_ffc0, 0xdead_beef] {
                assert_eq!(geom.set_of(addr), (addr / geom.line) % geom.sets());
                assert_eq!(
                    addr >> geom.line_shift() >> geom.set_shift(),
                    addr / geom.line / geom.sets()
                );
            }
        }
    }

    #[test]
    fn lookup_write_matches_split_calls() {
        // Drive two identical caches through a pseudo-random mix of
        // loads and stores; stores go through `lookup` + `write` on one
        // and `lookup_write` on the other. Tick, LRU, validity, stats
        // and memo-visible behaviour must stay bit-identical, which the
        // serialized state captures in full.
        let mut split = small();
        let mut fused = small();
        let mut x = 0x2545_f491u32;
        for _ in 0..4000 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let len = 1 + (x >> 16) % 4;
            // Keep the access inside one 64-byte line.
            let addr = ((x % 0x800) & !63) + (x >> 8) % (64 - len + 1);
            if x & 8 != 0 {
                // Load path: identical calls on both.
                for c in [&mut split, &mut fused] {
                    if c.lookup(addr, len) != Lookup::Hit {
                        let _ = c.fill(addr & !63, false);
                    }
                }
            } else {
                let a = split.lookup(addr, len);
                if a == Lookup::Miss {
                    let _ = split.allocate(addr & !63);
                }
                split.write(addr, len);
                let b = fused.lookup_write(addr, len);
                assert_eq!(a, b);
                if b == Lookup::Miss {
                    let _ = fused.allocate(addr & !63);
                    fused.write(addr, len);
                }
            }
        }
        use tm3270_encode::snapshot::State;
        let dump = |c: &CacheArray| {
            let mut w = tm3270_encode::SnapshotWriter::new();
            w.section(*b"test", |s| c.save_state(s));
            w.finish()
        };
        assert_eq!(dump(&split), dump(&fused));
    }

    #[test]
    fn byte_mask_ranges() {
        let mut m = ByteMask::EMPTY;
        assert_eq!(m.count(), 0);
        m.set_range(62, 4); // crosses the first word boundary
        assert_eq!(m.count(), 4);
        assert!(m.covers(62, 4));
        assert!(!m.covers(61, 4));
        assert!(!m.covers(62, 5));
        m.set_range(0, 256);
        assert_eq!(m.count(), 256);
        assert!(m.covers(0, 256));
        assert_eq!(m, ByteMask::full(256));
        assert_eq!(ByteMask::full(64).count(), 64);
        assert!(!ByteMask::full(64).covers(0, 65));
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0x100, 4), Lookup::Miss);
        assert!(c.fill(0x100, false).is_none());
        assert_eq!(c.lookup(0x100, 4), Lookup::Hit);
        assert_eq!(c.lookup(0x13c, 4), Lookup::Hit, "same line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines with addr % 256 == 0 (4 sets x 64B).
        c.fill(0x000, false);
        c.fill(0x100, false);
        // Touch 0x000 so 0x100 is LRU.
        c.lookup(0x000, 4);
        c.fill(0x200, false);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100), "LRU way evicted");
        assert!(c.contains(0x200));
    }

    #[test]
    fn allocate_on_write_miss_has_no_valid_bytes() {
        let mut c = small();
        c.allocate(0x40);
        assert_eq!(c.lookup(0x40, 4), Lookup::PartialHit);
        c.write(0x40, 4);
        assert_eq!(c.lookup(0x40, 4), Lookup::Hit);
        assert_eq!(c.lookup(0x48, 4), Lookup::PartialHit, "unwritten bytes");
    }

    #[test]
    fn copyback_counts_only_valid_bytes() {
        let mut c = small();
        c.allocate(0x000);
        c.write(0x000, 16); // 16 valid dirty bytes
        c.fill(0x100, false);
        c.lookup(0x100, 4); // make 0x000 LRU
        let victim = c.fill(0x200, false).expect("dirty victim");
        assert_eq!(victim.copyback_bytes, 16);
        assert_eq!(victim.base, 0x000);
        assert_eq!(c.stats().copyback_bytes, 16);
    }

    #[test]
    fn fill_merges_into_allocated_line() {
        let mut c = small();
        c.allocate(0x40);
        c.write(0x40, 4);
        assert_eq!(c.stats().refill_merges, 0);
        assert!(c.fill(0x40, false).is_none());
        assert_eq!(c.lookup(0x60, 4), Lookup::Hit, "refill validated all bytes");
        assert_eq!(c.stats().refill_merges, 1, "merge path counted");
        assert_eq!(c.stats().fills, 0, "a merge is not a fill");
    }

    #[test]
    fn refill_merge_does_not_touch_lru_or_timing_state() {
        let mut c = small();
        // Two lines of set 0: 0x000 (allocated) and 0x100 (filled, more
        // recently used).
        c.allocate(0x000);
        c.fill(0x100, false);
        c.lookup(0x100, 4);
        // Merging into 0x000 counts but must NOT refresh its recency:
        // the next eviction in set 0 still victimizes 0x000.
        assert!(c.fill(0x000, false).is_none());
        assert_eq!(c.stats().refill_merges, 1);
        c.fill(0x200, false);
        assert!(!c.contains(0x000), "merge left LRU order unchanged");
        assert!(c.contains(0x100));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = small();
        c.fill(0x80, false);
        c.write(0x80, 8);
        assert_eq!(c.flush(0x80), 64, "refilled line: all bytes valid+dirty");
        assert!(!c.contains(0x80));

        c.allocate(0x80);
        c.write(0x80, 8);
        assert_eq!(c.flush(0x80), 8, "allocated line: only written bytes");

        c.fill(0xc0, false);
        assert!(c.invalidate(0xc0));
        assert!(!c.contains(0xc0));
        assert!(!c.invalidate(0xc0));
    }

    #[test]
    fn prefetch_usefulness_tracked() {
        let mut c = small();
        c.fill(0x40, true);
        assert_eq!(c.stats().prefetch_hits, 0);
        c.lookup(0x40, 4);
        assert_eq!(c.stats().prefetch_hits, 1);
        // Second touch does not double count.
        c.lookup(0x44, 4);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn memo_survives_eviction_and_replacement() {
        let mut c = small();
        // Memoize 0x000, then evict it by filling two more lines of set 0
        // and re-check: the memo must not report the stale line.
        c.fill(0x000, false);
        assert_eq!(c.lookup(0x000, 4), Lookup::Hit);
        c.fill(0x100, false);
        c.lookup(0x100, 4);
        c.fill(0x200, false); // evicts 0x000 (LRU)
        assert!(!c.contains(0x000), "stale memo must not resurrect a line");
        assert_eq!(c.lookup(0x000, 4), Lookup::Miss);
        // And the slot that replaced it serves its own address.
        assert_eq!(c.lookup(0x200, 4), Lookup::Hit);
    }

    #[test]
    fn memo_cleared_by_invalidate_and_flush() {
        let mut c = small();
        c.fill(0x40, false);
        c.lookup(0x40, 4); // memoized
        c.invalidate(0x40);
        assert_eq!(c.lookup(0x40, 4), Lookup::Miss);
        c.fill(0x40, false);
        c.write(0x40, 4);
        c.lookup(0x40, 4); // memoized again
        assert_eq!(c.flush(0x40), 64);
        assert_eq!(c.lookup(0x40, 4), Lookup::Miss);
    }

    // These two check `debug_assert!`s, which release builds compile out.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "crosses a line boundary")]
    fn cross_line_lookup_panics() {
        let mut c = small();
        c.lookup(0x3e, 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty lookup")]
    fn empty_lookup_panics() {
        // Regression: `addr.wrapping_add(len - 1)` underflowed for
        // `len == 0` before the length was asserted first.
        let mut c = small();
        c.lookup(0x40, 0);
    }
}
