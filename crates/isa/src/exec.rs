//! Functional (architectural) semantics of every operation.
//!
//! [`execute`] computes the architectural effect of one guarded operation:
//! register writes, memory traffic and control flow. Timing is *not*
//! modelled here — that is the job of the `tm3270-core` pipeline simulator,
//! which calls into this module for the architectural state changes.

use crate::cabac::{cabac_decode_step, CabacState};
use crate::op::Op;
use crate::opcode::{pure_fn, Access, Opcode};
use crate::reg::{Reg, RegFile};
use crate::value::*;

/// Cache-control operations issued by the store unit (§4, software-visible
/// cache management).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// Allocate a cache line without fetching it (`allocd`).
    Allocate,
    /// Software prefetch of a cache line (`prefd`).
    Prefetch,
    /// Invalidate a cache line without copy-back (`dinvalid`).
    Invalidate,
    /// Copy back and invalidate a cache line (`dflush`).
    Flush,
}

/// Prefetch-unit parameters, one set per memory region (§2.3):
/// `PFn_START_ADDR`, `PFn_END_ADDR` and `PFn_STRIDE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfParam {
    /// `PFn_START_ADDR`.
    Start,
    /// `PFn_END_ADDR`.
    End,
    /// `PFn_STRIDE`.
    Stride,
}

/// A fault raised by operation semantics instead of a panic.
///
/// These surface through [`execute`]'s `Result` so a corrupted or
/// adversarial program degrades into a typed error the caller can report,
/// never a crash of the simulator itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// A memory access violated the alignment policy of a strict memory.
    MisalignedAccess {
        /// Effective byte address of the access.
        addr: u32,
        /// Access width in bytes.
        size: u32,
    },
    /// A memory access fell outside the bounds of a strict memory.
    OutOfBoundsAccess {
        /// Effective byte address of the access.
        addr: u32,
        /// Access width in bytes.
        size: u32,
    },
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::MisalignedAccess { addr, size } => {
                write!(f, "misaligned {size}-byte access at {addr:#010x}")
            }
            ExecError::OutOfBoundsAccess { addr, size } => {
                write!(f, "out-of-bounds {size}-byte access at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The natural alignment required of a `size`-byte access when a memory
/// is configured to enforce alignment.
///
/// The TM3270 data cache architecturally supports non-aligned accesses
/// penalty-free (§4.1), so this is a *diagnostic* policy, not an
/// architectural one: 2- and 4-byte accesses align to their width, the
/// 8-byte `super_ld32r` pair aligns to 4, and the inherently byte-offset
/// `ld_frac8` window (5 bytes) has no requirement.
pub fn required_alignment(size: u32) -> u32 {
    match size {
        2 => 2,
        4 | 8 => 4,
        _ => 1,
    }
}

/// Validates `addr`/`size` against an alignment policy; used by strict
/// memories from their `check_access` hooks.
pub fn check_alignment(addr: u32, size: u32) -> Result<(), ExecError> {
    let align = required_alignment(size);
    if !addr.is_multiple_of(align) {
        return Err(ExecError::MisalignedAccess { addr, size });
    }
    Ok(())
}

/// The data-memory interface seen by operation semantics.
///
/// Implemented by the flat test memory ([`FlatMemory`]) and by the full
/// cache hierarchy in `tm3270-mem`. Accesses may be non-aligned; the
/// TM3270 data cache supports them penalty-free (§4.1).
pub trait DataMemory {
    /// Reads `buf.len()` bytes starting at `addr`.
    fn load_bytes(&mut self, addr: u32, buf: &mut [u8]);
    /// Writes `data` starting at `addr`.
    fn store_bytes(&mut self, addr: u32, data: &[u8]);
    /// Executes a cache-control operation. Default: no-op (flat memories
    /// have no cache).
    fn cache_op(&mut self, _op: CacheOp, _addr: u32) {}
    /// Writes a prefetch-region parameter (memory-mapped IO). Default:
    /// no-op.
    fn write_pf_param(&mut self, _param: PfParam, _region: u8, _value: u32) {}

    /// Validates an upcoming `size`-byte access at `addr`, *before* any
    /// architectural effect. The default is fully permissive (the
    /// TM3270's wrap-around flat address space); strict memories return
    /// [`ExecError::OutOfBoundsAccess`] / [`ExecError::MisalignedAccess`]
    /// here, which [`execute`] propagates without touching state.
    fn check_access(&self, _addr: u32, _size: u32) -> Result<(), ExecError> {
        Ok(())
    }

    /// Little-endian load helper.
    fn load_le(&mut self, addr: u32, bytes: usize) -> u32 {
        let mut buf = [0u8; 4];
        self.load_bytes(addr, &mut buf[..bytes]);
        u32::from_le_bytes(buf)
    }

    /// Little-endian store helper.
    fn store_le(&mut self, addr: u32, bytes: usize, value: u32) {
        let buf = value.to_le_bytes();
        self.store_bytes(addr, &buf[..bytes]);
    }
}

/// Segment granularity of [`FlatMemory`]: 256 KiB. Large enough that
/// segment-crossing accesses are vanishingly rare, small enough that a
/// kernel touching a few hundred kilobytes only ever zeroes a few
/// hundred kilobytes.
const SEG_BYTES: usize = 1 << 18;

/// A flat byte-array memory for functional simulation and tests.
///
/// Addresses wrap within the memory size (which must be a power of two).
///
/// The backing store is *demand-paged* in 256 KiB segments: untouched
/// address space costs neither allocation nor zeroing, so constructing a
/// machine with the default 16 MB space is O(touched footprint), not
/// O(address space) — the dominant cost of short sweep runs before this
/// layout. Reads from an absent segment return zero without allocating;
/// the first store into a segment materializes it zero-filled.
#[derive(Debug, Clone)]
pub struct FlatMemory {
    segs: Vec<Option<Box<[u8]>>>,
    /// Bytes per segment: `SEG_BYTES`, or the whole size when smaller.
    seg_len: usize,
    seg_shift: u32,
    size: usize,
    mask: u32,
    strict_bounds: bool,
    strict_align: bool,
}

impl FlatMemory {
    /// Creates a zeroed flat memory of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two or is zero. This is a
    /// construction-time configuration invariant (the wrap mask requires
    /// it), not an input-dependent path: program data can never reach it.
    pub fn new(size: usize) -> FlatMemory {
        assert!(size.is_power_of_two(), "memory size must be a power of two");
        let seg_len = size.min(SEG_BYTES);
        FlatMemory {
            segs: vec![None; size / seg_len],
            seg_len,
            seg_shift: seg_len.trailing_zeros(),
            size,
            mask: (size - 1) as u32,
            strict_bounds: false,
            strict_align: false,
        }
    }

    /// Creates a strict flat memory: accesses past `size` return
    /// [`ExecError::OutOfBoundsAccess`] and non-naturally-aligned
    /// accesses return [`ExecError::MisalignedAccess`] instead of
    /// wrapping silently. Used by the fault-injection harness.
    pub fn new_strict(size: usize) -> FlatMemory {
        let mut m = FlatMemory::new(size);
        m.strict_bounds = true;
        m.strict_align = true;
        m
    }

    /// Enables/disables bounds checking on an existing memory.
    pub fn set_strict_bounds(&mut self, on: bool) {
        self.strict_bounds = on;
    }

    /// Enables/disables alignment checking on an existing memory.
    pub fn set_strict_align(&mut self, on: bool) {
        self.strict_align = on;
    }

    /// The memory size in bytes.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the memory is empty (never true for a constructed memory).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// One byte at in-range offset `a` (absent segments read zero).
    #[inline]
    fn get(&self, a: usize) -> u8 {
        match &self.segs[a >> self.seg_shift] {
            Some(s) => s[a & (self.seg_len - 1)],
            None => 0,
        }
    }

    /// The materialized segment containing offset `a`, zero-filled on
    /// first touch.
    #[inline]
    fn seg_mut(&mut self, a: usize) -> &mut [u8] {
        let seg_len = self.seg_len;
        self.segs[a >> self.seg_shift].get_or_insert_with(|| vec![0u8; seg_len].into_boxed_slice())
    }

    /// Reads `buf.len()` bytes at `addr` without requiring `&mut self`
    /// (same wrap-around semantics as the [`DataMemory`] load).
    pub fn read_into(&self, addr: u32, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let a = (addr & self.mask) as usize;
        let end = a + buf.len();
        if end <= self.size && (a >> self.seg_shift) == ((end - 1) >> self.seg_shift) {
            let off = a & (self.seg_len - 1);
            match &self.segs[a >> self.seg_shift] {
                Some(s) => buf.copy_from_slice(&s[off..off + buf.len()]),
                None => buf.fill(0),
            }
        } else {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = self.get(((addr.wrapping_add(i as u32)) & self.mask) as usize);
            }
        }
    }

    /// Writes `data` at `addr` (same wrap-around semantics as the
    /// [`DataMemory`] store).
    pub fn write_from(&mut self, addr: u32, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let a = (addr & self.mask) as usize;
        let end = a + data.len();
        if end <= self.size && (a >> self.seg_shift) == ((end - 1) >> self.seg_shift) {
            let off = a & (self.seg_len - 1);
            self.seg_mut(a)[off..off + data.len()].copy_from_slice(data);
        } else {
            let seg_mask = self.seg_len - 1;
            for (i, &b) in data.iter().enumerate() {
                let a = ((addr.wrapping_add(i as u32)) & self.mask) as usize;
                self.seg_mut(a)[a & seg_mask] = b;
            }
        }
    }

    /// Resets the whole address space to zero, releasing every segment.
    pub fn clear(&mut self) {
        for s in &mut self.segs {
            *s = None;
        }
    }

    /// The number of bytes up to and including the last non-zero one
    /// (0 for an all-zero memory). Snapshots store exactly this prefix.
    pub fn trailing_nonzero_len(&self) -> usize {
        for (si, seg) in self.segs.iter().enumerate().rev() {
            if let Some(s) = seg {
                if let Some(i) = s.iter().rposition(|&b| b != 0) {
                    return si * self.seg_len + i + 1;
                }
            }
        }
        0
    }

    /// Calls `f` on consecutive chunks covering `[0, len)`, in address
    /// order (absent segments surface as zero-filled chunks). Used by
    /// snapshot serialization — equivalent to one pass over a contiguous
    /// backing array.
    pub fn for_each_chunk(&self, len: usize, mut f: impl FnMut(&[u8])) {
        const ZEROS: [u8; 4096] = [0u8; 4096];
        let mut at = 0usize;
        while at < len {
            let take = (len - at).min(self.seg_len - (at & (self.seg_len - 1)));
            match &self.segs[at >> self.seg_shift] {
                Some(s) => {
                    let off = at & (self.seg_len - 1);
                    f(&s[off..off + take]);
                }
                None => {
                    let mut rest = take;
                    while rest > 0 {
                        let n = rest.min(ZEROS.len());
                        f(&ZEROS[..n]);
                        rest -= n;
                    }
                }
            }
            at += take;
        }
    }

    /// Fixed-width read at `addr`: the compile-time length lets the
    /// common 1/2/4-byte operation accesses compile to single moves
    /// instead of a variable-length copy.
    #[inline]
    pub fn read_fixed<const N: usize>(&self, addr: u32) -> [u8; N] {
        let a = (addr & self.mask) as usize;
        if a + N <= self.size && (a >> self.seg_shift) == ((a + N - 1) >> self.seg_shift) {
            let off = a & (self.seg_len - 1);
            match &self.segs[a >> self.seg_shift] {
                Some(s) => {
                    let mut out = [0u8; N];
                    out.copy_from_slice(&s[off..off + N]);
                    out
                }
                None => [0u8; N],
            }
        } else {
            let mut out = [0u8; N];
            self.read_into(addr, &mut out);
            out
        }
    }

    /// Fixed-width write at `addr` (see [`read_fixed`](Self::read_fixed)).
    #[inline]
    pub fn write_fixed<const N: usize>(&mut self, addr: u32, data: [u8; N]) {
        let a = (addr & self.mask) as usize;
        if a + N <= self.size && (a >> self.seg_shift) == ((a + N - 1) >> self.seg_shift) {
            let off = a & (self.seg_len - 1);
            self.seg_mut(a)[off..off + N].copy_from_slice(&data);
        } else {
            self.write_from(addr, &data);
        }
    }

    /// Materializes the full contents as one contiguous vector (test and
    /// debugging helper; O(address space)).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.size];
        for (si, seg) in self.segs.iter().enumerate() {
            if let Some(s) = seg {
                out[si * self.seg_len..(si + 1) * self.seg_len].copy_from_slice(s);
            }
        }
        out
    }
}

impl DataMemory for FlatMemory {
    fn load_bytes(&mut self, addr: u32, buf: &mut [u8]) {
        self.read_into(addr, buf);
    }

    fn store_bytes(&mut self, addr: u32, data: &[u8]) {
        self.write_from(addr, data);
    }

    fn check_access(&self, addr: u32, size: u32) -> Result<(), ExecError> {
        if self.strict_bounds && u64::from(addr) + u64::from(size) > self.size as u64 {
            return Err(ExecError::OutOfBoundsAccess { addr, size });
        }
        if self.strict_align {
            check_alignment(addr, size)?;
        }
        Ok(())
    }

    fn load_le(&mut self, addr: u32, bytes: usize) -> u32 {
        match bytes {
            1 => u32::from(self.read_fixed::<1>(addr)[0]),
            2 => u32::from(u16::from_le_bytes(self.read_fixed::<2>(addr))),
            4 => u32::from_le_bytes(self.read_fixed::<4>(addr)),
            _ => {
                let mut buf = [0u8; 4];
                self.read_into(addr, &mut buf[..bytes]);
                u32::from_le_bytes(buf)
            }
        }
    }

    fn store_le(&mut self, addr: u32, bytes: usize, value: u32) {
        let buf = value.to_le_bytes();
        match bytes {
            1 => self.write_fixed::<1>(addr, [buf[0]]),
            2 => self.write_fixed::<2>(addr, [buf[0], buf[1]]),
            4 => self.write_fixed::<4>(addr, buf),
            _ => self.write_from(addr, &buf[..bytes]),
        }
    }
}

/// The architectural effect of executing one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecResult {
    /// Register writes produced (up to two for two-slot operations).
    pub writes: [Option<(Reg, u32)>; 2],
    /// Target VLIW-instruction index if the operation is a taken branch.
    pub branch_target: Option<u32>,
    /// Whether the guard allowed the operation to take effect.
    pub executed: bool,
}

impl ExecResult {
    fn none() -> ExecResult {
        ExecResult::default()
    }

    fn one(dst: Reg, v: u32) -> ExecResult {
        ExecResult {
            writes: [Some((dst, v)), None],
            executed: true,
            ..ExecResult::default()
        }
    }

    fn two(d1: Reg, v1: u32, d2: Reg, v2: u32) -> ExecResult {
        ExecResult {
            writes: [Some((d1, v1)), Some((d2, v2))],
            executed: true,
            ..ExecResult::default()
        }
    }

    fn effect_only() -> ExecResult {
        ExecResult {
            executed: true,
            ..ExecResult::default()
        }
    }

    fn branch(target: u32) -> ExecResult {
        ExecResult {
            branch_target: Some(target),
            executed: true,
            ..ExecResult::default()
        }
    }

    /// Iterates over the register writes.
    pub fn write_iter(&self) -> impl Iterator<Item = (Reg, u32)> + '_ {
        self.writes.iter().filter_map(|w| *w)
    }
}

/// The destination value of `LD_FRAC8` given its five loaded bytes and
/// the fraction operand: four overlapping [`interp_frac16`]
/// interpolations packed little-endian ([`pack_quad8`]). Shared between
/// [`execute`] and the fused engine's direct-dispatch path so the
/// collapsed-load semantics (§2.2.2) have exactly one definition.
#[inline]
pub fn ld_frac8_value(data: [u8; 5], frac: u32) -> u32 {
    pack_quad8([
        interp_frac16(data[0], data[1], frac),
        interp_frac16(data[1], data[2], frac),
        interp_frac16(data[2], data[3], frac),
        interp_frac16(data[3], data[4], frac),
    ])
}

/// The two destination words of `SUPER_LD32R` given its eight loaded
/// bytes: big-endian byte placement per Table 2. Shared between
/// [`execute`] and the fused engine's direct-dispatch path.
#[inline]
pub fn super_ld32_words(buf: [u8; 8]) -> (u32, u32) {
    (
        u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]),
        u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
    )
}

/// Executes one operation against the register file and data memory.
///
/// The guard is evaluated first: a false guard suppresses all effects
/// (including memory accesses), with the *architected* exception of the
/// branch-on-false operations `jmpf`.
///
/// Branch targets are VLIW-instruction indices; the pipeline applies the
/// architectural jump delay slots (§3).
///
/// Memory operations validate their access through
/// [`DataMemory::check_access`] before any architectural effect; a
/// strict memory turns wild addresses into [`ExecError`]s here instead
/// of silently wrapping. Non-memory operations are infallible.
///
/// Only operations with memory traffic, control flow, two destinations
/// or more than two sources have arms here; every register-pure
/// operation evaluates its opcode-table closure ([`pure_fn`]).
pub fn execute<M: DataMemory + ?Sized>(
    op: &Op,
    rf: &RegFile,
    mem: &mut M,
) -> Result<ExecResult, ExecError> {
    use Opcode::*;

    let g = rf.guard(op.guard);
    // `jmpf` branches when its guard is FALSE; every other operation is
    // suppressed by a false guard.
    if !g && op.opcode != Jmpf {
        return Ok(ExecResult::none());
    }

    let s = |i: usize| rf.read(op.srcs[i]);
    let d = |i: usize| op.dsts[i];
    let imm = op.imm;

    Ok(match op.opcode {
        // --- branches (targets are VLIW instruction indices) ---
        Jmpt | Jmpi => ExecResult::branch(imm as u32),
        Jmpf => {
            if g {
                ExecResult::none()
            } else {
                ExecResult::branch(imm as u32)
            }
        }
        Ijmpt | Ijmpi => ExecResult::branch(s(0)),

        // --- cache control and prefetch-region MMIO ---
        Allocd => {
            mem.cache_op(CacheOp::Allocate, s(0).wrapping_add(imm as u32));
            ExecResult::effect_only()
        }
        Prefd => {
            mem.cache_op(CacheOp::Prefetch, s(0).wrapping_add(imm as u32));
            ExecResult::effect_only()
        }
        Dinvalid => {
            mem.cache_op(CacheOp::Invalidate, s(0).wrapping_add(imm as u32));
            ExecResult::effect_only()
        }
        Dflush => {
            mem.cache_op(CacheOp::Flush, s(0).wrapping_add(imm as u32));
            ExecResult::effect_only()
        }
        StPfStart => {
            mem.write_pf_param(PfParam::Start, (imm & 3) as u8, s(0));
            ExecResult::effect_only()
        }
        StPfEnd => {
            mem.write_pf_param(PfParam::End, (imm & 3) as u8, s(0));
            ExecResult::effect_only()
        }
        StPfStride => {
            mem.write_pf_param(PfParam::Stride, (imm & 3) as u8, s(0));
            ExecResult::effect_only()
        }

        // --- two-slot arithmetic (Table 2) ---
        SuperDualimix => {
            let hi = |v: u32| i64::from((v >> 16) as u16 as i16);
            let lo = |v: u32| i64::from(v as u16 as i16);
            let t1 = hi(s(0)) * hi(s(1)) + hi(s(2)) * hi(s(3));
            let t2 = lo(s(0)) * lo(s(1)) + lo(s(2)) * lo(s(3));
            ExecResult::two(d(0), clip_to_i32(t1) as u32, d(1), clip_to_i32(t2) as u32)
        }
        SuperCabacCtx => {
            // rsrc1 = DUAL16(value, range), rsrc2 = stream_bit_position,
            // rsrc3 = stream_data, rsrc4 = DUAL16(state, mps).
            let step = cabac_decode_step(cabac_state(s(0), s(3)), s(2), s(1));
            ExecResult::two(
                d(0),
                pack_dual16(step.next.value, step.next.range),
                d(1),
                pack_dual16(u16::from(step.next.state), u16::from(step.next.mps)),
            )
        }
        SuperCabacStr => {
            // rsrc1 = DUAL16(value, range), rsrc2 = stream_bit_position,
            // rsrc4 = DUAL16(state, mps). stream_data is not needed: the
            // bit decision and renormalization count depend only on the
            // context state (paper, §2.2.3).
            let step = cabac_decode_step(cabac_state(s(0), s(2)), 0, s(1));
            ExecResult::two(d(0), step.stream_bit_position, d(1), u32::from(step.bit))
        }

        // --- loads and stores, driven by the opcode's access shape ---
        opcode => match opcode.access() {
            Some(access) => {
                let addr = match access {
                    Access::Load { indexed: false, .. } | Access::Store { .. } => {
                        s(0).wrapping_add(imm as u32)
                    }
                    Access::Load { indexed: true, .. } | Access::SuperLoad => {
                        s(0).wrapping_add(s(1))
                    }
                    Access::FracLoad => s(0),
                };
                mem.check_access(addr, access.bytes())?;
                match access {
                    Access::Load { bytes, sext, .. } => {
                        let v = mem.load_le(addr, usize::from(bytes));
                        let bits = 8 * u32::from(bytes);
                        ExecResult::one(d(0), if sext { sign_extend(v, bits) } else { v })
                    }
                    Access::Store { bytes } => {
                        mem.store_le(addr, usize::from(bytes), s(1));
                        ExecResult::effect_only()
                    }
                    Access::SuperLoad => {
                        // Table 2: big-endian byte placement from address
                        // rsrc3+rsrc4.
                        let mut buf = [0u8; 8];
                        mem.load_bytes(addr, &mut buf);
                        let (w1, w2) = super_ld32_words(buf);
                        ExecResult::two(d(0), w1, d(1), w2)
                    }
                    Access::FracLoad => {
                        let mut data = [0u8; 5];
                        mem.load_bytes(addr, &mut data);
                        ExecResult::one(d(0), ld_frac8_value(data, s(1)))
                    }
                }
            }
            // --- every other opcode is register-pure ---
            None => match pure_fn(opcode) {
                Some(pure) => ExecResult::one(d(0), pure(s(0), s(1), imm)),
                None => ExecResult::none(),
            },
        },
    })
}

/// The CABAC context state held in two DUAL16 operands:
/// `(value, range)` and `(state, mps)`.
fn cabac_state(value_range: u32, state_mps: u32) -> CabacState {
    let (value, range) = dual16(value_range);
    let (state, mps) = dual16(state_mps);
    CabacState {
        value,
        range,
        // Table 2: state is a 6-bit field of the DUAL16 operand.
        state: (state & 0x3f) as u8,
        mps: mps & 1 == 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::CANONICAL_NAN;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn run(op: Op, setup: &[(u8, u32)]) -> (ExecResult, RegFile, FlatMemory) {
        let mut rf = RegFile::new();
        for &(reg, v) in setup {
            rf.write(r(reg), v);
        }
        let mut mem = FlatMemory::new(1 << 16);
        let res = execute(&op, &rf, &mut mem).unwrap();
        (res, rf, mem)
    }

    fn result_of(op: Op, setup: &[(u8, u32)]) -> u32 {
        let (res, _, _) = run(op, setup);
        res.writes[0].expect("operation produced a result").1
    }

    #[test]
    fn false_guard_suppresses_everything() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0); // guard false
        rf.write(r(3), 7);
        let mut mem = FlatMemory::new(1 << 12);
        let op = Op::new(Opcode::St32d, r(2), &[r(3), r(3)], &[], 0);
        let res = execute(&op, &rf, &mut mem).unwrap();
        assert!(!res.executed);
        assert_eq!(mem.load_le(7, 4), 0, "guarded-false store must not write");
    }

    #[test]
    fn jmpf_branches_on_false_guard() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0);
        let mut mem = FlatMemory::new(1 << 12);
        let op = Op::new(Opcode::Jmpf, r(2), &[], &[], 42);
        let res = execute(&op, &rf, &mut mem).unwrap();
        assert_eq!(res.branch_target, Some(42));
        // And does NOT branch on a true guard.
        rf.write(r(2), 1);
        let res = execute(&op, &rf, &mut mem).unwrap();
        assert_eq!(res.branch_target, None);
    }

    #[test]
    fn alu_basics() {
        assert_eq!(
            result_of(Op::rrr(Opcode::Iadd, r(4), r(2), r(3)), &[(2, 5), (3, 7)]),
            12
        );
        assert_eq!(
            result_of(Op::rrr(Opcode::Isub, r(4), r(2), r(3)), &[(2, 5), (3, 7)]),
            (-2i32) as u32
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Imax, r(4), r(2), r(3)),
                &[(2, (-5i32) as u32), (3, 3)]
            ),
            3
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Umax, r(4), r(2), r(3)),
                &[(2, (-5i32) as u32), (3, 3)]
            ),
            (-5i32) as u32
        );
    }

    #[test]
    fn compares_produce_bool_bits() {
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Igtr, r(4), r(2), r(3)),
                &[(2, (-1i32) as u32), (3, 1)]
            ),
            0
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Ugtr, r(4), r(2), r(3)),
                &[(2, (-1i32) as u32), (3, 1)]
            ),
            1
        );
    }

    #[test]
    fn shifts_and_funnel() {
        assert_eq!(
            result_of(Op::rri(Opcode::Asli, r(4), r(2), 4), &[(2, 0x1234)]),
            0x12340
        );
        assert_eq!(
            result_of(Op::rri(Opcode::Asri, r(4), r(2), 4), &[(2, 0x8000_0000)]),
            0xf800_0000
        );
        // funshift2: two bytes from the top of src1's low half.
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Funshift2, r(4), r(2), r(3)),
                &[(2, 0x1122_3344), (3, 0x5566_7788)]
            ),
            0x3344_5566
        );
    }

    #[test]
    fn simd_saturation() {
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Dspiadd, r(4), r(2), r(3)),
                &[(2, 0x7fff_ffff), (3, 10)]
            ),
            0x7fff_ffff
        );
        // Dual 16 saturating add: 0x7fff + 1 saturates in the high lane.
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Dspidualadd, r(4), r(2), r(3)),
                &[(2, 0x7fff_0001), (3, 0x0001_0001)]
            ),
            0x7fff_0002
        );
    }

    #[test]
    fn quadavg_and_sad() {
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Quadavg, r(4), r(2), r(3)),
                &[(2, 0x00FF_0A14), (3, 0x0001_0C10)]
            ),
            u32::from_be_bytes([(1 / 2) as u8, 128, 11, ((0x14 + 0x10 + 1) / 2) as u8])
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Ume8uu, r(4), r(2), r(3)),
                &[(2, 0x0a_14_1e_28), (3, 0x14_0a_28_1e)]
            ),
            40
        );
    }

    #[test]
    fn fir_ops() {
        // ifir16: (3 * 5) + (-2 * 7) = 1
        let a = pack_dual16(3, (-2i16) as u16);
        let b = pack_dual16(5, 7);
        assert_eq!(
            result_of(Op::rrr(Opcode::Ifir16, r(4), r(2), r(3)), &[(2, a), (3, b)]),
            1
        );
        // ufir8uu: 1*2 + 3*4 + 5*6 + 7*8 = 100
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Ufir8uu, r(4), r(2), r(3)),
                &[(2, 0x0103_0507), (3, 0x0204_0608)]
            ),
            100
        );
    }

    #[test]
    fn float_ops() {
        let a = 2.5f32.to_bits();
        let b = 4.0f32.to_bits();
        assert_eq!(
            f32::from_bits(result_of(
                Op::rrr(Opcode::Fmul, r(4), r(2), r(3)),
                &[(2, a), (3, b)]
            )),
            10.0
        );
        assert_eq!(
            result_of(
                Op::rr(Opcode::Ifixrz, r(4), r(2)),
                &[(2, (-2.9f32).to_bits())]
            ),
            (-2i32) as u32
        );
        assert_eq!(
            result_of(Op::rrr(Opcode::Fgtr, r(4), r(2), r(3)), &[(2, b), (3, a)]),
            1
        );
    }

    #[test]
    fn loads_are_little_endian_and_sign_extend() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x100);
        let mut mem = FlatMemory::new(1 << 12);
        mem.store_bytes(0x100, &[0xfe, 0x01, 0x02, 0x83]);
        let mut ld = |op, imm| {
            let o = Op::rri(op, r(4), r(2), imm);
            execute(&o, &rf, &mut mem).unwrap().writes[0].unwrap().1
        };
        assert_eq!(ld(Opcode::Uld8d, 0), 0xfe);
        assert_eq!(ld(Opcode::Ld8d, 0), 0xffff_fffe);
        assert_eq!(ld(Opcode::Uld16d, 0), 0x01fe);
        assert_eq!(ld(Opcode::Ld32d, 0), 0x8302_01fe);
        assert_eq!(ld(Opcode::Ld16d, 2), 0xffff_8302);
    }

    #[test]
    fn non_aligned_load_works() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x101); // deliberately misaligned
        let mut mem = FlatMemory::new(1 << 12);
        mem.store_bytes(0x100, &[0x11, 0x22, 0x33, 0x44, 0x55]);
        let o = Op::rri(Opcode::Ld32d, r(4), r(2), 0);
        assert_eq!(
            execute(&o, &rf, &mut mem).unwrap().writes[0].unwrap().1,
            0x5544_3322
        );
    }

    #[test]
    fn stores_write_memory() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x200);
        rf.write(r(3), 0xdead_beef);
        let mut mem = FlatMemory::new(1 << 12);
        let st = Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 4);
        execute(&st, &rf, &mut mem).unwrap();
        assert_eq!(mem.load_le(0x204, 4), 0xdead_beef);
        let st8 = Op::new(Opcode::St8d, Reg::ONE, &[r(2), r(3)], &[], 0);
        execute(&st8, &rf, &mut mem).unwrap();
        assert_eq!(mem.load_le(0x200, 1), 0xef);
    }

    #[test]
    fn ld_frac8_matches_table2() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x300);
        rf.write(r(3), 5); // fractional position 5/16
        let mut mem = FlatMemory::new(1 << 12);
        let data = [10u8, 20, 30, 40, 50];
        mem.store_bytes(0x300, &data);
        let o = Op::rrr(Opcode::LdFrac8, r(4), r(2), r(3));
        let got = execute(&o, &rf, &mut mem).unwrap().writes[0].unwrap().1;
        let expect = |a: u32, b: u32| (a * 11 + b * 5 + 8) / 16;
        assert_eq!(
            got,
            (expect(10, 20) << 24)
                | (expect(20, 30) << 16)
                | (expect(30, 40) << 8)
                | expect(40, 50)
        );
    }

    #[test]
    fn ld_frac8_frac_zero_is_plain_load() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x300);
        rf.write(r(3), 0);
        let mut mem = FlatMemory::new(1 << 12);
        mem.store_bytes(0x300, &[1, 2, 3, 4, 99]);
        let o = Op::rrr(Opcode::LdFrac8, r(4), r(2), r(3));
        let got = execute(&o, &rf, &mut mem).unwrap().writes[0].unwrap().1;
        assert_eq!(got, 0x0102_0304, "frac 0 returns the first four bytes");
    }

    #[test]
    fn super_ld32r_is_big_endian_per_table2() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x400);
        rf.write(r(3), 4);
        let mut mem = FlatMemory::new(1 << 12);
        mem.store_bytes(0x404, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let o = Op::new(
            Opcode::SuperLd32r,
            Reg::ONE,
            &[r(2), r(3)],
            &[r(10), r(11)],
            0,
        );
        let res = execute(&o, &rf, &mut mem).unwrap();
        assert_eq!(res.writes[0], Some((r(10), 0x0102_0304)));
        assert_eq!(res.writes[1], Some((r(11), 0x0506_0708)));
    }

    #[test]
    fn super_dualimix_matches_table2() {
        let mut rf = RegFile::new();
        // High lanes: 100 * 200 + 300 * 400 = 140000
        // Low lanes: -1 * 7 + 2 * 3 = -1
        rf.write(r(2), pack_dual16(100, (-1i16) as u16));
        rf.write(r(3), pack_dual16(200, 7));
        rf.write(r(4), pack_dual16(300, 2));
        rf.write(r(5), pack_dual16(400, 3));
        let mut mem = FlatMemory::new(1 << 12);
        let o = Op::new(
            Opcode::SuperDualimix,
            Reg::ONE,
            &[r(2), r(3), r(4), r(5)],
            &[r(10), r(11)],
            0,
        );
        let res = execute(&o, &rf, &mut mem).unwrap();
        assert_eq!(res.writes[0], Some((r(10), 140_000)));
        assert_eq!(res.writes[1], Some((r(11), (-1i32) as u32)));
    }

    #[test]
    fn super_dualimix_clips_to_i32() {
        let mut rf = RegFile::new();
        let big = pack_dual16((-32768i16) as u16, 0);
        rf.write(r(2), big);
        rf.write(r(3), big);
        rf.write(r(4), big);
        rf.write(r(5), big);
        let mut mem = FlatMemory::new(1 << 12);
        let o = Op::new(
            Opcode::SuperDualimix,
            Reg::ONE,
            &[r(2), r(3), r(4), r(5)],
            &[r(10), r(11)],
            0,
        );
        let res = execute(&o, &rf, &mut mem).unwrap();
        // 2 * (-32768)^2 = 2^31 clips to 2^31 - 1.
        assert_eq!(res.writes[0], Some((r(10), i32::MAX as u32)));
    }

    #[test]
    fn cabac_ops_agree_with_reference_step() {
        let state = CabacState {
            value: 120,
            range: 400,
            state: 17,
            mps: true,
        };
        let stream = 0xcafe_babe;
        let pos = 5;
        let step = cabac_decode_step(state, stream, pos);

        let mut rf = RegFile::new();
        rf.write(r(2), pack_dual16(state.value, state.range));
        rf.write(r(3), pos);
        rf.write(r(4), stream);
        rf.write(r(5), pack_dual16(u16::from(state.state), 1));
        let mut mem = FlatMemory::new(1 << 12);

        let ctx = Op::new(
            Opcode::SuperCabacCtx,
            Reg::ONE,
            &[r(2), r(3), r(4), r(5)],
            &[r(10), r(11)],
            0,
        );
        let res = execute(&ctx, &rf, &mut mem).unwrap();
        assert_eq!(
            res.writes[0],
            Some((r(10), pack_dual16(step.next.value, step.next.range)))
        );
        assert_eq!(
            res.writes[1],
            Some((
                r(11),
                pack_dual16(u16::from(step.next.state), u16::from(step.next.mps))
            ))
        );

        let strop = Op::new(
            Opcode::SuperCabacStr,
            Reg::ONE,
            &[r(2), r(3), r(5)],
            &[r(12), r(13)],
            0,
        );
        let res = execute(&strop, &rf, &mut mem).unwrap();
        assert_eq!(res.writes[0], Some((r(12), step.stream_bit_position)));
        assert_eq!(res.writes[1], Some((r(13), u32::from(step.bit))));
    }

    #[test]
    fn pf_param_writes_reach_memory_interface() {
        struct Probe {
            got: Vec<(PfParam, u8, u32)>,
        }
        impl DataMemory for Probe {
            fn load_bytes(&mut self, _: u32, _: &mut [u8]) {}
            fn store_bytes(&mut self, _: u32, _: &[u8]) {}
            fn write_pf_param(&mut self, p: PfParam, r: u8, v: u32) {
                self.got.push((p, r, v));
            }
        }
        let mut rf = RegFile::new();
        rf.write(r(2), 0x8000);
        let mut probe = Probe { got: vec![] };
        let op = Op::new(Opcode::StPfStride, Reg::ONE, &[r(2)], &[], 2);
        execute(&op, &rf, &mut probe).unwrap();
        assert_eq!(probe.got, vec![(PfParam::Stride, 2, 0x8000)]);
    }

    #[test]
    fn ubytesel_selects_by_index() {
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Ubytesel, r(4), r(2), r(3)),
                &[(2, 0x4433_2211), (3, 2)]
            ),
            0x33
        );
    }

    #[test]
    fn merge_ops() {
        assert_eq!(
            result_of(
                Op::rrr(Opcode::MergeMsb, r(4), r(2), r(3)),
                &[(2, 0xa1a2_a3a4), (3, 0xb1b2_b3b4)]
            ),
            0xa1b1_a2b2
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::MergeLsb, r(4), r(2), r(3)),
                &[(2, 0xa1a2_a3a4), (3, 0xb1b2_b3b4)]
            ),
            0xa3b3_a4b4
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Pack16Lsb, r(4), r(2), r(3)),
                &[(2, 0xa1a2_a3a4), (3, 0xb1b2_b3b4)]
            ),
            0xa3a4_b3b4
        );
    }

    #[test]
    fn commutative_float_ops_ignore_operand_order() {
        // NaN payloads must not leak through in an operand-order
        // dependent way: `execute` and the table's evaluator give the
        // same bits for (a, b) and (b, a), and every NaN result is the
        // canonical one.
        let values = [
            0u32,
            0x8000_0000,
            0x3f80_0000,
            0xbf80_0000,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0x7fff_ffff,
            0xffff_ffff,
            0x7f80_0001,
            0xffc0_1234,
        ];
        for opcode in [Opcode::Fadd, Opcode::Fmul, Opcode::Feql, Opcode::Fneq] {
            let pf = pure_fn(opcode).expect("pure float op");
            for &a in &values {
                for &b in &values {
                    let mut rf = RegFile::new();
                    rf.write(r(2), a);
                    rf.write(r(3), b);
                    let mut mem = FlatMemory::new(1 << 12);
                    let ab = Op::rrr(opcode, r(10), r(2), r(3));
                    let ba = Op::rrr(opcode, r(10), r(3), r(2));
                    let exec_ab = execute(&ab, &rf, &mut mem).unwrap().writes[0].unwrap().1;
                    let exec_ba = execute(&ba, &rf, &mut mem).unwrap().writes[0].unwrap().1;
                    let cell = format!("{opcode} a={a:#x} b={b:#x}");
                    assert_eq!(pf(a, b, 0), pf(b, a, 0), "{cell}: pure fn");
                    assert_eq!(exec_ab, exec_ba, "{cell}: execute");
                    if f32::from_bits(exec_ab).is_nan() {
                        assert_eq!(exec_ab, CANONICAL_NAN, "{cell}: NaN not canonical");
                    }
                }
            }
        }
    }
}
