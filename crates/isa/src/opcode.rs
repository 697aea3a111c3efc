//! The opcode table: every static fact about every operation, defined once.
//!
//! The TM3270 ISA contains guarded RISC-like operations executed by 31
//! functional units spread over 5 issue slots (paper, Table 1). This module
//! enumerates the operation set modelled by this reproduction: the classic
//! TriMedia operation repertoire plus the TM3270 additions of §2.2 —
//! two-slot operations, the collapsed `LD_FRAC8` load, and the CABAC
//! operations.
//!
//! Each operation is one row of the `opcode_table!` invocation below:
//! its mnemonic, functional unit, operand signature and one-line
//! description, plus its memory [`Access`] shape when it moves data and
//! its semantic closure when it is register-pure. The [`Opcode`] enum,
//! its encoding (`code`/`from_code`), the reference manual (`describe`),
//! the fused engine's evaluators ([`pure_fn`]) and the scheduler's
//! access widths are all derived from those rows.

use std::fmt;

use crate::value::*;

/// The functional-unit class executing an operation.
///
/// Unit-to-slot binding and latency are machine-configuration dependent
/// (e.g. load latency is 3 cycles on the TM3260 and 4 on the TM3270,
/// paper Table 6); see [`crate::IssueModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Integer ALU; present in all five issue slots.
    Alu,
    /// Barrel shifter / funnel shifter.
    Shifter,
    /// Saturating SIMD ALU (`dsp` add/sub/avg/clip/SAD).
    DspAlu,
    /// Multiplier (integer, SIMD and single-precision FP multiply).
    DspMul,
    /// Floating-point adder / converter.
    FAlu,
    /// Floating-point comparator.
    FComp,
    /// Iterative floating-point unit (divide, square root).
    FTough,
    /// Branch unit.
    Branch,
    /// Data-cache load port.
    Load,
    /// Data-cache store port (also carries cache-control operations).
    Store,
    /// Two-slot arithmetic unit spanning issue slots 2 and 3 (§2.2.1).
    SuperArith,
    /// Two-slot load unit spanning issue slots 4 and 5 (`SUPER_LD32R`).
    SuperLoad,
    /// Collapsed load-with-interpolation unit in slot 5 (`LD_FRAC8`).
    FracLoad,
}

impl Unit {
    /// A short stable lowercase name (reports, trace events).
    pub fn name(self) -> &'static str {
        match self {
            Unit::Alu => "alu",
            Unit::Shifter => "shifter",
            Unit::DspAlu => "dspalu",
            Unit::DspMul => "dspmul",
            Unit::FAlu => "falu",
            Unit::FComp => "fcomp",
            Unit::FTough => "ftough",
            Unit::Branch => "branch",
            Unit::Load => "load",
            Unit::Store => "store",
            Unit::SuperArith => "superarith",
            Unit::SuperLoad => "superload",
            Unit::FracLoad => "fracload",
        }
    }
}

/// The operand signature of an opcode: how many register sources and
/// destinations it has, and whether it carries an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Number of register source operands (0..=4).
    pub srcs: u8,
    /// Number of register destination operands (0..=2).
    pub dsts: u8,
    /// Whether the operation encoding carries an immediate field.
    pub imm: bool,
}

/// The data movement of an operation that loads or stores a fixed number
/// of bytes: the scalar `ld*`/`uld*`/`st*` opcodes plus the two
/// multi-byte load super-ops. `execute`, the fused engine and the
/// scheduler's alias test all read it. Cache control and prefetch MMIO
/// have no access shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Scalar little-endian load. `indexed` selects register (`*r`) vs
    /// displacement (`*d`) addressing; `sext` marks the signed variants.
    Load {
        /// Access width: 1, 2 or 4 bytes.
        bytes: u8,
        /// Whether the loaded value is sign-extended.
        sext: bool,
        /// Whether the offset is `rsrc2` rather than the immediate.
        indexed: bool,
    },
    /// Scalar displacement store of the low `bytes` of `rsrc2`.
    Store {
        /// Access width: 1, 2 or 4 bytes.
        bytes: u8,
    },
    /// `super_ld32r`: an 8-byte indexed load feeding two destination
    /// words with big-endian byte placement (Table 2).
    SuperLoad,
    /// `ld_frac8`: the 5-byte collapsed load with fractional
    /// interpolation (§2.2.2).
    FracLoad,
}

impl Access {
    /// The number of bytes the access moves.
    pub fn bytes(self) -> u32 {
        match self {
            Access::Load { bytes, .. } | Access::Store { bytes } => u32::from(bytes),
            Access::SuperLoad => 8,
            Access::FracLoad => 5,
        }
    }
}

/// Signature of a register-pure operation: `(src0, src1, imm)` in,
/// destination value out. See [`pure_fn`].
pub type PureFn = fn(u32, u32, i32) -> u32;

#[inline]
fn f(v: u32) -> f32 {
    f32::from_bits(v)
}

/// The register image of every NaN float result: the default quiet NaN.
pub(crate) const CANONICAL_NAN: u32 = 0x7fc0_0000;

/// The register bits of a float result. IEEE 754 leaves open which NaN
/// operand's payload an operation propagates, and the compiler may swap
/// the operands of a commutative one, so a propagated payload would
/// depend on the build: every NaN becomes [`CANONICAL_NAN`] instead.
#[inline]
fn fb(v: f32) -> u32 {
    if v.is_nan() {
        CANONICAL_NAN
    } else {
        v.to_bits()
    }
}

#[inline]
fn b32(c: bool) -> u32 {
    u32::from(c)
}

/// `Some` of an optional row field, `None` when the row omits it.
macro_rules! row_field {
    ($t:ty;) => {
        None
    };
    ($t:ty; $value:expr) => {
        Some::<$t>($value)
    };
}

/// Expands the opcode table: one row per operation, in code order.
///
/// A row is `Variant = "mnemonic", Unit, (srcs, dsts, imm), "description"`,
/// then `, access <Access>` for an operation with a fixed-width data
/// access, or `, pure <closure>` for a register-pure one: a single
/// destination computed from at most two sources and the immediate,
/// with no memory traffic, control flow or guard-false effect.
macro_rules! opcode_table {
    ($(
        $v:ident = $mnemonic:literal, $unit:ident, ($srcs:literal, $dsts:literal, $imm:literal),
        $desc:literal $(, access $access:expr)? $(, pure $pure:expr)?;
    )*) => {
        /// An operation opcode; the discriminant is the binary encoding's
        /// opcode field.
        ///
        /// Naming follows TriMedia conventions: `i` = signed integer, `u` =
        /// unsigned, `dsp` = saturating, `d`-suffixed memory operations take
        /// a displacement immediate, `r`-suffixed take a register offset.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Opcode {
            $(#[doc = concat!("`", $desc, "`")] $v,)*
        }

        impl Opcode {
            const ALL: &'static [Opcode] = &[$(Opcode::$v),*];

            /// The assembler mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$v => $mnemonic,)*
                }
            }

            /// The functional unit class that executes this opcode.
            #[inline]
            pub fn unit(self) -> Unit {
                match self {
                    $(Opcode::$v => Unit::$unit,)*
                }
            }

            /// The operand signature of this opcode.
            #[inline]
            pub fn signature(self) -> Signature {
                match self {
                    $(Opcode::$v => Signature { srcs: $srcs, dsts: $dsts, imm: $imm },)*
                }
            }

            /// A one-line description of the operation's semantics, in the
            /// style of the TriMedia data book (the ISA reference manual
            /// printed by `repro_isa`).
            pub fn describe(self) -> &'static str {
                match self {
                    $(Opcode::$v => $desc,)*
                }
            }

            /// The fixed-width data access of a load or store, if the
            /// opcode has one.
            #[inline]
            pub fn access(self) -> Option<Access> {
                match self {
                    $(Opcode::$v => row_field!(Access; $($access)?),)*
                }
            }
        }

        /// The register-pure evaluator for `opcode`, if it has one.
        ///
        /// For those opcodes the function computes exactly the value
        /// [`execute`](crate::execute) puts in `writes[0]` for a
        /// guard-true operation — `execute` itself calls it — and the
        /// caller owns the guard check and the write-back. Sources past
        /// the opcode's arity are ignored.
        pub fn pure_fn(opcode: Opcode) -> Option<PureFn> {
            match opcode {
                $(Opcode::$v => row_field!(PureFn; $($pure)?),)*
            }
        }
    };
}

opcode_table! {
    // --- constants / immediate arithmetic (ALU) ---
    Iimm = "iimm", Alu, (0, 1, true), "rdest = sign-extended immediate",
        pure |_, _, imm| imm as u32;
    Iaddi = "iaddi", Alu, (1, 1, true), "rdest = rsrc1 + imm",
        pure |a, _, imm| a.wrapping_add(imm as u32);
    Isubi = "isubi", Alu, (1, 1, true), "rdest = rsrc1 - imm",
        pure |a, _, imm| a.wrapping_sub(imm as u32);
    // `iori` ORs in a 12-bit zero-extended immediate; it exists so the
    // assembler can synthesize 32-bit constants in two operations.
    Iori = "iori", Alu, (1, 1, true),
        "rdest = rsrc1 | zero-extended 12-bit imm (constant synthesis)",
        pure |a, _, imm| a | (imm as u32 & 0xfff);

    // --- integer ALU ---
    Iadd = "iadd", Alu, (2, 1, false), "rdest = rsrc1 + rsrc2 (wrapping)",
        pure |a, b, _| a.wrapping_add(b);
    Isub = "isub", Alu, (2, 1, false), "rdest = rsrc1 - rsrc2 (wrapping)",
        pure |a, b, _| a.wrapping_sub(b);
    Ineg = "ineg", Alu, (1, 1, false), "rdest = -rsrc1 (wrapping)",
        pure |a, _, _| (a as i32).wrapping_neg() as u32;
    Iabs = "iabs", Alu, (1, 1, false), "rdest = |rsrc1| (wrapping)",
        pure |a, _, _| (a as i32).wrapping_abs() as u32;
    Iand = "iand", Alu, (2, 1, false), "rdest = rsrc1 & rsrc2", pure |a, b, _| a & b;
    Ior = "ior", Alu, (2, 1, false), "rdest = rsrc1 | rsrc2", pure |a, b, _| a | b;
    Ixor = "ixor", Alu, (2, 1, false), "rdest = rsrc1 ^ rsrc2", pure |a, b, _| a ^ b;
    Bitinv = "bitinv", Alu, (1, 1, false), "rdest = ~rsrc1", pure |a, _, _| !a;
    Bitandinv = "bitandinv", Alu, (2, 1, false), "rdest = rsrc1 & ~rsrc2",
        pure |a, b, _| a & !b;
    Sex8 = "sex8", Alu, (1, 1, false), "rdest = sign-extend rsrc1[7:0]",
        pure |a, _, _| sign_extend(a, 8);
    Sex16 = "sex16", Alu, (1, 1, false), "rdest = sign-extend rsrc1[15:0]",
        pure |a, _, _| sign_extend(a, 16);
    Zex8 = "zex8", Alu, (1, 1, false), "rdest = zero-extend rsrc1[7:0]",
        pure |a, _, _| a & 0xff;
    Zex16 = "zex16", Alu, (1, 1, false), "rdest = zero-extend rsrc1[15:0]",
        pure |a, _, _| a & 0xffff;
    Imin = "imin", Alu, (2, 1, false), "rdest = signed min(rsrc1, rsrc2)",
        pure |a, b, _| (a as i32).min(b as i32) as u32;
    Imax = "imax", Alu, (2, 1, false), "rdest = signed max(rsrc1, rsrc2)",
        pure |a, b, _| (a as i32).max(b as i32) as u32;
    Umin = "umin", Alu, (2, 1, false), "rdest = unsigned min(rsrc1, rsrc2)",
        pure |a, b, _| a.min(b);
    Umax = "umax", Alu, (2, 1, false), "rdest = unsigned max(rsrc1, rsrc2)",
        pure |a, b, _| a.max(b);
    Ieql = "ieql", Alu, (2, 1, false), "rdest = (rsrc1 == rsrc2)", pure |a, b, _| b32(a == b);
    Ineq = "ineq", Alu, (2, 1, false), "rdest = (rsrc1 != rsrc2)", pure |a, b, _| b32(a != b);
    Igtr = "igtr", Alu, (2, 1, false), "rdest = signed (rsrc1 > rsrc2)",
        pure |a, b, _| b32((a as i32) > (b as i32));
    Igeq = "igeq", Alu, (2, 1, false), "rdest = signed (rsrc1 >= rsrc2)",
        pure |a, b, _| b32((a as i32) >= (b as i32));
    Iles = "iles", Alu, (2, 1, false), "rdest = signed (rsrc1 < rsrc2)",
        pure |a, b, _| b32((a as i32) < (b as i32));
    Ileq = "ileq", Alu, (2, 1, false), "rdest = signed (rsrc1 <= rsrc2)",
        pure |a, b, _| b32((a as i32) <= (b as i32));
    Ugtr = "ugtr", Alu, (2, 1, false), "rdest = unsigned (rsrc1 > rsrc2)",
        pure |a, b, _| b32(a > b);
    Ugeq = "ugeq", Alu, (2, 1, false), "rdest = unsigned (rsrc1 >= rsrc2)",
        pure |a, b, _| b32(a >= b);
    Ules = "ules", Alu, (2, 1, false), "rdest = unsigned (rsrc1 < rsrc2)",
        pure |a, b, _| b32(a < b);
    Uleq = "uleq", Alu, (2, 1, false), "rdest = unsigned (rsrc1 <= rsrc2)",
        pure |a, b, _| b32(a <= b);
    Ieqli = "ieqli", Alu, (1, 1, true), "rdest = (rsrc1 == imm)",
        pure |a, _, imm| b32(a as i32 == imm);
    Igtri = "igtri", Alu, (1, 1, true), "rdest = signed (rsrc1 > imm)",
        pure |a, _, imm| b32(a as i32 > imm);
    Ilesi = "ilesi", Alu, (1, 1, true), "rdest = signed (rsrc1 < imm)",
        pure |a, _, imm| b32((a as i32) < imm);
    Inonzero = "inonzero", Alu, (1, 1, false), "rdest = (rsrc1 != 0)", pure |a, _, _| b32(a != 0);
    Izero = "izero", Alu, (1, 1, false), "rdest = (rsrc1 == 0)", pure |a, _, _| b32(a == 0);
    Pack16Lsb = "pack16lsb", Alu, (2, 1, false), "rdest = rsrc1[15:0] : rsrc2[15:0]",
        pure |a, b, _| (a << 16) | (b & 0xffff);
    Pack16Msb = "pack16msb", Alu, (2, 1, false), "rdest = rsrc1[31:16] : rsrc2[31:16]",
        pure |a, b, _| (a & 0xffff_0000) | (b >> 16);
    PackBytes = "packbytes", Alu, (2, 1, false), "rdest = rsrc1[7:0] : rsrc2[7:0] (low halfword)",
        pure |a, b, _| ((a & 0xff) << 8) | (b & 0xff);
    MergeLsb = "mergelsb", Alu, (2, 1, false), "interleave the two low bytes of each source",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            pack_quad8([a[2], b[2], a[3], b[3]])
        };
    MergeMsb = "mergemsb", Alu, (2, 1, false), "interleave the two high bytes of each source",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            pack_quad8([a[0], b[0], a[1], b[1]])
        };
    // Byte 0 is the least significant byte.
    Ubytesel = "ubytesel", Alu, (2, 1, false), "rdest = byte rsrc2[1:0] of rsrc1, zero-extended",
        pure |a, b, _| (a >> (8 * (b & 3))) & 0xff;
    MergeDual16Lsb = "mergedual16lsb", Alu, (2, 1, false),
        "pack the low byte of each halfword of both sources",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            pack_quad8([a[1], a[3], b[1], b[3]])
        };

    // --- shifter ---
    Asl = "asl", Shifter, (2, 1, false), "rdest = rsrc1 << rsrc2[4:0] (arithmetic)",
        pure |a, b, _| a.wrapping_shl(b & 31);
    Asr = "asr", Shifter, (2, 1, false), "rdest = rsrc1 >> rsrc2[4:0] (arithmetic)",
        pure |a, b, _| (a as i32).wrapping_shr(b & 31) as u32;
    Lsr = "lsr", Shifter, (2, 1, false), "rdest = rsrc1 >> rsrc2[4:0] (logical)",
        pure |a, b, _| a.wrapping_shr(b & 31);
    Rol = "rol", Shifter, (2, 1, false), "rdest = rotate-left(rsrc1, rsrc2[4:0])",
        pure |a, b, _| a.rotate_left(b & 31);
    Asli = "asli", Shifter, (1, 1, true), "rdest = rsrc1 << imm",
        pure |a, _, imm| a.wrapping_shl(imm as u32 & 31);
    Asri = "asri", Shifter, (1, 1, true), "rdest = rsrc1 >> imm (arithmetic)",
        pure |a, _, imm| (a as i32).wrapping_shr(imm as u32 & 31) as u32;
    Lsri = "lsri", Shifter, (1, 1, true), "rdest = rsrc1 >> imm (logical)",
        pure |a, _, imm| a.wrapping_shr(imm as u32 & 31);
    Roli = "roli", Shifter, (1, 1, true), "rdest = rotate-left(rsrc1, imm)",
        pure |a, _, imm| a.rotate_left(imm as u32 & 31);
    Funshift1 = "funshift1", Shifter, (2, 1, false),
        "rdest = bytes 1..5 of the rsrc1:rsrc2 concatenation",
        pure |a, b, _| (((u64::from(a) << 32) | u64::from(b)) >> 24) as u32;
    Funshift2 = "funshift2", Shifter, (2, 1, false),
        "rdest = bytes 2..6 of the rsrc1:rsrc2 concatenation",
        pure |a, b, _| (((u64::from(a) << 32) | u64::from(b)) >> 16) as u32;
    Funshift3 = "funshift3", Shifter, (2, 1, false),
        "rdest = bytes 3..7 of the rsrc1:rsrc2 concatenation",
        pure |a, b, _| (((u64::from(a) << 32) | u64::from(b)) >> 8) as u32;

    // --- saturating SIMD ALU ---
    Dspiadd = "dspiadd", DspAlu, (2, 1, false), "rdest = signed saturating rsrc1 + rsrc2",
        pure |a, b, _| clip_to_i32(i64::from(a as i32) + i64::from(b as i32)) as u32;
    Dspisub = "dspisub", DspAlu, (2, 1, false), "rdest = signed saturating rsrc1 - rsrc2",
        pure |a, b, _| clip_to_i32(i64::from(a as i32) - i64::from(b as i32)) as u32;
    Dspiabs = "dspiabs", DspAlu, (1, 1, false), "rdest = signed saturating |rsrc1|",
        pure |a, _, _| clip_to_i32(i64::from(a as i32).abs()) as u32;
    Dspidualadd = "dspidualadd", DspAlu, (2, 1, false), "per-halfword signed saturating add",
        pure |a, b, _| {
            let f = |a: u16, b: u16| clip_to_i16(i32::from(a as i16) + i32::from(b as i16)) as u16;
            let ((ah, al), (bh, bl)) = (dual16(a), dual16(b));
            pack_dual16(f(ah, bh), f(al, bl))
        };
    Dspidualsub = "dspidualsub", DspAlu, (2, 1, false), "per-halfword signed saturating subtract",
        pure |a, b, _| {
            let f = |a: u16, b: u16| clip_to_i16(i32::from(a as i16) - i32::from(b as i16)) as u16;
            let ((ah, al), (bh, bl)) = (dual16(a), dual16(b));
            pack_dual16(f(ah, bh), f(al, bl))
        };
    Dspidualabs = "dspidualabs", DspAlu, (1, 1, false),
        "per-halfword signed saturating absolute value",
        pure |a, _, _| {
            let f = |a: u16| clip_to_i16(i32::from(a as i16).abs()) as u16;
            let (h, l) = dual16(a);
            pack_dual16(f(h), f(l))
        };
    Quadavg = "quadavg", DspAlu, (2, 1, false), "per-byte unsigned average with rounding",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            pack_quad8(std::array::from_fn(|i| avg_u8(a[i], b[i])))
        };
    Quadumin = "quadumin", DspAlu, (2, 1, false), "per-byte unsigned minimum",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            pack_quad8(std::array::from_fn(|i| a[i].min(b[i])))
        };
    Quadumax = "quadumax", DspAlu, (2, 1, false), "per-byte unsigned maximum",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            pack_quad8(std::array::from_fn(|i| a[i].max(b[i])))
        };
    Dualiclipi = "dualiclipi", DspAlu, (1, 1, true), "per-halfword clip to [-2^imm, 2^imm - 1]",
        pure |a, _, imm| {
            let n = imm.clamp(0, 15) as u32;
            let (lo, hi) = (-(1i32 << n), (1i32 << n) - 1);
            let f = |a: u16| (i32::from(a as i16).clamp(lo, hi) as i16) as u16;
            let (h, l) = dual16(a);
            pack_dual16(f(h), f(l))
        };
    Iclipi = "iclipi", DspAlu, (1, 1, true), "clip rsrc1 to [-2^imm, 2^imm - 1]",
        pure |a, _, imm| {
            let n = imm.clamp(0, 30) as u32;
            (a as i32).clamp(-(1i32 << n), (1i32 << n) - 1) as u32
        };
    Uclipi = "uclipi", DspAlu, (1, 1, true), "clip rsrc1 to [0, 2^imm - 1]",
        pure |a, _, imm| {
            let n = imm.clamp(0, 31) as u32;
            (a as i32).clamp(0, ((1u32 << n) - 1) as i32) as u32
        };
    Ume8uu = "ume8uu", DspAlu, (2, 1, false),
        "sum of absolute differences of the four unsigned byte pairs",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            (0..4).map(|i| (i32::from(a[i]) - i32::from(b[i])).unsigned_abs()).sum()
        };
    Ume8ii = "ume8ii", DspAlu, (2, 1, false),
        "sum of absolute differences of the four signed byte pairs",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            (0..4).map(|i| (i32::from(a[i] as i8) - i32::from(b[i] as i8)).unsigned_abs()).sum()
        };

    // --- multiplier ---
    Imul = "imul", DspMul, (2, 1, false), "rdest = rsrc1 * rsrc2 (wrapping, signed)",
        pure |a, b, _| (a as i32).wrapping_mul(b as i32) as u32;
    Umul = "umul", DspMul, (2, 1, false), "rdest = rsrc1 * rsrc2 (wrapping, unsigned)",
        pure |a, b, _| a.wrapping_mul(b);
    Imulm = "imulm", DspMul, (2, 1, false), "rdest = (rsrc1 * rsrc2) >> 32 (signed)",
        pure |a, b, _| ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32;
    Umulm = "umulm", DspMul, (2, 1, false), "rdest = (rsrc1 * rsrc2) >> 32 (unsigned)",
        pure |a, b, _| ((u64::from(a) * u64::from(b)) >> 32) as u32;
    Dspimul = "dspimul", DspMul, (2, 1, false), "rdest = signed saturating rsrc1 * rsrc2",
        pure |a, b, _| clip_to_i32(i64::from(a as i32) * i64::from(b as i32)) as u32;
    Dspidualmul = "dspidualmul", DspMul, (2, 1, false), "per-halfword signed saturating multiply",
        pure |a, b, _| {
            let f = |a: u16, b: u16| clip_to_i16(i32::from(a as i16) * i32::from(b as i16)) as u16;
            let ((ah, al), (bh, bl)) = (dual16(a), dual16(b));
            pack_dual16(f(ah, bh), f(al, bl))
        };
    // Two 2^30 products (both lanes 0x8000 on both sides) overflow the
    // 32-bit sum, which wraps like the datapath.
    Ifir16 = "ifir16", DspMul, (2, 1, false), "dot product of the two signed halfword pairs",
        pure |a, b, _| {
            let ((ah, al), (bh, bl)) = (dual16(a), dual16(b));
            let lane = |x: u16, y: u16| i32::from(x as i16) * i32::from(y as i16);
            lane(ah, bh).wrapping_add(lane(al, bl)) as u32
        };
    Ufir16 = "ufir16", DspMul, (2, 1, false), "dot product of the two unsigned halfword pairs",
        pure |a, b, _| {
            let ((ah, al), (bh, bl)) = (dual16(a), dual16(b));
            let lane = |x: u16, y: u16| u32::from(x).wrapping_mul(u32::from(y));
            lane(ah, bh).wrapping_add(lane(al, bl))
        };
    Ifir8ii = "ifir8ii", DspMul, (2, 1, false), "dot product of the four signed byte pairs",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            (0..4).map(|i| i32::from(a[i] as i8) * i32::from(b[i] as i8)).sum::<i32>() as u32
        };
    Ifir8ui = "ifir8ui", DspMul, (2, 1, false),
        "dot product: unsigned rsrc1 bytes x signed rsrc2 bytes",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            (0..4).map(|i| i32::from(a[i]) * i32::from(b[i] as i8)).sum::<i32>() as u32
        };
    Ufir8uu = "ufir8uu", DspMul, (2, 1, false), "dot product of the four unsigned byte pairs",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            (0..4).map(|i| u32::from(a[i]) * u32::from(b[i])).sum()
        };
    Quadumulmsb = "quadumulmsb", DspMul, (2, 1, false), "per-byte (rsrc1 * rsrc2) >> 8",
        pure |a, b, _| {
            let (a, b) = (quad8(a), quad8(b));
            pack_quad8(std::array::from_fn(|i| ((u16::from(a[i]) * u16::from(b[i])) >> 8) as u8))
        };
    Fmul = "fmul", DspMul, (2, 1, false), "rdest = rsrc1 * rsrc2 (IEEE-754 single)",
        pure |a, b, _| fb(f(a) * f(b));

    // --- floating point ---
    Fadd = "fadd", FAlu, (2, 1, false), "rdest = rsrc1 + rsrc2 (IEEE-754 single)",
        pure |a, b, _| fb(f(a) + f(b));
    Fsub = "fsub", FAlu, (2, 1, false), "rdest = rsrc1 - rsrc2 (IEEE-754 single)",
        pure |a, b, _| fb(f(a) - f(b));
    Fabsval = "fabsval", FAlu, (1, 1, false), "rdest = |rsrc1| (IEEE-754 single)",
        pure |a, _, _| fb(f(a).abs());
    Ifloat = "ifloat", FAlu, (1, 1, false), "rdest = float(signed rsrc1)",
        pure |a, _, _| fb(a as i32 as f32);
    Ufloat = "ufloat", FAlu, (1, 1, false), "rdest = float(unsigned rsrc1)",
        pure |a, _, _| fb(a as f32);
    Ifixrz = "ifixrz", FAlu, (1, 1, false),
        "rdest = signed int(rsrc1), round toward zero, saturating",
        pure |a, _, _| {
            let v = f(a);
            if v.is_nan() { 0 } else { v.clamp(i32::MIN as f32, i32::MAX as f32) as i32 as u32 }
        };
    Ufixrz = "ufixrz", FAlu, (1, 1, false),
        "rdest = unsigned int(rsrc1), round toward zero, saturating",
        pure |a, _, _| {
            let v = f(a);
            if v.is_nan() { 0 } else { v.clamp(0.0, u32::MAX as f32) as u32 }
        };
    Fgtr = "fgtr", FComp, (2, 1, false), "rdest = (rsrc1 > rsrc2), IEEE compare",
        pure |a, b, _| b32(f(a) > f(b));
    Fgeq = "fgeq", FComp, (2, 1, false), "rdest = (rsrc1 >= rsrc2), IEEE compare",
        pure |a, b, _| b32(f(a) >= f(b));
    Feql = "feql", FComp, (2, 1, false), "rdest = (rsrc1 == rsrc2), IEEE compare",
        pure |a, b, _| b32(f(a) == f(b));
    Fneq = "fneq", FComp, (2, 1, false), "rdest = (rsrc1 != rsrc2), IEEE compare",
        pure |a, b, _| b32(f(a) != f(b));
    Fleq = "fleq", FComp, (2, 1, false), "rdest = (rsrc1 <= rsrc2), IEEE compare",
        pure |a, b, _| b32(f(a) <= f(b));
    Fles = "fles", FComp, (2, 1, false), "rdest = (rsrc1 < rsrc2), IEEE compare",
        pure |a, b, _| b32(f(a) < f(b));
    Fsign = "fsign", FComp, (1, 1, false), "rdest = sign(rsrc1) as -1.0 / 0.0 / +1.0",
        pure |a, _, _| {
            let v = f(a);
            fb(if v > 0.0 { 1.0 } else if v < 0.0 { -1.0 } else { 0.0 })
        };
    Fdiv = "fdiv", FTough, (2, 1, false), "rdest = rsrc1 / rsrc2 (IEEE-754 single, iterative)",
        pure |a, b, _| fb(f(a) / f(b));
    Fsqrt = "fsqrt", FTough, (1, 1, false), "rdest = sqrt(rsrc1) (IEEE-754 single, iterative)",
        pure |a, _, _| fb(f(a).sqrt());

    // --- branches (targets are VLIW instruction indices) ---
    Jmpt = "jmpt", Branch, (0, 0, true), "jump to imm when the guard is true (delay slots apply)";
    Jmpf = "jmpf", Branch, (0, 0, true), "jump to imm when the guard is FALSE (delay slots apply)";
    Jmpi = "jmpi", Branch, (0, 0, true), "unconditional jump to imm (delay slots apply)";
    Ijmpt = "ijmpt", Branch, (1, 0, false), "indirect jump to rsrc1 when the guard is true";
    Ijmpi = "ijmpi", Branch, (1, 0, false), "unconditional indirect jump to rsrc1 (returns)";

    // --- loads (little-endian unless Table 2 dictates otherwise) ---
    Ld8d = "ld8d", Load, (1, 1, true), "rdest = sign-extended byte at rsrc1 + imm",
        access Access::Load { bytes: 1, sext: true, indexed: false };
    Uld8d = "uld8d", Load, (1, 1, true), "rdest = zero-extended byte at rsrc1 + imm",
        access Access::Load { bytes: 1, sext: false, indexed: false };
    Ld16d = "ld16d", Load, (1, 1, true),
        "rdest = sign-extended halfword at rsrc1 + imm (non-aligned ok)",
        access Access::Load { bytes: 2, sext: true, indexed: false };
    Uld16d = "uld16d", Load, (1, 1, true),
        "rdest = zero-extended halfword at rsrc1 + imm (non-aligned ok)",
        access Access::Load { bytes: 2, sext: false, indexed: false };
    Ld32d = "ld32d", Load, (1, 1, true), "rdest = word at rsrc1 + imm (non-aligned ok)",
        access Access::Load { bytes: 4, sext: false, indexed: false };
    Ld8r = "ld8r", Load, (2, 1, false), "rdest = sign-extended byte at rsrc1 + rsrc2",
        access Access::Load { bytes: 1, sext: true, indexed: true };
    Uld8r = "uld8r", Load, (2, 1, false), "rdest = zero-extended byte at rsrc1 + rsrc2",
        access Access::Load { bytes: 1, sext: false, indexed: true };
    Ld16r = "ld16r", Load, (2, 1, false), "rdest = sign-extended halfword at rsrc1 + rsrc2",
        access Access::Load { bytes: 2, sext: true, indexed: true };
    Uld16r = "uld16r", Load, (2, 1, false), "rdest = zero-extended halfword at rsrc1 + rsrc2",
        access Access::Load { bytes: 2, sext: false, indexed: true };
    Ld32r = "ld32r", Load, (2, 1, false), "rdest = word at rsrc1 + rsrc2 (non-aligned ok)",
        access Access::Load { bytes: 4, sext: false, indexed: true };

    // --- stores and cache control ---
    St8d = "st8d", Store, (2, 0, true), "byte at rsrc1 + imm = rsrc2[7:0]",
        access Access::Store { bytes: 1 };
    St16d = "st16d", Store, (2, 0, true),
        "halfword at rsrc1 + imm = rsrc2[15:0] (non-aligned ok)",
        access Access::Store { bytes: 2 };
    St32d = "st32d", Store, (2, 0, true), "word at rsrc1 + imm = rsrc2 (non-aligned ok)",
        access Access::Store { bytes: 4 };
    Allocd = "allocd", Store, (1, 0, true),
        "allocate the cache line at rsrc1 + imm without fetching";
    Prefd = "prefd", Store, (1, 0, true), "software-prefetch the cache line at rsrc1 + imm";
    Dinvalid = "dinvalid", Store, (1, 0, true),
        "invalidate the cache line at rsrc1 + imm (no copy-back)";
    Dflush = "dflush", Store, (1, 0, true),
        "copy back and invalidate the cache line at rsrc1 + imm";
    StPfStart = "stpfstart", Store, (1, 0, true),
        "PF[imm].START_ADDR = rsrc1 (prefetch region MMIO)";
    StPfEnd = "stpfend", Store, (1, 0, true), "PF[imm].END_ADDR = rsrc1 (prefetch region MMIO)";
    StPfStride = "stpfstride", Store, (1, 0, true),
        "PF[imm].STRIDE = rsrc1 (prefetch region MMIO)";

    // --- TM3270 collapsed load with interpolation (§2.2.2) ---
    LdFrac8 = "ld_frac8", FracLoad, (2, 1, false),
        "load 5 bytes at rsrc1 and return 4 two-tap interpolations at \
         fraction rsrc2[3:0] (Table 2)",
        access Access::FracLoad;

    // --- TM3270 two-slot operations (§2.2.1, §2.2.3) ---
    SuperDualimix = "super_dualimix", SuperArith, (4, 2, false),
        "two-slot: pairwise 16-bit 2-tap filter, both results clipped \
         to signed 32-bit (Table 2)";
    SuperLd32r = "super_ld32r", SuperLoad, (2, 2, false),
        "two-slot: load two consecutive big-endian words at rsrc1 + \
         rsrc2 (Table 2)",
        access Access::SuperLoad;
    SuperCabacCtx = "super_cabac_ctx", SuperArith, (4, 2, false),
        "two-slot: CABAC biari_decode_symbol context half: new \
         (value, range) and (state, mps) (Table 2)";
    SuperCabacStr = "super_cabac_str", SuperArith, (3, 2, false),
        "two-slot: CABAC biari_decode_symbol stream half: new \
         stream_bit_position and the decoded bit (Table 2)";
}

impl Opcode {
    /// All opcodes, in code order (the numeric encoding order used by
    /// `tm3270-encode`).
    pub fn all() -> &'static [Opcode] {
        Opcode::ALL
    }

    /// The opcode's canonical index (stable across runs; used by the binary
    /// encoding).
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Looks up an opcode from its canonical index.
    pub fn from_code(code: u16) -> Option<Opcode> {
        Opcode::ALL.get(usize::from(code)).copied()
    }

    /// Whether this operation reads data memory.
    pub fn is_load(self) -> bool {
        matches!(self.unit(), Unit::Load | Unit::FracLoad | Unit::SuperLoad)
    }

    /// Whether this operation writes data memory.
    pub fn is_store(self) -> bool {
        matches!(self.access(), Some(Access::Store { .. }))
    }

    /// Whether this operation accesses the data cache at all (loads, stores
    /// and cache-control operations).
    pub fn is_mem(self) -> bool {
        self.is_load() || self.unit() == Unit::Store
    }

    /// Whether this is a control-flow operation.
    pub fn is_jump(self) -> bool {
        self.unit() == Unit::Branch
    }

    /// Whether this operation occupies two neighbouring issue slots
    /// (the TM3270 "super operations", §2.2.1).
    pub fn is_two_slot(self) -> bool {
        matches!(self.unit(), Unit::SuperArith | Unit::SuperLoad)
    }

    /// Whether this opcode is a TM3270 ISA extension that does not exist on
    /// the TM3260 predecessor (§2.2: roughly 40 new operations).
    pub fn is_tm3270_only(self) -> bool {
        matches!(
            self,
            Opcode::SuperDualimix
                | Opcode::SuperLd32r
                | Opcode::SuperCabacCtx
                | Opcode::SuperCabacStr
                | Opcode::LdFrac8
        )
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_round_trips_for_all_opcodes() {
        for (i, &op) in Opcode::all().iter().enumerate() {
            assert_eq!(usize::from(op.code()), i, "{op}");
            assert_eq!(Opcode::from_code(op.code()), Some(op), "{op}");
        }
        assert!(Opcode::from_code(Opcode::all().len() as u16).is_none());
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::all() {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {op}");
        }
    }

    #[test]
    fn two_slot_ops_have_super_units() {
        assert!(Opcode::SuperDualimix.is_two_slot());
        assert!(Opcode::SuperLd32r.is_two_slot());
        assert!(Opcode::SuperCabacCtx.is_two_slot());
        assert!(Opcode::SuperCabacStr.is_two_slot());
        assert!(!Opcode::Iadd.is_two_slot());
    }

    #[test]
    fn tm3270_extensions_flagged() {
        let ext: Vec<_> = Opcode::all()
            .iter()
            .filter(|o| o.is_tm3270_only())
            .collect();
        assert_eq!(ext.len(), 5);
    }

    #[test]
    fn load_store_classification() {
        assert!(Opcode::Ld32d.is_load());
        assert!(Opcode::LdFrac8.is_load());
        assert!(Opcode::SuperLd32r.is_load());
        assert!(Opcode::St32d.is_store());
        assert!(!Opcode::St32d.is_load());
        assert!(Opcode::Prefd.is_mem());
        assert!(!Opcode::Prefd.is_store());
        assert!(!Opcode::Iadd.is_mem());
    }

    #[test]
    fn signatures_are_in_range() {
        for &op in Opcode::all() {
            let sig = op.signature();
            assert!(sig.srcs <= 4, "{op}");
            assert!(sig.dsts <= 2, "{op}");
            // Only two-slot operations may exceed 2 sources / 1 destination.
            if !op.is_two_slot() {
                assert!(sig.srcs <= 2, "{op}");
                assert!(sig.dsts <= 1, "{op}");
            }
        }
    }

    #[test]
    fn access_shapes_sit_on_memory_ops() {
        for &op in Opcode::all() {
            let Some(access) = op.access() else { continue };
            assert!(op.is_mem(), "{op}: access shape on a non-memory op");
            let sig = op.signature();
            match access {
                Access::Load { indexed, .. } => {
                    assert_eq!(op.unit(), Unit::Load, "{op}");
                    assert_eq!(
                        (sig.srcs, sig.dsts, sig.imm),
                        (1 + u8::from(indexed), 1, !indexed)
                    );
                }
                Access::Store { .. } => assert_eq!((sig.srcs, sig.dsts, sig.imm), (2, 0, true)),
                Access::SuperLoad => assert_eq!(op, Opcode::SuperLd32r),
                Access::FracLoad => assert_eq!(op, Opcode::LdFrac8),
            }
        }
    }

    #[test]
    fn opcode_count_is_stable() {
        // The encoding reserves 7 bits for the opcode field; guard that we
        // stay within it.
        assert!(Opcode::all().len() <= 128);
    }

    #[test]
    fn every_opcode_is_described() {
        for &op in Opcode::all() {
            let d = op.describe();
            assert!(d.len() > 10, "{op}: description too terse");
        }
    }

    #[test]
    fn new_operations_reference_table2() {
        for op in [
            Opcode::LdFrac8,
            Opcode::SuperDualimix,
            Opcode::SuperLd32r,
            Opcode::SuperCabacCtx,
            Opcode::SuperCabacStr,
        ] {
            assert!(op.describe().contains("Table 2"), "{op}");
        }
    }
}
