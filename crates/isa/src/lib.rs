//! # tm3270-isa
//!
//! Instruction-set architecture of the TM3270 media-processor (van de
//! Waerdt et al., *The TM3270 Media-Processor*, MICRO 2005) and of its
//! TM3260 predecessor.
//!
//! The TM3270 is a 5-issue-slot VLIW with guarded RISC-like operations, a
//! unified 128 x 32-bit register file, SIMD capabilities
//! (1 x 32 / 2 x 16 / 4 x 8), IEEE-754 floating point and — new in the
//! TM3270 — *two-slot operations* with up to four sources and two
//! destinations, *collapsed loads with interpolation* (`LD_FRAC8`) and
//! *CABAC operations* for H.264 entropy decoding.
//!
//! This crate provides:
//!
//! * [`Reg`] / [`RegFile`] — the unified register file with hard-wired
//!   `r0 = 0`, `r1 = 1`;
//! * [`Opcode`] / [`Op`] / [`Instr`] / [`Program`] — the operation set and
//!   VLIW instruction containers; every opcode is one row of a single
//!   table that also yields its description, its memory [`Access`] shape
//!   and, for register-pure ops, its evaluator ([`pure_fn`]);
//! * [`execute`] — the full architectural semantics of every operation
//!   against a [`DataMemory`];
//! * [`IssueModel`] — issue-slot binding and latencies for TM3270/TM3260;
//! * [`cabac`] — the H.264 arithmetic-coding step shared by the
//!   `SUPER_CABAC_*` operations and the `tm3270-cabac` substrate.
//!
//! # Examples
//!
//! Execute one guarded SIMD operation functionally:
//!
//! ```
//! use tm3270_isa::{execute, FlatMemory, Op, Opcode, Reg, RegFile};
//!
//! let mut rf = RegFile::new();
//! rf.write(Reg::new(2), 0x10_20_30_40);
//! rf.write(Reg::new(3), 0x20_30_40_50);
//! let mut mem = FlatMemory::new(4096);
//!
//! // quadavg: per-byte average with rounding.
//! let op = Op::rrr(Opcode::Quadavg, Reg::new(4), Reg::new(2), Reg::new(3));
//! let result = execute(&op, &rf, &mut mem).unwrap();
//! assert_eq!(result.writes[0], Some((Reg::new(4), 0x18_28_38_48)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cabac;
mod exec;
mod op;
mod opcode;
mod reg;
mod units;
pub mod value;

pub use exec::{
    check_alignment, execute, ld_frac8_value, required_alignment, super_ld32_words, CacheOp,
    DataMemory, ExecError, ExecResult, FlatMemory, PfParam,
};
pub use op::{Instr, Op, Program, Slot, NUM_SLOTS};
pub use opcode::{pure_fn, Access, Opcode, PureFn, Signature, Unit};
pub use reg::{Reg, RegFile, NUM_REGS};
pub use units::IssueModel;
