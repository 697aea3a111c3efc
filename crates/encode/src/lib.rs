//! # tm3270-encode
//!
//! Template-based VLIW instruction compression of the TM3270
//! media-processor (paper, §2.1 and Figure 1).
//!
//! A VLIW instruction may contain up to five operations, encoded in a
//! compressed format to limit code size. Every instruction starts with a
//! 10-bit template field — five 2-bit compression sub-fields, one per
//! issue slot — that specifies the operation field sizes (26, 34 or 42
//! bits, or "slot unused") of the **next** instruction, so the decode
//! pipeline knows the layout one cycle early. Jump-target instructions are
//! stored uncompressed. An empty instruction costs 2 bytes; a full
//! five-operation instruction with maximum-size fields costs 28 bytes.
//!
//! # Examples
//!
//! ```
//! use tm3270_encode::{decode_program, encode_program};
//! use tm3270_isa::{Instr, Op, Opcode, Program, Reg};
//!
//! let mut program = Program::new();
//! let mut i = Instr::nop();
//! i.place(Op::rrr(Opcode::Iadd, Reg::new(4), Reg::new(2), Reg::new(3)), 0);
//! program.instrs.push(i);
//! program.instrs.push(Instr::nop());
//!
//! let image = encode_program(&program)?;
//! assert_eq!(decode_program(&image)?, program);
//! # Ok::<(), tm3270_encode::EncodeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitio;
mod format;
mod program;
pub mod snapshot;

pub use bitio::{BitReader, BitWriter};
pub use format::{preferred_code, SlotCode};
pub use program::{
    decode_program, decode_program_detailed, encode_program, superblocks, BlockSpan, CodeStats,
    DecodeFault, EncodedProgram,
};
pub use snapshot::{
    SectionReader, SectionWriter, SnapshotError, SnapshotReader, SnapshotWriter,
    SNAPSHOT_COUNT_LIMIT, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};

use std::error::Error;
use std::fmt;

/// Errors produced by program encoding and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// An operation's immediate exceeds the encodable range.
    ImmOutOfRange {
        /// Mnemonic of the offending operation.
        mnemonic: &'static str,
        /// The immediate value that did not fit.
        imm: i32,
    },
    /// A jump-target index is outside the program.
    BadTarget {
        /// The offending instruction index.
        index: usize,
    },
    /// An operation field names an opcode that does not exist in the
    /// instruction set (typically a corrupted image).
    InvalidOpcode {
        /// The 7-bit opcode field as read from the image.
        code: u16,
    },
    /// An operation field names a register index outside the 128-entry
    /// register file (typically a corrupted image).
    RegisterOutOfRange {
        /// The register index as read from the image.
        index: u8,
    },
    /// The binary image is inconsistent.
    Corrupt(&'static str),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { mnemonic, imm } => {
                write!(f, "immediate {imm} of `{mnemonic}` is not encodable")
            }
            EncodeError::BadTarget { index } => {
                write!(f, "jump target {index} is outside the program")
            }
            EncodeError::InvalidOpcode { code } => {
                write!(f, "opcode {code:#04x} is not part of the instruction set")
            }
            EncodeError::RegisterOutOfRange { index } => {
                write!(
                    f,
                    "register index {index} exceeds the 128-entry register file"
                )
            }
            EncodeError::Corrupt(what) => write!(f, "corrupt instruction image: {what}"),
        }
    }
}

impl Error for EncodeError {}
