//! # tm3270-core
//!
//! The TM3270 media-processor simulator: machine configurations and the
//! cycle-approximate pipeline model (paper, §3, §4 and §6).
//!
//! This crate ties the reproduction together:
//!
//! * [`MachineConfig`] — the TM3270, the TM3260 predecessor, and the four
//!   evaluation configurations A–D of the paper's §6;
//! * [`Machine`] — an execution-driven, cycle-approximate simulator that
//!   runs real [`tm3270_isa::Program`]s against the full memory hierarchy
//!   of `tm3270-mem`, honouring the statically scheduled pipeline's
//!   exposed latencies and jump delay slots;
//! * [`RunStats`] — cycles, CPI, OPI (the quantities the paper's power
//!   and performance sections report), stall breakdowns and the complete
//!   memory-system statistics;
//! * [`counters`] — the one table of those counters, with the JSON and
//!   text renderers every document uses.
//!
//! # Examples
//!
//! ```
//! use tm3270_asm::ProgramBuilder;
//! use tm3270_core::{Machine, MachineConfig};
//! use tm3270_isa::{Op, Opcode, Reg};
//!
//! let config = MachineConfig::tm3270();
//! let mut b = ProgramBuilder::new(config.issue);
//! let (x, y) = (Reg::new(2), Reg::new(3));
//! b.op(Op::imm(x, 6));
//! b.op(Op::imm(y, 7));
//! b.op(Op::rrr(Opcode::Imul, Reg::new(4), x, y));
//! let program = b.build()?;
//!
//! let mut machine = Machine::new(config, program)?;
//! let stats = machine
//!     .run_with(tm3270_core::RunOptions::budget(1_000_000))
//!     .into_result()?;
//! assert_eq!(machine.reg(Reg::new(4)), 42);
//! assert!(stats.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
pub mod counters;
mod pipeline;
mod report;
mod snapshot;

pub use config::MachineConfig;
pub use pipeline::{
    EngineTelemetry, Machine, RunOptions, RunOutcome, RunStats, SimError, TraceRecord,
    DEFAULT_WATCHDOG_CYCLES, TRACE_RING,
};
pub use report::CrashReport;
pub use snapshot::{Snapshot, SnapshotError};
