//! Human-readable run reports and crash-report rendering.

use crate::counters::COUNTERS;
use crate::pipeline::{RunStats, SimError, TraceRecord};
use crate::snapshot::Snapshot;
use std::fmt::Write as _;

/// A post-mortem snapshot taken when a run ends in a [`SimError`].
///
/// Produced by [`Machine::crash_report`](crate::Machine::crash_report);
/// its `Display` impl renders the report the fault-injection campaign
/// prints for failing runs: the typed error, where the machine was, a
/// digest of the register file and the last few trace records.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashReport {
    /// The error that ended the run.
    pub error: SimError,
    /// Program counter at the time of the error.
    pub pc: usize,
    /// Cycle count at the time of the error.
    pub cycle: u64,
    /// VLIW instructions issued before the error.
    pub instrs: u64,
    /// FNV-1a digest of the 128 architectural registers.
    pub reg_digest: u64,
    /// Configured capacity of the crash-trace ring buffer
    /// (`MachineConfig::trace_ring`; default
    /// [`TRACE_RING`](crate::pipeline::TRACE_RING)).
    pub ring_size: usize,
    /// The last few executed instructions, oldest first (ring buffer of
    /// up to [`ring_size`](Self::ring_size) records).
    pub trace: Vec<TraceRecord>,
    /// A restorable snapshot of the machine at the moment of the error:
    /// feed it to [`Machine::restore`](crate::Machine::restore) on a
    /// machine built from the same configuration and image to
    /// re-materialize and single-step the crash. `None` when the machine
    /// never came to life (e.g. the image failed to decode).
    pub snapshot: Option<Snapshot>,
}

impl std::fmt::Display for CrashReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== crash report ===")?;
        writeln!(f, "error : {} ({})", self.error, self.error.kind())?;
        writeln!(
            f,
            "state : pc {}  cycle {}  instrs {}  regfile digest {:#018x}",
            self.pc, self.cycle, self.instrs, self.reg_digest
        )?;
        if self.trace.is_empty() {
            writeln!(f, "trace : (no instructions executed)")?;
        } else {
            writeln!(
                f,
                "trace : last {} instructions (ring size {})",
                self.trace.len(),
                self.ring_size
            )?;
            for rec in &self.trace {
                writeln!(
                    f,
                    "  cycle {:>8}  pc {:>6}  ops {}  stalls i/d {}/{}{}",
                    rec.cycle,
                    rec.pc,
                    rec.ops_executed,
                    rec.ifetch_stall,
                    rec.data_stall,
                    match rec.branch_taken {
                        Some(t) => format!("  -> branch to {t}"),
                        None => String::new(),
                    }
                )?;
            }
        }
        Ok(())
    }
}

impl RunStats {
    /// Formats the run as a clock line, then one line per counter of
    /// [`COUNTERS`]: key, value, unit and meaning.
    ///
    /// ```
    /// # use tm3270_core::{Machine, MachineConfig, RunOptions};
    /// # let config = MachineConfig::tm3270();
    /// # let mut b = tm3270_asm::ProgramBuilder::new(config.issue);
    /// # b.op(tm3270_isa::Op::imm(tm3270_isa::Reg::new(2), 1));
    /// let mut m = Machine::new(config, b.build()?)?;
    /// let stats = m.run_with(RunOptions::budget(1_000_000)).into_result()?;
    /// assert!(stats.report().starts_with("clock"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn report(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "clock {} MHz", self.freq_mhz);
        for c in COUNTERS {
            let v = c.text(self);
            let _ = writeln!(s, "{:<22} {v:>14} {:<12} {}", c.key, c.unit, c.meaning);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::counters::COUNTERS;
    use crate::{Machine, MachineConfig};
    use tm3270_asm::ProgramBuilder;
    use tm3270_isa::{Op, Opcode, Reg};

    #[test]
    fn report_mentions_all_sections() {
        let config = MachineConfig::tm3270();
        let mut b = ProgramBuilder::new(config.issue);
        b.op(Op::imm(Reg::new(2), 0x1000));
        b.op(Op::rri(Opcode::Ld32d, Reg::new(3), Reg::new(2), 0));
        let mut m = Machine::new(config, b.build().unwrap()).unwrap();
        let stats = m
            .run_with(crate::RunOptions::budget(1_000_000))
            .into_result()
            .unwrap();
        let report = stats.report();
        assert_eq!(
            report.lines().count(),
            1 + COUNTERS.len(),
            "a clock line and one line per counter"
        );
        for needle in ["MHz", "cycles", "cpi", "dcache", "icache", "dram"] {
            assert!(report.contains(needle), "missing {needle}: {report}");
        }
    }
}
