//! [`ProfileSink`]: exact per-PC hot-spot attribution.
//!
//! Every cycle of a traced run is attributed to exactly one VLIW
//! instruction address: the issue cycle of the instruction itself, the
//! instruction-fetch stall paid to fetch it, and the data-side stall it
//! caused. Because the pipeline's cycle accounting is
//! `cycles = instrs + Σ ifetch_stall + Σ data_stall`, the per-PC
//! buckets decompose the run total *exactly* —
//! [`ProfileSink::total_cycles`] equals `RunStats.cycles` (and, for a
//! watchdog-aborted run, the abort cycle) the same way
//! [`StallBuckets::total`](crate::StallBuckets::total) does in
//! aggregate.
//!
//! For reporting, the per-PC table is summed over the program's block
//! spans (the partition `tm3270_encode::superblocks` computes, cut at
//! every jump target) by [`ProfileSink::blocks`] /
//! [`ProfileSink::hotspots`]; the sums are preserved, so the top-N
//! report inherits the conservation guarantee.
//!
//! The sink reads four event kinds ([`ProfileSink::READS`]). Operation
//! counts come from `InstrIssue` and the per-instruction op table the
//! sink is bound with ([`TraceSink::bind`]), not from per-op events, so
//! a run bound to this sink alone builds no `OpDispatch` events.

use crate::event::{CacheId, CacheOutcome, EventKinds, StallCause, TraceEvent};
use crate::sink::TraceSink;
use std::ops::Range;

/// Cycle and activity attribution for one VLIW instruction address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcProfile {
    /// Cycles this instruction spent issuing (one per issue).
    pub issue: u64,
    /// Instruction-fetch stall cycles paid fetching this instruction.
    pub ifetch_stall: u64,
    /// Data-side stall cycles caused by this instruction's operations.
    pub data_stall: u64,
    /// Operations dispatched from this instruction (guard true or
    /// false): its static op count from the bound op table, added per
    /// `InstrIssue`. An instruction stopped by an execution error emits
    /// no `InstrIssue` and adds nothing, though `RunStats.ops` counts it.
    pub ops: u64,
    /// Operations whose guard was true: the `ops` field of each
    /// `InstrIssue` (same exec-error rule as [`PcProfile::ops`]).
    pub exec_ops: u64,
    /// Data-cache misses requested by this instruction.
    pub dcache_misses: u64,
    /// Instruction-cache misses while fetching this instruction.
    pub icache_misses: u64,
}

impl PcProfile {
    /// Total cycles attributed to this address.
    pub fn cycles(&self) -> u64 {
        self.issue + self.ifetch_stall + self.data_stall
    }

    fn add(&mut self, other: &PcProfile) {
        self.issue += other.issue;
        self.ifetch_stall += other.ifetch_stall;
        self.data_stall += other.data_stall;
        self.ops += other.ops;
        self.exec_ops += other.exec_ops;
        self.dcache_misses += other.dcache_misses;
        self.icache_misses += other.icache_misses;
    }

    fn is_zero(&self) -> bool {
        *self == PcProfile::default()
    }
}

/// One straight-line block of the profile: the coalesced attribution of
/// the half-open PC range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockProfile {
    /// First VLIW instruction index of the block (inclusive).
    pub start: usize,
    /// One past the last VLIW instruction index of the block.
    pub end: usize,
    /// Summed attribution over the block's addresses.
    pub profile: PcProfile,
}

/// A sink that buckets cycles, operations and stalls by the VLIW
/// instruction address that caused them (see the module docs for the
/// attribution rules and the conservation guarantee).
#[derive(Debug, Clone, Default)]
pub struct ProfileSink {
    per_pc: Vec<PcProfile>,
    /// Static op count per VLIW instruction, from [`TraceSink::bind`].
    ops_per_instr: Vec<u8>,
    watchdog_idle: u64,
    watchdog_pc: Option<usize>,
    events: u64,
}

impl ProfileSink {
    /// The event kinds the sink reads, returned by its
    /// [`TraceSink::bind`].
    pub const READS: EventKinds = EventKinds::INSTR_ISSUE
        .union(EventKinds::STALL_END)
        .union(EventKinds::CACHE_ACCESS)
        .union(EventKinds::WATCHDOG_FIRED);

    /// A profile sink preallocated for a program of `program_len` VLIW
    /// instructions — steady-state event handling never allocates.
    /// (Out-of-range PCs, possible on fault-corrupted programs, grow the
    /// table on demand.)
    pub fn new(program_len: usize) -> ProfileSink {
        ProfileSink {
            per_pc: vec![PcProfile::default(); program_len],
            ..ProfileSink::default()
        }
    }

    #[inline]
    fn at(&mut self, pc: usize) -> &mut PcProfile {
        if pc >= self.per_pc.len() {
            self.per_pc.resize(pc + 1, PcProfile::default());
        }
        &mut self.per_pc[pc]
    }

    /// The per-PC attribution table (index = VLIW instruction index).
    pub fn per_pc(&self) -> &[PcProfile] {
        &self.per_pc
    }

    /// Total cycles attributed across all PCs. For a traced run this
    /// equals `RunStats.cycles` exactly (for a watchdog-aborted run, the
    /// cycle count at the abort).
    pub fn total_cycles(&self) -> u64 {
        self.per_pc.iter().map(PcProfile::cycles).sum()
    }

    /// Idle cycles reported by the livelock watchdog (0 unless the run
    /// aborted). Presentational: these cycles remain attributed to the
    /// PCs that issued them, so [`ProfileSink::total_cycles`] stays
    /// conserved.
    pub fn watchdog_idle(&self) -> u64 {
        self.watchdog_idle
    }

    /// PC at which the watchdog fired, if it did.
    pub fn watchdog_pc(&self) -> Option<usize> {
        self.watchdog_pc
    }

    /// Total events delivered to the sink. Bound alone, it is delivered
    /// only the kinds in [`ProfileSink::READS`]; inside a
    /// [`FanoutSink`](crate::FanoutSink) it may be delivered more.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Sums the per-PC table over `spans`, the program's block
    /// partition (sorted, covering `0..program length`; the spans of
    /// `tm3270_encode::superblocks`). Entries past the program end,
    /// possible on fault-corrupted programs, fold into the last span;
    /// blocks with no recorded activity are omitted. Block sums preserve
    /// the per-PC sums, so conservation carries over. (An empty program
    /// has no spans and issues nothing.)
    pub fn blocks(&self, spans: &[Range<usize>]) -> Vec<BlockProfile> {
        let len = self.per_pc.len();
        let mut blocks = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            let last = i + 1 == spans.len();
            let end = if last { len } else { span.end.min(len) };
            let start = span.start.min(end);
            let mut profile = PcProfile::default();
            self.per_pc[start..end].iter().for_each(|p| profile.add(p));
            if !profile.is_zero() {
                blocks.push(BlockProfile {
                    start,
                    end,
                    profile,
                });
            }
        }
        blocks
    }

    /// The top `n` blocks by attributed cycles (ties broken by start
    /// PC for determinism), hottest first.
    pub fn hotspots(&self, spans: &[Range<usize>], n: usize) -> Vec<BlockProfile> {
        let mut blocks = self.blocks(spans);
        blocks.sort_by(|a, b| {
            b.profile
                .cycles()
                .cmp(&a.profile.cycles())
                .then(a.start.cmp(&b.start))
        });
        blocks.truncate(n);
        blocks
    }
}

impl TraceSink for ProfileSink {
    fn event(&mut self, event: &TraceEvent) {
        self.events += 1;
        match *event {
            TraceEvent::InstrIssue { pc, ops, .. } => {
                let static_ops = self.ops_per_instr.get(pc).copied().unwrap_or(0);
                let p = self.at(pc);
                p.issue += 1;
                p.ops += u64::from(static_ops);
                p.exec_ops += u64::from(ops);
            }
            TraceEvent::StallEnd {
                pc, cause, cycles, ..
            } => match cause {
                StallCause::IFetch => self.at(pc).ifetch_stall += cycles,
                StallCause::Data => self.at(pc).data_stall += cycles,
            },
            TraceEvent::CacheAccess {
                pc,
                cache,
                outcome: CacheOutcome::Miss,
                ..
            } => match cache {
                CacheId::Data => self.at(pc).dcache_misses += 1,
                CacheId::Instr => self.at(pc).icache_misses += 1,
            },
            TraceEvent::WatchdogFired { pc, idle, .. } => {
                self.watchdog_idle = idle;
                self.watchdog_pc = Some(pc);
            }
            _ => {}
        }
    }

    /// Stores the op table and reads [`ProfileSink::READS`].
    fn bind(&mut self, ops_per_instr: &[u8]) -> EventKinds {
        self.ops_per_instr.clear();
        self.ops_per_instr.extend_from_slice(ops_per_instr);
        ProfileSink::READS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(cycle: u64, pc: usize) -> TraceEvent {
        TraceEvent::InstrIssue { cycle, pc, ops: 1 }
    }

    #[test]
    fn attribution_conserves_cycles() {
        let mut p = ProfileSink::new(4);
        // pc 0: 1 issue + 2 ifetch; pc 1: 1 issue + 3 data; pc 2: 2 issues.
        p.event(&TraceEvent::StallEnd {
            cycle: 2,
            cause: StallCause::IFetch,
            cycles: 2,
            pc: 0,
        });
        p.event(&issue(2, 0));
        p.event(&issue(3, 1));
        p.event(&TraceEvent::StallEnd {
            cycle: 7,
            cause: StallCause::Data,
            cycles: 3,
            pc: 1,
        });
        p.event(&issue(7, 2));
        p.event(&issue(8, 2));
        assert_eq!(p.per_pc()[0].cycles(), 3);
        assert_eq!(p.per_pc()[1].cycles(), 4);
        assert_eq!(p.per_pc()[2].cycles(), 2);
        assert_eq!(p.total_cycles(), 9);
    }

    #[test]
    fn op_counts_come_from_the_bound_table() {
        let mut p = ProfileSink::new(2);
        assert_eq!(p.bind(&[5, 2]), ProfileSink::READS);
        p.event(&TraceEvent::InstrIssue {
            cycle: 0,
            pc: 0,
            ops: 3,
        });
        p.event(&TraceEvent::InstrIssue {
            cycle: 1,
            pc: 0,
            ops: 5,
        });
        // Per-op events are not read, even when a fan-out delivers them.
        p.event(&TraceEvent::OpDispatch {
            cycle: 1,
            pc: 1,
            slot: 0,
            unit: "alu",
            mnemonic: "iadd",
            executed: true,
        });
        assert_eq!((p.per_pc()[0].ops, p.per_pc()[0].exec_ops), (10, 8));
        assert_eq!(p.per_pc()[1], PcProfile::default());
        assert_eq!(p.events(), 3, "events delivered");
    }

    #[test]
    fn blocks_split_at_jump_targets_and_preserve_sums() {
        let mut p = ProfileSink::new(6);
        for pc in 0..6 {
            p.event(&issue(pc as u64, pc));
        }
        // Jump targets at 2 and 4 → spans [0,2) [2,4) [4,6).
        let blocks = p.blocks(&[0..2, 2..4, 4..6]);
        assert_eq!(
            blocks.iter().map(|b| (b.start, b.end)).collect::<Vec<_>>(),
            vec![(0, 2), (2, 4), (4, 6)]
        );
        let total: u64 = blocks.iter().map(|b| b.profile.cycles()).sum();
        assert_eq!(total, p.total_cycles());
    }

    #[test]
    fn pcs_past_the_program_end_fold_into_the_last_span() {
        let mut p = ProfileSink::new(4);
        p.event(&issue(0, 1));
        p.event(&issue(1, 9));
        let blocks = p.blocks(&[0..2, 2..4]);
        assert_eq!(
            blocks.iter().map(|b| (b.start, b.end)).collect::<Vec<_>>(),
            vec![(0, 2), (2, 10)]
        );
    }

    #[test]
    fn hotspots_rank_by_cycles_and_skip_cold_blocks() {
        let mut p = ProfileSink::new(6);
        // Block [0,2) cold; [2,4) gets 5 cycles; [4,6) gets 2.
        for _ in 0..5 {
            p.event(&issue(0, 3));
        }
        p.event(&issue(0, 4));
        p.event(&issue(1, 5));
        let spans = [0..2, 2..4, 4..6];
        let hot = p.hotspots(&spans, 10);
        assert_eq!(hot.len(), 2, "cold block omitted");
        assert_eq!((hot[0].start, hot[0].end), (2, 4));
        assert_eq!(hot[0].profile.cycles(), 5);
        assert_eq!((hot[1].start, hot[1].end), (4, 6));
        let top1 = p.hotspots(&spans, 1);
        assert_eq!(top1.len(), 1);
    }

    #[test]
    fn out_of_range_pc_grows_the_table() {
        let mut p = ProfileSink::new(2);
        p.event(&issue(0, 10));
        assert_eq!(p.per_pc().len(), 11);
        assert_eq!(p.total_cycles(), 1);
    }

    #[test]
    fn watchdog_is_recorded_but_not_double_counted() {
        let mut p = ProfileSink::new(2);
        for c in 0..10 {
            p.event(&issue(c, 1));
        }
        p.event(&TraceEvent::WatchdogFired {
            cycle: 10,
            pc: 1,
            idle: 10,
        });
        assert_eq!(p.total_cycles(), 10);
        assert_eq!(p.watchdog_idle(), 10);
        assert_eq!(p.watchdog_pc(), Some(1));
    }
}
