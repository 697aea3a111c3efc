//! The structured trace-event vocabulary.
//!
//! Events are small `Copy` values stamped with the simulated cycle at
//! which they occurred. Pipeline-side events carry integer cycles (the
//! pipeline advances in whole cycles); memory-side events carry `f64`
//! cycles, because the memory model times the DRAM channel and the
//! prefetch unit in exact integer ticks, fractions of a cycle. The stamp
//! is `ticks / ticks_per_cycle`, for presentation only: it is exact
//! wherever the quotient is representable (every stamp at 350 MHz), and
//! nothing in the model reads it back.

/// Why the pipeline stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Instruction-fetch stall (stages I1–I3 waiting on the instruction
    /// cache / DRAM).
    IFetch,
    /// Data-side stall (data-cache miss, write-buffer back-pressure,
    /// prefetch wait, BIU back-pressure).
    Data,
}

impl StallCause {
    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::IFetch => "ifetch",
            StallCause::Data => "data",
        }
    }
}

/// Which cache array an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheId {
    /// The data cache.
    Data,
    /// The instruction cache.
    Instr,
}

impl CacheId {
    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CacheId::Data => "dcache",
            CacheId::Instr => "icache",
        }
    }
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOutcome {
    /// Line present, all requested bytes valid.
    Hit,
    /// Line present but some requested bytes invalid (possible under
    /// allocate-on-write-miss).
    PartialHit,
    /// Line absent.
    Miss,
}

impl CacheOutcome {
    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::PartialHit => "partial",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// What a DRAM transaction was issued for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTxKind {
    /// Demand refill of a data-cache line (the core is stalled on it).
    DemandFill,
    /// Fetch-on-write-miss line read (background traffic).
    WriteFetch,
    /// Copy-back of an evicted dirty line.
    Copyback,
    /// Hardware or software prefetch.
    Prefetch,
    /// Instruction-cache line fetch.
    IFetch,
    /// Explicit cache-control operation (`dflush`, prefetch ops).
    CacheControl,
}

impl MemTxKind {
    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MemTxKind::DemandFill => "demand_fill",
            MemTxKind::WriteFetch => "write_fetch",
            MemTxKind::Copyback => "copyback",
            MemTxKind::Prefetch => "prefetch",
            MemTxKind::IFetch => "ifetch",
            MemTxKind::CacheControl => "cache_control",
        }
    }

    /// All transaction kinds, in a stable report order.
    pub fn all() -> &'static [MemTxKind] {
        &[
            MemTxKind::DemandFill,
            MemTxKind::WriteFetch,
            MemTxKind::Copyback,
            MemTxKind::Prefetch,
            MemTxKind::IFetch,
            MemTxKind::CacheControl,
        ]
    }
}

/// A set of [`TraceEvent`] kinds, one bit per variant.
///
/// A sink returns the kinds it reads from
/// [`TraceSink::bind`](crate::TraceSink::bind); the
/// [`SinkHandle`](crate::SinkHandle) it is bound through drops every
/// other kind before staging, and producers skip building events no
/// bound sink reads ([`SinkHandle::wants`](crate::SinkHandle::wants)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EventKinds(u16);

impl EventKinds {
    /// No kind.
    pub const NONE: EventKinds = EventKinds(0);
    /// [`TraceEvent::InstrIssue`].
    pub const INSTR_ISSUE: EventKinds = EventKinds(1 << 0);
    /// [`TraceEvent::OpDispatch`].
    pub const OP_DISPATCH: EventKinds = EventKinds(1 << 1);
    /// [`TraceEvent::StallBegin`].
    pub const STALL_BEGIN: EventKinds = EventKinds(1 << 2);
    /// [`TraceEvent::StallEnd`].
    pub const STALL_END: EventKinds = EventKinds(1 << 3);
    /// [`TraceEvent::CacheAccess`].
    pub const CACHE_ACCESS: EventKinds = EventKinds(1 << 4);
    /// [`TraceEvent::CacheEvict`].
    pub const CACHE_EVICT: EventKinds = EventKinds(1 << 5);
    /// [`TraceEvent::PrefetchIssue`].
    pub const PREFETCH_ISSUE: EventKinds = EventKinds(1 << 6);
    /// [`TraceEvent::PrefetchLate`].
    pub const PREFETCH_LATE: EventKinds = EventKinds(1 << 7);
    /// [`TraceEvent::DramTransaction`].
    pub const DRAM_TRANSACTION: EventKinds = EventKinds(1 << 8);
    /// [`TraceEvent::BranchResolve`].
    pub const BRANCH_RESOLVE: EventKinds = EventKinds(1 << 9);
    /// [`TraceEvent::WatchdogFired`].
    pub const WATCHDOG_FIRED: EventKinds = EventKinds(1 << 10);
    /// [`TraceEvent::FaultFlip`].
    pub const FAULT_FLIP: EventKinds = EventKinds(1 << 11);
    /// Every kind.
    pub const ALL: EventKinds = EventKinds((1 << 12) - 1);

    /// The kinds in `self` or `other` (`|` in const context).
    #[inline]
    pub const fn union(self, other: EventKinds) -> EventKinds {
        EventKinds(self.0 | other.0)
    }

    /// Whether every kind in `other` is in `self`.
    #[inline]
    pub const fn contains(self, other: EventKinds) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether `self` and `other` share a kind.
    #[inline]
    pub const fn intersects(self, other: EventKinds) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for EventKinds {
    type Output = EventKinds;

    #[inline]
    fn bitor(self, other: EventKinds) -> EventKinds {
        self.union(other)
    }
}

impl std::ops::BitOrAssign for EventKinds {
    #[inline]
    fn bitor_assign(&mut self, other: EventKinds) {
        *self = self.union(other);
    }
}

/// One cycle-stamped trace event.
///
/// The vocabulary covers the paper's whole evaluation vocabulary (§5,
/// §6): instruction issue, per-slot operation dispatch with the
/// functional unit that executed it, stall begin/end with cause, cache
/// behaviour, prefetch behaviour, DRAM transactions, branch resolution,
/// the livelock watchdog, and fault-injection bit flips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A VLIW instruction issued (after any front-end stall).
    InstrIssue {
        /// Issue cycle.
        cycle: u64,
        /// VLIW instruction index.
        pc: usize,
        /// Operations in the instruction whose guard was true.
        ops: u8,
    },
    /// One operation dispatched to a functional unit.
    OpDispatch {
        /// Issue cycle of the containing instruction.
        cycle: u64,
        /// VLIW instruction index.
        pc: usize,
        /// Issue slot (0-based; two-slot operations report their anchor).
        slot: u8,
        /// Functional-unit name (e.g. `alu`, `dspmul`, `load`).
        unit: &'static str,
        /// Operation mnemonic.
        mnemonic: &'static str,
        /// Whether the guard was true (the operation took effect).
        executed: bool,
    },
    /// A pipeline stall began.
    StallBegin {
        /// First stalled cycle.
        cycle: u64,
        /// Stall cause.
        cause: StallCause,
        /// VLIW instruction index the stall is attributed to: the
        /// instruction about to issue (ifetch) or just issued (data).
        pc: usize,
    },
    /// A pipeline stall ended.
    StallEnd {
        /// First cycle after the stall.
        cycle: u64,
        /// Stall cause.
        cause: StallCause,
        /// Stall length in cycles.
        cycles: u64,
        /// VLIW instruction index the stall is attributed to (see
        /// [`TraceEvent::StallBegin`]).
        pc: usize,
    },
    /// A cache lookup completed.
    CacheAccess {
        /// Cycle of the access.
        cycle: f64,
        /// Which cache.
        cache: CacheId,
        /// Accessed byte address.
        addr: u32,
        /// Lookup outcome.
        outcome: CacheOutcome,
        /// Whether this access consumed a line brought in by the
        /// prefetch unit (first demand touch of a prefetched line).
        prefetch_hit: bool,
        /// VLIW instruction index of the requesting instruction (the
        /// instruction executing a load/store, or the one whose fetch
        /// probed the instruction cache).
        pc: usize,
    },
    /// A cache line was evicted to make room.
    CacheEvict {
        /// Cycle of the eviction.
        cycle: f64,
        /// Which cache.
        cache: CacheId,
        /// Line base address of the victim.
        base: u32,
        /// Dirty-valid bytes copied back (0 = clean victim).
        copyback_bytes: u32,
    },
    /// The prefetch unit issued a request to the DRAM channel.
    PrefetchIssue {
        /// Cycle of the issue.
        cycle: f64,
        /// Line base address being prefetched.
        base: u32,
    },
    /// A demand access caught up with an in-flight prefetch and had to
    /// wait for it (a *late* prefetch — issued, but not early enough).
    PrefetchLate {
        /// Cycle of the demand access.
        cycle: f64,
        /// Line base address of the in-flight prefetch.
        base: u32,
        /// Cycles the core waited for the prefetch to complete.
        wait: f64,
    },
    /// A transaction was scheduled on the DRAM channel.
    DramTransaction {
        /// Cycle at which the transaction was requested.
        cycle: f64,
        /// What the transaction is for.
        kind: MemTxKind,
        /// Bytes transferred.
        bytes: u32,
        /// Cycle at which the transfer completes.
        completion: f64,
    },
    /// A branch operation resolved.
    BranchResolve {
        /// Issue cycle of the branch.
        cycle: u64,
        /// VLIW instruction index of the branch.
        pc: usize,
        /// Branch target (instruction index), if taken.
        target: Option<usize>,
        /// Whether the branch was taken.
        taken: bool,
    },
    /// The livelock watchdog fired (the run ends in `NoProgress`).
    WatchdogFired {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// VLIW instruction index at the firing point.
        pc: usize,
        /// Cycles elapsed without an executed non-jump operation.
        idle: u64,
    },
    /// The fault injector flipped one bit.
    FaultFlip {
        /// Injection site name (e.g. `instruction stream`).
        site: &'static str,
        /// Byte offset within the site's address space.
        byte: usize,
        /// Flipped bit position (0 = LSB).
        bit: u8,
    },
}

impl TraceEvent {
    /// The cycle stamp of the event, as `f64` (integer-cycle events are
    /// widened; [`TraceEvent::FaultFlip`] has no timestamp and reports
    /// 0).
    pub fn cycle(&self) -> f64 {
        match *self {
            TraceEvent::InstrIssue { cycle, .. }
            | TraceEvent::OpDispatch { cycle, .. }
            | TraceEvent::StallBegin { cycle, .. }
            | TraceEvent::StallEnd { cycle, .. }
            | TraceEvent::BranchResolve { cycle, .. }
            | TraceEvent::WatchdogFired { cycle, .. } => cycle as f64,
            TraceEvent::CacheAccess { cycle, .. }
            | TraceEvent::CacheEvict { cycle, .. }
            | TraceEvent::PrefetchIssue { cycle, .. }
            | TraceEvent::PrefetchLate { cycle, .. }
            | TraceEvent::DramTransaction { cycle, .. } => cycle,
            TraceEvent::FaultFlip { .. } => 0.0,
        }
    }

    /// The event's own bit in [`EventKinds`].
    #[inline]
    pub fn kind_bit(&self) -> EventKinds {
        match self {
            TraceEvent::InstrIssue { .. } => EventKinds::INSTR_ISSUE,
            TraceEvent::OpDispatch { .. } => EventKinds::OP_DISPATCH,
            TraceEvent::StallBegin { .. } => EventKinds::STALL_BEGIN,
            TraceEvent::StallEnd { .. } => EventKinds::STALL_END,
            TraceEvent::CacheAccess { .. } => EventKinds::CACHE_ACCESS,
            TraceEvent::CacheEvict { .. } => EventKinds::CACHE_EVICT,
            TraceEvent::PrefetchIssue { .. } => EventKinds::PREFETCH_ISSUE,
            TraceEvent::PrefetchLate { .. } => EventKinds::PREFETCH_LATE,
            TraceEvent::DramTransaction { .. } => EventKinds::DRAM_TRANSACTION,
            TraceEvent::BranchResolve { .. } => EventKinds::BRANCH_RESOLVE,
            TraceEvent::WatchdogFired { .. } => EventKinds::WATCHDOG_FIRED,
            TraceEvent::FaultFlip { .. } => EventKinds::FAULT_FLIP,
        }
    }

    /// A short stable name for the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::InstrIssue { .. } => "instr_issue",
            TraceEvent::OpDispatch { .. } => "op_dispatch",
            TraceEvent::StallBegin { .. } => "stall_begin",
            TraceEvent::StallEnd { .. } => "stall_end",
            TraceEvent::CacheAccess { .. } => "cache_access",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::PrefetchIssue { .. } => "prefetch_issue",
            TraceEvent::PrefetchLate { .. } => "prefetch_late",
            TraceEvent::DramTransaction { .. } => "dram_transaction",
            TraceEvent::BranchResolve { .. } => "branch_resolve",
            TraceEvent::WatchdogFired { .. } => "watchdog_fired",
            TraceEvent::FaultFlip { .. } => "fault_flip",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_stamp_widens_integer_cycles() {
        let e = TraceEvent::InstrIssue {
            cycle: 41,
            pc: 3,
            ops: 2,
        };
        assert_eq!(e.cycle(), 41.0);
        let m = TraceEvent::PrefetchIssue {
            cycle: 12.5,
            base: 0x80,
        };
        assert_eq!(m.cycle(), 12.5);
    }

    #[test]
    fn kinds_are_distinct() {
        let events = [
            TraceEvent::InstrIssue {
                cycle: 0,
                pc: 0,
                ops: 0,
            },
            TraceEvent::StallBegin {
                cycle: 0,
                cause: StallCause::IFetch,
                pc: 0,
            },
            TraceEvent::StallEnd {
                cycle: 0,
                cause: StallCause::Data,
                cycles: 1,
                pc: 0,
            },
            TraceEvent::FaultFlip {
                site: "data memory",
                byte: 0,
                bit: 0,
            },
        ];
        let kinds: std::collections::HashSet<_> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), events.len());
        let mut seen = EventKinds::NONE;
        for e in &events {
            assert!(!seen.intersects(e.kind_bit()), "{} shares a bit", e.kind());
            assert!(EventKinds::ALL.contains(e.kind_bit()));
            seen |= e.kind_bit();
        }
        assert!(seen.contains(EventKinds::INSTR_ISSUE | EventKinds::FAULT_FLIP));
        assert!(!seen.intersects(EventKinds::OP_DISPATCH));
    }
}
