//! [`CounterSink`]: utilization histograms and stall attribution.
//!
//! The sink keeps only counts no model statistic holds: stall buckets
//! and episodes, slot and unit dispatch, evictions, late prefetches,
//! per-kind DRAM traffic, watchdog firings and fault flips. Cache hits,
//! prefetches issued and branches are `RunStats` counts, so the sink
//! binds to [`CounterSink::READS`] and a run it observes alone does not
//! build those events. Its issue bucket sums the per-PC
//! `IssueCount` events the handle stages when it drains, so a run it
//! observes builds no `InstrIssue` either.

use crate::event::{CacheId, EventKinds, MemTxKind, StallCause, TraceEvent};
use crate::sink::TraceSink;
use std::collections::BTreeMap;

/// Number of issue slots tracked (the TM3270 issues 5 operations per
/// VLIW instruction; wider slots are clamped to the last bin).
pub const SLOTS: usize = 5;

/// Exact decomposition of a run's total cycles.
///
/// For a run that completes (no watchdog abort), the simulator spends
/// every cycle either issuing one VLIW instruction, stalled on
/// instruction fetch, or stalled on the data side — so
/// `issue + ifetch_stall + data_stall == RunStats.cycles` exactly and
/// `watchdog_idle` is 0. When the livelock watchdog aborts a run, the
/// cycles of the idle window (issued instructions that made no
/// architectural progress) are reclassified from `issue` into
/// `watchdog_idle`, preserving the total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBuckets {
    /// Cycles spent issuing VLIW instructions.
    pub issue: u64,
    /// Cycles stalled on instruction fetch.
    pub ifetch_stall: u64,
    /// Cycles stalled on the data side (cache misses, write-buffer
    /// back-pressure, prefetch waits).
    pub data_stall: u64,
    /// Cycles burned in the livelock window before the watchdog fired
    /// (0 for runs that complete).
    pub watchdog_idle: u64,
}

impl StallBuckets {
    /// Sum of all buckets — equals `RunStats.cycles` for a traced run.
    pub fn total(&self) -> u64 {
        self.issue + self.ifetch_stall + self.data_stall + self.watchdog_idle
    }
}

/// Dispatch counts for one functional unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCount {
    /// Operations dispatched to the unit (guard true or false).
    pub dispatched: u64,
    /// Operations whose guard was true (took architectural effect).
    pub executed: u64,
}

/// Eviction counters for one cache array. The model's own copyback
/// count also includes `dflush` write-backs, which emit no eviction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Evictions.
    pub evictions: u64,
    /// Dirty bytes copied back by evictions.
    pub copyback_bytes: u64,
}

/// Aggregate counters for one DRAM transaction kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramCount {
    /// Transactions scheduled.
    pub transactions: u64,
    /// Bytes transferred.
    pub bytes: u64,
}

/// A sink that folds the event stream into utilization histograms and
/// the [`StallBuckets`] cycle decomposition.
#[derive(Debug, Clone, Default)]
pub struct CounterSink {
    /// Stall cycles; `issue` holds every issue and `watchdog_idle` every
    /// idle window reported, split by [`CounterSink::buckets`].
    buckets: StallBuckets,
    /// Operations dispatched per issue slot (guard true or false).
    pub ops_per_slot: [u64; SLOTS],
    /// Operations executed per issue slot (guard true).
    pub executed_per_slot: [u64; SLOTS],
    /// Per-functional-unit dispatch counts. Unit names are interned
    /// statics and there are only ~10 units, so the hot path is a
    /// pointer-first linear scan instead of a `BTreeMap` walk; read the
    /// sorted view through [`CounterSink::units`].
    unit_counts: Vec<(&'static str, UnitCount)>,
    /// Instruction-fetch stall episodes (not cycles; see buckets).
    pub ifetch_stalls: u64,
    /// Data-side stall episodes (not cycles; see buckets).
    pub data_stalls: u64,
    /// Data-cache evictions.
    pub dcache: CacheCounts,
    /// Instruction-cache evictions.
    pub icache: CacheCounts,
    /// Demand accesses that had to wait on an in-flight prefetch (the
    /// model keeps only the cycles they waited).
    pub prefetch_late: u64,
    /// Per-kind DRAM transaction counters, indexed by the kind's
    /// declaration order (that of [`MemTxKind::all`]); read the
    /// name-keyed view through [`CounterSink::dram`].
    dram_counts: [DramCount; 6],
    /// Livelock-watchdog firings (0 or 1 per run).
    pub watchdog_fired: u64,
    /// Fault-injection bit flips observed.
    pub fault_flips: u64,
    /// Total events delivered to the sink. Bound alone, it is delivered
    /// only the kinds in [`CounterSink::READS`]; inside a
    /// [`FanoutSink`](crate::FanoutSink) it may be delivered more.
    pub events: u64,
}

impl CounterSink {
    /// The event kinds the sink reads, returned by its
    /// [`TraceSink::bind`].
    pub const READS: EventKinds = EventKinds::ISSUE_COUNT
        .union(EventKinds::OP_DISPATCH)
        .union(EventKinds::STALL_END)
        .union(EventKinds::CACHE_EVICT)
        .union(EventKinds::PREFETCH_LATE)
        .union(EventKinds::DRAM_TRANSACTION)
        .union(EventKinds::WATCHDOG_FIRED)
        .union(EventKinds::FAULT_FLIP);

    /// A fresh, all-zero counter sink.
    pub fn new() -> CounterSink {
        CounterSink::default()
    }

    /// The cycle decomposition accumulated so far. The watchdog's idle
    /// window is moved out of the issue bucket here, not when the
    /// `WatchdogFired` event arrives, because the issue counts of the
    /// aborted run arrive after it.
    pub fn buckets(&self) -> StallBuckets {
        let moved = self.buckets.watchdog_idle.min(self.buckets.issue);
        StallBuckets {
            issue: self.buckets.issue - moved,
            watchdog_idle: moved,
            ..self.buckets
        }
    }

    /// Per-functional-unit dispatch counts, keyed by unit name (sorted).
    pub fn units(&self) -> BTreeMap<&'static str, UnitCount> {
        self.unit_counts.iter().copied().collect()
    }

    /// Per-kind DRAM transaction counters, keyed by kind name. Kinds
    /// with no transactions are omitted (matching the old map behavior).
    pub fn dram(&self) -> BTreeMap<&'static str, DramCount> {
        MemTxKind::all()
            .iter()
            .map(|&k| (k.name(), self.dram_counts[k as usize]))
            .filter(|(_, d)| d.transactions > 0)
            .collect()
    }

    #[inline]
    fn unit_entry(&mut self, unit: &'static str) -> &mut UnitCount {
        // Pointer equality first: dispatch sites always pass the same
        // interned `&'static str` per unit, so the common case is a
        // short scan of pointer compares.
        let i = (self.unit_counts.iter())
            .position(|&(name, _)| std::ptr::eq(name, unit) || name == unit)
            .unwrap_or_else(|| {
                self.unit_counts.push((unit, UnitCount::default()));
                self.unit_counts.len() - 1
            });
        &mut self.unit_counts[i].1
    }

    /// Total operations dispatched (sum over slots).
    pub fn ops_dispatched(&self) -> u64 {
        self.ops_per_slot.iter().sum()
    }

    /// Total operations executed (guard true; sum over slots).
    pub fn ops_executed(&self) -> u64 {
        self.executed_per_slot.iter().sum()
    }
}

impl TraceSink for CounterSink {
    fn event(&mut self, event: &TraceEvent) {
        self.events += 1;
        match *event {
            TraceEvent::IssueCount { issues, .. } => self.buckets.issue += issues,
            TraceEvent::OpDispatch {
                slot,
                unit,
                executed,
                ..
            } => {
                let s = (slot as usize).min(SLOTS - 1);
                self.ops_per_slot[s] += 1;
                if executed {
                    self.executed_per_slot[s] += 1;
                }
                let u = self.unit_entry(unit);
                u.dispatched += 1;
                if executed {
                    u.executed += 1;
                }
            }
            TraceEvent::StallEnd { cause, cycles, .. } => match cause {
                StallCause::IFetch => {
                    self.ifetch_stalls += 1;
                    self.buckets.ifetch_stall += cycles;
                }
                StallCause::Data => {
                    self.data_stalls += 1;
                    self.buckets.data_stall += cycles;
                }
            },
            TraceEvent::CacheEvict {
                cache,
                copyback_bytes,
                ..
            } => {
                let c = match cache {
                    CacheId::Data => &mut self.dcache,
                    CacheId::Instr => &mut self.icache,
                };
                c.evictions += 1;
                c.copyback_bytes += copyback_bytes as u64;
            }
            TraceEvent::PrefetchLate { .. } => self.prefetch_late += 1,
            TraceEvent::DramTransaction { kind, bytes, .. } => {
                let d = &mut self.dram_counts[kind as usize];
                d.transactions += 1;
                d.bytes += bytes as u64;
            }
            TraceEvent::WatchdogFired { idle, .. } => {
                // The no-progress window is reclassified out of the issue
                // bucket when the buckets are read, so the decomposition
                // stays exact.
                self.watchdog_fired += 1;
                self.buckets.watchdog_idle += idle;
            }
            TraceEvent::FaultFlip { .. } => self.fault_flips += 1,
            _ => {}
        }
    }

    /// Reads [`CounterSink::READS`]; the op table is not needed.
    fn bind(&mut self, _ops_per_instr: &[u8]) -> EventKinds {
        CounterSink::READS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MemTxKind;

    #[test]
    fn buckets_accumulate_and_conserve() {
        let mut c = CounterSink::new();
        for pc in 0..10 {
            c.event(&TraceEvent::IssueCount {
                pc,
                issues: 1,
                exec_ops: 2,
            });
        }
        // Per-instruction events are not counted, even when a fan-out
        // delivers them: the issue counts already hold them.
        c.event(&TraceEvent::InstrIssue {
            cycle: 0,
            pc: 0,
            ops: 2,
        });
        c.event(&TraceEvent::StallEnd {
            cycle: 10,
            cause: StallCause::IFetch,
            cycles: 3,
            pc: 9,
        });
        c.event(&TraceEvent::StallEnd {
            cycle: 14,
            cause: StallCause::Data,
            cycles: 4,
            pc: 9,
        });
        let b = c.buckets();
        assert_eq!(b.issue, 10);
        assert_eq!(b.ifetch_stall, 3);
        assert_eq!(b.data_stall, 4);
        assert_eq!(b.watchdog_idle, 0);
        assert_eq!(b.total(), 17);
    }

    #[test]
    fn watchdog_reclassifies_idle_cycles() {
        let mut c = CounterSink::new();
        c.event(&TraceEvent::WatchdogFired {
            cycle: 100,
            pc: 0,
            idle: 60,
        });
        // The aborted run's issues arrive when the handle drains.
        c.event(&TraceEvent::IssueCount {
            pc: 0,
            issues: 100,
            exec_ops: 0,
        });
        let b = c.buckets();
        assert_eq!(b.issue, 40);
        assert_eq!(b.watchdog_idle, 60);
        assert_eq!(b.total(), 100);
        assert_eq!(c.watchdog_fired, 1);
    }

    #[test]
    fn unit_and_slot_histograms() {
        let mut c = CounterSink::new();
        c.event(&TraceEvent::OpDispatch {
            cycle: 0,
            pc: 0,
            slot: 0,
            unit: "alu",
            mnemonic: "iadd",
            executed: true,
        });
        c.event(&TraceEvent::OpDispatch {
            cycle: 0,
            pc: 0,
            slot: 4,
            unit: "load",
            mnemonic: "ld32",
            executed: false,
        });
        assert_eq!(c.ops_dispatched(), 2);
        assert_eq!(c.ops_executed(), 1);
        let units = c.units();
        assert_eq!(units["alu"].executed, 1);
        assert_eq!(units["load"].dispatched, 1);
        assert_eq!(units["load"].executed, 0);
        assert_eq!(c.ops_per_slot[4], 1);
    }

    #[test]
    fn binds_to_the_kinds_the_model_does_not_count() {
        let mut c = CounterSink::new();
        assert_eq!(c.bind(&[4, 2]), CounterSink::READS);
        for model_counted in [
            EventKinds::CACHE_ACCESS,
            EventKinds::PREFETCH_ISSUE,
            EventKinds::BRANCH_RESOLVE,
            EventKinds::STALL_BEGIN,
        ] {
            assert!(!CounterSink::READS.intersects(model_counted));
        }
    }

    #[test]
    fn memory_counters() {
        let mut c = CounterSink::new();
        c.event(&TraceEvent::CacheEvict {
            cycle: 1.0,
            cache: CacheId::Data,
            base: 0x80,
            copyback_bytes: 64,
        });
        c.event(&TraceEvent::DramTransaction {
            cycle: 1.0,
            kind: MemTxKind::DemandFill,
            bytes: 128,
            completion: 9.0,
        });
        assert_eq!(c.dcache.evictions, 1);
        assert_eq!(c.dcache.copyback_bytes, 64);
        let dram = c.dram();
        assert_eq!(dram["demand_fill"].transactions, 1);
        assert_eq!(dram["demand_fill"].bytes, 128);
        assert!(!dram.contains_key("copyback"), "zero kinds are omitted");
    }
}
