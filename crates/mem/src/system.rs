//! The composed TM3270/TM3260 memory system: data cache with cache write
//! buffer and write-miss policy, instruction cache, region prefetch unit
//! and the shared DRAM channel (paper, §4).
//!
//! Functional data always lives in the flat backing memory; the cache
//! arrays model presence, validity and recency, which drive the timing
//! (stall cycles) and traffic (DRAM bytes) that the paper's evaluation
//! depends on.
//!
//! Timing inside the memory system is kept in exact integer ticks (see
//! the `dram` module): the pipeline hands in whole cycles, and stalls go
//! back rounded up to whole cycles.

use crate::cache::{CacheArray, CacheGeometry, CacheStats, Lookup};
use crate::dram::{Dram, DramConfig, DramStats, Priority};
use crate::prefetch::{PrefetchStats, PrefetchUnit, Region};
use tm3270_encode::snapshot::{Count, MemoryRun, Nested};
use tm3270_isa::{CacheOp, DataMemory, FlatMemory, PfParam};
use tm3270_obs::{CacheId, CacheOutcome, EventKinds, MemTxKind, SinkHandle, TraceEvent};

fn outcome_of(lookup: Lookup) -> CacheOutcome {
    match lookup {
        Lookup::Hit => CacheOutcome::Hit,
        Lookup::PartialHit => CacheOutcome::PartialHit,
        Lookup::Miss => CacheOutcome::Miss,
    }
}

/// Configuration of the complete memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Data-cache geometry.
    pub dcache: CacheGeometry,
    /// Instruction-cache geometry.
    pub icache: CacheGeometry,
    /// `true` = allocate-on-write-miss (TM3270), `false` =
    /// fetch-on-write-miss (TM3260). Paper, Table 6.
    pub allocate_on_write_miss: bool,
    /// CPU clock in MHz (240 for the TM3260, 350 for the TM3270).
    pub cpu_freq_mhz: u32,
    /// The DRAM channel.
    pub dram: DramConfig,
    /// Cache-write-buffer capacity in pending stores.
    pub cwb_entries: u32,
    /// Prefetch request-queue capacity.
    pub prefetch_queue: usize,
    /// Background-traffic backpressure: when the DRAM channel is booked
    /// further than this many CPU cycles ahead, issuing more background
    /// traffic (write-miss fetches, copy-backs) stalls the core — the
    /// finite miss/write queue of the bus interface unit.
    pub bg_backpressure_cycles: u32,
    /// Size of the flat backing memory in bytes (power of two).
    pub mem_size: usize,
    /// Strict access checking: when `true`, accesses beyond `mem_size`
    /// raise `ExecError::OutOfBoundsAccess` instead of wrapping, and
    /// non-naturally-aligned accesses raise `ExecError::MisalignedAccess`.
    /// Off by default — the TM3270 architecturally supports non-aligned
    /// accesses and a wrap-around flat address space; this is a
    /// diagnostic mode for the fault-injection harness.
    pub strict_access: bool,
}

impl MemConfig {
    /// The TM3270 memory system (Tables 1 and 6) at 350 MHz.
    pub fn tm3270() -> MemConfig {
        MemConfig {
            dcache: CacheGeometry::tm3270_dcache(),
            icache: CacheGeometry::tm3270_icache(),
            allocate_on_write_miss: true,
            cpu_freq_mhz: 350,
            dram: DramConfig::paper_default(),
            cwb_entries: 8,
            prefetch_queue: 8,
            bg_backpressure_cycles: 300,
            mem_size: 16 << 20,
            strict_access: false,
        }
    }

    /// The TM3260 memory system (Table 6) at 240 MHz.
    pub fn tm3260() -> MemConfig {
        MemConfig {
            dcache: CacheGeometry::tm3260_dcache(),
            icache: CacheGeometry::tm3260_icache(),
            allocate_on_write_miss: false,
            cpu_freq_mhz: 240,
            dram: DramConfig::paper_default(),
            cwb_entries: 8,
            prefetch_queue: 8,
            // The TM3260's older bus interface tracks far fewer
            // outstanding transfers than the TM3270's.
            bg_backpressure_cycles: 20,
            mem_size: 16 << 20,
            strict_access: false,
        }
    }
}

/// Aggregate memory-system statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand load operations.
    pub loads: u64,
    /// Demand store operations.
    pub stores: u64,
    /// Data-side stall ticks (cache misses, CWB back-pressure, prefetch
    /// waits).
    pub data_stall_ticks: u64,
    /// Stall ticks spent waiting for an in-flight prefetch (late
    /// prefetch).
    pub prefetch_wait_ticks: u64,
    /// Instruction-side stall ticks.
    pub instr_stall_ticks: u64,
    /// Instruction fetch requests.
    pub ifetches: u64,
    /// Data accesses that crossed a cache-line boundary (non-aligned,
    /// §4.2).
    pub line_crossers: u64,
}

/// The composed memory system.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemConfig,
    flat: FlatMemory,
    dcache: CacheArray,
    icache: CacheArray,
    prefetch: PrefetchUnit,
    dram: Dram,
    /// Ticks in one CPU cycle.
    cycle_ticks: u64,
    /// The BIU back-pressure window in ticks.
    backpressure: u64,
    /// Current CPU cycle, set by the pipeline before executing an
    /// instruction's operations.
    now: u64,
    /// VLIW instruction index of the requesting instruction, set by the
    /// pipeline (only when tracing) so cache-access events carry the
    /// requesting PC. Purely presentational: not snapshotted, no effect
    /// on timing.
    pc: usize,
    /// Stall ticks accumulated since `begin_instr`.
    stall: u64,
    /// Cache-write-buffer occupancy in units of `1 / cycle_ticks` of an
    /// entry: draining two entries per cycle drains two units per tick.
    cwb_pending: u64,
    /// Tick of the last cache-write-buffer update.
    cwb_last: u64,
    stats: MemStats,
    /// Trace-event sink (disabled by default; see `tm3270-obs`).
    sink: SinkHandle,
}

impl MemorySystem {
    /// Creates a memory system from a configuration.
    pub fn new(config: MemConfig) -> MemorySystem {
        MemorySystem {
            flat: FlatMemory::new(config.mem_size),
            dcache: CacheArray::new(config.dcache),
            icache: CacheArray::new(config.icache),
            prefetch: PrefetchUnit::new(config.prefetch_queue),
            dram: Dram::new(config.dram, config.cpu_freq_mhz),
            cycle_ticks: config.dram.cycle_ticks(),
            backpressure: u64::from(config.bg_backpressure_cycles) * config.dram.cycle_ticks(),
            now: 0,
            pc: 0,
            stall: 0,
            cwb_pending: 0,
            cwb_last: 0,
            stats: MemStats::default(),
            sink: SinkHandle::disabled(),
            config,
        }
    }

    /// Attaches a trace sink; memory-side events (cache accesses and
    /// evictions, prefetch activity, DRAM transactions) flow to it. Pass
    /// [`SinkHandle::disabled`] to detach.
    pub fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// The current tick: the instruction's cycle plus its stall so far.
    #[inline]
    fn t(&self) -> u64 {
        self.now * self.cycle_ticks + self.stall
    }

    /// `ticks` as the `f64` cycle stamp of a trace event: exact wherever
    /// the stamp is representable.
    fn cycle_of(&self, ticks: u64) -> f64 {
        ticks as f64 / self.cycle_ticks as f64
    }

    fn emit_evict(&self, cache: CacheId, victim: &crate::cache::Victim) {
        self.sink.emit_with(|| TraceEvent::CacheEvict {
            cycle: self.cycle_of(self.t()),
            cache,
            base: victim.base,
            copyback_bytes: victim.copyback_bytes,
        });
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Direct access to the flat backing memory (for loading workload data
    /// and inspecting results).
    pub fn flat(&self) -> &FlatMemory {
        &self.flat
    }

    /// Mutable access to the flat backing memory.
    pub fn flat_mut(&mut self) -> &mut FlatMemory {
        &mut self.flat
    }

    /// Configures a prefetch region directly (equivalent to the three
    /// `stpf*` MMIO stores).
    pub fn set_prefetch_region(&mut self, region: u8, r: Region) {
        self.prefetch.set_region(region, r);
    }

    /// Records the VLIW instruction index of the instruction about to
    /// access memory, so trace events can carry the requesting PC. The
    /// pipeline calls this only when a sink is attached; untraced runs
    /// never pay the store.
    #[inline]
    pub fn set_pc(&mut self, pc: usize) {
        self.pc = pc;
    }

    /// Whether any prefetch request is in flight on the DRAM channel.
    /// While this holds, [`begin_instr`](Self::begin_instr) must be
    /// called every instruction so completions are absorbed on the
    /// exact cycle they land; otherwise instructions without memory
    /// ops may skip the call entirely.
    #[inline]
    pub fn prefetch_in_flight(&self) -> bool {
        self.prefetch.has_in_flight()
    }

    /// Advances the memory clock without starting an instruction: the
    /// cheap substitute for [`begin_instr`](Self::begin_instr) on
    /// instructions with no memory operations (and no prefetch in
    /// flight). Nothing reads `now` before the next `begin_instr`
    /// overwrites it, but snapshots serialize it — an engine that
    /// skipped the update entirely would be distinguishable by its
    /// snapshot bytes.
    #[inline]
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// Starts timing a new instruction at CPU cycle `now`. Costs two
    /// stores and one empty-check when no prefetch is in flight (the
    /// common case: this runs once per executed instruction).
    pub fn begin_instr(&mut self, now: u64) {
        self.now = now;
        self.stall = 0;
        if self.prefetch.has_in_flight() {
            self.absorb_prefetch_completions();
        }
    }

    /// Returns and clears the stall accumulated since the last
    /// [`begin_instr`](Self::begin_instr), rounded up to whole cycles.
    pub fn take_stall(&mut self) -> u64 {
        let s = std::mem::take(&mut self.stall);
        if s == 0 {
            0
        } else {
            s.div_ceil(self.cycle_ticks)
        }
    }

    fn absorb_prefetch_completions(&mut self) {
        // Pop-style drain: no intermediate `Vec`s (the old `partition`
        // allocated two per call), same completion order.
        while let Some(base) = self.prefetch.pop_completed(self.t()) {
            if let Some(victim) = self.dcache.fill(base, true) {
                let t = self.t();
                let completion = self
                    .dram
                    .request(t, victim.copyback_bytes, Priority::Background);
                self.sink.emit_with(|| TraceEvent::CacheEvict {
                    cycle: self.cycle_of(t),
                    cache: CacheId::Data,
                    base: victim.base,
                    copyback_bytes: victim.copyback_bytes,
                });
                self.emit_dram(t, MemTxKind::Copyback, victim.copyback_bytes, completion);
            }
        }
    }

    /// Emits a `DramTransaction` booked at tick `t`, completing at tick
    /// `completion`.
    fn emit_dram(&self, t: u64, kind: MemTxKind, bytes: u32, completion: u64) {
        self.sink.emit_with(|| TraceEvent::DramTransaction {
            cycle: self.cycle_of(t),
            kind,
            bytes,
            completion: self.cycle_of(completion),
        });
    }

    /// Schedules a background transfer, stalling the core if the channel
    /// is booked too far ahead (finite BIU queue).
    fn background_request(&mut self, bytes: u32, kind: MemTxKind) {
        let t = self.t();
        let completion = self.dram.request(t, bytes, Priority::Background);
        self.emit_dram(t, kind, bytes, completion);
        let lag = self.dram.free_at() - t;
        if lag > self.backpressure {
            let wait = lag - self.backpressure;
            self.stall += wait;
            self.stats.data_stall_ticks += wait;
        }
    }

    fn issue_queued_prefetches(&mut self) {
        let line = self.config.dcache.line;
        // Prefetches are opportunistic: they are only issued while the
        // channel is not badly congested, and never stall the core.
        while self.dram.free_at() <= self.t() + self.backpressure {
            match self.prefetch.pop_request() {
                Some(base) => self.issue_prefetch(base, line),
                None => break,
            }
        }
    }

    /// Books a prefetch of the line at `base` now.
    fn issue_prefetch(&mut self, base: u32, line: u32) {
        let t = self.t();
        let completion = self.dram.request(t, line, Priority::Background);
        self.prefetch.mark_in_flight(base, completion);
        self.sink.emit_with(|| TraceEvent::PrefetchIssue {
            cycle: self.cycle_of(t),
            base,
        });
        self.emit_dram(t, MemTxKind::Prefetch, line, completion);
    }

    /// Segments `[addr, addr + len)` by cache-line boundary (ordinary
    /// accesses split into at most two segments: the paper's `addr_lo` /
    /// `addr_hi` pair, §4.2; bulk harness reads may span many lines).
    /// An iterator, not a `Vec`: segmentation runs on every load, store
    /// and instruction fetch, and must not allocate.
    fn segments(geom: CacheGeometry, addr: u32, len: u32) -> LineSegments {
        LineSegments {
            a: addr,
            remaining: len,
            line: geom.line,
        }
    }

    fn demand_fill(&mut self, base: u32, prefetched_wait: bool) {
        let t = self.t();
        // A line already being prefetched is awaited, not re-fetched.
        if let Some(completion) = self.prefetch.in_flight_completion(base) {
            if completion > t {
                let wait = completion - t;
                self.stall += wait;
                self.stats.prefetch_wait_ticks += wait;
                if prefetched_wait {
                    self.stats.data_stall_ticks += wait;
                }
                self.sink.emit_with(|| TraceEvent::PrefetchLate {
                    cycle: self.cycle_of(t),
                    base,
                    wait: self.cycle_of(wait),
                });
            }
            self.absorb_prefetch_completions();
            return;
        }
        let line = self.config.dcache.line;
        let completion = self.dram.request(t, line, Priority::Demand);
        self.emit_dram(t, MemTxKind::DemandFill, line, completion);
        let wait = completion - t;
        self.stall += wait;
        if prefetched_wait {
            self.stats.data_stall_ticks += wait;
        }
        if let Some(victim) = self.dcache.fill(base, false) {
            let cb = self
                .dram
                .request(completion, victim.copyback_bytes, Priority::Background);
            self.sink.emit_with(|| TraceEvent::CacheEvict {
                cycle: self.cycle_of(completion),
                cache: CacheId::Data,
                base: victim.base,
                copyback_bytes: victim.copyback_bytes,
            });
            self.emit_dram(completion, MemTxKind::Copyback, victim.copyback_bytes, cb);
        }
    }

    /// Whether the bound sink reads a `CacheAccess` with `lookup`'s
    /// outcome (a sink may read misses alone). Asked after the lookup,
    /// so no event is built for an outcome nobody reads.
    #[inline]
    fn wants_access(&self, lookup: Lookup) -> bool {
        self.sink
            .wants(EventKinds::cache_outcome(outcome_of(lookup)))
    }

    /// Outlined `CacheAccess` emission for the data cache — keeps the
    /// untraced demand-access path compact (the disabled path pays only
    /// the `wants()` branch at the call site).
    #[cold]
    #[inline(never)]
    fn emit_cache_access(&self, addr: u32, lookup: Lookup, prefetch_hit: bool) {
        self.sink.emit(TraceEvent::CacheAccess {
            cycle: self.cycle_of(self.t()),
            cache: CacheId::Data,
            addr,
            outcome: outcome_of(lookup),
            prefetch_hit,
            pc: self.pc,
        });
    }

    /// One line-confined segment of a demand load: lookup, optional
    /// trace emission (`tracing`: the sink reads some cache outcome),
    /// demand fill on a miss.
    #[inline]
    fn load_segment(&mut self, a: u32, n: u32, tracing: bool, geom: CacheGeometry) {
        let pf_before = if tracing {
            self.dcache.stats().prefetch_hits
        } else {
            0
        };
        let lookup = self.dcache.lookup(a, n);
        if tracing && self.wants_access(lookup) {
            let prefetch_hit = self.dcache.stats().prefetch_hits > pf_before;
            self.emit_cache_access(a, lookup, prefetch_hit);
        }
        match lookup {
            Lookup::Hit => {}
            Lookup::PartialHit | Lookup::Miss => {
                self.demand_fill(geom.line_base(a), true);
            }
        }
    }

    /// Timing for a demand load of `len` bytes at `addr`.
    fn access_load(&mut self, addr: u32, len: u32) {
        self.stats.loads += 1;
        let geom = self.config.dcache;
        let tracing = self.sink.wants(EventKinds::CACHE_ACCESS);
        for (seg, (a, n)) in Self::segments(geom, addr, len).enumerate() {
            if seg == 1 {
                self.stats.line_crossers += 1;
            }
            self.load_segment(a, n, tracing, geom);
        }
        // Region prefetch observation (§2.3): triggered by the load
        // address. With no active region the observation can't match
        // (and records nothing), and with an empty queue the issue loop
        // is a no-op — skip both so kernels that never configure
        // prefetching don't pay per load.
        if self.prefetch.any_region_active() {
            let dcache = &self.dcache;
            let line = geom.line;
            let _ = self
                .prefetch
                .observe_load(addr, line, |base| dcache.contains(base));
        }
        if self.prefetch.has_queued() {
            self.issue_queued_prefetches();
        }
    }

    /// One line-confined segment of a demand store: the fused
    /// lookup+write (one tag search) on a present line; a miss writes
    /// explicitly after the allocate/fill below.
    #[inline]
    fn store_segment(&mut self, a: u32, n: u32, tracing: bool, geom: CacheGeometry) {
        let lookup = self.dcache.lookup_write(a, n);
        if tracing && self.wants_access(lookup) {
            self.emit_cache_access(a, lookup, false);
        }
        if lookup != Lookup::Miss {
            return;
        }
        if self.config.allocate_on_write_miss {
            // Tag-only allocation: no fetch, no stall (§4.1).
            if let Some(victim) = self.dcache.allocate(geom.line_base(a)) {
                self.emit_evict(CacheId::Data, &victim);
                self.background_request(victim.copyback_bytes, MemTxKind::Copyback);
            }
        } else {
            // Fetch-on-write-miss: the line is read from memory. The
            // write buffer lets the store retire without waiting for the
            // data, so the fetch is background traffic — its cost is the
            // DRAM bandwidth it consumes (back-pressure when the BIU
            // queue fills).
            self.background_request(geom.line, MemTxKind::WriteFetch);
            if let Some(victim) = self.dcache.fill(geom.line_base(a), false) {
                self.emit_evict(CacheId::Data, &victim);
                self.background_request(victim.copyback_bytes, MemTxKind::Copyback);
            }
        }
        self.dcache.write(a, n);
    }

    /// Timing for a demand store of `len` bytes at `addr`.
    fn access_store(&mut self, addr: u32, len: u32) {
        self.stats.stores += 1;
        let geom = self.config.dcache;
        let tracing = self.sink.wants(EventKinds::CACHE_ACCESS);
        for (seg, (a, n)) in Self::segments(geom, addr, len).enumerate() {
            if seg == 1 {
                self.stats.line_crossers += 1;
            }
            self.store_segment(a, n, tracing, geom);
        }
        // Cache write buffer: drains up to two pending stores per cycle
        // (the 128-bit bit-write SRAM port absorbs merged stores, §4.2);
        // back-pressure stalls the pipeline.
        // An exec-error retry restarts the instruction at an earlier
        // tick than the buffer's last update, hence the saturation.
        let t = self.t();
        let drained = t.saturating_sub(self.cwb_last).saturating_mul(2);
        self.cwb_pending = self.cwb_pending.saturating_sub(drained);
        self.cwb_last = t;
        let entry = self.cycle_ticks;
        if self.cwb_pending >= u64::from(self.config.cwb_entries) * entry {
            self.stall += entry;
            self.stats.data_stall_ticks += entry;
            self.cwb_pending -= entry;
        }
        self.cwb_pending += entry;
    }

    /// One line-confined segment of an instruction fetch at tick `t`.
    /// Returns the stall ticks this segment adds.
    #[inline]
    fn fetch_segment(&mut self, t: u64, a: u32, n: u32, geom: CacheGeometry) -> u64 {
        let lookup = self.icache.lookup(a, n);
        if self.sink.wants(EventKinds::CACHE_ACCESS) && self.wants_access(lookup) {
            self.sink.emit(TraceEvent::CacheAccess {
                cycle: self.cycle_of(t),
                cache: CacheId::Instr,
                addr: a,
                outcome: outcome_of(lookup),
                prefetch_hit: false,
                pc: self.pc,
            });
        }
        if lookup == Lookup::Hit {
            return 0;
        }
        let completion = self.dram.request(t, geom.line, Priority::Demand);
        self.emit_dram(t, MemTxKind::IFetch, geom.line, completion);
        if let Some(victim) = self.icache.fill(geom.line_base(a), false) {
            self.sink.emit_with(|| TraceEvent::CacheEvict {
                cycle: self.cycle_of(t),
                cache: CacheId::Instr,
                base: victim.base,
                copyback_bytes: victim.copyback_bytes,
            });
        }
        completion - t
    }

    /// Timing for an instruction fetch of `len` bytes at `addr` in cycle
    /// `now`. Returns the stall cycles (not accumulated into the
    /// data-side stall).
    pub fn fetch_instr(&mut self, now: u64, addr: u32, len: u32) -> u64 {
        self.stats.ifetches += 1;
        let geom = self.config.icache;
        let len = len.max(1);
        let now = now * self.cycle_ticks;
        let mut stall = 0;
        for (a, n) in Self::segments(geom, addr, len) {
            stall += self.fetch_segment(now + stall, a, n, geom);
        }
        self.stats.instr_stall_ticks += stall;
        if stall == 0 {
            0
        } else {
            stall.div_ceil(self.cycle_ticks)
        }
    }

    /// A point-in-time snapshot of all statistics.
    pub fn stats(&self) -> FullStats {
        FullStats {
            cycle_ticks: self.cycle_ticks,
            mem: self.stats,
            dcache: self.dcache.stats(),
            icache: self.icache.stats(),
            prefetch: self.prefetch.stats(),
            dram: self.dram.stats(),
        }
    }
}

// The flat memory is trailing-zero trimmed, which keeps snapshots of the
// default 16 MB address space proportional to the touched footprint. The
// trace sink, the requesting pc, the configuration and the tick rates
// that follow from it are not state. `now` is in whole cycles; `stall`,
// `cwb_last` and every other time below it are in ticks.
tm3270_encode::snapshot_table! {
    impl MemorySystem |m| {
        flat: MemoryRun,
        now: Count,
        stall: Count,
        cwb_pending: Count,
        cwb_last: Count,
        stats: Nested,
        dcache: Nested,
        icache: Nested,
        prefetch: Nested,
        dram: Nested,
    }
}

tm3270_encode::snapshot_table! {
    impl MemStats |s| {
        loads: Count,
        stores: Count,
        data_stall_ticks: Count,
        prefetch_wait_ticks: Count,
        instr_stall_ticks: Count,
        ifetches: Count,
        line_crossers: Count,
    }
}

// The tick rate is configuration and stays as built.
tm3270_encode::snapshot_table! {
    impl FullStats |s| {
        mem: Nested,
        dcache: Nested,
        icache: Nested,
        prefetch: Nested,
        dram: Nested,
    }
}

/// Snapshot of every statistic the memory system tracks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullStats {
    /// Ticks in one CPU cycle: the unit of every `_ticks` statistic.
    pub cycle_ticks: u64,
    /// Top-level counters and stall breakdown.
    pub mem: MemStats,
    /// Data-cache array statistics.
    pub dcache: CacheStats,
    /// Instruction-cache array statistics.
    pub icache: CacheStats,
    /// Prefetch-unit statistics.
    pub prefetch: PrefetchStats,
    /// DRAM channel statistics.
    pub dram: DramStats,
}

impl FullStats {
    /// `ticks` in CPU cycles, for reports: exact wherever the quotient
    /// is representable.
    pub fn cycles(&self, ticks: u64) -> f64 {
        ticks as f64 / self.cycle_ticks as f64
    }
}

/// Allocation-free iterator over the line-bounded segments of a byte
/// range (see [`MemorySystem::segments`]). Addresses wrap
/// architecturally at 2^32.
#[derive(Debug, Clone, Copy)]
struct LineSegments {
    a: u32,
    remaining: u32,
    line: u32,
}

impl Iterator for LineSegments {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.remaining == 0 {
            return None;
        }
        let base = self.a & !(self.line - 1);
        let line_end = base.wrapping_add(self.line);
        let n = self.remaining.min(line_end.wrapping_sub(self.a));
        let seg = (self.a, n);
        self.a = self.a.wrapping_add(n);
        self.remaining -= n;
        Some(seg)
    }
}

impl DataMemory for MemorySystem {
    fn load_bytes(&mut self, addr: u32, buf: &mut [u8]) {
        self.access_load(addr, buf.len() as u32);
        self.flat.read_into(addr, buf);
    }

    fn store_bytes(&mut self, addr: u32, data: &[u8]) {
        self.access_store(addr, data.len() as u32);
        self.flat.write_from(addr, data);
    }

    fn load_le(&mut self, addr: u32, bytes: usize) -> u32 {
        self.access_load(addr, bytes as u32);
        match bytes {
            1 => u32::from(self.flat.read_fixed::<1>(addr)[0]),
            2 => u32::from(u16::from_le_bytes(self.flat.read_fixed::<2>(addr))),
            4 => u32::from_le_bytes(self.flat.read_fixed::<4>(addr)),
            _ => {
                let mut buf = [0u8; 4];
                self.flat.read_into(addr, &mut buf[..bytes]);
                u32::from_le_bytes(buf)
            }
        }
    }

    fn store_le(&mut self, addr: u32, bytes: usize, value: u32) {
        self.access_store(addr, bytes as u32);
        let buf = value.to_le_bytes();
        match bytes {
            1 => self.flat.write_fixed::<1>(addr, [buf[0]]),
            2 => self.flat.write_fixed::<2>(addr, [buf[0], buf[1]]),
            4 => self.flat.write_fixed::<4>(addr, buf),
            _ => self.flat.write_from(addr, &buf[..bytes]),
        }
    }

    fn check_access(&self, addr: u32, size: u32) -> Result<(), tm3270_isa::ExecError> {
        if !self.config.strict_access {
            return Ok(());
        }
        if u64::from(addr) + u64::from(size) > self.config.mem_size as u64 {
            return Err(tm3270_isa::ExecError::OutOfBoundsAccess { addr, size });
        }
        tm3270_isa::check_alignment(addr, size)
    }

    fn cache_op(&mut self, op: CacheOp, addr: u32) {
        let geom = self.config.dcache;
        let base = geom.line_base(addr);
        let t = self.t();
        match op {
            CacheOp::Allocate => {
                if let Some(victim) = self.dcache.allocate(base) {
                    let completion =
                        self.dram
                            .request(t, victim.copyback_bytes, Priority::Background);
                    self.emit_evict(CacheId::Data, &victim);
                    self.emit_dram(t, MemTxKind::Copyback, victim.copyback_bytes, completion);
                }
            }
            CacheOp::Prefetch => {
                if !self.dcache.contains(base) && self.prefetch.in_flight_completion(base).is_none()
                {
                    self.issue_prefetch(base, geom.line);
                }
            }
            CacheOp::Invalidate => {
                self.dcache.invalidate(base);
            }
            CacheOp::Flush => {
                let bytes = self.dcache.flush(base);
                if bytes > 0 {
                    let completion = self.dram.request(t, bytes, Priority::Background);
                    self.emit_dram(t, MemTxKind::CacheControl, bytes, completion);
                }
            }
        }
    }

    fn write_pf_param(&mut self, param: PfParam, region: u8, value: u32) {
        self.prefetch.write_param(param, region, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> MemorySystem {
        let mut cfg = MemConfig::tm3270();
        cfg.mem_size = 1 << 20;
        MemorySystem::new(cfg)
    }

    fn tm3260_system() -> MemorySystem {
        let mut cfg = MemConfig::tm3260();
        cfg.mem_size = 1 << 20;
        MemorySystem::new(cfg)
    }

    #[test]
    fn memset_store_stream_charges_no_phantom_stall() {
        // memset's store stream on config A's memory system: two 4-byte
        // stores per instruction, fetch-on-write-miss, so every new line
        // books 64 bytes (9.6 cycles) of background traffic behind the
        // 20-cycle BIU window. At instruction 272 the exact stall is one
        // cycle; summed as `f64` cycles it came to 1.0000000000001137
        // and was charged as two.
        let mut m = tm3260_system();
        let (mut now, mut addr) = (0u64, 0x20_0000u32);
        for i in 0..=272 {
            m.begin_instr(now);
            for _ in 0..2 {
                m.store_bytes(addr, &[0; 4]);
                addr += 4;
            }
            let stall = m.take_stall();
            if i == 272 {
                assert_eq!((now, stall), (315, 1));
            }
            now += 1 + stall;
        }
    }

    #[test]
    fn load_miss_stalls_then_hits() {
        let mut m = system();
        m.begin_instr(0);
        let mut buf = [0u8; 4];
        m.load_bytes(0x1000, &mut buf);
        let s1 = m.take_stall();
        assert!(s1 > 0, "cold miss must stall");
        m.begin_instr(100_000);
        m.load_bytes(0x1004, &mut buf);
        assert_eq!(m.take_stall(), 0, "same line now hits");
    }

    #[test]
    fn functional_data_round_trips() {
        let mut m = system();
        m.begin_instr(0);
        m.store_bytes(0x2000, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.load_bytes(0x2000, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn allocate_on_write_miss_is_free_and_traffic_less() {
        let mut m = system();
        m.begin_instr(0);
        m.store_bytes(0x3000, &[9; 4]);
        assert_eq!(m.take_stall(), 0, "allocate-on-write-miss has no stall");
        assert_eq!(m.stats().dram.bytes, 0, "no fetch traffic");
        assert_eq!(m.stats().dcache.allocations, 1);
    }

    #[test]
    fn fetch_on_write_miss_generates_fetch_traffic() {
        let mut m = tm3260_system();
        m.begin_instr(0);
        m.store_bytes(0x3000, &[9; 4]);
        // The write buffer hides the fetch latency of a single store...
        assert_eq!(m.take_stall(), 0);
        // ...but the line is fetched from memory (extra traffic vs the
        // TM3270's allocate-on-write-miss).
        assert!(m.stats().dram.bytes >= 64, "line fetched from memory");
    }

    #[test]
    fn sustained_write_misses_backpressure_via_bandwidth() {
        // A long streak of store misses under fetch-on-write-miss becomes
        // bandwidth bound: the BIU queue fills and the core stalls.
        let mut m = tm3260_system();
        let mut cycle = 0u64;
        let mut total_stall = 0u64;
        for i in 0..512u32 {
            m.begin_instr(cycle);
            m.store_bytes(0x8000 + i * 64, &[1; 4]);
            let s = m.take_stall();
            total_stall += s;
            cycle += 1 + s;
        }
        assert!(
            total_stall > 1000,
            "sustained fetch-on-write misses must stall, got {total_stall}"
        );
    }

    #[test]
    fn partial_line_load_after_allocation_refills() {
        let mut m = system();
        m.begin_instr(0);
        m.store_bytes(0x4000, &[1; 4]);
        m.take_stall();
        m.begin_instr(10);
        // Load untouched bytes of the allocated line: byte-validity forces
        // a refill (§4.2: hit-signal generation checks validity).
        let mut buf = [0u8; 4];
        m.load_bytes(0x4010, &mut buf);
        assert!(m.take_stall() > 0);
        let s = m.stats();
        assert!(s.dcache.partial_hits >= 1);
        assert_eq!(
            s.dcache.refill_merges, 1,
            "the demand refill merged into the allocated line"
        );
        assert_eq!(s.dcache.fills, 0, "merge is counted separately from fills");
    }

    #[test]
    fn non_aligned_access_crossing_lines_counts_two_misses() {
        let mut m = system();
        m.begin_instr(0);
        let mut buf = [0u8; 4];
        // 128-byte lines: 0x107e..0x1082 crosses a boundary.
        m.load_bytes(0x107e, &mut buf);
        assert_eq!(m.stats().mem.line_crossers, 1);
        assert_eq!(m.stats().dcache.misses, 2, "both lines miss (§4.2)");
    }

    #[test]
    fn copyback_transfers_only_valid_bytes() {
        let mut m = system();
        let geom = m.config().dcache;
        // Dirty one line via allocation, writing only 8 bytes.
        m.begin_instr(0);
        m.store_bytes(0x5000, &[7; 8]);
        let baseline = m.stats().dram.bytes;
        // Force eviction of set containing 0x5000 by touching `ways` more
        // lines mapping to the same set.
        let set_stride = geom.line * geom.sets();
        for w in 1..=geom.ways {
            m.begin_instr(1000 * u64::from(w));
            let mut buf = [0u8; 4];
            m.load_bytes(0x5000 + w * set_stride, &mut buf);
        }
        let s = m.stats();
        assert_eq!(s.dcache.copyback_bytes, 8, "only the 8 valid bytes move");
        assert!(s.dram.bytes > baseline);
    }

    #[test]
    fn prefetch_region_hides_future_misses() {
        // Stream through a region with next-line prefetch and verify the
        // second half of the lines are prefetch hits.
        let mut m = system();
        m.set_prefetch_region(
            0,
            Region {
                start: 0x10000,
                end: 0x20000,
                stride: 128,
            },
        );
        let mut cycle = 0u64;
        for i in 0..64u32 {
            m.begin_instr(cycle);
            let mut buf = [0u8; 4];
            m.load_bytes(0x10000 + i * 128, &mut buf);
            // Generous compute time between lines lets prefetches land.
            cycle += 200 + m.take_stall();
        }
        let s = m.stats();
        assert!(
            s.prefetch.issued > 30,
            "prefetches issued: {:?}",
            s.prefetch
        );
        assert!(
            s.dcache.prefetch_hits > 30,
            "prefetched lines are consumed: {:?}",
            s.dcache
        );
        // Almost all demand misses were avoided (first line must miss).
        assert!(
            s.dcache.misses < 15,
            "prefetching removed demand misses: {:?}",
            s.dcache
        );
    }

    #[test]
    fn software_prefetch_op_warms_cache() {
        let mut m = system();
        m.begin_instr(0);
        m.cache_op(CacheOp::Prefetch, 0x7000);
        // Wait long enough for the prefetch to land.
        m.begin_instr(10_000);
        let mut buf = [0u8; 4];
        m.load_bytes(0x7000, &mut buf);
        assert_eq!(m.take_stall(), 0, "prefd warmed the line");
    }

    #[test]
    fn instruction_fetch_misses_then_hits() {
        let mut m = system();
        let s1 = m.fetch_instr(0, 0x100, 16);
        assert!(s1 > 0);
        let s2 = m.fetch_instr(1000, 0x110, 16);
        assert_eq!(s2, 0);
        assert_eq!(m.stats().mem.ifetches, 2);
    }

    #[test]
    fn cwb_backpressure_on_store_bursts() {
        let mut m = system();
        // Warm the line so stores are pure CWB traffic.
        m.begin_instr(0);
        m.store_bytes(0x8000, &[0; 1]);
        m.take_stall();
        // Two stores per cycle sustained is fine; force > 2/cycle by
        // issuing many stores in the same instruction window.
        m.begin_instr(100);
        for i in 0..64 {
            m.store_bytes(0x8000 + i, &[1]);
        }
        assert!(m.take_stall() > 0, "CWB fills up and back-pressures");
    }

    #[test]
    fn dflush_writes_back_dirty_bytes() {
        let mut m = system();
        m.begin_instr(0);
        m.store_bytes(0x9000, &[1; 16]);
        let before = m.stats().dram.bytes;
        m.cache_op(CacheOp::Flush, 0x9000);
        assert_eq!(m.stats().dram.bytes - before, 16);
        // Line is gone: next load misses.
        m.begin_instr(10_000);
        let mut buf = [0u8; 4];
        m.load_bytes(0x9000, &mut buf);
        assert!(m.take_stall() > 0);
        assert_eq!(buf, [1; 4], "flat memory kept the data");
    }
}
