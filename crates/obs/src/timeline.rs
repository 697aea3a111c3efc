//! [`TimelineSink`]: fixed-capacity interval time series of the run's
//! counters.
//!
//! The sink folds the event stream into one [`TimelineSample`] per
//! K-cycle interval. Capacity is fixed up front: when the series fills,
//! adjacent samples are merged pairwise and the interval width doubles,
//! so an arbitrarily long run always fits in the same storage and the
//! steady state never allocates. Every event lands in exactly one
//! sample, so interval deltas sum to the run's final counter totals
//! ([`TimelineSink::totals`]) — the timeline analogue of the
//! `StallBuckets` conservation guarantee.
//!
//! Export as JSON ([`TimelineSink::to_json`]) or as Chrome trace
//! counter rows ([`TimelineSink::chrome_rows`], `ph:"C"`) to splice
//! into a [`ChromeTraceSink`](crate::ChromeTraceSink) document.

use crate::event::{CacheId, CacheOutcome, StallCause, TraceEvent};
use crate::json;
use crate::sink::TraceSink;

/// Counter deltas accumulated over the cycle interval `[start, end)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimelineSample {
    /// First cycle of the interval (inclusive).
    pub start: u64,
    /// One past the last cycle of the interval.
    pub end: u64,
    /// Instructions issued.
    pub issue: u64,
    /// Instruction-fetch stall cycles.
    pub ifetch_stall: u64,
    /// Data-side stall cycles.
    pub data_stall: u64,
    /// Operations executed (guard true).
    pub ops_executed: u64,
    /// Data-cache hits.
    pub dcache_hits: u64,
    /// Data-cache misses.
    pub dcache_misses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Prefetch requests issued to the DRAM channel.
    pub prefetch_issued: u64,
    /// Bytes scheduled on the DRAM channel.
    pub dram_bytes: u64,
    /// Events observed in the interval. Events without a cycle stamp
    /// (per-PC issue counts a fan-out delivers, fault flips) count in
    /// the interval open when they arrive.
    pub events: u64,
}

impl TimelineSample {
    fn merge(&mut self, other: &TimelineSample) {
        self.end = other.end;
        self.issue += other.issue;
        self.ifetch_stall += other.ifetch_stall;
        self.data_stall += other.data_stall;
        self.ops_executed += other.ops_executed;
        self.dcache_hits += other.dcache_hits;
        self.dcache_misses += other.dcache_misses;
        self.icache_misses += other.icache_misses;
        self.prefetch_issued += other.prefetch_issued;
        self.dram_bytes += other.dram_bytes;
        self.events += other.events;
    }

    fn json_object(&self) -> String {
        format!(
            "{{\"start\":{},\"end\":{},\"issue\":{},\"ifetch_stall\":{},\
             \"data_stall\":{},\"ops_executed\":{},\"dcache_hits\":{},\
             \"dcache_misses\":{},\"icache_misses\":{},\"prefetch_issued\":{},\
             \"dram_bytes\":{},\"events\":{}}}",
            self.start,
            self.end,
            self.issue,
            self.ifetch_stall,
            self.data_stall,
            self.ops_executed,
            self.dcache_hits,
            self.dcache_misses,
            self.icache_misses,
            self.prefetch_issued,
            self.dram_bytes,
            self.events
        )
    }
}

/// Default sample capacity (~1 K samples ≈ 100 KB).
pub const DEFAULT_TIMELINE_CAP: usize = 1024;

/// A sink sampling all counters every K cycles into a fixed-capacity
/// series (see the module docs).
#[derive(Debug, Clone)]
pub struct TimelineSink {
    sealed: Vec<TimelineSample>,
    cap: usize,
    interval: u64,
    cur: TimelineSample,
}

impl TimelineSink {
    /// A timeline sampling every `interval` cycles (clamped to ≥1), with
    /// the default capacity.
    pub fn new(interval: u64) -> TimelineSink {
        TimelineSink::with_capacity(interval, DEFAULT_TIMELINE_CAP)
    }

    /// A timeline with an explicit sample capacity (clamped to ≥2). When
    /// the series fills, adjacent samples merge pairwise and the
    /// effective interval doubles.
    pub fn with_capacity(interval: u64, cap: usize) -> TimelineSink {
        let interval = interval.max(1);
        let cap = cap.max(2);
        TimelineSink {
            sealed: Vec::with_capacity(cap),
            cap,
            interval,
            cur: TimelineSample {
                start: 0,
                end: interval,
                ..TimelineSample::default()
            },
        }
    }

    /// The current effective sampling interval (grows by doubling when
    /// the capacity is reached; starts at the constructor argument).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Sealed samples plus the in-progress tail (if it saw any events),
    /// in time order. Intervals with no events are skipped, not stored.
    pub fn samples(&self) -> Vec<TimelineSample> {
        let mut out = self.sealed.clone();
        if self.cur.events > 0 {
            out.push(self.cur);
        }
        out
    }

    /// Sum of all samples: the run's final counter totals, spanning
    /// `[0, end-of-last-interval)`.
    pub fn totals(&self) -> TimelineSample {
        let mut total = TimelineSample::default();
        let mut first = true;
        for s in self.samples() {
            if first {
                total = s;
                total.start = 0;
                first = false;
            } else {
                total.merge(&s);
            }
        }
        total
    }

    fn seal(&mut self) {
        if self.cur.events > 0 {
            if self.sealed.len() == self.cap {
                self.compact();
            }
            self.sealed.push(self.cur);
        }
        self.cur = TimelineSample {
            start: self.cur.end,
            end: self.cur.end + self.interval,
            ..TimelineSample::default()
        };
    }

    /// Merges adjacent sample pairs in place and doubles the interval;
    /// an odd trailing sample is kept as-is.
    fn compact(&mut self) {
        let n = self.sealed.len();
        let mut w = 0;
        let mut r = 0;
        while r + 1 < n {
            let mut merged = self.sealed[r];
            let right = self.sealed[r + 1];
            merged.merge(&right);
            self.sealed[w] = merged;
            w += 1;
            r += 2;
        }
        if r < n {
            self.sealed[w] = self.sealed[r];
            w += 1;
        }
        self.sealed.truncate(w);
        self.interval *= 2;
    }

    /// Renders the series as a JSON object
    /// (`{"interval":K,"samples":[...]}`).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .samples()
            .iter()
            .map(TimelineSample::json_object)
            .collect();
        format!(
            "{{\"interval\":{},\"samples\":[{}]}}",
            self.interval,
            rows.join(",")
        )
    }

    /// Chrome `trace_event` counter rows (`ph:"C"`, tid 0): two stacked
    /// counter tracks per sample — cycle decomposition and memory
    /// behavior. Splice into a
    /// [`ChromeTraceSink`](crate::ChromeTraceSink) document via
    /// `to_json_with`.
    pub fn chrome_rows(&self) -> Vec<String> {
        let mut rows = Vec::new();
        for s in self.samples() {
            let ts = json::number(s.start as f64);
            rows.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{ts},\"name\":\"cycles\",\
                 \"args\":{{\"issue\":{},\"ifetch_stall\":{},\"data_stall\":{}}}}}",
                s.issue, s.ifetch_stall, s.data_stall
            ));
            rows.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{ts},\"name\":\"memory\",\
                 \"args\":{{\"dcache_misses\":{},\"icache_misses\":{},\"dram_bytes\":{}}}}}",
                s.dcache_misses, s.icache_misses, s.dram_bytes
            ));
        }
        rows
    }
}

impl TraceSink for TimelineSink {
    fn event(&mut self, event: &TraceEvent) {
        // Integer interval bucketing; memory events carry fractional
        // cycle stamps (exact ticks over ticks per cycle) and land in
        // the interval containing their whole cycle.
        let t = event.cycle() as u64;
        while t >= self.cur.end {
            // Seal the current interval, then jump directly to the
            // interval containing `t` (empty intervals are skipped, not
            // stored — `seal` advances one interval at a time only in
            // bookkeeping, so jump in one step here).
            self.seal();
            if t >= self.cur.end {
                let skip = (t - self.cur.start) / self.interval;
                self.cur.start += skip * self.interval;
                self.cur.end = self.cur.start + self.interval;
            }
        }
        let s = &mut self.cur;
        s.events += 1;
        match *event {
            TraceEvent::InstrIssue { .. } => s.issue += 1,
            TraceEvent::OpDispatch { executed: true, .. } => s.ops_executed += 1,
            TraceEvent::StallEnd { cause, cycles, .. } => match cause {
                StallCause::IFetch => s.ifetch_stall += cycles,
                StallCause::Data => s.data_stall += cycles,
            },
            TraceEvent::CacheAccess { cache, outcome, .. } => match (cache, outcome) {
                (CacheId::Data, CacheOutcome::Hit) => s.dcache_hits += 1,
                (CacheId::Data, CacheOutcome::Miss) => s.dcache_misses += 1,
                (CacheId::Instr, CacheOutcome::Miss) => s.icache_misses += 1,
                _ => {}
            },
            TraceEvent::PrefetchIssue { .. } => s.prefetch_issued += 1,
            TraceEvent::DramTransaction { bytes, .. } => s.dram_bytes += u64::from(bytes),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(cycle: u64) -> TraceEvent {
        TraceEvent::InstrIssue {
            cycle,
            pc: 0,
            ops: 1,
        }
    }

    #[test]
    fn samples_bucket_by_interval_and_conserve() {
        let mut t = TimelineSink::new(10);
        for c in [0u64, 3, 9, 10, 25, 99] {
            t.event(&issue(c));
        }
        let samples = t.samples();
        // Intervals [0,10) ×3, [10,20) ×1, [20,30) ×1, [90,100) ×1 —
        // empty intervals skipped.
        assert_eq!(samples.len(), 4);
        assert_eq!(
            (samples[0].start, samples[0].end, samples[0].issue),
            (0, 10, 3)
        );
        assert_eq!(
            (samples[3].start, samples[3].end, samples[3].issue),
            (90, 100, 1)
        );
        assert_eq!(t.totals().issue, 6);
        assert_eq!(t.totals().events, 6);
    }

    #[test]
    fn compaction_doubles_interval_and_preserves_totals() {
        let mut t = TimelineSink::with_capacity(1, 4);
        for c in 0..64u64 {
            t.event(&issue(c));
        }
        assert!(
            t.samples().len() <= 5,
            "capacity bounded: {}",
            t.samples().len()
        );
        assert!(t.interval() > 1, "interval doubled under pressure");
        assert_eq!(t.totals().issue, 64, "no events lost to compaction");
        // Samples stay in time order and contiguous coverage of events.
        let samples = t.samples();
        for pair in samples.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
    }

    #[test]
    fn stall_and_memory_deltas_accumulate() {
        let mut t = TimelineSink::new(100);
        t.event(&TraceEvent::StallEnd {
            cycle: 5,
            cause: StallCause::IFetch,
            cycles: 5,
            pc: 0,
        });
        t.event(&TraceEvent::StallEnd {
            cycle: 150,
            cause: StallCause::Data,
            cycles: 7,
            pc: 1,
        });
        t.event(&TraceEvent::CacheAccess {
            cycle: 150.5,
            cache: CacheId::Data,
            addr: 0,
            outcome: CacheOutcome::Miss,
            prefetch_hit: false,
            pc: 1,
        });
        t.event(&TraceEvent::DramTransaction {
            cycle: 151.0,
            kind: crate::event::MemTxKind::DemandFill,
            bytes: 128,
            completion: 160.0,
        });
        let total = t.totals();
        assert_eq!(total.ifetch_stall, 5);
        assert_eq!(total.data_stall, 7);
        assert_eq!(total.dcache_misses, 1);
        assert_eq!(total.dram_bytes, 128);
        assert_eq!(t.samples().len(), 2);
    }

    #[test]
    fn json_and_chrome_rows_are_emitted() {
        let mut t = TimelineSink::new(10);
        t.event(&issue(1));
        let json = t.to_json();
        assert!(json.starts_with("{\"interval\":10,\"samples\":["));
        assert!(json.contains("\"issue\":1"));
        let rows = t.chrome_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].contains("\"ph\":\"C\""));
    }
}
