//! The `repro_profile` profiler: runs a repro workload with the
//! observability sinks attached and renders stall attribution,
//! utilization histograms and (optionally) a Chrome `trace_event`
//! timeline.
//!
//! The profiler reuses the same [`Kernel`] entry points as the
//! experiment drivers, so a profiled run executes exactly the workload
//! the tables and figures report — built for the target machine,
//! self-verified against the golden reference. The only difference is an
//! attached [`CounterSink`] (and, on request, a
//! [`ChromeTraceSink`]).
//!
//! Counts the model keeps (cycles, operations, branches, stall totals,
//! cache hits and misses, prefetches, DRAM totals) are read from
//! [`Profile::stats`] through the [`tm3270_core::counters`] table; the
//! sinks add only what needs events: stall buckets, slot and unit
//! dispatch, evictions, late prefetches, per-kind DRAM traffic, per-PC
//! attribution and the interval timeline.
//!
//! The central invariant is *cycle conservation*: for every profiled
//! run, the [`StallBuckets`](tm3270_obs::StallBuckets) decomposition
//! satisfies `issue + ifetch_stall + data_stall + watchdog_idle ==
//! RunStats.cycles` exactly. [`Profile::check_conservation`] enforces
//! it, and that the sinks' event-derived totals match the model's
//! counts; the `repro_profile` binary refuses to report a run that
//! violates either.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::experiments::table3_scale;
use tm3270_core::counters::{self, *};
use tm3270_core::{Machine, MachineConfig, RunOptions, RunStats};
use tm3270_kernels::{Kernel, KernelError, Workload};
use tm3270_obs::{
    json, BlockProfile, ChromeTraceSink, CounterSink, FanoutSink, PcProfile, ProfileSink,
    SinkHandle, TimelineSink, SLOTS,
};

/// Every profileable workload: the eleven Table 5 evaluation kernels
/// (the "golden kernels") followed by the §6 experiment workloads
/// (CABAC, motion estimation, block filtering, up-conversion, the MP3
/// power proxy) — the [`tm3270_kernels::registry`] at the session's
/// Table 3 scale.
pub fn workloads() -> Vec<Box<dyn Kernel>> {
    tm3270_kernels::registry(table3_scale())
        .into_iter()
        .map(Workload::into_kernel)
        .collect()
}

/// The Table 5 golden-kernel names (the default `repro_profile` set).
pub fn golden_names() -> Vec<&'static str> {
    tm3270_kernels::golden_names()
}

/// Looks up a workload by its registry name.
pub fn find_workload(name: &str) -> Option<Box<dyn Kernel>> {
    tm3270_kernels::find_workload(table3_scale(), name).map(Workload::into_kernel)
}

/// What to record during a profiled run, beyond the always-on
/// [`CounterSink`].
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Record a Chrome `trace_event` timeline (buffers every event).
    pub chrome: bool,
    /// Record per-PC hot-spot attribution (a [`ProfileSink`]).
    pub hotspots: bool,
    /// Blocks shown in the top-N hot-spot report.
    pub top: usize,
    /// Record an interval timeline sampling all counters every K cycles.
    pub timeline: Option<u64>,
}

impl Default for ProfileOptions {
    fn default() -> ProfileOptions {
        ProfileOptions {
            chrome: false,
            hotspots: false,
            top: 10,
            timeline: None,
        }
    }
}

/// Per-PC hot-spot attribution of one run, summed over the program's
/// block spans (`tm3270_encode::superblocks`).
#[derive(Debug, Clone)]
pub struct HotspotReport {
    /// Every block with recorded activity, hottest first (ties by start
    /// PC).
    pub blocks: Vec<BlockProfile>,
    /// Blocks shown in reports (`blocks` is not truncated — the full
    /// set is needed for the conservation check).
    pub top: usize,
    /// Σ cycles over every PC; equals `RunStats.cycles` exactly.
    pub total_cycles: u64,
    /// Idle cycles reported by the watchdog (0 for completed runs).
    pub watchdog_idle: u64,
    /// PC at which the watchdog fired, if it did.
    pub watchdog_pc: Option<usize>,
}

/// The result of one profiled run: the simulator's own statistics plus
/// the counts only the event stream gives, which the conservation check
/// holds against each other.
#[derive(Debug)]
pub struct Profile {
    /// Workload registry name.
    pub workload: &'static str,
    /// Machine-configuration name.
    pub config_name: &'static str,
    /// The simulator's run statistics.
    pub stats: RunStats,
    /// The event-derived counters (a snapshot of the attached sink):
    /// stall buckets, slot and unit dispatch, evictions, late
    /// prefetches and per-kind DRAM traffic.
    pub counters: CounterSink,
    /// Per-PC hot-spot attribution, when requested.
    pub hotspots: Option<HotspotReport>,
    /// Interval timeline (the sink itself: samples, totals, exporters),
    /// when requested.
    pub timeline: Option<TimelineSink>,
    /// Chrome `trace_event` JSON, when requested. Includes the timeline
    /// counter track when both were recorded.
    pub chrome_trace: Option<String>,
}

/// Builds, traces, runs and verifies `kernel` on `config`, recording
/// everything `opts` asks for.
///
/// # Errors
///
/// See [`KernelError`]; a profiled run is held to the same verification
/// standard as an untraced one.
pub fn profile_kernel_with(
    kernel: &dyn Kernel,
    config: &MachineConfig,
    opts: &ProfileOptions,
) -> Result<Profile, KernelError> {
    let program = kernel.build(&config.issue)?;
    let mut machine = Machine::new(config.clone(), program)?;
    let program_len = machine.program().instrs.len();
    let spans: Vec<_> = tm3270_encode::superblocks(machine.program())
        .iter()
        .map(|b| b.head..b.end)
        .collect();

    let counters = Rc::new(RefCell::new(CounterSink::new()));
    let profile_sink = opts
        .hotspots
        .then(|| Rc::new(RefCell::new(ProfileSink::new(program_len))));
    let timeline_sink = opts
        .timeline
        .map(|k| Rc::new(RefCell::new(TimelineSink::new(k))));
    let chrome_sink = opts
        .chrome
        .then(|| Rc::new(RefCell::new(ChromeTraceSink::new())));

    let handle = if !opts.hotspots && opts.timeline.is_none() && !opts.chrome {
        SinkHandle::from(counters.clone())
    } else {
        let mut fan = FanoutSink::new();
        fan.push(counters.clone());
        if let Some(ps) = &profile_sink {
            fan.push(ps.clone());
        }
        if let Some(ts) = &timeline_sink {
            fan.push(ts.clone());
        }
        if let Some(cs) = &chrome_sink {
            fan.push(cs.clone());
        }
        SinkHandle::from(Rc::new(RefCell::new(fan)))
    };
    machine.attach_sink(handle);

    kernel.setup(&mut machine);
    let stats = machine
        .run_with(RunOptions::budget(kernel.cycle_budget()))
        .into_result()?;
    kernel.verify(&machine).map_err(KernelError::Verify)?;

    let timeline = timeline_sink.map(|ts| ts.borrow().clone());
    let chrome_trace = chrome_sink.map(|cs| match &timeline {
        Some(tl) => cs.borrow().to_json_with(&tl.chrome_rows()),
        None => cs.borrow().to_json(),
    });
    let hotspots = profile_sink.map(|ps| {
        let ps = ps.borrow();
        HotspotReport {
            blocks: ps.hotspots(&spans, usize::MAX),
            top: opts.top,
            total_cycles: ps.total_cycles(),
            watchdog_idle: ps.watchdog_idle(),
            watchdog_pc: ps.watchdog_pc(),
        }
    });
    let counters = counters.borrow().clone();
    Ok(Profile {
        workload: kernel.name(),
        config_name: config.name,
        stats,
        counters,
        hotspots,
        timeline,
        chrome_trace,
    })
}

impl Profile {
    /// Checks cycle conservation: the stall buckets must decompose
    /// `RunStats.cycles` exactly, and every total the sinks derive from
    /// events must equal the model's own count — the counter sink's
    /// issue, stall, op and DRAM counts, the hot-spot per-PC cycles and
    /// cache misses, and every timeline total.
    ///
    /// # Errors
    ///
    /// Returns a description of the first discrepancy.
    pub fn check_conservation(&self) -> Result<(), String> {
        let b = self.counters.buckets();
        let st = &self.stats;
        let mem = &st.mem;
        let (dram_transfers, dram_bytes) = (self.counters.dram().values())
            .fold((0, 0), |(t, n), d| (t + d.transactions, n + d.bytes));
        let mut checks = vec![
            ("stall-bucket total", b.total(), st.cycles),
            ("traced issue", b.issue + b.watchdog_idle, st.instrs),
            ("traced ifetch", b.ifetch_stall, st.ifetch_stall_cycles),
            ("traced data", b.data_stall, st.data_stall_cycles),
            ("traced ops", self.counters.ops_dispatched(), st.ops),
            ("traced exec_ops", self.counters.ops_executed(), st.exec_ops),
            ("counter dram transfers", dram_transfers, mem.dram.transfers),
            ("counter dram bytes", dram_bytes, mem.dram.bytes),
        ];
        if let Some(hs) = &self.hotspots {
            let sum = |f: fn(&PcProfile) -> u64| hs.blocks.iter().map(|b| f(&b.profile)).sum();
            checks.extend([
                ("hot-spot per-PC cycles", hs.total_cycles, st.cycles),
                ("hot-spot block cycles", sum(PcProfile::cycles), st.cycles),
                (
                    "hot-spot dcache misses",
                    sum(|p| p.dcache_misses),
                    mem.dcache.misses,
                ),
                (
                    "hot-spot icache misses",
                    sum(|p| p.icache_misses),
                    mem.icache.misses,
                ),
            ]);
        }
        if let Some(tl) = &self.timeline {
            let t = tl.totals();
            checks.extend([
                ("timeline issue", t.issue, b.issue + b.watchdog_idle),
                ("timeline ifetch_stall", t.ifetch_stall, b.ifetch_stall),
                ("timeline data_stall", t.data_stall, b.data_stall),
                ("timeline ops_executed", t.ops_executed, st.exec_ops),
                ("timeline dcache_hits", t.dcache_hits, mem.dcache.hits),
                ("timeline dcache_misses", t.dcache_misses, mem.dcache.misses),
                ("timeline icache_misses", t.icache_misses, mem.icache.misses),
                (
                    "timeline prefetch_issued",
                    t.prefetch_issued,
                    mem.prefetch.issued,
                ),
                ("timeline dram_bytes", t.dram_bytes, mem.dram.bytes),
                ("timeline events", t.events, self.counters.events),
            ]);
        }
        for (what, derived, expected) in checks {
            if derived != expected {
                return Err(format!("{}: {what} {derived} != {expected}", self.workload));
            }
        }
        Ok(())
    }

    /// Formats the human-readable profile report: the model's counters
    /// ([`RunStats::report`]), then the counts that come from events.
    pub fn report(&self) -> String {
        let b = self.counters.buckets();
        let total = b.total().max(1) as f64;
        let pct = |n: u64| 100.0 * n as f64 / total;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "=== profile: {} on {} ===",
            self.workload, self.config_name
        );
        s.push_str(&self.stats.report());
        let _ = writeln!(s, "stall attribution ({} cycles):", b.total());
        let rows = [
            ("issue", b.issue),
            ("ifetch stall", b.ifetch_stall),
            ("data stall", b.data_stall),
            ("watchdog idle", b.watchdog_idle),
        ];
        for (name, cycles) in rows {
            let _ = writeln!(s, "  {name:<14} {cycles:>12}  {:>5.1}%", pct(cycles));
        }
        let _ = writeln!(
            s,
            "slot utilization ({} ops dispatched, {} executed):",
            self.counters.ops_dispatched(),
            self.counters.ops_executed()
        );
        for slot in 0..SLOTS {
            let _ = writeln!(
                s,
                "  slot {}  {:>12} dispatched  {:>12} executed",
                slot + 1,
                self.counters.ops_per_slot[slot],
                self.counters.executed_per_slot[slot]
            );
        }
        let _ = writeln!(s, "functional units:");
        for (unit, u) in self.counters.units() {
            let _ = writeln!(
                s,
                "  {unit:<12} {:>12} dispatched  {:>12} executed",
                u.dispatched, u.executed
            );
        }
        for (name, c) in [
            ("dcache", &self.counters.dcache),
            ("icache", &self.counters.icache),
        ] {
            let _ = writeln!(
                s,
                "{name} evictions: {} ({} B copied back)",
                c.evictions, c.copyback_bytes
            );
        }
        if self.counters.prefetch_late > 0 {
            let _ = writeln!(s, "prefetch: {} late", self.counters.prefetch_late);
        }
        for (kind, dc) in self.counters.dram() {
            let _ = writeln!(
                s,
                "dram {kind:<13} {:>8} transactions  {:>10} bytes",
                dc.transactions, dc.bytes
            );
        }
        if let Some(hs) = &self.hotspots {
            let shown = hs.top.min(hs.blocks.len());
            let _ = writeln!(
                s,
                "hot spots (top {shown} of {} blocks, {} attributed cycles):",
                hs.blocks.len(),
                hs.total_cycles
            );
            let _ = writeln!(
                s,
                "  {:<13} {:>10} {:>6}  {:>10} {:>10} {:>10} {:>10}",
                "pc range", "cycles", "%", "issue", "ifetch", "data", "ops"
            );
            for blk in hs.blocks.iter().take(shown) {
                let p = &blk.profile;
                let range = format!("[{:>4}..{:>4})", blk.start, blk.end);
                let _ = writeln!(
                    s,
                    "  {range:<13} {:>10} {:>5.1}%  {:>10} {:>10} {:>10} {:>10}",
                    p.cycles(),
                    pct(p.cycles()),
                    p.issue,
                    p.ifetch_stall,
                    p.data_stall,
                    p.ops
                );
            }
            if let Some(pc) = hs.watchdog_pc {
                let _ = writeln!(
                    s,
                    "  watchdog fired at pc {pc} ({} idle cycles)",
                    hs.watchdog_idle
                );
            }
        }
        if let Some(tl) = &self.timeline {
            let samples = tl.samples();
            let _ = writeln!(
                s,
                "timeline: {} samples at interval {} (peak data stall {} cycles/interval)",
                samples.len(),
                tl.interval(),
                samples.iter().map(|sm| sm.data_stall).max().unwrap_or(0)
            );
        }
        s
    }

    /// Renders the profile as a single JSON object (hand-rolled; the
    /// repo carries no serialization dependency).
    pub fn to_json(&self) -> String {
        let b = self.counters.buckets();
        let slots = |xs: &[u64; SLOTS]| {
            xs.iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let st = &self.stats;
        let mut s = format!(
            "{{\"workload\":{},\"config\":{},{},",
            json::string(self.workload),
            json::string(self.config_name),
            counters::json_fields(st, &[CYCLES, INSTRS, CPI, OPI])
        );
        let _ = write!(
            s,
            "\"buckets\":{{\"issue\":{},\"ifetch_stall\":{},\"data_stall\":{},\
             \"watchdog_idle\":{},\"total\":{}}},",
            b.issue,
            b.ifetch_stall,
            b.data_stall,
            b.watchdog_idle,
            b.total()
        );
        let _ = write!(
            s,
            "\"ops_per_slot\":[{}],\"executed_per_slot\":[{}],",
            slots(&self.counters.ops_per_slot),
            slots(&self.counters.executed_per_slot)
        );
        let units: Vec<String> = self
            .counters
            .units()
            .iter()
            .map(|(unit, u)| {
                format!(
                    "{}:{{\"dispatched\":{},\"executed\":{}}}",
                    json::string(unit),
                    u.dispatched,
                    u.executed
                )
            })
            .collect();
        let _ = write!(s, "\"units\":{{{}}},", units.join(","));
        // Evictions and their copyback bytes come from events; the rest
        // are the model's counts.
        for (name, head, tail, c) in [
            (
                "dcache",
                [DCACHE_HITS, DCACHE_PARTIAL_HITS, DCACHE_MISSES],
                [DCACHE_PREFETCH_HITS, DCACHE_REFILL_MERGES],
                &self.counters.dcache,
            ),
            (
                "icache",
                [ICACHE_HITS, ICACHE_PARTIAL_HITS, ICACHE_MISSES],
                [ICACHE_PREFETCH_HITS, ICACHE_REFILL_MERGES],
                &self.counters.icache,
            ),
        ] {
            let _ = write!(
                s,
                "\"{name}\":{{{},\"evictions\":{},\"copyback_bytes\":{},{}}},",
                counters::json_nested(st, &head),
                c.evictions,
                c.copyback_bytes,
                counters::json_nested(st, &tail)
            );
        }
        let _ = write!(
            s,
            "\"prefetch\":{{{},\"late\":{},{}}},",
            counters::json_nested(st, &[PREFETCH_ISSUED]),
            self.counters.prefetch_late,
            counters::json_nested(st, &[PREFETCH_WAIT])
        );
        let dram: Vec<String> = self
            .counters
            .dram()
            .iter()
            .map(|(kind, d)| {
                format!(
                    "{}:{{\"transactions\":{},\"bytes\":{}}}",
                    json::string(kind),
                    d.transactions,
                    d.bytes
                )
            })
            .collect();
        let _ = write!(s, "\"dram\":{{{}}},", dram.join(","));
        let _ = write!(
            s,
            "\"branches\":{{{}}},\"watchdog_fired\":{},\"events\":{}",
            counters::json_nested(st, &[BRANCHES, TAKEN_BRANCHES]),
            self.counters.watchdog_fired,
            self.counters.events
        );
        if let Some(hs) = &self.hotspots {
            let blocks: Vec<String> = hs
                .blocks
                .iter()
                .map(|blk| {
                    let p = &blk.profile;
                    format!(
                        "{{\"start\":{},\"end\":{},\"cycles\":{},\"issue\":{},\
                         \"ifetch_stall\":{},\"data_stall\":{},\"ops\":{},\
                         \"exec_ops\":{},\"dcache_misses\":{},\"icache_misses\":{}}}",
                        blk.start,
                        blk.end,
                        p.cycles(),
                        p.issue,
                        p.ifetch_stall,
                        p.data_stall,
                        p.ops,
                        p.exec_ops,
                        p.dcache_misses,
                        p.icache_misses
                    )
                })
                .collect();
            let _ = write!(
                s,
                ",\"hotspots\":{{\"total_cycles\":{},\"watchdog_idle\":{},\
                 \"watchdog_pc\":{},\"blocks\":[{}]}}",
                hs.total_cycles,
                hs.watchdog_idle,
                hs.watchdog_pc
                    .map_or_else(|| "null".to_string(), |pc| pc.to_string()),
                blocks.join(",")
            );
        }
        if let Some(tl) = &self.timeline {
            let _ = write!(s, ",\"timeline\":{}", tl.to_json());
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let ws = workloads();
        let names: std::collections::HashSet<_> = ws.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), ws.len(), "duplicate workload names");
        assert!(find_workload("memset").is_some());
        assert!(find_workload("no_such_kernel").is_none());
        assert_eq!(golden_names().len(), 11);
    }

    #[test]
    fn profiled_memset_conserves_cycles() {
        let kernel = find_workload("memset").unwrap();
        let config = MachineConfig::tm3270();
        let p = profile_kernel_with(kernel.as_ref(), &config, &ProfileOptions::default())
            .expect("memset profiles");
        p.check_conservation().expect("conservation");
        assert!(p.counters.events > 0);
        let json = p.to_json();
        assert!(json.contains("\"workload\":\"memset\""), "{json}");
        assert!(json.contains("\"buckets\""), "{json}");
        assert!(json.contains("\"refill_merges\""), "{json}");
        let report = p.report();
        assert!(report.contains("stall attribution"), "{report}");
    }

    const CHROME: ProfileOptions = ProfileOptions {
        chrome: true,
        hotspots: false,
        top: 10,
        timeline: None,
    };

    #[test]
    fn chrome_trace_capture_is_optional_and_valid() {
        let kernel = find_workload("filmdet").unwrap();
        let config = MachineConfig::tm3270();
        let p = profile_kernel_with(kernel.as_ref(), &config, &CHROME).expect("filmdet profiles");
        let trace = p.chrome_trace.as_deref().expect("trace requested");
        assert!(trace.starts_with("{\"traceEvents\":[") && trace.ends_with("]}"));
        assert!(trace.contains("\"ph\":\"M\""));
    }
}
