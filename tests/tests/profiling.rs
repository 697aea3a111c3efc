//! Observability integration tests: cycle conservation of the
//! stall-attribution buckets on the golden kernels, well-formedness of
//! the Chrome `trace_event` export, the configurable crash-trace ring,
//! and fault-injection event emission.

use std::cell::RefCell;
use std::rc::Rc;

use tm3270_asm::ProgramBuilder;
use tm3270_bench::profile::{
    find_workload, golden_names, profile_kernel_with, profile_sweep, workloads, ProfileOptions,
};
use tm3270_core::{Machine, MachineConfig, RunOptions, SimError};
use tm3270_fault::{FaultInjector, FaultSite};
use tm3270_harness::JobError;
use tm3270_obs::{
    CacheId, CacheOutcome, CounterSink, EventKinds, FanoutSink, NullSink, PcProfile, ProfileSink,
    RingSink, SinkHandle, StallCause, TimelineSink, TraceEvent, TraceSink,
};

/// The acceptance criterion of the observability layer: on every golden
/// kernel, the counter sink's stall buckets decompose `RunStats.cycles`
/// exactly (issue + ifetch-stall + data-stall + watchdog-idle), and its
/// issue, stall and op counts equal the model's.
#[test]
fn golden_kernels_conserve_cycles() {
    let config = MachineConfig::tm3270();
    for name in golden_names() {
        let kernel = find_workload(name).unwrap_or_else(|| panic!("{name} in registry"));
        let p = profile_kernel_with(kernel.as_ref(), &config, &ProfileOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        p.check_conservation()
            .unwrap_or_else(|e| panic!("conservation: {e}"));
    }
}

/// Conservation is configuration-independent: the same kernel profiled
/// on all four §6 configurations (different write-miss policies, line
/// sizes, clock ratios) decomposes exactly on each.
#[test]
fn conservation_holds_across_configs() {
    let kernel = find_workload("filter").expect("filter in registry");
    for config in MachineConfig::evaluation_suite() {
        let p = profile_kernel_with(kernel.as_ref(), &config, &ProfileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", config.name));
        p.check_conservation()
            .unwrap_or_else(|e| panic!("{}: {e}", config.name));
    }
}

/// The golden kernels on configs A and D, plus `upconv_opt_pf` on D,
/// which exercises the prefetcher.
fn golden_cells_and_prefetch() -> Vec<(MachineConfig, &'static str)> {
    let mut cells = Vec::new();
    for config in [MachineConfig::config_a(), MachineConfig::config_d()] {
        for name in golden_names() {
            cells.push((config.clone(), name));
        }
    }
    cells.push((MachineConfig::config_d(), "upconv_opt_pf"));
    cells
}

/// Per-PC hot-spot buckets sum to `RunStats.cycles` exactly, timeline
/// interval deltas sum to the final counter totals, and every
/// event-derived total (per-PC cache misses; timeline cache hits and
/// misses, prefetches issued, DRAM bytes) equals the model's own count,
/// on the golden kernels under both the cheapest (A) and the full (D)
/// machine configurations and on a prefetching kernel.
#[test]
fn hotspot_and_timeline_conservation_on_golden_kernels() {
    let opts = ProfileOptions {
        hotspots: true,
        timeline: Some(1000),
        ..ProfileOptions::default()
    };
    let mut prefetched = 0;
    for (config, name) in golden_cells_and_prefetch() {
        let kernel = find_workload(name).unwrap_or_else(|| panic!("{name} in registry"));
        let p = profile_kernel_with(kernel.as_ref(), &config, &opts)
            .unwrap_or_else(|e| panic!("{name} on {}: {e}", config.name));
        // check_conservation covers both guarantees; assert the raw
        // sums too so a future regression names the exact quantity.
        p.check_conservation()
            .unwrap_or_else(|e| panic!("{name} on {}: {e}", config.name));
        let hs = p.hotspots.as_ref().expect("hotspots requested");
        let block_sum: u64 = hs.blocks.iter().map(|b| b.profile.cycles()).sum();
        assert_eq!(
            block_sum, p.stats.cycles,
            "{name} on {}: block cycles must equal RunStats.cycles",
            config.name
        );
        let tl = p.timeline.as_ref().expect("timeline requested");
        let totals = tl.totals();
        let b = p.counters.buckets();
        assert_eq!(
            totals.issue,
            b.issue + b.watchdog_idle,
            "{name} on {}: timeline issue deltas",
            config.name
        );
        assert_eq!(
            totals.ifetch_stall + totals.data_stall,
            b.ifetch_stall + b.data_stall,
            "{name} on {}: timeline stall deltas",
            config.name
        );
        assert_eq!(
            totals.events, p.counters.events,
            "{name} on {}: every event lands in exactly one sample",
            config.name
        );
        prefetched += totals.prefetch_issued;
    }
    assert!(prefetched > 0, "no cell exercised the prefetcher");
}

/// The counts [`CounterSink`] keeps need events. Bound alone it reads
/// only [`CounterSink::READS`]; inside a fan-out with a
/// [`TimelineSink`] it is delivered every kind. Both give the same
/// counts on every golden kernel on configs A and D.
#[test]
fn counter_sink_alone_and_in_a_fanout_count_alike() {
    let with_timeline = ProfileOptions {
        timeline: Some(1000),
        ..ProfileOptions::default()
    };
    for config in [MachineConfig::config_a(), MachineConfig::config_d()] {
        for name in golden_names() {
            let kernel = find_workload(name).unwrap_or_else(|| panic!("{name} in registry"));
            let cell = format!("{name} on {}", config.name);
            let alone = profile_kernel_with(kernel.as_ref(), &config, &ProfileOptions::default())
                .unwrap_or_else(|e| panic!("{cell}: {e}"))
                .counters;
            let full = profile_kernel_with(kernel.as_ref(), &config, &with_timeline)
                .unwrap_or_else(|e| panic!("{cell}: {e}"))
                .counters;
            assert_eq!(alone.buckets(), full.buckets(), "{cell}: buckets");
            assert_eq!(
                (alone.ifetch_stalls, alone.data_stalls),
                (full.ifetch_stalls, full.data_stalls),
                "{cell}: stall episodes"
            );
            assert_eq!(alone.ops_per_slot, full.ops_per_slot, "{cell}: slots");
            assert_eq!(
                alone.executed_per_slot, full.executed_per_slot,
                "{cell}: executed slots"
            );
            assert_eq!(alone.units(), full.units(), "{cell}: units");
            assert_eq!(alone.dcache, full.dcache, "{cell}: dcache evictions");
            assert_eq!(alone.icache, full.icache, "{cell}: icache evictions");
            assert_eq!(alone.prefetch_late, full.prefetch_late, "{cell}: late");
            assert_eq!(alone.dram(), full.dram(), "{cell}: dram");
            assert!(
                alone.events < full.events,
                "{cell}: the bound stream is shorter"
            );
        }
    }
}

/// Conservation also holds for runs that end in an error: a jump-only
/// livelock aborted by the watchdog still decomposes the cycle count at
/// the instant of the error, with the idle window reclassified into the
/// `watchdog_idle` bucket.
#[test]
fn watchdog_abort_conserves_cycles() {
    let config = MachineConfig::tm3270();
    let mut b = ProgramBuilder::new(config.issue);
    let top = b.bind_here();
    b.jump(top);
    let mut m = Machine::new(config, b.build().unwrap()).unwrap();
    let counters = Rc::new(RefCell::new(CounterSink::new()));
    m.attach_sink(SinkHandle::from(counters.clone()));
    m.set_watchdog(500);

    let outcome = m.run_with(RunOptions::budget(100_000).with_report());
    let report = outcome.report.expect("livelock must abort");
    assert!(matches!(report.error, SimError::NoProgress { .. }));
    let c = counters.borrow();
    let b = c.buckets();
    assert_eq!(
        b.total(),
        report.cycle,
        "buckets must sum to the abort cycle"
    );
    assert!(b.watchdog_idle > 0, "idle window reclassified");
    assert_eq!(c.watchdog_fired, 1);
}

/// The watchdog-crash path conserves the per-PC hot-spot attribution
/// and the interval timeline too: an aborted run's per-PC (and block)
/// cycles sum to the cycle count at the abort, and the timeline deltas
/// still sum to the bucket totals.
#[test]
fn watchdog_abort_conserves_hotspots_and_timeline() {
    let config = MachineConfig::tm3270();
    let mut b = ProgramBuilder::new(config.issue);
    let top = b.bind_here();
    b.jump(top);
    let mut m = Machine::new(config, b.build().unwrap()).unwrap();
    let spans: Vec<_> = tm3270_encode::superblocks(m.program())
        .iter()
        .map(|b| b.head..b.end)
        .collect();
    let profile = Rc::new(RefCell::new(ProfileSink::new(m.program().instrs.len())));
    let timeline = Rc::new(RefCell::new(TimelineSink::new(100)));
    let mut fan = FanoutSink::new();
    fan.push(profile.clone());
    fan.push(timeline.clone());
    m.attach_sink(SinkHandle::from(Rc::new(RefCell::new(fan))));
    m.set_watchdog(500);

    let outcome = m.run_with(RunOptions::budget(100_000).with_report());
    let report = outcome.report.expect("livelock must abort");
    assert!(matches!(report.error, SimError::NoProgress { .. }));

    let ps = profile.borrow();
    assert_eq!(
        ps.total_cycles(),
        report.cycle,
        "per-PC cycles must sum to the abort cycle"
    );
    assert!(ps.watchdog_idle() > 0, "idle window recorded");
    assert!(ps.watchdog_pc().is_some(), "abort PC recorded");
    let block_sum: u64 = ps.blocks(&spans).iter().map(|b| b.profile.cycles()).sum();
    assert_eq!(block_sum, report.cycle, "block coalescing preserves sums");

    let totals = timeline.borrow().totals();
    assert_eq!(
        totals.issue + totals.ifetch_stall + totals.data_stall,
        report.cycle,
        "timeline deltas must sum to the abort cycle"
    );
}

/// How a [`ProfileSink`] is attached in [`profile_both_ways`].
#[derive(Debug, Clone, Copy)]
enum Attach {
    /// Alone: bound to its own four kinds, so the run is filtered.
    Alone,
    /// Inside a fan-out with a [`NullSink`], which reads every kind, so
    /// it receives every event.
    Full,
}

/// Runs `m` (fresh, set up) with a [`ProfileSink`] attached as `attach`
/// and returns the sink and the cycle count the profile must conserve
/// (`RunStats.cycles`, or the abort cycle of a failed run), plus the
/// `(ops, exec_ops)` the run counted.
fn profile_run(mut m: Machine, budget: u64, attach: Attach) -> (ProfileSink, u64, (u64, u64)) {
    let profile = Rc::new(RefCell::new(ProfileSink::new(m.program().instrs.len())));
    match attach {
        Attach::Alone => m.attach_sink(SinkHandle::from(profile.clone())),
        Attach::Full => {
            let mut fan = FanoutSink::new();
            fan.push(Rc::new(RefCell::new(NullSink)));
            fan.push(profile.clone());
            m.attach_sink(SinkHandle::from(Rc::new(RefCell::new(fan))));
        }
    }
    let outcome = m.run_with(RunOptions::budget(budget).with_report());
    let cycles = match (&outcome.result, &outcome.report) {
        (Ok(stats), _) => stats.cycles,
        (Err(_), Some(report)) => report.cycle,
        (Err(e), None) => panic!("{e} without a report"),
    };
    let stats = m.stats_snapshot();
    let sink = profile.borrow().clone();
    (sink, cycles, (stats.ops, stats.exec_ops))
}

/// Runs a program both ways and checks that the filtered and the full
/// event streams give one profile, which conserves cycles and ops.
fn profile_both_ways(what: &str, make: impl Fn() -> Machine, budget: u64) {
    let (alone, cycles, (ops, exec_ops)) = profile_run(make(), budget, Attach::Alone);
    let (full, full_cycles, _) = profile_run(make(), budget, Attach::Full);
    assert_eq!(cycles, full_cycles, "{what}: the sink changed the run");
    assert_eq!(
        alone.per_pc(),
        full.per_pc(),
        "{what}: filtered and full streams must give one profile"
    );
    assert!(
        alone.events() < full.events(),
        "{what}: the filtered stream is shorter"
    );
    assert_eq!(alone.total_cycles(), cycles, "{what}: cycles conserved");
    let sum = |f: fn(&tm3270_obs::PcProfile) -> u64| alone.per_pc().iter().map(f).sum::<u64>();
    assert_eq!(sum(|p| p.ops), ops, "{what}: Σ ops == RunStats.ops");
    assert_eq!(
        sum(|p| p.exec_ops),
        exec_ops,
        "{what}: Σ exec_ops == RunStats.exec_ops"
    );
}

/// A bound [`ProfileSink`] reads only four event kinds and derives its
/// op counts from `InstrIssue` and the bound op table; inside a fan-out
/// it is delivered every event. Both give the same per-PC table on every
/// golden kernel on configs A and D, and on a watchdog-aborted run.
#[test]
fn filtered_and_full_streams_give_one_profile() {
    for config in [MachineConfig::config_a(), MachineConfig::config_d()] {
        for name in golden_names() {
            let kernel = find_workload(name).unwrap_or_else(|| panic!("{name} in registry"));
            let program = kernel.build(&config.issue).unwrap();
            let make = || {
                let mut m = Machine::new(config.clone(), program.clone()).unwrap();
                kernel.setup(&mut m);
                m
            };
            profile_both_ways(
                &format!("{name} on {}", config.name),
                make,
                kernel.cycle_budget(),
            );
        }
    }
    let config = MachineConfig::tm3270();
    let mut b = ProgramBuilder::new(config.issue);
    let top = b.bind_here();
    b.jump(top);
    let program = b.build().unwrap();
    let make = || {
        let mut m = Machine::new(config.clone(), program.clone()).unwrap();
        m.set_watchdog(500);
        m
    };
    profile_both_ways("jump-only watchdog program", make, 100_000);
}

/// Rebuilds the per-PC table from the full event stream (it reads
/// [`EventKinds::ALL`]) one event at a time, the reference for
/// [`ProfileSink`]'s summed counts: per `InstrIssue` one issue cycle,
/// the static op count and the guard-true ops; per `StallEnd` its
/// cycles; per missing `CacheAccess` one miss.
struct PerEventRule {
    per_pc: Vec<PcProfile>,
    ops_per_instr: Vec<u8>,
    watchdog: Option<(usize, u64)>,
}

impl PerEventRule {
    fn at(&mut self, pc: usize) -> &mut PcProfile {
        if pc >= self.per_pc.len() {
            self.per_pc.resize(pc + 1, PcProfile::default());
        }
        &mut self.per_pc[pc]
    }
}

impl TraceSink for PerEventRule {
    fn event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::InstrIssue { pc, ops, .. } => {
                let static_ops = self.ops_per_instr[pc];
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
            TraceEvent::WatchdogFired { pc, idle, .. } => self.watchdog = Some((pc, idle)),
            TraceEvent::IssueCount { .. } => panic!("issue counts reached an ALL-bound sink"),
            _ => {}
        }
    }

    fn bind(&mut self, ops_per_instr: &[u8]) -> EventKinds {
        self.ops_per_instr = ops_per_instr.to_vec();
        EventKinds::ALL
    }
}

/// Runs two fresh machines from `make`, one with a [`ProfileSink`]
/// bound alone and one with a [`PerEventRule`], through `budgets` in turn
/// (each a `run_with` budget, the last one large enough to finish), and
/// after every slice flushes both handles and requires one per-PC
/// table. At the end the profile must also hold every cycle of the run.
fn profile_matches_per_event_rule(what: &str, make: impl Fn() -> Machine, budgets: &[u64]) {
    let mut ours = make();
    let mut reference = make();
    let len = ours.program().instrs.len();
    let profile = Rc::new(RefCell::new(ProfileSink::new(len)));
    let rule = Rc::new(RefCell::new(PerEventRule {
        per_pc: vec![PcProfile::default(); len],
        ops_per_instr: Vec::new(),
        watchdog: None,
    }));
    let handles = [
        SinkHandle::from(profile.clone()),
        SinkHandle::from(rule.clone()),
    ];
    ours.attach_sink(handles[0].clone());
    reference.attach_sink(handles[1].clone());
    let mut cycles = 0;
    for (i, &budget) in budgets.iter().enumerate() {
        let outcome = ours.run_with(RunOptions::budget(budget).with_report());
        let reference_outcome = reference.run_with(RunOptions::budget(budget));
        handles.iter().for_each(SinkHandle::flush);
        assert_eq!(
            outcome.result, reference_outcome.result,
            "{what}: slice {i} ran alike"
        );
        let p = profile.borrow();
        let r = rule.borrow();
        assert_eq!(p.per_pc(), r.per_pc.as_slice(), "{what}: slice {i} table");
        assert_eq!(
            (p.watchdog_pc(), p.watchdog_idle()),
            r.watchdog.map_or((None, 0), |(pc, idle)| (Some(pc), idle)),
            "{what}: slice {i} watchdog"
        );
        cycles = match (&outcome.result, &outcome.report) {
            (Ok(stats), _) => stats.cycles,
            (Err(_), Some(report)) => report.cycle,
            (Err(e), None) => panic!("{what}: {e} without a report"),
        };
    }
    assert_eq!(
        profile.borrow().total_cycles(),
        cycles,
        "{what}: cycles conserved"
    );
}

/// A [`ProfileSink`] bound alone (issue counts at flush, cache misses
/// alone) gives the same per-PC table as the full event stream
/// attributed one event at a time ([`PerEventRule`]): on every golden
/// kernel on configs A and D, on a watchdog-aborted run, and on runs
/// cut into budget slices with a flush between slices, compared after
/// every slice.
#[test]
fn profile_sink_matches_the_per_event_rule_on_the_full_stream() {
    for config in [MachineConfig::config_a(), MachineConfig::config_d()] {
        for name in golden_names() {
            let kernel = find_workload(name).unwrap_or_else(|| panic!("{name} in registry"));
            let program = kernel.build(&config.issue).unwrap();
            let make = || {
                let mut m = Machine::new(config.clone(), program.clone()).unwrap();
                kernel.setup(&mut m);
                m
            };
            let cell = format!("{name} on {}", config.name);
            profile_matches_per_event_rule(&cell, make, &[kernel.cycle_budget()]);
            if name == "filter" || name == "memcpy" {
                // Slices that end mid-instruction-stream, mid-stall and
                // at odd cycles, then the rest of the run.
                let mut budgets: Vec<u64> = (1..=40).map(|k| k * 7_919).collect();
                budgets.push(kernel.cycle_budget());
                profile_matches_per_event_rule(&format!("{cell}, sliced"), make, &budgets);
            }
        }
    }
    let config = MachineConfig::tm3270();
    let mut b = ProgramBuilder::new(config.issue);
    let top = b.bind_here();
    b.jump(top);
    let program = b.build().unwrap();
    let make = || {
        let mut m = Machine::new(config.clone(), program.clone()).unwrap();
        m.set_watchdog(500);
        m
    };
    profile_matches_per_event_rule("jump-only watchdog program", make, &[100_000]);
    profile_matches_per_event_rule("sliced watchdog program", make, &[123, 321, 100_000]);
}

/// Bound alone, a [`ProfileSink`] is delivered fewer than 0.1 events
/// per instruction on the kernels of the benchmark's traced workload
/// (config D): per-PC issue counts, stall ends and cache misses only.
#[test]
fn profile_sink_alone_reads_under_a_tenth_of_an_event_per_instruction() {
    let config = MachineConfig::config_d();
    for name in ["memcpy", "filter", "rgb2yuv", "mpeg2_b"] {
        let kernel = find_workload(name).unwrap_or_else(|| panic!("{name} in registry"));
        let mut m = Machine::new(config.clone(), kernel.build(&config.issue).unwrap()).unwrap();
        let profile = Rc::new(RefCell::new(ProfileSink::new(m.program().instrs.len())));
        m.attach_sink(SinkHandle::from(profile.clone()));
        kernel.setup(&mut m);
        let stats = m
            .run_with(RunOptions::budget(kernel.cycle_budget()))
            .into_result()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let per_instr = profile.borrow().events() as f64 / stats.instrs as f64;
        assert!(
            per_instr < 0.1,
            "{name}: {per_instr} events per instruction"
        );
    }
}

/// Keeps the cache accesses delivered to it, misses in full; reads
/// `reads`.
struct Accesses {
    reads: EventKinds,
    misses: Vec<TraceEvent>,
    others: u64,
}

impl TraceSink for Accesses {
    fn event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::CacheAccess {
                outcome: CacheOutcome::Miss,
                ..
            } => self.misses.push(*event),
            _ => self.others += 1,
        }
    }

    fn bind(&mut self, _ops_per_instr: &[u8]) -> EventKinds {
        self.reads
    }
}

/// A sink bound to [`EventKinds::CACHE_MISS`] alone receives exactly
/// the `Miss` events of the [`EventKinds::CACHE_ACCESS`] stream, every
/// field and the order included, and nothing else: on every golden
/// kernel on configs A and D, with data- and instruction-cache misses.
#[test]
fn cache_miss_sink_receives_exactly_the_misses_of_the_access_stream() {
    for config in [MachineConfig::config_a(), MachineConfig::config_d()] {
        let (mut dcache, mut icache) = (0, 0);
        for name in golden_names() {
            let kernel = find_workload(name).unwrap_or_else(|| panic!("{name} in registry"));
            let program = kernel.build(&config.issue).unwrap();
            let run = |reads| {
                let sink = Rc::new(RefCell::new(Accesses {
                    reads,
                    misses: Vec::new(),
                    others: 0,
                }));
                let mut m = Machine::new(config.clone(), program.clone()).unwrap();
                m.attach_sink(SinkHandle::from(sink.clone()));
                kernel.setup(&mut m);
                m.run_with(RunOptions::budget(kernel.cycle_budget()))
                    .into_result()
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                drop(m);
                Rc::try_unwrap(sink).ok().expect("one owner").into_inner()
            };
            let all = run(EventKinds::CACHE_ACCESS);
            let misses = run(EventKinds::CACHE_MISS);
            let cell = format!("{name} on {}", config.name);
            assert!(all.others > 0, "{cell}: the access stream has hits");
            assert_eq!(misses.others, 0, "{cell}: only misses delivered");
            assert_eq!(misses.misses, all.misses, "{cell}: the same misses");
            for e in &misses.misses {
                match e {
                    TraceEvent::CacheAccess {
                        cache: CacheId::Data,
                        ..
                    } => dcache += 1,
                    _ => icache += 1,
                }
            }
        }
        assert!(
            dcache > 0 && icache > 0,
            "{}: both caches miss",
            config.name
        );
    }
}

/// A profile sweep over every registry workload on config A (the
/// TM3260) reports the three workloads that need TM3270 operations as
/// typed failed rows, in registry order beside the sixteen profiles that
/// built, each of which conserves cycles.
#[test]
fn config_a_sweep_reports_failed_jobs_beside_the_profiles() {
    let names: Vec<String> = workloads().iter().map(|k| k.name().to_string()).collect();
    let config = tm3270_session::config_named("a").expect("config a");
    let rows = profile_sweep(&names, &config, &ProfileOptions::default(), 2);
    assert_eq!(rows.len(), names.len());
    let mut failed = Vec::new();
    for (name, row) in names.iter().zip(&rows) {
        match row {
            Ok(p) => {
                assert_eq!(p.workload, name, "rows keep registry order");
                p.check_conservation()
                    .unwrap_or_else(|e| panic!("conservation: {e}"));
            }
            Err(f) => {
                assert_eq!(&f.workload, name, "rows keep registry order");
                assert_eq!(f.config_name, config.name);
                assert!(
                    matches!(&f.error, JobError::Failed(m) if m.contains("has no issue slot")),
                    "{name}: {}",
                    f.error
                );
                let json = f.to_json();
                let v = mini_json::Parser::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
                assert!(v.get("failed").is_some(), "{json}");
                failed.push(name.as_str());
            }
        }
    }
    assert_eq!(
        failed,
        ["cabac_decode_opt", "motion_est_opt", "upconv_opt_pf"]
    );
    assert_eq!(rows.len() - failed.len(), 16);
}

/// Counts the event kinds delivered to it; reads only `InstrIssue`.
#[derive(Default)]
struct IssueOnly {
    issues: u64,
    others: u64,
}

impl TraceSink for IssueOnly {
    fn event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::InstrIssue { .. } => self.issues += 1,
            _ => self.others += 1,
        }
    }

    fn bind(&mut self, _ops_per_instr: &[u8]) -> EventKinds {
        EventKinds::INSTR_ISSUE
    }
}

/// Splits the full event stream into the kinds [`CounterSink`] reads
/// and the rest; reads every kind, the per-PC issue counts included.
#[derive(Default)]
struct CounterKinds {
    read: u64,
    unread: u64,
}

impl TraceSink for CounterKinds {
    fn event(&mut self, event: &TraceEvent) {
        if CounterSink::READS.contains(event.kind_bit()) {
            self.read += 1;
        } else {
            self.unread += 1;
        }
    }

    fn bind(&mut self, _ops_per_instr: &[u8]) -> EventKinds {
        EventKinds::ALL | EventKinds::ISSUE_COUNT
    }
}

/// Runs `filter` on config D with `sink` attached alone.
fn run_filter_with(sink: Rc<RefCell<dyn TraceSink>>) -> tm3270_core::RunStats {
    let config = MachineConfig::config_d();
    let kernel = find_workload("filter").expect("filter in registry");
    let mut m = Machine::new(config.clone(), kernel.build(&config.issue).unwrap()).unwrap();
    m.attach_sink(SinkHandle::new(sink));
    kernel.setup(&mut m);
    m.run_with(RunOptions::budget(kernel.cycle_budget()))
        .into_result()
        .unwrap()
}

/// `Machine::attach_sink` binds the sink: one bound to `InstrIssue`
/// alone receives exactly one event per issued instruction and no other
/// kind, on a kernel with loads, stores, stalls and branches. A bound
/// [`CounterSink`] alone receives exactly the events of its own kinds.
#[test]
fn attached_sink_receives_only_the_kinds_it_reads() {
    let sink = Rc::new(RefCell::new(IssueOnly::default()));
    let stats = run_filter_with(sink.clone());
    let s = sink.borrow();
    assert_eq!(s.issues, stats.instrs);
    assert_eq!(s.others, 0, "no other kind reaches the sink");
    assert!(stats.branches > 0 && stats.data_stall_cycles + stats.ifetch_stall_cycles > 0);

    let kinds = Rc::new(RefCell::new(CounterKinds::default()));
    run_filter_with(kinds.clone());
    let counter = Rc::new(RefCell::new(CounterSink::new()));
    run_filter_with(counter.clone());
    let kinds = kinds.borrow();
    assert!(
        kinds.unread > 0,
        "the full stream has kinds the counter skips"
    );
    assert_eq!(
        counter.borrow().events,
        kinds.read,
        "the counter receives its kinds and no other"
    );
}

/// Minimal JSON well-formedness checker (the repo carries no
/// serialization dependency). Parses a full document and returns every
/// `(ph, tid, ts)` triple found in the `traceEvents` rows.
mod mini_json {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    pub struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl<'a> Parser<'a> {
        pub fn parse(s: &'a str) -> Result<Value, String> {
            let mut p = Parser {
                s: s.as_bytes(),
                i: 0,
            };
            let v = p.value()?;
            p.ws();
            if p.i != p.s.len() {
                return Err(format!("trailing bytes at {}", p.i));
            }
            Ok(v)
        }

        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.s.get(self.i).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at {}", b as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.peek().ok_or("eof")? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.lit("true", Value::Bool(true)),
                b'f' => self.lit("false", Value::Bool(false)),
                b'n' => self.lit("null", Value::Null),
                _ => self.number(),
            }
        }

        fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.s[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at {}", self.i))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.i;
            while let Some(b) = self.peek() {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.i += 1;
                } else {
                    break;
                }
            }
            std::str::from_utf8(&self.s[start..self.i])
                .ok()
                .and_then(|t| t.parse().ok())
                .map(Value::Num)
                .ok_or(format!("bad number at {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek().ok_or("eof in string")? {
                    b'"' => {
                        self.i += 1;
                        return Ok(out);
                    }
                    b'\\' => {
                        self.i += 1;
                        let esc = self.peek().ok_or("eof after backslash")?;
                        self.i += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' | b'f' => {}
                            b'u' => {
                                if self.i + 4 > self.s.len() {
                                    return Err("short \\u escape".into());
                                }
                                self.i += 4;
                                out.push('?');
                            }
                            other => return Err(format!("bad escape {:?}", other as char)),
                        }
                    }
                    b => {
                        // Multi-byte UTF-8 passes through byte-wise.
                        out.push(b as char);
                        self.i += 1;
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("bad array at {}", self.i)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut kv = Vec::new();
            self.ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(Value::Object(kv));
            }
            loop {
                self.ws();
                let key = self.string()?;
                self.ws();
                self.expect(b':')?;
                let val = self.value()?;
                kv.push((key, val));
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Value::Object(kv));
                    }
                    _ => return Err(format!("bad object at {}", self.i)),
                }
            }
        }
    }
}

/// The Chrome trace export must be a well-formed JSON document whose
/// duration events are balanced (every `B` closed by an `E` on the same
/// thread) with per-thread monotonic timestamps.
#[test]
fn chrome_trace_is_wellformed_and_balanced() {
    use mini_json::{Parser, Value};

    let kernel = find_workload("memset").expect("memset in registry");
    let config = MachineConfig::tm3270();
    let p = profile_kernel_with(
        kernel.as_ref(),
        &config,
        &ProfileOptions {
            chrome: true,
            ..ProfileOptions::default()
        },
    )
    .expect("memset profiles");
    let trace = p.chrome_trace.as_deref().expect("trace requested");

    let doc = Parser::parse(trace).expect("well-formed JSON");
    let Some(Value::Array(rows)) = doc.get("traceEvents") else {
        panic!("missing traceEvents array");
    };
    assert!(rows.len() > 100, "expected a real event stream");

    let mut depth: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut async_open: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for row in rows {
        let Some(Value::Str(ph)) = row.get("ph") else {
            panic!("row without ph: {row:?}");
        };
        let tid = match row.get("tid") {
            Some(Value::Num(t)) => *t as u64,
            _ => panic!("row without tid: {row:?}"),
        };
        if ph == "M" {
            continue;
        }
        let ts = match row.get("ts") {
            Some(Value::Num(t)) => *t,
            _ => panic!("{ph} row without ts"),
        };
        match ph.as_str() {
            "B" => {
                *depth.entry(tid).or_insert(0) += 1;
                let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
                assert!(ts >= *prev, "tid {tid}: ts {ts} < {prev}");
                *prev = ts;
            }
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                assert!(*d > 0, "E without open B on tid {tid}");
                *d -= 1;
                let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
                assert!(ts >= *prev, "tid {tid}: ts {ts} < {prev}");
                *prev = ts;
            }
            "b" => {
                let id = match row.get("id") {
                    Some(Value::Num(n)) => *n as u64,
                    _ => panic!("async row without id"),
                };
                assert!(async_open.insert(id), "duplicate async id {id}");
            }
            "e" => {
                let id = match row.get("id") {
                    Some(Value::Num(n)) => *n as u64,
                    _ => panic!("async row without id"),
                };
                assert!(async_open.remove(&id), "async e without b for id {id}");
            }
            "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(
        depth.values().all(|d| *d == 0),
        "unclosed B events: {depth:?}"
    );
    assert!(async_open.is_empty(), "unclosed async events");
}

/// Satellite: the crash-trace ring size is configurable via
/// `MachineConfig::trace_ring` and recorded in the `CrashReport`.
#[test]
fn crash_ring_size_is_configurable() {
    let build_livelock = |config: MachineConfig| {
        let mut b = ProgramBuilder::new(config.issue);
        let top = b.bind_here();
        b.jump(top);
        let mut m = Machine::new(config, b.build().unwrap()).unwrap();
        m.set_watchdog(200);
        m
    };

    let mut config = MachineConfig::tm3270();
    assert_eq!(config.trace_ring, tm3270_core::TRACE_RING, "default stays");

    config.trace_ring = 4;
    let report = build_livelock(config.clone())
        .run_with(RunOptions::budget(100_000).with_report())
        .report
        .expect("livelock");
    assert_eq!(report.ring_size, 4);
    assert_eq!(
        report.trace.len(),
        4,
        "ring truncates to the configured size"
    );
    assert!(format!("{report}").contains("ring size 4"));

    config.trace_ring = 0;
    let report = build_livelock(config)
        .run_with(RunOptions::budget(100_000).with_report())
        .report
        .expect("livelock");
    assert_eq!(report.ring_size, 0);
    assert!(report.trace.is_empty(), "ring disabled");
}

/// Fault-injection flips are emitted as `FaultFlip` events matching the
/// injector's own record log, site by site.
#[test]
fn fault_flips_emit_events() {
    let ring = Rc::new(RefCell::new(RingSink::new(64)));
    let mut inj = FaultInjector::new(42);
    inj.attach_sink(SinkHandle::from(ring.clone()));

    let mut buf = vec![0u8; 256];
    inj.flip_bits(FaultSite::DataMemory, &mut buf, 5);
    inj.corrupt_cache_line(&mut buf, 64, 3);

    let events = ring.borrow().events().cloned().collect::<Vec<_>>();
    assert_eq!(events.len(), inj.log().len());
    for (event, record) in events.iter().zip(inj.log()) {
        match event {
            TraceEvent::FaultFlip { site, byte, bit } => {
                assert_eq!(*site, record.site.name());
                assert_eq!(*byte, record.byte);
                assert_eq!(*bit, record.bit);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
