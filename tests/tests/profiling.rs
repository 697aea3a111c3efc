//! Observability integration tests: cycle conservation of the
//! stall-attribution buckets on the golden kernels, well-formedness of
//! the Chrome `trace_event` export, the configurable crash-trace ring,
//! and fault-injection event emission.

use std::cell::RefCell;
use std::rc::Rc;

use tm3270_asm::ProgramBuilder;
use tm3270_bench::profile::{
    find_workload, golden_names, profile_kernel, profile_kernel_with, ProfileOptions,
};
use tm3270_core::{Machine, MachineConfig, RunOptions, SimError};
use tm3270_fault::{FaultInjector, FaultSite};
use tm3270_obs::{
    CounterSink, EventKinds, FanoutSink, ProfileSink, RingSink, SinkHandle, TimelineSink,
    TraceEvent, TraceSink,
};

/// The acceptance criterion of the observability layer: on every golden
/// kernel, the counter sink's stall buckets decompose `RunStats.cycles`
/// exactly (issue + ifetch-stall + data-stall + watchdog-idle), and the
/// event-derived cache counters agree with the memory system's own
/// statistics.
#[test]
fn golden_kernels_conserve_cycles() {
    let config = MachineConfig::tm3270();
    for name in golden_names() {
        let kernel = find_workload(name).unwrap_or_else(|| panic!("{name} in registry"));
        let p = profile_kernel(kernel.as_ref(), &config, false)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        p.check_conservation()
            .unwrap_or_else(|e| panic!("conservation: {e}"));

        // The event stream must reconstruct the cache statistics the
        // memory system keeps independently.
        let mem = &p.stats.mem;
        assert_eq!(
            p.counters.dcache.hits, mem.dcache.hits,
            "{name} dcache hits"
        );
        assert_eq!(
            p.counters.dcache.partial_hits, mem.dcache.partial_hits,
            "{name} dcache partial hits"
        );
        assert_eq!(
            p.counters.dcache.misses, mem.dcache.misses,
            "{name} dcache misses"
        );
        assert_eq!(
            p.counters.dcache.prefetch_hits, mem.dcache.prefetch_hits,
            "{name} prefetch hits"
        );
        assert_eq!(
            p.counters.icache.hits, mem.icache.hits,
            "{name} icache hits"
        );
        assert_eq!(
            p.counters.icache.misses, mem.icache.misses,
            "{name} icache misses"
        );
        assert_eq!(
            p.counters.prefetch_issued, mem.prefetch.issued,
            "{name} prefetches issued"
        );
        assert_eq!(
            p.counters.branches_resolved, p.stats.branches,
            "{name} branches"
        );
        assert_eq!(
            p.counters.branches_taken, p.stats.taken_branches,
            "{name} taken branches"
        );
        let dram = p.counters.dram();
        let dram_tx: u64 = dram.values().map(|d| d.transactions).sum();
        assert_eq!(dram_tx, mem.dram.transfers, "{name} dram transfers");
        let dram_bytes: u64 = dram.values().map(|d| d.bytes).sum();
        assert_eq!(dram_bytes, mem.dram.bytes, "{name} dram bytes");
    }
}

/// Conservation is configuration-independent: the same kernel profiled
/// on all four §6 configurations (different write-miss policies, line
/// sizes, clock ratios) decomposes exactly on each.
#[test]
fn conservation_holds_across_configs() {
    let kernel = find_workload("filter").expect("filter in registry");
    for config in MachineConfig::evaluation_suite() {
        let p = profile_kernel(kernel.as_ref(), &config, false)
            .unwrap_or_else(|e| panic!("{}: {e}", config.name));
        p.check_conservation()
            .unwrap_or_else(|e| panic!("{}: {e}", config.name));
    }
}

/// Tentpole acceptance: per-PC hot-spot buckets sum to
/// `RunStats.cycles` exactly, and timeline interval deltas sum to the
/// final counter totals, on all eleven golden kernels under both the
/// cheapest (A) and the full (D) machine configurations.
#[test]
fn hotspot_and_timeline_conservation_on_golden_kernels() {
    let opts = ProfileOptions {
        hotspots: true,
        timeline: Some(1000),
        ..ProfileOptions::default()
    };
    for config in [MachineConfig::config_a(), MachineConfig::config_d()] {
        for name in golden_names() {
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
    let jump_targets = m.program().jump_targets.clone();
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
    let block_sum: u64 = ps
        .blocks(&jump_targets)
        .iter()
        .map(|b| b.profile.cycles())
        .sum();
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
    /// Inside a fan-out with a [`CounterSink`], so it receives every
    /// event.
    WithCounter,
}

/// Runs `m` (fresh, set up) with a [`ProfileSink`] attached as `attach`
/// and returns the sink and the cycle count the profile must conserve
/// (`RunStats.cycles`, or the abort cycle of a failed run), plus the
/// `(ops, exec_ops)` the run counted.
fn profile_run(mut m: Machine, budget: u64, attach: Attach) -> (ProfileSink, u64, (u64, u64)) {
    let profile = Rc::new(RefCell::new(ProfileSink::new(m.program().instrs.len())));
    match attach {
        Attach::Alone => m.attach_sink(SinkHandle::from(profile.clone())),
        Attach::WithCounter => {
            let mut fan = FanoutSink::new();
            fan.push(Rc::new(RefCell::new(CounterSink::new())));
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
    let (full, full_cycles, _) = profile_run(make(), budget, Attach::WithCounter);
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

/// `Machine::attach_sink` binds the sink: one bound to `InstrIssue`
/// alone receives exactly one event per issued instruction and no other
/// kind, on a kernel with loads, stores, stalls and branches.
#[test]
fn attached_sink_receives_only_the_kinds_it_reads() {
    let config = MachineConfig::config_d();
    let kernel = find_workload("filter").expect("filter in registry");
    let mut m = Machine::new(config.clone(), kernel.build(&config.issue).unwrap()).unwrap();
    let sink = Rc::new(RefCell::new(IssueOnly::default()));
    m.attach_sink(SinkHandle::from(sink.clone()));
    kernel.setup(&mut m);
    let stats = m
        .run_with(RunOptions::budget(kernel.cycle_budget()))
        .into_result()
        .unwrap();
    let s = sink.borrow();
    assert_eq!(s.issues, stats.instrs);
    assert_eq!(s.others, 0, "no other kind reaches the sink");
    assert!(stats.branches > 0 && stats.data_stall_cycles + stats.ifetch_stall_cycles > 0);
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
    let p = profile_kernel(kernel.as_ref(), &config, true).expect("memset profiles");
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
