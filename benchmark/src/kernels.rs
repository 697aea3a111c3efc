//! The kernel workloads: round-robin kernel runs on one thread, each on
//! a fresh `Machine`, so the modelled caches start empty.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use tm3270_core::{EngineTelemetry, Machine, MachineConfig, RunOptions, RunStats};
use tm3270_isa::Program;
use tm3270_kernels::{filter, memops, pixels, tv, video, Kernel};
use tm3270_obs::{ProfileSink, SinkHandle};

use crate::report::{Outcome, Report};
use crate::stats::{geomean, median, tail};
use crate::trace::{self, Span, Tracer};
use crate::SETUP_REPEATS;

/// A kernel workload: a configuration, a kernel list and whether a
/// `ProfileSink` is attached to every run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub config: &'static str,
    pub kernels: &'static [&'static str],
    pub profiled: bool,
}

pub const COMPUTE_D: Spec = Spec {
    config: "d",
    kernels: &[
        "filter",
        "rgb2yuv",
        "rgb2cmyk",
        "rgb2yiq",
        "filmdet",
        "majority_sel",
    ],
    profiled: false,
};

pub const MEMORY_A: Spec = Spec {
    config: "a",
    kernels: &["memset", "memcpy", "mpeg2_a", "mpeg2_b", "mpeg2_c"],
    profiled: false,
};

pub const TRACED_D: Spec = Spec {
    config: "d",
    kernels: &["memcpy", "filter", "rgb2yuv", "mpeg2_b"],
    profiled: true,
};

/// splitmix64: one well-mixed 64-bit value per input.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The kernel `name` with inputs drawn from `seed`. Seed 0 is the
/// Table 5 input set; any other seed derives the kernel's public
/// `seed`/`value` fields through splitmix64, salted by the kernel name.
pub fn seeded_kernel(name: &str, seed: u64) -> Option<Box<dyn Kernel>> {
    let s = (seed != 0).then(|| name.bytes().fold(seed, |h, b| splitmix64(h ^ u64::from(b))));
    let pick = |table5: u64| s.unwrap_or(table5);
    let kernel: Box<dyn Kernel> = match name {
        "memset" => {
            let mut k = memops::Memset::table5();
            if let Some(s) = s {
                // Anything but the 0x11 the kernel's setup pre-fills, so
                // a run that stores nothing cannot verify.
                k.value = match s as u8 {
                    0x11 => 0xee,
                    v => v,
                };
            }
            Box::new(k)
        }
        "memcpy" => {
            let mut k = memops::Memcpy::table5();
            k.seed = pick(k.seed);
            Box::new(k)
        }
        "filter" => {
            let mut k = filter::HighPass::table5();
            k.seed = pick(k.seed);
            Box::new(k)
        }
        "rgb2yuv" => match s {
            None => Box::new(pixels::Rgb2Yuv::table5()),
            Some(s) => Box::new(pixels::Rgb2Yuv::with_pixels(320 * 240, s)),
        },
        "rgb2cmyk" => match s {
            None => Box::new(pixels::Rgb2Cmyk::table5()),
            Some(s) => Box::new(pixels::Rgb2Cmyk::with_pixels(320 * 240, s)),
        },
        "rgb2yiq" => match s {
            None => Box::new(pixels::Rgb2Yiq::table5()),
            Some(s) => Box::new(pixels::Rgb2Yiq::with_pixels(320 * 240, s)),
        },
        "mpeg2_a" | "mpeg2_b" | "mpeg2_c" => {
            let mut k = match name {
                "mpeg2_a" => video::Mpeg2::stream_a(),
                "mpeg2_b" => video::Mpeg2::stream_b(),
                _ => video::Mpeg2::stream_c(),
            };
            k.seed = pick(k.seed);
            Box::new(k)
        }
        "filmdet" => {
            let mut k = tv::FilmDetect::table5();
            k.seed = pick(k.seed);
            Box::new(k)
        }
        "majority_sel" => {
            let mut k = tv::MajoritySelect::table5();
            k.seed = pick(k.seed);
            Box::new(k)
        }
        _ => return None,
    };
    Some(kernel)
}

/// One kernel, built for a configuration.
pub struct Prepared {
    kernel: Box<dyn Kernel>,
    program: Program,
    /// `(instrs, cycles)` every run must reproduce (seed 0 only).
    pinned: Option<(u64, u64)>,
}

impl Prepared {
    /// Builds `kernel` for `config` (span `kernels.build`). `pinned`
    /// holds every run to the kernel's `pinned_counts`.
    pub fn build(
        kernel: Box<dyn Kernel>,
        config: &MachineConfig,
        pinned: bool,
        tracer: &mut Tracer,
    ) -> Result<Prepared, String> {
        let name = kernel.name();
        let program = tracer
            .span("kernels.build", |_| kernel.build(&config.issue))
            .map_err(|e| format!("{name}: build failed: {e}"))?;
        let pinned = if pinned {
            let counts = tm3270_kernels::pinned_counts(config.name, name);
            Some(counts.ok_or_else(|| format!("{name}: no pinned counts on {}", config.name))?)
        } else {
            None
        };
        Ok(Prepared {
            kernel,
            program,
            pinned,
        })
    }
}

/// What one successful kernel run measured.
pub struct Sample {
    /// Host seconds over `Machine::new` + `Kernel::setup` + `run_with`.
    pub timed_s: f64,
    pub stats: RunStats,
    pub telemetry: EngineTelemetry,
    pub events: u64,
}

/// One op: a kernel run on a fresh machine, then every check. With
/// `profiled`, a `ProfileSink` is attached inside the timed scope.
pub fn run_op(
    config: &MachineConfig,
    p: &Prepared,
    profiled: bool,
    tracer: &mut Tracer,
) -> Result<Sample, String> {
    let name = p.kernel.name();
    tracer.span("op", |t| {
        let start = Instant::now();
        let mut m = t
            .span("core.new", |_| {
                Machine::new(config.clone(), p.program.clone())
            })
            .map_err(|e| format!("{name}: {e}"))?;
        let sink = profiled.then(|| {
            t.span("obs.attach", |_| {
                let sink = Rc::new(RefCell::new(ProfileSink::new(m.program().instrs.len())));
                m.attach_sink(SinkHandle::from(sink.clone()));
                sink
            })
        });
        t.span("kernels.setup", |_| p.kernel.setup(&mut m));
        let stats = t
            .span("core.run", |_| {
                m.run_with(RunOptions::budget(p.kernel.cycle_budget()))
                    .into_result()
            })
            .map_err(|e| format!("{name}: {e}"))?;
        let timed_s = start.elapsed().as_secs_f64();
        t.span("kernels.verify", |_| p.kernel.verify(&m))
            .map_err(|e| format!("{name}: verify: {e}"))?;
        if let Some((instrs, cycles)) = p.pinned {
            if (stats.instrs, stats.cycles) != (instrs, cycles) {
                return Err(format!(
                    "{name}: ran {} instrs / {} cycles, pinned {instrs} / {cycles}",
                    stats.instrs, stats.cycles
                ));
            }
        }
        let mut events = 0;
        if let Some(sink) = sink {
            let sink = sink.borrow();
            if sink.total_cycles() != stats.cycles {
                return Err(format!(
                    "{name}: profile holds {} cycles, the run took {}",
                    sink.total_cycles(),
                    stats.cycles
                ));
            }
            events = sink.events();
        }
        Ok(Sample {
            timed_s,
            stats,
            telemetry: m.engine_telemetry(),
            events,
        })
    })
}

/// Simulated totals over traced runs, for the per-layer ratios.
#[derive(Debug, Default)]
pub struct SimTotals {
    cycles: u64,
    instrs: u64,
    data_stall: u64,
    dcache_lookups: u64,
    dcache_misses: u64,
    copybacks: u64,
    dram_bytes: u64,
    prefetch_issued: u64,
    prefetch_hits: u64,
    fused: u64,
    mem_calls: u64,
    window_hits: u64,
    events: u64,
}

impl SimTotals {
    pub fn add(&mut self, s: &Sample) {
        let st = &s.stats;
        let dc = &st.mem.dcache;
        self.cycles += st.cycles;
        self.instrs += st.instrs;
        self.data_stall += st.data_stall_cycles;
        self.dcache_lookups += dc.hits + dc.partial_hits + dc.misses;
        self.dcache_misses += dc.partial_hits + dc.misses;
        self.copybacks += dc.copybacks;
        self.dram_bytes += st.mem.dram.bytes;
        self.prefetch_issued += st.mem.prefetch.issued;
        self.prefetch_hits += dc.prefetch_hits;
        self.fused += s.telemetry.fused_instrs;
        self.mem_calls += s.telemetry.mem_calls;
        self.window_hits += s.telemetry.window_hits;
        self.events += s.events;
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sets the kernel, core, memory-model and sink layers from the spans
/// and simulated totals of traced kernel runs.
pub fn report_layers(r: &mut Report, spans: &[Span], sim: &SimTotals) {
    let t = trace::totals(spans);
    let mean_us = |name: &str| t.get(name).map_or(0.0, |x| x.mean_self_ns() / 1e3);
    let run_ns = t.get("core.run").map_or(0, |x| x.self_ns);
    r.set("kernels.build_ms", mean_us("kernels.build") / 1e3);
    r.set("kernels.setup_us", mean_us("kernels.setup"));
    r.set("kernels.verify_us", mean_us("kernels.verify"));
    r.set("core.new_us", mean_us("core.new"));
    r.set("core.run_ns_per_instr", ratio(run_ns, sim.instrs));
    r.set("core.fused_share", ratio(sim.fused, sim.instrs));
    r.set("core.cpi", ratio(sim.cycles, sim.instrs));
    r.set("mem.calls_per_instr", ratio(sim.mem_calls, sim.fused));
    r.set(
        "mem.window_hit_ratio",
        ratio(sim.window_hits, sim.window_hits + sim.mem_calls),
    );
    r.set(
        "mem.dcache_miss_ratio",
        ratio(sim.dcache_misses, sim.dcache_lookups),
    );
    r.set(
        "mem.copybacks_per_kinstr",
        ratio(sim.copybacks * 1000, sim.instrs),
    );
    r.set(
        "mem.dram_bytes_per_instr",
        ratio(sim.dram_bytes, sim.instrs),
    );
    r.set(
        "mem.prefetch_hit_ratio",
        ratio(sim.prefetch_hits, sim.prefetch_issued),
    );
    r.set("mem.data_stall_share", ratio(sim.data_stall, sim.cycles));
    r.set("obs.events_per_instr", ratio(sim.events, sim.instrs));
}

/// The share of root spans' wall time that no child span covers.
pub fn unattributed_share(spans: &[Span], root: &str) -> f64 {
    let t = trace::totals(spans);
    t.get(root).map_or(0.0, |x| ratio(x.self_ns, x.total_ns))
}

/// Per-kernel timings of the traced or the untraced half of a run.
struct Half {
    timed_s: Vec<Vec<f64>>,
}

impl Half {
    fn new(kernels: usize) -> Half {
        Half {
            timed_s: vec![Vec::new(); kernels],
        }
    }

    fn completed(&self) -> usize {
        self.timed_s.iter().map(Vec::len).sum()
    }

    /// Geomean over kernels of each kernel's median instrs per host s.
    fn sim_mips(&self, instrs: &[u64]) -> f64 {
        let per_kernel: Vec<f64> = self
            .timed_s
            .iter()
            .zip(instrs)
            .map(|(t, &n)| n as f64 / median(t).max(1e-12) / 1e6)
            .collect();
        geomean(&per_kernel)
    }

    /// Geomean over kernels of a per-kernel statistic, in ms.
    fn per_kernel_ms(&self, stat: fn(&[f64]) -> f64) -> f64 {
        let per_kernel: Vec<f64> = self.timed_s.iter().map(|t| stat(t) * 1e3).collect();
        geomean(&per_kernel)
    }
}

/// Runs a kernel workload for `seconds` of measured time, split into
/// [`SETUP_REPEATS`] segments that each start with a set-up, so set-up
/// and measured ops sample the host over the whole run. Untraced, it
/// reports the end-to-end metrics; traced, the per-layer ones.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::new(traced);
    let config =
        tm3270_session::config_named(spec.config).expect("workload config is a suite name");
    let mut tracer = Tracer::new(Instant::now());
    let n = spec.kernels.len();
    let slice = Duration::from_secs_f64(seconds / SETUP_REPEATS as f64);
    let mut setup_s = Vec::new();
    let mut counts = vec![(0u64, 0u64); n];
    let mut halves = [Half::new(n), Half::new(n)];
    let mut sim = SimTotals::default();
    let mut rates = Vec::new();
    let mut measured_ops = 0;
    let mut pass = 0u64;
    for _ in 0..SETUP_REPEATS {
        // Set-up: build every program, then one untimed warm-up pass,
        // which also records each kernel's simulated counts.
        let start = Instant::now();
        tracer.set_enabled(traced);
        let prepared: Vec<Prepared> = spec
            .kernels
            .iter()
            .map(|&name| {
                let kernel = seeded_kernel(name, seed).ok_or(format!("unknown kernel {name}"))?;
                Prepared::build(kernel, &config, seed == 0, &mut tracer)
            })
            .collect::<Result<_, _>>()?;
        tracer.set_enabled(false);
        for (k, p) in prepared.iter().enumerate() {
            let s = out
                .record(run_op(&config, p, spec.profiled, &mut tracer))
                .ok_or(format!("{}: the warm-up run failed", spec.kernels[k]))?;
            counts[k] = (s.stats.instrs, s.stats.cycles);
        }
        setup_s.push(start.elapsed().as_secs_f64());

        // Measured: whole round-robin passes until the slice is up. A
        // traced run alternates untraced and traced passes, so both
        // halves see the same host conditions.
        let start = Instant::now();
        let done = halves[0].completed();
        loop {
            let half = usize::from(traced && pass % 2 == 1);
            tracer.set_enabled(half == 1);
            for (k, p) in prepared.iter().enumerate() {
                tracer.set_op(pass * n as u64 + k as u64);
                measured_ops += 1;
                if let Some(s) = out.record(run_op(&config, p, spec.profiled, &mut tracer)) {
                    halves[half].timed_s[k].push(s.timed_s);
                    if half == 1 {
                        sim.add(&s);
                    }
                }
            }
            pass += 1;
            if start.elapsed() >= slice {
                break;
            }
        }
        rates.push((halves[0].completed() - done) as f64 / start.elapsed().as_secs_f64());
    }
    tracer.set_enabled(false);
    let instrs: Vec<u64> = counts.iter().map(|c| c.0).collect();

    let r = &mut out.report;
    r.set("sim_cycles", counts.iter().map(|c| c.1).sum::<u64>() as f64);
    r.set("sim_instrs", instrs.iter().sum::<u64>() as f64);
    let [plain, spanned] = halves;
    if traced {
        let spans = tracer.into_spans();
        report_layers(r, &spans, &sim);
        r.set(
            "trace.overhead_pct",
            (plain.sim_mips(&instrs) / spanned.sim_mips(&instrs) - 1.0) * 100.0,
        );
        r.set("trace.unattributed_share", unattributed_share(&spans, "op"));
        out.spans = spans;
    } else {
        r.set("sim_mips", plain.sim_mips(&instrs));
        r.set("ops_per_s", median(&rates));
        r.set("op_p50_ms", plain.per_kernel_ms(median));
        r.set("setup_s", median(&setup_s));
        r.set("op_tail_ms", plain.per_kernel_ms(tail));
        r.set("peak_rss_mb", crate::report::peak_rss_mb());
    }
    out.finish(measured_ops);
    Ok(out)
}
