//! Observability-overhead benchmark: what tracing costs the simulator.
//!
//! Four modes per workload, interleaved to cancel thermal/frequency
//! drift:
//!
//! * `disabled` — the default [`SinkHandle::disabled`] handle; every
//!   emission site is one not-taken branch. This is the path ordinary
//!   (untraced) runs pay, and the ≤2 % budget applies to it.
//! * `null` — a [`NullSink`] attached: every site pays the branch, the
//!   event construction and a batched (one dynamic dispatch per
//!   [`EMIT_BATCH`](tm3270_obs::EMIT_BATCH) events) discard of every
//!   kind. An upper bound on the disabled path's cost.
//! * `counter` — a [`CounterSink`] attached alone (what `repro_profile`
//!   pays without `--hotspots`), bound to [`CounterSink::READS`].
//! * `profile` — a [`ProfileSink`] attached alone, bound to the four
//!   kinds it reads (what per-PC attribution pays; `repro_profile
//!   --hotspots` reads the union of both sinks' kinds).
//!
//! A timed rep repeats the run on fresh machines (built outside the
//! timed scope) until it holds at least [`REP_TARGET`] of untraced
//! simulation. Beside each time the bench prints events delivered per
//! instruction, a count of the work no code layout can move. Prints
//! one line per workload and a final `BENCH_obs` JSON line for
//! `BENCH_obs.json`; the first argument sets the reps (default 15).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use tm3270_core::{Machine, MachineConfig, RunOptions};
use tm3270_kernels::memops::Memcpy;
use tm3270_kernels::pixels::Rgb2Yuv;
use tm3270_kernels::Kernel;
use tm3270_obs::{
    CounterSink, EventKinds, NullSink, ProfileSink, SinkHandle, TraceEvent, TraceSink,
};

/// Least untraced simulation time in one timed rep.
const REP_TARGET: Duration = Duration::from_millis(10);

const MODES: [&str; 4] = ["disabled", "null", "counter", "profile"];

/// Forwards to the mode's sink and counts the events delivered to it
/// (one add per staged batch).
struct Counted(Box<dyn TraceSink>, u64);

impl TraceSink for Counted {
    fn event(&mut self, event: &TraceEvent) {
        self.batch(std::slice::from_ref(event));
    }

    fn batch(&mut self, events: &[TraceEvent]) {
        self.1 += events.len() as u64;
        self.0.batch(events);
    }

    fn bind(&mut self, ops_per_instr: &[u8]) -> EventKinds {
        self.0.bind(ops_per_instr)
    }
}

/// One timed rep: summed run time, events delivered, instructions.
type Rep = (Duration, u64, u64);

/// Best-of-`reps` rep per mode, the four modes interleaved per rep, and
/// the runs per rep: doubled from one until an untimed disabled rep
/// reaches 1.5 × [`REP_TARGET`], so host jitter rarely drops a timed rep
/// below the target.
fn measure(kernel: &dyn Kernel, config: &MachineConfig, reps: u32) -> ([Rep; 4], u32) {
    let program = kernel.build(&config.issue).unwrap();
    // `runs` runs in `mode`, each on a freshly built and set-up machine;
    // only `run_with` is timed.
    let rep = |mode: &str, runs: u32| -> Rep {
        let (mut time, mut events, mut instrs) = (Duration::ZERO, 0, 0);
        for _ in 0..runs {
            let mut m = Machine::new(config.clone(), program.clone()).unwrap();
            let inner: Option<Box<dyn TraceSink>> = match mode {
                "null" => Some(Box::new(NullSink)),
                "counter" => Some(Box::new(CounterSink::new())),
                "profile" => Some(Box::new(ProfileSink::new(m.program().instrs.len()))),
                _ => None,
            };
            let counted = inner.map(|inner| Rc::new(RefCell::new(Counted(inner, 0))));
            if let Some(c) = &counted {
                m.attach_sink(SinkHandle::from(c.clone()));
            }
            kernel.setup(&mut m);
            let start = Instant::now();
            let stats = m.run_with(RunOptions::budget(1_000_000_000)).into_result();
            time += start.elapsed();
            instrs += stats.unwrap().instrs;
            events += counted.map_or(0, |c| c.borrow().1);
        }
        (time, events, instrs)
    };
    let _warm_up = MODES.map(|mode| rep(mode, 1));
    let mut runs = 1;
    while rep(MODES[0], runs).0 < REP_TARGET * 3 / 2 {
        runs *= 2;
    }
    let mut best = [(Duration::MAX, 0, 0); 4];
    for _ in 0..reps {
        for (b, mode) in best.iter_mut().zip(MODES) {
            let r = rep(mode, runs);
            if r.0 < b.0 {
                *b = r;
            }
        }
    }
    (best, runs)
}

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);
    let config = MachineConfig::tm3270();
    let workloads: Vec<(&str, Box<dyn Kernel>)> = vec![
        (
            "memcpy_4k",
            Box::new(Memcpy {
                size: 4096,
                seed: 1,
            }),
        ),
        ("rgb2yuv_1k", Box::new(Rgb2Yuv::with_pixels(1024, 2))),
    ];
    let mut json_rows = Vec::new();
    for (name, kernel) in &workloads {
        let (best, runs) = measure(kernel.as_ref(), &config, reps);
        let mut text = format!("obs_overhead/{name:<11} x{runs:<4}");
        let mut json = format!(
            "{{\"workload\":\"{name}\",\"runs_per_rep\":{runs},\"instrs_per_rep\":{}",
            best[0].2
        );
        for (mode, (time, events, instrs)) in MODES.iter().zip(best) {
            let pct = (time.as_secs_f64() / best[0].0.as_secs_f64() - 1.0) * 100.0;
            let per_instr = events as f64 / instrs.max(1) as f64;
            text += &format!("  {mode} {time:>9.2?} ({pct:+6.1}%, {per_instr:.2} ev/i)");
            json += &format!(
                ",\"{mode}_ns\":{},\"{mode}_overhead_pct\":{pct:.2},\
                 \"{mode}_events_per_instr\":{per_instr:.3}",
                time.as_nanos()
            );
        }
        println!("{text}");
        json_rows.push(json + "}");
    }
    println!(
        "BENCH_obs {{\"reps\":{reps},\"rows\":[{}]}}",
        json_rows.join(",")
    );
}
