//! Observability-overhead benchmark: what tracing costs the simulator.
//!
//! Three paired configurations per workload, interleaved to cancel
//! thermal/frequency drift:
//!
//! * `disabled` — the default [`SinkHandle::disabled`] handle; every
//!   emission site is one not-taken branch. This is the path ordinary
//!   (untraced) runs pay, and the ≤2 % budget applies to it.
//! * `null` — a [`NullSink`] attached: every site pays the branch, the
//!   event construction and a batched (one dynamic dispatch per
//!   [`EMIT_BATCH`](tm3270_obs::EMIT_BATCH) events) discard. An upper
//!   bound on the disabled path's cost.
//! * `counter` — a [`CounterSink`] attached (what `repro_profile` pays).
//! * `profile` — a [`ProfileSink`] attached alone, so the run builds
//!   only the four event kinds it reads (what per-PC attribution pays;
//!   `repro_profile --hotspots` adds a [`CounterSink`], which reads
//!   every kind).
//!
//! Prints one human line per workload plus a final `BENCH_obs` JSON
//! line suitable for `BENCH_obs.json` at the repository root.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use tm3270_core::{Machine, MachineConfig, RunOptions};
use tm3270_kernels::memops::Memcpy;
use tm3270_kernels::pixels::Rgb2Yuv;
use tm3270_kernels::Kernel;
use tm3270_obs::{CounterSink, NullSink, ProfileSink, SinkHandle};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Disabled,
    Null,
    Counter,
    Profile,
}

fn one_run(kernel: &dyn Kernel, config: &MachineConfig, mode: Mode) -> (Duration, u64) {
    let program = kernel.build(&config.issue).unwrap();
    let mut m = Machine::new(config.clone(), program).unwrap();
    match mode {
        Mode::Disabled => {}
        Mode::Null => m.attach_sink(SinkHandle::from(Rc::new(RefCell::new(NullSink)))),
        Mode::Counter => m.attach_sink(SinkHandle::from(Rc::new(RefCell::new(CounterSink::new())))),
        Mode::Profile => {
            let len = m.program().instrs.len();
            m.attach_sink(SinkHandle::from(Rc::new(RefCell::new(ProfileSink::new(
                len,
            )))));
        }
    }
    kernel.setup(&mut m);
    let start = Instant::now();
    let stats = m
        .run_with(RunOptions::budget(1_000_000_000))
        .into_result()
        .unwrap();
    (start.elapsed(), std::hint::black_box(stats.cycles))
}

/// Best-of-`reps` timing, with the four modes interleaved per rep.
fn measure(kernel: &dyn Kernel, config: &MachineConfig, reps: u32) -> [Duration; 4] {
    let modes = [Mode::Disabled, Mode::Null, Mode::Counter, Mode::Profile];
    let mut best = [Duration::MAX; 4];
    // Warm-up: one run per mode, untimed.
    for mode in modes {
        one_run(kernel, config, mode);
    }
    for _ in 0..reps {
        for (i, mode) in modes.into_iter().enumerate() {
            let (t, _) = one_run(kernel, config, mode);
            best[i] = best[i].min(t);
        }
    }
    best
}

fn pct(base: Duration, other: Duration) -> f64 {
    (other.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
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
        let [disabled, null, counter, profile] = measure(kernel.as_ref(), &config, reps);
        println!(
            "obs_overhead/{name:<12} disabled {disabled:>10.2?}   \
             null {null:>10.2?} ({:+.2}%)   counter {counter:>10.2?} ({:+.2}%)   \
             profile {profile:>10.2?} ({:+.2}%)",
            pct(disabled, null),
            pct(disabled, counter),
            pct(disabled, profile)
        );
        json_rows.push(format!(
            "{{\"workload\":\"{name}\",\"disabled_ns\":{},\"null_ns\":{},\
             \"counter_ns\":{},\"profile_ns\":{},\"null_overhead_pct\":{:.2},\
             \"counter_overhead_pct\":{:.2},\"profile_overhead_pct\":{:.2}}}",
            disabled.as_nanos(),
            null.as_nanos(),
            counter.as_nanos(),
            profile.as_nanos(),
            pct(disabled, null),
            pct(disabled, counter),
            pct(disabled, profile)
        ));
    }
    println!(
        "BENCH_obs {{\"reps\":{reps},\"rows\":[{}]}}",
        json_rows.join(",")
    );
}
