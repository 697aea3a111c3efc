//! Workload profiler: stall attribution, utilization histograms and
//! Chrome `trace_event` timelines for the repro workloads.
//!
//! ```text
//! repro_profile [--workload NAME]... [--all] [--config a|b|c|d]
//!               [--threads N] [--json] [--chrome-trace PATH]
//!               [--hotspots] [--top N] [--timeline K] [--list]
//! ```
//!
//! With no `--workload` the eleven Table 5 golden kernels are profiled.
//! Workloads fan out over the `tm3270-harness` sweep engine
//! (`--threads 0`, the default, uses every core; `--threads 1` forces a
//! serial run); profiles are reported in workload order, so the output
//! is identical at any thread count. `--json` replaces the text reports
//! with a JSON array of profile objects; `--chrome-trace` additionally
//! records a Chrome `trace_event` timeline (requires exactly one
//! workload) loadable in `chrome://tracing` or Perfetto.
//!
//! `--hotspots` records exact per-PC attribution, summed over the
//! program's block spans (`tm3270_encode::superblocks`; `--top N` sets the
//! table size); `--timeline K` records an interval timeline sampling
//! every counter each K cycles, exported in the JSON report and as
//! Chrome counter tracks when combined with `--chrome-trace`.
//!
//! Every profiled run is checked for cycle conservation — the stall
//! buckets must sum exactly to the run's total cycles, and with
//! `--hotspots`/`--timeline` the per-PC buckets and interval deltas
//! must too. A workload that fails (it cannot be built for the
//! configuration, its run or verification fails, or it violates
//! conservation) is reported as a failed row in its place, beside the
//! profiles that built, and the profiler then exits 1.

use std::process::ExitCode;

use tm3270_bench::cli::Spec;
use tm3270_bench::profile::{
    find_workload, golden_names, profile_sweep, workloads, FailedProfile, Profile, ProfileOptions,
};
use tm3270_core::MachineConfig;

struct Args {
    names: Vec<String>,
    all: bool,
    config: MachineConfig,
    threads: usize,
    json: bool,
    chrome_trace: Option<String>,
    hotspots: bool,
    top: usize,
    timeline: Option<u64>,
}

fn spec() -> Spec {
    Spec::new("repro_profile")
        .option(
            "--workload",
            "NAME",
            "workload to profile (repeatable; default golden set)",
        )
        .switch("--all", "profile every registry workload")
        .option("--config", "NAME", "a|b|c|d (default tm3270)")
        .option("--threads", "N", "sweep worker threads (0 = all cores)")
        .switch("--json", "emit JSON profile objects")
        .option(
            "--chrome-trace",
            "PATH",
            "record a Chrome trace_event timeline",
        )
        .switch("--hotspots", "record per-PC hot-spot attribution")
        .option("--top", "N", "hot-spot table size (default 10)")
        .option(
            "--timeline",
            "K",
            "sample an interval timeline every K cycles",
        )
        .switch("--list", "list available workloads and exit")
}

fn parse_args() -> Result<Option<Args>, String> {
    let Some(parsed) = spec().parse_env()? else {
        return Ok(None);
    };
    if parsed.has("--list") {
        for kernel in workloads() {
            println!("{}", kernel.name());
        }
        return Ok(None);
    }
    let config = match parsed.value("--config") {
        None => MachineConfig::tm3270(),
        Some(v) => tm3270_session::config_named(v)
            .ok_or_else(|| format!("unknown config {v} (want a|b|c|d)"))?,
    };
    let timeline = parsed.parsed("--timeline")?;
    if timeline == Some(0) {
        return Err("--timeline interval must be >= 1".into());
    }
    let args = Args {
        names: parsed
            .values("--workload")
            .iter()
            .map(|v| v.to_string())
            .collect(),
        all: parsed.has("--all"),
        config,
        threads: parsed.parsed("--threads")?.unwrap_or(0),
        json: parsed.has("--json"),
        chrome_trace: parsed.value("--chrome-trace").map(|v| v.to_string()),
        hotspots: parsed.has("--hotspots"),
        top: parsed.parsed("--top")?.unwrap_or(10),
        timeline,
    };
    if args.chrome_trace.is_some() && (args.all || args.names.len() != 1) {
        return Err("--chrome-trace requires exactly one --workload".into());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_profile: {e}");
            return ExitCode::from(2);
        }
    };

    let names: Vec<String> = if args.all {
        workloads().iter().map(|k| k.name().to_string()).collect()
    } else if args.names.is_empty() {
        golden_names().iter().map(|n| n.to_string()).collect()
    } else {
        args.names.clone()
    };

    for name in &names {
        if find_workload(name).is_none() {
            eprintln!("repro_profile: unknown workload {name} (try --list)");
            return ExitCode::from(2);
        }
    }

    let popts = ProfileOptions {
        chrome: args.chrome_trace.is_some(),
        hotspots: args.hotspots,
        top: args.top,
        timeline: args.timeline,
    };
    let rows = profile_sweep(&names, &args.config, &popts, args.threads);
    let failed: Vec<&FailedProfile> = rows.iter().filter_map(|r| r.as_ref().err()).collect();
    for f in &failed {
        eprintln!("repro_profile: {}: {}", f.workload, f.error);
    }

    if let (Some(path), Some(Ok(profile))) = (&args.chrome_trace, rows.first()) {
        let trace = profile
            .chrome_trace
            .as_deref()
            .unwrap_or("{\"traceEvents\":[]}");
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("repro_profile: writing {path}: {e}");
            return ExitCode::from(1);
        }
        if !args.json {
            println!("chrome trace written to {path}");
        }
    }

    if args.json {
        let objects: Vec<String> = (rows.iter())
            .map(|r| {
                r.as_ref()
                    .map_or_else(FailedProfile::to_json, Profile::to_json)
            })
            .collect();
        println!("[{}]", objects.join(","));
    } else {
        for row in &rows {
            print!(
                "{}",
                row.as_ref()
                    .map_or_else(FailedProfile::report, Profile::report)
            );
            println!();
        }
        let profiled = rows.len() - failed.len();
        if failed.is_empty() {
            println!("OK: {profiled} workload(s) profiled, stall buckets conserve cycles on all");
        } else {
            println!(
                "FAILED: {} of {} workload(s) failed; {profiled} profiled, \
                 stall buckets conserve cycles on those",
                failed.len(),
                rows.len()
            );
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
