//! Simulator-throughput reporter: simulated instructions and cycles per
//! wall-clock second for the repro workloads.
//!
//! ```text
//! repro_simspeed [--workload NAME]... [--config a|b|c|d|tm3270|tm3260]
//!                [--repeats N] [--json] [--list] [--check-golden]
//!                [--min-geomean MIPS]
//! ```
//!
//! With no `--workload` the eleven Table 5 golden kernels are measured.
//! Runs are strictly serial — a throughput number measured while other
//! workloads compete for the core would be meaningless — and each
//! workload reports the fastest of `--repeats` runs (default 3).
//! `--json` emits the `sim_speed` JSON document (see
//! `tm3270_bench::simspeed::speed_json`); CI validates the shape only,
//! never absolute numbers, which are host-dependent. `--check-golden`
//! additionally exits nonzero unless the measured rows are exactly the
//! golden workload registry (all eleven Table 5 kernel names, in
//! registry order, each with positive throughput) — so a workload
//! silently dropped from the registry fails CI instead of shrinking the
//! benchmark. When the measured configuration is one of the four pinned
//! evaluation machines, every row's simulated instruction and cycle
//! counts are additionally asserted against
//! `tm3270_kernels::pinned_counts` — a throughput optimisation that
//! perturbs the simulation itself cannot pass. `--min-geomean` bounds
//! the headline figure from below: useful as a crude regression tripwire
//! on hosts whose baseline comfortably clears the bar, which is why CI
//! applies it with a generous margin rather than a tight one.

use std::process::ExitCode;

use tm3270_bench::cli::Spec;
use tm3270_bench::profile::{find_workload, golden_names, workloads};
use tm3270_bench::simspeed::{geomean_mips, measure_kernel, speed_json, speed_report, SpeedRow};
use tm3270_core::MachineConfig;

struct Args {
    names: Vec<String>,
    config: MachineConfig,
    repeats: u32,
    json: bool,
    check_golden: bool,
    min_geomean: Option<f64>,
}

fn spec() -> Spec {
    Spec::new("repro_simspeed")
        .option(
            "--workload",
            "NAME",
            "workload to measure (repeatable; default golden set)",
        )
        .option("--config", "NAME", "a|b|c|d|tm3270|tm3260 (default tm3270)")
        .option(
            "--repeats",
            "N",
            "runs per workload, fastest wins (default 3)",
        )
        .switch("--json", "emit the sim_speed JSON document")
        .switch("--list", "list available workloads and exit")
        .switch(
            "--check-golden",
            "fail unless rows are exactly the golden registry",
        )
        .option(
            "--min-geomean",
            "MIPS",
            "fail if geomean sim MIPS falls below this bound",
        )
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
            .ok_or_else(|| format!("unknown config {v} (want a|b|c|d|tm3270|tm3260)"))?,
    };
    Ok(Some(Args {
        names: parsed
            .values("--workload")
            .iter()
            .map(|v| v.to_string())
            .collect(),
        config,
        repeats: parsed.parsed("--repeats")?.unwrap_or(3),
        json: parsed.has("--json"),
        check_golden: parsed.has("--check-golden"),
        min_geomean: parsed.parsed("--min-geomean")?,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_simspeed: {e}");
            return ExitCode::from(2);
        }
    };

    let names: Vec<String> = if args.names.is_empty() {
        golden_names().iter().map(|n| n.to_string()).collect()
    } else {
        args.names.clone()
    };

    let mut rows: Vec<SpeedRow> = Vec::new();
    for name in &names {
        let Some(kernel) = find_workload(name) else {
            eprintln!("repro_simspeed: unknown workload {name} (try --list)");
            return ExitCode::from(2);
        };
        match measure_kernel(kernel.as_ref(), &args.config, args.repeats) {
            Ok(row) => rows.push(row),
            Err(e) => {
                eprintln!("repro_simspeed: {name}: {e}");
                return ExitCode::from(1);
            }
        }
    }

    if args.json {
        println!("{}", speed_json(&args.config, &rows));
    } else {
        print!("{}", speed_report(&args.config, &rows));
    }

    if args.check_golden {
        if let Err(e) = check_golden(&args.config, &rows) {
            eprintln!("repro_simspeed: golden-registry check failed: {e}");
            return ExitCode::from(1);
        }
        eprintln!(
            "repro_simspeed: golden-registry check OK ({} kernels on {})",
            rows.len(),
            args.config.name
        );
    }
    if let Some(floor) = args.min_geomean {
        let geomean = geomean_mips(&rows);
        // A NaN geomean (empty row set) must fail the floor, not pass it.
        if geomean.is_nan() || geomean < floor {
            eprintln!(
                "repro_simspeed: geomean {geomean:.2} sim MIPS below the \
                 --min-geomean floor of {floor:.2}"
            );
            return ExitCode::from(1);
        }
        eprintln!("repro_simspeed: geomean {geomean:.2} sim MIPS >= floor {floor:.2}");
    }
    ExitCode::SUCCESS
}

/// Validates measured rows against the golden workload registry:
/// exactly the eleven Table 5 kernel names in registry order, each with
/// positive instruction/cycle counts and throughput. On a pinned
/// evaluation configuration, each row's simulated instruction and cycle
/// counts must also equal the `tm3270_kernels::pinned_counts` entry —
/// the throughput path is only allowed to be fast, never to change what
/// is simulated.
fn check_golden(config: &MachineConfig, rows: &[SpeedRow]) -> Result<(), String> {
    let expected = golden_names();
    if rows.len() != expected.len() {
        return Err(format!(
            "{} rows measured, registry has {} golden kernels",
            rows.len(),
            expected.len()
        ));
    }
    for (row, want) in rows.iter().zip(&expected) {
        if row.workload != *want {
            return Err(format!(
                "row {:?} where registry expects {want:?}",
                row.workload
            ));
        }
        if row.instrs == 0 || row.cycles == 0 || row.sim_mips() <= 0.0 || row.sim_mcps() <= 0.0 {
            return Err(format!(
                "non-positive measurement for {:?}: {row:?}",
                row.workload
            ));
        }
        if let Some((instrs, cycles)) = tm3270_kernels::pinned_counts(config.name, &row.workload) {
            if (row.instrs, row.cycles) != (instrs, cycles) {
                return Err(format!(
                    "{} on {}: measured {} instrs / {} cycles, pinned golden is \
                     {instrs} / {cycles}",
                    row.workload, config.name, row.instrs, row.cycles
                ));
            }
        }
    }
    // The per-kernel geomean is the headline throughput figure
    // (BENCH_sim_speed.json); it must exist and be finite whenever the
    // golden registry is intact.
    let geomean = geomean_mips(rows);
    if !geomean.is_finite() || geomean <= 0.0 {
        return Err(format!("degenerate geomean sim MIPS: {geomean}"));
    }
    Ok(())
}
