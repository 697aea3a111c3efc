//! Simulator-throughput measurement: how fast the host simulates, in
//! simulated VLIW instructions and cycles per wall-clock second.
//!
//! The paper's evaluation runs full media workloads through the
//! cycle-approximate core, and the sweep engine fans entire
//! (workload × config × seed) grids out over it — so host-side simulator
//! speed directly bounds how much evaluation the repo can afford. This
//! module times the eleven Table 5 golden kernels (or any registry
//! workload) end-to-end through [`Machine::run_with`] and reports simulated
//! MIPS (million instructions per second) and MCPS (million cycles per
//! second), the standard figures of merit for instruction-set
//! simulators.
//!
//! Wall-clock numbers are inherently host-dependent: CI validates only
//! the JSON shape, never absolute throughput. The checked-in
//! `BENCH_sim_speed.json` records measured before/after numbers for the
//! predecoded-engine optimization.

use std::time::Instant;

use tm3270_core::counters::{CYCLES, INSTRS};
use tm3270_core::{Machine, MachineConfig, RunOptions};
use tm3270_kernels::{Kernel, KernelError};
use tm3270_obs::json;

/// The measured throughput of one workload on one configuration.
#[derive(Debug, Clone)]
pub struct SpeedRow {
    /// Workload registry name.
    pub workload: String,
    /// Simulated VLIW instructions issued by one run.
    pub instrs: u64,
    /// Simulated cycles of one run.
    pub cycles: u64,
    /// Best-of-repeats wall-clock seconds for one run (program build and
    /// verification excluded; machine construction and data setup
    /// included, as a sweep pays them per run too).
    pub wall_s: f64,
    /// Full `MemorySystem` calls the fused engine made (per run):
    /// demand accesses and cache-control ops. `mem_calls / instrs` is the
    /// calls-per-instruction cost metric of EXPERIMENTS.md §Simulator
    /// throughput.
    pub mem_calls: u64,
}

impl SpeedRow {
    /// Simulated instructions per wall-clock second, in millions.
    pub fn sim_mips(&self) -> f64 {
        self.instrs as f64 / self.wall_s.max(1e-12) / 1e6
    }

    /// Simulated cycles per wall-clock second, in millions.
    pub fn sim_mcps(&self) -> f64 {
        self.cycles as f64 / self.wall_s.max(1e-12) / 1e6
    }
}

/// Times `kernel` on `config`: builds the program once, then runs it
/// `repeats` times on fresh machines and keeps the fastest run
/// (minimum over repeats rejects scheduler noise better than the mean).
/// The run is verified once against the golden reference so a
/// mis-simulating engine cannot report a throughput number.
///
/// # Errors
///
/// See [`KernelError`].
pub fn measure_kernel(
    kernel: &dyn Kernel,
    config: &MachineConfig,
    repeats: u32,
) -> Result<SpeedRow, KernelError> {
    let program = kernel.build(&config.issue)?;
    let mut best = f64::INFINITY;
    let mut instrs = 0u64;
    let mut cycles = 0u64;
    let mut telemetry = tm3270_core::EngineTelemetry::default();
    for rep in 0..repeats.max(1) {
        let start = Instant::now();
        let mut machine = Machine::new(config.clone(), program.clone())?;
        kernel.setup(&mut machine);
        let stats = machine
            .run_with(RunOptions::budget(kernel.cycle_budget()))
            .into_result()?;
        let wall = start.elapsed().as_secs_f64();
        if rep == 0 {
            kernel.verify(&machine).map_err(KernelError::Verify)?;
        }
        best = best.min(wall);
        instrs = stats.instrs;
        cycles = stats.cycles;
        telemetry = machine.engine_telemetry();
    }
    Ok(SpeedRow {
        workload: kernel.name().to_string(),
        instrs,
        cycles,
        wall_s: best,
        mem_calls: telemetry.mem_calls,
    })
}

/// Aggregates rows into suite totals: summed instruction/cycle/wall
/// counts (the wall-clock of running the whole suite back to back).
#[derive(Debug, Clone, Copy)]
pub struct SpeedTotal {
    /// Total simulated instructions.
    pub instrs: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total wall-clock seconds.
    pub wall_s: f64,
}

impl SpeedTotal {
    /// Sums `rows`.
    pub fn of(rows: &[SpeedRow]) -> SpeedTotal {
        SpeedTotal {
            instrs: rows.iter().map(|r| r.instrs).sum(),
            cycles: rows.iter().map(|r| r.cycles).sum(),
            wall_s: rows.iter().map(|r| r.wall_s).sum(),
        }
    }

    /// Suite-level simulated MIPS.
    pub fn sim_mips(&self) -> f64 {
        self.instrs as f64 / self.wall_s.max(1e-12) / 1e6
    }

    /// Suite-level simulated MCPS.
    pub fn sim_mcps(&self) -> f64 {
        self.cycles as f64 / self.wall_s.max(1e-12) / 1e6
    }
}

/// Geometric mean of the per-row sim-MIPS figures: the per-kernel
/// throughput summary. Unlike the suite total (which weights by
/// wall-clock and lets the long kernels dominate), every kernel counts
/// equally — a regression on the smallest workload moves it as much as
/// one on the largest. `0.0` for an empty row set.
pub fn geomean_mips(rows: &[SpeedRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = rows.iter().map(|r| r.sim_mips().max(1e-12).ln()).sum();
    (log_sum / rows.len() as f64).exp()
}

/// Renders measured rows as one JSON document (hand-rolled like the rest
/// of the repo's JSON; no serde). Shape:
///
/// ```json
/// {"bench":"sim_speed","config":"...","rows":[{"workload":"memset",
///  "instrs":8195,"cycles":9252,"wall_ms":1.5,"sim_mips":5.4,
///  "sim_mcps":6.1}],"total":{"instrs":...,"cycles":...,"wall_ms":...,
///  "sim_mips":...,"sim_mcps":...}}
/// ```
pub fn speed_json(config: &MachineConfig, rows: &[SpeedRow]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\":{},\"{}\":{},\"{}\":{},\
                 \"wall_ms\":{},\"sim_mips\":{},\"sim_mcps\":{},\
                 \"mem_calls\":{}}}",
                json::string(&r.workload),
                INSTRS.key,
                r.instrs,
                CYCLES.key,
                r.cycles,
                json::number(r.wall_s * 1e3),
                json::number(r.sim_mips()),
                json::number(r.sim_mcps()),
                r.mem_calls,
            )
        })
        .collect();
    let total = SpeedTotal::of(rows);
    format!(
        "{{\"bench\":\"sim_speed\",\"config\":{},\"rows\":[{}],\
         \"total\":{{\"{}\":{},\"{}\":{},\"wall_ms\":{},\
         \"sim_mips\":{},\"sim_mcps\":{},\"geomean_sim_mips\":{}}}}}",
        json::string(config.name),
        body.join(","),
        INSTRS.key,
        total.instrs,
        CYCLES.key,
        total.cycles,
        json::number(total.wall_s * 1e3),
        json::number(total.sim_mips()),
        json::number(total.sim_mcps()),
        json::number(geomean_mips(rows)),
    )
}

/// Renders rows as an aligned text table.
pub fn speed_report(config: &MachineConfig, rows: &[SpeedRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Simulator throughput on {}", config.name);
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "workload", "instrs", "cycles", "wall ms", "sim MIPS", "sim MCPS", "mem/i"
    );
    for r in rows {
        let mem_per_instr = r.mem_calls as f64 / (r.instrs.max(1)) as f64;
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>10.2} {:>10.2} {:>10.2} {:>8.3}",
            r.workload,
            r.instrs,
            r.cycles,
            r.wall_s * 1e3,
            r.sim_mips(),
            r.sim_mcps(),
            mem_per_instr
        );
    }
    let total = SpeedTotal::of(rows);
    let mem_calls: u64 = rows.iter().map(|r| r.mem_calls).sum();
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>10.2} {:>10.2} {:>10.2} {:>8.3}",
        "TOTAL",
        total.instrs,
        total.cycles,
        total.wall_s * 1e3,
        total.sim_mips(),
        total.sim_mcps(),
        mem_calls as f64 / (total.instrs.max(1)) as f64
    );
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>10} {:>10.2} {:>10} {:>8}",
        "GEOMEAN",
        "-",
        "-",
        "-",
        geomean_mips(rows),
        "-",
        "-"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm3270_kernels::find_workload;

    #[test]
    fn measure_reports_consistent_counts() {
        let kernel = find_workload(20, "memset").unwrap().into_kernel();
        let config = MachineConfig::tm3270();
        let row = measure_kernel(kernel.as_ref(), &config, 1).unwrap();
        assert_eq!(row.workload, "memset");
        assert!(row.instrs > 0 && row.cycles >= row.instrs);
        assert!(row.wall_s > 0.0);
        assert!(row.sim_mips() > 0.0 && row.sim_mcps() >= row.sim_mips());
    }

    #[test]
    fn json_shape_is_stable() {
        let rows = vec![SpeedRow {
            workload: "memset".into(),
            instrs: 100,
            cycles: 150,
            wall_s: 0.002,
            mem_calls: 40,
        }];
        let doc = speed_json(&MachineConfig::tm3270(), &rows);
        for needle in [
            "\"bench\":\"sim_speed\"",
            "\"rows\":[",
            "\"workload\":\"memset\"",
            "\"instrs\":100",
            "\"cycles\":150",
            "\"wall_ms\":2",
            "\"sim_mips\":",
            "\"sim_mcps\":",
            "\"mem_calls\":40",
            "\"total\":{",
            "\"geomean_sim_mips\":",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
    }

    #[test]
    fn geomean_weights_rows_equally() {
        let row = |mips: f64| SpeedRow {
            workload: "w".into(),
            instrs: 1_000_000,
            cycles: 1_000_000,
            wall_s: 1.0 / mips,
            mem_calls: 0,
        };
        // Geomean of {4, 16} is 8 regardless of how long each row ran.
        let rows = vec![row(4.0), row(16.0)];
        let g = geomean_mips(&rows);
        assert!((g - 8.0).abs() < 1e-9, "geomean {g} != 8");
        // A single row's geomean is the row itself.
        let one = geomean_mips(&rows[..1]);
        assert!((one - 4.0).abs() < 1e-9, "geomean {one} != 4");
        assert_eq!(geomean_mips(&[]), 0.0);
        // The text table and JSON both carry it.
        let report = speed_report(&MachineConfig::tm3270(), &rows);
        assert!(report.contains("GEOMEAN"), "no GEOMEAN row in {report}");
    }
}
