//! Metric names, units and the two output forms: one
//! `workload metric value unit` line per metric, and the final JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by an untraced run of every workload.
pub const E2E: &[(&str, &str)] = &[
    ("sim_mips", "MIPS"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by a traced run of every workload. A
/// layer the workload does not exercise reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("kernels.build_ms", "ms"),
    ("kernels.setup_us", "us"),
    ("kernels.verify_us", "us"),
    ("core.new_us", "us"),
    ("core.run_ns_per_instr", "ns/instr"),
    ("core.fused_share", "ratio"),
    ("core.cpi", "cycles/instr"),
    ("mem.calls_per_instr", "calls/instr"),
    ("mem.window_hit_ratio", "ratio"),
    ("mem.dcache_miss_ratio", "ratio"),
    ("mem.copybacks_per_kinstr", "1/kinstr"),
    ("mem.dram_bytes_per_instr", "B/instr"),
    ("mem.prefetch_hit_ratio", "ratio"),
    ("mem.data_stall_share", "ratio"),
    ("mem.access_ns.resident", "ns"),
    ("mem.access_ns.streaming", "ns"),
    ("mem.access_miss_ratio.resident", "ratio"),
    ("mem.access_miss_ratio.streaming", "ratio"),
    ("obs.events_per_instr", "events/instr"),
    ("session.create_share", "ratio"),
    ("session.load_share", "ratio"),
    ("session.run_share", "ratio"),
    ("session.verify_share", "ratio"),
    ("session.close_share", "ratio"),
    ("session.wire_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
];

/// Printed when set, but not part of the result object: the tail
/// latency (too noisy on a shared host to bound), the simulated work of
/// one pass (exact at seed 0), the measured `ops` behind the medians and
/// percentiles, and `error_rate`.
const EXTRAS: &[(&str, &str)] = &[
    ("op_tail_ms", "ms"),
    ("sim_cycles", "cycles"),
    ("sim_instrs", "instrs"),
    ("ops", "count"),
    ("error_rate", "ratio"),
];

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// The metrics of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub traced: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets a metric of [`E2E`], [`LAYERS`] or the extras.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(E2E, name)
                .or(unit_of(LAYERS, name))
                .or(unit_of(EXTRAS, name))
                .is_some(),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The metrics this run reports: [`E2E`] untraced, [`LAYERS`] traced.
    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            LAYERS
        } else {
            E2E
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// One `workload metric value unit` line per metric and set extra.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        let extras = EXTRAS
            .iter()
            .filter(|(name, _)| self.values.contains_key(name));
        self.table()
            .iter()
            .chain(extras)
            .map(|&(name, unit)| format!("{workload} {name} {} {unit}", self.value(name)))
            .collect()
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .table()
            .iter()
            .map(|&(name, unit)| {
                let value = number(self.value(name));
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            failed == 0,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit `f64` holds (JSON has no NaN or
/// infinity; those read 0).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// A workload run: its metrics, op counts and (traced) spans.
#[derive(Debug, Default)]
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<crate::trace::Span>,
}

/// Failures printed to stderr per run; the rest are only counted.
const SHOWN_FAILURES: u64 = 10;

impl Outcome {
    pub fn new(traced: bool) -> Outcome {
        Outcome {
            report: Report {
                traced,
                ..Report::default()
            },
            ..Outcome::default()
        }
    }

    /// Counts one attempted op and returns its sample if it succeeded.
    pub fn record<T>(&mut self, op: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match op {
            Ok(sample) => Some(sample),
            Err(e) => {
                self.failed += 1;
                if self.failed <= SHOWN_FAILURES {
                    eprintln!("op failed: {e}");
                }
                None
            }
        }
    }

    /// Sets `error_rate` and `ops` (the measured ops behind the medians).
    pub fn finish(&mut self, measured_ops: u64) {
        self.report.set("ops", measured_ops as f64);
        self.report.set(
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_holds_exactly_the_mode_s_metrics() {
        let mut r = Report::default();
        r.set("sim_mips", 12.5);
        r.set("sim_cycles", 100.0);
        let json = r.json(7, 0);
        assert!(json.starts_with("{\"correct\":true,\"attempted\":7,\"failed\":0,\"metrics\":{"));
        assert!(json.contains("\"sim_mips\":{\"value\":12.5,\"unit\":\"MIPS\"}"));
        assert!(
            !json.contains("sim_cycles"),
            "extras stay out of the result"
        );
        assert_eq!(json.matches("\"value\"").count(), E2E.len());
        let lines = r.lines("compute-d");
        assert_eq!(lines[0], "compute-d sim_mips 12.5 MIPS");
        assert!(lines.contains(&"compute-d sim_cycles 100 cycles".to_string()));
        r.traced = true;
        assert_eq!(r.json(1, 1).matches("\"value\"").count(), LAYERS.len());
        assert!(r.json(1, 1).starts_with("{\"correct\":false"));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(number(1.0), "1.0");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "0");
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for &(name, unit) in E2E.iter().chain(LAYERS) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = doc.matches("\"unit\":").count();
        assert_eq!(
            listed,
            E2E.len() + LAYERS.len(),
            "BENCHMARK.json lists other metrics"
        );
    }
}
