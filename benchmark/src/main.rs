//! The TM3270 simulator benchmark: four workloads, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one. See
//! README.md for the workloads, the metrics and how to compare commits.

mod kernels;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::{number, Outcome};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

const WORKLOADS: [&str; 4] = ["compute-d", "memory-a", "traced-d", "serve"];

const USAGE: &str = "usage: tm3270-benchmark [--workload NAME]... [--seed N] [--seconds S] \
[--trace 0|1] [--spans PATH]
  --workload  compute-d, memory-a, traced-d or serve (default: all four,
              each in a child process of its own)
  --seed      input seed (default 0: the Table 5 inputs, held to pinned counts)
  --seconds   measured seconds per workload (default 30)
  --trace     1: report per-layer metrics from spans instead of end-to-end ones
  --spans     with --trace 1, write the spans as JSON lines to PATH
              (one file per workload, PATH with .<workload>.jsonl, when several)";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workloads.push(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.spans.is_some() && !a.trace {
        return Err("--spans needs --trace 1".to_string());
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(a)
}

/// Runs one workload in this process.
fn run_one(workload: &str, a: &Args) -> Result<Outcome, String> {
    let mut out = match workload {
        "compute-d" => kernels::run(&kernels::COMPUTE_D, a.seed, a.seconds, a.trace),
        "memory-a" => kernels::run(&kernels::MEMORY_A, a.seed, a.seconds, a.trace),
        "traced-d" => kernels::run(&kernels::TRACED_D, a.seed, a.seconds, a.trace),
        "serve" => serve::run(a.seconds, a.trace),
        _ => unreachable!("workload names are checked while parsing"),
    }?;
    if a.trace {
        // Half the D$ of the probe's configuration, and 64 times it.
        let resident = probe::access_probe(a.seed, 8 << 10);
        let streaming = probe::access_probe(a.seed, 1 << 20);
        let r = &mut out.report;
        r.set("mem.access_ns.resident", resident.ns_per_access);
        r.set("mem.access_miss_ratio.resident", resident.miss_ratio);
        r.set("mem.access_ns.streaming", streaming.ns_per_access);
        r.set("mem.access_miss_ratio.streaming", streaming.miss_ratio);
    }
    if let Some(path) = &a.spans {
        let mut w =
            BufWriter::new(File::create(path).map_err(|e| format!("{}: {e}", path.display()))?);
        trace::write_jsonl(&out.spans, &mut w)
            .and_then(|()| w.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Runs every workload in a child process of its own, so set-up time and
/// peak memory are per workload, and ends with one JSON document of all
/// their metrics and extras.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut all_ok = true;
    let mut docs = Vec::new();
    for w in &a.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &a.seed.to_string()]);
        cmd.args([
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if a.trace { "1" } else { "0" },
        ]);
        if let Some(path) = &a.spans {
            cmd.arg("--spans").arg(per_workload(path, w));
        }
        let child = cmd.output().map_err(|e| format!("{w}: {e}"))?;
        all_ok &= child.status.success();
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let Some(result) = lines.pop().filter(|l| l.starts_with('{')) else {
            eprintln!("benchmark: {w} printed no result ({})", child.status);
            continue;
        };
        let mut metrics = Vec::new();
        for line in &lines {
            println!("{line}");
            if let [_, name, value, unit] = line.split_whitespace().collect::<Vec<_>>()[..] {
                let value: f64 = value.parse().map_err(|e| format!("{w}: {line}: {e}"))?;
                metrics.push(format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    number(value)
                ));
            }
        }
        let field = |key| tm3270_obs::json::u64_field(result, key).unwrap_or(0);
        docs.push(format!(
            "\"{w}\":{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            result.contains("\"correct\":true"),
            field("attempted"),
            field("failed"),
            metrics.join(",")
        ));
    }
    println!(
        "{{\"seed\":{},\"seconds\":{},\"trace\":{},\"workloads\":{{{}}}}}",
        a.seed,
        number(a.seconds),
        u8::from(a.trace),
        docs.join(",")
    );
    Ok(all_ok)
}

/// `spans.jsonl` → `spans.<workload>.jsonl`.
fn per_workload(path: &Path, workload: &str) -> PathBuf {
    path.with_extension(format!("{workload}.jsonl"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let a = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let [w] = &a.workloads[..] {
        run_one(w, &a).map(|out| {
            for line in out.report.lines(w) {
                println!("{line}");
            }
            println!("{}", out.report.json(out.attempted, out.failed));
            out.failed == 0
        })
    } else {
        run_all(&a)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_every_flag_and_rejects_bad_ones() {
        let a = args("--workload serve --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workloads, ["serve"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        let all = args("").unwrap();
        assert_eq!(all.workloads, WORKLOADS);
        assert_eq!((all.seed, all.seconds, all.trace), (0, 30.0, false));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed -1",
            "--spans x",
            "--seed",
            "--bogus",
        ] {
            assert!(args(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn release_profile_matches_the_root_manifest() {
        let profile = |path: &str| -> String {
            let text = std::fs::read_to_string(path).expect(path);
            let start = text
                .find("[profile.release]")
                .expect("a [profile.release] table");
            text[start..]
                .lines()
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let root = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        let ours = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(ours, root);
    }

    #[test]
    fn span_files_are_per_workload() {
        assert_eq!(
            per_workload(Path::new("out/spans.jsonl"), "serve"),
            PathBuf::from("out/spans.serve.jsonl")
        );
    }
}
