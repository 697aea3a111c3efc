//! CI shape-check for `repro_profile --hotspots --timeline K --json`.
//!
//! Reads the JSON document from stdin; every CLI argument names a
//! workload that must be present. Validates the document with the
//! dependency-free `tm3270_obs::json` field scanners and re-checks the
//! conservation guarantees from the outside:
//!
//! * stall buckets sum to `cycles`,
//! * `hotspots.total_cycles` equals `cycles` and the per-block cycle
//!   sum equals `hotspots.total_cycles`,
//! * the per-block `ops` and `exec_ops` (which the profile derives from
//!   instruction issues and the static op table) sum to the per-slot
//!   `ops_per_slot` and `executed_per_slot` totals (counted per op),
//! * timeline interval deltas sum back to the bucket totals and every
//!   consumed event lands in exactly one sample.
//!
//! Exits nonzero with a message on the first violation, so `ci.sh` and
//! the workflow smoke fail loudly on a shape or conservation break.
//!
//! ```sh
//! repro_profile --workload memset --workload rgb2yuv \
//!     --hotspots --timeline 1000 --json \
//!   | cargo run --release -p tm3270-bench --example validate_profile_json -- \
//!       memset rgb2yuv
//! ```

use std::io::Read as _;
use tm3270_obs::json;

fn fail(msg: &str) -> ! {
    eprintln!("validate_profile_json: FAIL: {msg}");
    std::process::exit(1)
}

/// Sums every `"key":<digits>` occurrence inside `doc`.
fn sum_field(doc: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    doc.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &doc[i + needle.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<u64>().unwrap_or(0)
        })
        .sum()
}

/// Sums the unsigned integers of the `"key":[a,b,...]` array in `doc`.
fn sum_array(doc: &str, key: &str, what: &str) -> u64 {
    let needle = format!("\"{key}\":[");
    let at = doc
        .find(&needle)
        .unwrap_or_else(|| fail(&format!("{what}: missing \"{key}\"")));
    let rest = &doc[at + needle.len()..];
    let end = rest
        .find(']')
        .unwrap_or_else(|| fail(&format!("{what}: unterminated \"{key}\"")));
    rest[..end]
        .split(',')
        .map(|n| {
            n.trim()
                .parse::<u64>()
                .unwrap_or_else(|_| fail(&format!("{what}: bad \"{key}\" entry {n:?}")))
        })
        .sum()
}

fn require(seg: &str, key: &str, what: &str) -> u64 {
    json::u64_field(seg, key).unwrap_or_else(|| fail(&format!("{what}: missing \"{key}\"")))
}

fn validate(workload: &str, seg: &str) {
    // Top-level fields live before the hotspots section; slicing keeps
    // the first-occurrence scanners from matching nested keys.
    let hs_at = seg
        .find("\"hotspots\":")
        .unwrap_or_else(|| fail(&format!("{workload}: missing \"hotspots\" section")));
    let tl_at = seg
        .find("\"timeline\":")
        .unwrap_or_else(|| fail(&format!("{workload}: missing \"timeline\" section")));
    let (top, hs, tl) = (&seg[..hs_at], &seg[hs_at..tl_at], &seg[tl_at..]);

    let cycles = require(top, "cycles", workload);
    let buckets_at = top
        .find("\"buckets\":")
        .unwrap_or_else(|| fail(&format!("{workload}: missing \"buckets\"")));
    let buckets = &top[buckets_at..];
    let issue = require(buckets, "issue", workload);
    let ifetch = require(buckets, "ifetch_stall", workload);
    let data = require(buckets, "data_stall", workload);
    let idle = require(buckets, "watchdog_idle", workload);
    if issue + ifetch + data + idle != cycles {
        fail(&format!(
            "{workload}: buckets {issue}+{ifetch}+{data}+{idle} != {cycles} cycles"
        ));
    }

    let total = require(hs, "total_cycles", workload);
    if total != cycles {
        fail(&format!(
            "{workload}: hotspots.total_cycles {total} != {cycles} cycles"
        ));
    }
    let blocks_at = hs
        .find("\"blocks\":[")
        .unwrap_or_else(|| fail(&format!("{workload}: missing hotspot \"blocks\"")));
    let block_sum = sum_field(&hs[blocks_at..], "cycles");
    if block_sum != total {
        fail(&format!(
            "{workload}: hotspot block cycles {block_sum} != total_cycles {total}"
        ));
    }

    for (block_key, slot_key) in [("ops", "ops_per_slot"), ("exec_ops", "executed_per_slot")] {
        let blocks = sum_field(&hs[blocks_at..], block_key);
        let slots = sum_array(top, slot_key, workload);
        if blocks != slots {
            fail(&format!(
                "{workload}: hotspot block {block_key} {blocks} != Σ {slot_key} {slots}"
            ));
        }
    }

    let interval = require(tl, "interval", workload);
    if interval == 0 {
        fail(&format!("{workload}: timeline interval must be >= 1"));
    }
    let samples_at = tl
        .find("\"samples\":[")
        .unwrap_or_else(|| fail(&format!("{workload}: missing timeline \"samples\"")));
    let samples = &tl[samples_at..];
    let checks = [
        ("issue", sum_field(samples, "issue"), issue + idle),
        ("ifetch_stall", sum_field(samples, "ifetch_stall"), ifetch),
        ("data_stall", sum_field(samples, "data_stall"), data),
        (
            "events",
            sum_field(samples, "events"),
            require(top, "events", workload),
        ),
    ];
    for (key, got, want) in checks {
        if got != want {
            fail(&format!(
                "{workload}: timeline {key} deltas sum to {got}, expected {want}"
            ));
        }
    }
    println!(
        "validate_profile_json: {workload} OK ({cycles} cycles, {block_sum} in blocks, \
         interval {interval})"
    );
}

fn main() {
    let want: Vec<String> = std::env::args().skip(1).collect();
    if want.is_empty() {
        fail("usage: validate_profile_json <workload>... < profile.json");
    }
    let mut doc = String::new();
    std::io::stdin()
        .read_to_string(&mut doc)
        .unwrap_or_else(|e| fail(&format!("stdin: {e}")));

    // Split the top-level array into per-workload segments at each
    // "workload" key; a segment runs to the start of the next one.
    let starts: Vec<usize> = doc
        .match_indices("{\"workload\":")
        .map(|(i, _)| i)
        .collect();
    if starts.is_empty() {
        fail("no profile documents found on stdin");
    }
    for name in &want {
        let seg = starts
            .iter()
            .enumerate()
            .map(|(n, &i)| &doc[i..*starts.get(n + 1).unwrap_or(&doc.len())])
            .find(|seg| json::string_field(seg, "workload").as_deref() == Some(name))
            .unwrap_or_else(|| fail(&format!("workload {name} not found in document")));
        validate(name, seg);
    }
}
