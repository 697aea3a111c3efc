#!/usr/bin/env bash
# Tier-1 verification: build, tests, lints, and the fault-injection
# campaign smoke run. Mirrors .github/workflows/ci.yml for environments
# without network access to GitHub runners.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo test --release (every isa test target: results must not depend on the build profile) =="
cargo test --release -q -p tm3270-isa

echo "== cargo test --release (memory-model tick arithmetic and every pinned count, as benchmarked) =="
cargo test --release -q -p tm3270-mem -p tm3270-kernels

echo "== cargo test --release (traced engine and profiling, as benchmarked) =="
cargo test --release -q --test profiling --test superblock_engine

echo "== cargo test --release (snapshots: restore must refuse bad states without the debug seam asserts) =="
cargo test --release -q --test snapshot_equivalence

echo "== cargo clippy =="
cargo clippy -q --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo doc (rustdoc warnings, e.g. broken intra-doc links, are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== fault campaign (seed 1, 200 runs) =="
cargo run --release -q -p tm3270-bench --bin repro_fault_campaign -- --seed 1 --runs 200

echo "== sweep determinism (repro_all --json, 1 vs 2 threads) =="
cargo run --release -q -p tm3270-bench --bin repro_all -- --json --threads 1 \
  > /tmp/tm3270_suite_t1.json
cargo run --release -q -p tm3270-bench --bin repro_all -- --json --threads 2 \
  > /tmp/tm3270_suite_t2.json
diff /tmp/tm3270_suite_t1.json /tmp/tm3270_suite_t2.json || {
  echo "FAIL: repro_all --json differs between --threads 1 and --threads 2"; exit 1; }

echo "== sweep determinism (fault campaign --json, 1 vs 2 threads) =="
cargo run --release -q -p tm3270-bench --bin repro_fault_campaign -- \
  --seed 1 --runs 200 --json --threads 1 > /tmp/tm3270_campaign_t1.json
cargo run --release -q -p tm3270-bench --bin repro_fault_campaign -- \
  --seed 1 --runs 200 --json --threads 2 > /tmp/tm3270_campaign_t2.json
diff /tmp/tm3270_campaign_t1.json /tmp/tm3270_campaign_t2.json || {
  echo "FAIL: campaign --json differs between --threads 1 and --threads 2"; exit 1; }

echo "== kill-and-resume smoke (checkpointed campaign, interrupted then resumed) =="
# Interrupt a checkpointed campaign partway (exit 3 = incomplete), then
# resume it and require the final JSON to be byte-identical to the
# uninterrupted serial run captured above.
rm -f /tmp/tm3270_campaign_ckpt.jsonl
if cargo run --release -q -p tm3270-bench --bin repro_fault_campaign -- \
  --seed 1 --runs 200 --json --threads 2 \
  --checkpoint /tmp/tm3270_campaign_ckpt.jsonl --abort-after 70; then
  echo "FAIL: interrupted campaign exited 0 despite --abort-after"; exit 1
fi
cargo run --release -q -p tm3270-bench --bin repro_fault_campaign -- \
  --seed 1 --runs 200 --json --threads 2 \
  --checkpoint /tmp/tm3270_campaign_ckpt.jsonl --resume \
  > /tmp/tm3270_campaign_resumed.json
diff /tmp/tm3270_campaign_t1.json /tmp/tm3270_campaign_resumed.json || {
  echo "FAIL: resumed campaign JSON differs from the uninterrupted run"; exit 1; }

echo "== crash replay smoke (--save-crash / --replay round trip) =="
cargo run --release -q -p tm3270-bench --bin repro_fault_campaign -- \
  --seed 1 --runs 200 --threads 2 --json \
  --save-crash /tmp/tm3270_crash.json > /dev/null
cargo run --release -q -p tm3270-bench --bin repro_fault_campaign -- \
  --replay /tmp/tm3270_crash.json || {
  echo "FAIL: crash replay did not reproduce the recorded error"; exit 1; }

echo "== simulator-throughput smoke (repro_simspeed vs golden registry, both configs) =="
# --check-golden makes the binary itself verify the rows against the
# golden workload registry (exactly the 11 Table 5 kernel names, in
# registry order, positive throughput) — a silently dropped workload
# fails CI here. Both benchmark configs must produce a valid document.
# Config D also enforces the pinned instruction/cycle goldens inside
# --check-golden and a throughput floor. The floor is sized to catch the
# engine losing its fast paths, not to police host speed: it measures
# ~22 geomean sim MIPS idle and stays above 16 under ambient load,
# while a per-instruction loop without them (every op through the
# generic `execute` and every memory op through the full model, with no
# pure or fast-memory dispatch — the shape of the removed fallback
# engine) measured ~11 on the same host — so a drop below 14 is a real
# regression, not host variance.
speed_json_d=$(cargo run --release -q -p tm3270-bench --bin repro_simspeed -- \
  --repeats 3 --json --check-golden --min-geomean 14 --config d)
speed_json_a=$(cargo run --release -q -p tm3270-bench --bin repro_simspeed -- \
  --repeats 1 --json --check-golden --config tm3260)
echo "$speed_json_d" | grep -q '"bench":"sim_speed"' || {
  echo "FAIL: repro_simspeed --json missing bench tag"; exit 1; }
echo "$speed_json_d" | grep -q '"config":"TM3270 (config D)"' || {
  echo "FAIL: repro_simspeed config D document missing"; exit 1; }
echo "$speed_json_a" | grep -q '"config":"TM3260 (config A)"' || {
  echo "FAIL: repro_simspeed TM3260 document missing"; exit 1; }
echo "$speed_json_d" | grep -q '"sim_mips"' || {
  echo "FAIL: repro_simspeed --json missing sim_mips"; exit 1; }
echo "$speed_json_d" | grep -q '"geomean_sim_mips"' || {
  echo "FAIL: repro_simspeed --json missing geomean_sim_mips"; exit 1; }
echo "$speed_json_a" | grep -q '"geomean_sim_mips"' || {
  echo "FAIL: repro_simspeed TM3260 document missing geomean_sim_mips"; exit 1; }

echo "== profiler smoke (memset, JSON + chrome trace) =="
profile_json=$(cargo run --release -q -p tm3270-bench --bin repro_profile -- \
  --workload memset --json --chrome-trace /tmp/tm3270_profile_trace.json)
echo "$profile_json" | grep -q '"buckets"' || {
  echo "FAIL: repro_profile --json produced no stall buckets"; exit 1; }
python3 -c "import json,sys; json.load(open('/tmp/tm3270_profile_trace.json'))" 2>/dev/null \
  || echo "note: python3 unavailable or trace invalid; JSON checked by cargo tests"

echo "== hot-spot / timeline smoke (memset + rgb2yuv, conservation-validated) =="
# repro_profile itself exits 1 on a conservation violation; the validator
# example re-checks the JSON shape and the sums from the outside with the
# tm3270_obs::json scanners (block cycles == RunStats.cycles, block ops
# and exec_ops == the per-slot totals, timeline deltas == final totals).
cargo run --release -q -p tm3270-bench --bin repro_profile -- \
  --workload memset --workload rgb2yuv --hotspots --timeline 1000 --json \
  > /tmp/tm3270_hotspots.json
cargo run --release -q -p tm3270-bench --example validate_profile_json -- \
  memset rgb2yuv < /tmp/tm3270_hotspots.json || {
  echo "FAIL: hot-spot/timeline JSON failed shape or conservation validation"; exit 1; }

echo "== session server smoke (tm3270d: concurrent served suite vs serial, clean shutdown) =="
# Start the daemon on an ephemeral port, run the golden suite as served
# sessions over two concurrent connections, and require the streamed
# document to be byte-identical to the serial repro_all --json output.
# A graceful shutdown must checkpoint-and-exit 0.
cargo build --release -q -p tm3270-bench --bin tm3270d --example session_client
./target/release/tm3270d --workers 2 > /tmp/tm3270d_banner.json &
tm3270d_pid=$!
for _ in $(seq 50); do [ -s /tmp/tm3270d_banner.json ] && break; sleep 0.1; done
tm3270d_addr=$(sed -n 's/.*"listening":"\([^"]*\)".*/\1/p' /tmp/tm3270d_banner.json)
[ -n "$tm3270d_addr" ] || { echo "FAIL: tm3270d printed no listening banner"; exit 1; }
./target/release/examples/session_client --addr "$tm3270d_addr" --suite --conns 2 \
  > /tmp/tm3270_served_suite.json
diff /tmp/tm3270_suite_t1.json /tmp/tm3270_served_suite.json || {
  echo "FAIL: served suite differs from serial repro_all --json"; exit 1; }
./target/release/examples/session_client --addr "$tm3270d_addr" --lifecycle > /dev/null || {
  echo "FAIL: session lifecycle transcript did not complete"; exit 1; }
./target/release/examples/session_client --addr "$tm3270d_addr" --shutdown
wait "$tm3270d_pid" || { echo "FAIL: tm3270d did not exit 0 on graceful shutdown"; exit 1; }

echo "== sweep telemetry smoke (opt-in, default output unchanged) =="
telemetry_json=$(cargo run --release -q -p tm3270-bench --bin repro_fault_campaign -- \
  --seed 1 --runs 50 --threads 2 --json --telemetry)
echo "$telemetry_json" | grep -q '"sweep_report"' || {
  echo "FAIL: --telemetry produced no sweep_report section"; exit 1; }
echo "$telemetry_json" | grep -q '"inflight_high_water"' || {
  echo "FAIL: sweep_report missing inflight_high_water"; exit 1; }

echo "== benchmark package checks (benchmark/check.sh) =="
benchmark/check.sh

echo "CI OK"
