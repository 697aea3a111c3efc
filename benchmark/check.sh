#!/usr/bin/env bash
# Checks the benchmark package: format, lints and unit tests, then a
# one-second smoke run of every workload and one traced run whose span
# file is parsed back. Run from anywhere: benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy -D warnings =="
cargo clippy -q --release --offline --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --release --offline

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
run() { cargo run -q --release --offline -- "$@"; }

echo "== smoke: every workload for one second =="
for w in compute-d memory-a traced-d serve; do
  run --workload "$w" --seconds 1 > "$tmp/$w.out"
  tail -n 1 "$tmp/$w.out" | grep -q '"correct":true,' || {
    echo "FAIL: $w"; cat "$tmp/$w.out"; exit 1; }
  echo "ok: $w"
done

echo "== smoke: traced run, span file parsed back =="
run --workload compute-d --seconds 1 --trace 1 --spans "$tmp/spans.jsonl" > "$tmp/trace.out"
tail -n 1 "$tmp/trace.out" | grep -q '"trace.overhead_pct"' || {
  echo "FAIL: traced run lacks per-layer metrics"; cat "$tmp/trace.out"; exit 1; }
python3 - "$tmp/spans.jsonl" <<'EOF'
import json, sys
spans = [json.loads(line) for line in open(sys.argv[1])]
assert spans, "no spans written"
for i, s in enumerate(spans):
    assert set(s) == {"id", "name", "start_ns", "end_ns", "parent", "op"}, s
    assert s["id"] == i and s["end_ns"] >= s["start_ns"], s
    if s["parent"] is not None:
        p = spans[s["parent"]]
        assert p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"], (p, s)
        assert p["op"] == s["op"], (p, s)
ops = [s for s in spans if s["name"] == "op"]
children = sum(s["end_ns"] - s["start_ns"] for s in spans
               if s["parent"] is not None and spans[s["parent"]]["name"] == "op")
wall = sum(s["end_ns"] - s["start_ns"] for s in ops)
assert ops and children >= 0.95 * wall, (children, wall)
print(f"ok: {len(spans)} spans, {len(ops)} ops, children cover {children / wall:.1%} of op time")
EOF
echo "== benchmark checks passed =="
