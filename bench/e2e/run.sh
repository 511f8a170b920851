#!/usr/bin/env bash
# Repeated runs of the end-to-end benchmark, summarised for compare.py.
#
#   bash bench/e2e/run.sh [--label NAME] [--runs N] [--seconds S]
#                         [--seed S] [--trace]
#   bash bench/e2e/run.sh --smoke
#
# Runs every workload of BENCHMARK.json N times (default 5), repetition r
# on seed S+r, with the workload order reversed on every other repetition
# so slow drift of the machine does not always hit the same workload.
# Writes bench/e2e/results/<label>.json: every run's result plus, per
# workload and metric, the median and the quartiles. --trace records the
# per-layer metrics instead of the end-to-end ones.
#
# --smoke runs each workload once in smoke mode, untraced and traced, and
# checks that every metric BENCHMARK.json names is printed with its unit.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
label="run"
runs=5
seconds=""
seed=1
trace=0
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --label) label="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --smoke) smoke=1; shift ;;
    *) echo "usage: run.sh [--label NAME] [--runs N] [--seconds S] [--seed S] [--trace] | --smoke" >&2
       exit 2 ;;
  esac
done

cd "$root"
workloads=($(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'))
if [[ -z "$seconds" ]]; then
  seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
fi

if [[ "$smoke" == 1 ]]; then
  start=$(date +%s)
  status=0
  for t in 0 1; do
    for w in "${workloads[@]}"; do
      line="$(bash "$here/bench.sh" --workload "$w" --seed 42 --seconds 1 --trace "$t" --smoke 2>/dev/null | tail -n 1)" || status=1
      python3 - "$w" "$t" "$line" <<'EOF' || status=1
import json, sys
workload, trace, line = sys.argv[1], sys.argv[2], sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
want = bench["per_layer" if trace == "1" else "end_to_end"]
result = json.loads(line)
metrics = result["metrics"]
bad = [m["name"] for m in want
       if m["name"] not in metrics or metrics[m["name"]]["unit"] != m["unit"]]
ok = result["correct"] and result["failed"] == 0 and not bad
print(f"smoke {workload} trace={trace}: "
      f"{'ok' if ok else 'FAIL'} ({len(metrics)} metrics"
      + (f"; missing or wrong unit: {' '.join(bad)}" if bad else "") + ")")
sys.exit(0 if ok else 1)
EOF
    done
  done
  echo "smoke: $(( $(date +%s) - start )) s"
  exit "$status"
fi

mkdir -p "$here/results"
raw="$here/results/$label.runs.jsonl"
: > "$raw"
status=0
for ((r = 0; r < runs; r++)); do
  order=("${workloads[@]}")
  if (( r % 2 == 1 )); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
  fi
  for w in "${order[@]}"; do
    s=$((seed + r))
    code=0
    line="$(bash "$here/bench.sh" --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)" || code=$?
    (( code == 0 )) || status=1
    python3 - "$w" "$s" "$r" "$code" "$line" >> "$raw" <<'EOF'
import json, sys
workload, seed, rep, code, line = sys.argv[1:6]
try:
    result = json.loads(line)
except ValueError:
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
result.update(workload=workload, seed=int(seed), rep=int(rep), exit=int(code))
print(json.dumps(result))
EOF
    echo "run $r $w seed $s: exit $code" >&2
  done
done

python3 - "$raw" "$here/results/$label.json" "$label" <<'EOF'
import json, os, platform, statistics, sys
raw, out, label = sys.argv[1:4]
runs = [json.loads(line) for line in open(raw)]
summary = {}
for run in runs:
    for name, m in run["metrics"].items():
        summary.setdefault(run["workload"], {}).setdefault(
            name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
for metrics in summary.values():
    for m in metrics.values():
        v = m["values"]
        m["median"] = statistics.median(v)
        m["q25"], _, m["q75"] = (statistics.quantiles(v, n=4)
                                 if len(v) > 1 else (v[0], v[0], v[0]))
json.dump({"label": label, "hardware_threads": os.cpu_count(),
           "machine": platform.machine(), "runs": runs, "summary": summary},
          open(out, "w"), indent=1)
print(f"{'workload':22} {'metric':34} {'median':>14} {'q25':>14} {'q75':>14}  unit")
for workload, metrics in summary.items():
    for name, m in metrics.items():
        print(f"{workload:22} {name:34} {m['median']:14.6g} {m['q25']:14.6g} "
              f"{m['q75']:14.6g}  {m['unit']}")
bad = [r for r in runs if r["exit"] != 0 or not r["correct"] or r["failed"]]
print(f"{len(runs)} runs, {len(bad)} failed -> {out}")
sys.exit(1 if bad else 0)
EOF
exit "$status"
