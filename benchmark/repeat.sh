#!/usr/bin/env bash
# Runs every workload k times, each time with another -seed, and prints
# for each end-to-end metric × workload the median, the quartiles and
# the spread (Q3−Q1 as a share of the median) next to the bound
# BENCHMARK.json gives the metric. Exits non-zero if a run reports
# wrong output or a spread other than setup_s's exceeds its bound.
#
#   bash benchmark/repeat.sh [k=5] [first-seed=1] [seconds=run_seconds]
#
# Run it from the repository root. Two invocations with different first
# seeds are the acceptance check: their medians must agree within the
# bounds (the last column of the second against the first).
set -euo pipefail

k=${1:-5}
first=${2:-1}
seconds=${3:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
results=$(mktemp)
trap 'rm -f "$results"' EXIT

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for ((i = 0; i < k; i++)); do
	for w in $workloads; do
		seed=$((first + i))
		echo "run $((i + 1))/$k: $w -seed $seed" >&2
		line=$(bash benchmark/run.sh -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 | tail -n 1)
		echo "$w $line" >>"$results"
	done
done

python3 - "$results" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
values, wrong = {}, 0
for row in open(sys.argv[1]):
    workload, line = row.split(" ", 1)
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        wrong += 1
    for name, m in result["metrics"].items():
        values.setdefault((workload, name), []).append(m["value"])

print(f'{"workload":18} {"metric":18} {"median":>14} {"q1":>14} {"q3":>14} {"spread":>8} {"bound":>6} {"spread/bound":>12}')
over = []
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        vs = values[(w["name"], m["name"])]
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med
        ratio = spread / bounds[m["name"]]
        print(f'{w["name"]:18} {m["name"]:18} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} {bounds[m["name"]]:6.2f} {ratio:12.2f}')
        if ratio > 1 and m["name"] != "setup_s":
            over.append((w["name"], m["name"]))
if wrong:
    print(f"{wrong} run(s) reported wrong output", file=sys.stderr)
for w, m in over:
    print(f"spread of {m} on {w} exceeds its bound", file=sys.stderr)
sys.exit(1 if wrong or over else 0)
EOF
