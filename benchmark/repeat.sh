#!/usr/bin/env bash
# repeat.sh N [first-seed] runs every workload N times, each run with its
# own seed, and prints per workload and metric the median, the quartiles,
# (q3-q1)/median and (max-min)/median next to the bound in BENCHMARK.json.
# A metric whose quartile spread exceeds its bound is flagged. With
# TRACE=1 a traced run of every workload follows and its table is printed.
# The raw rows are kept in .bench_build/repeat-rows.jsonl.
set -euo pipefail
n="${1:?usage: repeat.sh N [first-seed]}"
first="${2:-1}"
cd "$(dirname "$0")/.."
rows=".bench_build/repeat-rows.jsonl"
mkdir -p .bench_build
: >"$rows"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for ((i = 0; i < n; i++)); do
	for w in $workloads; do
		echo "run $((i + 1))/$n $w seed $((first + i))" >&2
		bash benchmark/run.sh --workload "$w" --seed "$((first + i))" --seconds "$seconds" --trace 0 >>"$rows"
	done
done
if [ "${TRACE:-0}" = 1 ]; then
	for w in $workloads; do
		echo "traced $w seed $first" >&2
		bash benchmark/run.sh --workload "$w" --seed "$first" --seconds "$seconds" --trace 1 >>"$rows"
	done
fi
python3 benchmark/summarize.py "$rows"
