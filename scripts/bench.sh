#!/usr/bin/env bash
# Scan/search benchmark runner: runs the scoring-engine benchmarks
# (BenchmarkFlatScan and BenchmarkQuantScan in internal/index,
# BenchmarkScoreBlock in internal/vec) and emits a JSON array of
# {op, ns_per_op, rows_per_s, recall_at_10, compression_x} for the
# acceptance record in BENCH_scan.json — the quantized variants
# (sq8/pq/opq vs float32) carry measured recall@10 and compression
# ratio, so the file records the recall-vs-speed frontier; rows
# without a quantized kernel report null for both. Also runs the mixed
# read/write benchmark (BenchmarkMixedReadWrite in internal/core —
# searches racing inserts/updates/deletes) and emits {op, ns_per_op,
# queries_per_s} to BENCH_concurrent.json, the acceptance record for
# the snapshot engine: search throughput under write load. Finally it
# runs the durable write path benchmark (BenchmarkWALInsert — insert
# throughput at fsync=always/interval/never vs the no-WAL baseline)
# and emits {op, ns_per_op, inserts_per_s} to BENCH_wal.json, the
# acceptance record for the WAL: group commit must keep fsync=always
# within roughly an order of magnitude of the in-memory path. Last it
# runs the observability overhead benchmark (BenchmarkSearchObs —
# the same search loop with the stats tracker and recall loop on
# vs off) and emits {op, ns_per_op, queries_per_s} to BENCH_obs.json;
# the acceptance bar is "on" within 5% of "off". The memory-tier
# benchmark (BenchmarkMemTierSearch — the same brute-force search
# against a heap column vs the mmap tier) emits {op, ns_per_op,
# queries_per_s, heap_mib, rss_mib} to BENCH_mem.json, the acceptance
# record for memory-tiered serving: the mmap rows must show the
# column's bytes off the Go heap. Set VDBMS_BENCH_LARGE=1 to add the
# 1M×128-d point (512 MiB of vectors; too big for CI smoke). Last of
# all it runs the adaptive-planning benchmark (BenchmarkPlanTuned —
# a 100k×128-d set behind a coarse IVF index, serving with the tuned
# frontier's cheapest parameter vs the static worst-case a caller
# without a frontier must pin) and emits {op, ns_per_op, queries_per_s,
# recall_at_10} to BENCH_plan.json, the acceptance record for the
# recall-SLO tuner: the tuned row must match the static row's recall
# while beating its throughput.
#
#   scripts/bench.sh [scan-output.json] [concurrent-output.json] [wal-output.json] [obs-output.json] [mem-output.json] [plan-output.json]
#
# BENCHTIME overrides the per-benchmark iteration budget (default 20x;
# ci.sh smoke-runs with 1x so a broken harness cannot land unnoticed).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_scan.json}"
out_concurrent="${2:-BENCH_concurrent.json}"
out_wal="${3:-BENCH_wal.json}"
out_obs="${4:-BENCH_obs.json}"
out_mem="${5:-BENCH_mem.json}"
out_plan="${6:-BENCH_plan.json}"
benchtime="${BENCHTIME:-20x}"

tmp=$(mktemp)
tmp2=$(mktemp)
tmp3=$(mktemp)
tmp4=$(mktemp)
tmp5=$(mktemp)
tmp6=$(mktemp)
trap 'rm -f "$tmp" "$tmp2" "$tmp3" "$tmp4" "$tmp5" "$tmp6"' EXIT

go test -run '^$' -bench BenchmarkFlatScan -benchtime "$benchtime" ./internal/index/ | tee -a "$tmp"
go test -run '^$' -bench BenchmarkQuantScan -benchtime "$benchtime" ./internal/index/ | tee -a "$tmp"
go test -run '^$' -bench BenchmarkScoreBlock -benchtime "$benchtime" ./internal/vec/ | tee -a "$tmp"
go test -run '^$' -bench BenchmarkMixedReadWrite -benchtime "$benchtime" ./internal/core/ | tee -a "$tmp2"
go test -run '^$' -bench BenchmarkWALInsert -benchtime "$benchtime" ./internal/core/ | tee -a "$tmp3"
go test -run '^$' -bench BenchmarkSearchObs -benchtime "$benchtime" ./internal/core/ | tee -a "$tmp4"
go test -run '^$' -bench BenchmarkMemTierSearch -benchtime "$benchtime" ./internal/core/ | tee -a "$tmp5"
go test -run '^$' -bench BenchmarkPlanTuned -benchtime "$benchtime" -timeout 30m ./internal/core/ | tee -a "$tmp6"

# Benchmark lines look like:
#   BenchmarkFlatScan/l2/scorer-8  20  7083267 ns/op  7228.30 MB/s  14118004 rows/s
#   BenchmarkQuantScan/sq8-8  20  7466134 ns/op  1714 MB/s  1.000 recall@10  13395205 rows/s  4.000 x_compression
awk '
/^Benchmark/ {
    op = $1
    sub(/-[0-9]+$/, "", op)
    ns = ""; rows = ""; recall = ""; comp = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "rows/s") rows = $i
        if ($(i+1) == "recall@10") recall = $i
        if ($(i+1) == "x_compression") comp = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "  {\"op\": \"%s\", \"ns_per_op\": %s, \"rows_per_s\": %s, \"recall_at_10\": %s, \"compression_x\": %s}", \
        op, ns, (rows == "" ? "null" : rows), (recall == "" ? "null" : recall), (comp == "" ? "null" : comp)
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$tmp" > "$out"

# Mixed read/write lines carry a queries/s custom metric:
#   BenchmarkMixedReadWrite-8  100  727767 ns/op  1374 queries/s
awk '
/^Benchmark/ {
    op = $1
    sub(/-[0-9]+$/, "", op)
    ns = ""; qps = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "queries/s") qps = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "  {\"op\": \"%s\", \"ns_per_op\": %s, \"queries_per_s\": %s}", op, ns, (qps == "" ? "null" : qps)
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$tmp2" > "$out_concurrent"

# WAL insert lines carry an inserts/s custom metric:
#   BenchmarkWALInsert/always-8  3088  102483 ns/op  9756 inserts/s
awk '
/^Benchmark/ {
    op = $1
    sub(/-[0-9]+$/, "", op)
    ns = ""; ips = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "inserts/s") ips = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "  {\"op\": \"%s\", \"ns_per_op\": %s, \"inserts_per_s\": %s}", op, ns, (ips == "" ? "null" : ips)
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$tmp3" > "$out_wal"

# Observability overhead lines carry a queries/s custom metric:
#   BenchmarkSearchObs/on-8  200  86122 ns/op  11611 queries/s
awk '
/^Benchmark/ {
    op = $1
    sub(/-[0-9]+$/, "", op)
    ns = ""; qps = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "queries/s") qps = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "  {\"op\": \"%s\", \"ns_per_op\": %s, \"queries_per_s\": %s}", op, ns, (qps == "" ? "null" : qps)
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$tmp4" > "$out_obs"

# Memory-tier lines carry queries/s plus heap/RSS footprint metrics:
#   BenchmarkMemTierSearch/n=100000/mmap-8  90  12477624 ns/op  49.78 heap_MiB  80.14 queries/s  290.0 rss_MiB
awk '
/^Benchmark/ {
    op = $1
    sub(/-[0-9]+$/, "", op)
    ns = ""; qps = ""; heap = ""; rss = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "queries/s") qps = $i
        if ($(i+1) == "heap_MiB") heap = $i
        if ($(i+1) == "rss_MiB") rss = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "  {\"op\": \"%s\", \"ns_per_op\": %s, \"queries_per_s\": %s, \"heap_mib\": %s, \"rss_mib\": %s}", \
        op, ns, (qps == "" ? "null" : qps), (heap == "" ? "null" : heap), (rss == "" ? "null" : rss)
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$tmp5" > "$out_mem"

# Adaptive-planning lines carry queries/s and the measured recall@10:
#   BenchmarkPlanTuned/tuned-8  200  418739 ns/op  2388 queries/s  0.950 recall@10
awk '
/^Benchmark/ {
    op = $1
    sub(/-[0-9]+$/, "", op)
    ns = ""; qps = ""; recall = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "queries/s") qps = $i
        if ($(i+1) == "recall@10") recall = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "  {\"op\": \"%s\", \"ns_per_op\": %s, \"queries_per_s\": %s, \"recall_at_10\": %s}", \
        op, ns, (qps == "" ? "null" : qps), (recall == "" ? "null" : recall)
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$tmp6" > "$out_plan"

echo "wrote $out $out_concurrent $out_wal $out_obs $out_mem $out_plan"
