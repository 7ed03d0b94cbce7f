"""Summarizes the rows repeat.sh collected: one table of run-to-run spread
per workload against the bounds in BENCHMARK.json, and the traced table."""
import collections
import json
import statistics
import sys

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
layer_names = [m["name"] for m in spec["per_layer"]]
order = [w["name"] for w in spec["workloads"]]

values = collections.defaultdict(list)  # (workload, metric) -> values, one per run
units = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    if "metric" in r:  # a row; the result lines repeat the same numbers
        values[r["workload"], r["metric"]].append(r["value"])
        units[r["metric"]] = r["unit"]

flagged = 0
for w in order:
    names = [m for (ww, m) in values if ww == w and m not in layer_names]
    if not names:
        continue
    runs = len(values[w, names[0]])
    print(f"\n### {w} ({runs} runs)\n")
    print("| metric | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for m in names:
        v = values[w, m]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(v) - min(v)) / med if med else 0.0
        bound = bounds.get(m)
        flag = ""
        if bound is not None and m != "setup_s" and iqr > bound:
            flag = "SPREAD EXCEEDS BOUND"
            flagged += 1
        elif bound is not None and m != "setup_s" and iqr > bound / 3:
            flag = "above a third of the bound"
        b = "" if bound is None else f"{bound:g}"
        print(f"| {m} | {units[m]} | {med:.6g} | {q1:.6g} | {q3:.6g} | {iqr:.4f} | {rng:.4f} | {b} | {flag} |")

traced = [w for w in order if (w, layer_names[0]) in values]
if traced:
    print("\n### traced run (per-layer metrics; 0 = the workload does not cross that seam)\n")
    print("| metric | unit | " + " | ".join(traced) + " |")
    print("|---|---|" + "---|" * len(traced))
    for m in layer_names:
        cells = " | ".join(f"{values[w, m][-1]:.6g}" for w in traced)
        print(f"| {m} | {units[m]} | {cells} |")

if flagged:
    print(f"\n{flagged} metric(s) spread beyond their bound", file=sys.stderr)
    sys.exit(2)
