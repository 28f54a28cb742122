#!/usr/bin/env bash
# Two sets of K full runs of the same code, the way the acceptance driver
# measures: per workload, K untraced runs with seeds 1..K plus one traced
# run, twice. Prints per-metric medians and quartiles for each set and
# exits non-zero if
#   - any run fails or reports "correct": false,
#   - an end-to-end metric's spread (inter-quartile range over the median of
#     its K values) exceeds its bound,
#   - an end-to-end metric's second-set median is worse than the first by
#     more than its bound,
#   - any simulated metric or count differs at all between the sets,
#   - a traced run reports obs.sim_identical = 0 or dropped events.
# A traced run with host.noisy = 1 (its two calibration loops differ by more
# than 5 %) is reported as a warning: the box was busy, read the host
# numbers of that set with care. It fails nothing by itself, the bounds do.
# Command, workloads, bounds and run length are read from BENCHMARK.json.
#
# usage: benchmark/repeat.sh K [SECONDS]      (from the repository root;
#        K >= 2, default 10; SECONDS defaults to run_seconds)
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-10}" "${2:-}" <<'PY'
import json, os, statistics, subprocess, sys

k = int(sys.argv[1])
if k < 2:
    sys.exit("K must be at least 2")
spec = json.load(open("BENCHMARK.json"))
seconds = sys.argv[2] or str(spec["run_seconds"])
out_dir = "target/benchmark/repeat"
os.makedirs(out_dir, exist_ok=True)
e2e = {m["name"]: m for m in spec["end_to_end"]}
layer = {m["name"]: m for m in spec["per_layer"]}
# Metrics on the sim clock and counts must repeat exactly for a given seed;
# the benchmark itself says which those are.
listing = subprocess.run(spec["command"] + ["--list-metrics"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout.splitlines()
exact = {l.split()[1] for l in listing if l.split()[3] != "host"}
failures, warnings = [], []


def run(workload, seed, trace, tag):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", seconds, "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        failures.append(f"{tag}: exit code {p.returncode}")
        return None
    res = json.loads(lines[-1])
    with open(f"{out_dir}/{tag}.json", "w") as f:
        f.write(lines[-1] + "\n")
    if not res["correct"] or res["failed"]:
        failures.append(f"{tag}: correct={res['correct']} failed={res['failed']}")
    want = layer if trace else e2e
    if set(res["metrics"]) != set(want):
        failures.append(f"{tag}: metric names differ from BENCHMARK.json")
    return {n: v["value"] for n, v in res["metrics"].items()}


def worse_by(m, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    d = (second - first) / abs(first)
    return -d if m["better"] == "higher" else d


sets = {}
for s in "AB":
    for w in [w["name"] for w in spec["workloads"]]:
        runs = [run(w, seed, 0, f"{s}_{w}_seed{seed}") for seed in range(1, k + 1)]
        traced = run(w, 1, 1, f"{s}_{w}_traced")
        sets[s, w] = (runs, traced)
        print(f"set {s} {w}: {k} runs + 1 traced done", flush=True)

for w in [w["name"] for w in spec["workloads"]]:
    print(f"\n== {w}")
    print(f"   {'metric':<16} {'set':<3} {'median':>16} {'q1':>16} {'q3':>16} {'spread':>8} {'bound':>6}")
    med = {}
    for s in "AB":
        runs, _ = sets[s, w]
        if any(r is None for r in runs):
            continue
        for name, m in e2e.items():
            vals = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            mid = statistics.median(vals)
            spread = (q3 - q1) / abs(mid)
            med[s, name] = mid
            print(f"   {name:<16} {s:<3} {mid:>16.9g} {q1:>16.9g} {q3:>16.9g} "
                  f"{spread:>8.2%} {m['bound']:>6.0%}")
            # setup_s is exempt from the spread rule (not from the median rule).
            if name != "setup_s" and spread > m["bound"]:
                failures.append(f"{w} {name} set {s}: spread {spread:.2%} > bound {m['bound']:.0%}")
    for name, m in e2e.items():
        if ("A", name) in med and ("B", name) in med:
            d = worse_by(m, med["A", name], med["B", name])
            print(f"   {name:<16} B vs A: {d:+.2%} worse")
            if d > m["bound"]:
                failures.append(f"{w} {name}: second set worse by {d:.2%} > bound {m['bound']:.0%}")
    # Simulated metrics and counts: identical seed by seed, name by name.
    (ra, ta), (rb, tb) = sets["A", w], sets["B", w]
    for seed, (a, b) in enumerate(zip(ra, rb), start=1):
        for name, m in e2e.items():
            if a and b and name in exact and a[name] != b[name]:
                failures.append(f"{w} seed {seed} {name}: {a[name]} vs {b[name]}")
    if ta and tb:
        for name, m in layer.items():
            if name in exact and ta[name] != tb[name]:
                failures.append(f"{w} traced {name}: {ta[name]} vs {tb[name]}")
        for s, t in (("A", ta), ("B", tb)):
            if t["host.noisy"] != 0:
                warnings.append(f"{w} set {s}: host.noisy = 1, the box was busy")
            if t["obs.sim_identical"] != 1 or t["obs.dropped_events"] != 0:
                failures.append(f"{w} set {s}: obs not inert or dropped events")

print()
for w in warnings:
    print("WARN:", w)
for f in failures:
    print("FAIL:", f)
print(f"repeat: {'FAILED' if failures else 'passed'} ({k} runs x 2 sets, {seconds} s each)")
sys.exit(1 if failures else 0)
PY
