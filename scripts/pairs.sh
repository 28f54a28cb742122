#!/usr/bin/env bash
# Parent-vs-change comparison of one benchmark workload's host metrics, by
# the rule a host-time claim has to meet: alternating pairs, medians and
# quartiles, a win count, and the bounds BENCHMARK.json fixes.
#
#   scripts/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS]
#   scripts/pairs.sh --self-test
#
# PARENT_BIN and CHANGE_BIN are `cables-benchmark` executables built from
# the two commits (`cargo build --release --offline --manifest-path
# benchmark/Cargo.toml` in a `git clone` of each; copy the binaries out).
# PAIRS (default 10) pairs run at `--seconds 8`, the parent first in even
# pairs and the change first in odd ones. For `host_iter_s`, `setup_s` and
# `peak_rss_mb` it prints each side's median and quartiles, how many pairs
# the change won (ties count for neither side) and a verdict:
#
#   gain          the change won >= 9/10 of the pairs and its median beats
#                 the parent's by more than the parent's inter-quartile range
#   within bound  the change's median is no worse than the parent's by more
#                 than the metric's bound, and neither side's quartiles
#                 spread wider than that bound (or every change run beat
#                 every parent run)
#   unresolved    the quartiles spread wider than the bound
#   worse         the change's median is worse by more than the bound
#
# Then one `--trace 1` run per side, and every exact metric (clock `sim` or
# `count` in `--list-metrics`) whose value differs. Exits 1 when an exact
# metric differs or a run fails. The binaries run in a temporary directory,
# whose path is printed; nothing in the checkout is written.
#
# --self-test checks the verdicts and the exact-metric diff on the two
# fixed sample files in scripts/testdata/ (recorded runs), no binary needed.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

analyze() {
    python3 - "$root/BENCHMARK.json" "$@" <<'PYEOF'
import json, statistics, sys

HOST = ["host_iter_s", "setup_s", "peak_rss_mb"]
bench, cmd, args = sys.argv[1], sys.argv[2], sys.argv[3:]
BOUND = {m["name"]: m["bound"] for m in json.load(open(bench))["end_to_end"]}


def runs(path):
    return [json.loads(l) for l in open(path) if l.strip()]


def values(doc):
    """Metric values of a result line or of a result_<workload>.json."""
    if "metrics" in doc:
        return {k: v["value"] for k, v in doc["metrics"].items()}
    return {k: v["value"] for s in ("end_to_end", "per_layer") for k, v in doc[s].items()}


def verdict(p, c, bound):
    p1, pm, p3 = statistics.quantiles(p, n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(c, n=4, method="inclusive")
    wins = sum(ci < pi for pi, ci in zip(p, c))
    if wins * 10 >= 9 * len(p) and pm - cm > p3 - p1:
        v = "gain"
    elif max(c) < min(p):
        v = "within bound"
    elif max(p3 - p1, c3 - c1) > bound * pm:
        v = "unresolved"
    else:
        v = "within bound" if cm <= pm * (1 + bound) else "worse"
    return (p1, pm, p3), (c1, cm, c3), wins, v


def report(parent, change):
    p, c = runs(parent), runs(change)
    assert p and len(p) == len(c), f"{len(p)} parent runs vs {len(c)} change runs"
    out = {}
    print(f"   {len(p)} pairs; median [q1, q3]")
    print(f"   {'metric':<12} {'parent':>30} {'change':>30} {'delta':>8} {'wins':>6}  verdict")
    for name in HOST:
        pv = [values(r)[name] for r in p]
        cv = [values(r)[name] for r in c]
        (p1, pm, p3), (c1, cm, c3), wins, v = verdict(pv, cv, BOUND[name])
        fmt = lambda a, m, b: f"{m:.4f} [{a:.4f}, {b:.4f}]"
        print(f"   {name:<12} {fmt(p1, pm, p3):>30} {fmt(c1, cm, c3):>30} "
              f"{(cm / pm - 1) * 100:>+7.1f}% {wins:>3}/{len(p):<2}  {v}")
        out[name] = (wins, v)
    bad = [f"{s} run {i}: failed {r['failed']}" for s, rs in (("parent", p), ("change", c))
           for i, r in enumerate(rs) if not r["correct"] or r["failed"]]
    for b in bad:
        print(f"   FAILED: {b}")
    return out, not bad


def exact(parent, change, names):
    a, b = values(parent), values(change)
    names = [n for n in names if n in a or n in b]
    diff = [(n, a.get(n), b.get(n)) for n in names if a.get(n) != b.get(n)]
    return len(names), diff


if cmd == "report":
    sys.exit(0 if report(*args)[1] else 1)
elif cmd == "exact":
    docs = [json.load(open(a)) for a in args[:2]]
    n, diff = exact(*docs, open(args[2]).read().split())
    print(f"   {n} exact metrics compared, {len(diff)} differ")
    for name, x, y in diff:
        print(f"   DIFFERS {name}: parent {x}  change {y}")
    sys.exit(1 if diff or n == 0 else 0)
elif cmd == "self-test":
    parent, change = args
    got, ok = report(parent, change)
    assert ok, "the sample runs all passed their checks"
    assert got["host_iter_s"] == (10, "gain"), got
    assert got["peak_rss_mb"][1] == "within bound", got
    swapped, _ = report(change, parent)
    assert swapped["host_iter_s"] == (0, "worse"), swapped
    p0, c0 = runs(parent)[0], runs(change)[0]
    sim = [n for n in values(p0) if n.startswith("sim_")]
    assert exact(p0, c0, sim) == (len(sim), []), "the samples' sim metrics agree"
    c0["metrics"]["sim_lat_p99_ns"]["value"] += 1
    n, diff = exact(p0, c0, sim)
    assert [d[0] for d in diff] == ["sim_lat_p99_ns"], diff
    print("pairs self-test: OK")
PYEOF
}

if [[ "${1:-}" == "--self-test" ]]; then
    analyze self-test "$root/scripts/testdata/pairs_parent.ndjson" \
        "$root/scripts/testdata/pairs_change.ndjson"
    exit
fi
pairs="${4:-10}"
if [[ $# -lt 3 || $# -gt 4 || ! "$pairs" =~ ^[0-9]+$ ]] || ((pairs < 2)); then
    sed -n '6,7p' "$0" >&2
    echo "(PAIRS, default 10, must be at least 2)" >&2
    exit 2
fi
parent="$(realpath "$1")" change="$(realpath "$2")" workload="$3"
out="$(mktemp -d)"
echo "pairs: $workload, $pairs pairs at --seconds 8; runs in $out"

run() { # side, trace, directory: one run there; prints its result line
    local bin="$parent"
    [[ "$1" == change ]] && bin="$change"
    mkdir -p "$3"
    (cd "$3" && "$bin" --workload "$workload" --seconds 8 --trace "$2") | tail -n 1
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do run "$side" 0 "$out/$side" >> "$out/$side.ndjson"; done
    echo "   pair $((i + 1))/$pairs done (${order[0]} first)"
done
status=0
analyze report "$out/parent.ndjson" "$out/change.ndjson" || status=1

echo "==> one --trace 1 run per side: exact metrics"
for side in parent change; do run "$side" 1 "$out/trace_$side" > /dev/null; done
"$change" --list-metrics | awk '$4 != "host" {print $2}' > "$out/exact_names"
analyze exact "$out/trace_parent/target/benchmark/result_$workload.json" \
    "$out/trace_change/target/benchmark/result_$workload.json" "$out/exact_names" || status=1
exit "$status"
