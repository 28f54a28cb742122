#!/usr/bin/env bash
# Regenerate every quantitative artifact at full size:
#
#   BENCH_obs_FFT.json    layer breakdown + metric snapshot + critical
#                         path, FFT m=12
#   BENCH_obs_RADIX.json  the same for RADIX 64K keys
#   BENCH_chaos.json      fault-injection ladder: completion, retries and
#                         recovery latencies per escalating fault level
#   BENCH_table3.json     paper Table 3: basic VMMC costs
#   BENCH_table4.json     paper Table 4: CableS basic-event costs
#   BENCH_table5.json     paper Table 5: pthreads/OpenMP API usage + op times
#   BENCH_table6.json     paper Table 6: OpenMP SPLASH-2 speedups
#   BENCH_fig5.json       paper Fig. 5: M4 vs M4-on-pthreads exec times
#   BENCH_fig6.json       paper Fig. 6: misplaced-page percentages (written
#                         by fig5, from its CableS runs)
#   BENCH_ablations.json  design-space ablations: sharing granularity,
#                         write-through, NIC pressure, barrier builds,
#                         home migration, release-time diff batching off
#                         vs on at 16 nodes (message counts, parallel
#                         sections, critical-path blame of both points)
#                         and affinity thread placement off vs on (OCEAN,
#                         RADIX, the zipfian service; bit-identical results)
#   BENCH_service.json    sharded KV service under generated traffic:
#                         throughput + p50/p95/p99 per arrival pattern x
#                         node count, replay identity, chaos crash cell
#                         with windowed recovery (stream_service.ndjson
#                         is its live metric series)
#   target/artifacts/trace_fft.json
#                         Chrome-trace timeline of the FFT run on 8 nodes
#                         (load in chrome://tracing or ui.perfetto.dev;
#                         causal edges render as Perfetto flow arrows)
#   target/artifacts/stall_{FFT,RADIX}.collapsed
#                         collapsed-stack stall exports for flamegraphs
#   target/artifacts/stream_*.ndjson
#                         live NDJSON metric streams captured during the
#                         obs and chaos runs (replay and fold-check with
#                         `cablestat series`, live with `--follow`)
#
# The obs and diff-batching runs execute each kernel twice (bus off, then on) and
# assert the simulated result is bit-identical, so a successful exit also
# re-proves the observability layer is free. The script fails (non-zero
# exit) if any expected artifact is missing or empty afterwards — a bench
# that silently stopped emitting is a broken report, not a quiet success.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}

source scripts/artifacts.sh
ARTIFACTS=("${ALL_ARTIFACTS[@]}")

# Drop stale copies first so a bench that no longer writes its artifact
# cannot pass the check below on a leftover file.
rm -f "${ARTIFACTS[@]}"

for bench in "${BENCH_TARGETS[@]}"; do
    cargo bench $CARGO_FLAGS -p cables-bench --bench "$bench"
done

status=0
for f in "${ARTIFACTS[@]}"; do
    if [[ ! -s "$f" ]]; then
        echo "report: missing or empty artifact: $f" >&2
        status=1
    fi
done

# Cross-PR summary: one table over every BENCH_*.json in the repo root,
# so one `scripts/report.sh` run ends with the repo's whole quantitative
# story in ~a screenful.
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'PYEOF'
import glob, json

def ms(ns):
    return f"{ns / 1e6:.2f} ms"

print()
print("=" * 72)
print("cross-PR artifact summary")
print("=" * 72)
print(f"{'artifact':<24} {'subject':<16} headline")
print("-" * 72)
for path in sorted(glob.glob("BENCH_*.json")):
    d = json.load(open(path))
    name = path[len("BENCH_"):-len(".json")]
    rows = []
    if "layers_ns" in d:  # obs_report: per-kernel layer breakdown
        rows.append((d["kernel"], f"sim {ms(d['sim_time_ns'])}, "
                     f"{d['events_recorded']} events, "
                     f"{d['causal_edges']} causal edges"))
    elif name == "chaos":
        for k in d["kernels"]:
            rows.append((k["kernel"], f"clean {ms(k['clean_ns'])}, "
                         f"{len(k['levels'])} fault levels, "
                         f"completion {k['completion_rate']:.2f}"))
    elif name == "table3":
        g = {r["op"]: r for r in d["rows"]}
        send = g["1-word send (one-way lat)"]
        bw = g["maximum ping-pong bandwidth"]
        rows.append(("vmmc", f"{len(d['rows'])} ops; 1-word send "
                     f"{send['value'] / 1e3:.1f} us (paper {send['paper']}), "
                     f"bw {bw['value']:.0f} MB/s (paper {bw['paper']})"))
    elif name == "table4":
        g = {r["mechanism"]: r for r in d["rows"]}
        rows.append(("mechanisms", f"{len(d['rows'])} rows; attach "
                     f"{ms(g['attach node']['measured_ns'])}, GeNIMA barrier "
                     f"{g['GeNIMA barrier']['measured_ns'] / 1e3:.0f} us, remote lock "
                     f"{g['remote mutex lock']['measured_ns'] / 1e3:.0f} us"))
    elif name == "table5":
        for p in d["programs"]:
            c = p["calls"]
            lock = p["avg_ns"]["lock"]
            lock = f"{lock / 1e3:.1f} us" if lock is not None else "-"
            rows.append((p["program"], f"{c['create']} creates, {c['lock']} locks, "
                         f"{c['barrier']} barriers; avg lock {lock}"))
    elif name == "table6":
        for p in d["programs"]:
            ours = "/".join(f"{q['speedup']:.2f}" for q in p["points"])
            paper = "/".join(f"{q['paper_speedup']:.2f}" for q in p["points"])
            procs = "/".join(str(q["procs"]) for q in p["points"])
            rows.append((p["program"], f"speedup @{procs}p: {ours} (paper {paper})"))
    elif name == "fig5":
        for a in d["apps"]:
            top = max(r["procs"] for r in a["runs"])
            cell = {}
            for r in a["runs"]:
                if r["procs"] == top:
                    cell[r["mode"]] = "FAILED" if r["failed"] else ms(r["parallel_ns"])
            rows.append((a["app"], f"@{top}p base {cell.get('Base', '?')}, "
                         f"cables {cell.get('Cables', '?')}"))
    elif name == "ablations":
        for g in d["granularity"]:
            rows.append((g["kernel"],
                         f"node-track {ms(g['nt_parallel_ns'])} "
                         f"({g['nt_misplaced_pct']:.0f}% misplaced) vs "
                         f"page {ms(g['pg_parallel_ns'])} "
                         f"({g['pg_misplaced_pct']:.0f}%)"))
        mig = {m["mode"]: m for m in d["migration"]}
        off, on = mig["off"], mig["migrate_home"]
        rows.append(("migration", f"diffs {off['diffs_sent']} -> "
                     f"{on['diffs_sent']}, time {ms(off['total_ns'])} -> "
                     f"{ms(on['total_ns'])}"))
        nic = {m["mode"]: m for m in d["nic_pressure"]}
        rows.append(("nic", f"max regions Base {nic['Base']['max_nic_regions']}"
                     f" -> Cables {nic['Cables']['max_nic_regions']}"))
        for k in d["batching"]:
            g = {p["batch_diffs"]: p for p in k["grid"]}
            off, on = g[False], g[True]
            rows.append((k["kernel"],
                         f"batching: diffs {off['diffs_sent']} -> {on['diffs_sent']}, "
                         f"window {ms(off['parallel_ns'])} -> {ms(on['parallel_ns'])}"))
        for w in d["affinity"]:
            off, on = w["off"], w["on"]
            key = "parallel_ns" if "parallel_ns" in off else "serve_ns"
            rows.append((w["workload"],
                         f"affinity: msgs {off['remote_fetches'] + off['diffs_sent']} -> "
                         f"{on['remote_fetches'] + on['diffs_sent']}, "
                         f"window {ms(off[key])} -> {ms(on[key])}"))
    elif name == "fig6":
        for a in d["apps"]:
            pts = a["points"]
            rows.append((a["app"], f"misplaced {pts[0]['misplaced_pct']:.1f}% @"
                         f"{pts[0]['procs']}p -> {pts[-1]['misplaced_pct']:.1f}% @"
                         f"{pts[-1]['procs']}p"))
    elif name == "service":
        for c in d["cells"]:
            rows.append((f"{c['pattern']}/{c['driver']}@{c['nodes']}n",
                         f"{c['throughput_rps']:.0f} rps, p50 {ms(c['p50_ns'])}, "
                         f"p99 {ms(c['p99_ns'])}"))
        ch = d["chaos"]
        rows.append(("chaos", f"crash node {ch['crash_node']}, "
                     f"{ch['served']}+{ch['direct_served']} of {ch['requests']} "
                     f"answered, {ch['post_crash_window_completions']} post-crash"))
    else:  # future artifacts: stay visible even before a custom row
        rows.append(("-", f"keys: {', '.join(list(d)[:6])}"))
    for subject, headline in rows:
        print(f"{name:<24} {subject:<16} {headline}")
        name = ""
print("=" * 72)
PYEOF
fi

exit $status
