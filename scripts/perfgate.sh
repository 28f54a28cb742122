#!/usr/bin/env bash
# Performance gate: regenerate the smoke-mode BENCH artifacts and compare
# each with its committed snapshot in baselines/ byte for byte. The
# simulator is deterministic, so a clean tree reproduces every baseline
# exactly, and any difference fails the gate: a faster run, a changed
# digest or a dropped leaf as much as a slower run. For each artifact
# that differs the gate prints its report, `cablestat diff`: every
# changed leaf with both exact values, tagged with its section (stall,
# critpath, kinds, pages, ...). Intentional changes are re-baselined
# with --rebase and the refreshed baselines/ committed alongside the
# change.
#
#   scripts/perfgate.sh              regenerate (smoke) + gate
#   scripts/perfgate.sh --selftest   first prove the gate trips on a copy
#                                    of BENCH_obs_FFT.json with
#                                    sim_time_ns and barrier_wait
#                                    inflated 1.5x, and that its
#                                    `cablestat diff` report carries
#                                    both inflated rows
#   scripts/perfgate.sh --rebase     refresh baselines/ from a fresh
#                                    smoke run (then commit them)
#   scripts/perfgate.sh --no-regen   gate the artifacts already on disk
#                                    (tier1 --smoke just produced them)
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}

source scripts/artifacts.sh
BENCHES=("${GATE_BENCHES[@]}")
ARTIFACTS=("${GATED_ARTIFACTS[@]}")

regen=1 selftest=0 rebase=0
for arg in "$@"; do
    case "$arg" in
        --no-regen) regen=0 ;;
        --selftest) selftest=1 ;;
        --rebase)   rebase=1 ;;
        *) echo "perfgate: unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "==> build cablestat"
cargo build $CARGO_FLAGS --release -p cables-bench --bin cablestat
CABLESTAT=target/release/cablestat

if (( regen )); then
    for b in "${BENCHES[@]}"; do
        echo "==> regenerate (smoke): cargo bench --bench $b -- --test"
        cargo bench $CARGO_FLAGS -p cables-bench --bench "$b" -- --test > /dev/null
    done
fi

# Baselines are smoke-mode snapshots; refuse to gate full-size artifacts
# (e.g. left behind by scripts/report.sh) against them.
for a in "${ARTIFACTS[@]}"; do
    if [[ ! -s "$a" ]]; then
        echo "perfgate: missing artifact $a (run without --no-regen)" >&2
        exit 1
    fi
    if ! grep -q '"smoke": true' "$a"; then
        echo "perfgate: $a is full-size; the gate compares smoke runs (re-run without --no-regen)" >&2
        exit 1
    fi
done

if (( rebase )); then
    mkdir -p baselines
    for a in "${ARTIFACTS[@]}"; do
        cp "$a" "baselines/$a"
        echo "perfgate: baselines/$a refreshed"
    done
    echo "perfgate: rebase done — review and commit baselines/"
    exit 0
fi

# The gate: a gated artifact equals its baseline byte for byte.
gate() { cmp -s "$1" "$2"; }

if (( selftest )); then
    echo "==> selftest: the gate must trip on an injected 1.5x sim_time_ns change"
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    # Inflate the run time AND the barrier_wait stall bucket: the gate
    # must trip, and the report must name both changed leaves.
    "$CABLESTAT" inflate BENCH_obs_FFT.json "$tmp" sim_time_ns 1.5
    "$CABLESTAT" inflate "$tmp" "$tmp" barrier_wait 1.5
    if gate baselines/BENCH_obs_FFT.json "$tmp"; then
        echo "perfgate: SELFTEST FAILED — the injected change passed the gate" >&2
        exit 1
    fi
    echo "==> selftest: the diff report must carry both inflated rows"
    report=$("$CABLESTAT" diff baselines/BENCH_obs_FFT.json "$tmp")
    for row in 'sim_time_ns \[other\]' 'stall\.totals\.barrier_wait \[stall\]'; do
        if ! grep -qE "^$row " <<< "$report"; then
            echo "perfgate: SELFTEST FAILED — the diff report has no row matching ^$row" >&2
            echo "$report" >&2
            exit 1
        fi
    done
    echo "perfgate: selftest OK (injected change caught and reported)"
fi

status=0
for a in "${ARTIFACTS[@]}"; do
    base="baselines/$a"
    if [[ ! -s "$base" ]]; then
        echo "perfgate: missing baseline $base (scripts/perfgate.sh --rebase, then commit)" >&2
        status=1
        continue
    fi
    echo "==> gate: $a = $base, byte for byte"
    if ! gate "$base" "$a"; then
        status=1
        echo "==> $a differs from its baseline; what changed:"
        "$CABLESTAT" diff "$base" "$a" || true
    fi
done

if (( status )); then
    echo "perfgate: FAILED — artifact(s) differ from baselines/; if intentional," >&2
    echo "perfgate: refresh with scripts/perfgate.sh --rebase and commit baselines/" >&2
else
    echo "perfgate: OK"
fi
exit $status
