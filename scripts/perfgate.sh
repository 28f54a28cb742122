#!/usr/bin/env bash
# Performance gate: regenerate the smoke-mode BENCH artifacts and diff
# them against the committed snapshots in baselines/ with
# `cablestat diff --gate`. The simulator is deterministic, so a clean
# tree reproduces every baseline bit-for-bit; a metric that moves beyond
# the tolerances in its regressing direction (see obs::diff) fails the
# gate. Intentional changes are re-baselined with --rebase and the
# refreshed baselines/ committed alongside the change.
#
#   scripts/perfgate.sh              regenerate (smoke) + gate
#   scripts/perfgate.sh --selftest   additionally prove the gate trips on
#                                    an injected 1.5x sim_time_ns
#                                    regression — and that
#                                    `cablestat explain` attributes it to
#                                    the inflated stall bucket — before
#                                    gating for real
#   scripts/perfgate.sh --rebase     refresh baselines/ from a fresh
#                                    smoke run (then commit them)
#   scripts/perfgate.sh --no-regen   gate the artifacts already on disk
#                                    (tier1 --smoke just produced them)
#
# When the real gate fails, `cablestat explain` runs automatically on
# each regressed artifact and prints the ranked root-cause report.
#
# Tolerances: PERFGATE_ABS (absolute units, default 0) and PERFGATE_REL
# (percent, default 2.0). A delta must exceed BOTH to be significant,
# and only significant deltas in the worse direction gate.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}
ABS=${PERFGATE_ABS:-0}
REL=${PERFGATE_REL:-2.0}

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

if (( selftest )); then
    echo "==> selftest: the gate must trip on an injected 1.5x sim_time_ns regression"
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    # Inflate the run time AND the barrier_wait stall bucket: the gate
    # must trip on the former, and explain must blame the latter.
    "$CABLESTAT" inflate BENCH_obs_FFT.json "$tmp" sim_time_ns 1.5
    "$CABLESTAT" inflate "$tmp" "$tmp" barrier_wait 1.5
    if "$CABLESTAT" diff baselines/BENCH_obs_FFT.json "$tmp" \
            --abs "$ABS" --rel "$REL" --gate > /dev/null; then
        echo "perfgate: SELFTEST FAILED — the injected regression passed the gate" >&2
        exit 1
    fi
    echo "==> selftest: explain must attribute the regression to the inflated stall bucket"
    if ! "$CABLESTAT" explain baselines/BENCH_obs_FFT.json "$tmp" \
            --abs "$ABS" --rel "$REL" \
            | grep -A1 '^#[0-9]* sim_time_ns:' | grep 'stall' | grep -q 'barrier_wait'; then
        echo "perfgate: SELFTEST FAILED — explain did not blame barrier_wait for the injected regression" >&2
        "$CABLESTAT" explain baselines/BENCH_obs_FFT.json "$tmp" --abs "$ABS" --rel "$REL" >&2 || true
        exit 1
    fi
    echo "perfgate: selftest OK (injected regression caught and attributed)"
fi

status=0
for a in "${ARTIFACTS[@]}"; do
    base="baselines/$a"
    if [[ ! -s "$base" ]]; then
        echo "perfgate: missing baseline $base (scripts/perfgate.sh --rebase, then commit)" >&2
        status=1
        continue
    fi
    echo "==> gate: $base vs $a (abs>$ABS rel>$REL%)"
    if ! "$CABLESTAT" diff "$base" "$a" --abs "$ABS" --rel "$REL" --gate; then
        status=1
        echo "==> root cause: cablestat explain $base $a"
        "$CABLESTAT" explain "$base" "$a" --abs "$ABS" --rel "$REL" || true
    fi
done

if (( status )); then
    echo "perfgate: FAILED — regression(s) beyond tolerance; if intentional," >&2
    echo "perfgate: refresh with scripts/perfgate.sh --rebase and commit baselines/" >&2
else
    echo "perfgate: OK"
fi
exit $status
