#!/usr/bin/env bash
# Referee a change for value identity against another revision.
#
#   scripts/referee.sh REV
#
# REV is a git revision, checked out detached in a `git worktree` under
# target/referee/ (removed again on exit), or the path of an existing
# checkout of one. On both sides — REV and this working tree — the script
# builds the release workspace, runs every bench target of
# scripts/artifacts.sh in its `--test` smoke mode and collects the smoke
# artifacts, the metric streams and trace_fft.json into
# target/referee/out/{base,this}. Each pair then gets one verdict:
#
#   byte-identical | value-identical | differs at <first leaf path>
#
# Value identity is Python's `json.load(parse_float=str,
# object_pairs_hook=list)`: integers exact, float tokens as written, key
# order kept, layout free; an NDJSON stream is compared line by line.
# Last, the non-test lines of every crate on both sides: each file
# rustfmt'd in a scratch copy and counted up to its first top-level
# `#[cfg(test)]` (tier1.sh's rule), the test-only explore.rs modules left
# out. The smoke runs rewrite committed full-size BENCH_*.json files; both
# sides get theirs back. Exit status 1 when any pair differs.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}
REV=${1:?usage: scripts/referee.sh REV (a revision or a checkout directory)}
source scripts/artifacts.sh
HERE=$PWD
WORK=$HERE/target/referee
OUT=$WORK/out
rm -rf "$OUT"
mkdir -p "$OUT"

if [[ -d "$REV" ]]; then
    BASE=$(cd "$REV" && pwd)
else
    BASE=$WORK/$(git rev-parse --short "$REV")
    git worktree add --detach --force "$BASE" "$REV" > /dev/null
    trap 'git worktree remove --force "$BASE"' EXIT
fi

# collect DIR NAME: build DIR, run the smokes, copy what they wrote.
collect() {
    local dir=$1 out=$OUT/$2 saved
    mkdir -p "$out"
    saved=$(mktemp -d)
    echo "==> $2: build and smoke runs in $dir" >&2
    (
        cd "$dir"
        cp BENCH_*.json "$saved"/
        cargo build $CARGO_FLAGS --release -q
        for bench in "${BENCH_TARGETS[@]}"; do
            cargo bench $CARGO_FLAGS -q -p cables-bench --bench "$bench" -- --test > /dev/null
        done
        for f in "${SMOKE_ARTIFACTS[@]}" "${STREAM_ARTIFACTS[@]/#/target/artifacts/}"; do
            if [[ -f "$f" ]]; then cp "$f" "$out/"; fi
        done
        cp "$saved"/BENCH_*.json .
    )
    rm -rf "$saved"
}

collect "$BASE" base
collect "$HERE" this

status=0
for f in "${SMOKE_ARTIFACTS[@]}" "${STREAM_ARTIFACTS[@]}"; do
    name=$(basename "$f")
    python3 - "$OUT/base/$name" "$OUT/this/$name" <<'EOF' || status=1
import json, os, sys

a_path, b_path = sys.argv[1:]
name = os.path.basename(b_path)
if not (os.path.exists(a_path) and os.path.exists(b_path)):
    print(f"{name}: missing on {'REV' if not os.path.exists(a_path) else 'this'} side")
    sys.exit(1)


def load(path):
    with open(path) as f:
        if path.endswith(".ndjson"):
            return [json.loads(line, parse_float=str, object_pairs_hook=list) for line in f]
        return json.load(f, parse_float=str, object_pairs_hook=list)


def diff(a, b, path):
    """The first leaf path where `a` and `b` differ, or None."""
    if isinstance(a, tuple) and isinstance(b, tuple):  # an object member
        if a[0] != b[0]:
            return f"{path} (key {a[0]!r} vs {b[0]!r})"
        return diff(a[1], b[1], f"{path}.{a[0]}")
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            member = isinstance(x, tuple) and isinstance(y, tuple)
            d = diff(x, y, path if member else f"{path}[{i}]")
            if d:
                return d
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        return None
    if type(a) is type(b) and a == b:
        return None
    return f"{path} ({a!r} vs {b!r})"


with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
    if fa.read() == fb.read():
        print(f"{name}: byte-identical")
        sys.exit(0)
d = diff(load(a_path), load(b_path), "$")
if d is None:
    print(f"{name}: value-identical")
    sys.exit(0)
print(f"{name}: differs at {d}")
sys.exit(1)
EOF
done

# lines DIR: non-test lines per crate, rustfmt'd in a scratch copy.
lines() {
    local tmp
    tmp=$(mktemp -d)
    cp -r "$1/crates" "$tmp/"
    find "$tmp/crates" -name '*.rs' -exec rustfmt --edition 2021 {} + 2> /dev/null || true
    for c in "$tmp"/crates/*/; do
        find "$c" -path '*/src/*.rs' ! -name explore.rs -exec \
            awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }' {} + |
            awk -v c="$(basename "$c")" '{ n += $1 } END { print c, n }'
    done
    rm -rf "$tmp"
}

echo
echo "non-test lines per crate (REV -> this):"
join <(lines "$BASE" | sort) <(lines "$HERE" | sort) |
    awk '{ d = $3 - $2; a += $2; b += $3; printf "  %-10s %6d -> %6d  %+d\n", $1, $2, $3, d }
         END { printf "  %-10s %6d -> %6d  %+d\n", "total", a, b, b - a }'
exit $status
