#!/usr/bin/env bash
# Where the simulator spends host CPU, without performance counters.
#
#   scripts/hostprof.sh WORKLOAD [SECONDS] [TOP]
#   scripts/hostprof.sh --self-test
#
# Builds `cables-benchmark` with frame pointers (RUSTFLAGS="-C
# force-frame-pointers=yes") into target/hostprof, compiles
# scripts/hostprof/sampler.c with gcc and runs one benchmark workload
# (`--workload WORKLOAD --seconds SECONDS`, default 10) in a temporary
# directory with the sampler LD_PRELOADed. The sampler asks a POSIX
# CPU-time timer for a stack sample every millisecond of the process's CPU
# time and takes it by walking frame pointers; the kernel delivers the
# signals no faster than its tick (about 250 Hz on a 2-vCPU VM), and the
# report prints the rate it got. At exit the sampler writes the samples
# and /proc/self/maps; this script
# symbolises them with `nm` (the binary and every shared library) and
# prints the TOP (default 25) functions by self samples, the shares by
# object (binary, libc, ...) and the TOP functions by inclusive samples (a
# function counted once per sample it is anywhere on the stack in).
#
# Self samples are exact at the sampled pc. Inclusive counts are as good as
# the frame-pointer chain: Rust's std and libc are built without frame
# pointers, so a sample inside them may lose its caller's frame. Inlined
# functions count as their caller.
#
# --self-test profiles a small C program whose one hot function must get at
# least half of the self samples and whose main must be on the stack of at
# least 90 % of them.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

gcc -O2 -shared -fPIC -o "$tmp/sampler.so" "$root/scripts/hostprof/sampler.c"

# report TOP CHECK FILES...: symbolise the sample files and print the
# tables. CHECK is "-", or "HOT,OUTER" for the self-test's pass/fail line.
report() {
    python3 - "$@" <<'PYEOF'
import bisect, collections, os, struct, subprocess, sys

top, check, files = int(sys.argv[1]), sys.argv[2], sys.argv[3:]


def load_bias(path, start):
    """Runtime address minus link-time address of an ELF mapped at start
    (the start of its offset-0 mapping)."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return None
        phoff, = struct.unpack_from("<Q", head, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", head, 0x36)
        f.seek(phoff)
        ph = f.read(phentsize * phnum)
    loads = [struct.unpack_from("<IIQQ", ph, i * phentsize) for i in range(phnum)]
    vaddr = min(v for t, _, _, v in loads if t == 1)
    return start - (vaddr & ~0xFFF)


symtabs = {}


def symbols(path):
    """Sorted (address, size, name) of the functions an ELF defines."""
    if path not in symtabs:
        rows = []
        for dynamic in ([], ["-D"]):
            out = subprocess.run(["nm", "-C", "-S", "--defined-only", *dynamic, path],
                                 capture_output=True, text=True).stdout
            for line in out.splitlines():
                parts = line.split(" ", 3)
                if len(parts) == 4 and parts[2] in "tTwWi":
                    rows.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
                elif len(parts) == 3 and parts[1] in "tTwWi":
                    rows.append((int(parts[0], 16), 0, parts[2]))
            if rows:
                break
        rows.sort()
        symtabs[path] = ([r[0] for r in rows], rows)
    return symtabs[path]


def parse(path):
    samples, maps, dropped, cpu_ns, in_maps = [], [], 0, 0, False
    for line in open(path):
        if in_maps:
            f = line.split(None, 5)
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5].strip() if len(f) > 5 else "[anon]"))
        elif line.startswith("dropped "):
            dropped, cpu_ns = (int(x) for x in line.split()[1::2])
        elif line.strip() == "maps":
            in_maps = True
        elif line.strip():
            samples.append([int(x, 16) for x in line.split()])
    return samples, sorted(maps), dropped, cpu_ns


def resolver(maps):
    starts = [m[0] for m in maps]
    bias = {}
    for lo, _, off, path in maps:
        if off == 0 and path.startswith("/") and path not in bias:
            try:
                bias[path] = load_bias(path, lo)
            except OSError:
                bias[path] = None
    cache = {}

    def resolve(pc):
        if pc in cache:
            return cache[pc]
        i = bisect.bisect_right(starts, pc) - 1
        name, obj = f"0x{pc:x}", "[unmapped]"
        if i >= 0 and pc < maps[i][1]:
            path = maps[i][3]
            obj = os.path.basename(path) if path.startswith("/") else path
            b = bias.get(path)
            if b is not None:
                addrs, rows = symbols(path)
                j = bisect.bisect_right(addrs, pc - b) - 1
                if j >= 0 and (rows[j][1] == 0 or pc - b < rows[j][0] + rows[j][1]):
                    name = rows[j][2]
                else:
                    name = f"?? ({obj})"
            else:
                name = obj
        cache[pc] = (name, obj)
        return cache[pc]

    return resolve


self_n, incl_n, obj_n = collections.Counter(), collections.Counter(), collections.Counter()
total = dropped = depth = cpu_ns = 0
for path in files:
    samples, maps, d, ns = parse(path)
    dropped += d
    cpu_ns += ns
    resolve = resolver(maps)
    for s in samples:
        # A return address points after its call: look up pc - 1.
        frames = [resolve(s[0])] + [resolve(pc - 1) for pc in s[1:]]
        total += 1
        depth += len(frames)
        self_n[frames[0][0]] += 1
        obj_n[frames[0][1]] += 1
        for name in {f[0] for f in frames}:
            incl_n[name] += 1
if total == 0:
    sys.exit("hostprof: no samples")
print(f"hostprof: {total} samples ({dropped} dropped) in {cpu_ns / 1e9:.2f} s of CPU "
      f"({total * 1e9 / max(cpu_ns, 1):.0f} Hz), mean stack depth {depth / total:.1f}")
print(f"\n  self %  samples  function (top {top})")
for name, n in self_n.most_common(top):
    print(f"  {100 * n / total:6.1f}  {n:7d}  {name}")
print("\n  self %  samples  object")
for name, n in obj_n.most_common():
    print(f"  {100 * n / total:6.1f}  {n:7d}  {name}")
print(f"\n  incl %  samples  function (top {top})")
for name, n in incl_n.most_common(top):
    print(f"  {100 * n / total:6.1f}  {n:7d}  {name}")
if check != "-":
    hot, outer = check.split(",")
    ok = self_n[hot] * 2 >= total and incl_n[outer] * 10 >= total * 9 and total >= 20
    print(f"\nhostprof self-test: {hot} {100 * self_n[hot] / total:.1f} % self, "
          f"{outer} {100 * incl_n[outer] / total:.1f} % inclusive: {'OK' if ok else 'FAILED'}")
    sys.exit(0 if ok else 1)
PYEOF
}

if [[ "${1:-}" == "--self-test" ]]; then
    cat > "$tmp/hot.c" <<'CEOF'
__attribute__((noinline)) double hot(long n)
{
    double x = 0;
    for (long i = 0; i < n; i++)
        x = x * 0.999 + (double)i;
    return x;
}

__attribute__((noinline)) double cold(long n)
{
    double x = 1;
    for (long i = 0; i < n; i++)
        x = x * 0.5 + 1.0;
    return x;
}

int main(void)
{
    double s = 0;
    for (int r = 0; r < 10; r++)
        s += hot(10000000 + r) + cold(1000000 + r);
    return s == 42.0;
}
CEOF
    gcc -O0 -o "$tmp/hot" "$tmp/hot.c"
    HOSTPROF_OUT="$tmp/samples" LD_PRELOAD="$tmp/sampler.so" "$tmp/hot" || true
    report 5 hot,main "$tmp"/samples.*
    exit
fi

if [[ $# -lt 1 || $# -gt 3 ]]; then
    sed -n '4,5p' "$0" >&2
    exit 2
fi
workload="$1" seconds="${2:-10}" top="${3:-25}"
echo "==> build cables-benchmark with frame pointers into target/hostprof" >&2
CARGO_TARGET_DIR="$root/target/hostprof" RUSTFLAGS="-C force-frame-pointers=yes" \
    cargo build --release --offline --locked -q --manifest-path "$root/benchmark/Cargo.toml"
echo "==> $workload for $seconds s under the sampler (in $tmp)" >&2
mkdir "$tmp/run"
(cd "$tmp/run" && HOSTPROF_OUT="$tmp/samples" LD_PRELOAD="$tmp/sampler.so" \
    "$root/target/hostprof/release/cables-benchmark" --workload "$workload" \
    --seconds "$seconds" | tail -n 1) > "$tmp/result.json"
python3 -c 'import json, sys; m = json.load(open(sys.argv[1]))["metrics"]
print("host_iter_s %.4f under the sampler" % m["host_iter_s"]["value"])' "$tmp/result.json"
report "$top" - "$tmp"/samples.*
