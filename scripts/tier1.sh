#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must keep green (see ROADMAP.md).
#
#   release build + the full test suite of every workspace crate, once:
#   there is one engine (green threads on one carrier) and one access
#   path, and a debug build — what `cargo test` is — runs with the
#   determinism audits and the TLB's in-lock page-table check on. What the
#   OS-thread engine and the slow path used to cross-check is pinned as
#   goldens in tests/parallel_engine.rs and tests/hotpath.rs.
#
# Pass --smoke to additionally compile-and-run every bench target in its
# `--test` smoke mode (tiny sizes, same code paths and determinism
# assertions) — what the CI workflow runs.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}
source scripts/artifacts.sh

echo "==> cargo build --release"
cargo build $CARGO_FLAGS --release

# The tree is rustfmt-clean, so line tallies and diffs read straight off it.
echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The engine has no mode, the access path no toggle, migration no policy
# (one `migrate_home` call), the service's pools no adaptation, the metric stream no ring, merge
# path or drain thread, and the page protocol one traffic lever (diff
# batching: no prefetcher, no lock-data forwarding, no multi-segment
# fetch), crash recovery one transition per core (no per-step crash
# helpers, no second retirement path), a node's memory, the kernel and the
# protocol state one borrow each (a `sim::Local`; no refcounted frame slot
# with its own data lock, no TLB generation counter), and the run queue one
# heap (no per-node shards, no footprint scopes, no lookahead window); a
# name from those coming back is a regression of the design, not of a
# number.
echo "==> no engine-mode / slow-path / migration-policy switches"
if grep -rnE 'EngineMode|set_mode\(|set_lockless|set_fast_path|set_slow_mode|engine_wall|BENCH_hotpath|migration_threshold|diff_streaks|AdaptParams|with_adapt|series_last_window|credit_sharing|migration_prefetch_grid|FrameRing|merge_frames|overflow_merges|series_start_with|DEFAULT_RING_CAP|StreamExporter|prefetch_confirm|DEFAULT_SAMPLE_NS|prefetch_degree|lock_forwarding|lock_forward_hot|with_protocol_opts|PrefetchMasked|LockForward|fetch_multi|BatchFetch|acquire_on_lock|crash_purge_waiter|crash_handoff_locks|crash_handoff_rwlocks|crash_release_ready_barriers|crash_add_discount|crashed_discount|retire_self|thread_create_near|cond_wait_for|PlacementPolicy|placement_policy|with_placement_policy|ChunkSharing|chunk_sharing|note_chunk_traffic|policy_considered|policy_migrations|pingpong_handoffs|release_begin|FrameSlot|bump_epoch|sync_point_scoped|op_point_scoped|set_lookahead|lookahead_ns|ReadyShards|push_ready_scoped|pend_scope|peek_ready_shard|sim::Scope|Scope::ALL' \
        crates/ src/ tests/ examples/ scripts/ --exclude=tier1.sh; then
    echo "tier1: a deleted switch is back (see above)" >&2
    exit 1
fi

# The simulator's maps are keyed by integer ids and hash them with
# sim::IdHasher (`sim::IdMap` / `sim::IdSet`): one multiply instead of
# SipHash, and an iteration order that is the same in every process. A std
# HashMap/HashSet outside tests brings RandomState back. Checked up to the
# first top-level `#[cfg(test)]`; exempt: sim/src/idmap.rs, which defines
# the aliases, and svm/src/explore.rs and cables/src/explore.rs, each a
# `#[cfg(test)] mod`.
echo "==> simulator maps hash with sim::IdHasher"
if for f in crates/{sim,memsim,san,vmmc,svm,cables,chaos}/src/*.rs; do
       case "$f" in crates/sim/src/idmap.rs|crates/svm/src/explore.rs|crates/cables/src/explore.rs) continue ;; esac
       awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
   done | grep -E 'std::collections::.*\bHash(Map|Set)\b|\bHash(Map|Set)<'; then
    echo "tier1: std HashMap/HashSet in simulator code (see above); use sim::IdMap / sim::IdSet" >&2
    exit 1
fi

# The carrier is the lock: every simulated thread runs on the one OS thread
# that called `Engine::run`, so per-world state is a `sim::Local` (a borrow
# flag), never a mutex. Checked up to the first top-level `#[cfg(test)]`,
# like the map check above.
echo "==> simulator state is sim::Local, not parking_lot"
if for f in $(find crates/{sim,memsim,san,vmmc,svm,cables,chaos,obs,omp,apps}/src -name '*.rs' | sort); do
       awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
   done | grep -E 'parking_lot::'; then
    echo "tier1: parking_lot in simulator code (see above); use sim::Local" >&2
    exit 1
fi

# The page-protocol core (with the lock and barrier managers) and the
# runtime core are sans-I/O: they decide, `proto.rs`/`sync.rs` and
# `rt.rs`/`sync.rs` perform. They name no engine, cluster, memory, NIC,
# wire or chaos handle, no lock and no observability item; plain id and
# value types (`NodeId`, `RegionId`, `PageNum`, `SimTime`, `Tid`) are fine.
echo "==> svm and cables cores name no engine, I/O, lock or obs item"
if grep -nE '\b(Sim|Cluster|ClusterMem|Vmmc|San|SvmSystem|ChaosEngine|Mutex|LocalGuard)\b|\bLocal<|\.lock\(\)|\bobs::' \
        crates/svm/src/core.rs crates/cables/src/core.rs; then
    echo "tier1: a sans-I/O core reaches past its state (see above)" >&2
    exit 1
fi

# The page explorer runs proto.rs's interpreter on its in-memory model
# (`impl Effects for World`); it performs no page transition itself, so a
# second interpreter cannot grow back there. The core's `migrate(..)` as
# the enabled check is a query, not a transition, and stays allowed.
echo "==> the page explorer runs proto.rs's interpreter, not a replica"
if grep -nE 'core\.(fault|place|placed|fetch|release|acquire|migrated|start_write_tracking)\(' \
        crates/svm/src/explore.rs; then
    echo "tier1: svm/src/explore.rs performs a page transition itself (see above); call proto.rs's interpreter" >&2
    exit 1
fi

# The crash explorer runs the synchronisation interpreter (`svm`'s
# `sync.rs`, `cables`' `sync.rs` and `rt.rs`) on its thread model
# (`impl SyncEffects`/`impl RtEffects for World`); it performs no sync
# transition itself and keeps no replica's recovery, unwind, timeout or
# resume of its own. Queries (`lock_holder`, `ct_of`, reads of the queues)
# stay allowed, and so does `World::new`'s setup on a local `rt`.
echo "==> the crash explorer runs the sync interpreter, not a replica"
if grep -nE '\.(rt|svm)\.(lock|unlock|arrive|crash|cond_wait|cond_wake|cond_timeout|rw_acquire|rw_release|join|retire|dispatch|pool_take|pool_idle|pool_resume|cancel|enter|waited)\(|fn (recover|unwind|timeout|resume)\b|checkpoint_first' \
        crates/cables/src/explore.rs; then
    echo "tier1: cables/src/explore.rs performs a sync transition itself (see above); call the interpreter's steps" >&2
    exit 1
fi

# Every artifact, report and stream line goes through one serializer,
# obs::json::Writer; an escaped-quote JSON key (`\"name\":`) in a format
# string means hand-built JSON is back. Checked in crates/bench and the
# obs modules that emit through the writer, outside `#[cfg(test)]`.
# Exempt: obs/src/metrics.rs (MetricsSnapshot::to_json) and chrome.rs
# (chrome::export, with the trace args in event.rs) keep their
# hand-rolled bytes because tests/parallel_engine.rs pins both by hash.
echo "==> no hand-formatted JSON outside obs::json::Writer"
if for f in crates/bench/benches/*.rs crates/bench/src/*.rs crates/bench/src/bin/*.rs \
            crates/obs/src/{critpath,diff,explain,json,series,sharing,stall,stream}.rs; do
       awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
   done | grep -E '\\"[A-Za-z_][A-Za-z0-9_]*\\":'; then
    echo "tier1: hand-formatted JSON keys (see above); write through obs::json::Writer" >&2
    exit 1
fi

# The golden-value tests go first: a transfer or a hand-off that moved by
# one nanosecond fails here in seconds, not after the workspace sweep.
echo "==> pinned goldens (cables sync plumbing, san timing model)"
cargo test $CARGO_FLAGS -q -p cables --test pinned
cargo test $CARGO_FLAGS -q -p cables-san --test pinned

echo "==> cargo test --workspace"
cargo test $CARGO_FLAGS --workspace -q

if [[ "${1:-}" == "--smoke" ]]; then
    # The protocol_opt smoke run also asserts the batch-on point's message
    # counts stay under snapshotted ceilings (protocol_opt.rs,
    # `smoke_ceilings`).
    for bench in "${BENCH_TARGETS[@]}"; do
        echo "==> cargo bench --bench $bench -- --test"
        cargo bench $CARGO_FLAGS -p cables-bench --bench "$bench" -- --test
    done
    # The benchmark (BENCHMARK.json) is a crate of its own: every workload
    # twice at smoke size, all simulated metrics, counts and digests must
    # agree bit for bit.
    echo "==> benchmark --check"
    cargo run $CARGO_FLAGS --release --manifest-path benchmark/Cargo.toml -- --check
    # Every BENCH artifact must parse against the repo's own JSON
    # grammar (obs::json, via cablestat) — the same validator the diff
    # gate relies on. The NDJSON metric streams the obs_report and
    # chaos_soak smokes just produced are held to the stream grammar too,
    # including the frames-fold-to-final-snapshot exactness check.
    echo "==> cablestat check BENCH_*.json + stream_*.ndjson"
    ./target/release/cablestat check BENCH_*.json target/artifacts/trace_fft.json
    ./target/release/cablestat check --dir target/artifacts "${STREAM_ARTIFACTS[@]}"
    # The stream tooling itself: `series` must fold + verify each stream
    # (exit 1 on divergence), `tail` must render a completed stream.
    echo "==> cablestat series / tail smoke"
    ./target/release/cablestat series stream_FFT.ndjson > /dev/null
    ./target/release/cablestat series stream_CHAOS_FFT.ndjson --json > /dev/null
    ./target/release/cablestat series stream_service.ndjson > /dev/null
    ./target/release/cablestat tail stream_RADIX.ndjson > /dev/null
    ./target/release/cablestat tail stream_service.ndjson > /dev/null
    # The observability artifacts must also be machine-readable by an
    # independent parser (python is the neutral referee; skip quietly if
    # it is unavailable).
    if command -v python3 >/dev/null 2>&1; then
        for f in "${SMOKE_ARTIFACTS[@]}"; do
            echo "==> validate $f"
            python3 -m json.tool "$f" > /dev/null
        done
        # The parent-vs-change comparison tool: its verdicts and exact-metric
        # diff, checked on two recorded sample files.
        echo "==> scripts/pairs.sh --self-test"
        ./scripts/pairs.sh --self-test
        # The host profiler: its sampler must find a known hot function.
        if command -v gcc >/dev/null 2>&1; then
            echo "==> scripts/hostprof.sh --self-test"
            ./scripts/hostprof.sh --self-test
        else
            echo "==> scripts/hostprof.sh --self-test: skipped, no gcc"
        fi
    fi
    # Causal edges must survive export: the trace carries Perfetto flow
    # events (ph "s"/"f" pairs) linking cause to effect across lanes.
    echo "==> check flow events in target/artifacts/trace_fft.json"
    grep -q '"ph":"s"' target/artifacts/trace_fft.json
    grep -q '"ph":"f"' target/artifacts/trace_fft.json
    # Performance gate: the smoke artifacts the loop above just produced
    # are compared against the committed baselines/, after the gate
    # proves it trips on an injected regression.
    ./scripts/perfgate.sh --no-regen --selftest
fi

echo "tier1: OK"
