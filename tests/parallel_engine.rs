//! Carrier-equivalence tests: the green-thread carrier is a wall-clock
//! optimization only — it must reproduce the results of the OS-thread
//! engine it replaced (one OS thread per simulated thread, a futex
//! hand-off, kernel-mutex clocks) **bit-identically**: the same simulated
//! times, the same memory contents, the same obs snapshots and event
//! streams, the same chaos replays, and the same engine counters. Every
//! comparison is against a golden taken from that engine on the last tree
//! that had it (PR 16), where all three engine modes passed this file
//! with these constants. `PINNED_SHOW=1` with `--nocapture` prints what a
//! cell observed.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use proptest::prelude::*;

use common::{fnv, show};

use cables_suite::apps::splash::{fft, radix};
use cables_suite::apps::M4System;
use cables_suite::chaos::{ChaosEngine, FaultPlan, WireFaults};
use cables_suite::obs::{canonical_sort, chrome};
use cables_suite::sim::EngineStats;
use cables_suite::svm::{Cluster, ClusterConfig, SvmConfig, SvmSystem};

fn small_cluster(nodes: usize, cpus: usize) -> Arc<Cluster> {
    Cluster::build(ClusterConfig::small(nodes, cpus))
}

/// Region size in u64 elements: 4 pages, so random ranges straddle page
/// boundaries.
const LEN: u64 = 2048;

/// One random master-side operation over the shared region.
#[derive(Debug, Clone, Copy)]
enum Op {
    WriteSlice { start: u64, len: u64 },
    Fill { start: u64, len: u64, v: u64 },
    ReadSlice { start: u64, len: u64 },
}

fn decode_ops(raw: &[(u8, u16, u16)], seed: u64) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, a, b)| {
            let start = a as u64 % LEN;
            let len = 1 + b as u64 % (LEN - start);
            match kind % 3 {
                0 => Op::WriteSlice { start, len },
                1 => Op::Fill {
                    start,
                    len,
                    v: seed ^ (kind as u64) << 13,
                },
                _ => Op::ReadSlice { start, len },
            }
        })
        .collect()
}

/// Everything a random-program run can observably produce.
#[derive(Debug, PartialEq)]
struct Observed {
    end_ns: u64,
    memory: Vec<u64>,
    checksum: u64,
    touched_pages: u64,
    misplaced_pages: u64,
    faults: u64,
    fetches: u64,
    diffs: u64,
    stats: EngineStats,
}

/// Runs the random two-thread lock/barrier program.
fn run_program(base: bool, ops: Vec<Op>, seed: u64) -> Observed {
    let cfg = if base {
        SvmConfig::base()
    } else {
        SvmConfig::cables()
    };
    let cluster = small_cluster(2, 1);
    let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
    let s = Arc::clone(&sys);
    let out: Arc<StdMutex<Option<(Vec<u64>, u64)>>> = Arc::new(StdMutex::new(None));
    let out2 = Arc::clone(&out);
    let end = cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s.g_malloc(sim, LEN * 8);
            let n = 2;
            let s2 = Arc::clone(&s);
            s2.clone().create(sim, move |ws| {
                s2.lock(ws, 1);
                for i in 0..8u64 {
                    let w = seed.wrapping_mul(2 * i + 1).wrapping_add(i) % LEN;
                    s2.write::<u64>(ws, a + w * 8, seed ^ (0xBB00 + i));
                }
                s2.unlock(ws, 1);
                s2.barrier(ws, 9, n);
            });
            let mut checksum = 0u64;
            for op in &ops {
                match *op {
                    Op::WriteSlice { start, len } => {
                        let data: Vec<u64> = (0..len)
                            .map(|i| seed ^ (start + i).wrapping_mul(0x9E37))
                            .collect();
                        s.write_slice(sim, a + start * 8, &data);
                    }
                    Op::Fill { start, len, v } => {
                        s.fill(sim, a + start * 8, v, len as usize);
                    }
                    Op::ReadSlice { start, len } => {
                        let mut buf = vec![0u64; len as usize];
                        s.read_slice(sim, a + start * 8, &mut buf);
                        checksum = buf
                            .iter()
                            .fold(checksum, |c, &x| c.rotate_left(7).wrapping_add(x));
                    }
                }
            }
            s.lock(sim, 1);
            s.unlock(sim, 1);
            s.barrier(sim, 9, n);
            let mut all = vec![0u64; LEN as usize];
            s.read_slice(sim, a, &mut all);
            *out2.lock().unwrap() = Some((all, checksum));
            s.wait_for_end(sim);
        })
        .expect("parallel-engine program run");
    let (memory, checksum) = out.lock().unwrap().take().expect("program produced output");
    let placement = sys.placement_report();
    let st = sys.total_stats();
    Observed {
        end_ns: end.as_nanos(),
        memory,
        checksum,
        touched_pages: placement.touched_pages,
        misplaced_pages: placement.misplaced_pages,
        faults: st.read_faults + st.write_faults,
        fetches: st.remote_fetches,
        diffs: st.diffs_sent,
        stats: cluster.engine.stats(),
    }
}

/// Per case of `engine_modes_are_bit_identical`, in generation order:
/// `(end_ns, context switches, digest of the whole Observed)`.
const PROGRAM_GOLDENS: [(u64, u64, u64); 6] = [
    (945162, 5, 14677428038099635477),
    (1308190, 5, 11080964481572380160),
    (1293190, 5, 17262914624629514242),
    (1418691, 5, 5911428233661513397),
    (1308190, 5, 12300501358310318186),
    (1308190, 5, 3353096909442822694),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random bulk programs: byte-identical memory, identical virtual
    /// time, identical protocol counts and — the strongest claim —
    /// identical [`EngineStats`], context switches and fast/slow sync-path
    /// splits included, to what the OS-thread engine produced.
    #[test]
    fn engine_modes_are_bit_identical(
        raw in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..8),
        seed in any::<u64>(),
        base in any::<bool>(),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let golden = PROGRAM_GOLDENS[CASE.fetch_add(1, Ordering::Relaxed)];
        let o = run_program(base, decode_ops(&raw, seed), seed);
        let pinned = (o.end_ns, o.stats.context_switches, fnv(&format!("{o:?}")));
        show("program", &pinned);
        prop_assert_eq!(pinned, golden);
    }
}

/// One observed SPLASH run, as pinned: virtual end time, parallel
/// window, event count, digests of the Chrome export of the canonically
/// sorted event stream and of the metrics snapshot, protocol counters
/// and engine stats.
type Splash = (u64, Option<u64>, usize, u64, u64, String, String);

fn splash_observe(body: impl FnOnce(&cables_suite::apps::M4Ctx) + Send + 'static) -> Splash {
    let cluster = small_cluster(4, 2);
    let sys = M4System::cables(Arc::clone(&cluster));
    sys.svm().set_obs(true);
    let end = sys.run(body).expect("splash run");
    let svm = sys.svm();
    let sink = svm.obs();
    let mut events = sink.events();
    canonical_sort(&mut events);
    let o = (
        end.as_nanos(),
        sys.parallel_ns(),
        events.len(),
        fnv(&chrome::export(&events)),
        fnv(&sink.snapshot().to_json()),
        format!("{:?}", svm.total_stats()),
        format!("{:?}", cluster.engine.stats()),
    );
    show("splash", &o);
    o
}

/// FFT and RADIX reproduce the OS-thread engine's simulated results, obs
/// snapshots and event streams.
#[test]
fn splash_kernels_identical_across_modes() {
    let fft = splash_observe(|ctx| {
        let p = fft::FftParams {
            m: 8,
            nprocs: 8,
            verify: true,
        };
        let r = fft::fft(ctx, &p);
        let err = r.max_error.expect("verify requested");
        assert!(err < 1e-6, "FFT round-trip error {err}");
    });
    assert_eq!(fft, golden_fft(), "FFT diverged from the oracle");
    let radix = splash_observe(|ctx| {
        let p = radix::RadixParams::test(8);
        let r = radix::radix(ctx, &p);
        assert!(r.sorted, "RADIX output not sorted");
        assert_eq!(r.key_sum, radix::expected_key_sum(&p));
    });
    assert_eq!(radix, golden_radix(), "RADIX diverged from the oracle");
}

fn golden_radix() -> Splash {
    (11049914951, Some(3939996), 2721, 15401063057093611816, 14034056715592507187, "NodeStats { read_faults: 21, write_faults: 99, remote_fetches: 88, fetch_bytes: 360448, diffs_sent: 69, diff_bytes: 78336, notices_applied: 16, placements: 1, migrations: 0, lock_acquires: 0, barrier_waits: 104, diff_batches: 0, batched_diff_bytes: 0 }".into(), "EngineStats { context_switches: 440, threads_spawned: 8, lockless_advances: 9854, sync_fast_path: 214, sync_slow_path: 340, tlb_hits: 0, tlb_misses: 0, ready_reallocs: 0, window_admissible: 0 }".into())
}

fn golden_fft() -> Splash {
    (11049682365, Some(3885204), 1932, 11987086374669126268, 12301491234228088131, "NodeStats { read_faults: 36, write_faults: 68, remote_fetches: 75, fetch_bytes: 307200, diffs_sent: 54, diff_bytes: 39936, notices_applied: 14, placements: 1, migrations: 0, lock_acquires: 0, barrier_waits: 104, diff_batches: 0, batched_diff_bytes: 0 }".into(), "EngineStats { context_switches: 440, threads_spawned: 8, lockless_advances: 5098, sync_fast_path: 193, sync_slow_path: 340, tlb_hits: 0, tlb_misses: 0, ready_reallocs: 0, window_admissible: 0 }".into())
}

/// `(end_ns, Chrome-export digest, snapshot digest, wire faults, retries,
/// recoveries, crashes)` of the chaos replay on the OS-thread engine.
const CHAOS_GOLDEN: (u64, u64, u64, u64, u64, u64, u64) = (
    7262765921,
    8305716914733192344,
    8629365771862502697,
    111,
    2,
    1,
    1,
);

/// A chaos-injected FFT (lossy wire + mid-run node crash) replays the
/// OS-thread engine's run: same virtual end time, same Chrome trace, same
/// injected-fault counters.
#[test]
fn chaos_replay_identical_across_modes() {
    let plan = FaultPlan::new()
        .wire(WireFaults {
            drop_p: 0.05,
            dup_p: 0.03,
            jitter_ns: 2_000,
            ..WireFaults::default()
        })
        .crash(2, 40_000_000);
    let cluster = small_cluster(4, 2);
    cluster.set_chaos(ChaosEngine::new(7, plan));
    let sys = M4System::cables(Arc::clone(&cluster));
    sys.svm().set_obs(true);
    let end = sys
        .run(|ctx| {
            let p = fft::FftParams {
                m: 8,
                nprocs: 8,
                verify: false,
            };
            fft::fft(ctx, &p);
        })
        .expect("chaos fft run");
    let svm = sys.svm();
    let sink = svm.obs();
    let stats = cluster.chaos().expect("chaos attached").stats();
    let o = (
        end.as_nanos(),
        fnv(&chrome::export(&sink.events())),
        fnv(&sink.snapshot().to_json()),
        stats.wire_faults,
        stats.retries,
        stats.recoveries,
        stats.crashes,
    );
    show("chaos", &o);
    assert!(CHAOS_GOLDEN.3 > 0, "plan injected no wire faults");
    assert_eq!(CHAOS_GOLDEN.6, 1, "the planned crash never fired");
    assert_eq!(o, CHAOS_GOLDEN, "chaos replay diverged");
}

/// Deadlock freedom under node crash: crashing a node mid-run must
/// neither hang nor trip the debug-build determinism audits — the
/// survivors run to completion through the barrier recovery path.
#[test]
fn node_crash_is_deadlock_free_on_parallel_backend() {
    let fft = |ctx: &cables_suite::apps::M4Ctx| {
        let p = fft::FftParams {
            m: 8,
            nprocs: 8,
            verify: false,
        };
        fft::fft(ctx, &p);
    };
    // Calibrate the crash to mid-run so worker threads are actually live.
    let clean = M4System::cables(small_cluster(4, 2))
        .run(fft)
        .expect("clean run")
        .as_nanos();
    let cluster = small_cluster(4, 2);
    cluster.set_chaos(ChaosEngine::new(11, FaultPlan::new().crash(2, clean / 3)));
    let end = M4System::cables(Arc::clone(&cluster))
        .run(fft)
        .expect("crashed run must still complete");
    assert!(end.as_nanos() > 0, "crashed run did not complete");
    let stats = cluster.chaos().expect("chaos attached").stats();
    assert_eq!(stats.crashes, 1, "the planned crash never fired");
    assert!(stats.recoveries >= 1, "no recovery was recorded");
}
