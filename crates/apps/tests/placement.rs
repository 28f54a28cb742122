//! The placement extensions are value-preserving: for any setting of
//! the knobs (affinity placement, pre-attached node sets) FFT and RADIX
//! compute bit-identical results to the paper configuration. A node
//! crash landing while chunks are being re-homed (`migrate_home`)
//! recovers: survivors finish, the migrated chunk stays reachable, and the
//! dead writer is retired.
//! (The traffic and timing claims live in the `ablations` bench, section
//! `affinity`.)

use std::sync::Arc;
use std::sync::Mutex as StdMutex;
use std::sync::OnceLock;

use cables::CablesConfig;
use cables_apps::splash::{fft, radix};
use cables_apps::{M4Ctx, M4System};
use chaos::{ChaosEngine, FaultPlan};
use proptest::prelude::*;
use svm::{Cluster, ClusterConfig};

const NODES: usize = 2;
const CPUS: usize = 2;

fn run_one<F>(cfg: CablesConfig, body: F) -> (u64, u64)
where
    F: Fn(&M4Ctx) -> (u64, u64) + Send + Sync + 'static,
{
    let cluster = Cluster::build(ClusterConfig::small(NODES, CPUS));
    let sys = M4System::cables_with(cluster, cfg);
    let result = Arc::new(StdMutex::new(None));
    let r2 = Arc::clone(&result);
    sys.run(move |ctx| {
        *r2.lock().unwrap() = Some(body(ctx));
    })
    .unwrap_or_else(|e| panic!("run failed: {e}"));
    let v = result.lock().unwrap().take().expect("result produced");
    v
}

fn fft_digest(ctx: &M4Ctx) -> (u64, u64) {
    let r = fft::fft(ctx, &fft::FftParams::test(4));
    let err = r.max_error.expect("verification ran");
    assert!(err < 1e-9, "FFT roundtrip error {err}");
    (r.checksum.to_bits(), err.to_bits())
}

fn radix_digest(ctx: &M4Ctx) -> (u64, u64) {
    let p = radix::RadixParams::test(4);
    let r = radix::radix(ctx, &p);
    assert!(r.sorted, "output not sorted");
    (r.key_sum, r.sorted as u64)
}

/// Paper-configuration digests, computed once per kernel — the knobs
/// under test never touch this cell.
fn baseline(kernel: usize) -> (u64, u64) {
    static CELLS: [OnceLock<(u64, u64)>; 2] = [OnceLock::new(), OnceLock::new()];
    *CELLS[kernel].get_or_init(|| match kernel {
        0 => run_one(CablesConfig::paper(), fft_digest),
        _ => run_one(CablesConfig::paper(), radix_digest),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any knob setting — affinity placement, warm pre-attached node
    /// sets — yields the paper configuration's digests. The knobs move
    /// threads, never values.
    #[test]
    fn arbitrary_knobs_preserve_results(
        affinity in any::<bool>(),
        pre_attach in 0usize..4,
    ) {
        let cfg = CablesConfig {
            affinity_placement: affinity,
            pre_attach,
            ..CablesConfig::paper()
        };
        prop_assert_eq!(run_one(cfg.clone(), fft_digest), baseline(0));
        prop_assert_eq!(run_one(cfg, radix_digest), baseline(1));
    }
}

/// A node crash amid migrations: each worker takes its chunk home with
/// `migrate_home` early in its loop, and node 2 dies while worker 2 is
/// still writing its migrated chunk. The run must complete (the dead
/// writer is retired, its lock handed off), worker 1's migrated chunk
/// must stay reachable from the master, and the survivor's data must be
/// exactly what it wrote.
#[test]
fn node_crash_during_migration_recovers() {
    let cluster = Cluster::build(ClusterConfig::small(3, 1));
    // Crash node 2 well inside worker 2's write loop (the loop below
    // spans hundreds of ms of simulated time; creation bookkeeping is
    // a few ms).
    cluster.set_chaos(ChaosEngine::new(7, FaultPlan::new().crash(2, 100_000_000)));
    let cfg = CablesConfig {
        // Warm node set: both workers start within milliseconds instead
        // of behind multi-second attach handshakes.
        pre_attach: 3,
        ..CablesConfig::paper()
    };
    let sys = M4System::cables_with(Arc::clone(&cluster), cfg);
    let seen = Arc::new(StdMutex::new(0u64));
    let s2 = Arc::clone(&seen);
    sys.run(move |ctx| {
        // Two regions in separate 64 KB chunks, both first-touched by
        // the master (homed on node 0).
        let a = ctx.g_malloc(65_536);
        let b = ctx.g_malloc(65_536);
        ctx.write::<u64>(a, 0);
        ctx.write::<u64>(b, 0);
        // Worker on node 1 (round-robin): takes its chunk home in its
        // second round — long before the crash fires — and survives.
        ctx.create(move |w| {
            for r in 0..40u64 {
                w.lock(1);
                for i in 0..8u64 {
                    w.write::<u64>(a + i * 8, r * 100 + i);
                }
                if r == 1 {
                    assert!(w.system().svm().migrate_home(w.sim, a));
                }
                w.unlock(1);
                w.compute(100_000);
            }
        });
        // Worker on node 2: takes its chunk home too, and is still
        // looping at the crash instant.
        ctx.create(move |w| {
            for r in 0..4_000u64 {
                w.lock(2);
                w.write::<u64>(b, r);
                if r == 1 {
                    assert!(w.system().svm().migrate_home(w.sim, b));
                }
                w.unlock(2);
                w.compute(100_000);
            }
        });
        ctx.wait_for_end();
        // The surviving worker's chunk is reachable post-crash — it
        // migrated to node 1, which is alive — and holds the final
        // round's values.
        ctx.lock(1);
        *s2.lock().unwrap() = (0..8u64).map(|i| ctx.read::<u64>(a + i * 8)).sum();
        ctx.unlock(1);
    })
    .expect("crashed run completes");
    assert_eq!(*seen.lock().unwrap(), (0..8u64).map(|i| 3900 + i).sum());
    let svm = sys.svm();
    let total = svm.total_stats();
    assert_eq!(total.migrations, 2, "both workers' chunks migrated");
    let rt = sys.cables_rt().expect("cables backend");
    assert!(
        rt.stats().nodes_detached >= 1,
        "crash recovery detached the dead node"
    );
    assert_eq!(cluster.chaos().expect("chaos attached").stats().crashes, 1);
}
