//! The sharing-aware placement extensions are value-preserving: for any
//! setting of the policy knobs (counter-driven migration thresholds,
//! affinity placement, pre-attached node sets) FFT and RADIX compute
//! bit-identical results to the policy-off paper configuration. A node
//! crash landing while the migration policy is actively re-homing chunks
//! recovers: survivors finish, the migrated chunk stays reachable, and the
//! dead writer is retired.
//! (The traffic and timing claims live in the `placement` bench.)

use std::sync::Arc;
use std::sync::Mutex as StdMutex;
use std::sync::OnceLock;

use cables::CablesConfig;
use cables_apps::splash::{fft, radix};
use cables_apps::{M4Ctx, M4System};
use chaos::{ChaosEngine, FaultPlan};
use proptest::prelude::*;
use svm::{Cluster, ClusterConfig, PlacementPolicy, SvmConfig};

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

/// Policy-off digests, computed once per kernel — the knobs under test
/// never touch this cell.
fn baseline(kernel: usize) -> (u64, u64) {
    static CELLS: [OnceLock<(u64, u64)>; 2] = [OnceLock::new(), OnceLock::new()];
    *CELLS[kernel].get_or_init(|| match kernel {
        0 => run_one(CablesConfig::paper(), fft_digest),
        _ => run_one(CablesConfig::paper(), radix_digest),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any knob setting — migration thresholds from hair-trigger to
    /// inert, affinity placement, warm pre-attached node sets — yields
    /// the policy-off digests. The policies move homes and threads, never
    /// values.
    #[test]
    fn arbitrary_knobs_preserve_results(
        min_traffic in 1u32..32,
        dominance_pct in 51u32..96,
        cooldown_releases in 0u32..8,
        affinity in any::<bool>(),
        pre_attach in 0usize..4,
    ) {
        let cfg = CablesConfig {
            svm: SvmConfig {
                placement_policy: Some(PlacementPolicy {
                    min_traffic,
                    dominance_pct,
                    cooldown_releases,
                }),
                ..SvmConfig::cables()
            },
            affinity_placement: affinity,
            pre_attach,
            ..CablesConfig::paper()
        };
        prop_assert_eq!(run_one(cfg.clone(), fft_digest), baseline(0));
        prop_assert_eq!(run_one(cfg, radix_digest), baseline(1));
    }
}

/// A node crash while the counter-driven policy is mid-campaign: worker
/// 1's chunk has already migrated to node 1, worker 2 is still building
/// the traffic that would re-home its chunk when node 2 dies. The run
/// must complete (the dead writer is retired, its lock handed off), the
/// migrated chunk must stay reachable from the master, and the
/// survivor's data must be exactly what it wrote.
#[test]
fn node_crash_during_migration_recovers() {
    let cluster = Cluster::build(ClusterConfig::small(3, 1));
    // Crash node 2 well inside worker 2's write loop (the loop below
    // spans hundreds of ms of simulated time; creation bookkeeping is
    // a few ms).
    cluster.set_chaos(ChaosEngine::new(7, FaultPlan::new().crash(2, 100_000_000)));
    let cfg = CablesConfig {
        svm: SvmConfig {
            // Hair-trigger policy: migrations start within a few
            // releases, so the crash lands amid policy activity.
            placement_policy: Some(PlacementPolicy {
                min_traffic: 2,
                dominance_pct: 51,
                cooldown_releases: 0,
            }),
            ..SvmConfig::cables()
        },
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
        // Worker on node 1 (round-robin): builds a short streak on its
        // chunk — migrated home by the time the crash fires — and
        // survives.
        ctx.create(move |w| {
            for r in 0..40u64 {
                w.lock(1);
                for i in 0..8u64 {
                    w.write::<u64>(a + i * 8, r * 100 + i);
                }
                w.unlock(1);
                w.compute(100_000);
            }
        });
        // Worker on node 2: still looping (and still generating the
        // remote traffic the policy counts) at the crash instant.
        ctx.create(move |w| {
            for r in 0..4_000u64 {
                w.lock(2);
                w.write::<u64>(b, r);
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
    assert!(
        total.policy_considered > 0,
        "policy was active before the crash"
    );
    assert!(
        total.migrations >= 1,
        "worker 1's chunk migrated (got {} migrations)",
        total.migrations
    );
    let rt = sys.cables_rt().expect("cables backend");
    assert!(
        rt.stats().nodes_detached >= 1,
        "crash recovery detached the dead node"
    );
    assert_eq!(cluster.chaos().expect("chaos attached").stats().crashes, 1);
}
