//! Dynamic node management under stress: repeated attach → spawn → exit →
//! detach cycles must keep the runtime's node accounting exact and leak no
//! locks — with a clean fabric, under wire/resource faults, and across a
//! node crash.

use std::sync::Arc;

use proptest::prelude::*;

use cables_suite::cables::{CablesConfig, CablesRt, CRASHED_RET};
use cables_suite::chaos::{ChaosEngine, FaultPlan, ResourceFaults, WireFaults};
use cables_suite::svm::{Cluster, ClusterConfig};

/// Runs `waves` of worker batches through a fresh runtime (auto-detach
/// on, so emptied nodes leave between waves) and checks after every wave:
/// `nodes_attached - nodes_detached == attached_nodes()`, every join
/// returns the worker's value, and the shared mutex is still acquirable
/// (a leaked lock would deadlock-poison the run).
fn cycle_check(waves: Vec<u8>, seed: u64, faulty: bool) {
    let cluster = Cluster::build(ClusterConfig::small(4, 2));
    if faulty {
        let plan = FaultPlan::new()
            .wire(WireFaults {
                drop_p: 0.03,
                dup_p: 0.02,
                jitter_ns: 1_000,
                ..WireFaults::default()
            })
            .resources(ResourceFaults {
                export_fail_p: 0.05,
                import_fail_p: 0.05,
                extend_fail_p: 0.05,
                ..ResourceFaults::default()
            });
        cluster.set_chaos(ChaosEngine::new(seed, plan));
    }
    let mut cfg = CablesConfig::paper();
    cfg.auto_detach = true;
    let rt = CablesRt::new(cluster, cfg);
    let rt2 = Arc::clone(&rt);
    rt.run(move |pth| {
        let m = pth.rt().mutex_new();
        let counter = pth.malloc(8);
        pth.write::<u64>(counter, 0);
        let mut expected = 0u64;
        for (w, &n) in waves.iter().enumerate() {
            let n = (n % 4) as u64 + 1;
            let mut kids = Vec::new();
            for t in 0..n {
                kids.push((
                    t,
                    pth.create(move |p| {
                        p.compute(1_000 * (seed % 7 + t + 1));
                        p.mutex_lock(m);
                        let v = p.read::<u64>(counter);
                        p.write::<u64>(counter, v + 1);
                        p.mutex_unlock(m);
                        t
                    }),
                ));
            }
            expected += n;
            for (t, ct) in kids {
                assert_eq!(pth.join(ct), t, "wave {w}: wrong join value");
            }
            let stats = rt2.stats();
            // The ledger counts dynamic attaches only; the master is
            // attached at pthread_start and never leaves.
            assert_eq!(
                stats.nodes_attached - stats.nodes_detached,
                rt2.attached_nodes() as u64 - 1,
                "wave {w}: attach/detach ledger out of sync"
            );
            // The mutex survived the wave: still acquirable, and the
            // counter saw every increment.
            pth.mutex_lock(m);
            assert_eq!(pth.read::<u64>(counter), expected, "wave {w}: lost updates");
            pth.mutex_unlock(m);
        }
        0
    })
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn attach_spawn_exit_detach_cycles_stay_consistent(
        waves in prop::collection::vec(any::<u8>(), 1..5),
        seed in any::<u64>(),
    ) {
        cycle_check(waves.clone(), seed, false);
        cycle_check(waves, seed, true);
    }
}

/// One crash-accompanied cycle: the dead node's workers join as
/// [`CRASHED_RET`], its mutex holdings pass on (the master can still take
/// the lock), and the ledger stays exact.
fn crash_run(crash_at: Option<u64>) -> (u64, u64, u64, usize, u64, u64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let cluster = Cluster::build(ClusterConfig::small(4, 2));
    if let Some(at) = crash_at {
        cluster.set_chaos(ChaosEngine::new(3, FaultPlan::new().crash(2, at)));
    }
    let rt = CablesRt::new(cluster, CablesConfig::paper());
    let rt2 = Arc::clone(&rt);
    let crashed = Arc::new(AtomicU64::new(0));
    let crashed2 = Arc::clone(&crashed);
    let end = rt
        .run(move |pth| {
            let m = pth.rt().mutex_new();
            let counter = pth.malloc(8);
            pth.write::<u64>(counter, 0);
            let kids: Vec<_> = (0..7u64)
                .map(|t| {
                    pth.create(move |p| {
                        for _ in 0..40 {
                            p.compute(5_000);
                            p.mutex_lock(m);
                            let v = p.read::<u64>(counter);
                            p.write::<u64>(counter, v + 1);
                            p.mutex_unlock(m);
                        }
                        t
                    })
                })
                .collect();
            for ct in kids {
                if pth.join(ct) == CRASHED_RET {
                    crashed2.fetch_add(1, Ordering::Relaxed);
                }
            }
            // No leaked lock: a post-recovery acquire must succeed (a
            // lock still owned by a dead thread would deadlock here).
            pth.mutex_lock(m);
            let _total = pth.read::<u64>(counter);
            pth.mutex_unlock(m);
            0
        })
        .expect("crash run completes");
    let stats = rt2.stats();
    (
        end.as_nanos(),
        stats.nodes_attached,
        stats.nodes_detached,
        rt2.attached_nodes(),
        stats.joins,
        crashed.load(Ordering::Relaxed),
    )
}

#[test]
fn crash_mid_cycle_keeps_ledger_and_releases_locks() {
    // Calibrate: a clean run tells us where "mid-run" is.
    let clean = crash_run(None);
    assert_eq!(clean.2, 0, "clean run detached a node");
    assert_eq!(clean.5, 0, "clean run reported crashed joins");
    let (end, attached, detached, now_attached, joins, crashed) = crash_run(Some(clean.0 / 2));
    assert!(end > 0);
    assert!(detached >= 1, "crashed node was not detached");
    assert!(crashed >= 1, "no worker joined as CRASHED_RET");
    // Dynamic attaches minus detaches = attached nodes beyond the master.
    assert_eq!(
        attached - detached,
        now_attached as u64 - 1,
        "attach/detach ledger out of sync after crash"
    );
    assert_eq!(joins, 7, "master failed to join all workers");
}
