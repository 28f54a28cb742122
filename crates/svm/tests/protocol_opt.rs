//! Release-time diff batching is value-preserving and replay-identical
//! under chaos, and agrees with the per-page protocol around a home
//! migration.

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use cables_svm::{Cluster, ClusterConfig, NodeStats, SvmConfig, SvmSystem};

const PAGE: u64 = 4096;

fn batch_cfg(batch: bool) -> SvmConfig {
    SvmConfig {
        batch_diffs: batch,
        ..SvmConfig::cables()
    }
}

/// Master first-touches `pages` pages on node 0, a worker on node 1 scans
/// them sequentially, then rewrites them under a lock; master verifies.
/// Returns (node-1 stats, checksum seen by the worker).
fn scan_run(cfg: SvmConfig, pages: u64) -> (NodeStats, u64) {
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
    let out = Arc::new(StdMutex::new((NodeStats::default(), 0u64)));
    let o2 = Arc::clone(&out);
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, pages * PAGE);
            for p in 0..pages {
                s2.write::<u64>(sim, a + p * PAGE, 1000 + p);
            }
            let s3 = Arc::clone(&s2);
            let sum = Arc::new(StdMutex::new(0u64));
            let sum2 = Arc::clone(&sum);
            let worker = s2.create(sim, move |ws| {
                s3.lock(ws, 1);
                let mut acc = 0u64;
                for p in 0..pages {
                    acc = acc
                        .wrapping_mul(31)
                        .wrapping_add(s3.read::<u64>(ws, a + p * PAGE));
                }
                for p in 0..pages {
                    s3.write::<u64>(ws, a + p * PAGE, 2000 + p);
                }
                s3.unlock(ws, 1);
                *sum2.lock().unwrap() = acc;
            });
            sim.wait_exit(worker);
            s2.lock(sim, 1);
            for p in 0..pages {
                assert_eq!(s2.read::<u64>(sim, a + p * PAGE), 2000 + p);
            }
            s2.unlock(sim, 1);
            let st = s2.node_stats(cluster.nodes()[1]);
            *o2.lock().unwrap() = (st, *sum.lock().unwrap());
        })
        .unwrap();
    let v = *out.lock().unwrap();
    v
}

#[test]
fn batched_diffs_cut_messages_not_bytes() {
    let (off, sum_off) = scan_run(batch_cfg(false), 16);
    let (on, sum_on) = scan_run(batch_cfg(true), 16);
    assert_eq!(sum_on, sum_off, "batching changed observed values");
    assert_eq!(off.diff_batches, 0);
    assert!(on.diff_batches >= 1, "no diff batch was shipped");
    assert!(
        on.diffs_sent < off.diffs_sent,
        "batching did not reduce diff messages ({} -> {})",
        off.diffs_sent,
        on.diffs_sent
    );
    assert_eq!(
        on.diff_bytes, off.diff_bytes,
        "batching must move exactly the same dirty bytes"
    );
}

#[test]
fn chaos_replay_is_bit_identical_with_batching_on() {
    // A batch is one message for drop/duplicate purposes: the same seed
    // must reproduce the same simulated end time and the same counters
    // with diff batching enabled.
    let run = || -> (u64, NodeStats, u64) {
        let cluster = Cluster::build(ClusterConfig::small(2, 1));
        cluster.set_chaos(chaos::ChaosEngine::new(
            42,
            chaos::FaultPlan::new().wire(chaos::WireFaults {
                drop_p: 0.05,
                dup_p: 0.05,
                ..chaos::WireFaults::default()
            }),
        ));
        let sys = SvmSystem::new(Arc::clone(&cluster), batch_cfg(true));
        let out = Arc::new(StdMutex::new((0u64, NodeStats::default(), 0u64)));
        let o2 = Arc::clone(&out);
        let s2 = Arc::clone(&sys);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                let a = s2.g_malloc(sim, 16 * PAGE);
                for p in 0..16 {
                    s2.write::<u64>(sim, a + p * PAGE, p);
                }
                let s3 = Arc::clone(&s2);
                let worker = s2.create(sim, move |ws| {
                    s3.lock(ws, 1);
                    let mut acc = 0u64;
                    for p in 0..16 {
                        acc = acc
                            .wrapping_mul(31)
                            .wrapping_add(s3.read::<u64>(ws, a + p * PAGE));
                    }
                    for p in 0..16 {
                        s3.write::<u64>(ws, a + p * PAGE, acc + p);
                    }
                    s3.unlock(ws, 1);
                });
                sim.wait_exit(worker);
                // Ping-pong rounds: pages 0 and 5 are invalidated at the
                // grant, and node 1 holds unreleased words on page 7 when
                // the master's notice for it arrives (the acquire-time
                // early flush).
                for r in 0..6u64 {
                    s2.lock(sim, 1);
                    let s3 = Arc::clone(&s2);
                    let worker = s2.create(sim, move |ws| {
                        s3.write::<u64>(ws, a + 7 * PAGE + 8, 70 + r);
                        s3.lock(ws, 1);
                        let seen = s3.read::<u64>(ws, a) + s3.read::<u64>(ws, a + 5 * PAGE);
                        s3.write::<u64>(ws, a + 9 * PAGE, seen);
                        s3.unlock(ws, 1);
                    });
                    s2.write::<u64>(sim, a, 100 + r);
                    s2.write::<u64>(sim, a + 5 * PAGE, 500 + r);
                    s2.write::<u64>(sim, a + 7 * PAGE, 700 + r);
                    sim.advance(3_000_000);
                    s2.unlock(sim, 1);
                    sim.wait_exit(worker);
                }
                s2.lock(sim, 1);
                let mut digest = 0u64;
                for p in 0..16 {
                    digest = digest
                        .wrapping_mul(31)
                        .wrapping_add(s2.read::<u64>(sim, a + p * PAGE));
                }
                s2.unlock(sim, 1);
                *o2.lock().unwrap() = (sim.now().as_nanos(), s2.total_stats(), digest);
            })
            .unwrap();
        let v = *out.lock().unwrap();
        v
    };
    let (t1, st1, v1) = run();
    let (t2, st2, v2) = run();
    assert_eq!(t1, t2, "chaos replay diverged in simulated time");
    assert_eq!(st1, st2, "chaos replay diverged in protocol counters");
    assert_eq!(v1, v2, "chaos replay diverged in data");
    // Golden values: a replay test compares a tree with itself, so a
    // change that shifts both runs alike would pass it. These pin the
    // fault-recovery, batching and early-flush paths to what the protocol
    // computed when they were captured.
    assert_eq!(t1, 25_034_760, "simulated end time moved");
    assert_eq!(v1, 2_771_084_586_390_496_950, "final memory contents moved");
    let golden = NodeStats {
        read_faults: 22,
        write_faults: 59,
        remote_fetches: 28,
        fetch_bytes: 114_688,
        diffs_sent: 7,
        diff_bytes: 176,
        notices_applied: 12,
        placements: 1,
        migrations: 0,
        lock_acquires: 14,
        barrier_waits: 0,
        diff_batches: 4,
        batched_diff_bytes: 152,
    };
    assert_eq!(st1, golden, "protocol counters moved");
}

/// Node 1 writes a page homed on node 0 under a lock for `rounds`
/// releases, taking its chunk home with one `migrate_home` before round
/// `migrate_at`'s release. Returns (diffs sent by node 1, migrations to
/// node 1, the value node 0 reads back).
fn migration_run(migrate_at: Option<u64>, batch: bool, rounds: u64) -> (u64, u64, u64) {
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), batch_cfg(batch));
    let out = Arc::new(StdMutex::new((0u64, 0u64, 0u64)));
    let o2 = Arc::clone(&out);
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, PAGE);
            s2.write::<u64>(sim, a, 0);
            let s3 = Arc::clone(&s2);
            let worker = s2.create(sim, move |ws| {
                for r in 0..rounds {
                    s3.lock(ws, 1);
                    for w in 0..16u64 {
                        s3.write::<u64>(ws, a + w * 8, r * 100 + w);
                    }
                    if migrate_at == Some(r) {
                        assert!(s3.migrate_home(ws, a));
                    }
                    s3.unlock(ws, 1);
                }
            });
            sim.wait_exit(worker);
            s2.lock(sim, 1);
            let v = s2.read::<u64>(sim, a + 8);
            s2.unlock(sim, 1);
            let st = s2.node_stats(cluster.nodes()[1]);
            *o2.lock().unwrap() = (st.diffs_sent, st.migrations, v);
        })
        .unwrap();
    let v = *out.lock().unwrap();
    v
}

#[test]
fn batching_on_and_off_agree_around_one_migrate_home() {
    for migrate_at in [None, Some(2)] {
        let (diffs_off, mig_off, v_off) = migration_run(migrate_at, false, 8);
        let (diffs_on, mig_on, v_on) = migration_run(migrate_at, true, 8);
        assert_eq!(mig_on, mig_off, "batching changed the migration");
        assert_eq!(
            v_on, v_off,
            "data diverged with migration at {migrate_at:?}"
        );
        // One page to one home per release: message counts agree too.
        assert_eq!(diffs_on, diffs_off);
    }
    // And the migration happens, and ends the remote diffs.
    let (diffs, mig, v) = migration_run(Some(2), true, 8);
    assert_eq!((diffs, mig, v), (2, 1, 701));
}
