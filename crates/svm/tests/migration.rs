//! Home migration through `SvmSystem::migrate_home`, the paper's
//! mechanism (§2.1.3) with no policy deciding when to use it.

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use cables_svm::{Cluster, ClusterConfig, NodeStats, SvmConfig, SvmSystem};

/// Node 1 repeatedly writes a segment homed on node 0 under a lock,
/// migrating it home before round `migrate_at`'s release. Returns (diffs
/// sent by node 1, migrations to node 1, final value seen by node 0).
fn run(migrate_at: Option<u64>, rounds: u64) -> (u64, u64, u64) {
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), SvmConfig::cables());
    let out = Arc::new(StdMutex::new((0u64, 0u64, 0u64)));
    let o2 = Arc::clone(&out);
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, 4096);
            // Master first-touches: home on node 0.
            s2.write::<u64>(sim, a, 0);
            let s3 = Arc::clone(&s2);
            let worker = s2.create(sim, move |ws| {
                for r in 0..rounds {
                    s3.lock(ws, 1);
                    for w in 0..16u64 {
                        s3.write::<u64>(ws, a + w * 8, r * 100 + w);
                    }
                    if migrate_at == Some(r) {
                        assert!(s3.migrate_home(ws, a), "the writer takes the segment");
                    }
                    s3.unlock(ws, 1);
                }
            });
            sim.wait_exit(worker);
            s2.lock(sim, 1);
            let v = s2.read::<u64>(sim, a + 8);
            s2.unlock(sim, 1);
            let n1 = cluster.nodes()[1];
            let st = s2.node_stats(n1);
            *o2.lock().unwrap() = (st.diffs_sent, st.migrations, v);
        })
        .unwrap();
    let v = *out.lock().unwrap();
    v
}

#[test]
fn without_migration_every_release_diffs_remotely() {
    let (diffs, migrations, v) = run(None, 8);
    assert_eq!(migrations, 0, "paper configuration never migrates");
    assert_eq!(diffs, 8, "one remote diff per release");
    assert_eq!(v, 701);
}

#[test]
fn migrate_home_stops_the_writers_remote_diffs() {
    let (diffs, migrations, v) = run(Some(2), 8);
    assert_eq!(migrations, 1, "one chunk migration to the writer");
    assert_eq!(diffs, 2, "after migration the writer is home");
    assert_eq!(v, 701, "data survives the migration");
}

#[test]
fn reader_on_old_home_sees_post_migration_writes() {
    // After the chunk moves to node 1, node 0's stale copy must be
    // invalidated by the migration notice and refetched from the new home.
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), SvmConfig::cables());
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, 4096);
            s2.write::<u64>(sim, a, 1);
            let s3 = Arc::clone(&s2);
            let worker = s2.create(sim, move |ws| {
                for r in 0..6u64 {
                    s3.lock(ws, 1);
                    s3.write::<u64>(ws, a, 10 + r);
                    if r == 1 {
                        assert!(s3.migrate_home(ws, a));
                    }
                    s3.unlock(ws, 1);
                }
            });
            sim.wait_exit(worker);
            s2.lock(sim, 1);
            assert_eq!(s2.read::<u64>(sim, a), 15);
            s2.unlock(sim, 1);
            // The migration actually happened.
            let st = s2.node_stats(cluster.nodes()[1]);
            assert_eq!(st.migrations, 1);
        })
        .unwrap();
}

#[test]
fn migrate_home_takes_a_chunk_the_caller_never_touched() {
    // Node 1 has neither a copy nor the old home's region imported: the
    // pull imports it first.
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), SvmConfig::cables());
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, 4096);
            s2.write::<u64>(sim, a, 5);
            let s3 = Arc::clone(&s2);
            let worker = s2.create(sim, move |ws| {
                let t0 = ws.now();
                assert!(s3.migrate_home(ws, a));
                // Node 1 has no home region yet: the migration exports one
                // and pays the NIC's registration (40 us), not an extension
                // (5 us) of a region it does not have.
                assert_eq!(ws.now() - t0, 1_443_808);
                s3.lock(ws, 1);
                assert_eq!(s3.read::<u64>(ws, a), 5);
                s3.write::<u64>(ws, a, 6);
                s3.unlock(ws, 1);
            });
            sim.wait_exit(worker);
            s2.lock(sim, 1);
            assert_eq!(s2.read::<u64>(sim, a), 6);
            s2.unlock(sim, 1);
            let n1 = s2.node_stats(cluster.nodes()[1]);
            assert_eq!((n1.migrations, n1.diffs_sent), (1, 0));
        })
        .unwrap();
}

#[test]
fn migrate_home_refuses_a_chunk_homed_here_and_changes_nothing() {
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), SvmConfig::cables());
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, 4096);
            assert!(!s2.migrate_home(sim, a), "an unplaced chunk has no home");
            s2.write::<u64>(sim, a, 1);
            let (before, t) = (s2.total_stats(), sim.now());
            assert!(!s2.migrate_home(sim, a), "the chunk is homed here");
            assert_eq!(s2.total_stats(), before);
            assert_eq!(sim.now(), t);
        })
        .unwrap();
}

#[test]
fn migrate_home_refuses_a_chunk_another_node_holds_unflushed_writes_in() {
    // Node 0 homes the segment; node 1 writes a word of it and holds the
    // write past node 2's attempt to take the chunk. The move would leave
    // node 1's diff aimed at the old home, so it is refused.
    let cluster = Cluster::build(ClusterConfig::small(3, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), SvmConfig::cables());
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, 4096);
            s2.write::<u64>(sim, a, 0);
            let s3 = Arc::clone(&s2);
            let writer = s2.create(sim, move |ws| {
                assert_eq!(ws.node().0, 1);
                s3.lock(ws, 1);
                s3.write::<u64>(ws, a, 7);
                ws.advance(50_000_000);
                s3.unlock(ws, 1);
            });
            let s3 = Arc::clone(&s2);
            let mover = s2.create(sim, move |ws| {
                assert_eq!(ws.node().0, 2);
                ws.advance(20_000_000);
                // Let every thread with an earlier clock run first.
                ws.sync_point();
                let before = s3.total_stats();
                assert!(!s3.migrate_home(ws, a + 8));
                assert_eq!(s3.total_stats(), before);
            });
            sim.wait_exit(writer);
            sim.wait_exit(mover);
            s2.lock(sim, 1);
            assert_eq!(s2.read::<u64>(sim, a), 7);
            s2.unlock(sim, 1);
            assert_eq!(s2.total_stats().migrations, 0);
        })
        .unwrap();
}

#[test]
fn migration_does_not_resurrect_an_invalidated_copy() {
    // Node 1 caches page A, node 0 (its home) then rewrites it, and node
    // 1's next acquire invalidates the copy — the frame stays mapped
    // (`Prot::None`) with the old bytes. When node 1 then takes the
    // chunk while writing its neighbour page B, the migration must pull A
    // from the old home, not from that dead frame.
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), SvmConfig::cables());
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, 2 * 4096);
            let b = a + 4096;
            s2.write::<u64>(sim, a, 1);
            s2.write::<u64>(sim, b, 0);
            let s3 = Arc::clone(&s2);
            let cacher = s2.create(sim, move |ws| {
                s3.lock(ws, 1);
                assert_eq!(s3.read::<u64>(ws, a), 1);
                s3.unlock(ws, 1);
            });
            sim.wait_exit(cacher);
            s2.lock(sim, 1);
            s2.write::<u64>(sim, a, 2);
            s2.unlock(sim, 1);
            // Creation is round-robin over processors: burn node 0's turn
            // so the migrator lands on node 1 again.
            let filler = s2.create(sim, |_| {});
            sim.wait_exit(filler);
            let s3 = Arc::clone(&s2);
            let migrator = s2.create(sim, move |ws| {
                for r in 0..6u64 {
                    s3.lock(ws, 1);
                    s3.write::<u64>(ws, b, r);
                    if r == 0 {
                        assert!(s3.migrate_home(ws, b));
                    }
                    s3.unlock(ws, 1);
                }
                s3.lock(ws, 1);
                assert_eq!(s3.read::<u64>(ws, a), 2, "stale bytes became the new home");
                s3.unlock(ws, 1);
            });
            sim.wait_exit(migrator);
            assert_eq!(s2.node_stats(cluster.nodes()[1]).migrations, 1);
        })
        .unwrap();
}

/// FNV-1a, folded one word at a time.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn migration_golden_both_pull_sources() {
    // Two chunks move to node 1 through `migrate_home` with the bus on.
    // Chunk A is pulled from both sources: its page A1 from node 1's
    // current (dirty) copy, its page A0 — cached by node 1, then rewritten
    // by the home and invalidated at node 1's next acquire — from the old
    // home. Chunk B is written by node 1 alone. Pinned: end time, per-node
    // counters, the memory both nodes read back and the protocol events.
    const CHUNK: u64 = 16 * 4096;
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), SvmConfig::cables());
    sys.set_obs(true);
    let s2 = Arc::clone(&sys);
    let out = Arc::new(StdMutex::new((0u64, 0u64)));
    let o2 = Arc::clone(&out);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, 2 * CHUNK);
            let (a0, a1, b0) = (a, a + 4096 + 8, a + CHUNK + 16);
            s2.write::<u64>(sim, a0, 1);
            s2.write::<u64>(sim, a1, 0);
            s2.write::<u64>(sim, b0, 0);
            let s3 = Arc::clone(&s2);
            let cacher = s2.create(sim, move |ws| {
                s3.lock(ws, 1);
                assert_eq!(s3.read::<u64>(ws, a0), 1);
                s3.unlock(ws, 1);
            });
            sim.wait_exit(cacher);
            s2.lock(sim, 1);
            s2.write::<u64>(sim, a0, 2);
            s2.unlock(sim, 1);
            // Creation is round-robin over processors: burn node 0's turn.
            let filler = s2.create(sim, |_| {});
            sim.wait_exit(filler);
            let s3 = Arc::clone(&s2);
            let migrator = s2.create(sim, move |ws| {
                for r in 0..6u64 {
                    s3.lock(ws, 1);
                    s3.write::<u64>(ws, a1, 10 + r);
                    s3.write::<u64>(ws, b0, 20 + r);
                    match r {
                        0 => assert!(s3.migrate_home(ws, a1)),
                        1 => assert!(s3.migrate_home(ws, b0)),
                        _ => {}
                    }
                    s3.unlock(ws, 1);
                }
                s3.lock(ws, 1);
                assert_eq!(s3.read::<u64>(ws, a0), 2, "stale bytes became the new home");
                s3.unlock(ws, 1);
            });
            sim.wait_exit(migrator);
            s2.lock(sim, 1);
            let mut mem = 0xcbf2_9ce4_8422_2325u64;
            for p in 0..32 {
                for w in 0..3 {
                    let v = s2.read::<u64>(sim, a + p * 4096 + w * 8);
                    fnv(&mut mem, &v.to_le_bytes());
                }
            }
            s2.unlock(sim, 1);
            *o2.lock().unwrap() = (sim.now().as_nanos(), mem);
        })
        .unwrap();
    let (end, mem) = *out.lock().unwrap();
    let mut events = 0xcbf2_9ce4_8422_2325u64;
    let mut proto = 0u64;
    for r in sys.obs().events() {
        if r.layer == obs::Layer::Proto {
            proto += 1;
            let line = format!("{} {} {} {} {:?}", r.at, r.dur_ns, r.node, r.track, r.event);
            fnv(&mut events, line.as_bytes());
        }
    }
    let n0 = sys.node_stats(cluster.nodes()[0]);
    let n1 = sys.node_stats(cluster.nodes()[1]);
    if std::env::var_os("PINNED_SHOW").is_some() {
        println!("end {end} mem {mem} proto {proto} events {events}\n{n0:#?}\n{n1:#?}");
    }
    assert_eq!(n1.migrations, 2, "both chunks move to the writer");
    assert_eq!(end, 8_836_346, "simulated end time moved");
    assert_eq!(mem, 10_737_715_805_422_153_329, "memory read back moved");
    assert_eq!(
        (proto, events),
        (226, 15_443_844_952_504_967_568),
        "protocol event stream moved"
    );
    let stats = |read_faults, write_faults, remote_fetches, diffs_sent, diff_bytes| NodeStats {
        read_faults,
        write_faults,
        remote_fetches,
        fetch_bytes: remote_fetches * 4096,
        diffs_sent,
        diff_bytes,
        ..NodeStats::default()
    };
    let golden0 = NodeStats {
        notices_applied: 32,
        placements: 2,
        lock_acquires: 2,
        ..stats(32, 4, 32, 0, 0)
    };
    let golden1 = NodeStats {
        notices_applied: 1,
        migrations: 2,
        lock_acquires: 8,
        ..stats(2, 12, 3, 1, 8)
    };
    assert_eq!((n0, n1), (golden0, golden1), "protocol counters moved");
}
