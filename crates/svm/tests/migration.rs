//! The home-migration policy extension (paper §2.1.3 provides the
//! mechanisms; the policy here is the counter-driven `PlacementPolicy`).

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use cables_svm::{Cluster, ClusterConfig, NodeStats, PlacementPolicy, SvmConfig, SvmSystem};

/// The counter policy with a traffic floor of `min_traffic` remote
/// fetch+diff messages, no cooldown, and the default dominance share;
/// `None` is the paper's configuration.
fn policy_cfg(min_traffic: Option<u32>) -> SvmConfig {
    let mut cfg = SvmConfig::cables();
    cfg.placement_policy = min_traffic.map(|k| PlacementPolicy {
        min_traffic: k,
        dominance_pct: 60,
        cooldown_releases: 0,
    });
    cfg
}

/// Node 1 repeatedly writes a segment homed on node 0 under a lock.
/// Returns (diffs sent by node 1, migrations to node 1, final value seen
/// by node 0).
fn run(min_traffic: Option<u32>, rounds: u64) -> (u64, u64, u64) {
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), policy_cfg(min_traffic));
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
fn without_policy_every_release_diffs_remotely() {
    let (diffs, migrations, v) = run(None, 8);
    assert_eq!(migrations, 0, "paper configuration never migrates");
    assert_eq!(diffs, 8, "one remote diff per release");
    assert_eq!(v, 701);
}

#[test]
fn policy_migrates_and_stops_remote_diffs() {
    let (diffs, migrations, v) = run(Some(3), 8);
    assert_eq!(migrations, 1, "one chunk migration to the writer");
    assert!(
        diffs <= 3,
        "after migration the writer is home (got {diffs} diffs)"
    );
    assert_eq!(v, 701, "data survives the migration");
}

#[test]
fn reader_on_old_home_sees_post_migration_writes() {
    // After the chunk moves to node 1, node 0's stale copy must be
    // invalidated by the migration notice and refetched from the new home.
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), policy_cfg(Some(2)));
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
                    s3.unlock(ws, 1);
                }
            });
            sim.wait_exit(worker);
            s2.lock(sim, 1);
            assert_eq!(s2.read::<u64>(sim, a), 15);
            s2.unlock(sim, 1);
            // The migration actually happened.
            let st = s2.node_stats(cluster.nodes()[1]);
            assert!(st.migrations >= 1);
        })
        .unwrap();
}

/// Writers on nodes 1 and 2 take turns incrementing a word homed on node
/// 0, `rounds` each. Returns the migrations.
fn ping_pong(cfg: SvmConfig, rounds: u64) -> u64 {
    let cluster = Cluster::build(ClusterConfig::small(3, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, 4096);
            s2.write::<u64>(sim, a, 0);
            let mk = |sysr: Arc<SvmSystem>, delay: u64| {
                move |ws: &sim::Sim| {
                    ws.advance(delay);
                    for _ in 0..rounds {
                        sysr.lock(ws, 1);
                        let v = sysr.read::<u64>(ws, a);
                        sysr.write::<u64>(ws, a, v + 1);
                        sysr.unlock(ws, 1);
                        ws.advance(50_000);
                    }
                }
            };
            let w1 = s2.create(sim, mk(Arc::clone(&s2), 0));
            let w2 = s2.create(sim, mk(Arc::clone(&s2), 25_000));
            sim.wait_exit(w1);
            sim.wait_exit(w2);
            s2.lock(sim, 1);
            assert_eq!(s2.read::<u64>(sim, a), 2 * rounds);
            s2.unlock(sim, 1);
        })
        .unwrap();
    sys.total_stats().migrations
}

#[test]
fn ping_pong_writers_do_not_thrash_migration() {
    // Alternating writers split the chunk's traffic: neither dominates.
    let defaults = SvmConfig::cables().with_placement_policy();
    assert_eq!(ping_pong(defaults, 100), 0);
}

#[test]
fn ping_pong_writers_move_a_hair_trigger_policy() {
    // The known limit of the dominance test: once a writer becomes home,
    // its own writes are home-local and never reach the chunk's traffic,
    // so the other writer dominates what is left and takes the chunk back.
    assert_eq!(ping_pong(policy_cfg(Some(3)), 6), 4);
}

#[test]
fn migration_does_not_resurrect_an_invalidated_copy() {
    // Node 1 caches page A, node 0 (its home) then rewrites it, and node
    // 1's next acquire invalidates the copy — the frame stays mapped
    // (`Prot::None`) with the old bytes. When node 1 then earns the
    // chunk by writing its neighbour page B, the migration must pull A
    // from the old home, not from that dead frame.
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), policy_cfg(Some(2)));
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
                    s3.unlock(ws, 1);
                }
                s3.lock(ws, 1);
                assert_eq!(s3.read::<u64>(ws, a), 2, "stale bytes became the new home");
                s3.unlock(ws, 1);
            });
            sim.wait_exit(migrator);
            assert!(s2.node_stats(cluster.nodes()[1]).migrations >= 1);
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
    // Two chunks move to node 1 under the counter policy with the bus on.
    // Chunk A is pulled from both sources: its page A1 from node 1's
    // current (dirty) copy, its page A0 — cached by node 1, then rewritten
    // by the home and invalidated at node 1's next acquire — from the old
    // home. Chunk B is written by node 1 alone. Pinned: end time, per-node
    // counters, the memory both nodes read back and the protocol events.
    const CHUNK: u64 = 16 * 4096;
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), policy_cfg(Some(2)));
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
    assert_eq!(end, 8_801_346, "simulated end time moved");
    assert_eq!(mem, 10_737_715_805_422_153_329, "memory read back moved");
    assert_eq!(
        (proto, events),
        (226, 14_317_024_852_919_278_956),
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
        policy_considered: 3,
        policy_migrations: 2,
        ..stats(2, 12, 3, 1, 8)
    };
    assert_eq!((n0, n1), (golden0, golden1), "protocol counters moved");
}
