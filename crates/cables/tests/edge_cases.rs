//! Edge-case semantics of the CableS runtime: cancellation interactions,
//! GLOBAL statics, allocation boundaries, placement corner cases.

use std::sync::Arc;

use cables::{CablesConfig, CablesRt, Pth};
use svm::{Cluster, ClusterConfig};

fn rt(nodes: usize, cpus: usize) -> Arc<CablesRt> {
    let cluster = Cluster::build(ClusterConfig::small(nodes, cpus));
    CablesRt::new(cluster, CablesConfig::paper())
}

#[test]
fn cancel_wakes_a_cond_waiter() {
    let rt = rt(2, 2);
    rt.run(|pth| {
        let m = pth.rt().mutex_new();
        let cv = pth.rt().cond_new();
        let victim = pth.create(move |p| {
            p.mutex_lock(m);
            match p.cond_wait(cv, m) {
                Err(_) => 77, // cancelled while waiting; mutex NOT re-held
                Ok(()) => {
                    p.mutex_unlock(m);
                    0
                }
            }
        });
        pth.compute(1_000_000);
        pth.cancel(victim);
        assert_eq!(pth.join(victim), 77);
        // The mutex must be acquirable again (the cancelled waiter had
        // released it on entry to the wait).
        pth.mutex_lock(m);
        pth.mutex_unlock(m);
        0
    })
    .unwrap();
}

#[test]
fn cancel_of_finished_thread_is_a_noop() {
    let rt = rt(1, 2);
    rt.run(|pth| {
        let w = pth.create(|_| 5);
        assert_eq!(pth.join(w), 5);
        pth.cancel(w); // already finished: must not panic or corrupt
        0
    })
    .unwrap();
}

#[test]
fn double_cancel_is_idempotent() {
    let rt = rt(1, 2);
    rt.run(|pth| {
        let w = pth.create(|p| {
            for _ in 0..100 {
                p.compute(50_000);
                if p.test_cancel().is_err() {
                    return 1;
                }
            }
            0
        });
        pth.compute(200_000);
        pth.cancel(w);
        pth.cancel(w);
        assert_eq!(pth.join(w), 1);
        0
    })
    .unwrap();
}

#[test]
fn join_returns_value_long_after_exit() {
    let rt = rt(2, 2);
    rt.run(|pth| {
        let w = pth.create(|_| 1234);
        pth.compute(sim::dur::secs(1));
        assert_eq!(pth.join(w), 1234, "ACB retains the return value");
        0
    })
    .unwrap();
}

#[test]
fn global_statics_pack_and_are_shared() {
    let rt = rt(2, 1);
    rt.run(|pth| {
        let a = pth.define_global(4);
        let b = pth.define_global(16);
        assert!(b.raw() >= a.raw() + 4);
        assert_eq!(b.raw() % 8, 0, "8-aligned");
        pth.write::<u32>(a, 0xAABB);
        pth.write::<u64>(b, 42);
        let w = pth.create(move |p| u64::from(p.read::<u32>(a)) + p.read::<u64>(b));
        assert_eq!(pth.join(w), 0xAABB + 42);
        0
    })
    .unwrap();
}

#[test]
fn malloc_spanning_many_chunks_works() {
    let rt = rt(2, 1);
    rt.run(|pth| {
        // 5 chunks worth of memory, written end to end from both nodes.
        let a = pth.malloc(5 * (64 << 10));
        let w = pth.create(move |p| {
            let mut acc = 0u64;
            for c in 0..5u64 {
                let addr = a + c * (64 << 10) + 8;
                p.write::<u64>(addr, c + 1);
                acc += p.read::<u64>(addr);
            }
            acc
        });
        assert_eq!(pth.join(w), 1 + 2 + 3 + 4 + 5);
        for c in 0..5u64 {
            // Join is an acquire: the master sees every chunk's write.
            assert_eq!(pth.read::<u64>(a + c * (64 << 10) + 8), c + 1);
        }
        0
    })
    .unwrap();
}

#[test]
fn oversubscription_wraps_round_robin() {
    // More threads than the cluster has processors: placement wraps
    // instead of failing (paper: threads are scheduled by the local OS).
    let rt = rt(2, 1);
    let rt2 = Arc::clone(&rt);
    rt.run(move |pth| {
        let mut kids = Vec::new();
        for _ in 0..6 {
            kids.push(pth.create(|p| {
                p.compute(100_000);
                p.node().0 as u64
            }));
        }
        let mut on_node = [0u64; 2];
        for k in kids {
            on_node[pth.join(k) as usize] += 1;
        }
        assert_eq!(on_node[0] + on_node[1], 6);
        assert!(on_node[0] >= 1 && on_node[1] >= 1, "{on_node:?}");
        let _ = rt2.stats();
        0
    })
    .unwrap();
}

#[test]
fn free_list_reuse_keeps_data_isolated() {
    let rt = rt(1, 1);
    rt.run(|pth| {
        let a = pth.malloc(64);
        pth.write::<u64>(a, 0xDEAD);
        pth.free(a);
        let b = pth.malloc(64);
        // Reused address: old bytes may remain (malloc, not calloc), but
        // writing and reading must be fully functional.
        pth.write::<u64>(b, 0xBEEF);
        assert_eq!(pth.read::<u64>(b), 0xBEEF);
        0
    })
    .unwrap();
}

#[test]
fn barrier_heavy_reuse_with_changing_membership() {
    // The same barrier id is reused across episodes with different
    // participant sets (sequential phases of different widths).
    let rt = rt(2, 2);
    let rt2 = Arc::clone(&rt);
    rt.run(|pth| {
        let b = pth.rt().barrier_new();
        // Phase 1: 3 participants.
        let mut kids = Vec::new();
        for _ in 0..2 {
            kids.push(pth.create(move |p| {
                p.barrier(b, 3);
                0
            }));
        }
        pth.barrier(b, 3);
        for k in kids {
            pth.join(k);
        }
        // Phase 2: 2 participants, same id.
        let w = pth.create(move |p| {
            p.barrier(b, 2);
            0
        });
        pth.barrier(b, 2);
        pth.join(w);
        0
    })
    .unwrap();
    // Contention counters run unconditionally: five crossings total, with
    // at least two threads simultaneously inside a barrier, and real
    // simulated time spent waiting.
    let c = rt2.contention();
    assert_eq!(c.barrier_waits, 5, "3 + 2 barrier crossings");
    assert!(c.barrier_max_waiters >= 2, "{c:?}");
    assert!(c.barrier_wait_ns > 0, "{c:?}");
}

#[test]
fn detached_style_threads_finish_via_pthread_end() {
    // Threads that are never joined are still reaped by pthread_end.
    let rt = rt(2, 2);
    let rt2 = Arc::clone(&rt);
    let end = rt
        .run(|pth| {
            for i in 0..3u64 {
                pth.create(move |p| {
                    p.compute(500_000 * (i + 1));
                    0
                });
            }
            0 // main returns immediately; pthread_end waits
        })
        .unwrap();
    assert!(end.as_nanos() > 1_500_000);
    assert_eq!(rt2.stats().joins, 0);
}

fn spawn_tree(p: &Pth, depth: u64) -> u64 {
    if depth == 0 {
        return 1;
    }
    let left = p.create(move |q| spawn_tree(q, depth - 1));
    let right = p.create(move |q| spawn_tree(q, depth - 1));
    p.join(left) + p.join(right) + 1
}

#[test]
fn threads_can_create_threads_recursively() {
    // Dynamic creation from worker threads (not just the initial thread).
    let rt = rt(2, 4);
    rt.run(|pth| {
        let total = spawn_tree(pth, 3);
        assert_eq!(total, 15, "2^4 - 1 nodes of the spawn tree");
        0
    })
    .unwrap();
}
