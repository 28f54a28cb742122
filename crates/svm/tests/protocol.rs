//! Protocol-semantics tests: release consistency, placement granularity,
//! multiple-writer merging, lock/barrier behaviour — exercised directly
//! against the SVM engine in both modes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use cables_svm::{Cluster, ClusterConfig, SvmConfig, SvmSystem};
use memsim::Prot;
use sim::{NodeId, Sim};

fn system(nodes: usize, cpus: usize, cfg: SvmConfig) -> (Arc<Cluster>, Arc<SvmSystem>) {
    let cluster = Cluster::build(ClusterConfig::small(nodes, cpus));
    let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
    (cluster, sys)
}

fn run_root<F>(cluster: &Arc<Cluster>, f: F)
where
    F: FnOnce(&Sim) + Send + 'static,
{
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], f)
        .expect("protocol test run");
}

#[test]
fn fresh_memory_reads_zero_on_both_modes() {
    for cfg in [SvmConfig::base(), SvmConfig::cables()] {
        let (cluster, sys) = system(2, 1, cfg);
        let s = Arc::clone(&sys);
        run_root(&cluster, move |sim| {
            let a = s.g_malloc(sim, 4096 * 3);
            // Demand-zero pages, across page boundaries.
            assert_eq!(s.read::<u64>(sim, a), 0);
            assert_eq!(s.read::<u64>(sim, a + 4096), 0);
            assert_eq!(s.read::<u8>(sim, a + 8191), 0);
        });
    }
}

#[test]
fn stale_read_allowed_until_acquire_then_fresh() {
    // RC semantics: between synchronization operations a reader may see
    // its old copy; after the next acquire it must see the release.
    let (cluster, sys) = system(2, 1, SvmConfig::cables());
    let s = Arc::clone(&sys);
    run_root(&cluster, move |sim| {
        let a = s.g_malloc(sim, 8);
        s.lock(sim, 1);
        s.write::<u64>(sim, a, 1);
        s.unlock(sim, 1);
        let s2 = Arc::clone(&s);
        let w = s.create(sim, move |ws| {
            // Populate a local copy.
            s2.lock(ws, 1);
            assert_eq!(s2.read::<u64>(ws, a), 1);
            s2.unlock(ws, 1);
            ws.advance(10_000_000);
            // Unsynchronized re-read: stale value 1 is legal and expected
            // here (our engine invalidates only at acquires).
            let unsynced = s2.read::<u64>(ws, a);
            assert!(unsynced == 1 || unsynced == 2, "got {unsynced}");
            // Acquire: must observe the master's second write.
            s2.lock(ws, 1);
            assert_eq!(s2.read::<u64>(ws, a), 2);
            s2.unlock(ws, 1);
        });
        sim.advance(1_000_000);
        s.lock(sim, 1);
        s.write::<u64>(sim, a, 2);
        s.unlock(sim, 1);
        sim.wait_exit(w);
    });
}

#[test]
fn read_copy_keeps_the_home_bytes_it_shares_until_acquire() {
    // A read fetch lands the home's bytes in the reader's frame without
    // copying them; the home's next write copies its own bytes once, and
    // the reader's copy keeps the pre-write words until its next acquire
    // invalidates it.
    let (cluster, sys) = system(2, 1, SvmConfig::cables());
    let (s, c) = (Arc::clone(&sys), Arc::clone(&cluster));
    run_root(&cluster, move |sim| {
        let a = s.g_malloc(sim, 16);
        s.lock(sim, 1);
        s.write::<u64>(sim, a, 1);
        s.write::<u64>(sim, a + 8, 10);
        s.unlock(sim, 1);
        let (s2, c2) = (Arc::clone(&s), Arc::clone(&c));
        let w = s.create(sim, move |ws| {
            let before = c2.mem.copy_stats();
            s2.lock(ws, 1);
            assert_eq!(s2.read::<u64>(ws, a), 1);
            s2.unlock(ws, 1);
            let fetched = c2.mem.copy_stats();
            assert_eq!(fetched.shares, before.shares + 1, "the read fetch shares");
            assert_eq!(fetched.copies, before.copies, "and copies nothing");
            ws.advance(10_000_000);
            // Let the home's write, at 1 ms, run first.
            ws.sync_point();
            let stale = (s2.read::<u64>(ws, a), s2.read::<u64>(ws, a + 8));
            assert_eq!(stale, (1, 10));
            let copied = c2.mem.copy_stats().copies - fetched.copies;
            assert_eq!(copied, 1, "the home's write took its bytes private");
            s2.lock(ws, 1);
            let fresh = (s2.read::<u64>(ws, a), s2.read::<u64>(ws, a + 8));
            assert_eq!(fresh, (2, 20));
            s2.unlock(ws, 1);
        });
        sim.advance(1_000_000);
        s.lock(sim, 1);
        s.write::<u64>(sim, a, 2);
        s.write::<u64>(sim, a + 8, 20);
        s.unlock(sim, 1);
        sim.wait_exit(w);
    });
}

#[test]
fn acquire_leaves_an_invalidated_copy_dead_until_the_refetch() {
    // The acquire that invalidates the reader's copy drops its bytes: the
    // frame stays mapped, inaccessible and dead (reading it panics), and
    // the next read refetches the writer's value into the same frame.
    let (cluster, sys) = system(2, 1, SvmConfig::cables());
    let (s, c) = (Arc::clone(&sys), Arc::clone(&cluster));
    run_root(&cluster, move |sim| {
        let a = s.g_malloc(sim, 16);
        s.lock(sim, 1);
        s.write::<u64>(sim, a, 1);
        s.unlock(sim, 1);
        let (s2, c2) = (Arc::clone(&s), Arc::clone(&c));
        let w = s.create(sim, move |ws| {
            let (node, page) = (ws.node(), a.page());
            s2.lock(ws, 1);
            assert_eq!(s2.read::<u64>(ws, a), 1);
            s2.unlock(ws, 1);
            let (frame, _) = c2.mem.translate(node, page).expect("copy mapped");
            ws.advance(10_000_000);
            // Let the home's write, at 1 ms, run first.
            ws.sync_point();
            s2.lock(ws, 1);
            assert_eq!(c2.mem.translate(node, page), Some((frame, Prot::None)));
            let read = catch_unwind(AssertUnwindSafe(|| {
                c2.mem.frame_read(frame, 0, &mut [0u8; 8]);
            }));
            let msg = read.expect_err("the invalidated copy is dead");
            let msg = msg.downcast::<String>().expect("a formatted panic message");
            assert_eq!(*msg, format!("frame_read of dead frame {frame}"));
            assert_eq!(s2.read::<u64>(ws, a), 2, "the refetch lands the new value");
            assert_eq!(c2.mem.translate(node, page), Some((frame, Prot::Read)));
            s2.unlock(ws, 1);
        });
        sim.advance(1_000_000);
        s.lock(sim, 1);
        s.write::<u64>(sim, a, 2);
        s.unlock(sim, 1);
        sim.wait_exit(w);
    });
}

#[test]
fn read_then_write_on_a_remote_reader_copies_the_page_once() {
    // The reader's write takes the bytes its read fetch shared private:
    // one copy, the one the fetch no longer pays. Nothing else copies —
    // the release reads the dirty runs straight out of the reader's frame
    // and the home, sole owner again, takes the diff in place.
    let (cluster, sys) = system(2, 1, SvmConfig::cables());
    let (s, c) = (Arc::clone(&sys), Arc::clone(&cluster));
    run_root(&cluster, move |sim| {
        let a = s.g_malloc(sim, 16);
        s.lock(sim, 1);
        s.write::<u64>(sim, a, 1);
        s.unlock(sim, 1);
        let (s2, c2) = (Arc::clone(&s), Arc::clone(&c));
        let w = s.create(sim, move |ws| {
            assert_ne!(ws.node(), NodeId(0), "the reader is remote");
            let before = c2.mem.copy_stats();
            s2.lock(ws, 1);
            assert_eq!(s2.read::<u64>(ws, a), 1);
            let read = c2.mem.copy_stats();
            assert_eq!(
                (read.shares, read.copies),
                (before.shares + 1, before.copies)
            );
            s2.write::<u64>(ws, a + 8, 7);
            s2.unlock(ws, 1);
            let after = c2.mem.copy_stats();
            assert_eq!(
                (after.shares, after.copies),
                (before.shares + 1, before.copies + 1)
            );
        });
        sim.wait_exit(w);
        assert_eq!((s.read::<u64>(sim, a), s.read::<u64>(sim, a + 8)), (1, 7));
    });
}

#[test]
fn concurrent_writers_merge_word_level() {
    // Two nodes write disjoint words of the SAME page in the same
    // barrier interval: word-granularity diffs must merge at the home.
    for cfg in [SvmConfig::base(), SvmConfig::cables()] {
        let (cluster, sys) = system(3, 1, cfg);
        let s = Arc::clone(&sys);
        run_root(&cluster, move |sim| {
            let a = s.g_malloc(sim, 4096);
            // Master homes the page.
            s.write::<u64>(sim, a, 0);
            let n = 3;
            for t in 0..2u64 {
                let s2 = Arc::clone(&s);
                s.create(sim, move |ws| {
                    // Writer t covers words with index % 2 == t (skipping
                    // word 0, the master's).
                    for w in 1..512u64 {
                        if w % 2 == t {
                            s2.write::<u64>(ws, a + w * 8, 1000 + w);
                        }
                    }
                    s2.barrier(ws, 7, n);
                });
            }
            s.barrier(sim, 7, n);
            for w in 1..512u64 {
                assert_eq!(s.read::<u64>(sim, a + w * 8), 1000 + w, "word {w}");
            }
            s.wait_for_end(sim);
        });
    }
}

#[test]
fn concurrent_writers_invalidate_each_other() {
    // Regression for the multi-writer version bug: after the barrier BOTH
    // writers (not just the home) must observe each other's words.
    let (cluster, sys) = system(3, 1, SvmConfig::cables());
    let s = Arc::clone(&sys);
    run_root(&cluster, move |sim| {
        let a = s.g_malloc(sim, 4096);
        s.write::<u64>(sim, a, 0);
        let n = 3;
        for t in 0..2u64 {
            let s2 = Arc::clone(&s);
            s.create(sim, move |ws| {
                s2.write::<u64>(ws, a + 8 + t * 8, 100 + t);
                s2.barrier(ws, 9, n);
                // Cross-check the other writer's word.
                let other = 1 - t;
                assert_eq!(
                    s2.read::<u64>(ws, a + 8 + other * 8),
                    100 + other,
                    "writer {t} must see writer {other}"
                );
                s2.barrier(ws, 9, n);
            });
        }
        s.barrier(sim, 9, n);
        s.barrier(sim, 9, n);
        s.wait_for_end(sim);
    });
}

#[test]
fn placement_granularity_homes_whole_chunk_in_cables_mode() {
    let (cluster, sys) = system(2, 1, SvmConfig::cables());
    let s = Arc::clone(&sys);
    let sys2 = Arc::clone(&sys);
    run_root(&cluster, move |sim| {
        let a = s.g_malloc(sim, 64 << 10);
        s.write::<u64>(sim, a, 1); // first touch: one page of the chunk
    });
    // All 16 pages of the chunk were placed in one operation.
    let stats = sys2.node_stats(sys2.master());
    assert_eq!(stats.placements, 1);
    let rep = sys2.placement_report();
    assert_eq!(rep.touched_pages, 1, "only one page actually touched");
}

#[test]
fn placement_granularity_is_per_page_in_base_mode() {
    let (cluster, sys) = system(2, 1, SvmConfig::base());
    let s = Arc::clone(&sys);
    let sys2 = Arc::clone(&sys);
    run_root(&cluster, move |sim| {
        let a = s.g_malloc(sim, 64 << 10);
        s.write::<u64>(sim, a, 1);
        s.write::<u64>(sim, a + 4096, 1);
    });
    assert_eq!(sys2.node_stats(sys2.master()).placements, 2);
}

#[test]
fn fetch_stats_account_whole_pages() {
    let (cluster, sys) = system(2, 1, SvmConfig::cables());
    let s = Arc::clone(&sys);
    let sys2 = Arc::clone(&sys);
    run_root(&cluster, move |sim| {
        let a = s.g_malloc(sim, 4096 * 2);
        s.write::<u64>(sim, a, 5);
        s.write::<u64>(sim, a + 4096, 6);
        let s2 = Arc::clone(&s);
        let w = s.create(sim, move |ws| {
            assert_eq!(s2.read::<u64>(ws, a), 5);
            assert_eq!(s2.read::<u64>(ws, a + 4096), 6);
        });
        sim.wait_exit(w);
    });
    let total = sys2.total_stats();
    assert_eq!(total.remote_fetches, 2);
    assert_eq!(total.fetch_bytes, 2 * 4096);
}

#[test]
fn lock_handoff_is_fifo() {
    let (cluster, sys) = system(4, 1, SvmConfig::base());
    let s = Arc::clone(&sys);
    let order = Arc::new(StdMutex::new(Vec::new()));
    let o2 = Arc::clone(&order);
    run_root(&cluster, move |sim| {
        s.lock(sim, 5);
        let mut kids = Vec::new();
        for t in 0..3u64 {
            let s2 = Arc::clone(&s);
            let o3 = Arc::clone(&o2);
            kids.push(s.create(sim, move |ws| {
                // Stagger arrivals deterministically.
                ws.advance(100_000 * (t + 1));
                s2.lock(ws, 5);
                o3.lock().unwrap().push(t);
                s2.unlock(ws, 5);
            }));
        }
        sim.advance(10_000_000); // everyone queues
        sim.sync_point();
        s.unlock(sim, 5);
        for k in kids {
            sim.wait_exit(k);
        }
    });
    assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "FIFO grant order");
}

#[test]
fn barrier_of_one_is_trivial() {
    let (cluster, sys) = system(1, 1, SvmConfig::base());
    let s = Arc::clone(&sys);
    run_root(&cluster, move |sim| {
        for _ in 0..3 {
            s.barrier(sim, 1, 1);
        }
    });
}

#[test]
fn write_through_preserves_correctness_for_single_writer_streams() {
    let mut cfg = SvmConfig::base();
    cfg.write_through_single_writer = true;
    let (cluster, sys) = system(2, 1, cfg);
    let s = Arc::clone(&sys);
    run_root(&cluster, move |sim| {
        let a = s.g_malloc(sim, 4096);
        s.write::<u64>(sim, a, 0); // master homes the page
        let s2 = Arc::clone(&s);
        let w = s.create(sim, move |ws| {
            for r in 0..5u64 {
                s2.lock(ws, 2);
                for i in 0..8u64 {
                    s2.write::<u64>(ws, a + 64 + i * 8, r * 10 + i);
                }
                s2.unlock(ws, 2);
            }
        });
        sim.wait_exit(w);
        s.lock(sim, 2);
        for i in 0..8u64 {
            assert_eq!(s.read::<u64>(sim, a + 64 + i * 8), 40 + i);
        }
        s.unlock(sim, 2);
    });
}

#[test]
fn same_node_threads_share_page_table_without_clobber() {
    // Regression for the concurrent same-node fault clobber: two threads
    // on one node write the same fresh page back to back.
    let (cluster, sys) = system(2, 2, SvmConfig::cables());
    let s = Arc::clone(&sys);
    run_root(&cluster, move |sim| {
        let a = s.g_malloc(sim, 4096);
        s.write::<u64>(sim, a, 7); // homed on master
        let n = 3;
        for t in 0..2u64 {
            let s2 = Arc::clone(&s);
            // Both workers land on node 1 (round-robin: procs 1 and 2).
            s.create(sim, move |ws| {
                for i in 0..32u64 {
                    s2.write::<u64>(ws, a + 256 + (t * 32 + i) * 8, t * 32 + i);
                }
                s2.barrier(ws, 4, n);
            });
        }
        s.barrier(sim, 4, n);
        for v in 0..64u64 {
            assert_eq!(s.read::<u64>(sim, a + 256 + v * 8), v);
        }
        s.wait_for_end(sim);
    });
}

#[test]
fn notices_do_not_invalidate_own_current_copy() {
    // A single writer's copy survives its own releases (no refetch storm).
    let (cluster, sys) = system(2, 1, SvmConfig::cables());
    let s = Arc::clone(&sys);
    let sys2 = Arc::clone(&sys);
    run_root(&cluster, move |sim| {
        let a = s.g_malloc(sim, 4096);
        s.write::<u64>(sim, a, 0);
        let s2 = Arc::clone(&s);
        let w = s.create(sim, move |ws| {
            for r in 0..10u64 {
                s2.lock(ws, 3);
                s2.write::<u64>(ws, a + 8, r);
                s2.unlock(ws, 3);
            }
        });
        sim.wait_exit(w);
    });
    let total = sys2.total_stats();
    assert!(
        total.remote_fetches <= 2,
        "sole writer must not refetch per round (got {})",
        total.remote_fetches
    );
}

#[test]
fn deterministic_stats_across_identical_runs() {
    fn one() -> (u64, u64, u64) {
        let (cluster, sys) = system(2, 2, SvmConfig::cables());
        let s = Arc::clone(&sys);
        run_root(&cluster, move |sim| {
            let a = s.g_malloc(sim, 4096 * 4);
            let n = 3;
            for t in 0..2u64 {
                let s2 = Arc::clone(&s);
                s.create(sim, move |ws| {
                    for i in 0..256u64 {
                        s2.write::<u64>(ws, a + ((t * 256 + i) % 2048) * 8, i);
                    }
                    s2.barrier(ws, 11, n);
                });
            }
            s.barrier(sim, 11, n);
            s.wait_for_end(sim);
        });
        let t = sys.total_stats();
        (
            t.read_faults + t.write_faults,
            t.remote_fetches,
            t.diffs_sent,
        )
    }
    assert_eq!(one(), one());
}
