//! Quickstart: a CableS "hello cluster" — dynamic threads, dynamic global
//! memory, mutexes, condition variables and the barrier extension, on a
//! simulated 4-node (8-processor) cluster.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use cables::{CablesConfig, CablesRt};
use svm::{Cluster, ClusterConfig};

fn main() {
    // A 4-node cluster of 2-way SMPs (the paper's nodes), Myrinet-class
    // SAN, WindowsNT memory model.
    let cluster = Cluster::build(ClusterConfig::small(4, 2));
    let rt = CablesRt::new(Arc::clone(&cluster), CablesConfig::paper());
    let rt2 = Arc::clone(&rt);

    let end = rt
        .run(move |pth| {
            println!("pthread_start done on {:?}", pth.node());

            // Dynamic global memory: allocate mid-execution, from anywhere.
            let counter = pth.malloc(8);
            pth.write::<u64>(counter, 0);
            let m = pth.rt().mutex_new();
            let done_cv = pth.rt().cond_new();
            let done_flag = pth.malloc(8);
            pth.write::<u64>(done_flag, 0);

            // Create more threads than the master node can hold: CableS
            // attaches new nodes on the fly (expensive — seconds — exactly
            // like the paper's Table 4 says).
            let workers: Vec<_> = (0..6)
                .map(|i| {
                    pth.create(move |p| {
                        p.compute(50_000 * (i + 1));
                        p.mutex_lock(m);
                        let v = p.read::<u64>(counter);
                        p.write::<u64>(counter, v + i + 1);
                        p.mutex_unlock(m);
                        p.node().0 as u64
                    })
                })
                .collect();

            // A watcher thread waits on a condition variable.
            let watcher = pth.create(move |p| {
                let wm = p.rt().mutex_new();
                p.mutex_lock(wm);
                while p.read::<u64>(done_flag) == 0 {
                    if p.cond_wait(done_cv, wm).is_err() {
                        return 0;
                    }
                }
                p.mutex_unlock(wm);
                p.read::<u64>(counter)
            });

            let mut nodes_used = Vec::new();
            for w in workers {
                nodes_used.push(pth.join(w));
            }
            pth.mutex_lock(m);
            let total = pth.read::<u64>(counter);
            pth.mutex_unlock(m);
            println!("workers ran on nodes {nodes_used:?}; counter = {total}");
            assert_eq!(total, 1 + 2 + 3 + 4 + 5 + 6);

            pth.write::<u64>(done_flag, 1);
            pth.cond_signal(done_cv);
            let seen = pth.join(watcher);
            println!("watcher observed counter = {seen}");
            0
        })
        .expect("simulation");

    let stats = rt2.stats();
    println!(
        "virtual time {end}; nodes attached {}; creates {} local / {} remote",
        stats.nodes_attached, stats.local_creates, stats.remote_creates
    );
    let placement = rt2.svm().placement_report();
    println!(
        "pages touched {}, misplaced {} ({:.1}%) — the WindowsNT 64KB effect",
        placement.touched_pages,
        placement.misplaced_pages,
        placement.misplaced_pct()
    );
}
