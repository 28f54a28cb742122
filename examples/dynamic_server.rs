//! A dynamic, commercially-shaped workload — the class of application the
//! paper's introduction motivates: requests arrive over time, worker
//! threads are created and destroyed on the fly, shared session state is
//! allocated and freed mid-execution, and the cluster grows as load rises.
//!
//! M4-style systems cannot express this (all memory at init, all processes
//! at startup); CableS can.
//!
//! Run with: `cargo run --release --example dynamic_server`

use std::sync::Arc;

use cables::{CablesConfig, CablesRt};
use sim::DetRng;
use svm::{Cluster, ClusterConfig};

fn main() {
    let cluster = Cluster::build(ClusterConfig::small(6, 2));
    let rt = CablesRt::new(Arc::clone(&cluster), CablesConfig::paper());
    let rt2 = Arc::clone(&rt);

    let end = rt
        .run(move |pth| {
            let m = pth.rt().mutex_new();
            // Shared "request log": completed-request counter + revenue.
            let stats = pth.malloc(16);
            pth.write::<u64>(stats, 0);
            pth.write::<u64>(stats + 8, 0);

            let mut rng = DetRng::new(2026);
            let mut live = Vec::new();
            let batches = 5;
            for batch in 0..batches {
                let burst = 2 + rng.next_below(4); // 2..=5 requests
                println!("t={} batch {batch}: {burst} requests arrive", pth.sim.now());
                for _ in 0..burst {
                    let work = 200_000 + rng.next_below(800_000);
                    let item_value = 1 + rng.next_below(100);
                    live.push(pth.create(move |p| {
                        // Each request allocates session state dynamically,
                        // uses it, and frees it — global_malloc/global_free
                        // mid-execution, the paper's headline capability.
                        let session = p.malloc(256);
                        p.write::<u64>(session, item_value);
                        p.compute(work);
                        let v = p.read::<u64>(session);
                        p.mutex_lock(m);
                        let done = p.read::<u64>(stats);
                        let revenue = p.read::<u64>(stats + 8);
                        p.write::<u64>(stats, done + 1);
                        p.write::<u64>(stats + 8, revenue + v);
                        p.mutex_unlock(m);
                        p.free(session);
                        0
                    }));
                }
                // Think time between bursts.
                pth.compute(2_000_000);
                // Drain roughly half the live requests each batch.
                let keep = live.len() / 2;
                for t in live.drain(keep..) {
                    pth.join(t);
                }
            }
            for t in live {
                pth.join(t);
            }
            pth.mutex_lock(m);
            let done = pth.read::<u64>(stats);
            let revenue = pth.read::<u64>(stats + 8);
            pth.mutex_unlock(m);
            println!("served {done} requests, total value {revenue}");
            assert!(done > 0);
            0
        })
        .expect("simulation");

    let s = rt2.stats();
    println!(
        "virtual time {end}: {} threads ({} remote), {} nodes attached, {} mallocs / {} frees",
        s.local_creates + s.remote_creates,
        s.remote_creates,
        s.nodes_attached,
        s.mallocs,
        s.frees
    );
    assert_eq!(s.mallocs - 1, s.frees, "every session freed");
}
