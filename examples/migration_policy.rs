//! The home-migration policy extension in action, seen on the obs bus.
//!
//! The paper provides the page-migration *mechanisms* but leaves the
//! policy open (§2.1.3). This example runs a producer-owned segment
//! workload twice — policy off (the paper's system) and on — and prints
//! the diff traffic plus the traced migration event.
//!
//! Run with: `cargo run --release --example migration_policy`

use std::sync::Arc;

use svm::{Cluster, ClusterConfig, SvmConfig, SvmSystem};

fn run(policy: bool) -> (u64, u64, u64, Vec<String>) {
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let mut cfg = SvmConfig::cables();
    if policy {
        cfg = cfg.with_placement_policy();
    }
    let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
    sys.set_obs(true);
    let s = Arc::clone(&sys);
    let end = cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let seg = s.g_malloc(sim, 64 << 10);
            // The master first-touches the segment: it becomes home.
            s.write::<u64>(sim, seg, 0);
            // ... but node 1 is the segment's real owner from now on.
            let s2 = Arc::clone(&s);
            let producer = s.create(sim, move |ws| {
                for round in 0..100u64 {
                    s2.lock(ws, 1);
                    for i in 0..128u64 {
                        s2.write::<u64>(ws, seg + i * 8, round * 1000 + i);
                    }
                    s2.unlock(ws, 1);
                }
            });
            sim.wait_exit(producer);
            s.lock(sim, 1);
            assert_eq!(s.read::<u64>(sim, seg + 8), 99_001);
            s.unlock(sim, 1);
        })
        .expect("run");
    let st = sys.total_stats();
    let migrations: Vec<String> = sys
        .obs()
        .events()
        .iter()
        .filter_map(|r| match r.event {
            obs::Event::Migrate { base } => {
                Some(format!("  t={} migrate -> {} chunk@p{base}", r.at, r.node))
            }
            _ => None,
        })
        .collect();
    (end.as_nanos(), st.diffs_sent, st.diff_bytes, migrations)
}

fn main() {
    println!("producer-owned segment, homed on the wrong node (100 locked rounds)\n");
    for (label, policy) in [("policy off (paper)", false), ("placement policy (default)", true)] {
        let (ns, diffs, bytes, migrations) = run(policy);
        println!("{label}:");
        println!(
            "  total {:.2} ms, remote diffs {diffs}, diff bytes {bytes}",
            ns as f64 / 1e6
        );
        if migrations.is_empty() {
            println!("  (no migrations)");
        } else {
            for m in &migrations {
                println!("{m}");
            }
        }
        println!();
    }
    println!("the policy moves the segment to its sole writer, eliminating the");
    println!("per-release diff traffic the paper's static homes would keep paying.");
}
