//! The obs bus records the canonical protocol-instant sequence of a
//! producer/consumer hand-off.

use std::sync::Arc;

use cables_svm::{Cluster, ClusterConfig, SvmConfig, SvmSystem};
use obs::{Event, EventRecord};

/// The protocol instants among `events`, by short name, in recording order.
fn proto_kinds(events: &[EventRecord]) -> Vec<(&'static str, &EventRecord)> {
    events
        .iter()
        .filter_map(|r| {
            let kind = match r.event {
                Event::Fault { .. } => "fault",
                Event::Place { .. } => "place",
                Event::Fetch { .. } => "fetch",
                Event::Diff { .. } => "diff",
                Event::Invalidate { .. } => "inval",
                Event::Migrate { .. } => "migrate",
                _ => return None,
            };
            Some((kind, r))
        })
        .collect()
}

#[test]
fn trace_records_fault_place_fetch_diff_invalidate() {
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), SvmConfig::cables());
    sys.set_obs(true);
    let s = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s.g_malloc(sim, 4096);
            s.lock(sim, 1);
            s.write::<u64>(sim, a, 1); // fault + place on master
            s.unlock(sim, 1);
            let s2 = Arc::clone(&s);
            let w = s.create(sim, move |ws| {
                s2.lock(ws, 1);
                let v = s2.read::<u64>(ws, a); // fault + fetch
                s2.write::<u64>(ws, a, v + 1); // write upgrade
                s2.unlock(ws, 1); // diff to home
            });
            sim.wait_exit(w);
            s.lock(sim, 1); // acquire: master's copy is home, no inval
            assert_eq!(s.read::<u64>(sim, a), 2);
            s.unlock(sim, 1);
        })
        .unwrap();

    let events = sys.obs().events();
    let trace = proto_kinds(&events);
    assert!(!trace.is_empty());
    // Timestamps are nondecreasing.
    for pair in trace.windows(2) {
        assert!(pair[0].1.at <= pair[1].1.at, "trace out of order");
    }
    let kinds: Vec<&'static str> = trace.iter().map(|(k, _)| *k).collect();
    assert!(kinds.contains(&"fault"));
    assert!(kinds.contains(&"place"));
    assert!(kinds.contains(&"fetch"));
    assert!(kinds.contains(&"diff"));
    // Ordering: the place precedes any fetch, which precedes the diff.
    let pos = |k: &str| kinds.iter().position(|x| *x == k).unwrap();
    assert!(pos("place") < pos("fetch"));
    assert!(pos("fetch") < pos("diff"));
}

#[test]
fn disabled_bus_records_nothing() {
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), SvmConfig::cables());
    let s = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s.g_malloc(sim, 4096);
            s.lock(sim, 1);
            s.write::<u64>(sim, a, 1);
            s.unlock(sim, 1);
        })
        .unwrap();
    assert!(sys.obs().events().is_empty());
}

#[test]
fn trace_is_deterministic() {
    fn one() -> Vec<String> {
        let cluster = Cluster::build(ClusterConfig::small(2, 1));
        let sys = SvmSystem::new(Arc::clone(&cluster), SvmConfig::cables());
        sys.set_obs(true);
        let s = Arc::clone(&sys);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                let a = s.g_malloc(sim, 4096 * 2);
                s.write::<u64>(sim, a, 1);
                let s2 = Arc::clone(&s);
                let w = s.create(sim, move |ws| {
                    for r in 0..3u64 {
                        s2.lock(ws, 1);
                        s2.write::<u64>(ws, a + 8, r);
                        s2.unlock(ws, 1);
                    }
                });
                sim.wait_exit(w);
            })
            .unwrap();
        proto_kinds(&sys.obs().events())
            .iter()
            .map(|(_, r)| format!("{} {} {:?}", r.at, r.node, r.event))
            .collect()
    }
    assert_eq!(one(), one());
}
