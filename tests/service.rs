//! Integration tests for the sharded KV service under generated
//! traffic: full-stack runs (traffic schedule -> dispatcher/clients ->
//! worker pools -> SVM store) that must replay identically; `cargo test`
//! is a debug build, so they run under the engine's determinism audits.

use std::sync::{Arc, Mutex as StdMutex};

use cables_suite::apps::service::{run_service, ServiceOutcome, ServiceParams};
use cables_suite::cables::{CablesConfig, CablesRt};
use cables_suite::chaos::{ChaosEngine, FaultPlan};
use cables_suite::svm::{Cluster, ClusterConfig};
use cables_suite::traffic::{schedule, Schedule, TrafficConfig};

fn run(nodes: usize, sched: &Schedule, chaos: Option<(u64, FaultPlan)>) -> (u64, ServiceOutcome) {
    let cluster = Cluster::build(ClusterConfig::small(nodes, 2));
    if let Some((seed, plan)) = chaos {
        cluster.set_chaos(ChaosEngine::new(seed, plan));
    }
    let rt = CablesRt::new(cluster, CablesConfig::paper());
    let out = Arc::new(StdMutex::new(None));
    let o2 = Arc::clone(&out);
    let s = sched.clone();
    let end = rt
        .run(move |pth| {
            *o2.lock().unwrap() = Some(run_service(pth, &s, ServiceParams::test()));
            0
        })
        .expect("service run");
    let outcome = out.lock().unwrap().take().expect("service outcome");
    (end.as_nanos(), outcome)
}

#[test]
fn open_loop_uniform_serves_all_and_replays() {
    let sched = schedule(&TrafficConfig::uniform(7, 80, 64, 2_000_000));
    let (end_a, a) = run(4, &sched, None);
    assert_eq!(a.served, 80, "every request reaches a worker");
    assert_eq!(a.direct_served, 0, "no crash fallbacks on a clean run");
    assert_eq!(a.retries, 0);
    let (end_b, b) = run(4, &sched, None);
    assert_eq!((end_a, a), (end_b, b), "same schedule, bit-identical run");
}

#[test]
fn closed_loop_zipfian_serves_all() {
    let sched = schedule(&TrafficConfig::zipfian(9, 60, 64, 2_000_000).closed_loop(3, 1_000));
    let (_, out) = run(4, &sched, None);
    assert_eq!(out.served, 60);
    assert_eq!(out.retries, 0);
}

#[test]
fn node_crash_mid_traffic_loses_no_requests() {
    // The crashed run's timing differs from the clean run's, so the
    // digests are only comparable on a conflict-free schedule: each
    // response is then a function of its request alone. A lost request
    // changes the digest, and so does a put answered from a second
    // execution (its `prev` sees the first one's write) — at-least-once
    // is all the fallbacks promise, so parity also says no put was
    // re-executed at this crash instant.
    let sched = schedule(&TrafficConfig::uniform(13, 120, 128, 2_000_000)).conflict_free();
    // Clean reference run to place the crash inside the serving window.
    let (end, clean) = run(4, &sched, None);
    let crash_at = end - clean.serve_ns + clean.serve_ns / 2;
    let plan = FaultPlan::new().crash(1, crash_at);
    let (_, out) = run(4, &sched, Some((0xFACE, plan)));
    assert_eq!(
        out.served + out.direct_served,
        120,
        "crash fallbacks must cover what the dead pool dropped"
    );
    assert_eq!(
        out.digest, clean.digest,
        "crashed run converges to the clean run's responses"
    );
}

#[test]
fn whole_pool_crash_is_detected_once() {
    // A shard's pool lives on one node, so a node crash takes the whole
    // pool and its ring fills. The dispatcher waits out one enqueue (four
    // timeout windows), remembers the shard as dead, serves the rest of
    // its requests itself and reaps its ring at the drain without
    // waiting. Enough requests after the crash to fill the ring: 800 at
    // 20 000 rps, node 1 — shard 1's pool — dying a quarter in.
    let sched = schedule(&TrafficConfig::uniform(13, 800, 1024, 20_000)).conflict_free();
    let (end, clean) = run(4, &sched, None);
    assert_eq!((clean.served, clean.direct_served), (800, 0));
    let crash_at = end - clean.serve_ns + clean.serve_ns / 4;
    let plan = FaultPlan::new().crash(1, crash_at);
    let (_, out) = run(4, &sched, Some((0xFACE, plan)));
    assert_eq!(out.served + out.direct_served, 800);
    assert!(
        out.direct_served > 64,
        "only {} served directly",
        out.direct_served
    );
    assert_eq!(
        out.digest, clean.digest,
        "crashed run converges to the clean run's responses"
    );
    let bound = clean.serve_ns + 9 * ServiceParams::test().timeout_ns;
    assert!(
        out.serve_ns < bound,
        "serve_ns {} (clean {})",
        out.serve_ns,
        clean.serve_ns
    );
}
