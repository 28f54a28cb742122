//! Fault-injection integration tests over the whole stack: the zero-cost
//! guarantee of an empty plan, deterministic replay of a faulty run,
//! node-crash survival, and correctness under lossy wires.

use std::sync::{Arc, Mutex as StdMutex};

use cables_suite::apps::splash::fft;
use cables_suite::apps::M4System;
use cables_suite::chaos::{ChaosEngine, ChaosStats, FaultPlan, WireFaults};
use cables_suite::obs::{chrome, json};
use cables_suite::svm::{Cluster, ClusterConfig};

/// One observed FFT run on a 4-node CableS cluster, with an optional
/// fault plan attached. Returns the final virtual time, the Chrome-trace
/// export, the metric snapshot, the chaos counters and the runtime stats.
fn fft_run(
    chaos: Option<(u64, FaultPlan)>,
    verify: bool,
) -> (
    u64,
    String,
    String,
    Option<ChaosStats>,
    cables_suite::cables::RtStats,
    f64,
) {
    let cluster = Cluster::build(ClusterConfig::small(4, 2));
    if let Some((seed, plan)) = chaos {
        cluster.set_chaos(ChaosEngine::new(seed, plan));
    }
    let sys = M4System::cables(Arc::clone(&cluster));
    sys.svm().set_obs(true);
    let result = Arc::new(StdMutex::new(None));
    let r2 = Arc::clone(&result);
    let end = sys
        .run(move |ctx| {
            let p = fft::FftParams {
                m: 8,
                nprocs: 8,
                verify,
            };
            *r2.lock().unwrap() = Some(fft::fft(ctx, &p));
        })
        .expect("fft run");
    let svm = sys.svm();
    let sink = svm.obs();
    let events = sink.events();
    let checksum = result
        .lock()
        .unwrap()
        .as_ref()
        .map(|r| r.max_error.unwrap_or(0.0))
        .expect("fft produced a result");
    (
        end.as_nanos(),
        chrome::export(&events),
        json::pretty(&sink.snapshot()),
        cluster.chaos().map(|c| c.stats()),
        sys.cables_rt().expect("cables backend").stats(),
        checksum,
    )
}

/// An attached-but-empty plan must be invisible: same virtual end time,
/// byte-identical trace and snapshot as a run with no chaos engine at all
/// (the zero-cost-off guarantee).
#[test]
fn empty_plan_is_bit_identical_to_no_chaos() {
    let base = fft_run(None, false);
    let empty = fft_run(Some((42, FaultPlan::new())), false);
    assert_eq!(base.0, empty.0, "empty plan moved the virtual end time");
    assert_eq!(base.1, empty.1, "empty plan changed the Chrome trace");
    assert_eq!(base.2, empty.2, "empty plan changed the metric snapshot");
    let stats = empty.3.expect("chaos attached");
    assert_eq!(stats.wire_faults, 0);
    assert_eq!(stats.resource_faults, 0);
    assert_eq!(stats.crashes, 0);
}

/// Same seed + same plan → byte-identical run, including every injected
/// fault, retry and recovery (the deterministic-replay guarantee).
#[test]
fn faulty_run_replays_byte_identical() {
    let plan = || {
        FaultPlan::new()
            .wire(WireFaults {
                drop_p: 0.05,
                dup_p: 0.03,
                jitter_ns: 2_000,
                ..WireFaults::default()
            })
            .crash(2, 40_000_000)
    };
    let a = fft_run(Some((7, plan())), false);
    let b = fft_run(Some((7, plan())), false);
    assert_eq!(a.0, b.0, "replay moved the virtual end time");
    assert_eq!(a.1, b.1, "replay produced a different Chrome trace");
    assert_eq!(a.2, b.2, "replay produced a different metric snapshot");
    let (sa, sb) = (a.3.expect("chaos"), b.3.expect("chaos"));
    assert_eq!(sa.wire_faults, sb.wire_faults);
    assert_eq!(sa.retries, sb.retries);
    assert_eq!(sa.recoveries, sb.recoveries);
    assert!(sa.wire_faults > 0, "plan injected no wire faults");
}

/// Crashing a node mid-run must not take the application down: the
/// survivors finish, the dead node ends up detached, and the recovery is
/// accounted with a latency.
#[test]
fn crash_one_node_fft_completes_with_survivors() {
    // Calibrate the crash to mid-run so worker threads are actually live.
    let clean = fft_run(None, false);
    let crash_at = clean.0 / 3;
    let (end, _, _, stats, rt_stats, _) =
        fft_run(Some((11, FaultPlan::new().crash(2, crash_at))), false);
    assert!(end > 0, "crashed run did not complete");
    let stats = stats.expect("chaos attached");
    assert_eq!(stats.crashes, 1, "the planned crash never fired");
    assert!(stats.recoveries >= 1, "no recovery was recorded");
    assert!(
        stats.recovery_latency_summary().is_some(),
        "recovery carried no latency"
    );
    assert!(
        rt_stats.nodes_detached >= 1,
        "crashed node was not detached (detached={})",
        rt_stats.nodes_detached
    );
}

/// Dropped and duplicated messages cost time, never answers: FFT under a
/// lossy wire still reconstructs the input exactly.
#[test]
fn drops_and_dups_never_corrupt_results() {
    let plan = FaultPlan::new().wire(WireFaults {
        drop_p: 0.10,
        dup_p: 0.05,
        reorder_p: 0.05,
        jitter_ns: 5_000,
        ..WireFaults::default()
    });
    let (end, _, _, stats, _, max_error) = fft_run(Some((13, plan)), true);
    assert!(end > 0);
    let stats = stats.expect("chaos attached");
    assert!(stats.wire_faults > 0, "lossy plan injected nothing");
    assert!(
        max_error < 1e-6,
        "faults corrupted the FFT result (max_error={max_error})"
    );
}
