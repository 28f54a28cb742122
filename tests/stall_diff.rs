//! Stall-accounting and differential-analysis properties: on any
//! observed run (real instrumented kernels and synthetic event soups)
//! the per-thread stall buckets must partition each thread's recorded
//! lifetime exactly and the time-sliced series must sum back to the
//! whole-run totals; `obs::diff` must be empty on identical inputs,
//! deterministic, and monotone in its significance thresholds; and the
//! log2-histogram percentile estimator must survive its edge cases
//! (empty, single-bucket, saturated) and stay monotone in `p`.

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use proptest::prelude::*;

use cables_suite::obs::diff::{diff, Thresholds};
use cables_suite::obs::{json, stall, EdgeKind, Event, EventRecord, Histogram, Layer, SchedKind};
use cables_suite::sim::{NodeId, SimTime};
use cables_suite::svm::{Cluster, ClusterConfig, SvmConfig, SvmSystem};

/// Region size in u64 elements (4 pages).
const LEN: u64 = 2048;

/// Runs the instrumented two-node program from `critpath.rs` (threads,
/// a contended lock, a barrier, remote pages) with the bus on, and
/// returns the total simulated time, the drained events, and the drop
/// counter.
fn observed_run(base: bool, seed: u64) -> (u64, Vec<EventRecord>, u64) {
    let cfg = if base {
        SvmConfig::base()
    } else {
        SvmConfig::cables()
    };
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
    sys.set_obs(true);
    let s = Arc::clone(&sys);
    let done: Arc<StdMutex<bool>> = Arc::new(StdMutex::new(false));
    let done2 = Arc::clone(&done);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s.g_malloc(sim, LEN * 8);
            let s2 = Arc::clone(&s);
            s2.clone().create(sim, move |ws| {
                s2.lock(ws, 1);
                for i in 0..16u64 {
                    let w = seed.wrapping_mul(2 * i + 1).wrapping_add(i) % LEN;
                    s2.write::<u64>(ws, a + w * 8, seed ^ (0xCC00 + i));
                }
                s2.unlock(ws, 1);
                s2.barrier(ws, 9, 2);
            });
            for i in 0..64u64 {
                s.write::<u64>(sim, a + (seed.wrapping_add(i * 31) % LEN) * 8, seed ^ i);
            }
            s.lock(sim, 1);
            s.unlock(sim, 1);
            s.barrier(sim, 9, 2);
            *done2.lock().unwrap() = true;
            s.wait_for_end(sim);
        })
        .expect("stall property program run");
    assert!(*done.lock().unwrap(), "program did not finish");
    let end = cluster.obs.events();
    let total = end
        .iter()
        .map(|r| r.at.as_nanos() + r.dur_ns)
        .max()
        .unwrap_or(0);
    (total, end, cluster.obs.dropped_events())
}

/// Checks the two stall invariants on a profile: every thread's buckets
/// partition its lifetime exactly, and (when sliced) the interval series
/// sums back to the whole-run totals bucket by bucket.
fn check_partition(p: &stall::StallProfile) {
    prop_assert!(!p.threads.is_empty(), "profile has no threads");
    let mut summed = [0u64; stall::BUCKETS];
    for t in &p.threads {
        prop_assert_eq!(
            t.buckets.iter().sum::<u64>(),
            t.lifetime_ns(),
            "buckets do not partition thread n{}/t{}",
            t.node,
            t.track
        );
        for (acc, v) in summed.iter_mut().zip(t.buckets.iter()) {
            *acc += v;
        }
    }
    prop_assert_eq!(summed, p.totals(), "totals disagree with the thread sum");
    if p.slice_ns > 0 {
        let mut sliced = [0u64; stall::BUCKETS];
        for s in &p.slices {
            for (acc, v) in sliced.iter_mut().zip(s.buckets.iter()) {
                *acc += v;
            }
        }
        prop_assert_eq!(sliced, p.totals(), "slices do not sum to the totals");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Real instrumented runs: the stall buckets partition every
    /// thread's lifetime exactly, the slice series sums back to the
    /// totals for any slice width, and the analysis is a pure function
    /// of the event buffer.
    #[test]
    fn stall_partitions_real_runs(
        seed in any::<u64>(),
        base in any::<bool>(),
        divisor in 1u64..200,
    ) {
        let (total_ns, events, dropped) = observed_run(base, seed);
        prop_assert_eq!(dropped, 0, "default capacity overflowed");
        let slice_ns = (total_ns / divisor).max(1);
        let p = stall::analyze(&events, dropped, slice_ns).expect("stall profile");
        check_partition(&p);
        let again = stall::analyze(&events, dropped, slice_ns).expect("re-analysis");
        prop_assert_eq!(p, again, "analysis is not deterministic");
    }
}

fn span(at: u64, dur: u64, track: u64, event: Event, layer: Layer) -> EventRecord {
    EventRecord {
        at: SimTime::from_nanos(at),
        dur_ns: dur,
        node: NodeId(0),
        track,
        layer,
        event,
    }
}

/// One of the wait-shaped events the stall profiler buckets, selected by
/// index so the proptest strategy stays a plain integer tuple.
fn wait_event(idx: u8) -> (Event, Layer) {
    match idx % 7 {
        0 => (
            Event::FaultSpan {
                page: 3,
                write: false,
            },
            Layer::Proto,
        ),
        1 => (Event::ThreadJoin { ct: 3 }, Layer::Rt),
        2 => (Event::LockWait { id: 1 }, Layer::Sync),
        3 => (Event::BarrierWait { id: 2 }, Layer::Sync),
        4 => (Event::PthMutexWait { id: 1 }, Layer::Rt),
        5 => (Event::PthCondWait { id: 1 }, Layer::Rt),
        _ => (Event::PthRwWait { id: 1, write: true }, Layer::Rt),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Synthetic event soups: arbitrary overlapping and nested wait
    /// spans plus message-latency edges on a handful of lanes. Whatever
    /// the overlap structure, the innermost-wins flattening must yield
    /// an exact partition and a slice series that sums to it.
    #[test]
    fn stall_partitions_arbitrary_spans(
        spans in prop::collection::vec((0u64..400, 0u64..80, 0u8..7, 1u64..4), 1..32),
        edges in prop::collection::vec((0u64..400, 1u64..50, 1u64..4), 0..8),
        slice_ns in 0u64..97,
    ) {
        let mut evs = Vec::new();
        for (at, dur, idx, track) in &spans {
            let (event, layer) = wait_event(*idx);
            evs.push(span(*at, *dur, *track, event, layer));
        }
        for (at, lat, track) in &edges {
            // A self-lane arrival: wire time [at, at+lat) on this track.
            evs.push(EventRecord {
                at: SimTime::from_nanos(at + lat),
                dur_ns: 0,
                node: NodeId(0),
                track: *track,
                layer: Layer::Proto,
                event: Event::Edge {
                    kind: EdgeKind::PageFetch,
                    src_node: 0,
                    src_track: *track,
                    src_ns: *at,
                    obj: 7,
                },
            });
        }
        let p = stall::analyze(&evs, 0, slice_ns).expect("synthetic profile");
        check_partition(&p);
    }
}

/// Spawn/exit markers pin the lifetime even when the waits only cover
/// the middle; the uncovered head and tail must land in `compute`.
#[test]
fn stall_lifetime_pinned_by_sched_markers() {
    let evs = vec![
        span(
            0,
            0,
            1,
            Event::Sched {
                kind: SchedKind::Spawn,
            },
            Layer::Sched,
        ),
        span(400, 100, 1, Event::BarrierWait { id: 1 }, Layer::Sync),
        span(
            1_000,
            0,
            1,
            Event::Sched {
                kind: SchedKind::Exit,
            },
            Layer::Sched,
        ),
    ];
    let p = stall::analyze(&evs, 0, 0).unwrap();
    let t = &p.threads[0];
    assert_eq!((t.start_ns, t.end_ns), (0, 1_000));
    assert_eq!(t.buckets[stall::Bucket::Compute as usize], 900);
    assert_eq!(t.buckets[stall::Bucket::BarrierWait as usize], 100);
}

// ---------------------------------------------------------------------------
// obs::diff properties
// ---------------------------------------------------------------------------

/// Builds an artifact-shaped document (nested objects, an id-keyed
/// array, numeric leaves) from six numbers, exercising the same paths
/// the real `BENCH_*.json` diffs walk.
fn doc(v: &[u64; 6]) -> json::Value {
    let text = format!(
        r#"{{"kernel":"FFT","smoke":true,"sim_time_ns":{},
            "layers_ns":{{"proto":{},"sync":{}}},
            "kernels":[{{"kernel":"FFT","remote_fetches":{}}},
                       {{"kernel":"RADIX","remote_fetches":{}}}],
            "gauges":{{"engine.ready_reallocs":{}}}}}"#,
        v[0], v[1], v[2], v[3], v[4], v[5]
    );
    json::parse(&text).expect("doc parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// diff(a, a) is empty for any document; diff(a, b) is
    /// deterministic; and raising the significance thresholds can only
    /// shrink the significant and regression sets (monotone gating).
    #[test]
    fn diff_identity_determinism_and_monotone_thresholds(
        a in prop::collection::vec(0u64..1_000_000, 6..7),
        b in prop::collection::vec(0u64..1_000_000, 6..7),
        abs in 0u64..5_000,
        rel in 0u64..100,
    ) {
        let av = doc(&a[..6].try_into().unwrap());
        let bv = doc(&b[..6].try_into().unwrap());
        let none = Thresholds::default();

        let same = diff(&av, &av, &none);
        prop_assert!(same.is_empty(), "diff(a, a) is not empty: {:?}", same.rows);

        let d1 = diff(&av, &bv, &none);
        let d2 = diff(&av, &bv, &none);
        prop_assert_eq!(d1.to_json(), d2.to_json(), "diff is not deterministic");

        let loose = Thresholds { abs: abs as f64, rel_pct: rel as f64 };
        let tight = Thresholds { abs: (abs * 2) as f64, rel_pct: (rel * 2) as f64 };
        let dl = diff(&av, &bv, &loose);
        let dt = diff(&av, &bv, &tight);
        prop_assert_eq!(dl.rows.len(), dt.rows.len(), "thresholds changed the leaf walk");
        prop_assert!(
            dt.significant().count() <= dl.significant().count(),
            "tightening thresholds grew the significant set"
        );
        prop_assert!(
            dt.regressions().count() <= dl.regressions().count(),
            "tightening thresholds grew the regression set"
        );
    }
}

/// Direction awareness: inflating a higher-is-worse leaf is a
/// regression, deflating it is an improvement (significant, not gated).
#[test]
fn diff_regressions_are_directional() {
    let a = doc(&[1_000, 600, 400, 50, 60, 3]);
    let worse = doc(&[1_500, 600, 400, 50, 60, 3]);
    let better = doc(&[500, 600, 400, 50, 60, 3]);
    let th = Thresholds {
        abs: 0.0,
        rel_pct: 2.0,
    };

    let d = diff(&a, &worse, &th);
    assert_eq!(d.regressions().count(), 1, "1.5x sim_time_ns must gate");
    assert_eq!(d.regressions().next().unwrap().path, "sim_time_ns");

    let d = diff(&a, &better, &th);
    assert_eq!(
        d.significant().count(),
        1,
        "the improvement is still significant"
    );
    assert_eq!(d.regressions().count(), 0, "an improvement must not gate");
}

// ---------------------------------------------------------------------------
// log2-histogram percentile edge cases
// ---------------------------------------------------------------------------

/// Empty histogram: every percentile is 0, never a panic.
#[test]
fn histogram_percentile_empty() {
    let h = Histogram::default();
    for p in [0.0, 50.0, 99.0, 100.0] {
        assert_eq!(h.percentile(p), 0);
    }
}

/// Single-bucket histogram: every percentile interpolates inside that
/// bucket's `[2^i, 2^{i+1})` range.
#[test]
fn histogram_percentile_single_bucket() {
    let mut h = Histogram::default();
    for _ in 0..100 {
        h.record(700); // bucket 9: [512, 1024)
    }
    for p in [1.0, 50.0, 99.0, 100.0] {
        let v = h.percentile(p);
        assert!((512..=1024).contains(&v), "p{p} = {v} escaped the bucket");
    }
    assert_eq!(h.percentile(100.0), 1024);
}

/// Saturated samples land in the last bucket and interpolate within its
/// clamped range instead of overflowing.
#[test]
fn histogram_percentile_saturated() {
    let mut h = Histogram::default();
    h.record(0); // bucket 0 covers [0, 2)
    for _ in 0..9 {
        h.record(u64::MAX);
    }
    let v = h.percentile(99.0);
    assert!(v >= 1 << 31, "p99 = {v} below the saturated bucket");
    assert!(v <= 1 << 32, "p99 = {v} above the clamped top");
    assert!(h.percentile(1.0) < 2, "p1 must come from the zero bucket");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Percentiles are monotone in `p` for arbitrary bucket contents.
    #[test]
    fn histogram_percentile_monotone(
        samples in prop::collection::vec(0u64..2_000_000, 1..64),
    ) {
        let mut h = Histogram::default();
        for s in &samples {
            h.record(*s);
        }
        let mut prev = 0u64;
        for p in 0..=20 {
            let v = h.percentile(p as f64 * 5.0);
            prop_assert!(v >= prev, "p{} = {} < p{} = {}", p * 5, v, (p - 1) * 5, prev);
            prev = v;
        }
    }
}
