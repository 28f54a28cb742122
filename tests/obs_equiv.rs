//! Observability equivalence tests: the cluster-wide event bus and metric
//! registries are measurement only — enabling them must not change ANY
//! simulated result, and everything they export must be a pure function of
//! the program (identical runs produce byte-identical artifacts).

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use proptest::prelude::*;

use cables_suite::apps::splash::fft;
use cables_suite::apps::{M4Mode, M4System};
use cables_suite::cables::{CablesConfig, CablesRt, ContentionStats};
use cables_suite::obs::{chrome, json, Layer};
use cables_suite::svm::{Cluster, ClusterConfig, SvmConfig, SvmSystem};

/// Region size in u64 elements (4 pages).
const LEN: u64 = 2048;

/// A small two-node program exercising every instrumented layer: thread
/// creation, locks, a barrier, first-touch placement, remote fetches and
/// diffs. Returns the final virtual time and the region contents.
fn run_svm_program(base: bool, seed: u64, observe: bool) -> (u64, Vec<u64>) {
    let cfg = if base {
        SvmConfig::base()
    } else {
        SvmConfig::cables()
    };
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
    sys.set_obs(observe);
    let s = Arc::clone(&sys);
    let out: Arc<StdMutex<Option<Vec<u64>>>> = Arc::new(StdMutex::new(None));
    let out2 = Arc::clone(&out);
    let end = cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s.g_malloc(sim, LEN * 8);
            let s2 = Arc::clone(&s);
            s2.clone().create(sim, move |ws| {
                s2.lock(ws, 1);
                for i in 0..16u64 {
                    let w = seed.wrapping_mul(2 * i + 1).wrapping_add(i) % LEN;
                    s2.write::<u64>(ws, a + w * 8, seed ^ (0xBB00 + i));
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
            let mut all = vec![0u64; LEN as usize];
            s.read_slice(sim, a, &mut all);
            *out2.lock().unwrap() = Some(all);
            s.wait_for_end(sim);
        })
        .expect("obs equivalence program run");
    let memory = out.lock().unwrap().take().expect("program produced output");
    (end.as_nanos(), memory)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Recording charges no virtual time: with the bus on or off, the
    /// same program produces identical time and identical memory, on both
    /// the Base and CableS protocol configurations.
    #[test]
    fn obs_toggle_never_changes_results(seed in any::<u64>(), base in any::<bool>()) {
        let off = run_svm_program(base, seed, false);
        let on = run_svm_program(base, seed, true);
        prop_assert_eq!(off, on);
    }
}

/// One observed FFT run: final time, Chrome-trace export, snapshot JSON,
/// and the number of causal edges on the bus.
fn fft_observed() -> (u64, String, String, usize) {
    let cluster = Cluster::build(ClusterConfig::small(4, 2));
    let sys = M4System::cables(Arc::clone(&cluster));
    let svm = sys.svm();
    svm.set_obs(true);
    let end = sys
        .run(|ctx| {
            let p = fft::FftParams {
                m: 8,
                nprocs: 8,
                verify: false,
            };
            fft::fft(ctx, &p);
        })
        .expect("fft run");
    let svm = sys.svm();
    let sink = svm.obs();
    let events = sink.events();
    let edges = events.iter().filter(|e| e.event.is_edge()).count();
    (
        end.as_nanos(),
        chrome::export(&events),
        json::pretty(&sink.snapshot()),
        edges,
    )
}

/// Identical runs must export byte-identical artifacts (the bus records
/// only simulated time from engine-serialized threads; no wall clocks).
#[test]
fn identical_runs_export_identical_artifacts() {
    let a = fft_observed();
    let b = fft_observed();
    assert_eq!(a.0, b.0, "SimTime differs between identical runs");
    assert_eq!(a.1, b.1, "Chrome traces differ between identical runs");
    assert_eq!(a.2, b.2, "snapshots differ between identical runs");
    json::validate(&a.1).expect("chrome trace JSON");
    json::validate(&a.2).expect("snapshot JSON");
    // The instrumented kernels record causal edges, and the Chrome export
    // renders each one as a Perfetto flow pair (start + finish).
    assert!(a.3 > 0, "no causal edges recorded by the FFT run");
    assert!(
        a.1.contains("\"ph\":\"s\"") && a.1.contains("\"ph\":\"f\""),
        "chrome trace is missing Perfetto flow events"
    );
}

/// SPLASH under M4: enabling the bus must not move the final time or the
/// parallel window, in either protocol mode.
#[test]
fn obs_does_not_change_splash_results() {
    for mode in [M4Mode::Base, M4Mode::Cables] {
        let run = |observe: bool| {
            let cluster = Cluster::build(ClusterConfig::small(4, 2));
            let sys = match mode {
                M4Mode::Base => M4System::base(Arc::clone(&cluster)),
                M4Mode::Cables => M4System::cables(Arc::clone(&cluster)),
            };
            sys.svm().set_obs(observe);
            let end = sys
                .run(|ctx| {
                    let p = fft::FftParams {
                        m: 8,
                        nprocs: 8,
                        verify: false,
                    };
                    fft::fft(ctx, &p);
                })
                .expect("fft run");
            (end.as_nanos(), sys.parallel_ns())
        };
        assert_eq!(run(false), run(true), "{mode:?}: obs changed results");
    }
}

/// A pthreads program run: final time, contention counters, (when
/// observed) the metric snapshot, and the causal-edge kind names seen.
fn cables_observed(
    observe: bool,
) -> (
    u64,
    ContentionStats,
    cables_suite::obs::MetricsSnapshot,
    Vec<&'static str>,
) {
    let cluster = Cluster::build(ClusterConfig::small(2, 2));
    let rt = CablesRt::new(Arc::clone(&cluster), CablesConfig::paper());
    rt.svm().set_obs(observe);
    let end = rt
        .run(|pth| {
            let m = pth.rt().mutex_new();
            let b = pth.rt().barrier_new();
            let a = pth.malloc(64);
            pth.write::<u64>(a, 0);
            let mut kids = Vec::new();
            for _ in 0..3 {
                kids.push(pth.create(move |p| {
                    p.mutex_lock(m);
                    let v = p.read::<u64>(a);
                    p.compute(1_000);
                    p.write::<u64>(a, v + 1);
                    p.mutex_unlock(m);
                    p.barrier(b, 4);
                    0
                }));
            }
            pth.barrier(b, 4);
            for k in kids {
                pth.join(k);
            }
            pth.free(a);
            0
        })
        .expect("cables run");
    let mut edge_kinds: Vec<&'static str> = cluster
        .obs
        .events()
        .iter()
        .filter(|e| e.event.is_edge())
        .map(|e| e.event.kind_name())
        .collect();
    edge_kinds.sort_unstable();
    edge_kinds.dedup();
    (
        end.as_nanos(),
        rt.contention(),
        cluster.obs.snapshot(),
        edge_kinds,
    )
}

/// The CableS runtime layer: observation must be free, contention counters
/// must run unconditionally, and the Rt layer must attribute time when on.
#[test]
fn cables_runtime_records_rt_layer_without_perturbing() {
    let (t_off, c_off, s_off, e_off) = cables_observed(false);
    let (t_on, c_on, s_on, e_on) = cables_observed(true);
    assert_eq!(t_off, t_on, "obs changed the pthreads program's time");
    assert_eq!(c_off, c_on, "obs changed the contention counters");
    assert!(c_on.mutex_waits >= 3, "{c_on:?}");
    assert!(c_on.barrier_waits == 4, "{c_on:?}");
    assert!(c_on.barrier_max_waiters >= 2, "{c_on:?}");
    assert_eq!(s_off.nodes.len(), 0, "disabled sink aggregated metrics");
    assert!(s_on.layer_total_ns(Layer::Rt) > 0, "no Rt time attributed");
    assert!(s_on.layer_total_ns(Layer::Proto) > 0, "no proto time");
    assert!(
        s_on.kinds.iter().any(|k| k.name == "rt.thread_create"),
        "thread creation not on the bus"
    );
    // Causal edges ride the same on/off switch as every other record: none
    // when disabled, and the contended mutex / barrier / create-join
    // program must produce handoff and thread-lifecycle edges when on.
    assert!(e_off.is_empty(), "edges recorded with the sink disabled");
    assert!(
        e_on.contains(&"edge.thread_start"),
        "no thread_start edges: {e_on:?}"
    );
    assert!(
        e_on.contains(&"edge.barrier_release"),
        "no barrier_release edges: {e_on:?}"
    );
    assert!(
        e_on.contains(&"edge.lock_handoff"),
        "no lock_handoff edges: {e_on:?}"
    );
}
