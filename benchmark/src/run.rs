//! One iteration of a workload: build a cluster and a runtime through the
//! crates' public constructors, run the application, check its output, and
//! read the public counters. Every config is a constructor plus field
//! assignment, never a struct literal, so fields added or removed by later
//! changes do not stop this crate compiling.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use apps::service::{run_service, ServiceOutcome, ServiceParams};
use apps::splash::{fft, lu, radix};
use apps::{M4Ctx, M4System};
use cables::{CablesConfig, CablesRt};
use obs::Event;
use svm::{Cluster, ClusterConfig};
use traffic::{Schedule, TrafficConfig};

use crate::host::Recorder;

/// Metric name -> value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Capacity of the obs event buffer: a 10 000-request closed-loop run
/// records 1.18 M events, above the sink's 2^20 default, and a clipped
/// buffer is refused by the stall and critical-path analyses.
const OBS_CAP: usize = 1 << 22;

/// Response-wait window of the service. `ServiceParams::test()`'s 2 ms is
/// below the closed-loop p99 (3.4 ms): 8 clients then produce a retry
/// storm (7769 retries and 2811 direct-serves per 20 000 requests) and the
/// workload would measure the crash fallback, not the service.
const SVC_TIMEOUT_NS: u64 = 20_000_000;

/// Keyspace of both service workloads.
pub const SVC_KEYS: u64 = 4_096;

/// The three SPLASH kernels of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Fft,
    Radix,
    Lu,
}

/// One kernel iteration's shape.
#[derive(Debug, Clone, Copy)]
pub struct KernelInput {
    pub kernel: Kernel,
    pub nodes: usize,
    pub procs: usize,
    /// FFT/LU: also run the kernel's own verification (inverse transform,
    /// L·U reconstruction). Only the check iteration does; it roughly
    /// doubles FFT's window.
    pub verify: bool,
    /// Run on the base SVM system instead of CableS (paper Fig. 5's
    /// denominator).
    pub base: bool,
}

impl KernelInput {
    /// Elements the kernel processes: the "stated input size" of its
    /// work-per-second rate.
    pub fn elements(&self) -> u64 {
        match self.kernel {
            Kernel::Fft => 1 << FFT_M,
            Kernel::Radix => RADIX_KEYS as u64,
            Kernel::Lu => (LU_N * LU_N) as u64,
        }
    }
}

const FFT_M: u32 = 16;
const RADIX_KEYS: usize = 1 << 18;
const LU_N: usize = 512;

/// What to run: a kernel, or the service on a generated schedule.
#[derive(Debug, Clone)]
pub enum Input {
    Kernel(KernelInput),
    Service { nodes: usize, sched: Arc<Schedule> },
}

/// The uniform open-loop traffic of `svc_open_uniform`.
pub fn open_uniform(seed: u64, requests: u32, rate_rps: u64) -> TrafficConfig {
    TrafficConfig::uniform(seed, requests, SVC_KEYS, rate_rps)
}

/// The zipfian closed-loop traffic of `svc_closed_zipf`: 8 clients, 2 us
/// think time. The rate argument of the preset is unused by a closed loop.
pub fn closed_zipf(seed: u64, requests: u32) -> TrafficConfig {
    TrafficConfig::zipfian(seed, requests, SVC_KEYS, 1).closed_loop(8, 2_000)
}

/// What one iteration produced.
pub struct RunOut {
    /// Wall time of the `run(..)` call alone.
    pub host_s: f64,
    /// Final simulated time of the run.
    pub total_ns: u64,
    /// Parallel section (kernel) or serving window (service), simulated ns.
    pub window_ns: u64,
    /// Where the window starts on the simulated clock; known up front for
    /// kernels, derived from events for the service.
    pub window_start: Option<u64>,
    /// Kernel checksum bits or service response digest.
    pub digest: u64,
    /// Units of work attempted (kernel: the iteration; service: requests).
    pub attempted: u64,
    /// Units that failed their output check or went unanswered.
    pub failed: u64,
    /// Why, when `failed > 0`.
    pub why: String,
    pub svc: Option<ServiceOutcome>,
    /// The CableS runtime the run used (absent on the base system).
    pub rt: Option<Arc<CablesRt>>,
    /// Engine thread id of the application's main thread.
    pub main_track: u64,
}

fn cluster(nodes: usize, rec: &mut Recorder) -> Arc<Cluster> {
    rec.scope("svm.cluster_build", |_| {
        let mut cfg = ClusterConfig::small(nodes, 2);
        cfg.obs_cap = OBS_CAP;
        Cluster::build(cfg)
    })
}

/// Runs one iteration of `input` with the obs bus on or off.
pub fn run(input: &Input, obs_on: bool, rec: &mut Recorder) -> Result<RunOut, String> {
    match input {
        Input::Kernel(k) => run_kernel(k, obs_on, rec),
        Input::Service { nodes, sched } => run_svc(*nodes, sched, obs_on, rec),
    }
}

/// The kernel body: returns (checksum bits, output check).
fn kernel_body(ctx: &M4Ctx, k: &KernelInput) -> (u64, Result<(), String>) {
    let verified = |err: Option<f64>| match err {
        Some(e) if k.verify && (e.is_nan() || e >= 1e-6) => {
            Err(format!("verify max_error {e:e} >= 1e-6"))
        }
        None if k.verify => Err("verification did not run".to_string()),
        _ => Ok(()),
    };
    match k.kernel {
        Kernel::Fft => {
            let mut p = fft::FftParams::test(k.procs);
            p.m = FFT_M;
            p.verify = k.verify;
            let r = fft::fft(ctx, &p);
            (r.checksum.to_bits(), verified(r.max_error))
        }
        Kernel::Radix => {
            let mut p = radix::RadixParams::test(k.procs);
            p.keys = RADIX_KEYS;
            p.digit_bits = 8;
            p.max_key = 1 << 16;
            let r = radix::radix(ctx, &p);
            let want = radix::expected_key_sum(&p);
            let check = if !r.sorted {
                Err("output not sorted".to_string())
            } else if r.key_sum != want {
                Err(format!("key sum {} != expected {want}", r.key_sum))
            } else {
                Ok(())
            };
            (r.key_sum, check)
        }
        Kernel::Lu => {
            let mut p = lu::LuParams::test(k.procs);
            p.n = LU_N;
            p.block = 16;
            p.verify = k.verify;
            let r = lu::lu(ctx, &p);
            (r.diag_checksum.to_bits(), verified(r.max_error))
        }
    }
}

fn run_kernel(k: &KernelInput, obs_on: bool, rec: &mut Recorder) -> Result<RunOut, String> {
    let cluster = cluster(k.nodes, rec);
    let sys = rec.scope("cables.rt_new", |_| {
        if k.base {
            M4System::base(cluster)
        } else {
            M4System::cables(cluster)
        }
    });
    sys.svm().set_obs(obs_on);
    let slot = Arc::new(Mutex::new(None));
    let (slot2, k2) = (Arc::clone(&slot), *k);
    let (end, host_s) = rec.timed("apps.run", |_| {
        sys.run(move |ctx| {
            let out = kernel_body(ctx, &k2);
            *slot2.lock().expect("kernel result slot") = Some((out, ctx.sim.tid().0));
        })
    });
    let end = end.map_err(|e| format!("kernel run: {e}"))?;
    let ((digest, check), main_track) = slot
        .lock()
        .expect("kernel result slot")
        .take()
        .ok_or("kernel produced no result")?;
    let (w0, w1) = sys
        .parallel_window()
        .ok_or("kernel recorded no parallel window")?;
    Ok(RunOut {
        host_s,
        total_ns: end.as_nanos(),
        window_ns: w1 - w0,
        window_start: Some(w0.as_nanos()),
        digest,
        attempted: 1,
        failed: u64::from(check.is_err()),
        why: check.err().unwrap_or_default(),
        svc: None,
        rt: sys.cables_rt(),
        main_track,
    })
}

fn run_svc(
    nodes: usize,
    sched: &Arc<Schedule>,
    obs_on: bool,
    rec: &mut Recorder,
) -> Result<RunOut, String> {
    let cluster = cluster(nodes, rec);
    let rt = rec.scope("cables.rt_new", |_| {
        CablesRt::new(cluster, CablesConfig::paper())
    });
    rt.svm().set_obs(obs_on);
    let mut params = ServiceParams::test();
    params.timeout_ns = SVC_TIMEOUT_NS;
    let slot = Arc::new(Mutex::new(None));
    let (slot2, sched2) = (Arc::clone(&slot), Arc::clone(sched));
    let (end, host_s) = rec.timed("apps.run", |_| {
        rt.run(move |pth| {
            let out = run_service(pth, &sched2, params);
            *slot2.lock().expect("service result slot") = Some((out, pth.sim.tid().0));
            0
        })
    });
    let end = end.map_err(|e| format!("service run: {e}"))?;
    let (out, main_track) = slot
        .lock()
        .expect("service result slot")
        .take()
        .ok_or("service produced no outcome")?;
    let requests = sched.requests.len() as u64;
    let answered = (out.served + out.direct_served).min(requests);
    Ok(RunOut {
        host_s,
        total_ns: end.as_nanos(),
        window_ns: out.serve_ns,
        window_start: None,
        digest: out.digest,
        attempted: requests,
        failed: requests - answered,
        why: if answered < requests {
            format!("{} of {requests} requests unanswered", requests - answered)
        } else {
            String::new()
        },
        svc: Some(out),
        rt: Some(rt),
        main_track,
    })
}

/// Drains the run's event buffer and returns the request latencies: the
/// durations of the `ServiceRequest` spans, ascending.
pub fn take_request_latencies(rt: &CablesRt) -> Result<Vec<u64>, String> {
    let sink = rt.svm().obs();
    let dropped = sink.dropped_events();
    if dropped > 0 {
        return Err(format!("obs dropped {dropped} events; raise OBS_CAP"));
    }
    let mut d: Vec<u64> = sink
        .take_events()
        .iter()
        .filter(|e| matches!(e.event, Event::ServiceRequest { .. }))
        .map(|e| e.dur_ns)
        .collect();
    d.sort_unstable();
    Ok(d)
}

/// The counts every layer publishes through a getter, read after a run.
pub fn counts(rt: &CablesRt, out: &RunOut) -> Metrics {
    let mut m = Metrics::new();
    let svm = rt.svm();
    let cluster = rt.cluster();

    let e = svm.engine_stats();
    m.insert("sim.context_switches", e.context_switches as f64);
    m.insert("sim.sync_slow_path", e.sync_slow_path as f64);
    m.insert(
        "sim.sync_fast_ratio",
        ratio(e.sync_fast_path, e.sync_fast_path + e.sync_slow_path),
    );
    m.insert("sim.lockless_advances", e.lockless_advances as f64);
    m.insert("sim.threads_spawned", e.threads_spawned as f64);
    m.insert("sim.window_admissible", e.window_admissible as f64);
    m.insert("sim.ready_reallocs", e.ready_reallocs as f64);

    let t = cluster.mem.tlb_stats();
    m.insert("memsim.tlb_hits", t.hits as f64);
    m.insert("memsim.tlb_misses", t.misses as f64);
    m.insert("memsim.tlb_hit_ratio", ratio(t.hits, t.hits + t.misses));

    let (mut msgs, mut bytes, mut regions, mut registered) = (0, 0, 0, 0);
    for &n in cluster.nodes() {
        let tr = cluster.san.traffic(n);
        msgs += tr.messages_out;
        bytes += tr.bytes_out;
        let nic = cluster.vmmc.nic_stats(n);
        regions = regions.max(nic.regions);
        registered = registered.max(nic.registered_bytes);
    }
    m.insert("san.msgs", msgs as f64);
    m.insert("san.bytes", bytes as f64);
    m.insert("vmmc.regions_max", regions as f64);
    m.insert("vmmc.registered_bytes_max", registered as f64);

    let s = svm.total_stats();
    m.insert("svm.read_faults", s.read_faults as f64);
    m.insert("svm.write_faults", s.write_faults as f64);
    m.insert("svm.remote_fetches", s.remote_fetches as f64);
    m.insert("svm.fetch_bytes", s.fetch_bytes as f64);
    m.insert("svm.diffs_sent", s.diffs_sent as f64);
    m.insert("svm.diff_bytes", s.diff_bytes as f64);
    m.insert("svm.notices_applied", s.notices_applied as f64);
    m.insert("svm.lock_acquires", s.lock_acquires as f64);
    m.insert("svm.barrier_waits", s.barrier_waits as f64);
    m.insert("svm.migrations", s.migrations as f64);
    let p = svm.placement_report();
    m.insert("svm.touched_pages", p.touched_pages as f64);
    m.insert("svm.misplaced_pages", p.misplaced_pages as f64);

    let r = rt.stats();
    m.insert("cables.remote_creates", r.remote_creates as f64);
    m.insert("cables.nodes_attached", r.nodes_attached as f64);
    m.insert("cables.startup_ns", (out.total_ns - out.window_ns) as f64);
    let c = rt.contention();
    m.insert("cables.mutex_waits", c.mutex_waits as f64);
    m.insert("cables.mutex_wait_ns", c.mutex_wait_ns as f64);
    m.insert("cables.cond_waits", c.cond_waits as f64);
    m.insert("cables.cond_wait_ns", c.cond_wait_ns as f64);
    m.insert("cables.barrier_wait_ns", c.barrier_wait_ns as f64);

    m.insert("apps.svc_served", out.svc.map_or(0, |s| s.served) as f64);
    m.insert(
        "apps.svc_direct_served",
        out.svc.map_or(0, |s| s.direct_served) as f64,
    );
    m.insert("apps.svc_retries", out.svc.map_or(0, |s| s.retries) as f64);
    m
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
