//! # cables-bench — shared harness for the table/figure regeneration
//!
//! Every evaluation artifact of the paper has a bench target:
//!
//! | target | artifact |
//! |--------|----------|
//! | `table3` | basic VMMC costs |
//! | `table4` | CableS basic-event costs with breakdowns |
//! | `table5` | pthreads programs: API usage + average op times |
//! | `table6` | OpenMP SPLASH-2 speedups |
//! | `fig5`   | SPLASH-2 M4 vs M4-on-pthreads execution times |
//! | `fig6`   | misplaced-page percentages |
//! | `ablations` | design-choice ablations (granularity, write-through, barriers) |
//!
//! Problem sizes are scaled down from the paper (documented in
//! `EXPERIMENTS.md`); shapes, ratios and crossovers are the reproduction
//! target, not absolute times.

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use apps::splash::{fft, lu, ocean, radix, raytrace, volrend, water};
use apps::{M4Ctx, M4Mode, M4System};
use obs::json::Writer;
use svm::{Cluster, ClusterConfig, NodeStats, PlacementReport};

/// The eight SPLASH-2-style applications of Fig. 5 / Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppId {
    /// Six-step FFT.
    Fft,
    /// Blocked dense LU.
    Lu,
    /// Red-black SOR with auxiliary fields.
    Ocean,
    /// Parallel radix sort.
    Radix,
    /// Molecular dynamics, field-major layout.
    WaterSpatial,
    /// Molecular dynamics, padded cell-major layout.
    WaterFl,
    /// Sphere ray tracer with a task queue.
    Raytrace,
    /// Volume renderer with a task queue.
    Volrend,
}

impl AppId {
    /// All apps in the paper's Fig. 5 order.
    pub const ALL: [AppId; 8] = [
        AppId::Fft,
        AppId::Lu,
        AppId::Ocean,
        AppId::Radix,
        AppId::WaterSpatial,
        AppId::WaterFl,
        AppId::Volrend,
        AppId::Raytrace,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Fft => "FFT",
            AppId::Lu => "LU",
            AppId::Ocean => "OCEAN",
            AppId::Radix => "RADIX",
            AppId::WaterSpatial => "WATER-SPATIAL",
            AppId::WaterFl => "WATER-SPAT-FL",
            AppId::Raytrace => "RAYTRACE",
            AppId::Volrend => "VOLREND",
        }
    }

    /// The scaled problem-size description (for report headers).
    pub fn scale_note(self) -> &'static str {
        match self {
            AppId::Fft => "m=16 (paper: m=22)",
            AppId::Lu => "n=128,b=16 (paper: n=4096)",
            AppId::Ocean => "n=514 (paper: n=514)",
            AppId::Radix => "256K keys (paper: 16M)",
            AppId::WaterSpatial => "500 molecules (paper: 32768)",
            AppId::WaterFl => "500 molecules, padded layout",
            AppId::Raytrace => "512x384, 12 spheres (paper: car.512)",
            AppId::Volrend => "32^3 volume, 96x96 image (paper: head)",
        }
    }
}

/// Outcome of one application run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Total virtual time, ns (None if the run failed).
    pub total_ns: Option<u64>,
    /// Parallel-section virtual time, ns.
    pub parallel_ns: Option<u64>,
    /// Aggregate protocol statistics.
    pub stats: NodeStats,
    /// Placement quality.
    pub placement: PlacementReport,
    /// Largest per-node NIC region count observed.
    pub max_nic_regions: u64,
    /// Failure message (e.g. registration limits), if the run died.
    pub error: Option<String>,
}

/// Builds the cluster for a processor count (2-way SMP nodes, as in the
/// paper). `CABLES_OBS_CAP` overrides the observability event-buffer
/// capacity (e.g. for long full-size runs whose traces overflow the
/// default and would make the critical-path analysis refuse).
pub fn cluster_for(procs: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(procs.div_ceil(2).max(1), 2);
    if let Some(cap) = obs_cap_override() {
        cfg.obs_cap = cap;
    }
    cfg
}

/// The `CABLES_OBS_CAP` environment override, if set and parseable.
pub fn obs_cap_override() -> Option<usize> {
    std::env::var("CABLES_OBS_CAP").ok()?.parse().ok()
}

fn dispatch(app: AppId, procs: usize, verify: bool) -> Box<dyn FnOnce(&M4Ctx) + Send> {
    match app {
        AppId::Fft => {
            let p = fft::FftParams {
                m: 16,
                nprocs: procs,
                verify,
            };
            Box::new(move |ctx| {
                fft::fft(ctx, &p);
            })
        }
        AppId::Lu => {
            let p = lu::LuParams {
                n: 128,
                block: 16,
                nprocs: procs,
                verify,
            };
            Box::new(move |ctx| {
                lu::lu(ctx, &p);
            })
        }
        AppId::Ocean => {
            let p = ocean::OceanParams::bench(514, 2, procs);
            Box::new(move |ctx| {
                ocean::ocean(ctx, &p);
            })
        }
        AppId::Radix => {
            let p = radix::RadixParams {
                keys: 262_144,
                digit_bits: 8,
                max_key: 1 << 16,
                nprocs: procs,
            };
            Box::new(move |ctx| {
                radix::radix(ctx, &p);
            })
        }
        AppId::WaterSpatial | AppId::WaterFl => {
            let p = water::WaterParams {
                cells: 5,
                mols_per_cell: 4,
                steps: 3,
                nprocs: procs,
                friendly_layout: app == AppId::WaterFl,
            };
            Box::new(move |ctx| {
                water::water(ctx, &p);
            })
        }
        AppId::Raytrace => {
            let p = raytrace::RayParams {
                width: 512,
                height: 384,
                spheres: 12,
                tile: 16,
                nprocs: procs,
            };
            Box::new(move |ctx| {
                raytrace::raytrace(ctx, &p);
            })
        }
        AppId::Volrend => {
            let p = volrend::VolrendParams {
                size: 32,
                image: 96,
                tile: 8,
                nprocs: procs,
            };
            Box::new(move |ctx| {
                volrend::volrend(ctx, &p);
            })
        }
    }
}

/// Runs `app` on `procs` processors under `mode`; `nic_regions_limit`
/// overrides the NIC region limit (used to reproduce the paper's OCEAN
/// registration failure at scaled sizes).
pub fn run_app(
    mode: M4Mode,
    app: AppId,
    procs: usize,
    nic_regions_limit: Option<u64>,
) -> RunOutcome {
    let mut cc = cluster_for(procs);
    if let Some(limit) = nic_regions_limit {
        cc.vmmc.max_regions_per_nic = limit;
    }
    run_on(&Cluster::build(cc), mode, dispatch(app, procs, false)).0
}

/// Runs `body` under `mode` on `cluster` and collects the outcome; also
/// returns the system for callers that read more of it.
fn run_on(
    cluster: &Arc<Cluster>,
    mode: M4Mode,
    body: Box<dyn FnOnce(&M4Ctx) + Send>,
) -> (RunOutcome, Arc<M4System>) {
    let sys = match mode {
        M4Mode::Base => M4System::base(Arc::clone(cluster)),
        M4Mode::Cables => M4System::cables(Arc::clone(cluster)),
    };
    let result = sys.run(move |ctx| body(ctx));
    let max_nic_regions = cluster
        .nodes()
        .iter()
        .map(|n| cluster.vmmc.nic_stats(*n).regions)
        .max()
        .unwrap_or(0);
    let (total_ns, parallel_ns, error) = match result {
        Ok(end) => (Some(end.as_nanos()), sys.parallel_ns(), None),
        Err(e) => (None, None, Some(e.to_string())),
    };
    let run = RunOutcome {
        total_ns,
        parallel_ns,
        stats: sys.svm().total_stats(),
        placement: sys.svm().placement_report(),
        max_nic_regions,
        error,
    };
    (run, sys)
}

/// A kernel of the observability benches (`obs_report`, `critpath`).
pub struct ObsKernel {
    /// Kernel name: the artifact key and the stream file's suffix.
    pub name: &'static str,
    /// Processors (2-way SMP nodes).
    pub procs: usize,
    body: fn(&M4Ctx, bool),
}

/// FFT (m = 12, smoke 8) on 16 processors and RADIX (64 K keys, smoke
/// 4 K) on 8.
pub const OBS_KERNELS: [ObsKernel; 2] = [
    ObsKernel {
        name: "FFT",
        procs: 16,
        body: obs_fft,
    },
    ObsKernel {
        name: "RADIX",
        procs: 8,
        body: obs_radix,
    },
];

fn obs_fft(ctx: &M4Ctx, smoke: bool) {
    let m = if smoke { 8 } else { 12 };
    fft::fft(
        ctx,
        &fft::FftParams {
            m,
            nprocs: 16,
            verify: false,
        },
    );
}

fn obs_radix(ctx: &M4Ctx, smoke: bool) {
    let keys = if smoke { 4_096 } else { 65_536 };
    radix::radix(
        ctx,
        &radix::RadixParams {
            keys,
            digit_bits: 8,
            max_key: 1 << 16,
            nprocs: 8,
        },
    );
}

/// One CableS run of an [`ObsKernel`].
pub struct ObsRun {
    /// Final simulated time.
    pub total_ns: u64,
    /// The kernel's parallel section (the window the gate watches:
    /// whole-run time is dominated by node attach).
    pub parallel_ns: u64,
    /// The run's metric snapshot.
    pub snapshot: obs::MetricsSnapshot,
    /// The recorded events (none with the bus off).
    pub events: Vec<obs::EventRecord>,
}

impl ObsKernel {
    /// Runs the kernel under CableS with the event bus on or off;
    /// `stream_sample_ns` additionally turns on the online metric series
    /// and writes it live to `stream_<name>.ndjson` (see [`streamed`]).
    pub fn run(
        &self,
        observe: bool,
        smoke: bool,
        stream_sample_ns: Option<u64>,
    ) -> (ObsRun, Option<obs::stream::Stream>) {
        let sys = M4System::cables(Cluster::build(cluster_for(self.procs)));
        let svm = sys.svm();
        svm.set_obs(observe);
        let sink = svm.obs();
        let body = self.body;
        let stream = stream_sample_ns.map(|sample_ns| (self.name, sample_ns));
        let (end, stream) = streamed(sink, stream, || {
            let end = sys
                .run(move |ctx| body(ctx, smoke))
                .expect("workload run")
                .as_nanos();
            (end, end)
        });
        let run = ObsRun {
            total_ns: end,
            parallel_ns: sys
                .parallel_ns()
                .expect("kernel records its parallel section"),
            snapshot: sink.snapshot(),
            events: sink.events(),
        };
        (run, stream)
    }
}

/// Outcome of one run under fault injection: the application outcome plus
/// the chaos engine's fault/recovery counters and (CableS mode) the
/// runtime's node bookkeeping.
#[derive(Debug, Clone)]
pub struct ChaosRunOutcome {
    /// The application outcome.
    pub run: RunOutcome,
    /// Fault-injection and recovery counters.
    pub chaos: chaos::ChaosStats,
    /// CableS runtime statistics (attach/detach counts), when applicable.
    pub rt_stats: Option<cables::RtStats>,
}

/// Runs `app` on `procs` processors with a fault-injection plan attached
/// to every cluster layer. `verify` turns on the application's result
/// check where it has one (FFT, LU) — the proof that drops and duplicates
/// degrade time, not answers.
pub fn run_app_chaos(
    mode: M4Mode,
    app: AppId,
    procs: usize,
    verify: bool,
    seed: u64,
    plan: chaos::FaultPlan,
) -> ChaosRunOutcome {
    let cluster = Cluster::build(cluster_for(procs));
    cluster.set_chaos(chaos::ChaosEngine::new(seed, plan));
    let (run, sys) = run_on(&cluster, mode, dispatch(app, procs, verify));
    ChaosRunOutcome {
        run,
        chaos: cluster.chaos().expect("chaos attached").stats(),
        rt_stats: sys.cables_rt().map(|rt| rt.stats()),
    }
}

/// True when the binary was invoked with `--test` (the smoke mode the CI
/// uses so bench targets run in seconds; mirrors criterion's
/// `cargo bench -- --test`).
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Formats nanoseconds as an adaptive human-readable time.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Runs a closure inside a fresh CableS runtime and returns the value it
/// produced plus the final time (helper for table benches).
pub fn on_cables<R, F>(nodes: usize, cpus: usize, f: F) -> (sim::SimTime, R)
where
    R: Send + 'static + Clone,
    F: FnOnce(&cables::Pth) -> R + Send + 'static,
{
    let cluster = Cluster::build(ClusterConfig::small(nodes, cpus));
    let rt = cables::CablesRt::new(cluster, cables::CablesConfig::paper());
    let out = Arc::new(StdMutex::new(None));
    let o2 = Arc::clone(&out);
    let end = rt
        .run(move |pth| {
            *o2.lock().unwrap() = Some(f(pth));
            0
        })
        .expect("bench run failed");
    let r = out.lock().unwrap().clone().expect("result produced");
    (end, r)
}

/// Writes the artifact `name`, validates it and lands it at the repo root
/// (where `scripts/report.sh` collects the cross-PR summary), regardless
/// of cargo's bench working directory. The document is one object:
/// `"bench"` and `"smoke"` (what `scripts/perfgate.sh` tells a gate-able
/// smoke artifact from a full-size one by), then the members `fields`
/// writes.
pub fn artifact(name: &str, bench: &str, fields: impl FnOnce(&mut Writer)) {
    let mut w = Writer::pretty();
    w.obj().field("bench", bench).field("smoke", smoke_mode());
    fields(&mut w);
    w.end();
    let json = w.finish();
    obs::json::validate(&json).unwrap_or_else(|e| panic!("{name}: malformed artifact JSON: {e:?}"));
    let path = format!("{}/{name}", repo_root());
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("results written to {name}");
}

/// The repository root (two levels up from this crate's manifest).
pub fn repo_root() -> String {
    format!("{}/../..", env!("CARGO_MANIFEST_DIR"))
}

/// Writes a secondary export (traces, collapsed stacks — anything that is
/// not a root-level `BENCH_*.json`) into `target/artifacts/`, creating the
/// directory on first use, and returns the full path.
pub fn write_aux_artifact(name: &str, contents: &str) -> String {
    let dir = format!("{}/target/artifacts", repo_root());
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {dir}: {e}"));
    let path = format!("{dir}/{name}");
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("aux artifact written to target/artifacts/{name}");
    path
}

/// Runs `run` with the sink's metric series on when `stream` names a
/// kernel and a window width: the sink writes
/// `target/artifacts/stream_<kernel>.ndjson` line by line as windows are
/// cut, so `cablestat tail --follow` can watch the run. `run` returns its
/// value and the run's final simulated time (the end line's
/// `sim_time_ns`). The file is read back; it must parse and its frames
/// must fold to the end line's snapshot.
pub fn streamed<R>(
    sink: &obs::ObsSink,
    stream: Option<(&str, u64)>,
    run: impl FnOnce() -> (R, u64),
) -> (R, Option<obs::stream::Stream>) {
    let Some((kernel, sample_ns)) = stream else {
        return (run().0, None);
    };
    let dir = format!("{}/target/artifacts", repo_root());
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {dir}: {e}"));
    let path = format!("{dir}/stream_{kernel}.ndjson");
    let file = std::fs::File::create(&path).unwrap_or_else(|e| panic!("create {path}: {e}"));
    sink.series_start(kernel, sample_ns, Box::new(std::io::BufWriter::new(file)));
    let (out, sim_time_ns) = run();
    let summary = sink.series_finish(sim_time_ns).expect("series was running");
    if let Some(e) = summary.error {
        panic!("write {path}: {e}");
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let s = obs::stream::parse_stream(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    s.verify_fold().unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(s.frames.len() as u64, summary.frames, "{path}: frame count");
    (out, Some(s))
}

/// Prints a standard bench header.
pub fn header(title: &str, paper_ref: &str) {
    println!();
    println!("=== {title} ===");
    println!("    (reproduces {paper_ref}; scaled sizes, shape-faithful)");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_sizing() {
        assert_eq!(cluster_for(1).nodes, 1);
        assert_eq!(cluster_for(4).nodes, 2);
        assert_eq!(cluster_for(32).nodes, 16);
        assert_eq!(cluster_for(32).cpus_per_node, 2);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn small_run_works_on_both_modes() {
        for mode in [M4Mode::Base, M4Mode::Cables] {
            let out = run_app(mode, AppId::Radix, 2, None);
            assert!(out.error.is_none(), "{mode:?}: {:?}", out.error);
            assert!(out.total_ns.unwrap() > 0);
            assert!(out.parallel_ns.unwrap() > 0);
        }
    }
}
