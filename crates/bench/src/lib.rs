//! # cables-bench — shared harness for the table/figure regeneration
//!
//! Every evaluation artifact of the paper has a bench target, and each
//! other bench answers one question per run set:
//!
//! | target | artifact |
//! |--------|----------|
//! | `table3` | basic VMMC costs |
//! | `table4` | CableS basic-event costs with breakdowns |
//! | `table5` | pthreads programs: API usage + average op times |
//! | `table6` | OpenMP SPLASH-2 speedups |
//! | `fig5`   | SPLASH-2 M4 vs M4-on-pthreads execution times, and Fig. 6's misplaced-page percentages from the same CableS runs |
//! | `ablations` | design-choice ablations (granularity, write-through, NIC pressure, barriers, migration, diff batching, affinity placement) |
//! | `obs_report` | layer breakdown, page ranking, stall profile, series and critical path of two instrumented kernels |
//! | `chaos_soak` | kernels under escalating fault injection |
//! | `service_bench` | the sharded KV service under generated traffic |
//!
//! Problem sizes are scaled down from the paper (documented in
//! `EXPERIMENTS.md`); shapes, ratios and crossovers are the reproduction
//! target, not absolute times.

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use apps::splash::{fft, lu, ocean, radix, raytrace, volrend, water};
use apps::{M4Ctx, M4Mode, M4System};
use cables::CablesConfig;
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

/// Outcome of one [`cables_bench`] run.
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
    /// The value the body returned: the application's result bits.
    pub checksum: Option<u64>,
    /// The recorded events (none with the bus off).
    pub events: Vec<obs::EventRecord>,
    /// Events the bounded buffer had to drop.
    pub dropped_events: u64,
    /// Failure message (e.g. registration limits), if the run died.
    pub error: Option<String>,
}

/// Builds the cluster for a processor count (2-way SMP nodes, as in the
/// paper).
pub fn cluster_for(procs: usize) -> ClusterConfig {
    ClusterConfig::small(procs.div_ceil(2).max(1), 2)
}

/// The body of `app` at its bench size on `procs` processors, returning
/// its result bits: what [`run_app`] runs.
pub fn dispatch(app: AppId, procs: usize) -> Box<dyn FnOnce(&M4Ctx) -> u64 + Send> {
    match app {
        AppId::Fft => {
            let p = fft::FftParams {
                m: 16,
                nprocs: procs,
                verify: false,
            };
            Box::new(move |ctx| fft::fft(ctx, &p).checksum.to_bits())
        }
        AppId::Lu => {
            let p = lu::LuParams {
                n: 128,
                block: 16,
                nprocs: procs,
                verify: false,
            };
            Box::new(move |ctx| lu::lu(ctx, &p).diag_checksum.to_bits())
        }
        AppId::Ocean => {
            let p = ocean::OceanParams::bench(514, 2, procs);
            Box::new(move |ctx| ocean::ocean(ctx, &p).checksum.to_bits())
        }
        AppId::Radix => {
            let p = radix::RadixParams {
                keys: 262_144,
                digit_bits: 8,
                max_key: 1 << 16,
                nprocs: procs,
            };
            Box::new(move |ctx| radix::radix(ctx, &p).key_sum)
        }
        AppId::WaterSpatial | AppId::WaterFl => {
            let p = water::WaterParams {
                cells: 5,
                mols_per_cell: 4,
                steps: 3,
                nprocs: procs,
                friendly_layout: app == AppId::WaterFl,
            };
            Box::new(move |ctx| water::water(ctx, &p).kinetic_energy.to_bits())
        }
        AppId::Raytrace => {
            let p = raytrace::RayParams {
                width: 512,
                height: 384,
                spheres: 12,
                tile: 16,
                nprocs: procs,
            };
            Box::new(move |ctx| raytrace::raytrace(ctx, &p).image_checksum)
        }
        AppId::Volrend => {
            let p = volrend::VolrendParams {
                size: 32,
                image: 96,
                tile: 8,
                nprocs: procs,
            };
            Box::new(move |ctx| volrend::volrend(ctx, &p).image_checksum)
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
    let cfg = (mode == M4Mode::Cables).then(CablesConfig::paper);
    cables_bench(cc, cfg, false, dispatch(app, procs))
}

/// Runs `body` once as the application's initial thread on a cluster
/// built from `cc`: under CableS with `cfg`, or on the base system
/// (page-granular homes, per-run registration) when `cfg` is `None`.
/// `observe` turns the event bus on. Every bench run of an M4 program
/// goes through here except the streamed ones ([`ObsKernel::run`] and
/// `chaos_soak`'s fault levels).
pub fn cables_bench(
    cc: ClusterConfig,
    cfg: Option<CablesConfig>,
    observe: bool,
    body: impl FnOnce(&M4Ctx) -> u64 + Send + 'static,
) -> RunOutcome {
    let cluster = Cluster::build(cc);
    let sys = match cfg {
        Some(cfg) => M4System::cables_with(Arc::clone(&cluster), cfg),
        None => M4System::base(Arc::clone(&cluster)),
    };
    let svm = sys.svm();
    svm.set_obs(observe);
    let slot = Arc::new(StdMutex::new(None));
    let out = Arc::clone(&slot);
    let result = sys.run(move |ctx| *out.lock().expect("checksum slot") = Some(body(ctx)));
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
    let checksum = slot.lock().expect("checksum slot").take();
    RunOutcome {
        total_ns,
        parallel_ns,
        stats: svm.total_stats(),
        placement: svm.placement_report(),
        max_nic_regions,
        checksum,
        events: svm.obs().events(),
        dropped_events: svm.obs().dropped_events(),
        error,
    }
}

/// A kernel of `obs_report`, the observability bench.
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
/// cut, so `cablestat series --follow` can watch the run. `run` returns its
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
            assert!(out.checksum.is_some(), "{mode:?}: no result");
        }
    }
}
