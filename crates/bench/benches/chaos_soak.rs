//! Chaos soak: FFT and RADIX under escalating fault injection.
//!
//! Runs each kernel through a ladder of fault levels — clean fabric,
//! light/moderate/heavy wire faults plus NIC resource pressure, and
//! finally a mid-run node crash — and produces `BENCH_chaos.json` with
//! per-level completion, injected-fault counters, retry/eviction counts
//! and recovery latencies.
//!
//! Asserted invariants:
//!
//! - the empty plan is invisible: same simulated end time as no chaos;
//! - every wire/resource level completes, and FFT (run with its verifier
//!   on) reconstructs the input exactly — drops and duplicates cost time,
//!   never answers;
//! - the crash level completes with survivors: the dead node is detached,
//!   at least one recovery is recorded, and it carries a latency.
//!
//! Run with `--test` for the CI smoke mode (tiny sizes, same assertions,
//! same artifact).

use std::sync::{Arc, Mutex as StdMutex};

use apps::splash::{fft, radix};
use apps::{M4Ctx, M4System};
use cables_bench::{artifact, cluster_for, fmt_ns, header, smoke_mode, streamed};
use chaos::{ChaosEngine, ChaosStats, FaultPlan, ResourceFaults, WireFaults};
use obs::json::Fixed;
use obs::series;
use obs::stream::Stream;
use svm::Cluster;

/// The node sacrificed by the crash level (never 0: the master survives).
const CRASH_NODE: u32 = 2;

struct Workload {
    name: &'static str,
    procs: usize,
    /// Runs the kernel; returns FFT's verification error when it has one.
    body: fn(&M4Ctx, bool) -> Option<f64>,
}

fn fft_body(ctx: &M4Ctx, smoke: bool) -> Option<f64> {
    let p = fft::FftParams {
        m: if smoke { 8 } else { 12 },
        nprocs: 16,
        verify: true,
    };
    fft::fft(ctx, &p).max_error
}

fn radix_body(ctx: &M4Ctx, smoke: bool) -> Option<f64> {
    let p = radix::RadixParams {
        keys: if smoke { 4_096 } else { 65_536 },
        digit_bits: 8,
        max_key: 1 << 16,
        nprocs: 8,
    };
    radix::radix(ctx, &p);
    None
}

/// One fault level of the escalation ladder.
struct Level {
    name: &'static str,
    /// Builds the plan; `crash_at` is only used by the crash level.
    plan: fn(u64) -> FaultPlan,
    crashes: bool,
}

fn wire(drop_p: f64, dup_p: f64, reorder_p: f64, jitter_ns: u64) -> WireFaults {
    WireFaults {
        drop_p,
        dup_p,
        reorder_p,
        jitter_ns,
        ..WireFaults::default()
    }
}

const LEVELS: [Level; 5] = [
    Level {
        name: "clean",
        plan: |_| FaultPlan::new(),
        crashes: false,
    },
    Level {
        name: "light",
        plan: |_| FaultPlan::new().wire(wire(0.02, 0.0, 0.0, 2_000)),
        crashes: false,
    },
    Level {
        name: "moderate",
        plan: |_| {
            FaultPlan::new()
                .wire(wire(0.05, 0.03, 0.0, 5_000))
                .resources(ResourceFaults {
                    export_fail_p: 0.05,
                    import_fail_p: 0.05,
                    extend_fail_p: 0.05,
                    ..ResourceFaults::default()
                })
        },
        crashes: false,
    },
    Level {
        name: "heavy",
        plan: |_| {
            FaultPlan::new()
                .wire(wire(0.10, 0.05, 0.05, 10_000))
                .resources(ResourceFaults {
                    export_fail_p: 0.10,
                    import_fail_p: 0.10,
                    extend_fail_p: 0.10,
                    ..ResourceFaults::default()
                })
        },
        crashes: false,
    },
    Level {
        name: "crash",
        plan: |at| {
            FaultPlan::new()
                .wire(wire(0.02, 0.0, 0.0, 2_000))
                .crash(CRASH_NODE, at)
        },
        crashes: true,
    },
];

struct LevelOutcome {
    total_ns: Option<u64>,
    /// The kernel's parallel section: what the fault level slows down
    /// (whole-run time is dominated by node attach).
    parallel_ns: Option<u64>,
    max_error: Option<f64>,
    stats: ChaosStats,
    nodes_detached: u64,
}

fn run_level(w: &Workload, plan: Option<FaultPlan>, seed: u64, smoke: bool) -> LevelOutcome {
    run_level_streamed(w, plan, seed, smoke, None).0
}

/// [`run_level`] with an optional live metric stream: `stream` names the
/// stream kernel and carries the window width; the series runs for the
/// whole level (observability is inert, so the level's simulated time is
/// unchanged). Also returns the stream, read back from its file.
fn run_level_streamed(
    w: &Workload,
    plan: Option<FaultPlan>,
    seed: u64,
    smoke: bool,
    stream: Option<(&str, u64)>,
) -> (LevelOutcome, Option<Stream>) {
    let cluster = Cluster::build(cluster_for(w.procs));
    let attached = plan.is_some();
    if let Some(plan) = plan {
        cluster.set_chaos(ChaosEngine::new(seed, plan));
    }
    let sys = M4System::cables(Arc::clone(&cluster));
    let svm = sys.svm();
    svm.set_obs(stream.is_some());
    let body = w.body;
    let err_slot = Arc::new(StdMutex::new(None));
    let err2 = Arc::clone(&err_slot);
    let (result, stream) = streamed(svm.obs(), stream, || {
        let result = sys.run(move |ctx| {
            *err2.lock().unwrap() = body(ctx, smoke);
        });
        let sim_ns = result.as_ref().map_or(0, |t| t.as_nanos());
        (result, sim_ns)
    });
    let max_error = *err_slot.lock().unwrap();
    let outcome = LevelOutcome {
        total_ns: result.ok().map(|t| t.as_nanos()),
        parallel_ns: sys.parallel_ns(),
        max_error,
        stats: if attached {
            cluster.chaos().expect("chaos attached").stats()
        } else {
            ChaosStats::default()
        },
        nodes_detached: sys
            .cables_rt()
            .map(|rt| rt.stats().nodes_detached)
            .unwrap_or(0),
    };
    (outcome, stream)
}

fn main() {
    let smoke = smoke_mode();
    header(
        "chaos_soak: kernels under escalating fault injection",
        "no paper artifact; the paper's §3.4 degraded-regime behaviour, stress-tested",
    );
    let workloads = [
        Workload {
            name: "FFT",
            procs: 16,
            body: fft_body,
        },
        Workload {
            name: "RADIX",
            procs: 8,
            body: radix_body,
        },
    ];

    // Per kernel: the clean end time and each level's end time + outcome.
    let mut kernels = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        // Baseline without any engine attached: the reference end time and
        // the calibration for the crash level's mid-run instant.
        let baseline = run_level(w, None, 0, smoke);
        let clean_ns = baseline.total_ns.expect("baseline run completes");
        let clean_parallel_ns = baseline.parallel_ns.expect("clean parallel section");
        let crash_at = clean_ns / 3;

        println!(
            "{} ({} procs, clean run {}):",
            w.name,
            w.procs,
            fmt_ns(clean_ns)
        );
        println!(
            "  {:<10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}  {}",
            "level", "time", "wireflt", "retries", "evicts", "crashes", "recov", "recovery latency"
        );

        let mut levels = Vec::new();
        for (li, level) in LEVELS.iter().enumerate() {
            let seed = 0xC4B1E5 ^ (wi as u64) << 8 ^ li as u64;
            // The FFT crash level runs with the live metric stream on:
            // the windowed series around the crash instant is the §3.4
            // degraded-regime evidence (EXPERIMENTS.md), and doubles as
            // proof that streaming survives a mid-run node loss.
            let stream =
                (level.crashes && w.name == "FFT").then(|| ("CHAOS_FFT", (clean_ns / 24).max(1)));
            let (out, stream) =
                run_level_streamed(w, Some((level.plan)(crash_at)), seed, smoke, stream);
            let s = &out.stats;
            if let Some(stream) = &stream {
                println!(
                    "  crash-level metric stream: {} frame(s), {}ns windows, crash at {} -> target/artifacts/stream_CHAOS_FFT.ndjson",
                    stream.frames.len(),
                    stream.header.sample_ns,
                    fmt_ns(crash_at)
                );
                print!(
                    "{}",
                    obs::report::window_table(&series::windowed_table(&stream.frames))
                );
            }

            if level.name == "clean" {
                assert_eq!(
                    out.total_ns,
                    Some(clean_ns),
                    "{}: an attached empty plan changed the simulated time",
                    w.name
                );
                assert_eq!(s.wire_faults + s.resource_faults + s.crashes, 0);
            }
            let total_ns = out
                .total_ns
                .unwrap_or_else(|| panic!("{}: level '{}' did not complete", w.name, level.name));
            if !level.crashes {
                // Wire drops/dups/reorders and NIC pressure must never
                // corrupt answers. (The crash level is exempt: the dead
                // node's unfinished work is lost by design — surviving
                // and completing is the guarantee there.)
                if let Some(err) = out.max_error {
                    assert!(
                        err < 1e-6,
                        "{}: level '{}' corrupted the result (max_error={err})",
                        w.name,
                        level.name
                    );
                }
            }
            if level.crashes {
                assert_eq!(s.crashes, 1, "{}: planned crash never fired", w.name);
                assert!(s.recoveries >= 1, "{}: crash had no recovery", w.name);
                assert!(
                    s.recovery_latency_summary().is_some(),
                    "{}: recovery carried no latency",
                    w.name
                );
                assert!(
                    out.nodes_detached >= 1,
                    "{}: crashed node was not detached",
                    w.name
                );
            }

            let lat = s.recovery_latency_summary();
            println!(
                "  {:<10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}  {}",
                level.name,
                fmt_ns(total_ns),
                s.wire_faults,
                s.retries,
                s.evictions,
                s.crashes,
                s.recoveries,
                lat.map_or("-".to_string(), |(min, avg, max)| format!(
                    "min {} / avg {} / max {}",
                    fmt_ns(min),
                    fmt_ns(avg),
                    fmt_ns(max)
                )),
            );

            levels.push((level.name, total_ns, out));
        }
        println!(
            "  completion: {}/{} levels (every level must complete; a miss aborts the bench)",
            levels.len(),
            LEVELS.len()
        );
        println!();
        kernels.push((w, clean_ns, clean_parallel_ns, levels));
    }

    artifact("BENCH_chaos.json", "chaos_soak", |doc| {
        doc.key("kernels").arr();
        for (w, clean_ns, clean_parallel_ns, levels) in &kernels {
            doc.obj().field("kernel", w.name).field("procs", w.procs);
            doc.field("clean_ns", clean_ns)
                .field("clean_parallel_ns", clean_parallel_ns);
            doc.key("levels").arr();
            for (name, total_ns, out) in levels {
                let s = &out.stats;
                doc.obj().field("level", *name).field("completed", true);
                doc.field("sim_time_ns", total_ns)
                    .field("parallel_ns", out.parallel_ns);
                let slowdown = out
                    .parallel_ns
                    .map(|p| p as f64 / *clean_parallel_ns as f64);
                doc.field("slowdown", slowdown.map(|x| Fixed(x, 4)));
                doc.field("wire_faults", s.wire_faults)
                    .field("retransmits", s.retransmits);
                doc.field("duplicates", s.duplicates)
                    .field("resource_faults", s.resource_faults);
                doc.field("retries", s.retries)
                    .field("evictions", s.evictions);
                doc.field("crashes", s.crashes)
                    .field("recoveries", s.recoveries);
                doc.field("nodes_detached", out.nodes_detached)
                    .key("recovery_latency_ns");
                match s.recovery_latency_summary() {
                    Some((min, avg, max)) => doc
                        .obj()
                        .field("min", min)
                        .field("avg", avg)
                        .field("max", max)
                        .end(),
                    None => doc.val(None::<u64>),
                };
                doc.end();
            }
            let rate = levels.len() as f64 / LEVELS.len() as f64;
            doc.end().field("completion_rate", Fixed(rate, 2)).end();
        }
        doc.end();
    });
    println!("determinism: every level is a fixed (seed, plan) pair; rerunning");
    println!("this bench reproduces each injected fault and recovery exactly.");
}
