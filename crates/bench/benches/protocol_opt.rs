//! Protocol-traffic ablation: release-time diff batching off vs on.
//!
//! Runs FFT and RADIX (32 processors → 16 nodes at full size; 16
//! processors → 8 nodes in smoke mode) with `SvmConfig::batch_diffs` off
//! and on, and produces `BENCH_protocol.json` with both points' message
//! counts, simulated times and parallel sections, plus a critical-path
//! blame comparison of the two. The 16-node runs go through the
//! green-thread engine, so every determinism assertion below also
//! exercises its scheduler.
//!
//! Asserted invariants:
//!
//! - batching is value-preserving: both points compute a bit-identical
//!   application result (FFT checksum bits, RADIX key sum);
//! - the off point ships no batch;
//! - batching never sends more diff messages (strictly fewer at full
//!   size), and at full size its parallel section is no longer than
//!   off's. FFT's fetch count is not asserted: batching does not touch
//!   fetches (2880 at both points);
//! - observability stays inert on both points (same SimTime on vs off).
//!
//! Run with `--test` for the CI smoke mode: tiny sizes, same artifact,
//! same assertions except the full-size ones, plus message-count ceilings
//! on the batch-on point.

use std::sync::{Arc, Mutex};

use apps::splash::{fft, radix};
use apps::{M4Ctx, M4System};
use cables::CablesConfig;
use cables_bench::{artifact, cluster_for, fmt_ns, header, smoke_mode};
use obs::critpath::{self, CritPath};
use svm::{Cluster, NodeStats, SvmConfig};

struct Workload {
    name: &'static str,
    procs: usize,
    body: fn(&M4Ctx, bool) -> u64,
}

fn fft_body(ctx: &M4Ctx, smoke: bool) -> u64 {
    // Sizes chosen so each processor's chunk spans several pages.
    let p = fft::FftParams {
        m: if smoke { 10 } else { 14 },
        nprocs: if smoke { 16 } else { 32 },
        verify: false,
    };
    fft::fft(ctx, &p).checksum.to_bits()
}

fn radix_body(ctx: &M4Ctx, smoke: bool) -> u64 {
    let p = radix::RadixParams {
        keys: if smoke { 16_384 } else { 65_536 },
        digit_bits: 8,
        max_key: 1 << 16,
        nprocs: if smoke { 16 } else { 32 },
    };
    let r = radix::radix(ctx, &p);
    assert!(r.sorted, "RADIX output not sorted");
    r.key_sum
}

struct GridRun {
    total_ns: u64,
    /// The kernel's parallel section (the window the gate watches: whole-run
    /// time is dominated by node attach).
    parallel_ns: u64,
    checksum: u64,
    stats: NodeStats,
    events: Vec<obs::EventRecord>,
    dropped: u64,
}

fn run_point(w: &Workload, batch: bool, observe: bool, smoke: bool) -> GridRun {
    let cluster = Cluster::build(cluster_for(w.procs));
    let cfg = CablesConfig {
        svm: SvmConfig {
            batch_diffs: batch,
            ..SvmConfig::cables()
        },
        ..CablesConfig::paper()
    };
    let sys = M4System::cables_with(Arc::clone(&cluster), cfg);
    sys.svm().set_obs(observe);
    let body = w.body;
    let result: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    let end = sys
        .run(move |ctx| {
            *slot.lock().unwrap() = Some(body(ctx, smoke));
        })
        .expect("workload run");
    let checksum = result.lock().unwrap().take().expect("workload result");
    let svm = sys.svm();
    let sink = svm.obs();
    GridRun {
        total_ns: end.as_nanos(),
        parallel_ns: sys
            .parallel_ns()
            .expect("kernel records its parallel section"),
        checksum,
        stats: svm.total_stats(),
        events: sink.events(),
        dropped: sink.dropped_events(),
    }
}

/// Returns the run's critical path plus the diff lane's share of it
/// (`proto.release` by-kind blame: time the path spent building and
/// fencing release diffs).
fn critpath_of(r: &GridRun) -> (CritPath, u64) {
    let cp = critpath::analyze(&r.events, r.total_ns, r.dropped).expect("critical-path analysis");
    assert_eq!(
        cp.layer_sum_ns(),
        r.total_ns,
        "critpath must partition the run"
    );
    let release_ns = cp
        .by_kind
        .iter()
        .find(|(k, _)| k == "proto.release")
        .map_or(0, |(_, v)| *v);
    (cp, release_ns)
}

/// Message-count ceilings of the batch-on point at smoke sizes (FFT m=10,
/// RADIX 16K keys), snapshotted from the run that measured 139/80 and
/// 562/60: `(remote_fetches, diffs_sent)`. The simulator is deterministic,
/// so they are tight; a protocol change that re-inflates traffic fails
/// here, not in review.
fn smoke_ceilings(kernel: &str) -> (u64, u64) {
    match kernel {
        "FFT" => (145, 84),
        "RADIX" => (585, 63),
        other => panic!("no traffic ceilings for {other}"),
    }
}

fn main() {
    let smoke = smoke_mode();
    header(
        "protocol_opt: release-time diff batching, off vs on",
        "no paper table; a GCS-style traffic reduction in the spirit of §2.2",
    );
    // Full size runs 16 nodes (32 processors); smoke keeps 8 nodes so CI
    // stays fast.
    let procs = if smoke { 16 } else { 32 };
    let workloads = [
        Workload {
            name: "FFT",
            procs,
            body: fft_body,
        },
        Workload {
            name: "RADIX",
            procs,
            body: radix_body,
        },
    ];

    // Per kernel: both points and their critical paths.
    let mut kernels = Vec::new();
    for w in &workloads {
        println!(
            "--- {} ({} procs, {} nodes) ---",
            w.name,
            w.procs,
            w.procs / 2
        );
        println!(
            "{:<8} {:>15} {:>12} {:>14} {:>11}",
            "point", "sim time", "parallel", "remote_fetches", "diffs_sent"
        );
        let [off, on] = [false, true].map(|batch| {
            let r = run_point(w, batch, false, smoke);
            println!(
                "{:<8} {:>15} {:>12} {:>14} {:>11}",
                format!("batch={}", batch as u8),
                r.total_ns,
                r.parallel_ns,
                r.stats.remote_fetches,
                r.stats.diffs_sent
            );
            r
        });

        assert_eq!(
            on.checksum, off.checksum,
            "{}: batching changed the result",
            w.name
        );
        assert_eq!(
            off.stats.diff_batches, 0,
            "{}: batch-off batched a diff",
            w.name
        );
        assert!(
            on.stats.diffs_sent <= off.stats.diffs_sent,
            "{}: diff messages grew ({} -> {})",
            w.name,
            off.stats.diffs_sent,
            on.stats.diffs_sent
        );
        if smoke {
            let (fetch_cap, diff_cap) = smoke_ceilings(w.name);
            assert!(
                on.stats.remote_fetches <= fetch_cap && on.stats.diffs_sent <= diff_cap,
                "{}: batch-on traffic above its ceilings: remote_fetches {} (max {fetch_cap}), \
                 diffs_sent {} (max {diff_cap})",
                w.name,
                on.stats.remote_fetches,
                on.stats.diffs_sent
            );
        } else {
            // At smoke sizes a release rarely holds two pages for one home
            // (FFT: 80 diffs either way) and µs-scale window deltas are
            // barrier-straggler noise, so these two hold at full size only.
            assert!(
                on.stats.diffs_sent < off.stats.diffs_sent,
                "{}: diff messages did not drop ({} -> {})",
                w.name,
                off.stats.diffs_sent,
                on.stats.diffs_sent
            );
            assert!(
                on.parallel_ns <= off.parallel_ns,
                "{}: parallel section grew ({} -> {})",
                w.name,
                off.parallel_ns,
                on.parallel_ns
            );
        }
        println!(
            "{}: diff messages {} -> {} ({:.1}%), parallel section {} -> {}",
            w.name,
            off.stats.diffs_sent,
            on.stats.diffs_sent,
            100.0 * on.stats.diffs_sent as f64 / off.stats.diffs_sent.max(1) as f64,
            fmt_ns(off.parallel_ns),
            fmt_ns(on.parallel_ns)
        );
        println!();

        // Critical-path blame of both points, with the obs-inertness
        // double-run both times.
        let off_obs = run_point(w, false, true, smoke);
        let on_obs = run_point(w, true, true, smoke);
        assert_eq!(
            off_obs.total_ns, off.total_ns,
            "{}: observability changed the batch-off run",
            w.name
        );
        assert_eq!(
            on_obs.total_ns, on.total_ns,
            "{}: observability changed the batch-on run",
            w.name
        );
        assert_eq!(off_obs.dropped, 0, "{}: obs overflow (batch off)", w.name);
        assert_eq!(on_obs.dropped, 0, "{}: obs overflow (batch on)", w.name);
        let (cp_off, release_off) = critpath_of(&off_obs);
        let (cp_on, release_on) = critpath_of(&on_obs);
        // The blame table must show the diff lane shrinking: batching
        // collapses the per-page release fence the path used to wait on.
        if !smoke {
            assert!(
                release_on < release_off,
                "{}: critpath release-lane blame did not shrink ({} -> {})",
                w.name,
                release_off,
                release_on
            );
        }

        kernels.push((w, [off, on], cp_off, cp_on));
    }

    artifact("BENCH_protocol.json", "protocol_opt", |doc| {
        doc.key("kernels").arr();
        for (w, points, cp_off, cp_on) in &kernels {
            doc.obj()
                .field("kernel", w.name)
                .field("procs", w.procs)
                .key("grid")
                .arr();
            for (batch, r) in [false, true].iter().zip(points) {
                let s = &r.stats;
                doc.obj()
                    .field("batch_diffs", batch)
                    .field("sim_time_ns", r.total_ns);
                doc.field("parallel_ns", r.parallel_ns);
                doc.field("remote_fetches", s.remote_fetches)
                    .field("fetch_bytes", s.fetch_bytes);
                doc.field("diffs_sent", s.diffs_sent)
                    .field("diff_bytes", s.diff_bytes);
                doc.field("diff_batches", s.diff_batches);
                doc.field("batched_diff_bytes", s.batched_diff_bytes);
                doc.field("checksum", r.checksum).end();
            }
            doc.end()
                .field("critpath_all_off", cp_off)
                .field("critpath_all_on", cp_on)
                .end();
        }
        doc.end();
    });
    println!("determinism: both points produced bit-identical application results");
    println!("per kernel, and batching sent no more diff messages than off");
    if smoke {
        println!("(diff drop and window asserted at full sizes).");
    } else {
        println!("and a parallel section no longer than off's.");
    }
}
