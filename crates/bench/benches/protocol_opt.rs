//! Protocol-traffic ablation: batched diffs × stride prefetch ×
//! lock-data forwarding.
//!
//! Runs FFT and RADIX (32 processors → 16 nodes at full size; 16
//! processors → 8 nodes in smoke mode) over the full 2×2×2 on/off grid
//! of the three protocol optimizations and produces
//! `BENCH_protocol.json` with per-point message counts and simulated
//! times, plus a critical-path blame comparison of the all-off and
//! all-on corners. The grid runs on the green-thread parallel engine
//! backend — the 16-node promotion is what that backend exists to make
//! affordable — and every determinism assertion below therefore also
//! exercises the parallel scheduler.
//!
//! Asserted invariants:
//!
//! - the optimizations are value-preserving: every grid point computes a
//!   bit-identical application result (FFT checksum bits, RADIX key sum);
//! - the all-off corner reports zero for every new counter (the baseline
//!   protocol is untouched);
//! - all-on vs all-off: fewer `remote_fetches` messages, fewer
//!   `diffs_sent` messages, and (at full sizes) a shorter simulated
//!   end-to-end time;
//! - observability stays inert on both corners (same SimTime on vs off).
//!
//! Run with `--test` for the CI smoke mode: tiny sizes, same artifact,
//! same assertions except the end-to-end time comparison (µs-scale
//! noise at smoke sizes).

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
    // Sizes chosen so each processor's chunk spans several pages: stride
    // runs must cross page boundaries for prefetch to engage, and the
    // all-on corner must win simulated time robustly, not by luck.
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

fn run_point(w: &Workload, toggles: (bool, bool, bool), observe: bool, smoke: bool) -> GridRun {
    let cluster = Cluster::build(cluster_for(w.procs));
    let cfg = CablesConfig {
        svm: SvmConfig::cables().with_protocol_opts(toggles.0, toggles.1, toggles.2),
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
        parallel_ns: sys.parallel_ns().expect("kernel records its parallel section"),
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
    assert_eq!(cp.layer_sum_ns(), r.total_ns, "critpath must partition the run");
    let release_ns = cp
        .by_kind
        .iter()
        .find(|(k, _)| k == "proto.release")
        .map_or(0, |(_, v)| *v);
    (cp, release_ns)
}

/// Message-count ceilings of the all-on corner at smoke sizes (FFT m=10,
/// RADIX 16K keys), snapshotted when the optimizations landed (measured
/// 124/74 and 553/61): `(remote_fetches, diffs_sent)`. The simulator is
/// deterministic, so they are tight; a protocol change that re-inflates
/// traffic fails here, not in review.
fn smoke_ceilings(kernel: &str) -> (u64, u64) {
    match kernel {
        "FFT" => (130, 78),
        "RADIX" => (560, 70),
        other => panic!("no traffic ceilings for {other}"),
    }
}

fn main() {
    let smoke = smoke_mode();
    header(
        "protocol_opt: batched diffs x stride prefetch x lock forwarding",
        "no paper table; the GCS-style traffic reductions of §2.2, ablated",
    );
    // Full size runs the promoted 16-node grid (32 processors); smoke
    // keeps the original 8-node shape so CI stays fast.
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
    // Grid order: (batch_diffs, prefetch, lock_forwarding).
    let grid = [
        (false, false, false),
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, false),
        (true, false, true),
        (false, true, true),
        (true, true, true),
    ];

    // Per kernel: the grid points and the critical paths of both corners.
    let mut kernels = Vec::new();
    for w in &workloads {
        println!("--- {} ({} procs, {} nodes) ---", w.name, w.procs, w.procs / 2);
        println!(
            "{:<22} {:>12} {:>14} {:>11} {:>10} {:>9} {:>9}",
            "point", "sim time", "remote_fetches", "diffs_sent", "prefetch", "pf hits", "lock fwd"
        );

        let mut points = Vec::new();
        for &(b, p, f) in &grid {
            let r = run_point(w, (b, p, f), false, smoke);
            let label = format!(
                "batch={} prefetch={} fwd={}",
                b as u8, p as u8, f as u8
            );
            println!(
                "{:<22} {:>15} {:>14} {:>11} {:>10} {:>9} {:>9}",
                label,
                r.total_ns,
                r.stats.remote_fetches,
                r.stats.diffs_sent,
                r.stats.prefetch_issued,
                r.stats.prefetch_hits,
                r.stats.lock_forwards
            );
            points.push(((b, p, f), r));
        }

        // Value preservation: every grid point computes the same bits.
        let baseline_sum = points[0].1.checksum;
        for ((b, p, f), r) in &points {
            assert_eq!(
                r.checksum, baseline_sum,
                "{}: result differs at batch={b} prefetch={p} fwd={f}",
                w.name
            );
        }

        let off = &points[0].1;
        let on = &points[7].1;
        // The baseline protocol is untouched: no new counter moves.
        assert_eq!(off.stats.diff_batches, 0, "{}: all-off batched a diff", w.name);
        assert_eq!(off.stats.prefetch_issued, 0, "{}: all-off prefetched", w.name);
        assert_eq!(off.stats.lock_forwards, 0, "{}: all-off forwarded", w.name);
        // The headline traffic reductions.
        assert!(
            on.stats.remote_fetches < off.stats.remote_fetches,
            "{}: remote fetch messages did not drop ({} -> {})",
            w.name,
            off.stats.remote_fetches,
            on.stats.remote_fetches
        );
        assert!(
            on.stats.diffs_sent < off.stats.diffs_sent,
            "{}: diff messages did not drop ({} -> {})",
            w.name,
            off.stats.diffs_sent,
            on.stats.diffs_sent
        );
        if smoke {
            let (fetch_cap, diff_cap) = smoke_ceilings(w.name);
            assert!(
                on.stats.remote_fetches <= fetch_cap && on.stats.diffs_sent <= diff_cap,
                "{}: all-on traffic above its ceilings: remote_fetches {} (max {fetch_cap}), \
                 diffs_sent {} (max {diff_cap})",
                w.name,
                on.stats.remote_fetches,
                on.stats.diffs_sent
            );
        }
        // The end-to-end timing claim only holds at representative sizes:
        // at smoke sizes each processor chunk is under a page, prefetch
        // mostly wastes its fetches, and the µs-scale deltas are barrier
        // straggler noise. Smoke still asserts every value-preservation
        // and message-count invariant above.
        if !smoke {
            assert!(
                on.total_ns < off.total_ns,
                "{}: simulated time did not drop ({} -> {})",
                w.name,
                off.total_ns,
                on.total_ns
            );
        }
        println!(
            "{}: remote fetches {} -> {} ({:.1}%), diff messages {} -> {} ({:.1}%), time {} -> {}",
            w.name,
            off.stats.remote_fetches,
            on.stats.remote_fetches,
            100.0 * on.stats.remote_fetches as f64 / off.stats.remote_fetches.max(1) as f64,
            off.stats.diffs_sent,
            on.stats.diffs_sent,
            100.0 * on.stats.diffs_sent as f64 / off.stats.diffs_sent.max(1) as f64,
            fmt_ns(off.total_ns),
            fmt_ns(on.total_ns)
        );
        println!();

        // Critical-path blame, all-off vs all-on corners, with the
        // obs-inertness double-run both times.
        let off_obs = run_point(w, (false, false, false), true, smoke);
        let on_obs = run_point(w, (true, true, true), true, smoke);
        assert_eq!(
            off_obs.total_ns, off.total_ns,
            "{}: observability changed the all-off run",
            w.name
        );
        assert_eq!(
            on_obs.total_ns, on.total_ns,
            "{}: observability changed the all-on run",
            w.name
        );
        assert_eq!(off_obs.dropped, 0, "{}: obs overflow (all-off)", w.name);
        assert_eq!(on_obs.dropped, 0, "{}: obs overflow (all-on)", w.name);
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

        kernels.push((w, points, cp_off, cp_on));
    }

    artifact("BENCH_protocol.json", "protocol_opt", |doc| {
        doc.key("kernels").arr();
        for (w, points, cp_off, cp_on) in &kernels {
            doc.obj().field("kernel", w.name).field("procs", w.procs).key("grid").arr();
            for ((b, p, f), r) in points {
                let s = &r.stats;
                doc.obj().field("batch_diffs", b).field("prefetch", p);
                doc.field("lock_forwarding", f).field("sim_time_ns", r.total_ns);
                doc.field("parallel_ns", r.parallel_ns);
                doc.field("remote_fetches", s.remote_fetches).field("fetch_bytes", s.fetch_bytes);
                doc.field("diffs_sent", s.diffs_sent).field("diff_bytes", s.diff_bytes);
                doc.field("diff_batches", s.diff_batches);
                doc.field("batched_diff_bytes", s.batched_diff_bytes);
                doc.field("prefetch_issued", s.prefetch_issued);
                doc.field("prefetch_hits", s.prefetch_hits);
                doc.field("prefetch_wasted", s.prefetch_wasted);
                doc.field("lock_forwards", s.lock_forwards);
                doc.field("lock_forward_bytes", s.lock_forward_bytes);
                doc.field("checksum", r.checksum).end();
            }
            doc.end().field("critpath_all_off", cp_off).field("critpath_all_on", cp_on).end();
        }
        doc.end();
    });
    println!("determinism: all 8 grid points produced bit-identical application");
    println!("results per kernel, and the all-on corner beat all-off on remote");
    if smoke {
        println!("fetch messages and diff messages (time asserted at full sizes).");
    } else {
        println!("fetch messages, diff messages, and simulated end-to-end time.");
    }
}
