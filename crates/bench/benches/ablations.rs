//! Ablations of the design choices DESIGN.md calls out, one lever per
//! section of `BENCH_ablations.json`:
//!
//! 1. home-binding granularity: 64 KB (WindowsNT) vs page-granular OS;
//! 2. the base system's single-writer write-through optimization;
//! 3. double virtual mapping vs per-run registration (NIC pressure);
//! 4. barrier construction: native extension vs mutex+cond, by size;
//! 5. home migration (the paper's mechanism, one `migrate_home` call) on
//!    a producer-migrates workload;
//! 6. release-time diff batching (`SvmConfig::batch_diffs`) off vs on,
//!    FFT and RADIX, with the critical-path blame of both points;
//! 7. affinity thread placement (`CablesConfig::affinity_placement`) off
//!    vs on, OCEAN, RADIX and the zipfian KV service.
//!
//! Sections 6 and 7 keep their own sizes (32 processors → 16 nodes at
//! full size, 16 → 8 in smoke mode), so their 16-node runs also exercise
//! the scheduler at that width. Their asserted invariants:
//!
//! - each lever is value-preserving: both points compute a bit-identical
//!   application result (FFT checksum bits, RADIX key sum, OCEAN checksum
//!   bits, the service's response digest);
//! - batching: the off point ships no batch; batching never sends more
//!   diff messages (strictly fewer at full size, where its parallel
//!   section is also no longer than off's and the critical path's
//!   `proto.release` blame shrinks); observability stays inert on both
//!   points; FFT's fetch count is not asserted (batching does not touch
//!   fetches); in smoke mode the batch-on point's message counts stay
//!   under snapshotted ceilings;
//! - affinity: no cell migrates a chunk (only `migrate_home` does, and
//!   nothing here calls it); OCEAN's window and its remote fetch + diff
//!   messages fall with affinity on.
//!
//! Run with `--test` for the CI smoke mode: smaller sizes, same artifact,
//! same assertions except the full-size ones.

use std::sync::Arc;

use apps::service::{run_service, ServiceParams};
use apps::splash::{fft, ocean, radix};
use apps::{M4Ctx, M4Mode};
use cables::{CablesConfig, CablesRt};
use cables_bench::{
    artifact, cables_bench, cluster_for, dispatch, fmt_ns, header, run_app, smoke_mode, AppId,
    RunOutcome,
};
use obs::critpath;
use obs::json::{Fixed, ToJson, Writer};
use svm::{Cluster, NodeStats, SvmConfig};
use traffic::{schedule, TrafficConfig};

fn main() {
    header("Ablations of CableS design choices", "DESIGN.md §3");
    // `--test` smoke mode: fewer apps, 4 instead of 16 processors, small
    // OCEAN (CI compile-and-run check, like criterion's --test).
    let smoke = smoke_mode();
    let procs = if smoke { 4 } else { 16 };
    // The BENCH_ablations.json artifact, written section by section.
    artifact("BENCH_ablations.json", "ablations", |w| {
        w.field("procs", procs);
        granularity(w, smoke, procs);
        write_through(w, smoke, procs);
        nic_pressure(w, procs);
        barriers(w, smoke);
        migration(w);
        batching(w, smoke);
        affinity(w, smoke);
    });
}

/// 1. Mapping granularity: 64 KB vs 4 KB.
fn granularity(w: &mut Writer, smoke: bool, procs: usize) {
    println!("1) home-binding granularity ({procs} procs, CableS):");
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>12}",
        "app", "64KB time", "4KB time", "64KB mis%", "4KB mis%"
    );
    let gran_apps: &[(&str, AppId)] = if smoke {
        &[("LU", AppId::Lu)]
    } else {
        &[
            ("RADIX", AppId::Radix),
            ("VOLREND", AppId::Volrend),
            ("LU", AppId::Lu),
        ]
    };
    w.key("granularity").arr();
    for &(name, app) in gran_apps {
        let nt = run_app(M4Mode::Cables, app, procs, None);
        let mut pg_cfg = CablesConfig::paper();
        pg_cfg.svm.home_granularity_pages = 1;
        let mut pg_cc = cluster_for(procs);
        pg_cc.os.map_chunk_pages = 1;
        let pg = cables_bench(pg_cc, Some(pg_cfg), false, dispatch(app, procs));
        let pg_ns = pg.parallel_ns.expect("ablation run");
        let pg_mis = pg.placement.misplaced_pct();
        println!(
            "{:<10} {:>14} {:>14} {:>11.1}% {:>11.1}%",
            name,
            fmt_ns(nt.parallel_ns.unwrap_or(0)),
            fmt_ns(pg_ns),
            nt.placement.misplaced_pct(),
            pg_mis
        );
        w.obj()
            .field("kernel", name)
            .field("nt_parallel_ns", nt.parallel_ns.unwrap_or(0));
        w.field("pg_parallel_ns", pg_ns);
        w.field("nt_misplaced_pct", Fixed(nt.placement.misplaced_pct(), 2));
        w.field("pg_misplaced_pct", Fixed(pg_mis, 2)).end();
    }
    w.end();
    println!("   -> page-granular binding removes all misplacement, at one placement");
    println!("      per page instead of one per 64 KB chunk");
    println!();
}

/// 2. Write-through single-writer optimization. The base system has it;
///    CableS does not (paper §3.4). Counterfactual: give it to CableS,
///    whose misplaced single-writer pages then stop paying release fences.
fn write_through(w: &mut Writer, smoke: bool, procs: usize) {
    println!("2) single-writer write-through (CableS counterfactual, OCEAN, {procs} procs):");
    w.key("write_through").arr();
    for (label, mode, wt) in [
        ("absent (paper CableS)", "absent", false),
        ("granted (counterfactual)", "granted", true),
    ] {
        let mut cfg = CablesConfig::paper();
        cfg.svm.write_through_single_writer = wt;
        let p = if smoke {
            ocean::OceanParams::bench(30, 2, procs)
        } else {
            ocean::OceanParams::bench(258, 3, procs)
        };
        let run = cables_bench(cluster_for(procs), Some(cfg), false, move |ctx| {
            ocean::ocean(ctx, &p).checksum.to_bits()
        });
        let ns = run.parallel_ns.expect("ablation run");
        println!("   {:<26} parallel time {}", label, fmt_ns(ns));
        w.obj().field("mode", mode).field("parallel_ns", ns).end();
    }
    w.end();
    println!("   -> in this model the fence saving is minor: the OCEAN gap is");
    println!("      dominated by misplaced-page diff traffic (ablation 1) plus the");
    println!("      base system's registration-failure ceiling (Fig. 5c)");
    println!();
}

/// 3. Registration pressure: double mapping vs per-run regions.
fn nic_pressure(w: &mut Writer, procs: usize) {
    println!("3) NIC registration pressure (OCEAN, {procs} procs):");
    w.key("nic_pressure").arr();
    for mode in [M4Mode::Base, M4Mode::Cables] {
        let out = run_app(mode, AppId::Ocean, procs, None);
        println!(
            "   {:<8} max regions on any NIC: {:>5}   ({})",
            format!("{mode:?}"),
            out.max_nic_regions,
            if mode == M4Mode::Cables {
                "double mapping: 1 export/node + lazy imports"
            } else {
                "one region per placement run"
            }
        );
        w.obj().field("mode", format!("{mode:?}"));
        w.field("max_nic_regions", out.max_nic_regions).end();
    }
    w.end();
    println!();
}

/// 4. Barrier construction: the CableS pthread_barrier extension (native
///    mechanism) vs a barrier built from pthreads mutex + condition, across
///    cluster sizes (Table 4 shows one point).
fn barriers(w: &mut Writer, smoke: bool) {
    println!("4) barrier construction, native extension vs mutex+cond:");
    println!(
        "   {:<8} {:>14} {:>16} {:>8}",
        "nodes", "native", "mutex+cond", "ratio"
    );
    let node_sizes: &[usize] = if smoke { &[2] } else { &[2, 4, 8] };
    w.key("barriers").arr();
    for &nodes in node_sizes {
        let cluster = Cluster::build(svm::ClusterConfig::small(nodes, 1));
        let cfg = CablesConfig {
            max_threads_per_node: 1,
            ..CablesConfig::paper()
        };
        let rt = cables::CablesRt::new(cluster, cfg);
        let times = Arc::new(std::sync::Mutex::new((0u64, 0u64)));
        let t2 = Arc::clone(&times);
        rt.run(move |pth| {
            let n = nodes as u64;
            let native = pth.rt().barrier_new();
            let mcb = cables::MutexCondBarrier::new(pth);
            let mut kids = Vec::new();
            for _ in 0..n - 1 {
                kids.push(pth.create(move |p| {
                    for _ in 0..3 {
                        p.barrier(native, n as usize);
                    }
                    mcb.wait(p, n);
                    p.barrier(native, n as usize);
                    0
                }));
            }
            pth.barrier(native, n as usize);
            pth.barrier(native, n as usize);
            let a = pth.sim.now();
            pth.barrier(native, n as usize);
            let native_ns = pth.sim.now() - a;
            let b = pth.sim.now();
            mcb.wait(pth, n);
            let mcb_ns = pth.sim.now() - b;
            pth.barrier(native, n as usize);
            for k in kids {
                pth.join(k);
            }
            *t2.lock().unwrap() = (native_ns, mcb_ns);
            0
        })
        .expect("barrier ablation");
        let (native_ns, mcb_ns) = *times.lock().unwrap();
        println!(
            "   {:<8} {:>14} {:>16} {:>7.0}x",
            nodes,
            fmt_ns(native_ns),
            fmt_ns(mcb_ns),
            mcb_ns as f64 / native_ns.max(1) as f64
        );
        w.obj().field("nodes", nodes).field("native_ns", native_ns);
        w.field("mutex_cond_ns", mcb_ns).end();
    }
    w.end();
    println!("   -> the point-to-point pthreads construction centralizes on one");
    println!("      node and degrades with cluster size (paper Table 4: 70us vs 13ms)");
    println!();
}

/// 5. Home migration (paper §2.1.3 ships the mechanism, no policy). A
///    worker on node 1 repeatedly updates a segment first-touched by the
///    master, with or without taking it home once before its loop.
fn migration(w: &mut Writer) {
    println!("5) home migration (the paper's mechanism, one migrate_home call):");
    w.key("migration").arr();
    for (label, migrate) in [("off", false), ("migrate_home", true)] {
        let cluster = Cluster::build(svm::ClusterConfig::small(2, 1));
        let sys = svm::SvmSystem::new(Arc::clone(&cluster), svm::SvmConfig::cables());
        let s2 = Arc::clone(&sys);
        let end = cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                let a = s2.g_malloc(sim, 4096);
                s2.write::<u64>(sim, a, 0);
                let s3 = Arc::clone(&s2);
                let worker = s2.create(sim, move |ws| {
                    if migrate {
                        assert!(s3.migrate_home(ws, a), "the producer takes the segment");
                    }
                    for r in 0..200u64 {
                        s3.lock(ws, 1);
                        for i in 0..64u64 {
                            s3.write::<u64>(ws, a + i * 8, r + i);
                        }
                        s3.unlock(ws, 1);
                    }
                });
                sim.wait_exit(worker);
            })
            .expect("migration ablation");
        let st = sys.total_stats();
        println!(
            "   {:<18} total {}  remote diffs {}  diff bytes {}  migrations {}",
            label,
            fmt_ns(end.as_nanos()),
            st.diffs_sent,
            st.diff_bytes,
            st.migrations
        );
        w.obj()
            .field("mode", label)
            .field("total_ns", end.as_nanos());
        w.field("diffs_sent", st.diffs_sent)
            .field("diff_bytes", st.diff_bytes);
        w.field("migrations", st.migrations).end();
    }
    w.end();
    println!("   -> migrating the segment to its sole writer eliminates the");
    println!("      per-release diff traffic (when to migrate, the paper leaves open)");
    println!();
}

/// FFT of section 6.
fn lever_fft(ctx: &M4Ctx, smoke: bool) -> u64 {
    // Sizes chosen so each processor's chunk spans several pages.
    let p = fft::FftParams {
        m: if smoke { 10 } else { 14 },
        nprocs: if smoke { 16 } else { 32 },
        verify: false,
    };
    fft::fft(ctx, &p).checksum.to_bits()
}

/// RADIX of sections 6 and 7.
fn lever_radix(ctx: &M4Ctx, smoke: bool) -> u64 {
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

/// 6. Release-time diff batching (a GCS-style traffic reduction in the
///    spirit of paper §2.2), off vs on, each point run with the event bus
///    off and then on for its critical-path blame.
fn batching(w: &mut Writer, smoke: bool) {
    let procs = if smoke { 16 } else { 32 };
    println!("6) release-time diff batching, off vs on ({procs} procs):");
    println!(
        "   {:<6} {:<8} {:>15} {:>12} {:>14} {:>11}",
        "kernel", "point", "sim time", "parallel", "remote_fetches", "diffs_sent"
    );
    w.key("batching").arr();
    let lever_fft = lever_fft as fn(&M4Ctx, bool) -> u64;
    for (name, body) in [("FFT", lever_fft), ("RADIX", lever_radix)] {
        let run = |batch: bool, observe: bool| {
            let cfg = CablesConfig {
                svm: SvmConfig {
                    batch_diffs: batch,
                    ..SvmConfig::cables()
                },
                ..CablesConfig::paper()
            };
            let r = cables_bench(cluster_for(procs), Some(cfg), observe, move |ctx| {
                body(ctx, smoke)
            });
            assert!(r.error.is_none(), "{name}: {:?}", r.error);
            r
        };
        let [off, on] = [false, true].map(|batch| run(batch, false));
        for (batch, r) in [(0, &off), (1, &on)] {
            println!(
                "   {:<6} {:<8} {:>15} {:>12} {:>14} {:>11}",
                name,
                format!("batch={batch}"),
                r.total_ns.expect("completed"),
                r.parallel_ns.expect("kernel records its parallel section"),
                r.stats.remote_fetches,
                r.stats.diffs_sent
            );
        }
        assert_eq!(
            on.checksum, off.checksum,
            "{name}: batching changed the result"
        );
        assert_eq!(
            off.stats.diff_batches, 0,
            "{name}: batch-off batched a diff"
        );
        assert!(
            on.stats.diffs_sent <= off.stats.diffs_sent,
            "{name}: diff messages grew ({} -> {})",
            off.stats.diffs_sent,
            on.stats.diffs_sent
        );
        if smoke {
            let (fetch_cap, diff_cap) = smoke_ceilings(name);
            assert!(
                on.stats.remote_fetches <= fetch_cap && on.stats.diffs_sent <= diff_cap,
                "{name}: batch-on traffic above its ceilings: remote_fetches {} (max {fetch_cap}), \
                 diffs_sent {} (max {diff_cap})",
                on.stats.remote_fetches,
                on.stats.diffs_sent
            );
        } else {
            // At smoke sizes a release rarely holds two pages for one home
            // (FFT: 80 diffs either way) and µs-scale window deltas are
            // barrier-straggler noise, so these two hold at full size only.
            assert!(
                on.stats.diffs_sent < off.stats.diffs_sent,
                "{name}: diff messages did not drop ({} -> {})",
                off.stats.diffs_sent,
                on.stats.diffs_sent
            );
            assert!(
                on.parallel_ns <= off.parallel_ns,
                "{name}: parallel section grew ({:?} -> {:?})",
                off.parallel_ns,
                on.parallel_ns
            );
        }

        // Critical-path blame of both points, with the obs-inertness
        // double-run both times; `proto.release` is the time the path
        // spent building and fencing release diffs.
        let [cp_off, cp_on] = [(false, &off), (true, &on)].map(|(batch, plain)| {
            let r = run(batch, true);
            assert_eq!(
                r.total_ns, plain.total_ns,
                "{name}: observability changed the batch={batch} run"
            );
            assert_eq!(r.dropped_events, 0, "{name}: obs overflow (batch={batch})");
            let total_ns = r.total_ns.expect("completed");
            let cp = critpath::analyze(&r.events, total_ns, r.dropped_events)
                .expect("critical-path analysis");
            assert_eq!(
                cp.layer_sum_ns(),
                total_ns,
                "critpath must partition the run"
            );
            cp
        });
        let release_ns = |cp: &critpath::CritPath| {
            cp.by_kind
                .iter()
                .find(|(k, _)| k == "proto.release")
                .map_or(0, |(_, v)| *v)
        };
        // The blame table must show the diff lane shrinking: batching
        // collapses the per-page release fence the path used to wait on.
        if !smoke {
            assert!(
                release_ns(&cp_on) < release_ns(&cp_off),
                "{name}: critpath release-lane blame did not shrink ({} -> {})",
                release_ns(&cp_off),
                release_ns(&cp_on)
            );
        }
        println!(
            "   {name}: diff messages {} -> {} ({:.1}%), parallel section {} -> {}",
            off.stats.diffs_sent,
            on.stats.diffs_sent,
            100.0 * on.stats.diffs_sent as f64 / off.stats.diffs_sent.max(1) as f64,
            fmt_ns(off.parallel_ns.unwrap_or(0)),
            fmt_ns(on.parallel_ns.unwrap_or(0))
        );

        w.obj()
            .field("kernel", name)
            .field("procs", procs)
            .key("grid")
            .arr();
        for (batch, r) in [(false, &off), (true, &on)] {
            let s = &r.stats;
            w.obj()
                .field("batch_diffs", batch)
                .field("sim_time_ns", r.total_ns);
            w.field("parallel_ns", r.parallel_ns);
            w.field("remote_fetches", s.remote_fetches)
                .field("fetch_bytes", s.fetch_bytes);
            w.field("diffs_sent", s.diffs_sent)
                .field("diff_bytes", s.diff_bytes);
            w.field("diff_batches", s.diff_batches);
            w.field("batched_diff_bytes", s.batched_diff_bytes);
            w.field("checksum", r.checksum).end();
        }
        w.end()
            .field("critpath_all_off", &cp_off)
            .field("critpath_all_on", &cp_on)
            .end();
    }
    w.end();
    println!("   -> batching sends no more diff messages and leaves every result bit-identical");
    println!();
}

/// One cell of section 7: simulated time, the window the workload
/// measures under its artifact key (the kernels' parallel section or the
/// service's serving window), the result bits and the traffic counters.
struct Cell {
    sim_ns: u64,
    window: (&'static str, u64),
    checksum: u64,
    stats: NodeStats,
}

impl Cell {
    fn kernel(r: RunOutcome) -> Cell {
        assert!(r.error.is_none(), "kernel run: {:?}", r.error);
        Cell {
            sim_ns: r.total_ns.expect("completed"),
            window: ("parallel_ns", r.parallel_ns.expect("parallel section")),
            checksum: r.checksum.expect("kernel result"),
            stats: r.stats,
        }
    }
}

impl ToJson for Cell {
    fn write_json(&self, w: &mut Writer) {
        let s = &self.stats;
        w.obj()
            .field("sim_time_ns", self.sim_ns)
            .field(self.window.0, self.window.1);
        w.field("remote_fetches", s.remote_fetches);
        w.field("diffs_sent", s.diffs_sent)
            .field("fetch_bytes", s.fetch_bytes);
        w.field("diff_bytes", s.diff_bytes)
            .field("migrations", s.migrations);
        w.field("checksum", self.checksum).end();
    }
}

/// Both cells model a warm long-running deployment: the node set is
/// pre-attached, so the off cell's round-robin scatters consecutively
/// created threads across nodes (the misplacement affinity exists to
/// fix) instead of accidentally block-placing them via lazy attach.
fn affinity_cfg(on: bool, nodes: usize) -> CablesConfig {
    CablesConfig {
        affinity_placement: on,
        pre_attach: nodes,
        ..CablesConfig::paper()
    }
}

fn affinity_ocean(ctx: &M4Ctx, smoke: bool) -> u64 {
    // n = 126 in both modes: the grid must span several 64 KB chunks
    // (each covering many ranks' row blocks) for placement to have
    // anything to grip; smoke only trims sweeps and processors.
    let p = if smoke {
        ocean::OceanParams::bench(126, 2, 16)
    } else {
        ocean::OceanParams::bench(126, 8, 32)
    };
    ocean::ocean(ctx, &p).checksum.to_bits()
}

/// One service cell: the zipfian open-loop schedule on 8 processors.
fn service_cell(smoke: bool, on: bool) -> Cell {
    // A rate the 4-node deployment absorbs without tripping the
    // enqueue dead-shard fallback, hot-key zipfian skew. The off and on
    // cells differ in timing, so their digests are compared on the
    // conflict-free form of the schedule (needs keys >= requests), where
    // parity is implied by correctness.
    let procs = 8;
    let sched = if smoke {
        schedule(&TrafficConfig::zipfian(7, 150, 256, 1_500_000))
    } else {
        schedule(&TrafficConfig::zipfian(7, 600, 1024, 1_500_000))
    }
    .conflict_free();
    let cluster = Cluster::build(cluster_for(procs));
    let rt = CablesRt::new(Arc::clone(&cluster), affinity_cfg(on, procs.div_ceil(2)));
    let out = Arc::new(std::sync::Mutex::new(None));
    let o2 = Arc::clone(&out);
    let end = rt
        .run(move |pth| {
            *o2.lock().unwrap() = Some(run_service(pth, &sched, ServiceParams::test()));
            0
        })
        .expect("service run");
    let outcome = out.lock().unwrap().take().expect("service outcome");
    assert_eq!(
        outcome.direct_served, 0,
        "service cell used a crash fallback"
    );
    Cell {
        sim_ns: end.as_nanos(),
        window: ("serve_ns", outcome.serve_ns),
        checksum: outcome.digest,
        stats: rt.svm().total_stats(),
    }
}

/// 7. Sharing-aware thread placement (an extension: the paper places
///    threads round-robin and ships migration mechanisms, no policy),
///    affinity off vs on over a pre-attached node set.
fn affinity(w: &mut Writer, smoke: bool) {
    println!("7) affinity thread placement, off vs on:");
    println!(
        "   {:<14} {:>6} {:>13} {:>13} {:>13} {:>11} {:>11}",
        "workload", "cell", "sim time", "window", "rem fetches", "diffs", "msgs"
    );
    let procs: usize = if smoke { 16 } else { 32 };
    let kernel = |on: bool, body: fn(&M4Ctx, bool) -> u64| {
        let cfg = affinity_cfg(on, procs.div_ceil(2));
        Cell::kernel(cables_bench(
            cluster_for(procs),
            Some(cfg),
            false,
            move |ctx| body(ctx, smoke),
        ))
    };
    let (svc_off, svc_on) = (service_cell(smoke, false), service_cell(smoke, true));
    let cells = [
        (
            "OCEAN",
            kernel(false, affinity_ocean),
            kernel(true, affinity_ocean),
        ),
        (
            "RADIX",
            kernel(false, lever_radix),
            kernel(true, lever_radix),
        ),
        ("service_zipf", svc_off, svc_on),
    ];
    w.key("affinity").arr();
    for (name, off, on) in &cells {
        for (cell_name, c) in [("off", off), ("on", on)] {
            println!(
                "   {:<14} {:>6} {:>13} {:>13} {:>13} {:>11} {:>11}",
                name,
                cell_name,
                c.sim_ns,
                c.window.1,
                c.stats.remote_fetches,
                c.stats.diffs_sent,
                c.stats.remote_fetches + c.stats.diffs_sent
            );
            assert_eq!(c.stats.migrations, 0, "{name} {cell_name}: migrated");
        }
        assert_eq!(
            off.checksum, on.checksum,
            "{name}: affinity changed the application result"
        );
        let off_msgs = off.stats.remote_fetches + off.stats.diffs_sent;
        let on_msgs = on.stats.remote_fetches + on.stats.diffs_sent;
        println!(
            "   {name}: fetch+diff messages {off_msgs} -> {on_msgs}, window {} -> {}",
            fmt_ns(off.window.1),
            fmt_ns(on.window.1)
        );
        if *name == "OCEAN" {
            assert!(
                on.window.1 < off.window.1 && on_msgs < off_msgs,
                "OCEAN: affinity did not shorten the window and cut fetch+diff messages"
            );
        }
        w.obj()
            .field("workload", *name)
            .field("off", off)
            .field("on", on);
        w.field("identical_results", true).end();
    }
    w.end();
    println!();
}
