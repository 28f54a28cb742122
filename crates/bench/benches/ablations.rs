//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. home-binding granularity: 64 KB (WindowsNT) vs page-granular OS;
//! 2. the base system's single-writer write-through optimization;
//! 3. double virtual mapping vs per-run registration (NIC pressure);
//! 4. barrier construction: native extension vs mutex+cond, by size;
//! 5. home migration (the paper's mechanism, one `migrate_home` call) on
//!    a producer-migrates workload.

use std::sync::Arc;

use apps::splash::{lu, ocean, radix, volrend};
use apps::{M4Ctx, M4Mode, M4System};
use cables::CablesConfig;
use cables_bench::{artifact, cluster_for, fmt_ns, header, run_app, smoke_mode, AppId};
use obs::json::{Fixed, Writer};
use svm::Cluster;

/// Runs an app body under a CableS config and returns
/// (parallel time ns, misplaced %).
fn run_cables_with<F>(
    cfg: CablesConfig,
    page_granular_os: bool,
    procs: usize,
    body: F,
) -> (u64, f64)
where
    F: FnOnce(&M4Ctx) + Send + 'static,
{
    let mut cc = cluster_for(procs);
    if page_granular_os {
        cc.os.map_chunk_pages = 1;
    }
    let cluster = Cluster::build(cc);
    let sys = M4System::cables_with(cluster, cfg);
    let sys2 = Arc::clone(&sys);
    sys.run(body).expect("ablation run");
    (
        sys2.parallel_ns().unwrap_or(0),
        sys2.svm().placement_report().misplaced_pct(),
    )
}

fn app_body(app: AppId, procs: usize) -> Box<dyn FnOnce(&M4Ctx) + Send> {
    match app {
        AppId::Radix => {
            let p = radix::RadixParams {
                keys: 16_384,
                digit_bits: 8,
                max_key: 1 << 16,
                nprocs: procs,
            };
            Box::new(move |ctx| {
                radix::radix(ctx, &p);
            })
        }
        AppId::Volrend => {
            let p = volrend::VolrendParams {
                size: 24,
                image: 48,
                tile: 8,
                nprocs: procs,
            };
            Box::new(move |ctx| {
                volrend::volrend(ctx, &p);
            })
        }
        _ => {
            let p = lu::LuParams {
                n: 128,
                block: 16,
                nprocs: procs,
                verify: false,
            };
            Box::new(move |ctx| {
                lu::lu(ctx, &p);
            })
        }
    }
}

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
        let (pg_ns, pg_mis) = run_cables_with(pg_cfg, true, procs, app_body(app, procs));
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
    println!("   -> page-granular binding removes all misplacement (the paper's");
    println!("      NT limitation is the sole source of CableS's parallel overhead)");
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
        let (ns, _) = run_cables_with(cfg, false, procs, move |ctx| {
            ocean::ocean(ctx, &p);
        });
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
