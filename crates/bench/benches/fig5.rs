//! Figure 5 — SPLASH-2 application execution times on the original (M4)
//! system vs CableS (M4 on pthreads) for 1, 4, 8, 16 and 32 processors.
//!
//! Times are the parallel section (the paper shows CableS's remaining
//! overhead concentrated in initialization/termination; the parallel
//! sections differ only through data placement). Problem sizes are scaled
//! down — shapes, ratios and the OCEAN failure mode are the reproduction
//! target.

use apps::M4Mode;
use cables_bench::{artifact, fmt_ns, header, run_app, smoke_mode, AppId};

/// NIC region limit applied to the OCEAN runs, scaled to the scaled
/// problem size the same way the paper's real NIC limit related to its
/// full-size OCEAN: generous for small processor counts, exceeded by the
/// base system's per-run registrations at 32 processors.
const OCEAN_NIC_LIMIT: u64 = 200;

fn main() {
    // The base-system OCEAN run at 32 processors is EXPECTED to die on
    // the NIC region limit (that is the result); silence its panic print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.to_string();
        if msg.contains("registration failed (paper") {
            return;
        }
        default_hook(info);
    }));
    header(
        "Figure 5: SPLASH-2 M4 vs M4-on-pthreads execution times",
        "paper Fig. 5 (§3.4)",
    );
    // `--test` smoke mode: two cheap apps at two processor counts, same
    // code paths (CI compile-and-run check, like criterion's --test).
    let smoke = smoke_mode();
    let procs_list: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 8, 16, 32] };
    let apps: &[AppId] = if smoke {
        &[AppId::Lu, AppId::Radix]
    } else {
        &AppId::ALL
    };

    // Per app: (name, [(mode, procs, parallel ns or None when failed)]).
    let mut results = Vec::new();
    for &app in apps {
        println!("--- {} [{}] ---", app.name(), app.scale_note());
        let mut head = format!("{:<10}", "system");
        for p in procs_list {
            head.push_str(&format!(" {p:>12}"));
        }
        println!("{head}");
        let mut runs = Vec::new();
        for mode in [M4Mode::Base, M4Mode::Cables] {
            let mut row = format!("{:<10}", format!("{mode:?}"));
            for &procs in procs_list {
                let limit = (app == AppId::Ocean).then_some(OCEAN_NIC_LIMIT);
                let out = run_app(mode, app, procs, limit);
                let ns = match (out.error, out.parallel_ns) {
                    (None, Some(ns)) => Some(ns),
                    (err, _) => {
                        if let Some(e) = err {
                            let first = e.lines().next().unwrap_or("");
                            println!("    [{mode:?} x{procs}] {first}");
                        }
                        None
                    }
                };
                let cell = ns.map_or("FAILED".to_string(), fmt_ns);
                row.push_str(&format!(" {cell:>12}"));
                runs.push((mode, procs, ns));
            }
            println!("{row}");
        }
        results.push((app.name(), runs));
        println!();
    }
    println!("paper shape targets:");
    println!("  - FFT/LU/WATER/RAYTRACE: CableS within ~25% of base at 32 procs");
    println!("  - OCEAN: base faster (write-through optimization) but FAILS at 32");
    println!("    procs on registration limits; CableS completes");
    println!("  - RADIX/VOLREND: CableS degraded by 64 KB-granularity placement");
    if smoke {
        println!("smoke mode: BENCH_fig5.json not rewritten");
        return;
    }
    artifact("BENCH_fig5.json", "fig5", |w| {
        w.key("apps").arr();
        for (name, runs) in &results {
            w.obj().field("app", *name).key("runs").arr();
            for &(mode, procs, ns) in runs {
                w.obj()
                    .field("mode", format!("{mode:?}"))
                    .field("procs", procs);
                w.field("parallel_ns", ns)
                    .field("failed", ns.is_none())
                    .end();
            }
            w.end().end();
        }
        w.end();
    });
}
