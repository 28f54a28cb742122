//! Figure 6 — percentage of misplaced pages under CableS for 4, 8, 16
//! and 32 processors.
//!
//! A page is *misplaced* when its CableS home (bound at WindowsNT's 64 KB
//! mapping granularity) differs from the page-granular first-touch home
//! the original system would have chosen.

use apps::M4Mode;
use cables_bench::{artifact, header, run_app, smoke_mode, AppId};
use obs::json::Fixed;

fn main() {
    header(
        "Figure 6: misplaced pages under CableS",
        "paper Fig. 6 (§3.4)",
    );
    // `--test` smoke mode: two cheap apps at one processor count (CI
    // compile-and-run check, like criterion's --test).
    let smoke = smoke_mode();
    let procs_list: &[usize] = if smoke { &[4] } else { &[4, 8, 16, 32] };
    let apps: &[AppId] = if smoke {
        &[AppId::Lu, AppId::Radix]
    } else {
        &AppId::ALL
    };
    let mut head = format!("{:<15}", "application");
    for p in procs_list {
        head.push_str(&format!(" {p:>8}"));
    }
    println!("{head}");
    println!("{}", "-".repeat(16 + 9 * procs_list.len()));
    // Per app: (name, [(procs, placement report)]).
    let mut results = Vec::new();
    for &app in apps {
        let mut row = format!("{:<15}", app.name());
        let mut points = Vec::new();
        for &procs in procs_list {
            let out = run_app(M4Mode::Cables, app, procs, None);
            assert!(out.error.is_none(), "{}: {:?}", app.name(), out.error);
            let pct = out.placement.misplaced_pct();
            row.push_str(&format!(" {:>8}", format!("{pct:.1}%")));
            points.push((procs, out.placement));
        }
        println!("{row}");
        results.push((app.name(), points));
    }
    println!();
    println!("paper shape: misplacement grows with processor count (finer");
    println!("partitions fall inside single 64 KB chunks); the base system's");
    println!("page-granular first touch misplaces nothing by construction.");
    if smoke {
        println!("smoke mode: BENCH_fig6.json not rewritten");
        return;
    }
    artifact("BENCH_fig6.json", "fig6", |w| {
        w.key("apps").arr();
        for (name, points) in &results {
            w.obj().field("app", *name).key("points").arr();
            for (procs, p) in points {
                w.obj()
                    .field("procs", procs)
                    .field("misplaced_pct", Fixed(p.misplaced_pct(), 3));
                w.field("misplaced_pages", p.misplaced_pages);
                w.field("touched_pages", p.touched_pages).end();
            }
            w.end().end();
        }
        w.end();
    });
}
