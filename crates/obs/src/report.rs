//! The "paper-table reporter": renders Table-3-style latency rows and
//! Fig-5/6-style per-node time decompositions from a [`MetricsSnapshot`].

use std::fmt::Write;

use crate::event::Layer;
use crate::metrics::MetricsSnapshot;

fn fmt_ns(ns: u64) -> String {
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

/// Renders the latency-breakdown table (one row per event kind: count,
/// avg/min/max simulated latency — the shape of the paper's Table 3).
pub fn latency_table(s: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "event", "count", "avg", "min", "max"
    );
    let _ = writeln!(out, "{}", "-".repeat(66));
    for k in &s.kinds {
        let avg = if k.count > 0 { k.total_ns / k.count } else { 0 };
        let _ = writeln!(
            out,
            "{:<22} {:>10} {:>10} {:>10} {:>10}",
            k.name,
            k.count,
            fmt_ns(avg),
            fmt_ns(k.min_ns),
            fmt_ns(k.max_ns)
        );
    }
    if s.dropped_events > 0 {
        let _ = writeln!(out, "(event buffer dropped {} records)", s.dropped_events);
    }
    out
}

/// Renders the per-node per-layer time decomposition (the shape of the
/// paper's Fig. 5/6 phase breakdowns). Layer times are inclusive of
/// nested lower-layer work.
pub fn layer_breakdown(s: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<8}", "node");
    for l in Layer::ALL {
        let _ = write!(out, " {:>12}", l.name());
    }
    out.push('\n');
    let _ = writeln!(out, "{}", "-".repeat(8 + 13 * Layer::COUNT));
    for n in &s.nodes {
        let _ = write!(out, "n{:<7}", n.node);
        for l in Layer::ALL {
            let _ = write!(out, " {:>12}", fmt_ns(n.layer_ns[l.index()]));
        }
        out.push('\n');
    }
    let _ = write!(out, "{:<8}", "total");
    for l in Layer::ALL {
        let _ = write!(out, " {:>12}", fmt_ns(s.layer_total_ns(l)));
    }
    out.push('\n');
    out
}

/// Renders the busiest pages ("why did this page bounce?"), most active
/// first, at most `top` rows.
pub fn hot_pages(s: &MetricsSnapshot, top: usize) -> String {
    let mut pages = s.pages.clone();
    pages.sort_by_key(|p| {
        (
            std::cmp::Reverse(p.faults + p.fetches + p.diffs + p.invals + p.migrates),
            p.page,
        )
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>9}",
        "page", "faults", "fetches", "diffs", "invals", "migrates", "sharers", "handoffs"
    );
    let _ = writeln!(out, "{}", "-".repeat(75));
    for p in pages.iter().take(top) {
        let _ = writeln!(
            out,
            "p{:<9} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>9}",
            p.page,
            p.faults,
            p.fetches,
            p.diffs,
            p.invals,
            p.migrates,
            p.sharers(),
            p.handoffs
        );
    }
    out
}

/// Renders interpolated latency percentiles per layer (from the log2
/// histograms; estimates, exact to the bucket).
pub fn percentile_table(s: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "layer", "events", "p50", "p95", "p99"
    );
    let _ = writeln!(out, "{}", "-".repeat(52));
    for l in Layer::ALL {
        let h = &s.hists[l.index()];
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>10} {:>10}",
            l.name(),
            h.count(),
            fmt_ns(h.percentile(50.0)),
            fmt_ns(h.percentile(95.0)),
            fmt_ns(h.percentile(99.0))
        );
    }
    out
}

/// Renders the page-sharing table (folds the snapshot + events through
/// [`crate::sharing::analyze`]).
pub fn sharing_table(title: &str, s: &MetricsSnapshot, events: &[crate::EventRecord]) -> String {
    crate::sharing::analyze(s, events).render(title, 10)
}

/// Renders the named gauges (sync high-water marks, `engine.*` scheduling
/// telemetry published by `SvmSystem::publish_engine_telemetry`). Empty
/// string when the snapshot carries no gauges.
pub fn gauge_table(s: &MetricsSnapshot) -> String {
    if s.gauges.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "{:<32} {:>14}", "gauge", "value");
    let _ = writeln!(out, "{}", "-".repeat(47));
    for (name, v) in &s.gauges {
        let _ = writeln!(out, "{:<32} {:>14}", name, v);
    }
    out
}

/// Renders windowed series rows (one line per [`crate::series`] frame):
/// protocol counter deltas, the dominant stall buckets, and the window's
/// SAN latency percentiles. The terminal shape of `cablestat series` and
/// `cablestat tail`.
pub fn window_table(rows: &[crate::series::WindowRow]) -> String {
    use crate::stall::Bucket;
    let mut out = String::new();
    let any_svc = rows.iter().any(|r| r.svc > 0);
    // Migration column only when a migration policy actually fired, so
    // policy-off tables render exactly as before.
    let any_migr = rows.iter().any(|r| r.migrates > 0);
    let _ = writeln!(
        out,
        "{:<26} {:>7} {:>6} {:>6} {:>6} {:>6}{}  {:<34} {:>8} {:>8} {:>8}{}",
        "window",
        "events",
        "flt",
        "ftch",
        "diff",
        "inv",
        if any_migr {
            format!(" {:>5}", "migr")
        } else {
            String::new()
        },
        "stall mix",
        "san p50",
        "p95",
        "p99",
        if any_svc {
            format!(" {:>6} {:>8} {:>8} {:>8}", "svc", "svc p50", "p95", "p99")
        } else {
            String::new()
        }
    );
    let width = 126 + if any_svc { 34 } else { 0 } + if any_migr { 6 } else { 0 };
    let _ = writeln!(out, "{}", "-".repeat(width));
    for r in rows {
        let total: u64 = r.stall_ns.iter().sum();
        let mut mix: Vec<(u64, Bucket)> = Bucket::ALL
            .iter()
            .map(|&b| (r.stall_ns[b as usize], b))
            .filter(|&(v, _)| v > 0)
            .collect();
        mix.sort_by_key(|&(v, b)| (std::cmp::Reverse(v), b as usize));
        let mix_s = if total == 0 {
            "-".to_string()
        } else {
            mix.iter()
                .take(3)
                .map(|&(v, b)| format!("{} {:.0}%", b.name(), 100.0 * v as f64 / total as f64))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let _ = writeln!(
            out,
            "{:<26} {:>7} {:>6} {:>6} {:>6} {:>6}{}  {:<34} {:>8} {:>8} {:>8}{}",
            format!("[{}..{})", fmt_ns(r.start_ns), fmt_ns(r.end_ns)),
            r.events,
            r.faults,
            r.fetches,
            r.diffs,
            r.invals,
            if any_migr {
                format!(" {:>5}", r.migrates)
            } else {
                String::new()
            },
            mix_s,
            fmt_ns(r.san_p[0]),
            fmt_ns(r.san_p[1]),
            fmt_ns(r.san_p[2]),
            if any_svc {
                format!(
                    " {:>6} {:>8} {:>8} {:>8}",
                    r.svc,
                    fmt_ns(r.svc_p[0]),
                    fmt_ns(r.svc_p[1]),
                    fmt_ns(r.svc_p[2])
                )
            } else {
                String::new()
            }
        );
    }
    out
}

/// The full report: latency table + percentiles + layer breakdown + hot
/// pages + gauges (engine telemetry and sync high-water marks).
pub fn full_report(title: &str, s: &MetricsSnapshot) -> String {
    let mut rep = format!(
        "=== {title}: latency breakdown (Table-3 style) ===\n{}\n=== {title}: latency percentiles (interpolated, per layer) ===\n{}\n=== {title}: per-node layer decomposition (Fig-5/6 style) ===\n{}\n=== {title}: hottest pages ===\n{}",
        latency_table(s),
        percentile_table(s),
        layer_breakdown(s),
        hot_pages(s, 10)
    );
    let gauges = gauge_table(s);
    if !gauges.is_empty() {
        rep.push_str(&format!(
            "\n=== {title}: gauges (engine + sync) ===\n{gauges}"
        ));
    }
    rep
}

/// [`full_report`] plus the page-sharing ranking (which needs the event
/// buffer for diff-byte volumes and fetch-wait attribution).
pub fn full_report_with_events(
    title: &str,
    s: &MetricsSnapshot,
    events: &[crate::EventRecord],
) -> String {
    let mut rep = full_report(title, s);
    rep.push('\n');
    rep.push_str(&sharing_table(title, s, events));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::metrics::Registry;

    #[test]
    fn report_renders_all_sections() {
        let mut r = Registry::new();
        r.aggregate(Layer::San, 0, 7_800, &Event::SanSend { to: 1, bytes: 4 });
        r.aggregate(
            Layer::Proto,
            1,
            0,
            &Event::Fault {
                page: 3,
                write: false,
            },
        );
        r.aggregate(Layer::Sync, 1, 40_000, &Event::LockWait { id: 1 });
        let s = r.snapshot(2);
        let rep = full_report("TEST", &s);
        assert!(rep.contains("san.send"));
        assert!(rep.contains("proto.fault"));
        assert!(rep.contains("sync.lock"));
        assert!(rep.contains("dropped 2"));
        assert!(rep.contains("p3"));
        assert!(rep.contains("layer decomposition"));
        assert!(rep.contains("latency percentiles"));
        assert!(rep.contains("sharers"));
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        use crate::metrics::Histogram;
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.record(1_000); // bucket 9: [512, 1024)
        }
        let p50 = h.percentile(50.0);
        assert!((512..1024).contains(&p50), "p50={p50}");
        assert!(h.percentile(99.0) >= p50);
        assert_eq!(Histogram::default().percentile(50.0), 0);
    }
}
