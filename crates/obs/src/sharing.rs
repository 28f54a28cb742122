//! Page-sharing and contention analyzer.
//!
//! [`analyze`] folds the per-page metric registry and the causal edges
//! into a sharing report: pages ranked by how many distinct nodes touch
//! them, how much fetch/diff traffic they generate, and how often they
//! ping-pong between nodes (consecutive faults from different nodes — the
//! false-sharing smell the paper's §6 layout discussion is about).
//!
//! Counts and sharer masks come from the registry's per-page metrics
//! (authoritative even when event *records* were dropped on buffer
//! overflow, since metrics aggregate everything); only what the registry
//! does not keep — diffed bytes and fetch waits — is summed from the
//! events.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{EdgeKind, Event, EventRecord};
use crate::json::{ToJson, Writer};
use crate::metrics::MetricsSnapshot;

/// Sharing profile of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSharing {
    /// Page index.
    pub page: u64,
    /// Distinct nodes that faulted on the page (capped at 64).
    pub sharers: u32,
    /// Read + write faults.
    pub faults: u64,
    /// Fetches from home.
    pub fetches: u64,
    /// Diffs sent home.
    pub diffs: u64,
    /// Total diffed bytes shipped home.
    pub diff_bytes: u64,
    /// Acquire-time invalidations.
    pub invals: u64,
    /// Ping-pong handoffs (consecutive faults from different nodes).
    pub handoffs: u64,
    /// Simulated time threads spent waiting on fetches of this page
    /// (summed over the page-fetch causal edges).
    pub fetch_wait_ns: u64,
}

impl PageSharing {
    /// Traffic score used for ranking (fetches + diffs + invals).
    pub fn traffic(&self) -> u64 {
        self.fetches + self.diffs + self.invals
    }
}

/// The sharing report: pages ranked most-shared first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingReport {
    /// Per-page rows, sorted by (sharers desc, traffic desc, page asc).
    pub pages: Vec<PageSharing>,
    /// Total diffed bytes across all pages.
    pub total_diff_bytes: u64,
    /// Total fetch wait time across all pages, ns.
    pub total_fetch_wait_ns: u64,
}

fn rank(pages: &mut Vec<PageSharing>) {
    pages.sort_by_key(|p| {
        (
            std::cmp::Reverse(p.sharers),
            std::cmp::Reverse(p.traffic()),
            p.page,
        )
    });
}

/// Builds the sharing report from a metric snapshot plus the event buffer:
/// counts and sharer masks from the snapshot (whose aggregation never
/// drops), diffed bytes and page-fetch waits summed from the events.
pub fn analyze(snapshot: &MetricsSnapshot, events: &[EventRecord]) -> SharingReport {
    // page -> (diff bytes, fetch wait ns)
    let mut from_events: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for rec in events {
        match rec.event {
            Event::Diff { page, bytes } => from_events.entry(page).or_default().0 += bytes,
            Event::Edge {
                kind: EdgeKind::PageFetch,
                src_ns,
                obj,
                ..
            } => {
                from_events.entry(obj).or_default().1 += rec.at.as_nanos().saturating_sub(src_ns);
            }
            _ => {}
        }
    }
    let mut pages: Vec<PageSharing> = snapshot
        .pages
        .iter()
        .map(|p| {
            let (diff_bytes, fetch_wait_ns) = from_events.get(&p.page).copied().unwrap_or_default();
            PageSharing {
                page: p.page,
                sharers: p.sharers(),
                faults: p.faults,
                fetches: p.fetches,
                diffs: p.diffs,
                diff_bytes,
                invals: p.invals,
                handoffs: p.handoffs,
                fetch_wait_ns,
            }
        })
        .collect();
    rank(&mut pages);
    let total_diff_bytes = pages.iter().map(|p| p.diff_bytes).sum();
    let total_fetch_wait_ns = pages.iter().map(|p| p.fetch_wait_ns).sum();
    SharingReport {
        pages,
        total_diff_bytes,
        total_fetch_wait_ns,
    }
}

impl SharingReport {
    /// A copy keeping only the `top` most-shared pages; the totals still
    /// cover every page (the `BENCH_obs_*.json` embedding — full page
    /// lists belong in the snapshot, not the ranking).
    pub fn top(&self, top: usize) -> SharingReport {
        SharingReport {
            pages: self.pages.iter().take(top).copied().collect(),
            total_diff_bytes: self.total_diff_bytes,
            total_fetch_wait_ns: self.total_fetch_wait_ns,
        }
    }

    /// Renders the sharing table, at most `top` rows.
    pub fn render(&self, title: &str, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {title}: page sharing (most shared first) ===");
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9} {:>12}",
            "page", "sharers", "faults", "fetches", "diffs", "diff_B", "handoffs", "fetch_wait"
        );
        let _ = writeln!(out, "{}", "-".repeat(80));
        for p in self.pages.iter().take(top) {
            let _ = writeln!(
                out,
                "p{:<9} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9} {:>10}ns",
                p.page,
                p.sharers,
                p.faults,
                p.fetches,
                p.diffs,
                p.diff_bytes,
                p.handoffs,
                p.fetch_wait_ns
            );
        }
        let _ = writeln!(
            out,
            "total: {} diffed bytes, {}ns fetch wait across {} pages",
            self.total_diff_bytes,
            self.total_fetch_wait_ns,
            self.pages.len()
        );
        out
    }
}

impl ToJson for SharingReport {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("total_diff_bytes", self.total_diff_bytes);
        w.field("total_fetch_wait_ns", self.total_fetch_wait_ns)
            .key("pages")
            .arr();
        for p in &self.pages {
            w.obj()
                .field("page", p.page)
                .field("sharers", p.sharers)
                .field("faults", p.faults);
            w.field("fetches", p.fetches).field("diffs", p.diffs);
            w.field("diff_bytes", p.diff_bytes)
                .field("invals", p.invals);
            w.field("handoffs", p.handoffs)
                .field("fetch_wait_ns", p.fetch_wait_ns)
                .end();
        }
        w.end().end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Layer};
    use crate::ObsSink;
    use sim::{NodeId, SimTime};

    fn fault(sink: &ObsSink, at: u64, node: u32, page: u64) {
        sink.instant(
            Layer::Proto,
            NodeId(node),
            1,
            SimTime::from_nanos(at),
            Event::Fault { page, write: true },
        );
    }

    #[test]
    fn sharing_ranks_by_sharers_then_traffic() {
        let sink = ObsSink::new();
        sink.set_enabled(true);
        // Page 5 ping-pongs between nodes 0 and 1; page 8 stays on node 0.
        fault(&sink, 10, 0, 5);
        fault(&sink, 20, 1, 5);
        fault(&sink, 30, 0, 5);
        fault(&sink, 40, 0, 8);
        sink.instant(
            Layer::Proto,
            NodeId(1),
            1,
            SimTime::from_nanos(25),
            Event::Diff {
                page: 5,
                bytes: 128,
            },
        );
        sink.edge(
            EdgeKind::PageFetch,
            NodeId(0),
            1,
            SimTime::from_nanos(10),
            NodeId(0),
            1,
            SimTime::from_nanos(32),
            5,
        );
        let rep = analyze(&sink.snapshot(), &sink.events());
        assert_eq!(rep.pages[0].page, 5);
        assert_eq!(rep.pages[0].sharers, 2);
        assert_eq!(rep.pages[0].handoffs, 2);
        assert_eq!(rep.pages[0].diff_bytes, 128);
        assert_eq!(rep.pages[0].fetch_wait_ns, 22);
        assert_eq!(rep.pages[1].page, 8);
        assert_eq!(rep.pages[1].sharers, 1);
        assert_eq!(rep.total_diff_bytes, 128);
        let json = crate::json::pretty(&rep);
        crate::json::validate(&json).expect("sharing JSON parses");
        assert!(rep.render("T", 10).contains("p5"));
        assert_eq!(rep.top(1).pages, rep.pages[..1].to_vec());
    }
}
