//! Page-sharing and contention analyzer.
//!
//! [`analyze`] folds the per-page metric registry and the causal edges
//! into a sharing report: pages ranked by how many distinct nodes touch
//! them, how much fetch/diff traffic they generate, and how often they
//! ping-pong between nodes (consecutive faults from different nodes — the
//! false-sharing smell the paper's §6 layout discussion is about).
//!
//! The analysis is incremental: an [`Accumulator`] ingests event records
//! one at a time ([`Accumulator::feed`]) and can rank the hottest pages
//! at any point ([`Accumulator::top`]) — the shape a live policy loop
//! needs. [`analyze`] is the post-hoc wrapper: it folds the whole event
//! buffer through an accumulator and then overlays the registry's page
//! counts (authoritative even when event *records* were dropped on
//! buffer overflow, since metrics aggregate everything).

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

/// Incrementally maintained sharing profile — the same taxonomy
/// [`analyze`] reports, built one event at a time so a policy loop (or a
/// live viewer) can rank the hottest pages mid-run without replaying the
/// buffer.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    rows: BTreeMap<u64, AccRow>,
    /// Last node to fault on each page (ping-pong handoff detection,
    /// mirroring the registry's `page_last`).
    last_fault: BTreeMap<u64, u32>,
}

#[derive(Debug, Clone, Copy, Default)]
struct AccRow {
    nodes_mask: u64,
    faults: u64,
    fetches: u64,
    diffs: u64,
    diff_bytes: u64,
    invals: u64,
    handoffs: u64,
    fetch_wait_ns: u64,
}

impl AccRow {
    fn to_sharing(self, page: u64) -> PageSharing {
        PageSharing {
            page,
            sharers: self.nodes_mask.count_ones(),
            faults: self.faults,
            fetches: self.fetches,
            diffs: self.diffs,
            diff_bytes: self.diff_bytes,
            invals: self.invals,
            handoffs: self.handoffs,
            fetch_wait_ns: self.fetch_wait_ns,
        }
    }
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

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Accumulator::default()
    }

    /// Ingests one event record. Faults update sharer masks and handoff
    /// streaks; fetch/diff/invalidate events update traffic counts; diff
    /// events add byte volume; page-fetch causal edges add fetch wait.
    /// All other events are ignored.
    pub fn feed(&mut self, rec: &EventRecord) {
        match rec.event {
            Event::Fault { page, .. } => {
                let row = self.rows.entry(page).or_default();
                row.faults += 1;
                row.nodes_mask |= 1 << rec.node.0.min(63);
                match self.last_fault.insert(page, rec.node.0) {
                    Some(prev) if prev != rec.node.0 => {
                        self.rows.entry(page).or_default().handoffs += 1;
                    }
                    _ => {}
                }
            }
            Event::Fetch { page, .. } => self.rows.entry(page).or_default().fetches += 1,
            Event::Diff { page, bytes } => {
                let row = self.rows.entry(page).or_default();
                row.diffs += 1;
                row.diff_bytes += bytes;
            }
            Event::Invalidate { page } => self.rows.entry(page).or_default().invals += 1,
            Event::Edge {
                kind: EdgeKind::PageFetch,
                src_ns,
                obj,
                ..
            } => {
                self.rows.entry(obj).or_default().fetch_wait_ns +=
                    rec.at.as_nanos().saturating_sub(src_ns);
            }
            _ => {}
        }
    }

    /// Number of pages with any recorded activity so far.
    pub fn pages_seen(&self) -> usize {
        self.rows.len()
    }

    /// The `k` hottest pages right now, ranked like the report (sharers
    /// desc, traffic desc, page asc).
    pub fn top(&self, k: usize) -> Vec<PageSharing> {
        let mut pages: Vec<PageSharing> =
            self.rows.iter().map(|(&p, r)| r.to_sharing(p)).collect();
        rank(&mut pages);
        pages.truncate(k);
        pages
    }

    /// The full report from the accumulated events alone (exact when no
    /// event records were dropped; [`analyze`] overlays registry counts
    /// to stay exact even under drop).
    pub fn report(&self) -> SharingReport {
        let mut pages: Vec<PageSharing> =
            self.rows.iter().map(|(&p, r)| r.to_sharing(p)).collect();
        rank(&mut pages);
        let total_diff_bytes = pages.iter().map(|p| p.diff_bytes).sum();
        let total_fetch_wait_ns = pages.iter().map(|p| p.fetch_wait_ns).sum();
        SharingReport {
            pages,
            total_diff_bytes,
            total_fetch_wait_ns,
        }
    }
}

/// Builds the sharing report from a metric snapshot plus the event buffer:
/// a fold of the events through an [`Accumulator`], with counts and
/// sharer masks taken from the snapshot (whose aggregation never drops)
/// and byte volumes / fetch waits from the accumulated events.
pub fn analyze(snapshot: &MetricsSnapshot, events: &[EventRecord]) -> SharingReport {
    let mut acc = Accumulator::new();
    for e in events {
        acc.feed(e);
    }
    let mut pages: Vec<PageSharing> = snapshot
        .pages
        .iter()
        .map(|p| {
            let row = acc.rows.get(&p.page).copied().unwrap_or_default();
            PageSharing {
                page: p.page,
                sharers: p.sharers(),
                faults: p.faults,
                fetches: p.fetches,
                diffs: p.diffs,
                diff_bytes: row.diff_bytes,
                invals: p.invals,
                handoffs: p.handoffs,
                fetch_wait_ns: row.fetch_wait_ns,
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
        w.field("total_fetch_wait_ns", self.total_fetch_wait_ns).key("pages").arr();
        for p in &self.pages {
            w.obj().field("page", p.page).field("sharers", p.sharers).field("faults", p.faults);
            w.field("fetches", p.fetches).field("diffs", p.diffs);
            w.field("diff_bytes", p.diff_bytes).field("invals", p.invals);
            w.field("handoffs", p.handoffs).field("fetch_wait_ns", p.fetch_wait_ns).end();
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
            Event::Diff { page: 5, bytes: 128 },
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

        // The incremental fold agrees with the post-hoc analysis when no
        // event records were dropped.
        let mut acc = Accumulator::new();
        for e in sink.events() {
            acc.feed(&e);
        }
        assert_eq!(acc.report(), rep);
        assert_eq!(acc.top(1), rep.pages[..1].to_vec());
    }

    #[test]
    fn accumulator_ranks_mid_stream() {
        let sink = ObsSink::new();
        sink.set_enabled(true);
        let mut acc = Accumulator::new();
        fault(&sink, 10, 0, 3);
        fault(&sink, 20, 1, 3);
        for e in sink.take_events() {
            acc.feed(&e);
        }
        assert_eq!(acc.pages_seen(), 1);
        assert_eq!(acc.top(5)[0].page, 3);
        assert_eq!(acc.top(5)[0].sharers, 2);
        assert_eq!(acc.top(5)[0].handoffs, 1);
        // Later events shift the ranking: page 9 gains a third sharer.
        for (at, node) in [(30, 0), (40, 1), (50, 2)] {
            fault(&sink, at, node, 9);
        }
        for e in sink.take_events() {
            acc.feed(&e);
        }
        let top = acc.top(5);
        assert_eq!(top[0].page, 9);
        assert_eq!(top[0].sharers, 3);
        assert_eq!(top[1].page, 3);
    }
}
