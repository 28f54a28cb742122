//! Critical-path profiler over the causal-edge DAG.
//!
//! [`analyze`] rebuilds the dependence structure of a run from a drained
//! event buffer and walks the longest cause→effect chain backwards from
//! the end of the program to its start. The walk partitions the whole
//! simulated interval `[0, total_ns]` into
//!
//! - **local segments** — time the path spends executing on one lane
//!   (a `(node, thread)` pair), attributed to the innermost span covering
//!   each instant (uncovered time is `compute`), and
//! - **edge segments** — time the path spends *waiting on a dependency*
//!   (a lock handoff, a barrier release, a page fetch, a message), each
//!   attributed to its [`EdgeKind`], layer, destination node and object.
//!
//! Because the segments partition `[0, total_ns]` exactly, the reported
//! critical-path breakdown always sums to the run's simulated time — the
//! invariant the `obs_report` bench asserts.
//!
//! The walk only ever stands on thread lanes: the SAN's NIC→NIC message
//! edges ([`EdgeKind::MsgSend`]/[`MsgFetch`](EdgeKind::MsgFetch)/
//! [`MsgNotify`](EdgeKind::MsgNotify)) exist for the Perfetto arrows,
//! but land on NIC tracks the walk never visits;
//! page movement reaches the path through the faulting thread's own
//! self-lane [`EdgeKind::PageFetch`] edge instead.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::event::{EdgeKind, Event, EventRecord, Layer, NIC_TRACK};
use crate::json::{ToJson, Writer};

/// Why [`analyze`] refused to produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CritPathError {
    /// The sink's bounded buffer overflowed: `n` records were dropped, so
    /// the DAG is incomplete and any path would silently mis-attribute
    /// time. Raise the capacity (`ObsSink::with_capacity`, or
    /// `ClusterConfig::obs_cap` for a cluster) and rerun.
    DroppedEvents(u64),
    /// The buffer holds no thread-lane events to anchor the walk.
    NoEvents,
}

impl fmt::Display for CritPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CritPathError::DroppedEvents(n) => write!(
                f,
                "critical-path analysis refused: the event buffer dropped {n} record(s), \
                 so the causal DAG is incomplete; raise the obs buffer capacity \
                 (ObsSink::with_capacity / ClusterConfig::obs_cap) and rerun"
            ),
            CritPathError::NoEvents => {
                write!(
                    f,
                    "critical-path analysis needs at least one thread-lane event"
                )
            }
        }
    }
}

impl std::error::Error for CritPathError {}

/// One row of the blame table: every traversed edge aggregated by
/// `(kind, src_node, dst_node, obj)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameRow {
    /// The dependency kind.
    pub kind: EdgeKind,
    /// Node the cause happened on.
    pub src_node: u32,
    /// Node the effect happened on.
    pub dst_node: u32,
    /// The object the edges were about (page, lock id, thread id, bytes).
    pub obj: u64,
    /// Critical-path nanoseconds attributed to these edges.
    pub total_ns: u64,
    /// Number of path edges aggregated into the row.
    pub count: u64,
}

/// The critical-path report. All breakdowns sum to `total_ns` except
/// `by_page`, which only covers the path's page-movement edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritPath {
    /// Total simulated time of the run — and, by construction, the exact
    /// sum of every `by_layer`/`by_kind`/`by_node` bucket.
    pub total_ns: u64,
    /// Path time per layer name, plus the `compute` pseudo-layer for
    /// uninstrumented execution. Sorted by name.
    pub by_layer: Vec<(String, u64)>,
    /// Path time per event/edge kind name (plus `compute`). Sorted.
    pub by_kind: Vec<(String, u64)>,
    /// Path time per node (local segments at the lane's node, edge
    /// segments at the destination node). Sorted by node.
    pub by_node: Vec<(u32, u64)>,
    /// Path time per page, from the traversed page-fetch edges only.
    pub by_page: Vec<(u64, u64)>,
    /// Edge aggregates on the path, heaviest first.
    pub blame: Vec<BlameRow>,
    /// Number of causal edges the walk traversed.
    pub edges_on_path: u64,
}

/// A lane: one Chrome-trace track — a simulated thread or a node's NIC.
type Lane = (u32, u64);

/// A disjoint piece `(start, end, label)` of a lane's span coverage.
pub(crate) type Piece<L> = (u64, u64, L);

/// An edge indexed by its effect lane.
#[derive(Debug, Clone, Copy)]
struct EdgeRef {
    effect_ns: u64,
    src_lane: Lane,
    src_ns: u64,
    kind: EdgeKind,
    obj: u64,
    dst_node: u32,
}

/// Flattens one lane's labelled intervals into disjoint pieces where the
/// innermost covering interval wins: a stack sweep over the intervals in
/// `key` order (spans on a thread lane come from one thread's nested
/// scopes, so they nest properly; slight violations degrade to a
/// deterministic stack order, never to overlap). The stall profile runs
/// the same sweep with its own key.
pub(crate) fn flatten<L: Copy, K: Ord>(
    mut spans: Vec<Piece<L>>,
    key: impl FnMut(&Piece<L>) -> K,
) -> Vec<Piece<L>> {
    spans.sort_by_key(key);
    let mut out: Vec<Piece<L>> = Vec::with_capacity(spans.len());
    let mut stack: Vec<(u64, L)> = Vec::new();
    let mut pos = 0u64;
    let emit = |out: &mut Vec<Piece<L>>, start: u64, end: u64, label: L| {
        if end > start {
            out.push((start, end, label));
        }
    };
    for (s, e, label) in spans {
        while let Some(&(top_end, top)) = stack.last() {
            if top_end > s {
                break;
            }
            emit(&mut out, pos, top_end, top);
            pos = pos.max(top_end);
            stack.pop();
        }
        if let Some(&(_, top)) = stack.last() {
            emit(&mut out, pos, s, top);
        }
        pos = pos.max(s);
        if e > pos {
            stack.push((e, label));
        }
    }
    while let Some((top_end, top)) = stack.pop() {
        emit(&mut out, pos, top_end, top);
        pos = pos.max(top_end);
    }
    out
}

/// Union (merged-interval) span coverage of the busiest non-NIC lane, in
/// nanoseconds — a provable lower bound on the critical path, used by the
/// `obs_report` bench's sanity assertion.
pub fn busiest_lane_span_ns(events: &[EventRecord]) -> u64 {
    let mut lanes: BTreeMap<Lane, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        if e.track == NIC_TRACK || e.dur_ns == 0 {
            continue;
        }
        let s = e.at.as_nanos();
        lanes
            .entry((e.node.0, e.track))
            .or_default()
            .push((s, s + e.dur_ns));
    }
    let mut best = 0u64;
    for (_, mut iv) in lanes {
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in iv {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        best = best.max(covered);
    }
    best
}

/// Walks the critical path of a run.
///
/// `events` is the drained (or cloned) sink buffer; `total_ns` is the
/// run's final simulated time; `dropped` is
/// `ObsSink::dropped_events()` — a non-zero value is refused, because a
/// truncated buffer would silently mis-attribute time.
///
/// # Errors
///
/// [`CritPathError::DroppedEvents`] when the buffer overflowed,
/// [`CritPathError::NoEvents`] when no thread-lane activity exists.
pub fn analyze(
    events: &[EventRecord],
    total_ns: u64,
    dropped: u64,
) -> Result<CritPath, CritPathError> {
    if dropped > 0 {
        return Err(CritPathError::DroppedEvents(dropped));
    }

    // Index spans and edges by lane.
    let mut span_by_lane: BTreeMap<Lane, Vec<Piece<(Layer, &'static str)>>> = BTreeMap::new();
    let mut edges_by_lane: BTreeMap<Lane, Vec<EdgeRef>> = BTreeMap::new();
    let mut lane_last: BTreeMap<Lane, u64> = BTreeMap::new();
    for e in events {
        let lane = (e.node.0, e.track);
        let at = e.at.as_nanos();
        if let Event::Edge {
            kind,
            src_node,
            src_track,
            src_ns,
            obj,
        } = e.event
        {
            // Only forward-in-time edges enter the walk index: the cursor
            // must strictly decrease, which guarantees termination and
            // acyclicity. Zero-latency edges (local same-time handoffs)
            // carry no path time anyway.
            if src_ns < at && e.track != NIC_TRACK {
                edges_by_lane.entry(lane).or_default().push(EdgeRef {
                    effect_ns: at,
                    src_lane: (src_node, src_track),
                    src_ns,
                    kind,
                    obj,
                    dst_node: e.node.0,
                });
            }
        } else if e.dur_ns > 0 {
            let label = (e.layer, e.event.kind_name());
            span_by_lane
                .entry(lane)
                .or_default()
                .push((at, at + e.dur_ns, label));
        }
        if e.track != NIC_TRACK {
            let end = at + e.dur_ns;
            let last = lane_last.entry(lane).or_insert(0);
            *last = (*last).max(end);
        }
    }
    // Deterministic candidate preference inside one lane: latest effect,
    // then latest source (the tightest dependency), then the most specific
    // kind (typed edges precede the generic Wakeup in EdgeKind::ALL).
    for v in edges_by_lane.values_mut() {
        v.sort_by_key(|e| {
            (
                e.effect_ns,
                e.src_ns,
                std::cmp::Reverse(e.kind as usize),
                e.src_lane,
            )
        });
    }
    let flat_by_lane: BTreeMap<Lane, Vec<Piece<_>>> = span_by_lane
        .into_iter()
        .map(|(lane, spans)| (lane, flatten(spans, |&(s, e, _)| (s, std::cmp::Reverse(e)))))
        .collect();

    // The walk ends on the lane that was active last (ties: lowest lane).
    let end_lane = lane_last
        .iter()
        .max_by_key(|&(lane, &end)| (end, std::cmp::Reverse(*lane)))
        .map(|(lane, _)| *lane)
        .ok_or(CritPathError::NoEvents)?;

    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_node: BTreeMap<u32, u64> = BTreeMap::new();
    let mut by_page: BTreeMap<u64, u64> = BTreeMap::new();
    let mut blame: BTreeMap<(EdgeKind, u32, u32, u64), (u64, u64)> = BTreeMap::new();
    let mut edges_on_path = 0u64;

    // Attributes the local interval [a, b) on `lane` by span coverage.
    let empty = Vec::new();
    let local = |lane: Lane,
                 a: u64,
                 b: u64,
                 by_layer: &mut BTreeMap<String, u64>,
                 by_kind: &mut BTreeMap<String, u64>,
                 by_node: &mut BTreeMap<u32, u64>| {
        if b <= a {
            return;
        }
        *by_node.entry(lane.0).or_default() += b - a;
        let flats = flat_by_lane.get(&lane).unwrap_or(&empty);
        let mut covered = 0u64;
        let from = flats.partition_point(|f| f.1 <= a);
        for &(start, end, (layer, kind)) in &flats[from..] {
            if start >= b {
                break;
            }
            let lo = start.max(a);
            let hi = end.min(b);
            if hi > lo {
                *by_layer.entry(layer.name().to_string()).or_default() += hi - lo;
                *by_kind.entry(kind.to_string()).or_default() += hi - lo;
                covered += hi - lo;
            }
        }
        let uncovered = (b - a).saturating_sub(covered);
        if uncovered > 0 {
            *by_layer.entry("compute".to_string()).or_default() += uncovered;
            *by_kind.entry("compute".to_string()).or_default() += uncovered;
        }
    };

    let mut lane = end_lane;
    let mut cursor = total_ns;
    // Each traversed edge strictly decreases the cursor, so the loop is
    // bounded by the edge count; the explicit cap is a defensive backstop.
    let mut fuel = events.len() as u64 + 16;
    while fuel > 0 {
        fuel -= 1;
        let cand = edges_by_lane.get(&lane).and_then(|v| {
            let idx = v.partition_point(|e| e.effect_ns <= cursor);
            (idx > 0).then(|| v[idx - 1])
        });
        match cand {
            Some(e) => {
                local(
                    lane,
                    e.effect_ns,
                    cursor,
                    &mut by_layer,
                    &mut by_kind,
                    &mut by_node,
                );
                let w = e.effect_ns - e.src_ns;
                let kind_name = format!("edge.{}", e.kind.name());
                *by_layer
                    .entry(e.kind.layer().name().to_string())
                    .or_default() += w;
                *by_kind.entry(kind_name).or_default() += w;
                *by_node.entry(e.dst_node).or_default() += w;
                if e.kind == EdgeKind::PageFetch {
                    *by_page.entry(e.obj).or_default() += w;
                }
                let row = blame
                    .entry((e.kind, e.src_lane.0, e.dst_node, e.obj))
                    .or_default();
                row.0 += w;
                row.1 += 1;
                edges_on_path += 1;
                lane = e.src_lane;
                cursor = e.src_ns;
            }
            None => {
                local(lane, 0, cursor, &mut by_layer, &mut by_kind, &mut by_node);
                cursor = 0;
                break;
            }
        }
    }
    if cursor > 0 {
        // Fuel ran out (cannot happen with a well-formed buffer): close
        // the partition so the totals still add up.
        local(lane, 0, cursor, &mut by_layer, &mut by_kind, &mut by_node);
    }

    let mut blame: Vec<BlameRow> = blame
        .into_iter()
        .map(
            |((kind, src_node, dst_node, obj), (total_ns, count))| BlameRow {
                kind,
                src_node,
                dst_node,
                obj,
                total_ns,
                count,
            },
        )
        .collect();
    blame.sort_by_key(|r| {
        (
            std::cmp::Reverse(r.total_ns),
            r.kind as usize,
            r.src_node,
            r.dst_node,
            r.obj,
        )
    });

    Ok(CritPath {
        total_ns,
        by_layer: by_layer.into_iter().collect(),
        by_kind: by_kind.into_iter().collect(),
        by_node: by_node.into_iter().collect(),
        by_page: by_page.into_iter().collect(),
        blame,
        edges_on_path,
    })
}

impl CritPath {
    /// Sum of every `by_layer` bucket — equals `total_ns` by construction.
    pub fn layer_sum_ns(&self) -> u64 {
        self.by_layer.iter().map(|&(_, v)| v).sum()
    }

    /// Renders the report as text tables (layer breakdown + blame table).
    pub fn render(&self, title: &str, top: usize) -> String {
        let mut out = String::new();
        let pct = |v: u64| {
            if self.total_ns == 0 {
                0.0
            } else {
                100.0 * v as f64 / self.total_ns as f64
            }
        };
        let _ = writeln!(out, "=== {title}: critical path ({} ns) ===", self.total_ns);
        let _ = writeln!(out, "{:<18} {:>14} {:>7}", "layer", "ns", "%");
        let _ = writeln!(out, "{}", "-".repeat(41));
        let mut layers = self.by_layer.clone();
        layers.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        for (name, v) in &layers {
            let _ = writeln!(out, "{:<18} {:>14} {:>6.1}%", name, v, pct(*v));
        }
        let _ = writeln!(
            out,
            "{:<18} {:>14} {:>6.1}%",
            "total",
            self.layer_sum_ns(),
            pct(self.layer_sum_ns())
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "=== {title}: blame table (top {top} edges) ===");
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>11} {:>8} {:>6} {:>14} {:>7}",
            "edge", "obj", "nodes", "count", "", "ns", "%"
        );
        let _ = writeln!(out, "{}", "-".repeat(76));
        for r in self.blame.iter().take(top) {
            let _ = writeln!(
                out,
                "{:<16} {:>9} {:>5} -> {:<3} {:>8} {:>6} {:>14} {:>6.1}%",
                r.kind.name(),
                r.obj,
                r.src_node,
                r.dst_node,
                r.count,
                "",
                r.total_ns,
                pct(r.total_ns)
            );
        }
        out
    }
}

impl ToJson for CritPath {
    fn write_json(&self, w: &mut Writer) {
        fn map<K: fmt::Display>(w: &mut Writer, name: &str, items: &[(K, u64)]) {
            w.key(name).obj();
            for (k, v) in items {
                w.field(&k.to_string(), v);
            }
            w.end();
        }
        w.obj()
            .field("total_ns", self.total_ns)
            .field("edges_on_path", self.edges_on_path);
        map(w, "by_layer", &self.by_layer);
        map(w, "by_kind", &self.by_kind);
        map(w, "by_node", &self.by_node);
        map(w, "by_page", &self.by_page);
        w.key("blame").arr();
        for r in &self.blame {
            w.obj()
                .field("kind", r.kind.name())
                .field("src_node", r.src_node);
            w.field("dst_node", r.dst_node).field("obj", r.obj);
            w.field("total_ns", r.total_ns)
                .field("count", r.count)
                .end();
        }
        w.end().end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventRecord, Layer};
    use sim::{NodeId, SimTime};

    fn span(at: u64, dur: u64, node: u32, track: u64, event: Event, layer: Layer) -> EventRecord {
        EventRecord {
            at: SimTime::from_nanos(at),
            dur_ns: dur,
            node: NodeId(node),
            track,
            layer,
            event,
        }
    }

    fn edge(
        at: u64,
        node: u32,
        track: u64,
        kind: EdgeKind,
        src_node: u32,
        src_track: u64,
        src_ns: u64,
        obj: u64,
    ) -> EventRecord {
        EventRecord {
            at: SimTime::from_nanos(at),
            dur_ns: 0,
            node: NodeId(node),
            track,
            layer: kind.layer(),
            event: Event::Edge {
                kind,
                src_node,
                src_track,
                src_ns,
                obj,
            },
        }
    }

    #[test]
    fn dropped_events_refused() {
        let err = analyze(&[], 100, 3).unwrap_err();
        assert!(matches!(err, CritPathError::DroppedEvents(3)));
        assert!(err.to_string().contains("dropped 3"));
    }

    #[test]
    fn empty_buffer_refused() {
        assert_eq!(analyze(&[], 100, 0).unwrap_err(), CritPathError::NoEvents);
    }

    #[test]
    fn single_lane_is_all_local() {
        let evs = vec![span(10, 50, 0, 1, Event::LockWait { id: 7 }, Layer::Sync)];
        let cp = analyze(&evs, 100, 0).unwrap();
        assert_eq!(cp.layer_sum_ns(), 100);
        assert_eq!(cp.edges_on_path, 0);
        let sync: u64 = cp
            .by_layer
            .iter()
            .find(|(n, _)| n == "sync")
            .map(|&(_, v)| v)
            .unwrap();
        assert_eq!(sync, 50);
        let compute = cp
            .by_layer
            .iter()
            .find(|(n, _)| n == "compute")
            .map(|&(_, v)| v)
            .unwrap();
        assert_eq!(compute, 50);
    }

    #[test]
    fn handoff_edge_crosses_lanes_and_partitions_exactly() {
        // Thread (0,1) runs 0..40, releases a lock; thread (1,2) acquires
        // at 60 and runs to 100.
        let evs = vec![
            span(0, 40, 0, 1, Event::LockWait { id: 7 }, Layer::Sync),
            edge(60, 1, 2, EdgeKind::LockHandoff, 0, 1, 40, 7),
            span(60, 40, 1, 2, Event::LockWait { id: 7 }, Layer::Sync),
        ];
        let cp = analyze(&evs, 100, 0).unwrap();
        assert_eq!(cp.layer_sum_ns(), 100);
        assert_eq!(cp.edges_on_path, 1);
        assert_eq!(cp.blame.len(), 1);
        assert_eq!(cp.blame[0].kind, EdgeKind::LockHandoff);
        assert_eq!(cp.blame[0].total_ns, 20);
        assert_eq!(cp.blame[0].src_node, 0);
        assert_eq!(cp.blame[0].dst_node, 1);
        // Node 1: local 60..100 plus the 20ns edge; node 0: local 0..40.
        let n0 = cp.by_node.iter().find(|&&(n, _)| n == 0).unwrap().1;
        let n1 = cp.by_node.iter().find(|&&(n, _)| n == 1).unwrap().1;
        assert_eq!(n0, 40);
        assert_eq!(n1, 60);
    }

    #[test]
    fn page_fetch_edges_feed_by_page() {
        let evs = vec![
            span(
                0,
                100,
                0,
                1,
                Event::FaultSpan {
                    page: 9,
                    write: true,
                },
                Layer::Proto,
            ),
            edge(80, 0, 1, EdgeKind::PageFetch, 0, 1, 20, 9),
        ];
        let cp = analyze(&evs, 100, 0).unwrap();
        assert_eq!(cp.layer_sum_ns(), 100);
        assert_eq!(cp.by_page, vec![(9, 60)]);
    }

    #[test]
    fn nic_lane_edges_are_ignored_by_the_walk() {
        let evs = vec![
            span(0, 100, 0, 1, Event::LockWait { id: 1 }, Layer::Sync),
            // A SAN arrow between NIC lanes must not strand the walk.
            edge(50, 1, NIC_TRACK, EdgeKind::MsgSend, 0, NIC_TRACK, 10, 64),
        ];
        let cp = analyze(&evs, 100, 0).unwrap();
        assert_eq!(cp.edges_on_path, 0);
        assert_eq!(cp.layer_sum_ns(), 100);
    }

    #[test]
    fn busiest_lane_union_coverage() {
        let evs = vec![
            span(0, 50, 0, 1, Event::LockWait { id: 1 }, Layer::Sync),
            span(25, 50, 0, 1, Event::LockWait { id: 2 }, Layer::Sync),
            span(0, 10, 1, 2, Event::LockWait { id: 3 }, Layer::Sync),
            // NIC lanes never count.
            span(
                0,
                500,
                0,
                NIC_TRACK,
                Event::SanSend { to: 1, bytes: 4 },
                Layer::San,
            ),
        ];
        assert_eq!(busiest_lane_span_ns(&evs), 75);
    }

    #[test]
    fn render_and_json_are_deterministic_and_valid() {
        let evs = vec![
            span(0, 40, 0, 1, Event::LockWait { id: 7 }, Layer::Sync),
            edge(60, 1, 2, EdgeKind::LockHandoff, 0, 1, 40, 7),
            span(60, 40, 1, 2, Event::LockWait { id: 7 }, Layer::Sync),
        ];
        let a = analyze(&evs, 100, 0).unwrap();
        let b = analyze(&evs, 100, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(crate::json::pretty(&a), crate::json::pretty(&b));
        crate::json::validate(&crate::json::pretty(&a)).expect("critpath JSON parses");
        let text = a.render("TEST", 5);
        assert!(text.contains("lock_handoff"));
        assert!(text.contains("critical path"));
    }
}
