//! Per-node and per-page metric registries and the serializable snapshot.
//!
//! All quantities are simulated: counters count protocol/runtime events,
//! histograms bucket simulated-nanosecond durations into fixed log2
//! buckets. Aggregation containers are ordered (`Vec` indexed by node,
//! `BTreeMap` keyed by page/kind), so snapshots — and their JSON — are
//! deterministic.
//!
//! The registry is the one home of per-page facts: counts, sharers,
//! diffed bytes and fetch waits are all folded per event, so they stay
//! exact however many event *records* the bounded buffer drops.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::{EdgeKind, Event, Layer};
use crate::json::{ToJson, Value, Writer};

/// Number of log2 duration buckets (bucket `i` holds durations with
/// `floor(log2(ns)) == i`, clamped; bucket 0 also holds 0ns).
pub const HIST_BUCKETS: usize = 32;

/// A fixed-bucket log2 histogram of simulated durations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Sample count per bucket.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
    }

    /// The bucket index for a duration.
    pub fn bucket(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Total sample count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Interpolated percentile (`p` in `[0, 100]`) of the recorded
    /// durations, in nanoseconds. The exact sample values are gone — only
    /// their log2 bucket survives — so the estimate interpolates linearly
    /// inside the target bucket (bucket `i` covers `[2^i, 2^{i+1})`;
    /// bucket 0 covers `[0, 2)`). Deterministic: pure integer/f64
    /// arithmetic on the counts, rounded to whole nanoseconds.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = (p / 100.0) * n as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= target {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = 1u64 << (i + 1);
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                return (lo as f64 + frac * (hi - lo) as f64).round() as u64;
            }
            cum = next;
        }
        // Unreachable for p <= 100; fall back to the top of the last
        // non-empty bucket.
        let last = self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        1u64 << (last + 1)
    }
}

/// Per-node aggregates: simulated time and event counts per layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeMetrics {
    /// Node id.
    pub node: u32,
    /// Inclusive span time per layer, in simulated ns (indexed by
    /// [`Layer::index`]).
    pub layer_ns: [u64; Layer::COUNT],
    /// Event count per layer.
    pub layer_events: [u64; Layer::COUNT],
}

impl NodeMetrics {
    fn new(node: u32) -> Self {
        NodeMetrics {
            node,
            layer_ns: [0; Layer::COUNT],
            layer_events: [0; Layer::COUNT],
        }
    }
}

/// Aggregate over every event of one kind (a Table-3-style latency row).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindAgg {
    /// Dotted kind name (`layer.kind`).
    pub name: String,
    /// Number of events.
    pub count: u64,
    /// Total simulated span time, ns (0 for pure instants).
    pub total_ns: u64,
    /// Shortest span, ns.
    pub min_ns: u64,
    /// Longest span, ns.
    pub max_ns: u64,
}

/// Per-page protocol activity ("why did this page bounce?").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PageMetrics {
    /// Page index.
    pub page: u64,
    /// Read + write faults.
    pub faults: u64,
    /// Fetches from home.
    pub fetches: u64,
    /// Diffs sent home.
    pub diffs: u64,
    /// Acquire-time invalidations.
    pub invals: u64,
    /// Home migrations of the containing chunk.
    pub migrates: u64,
    /// Number of distinct nodes that faulted on the page (nodes 63 and up
    /// count as one).
    pub sharers: u32,
    /// Ping-pong handoffs: faults whose node differs from the previous
    /// faulting node (the false-sharing smell).
    pub handoffs: u64,
    /// Diffed bytes shipped home (summed over `Event::Diff`).
    pub diff_bytes: u64,
    /// Simulated time threads waited on fetches of this page (summed over
    /// the page-fetch causal edges, `at - src_ns`).
    pub fetch_wait_ns: u64,
}

/// A deterministic, serializable snapshot of every registry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Events discarded because the bounded event buffer was full (the
    /// metrics below still include them).
    pub dropped_events: u64,
    /// Per-node per-layer aggregates, indexed by node id.
    pub nodes: Vec<NodeMetrics>,
    /// Per-kind latency aggregates, sorted by kind name.
    pub kinds: Vec<KindAgg>,
    /// Per-layer duration histograms, in [`Layer::ALL`] order.
    pub hists: Vec<Histogram>,
    /// Per-page protocol activity, sorted by page index.
    pub pages: Vec<PageMetrics>,
    /// Named gauges (e.g. sync max-waiter high-water marks), sorted by
    /// name.
    pub gauges: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Total inclusive span time of `layer` across all nodes.
    pub fn layer_total_ns(&self, layer: Layer) -> u64 {
        self.nodes.iter().map(|n| n.layer_ns[layer.index()]).sum()
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Reconstructs a snapshot from a parsed [`Value`] tree of the shape
    /// its [`ToJson`] writes — the `cablestat` CLI's and the stream's
    /// loader. Exact: `from_value(&parse(&json::pretty(&s))) == s`.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn from_value(v: &Value) -> Result<MetricsSnapshot, String> {
        let nodes = v.each("nodes", |n| {
            let node = u32::try_from(n.u64_at("node")?).map_err(|_| "node out of range")?;
            let mut m = NodeMetrics::new(node);
            for (key, row) in [
                ("layer_ns", &mut m.layer_ns),
                ("layer_events", &mut m.layer_events),
            ] {
                let layers = n.get(key).ok_or(format!("missing {key}"))?;
                for l in Layer::ALL {
                    row[l.index()] = layers.u64_at(l.name())?;
                }
            }
            Ok(m)
        })?;
        let kinds = v.each("kinds", |k| {
            Ok(KindAgg {
                name: k
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("missing name")?
                    .to_string(),
                count: k.u64_at("count")?,
                total_ns: k.u64_at("total_ns")?,
                min_ns: k.u64_at("min_ns")?,
                max_ns: k.u64_at("max_ns")?,
            })
        })?;
        let mut hists = Vec::new();
        for l in Layer::ALL {
            let h = v.get("hists").and_then(|x| x.get(l.name()));
            let h = h.ok_or_else(|| format!("missing hists.{}", l.name()))?;
            let b = h.each("buckets", |x| {
                x.as_u64().ok_or("not an integer".to_string())
            })?;
            let buckets = b
                .try_into()
                .map_err(|b: Vec<u64>| format!("hists.{} has {} buckets", l.name(), b.len()))?;
            hists.push(Histogram { buckets });
        }
        let pages = v.each("pages", |p| {
            let sharers =
                u32::try_from(p.u64_at("sharers")?).map_err(|_| "sharers out of range")?;
            Ok(PageMetrics {
                page: p.u64_at("page")?,
                faults: p.u64_at("faults")?,
                fetches: p.u64_at("fetches")?,
                diffs: p.u64_at("diffs")?,
                invals: p.u64_at("invals")?,
                migrates: p.u64_at("migrates")?,
                sharers,
                handoffs: p.u64_at("handoffs")?,
                diff_bytes: p.u64_at("diff_bytes")?,
                fetch_wait_ns: p.u64_at("fetch_wait_ns")?,
            })
        })?;
        let gauges = v
            .get("gauges")
            .and_then(Value::as_obj)
            .ok_or("missing gauges")?;
        let gauges = gauges
            .iter()
            .map(|(name, x)| {
                Ok((
                    name.clone(),
                    x.as_u64()
                        .ok_or(format!("gauge {name} is not an integer"))?,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(MetricsSnapshot {
            dropped_events: v.u64_at("dropped_events")?,
            nodes,
            kinds,
            hists,
            pages,
            gauges,
        })
    }
}

/// The snapshot document: `dropped_events`, then `nodes` (per-layer time
/// and event counts keyed by layer name), `kinds`, `hists` (keyed by
/// layer, with interpolated p50/p95/p99 beside the buckets), `pages` and
/// `gauges` (an object keyed by name).
impl ToJson for MetricsSnapshot {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("dropped_events", self.dropped_events);
        w.key("nodes").arr();
        for n in &self.nodes {
            w.obj().field("node", n.node);
            for (key, v) in [("layer_ns", &n.layer_ns), ("layer_events", &n.layer_events)] {
                w.key(key).obj();
                for l in Layer::ALL {
                    w.field(l.name(), v[l.index()]);
                }
                w.end();
            }
            w.end();
        }
        w.end().key("kinds").arr();
        for k in &self.kinds {
            w.obj().field("name", &k.name).field("count", k.count);
            w.field("total_ns", k.total_ns)
                .field("min_ns", k.min_ns)
                .field("max_ns", k.max_ns)
                .end();
        }
        w.end().key("hists").obj();
        for l in Layer::ALL {
            let h = &self.hists[l.index()];
            w.key(l.name()).obj().field("buckets", &h.buckets[..]);
            w.field("p50", h.percentile(50.0))
                .field("p95", h.percentile(95.0))
                .field("p99", h.percentile(99.0))
                .end();
        }
        w.end().key("pages").arr();
        for p in &self.pages {
            w.obj()
                .field("page", p.page)
                .field("faults", p.faults)
                .field("fetches", p.fetches);
            w.field("diffs", p.diffs)
                .field("invals", p.invals)
                .field("migrates", p.migrates);
            w.field("sharers", p.sharers).field("handoffs", p.handoffs);
            w.field("diff_bytes", p.diff_bytes)
                .field("fetch_wait_ns", p.fetch_wait_ns)
                .end();
        }
        w.end().key("gauges").obj();
        for (name, v) in &self.gauges {
            w.field(name, *v);
        }
        w.end().end();
    }
}

/// Mutable registry state, owned by the sink (behind its mutex).
#[derive(Debug, Default)]
pub(crate) struct Registry {
    nodes: Vec<NodeMetrics>,
    kinds: BTreeMap<&'static str, (u64, u64, u64, u64)>, // count, total, min, max
    hists: Vec<Histogram>,
    pages: BTreeMap<u64, PageMetrics>,
    /// Per page, the last node to fault on it (drives
    /// `PageMetrics::handoffs`) and the mask of every node that did (node
    /// `i` sets bit `min(i, 63)`; drives `PageMetrics::sharers`).
    page_faulters: BTreeMap<u64, (u32, u64)>,
    gauges: BTreeMap<String, u64>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            hists: vec![Histogram::default(); Layer::COUNT],
            ..Registry::default()
        }
    }

    /// Folds one event, recorded at `at_ns`, into every registry.
    pub(crate) fn aggregate(
        &mut self,
        layer: Layer,
        node: u32,
        at_ns: u64,
        dur_ns: u64,
        event: &Event,
    ) {
        let idx = node as usize;
        if idx >= self.nodes.len() {
            for n in self.nodes.len()..=idx {
                self.nodes.push(NodeMetrics::new(n as u32));
            }
        }
        let nm = &mut self.nodes[idx];
        nm.layer_ns[layer.index()] += dur_ns;
        nm.layer_events[layer.index()] += 1;
        self.hists[layer.index()].record(dur_ns);
        let e = self
            .kinds
            .entry(event.kind_name())
            .or_insert((0, 0, u64::MAX, 0));
        e.0 += 1;
        e.1 += dur_ns;
        e.2 = e.2.min(dur_ns);
        e.3 = e.3.max(dur_ns);
        match *event {
            Event::Fault { page, .. } => {
                let (last, mask) = self.page_faulters.entry(page).or_insert((node, 0));
                let handoff = *last != node;
                *last = node;
                *mask |= 1 << node.min(63);
                let sharers = mask.count_ones();
                let m = self.page(page);
                m.faults += 1;
                m.sharers = sharers;
                m.handoffs += u64::from(handoff);
            }
            Event::Fetch { page, .. } => self.page(page).fetches += 1,
            Event::Diff { page, bytes } => {
                let m = self.page(page);
                m.diffs += 1;
                m.diff_bytes += bytes;
            }
            Event::Edge {
                kind: EdgeKind::PageFetch,
                src_ns,
                obj,
                ..
            } => self.page(obj).fetch_wait_ns += at_ns.saturating_sub(src_ns),
            Event::Invalidate { page } => self.page(page).invals += 1,
            Event::Migrate { base } => self.page(base).migrates += 1,
            _ => {}
        }
    }

    fn page(&mut self, page: u64) -> &mut PageMetrics {
        self.pages.entry(page).or_insert(PageMetrics {
            page,
            ..PageMetrics::default()
        })
    }

    /// Raises the named gauge to at least `v`.
    pub(crate) fn gauge_max(&mut self, name: &str, v: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(0);
        if v > *g {
            *g = v;
        }
    }

    /// Sets the named gauge.
    pub(crate) fn gauge_set(&mut self, name: &str, v: u64) {
        self.gauges.insert(name.to_string(), v);
    }

    pub(crate) fn snapshot(&self, dropped_events: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            dropped_events,
            nodes: self.nodes.clone(),
            kinds: self
                .kinds
                .iter()
                .map(|(name, &(count, total_ns, min_ns, max_ns))| KindAgg {
                    name: (*name).to_string(),
                    count,
                    total_ns,
                    min_ns: if count == 0 { 0 } else { min_ns },
                    max_ns,
                })
                .collect(),
            hists: self.hists.clone(),
            pages: self.pages.values().copied().collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        }
    }

    pub(crate) fn clear(&mut self) {
        *self = Registry::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 0);
        assert_eq!(Histogram::bucket(2), 1);
        assert_eq!(Histogram::bucket(3), 1);
        assert_eq!(Histogram::bucket(1024), 10);
        assert_eq!(Histogram::bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn aggregate_grows_nodes_and_tracks_pages() {
        let mut r = Registry::new();
        r.aggregate(
            Layer::Proto,
            2,
            0,
            0,
            &Event::Fault {
                page: 7,
                write: true,
            },
        );
        r.aggregate(Layer::Proto, 2, 0, 0, &Event::Diff { page: 7, bytes: 64 });
        r.aggregate(Layer::San, 0, 0, 7_800, &Event::SanSend { to: 1, bytes: 4 });
        let s = r.snapshot(3);
        assert_eq!(s.dropped_events, 3);
        assert_eq!(s.nodes.len(), 3);
        assert_eq!(s.nodes[2].layer_events[Layer::Proto.index()], 2);
        assert_eq!(s.nodes[0].layer_ns[Layer::San.index()], 7_800);
        assert_eq!(s.pages.len(), 1);
        assert_eq!(s.pages[0].faults, 1);
        assert_eq!(s.pages[0].diffs, 1);
        assert_eq!(s.pages[0].diff_bytes, 64);
        assert_eq!(s.layer_total_ns(Layer::San), 7_800);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_round_trips() {
        use crate::json::{self, Value};
        let mut r = Registry::new();
        r.aggregate(Layer::Sync, 1, 0, 500, &Event::LockWait { id: 9 });
        r.aggregate(Layer::Proto, 0, 40, 0, &Event::Diff { page: 3, bytes: 8 });
        let fetch = Event::Edge {
            kind: EdgeKind::PageFetch,
            src_node: 0,
            src_track: 1,
            src_ns: 10,
            obj: 3,
        };
        r.aggregate(Layer::Proto, 0, 35, 0, &fetch);
        r.gauge_max("sync.mutex.max_waiters", 4);
        r.gauge_max("sync.mutex.max_waiters", 2);
        let a = r.snapshot(0);
        let b = r.snapshot(0);
        assert_eq!(a, b);
        assert_eq!(json::pretty(&a), json::pretty(&b));
        assert_eq!(a.gauge("sync.mutex.max_waiters"), Some(4));
        assert_eq!((a.pages[0].diff_bytes, a.pages[0].fetch_wait_ns), (8, 25));
        let v = json::parse(&json::pretty(&a)).expect("snapshot JSON parses");
        assert_eq!(MetricsSnapshot::from_value(&v), Ok(a));
        // The document's members, in order; a page row ends with the two
        // facts the registry folds from diff events and fetch edges.
        let keys = |v: &Value| -> Vec<String> {
            v.as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect()
        };
        let top = [
            "dropped_events",
            "nodes",
            "kinds",
            "hists",
            "pages",
            "gauges",
        ];
        assert_eq!(keys(&v), top);
        let page = &v.get("pages").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            keys(page),
            [
                "page",
                "faults",
                "fetches",
                "diffs",
                "invals",
                "migrates",
                "sharers",
                "handoffs",
                "diff_bytes",
                "fetch_wait_ns"
            ]
        );
        let hist = v.get("hists").unwrap().get("sync").unwrap();
        assert_eq!(keys(hist), ["buckets", "p50", "p95", "p99"]);
    }
}
