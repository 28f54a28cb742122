//! Per-node and per-page metric registries and the serializable snapshot.
//!
//! All quantities are simulated: counters count protocol/runtime events,
//! histograms bucket simulated-nanosecond durations into fixed log2
//! buckets. Aggregation containers are ordered (`Vec` indexed by node,
//! `BTreeMap` keyed by page/kind), so snapshots — and their JSON — are
//! deterministic.

use std::collections::BTreeMap;
use std::fmt::Write;

use serde::{Deserialize, Serialize};

use crate::event::{Event, Layer};

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
    /// Bitmask of nodes that faulted on the page (node `i` sets bit
    /// `min(i, 63)`; clusters beyond 64 nodes saturate the top bit).
    pub nodes_mask: u64,
    /// Ping-pong handoffs: faults whose node differs from the previous
    /// faulting node (the false-sharing smell).
    pub handoffs: u64,
}

impl PageMetrics {
    /// Number of distinct nodes that faulted on the page (capped at 64).
    pub fn sharers(&self) -> u32 {
        self.nodes_mask.count_ones()
    }
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

    /// Serializes the snapshot as deterministic JSON (hand-rolled: the
    /// workspace's `serde` is an offline marker shim).
    pub fn to_json(&self) -> String {
        let mut j = String::with_capacity(4096);
        j.push_str("{\n  \"dropped_events\": ");
        let _ = write!(j, "{}", self.dropped_events);
        j.push_str(",\n  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            j.push_str("\n    {\"node\": ");
            let _ = write!(j, "{}", n.node);
            j.push_str(", \"layer_ns\": {");
            for (k, l) in Layer::ALL.iter().enumerate() {
                if k > 0 {
                    j.push_str(", ");
                }
                let _ = write!(j, "\"{}\": {}", l.name(), n.layer_ns[l.index()]);
            }
            j.push_str("}, \"layer_events\": {");
            for (k, l) in Layer::ALL.iter().enumerate() {
                if k > 0 {
                    j.push_str(", ");
                }
                let _ = write!(j, "\"{}\": {}", l.name(), n.layer_events[l.index()]);
            }
            j.push_str("}}");
        }
        j.push_str("\n  ],\n  \"kinds\": [");
        for (i, k) in self.kinds.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(
                j,
                "\n    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                k.name, k.count, k.total_ns, k.min_ns, k.max_ns
            );
        }
        j.push_str("\n  ],\n  \"hists\": {");
        for (i, l) in Layer::ALL.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let h = &self.hists[l.index()];
            let _ = write!(j, "\n    \"{}\": {{\"buckets\": [", l.name());
            for (b, v) in h.buckets.iter().enumerate() {
                if b > 0 {
                    j.push(',');
                }
                let _ = write!(j, "{v}");
            }
            let _ = write!(
                j,
                "], \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0)
            );
        }
        j.push_str("\n  },\n  \"pages\": [");
        for (i, p) in self.pages.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(
                j,
                "\n    {{\"page\": {}, \"faults\": {}, \"fetches\": {}, \"diffs\": {}, \"invals\": {}, \"migrates\": {}, \"sharers\": {}, \"handoffs\": {}}}",
                p.page, p.faults, p.fetches, p.diffs, p.invals, p.migrates,
                p.sharers(), p.handoffs
            );
        }
        j.push_str("\n  ],\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(j, "\n    \"{name}\": {v}");
        }
        j.push_str("\n  }\n}\n");
        j
    }

    /// Reconstructs a snapshot from a parsed [`crate::json::Value`] tree
    /// with the [`MetricsSnapshot::to_json`] shape — the `cablestat` CLI's
    /// loader. Lossy only where the export is: the serialized `sharers`
    /// count cannot recover *which* nodes shared a page, so `nodes_mask`
    /// is rebuilt with that many low bits set (`sharers()` round-trips).
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn from_value(v: &crate::json::Value) -> Result<MetricsSnapshot, String> {
        let need = |o: Option<u64>, what: &str| o.ok_or_else(|| format!("missing {what}"));
        let obj = v.as_obj().ok_or("snapshot is not an object")?;
        let _ = obj;
        let dropped_events = need(
            v.get("dropped_events").and_then(|x| x.as_u64()),
            "dropped_events",
        )?;
        let mut nodes = Vec::new();
        for (i, n) in v
            .get("nodes")
            .and_then(|x| x.as_arr())
            .ok_or("missing nodes")?
            .iter()
            .enumerate()
        {
            let node = need(n.get("node").and_then(|x| x.as_u64()), "node id")? as u32;
            let mut m = NodeMetrics::new(node);
            for l in Layer::ALL {
                m.layer_ns[l.index()] = need(
                    n.get("layer_ns")
                        .and_then(|x| x.get(l.name()))
                        .and_then(|x| x.as_u64()),
                    &format!("nodes[{i}].layer_ns.{}", l.name()),
                )?;
                m.layer_events[l.index()] = need(
                    n.get("layer_events")
                        .and_then(|x| x.get(l.name()))
                        .and_then(|x| x.as_u64()),
                    &format!("nodes[{i}].layer_events.{}", l.name()),
                )?;
            }
            nodes.push(m);
        }
        let mut kinds = Vec::new();
        for k in v
            .get("kinds")
            .and_then(|x| x.as_arr())
            .ok_or("missing kinds")?
        {
            kinds.push(KindAgg {
                name: k
                    .get("name")
                    .and_then(|x| x.as_str())
                    .ok_or("kind without name")?
                    .to_string(),
                count: need(k.get("count").and_then(|x| x.as_u64()), "kind count")?,
                total_ns: need(k.get("total_ns").and_then(|x| x.as_u64()), "kind total_ns")?,
                min_ns: need(k.get("min_ns").and_then(|x| x.as_u64()), "kind min_ns")?,
                max_ns: need(k.get("max_ns").and_then(|x| x.as_u64()), "kind max_ns")?,
            });
        }
        let mut hists = Vec::new();
        for l in Layer::ALL {
            let b = v
                .get("hists")
                .and_then(|x| x.get(l.name()))
                .and_then(|x| x.get("buckets"))
                .and_then(|x| x.as_arr())
                .ok_or_else(|| format!("missing hists.{}.buckets", l.name()))?;
            if b.len() != HIST_BUCKETS {
                return Err(format!("hists.{} has {} buckets", l.name(), b.len()));
            }
            let mut h = Histogram::default();
            for (i, x) in b.iter().enumerate() {
                h.buckets[i] = need(x.as_u64(), "hist bucket")?;
            }
            hists.push(h);
        }
        let mut pages = Vec::new();
        for p in v
            .get("pages")
            .and_then(|x| x.as_arr())
            .ok_or("missing pages")?
        {
            let g = |k: &str| need(p.get(k).and_then(|x| x.as_u64()), &format!("page {k}"));
            let sharers = g("sharers")?;
            pages.push(PageMetrics {
                page: g("page")?,
                faults: g("faults")?,
                fetches: g("fetches")?,
                diffs: g("diffs")?,
                invals: g("invals")?,
                migrates: g("migrates")?,
                nodes_mask: if sharers >= 64 {
                    u64::MAX
                } else {
                    (1u64 << sharers) - 1
                },
                handoffs: g("handoffs")?,
            });
        }
        let mut gauges = Vec::new();
        for (name, x) in v
            .get("gauges")
            .and_then(|x| x.as_obj())
            .ok_or("missing gauges")?
        {
            gauges.push((name.clone(), need(x.as_u64(), "gauge value")?));
        }
        Ok(MetricsSnapshot {
            dropped_events,
            nodes,
            kinds,
            hists,
            pages,
            gauges,
        })
    }
}

/// Mutable registry state, owned by the sink (behind its mutex).
#[derive(Debug, Default)]
pub(crate) struct Registry {
    nodes: Vec<NodeMetrics>,
    kinds: BTreeMap<&'static str, (u64, u64, u64, u64)>, // count, total, min, max
    hists: Vec<Histogram>,
    pages: BTreeMap<u64, PageMetrics>,
    /// Last node to fault on each page (drives `PageMetrics::handoffs`).
    page_last: BTreeMap<u64, u32>,
    gauges: BTreeMap<String, u64>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            hists: vec![Histogram::default(); Layer::COUNT],
            ..Registry::default()
        }
    }

    /// Folds one event into every registry.
    pub(crate) fn aggregate(&mut self, layer: Layer, node: u32, dur_ns: u64, event: &Event) {
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
                let m = self.page(page);
                m.faults += 1;
                m.nodes_mask |= 1 << node.min(63);
                match self.page_last.insert(page, node) {
                    Some(prev) if prev != node => self.page(page).handoffs += 1,
                    _ => {}
                }
            }
            Event::Fetch { page, .. } => self.page(page).fetches += 1,
            Event::Diff { page, .. } => self.page(page).diffs += 1,
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
            &Event::Fault {
                page: 7,
                write: true,
            },
        );
        r.aggregate(Layer::Proto, 2, 0, &Event::Diff { page: 7, bytes: 64 });
        r.aggregate(Layer::San, 0, 7_800, &Event::SanSend { to: 1, bytes: 4 });
        let s = r.snapshot(3);
        assert_eq!(s.dropped_events, 3);
        assert_eq!(s.nodes.len(), 3);
        assert_eq!(s.nodes[2].layer_events[Layer::Proto.index()], 2);
        assert_eq!(s.nodes[0].layer_ns[Layer::San.index()], 7_800);
        assert_eq!(s.pages.len(), 1);
        assert_eq!(s.pages[0].faults, 1);
        assert_eq!(s.pages[0].diffs, 1);
        assert_eq!(s.layer_total_ns(Layer::San), 7_800);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_valid() {
        let mut r = Registry::new();
        r.aggregate(Layer::Sync, 1, 500, &Event::LockWait { id: 9 });
        r.gauge_max("sync.mutex.max_waiters", 4);
        r.gauge_max("sync.mutex.max_waiters", 2);
        let a = r.snapshot(0);
        let b = r.snapshot(0);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.gauge("sync.mutex.max_waiters"), Some(4));
        crate::json::validate(&a.to_json()).expect("snapshot JSON parses");
    }
}
