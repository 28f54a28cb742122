//! Online metric series: periodic snapshot deltas over simulated time.
//!
//! The post-hoc pipeline ([`crate::MetricsSnapshot`] at end of run) gains
//! a streaming sibling: when a series is started on the sink
//! ([`crate::ObsSink::series_start`]), the recording path slices the run
//! into fixed windows of `sample_ns` simulated nanoseconds and writes one
//! [`DeltaFrame`] per non-empty window as an NDJSON line
//! ([`crate::stream`]) the moment the window is cut. Memory stays
//! O(1) in the run length: the sampler keeps the previous snapshot and
//! the open window's stall mix, nothing else.
//!
//! # Delta grammar
//!
//! A frame's payload is a *sparse* [`MetricsSnapshot`] holding only the
//! nodes, kinds, pages and gauges that changed during the window (the
//! histograms carry every layer), with per-field fold rules chosen so the
//! frames re-sum **exactly** — the same invariant family as
//! [`crate::stall`]'s slice-sum:
//!
//! | field                                | framing   | fold          |
//! |--------------------------------------|-----------|---------------|
//! | node `layer_ns` / `layer_events`     | delta     | add           |
//! | kind `count` / `total_ns`            | delta     | add           |
//! | kind `min_ns` / `max_ns`             | level     | last wins     |
//! | histogram buckets                    | delta     | add           |
//! | page `faults`/`fetches`/…/`handoffs` | delta     | add           |
//! | page `diff_bytes` / `fetch_wait_ns`  | delta     | add           |
//! | page `sharers`                       | level     | last wins     |
//! | gauges                               | level     | last wins     |
//! | `dropped_events`                     | level     | last wins     |
//!
//! Levels are sound because an entity appears in a frame *iff* one of its
//! monotone counters moved (min/max can only change together with
//! `count`; the sharer count only grows on a fault), so the last level in
//! the stream is the final value. Every other quantity in the registry is
//! strictly monotone (`+=` only), so window deltas are non-negative and
//! sum to the final totals with no rounding and no residue:
//! [`fold`]` == `[`crate::ObsSink::snapshot`] field for field (proptested by
//! `tests/obs_stream.rs`).
//!
//! A window is attributed by *completion*: a span recorded with
//! `at + dur_ns` in window `w` lands in `w`'s frame, and the frame for a
//! window is cut the first time a later completion (or an explicit
//! [`crate::ObsSink::series_tick`]) is observed. Empty windows emit
//! nothing.

use std::io::{self, Write};

use crate::event::{Event, Layer, NIC_TRACK};
use crate::json::{ToJson, Writer};
use crate::metrics::{Histogram, KindAgg, MetricsSnapshot, NodeMetrics, PageMetrics};
use crate::stall::{self, Bucket, BUCKETS};
use crate::stream::{end_line, frame_line, header_line};

/// One window's worth of change: a sparse [`MetricsSnapshot`] plus the
/// window bounds and the stall mix observed while recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaFrame {
    /// Dense frame index in emission order (0-based; the NDJSON grammar
    /// check asserts density).
    pub seq: u64,
    /// Window start, simulated ns (inclusive).
    pub start_ns: u64,
    /// Window end, simulated ns (exclusive; `end_ns - start_ns` is a
    /// multiple of `sample_ns` except for the final partial window).
    pub end_ns: u64,
    /// Classified span time recorded this window, by stall bucket, in
    /// [`Bucket::ALL`] order. An online approximation of the exact
    /// post-hoc [`crate::stall::analyze`] partition: spans are charged
    /// whole (no innermost-wins flattening) and there is no compute
    /// residue — good enough to watch the mix move, not a lifetime
    /// partition.
    pub stall_ns: [u64; BUCKETS],
    /// What changed: deltas for monotone counters, levels for the rest
    /// (see the module docs for the exact per-field rules).
    pub delta: MetricsSnapshot,
}

impl DeltaFrame {
    /// Total event records aggregated this window (sum of per-node
    /// per-layer event deltas).
    pub fn events(&self) -> u64 {
        self.delta
            .nodes
            .iter()
            .map(|n| n.layer_events.iter().sum::<u64>())
            .sum()
    }
}

fn empty_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        dropped_events: 0,
        nodes: Vec::new(),
        kinds: Vec::new(),
        hists: vec![Histogram::default(); Layer::COUNT],
        pages: Vec::new(),
        gauges: Vec::new(),
    }
}

/// The sparse difference `cur - prev` under the delta grammar. `prev`
/// must be an earlier snapshot of the *same* registry (every counter in
/// `cur` ≥ its `prev` value); node ids in the registry are contiguous,
/// so a node new in `cur` is included even when all-zero (a filler row
/// materialized by a higher id) to keep the fold shape-exact.
pub fn delta(prev: &MetricsSnapshot, cur: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = empty_snapshot();
    d.dropped_events = cur.dropped_events;
    for (i, n) in cur.nodes.iter().enumerate() {
        let changed = match prev.nodes.get(i) {
            None => true,
            Some(p) => p.layer_ns != n.layer_ns || p.layer_events != n.layer_events,
        };
        if !changed {
            continue;
        }
        let mut row = NodeMetrics {
            node: n.node,
            layer_ns: n.layer_ns,
            layer_events: n.layer_events,
        };
        if let Some(p) = prev.nodes.get(i) {
            for k in 0..Layer::COUNT {
                row.layer_ns[k] -= p.layer_ns[k];
                row.layer_events[k] -= p.layer_events[k];
            }
        }
        d.nodes.push(row);
    }
    // Both kind lists are sorted by name (BTreeMap order) and only ever
    // grow, so a linear merge finds each kind's previous value.
    let mut pi = 0;
    for k in &cur.kinds {
        while pi < prev.kinds.len() && prev.kinds[pi].name < k.name {
            pi += 1;
        }
        let p = prev.kinds.get(pi).filter(|p| p.name == k.name);
        let (pc, pt) = p.map_or((0, 0), |p| (p.count, p.total_ns));
        if k.count == pc {
            continue;
        }
        d.kinds.push(KindAgg {
            name: k.name.clone(),
            count: k.count - pc,
            total_ns: k.total_ns - pt,
            min_ns: k.min_ns,
            max_ns: k.max_ns,
        });
    }
    for (i, h) in cur.hists.iter().enumerate() {
        for (b, &v) in h.buckets.iter().enumerate() {
            d.hists[i].buckets[b] = v - prev.hists.get(i).map_or(0, |p| p.buckets[b]);
        }
    }
    let mut pi = 0;
    for pg in &cur.pages {
        while pi < prev.pages.len() && prev.pages[pi].page < pg.page {
            pi += 1;
        }
        let p = prev.pages.get(pi).filter(|p| p.page == pg.page);
        let base = p.copied().unwrap_or_default();
        if base == *pg {
            continue;
        }
        d.pages.push(PageMetrics {
            page: pg.page,
            faults: pg.faults - base.faults,
            fetches: pg.fetches - base.fetches,
            diffs: pg.diffs - base.diffs,
            invals: pg.invals - base.invals,
            migrates: pg.migrates - base.migrates,
            sharers: pg.sharers,
            handoffs: pg.handoffs - base.handoffs,
            diff_bytes: pg.diff_bytes - base.diff_bytes,
            fetch_wait_ns: pg.fetch_wait_ns - base.fetch_wait_ns,
        });
    }
    let mut pi = 0;
    for (name, v) in &cur.gauges {
        while pi < prev.gauges.len() && prev.gauges[pi].0 < *name {
            pi += 1;
        }
        let same = prev
            .gauges
            .get(pi)
            .map_or(false, |(pn, pv)| pn == name && pv == v);
        if !same {
            d.gauges.push((name.clone(), *v));
        }
    }
    d
}

/// Whether a delta carries no change at all (relative to a previous
/// dropped-events level).
pub fn delta_is_empty(prev_dropped: u64, d: &MetricsSnapshot) -> bool {
    d.nodes.is_empty()
        && d.kinds.is_empty()
        && d.pages.is_empty()
        && d.gauges.is_empty()
        && d.dropped_events == prev_dropped
        && d.hists.iter().all(|h| h.buckets.iter().all(|&b| b == 0))
}

/// Folds one frame delta into an accumulator, applying the per-field
/// rules from the module docs. Folding every frame of a stream into
/// [`fold`]'s empty accumulator reproduces the final snapshot exactly.
pub fn fold_into(acc: &mut MetricsSnapshot, d: &MetricsSnapshot) {
    acc.dropped_events = d.dropped_events;
    for n in &d.nodes {
        let idx = acc.nodes.iter().position(|a| a.node == n.node);
        match idx {
            Some(i) => {
                for k in 0..Layer::COUNT {
                    acc.nodes[i].layer_ns[k] += n.layer_ns[k];
                    acc.nodes[i].layer_events[k] += n.layer_events[k];
                }
            }
            None => {
                let at = acc
                    .nodes
                    .iter()
                    .position(|a| a.node > n.node)
                    .unwrap_or(acc.nodes.len());
                acc.nodes.insert(at, n.clone());
            }
        }
    }
    for k in &d.kinds {
        match acc.kinds.iter().position(|a| a.name == k.name) {
            Some(i) => {
                acc.kinds[i].count += k.count;
                acc.kinds[i].total_ns += k.total_ns;
                acc.kinds[i].min_ns = k.min_ns;
                acc.kinds[i].max_ns = k.max_ns;
            }
            None => {
                let at = acc
                    .kinds
                    .iter()
                    .position(|a| a.name > k.name)
                    .unwrap_or(acc.kinds.len());
                acc.kinds.insert(at, k.clone());
            }
        }
    }
    for (i, h) in d.hists.iter().enumerate() {
        for (b, &v) in h.buckets.iter().enumerate() {
            acc.hists[i].buckets[b] += v;
        }
    }
    for pg in &d.pages {
        match acc.pages.iter().position(|a| a.page == pg.page) {
            Some(i) => {
                let a = &mut acc.pages[i];
                a.faults += pg.faults;
                a.fetches += pg.fetches;
                a.diffs += pg.diffs;
                a.invals += pg.invals;
                a.migrates += pg.migrates;
                a.sharers = pg.sharers;
                a.handoffs += pg.handoffs;
                a.diff_bytes += pg.diff_bytes;
                a.fetch_wait_ns += pg.fetch_wait_ns;
            }
            None => {
                let at = acc
                    .pages
                    .iter()
                    .position(|a| a.page > pg.page)
                    .unwrap_or(acc.pages.len());
                acc.pages.insert(at, *pg);
            }
        }
    }
    for (name, v) in &d.gauges {
        match acc.gauges.iter().position(|(an, _)| an == name) {
            Some(i) => acc.gauges[i].1 = *v,
            None => {
                let at = acc
                    .gauges
                    .iter()
                    .position(|(an, _)| an.as_str() > name.as_str())
                    .unwrap_or(acc.gauges.len());
                acc.gauges.insert(at, (name.clone(), *v));
            }
        }
    }
}

/// Folds a whole stream of frames back into the snapshot they were cut
/// from.
pub fn fold<'a>(frames: impl IntoIterator<Item = &'a DeltaFrame>) -> MetricsSnapshot {
    let mut acc = empty_snapshot();
    for f in frames {
        fold_into(&mut acc, &f.delta);
    }
    acc
}

/// End-of-series accounting returned by [`crate::ObsSink::series_finish`].
#[derive(Debug)]
pub struct SeriesSummary {
    /// Frames cut over the series' lifetime (one per non-empty window).
    pub frames: u64,
    /// The first error the stream's writer returned; nothing was written
    /// after it.
    pub error: Option<io::Error>,
}

/// Live sampler state, owned by the sink behind its mutex.
pub(crate) struct SeriesState {
    pub(crate) sample_ns: u64,
    pub(crate) window_start: u64,
    /// Largest completion timestamp observed (end of the final partial
    /// window).
    pub(crate) last_ns: u64,
    frames: u64,
    prev: MetricsSnapshot,
    window_stall: [u64; BUCKETS],
    out: Box<dyn Write + Send>,
    error: Option<io::Error>,
}

impl std::fmt::Debug for SeriesState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesState")
            .field("sample_ns", &self.sample_ns)
            .field("window_start", &self.window_start)
            .field("frames", &self.frames)
            .finish()
    }
}

impl SeriesState {
    /// A series over `out`, whose header line is written at once.
    pub(crate) fn new(out: Box<dyn Write + Send>, kernel: &str, sample_ns: u64) -> Self {
        assert!(sample_ns > 0, "sample_ns must be positive");
        let mut st = SeriesState {
            sample_ns,
            window_start: 0,
            last_ns: 0,
            frames: 0,
            prev: empty_snapshot(),
            window_stall: [0; BUCKETS],
            out,
            error: None,
        };
        st.write_line(&header_line(kernel, sample_ns));
        st
    }

    /// Writes and flushes one line; after the first error nothing more is
    /// written.
    fn write_line(&mut self, line: &str) {
        if self.error.is_none() {
            let res = writeln!(self.out, "{line}").and_then(|()| self.out.flush());
            self.error = res.err();
        }
    }

    /// Charges one just-recorded event to the current window's stall mix
    /// ([`stall::classify`], as [`stall::analyze`] does, minus the
    /// flattening).
    pub(crate) fn classify(
        &mut self,
        node: u32,
        track: u64,
        at_ns: u64,
        dur_ns: u64,
        event: &Event,
    ) {
        self.last_ns = self.last_ns.max(at_ns + dur_ns);
        if track == NIC_TRACK {
            return;
        }
        if let Some((s, e, b)) = stall::classify(node, track, at_ns, dur_ns, event) {
            self.window_stall[b as usize] += e - s;
        }
    }

    /// Cuts the current window at `boundary_ns` (already aligned down by
    /// the caller) against the registry snapshot `cur`, writing a frame
    /// if anything changed.
    pub(crate) fn roll(&mut self, cur: MetricsSnapshot, boundary_ns: u64) {
        debug_assert!(boundary_ns > self.window_start);
        let d = delta(&self.prev, &cur);
        let empty = delta_is_empty(self.prev.dropped_events, &d)
            && self.window_stall.iter().all(|&s| s == 0);
        if !empty {
            let frame = DeltaFrame {
                seq: self.frames,
                start_ns: self.window_start,
                end_ns: boundary_ns,
                stall_ns: std::mem::take(&mut self.window_stall),
                delta: d,
            };
            self.write_line(&frame_line(&frame));
            self.frames += 1;
            self.prev = cur;
        }
        self.window_start = boundary_ns;
    }

    /// The first boundary after the current window (`window_start +
    /// sample_ns`).
    pub(crate) fn next_boundary(&self) -> u64 {
        self.window_start.saturating_add(self.sample_ns)
    }

    /// Cuts the final partial window and writes the end line; consumes
    /// the state (closing the writer).
    pub(crate) fn finish(mut self, cur: MetricsSnapshot, sim_time_ns: u64) -> SeriesSummary {
        let end = self.last_ns.max(self.window_start) + 1;
        self.roll(cur.clone(), end);
        self.write_line(&end_line(sim_time_ns, self.frames, &cur));
        SeriesSummary {
            frames: self.frames,
            error: self.error,
        }
    }
}

/// One row of the windowed table `cablestat series` folds a stream into
/// (and the benches embed into `BENCH_obs_*.json`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRow {
    /// Window start, simulated ns.
    pub start_ns: u64,
    /// Window end, simulated ns (exclusive).
    pub end_ns: u64,
    /// Event records aggregated this window.
    pub events: u64,
    /// Protocol counter deltas this window: faults, fetches, diffs,
    /// invalidations (summed over pages).
    pub faults: u64,
    /// Page fetches this window.
    pub fetches: u64,
    /// Diffs sent this window.
    pub diffs: u64,
    /// Acquire-time invalidations this window.
    pub invals: u64,
    /// Home migrations this window (summed over pages; nonzero only when
    /// something calls `migrate_home`).
    pub migrates: u64,
    /// Stall mix recorded this window, in [`Bucket::ALL`] order.
    pub stall_ns: [u64; BUCKETS],
    /// Interpolated percentiles of the window's SAN message latencies
    /// (from the window's own histogram buckets): p50, p95, p99.
    pub san_p: [u64; 3],
    /// Service requests completed this window (the [`Layer::Service`]
    /// histogram's bucket-count delta; 0 for batch kernels).
    pub svc: u64,
    /// Interpolated percentiles of the window's service request
    /// latencies: p50, p95, p99. All zero when `svc == 0`.
    pub svc_p: [u64; 3],
}

/// Folds frames into windowed table rows (one per frame).
pub fn windowed_table(frames: &[DeltaFrame]) -> Vec<WindowRow> {
    frames
        .iter()
        .map(|f| {
            let san = &f.delta.hists[Layer::San.index()];
            let svc = &f.delta.hists[Layer::Service.index()];
            WindowRow {
                start_ns: f.start_ns,
                end_ns: f.end_ns,
                events: f.events(),
                faults: f.delta.pages.iter().map(|p| p.faults).sum(),
                fetches: f.delta.pages.iter().map(|p| p.fetches).sum(),
                diffs: f.delta.pages.iter().map(|p| p.diffs).sum(),
                invals: f.delta.pages.iter().map(|p| p.invals).sum(),
                migrates: f.delta.pages.iter().map(|p| p.migrates).sum(),
                stall_ns: f.stall_ns,
                san_p: [
                    san.percentile(50.0),
                    san.percentile(95.0),
                    san.percentile(99.0),
                ],
                svc: svc.buckets.iter().sum(),
                svc_p: [
                    svc.percentile(50.0),
                    svc.percentile(95.0),
                    svc.percentile(99.0),
                ],
            }
        })
        .collect()
}

/// One row of the `"windows"` table of `BENCH_obs_*.json` and
/// `cablestat series --json`.
impl ToJson for WindowRow {
    fn write_json(&self, w: &mut Writer) {
        w.obj()
            .field("start_ns", self.start_ns)
            .field("end_ns", self.end_ns);
        w.field("events", self.events);
        w.field("faults", self.faults)
            .field("fetches", self.fetches);
        w.field("diffs", self.diffs).field("invals", self.invals);
        // Sparse, like the stall buckets below: runs without migrations
        // carry no migration column.
        if self.migrates > 0 {
            w.field("migrates", self.migrates);
        }
        w.key("stall_ns").obj();
        for b in Bucket::ALL {
            let v = self.stall_ns[b as usize];
            if v > 0 {
                w.field(b.name(), v);
            }
        }
        w.end();
        let (s, v) = (self.san_p, self.svc_p);
        w.field("san_p50", s[0])
            .field("san_p95", s[1])
            .field("san_p99", s[2]);
        w.field("svc", self.svc);
        w.field("svc_p50", v[0])
            .field("svc_p95", v[1])
            .field("svc_p99", v[2])
            .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::metrics::Registry;

    fn snap_after(n: usize) -> (Registry, MetricsSnapshot) {
        let mut r = Registry::new();
        for i in 0..n {
            r.aggregate(
                Layer::Proto,
                (i % 3) as u32,
                0,
                (i as u64) * 7,
                &Event::Fault {
                    page: (i % 5) as u64,
                    write: i % 2 == 0,
                },
            );
        }
        let s = r.snapshot(0);
        (r, s)
    }

    #[test]
    fn delta_then_fold_roundtrips() {
        let (mut r, s1) = snap_after(10);
        r.aggregate(
            Layer::San,
            1,
            0,
            7_800,
            &Event::SanSend { to: 0, bytes: 64 },
        );
        r.aggregate(Layer::Proto, 2, 90, 0, &Event::Diff { page: 1, bytes: 32 });
        let fetch = Event::Edge {
            kind: crate::EdgeKind::PageFetch,
            src_node: 2,
            src_track: 1,
            src_ns: 60,
            obj: 1,
        };
        r.aggregate(Layer::Proto, 2, 95, 0, &fetch);
        r.gauge_set("g", 5);
        let s2 = r.snapshot(2);
        let d1 = delta(&empty_snapshot(), &s1);
        let d2 = delta(&s1, &s2);
        let mut acc = empty_snapshot();
        fold_into(&mut acc, &d1);
        fold_into(&mut acc, &d2);
        assert_eq!(acc, s2);
        let p1 = d2.pages.iter().find(|p| p.page == 1).unwrap();
        assert_eq!((p1.diff_bytes, p1.fetch_wait_ns), (32, 35));
    }

    #[test]
    fn empty_delta_detected() {
        let (_, s) = snap_after(4);
        let d = delta(&s, &s);
        assert!(delta_is_empty(s.dropped_events, &d));
        let d0 = delta(&empty_snapshot(), &s);
        assert!(!delta_is_empty(0, &d0));
    }
}
