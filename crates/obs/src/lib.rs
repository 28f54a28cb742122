//! # cables-obs — deterministic cross-layer observability
//!
//! A typed event bus plus metric registries threaded through every layer
//! of the CableS reproduction (`san`, `vmmc`, `svm`, `cables`, and the
//! `sim` engine's scheduling points). Three rules keep it faithful to the
//! simulation:
//!
//! 1. **Deterministic.** Every timestamp is a [`SimTime`]; recording
//!    happens from simulated threads, which the engine serializes, so the
//!    buffer order — and every exported byte — is a pure function of the
//!    program. No wall clocks, no sampling.
//! 2. **Zero simulated cost.** Recording never charges virtual time.
//!    With the sink disabled the only work on any path is one relaxed
//!    atomic load; simulated results are bit-identical either way
//!    (enforced by `tests/obs_equiv.rs`).
//! 3. **Bounded.** The event buffer is capped; on overflow the new record
//!    is dropped and counted in [`MetricsSnapshot::dropped_events`]
//!    (metrics still aggregate dropped events — only the event *record*
//!    is lost).
//!
//! Exporters: [`chrome::export`] writes a `chrome://tracing`/Perfetto
//! JSON file (nodes → processes, threads → tracks);
//! [`report::full_report`] renders paper-style tables from a snapshot;
//! [`MetricsSnapshot::to_json`] serializes the registries; a running
//! series ([`ObsSink::series_start`]) writes its [`stream`] line by line
//! from the recording path, so the file too is a pure function of the
//! program.
//!
//! # Examples
//!
//! ```
//! use cables_obs::{chrome, Event, Layer, ObsSink};
//! use sim::{NodeId, SimTime};
//!
//! let sink = ObsSink::new();
//! sink.set_enabled(true);
//! if sink.on() {
//!     sink.span(
//!         Layer::San,
//!         NodeId(0),
//!         cables_obs::NIC_TRACK,
//!         SimTime::ZERO,
//!         7_800,
//!         Event::SanSend { to: 1, bytes: 4 },
//!     );
//! }
//! let snap = sink.snapshot();
//! assert_eq!(snap.nodes[0].layer_ns[Layer::San.index()], 7_800);
//! let json = chrome::export(&sink.events());
//! cables_obs::json::validate(&json).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod critpath;
pub mod diff;
mod event;
pub mod explain;
pub mod json;
mod metrics;
pub mod report;
pub mod series;
pub mod sharing;
pub mod stall;
pub mod stream;

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use sim::{Local, NodeId, SimTime};

pub use event::{
    canonical_sort, EdgeKind, Event, EventRecord, Layer, SchedKind, ServiceOp, NIC_TRACK,
};
pub use metrics::{Histogram, KindAgg, MetricsSnapshot, NodeMetrics, PageMetrics, HIST_BUCKETS};

use metrics::Registry;
use series::{SeriesState, SeriesSummary};

/// Default event-buffer capacity (records beyond this are dropped and
/// counted, never silently discarded).
pub const DEFAULT_CAP: usize = 1 << 20;

struct SinkInner {
    events: Vec<EventRecord>,
    registry: Registry,
    series: Option<SeriesState>,
}

/// The shared observability sink: one per cluster, reachable from every
/// layer.
///
/// One toggle, [`ObsSink::set_enabled`] (all events + metrics), off by
/// default. Hot paths call [`ObsSink::on`] (one relaxed atomic load)
/// before building an event.
pub struct ObsSink {
    enabled: AtomicBool,
    cap: usize,
    dropped: AtomicU64,
    /// Series window width in simulated ns; 0 = no series running. The
    /// hot-path streaming check is one relaxed load of this.
    sample_ns: AtomicU64,
    /// Next window boundary ([`ObsSink::series_tick`]'s check before it
    /// borrows the sink).
    next_boundary: AtomicU64,
    inner: Local<SinkInner>,
}

impl std::fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Some(inner) = self.inner.try_lock() else {
            return f.write_str("ObsSink { <borrowed> }");
        };
        f.debug_struct("ObsSink")
            .field("enabled", &self.on())
            .field("events", &inner.events.len())
            .finish()
    }
}

impl Default for ObsSink {
    fn default() -> Self {
        ObsSink::new()
    }
}

impl ObsSink {
    /// Creates a disabled sink with the default buffer capacity.
    pub fn new() -> Self {
        ObsSink::with_capacity(DEFAULT_CAP)
    }

    /// Creates a disabled sink with an explicit buffer capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ObsSink {
            enabled: AtomicBool::new(false),
            cap,
            dropped: AtomicU64::new(0),
            sample_ns: AtomicU64::new(0),
            next_boundary: AtomicU64::new(u64::MAX),
            inner: Local::new(SinkInner {
                events: Vec::new(),
                registry: Registry::new(),
                series: None,
            }),
        }
    }

    /// Whether full observability is on (hot-path check).
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables full observability. Disabling keeps already
    /// recorded data (call [`ObsSink::clear`] to discard it).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records a span of `dur_ns` simulated nanoseconds starting at `at`.
    pub fn span(
        &self,
        layer: Layer,
        node: NodeId,
        track: u64,
        at: SimTime,
        dur_ns: u64,
        event: Event,
    ) {
        if !self.on() {
            return;
        }
        let mut g = self.inner.lock();
        if self.sample_ns.load(Ordering::Relaxed) != 0 {
            // Streaming: cut the window *before* aggregating, so this
            // event lands in the window containing its completion,
            // then charge it to the live stall mix.
            let end_ns = at.as_nanos().saturating_add(dur_ns);
            self.series_roll_locked(&mut g, end_ns);
            if let Some(st) = g.series.as_mut() {
                st.classify(node.0, track, at.as_nanos(), dur_ns, &event);
            }
        }
        g.registry.aggregate(layer, node.0, dur_ns, &event);
        if g.events.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        g.events.push(EventRecord {
            at,
            dur_ns,
            node,
            track,
            layer,
            event,
        });
    }

    /// Records an instantaneous event at `at`.
    pub fn instant(&self, layer: Layer, node: NodeId, track: u64, at: SimTime, event: Event) {
        self.span(layer, node, track, at, 0, event);
    }

    /// Records a causal edge: the cause at `(src_node, src_track, src)`
    /// enabled the effect at `(node, track, at)`. `obj` identifies what
    /// the dependency is about (page, lock id, thread id, bytes — keyed by
    /// `kind`). Edges charge no simulated time; they only annotate the
    /// trace for `critpath` and the Perfetto flow arrows.
    #[allow(clippy::too_many_arguments)]
    pub fn edge(
        &self,
        kind: EdgeKind,
        src_node: NodeId,
        src_track: u64,
        src: SimTime,
        node: NodeId,
        track: u64,
        at: SimTime,
        obj: u64,
    ) {
        self.instant(
            kind.layer(),
            node,
            track,
            at,
            Event::Edge {
                kind,
                src_node: src_node.0,
                src_track,
                src_ns: src.as_nanos(),
                obj,
            },
        );
    }

    /// Raises the named gauge to at least `v` (no-op when disabled).
    pub fn gauge_max(&self, name: &str, v: u64) {
        if !self.on() {
            return;
        }
        self.inner.lock().registry.gauge_max(name, v);
    }

    /// Sets the named gauge (no-op when disabled).
    pub fn gauge_set(&self, name: &str, v: u64) {
        if !self.on() {
            return;
        }
        self.inner.lock().registry.gauge_set(name, v);
    }

    /// Number of records dropped on buffer overflow so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A clone of the recorded events, in recording order.
    pub fn events(&self) -> Vec<EventRecord> {
        self.inner.lock().events.clone()
    }

    /// Drains the recorded events.
    pub fn take_events(&self) -> Vec<EventRecord> {
        std::mem::take(&mut self.inner.lock().events)
    }

    /// A deterministic snapshot of every metric registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .lock()
            .registry
            .snapshot(self.dropped.load(Ordering::Relaxed))
    }

    /// Discards all recorded events and metrics and resets the dropped
    /// counter (the toggle is left as it is). An active series is
    /// abandoned: its writer is dropped after the frames already cut, with
    /// no end line.
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.events.clear();
        g.registry.clear();
        g.series = None;
        self.sample_ns.store(0, Ordering::Relaxed);
        self.next_boundary.store(u64::MAX, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Starts an online metric series (see [`series`] for the delta
    /// grammar) that writes the [`stream`] for `kernel` to `out`: the
    /// header now, each frame when its window is cut. Frames cover
    /// everything recorded since the sink was created/cleared, so the fold
    /// of the stream reproduces [`ObsSink::snapshot`] exactly. Replaces
    /// any series already running.
    pub fn series_start(&self, kernel: &str, sample_ns: u64, out: Box<dyn Write + Send>) {
        let st = SeriesState::new(out, kernel, sample_ns);
        self.inner.lock().series = Some(st);
        self.sample_ns.store(sample_ns, Ordering::Relaxed);
        self.next_boundary.store(sample_ns, Ordering::Relaxed);
    }

    /// Whether a series is running (one relaxed load).
    #[inline]
    pub fn series_on(&self) -> bool {
        self.sample_ns.load(Ordering::Relaxed) != 0
    }

    /// Advances the series clock to `now`: cuts the pending window(s) if
    /// `now` crossed a boundary. Cheap when no series is running or the
    /// boundary is far (two relaxed loads, no lock) — instrumented code
    /// calls this from places that *don't* record events, bounding how
    /// stale a live `cablestat tail` view can get.
    #[inline]
    pub fn series_tick(&self, now: SimTime) {
        if self.sample_ns.load(Ordering::Relaxed) == 0
            || now.as_nanos() < self.next_boundary.load(Ordering::Relaxed)
        {
            return;
        }
        let mut g = self.inner.lock();
        self.series_roll_locked(&mut g, now.as_nanos());
    }

    /// Cuts the final partial window, writes the end line (run end
    /// `sim_time_ns`, the final snapshot) and stops the series, returning
    /// its accounting (or `None` if no series was running). A write error
    /// is reported in [`SeriesSummary::error`], never raised on the
    /// simulated thread that cut the window.
    pub fn series_finish(&self, sim_time_ns: u64) -> Option<SeriesSummary> {
        let mut g = self.inner.lock();
        let st = g.series.take()?;
        self.sample_ns.store(0, Ordering::Relaxed);
        self.next_boundary.store(u64::MAX, Ordering::Relaxed);
        let cur = g.registry.snapshot(self.dropped.load(Ordering::Relaxed));
        Some(st.finish(cur, sim_time_ns))
    }

    /// Cuts windows up to (but excluding) the one containing `now_ns`.
    /// Caller holds the sink borrow and has checked the fast path.
    fn series_roll_locked(&self, g: &mut SinkInner, now_ns: u64) {
        let SinkInner {
            registry, series, ..
        } = g;
        let Some(st) = series.as_mut() else { return };
        if now_ns < st.next_boundary() {
            return;
        }
        let boundary = now_ns - now_ns % st.sample_ns;
        let cur = registry.snapshot(self.dropped.load(Ordering::Relaxed));
        st.roll(cur, boundary);
        self.next_boundary
            .store(st.next_boundary(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn rec(sink: &ObsSink, at: u64, event: Event) {
        sink.instant(Layer::Proto, NodeId(0), 1, SimTime::from_nanos(at), event);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = ObsSink::new();
        rec(
            &sink,
            10,
            Event::Fault {
                page: 1,
                write: false,
            },
        );
        sink.span(
            Layer::San,
            NodeId(0),
            NIC_TRACK,
            SimTime::ZERO,
            100,
            Event::SanSend { to: 1, bytes: 4 },
        );
        assert!(sink.events().is_empty());
        assert_eq!(sink.snapshot().nodes.len(), 0);
    }

    #[test]
    fn overflow_drops_new_records_and_counts_them() {
        let sink = ObsSink::with_capacity(2);
        sink.set_enabled(true);
        for i in 0..5 {
            rec(&sink, i, Event::Invalidate { page: i });
        }
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.dropped_events(), 3);
        let snap = sink.snapshot();
        assert_eq!(snap.dropped_events, 3);
        // Metrics still saw all five events.
        assert_eq!(snap.nodes[0].layer_events[Layer::Proto.index()], 5);
    }

    /// An in-memory stream the test reads back while the sink owns the
    /// writer.
    #[derive(Clone, Default)]
    struct Buf(Arc<Local<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Buf {
        fn stream(&self) -> stream::Stream {
            stream::parse_stream(std::str::from_utf8(&self.0.lock()).unwrap()).unwrap()
        }
    }

    #[test]
    fn series_frames_fold_back_to_the_snapshot() {
        let sink = ObsSink::new();
        sink.set_enabled(true);
        let buf = Buf::default();
        sink.series_start("T", 100, Box::new(buf.clone()));
        // Three windows of activity with an empty window (200..300) in
        // between; window boundaries are cut by later completions.
        for (at, dur, page) in [(10, 20, 1), (120, 30, 2), (310, 5, 3), (350, 0, 1)] {
            sink.span(
                Layer::Proto,
                NodeId(0),
                1,
                SimTime::from_nanos(at),
                dur,
                Event::Fault { page, write: false },
            );
        }
        sink.gauge_set("g", 7);
        let summary = sink.series_finish(400).expect("series was running");
        assert!(summary.error.is_none());
        assert!(!sink.series_on());
        let s = buf.stream();
        assert_eq!(s.frames.len() as u64, summary.frames);
        assert_eq!(s.frames.len(), 3, "empty window emits no frame");
        assert!(s.frames.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
        assert_eq!(series::fold(s.frames.iter()), sink.snapshot());
        s.verify_fold().unwrap();
        assert_eq!(s.end.unwrap().sim_time_ns, 400);
        // Streaming never perturbs what was recorded.
        assert_eq!(sink.events().len(), 4);
    }

    #[test]
    fn series_tick_cuts_windows_without_events() {
        let sink = ObsSink::new();
        sink.set_enabled(true);
        let buf = Buf::default();
        sink.series_start("T", 100, Box::new(buf.clone()));
        sink.instant(
            Layer::Proto,
            NodeId(0),
            1,
            SimTime::from_nanos(10),
            Event::Fault {
                page: 1,
                write: true,
            },
        );
        assert!(buf.stream().frames.is_empty(), "window still open");
        sink.series_tick(SimTime::from_nanos(250));
        let s = buf.stream();
        assert_eq!(s.frames.len(), 1);
        assert_eq!(s.frames[0].end_ns, 200);
        assert!(s.end.is_none(), "live stream");
        sink.series_finish(250);
    }

    #[test]
    fn series_write_errors_are_returned_not_raised() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = ObsSink::new();
        sink.set_enabled(true);
        sink.series_start("T", 10, Box::new(Broken));
        for at in [5, 15, 25] {
            rec(&sink, at, Event::Invalidate { page: at });
        }
        let summary = sink.series_finish(30).expect("series was running");
        assert_eq!(summary.frames, 3);
        assert_eq!(
            summary.error.expect("write error kept").to_string(),
            "disk full"
        );
    }

    #[test]
    fn gauges_require_enabled() {
        let sink = ObsSink::new();
        sink.gauge_max("x", 9);
        assert_eq!(sink.snapshot().gauge("x"), None);
        sink.set_enabled(true);
        sink.gauge_max("x", 9);
        sink.gauge_max("x", 3);
        assert_eq!(sink.snapshot().gauge("x"), Some(9));
    }
}
