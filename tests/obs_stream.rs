//! Streaming-telemetry properties: the online metric series
//! (`obs::series`) must be *exact* — frames re-sum to the final
//! snapshot, field for field — *inert* — enabling the stream never moves
//! a simulated result — and *deterministic* — the same program writes the
//! same bytes, however many windows it cuts. Checked on arbitrary event
//! soups (proptest) through the NDJSON bytes the sink writes — which
//! parse and re-serialize to themselves — and on a real instrumented FFT
//! run.

use std::io::Write;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use cables_suite::apps::splash::fft;
use cables_suite::apps::M4System;
use cables_suite::obs::series::{self, SeriesSummary};
use cables_suite::obs::stream::{end_line, frame_line, header_line, parse_stream, Stream};
use cables_suite::obs::{json, EdgeKind, Event, Layer, MetricsSnapshot, ObsSink};
use cables_suite::sim::{NodeId, SimTime};
use cables_suite::svm::{Cluster, ClusterConfig};

/// An in-memory stream the test reads back while the sink owns the
/// writer.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl Write for Buf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Buf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("stream is UTF-8")
    }
}

/// Starts a series on `sink` that writes into a fresh [`Buf`].
fn start(sink: &ObsSink, kernel: &str, sample_ns: u64) -> Buf {
    let buf = Buf::default();
    sink.series_start(kernel, sample_ns, Box::new(buf.clone()));
    buf
}

/// One soup entry: which event, where, when, how long.
#[derive(Debug, Clone, Copy)]
struct Soup {
    kind: u8,
    node: u32,
    track: u64,
    at: u64,
    dur: u64,
}

fn soup_strategy() -> impl Strategy<Value = Vec<Soup>> {
    prop::collection::vec(
        (0u8..7, 0u32..4, 0u64..3, 0u64..20_000, 0u64..800).prop_map(
            |(kind, node, track, at, dur)| Soup {
                kind,
                node,
                track,
                at,
                dur,
            },
        ),
        1..120,
    )
}

/// Feeds one soup entry to the sink (mixes layers, pages, sync kinds —
/// every delta-grammar field class gets exercised).
fn feed(sink: &ObsSink, s: Soup) {
    let at = SimTime::from_nanos(s.at);
    let node = NodeId(s.node);
    match s.kind {
        0 => sink.span(
            Layer::Proto,
            node,
            s.track,
            at,
            s.dur,
            Event::FaultSpan {
                page: (s.at % 7) as u64,
                write: s.dur % 2 == 0,
            },
        ),
        1 => sink.instant(
            Layer::Proto,
            node,
            s.track,
            at,
            Event::Fault {
                page: (s.at % 7) as u64,
                write: true,
            },
        ),
        2 => sink.span(
            Layer::San,
            node,
            s.track,
            at,
            s.dur,
            Event::SanSend {
                to: (s.node + 1) % 4,
                bytes: s.dur + 1,
            },
        ),
        3 => sink.span(
            Layer::Sync,
            node,
            s.track,
            at,
            s.dur,
            Event::BarrierWait { id: 9 },
        ),
        4 => sink.instant(
            Layer::Proto,
            node,
            s.track,
            at,
            Event::Diff {
                page: (s.at % 5) as u64,
                bytes: s.dur,
            },
        ),
        5 => sink.span(
            Layer::Sync,
            node,
            s.track,
            at,
            s.dur,
            Event::LockWait { id: 3 },
        ),
        _ => sink.edge(
            EdgeKind::PageFetch,
            node,
            s.track,
            SimTime::from_nanos(s.at.saturating_sub(s.dur)),
            node,
            s.track,
            at,
            (s.at % 7) as u64,
        ),
    }
}

/// Runs a soup through a streaming sink, returning the NDJSON bytes it
/// wrote, the series summary, and the final snapshot.
fn stream_soup(soup: &[Soup], sample_ns: u64) -> (String, SeriesSummary, MetricsSnapshot) {
    let sink = ObsSink::new();
    sink.set_enabled(true);
    let buf = start(&sink, "SOUP", sample_ns);
    for &s in soup {
        feed(&sink, s);
    }
    let end = soup.iter().map(|s| s.at + s.dur).max().unwrap_or(0);
    let summary = sink.series_finish(end).expect("series was running");
    assert!(summary.error.is_none());
    (buf.text(), summary, sink.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exactness invariant, through the bytes: for ANY event soup and
    /// ANY window width, the NDJSON the sink writes parses, its frames fold
    /// back to the final snapshot field-for-field — counters, gauges,
    /// histogram buckets, page sharer counts — and to the end line's embedded
    /// copy, with dense seqs and monotone, non-overlapping windows.
    #[test]
    fn frames_fold_back_exactly(soup in soup_strategy(), sample_ns in 1u64..5_000) {
        let (text, summary, snapshot) = stream_soup(&soup, sample_ns);
        let parsed = parse_stream(&text).expect("stream grammar");
        parsed.verify_fold().expect("frames fold to embedded snapshot");
        prop_assert_eq!(parsed.header.sample_ns, sample_ns);
        prop_assert_eq!(parsed.frames.len() as u64, summary.frames);
        prop_assert_eq!(series::fold(parsed.frames.iter()), snapshot);
        for (i, f) in parsed.frames.iter().enumerate() {
            prop_assert_eq!(f.seq, i as u64);
            prop_assert!(f.start_ns < f.end_ns);
            if i > 0 {
                prop_assert!(f.start_ns >= parsed.frames[i - 1].end_ns);
            }
        }
    }

    /// NDJSON round trip: the stream the sink writes parses, and
    /// serializing what was parsed — header, frames, end line — gives back
    /// the same bytes, which parse again to the same frames.
    #[test]
    fn ndjson_roundtrip_is_exact(soup in soup_strategy(), sample_ns in 1u64..5_000) {
        let (text, summary, snapshot) = stream_soup(&soup, sample_ns);
        let parsed = parse_stream(&text).expect("stream grammar");
        parsed.verify_fold().expect("frames fold to embedded snapshot");
        let end = parsed.end.as_ref().expect("end line");
        prop_assert_eq!(end.frames, summary.frames);
        prop_assert_eq!(&end.snapshot, &snapshot);
        let mut again = header_line(&parsed.header.kernel, parsed.header.sample_ns);
        again.push('\n');
        for f in &parsed.frames {
            again.push_str(&frame_line(f));
            again.push('\n');
        }
        again.push_str(&end_line(end.sim_time_ns, end.frames, &end.snapshot));
        again.push('\n');
        prop_assert_eq!(&again, &text);
        let reparsed = parse_stream(&again).expect("stream grammar");
        prop_assert_eq!(reparsed.frames, parsed.frames);
        prop_assert_eq!(reparsed.header.sample_ns, sample_ns);
    }

    /// The snapshot's one codec is exact: for ANY event soup, the final
    /// snapshot written by its `ToJson`, parsed and read back by
    /// `from_value` is the same snapshot — including the sharer count of
    /// a page that only nodes other than node 0 faulted on, and each
    /// page's diffed bytes and fetch waits.
    #[test]
    fn snapshot_json_roundtrip_is_exact(soup in soup_strategy()) {
        let sink = ObsSink::new();
        sink.set_enabled(true);
        for &s in &soup {
            feed(&sink, s);
        }
        let snapshot = sink.snapshot();
        let value = json::parse(&json::pretty(&snapshot)).expect("snapshot JSON parses");
        prop_assert_eq!(MetricsSnapshot::from_value(&value), Ok(snapshot));
    }
}

/// More windows than any bounded queue would hold, and nobody reading
/// while they are cut: every non-empty window is its own frame, and a
/// second run writes the same bytes.
#[test]
fn thousands_of_windows_stream_one_frame_each_deterministically() {
    const WINDOWS: u64 = 3_000;
    let run = || {
        let soup: Vec<Soup> = (0..WINDOWS)
            .map(|t| Soup {
                kind: (t % 6) as u8,
                node: (t % 4) as u32,
                track: t % 3,
                at: t,
                dur: 0,
            })
            .collect();
        stream_soup(&soup, 1)
    };
    let (text, summary, snapshot) = run();
    let parsed = parse_stream(&text).expect("stream grammar");
    parsed
        .verify_fold()
        .expect("frames fold to embedded snapshot");
    assert_eq!(summary.frames, WINDOWS);
    assert_eq!(parsed.frames.len() as u64, WINDOWS);
    for (t, f) in parsed.frames.iter().enumerate() {
        assert_eq!(
            (f.start_ns, f.end_ns),
            (t as u64, t as u64 + 1),
            "frame {t}"
        );
    }
    assert_eq!(series::fold(parsed.frames.iter()), snapshot);
    assert_eq!(run().0, text, "a second run wrote different bytes");
}

/// One FFT run; with `sample_ns` the online series runs at that window
/// width. Returns the end time and (when streamed) the stream's bytes,
/// their parse and the final snapshot.
fn fft_run(sample_ns: Option<u64>) -> (u64, Option<(String, Stream, MetricsSnapshot)>) {
    let cluster = Cluster::build(ClusterConfig::small(4, 2));
    let sys = M4System::cables(Arc::clone(&cluster));
    sys.svm().set_obs(true);
    let buf = sample_ns.map(|w| start(sys.svm().obs(), "FFT", w));
    let end = sys
        .run(|ctx| {
            let p = fft::FftParams {
                m: 8,
                nprocs: 8,
                verify: false,
            };
            fft::fft(ctx, &p);
        })
        .expect("fft run")
        .as_nanos();
    let streamed = buf.map(|buf| {
        let svm = sys.svm();
        let sink = svm.obs();
        let summary = sink.series_finish(end).expect("series was running");
        assert!(summary.error.is_none());
        let text = buf.text();
        let s = parse_stream(&text).expect("stream grammar");
        assert_eq!(s.frames.len() as u64, summary.frames);
        (text, s, sink.snapshot())
    });
    (end, streamed)
}

/// Streaming must be bit-inert on a real instrumented kernel (same
/// simulated end time as plain recording) and exact (frames fold to the
/// run's final snapshot).
#[test]
fn streaming_is_inert_and_exact_on_fft() {
    let (t_plain, _) = fft_run(None);
    let (t_streamed, streamed) = fft_run(Some(1_000_000));
    assert_eq!(
        t_plain, t_streamed,
        "enabling the streaming series changed the simulated result"
    );
    let (_, s, snapshot) = streamed.expect("streamed run");
    assert!(!s.frames.is_empty(), "instrumented FFT produced no frames");
    s.verify_fold().expect("frames fold to embedded snapshot");
    assert_eq!(s.end.as_ref().expect("end line").sim_time_ns, t_streamed);
    assert_eq!(series::fold(s.frames.iter()), snapshot);
    // The windowed table covers the whole run and sees protocol traffic.
    let rows = series::windowed_table(&s.frames);
    assert_eq!(rows.len(), s.frames.len());
    assert!(
        rows.iter().any(|r| r.faults > 0),
        "no window saw a page fault"
    );
}

/// A fine window cuts hundreds of frames while the kernel's threads
/// record events from several nodes at once; two runs still write the
/// same bytes.
#[test]
fn fine_windows_on_fft_stream_identical_bytes_across_runs() {
    let stream = || fft_run(Some(1_000)).1.expect("streamed run");
    let (text, s, snapshot) = stream();
    assert!(
        s.frames.len() >= 100,
        "a 1 µs window cut only {} frames",
        s.frames.len()
    );
    s.verify_fold().expect("frames fold to embedded snapshot");
    assert_eq!(series::fold(s.frames.iter()), snapshot);
    assert_eq!(stream().0, text, "a second run wrote different bytes");
}

/// `series_finish` without `series_start` is a no-op, and a fresh series
/// after `clear` starts from an empty baseline.
#[test]
fn series_lifecycle_edges() {
    let sink = ObsSink::new();
    sink.set_enabled(true);
    assert!(sink.series_finish(0).is_none());
    let first = start(&sink, "A", 100);
    feed(
        &sink,
        Soup {
            kind: 0,
            node: 0,
            track: 0,
            at: 10,
            dur: 5,
        },
    );
    sink.clear();
    // The cleared series is gone: no summary, and its stream stops after
    // the header (the open window was never cut).
    assert!(sink.series_finish(0).is_none());
    let abandoned = parse_stream(&first.text()).expect("stream grammar");
    assert!(abandoned.frames.is_empty() && abandoned.end.is_none());
    // A new series folds only post-clear traffic.
    let second = start(&sink, "B", 100);
    feed(
        &sink,
        Soup {
            kind: 2,
            node: 1,
            track: 0,
            at: 50,
            dur: 7,
        },
    );
    sink.series_finish(57).expect("series was running");
    let s = parse_stream(&second.text()).expect("stream grammar");
    s.verify_fold().expect("frames fold to embedded snapshot");
    assert_eq!(series::fold(s.frames.iter()), sink.snapshot());
}
