//! Scoping the event stream to the measured window.
//!
//! Whole-run simulated time is 99.85 % node attach, so everything the
//! benchmark derives from events — the stall partition, per-layer span
//! time — is computed on records clipped to the parallel section (kernels)
//! or the serving window (service).

use obs::{Event, EventRecord, Layer};

/// Clips `events` to the simulated interval `[t0, t1]`: spans are
/// shortened to their overlap with the window (and dropped when it is
/// empty), instants and causal edges are kept when their instant lies in
/// the window, and an edge whose cause precedes the window has its source
/// time raised to `t0` so the wait it describes is only counted from the
/// window's start.
pub fn clip(events: &[EventRecord], t0: u64, t1: u64) -> Vec<EventRecord> {
    let mut out = Vec::new();
    for e in events {
        let at = e.at.as_nanos();
        if e.dur_ns == 0 {
            if at < t0 || at > t1 {
                continue;
            }
            let mut r = e.clone();
            if let Event::Edge { src_ns, .. } = &mut r.event {
                *src_ns = (*src_ns).max(t0);
            }
            out.push(r);
        } else {
            let start = at.max(t0);
            let end = (at + e.dur_ns).min(t1);
            if end <= start {
                continue;
            }
            let mut r = e.clone();
            r.at += start - at;
            r.dur_ns = end - start;
            out.push(r);
        }
    }
    out
}

/// Inclusive span time per layer over (already clipped) records: a fault
/// span includes the VMMC fetch inside it, which includes the SAN time, so
/// these are views of where time was spent, not a partition.
pub fn layer_span_ns(events: &[EventRecord]) -> [u64; Layer::COUNT] {
    let mut sums = [0u64; Layer::COUNT];
    for e in events {
        sums[e.layer.index()] += e.dur_ns;
    }
    sums
}

/// Where the service's serving window starts: the end of the main
/// thread's wait at the worker pools' ready barrier — the only barrier the
/// main thread ever joins, and the instant `run_service` starts its
/// `serve_ns` clock.
pub fn service_window_start(events: &[EventRecord], main_track: u64) -> Option<u64> {
    events
        .iter()
        .filter(|e| e.track == main_track && matches!(e.event, Event::PthBarrierWait { .. }))
        .map(|e| e.at.as_nanos() + e.dur_ns)
        .next_back()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::EdgeKind;
    use sim::{NodeId, SimTime};

    fn span(at: u64, dur: u64, layer: Layer, event: Event) -> EventRecord {
        EventRecord {
            at: SimTime::from_nanos(at),
            dur_ns: dur,
            node: NodeId(0),
            track: 7,
            layer,
            event,
        }
    }

    fn edge(src: u64, at: u64) -> EventRecord {
        span(
            at,
            0,
            Layer::Proto,
            Event::Edge {
                kind: EdgeKind::PageFetch,
                src_node: 0,
                src_track: 7,
                src_ns: src,
                obj: 1,
            },
        )
    }

    fn bar(at: u64, dur: u64) -> EventRecord {
        span(at, dur, Layer::Rt, Event::PthBarrierWait { id: 3 })
    }

    #[test]
    fn spans_are_shortened_to_their_overlap() {
        let ev = [
            bar(0, 50),    // wholly before: dropped
            bar(90, 20),   // straddles t0: 100..110
            bar(120, 30),  // inside: unchanged
            bar(190, 40),  // straddles t1: 190..200
            bar(200, 10),  // starts at t1: empty overlap, dropped
            bar(50, 1000), // covers the window: 100..200
        ];
        let c = clip(&ev, 100, 200);
        let got: Vec<(u64, u64)> = c.iter().map(|e| (e.at.as_nanos(), e.dur_ns)).collect();
        assert_eq!(got, [(100, 10), (120, 30), (190, 10), (100, 100)]);
        assert_eq!(layer_span_ns(&c)[Layer::Rt.index()], 150);
        assert_eq!(layer_span_ns(&c)[Layer::San.index()], 0);
    }

    #[test]
    fn instants_and_edges_keep_their_instant_and_clip_their_cause() {
        let fault = |at| {
            span(
                at,
                0,
                Layer::Proto,
                Event::Fault {
                    page: 1,
                    write: false,
                },
            )
        };
        let ev = [
            fault(99),
            fault(100),
            fault(200),
            fault(201),
            edge(40, 150),
            edge(140, 160),
            edge(10, 90),
        ];
        let c = clip(&ev, 100, 200);
        assert_eq!(c.len(), 4);
        assert_eq!(c[0].at.as_nanos(), 100);
        assert_eq!(c[1].at.as_nanos(), 200);
        let src = |e: &EventRecord| match e.event {
            Event::Edge { src_ns, .. } => src_ns,
            _ => panic!("not an edge"),
        };
        assert_eq!((src(&c[2]), c[2].at.as_nanos()), (100, 150));
        assert_eq!((src(&c[3]), c[3].at.as_nanos()), (140, 160));
    }

    #[test]
    fn clipped_stall_partition_sums_to_the_window() {
        // One thread alive over the whole window: a barrier wait that
        // began before it, compute, and a fetch wait inside a fault.
        let ev = [
            bar(50, 80), // clipped to 100..130
            span(
                150,
                30,
                Layer::Proto,
                Event::FaultSpan {
                    page: 1,
                    write: false,
                },
            ),
            edge(155, 175),
            bar(190, 40), // clipped to 190..200
        ];
        let c = clip(&ev, 100, 200);
        let p = obs::stall::analyze(&c, 0, 0).expect("profile");
        let t = p.totals();
        assert_eq!(t.iter().sum::<u64>(), 100);
        assert_eq!(t[obs::stall::Bucket::BarrierWait as usize], 40);
        assert_eq!(t[obs::stall::Bucket::MsgLatency as usize], 20);
        assert_eq!(t[obs::stall::Bucket::PageFault as usize], 10);
        assert_eq!(t[obs::stall::Bucket::Compute as usize], 30);
    }

    #[test]
    fn service_window_starts_where_the_main_thread_leaves_the_ready_barrier() {
        let mut other = bar(10, 500);
        other.track = 8;
        let ev = [other, bar(100, 40), edge(1, 2)];
        assert_eq!(service_window_start(&ev, 7), Some(140));
        assert_eq!(service_window_start(&ev, 9), None);
    }
}
