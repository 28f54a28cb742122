//! Chrome-trace (`chrome://tracing` / Perfetto) JSON exporter.
//!
//! Nodes map to trace *processes* (`pid`), tracks — simulated threads or
//! the NIC lane — map to trace *threads* (`tid`). Spans become `"X"`
//! (complete) events with a duration; instants become `"i"` events with
//! thread scope; causal edges become Perfetto *flow* pairs (`"s"` at the
//! cause, `"f"` at the effect) so arrows connect the lanes in the
//! timeline. Timestamps are simulated microseconds with nanosecond
//! precision, formatted as exact decimals (never floats), so identical
//! runs export byte-identical files (flow ids are assigned sequentially
//! in recording order).

use std::collections::BTreeSet;
use std::fmt::Write;

use crate::event::{Event, EventRecord, NIC_TRACK};

/// Formats nanoseconds as fixed-point microseconds ("12.345").
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn track_label(track: u64) -> String {
    if track == NIC_TRACK {
        "nic".to_string()
    } else {
        format!("t{track}")
    }
}

/// Renders `events` as a Chrome-trace JSON document.
///
/// Metadata (`process_name`/`thread_name`) is emitted first, sorted by
/// `(node, track)`; the events follow in recording order.
pub fn export(events: &[EventRecord]) -> String {
    let mut nodes: BTreeSet<u32> = BTreeSet::new();
    let mut tracks: BTreeSet<(u32, u64)> = BTreeSet::new();
    for e in events {
        nodes.insert(e.node.0);
        tracks.insert((e.node.0, e.track));
        if let Event::Edge {
            src_node,
            src_track,
            ..
        } = e.event
        {
            nodes.insert(src_node);
            tracks.insert((src_node, src_track));
        }
    }
    let mut j = String::with_capacity(256 + events.len() * 96);
    j.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |j: &mut String| {
        if first {
            first = false;
        } else {
            j.push(',');
        }
        j.push('\n');
    };
    for n in &nodes {
        sep(&mut j);
        let _ = write!(
            j,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{n},\"tid\":0,\"args\":{{\"name\":\"node {n}\"}}}}"
        );
    }
    for (n, t) in &tracks {
        sep(&mut j);
        let _ = write!(
            j,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{n},\"tid\":{t},\"args\":{{\"name\":\"{}\"}}}}",
            track_label(*t)
        );
    }
    let mut flow_id = 0u64;
    for e in events {
        if let Event::Edge {
            src_node,
            src_track,
            src_ns,
            ..
        } = e.event
        {
            // A causal edge renders as a Perfetto flow pair: `"s"` at the
            // cause endpoint, `"f"` (binding to the enclosing slice end)
            // at the effect endpoint.
            flow_id += 1;
            sep(&mut j);
            let _ = write!(
                j,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"id\":{},\"ph\":\"s\",\"pid\":{},\"tid\":{},\"ts\":{},\"args\":{{",
                e.event.kind_name(),
                e.layer.name(),
                flow_id,
                src_node,
                src_track,
                us(src_ns)
            );
            e.event.write_args(&mut j);
            j.push_str("}}");
            sep(&mut j);
            let _ = write!(
                j,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"id\":{},\"ph\":\"f\",\"bp\":\"e\",\"pid\":{},\"tid\":{},\"ts\":{},\"args\":{{}}}}",
                e.event.kind_name(),
                e.layer.name(),
                flow_id,
                e.node.0,
                e.track,
                us(e.at.as_nanos())
            );
            continue;
        }
        sep(&mut j);
        let _ = write!(
            j,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
            e.event.kind_name(),
            e.layer.name(),
            e.node.0,
            e.track,
            us(e.at.as_nanos())
        );
        if e.dur_ns > 0 {
            let _ = write!(j, ",\"ph\":\"X\",\"dur\":{}", us(e.dur_ns));
        } else {
            j.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        }
        j.push_str(",\"args\":{");
        e.event.write_args(&mut j);
        j.push_str("}}");
    }
    j.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Layer};
    use sim::{NodeId, SimTime};

    fn rec(at: u64, dur: u64, node: u32, track: u64, event: Event, layer: Layer) -> EventRecord {
        EventRecord {
            at: SimTime::from_nanos(at),
            dur_ns: dur,
            node: NodeId(node),
            track,
            layer,
            event,
        }
    }

    #[test]
    fn export_is_valid_json_and_deterministic() {
        let evs = vec![
            rec(
                0,
                7_800,
                0,
                NIC_TRACK,
                Event::SanSend { to: 1, bytes: 4 },
                Layer::San,
            ),
            rec(
                500,
                0,
                1,
                3,
                Event::Fault {
                    page: 7,
                    write: true,
                },
                Layer::Proto,
            ),
            rec(
                900,
                22_000,
                1,
                3,
                Event::FaultSpan {
                    page: 7,
                    write: true,
                },
                Layer::Proto,
            ),
        ];
        let a = export(&evs);
        let b = export(&evs);
        assert_eq!(a, b);
        crate::json::validate(&a).expect("chrome trace parses");
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"name\":\"node 0\""));
        assert!(a.contains("\"name\":\"nic\""));
        // 7800ns span renders as 7.800us.
        assert!(a.contains("\"dur\":7.800"));
    }

    #[test]
    fn empty_export_is_valid() {
        let a = export(&[]);
        crate::json::validate(&a).expect("empty trace parses");
    }

    #[test]
    fn edges_export_as_flow_pairs() {
        use crate::event::EdgeKind;
        let evs = vec![rec(
            900,
            0,
            1,
            5,
            Event::Edge {
                kind: EdgeKind::LockHandoff,
                src_node: 0,
                src_track: 3,
                src_ns: 100,
                obj: 7,
            },
            EdgeKind::LockHandoff.layer(),
        )];
        let a = export(&evs);
        crate::json::validate(&a).expect("flow trace parses");
        assert!(a.contains("\"ph\":\"s\""), "missing flow start: {a}");
        assert!(
            a.contains("\"ph\":\"f\",\"bp\":\"e\""),
            "missing flow finish: {a}"
        );
        // Both endpoints get track metadata, and the pair shares an id.
        assert!(a.contains("\"pid\":0,\"tid\":3,\"ts\":0.100"));
        assert!(a.contains("\"pid\":1,\"tid\":5,\"ts\":0.900"));
        assert!(a.contains("\"id\":1"));
    }
}
