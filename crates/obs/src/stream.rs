//! The NDJSON stream grammar.
//!
//! A running series ([`crate::series`]) writes one JSON object per line
//! to the writer handed to [`crate::ObsSink::series_start`]: the header
//! when the series starts, each frame the moment its window is cut
//! (flushed, so `cablestat tail --follow` watches a live run), and the end
//! line at [`crate::ObsSink::series_finish`]. The benches point it at
//! `target/artifacts/stream_<kernel>.ndjson`.
//!
//! # NDJSON grammar (version 2)
//!
//! ```text
//! {"type":"header","version":2,"kernel":"FFT","sample_ns":65536}
//! {"type":"frame","seq":0,"start_ns":...,"end_ns":...,"stall":{...},"delta":{...}}
//! ...
//! {"type":"end","sim_time_ns":...,"frames":N,"snapshot":{...}}
//! ```
//!
//! - every line is a complete RFC-8259 object (validated by
//!   [`crate::json`], the repo's own parser);
//! - frame `seq` values are dense from 0 (a dropped line is detectable);
//! - the `end` line embeds the final [`MetricsSnapshot`]
//!   ([`MetricsSnapshot::to_json`] shape), so a stream is
//!   *self-verifying*: folding the frames must reproduce the embedded
//!   snapshot exactly ([`Stream::verify_fold`], enforced by
//!   `cablestat series`/`check` and the benches).
//! - a stream without an `end` line is *live* (or truncated by a crash):
//!   `cablestat tail --follow` keeps reading until the end line appears.
//!
//! Sparseness: zero layer entries, empty histogram layers, and zero
//! stall buckets are omitted from frame lines; histogram buckets are
//! `[index, count]` pairs.

use crate::event::Layer;
use crate::json::{self, Value, Writer};
use crate::metrics::{Histogram, KindAgg, MetricsSnapshot, NodeMetrics, PageMetrics};
use crate::series::DeltaFrame;
use crate::stall::{Bucket, BUCKETS};

/// Stream grammar version written into the header line.
pub const STREAM_VERSION: u64 = 2;

/// The stream's header line.
pub fn header_line(kernel: &str, sample_ns: u64) -> String {
    let mut w = Writer::line();
    w.obj().field("type", "header").field("version", STREAM_VERSION);
    w.field("kernel", kernel).field("sample_ns", sample_ns).end();
    w.finish()
}

/// One frame as a single NDJSON line (no trailing newline).
pub fn frame_line(f: &DeltaFrame) -> String {
    /// The nonzero entries of a per-layer (or per-bucket) array, by name.
    fn sparse<'a>(w: &mut Writer, named: impl Iterator<Item = (&'a str, u64)>) {
        w.obj();
        for (name, v) in named.filter(|&(_, v)| v > 0) {
            w.field(name, v);
        }
        w.end();
    }
    let layers = |a: &[u64; Layer::COUNT]| Layer::ALL.map(|l| (l.name(), a[l.index()])).into_iter();
    let mut w = Writer::line();
    w.obj().field("type", "frame").field("seq", f.seq);
    w.field("start_ns", f.start_ns).field("end_ns", f.end_ns);
    w.key("stall");
    sparse(&mut w, Bucket::ALL.map(|b| (b.name(), f.stall_ns[b as usize])).into_iter());
    let d = &f.delta;
    w.key("delta").obj().field("dropped_events", d.dropped_events).key("nodes").arr();
    for n in &d.nodes {
        w.obj().field("node", n.node).key("ns");
        sparse(&mut w, layers(&n.layer_ns));
        w.key("events");
        sparse(&mut w, layers(&n.layer_events));
        w.end();
    }
    w.end().key("kinds").arr();
    for k in &d.kinds {
        w.obj().field("name", &k.name).field("count", k.count).field("total_ns", k.total_ns);
        w.field("min_ns", k.min_ns).field("max_ns", k.max_ns).end();
    }
    w.end().key("hists").obj();
    for l in Layer::ALL {
        let h = &d.hists[l.index()];
        if h.buckets.iter().all(|&b| b == 0) {
            continue;
        }
        w.key(l.name()).obj().key("buckets").arr();
        for (i, &b) in h.buckets.iter().enumerate().filter(|&(_, &b)| b > 0) {
            w.val(&[i as u64, b][..]);
        }
        w.end().field("p50", h.percentile(50.0)).field("p95", h.percentile(95.0));
        w.field("p99", h.percentile(99.0)).end();
    }
    w.end().key("pages").arr();
    for p in &d.pages {
        w.obj().field("page", p.page).field("faults", p.faults).field("fetches", p.fetches);
        w.field("diffs", p.diffs).field("invals", p.invals).field("migrates", p.migrates);
        w.field("mask", p.nodes_mask).field("handoffs", p.handoffs).end();
    }
    w.end().key("gauges").obj();
    for (name, v) in &d.gauges {
        w.field(name, v);
    }
    w.end().end().end();
    w.finish()
}

/// The stream's end line, embedding the final snapshot.
pub fn end_line(sim_time_ns: u64, frames: u64, snapshot: &MetricsSnapshot) -> String {
    let snapshot = json::parse(&snapshot.to_json()).expect("snapshot JSON parses");
    let mut w = Writer::line();
    w.obj().field("type", "end").field("sim_time_ns", sim_time_ns).field("frames", frames);
    w.field("snapshot", &snapshot).end();
    w.finish()
}

/// A parsed stream header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHeader {
    /// Grammar version (must be [`STREAM_VERSION`]).
    pub version: u64,
    /// Kernel / workload name the stream was cut from.
    pub kernel: String,
    /// Window width, simulated ns.
    pub sample_ns: u64,
}

/// A parsed end line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamEnd {
    /// Final simulated time of the run.
    pub sim_time_ns: u64,
    /// Frame count the producer claims (must match the lines).
    pub frames: u64,
    /// The final snapshot the frames must fold back into.
    pub snapshot: MetricsSnapshot,
}

/// A fully parsed NDJSON stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The header line.
    pub header: StreamHeader,
    /// Every frame, in line order.
    pub frames: Vec<DeltaFrame>,
    /// The end line, if the stream is complete.
    pub end: Option<StreamEnd>,
}

impl Stream {
    /// Folds the frames and checks them against the embedded final
    /// snapshot, byte-exactly (via the canonical JSON serialization,
    /// which also absorbs the export's lossy `sharers` encoding).
    ///
    /// # Errors
    ///
    /// A message naming the first divergence, or the missing end line.
    pub fn verify_fold(&self) -> Result<(), String> {
        let end = self.end.as_ref().ok_or("stream has no end line (live or truncated)")?;
        if end.frames != self.frames.len() as u64 {
            return Err(format!(
                "end line claims {} frames, stream has {}",
                end.frames,
                self.frames.len()
            ));
        }
        let folded = crate::series::fold(self.frames.iter());
        let a = folded.to_json();
        let b = end.snapshot.to_json();
        if a != b {
            let at = a
                .bytes()
                .zip(b.bytes())
                .position(|(x, y)| x != y)
                .unwrap_or(a.len().min(b.len()));
            return Err(format!(
                "fold of {} frames diverges from the final snapshot at byte {at}: ..{}.. vs ..{}..",
                self.frames.len(),
                &a[at.saturating_sub(20)..(at + 20).min(a.len())],
                &b[at.saturating_sub(20)..(at + 20).min(b.len())]
            ));
        }
        Ok(())
    }
}

fn need(v: Option<&Value>, what: &str) -> Result<u64, String> {
    v.and_then(|x| x.as_u64()).ok_or_else(|| format!("missing {what}"))
}

fn parse_header(v: &Value) -> Result<StreamHeader, String> {
    let version = need(v.get("version"), "header.version")?;
    if version != STREAM_VERSION {
        return Err(format!("unsupported stream version {version}"));
    }
    Ok(StreamHeader {
        version,
        kernel: v
            .get("kernel")
            .and_then(|x| x.as_str())
            .ok_or("missing header.kernel")?
            .to_string(),
        sample_ns: need(v.get("sample_ns"), "header.sample_ns")?,
    })
}

/// Rebuilds a frame from one parsed NDJSON line.
pub fn parse_frame(v: &Value) -> Result<DeltaFrame, String> {
    let mut stall = [0u64; BUCKETS];
    if let Some(obj) = v.get("stall").and_then(|x| x.as_obj()) {
        for (name, val) in obj {
            let b = Bucket::ALL
                .iter()
                .find(|b| b.name() == name)
                .ok_or_else(|| format!("unknown stall bucket {name}"))?;
            stall[*b as usize] = val.as_u64().ok_or("stall value not a number")?;
        }
    }
    let d = v.get("delta").ok_or("frame without delta")?;
    let mut nodes = Vec::new();
    for n in d.get("nodes").and_then(|x| x.as_arr()).ok_or("missing delta.nodes")? {
        let mut row = NodeMetrics {
            node: need(n.get("node"), "node id")? as u32,
            layer_ns: [0; Layer::COUNT],
            layer_events: [0; Layer::COUNT],
        };
        for l in Layer::ALL {
            if let Some(x) = n.get("ns").and_then(|m| m.get(l.name())) {
                row.layer_ns[l.index()] = x.as_u64().ok_or("layer ns not a number")?;
            }
            if let Some(x) = n.get("events").and_then(|m| m.get(l.name())) {
                row.layer_events[l.index()] = x.as_u64().ok_or("layer events not a number")?;
            }
        }
        nodes.push(row);
    }
    let mut kinds = Vec::new();
    for k in d.get("kinds").and_then(|x| x.as_arr()).ok_or("missing delta.kinds")? {
        kinds.push(KindAgg {
            name: k
                .get("name")
                .and_then(|x| x.as_str())
                .ok_or("kind without name")?
                .to_string(),
            count: need(k.get("count"), "kind count")?,
            total_ns: need(k.get("total_ns"), "kind total_ns")?,
            min_ns: need(k.get("min_ns"), "kind min_ns")?,
            max_ns: need(k.get("max_ns"), "kind max_ns")?,
        });
    }
    let mut hists = vec![Histogram::default(); Layer::COUNT];
    if let Some(obj) = d.get("hists").and_then(|x| x.as_obj()) {
        for (lname, h) in obj {
            let l = Layer::ALL
                .iter()
                .find(|l| l.name() == lname)
                .ok_or_else(|| format!("unknown hist layer {lname}"))?;
            for pair in h.get("buckets").and_then(|x| x.as_arr()).ok_or("hist without buckets")? {
                let p = pair.as_arr().ok_or("hist bucket not a pair")?;
                if p.len() != 2 {
                    return Err("hist bucket pair malformed".into());
                }
                let idx = p[0].as_u64().ok_or("bucket index not a number")? as usize;
                if idx >= crate::metrics::HIST_BUCKETS {
                    return Err(format!("bucket index {idx} out of range"));
                }
                hists[l.index()].buckets[idx] = p[1].as_u64().ok_or("bucket count not a number")?;
            }
        }
    }
    let mut pages = Vec::new();
    for p in d.get("pages").and_then(|x| x.as_arr()).ok_or("missing delta.pages")? {
        let g = |k: &str| need(p.get(k), k);
        pages.push(PageMetrics {
            page: g("page")?,
            faults: g("faults")?,
            fetches: g("fetches")?,
            diffs: g("diffs")?,
            invals: g("invals")?,
            migrates: g("migrates")?,
            nodes_mask: g("mask")?,
            handoffs: g("handoffs")?,
        });
    }
    let mut gauges = Vec::new();
    for (name, x) in d.get("gauges").and_then(|x| x.as_obj()).ok_or("missing delta.gauges")? {
        gauges.push((name.clone(), x.as_u64().ok_or("gauge value not a number")?));
    }
    Ok(DeltaFrame {
        seq: need(v.get("seq"), "frame.seq")?,
        start_ns: need(v.get("start_ns"), "frame.start_ns")?,
        end_ns: need(v.get("end_ns"), "frame.end_ns")?,
        stall_ns: stall,
        delta: MetricsSnapshot {
            dropped_events: need(d.get("dropped_events"), "delta.dropped_events")?,
            nodes,
            kinds,
            hists,
            pages,
            gauges,
        },
    })
}

/// Parses a whole NDJSON stream, enforcing the grammar (header first,
/// dense frame seqs, monotone windows, at most one end line, nothing
/// after it).
///
/// # Errors
///
/// `line N: message` for the first offending line.
pub fn parse_stream(text: &str) -> Result<Stream, String> {
    let mut header = None;
    let mut frames: Vec<DeltaFrame> = Vec::new();
    let mut end = None;
    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        let at = |msg: String| format!("line {ln}: {msg}");
        if line.trim().is_empty() {
            continue;
        }
        if end.is_some() {
            return Err(at("content after the end line".into()));
        }
        let v = json::parse(line).map_err(|e| at(e.to_string()))?;
        let ty = v
            .get("type")
            .and_then(|x| x.as_str())
            .ok_or_else(|| at("object without a type field".into()))?;
        match ty {
            "header" => {
                if header.is_some() {
                    return Err(at("duplicate header".into()));
                }
                if !frames.is_empty() {
                    return Err(at("header after frames".into()));
                }
                header = Some(parse_header(&v).map_err(at)?);
            }
            "frame" => {
                if header.is_none() {
                    return Err(at("frame before header".into()));
                }
                let f = parse_frame(&v).map_err(at)?;
                if f.seq != frames.len() as u64 {
                    return Err(at(format!(
                        "frame seq {} out of order (expected {})",
                        f.seq,
                        frames.len()
                    )));
                }
                if let Some(prev) = frames.last() {
                    if f.start_ns < prev.end_ns {
                        return Err(at(format!(
                            "frame window [{}, {}) overlaps previous end {}",
                            f.start_ns, f.end_ns, prev.end_ns
                        )));
                    }
                }
                if f.end_ns <= f.start_ns {
                    return Err(at("empty or inverted frame window".into()));
                }
                frames.push(f);
            }
            "end" => {
                if header.is_none() {
                    return Err(at("end before header".into()));
                }
                let snapshot = v
                    .get("snapshot")
                    .ok_or_else(|| at("end without snapshot".into()))
                    .and_then(|s| MetricsSnapshot::from_value(s).map_err(at))?;
                end = Some(StreamEnd {
                    sim_time_ns: need(v.get("sim_time_ns"), "end.sim_time_ns").map_err(at)?,
                    frames: need(v.get("frames"), "end.frames").map_err(at)?,
                    snapshot,
                });
            }
            other => return Err(at(format!("unknown line type {other:?}"))),
        }
    }
    Ok(Stream {
        header: header.ok_or("stream has no header line")?,
        frames,
        end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series;

    fn frame(seq: u64, start: u64, end: u64) -> DeltaFrame {
        let mut d = DeltaFrame {
            seq,
            start_ns: start,
            end_ns: end,
            stall_ns: [0; BUCKETS],
            delta: MetricsSnapshot {
                dropped_events: 0,
                nodes: vec![NodeMetrics {
                    node: 0,
                    layer_ns: [0; Layer::COUNT],
                    layer_events: [0; Layer::COUNT],
                }],
                kinds: vec![KindAgg {
                    name: "proto.fault".into(),
                    count: seq + 1,
                    total_ns: 10 * (seq + 1),
                    min_ns: 1,
                    max_ns: 9,
                }],
                hists: vec![Histogram::default(); Layer::COUNT],
                pages: vec![],
                gauges: vec![("g".into(), seq)],
            },
        };
        d.delta.nodes[0].layer_ns[Layer::Proto.index()] = 10;
        d.delta.nodes[0].layer_events[Layer::Proto.index()] = 1;
        d.delta.hists[Layer::Proto.index()].buckets[3] = 1;
        d.stall_ns[Bucket::PageFault as usize] = 10;
        d
    }

    #[test]
    fn ndjson_roundtrips_and_verifies() {
        let frames = vec![frame(0, 0, 100), frame(1, 100, 200)];
        let folded = series::fold(frames.iter());
        let mut text = String::new();
        text.push_str(&header_line("FFT", 100));
        text.push('\n');
        for f in &frames {
            text.push_str(&frame_line(f));
            text.push('\n');
        }
        text.push_str(&end_line(200, 2, &folded));
        text.push('\n');
        for line in text.lines() {
            json::validate(line).expect("every line is valid JSON");
        }
        let s = parse_stream(&text).unwrap();
        assert_eq!(s.header.kernel, "FFT");
        assert_eq!(s.frames.len(), 2);
        assert_eq!(s.frames, frames);
        s.verify_fold().unwrap();
    }

    #[test]
    fn grammar_violations_are_line_addressed() {
        let bad = format!("{}\n{}\n", header_line("X", 10), header_line("X", 10));
        assert!(parse_stream(&bad).unwrap_err().starts_with("line 2:"));
        let noheader = frame_line(&frame(0, 0, 10));
        assert!(parse_stream(&noheader).unwrap_err().contains("frame before header"));
        let mut skipped = format!("{}\n{}\n", header_line("X", 10), frame_line(&frame(1, 0, 10)));
        assert!(parse_stream(&skipped).unwrap_err().contains("out of order"));
        skipped = format!("{}\nnot json\n", header_line("X", 10));
        assert!(parse_stream(&skipped).unwrap_err().starts_with("line 2:"));
    }
}
