//! The NDJSON stream grammar.
//!
//! A running series ([`crate::series`]) writes one JSON object per line
//! to the writer handed to [`crate::ObsSink::series_start`]: the header
//! when the series starts, each frame the moment its window is cut
//! (flushed, so `cablestat series --follow` watches a live run), and the
//! end line at [`crate::ObsSink::series_finish`]. The benches point it at
//! `target/artifacts/stream_<kernel>.ndjson`.
//!
//! # NDJSON grammar (version 4)
//!
//! ```text
//! {"type":"header","version":4,"kernel":"FFT","sample_ns":65536}
//! {"type":"frame","seq":0,"start_ns":...,"end_ns":...,"stall":{...},"delta":{...}}
//! ...
//! {"type":"end","sim_time_ns":...,"frames":N,"snapshot":{...}}
//! ```
//!
//! - every line is a complete RFC-8259 object (validated by
//!   [`crate::json`], the repo's own parser);
//! - frame `seq` values are dense from 0 (a dropped line is detectable);
//! - a frame's `delta` and the end line's `snapshot` are both written by
//!   [`MetricsSnapshot`]'s [`crate::json::ToJson`] impl and read by
//!   [`MetricsSnapshot::from_value`], so a stream is *self-verifying*:
//!   folding the frames must reproduce the embedded snapshot exactly
//!   ([`Stream::verify_fold`], enforced by `cablestat series`/`check` and
//!   the benches).
//! - a stream without an `end` line is *live* (or truncated by a crash):
//!   `cablestat series --follow` keeps reading until the end line appears.
//!
//! Sparseness: a frame's `stall` object omits zero buckets.
//!
//! Version 4 added two members to every page row, `diff_bytes` and
//! `fetch_wait_ns` (folded as add-deltas, see [`crate::series`]); a
//! version-3 stream is refused.

use crate::json::{self, Value, Writer};
use crate::metrics::MetricsSnapshot;
use crate::series::DeltaFrame;
use crate::stall::{Bucket, BUCKETS};

/// Stream grammar version written into the header line.
pub const STREAM_VERSION: u64 = 4;

/// The stream's header line.
pub fn header_line(kernel: &str, sample_ns: u64) -> String {
    let mut w = Writer::line();
    w.obj()
        .field("type", "header")
        .field("version", STREAM_VERSION);
    w.field("kernel", kernel)
        .field("sample_ns", sample_ns)
        .end();
    w.finish()
}

/// One frame as a single NDJSON line (no trailing newline).
pub fn frame_line(f: &DeltaFrame) -> String {
    let mut w = Writer::line();
    w.obj().field("type", "frame").field("seq", f.seq);
    w.field("start_ns", f.start_ns).field("end_ns", f.end_ns);
    w.key("stall").obj();
    for b in Bucket::ALL {
        let v = f.stall_ns[b as usize];
        if v > 0 {
            w.field(b.name(), v);
        }
    }
    w.end().field("delta", &f.delta).end();
    w.finish()
}

/// The stream's end line, embedding the final snapshot.
pub fn end_line(sim_time_ns: u64, frames: u64, snapshot: &MetricsSnapshot) -> String {
    let mut w = Writer::line();
    w.obj()
        .field("type", "end")
        .field("sim_time_ns", sim_time_ns)
        .field("frames", frames);
    w.field("snapshot", snapshot).end();
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
    /// snapshot, field for field.
    ///
    /// # Errors
    ///
    /// A message naming the first divergent section, or the missing end
    /// line.
    pub fn verify_fold(&self) -> Result<(), String> {
        let end = self
            .end
            .as_ref()
            .ok_or("stream has no end line (live or truncated)")?;
        if end.frames != self.frames.len() as u64 {
            return Err(format!(
                "end line claims {} frames, stream has {}",
                end.frames,
                self.frames.len()
            ));
        }
        let (a, b) = (crate::series::fold(self.frames.iter()), &end.snapshot);
        let sections = [
            ("dropped_events", a.dropped_events == b.dropped_events),
            ("nodes", a.nodes == b.nodes),
            ("kinds", a.kinds == b.kinds),
            ("hists", a.hists == b.hists),
            ("pages", a.pages == b.pages),
            ("gauges", a.gauges == b.gauges),
        ];
        match sections.iter().find(|&&(_, same)| !same) {
            Some((name, _)) => Err(format!(
                "fold of {} frames diverges from the final snapshot in `{name}`",
                self.frames.len()
            )),
            None => Ok(()),
        }
    }
}

fn parse_header(v: &Value) -> Result<StreamHeader, String> {
    let version = v.u64_at("version")?;
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
        sample_ns: v.u64_at("sample_ns")?,
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
    let delta = v.get("delta").ok_or("frame without delta")?;
    Ok(DeltaFrame {
        seq: v.u64_at("seq")?,
        start_ns: v.u64_at("start_ns")?,
        end_ns: v.u64_at("end_ns")?,
        stall_ns: stall,
        delta: MetricsSnapshot::from_value(delta).map_err(|e| format!("delta: {e}"))?,
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
                    sim_time_ns: v.u64_at("sim_time_ns").map_err(at)?,
                    frames: v.u64_at("frames").map_err(at)?,
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
    use crate::event::{Event, Layer};
    use crate::metrics::Registry;
    use crate::series;

    fn frame(seq: u64, start: u64, end: u64) -> DeltaFrame {
        let mut r = Registry::new();
        for _ in 0..=seq {
            let fault = Event::Fault {
                page: 7,
                write: true,
            };
            r.aggregate(Layer::Proto, 1, 0, 10, &fault);
        }
        r.gauge_set("g", seq);
        let mut stall_ns = [0; BUCKETS];
        stall_ns[Bucket::PageFault as usize] = 10;
        DeltaFrame {
            seq,
            start_ns: start,
            end_ns: end,
            stall_ns,
            delta: r.snapshot(0),
        }
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
        let mut torn = s.clone();
        torn.frames[1].delta = torn.frames[0].delta.clone();
        assert!(torn.verify_fold().unwrap_err().contains("in `nodes`"));
    }

    #[test]
    fn grammar_violations_are_line_addressed() {
        let bad = format!("{}\n{}\n", header_line("X", 10), header_line("X", 10));
        assert!(parse_stream(&bad).unwrap_err().starts_with("line 2:"));
        let noheader = frame_line(&frame(0, 0, 10));
        assert!(parse_stream(&noheader)
            .unwrap_err()
            .contains("frame before header"));
        let mut skipped = format!(
            "{}\n{}\n",
            header_line("X", 10),
            frame_line(&frame(1, 0, 10))
        );
        assert!(parse_stream(&skipped).unwrap_err().contains("out of order"));
        skipped = format!("{}\nnot json\n", header_line("X", 10));
        assert!(parse_stream(&skipped).unwrap_err().starts_with("line 2:"));
    }
}
