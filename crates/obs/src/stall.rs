//! Per-thread stall profiler: exact time accounting over the span stream.
//!
//! [`analyze`] partitions every simulated thread's lifetime — the interval
//! from its first to its last recorded event — into eight disjoint buckets:
//!
//! | bucket            | source spans                                     |
//! |-------------------|--------------------------------------------------|
//! | `compute`         | time covered by no classified span               |
//! | `page_fault`      | `proto.fault_handling`                           |
//! | `mutex_wait`      | `sync.lock`, `rt.mutex_wait`                     |
//! | `cond_wait`       | `rt.cond_wait`                                   |
//! | `barrier_wait`    | `sync.barrier`, `rt.barrier_wait`                |
//! | `rwlock_wait`     | `rt.rwlock_wait`                                 |
//! | `join_wait`       | `rt.thread_join`                                 |
//! | `msg_latency`     | self-lane `page_fetch`/`batch_diff` edges        |
//!
//! Spans on one lane nest (they come from one thread's call stack), so the
//! partition uses the same innermost-wins flattening as [`crate::critpath`]:
//! the wire time reported by a self-lane fetch edge claims its interval
//! from whatever span surrounds it. Whatever no classified span
//! covers is `compute`. The buckets therefore sum to the lifetime *exactly*
//! — the invariant `tests/stall_diff.rs` proptests.
//!
//! Beyond whole-run totals the profile carries a time-sliced series
//! (configurable `slice_ns`, cluster-wide per slice) built from the same
//! segments, so slice sums equal totals by construction, and a
//! collapsed-stack export (`node;thread;bucket value`) that standard
//! flamegraph tooling renders directly.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::critpath::{flatten, Piece};
use crate::event::{EdgeKind, Event, EventRecord, NIC_TRACK};
use crate::json::{ToJson, Value, Writer};

/// The stall buckets, in display order. `Compute` is the residue bucket;
/// the other seven come from classified spans. Declaration order doubles
/// as the flattening tiebreak: for identical intervals the higher-indexed
/// bucket is treated as innermost (`msg_latency` beats everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Bucket {
    /// Time covered by no classified span.
    Compute = 0,
    /// Page-fault handling (`proto.fault_handling`).
    PageFault = 1,
    /// Mutex/lock acquisition wait (`sync.lock`, `rt.mutex_wait`).
    MutexWait = 2,
    /// Condition-variable wait (`rt.cond_wait`).
    CondWait = 3,
    /// Barrier wait (`sync.barrier`, `rt.barrier_wait`).
    BarrierWait = 4,
    /// Reader-writer lock wait (`rt.rwlock_wait`).
    RwWait = 5,
    /// `thread_join` wait (`rt.thread_join`).
    JoinWait = 6,
    /// Wire time of page/batch movement, from self-lane causal edges.
    MsgLatency = 7,
}

/// Number of buckets (length of [`Bucket::ALL`]).
pub const BUCKETS: usize = 8;

impl Bucket {
    /// Every bucket, in display order.
    pub const ALL: [Bucket; BUCKETS] = [
        Bucket::Compute,
        Bucket::PageFault,
        Bucket::MutexWait,
        Bucket::CondWait,
        Bucket::BarrierWait,
        Bucket::RwWait,
        Bucket::JoinWait,
        Bucket::MsgLatency,
    ];

    /// Stable snake_case name (used in JSON, collapsed stacks, tables).
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Compute => "compute",
            Bucket::PageFault => "page_fault",
            Bucket::MutexWait => "mutex_wait",
            Bucket::CondWait => "cond_wait",
            Bucket::BarrierWait => "barrier_wait",
            Bucket::RwWait => "rwlock_wait",
            Bucket::JoinWait => "join_wait",
            Bucket::MsgLatency => "msg_latency",
        }
    }

    /// Short column header for the paper-style table.
    fn header(self) -> &'static str {
        match self {
            Bucket::Compute => "comp",
            Bucket::PageFault => "pf",
            Bucket::MutexWait => "mtx",
            Bucket::CondWait => "cond",
            Bucket::BarrierWait => "barr",
            Bucket::RwWait => "rw",
            Bucket::JoinWait => "join",
            Bucket::MsgLatency => "msg",
        }
    }
}

/// Maps a span kind name to its stall bucket (`None` = unclassified; the
/// interval stays wherever the surrounding spans put it).
pub fn bucket_for_kind(kind: &str) -> Option<Bucket> {
    Some(match kind {
        "proto.fault_handling" => Bucket::PageFault,
        "sync.lock" | "rt.mutex_wait" => Bucket::MutexWait,
        "rt.cond_wait" => Bucket::CondWait,
        "sync.barrier" | "rt.barrier_wait" => Bucket::BarrierWait,
        "rt.rwlock_wait" => Bucket::RwWait,
        "rt.thread_join" => Bucket::JoinWait,
        _ => return None,
    })
}

/// Why [`analyze`] refused to produce a profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StallError {
    /// The sink buffer overflowed: `n` records were dropped, so lifetimes
    /// and bucket coverage would be silently wrong. Raise the capacity
    /// (`ObsSink::with_capacity` / `ClusterConfig::obs_cap`) and rerun.
    DroppedEvents(u64),
    /// No thread-lane events exist to profile.
    NoThreads,
}

impl fmt::Display for StallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallError::DroppedEvents(n) => write!(
                f,
                "stall profiling refused: the event buffer dropped {n} record(s), so \
                 per-thread accounting would be incomplete; raise the obs buffer \
                 capacity (ObsSink::with_capacity / ClusterConfig::obs_cap) and rerun"
            ),
            StallError::NoThreads => {
                write!(f, "stall profiling needs at least one thread-lane event")
            }
        }
    }
}

impl std::error::Error for StallError {}

/// One thread's exact lifetime partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadStall {
    /// Node the thread ran on.
    pub node: u32,
    /// The thread's track id (its `Tid`).
    pub track: u64,
    /// First recorded event, ns.
    pub start_ns: u64,
    /// Last recorded event end, ns.
    pub end_ns: u64,
    /// Nanoseconds per bucket, indexed by `Bucket as usize`. Sums to
    /// `end_ns - start_ns` exactly.
    pub buckets: [u64; BUCKETS],
}

impl ThreadStall {
    /// The thread's recorded lifetime in nanoseconds.
    pub fn lifetime_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One interval of the cluster-wide time-sliced series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    /// Slice start, ns (slices are `slice_ns` wide, anchored at the
    /// earliest thread start).
    pub start_ns: u64,
    /// Nanoseconds per bucket summed over every thread alive in the slice.
    pub buckets: [u64; BUCKETS],
}

/// The per-thread stall profile of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallProfile {
    /// The slice width used for `slices` (0 = series disabled).
    pub slice_ns: u64,
    /// One row per thread lane, ordered by `(node, track)`.
    pub threads: Vec<ThreadStall>,
    /// Cluster-wide interval series; empty when `slice_ns == 0`. Bucket
    /// sums over all slices equal the sums over `threads` exactly.
    pub slices: Vec<Slice>,
}

/// A disjoint, bucket-labelled piece of one lane's lifetime.
type Seg = Piece<Bucket>;

/// The interval an event charges to a stall bucket, if any. A self-lane
/// data-moving edge is wire time: the thread blocked from issuing the
/// fetch or batched diff (`src_ns`) until the data landed (`at`), so it
/// charges `MsgLatency`; a span charges its kind's bucket
/// ([`bucket_for_kind`]). The stream's per-window stall mix charges
/// exactly these intervals, without the flattening.
pub(crate) fn classify(node: u32, track: u64, at: u64, dur: u64, event: &Event) -> Option<Seg> {
    if let Event::Edge {
        kind,
        src_node,
        src_track,
        src_ns,
        ..
    } = *event
    {
        let self_lane = src_node == node && src_track == track;
        let moves_data = matches!(kind, EdgeKind::PageFetch | EdgeKind::BatchDiff);
        (self_lane && moves_data && src_ns < at).then_some((src_ns, at, Bucket::MsgLatency))
    } else if dur > 0 {
        bucket_for_kind(event.kind_name()).map(|b| (at, at + dur, b))
    } else {
        None
    }
}

/// Flattens classified intervals innermost-wins ([`flatten`], with the
/// bucket index as the deterministic tiebreak for identical intervals),
/// then fills the gaps inside `[start, end]` with `Compute`. The result
/// is a disjoint cover of the whole lifetime.
fn partition_lane(spans: Vec<Seg>, start: u64, end: u64) -> Vec<Seg> {
    let flat = flatten(spans, |&(s, e, b)| (s, std::cmp::Reverse(e), b as usize));

    // Clip to the lifetime and interleave Compute gaps.
    let mut out: Vec<Seg> = Vec::with_capacity(flat.len() * 2 + 1);
    let mut cur = start;
    for (s, e, b) in flat {
        let s = s.max(start).min(end);
        let e = e.max(start).min(end);
        if e <= s {
            continue;
        }
        if s > cur {
            out.push((cur, s, Bucket::Compute));
        }
        out.push((s, e, b));
        cur = cur.max(e);
    }
    if end > cur {
        out.push((cur, end, Bucket::Compute));
    }
    out
}

/// Builds the per-thread stall profile from a drained (or cloned) sink
/// buffer.
///
/// `dropped` is `ObsSink::dropped_events()` — non-zero is refused because
/// a clipped buffer would silently shrink lifetimes and bucket coverage.
/// `slice_ns` > 0 additionally builds the cluster-wide interval series.
///
/// # Errors
///
/// [`StallError::DroppedEvents`] on buffer overflow,
/// [`StallError::NoThreads`] when no thread-lane events exist.
pub fn analyze(
    events: &[EventRecord],
    dropped: u64,
    slice_ns: u64,
) -> Result<StallProfile, StallError> {
    if dropped > 0 {
        return Err(StallError::DroppedEvents(dropped));
    }

    type Lane = (u32, u64);
    let mut spans: BTreeMap<Lane, Vec<Seg>> = BTreeMap::new();
    let mut life: BTreeMap<Lane, (u64, u64)> = BTreeMap::new();
    for e in events {
        if e.track == NIC_TRACK {
            continue;
        }
        let lane = (e.node.0, e.track);
        let at = e.at.as_nanos();
        let end = at + e.dur_ns;
        let lf = life.entry(lane).or_insert((at, end));
        lf.0 = lf.0.min(at);
        lf.1 = lf.1.max(end);
        if let Some(seg) = classify(e.node.0, e.track, at, e.dur_ns, &e.event) {
            spans.entry(lane).or_default().push(seg);
        }
    }
    if life.is_empty() {
        return Err(StallError::NoThreads);
    }

    let run_start = life.values().map(|&(s, _)| s).min().unwrap_or(0);
    let run_end = life.values().map(|&(_, e)| e).max().unwrap_or(0);
    let n_slices = if slice_ns == 0 || run_end <= run_start {
        0
    } else {
        ((run_end - run_start) + slice_ns - 1) / slice_ns
    };
    let mut slices: Vec<Slice> = (0..n_slices)
        .map(|i| Slice {
            start_ns: run_start + i * slice_ns,
            buckets: [0; BUCKETS],
        })
        .collect();

    let mut threads = Vec::with_capacity(life.len());
    for (lane, (start, end)) in life {
        let segs = partition_lane(spans.remove(&lane).unwrap_or_default(), start, end);
        let mut buckets = [0u64; BUCKETS];
        for &(s, e, b) in &segs {
            buckets[b as usize] += e - s;
            if n_slices > 0 {
                // Split the segment across the slice grid; the pieces sum
                // to the segment, so slice sums equal totals exactly.
                let mut t = s;
                while t < e {
                    let idx = ((t - run_start) / slice_ns) as usize;
                    let slice_end = run_start + (idx as u64 + 1) * slice_ns;
                    let piece_end = e.min(slice_end);
                    slices[idx].buckets[b as usize] += piece_end - t;
                    t = piece_end;
                }
            }
        }
        threads.push(ThreadStall {
            node: lane.0,
            track: lane.1,
            start_ns: start,
            end_ns: end,
            buckets,
        });
    }

    Ok(StallProfile {
        slice_ns,
        threads,
        slices,
    })
}

impl StallProfile {
    /// Cluster-wide total per bucket, summed over all threads.
    pub fn totals(&self) -> [u64; BUCKETS] {
        let mut t = [0u64; BUCKETS];
        for th in &self.threads {
            for (acc, v) in t.iter_mut().zip(th.buckets.iter()) {
                *acc += v;
            }
        }
        t
    }

    /// Sum of every thread's lifetime — equals the sum of [`Self::totals`]
    /// by construction.
    pub fn lifetime_ns(&self) -> u64 {
        self.threads.iter().map(|t| t.lifetime_ns()).sum()
    }

    /// Renders the paper-style per-thread stall table (percent of each
    /// thread's lifetime per bucket, plus a cluster totals row).
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {title}: per-thread stall profile ===");
        let _ = write!(out, "{:<10} {:>12}", "thread", "lifetime");
        for b in Bucket::ALL {
            let _ = write!(out, " {:>6}", b.header());
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "{}", "-".repeat(23 + 7 * BUCKETS));
        let row = |out: &mut String, label: &str, life: u64, buckets: &[u64; BUCKETS]| {
            let _ = write!(out, "{:<10} {:>12}", label, life);
            for b in Bucket::ALL {
                let pct = if life == 0 {
                    0.0
                } else {
                    100.0 * buckets[b as usize] as f64 / life as f64
                };
                let _ = write!(out, " {:>5.1}%", pct);
            }
            let _ = writeln!(out);
        };
        for t in &self.threads {
            let label = format!("n{}/t{}", t.node, t.track);
            row(&mut out, &label, t.lifetime_ns(), &t.buckets);
        }
        let _ = writeln!(out, "{}", "-".repeat(23 + 7 * BUCKETS));
        row(&mut out, "total", self.lifetime_ns(), &self.totals());
        out
    }

    /// Reconstructs a profile from a parsed [`Value`] tree of the shape
    /// its [`ToJson`] writes (`totals` and `lifetime_ns` are derived, so
    /// they are not read) — the `cablestat print` loader. Exact:
    /// `from_value(&parse(&json::pretty(&p))) == p`.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn from_value(v: &Value) -> Result<StallProfile, String> {
        let buckets = |o: &Value| -> Result<[u64; BUCKETS], String> {
            let mut b = [0u64; BUCKETS];
            for bk in Bucket::ALL {
                b[bk as usize] = o.u64_at(bk.name())?;
            }
            Ok(b)
        };
        let threads = v.each("threads", |t| {
            Ok(ThreadStall {
                node: u32::try_from(t.u64_at("node")?).map_err(|_| "node out of range")?,
                track: t.u64_at("track")?,
                start_ns: t.u64_at("start_ns")?,
                end_ns: t.u64_at("end_ns")?,
                buckets: buckets(t)?,
            })
        })?;
        let slices = v.each("slices", |s| {
            Ok(Slice {
                start_ns: s.u64_at("start_ns")?,
                buckets: buckets(s)?,
            })
        })?;
        Ok(StallProfile {
            slice_ns: v.u64_at("slice_ns")?,
            threads,
            slices,
        })
    }

    /// Collapsed-stack export: one `node;thread;bucket value` line per
    /// non-zero bucket, ready for `flamegraph.pl` / speedscope.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for t in &self.threads {
            for b in Bucket::ALL {
                let v = t.buckets[b as usize];
                if v > 0 {
                    let _ = writeln!(out, "node{};t{};{} {}", t.node, t.track, b.name(), v);
                }
            }
        }
        out
    }
}

/// One `"bucket": ns` member per bucket, in display order.
fn bucket_fields(w: &mut Writer, b: &[u64; BUCKETS]) {
    for bk in Bucket::ALL {
        w.field(bk.name(), b[bk as usize]);
    }
}

impl ToJson for StallProfile {
    fn write_json(&self, w: &mut Writer) {
        w.obj()
            .field("slice_ns", self.slice_ns)
            .field("lifetime_ns", self.lifetime_ns());
        w.key("totals").obj();
        bucket_fields(w, &self.totals());
        w.end().key("threads").arr();
        for t in &self.threads {
            w.obj().field("node", t.node).field("track", t.track);
            w.field("start_ns", t.start_ns).field("end_ns", t.end_ns);
            bucket_fields(w, &t.buckets);
            w.end();
        }
        w.end().key("slices").arr();
        for s in &self.slices {
            w.obj().field("start_ns", s.start_ns);
            bucket_fields(w, &s.buckets);
            w.end();
        }
        w.end().end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Layer};
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

    fn self_edge(node: u32, track: u64, src_ns: u64, at: u64, kind: EdgeKind) -> EventRecord {
        EventRecord {
            at: SimTime::from_nanos(at),
            dur_ns: 0,
            node: NodeId(node),
            track,
            layer: kind.layer(),
            event: Event::Edge {
                kind,
                src_node: node,
                src_track: track,
                src_ns,
                obj: 9,
            },
        }
    }

    #[test]
    fn dropped_refused_and_empty_refused() {
        assert_eq!(
            analyze(&[], 2, 0).unwrap_err(),
            StallError::DroppedEvents(2)
        );
        assert_eq!(analyze(&[], 0, 0).unwrap_err(), StallError::NoThreads);
    }

    #[test]
    fn exact_partition_with_nested_spans() {
        // Lifetime 0..100; fault 10..50 with wire time 15..25 nested
        // inside; barrier 60..90.
        let evs = vec![
            span(
                0,
                0,
                0,
                1,
                Event::Sched {
                    kind: crate::SchedKind::Spawn,
                },
                Layer::Sched,
            ),
            span(
                10,
                40,
                0,
                1,
                Event::FaultSpan {
                    page: 9,
                    write: false,
                },
                Layer::Proto,
            ),
            self_edge(0, 1, 15, 25, EdgeKind::PageFetch),
            span(60, 30, 0, 1, Event::BarrierWait { id: 1 }, Layer::Sync),
            span(
                100,
                0,
                0,
                1,
                Event::Sched {
                    kind: crate::SchedKind::Exit,
                },
                Layer::Sched,
            ),
        ];
        let p = analyze(&evs, 0, 0).unwrap();
        assert_eq!(p.threads.len(), 1);
        let t = &p.threads[0];
        assert_eq!((t.start_ns, t.end_ns), (0, 100));
        assert_eq!(t.buckets[Bucket::PageFault as usize], 30); // 10..15, 25..50
        assert_eq!(t.buckets[Bucket::MsgLatency as usize], 10); // 15..25
        assert_eq!(t.buckets[Bucket::BarrierWait as usize], 30); // 60..90
        assert_eq!(t.buckets[Bucket::Compute as usize], 30); // 0..10, 50..60, 90..100
        assert_eq!(t.buckets.iter().sum::<u64>(), t.lifetime_ns());
    }

    #[test]
    fn slices_sum_to_totals() {
        let evs = vec![
            span(0, 70, 0, 1, Event::LockWait { id: 7 }, Layer::Sync),
            span(5, 90, 1, 2, Event::PthBarrierWait { id: 3 }, Layer::Rt),
        ];
        let p = analyze(&evs, 0, 32).unwrap();
        assert_eq!(p.slice_ns, 32);
        assert!(!p.slices.is_empty());
        let totals = p.totals();
        let mut from_slices = [0u64; BUCKETS];
        for s in &p.slices {
            for (acc, v) in from_slices.iter_mut().zip(s.buckets.iter()) {
                *acc += v;
            }
        }
        assert_eq!(from_slices, totals);
        assert_eq!(totals.iter().sum::<u64>(), p.lifetime_ns());
    }

    #[test]
    fn nic_lane_ignored_and_collapsed_and_json_valid() {
        let evs = vec![
            span(0, 50, 0, 1, Event::LockWait { id: 7 }, Layer::Sync),
            span(
                0,
                500,
                0,
                NIC_TRACK,
                Event::SanSend { to: 1, bytes: 4 },
                Layer::San,
            ),
        ];
        let p = analyze(&evs, 0, 16).unwrap();
        assert_eq!(p.threads.len(), 1);
        let folded = p.collapsed();
        assert!(folded.contains("node0;t1;mutex_wait 50"));
        crate::json::validate(&crate::json::pretty(&p)).expect("stall JSON parses");
        let text = p.render("TEST");
        assert!(text.contains("per-thread stall profile"));
        // Determinism: same input, same bytes.
        let q = analyze(&evs, 0, 16).unwrap();
        assert_eq!(p, q);
        assert_eq!(crate::json::pretty(&p), crate::json::pretty(&q));
    }

    #[test]
    fn from_value_mirrors_to_json() {
        let evs = vec![
            span(0, 70, 0, 1, Event::LockWait { id: 7 }, Layer::Sync),
            span(5, 90, 1, 2, Event::PthBarrierWait { id: 3 }, Layer::Rt),
            self_edge(1, 2, 10, 30, EdgeKind::PageFetch),
        ];
        let p = analyze(&evs, 0, 32).unwrap();
        assert!(p.slices.len() > 1 && p.threads.len() == 2);
        let v = crate::json::parse(&crate::json::pretty(&p)).unwrap();
        assert_eq!(StallProfile::from_value(&v), Ok(p));
        let no_slices = crate::json::parse(r#"{"slice_ns": 0, "threads": []}"#).unwrap();
        assert_eq!(
            StallProfile::from_value(&no_slices).unwrap_err(),
            "missing slices"
        );
    }
}
