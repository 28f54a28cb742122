//! Regression root-cause attribution: from "what regressed" to "why".
//!
//! [`explain`] takes the same two artifact trees a failing
//! [`crate::diff`] gate saw and joins every regressed headline metric
//! against the *explanatory* rows of the same diff:
//!
//! - **stall buckets** — `stall.totals.<bucket>` deltas say where the
//!   extra simulated time was spent (the eight-bucket lifetime partition
//!   of [`crate::stall`]);
//! - **critical path** — `critpath.by_kind`/`by_layer`/`blame` deltas
//!   say whether the regression sits on the critical path at all;
//! - **kind latencies** — `kinds[name=…].total_ns` deltas name the
//!   protocol/runtime operation that grew;
//! - **pages** — `pages[page=…]` deltas point at the page whose protocol
//!   traffic moved;
//! - **time windows** — when both sides carry an NDJSON series
//!   ([`crate::stream`]), the per-window stall mixes are compared and
//!   the first diverging window (and the bucket that diverged) is
//!   reported, turning "it got slower" into "it got slower *here*".
//!
//! Causes are ranked per finding by path affinity (shared path prefix —
//! a `kernels[kernel=FFT]` regression prefers FFT-scoped causes), then
//! category, then magnitude; ns-valued causes carry a share of the
//! finding's delta. The ranked report is what `scripts/perfgate.sh`
//! prints automatically when the gate fails, and its selftest asserts an
//! injected stall regression is attributed to the right bucket.

use std::fmt::Write as _;

use crate::diff::{diff, DeltaRow, Diff, Thresholds};
use crate::json::{self, Fixed, ToJson, Value, Writer};
use crate::stall::{Bucket, BUCKETS};
use crate::stream::Stream;

/// What kind of explanatory signal a cause is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CauseKind {
    /// A stall-bucket total moved (`stall.totals.*`).
    Stall,
    /// A critical-path blame entry moved (`critpath.*`, `blame`).
    Critpath,
    /// A per-kind latency aggregate moved (`kinds[name=…]`).
    Kind,
    /// A page's protocol counters moved (`pages[page=…]`).
    Page,
    /// A placement/migration gauge moved (`gauges.proto.migrations`,
    /// `gauges.proto.policy_*`, `gauges.proto.*pingpong*`): the
    /// migration policy was active and its decision rate changed — a
    /// regression may be home-thrash rather than app behavior.
    Migration,
    /// The series diverged in a specific time window.
    Window,
}

impl CauseKind {
    /// Stable lowercase tag used in the report and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            CauseKind::Stall => "stall",
            CauseKind::Critpath => "critpath",
            CauseKind::Kind => "kind",
            CauseKind::Page => "page",
            CauseKind::Migration => "migration",
            CauseKind::Window => "window",
        }
    }
}

/// One ranked explanation for a finding.
#[derive(Debug, Clone)]
pub struct Cause {
    /// Signal category.
    pub kind: CauseKind,
    /// Human name: bucket, kind, `page 17`, or a window description.
    pub name: String,
    /// Full diff path of the underlying row (empty for window causes).
    pub path: String,
    /// Baseline value.
    pub before: f64,
    /// Candidate value.
    pub after: f64,
    /// `after - before`.
    pub delta: f64,
    /// This cause's delta as a percentage of the finding's delta, when
    /// both are nanosecond-valued (`None` otherwise).
    pub share_pct: Option<f64>,
}

/// One regressed metric with its ranked causes.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Diff path of the regressed metric.
    pub path: String,
    /// Baseline value.
    pub before: f64,
    /// Candidate value.
    pub after: f64,
    /// Relative change, percent.
    pub rel_pct: f64,
    /// Ranked explanations, best first.
    pub causes: Vec<Cause>,
}

/// The full attribution report.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Regressed metrics, most severe first.
    pub findings: Vec<Finding>,
    /// Context notes (missing streams, no explanatory rows, …).
    pub notes: Vec<String>,
}

fn is_ns_leaf(path: &str) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    leaf.ends_with("_ns") || Bucket::ALL.iter().any(|b| b.name() == leaf)
}

/// Classifies a diff row as an explanatory signal, with a display name.
fn cause_kind(path: &str) -> Option<(CauseKind, String)> {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if path.contains("stall") && path.contains("totals") {
        if Bucket::ALL.iter().any(|b| b.name() == leaf) {
            return Some((CauseKind::Stall, leaf.to_string()));
        }
    }
    if path.contains("critpath") || path.contains("blame[") {
        let name = path
            .split_once("critpath.")
            .map(|(_, t)| t.to_string())
            .unwrap_or_else(|| leaf.to_string());
        return Some((CauseKind::Critpath, name));
    }
    if let Some((_, rest)) = path.split_once("kinds[name=") {
        if let Some((kind, tail)) = rest.split_once(']') {
            if tail == ".total_ns" || tail == ".count" {
                return Some((CauseKind::Kind, format!("{kind}{tail}")));
            }
        }
    }
    if let Some((_, rest)) = path.split_once("pages[page=") {
        if let Some((page, tail)) = rest.split_once(']') {
            return Some((
                CauseKind::Page,
                format!("page {page}{}", tail.replace('.', " ")),
            ));
        }
    }
    if let Some((_, name)) = path.split_once("gauges.") {
        if name.starts_with("proto.")
            && (name.contains("migration") || name.contains("policy") || name.contains("pingpong"))
        {
            return Some((CauseKind::Migration, name.to_string()));
        }
    }
    None
}

/// Shared-prefix length in path segments (split on `.` and `[`).
fn affinity(a: &str, b: &str) -> usize {
    let seg = |s: &str| {
        s.split(|c| c == '.' || c == '[')
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    seg(a)
        .iter()
        .zip(seg(b).iter())
        .take_while(|(x, y)| x == y)
        .count()
}

/// Compares the per-window stall mixes of two streams and reports the
/// first window where a bucket's time deviates by more than
/// `rel_pct` percent (with a small absolute floor to ignore jitter on
/// near-empty windows).
pub fn first_divergent_window(base: &Stream, cand: &Stream, rel_pct: f64) -> Option<Cause> {
    const ABS_FLOOR_NS: f64 = 1_000.0;
    let n = base.frames.len().max(cand.frames.len());
    let zero = [0u64; BUCKETS];
    for i in 0..n {
        let b = base.frames.get(i).map_or(zero, |f| f.stall_ns);
        let c = cand.frames.get(i).map_or(zero, |f| f.stall_ns);
        for bucket in Bucket::ALL {
            let (x, y) = (b[bucket as usize] as f64, c[bucket as usize] as f64);
            let dev = (y - x).abs();
            if dev > ABS_FLOOR_NS && dev > x.max(1.0) * rel_pct / 100.0 {
                let (s, e) = cand
                    .frames
                    .get(i)
                    .or(base.frames.get(i))
                    .map(|f| (f.start_ns, f.end_ns))
                    .unwrap_or((0, 0));
                return Some(Cause {
                    kind: CauseKind::Window,
                    name: format!(
                        "window {i} [{s}..{e}ns]: {} {}",
                        bucket.name(),
                        if y > x { "grew" } else { "shrank" }
                    ),
                    path: String::new(),
                    before: x,
                    after: y,
                    delta: y - x,
                    share_pct: None,
                });
            }
        }
    }
    None
}

/// Builds the attribution report for a failing diff. `streams` optionally
/// carries the baseline and candidate NDJSON series for window
/// attribution. `top` bounds both findings and causes-per-finding.
pub fn explain(
    base: &Value,
    cand: &Value,
    th: &Thresholds,
    streams: Option<(&Stream, &Stream)>,
    top: usize,
) -> Explanation {
    let d = diff(base, cand, th);
    explain_diff(&d, th, streams, top)
}

/// [`explain`] over an already-computed diff.
pub fn explain_diff(
    d: &Diff,
    th: &Thresholds,
    streams: Option<(&Stream, &Stream)>,
    top: usize,
) -> Explanation {
    let mut notes = Vec::new();
    // Findings: regressed rows that are not themselves explanatory
    // signals (a stall bucket regressing is a cause, not a headline) —
    // unless nothing else regressed.
    let mut findings: Vec<&DeltaRow> = d
        .regressions()
        .filter(|r| cause_kind(&r.path).is_none())
        .collect();
    if findings.is_empty() {
        findings = d.regressions().collect();
        if !findings.is_empty() {
            notes.push("only explanatory-signal metrics regressed; reporting them directly".into());
        }
    }
    findings.sort_by(|a, b| {
        b.delta
            .abs()
            .partial_cmp(&a.delta.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    findings.truncate(top);

    let window_cause = streams.and_then(|(b, c)| first_divergent_window(b, c, th.rel_pct));
    if streams.is_none() {
        notes.push("no series streams supplied; window attribution skipped".into());
    } else if window_cause.is_none() {
        notes.push("series streams agree within tolerance in every window".into());
    }

    // Candidate causes: every changed explanatory row moving in the
    // worse-for-the-finding direction (positive delta — all explanatory
    // signals are time/count-valued where growth explains slowdown).
    let candidates: Vec<(&DeltaRow, CauseKind, String)> = d
        .rows
        .iter()
        .filter(|r| r.delta > 0.0)
        .filter_map(|r| cause_kind(&r.path).map(|(k, n)| (r, k, n)))
        .collect();
    if candidates.is_empty() && !findings.is_empty() {
        notes.push(
            "no stall/critpath/kind/page deltas to join against (artifact carries none)".into(),
        );
    }

    let out = findings
        .into_iter()
        .map(|f| {
            let mut causes: Vec<(usize, Cause)> = candidates
                .iter()
                .map(|(r, k, name)| {
                    let share_pct = (is_ns_leaf(&f.path) && is_ns_leaf(&r.path) && f.delta != 0.0)
                        .then(|| 100.0 * r.delta / f.delta);
                    (
                        affinity(&f.path, &r.path),
                        Cause {
                            kind: *k,
                            name: name.clone(),
                            path: r.path.clone(),
                            before: r.before,
                            after: r.after,
                            delta: r.delta,
                            share_pct,
                        },
                    )
                })
                .collect();
            causes.sort_by(|(aff_a, a), (aff_b, b)| {
                aff_b
                    .cmp(aff_a)
                    .then_with(|| a.kind.cmp(&b.kind))
                    .then_with(|| {
                        b.delta
                            .abs()
                            .partial_cmp(&a.delta.abs())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .then_with(|| a.path.cmp(&b.path))
            });
            let mut causes: Vec<Cause> = causes.into_iter().map(|(_, c)| c).collect();
            causes.truncate(top);
            if let Some(w) = &window_cause {
                causes.push(w.clone());
            }
            Finding {
                path: f.path.clone(),
                before: f.before,
                after: f.after,
                rel_pct: f.rel_pct,
                causes,
            }
        })
        .collect();
    Explanation {
        findings: out,
        notes,
    }
}

impl Explanation {
    /// Whether anything regressed at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The ranked "why" report.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== explain: {title} ===");
        if self.findings.is_empty() {
            let _ = writeln!(out, "no regressions to explain");
        }
        for (i, f) in self.findings.iter().enumerate() {
            let rel = if f.rel_pct.is_finite() {
                format!("{:+.1}%", f.rel_pct)
            } else {
                "new".into()
            };
            let _ = writeln!(
                out,
                "#{} {}: {} -> {} ({})",
                i + 1,
                f.path,
                Fixed::or_int(f.before, 2),
                Fixed::or_int(f.after, 2),
                rel
            );
            if f.causes.is_empty() {
                let _ = writeln!(out, "   (no explanatory deltas found)");
            }
            for c in &f.causes {
                let share = c
                    .share_pct
                    .map(|s| format!("  (share {s:.1}%)"))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "   {:<9} {:<40} {:>14} -> {:<14} {:+}{share}",
                    c.kind.tag(),
                    c.name,
                    Fixed::or_int(c.before, 2),
                    Fixed::or_int(c.after, 2),
                    c.delta as i64
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Deterministic JSON of the report.
    pub fn to_json(&self) -> String {
        json::pretty(self)
    }
}

impl ToJson for Explanation {
    fn write_json(&self, w: &mut Writer) {
        w.obj().key("findings").arr();
        for f in &self.findings {
            w.obj().field("path", &f.path);
            w.field("before", Fixed::or_int(f.before, 2))
                .field("after", Fixed::or_int(f.after, 2));
            w.key("causes").arr();
            for c in &f.causes {
                w.obj().field("kind", c.kind.tag()).field("name", &c.name);
                w.field("before", Fixed::or_int(c.before, 2))
                    .field("after", Fixed::or_int(c.after, 2));
                w.field("share_pct", c.share_pct.map(|s| Fixed(s, 2))).end();
            }
            w.end().end();
        }
        w.end().field("notes", &self.notes).end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn doc(sim: u64, barrier: u64, fault_total: u64) -> Value {
        json::parse(&format!(
            r#"{{"kernel": "FFT", "sim_time_ns": {sim},
                "snapshot": {{"kinds": [
                    {{"name": "sync.barrier", "count": 4, "total_ns": {fault_total}, "min_ns": 1, "max_ns": 9}}
                ]}},
                "stall": {{"totals": {{"compute": 100, "barrier_wait": {barrier}, "page_fault": 50}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn injected_stall_regression_is_attributed() {
        let base = doc(1_000_000, 400_000, 10_000);
        let cand = doc(1_500_000, 900_000, 10_000);
        let th = Thresholds {
            abs: 0.0,
            rel_pct: 2.0,
        };
        let e = explain(&base, &cand, &th, None, 5);
        assert_eq!(e.findings.len(), 1);
        assert_eq!(e.findings[0].path, "sim_time_ns");
        let first = &e.findings[0].causes[0];
        assert_eq!(first.kind, CauseKind::Stall);
        assert_eq!(first.name, "barrier_wait");
        assert_eq!(first.share_pct.map(|s| s.round() as i64), Some(100));
        let text = e.render("t");
        assert!(text.contains("barrier_wait"));
        crate::json::validate(&e.to_json()).unwrap();
    }

    #[test]
    fn migration_gauge_delta_becomes_a_cause() {
        let mk = |sim: u64, migr: u64| {
            json::parse(&format!(
                r#"{{"sim_time_ns": {sim},
                    "snapshot": {{"gauges": {{"proto.migrations": {migr}, "proto.policy_considered": {}}}}}}}"#,
                migr * 10
            ))
            .unwrap()
        };
        let th = Thresholds {
            abs: 0.0,
            rel_pct: 2.0,
        };
        let e = explain(&mk(1_000_000, 2), &mk(1_400_000, 40), &th, None, 5);
        assert_eq!(e.findings[0].path, "sim_time_ns");
        let migr: Vec<&str> = e.findings[0]
            .causes
            .iter()
            .filter(|c| c.kind == CauseKind::Migration)
            .map(|c| c.name.as_str())
            .collect();
        // Ranked by |delta| within the kind: considered moved more.
        assert_eq!(migr, ["proto.policy_considered", "proto.migrations"]);
        assert!(e.render("t").contains("migration"));
    }

    #[test]
    fn json_escapes_user_supplied_paths() {
        // Metric keys come from the compared documents; `"` and `\` in one
        // must not break the report's JSON.
        let mk = |sim: u64| {
            json::parse(&format!(
                r#"{{"we\"ird\\key_ns": {sim}, "stall": {{"totals": {{"compute": {sim}}}}}}}"#
            ))
            .unwrap()
        };
        let th = Thresholds {
            abs: 0.0,
            rel_pct: 2.0,
        };
        let e = explain(&mk(1_000), &mk(2_000), &th, None, 5);
        assert_eq!(e.findings[0].path, "we\"ird\\key_ns");
        let v = json::parse(&e.to_json()).expect("explain JSON parses");
        let path = v
            .get("findings")
            .and_then(|f| f.as_arr())
            .and_then(|f| f[0].get("path"));
        assert_eq!(path.and_then(Value::as_str), Some("we\"ird\\key_ns"));
    }

    #[test]
    fn clean_diff_explains_nothing() {
        let a = doc(1_000, 400, 10);
        let th = Thresholds {
            abs: 0.0,
            rel_pct: 2.0,
        };
        let e = explain(&a, &a, &th, None, 5);
        assert!(e.is_clean());
    }
}
