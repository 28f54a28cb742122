//! Differential run analysis: structured deltas between two snapshot JSONs.
//!
//! [`diff`] walks two parsed [`crate::json::Value`] trees (any of the
//! `BENCH_*.json` artifacts, a [`crate::MetricsSnapshot::to_json`] dump, a
//! critpath report, or a stall profile) in lock-step and emits one
//! [`DeltaRow`] per *changed numeric leaf*, plus added/removed paths and
//! changed string/bool labels. Three properties make it usable as a
//! regression gate:
//!
//! - **`diff(a, a)` is empty.** Rows exist only where the values differ.
//! - **Deterministic.** The walk order is a pure function of the inputs;
//!   two runs produce byte-identical reports.
//! - **Monotone thresholding.** A row is `significant` iff
//!   `|delta| > thresholds.abs` *and* `|rel%| > thresholds.rel_pct`;
//!   raising either threshold can only shrink the significant set.
//!
//! Each row also carries a *direction*: metric names classify as
//! higher-is-worse (latencies, fault/message counts, wait time),
//! lower-is-worse (speedups, hit rates, admissibility headroom), or
//! neutral (configuration echoes and wall-clock times, which are
//! host-dependent and must never gate). A `regression` is a significant
//! delta in the worse direction — what `scripts/perfgate.sh` fails on.
//!
//! Arrays of objects are matched by a composite identity key (kernel,
//! mode, node, page, toggle flags, …) rather than by index, so a
//! reordered or grown artifact diffs structurally instead of pairing
//! unrelated rows.

use std::fmt;
use std::fmt::Write as _;

use crate::json::{self, Fixed, ToJson, Value, Writer};

/// Significance thresholds. A delta is significant when `|delta| >
/// abs` **and** `|rel%| > rel_pct` (a vanished/appeared value counts as
/// infinite relative change). The defaults flag every non-zero delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Absolute magnitude floor (same unit as the metric).
    pub abs: f64,
    /// Relative magnitude floor, in percent of the before-value.
    pub rel_pct: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            abs: 0.0,
            rel_pct: 0.0,
        }
    }
}

/// Which way a metric hurts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Growth is a regression (latency, faults, messages, wait time).
    HigherWorse,
    /// Shrinkage is a regression (speedup, hit rate, headroom).
    LowerWorse,
    /// Never gates (config echoes, wall-clock host time).
    Neutral,
}

/// Classifies a leaf key's direction. Wall-clock keys are neutral first
/// (host-dependent), then good-when-big names, then bad-when-big names;
/// anything unrecognized is neutral so config echoes can't fake a
/// regression.
pub fn direction_for(leaf: &str) -> Direction {
    let k = leaf.to_ascii_lowercase();
    if k.contains("wall") {
        return Direction::Neutral;
    }
    const LOWER_WORSE: &[&str] = &["speedup", "hit", "completion", "admissible", "mbs"];
    if LOWER_WORSE.iter().any(|w| k.contains(w)) {
        return Direction::LowerWorse;
    }
    const HIGHER_WORSE: &[&str] = &[
        "_ns",
        "p50",
        "p95",
        "p99",
        "fault",
        "fetch",
        "diff",
        "inval",
        "msg",
        "bytes",
        "dropped",
        "realloc",
        "wasted",
        "wait",
        "stall",
        "count",
        "retrans",
        "latency",
        "compute",
        "misplaced",
    ];
    if HIGHER_WORSE.iter().any(|w| k.contains(w)) {
        return Direction::HigherWorse;
    }
    Direction::Neutral
}

/// Coarse report section a path belongs to, for grouping in the output.
pub fn section_for(path: &str) -> &'static str {
    let p = path.to_ascii_lowercase();
    if p.contains("stall") || p.contains("slices") {
        "stall"
    } else if p.contains("blame") || p.contains("critpath") || p.contains("by_") {
        "critpath"
    } else if p.contains("hist") || p.contains("p50") || p.contains("p95") || p.contains("p99") {
        "hists"
    } else if p.contains("layer") {
        "layers"
    } else if p.contains("kind") {
        "kinds"
    } else if p.contains("page") {
        "pages"
    } else if p.contains("gauge") || p.contains("engine") {
        "gauges"
    } else if p.contains("node") {
        "nodes"
    } else {
        "other"
    }
}

/// One changed numeric leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// Dotted path of the leaf, array elements keyed by identity
    /// (e.g. `kernels[kernel=FFT].snapshot.nodes[node=3].layer_ns.sync`).
    pub path: String,
    /// Coarse section ([`section_for`]).
    pub section: &'static str,
    /// Value in the first (baseline) input.
    pub before: f64,
    /// Value in the second (candidate) input.
    pub after: f64,
    /// `after - before`.
    pub delta: f64,
    /// `100 * delta / |before|`; infinite when `before == 0`.
    pub rel_pct: f64,
    /// Direction of the leaf key.
    pub direction: Direction,
    /// Whether the delta clears both thresholds.
    pub significant: bool,
    /// Significant *and* in the worse direction.
    pub regression: bool,
}

/// The structured delta between two JSON trees.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Diff {
    /// Changed numeric leaves, in walk order (deterministic).
    pub rows: Vec<DeltaRow>,
    /// Changed string/bool leaves: `(path, before, after)`.
    pub labels: Vec<(String, String, String)>,
    /// Paths present only in the second input.
    pub added: Vec<String>,
    /// Paths present only in the first input.
    pub removed: Vec<String>,
}

/// Keys that identify an object inside an array, in priority order. The
/// composite of every present key forms the element's identity.
const ID_KEYS: &[&str] = &[
    "kernel",
    "name",
    "program",
    "mode",
    "section",
    "node",
    "page",
    "kind",
    "src_node",
    "dst_node",
    "obj",
    "nodes",
    "procs",
    "m",
    "keys",
    "batch_diffs",
    "id",
    "track",
    "bucket",
    "start_ns",
    "level",
];

fn scalar_str(v: &Value) -> String {
    match v {
        Value::Num(n) => n.to_string(),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        Value::Null => "null".to_string(),
        _ => "?".to_string(),
    }
}

fn id_of(obj: &[(String, Value)]) -> Option<String> {
    let mut parts = Vec::new();
    for k in ID_KEYS {
        if let Some((_, v)) = obj.iter().find(|(kk, _)| kk == k) {
            if !matches!(v, Value::Arr(_) | Value::Obj(_)) {
                parts.push(format!("{k}={}", scalar_str(v)));
            }
        }
    }
    (!parts.is_empty()).then(|| parts.join(","))
}

fn walk(path: &str, a: &Value, b: &Value, th: &Thresholds, out: &mut Diff) {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => {
            if x != y {
                let leaf = path.rsplit('.').next().unwrap_or(path);
                let delta = y - x;
                let rel_pct = if *x != 0.0 {
                    100.0 * delta / x.abs()
                } else {
                    f64::INFINITY * delta.signum()
                };
                let direction = direction_for(leaf);
                let significant = delta.abs() > th.abs && rel_pct.abs() > th.rel_pct;
                let regression = significant
                    && match direction {
                        Direction::HigherWorse => delta > 0.0,
                        Direction::LowerWorse => delta < 0.0,
                        Direction::Neutral => false,
                    };
                out.rows.push(DeltaRow {
                    path: path.to_string(),
                    section: section_for(path),
                    before: *x,
                    after: *y,
                    delta,
                    rel_pct,
                    direction,
                    significant,
                    regression,
                });
            }
        }
        (Value::Obj(ka), Value::Obj(kb)) => {
            for (k, va) in ka {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match kb.iter().find(|(kk, _)| kk == k) {
                    Some((_, vb)) => walk(&sub, va, vb, th, out),
                    None => out.removed.push(sub),
                }
            }
            for (k, _) in kb {
                if !ka.iter().any(|(kk, _)| kk == k) {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    out.added.push(sub);
                }
            }
        }
        (Value::Arr(xa), Value::Arr(xb)) => {
            // Match object elements by identity when every element on both
            // sides has a unique id; otherwise pair by index.
            let ids_a: Vec<Option<String>> =
                xa.iter().map(|v| v.as_obj().and_then(id_of)).collect();
            let ids_b: Vec<Option<String>> =
                xb.iter().map(|v| v.as_obj().and_then(id_of)).collect();
            let unique = |ids: &[Option<String>]| {
                let mut seen = std::collections::BTreeSet::new();
                ids.iter().all(|i| match i {
                    Some(s) => seen.insert(s.clone()),
                    None => false,
                })
            };
            if !xa.is_empty() && !xb.is_empty() && unique(&ids_a) && unique(&ids_b) {
                for (va, ida) in xa.iter().zip(&ids_a) {
                    let ida = ida.as_ref().unwrap();
                    let sub = format!("{path}[{ida}]");
                    match ids_b.iter().position(|i| i.as_ref() == Some(ida)) {
                        Some(j) => walk(&sub, va, &xb[j], th, out),
                        None => out.removed.push(sub),
                    }
                }
                for idb in ids_b.iter().flatten() {
                    if !ids_a.iter().any(|i| i.as_ref() == Some(idb)) {
                        out.added.push(format!("{path}[{idb}]"));
                    }
                }
            } else {
                let n = xa.len().min(xb.len());
                for i in 0..n {
                    walk(&format!("{path}[{i}]"), &xa[i], &xb[i], th, out);
                }
                for i in n..xa.len() {
                    out.removed.push(format!("{path}[{i}]"));
                }
                for i in n..xb.len() {
                    out.added.push(format!("{path}[{i}]"));
                }
            }
        }
        (Value::Str(x), Value::Str(y)) => {
            if x != y {
                out.labels.push((path.to_string(), x.clone(), y.clone()));
            }
        }
        (Value::Bool(x), Value::Bool(y)) => {
            if x != y {
                out.labels
                    .push((path.to_string(), x.to_string(), y.to_string()));
            }
        }
        (Value::Null, Value::Null) => {}
        _ => {
            // Type changed — report as remove+add so nothing is silent.
            out.removed.push(path.to_string());
            out.added.push(path.to_string());
        }
    }
}

/// Diffs two parsed JSON trees. See the module docs for the guarantees.
pub fn diff(a: &Value, b: &Value, th: &Thresholds) -> Diff {
    let mut out = Diff::default();
    walk("", a, b, th, &mut out);
    out
}

impl Diff {
    /// True when the two inputs were identical.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
            && self.labels.is_empty()
            && self.added.is_empty()
            && self.removed.is_empty()
    }

    /// The significant rows.
    pub fn significant(&self) -> impl Iterator<Item = &DeltaRow> {
        self.rows.iter().filter(|r| r.significant)
    }

    /// The regression rows (significant, worse direction).
    pub fn regressions(&self) -> impl Iterator<Item = &DeltaRow> {
        self.rows.iter().filter(|r| r.regression)
    }

    /// Renders the delta report. With `all` false only significant rows
    /// print; regressions are marked `!!`.
    pub fn render(&self, title: &str, all: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== diff: {title} ===");
        if self.is_empty() {
            let _ = writeln!(out, "(identical)");
            return out;
        }
        let shown: Vec<&DeltaRow> = self.rows.iter().filter(|r| all || r.significant).collect();
        let _ = writeln!(
            out,
            "{:<9} {:<58} {:>14} {:>14} {:>10}",
            "", "path [section]", "before", "after", "delta%"
        );
        let _ = writeln!(out, "{}", "-".repeat(108));
        for r in &shown {
            let mark = if r.regression {
                "!!"
            } else if r.significant {
                match r.direction {
                    Direction::Neutral => "--",
                    _ => "ok",
                }
            } else {
                "  "
            };
            let rel = if r.rel_pct.is_finite() {
                format!("{:+.1}%", r.rel_pct)
            } else {
                "new".to_string()
            };
            let _ = writeln!(
                out,
                "{:<9} {:<58} {:>14} {:>14} {:>10}",
                mark,
                format!("{} [{}]", r.path, r.section),
                Fixed::or_int(r.before, 4),
                Fixed::or_int(r.after, 4),
                rel
            );
        }
        for (p, x, y) in &self.labels {
            let _ = writeln!(out, "~~        {p}: \"{x}\" -> \"{y}\"");
        }
        for p in &self.removed {
            let _ = writeln!(out, "-         {p}");
        }
        for p in &self.added {
            let _ = writeln!(out, "+         {p}");
        }
        let regs = self.regressions().count();
        let _ = writeln!(
            out,
            "{} changed, {} significant, {} regression(s), +{} added, -{} removed",
            self.rows.len(),
            self.significant().count(),
            regs,
            self.added.len(),
            self.removed.len()
        );
        out
    }

    /// Deterministic JSON of the delta report.
    pub fn to_json(&self) -> String {
        json::pretty(self)
    }
}

impl ToJson for Diff {
    fn write_json(&self, w: &mut Writer) {
        w.obj().key("rows").arr();
        for r in &self.rows {
            w.obj().field("path", &r.path).field("section", r.section);
            w.field("before", Fixed::or_int(r.before, 4))
                .field("after", Fixed::or_int(r.after, 4));
            w.field("delta", Fixed::or_int(r.delta, 4))
                .field("rel_pct", Fixed(r.rel_pct, 4));
            w.field("significant", r.significant)
                .field("regression", r.regression)
                .end();
        }
        w.end().key("labels").arr();
        for (p, x, y) in &self.labels {
            w.obj()
                .field("path", p)
                .field("before", x)
                .field("after", y)
                .end();
        }
        w.end()
            .field("added", &self.added)
            .field("removed", &self.removed)
            .end();
    }
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render("", false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn diff_of_identical_is_empty() {
        let v = parse(r#"{"a": 1, "b": {"c": [1, 2, 3]}, "s": "x"}"#).unwrap();
        let d = diff(&v, &v, &Thresholds::default());
        assert!(d.is_empty());
        assert!(d.render("t", true).contains("identical"));
    }

    #[test]
    fn numeric_delta_direction_and_significance() {
        let a = parse(r#"{"total_ns": 100, "speedup": 2.0, "wall_ms": 5.0, "procs": 8}"#).unwrap();
        let b = parse(r#"{"total_ns": 150, "speedup": 1.0, "wall_ms": 9.0, "procs": 8}"#).unwrap();
        let d = diff(&a, &b, &Thresholds::default());
        assert_eq!(d.rows.len(), 3);
        let by_path = |p: &str| d.rows.iter().find(|r| r.path == p).unwrap();
        assert!(by_path("total_ns").regression); // higher-worse, grew
        assert!(by_path("speedup").regression); // lower-worse, shrank
        assert!(!by_path("wall_ms").regression); // neutral never gates
                                                 // Thresholding is monotone: a 60% rel floor keeps only the speedup.
        let d2 = diff(
            &a,
            &b,
            &Thresholds {
                abs: 0.0,
                rel_pct: 49.0,
            },
        );
        let sig: Vec<_> = d2.significant().map(|r| r.path.as_str()).collect();
        assert_eq!(sig, vec!["total_ns", "speedup", "wall_ms"]);
        let d3 = diff(
            &a,
            &b,
            &Thresholds {
                abs: 0.0,
                rel_pct: 60.0,
            },
        );
        let sig3: Vec<_> = d3.significant().map(|r| r.path.as_str()).collect();
        assert_eq!(sig3, vec!["wall_ms"]); // 80% growth; others below 60%
    }

    #[test]
    fn arrays_match_by_identity_key() {
        let a = parse(
            r#"{"kernels": [{"kernel": "FFT", "faults": 10}, {"kernel": "RADIX", "faults": 5}]}"#,
        )
        .unwrap();
        let b = parse(r#"{"kernels": [{"kernel": "RADIX", "faults": 5}, {"kernel": "FFT", "faults": 12}, {"kernel": "LU", "faults": 1}]}"#)
            .unwrap();
        let d = diff(&a, &b, &Thresholds::default());
        assert_eq!(d.rows.len(), 1);
        assert_eq!(d.rows[0].path, "kernels[kernel=FFT].faults");
        assert_eq!(d.rows[0].delta, 2.0);
        assert!(d.rows[0].regression);
        assert_eq!(d.added, vec!["kernels[kernel=LU]".to_string()]);
        assert!(d.removed.is_empty());
    }

    #[test]
    fn deterministic_and_json_valid() {
        let a = parse(r#"{"x": [1, 2], "mode": "base", "ok": true}"#).unwrap();
        let b = parse(r#"{"x": [1, 3, 4], "mode": "cables", "ok": false}"#).unwrap();
        let d1 = diff(&a, &b, &Thresholds::default());
        let d2 = diff(&a, &b, &Thresholds::default());
        assert_eq!(d1, d2);
        assert_eq!(d1.to_json(), d2.to_json());
        crate::json::validate(&d1.to_json()).expect("diff JSON parses");
        assert_eq!(d1.labels.len(), 2);
        assert_eq!(d1.added, vec!["x[2]".to_string()]);
    }
}
