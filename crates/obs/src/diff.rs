//! Differential run analysis: every changed leaf between two JSON
//! documents.
//!
//! The perf gate (`scripts/perfgate.sh`) is byte identity: the simulator
//! is deterministic, so a gated smoke artifact must equal its baseline
//! byte for byte. [`diff`] is what the gate prints when one does not. It
//! walks two parsed [`crate::json::Value`] trees (any of the
//! `BENCH_*.json` artifacts, a [`crate::MetricsSnapshot`] document,
//! a critpath report, or a stall profile) in lock-step and emits one
//! [`DeltaRow`] per *changed numeric leaf*, with both exact values, plus
//! added/removed paths and changed string/bool labels. It judges
//! nothing: every change is a row, whichever way it moved.
//!
//! - **`diff(a, a)` is empty.** Rows exist only where the values differ.
//! - **Deterministic.** The walk order is a pure function of the inputs;
//!   two runs produce byte-identical reports.
//!
//! Arrays of objects are matched by a composite identity key (kernel,
//! mode, node, page, toggle flags, …) rather than by index, so a
//! reordered or grown artifact diffs structurally instead of pairing
//! unrelated rows.

use std::fmt;
use std::fmt::Write as _;

use crate::json::{Fixed, Num, ToJson, Value, Writer};

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
    /// Value in the first (baseline) input, as written.
    pub before: Num,
    /// Value in the second (candidate) input, as written.
    pub after: Num,
    /// `after - before`, from the exact difference when both are
    /// integers (a digest's last bit moves it by 1, not by 0).
    pub delta: f64,
    /// `100 * delta / |before|`; infinite when `before == 0`.
    pub rel_pct: f64,
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

/// `after - before`, exact for integer tokens before the cast.
fn delta(before: &Num, after: &Num) -> f64 {
    match (
        before.as_str().parse::<i128>(),
        after.as_str().parse::<i128>(),
    ) {
        (Ok(x), Ok(y)) => (y - x) as f64,
        _ => after.to_f64() - before.to_f64(),
    }
}

fn walk(path: &str, a: &Value, b: &Value, out: &mut Diff) {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => {
            if x != y {
                let delta = delta(x, y);
                let x0 = x.to_f64();
                out.rows.push(DeltaRow {
                    path: path.to_string(),
                    section: section_for(path),
                    before: x.clone(),
                    after: y.clone(),
                    delta,
                    rel_pct: if x0 != 0.0 {
                        100.0 * delta / x0.abs()
                    } else {
                        f64::INFINITY * delta.signum()
                    },
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
                    Some((_, vb)) => walk(&sub, va, vb, out),
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
                let only_a: Vec<usize> = (0..xa.len())
                    .filter(|&i| !ids_b.contains(&ids_a[i]))
                    .collect();
                let only_b: Vec<usize> = (0..xb.len())
                    .filter(|&j| !ids_a.contains(&ids_b[j]))
                    .collect();
                // One element left over on each side is one element whose
                // identity key itself was edited (`procs` 8 -> 9): walk it
                // leaf by leaf under the baseline's id, so the edited key
                // shows as a row instead of a remove and an add.
                let edited = match (&only_a[..], &only_b[..]) {
                    (&[i], &[j]) => Some((i, j)),
                    _ => None,
                };
                for (i, (va, ida)) in xa.iter().zip(&ids_a).enumerate() {
                    let ida = ida.as_ref().unwrap();
                    let sub = format!("{path}[{ida}]");
                    match ids_b.iter().position(|id| id.as_ref() == Some(ida)) {
                        Some(j) => walk(&sub, va, &xb[j], out),
                        None => match edited {
                            Some((ei, j)) if ei == i => walk(&sub, va, &xb[j], out),
                            _ => out.removed.push(sub),
                        },
                    }
                }
                if edited.is_none() {
                    for j in only_b {
                        out.added
                            .push(format!("{path}[{}]", ids_b[j].as_ref().unwrap()));
                    }
                }
            } else {
                let n = xa.len().min(xb.len());
                for i in 0..n {
                    walk(&format!("{path}[{i}]"), &xa[i], &xb[i], out);
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
pub fn diff(a: &Value, b: &Value) -> Diff {
    let mut out = Diff::default();
    walk("", a, b, &mut out);
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

    /// Renders the delta report: every changed leaf with both values.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== diff: {title} ===");
        if self.is_empty() {
            let _ = writeln!(out, "(identical)");
            return out;
        }
        if !self.rows.is_empty() {
            let _ = writeln!(
                out,
                "{:<58} {:>20} {:>20} {:>10}",
                "path [section]", "before", "after", "delta%"
            );
            let _ = writeln!(out, "{}", "-".repeat(111));
        }
        for r in &self.rows {
            let rel = if r.rel_pct.is_finite() {
                format!("{:+.1}%", r.rel_pct)
            } else {
                "new".to_string()
            };
            let _ = writeln!(
                out,
                "{:<58} {:>20} {:>20} {:>10}",
                format!("{} [{}]", r.path, r.section),
                r.before,
                r.after,
                rel
            );
        }
        for (p, x, y) in &self.labels {
            let _ = writeln!(out, "~ {p}: \"{x}\" -> \"{y}\"");
        }
        for p in &self.removed {
            let _ = writeln!(out, "- {p}");
        }
        for p in &self.added {
            let _ = writeln!(out, "+ {p}");
        }
        let _ = writeln!(
            out,
            "{} changed, {} label(s) changed, +{} added, -{} removed",
            self.rows.len(),
            self.labels.len(),
            self.added.len(),
            self.removed.len()
        );
        out
    }
}

impl ToJson for Diff {
    fn write_json(&self, w: &mut Writer) {
        w.obj().key("rows").arr();
        for r in &self.rows {
            w.obj().field("path", &r.path).field("section", r.section);
            w.field("before", &r.before).field("after", &r.after);
            w.field("delta", Fixed::or_int(r.delta, 4))
                .field("rel_pct", Fixed(r.rel_pct, 4))
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
        f.write_str(&self.render(""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, parse};

    #[test]
    fn diff_of_identical_is_empty() {
        let v = parse(r#"{"a": 1, "b": {"c": [1, 2, 3]}, "s": "x"}"#).unwrap();
        let d = diff(&v, &v);
        assert!(d.is_empty());
        assert!(d.render("t").contains("identical"));
    }

    #[test]
    fn every_changed_leaf_is_a_row_whichever_way_it_moved() {
        let a = parse(r#"{"total_ns": 100, "speedup": 2.0, "wall_ms": 5.0, "procs": 8}"#).unwrap();
        let b = parse(r#"{"total_ns": 150, "speedup": 1.0, "wall_ms": 9.0, "procs": 8}"#).unwrap();
        let d = diff(&a, &b);
        let paths: Vec<_> = d.rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["total_ns", "speedup", "wall_ms"]);
        assert_eq!(d.rows[0].delta, 50.0);
        assert_eq!(d.rows[0].rel_pct, 50.0);
        assert_eq!(d.rows[1].delta, -1.0);
    }

    #[test]
    fn a_digest_changed_in_its_lowest_bit_is_one_exact_row() {
        let a = parse(r#"{"digest": 12559862624275433760, "served": 60}"#).unwrap();
        let b = parse(r#"{"digest": 12559862624275433761, "served": 60}"#).unwrap();
        let d = diff(&a, &b);
        assert_eq!(d.rows.len(), 1);
        let r = &d.rows[0];
        assert_eq!(r.path, "digest");
        assert_eq!(r.before.as_str(), "12559862624275433760");
        assert_eq!(r.after.as_str(), "12559862624275433761");
        assert_eq!(r.delta, 1.0);
        assert!(d
            .render("t")
            .contains("12559862624275433760 12559862624275433761"));
    }

    #[test]
    fn section_for_tags_stall_critpath_kind_and_headline_paths() {
        for (path, section) in [
            ("stall.threads[node=0,track=3].barrier_wait", "stall"),
            ("stall.slices[start_ns=5].barrier_wait", "stall"),
            ("series.windows[start_ns=5].stall_ns.barrier_wait", "stall"),
            ("critpath.blame[kind=lock_handoff].total_ns", "critpath"),
            (
                "snapshot.kinds[name=proto.fault_handling].total_ns",
                "kinds",
            ),
            ("sim_time_ns", "other"),
        ] {
            assert_eq!(section_for(path), section, "{path}");
        }
    }

    #[test]
    fn arrays_match_by_identity_key() {
        let a = parse(
            r#"{"kernels": [{"kernel": "FFT", "faults": 10}, {"kernel": "RADIX", "faults": 5}]}"#,
        )
        .unwrap();
        let b = parse(r#"{"kernels": [{"kernel": "RADIX", "faults": 5}, {"kernel": "FFT", "faults": 12}, {"kernel": "LU", "faults": 1}]}"#)
            .unwrap();
        let d = diff(&a, &b);
        assert_eq!(d.rows.len(), 1);
        assert_eq!(d.rows[0].path, "kernels[kernel=FFT].faults");
        assert_eq!(d.rows[0].delta, 2.0);
        assert_eq!(d.added, vec!["kernels[kernel=LU]".to_string()]);
        assert!(d.removed.is_empty());
    }

    #[test]
    fn an_edited_identity_key_is_a_row() {
        let a = parse(r#"{"kernels": [{"kernel": "FFT", "procs": 8, "t": 1}, {"kernel": "RADIX", "procs": 8, "t": 5}]}"#)
            .unwrap();
        let b = parse(r#"{"kernels": [{"kernel": "FFT", "procs": 8, "t": 1}, {"kernel": "RADIX", "procs": 9, "t": 6}]}"#)
            .unwrap();
        let d = diff(&a, &b);
        let rows: Vec<_> = d
            .rows
            .iter()
            .map(|r| (r.path.as_str(), r.before.as_str(), r.after.as_str()))
            .collect();
        assert_eq!(
            rows,
            [
                ("kernels[kernel=RADIX,procs=8].procs", "8", "9"),
                ("kernels[kernel=RADIX,procs=8].t", "5", "6")
            ]
        );
        assert!(d.added.is_empty() && d.removed.is_empty());
        // An array grown by one element still reports the new one as added.
        let c = parse(r#"{"kernels": [{"kernel": "FFT", "procs": 8, "t": 1}, {"kernel": "RADIX", "procs": 8, "t": 5}, {"kernel": "LU", "procs": 8, "t": 2}]}"#)
            .unwrap();
        let d = diff(&a, &c);
        assert!(d.rows.is_empty() && d.removed.is_empty());
        assert_eq!(d.added, ["kernels[kernel=LU,procs=8]"]);
    }

    #[test]
    fn deterministic_and_json_valid() {
        let a = parse(r#"{"x": [1, 2], "mode": "base", "ok": true}"#).unwrap();
        let b = parse(r#"{"x": [1, 3, 4], "mode": "cables", "ok": false}"#).unwrap();
        let d1 = diff(&a, &b);
        let d2 = diff(&a, &b);
        assert_eq!(d1, d2);
        assert_eq!(json::pretty(&d1), json::pretty(&d2));
        json::validate(&json::pretty(&d1)).expect("diff JSON parses");
        assert_eq!(d1.labels.len(), 2);
        assert_eq!(d1.added, vec!["x[2]".to_string()]);
    }
}
