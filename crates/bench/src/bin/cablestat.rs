//! `cablestat` — snapshot pretty-printer, stall-table renderer,
//! differential analyzer, and streaming-telemetry toolbox for the
//! `BENCH_*.json` / `stream_*.ndjson` artifacts.
//!
//! ```text
//! cablestat print FILE            pretty-print the snapshot(s) in FILE
//!                                 (paper-style tables + stall profile)
//! cablestat diff A B [OPTS]       structured delta between two artifacts
//!     --abs N       absolute significance floor (default 0)
//!     --rel PCT     relative significance floor, percent (default 0)
//!     --all         print every changed leaf, not just significant ones
//!     --gate        exit 1 when any regression survives the thresholds
//!     --json        emit the delta as JSON instead of a table
//! cablestat explain A B [OPTS]    root-cause a failing diff: join each
//!                                 regressed metric against stall-bucket,
//!                                 critpath, kind, and page deltas
//!     --abs/--rel   as for diff
//!     --top N       findings/causes per finding to show (default 5)
//!     --streams X Y baseline + candidate NDJSON series for time-window
//!                   attribution
//!     --json        emit the report as JSON
//! cablestat tail STREAM [OPTS]    render an NDJSON metric series
//!                                 (stall mix, protocol counters/sec,
//!                                 per-window latency percentiles)
//!     --follow      keep reading until the end line appears (live runs)
//! cablestat series STREAM [OPTS]  fold a stream into the windowed table
//!                                 and verify frames re-sum exactly to
//!                                 the embedded final snapshot (exit 1 on
//!                                 divergence)
//!     --json        emit the windowed table as JSON
//! cablestat check FILE...         validate artifacts against the obs
//!                                 JSON grammar; `.ndjson` files are also
//!                                 checked against the stream grammar and
//!                                 fold-verified; parse failures report
//!                                 line:column (exit 1 on the first bad)
//! cablestat inflate FILE OUT KEY FACTOR
//!                                 copy FILE to OUT with every numeric
//!                                 leaf named KEY multiplied by FACTOR
//!                                 (perfgate's self-test regression
//!                                 injector)
//! ```
//!
//! Every subcommand accepts `--dir DIR`: relative FILE arguments that do
//! not resolve as given are looked up under DIR (default `.`; `tail` and
//! `series` default to `target/artifacts`, where the exporters write).
//!
//! Artifacts that predate the `cablestat` binary draw a staleness
//! warning — a `BENCH_*.json` older than the tool that should have
//! regenerated it usually means a forgotten bench run.
//!
//! Exit codes: 0 ok, 1 gated regression / invalid artifact / fold
//! divergence, 2 usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use obs::diff::{diff, Thresholds};
use obs::explain::explain_diff;
use obs::json::{line_col, parse, Value, Writer};
use obs::series::windowed_table;
use obs::stream::{parse_stream, Stream};
use obs::{report, MetricsSnapshot};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let dir = take_dir_flag(&mut args);
    let cmd = args.first().map(String::as_str);
    match cmd {
        Some("print") => cmd_print(&args[1..], dir.as_deref().unwrap_or(".")),
        Some("diff") => cmd_diff(&args[1..], dir.as_deref().unwrap_or(".")),
        Some("explain") => cmd_explain(&args[1..], dir.as_deref().unwrap_or(".")),
        Some("tail") => cmd_tail(&args[1..], dir.as_deref().unwrap_or("target/artifacts")),
        Some("series") => cmd_series(&args[1..], dir.as_deref().unwrap_or("target/artifacts")),
        Some("check") => cmd_check(&args[1..], dir.as_deref().unwrap_or(".")),
        Some("inflate") => cmd_inflate(&args[1..], dir.as_deref().unwrap_or(".")),
        _ => {
            eprintln!(
                "usage: cablestat print FILE\n       cablestat diff A B [--abs N] [--rel PCT] [--all] [--gate] [--json]\n       cablestat explain A B [--abs N] [--rel PCT] [--top N] [--streams X Y] [--json]\n       cablestat tail STREAM [--follow]\n       cablestat series STREAM [--json]\n       cablestat check FILE...\n       cablestat inflate FILE OUT KEY FACTOR\n       (all subcommands: --dir DIR to resolve relative FILEs)"
            );
            ExitCode::from(2)
        }
    }
}

/// Pulls `--dir DIR` out of the argument list (position-independent).
fn take_dir_flag(args: &mut Vec<String>) -> Option<String> {
    let i = args.iter().position(|a| a == "--dir")?;
    if i + 1 >= args.len() {
        return None;
    }
    let dir = args.remove(i + 1);
    args.remove(i);
    Some(dir)
}

/// Resolves FILE against `--dir`: paths that exist as given (or are
/// absolute) win; otherwise the file is looked up under the directory.
fn resolve(dir: &str, path: &str) -> PathBuf {
    let p = Path::new(path);
    if p.is_absolute() || p.exists() || dir == "." {
        return p.to_path_buf();
    }
    Path::new(dir).join(p)
}

/// Whether `path` deserves a staleness warning: a regenerable artifact
/// (`BENCH_*` / `stream_*`, but not a committed baseline — those are
/// historical by design) whose mtime predates the tool's.
fn is_stale(
    path: &Path,
    artifact_mtime: std::time::SystemTime,
    exe_mtime: std::time::SystemTime,
) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if !(name.starts_with("BENCH_") || name.starts_with("stream_")) {
        return false;
    }
    if path.components().any(|c| c.as_os_str() == "baselines") {
        return false;
    }
    artifact_mtime < exe_mtime
}

/// Warns when a generated artifact is older than this binary: the tool
/// that regenerates `BENCH_*` / `stream_*` artifacts was rebuilt after
/// the artifact was written, so the artifact may describe old code.
fn warn_if_stale(path: &Path) {
    let (Ok(artifact), Ok(exe)) = (
        path.metadata().and_then(|m| m.modified()),
        std::env::current_exe()
            .and_then(|e| e.metadata())
            .and_then(|m| m.modified()),
    ) else {
        return;
    };
    if is_stale(path, artifact, exe) {
        eprintln!(
            "cablestat: warning: {} predates this binary — regenerate it (scripts/perfgate.sh or the owning bench)",
            path.display()
        );
    }
}

/// Reads and parses one artifact; parse errors are reported as
/// `path:line:col`.
fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    warn_if_stale(path);
    parse(&text).map_err(|e| located(path, &text, &e))
}

/// Rewrites a `... at byte N` parser error as `path:line:col: error`.
fn located(path: &Path, text: &str, err: &str) -> String {
    if let Some(byte) = err.rsplit(' ').next().and_then(|n| n.parse::<usize>().ok()) {
        if err.contains("byte") {
            let (line, col) = line_col(text, byte);
            return format!("{}:{line}:{col}: {err}", path.display());
        }
    }
    format!("{}: {err}", path.display())
}

fn load_stream(path: &Path) -> Result<Stream, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    warn_if_stale(path);
    parse_stream(&text).map_err(|e| format!("{}:{e}", path.display()))
}

/// A snapshot-shaped object (the `MetricsSnapshot::to_json` fields).
fn is_snapshot(v: &Value) -> bool {
    ["dropped_events", "nodes", "kinds", "hists"]
        .iter()
        .all(|k| v.get(k).is_some())
}

/// A stall-profile-shaped object (`obs::stall::StallProfile` JSON: totals
/// + threads with bucket fields).
fn is_stall(v: &Value) -> bool {
    ["totals", "threads", "slice_ns"]
        .iter()
        .all(|k| v.get(k).is_some())
}

/// Finds every subtree `is` accepts and returns it with a breadcrumb
/// label, so both raw documents and `BENCH_obs_*.json` wrappers print.
fn find<'a>(label: &str, v: &'a Value, is: fn(&Value) -> bool, out: &mut Vec<(String, &'a Value)>) {
    if is(v) {
        out.push((label.to_string(), v));
        return;
    }
    match v {
        Value::Obj(kvs) => {
            for (k, sub) in kvs {
                let l = if label.is_empty() {
                    k.clone()
                } else {
                    format!("{label}.{k}")
                };
                find(&l, sub, is, out);
            }
        }
        Value::Arr(xs) => {
            for (i, sub) in xs.iter().enumerate() {
                let id = sub
                    .get("kernel")
                    .and_then(|x| x.as_str())
                    .map(str::to_string)
                    .unwrap_or_else(|| i.to_string());
                find(&format!("{label}[{id}]"), sub, is, out);
            }
        }
        _ => {}
    }
}

fn render_stall_value(title: &str, v: &Value) -> Option<String> {
    use std::fmt::Write as _;
    let threads = v.get("threads")?.as_arr()?;
    let buckets: Vec<&str> = v
        .get("totals")?
        .as_obj()?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "=== {title}: per-thread stall profile ===");
    let _ = write!(out, "{:<10} {:>12}", "thread", "lifetime");
    for b in &buckets {
        let short: String = b.chars().take(6).collect();
        let _ = write!(out, " {:>6}", short);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(23 + 7 * buckets.len()));
    let mut row = |label: &str, src: &Value, life: u64| {
        let _ = write!(out, "{:<10} {:>12}", label, life);
        for b in &buckets {
            let v = src.get(b).and_then(|x| x.as_u64()).unwrap_or(0);
            let pct = if life == 0 {
                0.0
            } else {
                100.0 * v as f64 / life as f64
            };
            let _ = write!(out, " {:>5.1}%", pct);
        }
        let _ = writeln!(out);
    };
    for t in threads {
        let node = t.get("node").and_then(|x| x.as_u64()).unwrap_or(0);
        let track = t.get("track").and_then(|x| x.as_u64()).unwrap_or(0);
        let s = t.get("start_ns").and_then(|x| x.as_u64()).unwrap_or(0);
        let e = t.get("end_ns").and_then(|x| x.as_u64()).unwrap_or(0);
        row(&format!("n{node}/t{track}"), t, e.saturating_sub(s));
    }
    let life = v.get("lifetime_ns").and_then(|x| x.as_u64()).unwrap_or(0);
    row("total", v.get("totals")?, life);
    Some(out)
}

fn cmd_print(args: &[String], dir: &str) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("cablestat print: missing FILE");
        return ExitCode::from(2);
    };
    let path = resolve(dir, path);
    let v = match load(&path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cablestat: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut snaps = Vec::new();
    find("", &v, is_snapshot, &mut snaps);
    let mut printed = false;
    for (label, sv) in &snaps {
        match MetricsSnapshot::from_value(sv) {
            Ok(s) => {
                let title = if label.is_empty() {
                    path.display().to_string()
                } else {
                    label.clone()
                };
                println!("{}", report::full_report(&title, &s));
                printed = true;
            }
            Err(e) => eprintln!("cablestat: {}: snapshot at `{label}`: {e}", path.display()),
        }
    }
    let mut stalls = Vec::new();
    find("", &v, is_stall, &mut stalls);
    for (label, sv) in &stalls {
        let title = if label.is_empty() {
            path.display().to_string()
        } else {
            label.clone()
        };
        if let Some(t) = render_stall_value(&title, sv) {
            println!("{t}");
            printed = true;
        }
    }
    if !printed {
        // Not a snapshot-bearing artifact: show the top-level scalars so
        // `print` is still useful on e.g. BENCH_table3.json.
        println!(
            "{}: no metrics snapshot found; top-level fields:",
            path.display()
        );
        if let Some(kvs) = v.as_obj() {
            for (k, x) in kvs {
                match x {
                    Value::Arr(a) => println!("  {k}: [{} element(s)]", a.len()),
                    Value::Obj(o) => println!("  {k}: {{{} field(s)}}", o.len()),
                    other => println!("  {k}: {}", other.to_json()),
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// Parses `--abs N` / `--rel PCT` into thresholds; unknown arguments are
/// handed back for the caller's own flags, file operands in order.
fn parse_diff_args<'a>(
    args: &'a [String],
    th: &mut Thresholds,
) -> Result<(Vec<&'a str>, Vec<&'a str>), String> {
    let mut files = Vec::new();
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--abs" | "--rel" => {
                let flag = args[i].as_str();
                i += 1;
                let val = args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or_else(|| format!("{flag} needs a number"))?;
                if flag == "--abs" {
                    th.abs = val;
                } else {
                    th.rel_pct = val;
                }
            }
            f if f.starts_with("--") => rest.push(f),
            f => files.push(f),
        }
        i += 1;
    }
    Ok((files, rest))
}

fn cmd_diff(args: &[String], dir: &str) -> ExitCode {
    let mut th = Thresholds::default();
    let (files, flags) = match parse_diff_args(args, &mut th) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cablestat diff: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut all, mut gate, mut as_json) = (false, false, false);
    for f in flags {
        match f {
            "--all" => all = true,
            "--gate" => gate = true,
            "--json" => as_json = true,
            other => {
                eprintln!("cablestat diff: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        eprintln!("cablestat diff: need exactly two files");
        return ExitCode::from(2);
    };
    let (a_path, b_path) = (resolve(dir, a_path), resolve(dir, b_path));
    let (a, b) = match (load(&a_path), load(&b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cablestat: {e}");
            return ExitCode::FAILURE;
        }
    };
    let d = diff(&a, &b, &th);
    if as_json {
        print!("{}", d.to_json());
    } else {
        print!(
            "{}",
            d.render(
                &format!("{} -> {}", a_path.display(), b_path.display()),
                all
            )
        );
    }
    let regressions = d.regressions().count();
    if gate && regressions > 0 {
        eprintln!(
            "cablestat: GATE FAILED — {regressions} regression(s) beyond abs>{} rel>{}%",
            th.abs, th.rel_pct
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_explain(args: &[String], dir: &str) -> ExitCode {
    let mut th = Thresholds::default();
    // Consume value-taking flags before the generic split.
    let mut args = args.to_vec();
    let mut top = 5usize;
    let mut streams: Option<(String, String)> = None;
    let mut as_json = false;
    if let Some(i) = args.iter().position(|a| a == "--top") {
        let Some(v) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
            eprintln!("cablestat explain: --top needs a count");
            return ExitCode::from(2);
        };
        top = v.max(1);
        args.drain(i..=i + 1);
    }
    if let Some(i) = args.iter().position(|a| a == "--streams") {
        if i + 2 >= args.len() {
            eprintln!("cablestat explain: --streams needs two files");
            return ExitCode::from(2);
        }
        streams = Some((args[i + 1].clone(), args[i + 2].clone()));
        args.drain(i..=i + 2);
    }
    if let Some(i) = args.iter().position(|a| a == "--json") {
        as_json = true;
        args.remove(i);
    }
    let (files, flags) = match parse_diff_args(&args, &mut th) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cablestat explain: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(f) = flags.first() {
        eprintln!("cablestat explain: unknown flag {f}");
        return ExitCode::from(2);
    }
    let [a_path, b_path] = files.as_slice() else {
        eprintln!("cablestat explain: need exactly two files");
        return ExitCode::from(2);
    };
    let (a_path, b_path) = (resolve(dir, a_path), resolve(dir, b_path));
    let (a, b) = match (load(&a_path), load(&b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cablestat: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed_streams = match &streams {
        Some((x, y)) => {
            let sx = resolve("target/artifacts", x);
            let sy = resolve("target/artifacts", y);
            match (load_stream(&sx), load_stream(&sy)) {
                (Ok(sx), Ok(sy)) => Some((sx, sy)),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("cablestat: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let d = diff(&a, &b, &th);
    let e = explain_diff(&d, &th, parsed_streams.as_ref().map(|(x, y)| (x, y)), top);
    if as_json {
        print!("{}", e.to_json());
    } else {
        print!(
            "{}",
            e.render(&format!("{} -> {}", a_path.display(), b_path.display()))
        );
    }
    ExitCode::SUCCESS
}

/// Renders the last `n` frames of a stream as table rows (header
/// included when `with_header`).
fn render_rows(s: &Stream, from: usize, with_header: bool) -> String {
    let rows = windowed_table(&s.frames[from..]);
    let table = report::window_table(&rows);
    if with_header {
        table
    } else {
        table.lines().skip(2).map(|l| format!("{l}\n")).collect()
    }
}

fn stream_summary(s: &Stream) -> String {
    match &s.end {
        Some(e) => format!(
            "end: sim_time {}ns, {} frame(s), fold {}",
            e.sim_time_ns,
            e.frames,
            match s.verify_fold() {
                Ok(()) => "exact".to_string(),
                Err(err) => format!("DIVERGED ({err})"),
            }
        ),
        None => format!(
            "(live stream: {} frame(s), no end line yet)",
            s.frames.len()
        ),
    }
}

fn cmd_tail(args: &[String], dir: &str) -> ExitCode {
    let mut follow = false;
    let mut file = None;
    for a in args {
        match a.as_str() {
            "--follow" | "-f" => follow = true,
            f if f.starts_with("--") => {
                eprintln!("cablestat tail: unknown flag {f}");
                return ExitCode::from(2);
            }
            f => file = Some(f.to_string()),
        }
    }
    let Some(file) = file else {
        eprintln!("cablestat tail: missing STREAM");
        return ExitCode::from(2);
    };
    let path = resolve(dir, &file);
    let mut shown = 0usize;
    let mut header_printed = false;
    loop {
        // Complete lines only: a live exporter may be mid-write on the
        // last one.
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if follow => {
                eprintln!("cablestat tail: {}: {e} (waiting)", path.display());
                std::thread::sleep(std::time::Duration::from_millis(200));
                continue;
            }
            Err(e) => {
                eprintln!("cablestat: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let complete = match text.rfind('\n') {
            Some(i) => &text[..=i],
            None => "",
        };
        let s = match parse_stream(complete) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cablestat: {}:{e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        if !header_printed {
            println!(
                "stream {} (kernel {}, sample {}ns)",
                path.display(),
                s.header.kernel,
                s.header.sample_ns
            );
            header_printed = true;
        }
        if s.frames.len() > shown {
            print!("{}", render_rows(&s, shown, shown == 0));
            shown = s.frames.len();
        }
        if s.end.is_some() || !follow {
            println!("{}", stream_summary(&s));
            return if matches!(&s.end, Some(_)) && s.verify_fold().is_err() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            };
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

fn cmd_series(args: &[String], dir: &str) -> ExitCode {
    let mut as_json = false;
    let mut file = None;
    for a in args {
        match a.as_str() {
            "--json" => as_json = true,
            f if f.starts_with("--") => {
                eprintln!("cablestat series: unknown flag {f}");
                return ExitCode::from(2);
            }
            f => file = Some(f.to_string()),
        }
    }
    let Some(file) = file else {
        eprintln!("cablestat series: missing STREAM");
        return ExitCode::from(2);
    };
    let path = resolve(dir, &file);
    let s = match load_stream(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cablestat: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fold_ok = match &s.end {
        Some(_) => s.verify_fold().is_ok(),
        None => true,
    };
    if as_json {
        let mut w = Writer::pretty();
        w.obj()
            .field("kernel", &s.header.kernel)
            .field("sample_ns", s.header.sample_ns);
        w.field("frames", s.frames.len())
            .field("fold_exact", fold_ok);
        w.field("windows", windowed_table(&s.frames)).end();
        print!("{}", w.finish());
    } else {
        println!(
            "stream {} (kernel {}, sample {}ns)",
            path.display(),
            s.header.kernel,
            s.header.sample_ns
        );
        print!("{}", render_rows(&s, 0, true));
        println!("{}", stream_summary(&s));
    }
    if !fold_ok {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_check(args: &[String], dir: &str) -> ExitCode {
    if args.is_empty() {
        eprintln!("cablestat check: missing FILE(s)");
        return ExitCode::from(2);
    }
    for path in args {
        let p = resolve(dir, path);
        if path.ends_with(".ndjson") {
            match load_stream(&p) {
                Ok(s) => {
                    if let Some(_) = &s.end {
                        if let Err(e) = s.verify_fold() {
                            eprintln!("INVALID {}: {e}", p.display());
                            return ExitCode::FAILURE;
                        }
                    }
                    println!(
                        "ok      {} ({} frame(s){})",
                        p.display(),
                        s.frames.len(),
                        if s.end.is_some() {
                            ", fold exact"
                        } else {
                            ", live"
                        }
                    );
                }
                Err(e) => {
                    eprintln!("INVALID {e}");
                    return ExitCode::FAILURE;
                }
            }
            continue;
        }
        match load(&p) {
            Ok(_) => println!("ok      {}", p.display()),
            Err(e) => {
                eprintln!("INVALID {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn inflate(v: &mut Value, key: &str, factor: f64) -> u64 {
    match v {
        Value::Obj(kvs) => {
            let mut n = 0;
            for (k, sub) in kvs {
                if k == key {
                    if let Value::Num(x) = sub {
                        *x = (*x * factor).round();
                        n += 1;
                        continue;
                    }
                }
                n += inflate(sub, key, factor);
            }
            n
        }
        Value::Arr(xs) => xs.iter_mut().map(|x| inflate(x, key, factor)).sum(),
        _ => 0,
    }
}

fn cmd_inflate(args: &[String], dir: &str) -> ExitCode {
    let [src, dst, key, factor] = args else {
        eprintln!("cablestat inflate: need FILE OUT KEY FACTOR");
        return ExitCode::from(2);
    };
    let Ok(factor) = factor.parse::<f64>() else {
        eprintln!("cablestat inflate: FACTOR must be a number");
        return ExitCode::from(2);
    };
    let src = resolve(dir, src);
    let mut v = match load(&src) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cablestat: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n = inflate(&mut v, key, factor);
    if n == 0 {
        eprintln!(
            "cablestat inflate: no numeric leaf named `{key}` in {}",
            src.display()
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(dst, v.to_json()) {
        eprintln!("cablestat: write {dst}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "inflated {n} `{key}` leaf(s) by {factor}x: {} -> {dst}",
        src.display()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, SystemTime};

    use super::is_stale;

    #[test]
    fn stale_warning_fires_only_for_old_regenerable_artifacts() {
        let exe = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000);
        let older = exe - Duration::from_secs(10);
        let newer = exe + Duration::from_secs(10);
        let p = |s: &str| std::path::Path::new(s).to_path_buf();

        // A bench artifact older than the tool is stale; fresher is not.
        assert!(is_stale(&p("BENCH_service.json"), older, exe));
        assert!(!is_stale(&p("BENCH_service.json"), newer, exe));
        // Streams (the live NDJSON exports) follow the same rule.
        assert!(is_stale(
            &p("target/artifacts/stream_service.ndjson"),
            older,
            exe
        ));
        assert!(!is_stale(
            &p("target/artifacts/stream_service.ndjson"),
            newer,
            exe
        ));
        // Committed baselines are historical by design: never stale.
        assert!(!is_stale(&p("baselines/BENCH_service.json"), older, exe));
        // Files cablestat does not regenerate are exempt.
        assert!(!is_stale(&p("trace_fft.json"), older, exe));
    }
}
