//! `cablestat` — snapshot pretty-printer, stall-table renderer,
//! differential analyzer, and streaming-telemetry toolbox for the
//! `BENCH_*.json` / `stream_*.ndjson` artifacts.
//!
//! ```text
//! cablestat print FILE            pretty-print the snapshot(s) in FILE
//!                                 (paper-style tables + stall profile)
//! cablestat diff A B [--json]     every changed leaf between two
//!                                 artifacts, with both exact values (the
//!                                 perf gate's failure report)
//! cablestat series STREAM [OPTS]  fold a stream into the windowed table
//!                                 (stall mix, protocol counters,
//!                                 per-window latency percentiles) and
//!                                 verify frames re-sum exactly to the
//!                                 embedded final snapshot (exit 1 on
//!                                 divergence)
//!     --follow      keep reading until the end line appears (live runs),
//!                   printing rows as their frames arrive
//!     --json        emit the windowed table as JSON
//! cablestat check FILE...         validate artifacts against the obs
//!                                 JSON grammar; `.ndjson` files are also
//!                                 checked against the stream grammar and
//!                                 fold-verified; parse failures report
//!                                 line:column (exit 1 on the first bad)
//! cablestat inflate FILE OUT KEY FACTOR
//!                                 copy FILE to OUT with every numeric
//!                                 leaf named KEY multiplied by FACTOR
//!                                 (perfgate's self-test injector; every
//!                                 other byte is kept)
//! ```
//!
//! Every subcommand accepts `--dir DIR`: relative FILE arguments that do
//! not resolve as given are looked up under DIR (default `.`; `series`
//! defaults to `target/artifacts`, where the exporters write).
//!
//! Exit codes: 0 ok, 1 unreadable or invalid artifact / fold divergence,
//! 2 usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use obs::diff::diff;
use obs::json::{line, line_col, parse, pretty, Num, Value, Writer};
use obs::series::windowed_table;
use obs::stall::StallProfile;
use obs::stream::{parse_stream, Stream};
use obs::{report, MetricsSnapshot};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let dir = take_dir_flag(&mut args);
    let cmd = args.first().map(String::as_str);
    match cmd {
        Some("print") => cmd_print(&args[1..], dir.as_deref().unwrap_or(".")),
        Some("diff") => cmd_diff(&args[1..], dir.as_deref().unwrap_or(".")),
        Some("series") => cmd_series(&args[1..], dir.as_deref().unwrap_or("target/artifacts")),
        Some("check") => cmd_check(&args[1..], dir.as_deref().unwrap_or(".")),
        Some("inflate") => cmd_inflate(&args[1..], dir.as_deref().unwrap_or(".")),
        _ => {
            eprintln!(
                "usage: cablestat print FILE\n       cablestat diff A B [--json]\n       cablestat series STREAM [--follow] [--json]\n       cablestat check FILE...\n       cablestat inflate FILE OUT KEY FACTOR\n       (all subcommands: --dir DIR to resolve relative FILEs)"
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

/// Reads and parses one artifact; parse errors are reported as
/// `path:line:col`.
fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
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
    parse_stream(&text).map_err(|e| format!("{}:{e}", path.display()))
}

/// A snapshot-shaped object (the members `MetricsSnapshot` writes).
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
    let title = |label: &str| {
        if label.is_empty() {
            path.display().to_string()
        } else {
            label.to_string()
        }
    };
    let mut printed = false;
    let mut snaps = Vec::new();
    find("", &v, is_snapshot, &mut snaps);
    for (label, sv) in &snaps {
        match MetricsSnapshot::from_value(sv) {
            Ok(s) => {
                println!("{}", report::full_report(&title(label), &s));
                printed = true;
            }
            Err(e) => eprintln!("cablestat: {}: snapshot at `{label}`: {e}", path.display()),
        }
    }
    let mut stalls = Vec::new();
    find("", &v, is_stall, &mut stalls);
    for (label, sv) in &stalls {
        match StallProfile::from_value(sv) {
            Ok(p) => {
                println!("{}", p.render(&title(label)));
                printed = true;
            }
            Err(e) => eprintln!(
                "cablestat: {}: stall profile at `{label}`: {e}",
                path.display()
            ),
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
                    other => println!("  {k}: {}", line(other)),
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_diff(args: &[String], dir: &str) -> ExitCode {
    let mut files = Vec::new();
    let mut as_json = false;
    for a in args {
        match a.as_str() {
            "--json" => as_json = true,
            f if f.starts_with("--") => {
                eprintln!("cablestat diff: unknown flag {f}");
                return ExitCode::from(2);
            }
            f => files.push(resolve(dir, f)),
        }
    }
    let [a_path, b_path] = &files[..] else {
        eprintln!("cablestat diff: need exactly two files");
        return ExitCode::from(2);
    };
    let d = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => diff(&a, &b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cablestat: {e}");
            return ExitCode::FAILURE;
        }
    };
    if as_json {
        print!("{}", pretty(&d));
    } else {
        let title = format!("{} -> {}", a_path.display(), b_path.display());
        print!("{}", d.render(&title));
    }
    ExitCode::SUCCESS
}

/// Renders the frames from `from` on as table rows (the table's header
/// included when `from` is 0).
fn render_rows(s: &Stream, from: usize) -> String {
    let table = report::window_table(&windowed_table(&s.frames[from..]));
    if from == 0 {
        table
    } else {
        table.lines().skip(2).map(|l| format!("{l}\n")).collect()
    }
}

fn cmd_series(args: &[String], dir: &str) -> ExitCode {
    let (mut as_json, mut follow) = (false, false);
    let mut file = None;
    for a in args {
        match a.as_str() {
            "--json" => as_json = true,
            "--follow" => follow = true,
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
    // Frames already printed as rows; `None` until the stream's title is.
    let mut shown = None;
    let s = loop {
        let s = if follow {
            // Complete lines only: a live exporter may be mid-write on the
            // last one, or not have created the file yet.
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let Some(last) = text.rfind('\n') else {
                std::thread::sleep(std::time::Duration::from_millis(200));
                continue;
            };
            parse_stream(&text[..=last]).map_err(|e| format!("{}:{e}", path.display()))
        } else {
            load_stream(&path)
        };
        let s = match s {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cablestat: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !as_json {
            if shown.is_none() {
                println!(
                    "stream {} (kernel {}, sample {}ns)",
                    path.display(),
                    s.header.kernel,
                    s.header.sample_ns
                );
            }
            let from = shown.unwrap_or(0);
            if s.frames.len() > from || !follow {
                print!("{}", render_rows(&s, from));
            }
            shown = Some(s.frames.len());
        }
        if s.end.is_some() || !follow {
            break s;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    };
    let fold = s.end.as_ref().map(|e| (e, s.verify_fold()));
    let fold_ok = !matches!(fold, Some((_, Err(_))));
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
        match fold {
            Some((e, fold)) => println!(
                "end: sim_time {}ns, {} frame(s), fold {}",
                e.sim_time_ns,
                e.frames,
                match fold {
                    Ok(()) => "exact".to_string(),
                    Err(err) => format!("DIVERGED ({err})"),
                }
            ),
            None => println!(
                "(live stream: {} frame(s), no end line yet)",
                s.frames.len()
            ),
        }
    }
    if fold_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
                        *x = Num::from((x.to_f64() * factor).round());
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
    if let Err(e) = std::fs::write(dst, pretty(&v)) {
        eprintln!("cablestat: write {dst}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "inflated {n} `{key}` leaf(s) by {factor}x: {} -> {dst}",
        src.display()
    );
    ExitCode::SUCCESS
}
