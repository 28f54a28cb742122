//! The CableS reproduction's benchmark.
//!
//! One command, five named workloads, two clocks: *sim* (simulated
//! nanoseconds, bit-deterministic) for whoever studies the paper's design,
//! *host* (wall clock and memory of the simulator) for whoever runs it.
//! It measures each crate from outside only — public constructors, public
//! stats getters, the obs bus, host timers around calls into public
//! functions — and claims no gain. See `README.md`.
//!
//! ```text
//! cables-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! cables-benchmark                  # all five, traced
//! cables-benchmark --check          # = --smoke: every workload twice at
//!                                   #   smoke size, must agree bit for bit
//! cables-benchmark --list-metrics   # kind name unit clock better bound
//! ```

mod bench;
mod host;
mod probes;
mod run;
mod scan;
mod spec;
mod stats;
mod window;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use bench::{run_workload, Opts, Report, FULL, SMOKE};
use run::Metrics;

/// Where results and traces go, relative to the working directory.
const OUT_DIR: &str = "target/benchmark";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    check: bool,
    emit: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        check: false,
        emit: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".to_string());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--check" | "--smoke" => a.check = true,
            "--emit-benchmark-json" => a.emit = true,
            "--list-metrics" => a.list = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

const USAGE: &str = "usage: cables-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] | --check | --smoke | --list-metrics | --emit-benchmark-json";

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.list {
        // kind name unit clock better bound, one metric per line.
        for (kind, table) in [
            ("end_to_end", &spec::END_TO_END[..]),
            ("per_layer", &spec::PER_LAYER[..]),
        ] {
            for m in table {
                println!(
                    "{kind} {} {} {} {} {}",
                    m.name,
                    m.unit,
                    m.clock.name(),
                    spec::better(m),
                    m.bound
                );
            }
        }
        return ExitCode::SUCCESS;
    }
    // One green carrier thread for every engine this process builds.
    std::env::set_var("CABLES_ENGINE_MODE", spec::ENGINE_MODE);
    let outcome = if args.check {
        check(args.seed, origin)
    } else {
        measure(&args, origin)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|&n| n == name)
        .ok_or_else(|| {
            let all: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name:?}; the workloads are {}",
                all.join(", ")
            )
        })
}

/// Measures one workload: prints its table and, as the last line of
/// standard output, the driver's result object. Returns whether every
/// check passed.
fn measure_one(name: &str, args: &Args, origin: Instant) -> Result<bool, String> {
    let trace = args.trace.unwrap_or(false);
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace,
        sizes: FULL,
    };
    let r = run_workload(workload_name(name)?, &opts, origin)?;
    print_report(&r, &opts);
    write_files(&r, &opts)?;
    println!("{}", result_line(&r, trace));
    Ok(correct(&r))
}

/// Without `--workload`: all five, traced unless told otherwise, each in a
/// process of its own — peak memory and set-up time are per process, and
/// one workload must not inherit another's.
fn measure(args: &Args, origin: Instant) -> Result<bool, String> {
    if let Some(w) = &args.workload {
        return measure_one(w, args, origin);
    }
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut all_ok = true;
    for w in &spec::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args([
                "--trace",
                if args.trace.unwrap_or(true) { "1" } else { "0" },
            ])
            .status()
            .map_err(|e| format!("{}: {e}", w.name))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn correct(r: &Report) -> bool {
    r.failed == 0 && r.problems.is_empty()
}

/// Every workload twice at smoke size with the same seed: all simulated
/// metrics, counts, checksums and digests must agree bit for bit, every
/// output check must pass and obs must be inert.
fn check(seed: u64, origin: Instant) -> Result<bool, String> {
    let opts = Opts {
        seed,
        seconds: 0.0,
        trace: true,
        sizes: SMOKE,
    };
    let mut all_ok = true;
    for w in &spec::WORKLOADS {
        let a = run_workload(w.name, &opts, origin)?;
        let b = run_workload(w.name, &opts, Instant::now())?;
        let mut bad: Vec<String> = a.problems.iter().chain(&b.problems).cloned().collect();
        if a.attempted != b.attempted || a.failed + b.failed != 0 {
            bad.push(format!(
                "attempted/failed {}/{} vs {}/{}",
                a.attempted, a.failed, b.attempted, b.failed
            ));
        }
        let exact = |r: &Report| -> Metrics {
            r.e2e
                .iter()
                .chain(r.layer.iter())
                .filter(|(n, _)| spec::metric(n).is_some_and(|m| m.clock.exact()))
                .map(|(&n, &v)| (n, v))
                .collect()
        };
        let (ea, eb) = (exact(&a), exact(&b));
        for (name, va) in &ea {
            if eb.get(name).map(|v| v.to_bits()) != Some(va.to_bits()) {
                bad.push(format!("{name}: {va} vs {:?}", eb.get(name)));
            }
        }
        println!(
            "{:<18} {}  ({} exact metrics compared, {} units of work)",
            w.name,
            if bad.is_empty() {
                "identical"
            } else {
                "DIFFERS"
            },
            ea.len(),
            a.attempted
        );
        for b in &bad {
            println!("    {b}");
        }
        all_ok &= bad.is_empty();
    }
    println!(
        "check {} in {:.1} s (engine mode {})",
        if all_ok { "passed" } else { "FAILED" },
        origin.elapsed().as_secs_f64(),
        spec::ENGINE_MODE
    );
    Ok(all_ok)
}

fn print_report(r: &Report, o: &Opts) {
    println!(
        "== {}  seed {}  seconds {}  trace {}  engine mode {}  ({} units of work, {} failed)",
        r.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        spec::ENGINE_MODE,
        r.attempted,
        r.failed
    );
    println!(
        "   {:<32} {:>22} {:<8} {:<6} bound",
        "metric", "value", "unit", "clock"
    );
    for m in &spec::END_TO_END {
        if let Some(v) = r.e2e.get(m.name) {
            println!(
                "   {:<32} {:>22} {:<8} {:<6} {}% {}",
                m.name,
                v,
                m.unit,
                m.clock.name(),
                m.bound * 100.0,
                spec::better(m)
            );
        }
    }
    for m in &spec::PER_LAYER {
        if let Some(v) = r.layer.get(m.name) {
            println!(
                "   {:<32} {:>22} {:<8} {}",
                m.name,
                v,
                m.unit,
                m.clock.name()
            );
        }
    }
    for p in &r.problems {
        println!("   FAILED CHECK: {p}");
    }
}

fn metrics_json(table: &[spec::Metric], values: &Metrics) -> String {
    let mut s = String::from("{");
    let mut first = true;
    for m in table {
        if let Some(v) = values.get(m.name) {
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(*v),
                m.unit
            );
        }
    }
    s.push('}');
    s
}

/// A JSON number with all its digits (`null` for what JSON cannot hold;
/// such a value has already failed the run's checks).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The driver's result object: end-to-end metrics without tracing,
/// per-layer metrics with it.
fn result_line(r: &Report, trace: bool) -> String {
    let metrics = if trace {
        metrics_json(&spec::PER_LAYER, &r.layer)
    } else {
        metrics_json(&spec::END_TO_END, &r.e2e)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        correct(r),
        r.attempted.max(1),
        r.failed
    )
}

fn write_files(r: &Report, o: &Opts) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let problems: Vec<String> = r.problems.iter().map(|p| format!("{p:?}")).collect();
    let head = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"engine_mode\": \"{}\"",
        r.workload,
        o.seed,
        o.seconds,
        spec::ENGINE_MODE
    );
    let result = format!(
        "{{{head}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}],\n \
         \"end_to_end\": {},\n \"per_layer\": {}}}\n",
        correct(r),
        r.attempted,
        r.failed,
        problems.join(", "),
        metrics_json(&spec::END_TO_END, &r.e2e),
        metrics_json(&spec::PER_LAYER, &r.layer),
    );
    let path = format!("{OUT_DIR}/result_{}.json", r.workload);
    std::fs::write(&path, result).map_err(|e| format!("{path}: {e}"))?;
    if !o.trace {
        return Ok(());
    }
    let mut spans = String::new();
    for (i, s) in r.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            spans,
            "{}\n  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"iter\": {}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start_ns,
            s.end_ns,
            s.iter
        );
    }
    let trace = format!(
        "{{{head},\n \"per_layer\": {},\n \"spans\": [{spans}\n ]}}\n",
        metrics_json(&spec::PER_LAYER, &r.layer)
    );
    let path = format!("{OUT_DIR}/trace_{}.json", r.workload);
    std::fs::write(&path, trace).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut e2e = Metrics::new();
        for (i, m) in spec::END_TO_END.iter().enumerate() {
            e2e.insert(m.name, 1.5 + i as f64);
        }
        e2e.insert("sim_window_ns", 117_132_860.0);
        let r = Report {
            workload: "fft_fetch",
            e2e,
            layer: Metrics::new(),
            attempted: 12,
            failed: 0,
            problems: Vec::new(),
            spans: Vec::new(),
        };
        let line = result_line(&r, false);
        assert!(!line.contains('\n'));
        let v = obs::json::parse(&line).expect("valid JSON");
        let keys: Vec<_> = v
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(12));
        let metrics = v.get("metrics").and_then(|m| m.as_obj()).expect("metrics");
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        let w = v
            .get("metrics")
            .and_then(|m| m.get("sim_window_ns"))
            .expect("window");
        // Whole simulated nanoseconds print with all their digits.
        assert!(line.contains("\"sim_window_ns\": {\"value\": 117132860, \"unit\": \"sim_ns\"}"));
        assert_eq!(w.get("value").and_then(|x| x.as_u64()), Some(117_132_860));
        // With tracing the object carries the per-layer table instead.
        let traced = result_line(&r, true);
        assert!(traced.ends_with("\"metrics\": {}}"));
    }

    #[test]
    fn numbers_keep_their_digits_and_never_break_the_json() {
        assert_eq!(num(0.065_234_871), "0.065234871");
        assert_eq!(num(27_709_371_529.0), "27709371529");
        assert_eq!(num(f64::NAN), "null");
    }
}
