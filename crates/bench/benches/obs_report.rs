//! Observability-layer report: runs instrumented SPLASH kernels with the
//! cluster-wide event bus enabled and produces the layer's artifacts:
//!
//! - `BENCH_obs_<kernel>.json` — simulated time broken down by layer
//!   (san / vmmc / proto / sync / rt / sched) per node, plus the full
//!   metric snapshot (kind latencies, page activity, gauges), the
//!   per-thread stall profile (`obs::stall`), the windowed metric series
//!   (`obs::series`), and the top-10 page-sharing ranking
//!   (`obs::sharing`);
//! - `target/artifacts/stream_<kernel>.ndjson` — the online metric
//!   series, written *during* the run as each window is cut (watch a
//!   live run with `cablestat tail --follow stream_FFT.ndjson`);
//! - `BENCH_obs_stream.json` — streaming-path accounting per kernel
//!   (frames, fold exactness), perfgate-tracked;
//! - `target/artifacts/trace_fft.json` — a Chrome-trace / Perfetto
//!   timeline of the FFT run on an 8-node cluster, one process per node,
//!   one track per simulated thread plus the NIC lane;
//! - `target/artifacts/stall_<kernel>.collapsed` — collapsed-stack stall
//!   export (`node;thread;bucket value`) for flamegraph tooling.
//!
//! Every run executes twice — observability off, then on *with the
//! streaming series enabled* — and asserts the final virtual time is
//! bit-identical (recording and streaming charge no simulated time).
//! Every stream is parsed back and its frames must fold byte-exactly to
//! the embedded final snapshot. Both JSON artifacts are validated before
//! they are written.
//!
//! Run with `--test` for the CI smoke mode (tiny sizes, same assertions,
//! same artifacts).

use cables_bench::{artifact, header, smoke_mode, write_aux_artifact, OBS_KERNELS};
use obs::json::Value;
use obs::series;
use obs::{chrome, report, stall, Layer};

/// One kernel's row in `BENCH_obs_stream.json`.
struct StreamRow {
    kernel: &'static str,
    sample_ns: u64,
    frames: usize,
    windows: usize,
    sim_time_ns: u64,
    parallel_ns: u64,
}

fn main() {
    let smoke = smoke_mode();
    header(
        "obs_report: instrumented kernels, layer breakdown + live stream + Chrome trace",
        "no paper artifact; the observability layer's own report",
    );
    let mut stream_rows: Vec<StreamRow> = Vec::new();

    for w in &OBS_KERNELS {
        let (off, _) = w.run(false, smoke, None);
        // ~48 windows per run unless CABLES_OBS_SAMPLE_NS pins the width;
        // derived from the (deterministic) uninstrumented run time so the
        // frame count is stable run-to-run.
        let sample_ns = series::sample_ns_from_env().unwrap_or_else(|| (off.total_ns / 48).max(1));
        let (on, stream) = w.run(true, smoke, Some(sample_ns));
        let stream = stream.expect("streaming run");

        // The observability layer must be free when disabled and inert
        // when enabled: identical virtual time either way — with the
        // streaming series running, not just plain recording.
        assert_eq!(
            (off.total_ns, off.parallel_ns),
            (on.total_ns, on.parallel_ns),
            "{}: enabling observability + streaming changed the simulated result",
            w.name
        );
        assert!(off.events.is_empty(), "{}: disabled sink recorded", w.name);
        assert!(!on.events.is_empty(), "{}: no events recorded", w.name);
        assert!(
            on.snapshot.layer_total_ns(Layer::Proto) > 0,
            "{}: no protocol time attributed",
            w.name
        );

        println!(
            "{}",
            report::full_report_with_events(w.name, &on.snapshot, &on.events)
        );

        // The stream was read back: grammar-valid, frames fold
        // byte-exactly to the embedded final snapshot.
        let frames = stream.frames.len();
        let rows = series::windowed_table(&stream.frames);
        println!(
            "=== {}: windowed metric series ({}ns windows) ===",
            w.name, sample_ns
        );
        print!("{}", report::window_table(&rows));
        println!(
            "stream: {frames} frame(s), fold exact -> target/artifacts/stream_{}.ndjson\n",
            w.name
        );

        // Per-thread stall profile: the bucket totals must partition each
        // thread's recorded lifetime exactly (the obs::stall invariant).
        let slice_ns = (on.total_ns / 64).max(1);
        let profile = stall::analyze(&on.events, on.snapshot.dropped_events, slice_ns)
            .expect("stall profile");
        for t in &profile.threads {
            assert_eq!(
                t.buckets.iter().sum::<u64>(),
                t.lifetime_ns(),
                "{}: stall buckets do not partition thread n{}/t{}",
                w.name,
                t.node,
                t.track
            );
        }
        println!("{}", profile.render(w.name));
        write_aux_artifact(&format!("stall_{}.collapsed", w.name), &profile.collapsed());

        // The `BENCH_obs_<kernel>.json` document: run identity, per-layer
        // totals, the embedded metric snapshot, the per-thread stall
        // profile, the windowed series and the top-10 sharing ranking.
        let sharing = obs::sharing::analyze(&on.snapshot, &on.events).top(10);
        let snapshot = obs::json::parse(&on.snapshot.to_json()).expect("snapshot JSON parses");
        artifact(&format!("BENCH_obs_{}.json", w.name), "obs_report", |doc| {
            doc.field("kernel", w.name).field("mode", "cables");
            doc.field("procs", w.procs)
                .field("sim_time_ns", on.total_ns);
            doc.field("parallel_ns", on.parallel_ns);
            doc.field("events_recorded", on.events.len())
                .key("layers_ns")
                .obj();
            for l in Layer::ALL {
                doc.field(l.name(), on.snapshot.layer_total_ns(l));
            }
            doc.end()
                .field("snapshot", &snapshot)
                .field("stall", &profile);
            doc.key("series")
                .obj()
                .field("sample_ns", sample_ns)
                .field("frames", frames);
            doc.field("windows", &rows).end().field("sharing", &sharing);
        });
        stream_rows.push(StreamRow {
            kernel: w.name,
            sample_ns,
            frames,
            windows: rows.len(),
            sim_time_ns: on.total_ns,
            parallel_ns: on.parallel_ns,
        });

        if w.name == "FFT" {
            let trace = chrome::export(&on.events);
            let doc = obs::json::parse(&trace).expect("chrome trace is well-formed");
            // 16 processors on 2-way SMP nodes: the timeline must show all
            // eight node processes (per-node tracks in Perfetto).
            let events = doc
                .get("traceEvents")
                .and_then(Value::as_arr)
                .expect("traceEvents");
            let processes: Vec<&str> = events
                .iter()
                .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
                .filter_map(|e| e.get("args")?.get("name")?.as_str())
                .collect();
            for n in 0..8 {
                assert!(
                    processes.contains(&format!("node {n}").as_str()),
                    "FFT trace is missing the node-{n} process"
                );
            }
            write_aux_artifact("trace_fft.json", &trace);
            println!(
                "Chrome trace: {} events; load target/artifacts/trace_fft.json in chrome://tracing or ui.perfetto.dev",
                on.events.len()
            );
        }
        println!();
    }

    artifact("BENCH_obs_stream.json", "obs_stream", |doc| {
        doc.key("kernels").arr();
        for r in &stream_rows {
            doc.obj()
                .field("kernel", r.kernel)
                .field("sample_ns", r.sample_ns);
            doc.field("frames", r.frames)
                .field("windows", r.windows)
                .field("fold_exact", true);
            doc.field("sim_time_ns", r.sim_time_ns)
                .field("parallel_ns", r.parallel_ns)
                .end();
        }
        doc.end();
    });

    println!("determinism: every kernel produced identical SimTime with the");
    println!("observability layer (and the streaming series) on and off.");
}
