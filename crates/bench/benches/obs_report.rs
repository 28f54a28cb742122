//! Observability-layer report: runs instrumented SPLASH kernels with the
//! cluster-wide event bus enabled and produces the layer's artifacts:
//!
//! - `BENCH_obs_<kernel>.json` — simulated time broken down by layer
//!   (san / vmmc / proto / sync / rt / sched) per node, plus the full
//!   metric snapshot (kind latencies, page activity with each page's
//!   sharers, diffed bytes and fetch waits, gauges), the per-thread
//!   stall profile (`obs::stall`), the windowed metric series
//!   (`obs::series`) and the critical path (`obs::critpath`: the longest
//!   cause→effect chain from program start to the last join, with its
//!   per-layer / per-kind / per-node breakdowns and blame table);
//! - `target/artifacts/stream_<kernel>.ndjson` — the online metric
//!   series, written *during* the run as each window is cut (watch a
//!   live run with `cablestat series stream_FFT.ndjson --follow`); its
//!   window width and frame count are `series.sample_ns` and
//!   `series.frames` in `BENCH_obs_<kernel>.json`;
//! - `target/artifacts/trace_fft.json` — a Chrome-trace / Perfetto
//!   timeline of the FFT run on an 8-node cluster, one process per node,
//!   one track per simulated thread plus the NIC lane;
//! - `target/artifacts/stall_<kernel>.collapsed` — collapsed-stack stall
//!   export (`node;thread;bucket value`) for flamegraph tooling.
//!
//! Every run executes twice — observability off, then on *with the
//! streaming series enabled* — and asserts the final virtual time is
//! bit-identical (recording and streaming charge no simulated time).
//! Every stream is parsed back and its frames must fold exactly to
//! the embedded final snapshot. The event buffer must not overflow
//! (otherwise `critpath::analyze` refuses; raise `ClusterConfig::obs_cap`), the
//! critical path's layer breakdown must sum to the run's simulated time,
//! and the path can be no shorter than the busiest lane's span coverage.
//! Both JSON artifacts are validated before they are written.
//!
//! Run with `--test` for the CI smoke mode (tiny sizes, same assertions,
//! same artifacts).

use cables_bench::{artifact, header, smoke_mode, write_aux_artifact, OBS_KERNELS};
use obs::json::Value;
use obs::series;
use obs::{chrome, critpath, report, stall, Layer};

fn main() {
    let smoke = smoke_mode();
    header(
        "obs_report: instrumented kernels, layer breakdown + live stream + Chrome trace",
        "no paper artifact; the observability layer's own report",
    );

    for w in &OBS_KERNELS {
        let (off, _) = w.run(false, smoke, None);
        // ~48 windows per run, derived from the (deterministic)
        // uninstrumented run time so the frame count is stable run-to-run.
        let sample_ns = (off.total_ns / 48).max(1);
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

        println!("{}", report::full_report(w.name, &on.snapshot));

        // The stream was read back: grammar-valid, frames fold
        // exactly to the embedded final snapshot.
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

        // Critical path over the causal-edge DAG of the same events.
        assert_eq!(
            on.snapshot.dropped_events, 0,
            "{}: obs buffer overflowed ({} dropped); raise ClusterConfig::obs_cap",
            w.name, on.snapshot.dropped_events
        );
        let edges = on.events.iter().filter(|e| e.event.is_edge()).count();
        assert!(edges > 0, "{}: no causal edges recorded", w.name);
        let cp = critpath::analyze(&on.events, on.total_ns, on.snapshot.dropped_events)
            .expect("critical-path analysis");
        // The breakdown partitions the run: it must sum to the run's
        // simulated time exactly, never exceed it.
        assert_eq!(
            cp.layer_sum_ns(),
            on.total_ns,
            "{}: critical-path breakdown does not sum to the simulated time",
            w.name
        );
        assert!(
            cp.total_ns <= on.total_ns,
            "{}: critical path longer than the run",
            w.name
        );
        // ... and it can never be shorter than the busiest single lane.
        let busiest = critpath::busiest_lane_span_ns(&on.events);
        assert!(
            cp.total_ns >= busiest,
            "{}: critical path ({}) shorter than the busiest lane ({})",
            w.name,
            cp.total_ns,
            busiest
        );
        println!("{}", cp.render(w.name, 10));
        println!(
            "({}: {} events, {} causal edges, {} edges on the path, busiest lane {} ns)\n",
            w.name,
            on.events.len(),
            edges,
            cp.edges_on_path,
            busiest
        );

        // The `BENCH_obs_<kernel>.json` document: run identity, per-layer
        // totals, the embedded metric snapshot, the per-thread stall
        // profile, the windowed series and the critical path.
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
                .field("snapshot", &on.snapshot)
                .field("stall", &profile);
            doc.key("series")
                .obj()
                .field("sample_ns", sample_ns)
                .field("frames", frames);
            doc.field("windows", &rows).end();
            doc.field("causal_edges", edges)
                .field("busiest_lane_ns", busiest);
            doc.field("critpath", &cp);
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

    println!("determinism: every kernel produced identical SimTime with the");
    println!("observability layer (and the streaming series) on and off, and");
    println!("the per-layer critical-path breakdown sums exactly to each run's");
    println!("simulated time.");
}
