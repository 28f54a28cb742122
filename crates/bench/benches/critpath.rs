//! Critical-path profile of the instrumented SPLASH kernels.
//!
//! Runs FFT (16 processors → 8 nodes) and RADIX with the observability
//! bus on, rebuilds the causal DAG from the drained event buffer, and
//! walks the longest cause→effect chain from program start to the last
//! join. Produces `BENCH_critpath.json` with the per-layer / per-kind /
//! per-node breakdowns and the blame table for both kernels.
//!
//! Asserted invariants:
//!
//! - recording is inert: simulated time is bit-identical obs on vs off;
//! - the critical path partitions the run exactly: its layer breakdown
//!   sums to the run's total simulated time;
//! - the path is at least as long as the busiest lane's span coverage
//!   (a path can never be shorter than one thread's serial work);
//! - the event buffer did not overflow (otherwise `critpath::analyze`
//!   refuses; raise `CABLES_OBS_CAP` to rerun with a larger buffer).
//!
//! Run with `--test` for the CI smoke mode (tiny sizes, same assertions,
//! same artifact).

use cables_bench::{artifact, header, smoke_mode, OBS_KERNELS};
use obs::critpath;

fn main() {
    let smoke = smoke_mode();
    header(
        "critpath: critical-path profile over the causal-edge DAG",
        "no paper artifact; the paper's Fig-5 'where did the time go' question, answered per run",
    );
    // Per kernel: the instrumented run, its causal-edge count, the busiest
    // lane's span and the critical path.
    let mut kernels = Vec::new();
    for w in &OBS_KERNELS {
        let (off, _) = w.run(false, smoke, None);
        let (on, _) = w.run(true, smoke, None);

        assert_eq!(
            (off.total_ns, off.parallel_ns),
            (on.total_ns, on.parallel_ns),
            "{}: enabling observability changed the simulated result",
            w.name
        );
        assert_eq!(
            on.snapshot.dropped_events, 0,
            "{}: obs buffer overflowed ({} dropped); raise CABLES_OBS_CAP",
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
            "({}: {} events, {} causal edges, {} edges on the path, busiest lane {} ns)",
            w.name,
            on.events.len(),
            edges,
            cp.edges_on_path,
            busiest
        );
        println!();
        kernels.push((
            w,
            on.total_ns,
            on.parallel_ns,
            on.events.len(),
            edges,
            busiest,
            cp,
        ));
    }

    artifact("BENCH_critpath.json", "critpath", |doc| {
        doc.key("kernels").arr();
        for (w, total_ns, parallel_ns, events, edges, busiest, cp) in &kernels {
            doc.obj().field("kernel", w.name).field("procs", w.procs);
            doc.field("sim_time_ns", total_ns)
                .field("parallel_ns", parallel_ns);
            doc.field("events_recorded", events);
            doc.field("causal_edges", edges)
                .field("busiest_lane_ns", busiest);
            doc.field("critpath", cp).end();
        }
        doc.end();
    });
    println!("determinism: both kernels produced identical SimTime with the");
    println!("observability layer on and off, and the per-layer critical-path");
    println!("breakdown sums exactly to each run's simulated time.");
}
