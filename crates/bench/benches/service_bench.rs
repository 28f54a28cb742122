//! Service sweep: the CableS-hosted sharded KV store under real traffic.
//!
//! Sweeps the deterministic traffic generator's arrival patterns
//! (uniform, bursty, hot-key zipfian) across node counts, measures
//! request latency percentiles straight from the `service` layer's log2
//! histogram and throughput from the serving window, then stresses the
//! deployment with a chaos node crash under live traffic (recovery
//! visible in the windowed percentile series streamed to
//! `stream_service.ndjson`). Produces `BENCH_service.json`.
//!
//! Asserted invariants:
//!
//! - every fault-free cell serves all requests through the worker pools
//!   (no crash fallbacks, no retries) and emits exactly one request span
//!   per request;
//! - replaying a cell from the same `TrafficConfig` is bit-identical
//!   (same digest, same simulated times, same percentiles);
//! - the crash cell answers every request, detaches the dead node, and
//!   the windowed series shows completions resuming after the crash.
//!
//! Run with `--test` for the CI smoke mode (fewer requests, same
//! assertions, same artifact).

use std::sync::{Arc, Mutex as StdMutex};

use apps::service::{run_service, ServiceOutcome, ServiceParams};
use cables::{CablesConfig, CablesRt};
use cables_bench::{artifact, cluster_for, fmt_ns, header, smoke_mode, streamed};
use chaos::{ChaosEngine, FaultPlan};
use obs::json::{Fixed, Writer};
use obs::series;
use obs::Layer;
use svm::Cluster;
use traffic::{schedule, Schedule, TrafficConfig};

/// The node sacrificed by the crash cell (never 0: the master survives).
const CRASH_NODE: u32 = 2;

struct CellOut {
    sim_ns: u64,
    /// Where the serving window opened: the end of the pools' ready
    /// barrier, the only barrier of the run.
    serve_start_ns: u64,
    outcome: ServiceOutcome,
    /// Request-latency percentiles [p50, p95, p99] from the service hist.
    p: [u64; 3],
    /// Request spans recorded (must equal the request count fault-free).
    svc_count: u64,
    /// The node each shard's pool runs on, in shard order.
    pools: Vec<u32>,
    nodes_detached: u64,
    crashes: u64,
    windows: Vec<series::WindowRow>,
}

/// Runs one service cell: `sched` on `procs` processors under `cfg`,
/// optionally with a chaos plan attached and a live metric stream.
fn run_cell(
    sched: &Schedule,
    procs: usize,
    cfg: CablesConfig,
    chaos: Option<(u64, FaultPlan)>,
    stream: Option<(&str, u64)>,
) -> CellOut {
    let cluster = Cluster::build(cluster_for(procs));
    let has_chaos = chaos.is_some();
    if let Some((seed, plan)) = chaos {
        cluster.set_chaos(ChaosEngine::new(seed, plan));
    }
    let rt = CablesRt::new(Arc::clone(&cluster), cfg);
    let svm = rt.svm();
    svm.set_obs(true);
    let sink = svm.obs();
    let out = Arc::new(StdMutex::new(None));
    let o2 = Arc::clone(&out);
    let s = sched.clone();
    let p = ServiceParams::test();
    let (end, stream) = streamed(sink, stream, || {
        let end = rt
            .run(move |pth| {
                *o2.lock().unwrap() = Some(run_service(pth, &s, p));
                0
            })
            .expect("service run");
        (end, end.as_nanos())
    });
    let outcome = out.lock().unwrap().take().expect("service outcome");
    let windows = stream.map_or_else(Vec::new, |s| series::windowed_table(&s.frames));
    let events = sink.events();
    let serve_start_ns = events
        .iter()
        .filter(|e| matches!(e.event, obs::Event::PthBarrierWait { .. }))
        .map(|e| e.at.as_nanos() + e.dur_ns)
        .max()
        .expect("ready barrier");
    // Placement guard: the workers are the run's first creates, pool by
    // pool. A pool split across nodes turns every hand-off inside it into
    // a remote lock transfer and costs a third of the capacity — fail
    // here, not in a number nobody reads.
    let created: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.event {
            obs::Event::ThreadCreate { on, .. } => Some(on),
            _ => None,
        })
        .take((p.shards * p.workers_per_shard) as usize)
        .collect();
    let pools: Vec<u32> = created
        .chunks(p.workers_per_shard as usize)
        .map(|pool| {
            assert!(
                pool.iter().all(|&n| n == pool[0]),
                "a shard's pool is split across nodes (creates landed on {created:?})"
            );
            pool[0]
        })
        .collect();
    let snap = sink.snapshot();
    let h = &snap.hists[Layer::Service.index()];
    CellOut {
        sim_ns: end.as_nanos(),
        serve_start_ns,
        outcome,
        pools,
        p: [h.percentile(50.0), h.percentile(95.0), h.percentile(99.0)],
        svc_count: h.count(),
        nodes_detached: rt.stats().nodes_detached,
        crashes: if has_chaos {
            cluster.chaos().expect("chaos attached").stats().crashes
        } else {
            0
        },
        windows,
    }
}

fn throughput_rps(requests: u32, serve_ns: u64) -> f64 {
    requests as f64 / (serve_ns.max(1) as f64 / 1e9)
}

/// `0|1|2|3`: the node of each shard's pool.
fn pool_nodes(c: &CellOut) -> String {
    let nodes: Vec<String> = c.pools.iter().map(u32::to_string).collect();
    nodes.join("|")
}

/// One sweep cell of the artifact's `cells` table.
fn cell_json(
    w: &mut Writer,
    pattern: &str,
    driver: &str,
    nodes: usize,
    sched: &Schedule,
    c: &CellOut,
) {
    let (o, n) = (&c.outcome, sched.requests.len());
    w.obj()
        .field("pattern", pattern)
        .field("driver", driver)
        .field("nodes", nodes);
    w.field("requests", n)
        .field("schedule_fingerprint", sched.fingerprint());
    w.field("sim_time_ns", c.sim_ns)
        .field("serve_ns", o.serve_ns);
    w.field(
        "throughput_rps",
        Fixed(throughput_rps(n as u32, o.serve_ns), 1),
    );
    w.field("p50_ns", c.p[0])
        .field("p95_ns", c.p[1])
        .field("p99_ns", c.p[2]);
    w.field("served", o.served)
        .field("direct_served", o.direct_served);
    w.field("retries", o.retries)
        .field("digest", o.digest)
        .end();
}

fn main() {
    let smoke = smoke_mode();
    header(
        "service: sharded KV store under generated traffic",
        "no paper artifact; the paper's pthreads API carrying a request-driven service",
    );
    let nreq: u32 = if smoke { 120 } else { 600 };
    let keys: u64 = if smoke { 128 } else { 512 };
    let rate: u64 = 2_000_000;

    let patterns: Vec<(&str, Schedule)> = vec![
        (
            "uniform",
            schedule(&TrafficConfig::uniform(11, nreq, keys, rate)),
        ),
        (
            "bursty",
            schedule(&TrafficConfig::bursty(12, nreq, keys, rate)),
        ),
        (
            "zipfian",
            schedule(&TrafficConfig::zipfian(13, nreq, keys, rate)),
        ),
    ];
    let closed = schedule(&TrafficConfig::zipfian(14, nreq, keys, rate).closed_loop(4, 2_000));
    // 2-way SMP nodes: 4 procs = 2 nodes, 8 procs = 4 nodes.
    let node_counts = [2usize, 4usize];

    // The sweep: (pattern, driver, nodes, schedule, outcome).
    let mut cells = Vec::new();
    println!(
        "{:<10} {:<7} {:>5} {:>6} {:>12} {:>10} {:>10} {:>10}  pool nodes",
        "pattern", "driver", "nodes", "reqs", "rps", "p50", "p95", "p99"
    );
    for &nodes in &node_counts {
        let procs = nodes * 2;
        for (name, sched) in &patterns {
            let c = run_cell(sched, procs, CablesConfig::paper(), None, None);
            assert_eq!(
                c.outcome.served as usize,
                sched.requests.len(),
                "{name}@{nodes}: workers must serve every request"
            );
            assert_eq!(
                c.outcome.direct_served, 0,
                "{name}@{nodes}: no crash fallbacks"
            );
            assert_eq!(c.outcome.retries, 0, "{name}@{nodes}: no retries");
            assert_eq!(
                c.svc_count as usize,
                sched.requests.len(),
                "{name}@{nodes}: one request span per request"
            );
            println!(
                "{:<10} {:<7} {:>5} {:>6} {:>12.0} {:>10} {:>10} {:>10}  {}",
                name,
                "open",
                nodes,
                sched.requests.len(),
                throughput_rps(nreq, c.outcome.serve_ns),
                fmt_ns(c.p[0]),
                fmt_ns(c.p[1]),
                fmt_ns(c.p[2]),
                pool_nodes(&c),
            );
            cells.push((*name, "open", nodes, sched, c));
        }
    }
    // One closed-loop cell: clients block on their response condvars, so
    // the span includes the full issue-to-response round trip.
    {
        let c = run_cell(&closed, 8, CablesConfig::paper(), None, None);
        assert_eq!(c.outcome.served as usize, closed.requests.len());
        assert_eq!(c.outcome.retries, 0);
        assert_eq!(c.svc_count as usize, closed.requests.len());
        println!(
            "{:<10} {:<7} {:>5} {:>6} {:>12.0} {:>10} {:>10} {:>10}  {}",
            "zipfian",
            "closed",
            4,
            closed.requests.len(),
            throughput_rps(nreq, c.outcome.serve_ns),
            fmt_ns(c.p[0]),
            fmt_ns(c.p[1]),
            fmt_ns(c.p[2]),
            pool_nodes(&c),
        );
        cells.push(("zipfian", "closed", 4, &closed, c));
    }

    // ---- Replay: the same config must reproduce bit-identically ----
    let (rname, rsched) = &patterns[0];
    let a = run_cell(rsched, 8, CablesConfig::paper(), None, None);
    let b = run_cell(rsched, 8, CablesConfig::paper(), None, None);
    assert_eq!(a.sim_ns, b.sim_ns, "replay changed the simulated end time");
    assert_eq!(a.outcome, b.outcome, "replay changed the service outcome");
    assert_eq!(a.p, b.p, "replay changed the latency percentiles");
    println!(
        "\nreplay: {rname}@4 nodes reruns bit-identically \
         (digest {:#018x}, end {})",
        a.outcome.digest,
        fmt_ns(a.sim_ns)
    );

    // ---- Chaos: node crash mid-serving, live stream running ----
    // Calibrate the crash instant from a clean reference: mid-way through
    // the serving window, well past attach.
    let chaos_sched = schedule(&TrafficConfig::uniform(21, nreq * 2, keys, rate));
    let reference = run_cell(&chaos_sched, 8, CablesConfig::paper(), None, None);
    let crash_at = reference.serve_start_ns + reference.outcome.serve_ns / 2;
    let sample_ns = (reference.outcome.serve_ns / 16).max(1);
    let plan = FaultPlan::new().crash(CRASH_NODE, crash_at);
    let c = run_cell(
        &chaos_sched,
        8,
        CablesConfig::paper(),
        Some((0x5E41_11CE, plan)),
        Some(("service", sample_ns)),
    );
    assert_eq!(c.crashes, 1, "planned crash never fired");
    assert!(c.nodes_detached >= 1, "crashed node was not detached");
    assert!(
        c.outcome.served + c.outcome.direct_served >= chaos_sched.requests.len() as u64,
        "crash lost requests: served {} + direct {} < {}",
        c.outcome.served,
        c.outcome.direct_served,
        chaos_sched.requests.len()
    );
    // Recovery must be visible in the windowed series: completions in
    // some window that starts after the crash instant.
    let post = c
        .windows
        .iter()
        .filter(|w| w.start_ns >= crash_at)
        .map(|w| w.svc)
        .sum::<u64>();
    assert!(
        post > 0,
        "no post-crash completions in the windowed series (crash at {})",
        fmt_ns(crash_at)
    );
    println!(
        "\nchaos: node {CRASH_NODE} crashed at {} mid-serving; {} worker-served + {} \
         direct-served of {} requests; {} completions in post-crash windows",
        fmt_ns(crash_at),
        c.outcome.served,
        c.outcome.direct_served,
        chaos_sched.requests.len(),
        post
    );
    print!("{}", obs::report::window_table(&c.windows));
    println!("live series -> target/artifacts/stream_service.ndjson");

    println!();
    artifact("BENCH_service.json", "service", |doc| {
        doc.key("cells").arr();
        for (pattern, driver, nodes, sched, c) in &cells {
            cell_json(doc, pattern, driver, *nodes, sched, c);
        }
        doc.end()
            .key("replay")
            .obj()
            .field("pattern", *rname)
            .field("nodes", 4u64);
        doc.field("identical", true)
            .field("digest", a.outcome.digest)
            .end();
        let o = &c.outcome;
        doc.key("chaos")
            .obj()
            .field("crash_node", CRASH_NODE)
            .field("crash_at_ns", crash_at);
        doc.field("requests", chaos_sched.requests.len())
            .field("served", o.served);
        doc.field("direct_served", o.direct_served)
            .field("retries", o.retries);
        doc.field("nodes_detached", c.nodes_detached);
        doc.field("post_crash_window_completions", post);
        doc.field("p50_ns", c.p[0])
            .field("p95_ns", c.p[1])
            .field("p99_ns", c.p[2]);
        doc.field("stream", "target/artifacts/stream_service.ndjson")
            .end();
    });
    println!("determinism: every cell is a pure function of (TrafficConfig, params);");
    println!("rerunning this bench reproduces every digest and percentile exactly.");
}
