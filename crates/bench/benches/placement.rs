//! Sharing-aware thread placement: affinity off vs on.
//!
//! Runs three workloads — OCEAN (boundary-row chunk sharing), RADIX
//! (permutation-phase all-to-all) and the zipfian open-loop KV service —
//! with affinity thread placement (`CablesConfig::affinity_placement`)
//! off and on, over a pre-attached node set, and produces
//! `BENCH_placement.json` with per-cell traffic counters, simulated
//! times and the measured window (`parallel_ns` for the kernels,
//! `serve_ns` for the service).
//!
//! Asserted invariants:
//!
//! - affinity is value-preserving: identical application checksums
//!   (kernels) and response digests (service) with it on;
//! - no cell migrates a chunk (only `migrate_home` does, and nothing
//!   here calls it);
//! - OCEAN's window and its remote fetch + diff messages fall with
//!   affinity on.
//!
//! Run with `--test` for the CI smoke mode: tiny sizes, same artifact,
//! same assertions.

use std::sync::{Arc, Mutex as StdMutex};

use apps::service::{run_service, ServiceParams};
use apps::splash::{ocean, radix};
use apps::{M4Ctx, M4System};
use cables::{CablesConfig, CablesRt};
use cables_bench::{artifact, cluster_for, fmt_ns, header, smoke_mode};
use obs::json::{ToJson, Writer};
use svm::{Cluster, NodeStats};
use traffic::{schedule, TrafficConfig};

struct Cell {
    sim_ns: u64,
    /// The window the workload measures, under its artifact key: the
    /// kernels' parallel section or the service's serving window.
    window: (&'static str, u64),
    checksum: u64,
    stats: NodeStats,
}

impl ToJson for Cell {
    fn write_json(&self, w: &mut Writer) {
        let s = &self.stats;
        w.obj()
            .field("sim_time_ns", self.sim_ns)
            .field(self.window.0, self.window.1);
        w.field("remote_fetches", s.remote_fetches);
        w.field("diffs_sent", s.diffs_sent)
            .field("fetch_bytes", s.fetch_bytes);
        w.field("diff_bytes", s.diff_bytes)
            .field("migrations", s.migrations);
        w.field("checksum", self.checksum).end();
    }
}

/// Both cells model a warm long-running deployment: the node set is
/// pre-attached, so the off cell's round-robin scatters consecutively
/// created threads across nodes (the misplacement affinity exists to
/// fix) instead of accidentally block-placing them via lazy attach.
fn kernel_cfg(on: bool, nodes: usize) -> CablesConfig {
    CablesConfig {
        affinity_placement: on,
        pre_attach: nodes,
        ..CablesConfig::paper()
    }
}

/// Runs one kernel cell (same promotion as the protocol_opt grid).
fn run_kernel(
    procs: usize,
    cfg: CablesConfig,
    body: impl FnOnce(&M4Ctx) -> u64 + Send + 'static,
) -> Cell {
    let cluster = Cluster::build(cluster_for(procs));
    let sys = M4System::cables_with(Arc::clone(&cluster), cfg);
    let result: Arc<StdMutex<Option<u64>>> = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let end = sys
        .run(move |ctx| {
            *slot.lock().unwrap() = Some(body(ctx));
        })
        .expect("kernel run");
    let checksum = result.lock().unwrap().take().expect("kernel result");
    let stats = sys.svm().total_stats();
    let parallel_ns = sys
        .parallel_ns()
        .expect("kernel records its parallel section");
    Cell {
        sim_ns: end.as_nanos(),
        window: ("parallel_ns", parallel_ns),
        checksum,
        stats,
    }
}

fn ocean_body(smoke: bool) -> impl FnOnce(&M4Ctx) -> u64 + Send + 'static {
    move |ctx: &M4Ctx| {
        // n = 126 in both modes: the grid must span several 64 KB chunks
        // (each covering many ranks' row blocks) for placement to have
        // anything to grip; smoke only trims sweeps and processors.
        let p = if smoke {
            ocean::OceanParams::bench(126, 2, 16)
        } else {
            ocean::OceanParams::bench(126, 8, 32)
        };
        ocean::ocean(ctx, &p).checksum.to_bits()
    }
}

fn radix_body(smoke: bool) -> impl FnOnce(&M4Ctx) -> u64 + Send + 'static {
    move |ctx: &M4Ctx| {
        let p = radix::RadixParams {
            keys: if smoke { 16_384 } else { 65_536 },
            digit_bits: 8,
            max_key: 1 << 16,
            nprocs: if smoke { 16 } else { 32 },
        };
        let r = radix::radix(ctx, &p);
        assert!(r.sorted, "RADIX output not sorted");
        r.key_sum
    }
}

/// Runs one service cell: the zipfian open-loop schedule under `cfg`.
fn run_service_cell(smoke: bool, on: bool) -> Cell {
    // A rate the 4-node deployment absorbs without tripping the
    // enqueue dead-shard fallback, hot-key zipfian skew. The off and on
    // cells differ in timing, so their digests are compared on the
    // conflict-free form of the schedule (needs keys >= requests), where
    // parity is implied by correctness.
    let procs = 8;
    let sched = if smoke {
        schedule(&TrafficConfig::zipfian(7, 150, 256, 1_500_000))
    } else {
        schedule(&TrafficConfig::zipfian(7, 600, 1024, 1_500_000))
    }
    .conflict_free();
    let cluster = Cluster::build(cluster_for(procs));
    let rt = CablesRt::new(Arc::clone(&cluster), kernel_cfg(on, procs.div_ceil(2)));
    let out = Arc::new(StdMutex::new(None));
    let o2 = Arc::clone(&out);
    let end = rt
        .run(move |pth| {
            *o2.lock().unwrap() = Some(run_service(pth, &sched, ServiceParams::test()));
            0
        })
        .expect("service run");
    let outcome = out.lock().unwrap().take().expect("service outcome");
    assert_eq!(
        outcome.direct_served, 0,
        "service cell used a crash fallback"
    );
    Cell {
        sim_ns: end.as_nanos(),
        window: ("serve_ns", outcome.serve_ns),
        checksum: outcome.digest,
        stats: rt.svm().total_stats(),
    }
}

fn main() {
    let smoke = smoke_mode();
    header(
        "placement: affinity thread placement, off vs on",
        "extension; the paper places threads round-robin (§2.1.3 ships migration mechanisms, no policy)",
    );

    println!(
        "{:<14} {:>6} {:>13} {:>13} {:>13} {:>11} {:>11}",
        "workload", "cell", "sim time", "window", "rem fetches", "diffs", "msgs"
    );

    let cells: Vec<(&str, Cell, Cell)> = {
        let svc_off = run_service_cell(smoke, false);
        let svc_on = run_service_cell(smoke, true);
        let procs: usize = if smoke { 16 } else { 32 };
        let nodes = procs.div_ceil(2);
        let ocean_off = run_kernel(procs, kernel_cfg(false, nodes), ocean_body(smoke));
        let ocean_on = run_kernel(procs, kernel_cfg(true, nodes), ocean_body(smoke));
        let radix_off = run_kernel(procs, kernel_cfg(false, nodes), radix_body(smoke));
        let radix_on = run_kernel(procs, kernel_cfg(true, nodes), radix_body(smoke));
        vec![
            ("OCEAN", ocean_off, ocean_on),
            ("RADIX", radix_off, radix_on),
            ("service_zipf", svc_off, svc_on),
        ]
    };

    for (name, off, on) in &cells {
        for (cell_name, c) in [("off", off), ("on", on)] {
            println!(
                "{:<14} {:>6} {:>13} {:>13} {:>13} {:>11} {:>11}",
                name,
                cell_name,
                c.sim_ns,
                c.window.1,
                c.stats.remote_fetches,
                c.stats.diffs_sent,
                c.stats.remote_fetches + c.stats.diffs_sent
            );
            assert_eq!(c.stats.migrations, 0, "{name} {cell_name}: migrated");
        }
        // Value preservation: checksums/digests must match exactly.
        assert_eq!(
            off.checksum, on.checksum,
            "{name}: affinity changed the application result"
        );
        let off_msgs = off.stats.remote_fetches + off.stats.diffs_sent;
        let on_msgs = on.stats.remote_fetches + on.stats.diffs_sent;
        println!(
            "{name}: fetch+diff messages {off_msgs} -> {on_msgs}, window {} -> {}\n",
            fmt_ns(off.window.1),
            fmt_ns(on.window.1)
        );
        if *name == "OCEAN" {
            assert!(
                on.window.1 < off.window.1 && on_msgs < off_msgs,
                "OCEAN: affinity did not shorten the window and cut fetch+diff messages"
            );
        }
    }

    artifact("BENCH_placement.json", "placement", |w| {
        w.key("workloads").arr();
        for (name, off, on) in &cells {
            w.obj()
                .field("workload", *name)
                .field("off", off)
                .field("on", on);
            w.field("identical_results", true).end();
        }
        w.end();
    });
}
