//! Sharing-aware placement policy sweep: counters → migration, affinity
//! threads.
//!
//! Runs three workloads — OCEAN (boundary-row chunk sharing), RADIX
//! (permutation-phase all-to-all) and the zipfian open-loop KV service —
//! with the placement extensions off and on, and produces
//! `BENCH_placement.json` with per-cell traffic counters, simulated
//! times, the measured window (`parallel_ns` for the kernels, `serve_ns`
//! for the service) and policy decision counts. "On" means both legs at once: the
//! counter-driven home-migration policy (`SvmConfig::placement_policy`)
//! and affinity thread placement (`CablesConfig::affinity_placement`).
//!
//! Asserted invariants:
//!
//! - the policies are value-preserving: identical application checksums
//!   (kernels) and response digests (service) with the policy on;
//! - the off cells report zero for every policy counter (the paper
//!   configuration is untouched);
//! - policy-on reduces remote fetch + diff protocol messages on at least
//!   two of the three workloads (and shortens simulated time on at least
//!   two at full size — smoke sizes are µs-scale noise);
//! - the policy actually decides: `policy_considered > 0` everywhere,
//!   and at least one workload migrates.
//!
//! Run with `--test` for the CI smoke mode: tiny sizes, same artifact,
//! same assertions except the end-to-end time comparison.

use std::sync::{Arc, Mutex as StdMutex};

use apps::service::{run_service, ServiceParams};
use apps::splash::{ocean, radix};
use apps::{M4Ctx, M4System};
use cables::{CablesConfig, CablesRt};
use cables_bench::{artifact, cluster_for, fmt_ns, header, smoke_mode};
use obs::json::{ToJson, Writer};
use svm::{Cluster, NodeStats, SvmConfig};
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
        w.field("pingpong_handoffs", s.pingpong_handoffs);
        w.field("policy_considered", s.policy_considered);
        w.field("policy_migrations", s.policy_migrations)
            .field("checksum", self.checksum)
            .end();
    }
}

/// Both cells model a warm long-running deployment: the node set is
/// pre-attached, so the off cell's round-robin scatters consecutively
/// created threads across nodes (the misplacement the policy exists to
/// fix) instead of accidentally block-placing them via lazy attach.
fn kernel_cfg(on: bool, nodes: usize) -> CablesConfig {
    CablesConfig {
        svm: if on {
            SvmConfig::cables().with_placement_policy()
        } else {
            SvmConfig::cables()
        },
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
        "placement: sharing-aware placement, policy off vs on",
        "extension; the paper provides migration mechanisms but no policy (§2.1.3)",
    );

    println!(
        "{:<14} {:>6} {:>13} {:>13} {:>11} {:>11} {:>9} {:>9}",
        "workload", "cell", "sim time", "rem fetches", "diffs", "msgs", "migr", "pingpong"
    );

    let mut wins_msgs = 0usize;
    let mut wins_time = 0usize;
    let mut any_migrated = false;

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
                "{:<14} {:>6} {:>13} {:>13} {:>11} {:>11} {:>9} {:>9}",
                name,
                cell_name,
                c.sim_ns,
                c.stats.remote_fetches,
                c.stats.diffs_sent,
                c.stats.remote_fetches + c.stats.diffs_sent,
                c.stats.migrations,
                c.stats.pingpong_handoffs
            );
        }
        // Value preservation: checksums/digests must match exactly.
        assert_eq!(
            off.checksum, on.checksum,
            "{name}: policy-on changed the application result"
        );
        // The paper configuration is untouched: no policy counter moves.
        assert_eq!(off.stats.migrations, 0, "{name}: policy-off migrated");
        assert_eq!(
            off.stats.policy_considered, 0,
            "{name}: policy-off considered"
        );
        assert_eq!(
            off.stats.pingpong_handoffs, 0,
            "{name}: policy-off counted handoffs"
        );
        // The policy engages everywhere it is on.
        assert!(
            on.stats.policy_considered > 0,
            "{name}: policy never considered a migration"
        );
        any_migrated |= on.stats.policy_migrations > 0;
        let off_msgs = off.stats.remote_fetches + off.stats.diffs_sent;
        let on_msgs = on.stats.remote_fetches + on.stats.diffs_sent;
        if on_msgs < off_msgs {
            wins_msgs += 1;
        }
        if on.sim_ns < off.sim_ns {
            wins_time += 1;
        }
        println!(
            "{name}: fetch+diff messages {off_msgs} -> {on_msgs}, time {} -> {}\n",
            fmt_ns(off.sim_ns),
            fmt_ns(on.sim_ns)
        );
    }

    assert!(
        wins_msgs >= 2,
        "policy-on reduced fetch+diff messages on only {wins_msgs}/3 workloads"
    );
    if !smoke {
        assert!(
            wins_time >= 2,
            "policy-on shortened simulated time on only {wins_time}/3 workloads"
        );
    }
    assert!(any_migrated, "the placement policy never migrated a chunk");

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
