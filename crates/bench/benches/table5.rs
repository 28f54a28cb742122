//! Table 5 — the legacy pthreads programs and OpenMP programs: which API
//! calls each program makes, and the average execution time of the basic
//! operations during the run (including contention and wait time, as in
//! the paper).

use std::sync::Arc;

use cables::{CablesConfig, CablesRt, OpKind, OpTimes, RtStats};
use cables_bench::{artifact, header};
use omp::Omp;
use svm::{Cluster, ClusterConfig};

use apps::ompapps::{fft as offt, lu as olu, ocean as oocean};
use apps::pthreads::{pc, pipe, pn};

/// The artifact's `calls` counts (the paper's C/J/L/Co/Ca columns, plus
/// `cancel` from the runtime stats) and `avg_ns` averages.
const CALLS: [(&str, OpKind); 7] = [
    ("create", OpKind::Create),
    ("join", OpKind::Join),
    ("lock", OpKind::MutexLock),
    ("wait", OpKind::CondWait),
    ("signal", OpKind::CondSignal),
    ("broadcast", OpKind::CondBroadcast),
    ("barrier", OpKind::Barrier),
];
const AVG_NS: [(&str, OpKind); 6] = [
    ("create", OpKind::Create),
    ("lock", OpKind::MutexLock),
    ("unlock", OpKind::MutexUnlock),
    ("cond_wait", OpKind::CondWait),
    ("signal", OpKind::CondSignal),
    ("broadcast", OpKind::CondBroadcast),
];

struct ProgramRow {
    name: &'static str,
    stats: RtStats,
    ops: OpTimes,
}

#[derive(Clone, Copy)]
enum ProgramBody {
    Pn,
    Pc,
    Pipe,
    OmpFft,
    OmpLu,
    OmpOcean,
}

fn run_program(name: &'static str, nodes: usize, body: ProgramBody) -> ProgramRow {
    let cluster = Cluster::build(ClusterConfig::small(nodes, 2));
    let rt = CablesRt::new(cluster, CablesConfig::paper());
    let rt2 = Arc::clone(&rt);
    rt.run(move |pth| {
        match body {
            ProgramBody::Pn => {
                let p = pn::PnParams {
                    hi: 20_000,
                    chunk: 256,
                    nthreads: 4,
                };
                let found = pn::run_pn(pth, p);
                assert_eq!(found, pn::primes_below(p.hi), "PN wrong");
            }
            ProgramBody::Pc => {
                let p = pc::PcParams {
                    items: 400,
                    capacity: 8,
                };
                let sum = pc::run_pc(pth, p);
                assert_eq!(sum, pc::expected_checksum(p), "PC wrong");
            }
            ProgramBody::Pipe => {
                let p = pipe::PipeParams {
                    stages: 4,
                    items: 150,
                    capacity: 4,
                    work_ns: 20_000,
                };
                let sum = pipe::run_pipe(pth, p);
                assert_eq!(sum, pipe::expected_sum(p), "PIPE wrong");
            }
            ProgramBody::OmpFft => {
                let omp = Omp::new(Arc::clone(pth.rt()), 8);
                let p = offt::OmpFftParams {
                    m: 10,
                    threads: 8,
                    verify: false,
                };
                offt::omp_fft(&omp, pth, p);
                omp.shutdown(pth);
            }
            ProgramBody::OmpLu => {
                let omp = Omp::new(Arc::clone(pth.rt()), 8);
                let p = olu::OmpLuParams {
                    n: 48,
                    threads: 8,
                    verify: false,
                };
                olu::omp_lu(&omp, pth, p);
                omp.shutdown(pth);
            }
            ProgramBody::OmpOcean => {
                let omp = Omp::new(Arc::clone(pth.rt()), 8);
                let p = oocean::OmpOceanParams {
                    n: 64,
                    iters: 3,
                    omega: 1.2,
                    threads: 8,
                };
                oocean::omp_ocean(&omp, pth, p);
                omp.shutdown(pth);
            }
        }
        0
    })
    .unwrap_or_else(|e| panic!("{name} failed: {e}"));
    ProgramRow {
        name,
        stats: rt2.stats(),
        ops: rt2.op_times(),
    }
}

fn main() {
    header(
        "Table 5: pthreads programs — API usage and average operation times",
        "paper Table 5 (§3.3)",
    );

    let programs = vec![
        run_program("PN", 2, ProgramBody::Pn),
        run_program("PC", 1, ProgramBody::Pc),
        run_program("PIPE", 3, ProgramBody::Pipe),
        run_program("OMP FFT", 4, ProgramBody::OmpFft),
        run_program("OMP LU", 4, ProgramBody::OmpLu),
        run_program("OMP OCEAN", 4, ProgramBody::OmpOcean),
    ];

    // API usage matrix (paper's C/J/L/Co/Ca columns).
    println!("API usage (number of calls):");
    println!(
        "{:<10} {:>7} {:>6} {:>7} {:>7} {:>9} {:>7} {:>8} {:>7}",
        "PROGRAM", "create", "join", "lock", "wait", "signal", "bcast", "barrier", "cancel"
    );
    for p in &programs {
        println!(
            "{:<10} {:>7} {:>6} {:>7} {:>7} {:>9} {:>7} {:>8} {:>7}",
            p.name,
            p.ops.count(OpKind::Create),
            p.ops.count(OpKind::Join),
            p.ops.count(OpKind::MutexLock),
            p.ops.count(OpKind::CondWait),
            p.ops.count(OpKind::CondSignal),
            p.ops.count(OpKind::CondBroadcast),
            p.ops.count(OpKind::Barrier),
            p.stats.cancels,
        );
    }
    println!();

    // Average execution times (paper's right half; includes
    // communication, contention and application wait time, which is why
    // cond_wait dwarfs everything).
    println!("average execution time of the basic API operations:");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "PROGRAM", "create", "lock", "unlock", "cond_wait", "signal", "bcast"
    );
    let f = |ops: &OpTimes, k: OpKind| -> String {
        match ops.avg_ns(k) {
            None => "-".to_string(),
            Some(ns) if ns >= 1_000_000 => format!("{:.1} ms", ns as f64 / 1e6),
            Some(ns) => format!("{:.1} us", ns as f64 / 1e3),
        }
    };
    for p in &programs {
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>14} {:>12} {:>12}",
            p.name,
            f(&p.ops, OpKind::Create),
            f(&p.ops, OpKind::MutexLock),
            f(&p.ops, OpKind::MutexUnlock),
            f(&p.ops, OpKind::CondWait),
            f(&p.ops, OpKind::CondSignal),
            f(&p.ops, OpKind::CondBroadcast),
        );
    }
    println!();
    println!("paper shape checks:");
    let pc_lock = programs[1].ops.avg_ns(OpKind::MutexLock).unwrap_or(0);
    let pn_create = programs[0].ops.avg_ns(OpKind::Create).unwrap_or(0);
    println!(
        "  PC local lock avg {:.1} us vs PN remote create avg {:.1} ms -> ~{} orders of magnitude",
        pc_lock as f64 / 1e3,
        pn_create as f64 / 1e6,
        ((pn_create as f64 / pc_lock.max(1) as f64).log10()).round() as i64,
    );
    println!("  (paper: remote operations about three orders of magnitude above local;");
    println!("   create averages are ms-scale because they amortize node attaches)");

    // Sizes are the same in smoke mode; the "smoke" marker is what lets
    // scripts/perfgate.sh tell a gate-able artifact from a stale one.
    artifact("BENCH_table5.json", "table5", |w| {
        w.key("programs").arr();
        for p in &programs {
            w.obj().field("program", p.name).key("calls").obj();
            for (k, op) in CALLS {
                w.field(k, p.ops.count(op));
            }
            w.field("cancel", p.stats.cancels).end().key("avg_ns").obj();
            for (k, op) in AVG_NS {
                w.field(k, p.ops.avg_ns(op));
            }
            w.end().end();
        }
        w.end();
    });
}
