//! Table 6 — speedups of the three OpenMP SPLASH-2 programs (FFT, LU,
//! OCEAN) on 4, 8 and 16 processors, over CableS via the OdinMP-style
//! runtime.
//!
//! Speedups are computed on the computational phase: the worker pool is
//! warmed up first (thread creation and node attach are the paper's
//! initialization overhead, reported separately in Table 4).

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use cables::{CablesConfig, CablesRt};
use cables_bench::{artifact, header, smoke_mode};
use obs::json::Fixed;
use omp::Omp;
use svm::{Cluster, ClusterConfig};

use apps::ompapps::{fft as offt, lu as olu, ocean as oocean};

#[derive(Clone, Copy)]
enum Program {
    Fft,
    Lu,
    Ocean,
}

impl Program {
    fn name(self) -> &'static str {
        match self {
            Program::Fft => "FFT",
            Program::Lu => "LU",
            Program::Ocean => "OCEAN",
        }
    }
}

/// Runs one program with `threads` team members and returns the virtual
/// time of the computational phase.
fn run_one(program: Program, threads: usize) -> u64 {
    let nodes = threads.div_ceil(2).max(1);
    let cluster = Cluster::build(ClusterConfig::small(nodes, 2));
    let rt = CablesRt::new(cluster, CablesConfig::paper());
    let elapsed = Arc::new(StdMutex::new(0u64));
    let e2 = Arc::clone(&elapsed);
    let rt2 = Arc::clone(&rt);
    rt.run(move |pth| {
        let omp = Omp::new(Arc::clone(&rt2), threads);
        // Warm the pool: creates threads, attaches nodes.
        omp.parallel(pth, |_| {});
        let t0 = pth.sim.now();
        match program {
            Program::Fft => {
                let p = offt::OmpFftParams {
                    m: 16,
                    threads,
                    verify: false,
                };
                offt::omp_fft(&omp, pth, p);
            }
            Program::Lu => {
                let p = olu::OmpLuParams {
                    n: 512,
                    threads,
                    verify: false,
                };
                olu::omp_lu(&omp, pth, p);
            }
            Program::Ocean => {
                let p = oocean::OmpOceanParams {
                    n: 258,
                    iters: 5,
                    omega: 1.2,
                    threads,
                };
                oocean::omp_ocean(&omp, pth, p);
            }
        }
        *e2.lock().unwrap() = pth.sim.now() - t0;
        omp.shutdown(pth);
        0
    })
    .unwrap_or_else(|e| panic!("{} x{threads} failed: {e}", program.name()));
    let v = *elapsed.lock().unwrap();
    v
}

fn main() {
    header(
        "Table 6: speedups of the OpenMP SPLASH-2 programs on CableS",
        "paper Table 6 (§3.3)",
    );
    let paper: [(&str, [f64; 3]); 3] = [
        ("FFT", [1.61, 2.05, 2.44]),
        ("LU", [3.17, 3.71, 7.10]),
        ("OCEAN", [1.33, 1.43, 1.92]),
    ];
    println!(
        "{:<10} {:>16} {:>16} {:>16}",
        "PROGRAM", "4 procs", "8 procs", "16 procs"
    );
    println!("{:<10} {:>16} {:>16} {:>16}", "", "ours (paper)", "ours (paper)", "ours (paper)");
    println!("{}", "-".repeat(62));
    // `--test` smoke mode: one program, one team size (CI check).
    let smoke = smoke_mode();
    let programs: &[Program] = if smoke {
        &[Program::Lu]
    } else {
        &[Program::Fft, Program::Lu, Program::Ocean]
    };
    let procs_list: &[usize] = if smoke { &[4] } else { &[4, 8, 16] };
    // Per program: (name, t1, [(procs, tp, speedup, paper speedup)]).
    let mut results = Vec::new();
    for program in programs {
        let prow = paper
            .iter()
            .find(|(n, _)| *n == program.name())
            .expect("paper row");
        let t1 = run_one(*program, 1);
        let mut row = format!("{:<10}", program.name());
        let mut points = Vec::new();
        for (j, &procs) in procs_list.iter().enumerate() {
            let tp = run_one(*program, procs);
            let speedup = t1 as f64 / tp as f64;
            row.push_str(&format!(
                " {:>16}",
                format!("{speedup:>5.2} ({:>5.2})", prow.1[j])
            ));
            points.push((procs, tp, speedup, prow.1[j]));
        }
        println!("{row}");
        results.push((program.name(), t1, points));
    }
    println!();
    println!("shape targets: modest speedups throughout; LU scales best, OCEAN worst");
    println!("(OpenMP-for-SMP programs are master-initialized, so placement is poor).");
    if smoke {
        println!("smoke mode: BENCH_table6.json not rewritten");
        return;
    }
    artifact("BENCH_table6.json", "table6", |w| {
        w.key("programs").arr();
        for (name, t1, points) in &results {
            w.obj().field("program", *name).field("t1_ns", t1).key("points").arr();
            for &(procs, tp, speedup, paper) in points {
                w.obj().field("procs", procs).field("tp_ns", tp);
                w.field("speedup", Fixed(speedup, 3)).field("paper_speedup", paper).end();
            }
            w.end().end();
        }
        w.end();
    });
}
