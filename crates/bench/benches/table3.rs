//! Table 3 — basic VMMC costs, measured through the simulated stack
//! (two nodes, no contention), exactly like the paper's microbenchmark.

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use cables_bench::{artifact, header};
use memsim::{ClusterMem, OsVmConfig, PAGE_SIZE};
use obs::json::Fixed;
use san::{San, SanConfig};
use sim::{Engine, SimTime};
use vmmc::{Vmmc, VmmcConfig};

struct Row {
    op: &'static str,
    paper: &'static str,
    measured: String,
    value: f64,
    unit: &'static str,
}

fn main() {
    header("Table 3: basic VMMC costs", "paper Table 3 (§3.1)");

    let engine = Engine::new();
    let n0 = engine.add_node(2);
    let n1 = engine.add_node(2);
    let san = Arc::new(San::new(SanConfig::paper()));
    let mem = Arc::new(ClusterMem::new(OsVmConfig::windows_nt()));
    let vm = Arc::new(Vmmc::new(VmmcConfig::paper(), san, Arc::clone(&mem)));
    vm.ensure_node(n0);
    vm.ensure_node(n1);

    let rows: Arc<StdMutex<Vec<Row>>> = Arc::new(StdMutex::new(Vec::new()));
    let rows2 = Arc::clone(&rows);
    let vm2 = Arc::clone(&vm);
    let mem2 = Arc::clone(&mem);

    engine
        .run(n0, move |sim| {
            // Export a 1 MB region on node 1 and import it on node 0.
            let frames: Vec<_> = (0..256).map(|_| mem2.alloc_frame(n1).unwrap()).collect();
            let region = vm2.export_region(n1, frames).unwrap();
            vm2.import_region(n0, region).unwrap();
            let push = |op, paper, ns: u64| {
                rows2.lock().unwrap().push(Row {
                    op,
                    paper,
                    measured: format!("{:.1} us", ns as f64 / 1e3),
                    value: ns as f64,
                    unit: "ns",
                });
            };

            // 1-word send, one-way latency.
            let t = vm2
                .remote_write(n0, region, 0, &[0u8; 4], sim.now())
                .unwrap();
            push("1-word send (one-way lat)", "7.8 us", t.arrival - sim.now());

            // 1-word fetch, round trip.
            sim.advance(100_000_000); // quiesce the NIC model
            let (_, done) = vm2.remote_fetch(n0, region, 0, 4, sim.now()).unwrap();
            push("1-word fetch (round-trip lat)", "22 us", done - sim.now());

            // 4 KByte send.
            sim.advance(100_000_000);
            let buf = vec![0u8; PAGE_SIZE as usize];
            let t = vm2.remote_write(n0, region, 0, &buf, sim.now()).unwrap();
            push("4 KByte send (one-way lat)", "52 us", t.arrival - sim.now());

            // 4 KByte fetch.
            sim.advance(100_000_000);
            let (_, done) = vm2
                .remote_fetch(n0, region, 0, PAGE_SIZE, sim.now())
                .unwrap();
            push("4 KByte fetch (round-trip lat)", "81 us", done - sim.now());

            // Ping-pong bandwidth: stream 256 x 4 KB back-to-back.
            sim.advance(100_000_000);
            let start = sim.now();
            let mut last = SimTime::ZERO;
            let n_msgs = 256u64;
            for i in 0..n_msgs {
                let off = (i % 256) * PAGE_SIZE;
                last = vm2
                    .remote_write(n0, region, off, &buf, start)
                    .unwrap()
                    .arrival;
            }
            let mbs = (n_msgs * PAGE_SIZE) as f64 / (last - start) as f64 * 1e3;
            rows2.lock().unwrap().push(Row {
                op: "maximum ping-pong bandwidth",
                paper: "125 MBytes/s",
                measured: format!("{mbs:.0} MBytes/s"),
                value: mbs,
                unit: "MB/s",
            });

            // Fetch bandwidth.
            sim.advance(100_000_000);
            let start = sim.now();
            let mut done = SimTime::ZERO;
            for i in 0..n_msgs {
                let off = (i % 256) * PAGE_SIZE;
                done = vm2
                    .remote_fetch(n0, region, off, PAGE_SIZE, start)
                    .unwrap()
                    .1;
            }
            let mbs = (n_msgs * PAGE_SIZE) as f64 / (done - start) as f64 * 1e3;
            rows2.lock().unwrap().push(Row {
                op: "maximum fetch bandwidth",
                paper: "125 MBytes/s",
                measured: format!("{mbs:.0} MBytes/s"),
                value: mbs,
                unit: "MB/s",
            });

            // Notification.
            sim.advance(100_000_000);
            let t = vm2.notify(n0, n1, sim.now());
            push("notification", "18 us", t.arrival - sim.now());
        })
        .expect("table3 microbench");

    println!(
        "{:<34} {:>14} {:>14}",
        "VMMC operation", "paper", "measured"
    );
    println!("{}", "-".repeat(64));
    let rows = rows.lock().unwrap();
    for r in rows.iter() {
        println!("{:<34} {:>14} {:>14}", r.op, r.paper, r.measured);
    }
    println!();

    artifact("BENCH_table3.json", "table3", |w| {
        w.key("rows").arr();
        for r in rows.iter() {
            w.obj().field("op", r.op).field("paper", r.paper);
            w.field("value", Fixed(r.value, 3))
                .field("unit", r.unit)
                .end();
        }
        w.end();
    });
}
