//! Host-time microprobes: nanoseconds of simulator wall time per call of
//! one public function of one crate, in a tight loop on a 2-node cluster
//! built for the purpose. They say which layer's host cost moved when
//! `host_iter_s` does. Each probe runs five batches and reports the median
//! per-call time.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cables::{CablesConfig, CablesRt};
use memsim::{PageNum, Prot, PAGE_SIZE};
use obs::{Event, Layer};
use san::{San, SanConfig};
use sim::SimTime;
use svm::{Cluster, ClusterConfig};

use crate::run::Metrics;
use crate::stats::median;

const BATCHES: usize = 5;

/// A fresh 2-node, 1-cpu-per-node cluster: the second simulated thread of
/// any probe lands on the second node, so remote paths are exercised.
fn probe_cluster() -> Arc<Cluster> {
    Cluster::build(ClusterConfig::small(2, 1))
}

/// Times `BATCHES` batches of `f`, each `ops` calls' worth of work, and
/// returns the median nanoseconds per call.
fn per_call(ops: u64, mut f: impl FnMut(usize)) -> f64 {
    let mut ns = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let t = Instant::now();
        f(b);
        ns.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&mut ns)
}

/// Runs every probe; `div` divides the per-batch call counts (smoke runs).
pub fn all(div: u64) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    sim_probes(div, &mut m)?;
    memsim_probes(div, &mut m)?;
    san_probes(div, &mut m);
    vmmc_probes(div, &mut m)?;
    svm_probes(div, &mut m)?;
    cables_probes(div, &mut m)?;
    obs_probe(div, &mut m);
    Ok(m)
}

type Slot = Arc<Mutex<Vec<(&'static str, f64)>>>;

fn drain(slot: &Slot, m: &mut Metrics) {
    for (k, v) in slot.lock().expect("probe slot").drain(..) {
        m.insert(k, v);
    }
}

/// `Sim::advance` on the lock-free clock path, and a `block`/`wake`
/// ping-pong between two simulated threads on different nodes (two
/// hand-offs per round trip).
fn sim_probes(div: u64, m: &mut Metrics) -> Result<(), String> {
    let cluster = probe_cluster();
    let (n0, n1) = (cluster.nodes()[0], cluster.nodes()[1]);
    let slot: Slot = Arc::default();
    let out = Arc::clone(&slot);
    let adv_ops = (2_000_000 / div).max(1);
    let rounds = (50_000 / div).max(1);
    cluster
        .engine
        .clone()
        .run(n0, move |sim| {
            let adv = per_call(adv_ops, |_| {
                for _ in 0..adv_ops {
                    sim.advance(1);
                }
            });
            let me = sim.tid();
            let total = rounds * BATCHES as u64;
            let pong = sim.spawn_on(n1, sim.now(), "pong", move |s| {
                for _ in 0..total {
                    s.block();
                    s.wake(me, s.now());
                }
            });
            let handoff = per_call(2 * rounds, |_| {
                for _ in 0..rounds {
                    sim.wake(pong, sim.now());
                    sim.block();
                }
            });
            sim.wait_exit(pong);
            out.lock().expect("probe slot").extend([
                ("sim.probe_advance_ns", adv),
                ("sim.probe_handoff_ns", handoff),
            ]);
        })
        .map_err(|e| format!("sim probes: {e}"))?;
    drain(&slot, m);
    Ok(())
}

/// Pages mapped for the memory probes: four times the 256 entries of a
/// node's direct-mapped software TLB, so cycling over them always misses.
const PROBE_PAGES: u64 = 1_024;

/// `ClusterMem` through a node's page table: a 64 KiB bulk read, a scalar
/// read that hits the software TLB, and a scalar read that always misses.
fn memsim_probes(div: u64, m: &mut Metrics) -> Result<(), String> {
    let cluster = probe_cluster();
    let mem = &cluster.mem;
    let node = cluster.nodes()[0];
    mem.ensure_node(node);
    let base = 1u64 << 30;
    for i in 0..PROBE_PAGES {
        let frame = mem
            .alloc_frame(node)
            .map_err(|e| format!("memsim probe: {e}"))?;
        mem.map_page(node, PageNum::new(base + i), frame, Prot::ReadWrite);
    }
    let addr = PageNum::new(base).base();

    let mut buf = vec![0u8; 64 << 10];
    let slice_ops = (2_000 / div).max(1);
    let slice = per_call(slice_ops * 64, |_| {
        for _ in 0..slice_ops {
            mem.read_slice(node, addr, &mut buf).expect("mapped slice");
            std::hint::black_box(&buf);
        }
    });
    m.insert("memsim.probe_slice_ns_per_kib", slice);

    let scalar_ops = (1_000_000 / div).max(1);
    let scalar = per_call(scalar_ops, |_| {
        for _ in 0..scalar_ops {
            std::hint::black_box(mem.read_scalar::<u64>(node, addr).expect("mapped scalar"));
        }
    });
    m.insert("memsim.probe_scalar_ns", scalar);

    let miss_ops = (500_000 / div).max(1);
    let miss = per_call(miss_ops, |_| {
        for i in 0..miss_ops {
            let a = PageNum::new(base + i % PROBE_PAGES).base();
            std::hint::black_box(mem.read_scalar::<u64>(node, a).expect("mapped scalar"));
        }
    });
    m.insert("memsim.probe_tlb_miss_ns", miss);
    Ok(())
}

/// `San::send` of one 8-byte message and `San::fetch` of one page, plus
/// the model's accuracy against the paper's Table 3.
fn san_probes(div: u64, m: &mut Metrics) {
    let cluster = probe_cluster();
    let san = &cluster.san;
    let (n0, n1) = (cluster.nodes()[0], cluster.nodes()[1]);
    let ops = (300_000 / div).max(1);
    let mut now = SimTime::ZERO;
    let send = per_call(ops, |_| {
        for _ in 0..ops {
            now = san.send(n0, n1, 8, now).arrival;
        }
    });
    m.insert("san.probe_send_ns", send);
    let fetch = per_call(ops, |_| {
        for _ in 0..ops {
            now = san.fetch(n0, n1, PAGE_SIZE, now);
        }
    });
    m.insert("san.probe_fetch_ns", fetch);
    m.insert("san.table3_max_err_pct", table3_max_err_pct());
}

/// Largest relative error of the paper-configured SAN's 1-word and 4 KB
/// send and fetch latencies, on an idle wire, against the paper's Table 3
/// (7.8 / 22 / 52 / 81 us). Table 3 is the only reference the repository
/// holds; everything beyond it is unvalidated.
pub fn table3_max_err_pct() -> f64 {
    let san = San::new(SanConfig::paper());
    let (a, b) = (sim::NodeId(0), sim::NodeId(1));
    let word = san.config().word_bytes;
    // One second apart, so each operation finds both NICs idle.
    let at = |k: u64| SimTime::from_secs(k);
    let got = [
        (san.send(a, b, word, at(1)).arrival - at(1), 7_800.0),
        (san.fetch(a, b, word, at(2)) - at(2), 22_000.0),
        (san.send(a, b, PAGE_SIZE, at(3)).arrival - at(3), 52_000.0),
        (san.fetch(a, b, PAGE_SIZE, at(4)) - at(4), 81_000.0),
    ];
    got.iter()
        .map(|&(ns, paper)| (ns as f64 - paper).abs() / paper * 100.0)
        .fold(0.0, f64::max)
}

/// `Vmmc::remote_write` of 8 bytes and `Vmmc::remote_fetch` of one page
/// on a region node 1 exports and node 0 imports.
fn vmmc_probes(div: u64, m: &mut Metrics) -> Result<(), String> {
    let cluster = probe_cluster();
    let (n0, n1) = (cluster.nodes()[0], cluster.nodes()[1]);
    let err = |e| format!("vmmc probe: {e}");
    let frame = cluster
        .mem
        .alloc_frame(n1)
        .map_err(|e| format!("vmmc probe: {e}"))?;
    let region = cluster.vmmc.export_region(n1, vec![frame]).map_err(err)?;
    cluster.vmmc.import_region(n0, region).map_err(err)?;
    let vm = &cluster.vmmc;
    let ops = (200_000 / div).max(1);
    let mut now = SimTime::ZERO;
    let write = per_call(ops, |_| {
        for _ in 0..ops {
            now = vm
                .remote_write(n0, region, 0, &[7u8; 8], now)
                .expect("imported region")
                .arrival;
        }
    });
    m.insert("vmmc.probe_write_ns", write);
    let fetch_ops = (100_000 / div).max(1);
    let fetch = per_call(fetch_ops, |_| {
        for _ in 0..fetch_ops {
            let (data, done) = vm
                .remote_fetch(n0, region, 0, PAGE_SIZE, now)
                .expect("imported region");
            std::hint::black_box(data);
            now = done;
        }
    });
    m.insert("vmmc.probe_fetch_4k_ns", fetch);
    Ok(())
}

/// Runs `body` as the main thread of a fresh CableS runtime on the probe
/// cluster and collects what it reports.
fn on_cables(
    what: &str,
    m: &mut Metrics,
    body: impl FnOnce(&cables::Pth, &Slot) + Send + 'static,
) -> Result<(), String> {
    let rt = CablesRt::new(probe_cluster(), CablesConfig::paper());
    let slot: Slot = Arc::default();
    let out = Arc::clone(&slot);
    rt.run(move |pth| {
        body(pth, &out);
        0
    })
    .map_err(|e| format!("{what} probes: {e}"))?;
    drain(&slot, m);
    Ok(())
}

/// The protocol from a thread on node 1 over pages homed on node 0: a read
/// fault with its page fetch, a write fault plus the diff its release
/// sends home, and an uncontended system lock/unlock pair.
fn svm_probes(div: u64, m: &mut Metrics) -> Result<(), String> {
    let per_batch = (1_000 / div).max(1);
    let lock_ops = (20_000 / div).max(1);
    on_cables("svm", m, move |pth, out| {
        let pages = per_batch * BATCHES as u64;
        let base = pth.malloc(pages * PAGE_SIZE);
        for i in 0..pages {
            pth.write::<u64>(base + i * PAGE_SIZE, i);
        }
        let out = Arc::clone(out);
        let child = pth.create(move |p| {
            if p.node() == p.rt().master() {
                return 1;
            }
            let svm = p.rt().svm();
            let batch = |b: usize| b as u64 * per_batch..(b as u64 + 1) * per_batch;
            let read = per_call(per_batch, |b| {
                for i in batch(b) {
                    std::hint::black_box(svm.read::<u64>(p.sim, base + i * PAGE_SIZE));
                }
            });
            let write = per_call(per_batch, |b| {
                for i in batch(b) {
                    svm.write::<u64>(p.sim, base + i * PAGE_SIZE, i + 1);
                }
                svm.release(p.sim);
            });
            let lock = per_call(lock_ops, |_| {
                for _ in 0..lock_ops {
                    svm.lock(p.sim, 777);
                    svm.unlock(p.sim, 777);
                }
            });
            out.lock().expect("probe slot").extend([
                ("svm.probe_read_fault_ns", read),
                ("svm.probe_write_release_ns", write),
                ("svm.probe_lock_pair_ns", lock),
            ]);
            0
        });
        assert_eq!(
            pth.join(child),
            0,
            "svm probe thread was not placed on the second node"
        );
    })
}

/// The pthreads layer: an uncontended mutex lock/unlock pair, a remote
/// `pthread_create` + `join`, and a condition-variable round trip between
/// two threads on different nodes.
fn cables_probes(div: u64, m: &mut Metrics) -> Result<(), String> {
    let mutex_ops = (50_000 / div).max(1);
    let create_ops = (1_000 / div).max(1);
    let rounds = (2_000 / div).max(1);
    on_cables("cables", m, move |pth, out| {
        let mx = pth.rt().mutex_new();
        let mutex = per_call(mutex_ops, |_| {
            for _ in 0..mutex_ops {
                pth.mutex_lock(mx);
                pth.mutex_unlock(mx);
            }
        });
        let create = per_call(create_ops, |_| {
            for _ in 0..create_ops {
                let c = pth.create(|_| 0);
                pth.join(c);
            }
        });

        // Ping-pong on a turn word in global memory: 1 = the child's
        // turn, 0 = ours. One round trip is two signals and two waits.
        let turn = pth.malloc(8);
        pth.write::<u64>(turn, 0);
        let (to_child, to_main) = (pth.rt().cond_new(), pth.rt().cond_new());
        let total = rounds * BATCHES as u64;
        let child = pth.create(move |p| {
            p.mutex_lock(mx);
            for _ in 0..total {
                while p.read::<u64>(turn) != 1 {
                    p.cond_wait(to_child, mx).expect("probe thread cancelled");
                }
                p.write::<u64>(turn, 0);
                p.cond_signal(to_main);
            }
            p.mutex_unlock(mx);
            0
        });
        pth.mutex_lock(mx);
        let cond = per_call(rounds, |_| {
            for _ in 0..rounds {
                pth.write::<u64>(turn, 1);
                pth.cond_signal(to_child);
                while pth.read::<u64>(turn) != 0 {
                    pth.cond_wait(to_main, mx).expect("probe thread cancelled");
                }
            }
        });
        pth.mutex_unlock(mx);
        pth.join(child);
        out.lock().expect("probe slot").extend([
            ("cables.probe_mutex_pair_ns", mutex),
            ("cables.probe_create_join_ns", create),
            ("cables.probe_cond_roundtrip_ns", cond),
        ]);
    })
}

/// `ObsSink::span` with the bus on: what one recorded span costs the
/// layers that emit them.
fn obs_probe(div: u64, m: &mut Metrics) {
    let cluster = probe_cluster();
    let sink = &cluster.obs;
    sink.set_enabled(true);
    let node = cluster.nodes()[0];
    let ops = (200_000 / div).max(1);
    // BATCHES * ops records stay below the sink's default 2^20 capacity,
    // so every call takes the recording path, never the drop path.
    let span = per_call(ops, |_| {
        for i in 0..ops {
            sink.span(
                Layer::Sync,
                node,
                1,
                SimTime::from_nanos(i),
                10,
                Event::BarrierWait { id: 1 },
            );
        }
    });
    m.insert("obs.probe_span_ns", span);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_is_reproduced_within_one_percent() {
        let e = table3_max_err_pct();
        assert!((0.0..1.0).contains(&e), "Table 3 max error {e} %");
    }

    #[test]
    fn every_probe_reports_a_positive_time() {
        std::env::set_var("CABLES_ENGINE_MODE", crate::spec::ENGINE_MODE);
        let m = all(200).expect("probes");
        let want: Vec<_> = crate::spec::PER_LAYER
            .iter()
            .map(|s| s.name)
            .filter(|n| n.contains(".probe_"))
            .collect();
        assert_eq!(want.len(), 16);
        for n in want {
            assert!(m.get(n).is_some_and(|&v| v > 0.0), "{n}: {:?}", m.get(n));
        }
    }
}
