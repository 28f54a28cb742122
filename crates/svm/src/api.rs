//! The base-system facade: allocation, thread creation, and run helpers.
//!
//! [`SvmSystem`] is the object M4-style applications talk to. It is also
//! the protocol engine CableS builds on (the `cables` crate re-uses the
//! same instance with [`crate::config::ProtoMode::Cables`]).

use std::fmt;
use std::sync::Arc;

use memsim::{GAddr, PAGE_SIZE};
use sim::{Local, NodeId, Sim, Tid};

use crate::cluster::Cluster;
use crate::config::{cost, SvmConfig};
use crate::core::{NodeStats, PlacementReport, ProtoState};

/// A shared-virtual-memory system instance over a [`Cluster`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cables_svm::{Cluster, ClusterConfig, SvmConfig, SvmSystem};
///
/// let cluster = Cluster::build(ClusterConfig::small(2, 1));
/// let sys = SvmSystem::new(Arc::clone(&cluster), SvmConfig::base());
/// let sys2 = Arc::clone(&sys);
/// let root = cluster.nodes()[0];
/// cluster.engine.clone().run(root, move |sim| {
///     let a = sys2.g_malloc(sim, 64);
///     sys2.write(sim, a, 41u64);
///     assert_eq!(sys2.read::<u64>(sim, a), 41);
/// }).unwrap();
/// ```
pub struct SvmSystem {
    pub(crate) cluster: Arc<Cluster>,
    pub(crate) cfg: SvmConfig,
    pub(crate) state: Local<ProtoState>,
    pub(crate) master: NodeId,
}

impl fmt::Debug for SvmSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SvmSystem")
            .field("mode", &self.cfg.mode)
            .field("nodes", &self.cluster.nodes().len())
            .finish()
    }
}

impl SvmSystem {
    /// Creates a system over `cluster` with the given protocol config.
    pub fn new(cluster: Arc<Cluster>, cfg: SvmConfig) -> Arc<Self> {
        let nodes = cluster.nodes().len();
        let master = cluster.nodes()[0];
        Arc::new(SvmSystem {
            cluster,
            state: Local::new(ProtoState::new(nodes, cfg.clone(), master)),
            cfg,
            master,
        })
    }

    /// Crash checkpoint: when a chaos plan says this thread's node has
    /// crashed, unwinds with the typed [`chaos::CrashUnwind`] payload so
    /// the runtime above (CableS) can absorb it instead of dying. A pure
    /// no-op — one `Option` check — when no crash plan is attached.
    /// Public so runtimes layered on top can add their own checkpoints.
    #[inline]
    pub fn crash_check(&self, sim: &Sim) {
        if let Some(c) = self.cluster.chaos() {
            if c.crashes_armed() && c.crashed(sim.node().0, sim.now().as_nanos()) {
                std::panic::panic_any(chaos::CrashUnwind);
            }
        }
    }

    /// Engine statistics with the memory layer's software-TLB counters
    /// merged in (the engine itself reports zeros for those fields).
    pub fn engine_stats(&self) -> sim::EngineStats {
        let mut s = self.cluster.engine.stats();
        let t = self.cluster.mem.tlb_stats();
        s.tlb_hits = t.hits;
        s.tlb_misses = t.misses;
        s
    }

    /// Publishes the engine's scheduling telemetry into the obs gauge
    /// registry (`engine.*` names), so snapshots and the paper-style
    /// reporter surface parallel-engine headroom without grepping engine
    /// internals. No-op when observability is off; the gauges are
    /// deterministic (`tests/parallel_engine.rs` pins `EngineStats`).
    pub fn publish_engine_telemetry(&self) {
        if !self.cluster.obs.on() {
            return;
        }
        let s = self.engine_stats();
        let o = &self.cluster.obs;
        o.gauge_set("engine.window_admissible", s.window_admissible);
        o.gauge_set("engine.ready_reallocs", s.ready_reallocs);
        o.gauge_set("engine.context_switches", s.context_switches);
        o.gauge_set("engine.sync_fast_path", s.sync_fast_path);
    }

    /// Publishes migration activity into the obs gauge registry (`proto.*`
    /// names): total and per-node migrations. Zero-valued gauges are
    /// skipped — a run without migrations publishes nothing. No-op when
    /// observability is off.
    pub fn publish_placement_telemetry(&self) {
        if !self.cluster.obs.on() {
            return;
        }
        let o = &self.cluster.obs;
        let total = self.total_stats().migrations;
        if total > 0 {
            o.gauge_set("proto.migrations", total);
        }
        let st = self.state.lock();
        for (i, n) in st.nodes.iter().enumerate() {
            if n.stats.migrations > 0 {
                o.gauge_set(&format!("proto.node{i}.migrations"), n.stats.migrations);
            }
        }
    }

    /// Enables or disables the cluster-wide observability layer (event
    /// bus + metric registries, see the `obs` crate). Toggling never
    /// changes simulated results — recording charges no virtual time. Off
    /// by default.
    pub fn set_obs(&self, on: bool) {
        self.cluster.obs.set_enabled(on);
    }

    /// The cluster's observability sink (events, metrics, exporter input).
    pub fn obs(&self) -> &Arc<obs::ObsSink> {
        &self.cluster.obs
    }

    /// The sink, only when full observability is enabled (hot-path check).
    #[doc(hidden)]
    #[inline]
    pub fn obs_if_on(&self) -> Option<&obs::ObsSink> {
        let o = &self.cluster.obs;
        o.on().then_some(o)
    }

    /// The cluster this system runs on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The protocol configuration.
    pub fn config(&self) -> &SvmConfig {
        &self.cfg
    }

    /// The master node (holds the directory / ACB).
    pub fn master(&self) -> NodeId {
        self.master
    }

    /// Allocates `bytes` of global shared memory and returns its address.
    ///
    /// Homes are *not* assigned here — binding is delayed until first
    /// touch, at the system's placement granularity. Allocations of a page
    /// or more are page-aligned; smaller ones are 8-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn g_malloc(&self, sim: &Sim, bytes: u64) -> GAddr {
        assert!(bytes > 0, "g_malloc of zero bytes");
        sim.op_point(2_000);
        let mut st = self.state.lock();
        let align = if bytes >= PAGE_SIZE { PAGE_SIZE } else { 8 };
        let base = GAddr::new(st.alloc_next).align_up(align);
        st.alloc_next = base.raw() + bytes;
        st.alloc_ranges.push((base.raw(), bytes));
        base
    }

    /// Detailed misplacement list `(page, first_toucher, home)` for
    /// diagnostics.
    pub fn misplaced_pages(&self) -> Vec<(u64, NodeId, NodeId)> {
        self.state.lock().misplaced_pages()
    }

    /// Placement quality of the run so far (paper Fig. 6).
    pub fn placement_report(&self) -> PlacementReport {
        self.state.lock().placement_report()
    }

    /// Protocol counters for `node`.
    pub fn node_stats(&self, node: NodeId) -> NodeStats {
        self.state.lock().nodes[node.0 as usize].stats
    }

    /// Sum of protocol counters over all nodes.
    pub fn total_stats(&self) -> NodeStats {
        self.state.lock().total_stats()
    }

    /// Per-node remote-pull counts: demand fetches each node has served
    /// as home. The thread-affinity placement hint the CableS runtime
    /// consults when `affinity_placement` is on (reading it never
    /// perturbs the protocol).
    pub fn home_pull(&self) -> Vec<u64> {
        self.state.lock().home_pull.clone()
    }

    /// Creates a worker thread, assigning it to the next processor in
    /// round-robin order across the cluster (the M4 `CREATE` behaviour —
    /// one thread per processor, wrapping if oversubscribed).
    pub fn create<F>(self: &Arc<Self>, sim: &Sim, f: F) -> Tid
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        // Thread creation is a release point: the new thread must observe
        // everything the creator wrote so far.
        self.release(sim);
        sim.op_point(cost::CREATE_BOOKKEEPING_NS);
        let target = {
            let mut st = self.state.lock();
            let proc = st.next_proc;
            st.next_proc += 1;
            let cpus = self.cluster.cpus_per_node();
            let nodes = self.cluster.nodes();
            nodes[(proc / cpus) % nodes.len()]
        };
        let start;
        if target == sim.node() {
            sim.advance(cost::OS_THREAD_CREATE_NS);
            start = sim.now();
        } else {
            let t = self.cluster.san.notify(sim.node(), target, sim.now());
            sim.clock_at_least(t.local_done);
            start = t.arrival + cost::OS_THREAD_CREATE_NS;
        }
        let sys = Arc::clone(self);
        let tid = sim.spawn_on(target, start, "svm-worker", move |wsim| {
            f(wsim);
            // RC release on thread termination so joiners observe the
            // worker's writes.
            sys.release(wsim);
        });
        self.state.lock().created.push(tid);
        tid
    }

    /// Waits for every thread created through [`SvmSystem::create`] so far
    /// (the M4 `WAIT_FOR_END` behaviour).
    pub fn wait_for_end(&self, sim: &Sim) {
        loop {
            let next = {
                let mut st = self.state.lock();
                st.created.pop()
            };
            match next {
                Some(tid) => sim.wait_exit(tid),
                None => break,
            }
        }
        // RC acquire: observe the joined workers' writes.
        self.acquire(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::core::HEAP_BASE;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn setup(nodes: usize, cpus: usize, cfg: SvmConfig) -> (Arc<Cluster>, Arc<SvmSystem>) {
        let cluster = Cluster::build(ClusterConfig::small(nodes, cpus));
        let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
        (cluster, sys)
    }

    #[test]
    fn g_malloc_aligns_and_separates() {
        let (cluster, sys) = setup(1, 1, SvmConfig::base());
        let s = Arc::clone(&sys);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                let a = s.g_malloc(sim, 16);
                let b = s.g_malloc(sim, 16);
                assert_eq!(a.raw() % 8, 0);
                assert!(b.raw() >= a.raw() + 16);
                let big = s.g_malloc(sim, PAGE_SIZE * 2);
                assert_eq!(big.raw() % PAGE_SIZE, 0);
                assert!(big.raw() >= b.raw() + 16);
                // The next block starts past the whole two-page block.
                let next = s.g_malloc(sim, 16);
                assert!(next.raw() >= big.raw() + 2 * PAGE_SIZE);
                assert!(a.raw() >= HEAP_BASE.raw());
            })
            .unwrap();
    }

    #[test]
    fn local_write_then_read_roundtrips() {
        let (cluster, sys) = setup(1, 1, SvmConfig::base());
        let s = Arc::clone(&sys);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                let a = s.g_malloc(sim, 4096);
                s.write(sim, a + 8, 3.25f64);
                assert_eq!(s.read::<f64>(sim, a + 8), 3.25);
            })
            .unwrap();
    }

    #[test]
    fn create_round_robin_across_nodes() {
        let (cluster, sys) = setup(2, 2, SvmConfig::base());
        let s = Arc::clone(&sys);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                for _ in 0..3 {
                    let seen3 = Arc::clone(&seen2);
                    s.create(sim, move |cs| {
                        seen3.lock().unwrap().push(cs.node().0);
                    });
                }
                s.wait_for_end(sim);
            })
            .unwrap();
        let mut v = seen.lock().unwrap().clone();
        v.sort_unstable();
        // procs 1,2,3 on a 2-cpu/node cluster -> nodes 0,1,1
        assert_eq!(v, vec![0, 1, 1]);
    }

    #[test]
    fn wait_for_end_joins_all() {
        let (cluster, sys) = setup(2, 1, SvmConfig::base());
        let s = Arc::clone(&sys);
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                for _ in 0..4 {
                    let c3 = Arc::clone(&c2);
                    s.create(sim, move |cs| {
                        cs.advance(10_000);
                        c3.fetch_add(1, Ordering::SeqCst);
                    });
                }
                s.wait_for_end(sim);
                assert_eq!(c2.load(Ordering::SeqCst), 4);
            })
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "g_malloc of zero bytes")]
    fn zero_malloc_panics() {
        let (cluster, sys) = setup(1, 1, SvmConfig::base());
        let s = Arc::clone(&sys);
        let r = cluster.engine.clone().run(cluster.nodes()[0], move |sim| {
            s.g_malloc(sim, 0);
        });
        if let Err(e) = r {
            panic!("{e}");
        }
    }
}
