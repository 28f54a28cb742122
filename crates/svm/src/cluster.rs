//! The simulated cluster: engine + network + memory + communication layer.

use std::fmt;
use std::sync::{Arc, OnceLock};

use chaos::ChaosEngine;
use memsim::{ClusterMem, OsVmConfig, MAX_NODES};
use obs::{EdgeKind, Event, Layer, ObsSink, SchedKind};
use san::{San, SanConfig};
use sim::{Engine, NodeId, SchedEvent, SchedEventKind};
use vmmc::{Vmmc, VmmcConfig};

/// Hardware/OS description of the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Processors per node (the paper's nodes are 2-way SMPs).
    pub cpus_per_node: usize,
    /// SAN timing model.
    pub san: SanConfig,
    /// OS virtual-memory model.
    pub os: OsVmConfig,
    /// NIC registration limits.
    pub vmmc: VmmcConfig,
    /// Capacity of the observability event buffer (records beyond this
    /// are dropped-and-counted; metrics still aggregate them).
    pub obs_cap: usize,
}

impl ClusterConfig {
    /// The paper's platform: sixteen 2-way PentiumPro SMPs, Myrinet,
    /// WindowsNT (32 processors total).
    pub fn paper() -> Self {
        ClusterConfig {
            nodes: 16,
            cpus_per_node: 2,
            san: SanConfig::paper(),
            os: OsVmConfig::windows_nt(),
            vmmc: VmmcConfig::paper(),
            obs_cap: obs::DEFAULT_CAP,
        }
    }

    /// A convenient small cluster for tests.
    pub fn small(nodes: usize, cpus_per_node: usize) -> Self {
        ClusterConfig {
            nodes,
            cpus_per_node,
            ..ClusterConfig::paper()
        }
    }
}

/// All substrate layers of one simulated cluster, wired together.
pub struct Cluster {
    /// The discrete-event engine (topology + scheduler).
    pub engine: Engine,
    /// The SAN timing model.
    pub san: Arc<San>,
    /// Node physical memories and page tables.
    pub mem: Arc<ClusterMem>,
    /// The VMMC communication layer.
    pub vmmc: Arc<Vmmc>,
    /// The cluster-wide observability sink (disabled by default; every
    /// layer records into this one bus when it is enabled).
    pub obs: Arc<ObsSink>,
    chaos: OnceLock<Arc<ChaosEngine>>,
    nodes: Vec<NodeId>,
    cpus_per_node: usize,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("cpus_per_node", &self.cpus_per_node)
            .finish()
    }
}

impl Cluster {
    /// Builds a cluster: engine nodes, NICs and memories for every node.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes` is past [`MAX_NODES`].
    pub fn build(cfg: ClusterConfig) -> Arc<Cluster> {
        assert!(
            cfg.nodes <= MAX_NODES,
            "{} nodes is past MAX_NODES = {MAX_NODES}, the size of memsim's node table",
            cfg.nodes
        );
        let engine = Engine::new();
        let san = Arc::new(San::new(cfg.san));
        let mem = Arc::new(ClusterMem::new(cfg.os));
        let vmmc = Arc::new(Vmmc::new(cfg.vmmc, Arc::clone(&san), Arc::clone(&mem)));
        let obs = Arc::new(ObsSink::with_capacity(cfg.obs_cap));
        vmmc.set_obs(Arc::clone(&obs));
        // Forward engine scheduling points onto the bus. The hook runs
        // with the kernel lock held and only touches the sink, never the
        // engine; with the sink disabled it is a single relaxed load.
        let hook_sink = Arc::clone(&obs);
        engine.set_sched_hook(Some(Arc::new(move |e: &SchedEvent| {
            if !hook_sink.on() {
                return;
            }
            let kind = match e.kind {
                SchedEventKind::Spawn => SchedKind::Spawn,
                SchedEventKind::Exit => SchedKind::Exit,
                SchedEventKind::Block => SchedKind::Block,
                SchedEventKind::Wake => SchedKind::Wake,
            };
            hook_sink.instant(Layer::Sched, e.node, e.tid.0, e.at, Event::Sched { kind });
            // Spawn/Wake points with a recorded cause also produce a
            // causal edge so the critical-path walk can cross every
            // engine-level hand-off, not just the ones the runtime
            // layers annotate with typed edges. Zero-latency hand-offs
            // are skipped: the walk only follows strictly-forward edges.
            if let Some(c) = e.cause {
                if c.at < e.at {
                    let ek = match e.kind {
                        SchedEventKind::Spawn => EdgeKind::ThreadStart,
                        SchedEventKind::Wake => EdgeKind::Wakeup,
                        _ => return,
                    };
                    hook_sink.edge(ek, c.node, c.tid.0, c.at, e.node, e.tid.0, e.at, 0);
                }
            }
        })));
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for _ in 0..cfg.nodes {
            let id = engine.add_node(cfg.cpus_per_node);
            vmmc.ensure_node(id);
            nodes.push(id);
        }
        Arc::new(Cluster {
            engine,
            san,
            mem,
            vmmc,
            obs,
            chaos: OnceLock::new(),
            nodes,
            cpus_per_node: cfg.cpus_per_node,
        })
    }

    /// Attaches a deterministic fault-injection engine, forwarding it to
    /// every layer ([`Vmmc`] and, through it, [`San`]). Must be called
    /// before constructing the SVM/CableS runtimes on this cluster so
    /// every layer observes the same plan; later calls are ignored.
    pub fn set_chaos(&self, chaos: Arc<ChaosEngine>) {
        self.vmmc.set_chaos(Arc::clone(&chaos));
        let _ = self.chaos.set(chaos);
    }

    /// The attached chaos engine, if any (cheap: one atomic load).
    #[inline]
    pub fn chaos(&self) -> Option<&Arc<ChaosEngine>> {
        self.chaos.get()
    }

    /// The node ids, in order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Processors per node.
    pub fn cpus_per_node(&self) -> usize {
        self.cpus_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_paper_cluster() {
        let c = Cluster::build(ClusterConfig::paper());
        assert_eq!(c.nodes().len(), 16);
        assert_eq!(c.cpus_per_node(), 2);
        assert_eq!(c.engine.cpu_count(c.nodes()[0]), 2);
    }

    #[test]
    fn small_cluster_overrides_size() {
        let c = Cluster::build(ClusterConfig::small(2, 1));
        assert_eq!(c.nodes().len(), 2);
        assert_eq!(c.cpus_per_node(), 1);
    }

    #[test]
    #[should_panic(expected = "past MAX_NODES = 64")]
    fn build_past_the_node_cap_panics() {
        Cluster::build(ClusterConfig::small(MAX_NODES + 1, 1));
    }
}
