//! CableS runtime configuration and cost constants (paper Table 4).

use serde::{Deserialize, Serialize};
use svm::SvmConfig;

/// Cost constants of the CableS runtime layer, in nanoseconds.
///
/// Defaults are calibrated against the paper's Table 4 breakdowns (Local
/// CableS / Remote CableS / Local OS / Communication columns); the
/// `table4` bench prints measured vs paper values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CablesCosts {
    /// Local library bookkeeping for a local thread create.
    pub create_local_ns: u64,
    /// Local library bookkeeping for a remote thread create.
    pub create_remote_local_ns: u64,
    /// Remote-side library bookkeeping for a remote thread create.
    pub create_remote_remote_ns: u64,
    /// Remote OS thread creation.
    pub os_remote_thread_create_ns: u64,
    /// `pthread_join` bookkeeping.
    pub join_ns: u64,
    /// Thread-exit bookkeeping (ACB update, joiner wakeup).
    pub exit_ns: u64,
    /// Master-side bookkeeping when attaching a node.
    pub attach_local_cables_ns: u64,
    /// Local OS work when attaching a node (process handshake).
    pub attach_local_os_ns: u64,
    /// Remote OS process creation during attach.
    pub attach_remote_os_ns: u64,
    /// Remote-side CableS initialization during attach (fixed part).
    pub attach_remote_cables_ns: u64,
    /// Additional attach cost per already-attached node (import/export
    /// link establishment, including waiting).
    pub attach_per_node_ns: u64,
    /// Detaching an empty node.
    pub detach_ns: u64,
    /// Extra mutex bookkeeping on top of the system lock (local part).
    pub mutex_local_extra_ns: u64,
    /// Extra mutex bookkeeping when ownership is not cached locally
    /// (remote ACB handler work).
    pub mutex_remote_extra_ns: u64,
    /// Local processing of a condition wait.
    pub cond_wait_local_ns: u64,
    /// Local processing of a condition signal.
    pub cond_signal_local_ns: u64,
    /// Local processing of a condition broadcast.
    pub cond_broadcast_local_ns: u64,
    /// OS event cost charged by signal/broadcast.
    pub cond_os_ns: u64,
    /// Waiter-side processing after a signal lands.
    pub cond_wakeup_ns: u64,
    /// Local part of an administration request to the master.
    pub admin_local_ns: u64,
    /// Competitive-spinning bound: a waiter burns its processor for at
    /// most this long before blocking (Karlin et al., paper ref.\[22\]).
    pub spin_before_block_ns: u64,
    /// `pthread_start` initialization on the master.
    pub start_init_ns: u64,
    /// `pthread_end` teardown on the master.
    pub end_teardown_ns: u64,
    /// `global_malloc`/`global_free` bookkeeping.
    pub malloc_ns: u64,
    /// Dispatching work to an idle pooled thread (vs a full OS create).
    pub pool_dispatch_ns: u64,
}

impl Default for CablesCosts {
    fn default() -> Self {
        CablesCosts {
            create_local_ns: 140_000,
            create_remote_local_ns: 110_000,
            create_remote_remote_ns: 40_000,
            os_remote_thread_create_ns: 622_000,
            join_ns: 5_000,
            exit_ns: 10_000,
            attach_local_cables_ns: 1_000_000,
            attach_local_os_ns: 523_000_000,
            attach_remote_os_ns: 2_031_000_000,
            attach_remote_cables_ns: 900_000_000,
            attach_per_node_ns: 110_000_000,
            detach_ns: 1_000_000,
            mutex_local_extra_ns: 2_000,
            mutex_remote_extra_ns: 35_000,
            cond_wait_local_ns: 5_000,
            cond_signal_local_ns: 14_000,
            cond_broadcast_local_ns: 7_000,
            cond_os_ns: 2_000,
            cond_wakeup_ns: 10_000,
            admin_local_ns: 2_000,
            spin_before_block_ns: 100_000,
            start_init_ns: 10_000_000,
            end_teardown_ns: 5_000_000,
            malloc_ns: 3_000,
            pool_dispatch_ns: 20_000,
        }
    }
}

/// Full CableS runtime configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CablesConfig {
    /// Protocol configuration of the underlying SVM engine (must be
    /// [`svm::ProtoMode::Cables`] for the real system; ablations may
    /// override the granularity).
    pub svm: SvmConfig,
    /// Threads a node accepts before a new node is attached
    /// (`0` means "use the node's processor count").
    pub max_threads_per_node: usize,
    /// Detach a node automatically when its last thread exits.
    pub auto_detach: bool,
    /// Keep finished threads parked in a per-node pool and reuse them for
    /// later `pthread_create` calls (the optimization Table 4's creation
    /// costs motivate: a dispatch is ~40x cheaper than an OS create).
    pub thread_pool: bool,
    /// Sharing-aware thread placement: instead of pure round-robin, place
    /// a new thread on the attached node (with spare capacity) that has
    /// served the most demand fetches as a home — threads land next to the
    /// data the application is already pulling from that node. Both
    /// `pthread_create` spawns and pooled dispatches route through the
    /// same placement decision. Off reproduces the paper's round-robin.
    pub affinity_placement: bool,
    /// Nodes attached at `pthread_start` (clamped to the cluster size;
    /// the master counts). 0 — the default, the paper's behavior —
    /// attaches lazily as threads outgrow the attached set, which fills
    /// each node before touching the next. A warm long-running
    /// deployment has already paid the multi-second attach cost for its
    /// whole node set, and round-robin placement over a pre-attached set
    /// is what scatters consecutively created threads across nodes.
    pub pre_attach: usize,
    /// Cost constants.
    pub costs: CablesCosts,
}

impl Default for CablesConfig {
    fn default() -> Self {
        CablesConfig {
            svm: SvmConfig::cables(),
            max_threads_per_node: 0,
            auto_detach: false,
            thread_pool: false,
            affinity_placement: false,
            pre_attach: 0,
            costs: CablesCosts::default(),
        }
    }
}

impl CablesConfig {
    /// The paper's configuration (WindowsNT 64 KB granularity, spin-then-
    /// block synchronization, round-robin placement).
    pub fn paper() -> Self {
        CablesConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_uses_cables_protocol() {
        let c = CablesConfig::paper();
        assert_eq!(c.svm.mode, svm::ProtoMode::Cables);
        assert_eq!(c.svm.home_granularity_pages, 16);
        // The placement extensions are off: lazy attach, round-robin.
        assert_eq!(c.pre_attach, 0);
        assert!(!c.affinity_placement);
    }

    #[test]
    fn attach_costs_sum_to_seconds() {
        let c = CablesCosts::default();
        let total = c.attach_local_os_ns + c.attach_remote_os_ns + c.attach_remote_cables_ns;
        // Paper Table 4: attach node ~ 3690 ms.
        assert!(total > 3_000_000_000 && total < 4_500_000_000, "{total}");
    }
}
