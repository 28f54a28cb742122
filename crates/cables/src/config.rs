//! CableS runtime configuration and cost constants (paper Table 4).

use serde::{Deserialize, Serialize};
use svm::SvmConfig;

/// Cost constants of the CableS runtime layer, in nanoseconds.
///
/// Calibrated once, against the breakdowns of the paper's Table 4 (Local
/// CableS / Remote CableS / Local OS / Communication columns) on its one
/// platform; the `table4` bench prints measured vs paper values.
pub mod cost {
    /// Local library bookkeeping for a local thread create.
    pub const CREATE_LOCAL_NS: u64 = 140_000;
    /// Local library bookkeeping for a remote thread create.
    pub const CREATE_REMOTE_LOCAL_NS: u64 = 110_000;
    /// Remote-side library bookkeeping for a remote thread create.
    pub const CREATE_REMOTE_REMOTE_NS: u64 = 40_000;
    /// Remote OS thread creation.
    pub const OS_REMOTE_THREAD_CREATE_NS: u64 = 622_000;
    /// `pthread_join` bookkeeping.
    pub const JOIN_NS: u64 = 5_000;
    /// Thread-exit bookkeeping (ACB update, joiner wakeup).
    pub const EXIT_NS: u64 = 10_000;
    /// Master-side bookkeeping when attaching a node.
    pub const ATTACH_LOCAL_CABLES_NS: u64 = 1_000_000;
    /// Local OS work when attaching a node (process handshake).
    pub const ATTACH_LOCAL_OS_NS: u64 = 523_000_000;
    /// Remote OS process creation during attach.
    pub const ATTACH_REMOTE_OS_NS: u64 = 2_031_000_000;
    /// Remote-side CableS initialization during attach (fixed part).
    pub const ATTACH_REMOTE_CABLES_NS: u64 = 900_000_000;
    /// Additional attach cost per already-attached node (import/export
    /// link establishment, including waiting).
    pub const ATTACH_PER_NODE_NS: u64 = 110_000_000;
    /// Detaching an empty node.
    pub const DETACH_NS: u64 = 1_000_000;
    /// Extra mutex bookkeeping on top of the system lock (local part).
    pub const MUTEX_LOCAL_EXTRA_NS: u64 = 2_000;
    /// Extra mutex bookkeeping when ownership is not cached locally
    /// (remote ACB handler work).
    pub const MUTEX_REMOTE_EXTRA_NS: u64 = 35_000;
    /// Local processing of a condition wait.
    pub const COND_WAIT_LOCAL_NS: u64 = 5_000;
    /// Local processing of a condition signal.
    pub const COND_SIGNAL_LOCAL_NS: u64 = 14_000;
    /// Local processing of a condition broadcast.
    pub const COND_BROADCAST_LOCAL_NS: u64 = 7_000;
    /// OS event cost charged by signal/broadcast.
    pub const COND_OS_NS: u64 = 2_000;
    /// Waiter-side processing after a signal lands.
    pub const COND_WAKEUP_NS: u64 = 10_000;
    /// Local part of an administration request to the master.
    pub const ADMIN_LOCAL_NS: u64 = 2_000;
    /// Competitive-spinning bound: a waiter burns its processor for at
    /// most this long before blocking (Karlin et al., paper ref.\[22\]).
    pub const SPIN_BEFORE_BLOCK_NS: u64 = 100_000;
    /// `pthread_start` initialization on the master.
    pub const START_INIT_NS: u64 = 10_000_000;
    /// `pthread_end` teardown on the master.
    pub const END_TEARDOWN_NS: u64 = 5_000_000;
    /// `global_malloc`/`global_free` bookkeeping.
    pub const MALLOC_NS: u64 = 3_000;
    /// Dispatching work to an idle pooled thread (vs a full OS create).
    pub const POOL_DISPATCH_NS: u64 = 20_000;

    // Paper Table 4: attaching a node takes ~3690 ms.
    const _: () = {
        let total = ATTACH_LOCAL_OS_NS + ATTACH_REMOTE_OS_NS + ATTACH_REMOTE_CABLES_NS;
        assert!(total > 3_000_000_000 && total < 4_500_000_000);
    };
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
}

impl CablesConfig {
    /// The paper's configuration (WindowsNT 64 KB granularity, spin-then-
    /// block synchronization, round-robin placement).
    pub fn paper() -> Self {
        CablesConfig {
            svm: SvmConfig::cables(),
            max_threads_per_node: 0,
            auto_detach: false,
            thread_pool: false,
            affinity_placement: false,
            pre_attach: 0,
        }
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
}
