//! Protocol configuration and cost constants.

use serde::{Deserialize, Serialize};

/// Which system the protocol engine is modelling.
///
/// The engine implements one home-based release-consistency protocol; the
/// two systems of the paper differ in home-placement granularity,
/// registration strategy and bookkeeping costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtoMode {
    /// The original tuned SVM system (GeNIMA): page-granular first-touch
    /// homes bound during initialization, per-run NIC registration,
    /// single-writer write-through optimization available.
    Base,
    /// CableS: dynamic placement through remapping, which WindowsNT limits
    /// to 64 KB granularity; home frames live in one per-node region
    /// (double virtual mapping), so registration pressure is constant.
    Cables,
}

/// Cost constants of the protocol engine (nanoseconds unless noted).
///
/// Calibrated so the microbenchmarks of the paper's Table 4 land in the
/// right regime; see `EXPERIMENTS.md` for measured-vs-paper values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmCosts {
    /// Protocol handler work per page fault (on top of the OS fault cost).
    pub fault_handler_ns: u64,
    /// Fixed cost of producing a diff for one page at release (scan of the
    /// dirty map and message construction).
    pub diff_build_ns: u64,
    /// Applying one write notice at acquire (includes the protection
    /// change).
    pub notice_apply_ns: u64,
    /// Directory bookkeeping executed locally on a placement/migration.
    pub placement_bookkeeping_ns: u64,
    /// Lock manager handler work per request.
    pub lock_handler_ns: u64,
    /// Local lock bookkeeping on acquire/release.
    pub lock_local_ns: u64,
    /// Extra bookkeeping the first time a node acquires a given lock.
    pub lock_first_time_ns: u64,
    /// Barrier manager processing per participating node.
    pub barrier_per_node_ns: u64,
    /// Local cost charged per shared-memory access by the access check.
    pub access_check_ns: u64,
    /// OS cost of creating a thread locally.
    pub os_thread_create_ns: u64,
    /// Library bookkeeping on thread creation (base system).
    pub create_bookkeeping_ns: u64,
}

impl Default for SvmCosts {
    fn default() -> Self {
        SvmCosts {
            fault_handler_ns: 4_000,
            diff_build_ns: 4_000,
            notice_apply_ns: 1_000,
            placement_bookkeeping_ns: 30_000,
            lock_handler_ns: 5_000,
            lock_local_ns: 2_000,
            lock_first_time_ns: 8_000,
            barrier_per_node_ns: 8_000,
            access_check_ns: 15,
            os_thread_create_ns: 626_000,
            create_bookkeeping_ns: 30_000,
        }
    }
}

/// Full protocol configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    /// Which system is being modelled.
    pub mode: ProtoMode,
    /// Home-placement granularity in pages (1 for [`ProtoMode::Base`],
    /// 16 — the NT 64 KB chunk — for [`ProtoMode::Cables`]).
    pub home_granularity_pages: u64,
    /// Enable the base system's single-writer write-through optimization
    /// (paper §3.4, responsible for the OCEAN gap).
    pub write_through_single_writer: bool,
    /// Release-time diff batching: ship all diffs bound for the same home
    /// as one multi-segment VMMC write (one message header and one fence
    /// contribution per home instead of per page), merging runs that are
    /// adjacent across page boundaries within a chunk. Value-preserving;
    /// changes message counts and simulated time only. Off reproduces the
    /// per-page protocol exactly.
    pub batch_diffs: bool,
    /// Cost constants.
    pub costs: SvmCosts,
}

impl SvmConfig {
    /// Configuration of the original tuned SVM system (GeNIMA).
    pub fn base() -> Self {
        SvmConfig {
            mode: ProtoMode::Base,
            home_granularity_pages: 1,
            write_through_single_writer: true,
            batch_diffs: false,
            costs: SvmCosts::default(),
        }
    }

    /// Configuration of the CableS memory subsystem on WindowsNT.
    pub fn cables() -> Self {
        SvmConfig {
            mode: ProtoMode::Cables,
            home_granularity_pages: 16,
            write_through_single_writer: false,
            batch_diffs: false,
            costs: SvmCosts::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_the_paper_says() {
        let b = SvmConfig::base();
        let c = SvmConfig::cables();
        assert_eq!(b.home_granularity_pages, 1);
        assert_eq!(c.home_granularity_pages, 16);
        assert!(b.write_through_single_writer);
        assert!(!c.write_through_single_writer);
    }

    #[test]
    fn protocol_opts_default_off_in_both_presets() {
        for cfg in [SvmConfig::base(), SvmConfig::cables()] {
            assert!(!cfg.batch_diffs);
        }
    }

    #[test]
    fn default_costs_are_positive() {
        let c = SvmCosts::default();
        assert!(c.fault_handler_ns > 0);
        assert!(c.os_thread_create_ns > c.create_bookkeeping_ns);
    }
}
