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

/// Cost constants of the protocol engine, in nanoseconds.
///
/// Calibrated once, to the paper's one platform (PentiumPro nodes on
/// Myrinet under WindowsNT), so the microbenchmarks of its Table 4 land in
/// the right regime; see `EXPERIMENTS.md` for measured-vs-paper values.
pub mod cost {
    /// Protocol handler work per page fault (on top of the OS fault cost).
    pub const FAULT_HANDLER_NS: u64 = 4_000;
    /// Fixed cost of producing a diff for one page at release (scan of the
    /// dirty map and message construction).
    pub const DIFF_BUILD_NS: u64 = 4_000;
    /// Applying one write notice at acquire (includes the protection
    /// change).
    pub const NOTICE_APPLY_NS: u64 = 1_000;
    /// Directory bookkeeping executed locally on a placement/migration.
    pub const PLACEMENT_BOOKKEEPING_NS: u64 = 30_000;
    /// Lock manager handler work per request.
    pub const LOCK_HANDLER_NS: u64 = 5_000;
    /// Local lock bookkeeping on acquire/release.
    pub const LOCK_LOCAL_NS: u64 = 2_000;
    /// Extra bookkeeping the first time a node acquires a given lock.
    pub const LOCK_FIRST_TIME_NS: u64 = 8_000;
    /// Barrier manager processing per participating node.
    pub const BARRIER_PER_NODE_NS: u64 = 8_000;
    /// Local cost charged per shared-memory access by the access check.
    pub const ACCESS_CHECK_NS: u64 = 15;
    /// OS cost of creating a thread locally.
    pub const OS_THREAD_CREATE_NS: u64 = 626_000;
    /// Library bookkeeping on thread creation (base system).
    pub const CREATE_BOOKKEEPING_NS: u64 = 30_000;

    // A fault always costs protocol work, and the OS half of a thread
    // creation dominates the library's bookkeeping.
    const _: () = assert!(FAULT_HANDLER_NS > 0 && OS_THREAD_CREATE_NS > CREATE_BOOKKEEPING_NS);
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
}

impl SvmConfig {
    /// Configuration of the original tuned SVM system (GeNIMA).
    pub fn base() -> Self {
        SvmConfig {
            mode: ProtoMode::Base,
            home_granularity_pages: 1,
            write_through_single_writer: true,
            batch_diffs: false,
        }
    }

    /// Configuration of the CableS memory subsystem on WindowsNT.
    pub fn cables() -> Self {
        SvmConfig {
            mode: ProtoMode::Cables,
            home_granularity_pages: 16,
            write_through_single_writer: false,
            batch_diffs: false,
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
}
