//! # cables-chaos — deterministic fault injection for the cluster stack
//!
//! A [`ChaosEngine`] evaluates a [`FaultPlan`] against every message,
//! NIC registration and node in the simulated cluster. Three properties
//! keep it faithful to the simulation:
//!
//! 1. **Deterministic.** All randomness comes from one [`DetRng`] seeded
//!    explicitly; decisions are drawn from engine-serialized simulated
//!    threads, so the same seed + the same plan reproduce a bit-identical
//!    run (asserted by `tests/chaos.rs`).
//! 2. **Zero-cost when empty.** With an empty plan (or no engine
//!    attached) every hook short-circuits before touching the RNG or any
//!    timing computation — simulated results and obs exports are
//!    bit-identical to a run without chaos.
//! 3. **Corruption-free wire faults.** Drops are modeled as a reliable
//!    transport over a lossy wire: a drop costs bounded retransmission
//!    timeouts, never data. Duplicates burn occupancy; reordering and
//!    jitter delay arrival. Completion-rate degradation comes from
//!    resource pressure and node faults, not silent corruption.
//!
//! The hooks live in `san` (wire faults), `vmmc` (resource pressure and
//! fetch retry), `svm` (registration recovery, crash checks) and
//! `cables` (crash monitor and node recovery); this crate only decides
//! *what* to inject and keeps the fault/recovery ledger.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod plan;

use std::sync::Arc;

use sim::{DetRng, IdMap, Local};

pub use plan::{FaultPlan, ResourceFaults, WireFaults};

/// Panic payload used to unwind a simulated thread that observed its own
/// node's crash. The CableS runtime catches exactly this payload at the
/// thread boundary and turns it into exit bookkeeping; any other panic
/// still propagates as a real error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashUnwind;

/// VMMC operation classes the resource-fault injector can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceOp {
    /// `export_region` — registering a new region with the NIC.
    Export,
    /// `import_region` — mapping a remote region.
    Import,
    /// `extend_region` — growing an exported region.
    Extend,
}

impl ResourceOp {
    /// Display name (used in obs events and reports).
    pub const fn name(self) -> &'static str {
        match self {
            ResourceOp::Export => "export",
            ResourceOp::Import => "import",
            ResourceOp::Extend => "extend",
        }
    }

    const fn index(self) -> u8 {
        match self {
            ResourceOp::Export => 0,
            ResourceOp::Import => 1,
            ResourceOp::Extend => 2,
        }
    }
}

/// The injected perturbation of one wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireOutcome {
    /// Total extra arrival latency, ns (jitter + reorder + retransmission
    /// timeouts).
    pub delay_ns: u64,
    /// Retransmissions performed by the reliable transport.
    pub retransmits: u32,
    /// Duplicate deliveries (extra receive occupancy).
    pub duplicates: u32,
}

impl WireOutcome {
    /// True when the message was perturbed at all.
    pub fn faulted(&self) -> bool {
        self.delay_ns > 0 || self.retransmits > 0 || self.duplicates > 0
    }
}

/// Counters and latency ledger of everything injected and recovered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosStats {
    /// Messages perturbed by wire faults.
    pub wire_faults: u64,
    /// Total retransmissions across all messages.
    pub retransmits: u64,
    /// Total duplicate deliveries.
    pub duplicates: u64,
    /// Total injected wire latency, ns.
    pub wire_delay_ns: u64,
    /// Injected transient NIC resource failures.
    pub resource_faults: u64,
    /// Bounded-backoff retries performed by the stack (vmmc fetch
    /// re-issues and svm registration retries).
    pub retries: u64,
    /// Imported regions evicted to free NIC resources.
    pub evictions: u64,
    /// Node crashes that took effect.
    pub crashes: u64,
    /// Completed crash recoveries.
    pub recoveries: u64,
    /// Latency of each completed recovery (crash time → node detached), ns.
    pub recovery_latency_ns: Vec<u64>,
}

impl ChaosStats {
    /// Minimum / average / maximum recovery latency, if any recovery ran.
    pub fn recovery_latency_summary(&self) -> Option<(u64, u64, u64)> {
        if self.recovery_latency_ns.is_empty() {
            return None;
        }
        let min = *self.recovery_latency_ns.iter().min().unwrap();
        let max = *self.recovery_latency_ns.iter().max().unwrap();
        let avg =
            self.recovery_latency_ns.iter().sum::<u64>() / self.recovery_latency_ns.len() as u64;
        Some((min, avg, max))
    }
}

/// The deterministic fault-injection engine: one per cluster, attached
/// via `Cluster::set_chaos`, consulted by every layer.
pub struct ChaosEngine {
    plan: FaultPlan,
    wire_armed: bool,
    resource_armed: bool,
    rng: Local<DetRng>,
    consec: Local<IdMap<(u32, u8), u32>>,
    stats: Local<ChaosStats>,
}

impl std::fmt::Debug for ChaosEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosEngine")
            .field("armed", &self.armed())
            .field("crashes", &self.plan.crashes)
            .finish()
    }
}

impl ChaosEngine {
    /// Creates an engine over `plan`, seeding the decision RNG.
    pub fn new(seed: u64, mut plan: FaultPlan) -> Arc<Self> {
        let wire_armed = plan.wire.as_ref().is_some_and(WireFaults::active);
        let resource_armed = plan.resources.as_ref().is_some_and(ResourceFaults::active);
        plan.crashes.sort_by_key(|&(node, at)| (at, node));
        Arc::new(ChaosEngine {
            plan,
            wire_armed,
            resource_armed,
            rng: Local::new(DetRng::new(seed)),
            consec: Local::default(),
            stats: Local::default(),
        })
    }

    /// The plan this engine evaluates.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when the plan injects anything at all (fast gate: hooks
    /// short-circuit on `false` before any other work).
    #[inline]
    pub fn armed(&self) -> bool {
        self.wire_armed || self.resource_armed || !self.plan.crashes.is_empty()
    }

    /// True when wire-level faults are armed.
    #[inline]
    pub fn wire_armed(&self) -> bool {
        self.wire_armed
    }

    /// True when NIC resource pressure is armed.
    #[inline]
    pub fn resource_armed(&self) -> bool {
        self.resource_armed
    }

    /// True when the plan contains node crashes.
    #[inline]
    pub fn crashes_armed(&self) -> bool {
        !self.plan.crashes.is_empty()
    }

    /// The planned crashes, sorted by time: `(node, at_ns)`.
    pub fn crash_times(&self) -> &[(u32, u64)] {
        &self.plan.crashes
    }

    /// Whether `node` has crashed by simulated time `now_ns`.
    #[inline]
    pub fn crashed(&self, node: u32, now_ns: u64) -> bool {
        if self.plan.crashes.is_empty() {
            return false;
        }
        self.plan
            .crashes
            .iter()
            .any(|&(n, at)| n == node && at <= now_ns)
    }

    /// The fabric's wire faults, when armed.
    fn wire(&self) -> Option<&WireFaults> {
        self.plan.wire.as_ref().filter(|_| self.wire_armed)
    }

    /// Evaluates wire faults for one message. When `include_drops` is
    /// false the drop/retransmission chain is skipped — used for VMMC
    /// fetches, whose drops are modeled as requester-side timeouts via
    /// [`ChaosEngine::fetch_retries`] instead.
    pub fn wire_outcome(&self, include_drops: bool) -> WireOutcome {
        let Some(wf) = self.wire() else {
            return WireOutcome::default();
        };
        let mut out = WireOutcome::default();
        {
            let mut rng = self.rng.lock();
            if wf.jitter_ns > 0 {
                out.delay_ns += rng.next_below(wf.jitter_ns + 1);
            }
            if wf.reorder_p > 0.0 && rng.next_f64() < wf.reorder_p {
                out.delay_ns += wf.reorder_delay_ns;
            }
            if wf.dup_p > 0.0 && rng.next_f64() < wf.dup_p {
                out.duplicates += 1;
            }
            if include_drops && wf.drop_p > 0.0 {
                while out.retransmits < wf.max_retransmits && rng.next_f64() < wf.drop_p {
                    out.retransmits += 1;
                }
                out.delay_ns += out.retransmits as u64 * wf.retransmit_timeout_ns;
            }
        }
        if out.faulted() {
            let mut s = self.stats.lock();
            s.wire_faults += 1;
            s.retransmits += out.retransmits as u64;
            s.duplicates += out.duplicates as u64;
            s.wire_delay_ns += out.delay_ns;
        }
        out
    }

    /// Draws the drop chain for one VMMC fetch: the number of timeouts
    /// the requester will suffer before the fetch succeeds, and the base
    /// timeout used for its exponential backoff.
    pub fn fetch_retries(&self) -> (u32, u64) {
        let Some(wf) = self.wire() else {
            return (0, 0);
        };
        if wf.drop_p <= 0.0 {
            return (0, wf.retransmit_timeout_ns);
        }
        let mut r = 0;
        {
            let mut rng = self.rng.lock();
            while r < wf.max_retransmits && rng.next_f64() < wf.drop_p {
                r += 1;
            }
        }
        if r > 0 {
            let mut s = self.stats.lock();
            s.wire_faults += 1;
            s.retransmits += r as u64;
        }
        (r, wf.retransmit_timeout_ns)
    }

    /// Decides whether to inject a transient failure into `op` on `node`.
    /// Bounded: at most `max_consecutive` injected failures in a row per
    /// `(node, op)`, so retry loops always make progress.
    pub fn resource_inject(&self, op: ResourceOp, node: u32) -> bool {
        if !self.resource_armed {
            return false;
        }
        let rf = self.plan.resources.as_ref().expect("resource_armed");
        let p = match op {
            ResourceOp::Export => rf.export_fail_p,
            ResourceOp::Import => rf.import_fail_p,
            ResourceOp::Extend => rf.extend_fail_p,
        };
        if p <= 0.0 {
            return false;
        }
        let hit = self.rng.lock().next_f64() < p;
        let key = (node, op.index());
        let mut consec = self.consec.lock();
        if !hit {
            consec.remove(&key);
            return false;
        }
        let c = consec.entry(key).or_insert(0);
        if *c >= rf.max_consecutive {
            consec.remove(&key);
            return false;
        }
        *c += 1;
        drop(consec);
        self.stats.lock().resource_faults += 1;
        true
    }

    /// Notes one bounded-backoff retry performed by the stack.
    pub fn note_retry(&self) {
        self.stats.lock().retries += 1;
    }

    /// Notes one imported-region eviction.
    pub fn note_eviction(&self) {
        self.stats.lock().evictions += 1;
    }

    /// Notes one crash taking effect.
    pub fn note_crash(&self) {
        self.stats.lock().crashes += 1;
    }

    /// Notes one completed crash recovery with its latency.
    pub fn note_recovery(&self, latency_ns: u64) {
        let mut s = self.stats.lock();
        s.recoveries += 1;
        s.recovery_latency_ns.push(latency_ns);
    }

    /// A snapshot of the fault/recovery ledger.
    pub fn stats(&self) -> ChaosStats {
        self.stats.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_draws_or_perturbs() {
        let ch = ChaosEngine::new(1, FaultPlan::new());
        assert!(!ch.armed());
        let out = ch.wire_outcome(true);
        assert_eq!(out, WireOutcome::default());
        assert!(!ch.resource_inject(ResourceOp::Export, 0));
        assert!(!ch.crashed(1, u64::MAX));
        // The RNG was never advanced: a fresh engine draws the same value.
        assert_eq!(
            ch.rng.lock().next_u64(),
            DetRng::new(1).next_u64(),
            "empty plan advanced the RNG"
        );
    }

    #[test]
    fn same_seed_same_plan_is_bit_identical() {
        let plan = FaultPlan::new().wire(WireFaults {
            drop_p: 0.3,
            dup_p: 0.2,
            reorder_p: 0.1,
            jitter_ns: 10_000,
            ..WireFaults::default()
        });
        let a = ChaosEngine::new(7, plan.clone());
        let b = ChaosEngine::new(7, plan);
        for _ in 0..200 {
            assert_eq!(a.wire_outcome(true), b.wire_outcome(true));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn drops_are_bounded() {
        let ch = ChaosEngine::new(
            3,
            FaultPlan::new().wire(WireFaults {
                drop_p: 1.0,
                max_retransmits: 3,
                retransmit_timeout_ns: 1_000,
                ..WireFaults::default()
            }),
        );
        let out = ch.wire_outcome(true);
        assert_eq!(out.retransmits, 3);
        assert_eq!(out.delay_ns, 3_000);
    }

    #[test]
    fn resource_faults_are_bounded_per_op() {
        let ch = ChaosEngine::new(
            5,
            FaultPlan::new().resources(ResourceFaults {
                export_fail_p: 1.0,
                max_consecutive: 2,
                ..ResourceFaults::default()
            }),
        );
        // p = 1.0: the first two injections hit, the third is forced
        // through so a bounded retry loop always completes.
        assert!(ch.resource_inject(ResourceOp::Export, 1));
        assert!(ch.resource_inject(ResourceOp::Export, 1));
        assert!(!ch.resource_inject(ResourceOp::Export, 1));
        // ... and the window re-arms afterwards.
        assert!(ch.resource_inject(ResourceOp::Export, 1));
        // Other ops are independent.
        assert!(!ch.resource_inject(ResourceOp::Import, 1));
    }

    #[test]
    fn crash_times_sorted_and_queryable() {
        let ch = ChaosEngine::new(1, FaultPlan::new().crash(3, 500).crash(1, 100));
        assert_eq!(ch.crash_times(), &[(1, 100), (3, 500)]);
        assert!(ch.crashed(1, 100));
        assert!(!ch.crashed(1, 99));
        assert!(!ch.crashed(2, u64::MAX));
    }

    #[test]
    fn recovery_ledger_summarizes() {
        let ch = ChaosEngine::new(1, FaultPlan::new().crash(1, 100));
        assert_eq!(ch.stats().recovery_latency_summary(), None);
        ch.note_crash();
        ch.note_recovery(10);
        ch.note_recovery(30);
        let s = ch.stats();
        assert_eq!(s.crashes, 1);
        assert_eq!(s.recoveries, 2);
        assert_eq!(s.recovery_latency_summary(), Some((10, 20, 30)));
    }
}
