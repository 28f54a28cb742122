//! The `FaultPlan` DSL: a declarative description of every fault the
//! chaos engine will inject into one run.
//!
//! A plan is data, not callbacks — the same plan plus the same seed
//! reproduces the exact same run bit-for-bit, because every random
//! decision is drawn from the simulation's deterministic RNG in an
//! engine-serialized order.

/// Wire-level fault rates, one set for the whole fabric.
///
/// Drops never lose data: the simulated NIC firmware is a reliable
/// transport over a lossy wire, so a dropped packet costs a bounded
/// number of retransmission timeouts (latency), not correctness.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFaults {
    /// Probability that one transmission attempt is dropped (each drop
    /// costs one retransmission timeout; bounded by `max_retransmits`).
    pub drop_p: f64,
    /// Probability a message is delivered twice (the duplicate burns
    /// receive occupancy and traffic, the payload is idempotent).
    pub dup_p: f64,
    /// Probability a message is reordered behind later traffic, delaying
    /// its arrival by `reorder_delay_ns`.
    pub reorder_p: f64,
    /// Extra arrival delay charged to reordered messages, ns.
    pub reorder_delay_ns: u64,
    /// Maximum uniform per-message latency jitter, ns (0 = none).
    pub jitter_ns: u64,
    /// Upper bound on retransmissions per message; after this many the
    /// transport delivers anyway (the wire is lossy, not severed).
    pub max_retransmits: u32,
    /// Sender timeout before each retransmission, ns.
    pub retransmit_timeout_ns: u64,
}

impl Default for WireFaults {
    fn default() -> Self {
        WireFaults {
            drop_p: 0.0,
            dup_p: 0.0,
            reorder_p: 0.0,
            reorder_delay_ns: 20_000,
            jitter_ns: 0,
            max_retransmits: 3,
            retransmit_timeout_ns: 50_000,
        }
    }
}

impl WireFaults {
    /// True when this spec can actually perturb a message.
    pub fn active(&self) -> bool {
        self.drop_p > 0.0 || self.dup_p > 0.0 || self.reorder_p > 0.0 || self.jitter_ns > 0
    }
}

/// NIC resource-exhaustion pressure: probabilities that one VMMC
/// registration-class operation transiently fails as if the NIC were out
/// of regions / registered bytes / pinned bytes.
///
/// Failures are *transient*: at most `max_consecutive` in a row per
/// `(node, operation)`, so any bounded retry loop is guaranteed to make
/// progress (the paper's §3.4 regime — degraded, not fatal).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceFaults {
    /// Failure probability of `export_region` (region registration).
    pub export_fail_p: f64,
    /// Failure probability of `import_region`.
    pub import_fail_p: f64,
    /// Failure probability of `extend_region`.
    pub extend_fail_p: f64,
    /// Cap on consecutive injected failures per `(node, op)`.
    pub max_consecutive: u32,
}

impl Default for ResourceFaults {
    fn default() -> Self {
        ResourceFaults {
            export_fail_p: 0.0,
            import_fail_p: 0.0,
            extend_fail_p: 0.0,
            max_consecutive: 2,
        }
    }
}

impl ResourceFaults {
    /// True when this spec can actually fail an operation.
    pub fn active(&self) -> bool {
        self.export_fail_p > 0.0 || self.import_fail_p > 0.0 || self.extend_fail_p > 0.0
    }
}

/// A complete fault-injection plan for one run.
///
/// # Examples
///
/// ```
/// use cables_chaos::{FaultPlan, WireFaults};
///
/// let plan = FaultPlan::new()
///     .wire(WireFaults { drop_p: 0.05, jitter_ns: 5_000, ..WireFaults::default() })
///     .crash(3, 2_000_000_000);
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::new().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Fabric-wide wire faults (every link).
    pub wire: Option<WireFaults>,
    /// NIC resource-exhaustion pressure.
    pub resources: Option<ResourceFaults>,
    /// Node crashes, `(node, at_ns)`: the node dies at `at_ns` simulated
    /// time, its threads are torn down, its locks released and the node
    /// detached from the application (never the master, node 0).
    pub crashes: Vec<(u32, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; the stack behaves exactly as if no
    /// chaos engine were attached).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the fabric-wide wire-fault rates.
    pub fn wire(mut self, wf: WireFaults) -> Self {
        self.wire = Some(wf);
        self
    }

    /// Sets the NIC resource-exhaustion pressure.
    pub fn resources(mut self, rf: ResourceFaults) -> Self {
        self.resources = Some(rf);
        self
    }

    /// Crashes `node` at `at_ns` simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `node` is 0: the master owns the application control
    /// block and cannot crash (as in the paper, the application's first
    /// node is its lifetime).
    pub fn crash(mut self, node: u32, at_ns: u64) -> Self {
        assert!(node != 0, "crash plans must not target the master (node 0)");
        self.crashes.push((node, at_ns));
        self
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        !self.wire.as_ref().is_some_and(WireFaults::active)
            && !self.resources.as_ref().is_some_and(ResourceFaults::active)
            && self.crashes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        // Inert specs (all-zero rates) keep the plan empty.
        let p = FaultPlan::new()
            .wire(WireFaults::default())
            .resources(ResourceFaults::default());
        assert!(p.is_empty());
    }

    #[test]
    fn any_active_fault_arms_the_plan() {
        assert!(!FaultPlan::new()
            .wire(WireFaults {
                drop_p: 0.1,
                ..WireFaults::default()
            })
            .is_empty());
        assert!(!FaultPlan::new()
            .resources(ResourceFaults {
                export_fail_p: 0.5,
                ..ResourceFaults::default()
            })
            .is_empty());
        assert!(!FaultPlan::new().crash(1, 1_000).is_empty());
    }

    #[test]
    #[should_panic(expected = "must not target the master")]
    fn master_crash_rejected() {
        let _ = FaultPlan::new().crash(0, 1_000);
    }
}
