//! The home-based release-consistency memory protocol.
//!
//! One engine implements both systems of the paper:
//!
//! - **Base (GeNIMA)**: first-touch homes bound at page (4 KB) granularity;
//!   contiguous same-home pages are registered as runs, so irregular
//!   placement consumes NIC region entries (which is what keeps OCEAN from
//!   running on 32 processors in the paper).
//! - **CableS**: homes bound by remapping home frames into the application
//!   address space, which WindowsNT only allows at 64 KB granularity — the
//!   first toucher of any page in a chunk becomes home of the *whole*
//!   chunk. Home frames extend one contiguous per-node region (the double
//!   virtual mapping), so NIC registration pressure stays constant.
//!
//! Consistency: writers track dirty words per page (the software-MMU
//! analogue of twin/diff); at a release the dirty words are remote-written
//! to the home and a write notice `(page, version)` is appended to the
//! global interval log; at an acquire a node applies all notices it has
//! not yet seen, invalidating stale copies. This is slightly *eager*
//! compared to lazy release consistency (notices propagate on every
//! acquire, not just along happens-before chains), which is conservative:
//! data-race-free programs see identical values and at worst extra
//! invalidations.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use chaos::ChaosEngine;
use memsim::{FaultKind, GAddr, PageNum, Prot, Scalar, PAGE_SIZE};
use sim::{NodeId, Scope, Sim, SimTime, Tid};
use vmmc::{RegionId, VmmcError};

use crate::api::SvmSystem;
use crate::config::{PlacementPolicy, ProtoMode};
use crate::sync::WaitQueue;

pub(crate) const WORDS_PER_PAGE: usize = (PAGE_SIZE / 8) as usize;
pub(crate) const BITMAP_WORDS: usize = WORDS_PER_PAGE / 64;

/// Base of the heap portion of the shared virtual address space.
pub const HEAP_BASE: GAddr = GAddr::new(0x4000_0000);
/// Base of the GLOBAL static-data section (maps the paper's
/// `GLOBAL_DATA` executable section).
pub const GLOBAL_SECTION_BASE: GAddr = GAddr::new(0x1000_0000);
/// Size of the GLOBAL static-data section.
pub const GLOBAL_SECTION_BYTES: u64 = 4 << 20;

#[derive(Debug)]
pub(crate) struct PageDir {
    pub home: NodeId,
    pub version: u64,
    pub region: RegionId,
    pub region_off: u64,
    pub first_writer: Option<NodeId>,
    pub multi_writer: bool,
    /// Demand fetches served for this page; the lock-forwarding hotness
    /// signal (kept in the protocol directory, not the obs sharing table,
    /// so behaviour never depends on whether observability is enabled).
    pub hot: u32,
}

#[derive(Debug)]
pub(crate) struct CopyState {
    pub version: u64,
    /// Dirty 8-byte-word bitmap; present iff the page is locally writable.
    pub dirty: Option<Box<[u64; BITMAP_WORDS]>>,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
/// Per-node protocol event counters.
pub struct NodeStats {
    /// Read faults taken.
    pub read_faults: u64,
    /// Write faults taken.
    pub write_faults: u64,
    /// Whole-page fetches from remote homes.
    pub remote_fetches: u64,
    /// Bytes fetched from remote homes.
    pub fetch_bytes: u64,
    /// Diffs sent to remote homes at releases.
    pub diffs_sent: u64,
    /// Diff payload bytes sent.
    pub diff_bytes: u64,
    /// Write notices applied at acquires.
    pub notices_applied: u64,
    /// Placements performed (chunks homed here).
    pub placements: u64,
    /// Chunks migrated to this node by the migration policy.
    pub migrations: u64,
    /// Lock acquires by threads of this node.
    pub lock_acquires: u64,
    /// Barrier episodes joined by threads of this node.
    pub barrier_waits: u64,
    /// Batched release diffs shipped (one per home per release with diff
    /// batching on; always zero with it off).
    pub diff_batches: u64,
    /// Payload bytes that travelled inside batched diffs.
    pub batched_diff_bytes: u64,
    /// Pages fetched ahead of demand by the stride prefetcher.
    pub prefetch_issued: u64,
    /// Prefetched pages later consumed by a local fault (a fault that
    /// needed no new message).
    pub prefetch_hits: u64,
    /// Prefetched pages invalidated by acquire-time notices before use.
    pub prefetch_wasted: u64,
    /// Lock grants that carried forwarded page contents (one per home per
    /// grant).
    pub lock_forwards: u64,
    /// Page-content bytes refreshed by lock-data forwarding.
    pub lock_forward_bytes: u64,
    /// Ping-pong handoffs this node completed: remote fetch/diff messages
    /// on a chunk whose previous remote toucher was a different node (the
    /// false-sharing smell, charged to the node whose touch completed the
    /// handoff). Counted only while the counter placement policy is on.
    pub pingpong_handoffs: u64,
    /// Release-time migration decisions the counter policy evaluated for
    /// chunks homed remotely from this node.
    pub policy_considered: u64,
    /// Migrations the placement policy triggered to this node.
    pub policy_migrations: u64,
}

#[derive(Debug, Default)]
pub(crate) struct NodeProto {
    pub copies: HashMap<u64, CopyState>,
    pub dirty_pages: Vec<u64>,
    pub seg_cache: HashMap<u64, ()>,
    pub imported: HashMap<u64, ()>,
    pub log_cursor: usize,
    /// Stride detectors over this node's demand-fault stream, one per
    /// faulting thread — two CPUs interleaving sequential scans would
    /// otherwise shred each other's runs:
    /// `tid → (last demand page, stride in pages, same-stride streak)`.
    pub stride: HashMap<u64, (u64, i64, u32)>,
    /// Pages installed by the prefetcher and not yet consumed or
    /// invalidated, with the simulated time their bytes finish streaming
    /// in (cut-through delivery: a consumer faulting earlier must wait
    /// out the remainder).
    pub prefetched: HashMap<u64, SimTime>,
    pub stats: NodeStats,
}

#[derive(Debug)]
pub(crate) struct LockState {
    pub manager: NodeId,
    pub holder: Option<Tid>,
    pub holder_node: Option<NodeId>,
    pub waiters: WaitQueue,
    pub acquired_from: HashMap<u32, ()>,
}

#[derive(Debug, Default)]
pub(crate) struct BarrierState {
    pub count: usize,
    pub waiters: WaitQueue,
    pub max_arrival: SimTime,
    /// Membership of the current episode, recorded on every arrival so a
    /// crash recovery can release the barrier when the survivors plus the
    /// crashed-thread discount cover it.
    pub expected: usize,
}

/// Per-chunk sharing counters backing the placement policy: the
/// `obs::sharing` taxonomy (per-node traffic, ping-pong handoffs)
/// maintained incrementally in the protocol, so the policy works with
/// observability off. Only populated while `SvmConfig::placement_policy`
/// is set; the map is indexed, never iterated, so decisions stay
/// deterministic.
#[derive(Debug)]
pub(crate) struct ChunkSharing {
    /// Remote fetch+diff messages per node since the last (re)homing.
    pub traffic: Vec<u32>,
    /// Last remote node to touch the chunk (ping-pong detector).
    pub last_node: Option<NodeId>,
    /// Release-time considerations since the last migration; starts
    /// saturated so a fresh chunk is never in cooldown.
    pub cooldown: u32,
}

impl ChunkSharing {
    fn new(nodes: usize) -> Self {
        ChunkSharing {
            traffic: vec![0; nodes],
            last_node: None,
            cooldown: u32::MAX,
        }
    }
}

#[derive(Debug)]
pub(crate) struct ProtoState {
    pub dir: HashMap<u64, PageDir>,
    pub nodes: Vec<NodeProto>,
    /// Global interval log of write notices `(page, version)`.
    pub log: Vec<(u64, u64)>,
    /// CableS mode: the single growing home region per node, with its
    /// current length in bytes.
    pub home_region: Vec<Option<(RegionId, u64)>>,
    pub first_toucher: HashMap<u64, NodeId>,
    /// Placement-policy state: chunk -> incremental sharing counters.
    pub chunk_sharing: HashMap<u64, ChunkSharing>,
    /// Demand fetches each node has served as home — the thread-affinity
    /// placement hint (maintained unconditionally; one add per remote
    /// fetch, never branched on by the protocol itself).
    pub home_pull: Vec<u64>,
    pub alloc_next: u64,
    pub alloc_ranges: Vec<(u64, u64)>,
    pub locks: HashMap<u64, LockState>,
    pub barriers: HashMap<u64, BarrierState>,
    pub next_proc: usize,
    pub created: Vec<Tid>,
}

impl ProtoState {
    pub fn new(nodes: usize) -> Self {
        ProtoState {
            dir: HashMap::new(),
            nodes: (0..nodes).map(|_| NodeProto::default()).collect(),
            log: Vec::new(),
            home_region: vec![None; nodes],
            first_toucher: HashMap::new(),
            chunk_sharing: HashMap::new(),
            home_pull: vec![0; nodes],
            alloc_next: HEAP_BASE.raw(),
            alloc_ranges: Vec::new(),
            locks: HashMap::new(),
            barriers: HashMap::new(),
            next_proc: 1,
            created: Vec::new(),
        }
    }

    /// Starts dirty-word tracking on `node`'s copy of `page_idx` (a write
    /// access is being granted) and records the writer in the directory.
    fn start_write_tracking(&mut self, node: NodeId, page_idx: u64) {
        let np = &mut self.nodes[node.0 as usize];
        let copy = np.copies.entry(page_idx).or_insert(CopyState {
            version: 0,
            dirty: None,
        });
        if copy.dirty.is_none() {
            copy.dirty = Some(Box::new([0; BITMAP_WORDS]));
            np.dirty_pages.push(page_idx);
        }
        let d = self.dir.get_mut(&page_idx).expect("dir entry");
        match d.first_writer {
            None => d.first_writer = Some(node),
            Some(w) if w != node => d.multi_writer = true,
            _ => {}
        }
    }

    /// Charges one remote fetch/diff message from `node` to `chunk`'s
    /// sharing counters (the placement policy's feed; callers gate on the
    /// policy being enabled). A touch whose node differs from the previous
    /// toucher is a ping-pong handoff, charged to the toucher's stats.
    pub fn note_chunk_traffic(&mut self, node: NodeId, chunk: u64) {
        let nodes = self.nodes.len();
        let cs = self
            .chunk_sharing
            .entry(chunk)
            .or_insert_with(|| ChunkSharing::new(nodes));
        let i = node.0 as usize;
        if i >= cs.traffic.len() {
            cs.traffic.resize(i + 1, 0);
        }
        cs.traffic[i] = cs.traffic[i].saturating_add(1);
        if cs.last_node.is_some_and(|prev| prev != node) {
            self.nodes[i].stats.pingpong_handoffs += 1;
        }
        cs.last_node = Some(node);
    }
}

/// Per-home diff batches of one release, keyed `(home, region)`: the
/// `(region offset, bytes)` segments queued so far, the pages they came
/// from, and when the first segment was posted.
type DiffBatches = BTreeMap<(u32, u64), (Vec<(u64, Vec<u8>)>, u64, SimTime)>;

/// Typed failure of a NIC registration-class protocol operation.
///
/// Without a chaos engine attached these surface as panics with the same
/// text the original implementation used (the paper's §3.4 failure mode:
/// the base system cannot run OCEAN on 32 processors; the bench harness
/// reports such runs as failed). With chaos armed the protocol first runs
/// a bounded deregister-and-retry recovery — evicting cold imported
/// regions to free NIC resources — and only surfaces
/// [`ProtoError::Exhausted`] when the failure persists through every
/// attempt (genuine, not injected, exhaustion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The underlying VMMC operation failed and no recovery was armed.
    Vmmc {
        /// Which protocol step failed (doubles as the legacy panic text).
        what: &'static str,
        /// The VMMC failure.
        source: VmmcError,
    },
    /// Recovery ran out of attempts.
    Exhausted {
        /// Which protocol step failed.
        what: &'static str,
        /// Recovery attempts performed.
        attempts: u32,
        /// The last VMMC failure observed.
        last: VmmcError,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Vmmc { what, source } => write!(f, "{what}: {source}"),
            ProtoError::Exhausted {
                what,
                attempts,
                last,
            } => write!(
                f,
                "{what}: still failing after {attempts} recovery attempts: {last}"
            ),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Vmmc { source, .. } => Some(source),
            ProtoError::Exhausted { last, .. } => Some(last),
        }
    }
}

/// Bounded attempts of the registration-recovery loop.
pub(crate) const REG_RETRY_ATTEMPTS: u32 = 6;
/// Base backoff of the registration-recovery loop, ns (doubles per try).
pub(crate) const REG_RETRY_BASE_NS: u64 = 20_000;

/// Placement quality of a finished run (paper Fig. 6).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PlacementReport {
    /// Shared pages that were touched during the run.
    pub touched_pages: u64,
    /// Pages whose home is not their first toucher (misplaced).
    pub misplaced_pages: u64,
}

impl PlacementReport {
    /// Misplaced pages as a percentage of touched pages.
    pub fn misplaced_pct(&self) -> f64 {
        if self.touched_pages == 0 {
            0.0
        } else {
            self.misplaced_pages as f64 * 100.0 / self.touched_pages as f64
        }
    }
}

impl SvmSystem {
    /// Handles a simulated page fault: placement on first touch, page
    /// fetch from a remote home, or a write upgrade.
    ///
    /// # Panics
    ///
    /// Panics if a NIC registration limit is exceeded — this mirrors the
    /// paper's base system failing to run OCEAN on 32 processors; the
    /// benchmark harness reports such runs as failed.
    pub(crate) fn handle_fault(&self, sim: &Sim, page: PageNum, kind: FaultKind) {
        let node = sim.node();
        let t0 = sim.now();
        // Advance the streaming-series clock at fault entry (no-op unless
        // a series is running; recording charges no simulated time).
        if let Some(o) = self.obs_if_on() {
            o.series_tick(t0);
        }
        // Declared footprint of the fault: the faulting node, the page's
        // home and the directory master. A page without a home yet goes
        // through placement, which updates the global first-touch
        // directory — conservatively everything. The peek races ahead of
        // the ordering point, but scopes are telemetry/audit only and this
        // one always covers the executing node (see `sim::Scope`).
        let scope = {
            let st = self.state.lock();
            match st.dir.get(&page.index()).map(|d| d.home) {
                Some(h) => Scope::node(node).with(h).with(self.master),
                None => Scope::ALL,
            }
        };
        // OS fault entry + protocol handler, ordered against other ops.
        sim.advance(self.cluster.mem.config().fault_overhead_ns);
        sim.op_point_scoped(self.cfg.costs.fault_handler_ns, scope);

        // First-touch attribution happens at fault order (the paper's
        // placement policy binds on the touch, not on handler completion).
        {
            let mut st = self.state.lock();
            st.first_toucher.entry(page.index()).or_insert(node);
        }

        // Another thread of this node may have serviced the same fault
        // while we waited at the ordering point; if the page is already
        // accessible, re-fetching would clobber its locally dirty words.
        if let Some((_, prot)) = self.cluster.mem.translate(node, page) {
            let satisfied = match kind {
                FaultKind::Read => prot != Prot::None,
                FaultKind::Write => prot == Prot::ReadWrite,
            };
            if satisfied {
                return;
            }
        }

        {
            let mut st = self.state.lock();
            match kind {
                FaultKind::Read => st.nodes[node.0 as usize].stats.read_faults += 1,
                FaultKind::Write => st.nodes[node.0 as usize].stats.write_faults += 1,
            }
        }
        self.proto_instant(
            sim,
            obs::Event::Fault {
                page: page.index(),
                write: kind == FaultKind::Write,
            },
        );

        self.owner_detect(sim, page);

        let home = {
            let st = self.state.lock();
            st.dir.get(&page.index()).map(|d| d.home)
        };
        match home {
            None => self.place_chunk(sim, page, kind),
            Some(h) if h == node => self.home_upgrade(sim, page, kind),
            Some(h) => self.fetch_page(sim, page, h, kind),
        }
        if let Some(o) = self.obs_if_on() {
            o.span(
                obs::Layer::Proto,
                node,
                sim.tid().0,
                t0,
                sim.now().saturating_since(t0),
                obs::Event::FaultSpan {
                    page: page.index(),
                    write: kind == FaultKind::Write,
                },
            );
        }
    }

    /// The attached chaos engine, when it can inject anything at all.
    #[inline]
    pub(crate) fn chaos_armed(&self) -> Option<&ChaosEngine> {
        match self.cluster.chaos() {
            Some(c) if c.armed() => Some(c),
            _ => None,
        }
    }

    /// Evicts one cold imported region from `node`'s NIC to free a
    /// registration slot (never `protect`, which the caller is using).
    /// The victim is the lowest-numbered import so replay is
    /// deterministic. Returns whether a victim existed.
    fn evict_one_import(
        &self,
        sim: &Sim,
        node: NodeId,
        protect: Option<RegionId>,
        ch: &ChaosEngine,
    ) -> bool {
        let victim = {
            let st = self.state.lock();
            st.nodes[node.0 as usize]
                .imported
                .keys()
                .copied()
                .filter(|r| Some(*r) != protect.map(|p| p.0))
                .min()
        };
        let Some(victim) = victim else {
            return false;
        };
        {
            let mut st = self.state.lock();
            st.nodes[node.0 as usize].imported.remove(&victim);
        }
        // The lazy-import paths re-import on the next touch, so dropping
        // a cold import costs latency, never data.
        let _ = self.cluster.vmmc.unimport_region(node, RegionId(victim));
        ch.note_eviction();
        if let Some(o) = self.obs_if_on() {
            o.instant(
                obs::Layer::Chaos,
                node,
                sim.tid().0,
                sim.now(),
                obs::Event::ChaosEvict { region: victim },
            );
        }
        true
    }

    /// Runs a registration-class VMMC operation with recovery.
    ///
    /// Without chaos the operation runs exactly once and a failure is the
    /// caller's to surface (legacy §3.4 semantics). With chaos armed the
    /// operation is retried with exponential backoff, evicting one cold
    /// import per retry after the first, so transient (injected) NIC
    /// pressure degrades the run instead of killing it.
    fn reg_op<T>(
        &self,
        sim: &Sim,
        node: NodeId,
        what: &'static str,
        protect: Option<RegionId>,
        mut f: impl FnMut() -> Result<T, VmmcError>,
    ) -> Result<T, ProtoError> {
        let first = match f() {
            Ok(v) => return Ok(v),
            Err(e) => e,
        };
        let Some(ch) = self.chaos_armed() else {
            return Err(ProtoError::Vmmc {
                what,
                source: first,
            });
        };
        let t_fail = sim.now();
        if let Some(o) = self.obs_if_on() {
            o.instant(
                obs::Layer::Chaos,
                node,
                sim.tid().0,
                t_fail,
                obs::Event::ChaosResourceFault { op: what },
            );
        }
        let mut last = first;
        for attempt in 1..=REG_RETRY_ATTEMPTS {
            let backoff = REG_RETRY_BASE_NS << (attempt - 1);
            if let Some(o) = self.obs_if_on() {
                o.span(
                    obs::Layer::Chaos,
                    node,
                    sim.tid().0,
                    sim.now(),
                    backoff,
                    obs::Event::ChaosRetry {
                        attempt: attempt as u64,
                        backoff_ns: backoff,
                    },
                );
            }
            ch.note_retry();
            sim.advance(backoff);
            if attempt > 1 {
                self.evict_one_import(sim, node, protect, ch);
            }
            match f() {
                Ok(v) => {
                    if let Some(o) = self.obs_if_on() {
                        o.edge(
                            obs::EdgeKind::Recovery,
                            node,
                            sim.tid().0,
                            t_fail,
                            node,
                            sim.tid().0,
                            sim.now(),
                            attempt as u64,
                        );
                    }
                    return Ok(v);
                }
                Err(e) => last = e,
            }
        }
        Err(ProtoError::Exhausted {
            what,
            attempts: REG_RETRY_ATTEMPTS,
            last,
        })
    }

    /// Makes sure `region` is imported into `node`'s NIC before a remote
    /// operation on it: a no-op once the bookkeeping has seen the region,
    /// unless `force` says the NIC disagrees (the import was evicted).
    fn ensure_imported(
        &self,
        sim: &Sim,
        node: NodeId,
        what: &'static str,
        region: RegionId,
        force: bool,
    ) -> Result<(), ProtoError> {
        let fresh = {
            let mut st = self.state.lock();
            st.nodes[node.0 as usize]
                .imported
                .insert(region.0, ())
                .is_none()
        };
        if fresh || force {
            self.reg_op(sim, node, what, Some(region), || {
                self.cluster.vmmc.import_region(node, region)
            })?;
            sim.advance(self.cluster.vmmc.config().import_op_ns);
        }
        Ok(())
    }

    /// Runs a remote operation on `region` so that it survives a
    /// concurrently evicted import: with chaos armed, `NotImported`
    /// re-imports (itself recovered) and retries; everything else is a
    /// protocol invariant violation. `op` is re-evaluated per attempt —
    /// reads are idempotent, and a batch either applies completely or, on
    /// `NotImported`, not at all, so a retry never double-applies a prefix
    /// and a replay sees exactly one wire outcome per attempt.
    fn with_reimport<T>(
        &self,
        sim: &Sim,
        node: NodeId,
        what: &'static str,
        region: RegionId,
        mut op: impl FnMut() -> Result<T, VmmcError>,
    ) -> Result<T, ProtoError> {
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(VmmcError::NotImported { .. }) if self.chaos_armed().is_some() => {
                    self.ensure_imported(sim, node, what, region, true)?;
                }
                Err(e) => return Err(ProtoError::Vmmc { what, source: e }),
            }
        }
    }

    /// Records a protocol instant on the calling thread's lane.
    fn proto_instant(&self, sim: &Sim, event: obs::Event) {
        if let Some(o) = self.obs_if_on() {
            o.instant(obs::Layer::Proto, sim.node(), sim.tid().0, sim.now(), event);
        }
    }

    /// Directory lookup with per-node caching ("segment owner detect").
    fn owner_detect(&self, sim: &Sim, page: PageNum) {
        let node = sim.node();
        // In the base system placement is static and broadcast at
        // registration time, so lookups are always local.
        if self.cfg.mode == ProtoMode::Base {
            sim.advance(1_000);
            return;
        }
        let chunk = page.chunk(self.cfg.home_granularity_pages);
        let mut st = self.state.lock();
        if st.nodes[node.0 as usize]
            .seg_cache
            .insert(chunk, ())
            .is_none()
        {
            // First lookup of this segment's entry.
            drop(st);
            if node == self.master {
                sim.advance(1_000);
            } else {
                // Fetch the directory entry from the master (ACB owner).
                let done = self
                    .cluster
                    .san
                    .fetch(node, self.master, 32, sim.now());
                sim.clock_at_least(done);
                sim.advance(1_000);
            }
        } else {
            sim.advance(1_000);
        }
    }

    /// First touch: the faulting node becomes home of the whole placement
    /// chunk (1 page for base, 16 pages / 64 KB for CableS-on-NT).
    fn place_chunk(&self, sim: &Sim, page: PageNum, kind: FaultKind) {
        let node = sim.node();
        let gran = self.cfg.home_granularity_pages;
        let base = page.chunk_base(gran);
        let os = self.cluster.mem.config().clone();

        // Allocate home frames. Invariant: reachable only on genuine
        // physical-frame exhaustion (the workloads are sized within node
        // memory and chaos never injects here), so this stays fatal.
        let mut frames = Vec::with_capacity(gran as usize);
        for _ in 0..gran {
            let f = self
                .cluster
                .mem
                .alloc_frame(node)
                .unwrap_or_else(|e| panic!("home frame allocation failed: {e}"));
            frames.push(f);
        }
        sim.advance(os.frame_alloc_ns * gran);

        // Register with the NIC.
        let mut register_cost = self.cluster.vmmc.config().register_op_ns;
        let mut new_region = None;
        let (region, base_off) = match self.cfg.mode {
            ProtoMode::Cables => {
                // Double virtual mapping: extend the node's single home
                // region, keeping one NIC registration.
                let st = self.state.lock();
                let entry = st.home_region[node.0 as usize];
                drop(st);
                let (region, off) = match entry {
                    Some((r, len)) => {
                        self.reg_op(sim, node, "home region extension failed", Some(r), || {
                            self.cluster.vmmc.extend_region(r, frames.clone())
                        })
                        .unwrap_or_else(|e| panic!("{e}"));
                        register_cost = self.cluster.vmmc.config().extend_op_ns;
                        (r, len)
                    }
                    None => {
                        let r = self
                            .reg_op(sim, node, "home region export failed", None, || {
                                self.cluster.vmmc.export_region(node, frames.clone())
                            })
                            .unwrap_or_else(|e| panic!("{e}"));
                        (r, 0)
                    }
                };
                let mut st = self.state.lock();
                st.home_region[node.0 as usize] =
                    Some((region, off + gran * PAGE_SIZE));
                (region, off)
            }
            ProtoMode::Base => {
                // Per-run registration: extend the run ending at page-1 if
                // it has the same home, else start a new region.
                let prev = {
                    let st = self.state.lock();
                    st.dir.get(&(base.index().wrapping_sub(1))).map(|d| {
                        (d.home, d.region, d.region_off)
                    })
                };
                match prev {
                    Some((h, r, off))
                        if h == node
                            && self
                                .cluster
                                .vmmc
                                .region_pages(r)
                                .map(|p| (p as u64 - 1) * PAGE_SIZE == off)
                                .unwrap_or(false) =>
                    {
                        self.reg_op(sim, node, "run extension failed", Some(r), || {
                            self.cluster.vmmc.extend_region(r, frames.clone())
                        })
                        .unwrap_or_else(|e| panic!("{e}"));
                        register_cost = self.cluster.vmmc.config().extend_op_ns;
                        (r, off + PAGE_SIZE)
                    }
                    _ => {
                        let r = self
                            .reg_op(
                                sim,
                                node,
                                "registration failed (paper §3.4 OCEAN regime)",
                                None,
                                || self.cluster.vmmc.export_region(node, frames.clone()),
                            )
                            .unwrap_or_else(|e| panic!("{e}"));
                        new_region = Some(r);
                        (r, 0)
                    }
                }
            }
        };
        sim.advance(register_cost);

        // In the base system every other node registers each newly
        // exported region with its NIC at creation time (paper §2.1.3:
        // "Every other node in the system registers the newly allocated
        // virtual memory region with the NIC") — this is what exhausts
        // NIC region entries on irregular placements (OCEAN, §3.4).
        if let (ProtoMode::Base, Some(r)) = (self.cfg.mode, new_region) {
            for other in self.cluster.nodes() {
                if *other != node {
                    self.reg_op(
                        sim,
                        *other,
                        "registration failed (paper §3.4 OCEAN regime)",
                        Some(r),
                        || self.cluster.vmmc.import_region(*other, r),
                    )
                    .unwrap_or_else(|e| panic!("{e}"));
                }
            }
            // Announce the new region to the cluster.
            if node != self.master {
                let t = self.cluster.san.send(node, self.master, 32, sim.now());
                sim.clock_at_least(t.local_done);
            }
        }

        // Map the chunk into the application address space. All pages
        // start inaccessible so later first touches are observable.
        match self.cfg.mode {
            ProtoMode::Cables => {
                self.cluster
                    .mem
                    .map_chunk(node, base, &frames, Prot::None)
                    .expect("chunk-aligned mapping");
                sim.advance(os.map_op_ns);
            }
            ProtoMode::Base => {
                for (i, f) in frames.iter().enumerate() {
                    self.cluster
                        .mem
                        .map_page(node, PageNum::new(base.index() + i as u64), *f, Prot::None);
                }
                sim.advance(os.map_op_ns);
            }
        }

        // Directory update (on the master / ACB owner).
        {
            let mut st = self.state.lock();
            for i in 0..gran {
                st.dir.insert(
                    base.index() + i,
                    PageDir {
                        home: node,
                        version: 0,
                        region,
                        region_off: base_off + i * PAGE_SIZE,
                        first_writer: None,
                        multi_writer: false,
                        hot: 0,
                    },
                );
                st.nodes[node.0 as usize]
                    .copies
                    .insert(base.index() + i, CopyState {
                        version: 0,
                        dirty: None,
                    });
            }
            st.nodes[node.0 as usize].stats.placements += 1;
        }
        self.proto_instant(sim, obs::Event::Place { base: base.index() });
        sim.op_point(self.cfg.costs.placement_bookkeeping_ns);
        if node != self.master {
            // Publish the new entry to the global directory.
            let t = self.cluster.san.send(node, self.master, 64, sim.now());
            sim.clock_at_least(t.local_done);
        }

        // Finally grant the faulting access on the faulting page.
        self.home_upgrade(sim, page, kind);
    }

    /// Opens `page` on the faulting node for the faulting access and
    /// charges the OS protection change.
    fn grant(&self, sim: &Sim, page: PageNum, kind: FaultKind) {
        let prot = match kind {
            FaultKind::Read => Prot::Read,
            FaultKind::Write => Prot::ReadWrite,
        };
        self.cluster
            .mem
            .set_prot(sim.node(), page, prot)
            .expect("faulting page mapped");
        sim.advance(self.cluster.mem.config().protect_ns);
    }

    /// Grants access on a page homed at the faulting node (either the
    /// just-placed chunk or a later first touch of a chunk sibling).
    fn home_upgrade(&self, sim: &Sim, page: PageNum, kind: FaultKind) {
        if kind == FaultKind::Write {
            let mut st = self.state.lock();
            st.start_write_tracking(sim.node(), page.index());
        }
        self.grant(sim, page, kind);
    }

    /// Fetches a page copy from its remote home.
    fn fetch_page(&self, sim: &Sim, page: PageNum, home: NodeId, kind: FaultKind) {
        let node = sim.node();
        let (region, region_off, version) = {
            let st = self.state.lock();
            let d = &st.dir[&page.index()];
            (d.region, d.region_off, d.version)
        };

        // Lazily import the home's region.
        let what = "region import failed (paper §3.4 regime)";
        self.ensure_imported(sim, node, what, region, false)
            .unwrap_or_else(|e| panic!("{e}"));

        // Local frame for the copy (normal page-granular OS paging).
        // Invariant: copies are evicted before node memory fills, so frame
        // exhaustion here is a simulator bug, not injectable pressure.
        let have_frame = self.cluster.mem.translate(node, page).is_some();
        if !have_frame {
            let f = self
                .cluster
                .mem
                .alloc_frame(node)
                .unwrap_or_else(|e| panic!("copy frame allocation failed: {e}"));
            self.cluster.mem.map_page(node, page, f, Prot::None);
            sim.advance(self.cluster.mem.config().frame_alloc_ns);
        }

        // A locally dirty copy must never be overwritten by a refetch —
        // its unflushed words would be lost. (Cannot happen after the
        // handler's re-check, but guard the invariant.)
        let (locally_dirty, copy_current) = {
            let st = self.state.lock();
            match st.nodes[node.0 as usize].copies.get(&page.index()) {
                Some(c) => (
                    c.dirty.is_some(),
                    st.dir
                        .get(&page.index())
                        .map(|d| c.version >= d.version)
                        .unwrap_or(false),
                ),
                None => (false, false),
            }
        };
        assert!(
            !locally_dirty,
            "refetch of a locally dirty page {page} on {node}"
        );

        // A fault on a current clean copy needs no data transfer: only the
        // protection changes (and, for a write upgrade, dirty tracking
        // starts). For a read this is a prefetched page being consumed —
        // unreachable with the prefetcher off, where demand fetches always
        // install a readable protection directly, so that case is gated to
        // keep the baseline path literally unchanged.
        let upgrade = kind == FaultKind::Write || self.cfg.prefetch_degree > 0;
        if copy_current && have_frame && upgrade {
            let t_masked = sim.now();
            let install = {
                let mut st = self.state.lock();
                let np = &mut st.nodes[node.0 as usize];
                let install = np.prefetched.remove(&page.index());
                if install.is_some() {
                    np.stats.prefetch_hits += 1;
                }
                install
            };
            if let Some(t) = install {
                // Wait out the tail of the streaming batch if the bytes
                // have not landed yet.
                sim.clock_at_least(t);
            }
            if kind == FaultKind::Write {
                let mut st = self.state.lock();
                st.start_write_tracking(node, page.index());
            }
            self.grant(sim, page, kind);
            if install.is_some() {
                if let Some(o) = self.obs_if_on() {
                    // Nested inside the enclosing FaultSpan: the stall
                    // profiler splits prefetch-masked stall out of the
                    // page-fault bucket from this span.
                    o.span(
                        obs::Layer::Proto,
                        node,
                        sim.tid().0,
                        t_masked,
                        sim.now().saturating_since(t_masked),
                        obs::Event::PrefetchMasked { page: page.index() },
                    );
                }
            }
            return;
        }

        // Stride detection over the demand-fault stream. On a confirmed
        // run, candidate pages from the same home region ride along with
        // the demand fetch as one multi-segment message.
        let mut prefetch: Vec<(u64, u64, u64)> = Vec::new(); // (page, region_off, version)
        if self.cfg.prefetch_degree > 0 {
            let idx = page.index();
            let tid = sim.tid().0;
            let st_entry = {
                let mut st = self.state.lock();
                let np = &mut st.nodes[node.0 as usize];
                let entry = match np.stride.get(&tid) {
                    Some(&(last, stride, streak)) => {
                        let d = idx as i64 - last as i64;
                        if d == 0 {
                            (idx, stride, streak)
                        } else if d == stride {
                            (idx, stride, streak.saturating_add(1))
                        } else {
                            (idx, d, 1)
                        }
                    }
                    None => (idx, 0, 0),
                };
                np.stride.insert(tid, entry);
                entry
            };
            let (_, stride, streak) = st_entry;
            if stride != 0 && streak >= self.cfg.prefetch_confirm {
                let st = self.state.lock();
                let np = &st.nodes[node.0 as usize];
                for k in 1..=self.cfg.prefetch_degree as i64 {
                    let cand = idx as i64 + stride * k;
                    if cand < 0 {
                        break;
                    }
                    let cand = cand as u64;
                    // Stop at directory or home-region boundaries; skip
                    // (but keep walking past) pages already usable here.
                    let Some(d) = st.dir.get(&cand) else { break };
                    if d.region != region || d.home == node {
                        break;
                    }
                    if let Some(c) = np.copies.get(&cand) {
                        if c.dirty.is_some() || c.version >= d.version {
                            continue;
                        }
                    }
                    prefetch.push((cand, d.region_off, d.version));
                }
            }
        }

        // Fetch the page contents from the home — batched with any
        // confirmed-stride prefetch candidates.
        let t_fetch = sim.now();
        let vmmc = &self.cluster.vmmc;
        let (data, done) = if prefetch.is_empty() {
            self.with_reimport(sim, node, "page fetch failed", region, || {
                vmmc.remote_fetch(node, region, region_off, PAGE_SIZE, sim.now())
            })
            .unwrap_or_else(|e| panic!("{e}"))
        } else {
            let mut segs = Vec::with_capacity(1 + prefetch.len());
            segs.push((region_off, PAGE_SIZE));
            segs.extend(prefetch.iter().map(|(_, off, _)| (*off, PAGE_SIZE)));
            let (mut all, times) = self
                .with_reimport(sim, node, "batched page fetch failed", region, || {
                    vmmc.remote_fetch_multi(node, region, &segs, sim.now())
                })
                .unwrap_or_else(|e| panic!("{e}"));
            let demand = all.remove(0);
            // Install the prefetched copies: frame, inaccessible mapping,
            // current contents and version. The next local fault takes the
            // no-transfer shortcut above and waits out the per-segment
            // streaming install time; acquire-time notices invalidate
            // them exactly like demand-fetched copies, which is what makes
            // prefetching safe under release consistency.
            for (i, ((cand, _, version), bytes)) in prefetch.iter().zip(all).enumerate() {
                let cp = PageNum::new(*cand);
                if self.cluster.mem.translate(node, cp).is_none() {
                    let f = self
                        .cluster
                        .mem
                        .alloc_frame(node)
                        .unwrap_or_else(|e| panic!("prefetch frame allocation failed: {e}"));
                    // No clock advance: the NIC deposits segments straight
                    // into these frames, and the mapping bookkeeping
                    // overlaps the demand segment still streaming in.
                    self.cluster.mem.map_page(node, cp, f, Prot::None);
                }
                let (f, _) = self.cluster.mem.translate(node, cp).expect("just mapped");
                self.cluster.mem.frame_write(f, 0, &bytes);
                let mut st = self.state.lock();
                let np = &mut st.nodes[node.0 as usize];
                let copy = np.copies.entry(*cand).or_insert(CopyState {
                    version: 0,
                    dirty: None,
                });
                copy.version = *version;
                np.prefetched.insert(*cand, times[i + 1]);
                np.stats.prefetch_issued += 1;
                np.stats.fetch_bytes += PAGE_SIZE;
            }
            // Cut-through delivery: the faulting thread resumes as soon as
            // its demand segment (the first) has streamed in; the prefetch
            // tail lands behind it at the per-segment times recorded above.
            (demand, times[0])
        };
        sim.clock_at_least(done);
        if done > t_fetch {
            if let Some(o) = self.obs_if_on() {
                // Self-lane causal edge: the fault issued the home fetch
                // at t_fetch and the thread resumed at `done`; the gap is
                // the fetch wait the critical-path walk can cross. Batched
                // transfers get their own lane so the blame table shows
                // demand-fetch waits shrinking separately.
                o.edge(
                    if prefetch.is_empty() {
                        obs::EdgeKind::PageFetch
                    } else {
                        obs::EdgeKind::BatchFetch
                    },
                    node,
                    sim.tid().0,
                    t_fetch,
                    node,
                    sim.tid().0,
                    done,
                    page.index(),
                );
            }
        }
        if !prefetch.is_empty() {
            self.proto_instant(
                sim,
                obs::Event::Prefetch {
                    page: page.index(),
                    pages: prefetch.len() as u64,
                    home: home.0,
                },
            );
        }
        let (frame, _) = self.cluster.mem.translate(node, page).expect("just mapped");
        self.cluster.mem.frame_write(frame, 0, &data);

        let home = {
            let mut st = self.state.lock();
            let home = st.dir[&page.index()].home;
            if let Some(d) = st.dir.get_mut(&page.index()) {
                // Hotness for lock-data forwarding: pages that keep being
                // demand-fetched are worth shipping with lock grants.
                d.hot = d.hot.saturating_add(1);
            }
            let np = &mut st.nodes[node.0 as usize];
            np.stats.remote_fetches += 1;
            np.stats.fetch_bytes += PAGE_SIZE;
            let copy = np.copies.entry(page.index()).or_insert(CopyState {
                version: 0,
                dirty: None,
            });
            copy.version = version;
            // Affinity hint: credit the home that served this fetch.
            if home.0 as usize >= st.home_pull.len() {
                st.home_pull.resize(home.0 as usize + 1, 0);
            }
            st.home_pull[home.0 as usize] += 1;
            if self.cfg.placement_policy.is_some() && home != node {
                let chunk = page.chunk_base(self.cfg.home_granularity_pages).index();
                st.note_chunk_traffic(node, chunk);
            }
            if kind == FaultKind::Write {
                st.start_write_tracking(node, page.index());
            }
            home
        };
        self.proto_instant(
            sim,
            obs::Event::Fetch {
                page: page.index(),
                home: home.0,
            },
        );
        self.grant(sim, page, kind);
    }

    /// Marks the dirty words covered by a write of `len` bytes at `addr`.
    pub(crate) fn mark_dirty(&self, node: NodeId, addr: GAddr, len: u64) {
        let mut st = self.state.lock();
        let np = &mut st.nodes[node.0 as usize];
        if let Some(copy) = np.copies.get_mut(&addr.page().index()) {
            if let Some(dirty) = copy.dirty.as_mut() {
                let first = addr.page_offset() / 8;
                let last = (addr.page_offset() + len - 1) / 8;
                set_dirty_words(dirty, first, last);
            }
        }
    }

    /// Flushes one dirty page: takes its dirty bitmap, builds the diff,
    /// writes the dirty words to a remote home — directly, or queued on
    /// `batches` for one multi-segment write per home — and publishes the
    /// write notice. Every release of a page runs through here, whether a
    /// whole-node [`SvmSystem::release`] or the acquire-time early flush.
    ///
    /// Returns the home, the page's version before the notice, and when
    /// the last directly written run is visible at the home. The local
    /// copy is left as it is: its version and protection are the caller's.
    fn diff_page(
        &self,
        sim: &Sim,
        page_idx: u64,
        batches: Option<&mut DiffBatches>,
    ) -> (NodeId, u64, SimTime) {
        let node = sim.node();
        let page = PageNum::new(page_idx);
        let (home, region, region_off, write_through, bitmap) = {
            let mut st = self.state.lock();
            let d = &st.dir[&page_idx];
            let wt = self.cfg.write_through_single_writer
                && !d.multi_writer
                && d.first_writer == Some(node);
            let (home, region, region_off) = (d.home, d.region, d.region_off);
            let copy = st.nodes[node.0 as usize]
                .copies
                .get_mut(&page_idx)
                .expect("dirty page has copy");
            let bitmap = copy.dirty.take().expect("dirty page has bitmap");
            (home, region, region_off, wt, bitmap)
        };
        // Collect dirty runs from the bitmap.
        let runs = dirty_runs(&bitmap);
        let dirty_bytes: u64 = runs.iter().map(|r| (r.1 - r.0) * 8).sum();

        let mut arrival = SimTime::ZERO;
        if home == node {
            // Home writer: data already authoritative, just a notice.
            sim.advance(self.cfg.costs.diff_build_ns / 4);
        } else {
            if write_through {
                // Single-writer write-through: updates streamed during
                // computation; release only fences.
                sim.advance(500);
            } else {
                sim.advance(self.cfg.costs.diff_build_ns);
            }
            // The home region may have changed (migration) since we
            // fetched this page; import lazily like the fetch path.
            self.ensure_imported(sim, node, "region import failed", region, false)
                .unwrap_or_else(|e| panic!("{e}"));
            let (frame, _) = self
                .cluster
                .mem
                .translate(node, page)
                .expect("dirty page mapped");
            let segs = runs.iter().map(|(w0, w1)| {
                let mut buf = vec![0u8; ((w1 - w0) * 8) as usize];
                self.cluster
                    .mem
                    .frame_read(frame, (w0 * 8) as usize, &mut buf);
                (region_off + w0 * 8, buf)
            });
            let batched = match batches {
                Some(batches) if !write_through => {
                    // Defer the wire transfer: collect this page's runs
                    // into the per-home batch. Per-page build cost, trace
                    // and version bump stay exactly as in the unbatched
                    // path; only the messaging is amortized.
                    let entry = batches
                        .entry((home.0, region.0))
                        .or_insert_with(|| (Vec::new(), 0, sim.now()));
                    entry.0.extend(segs);
                    entry.1 += 1;
                    true
                }
                _ => {
                    for (off, buf) in segs {
                        let t = self
                            .with_reimport(sim, node, "diff write failed", region, || {
                                let vmmc = &self.cluster.vmmc;
                                vmmc.remote_write(node, region, off, &buf, sim.now())
                            })
                            .unwrap_or_else(|e| panic!("{e}"));
                        if !write_through {
                            arrival = arrival.max(t.arrival);
                        }
                    }
                    false
                }
            };
            {
                let mut st = self.state.lock();
                let stats = &mut st.nodes[node.0 as usize].stats;
                stats.diffs_sent += u64::from(!batched);
                stats.diff_bytes += dirty_bytes;
            }
            self.proto_instant(
                sim,
                obs::Event::Diff {
                    page: page_idx,
                    bytes: dirty_bytes,
                },
            );
        }

        // Bump the version and publish the notice.
        let mut st = self.state.lock();
        let d = st.dir.get_mut(&page_idx).expect("dir entry");
        let pre = d.version;
        d.version += 1;
        st.log.push((page_idx, pre + 1));
        (home, pre, arrival)
    }

    /// Invalidates `node`'s copy of a page: unmaps it, forgets the copy
    /// (counting a prefetched page that was never used as wasted) and
    /// records the instant.
    fn invalidate_copy(&self, sim: &Sim, page_idx: u64) {
        let node = sim.node();
        self.cluster
            .mem
            .set_prot(node, PageNum::new(page_idx), Prot::None)
            .expect("cached copy mapped");
        {
            let mut st = self.state.lock();
            let np = &mut st.nodes[node.0 as usize];
            np.copies.remove(&page_idx);
            if np.prefetched.remove(&page_idx).is_some() {
                np.stats.prefetch_wasted += 1;
            }
        }
        self.proto_instant(sim, obs::Event::Invalidate { page: page_idx });
    }

    /// Release: flushes this node's dirty pages to their homes and
    /// publishes write notices. Called before every lock release and
    /// barrier arrival.
    pub fn release(&self, sim: &Sim) {
        let node = sim.node();
        let t0 = sim.now();
        sim.sync_point();
        let dirty_pages = {
            let mut st = self.state.lock();
            std::mem::take(&mut st.nodes[node.0 as usize].dirty_pages)
        };
        if dirty_pages.is_empty() {
            return;
        }
        let mut diffed = 0u64;
        let mut max_arrival = sim.now();
        // Diff batching: runs destined to the same home region accumulate
        // here and ship as one multi-segment write per home after the
        // loop. BTreeMap keeps the per-home issue order deterministic. The
        // SimTime is when the batch's first segment was posted: the NIC
        // streams the gather descriptor while the CPU diffs the remaining
        // pages (zero-copy gather DMA), so the wire transfer overlaps the
        // rest of the loop exactly as the unbatched per-run sends do.
        let mut batches = DiffBatches::new();
        let gran = self.cfg.home_granularity_pages;
        if let Some(policy) = self.cfg.placement_policy {
            // Migration policy (extension): one decision per dirty chunk
            // per release, weighing the chunk's accumulated sharing
            // counters.
            let mut chunks: Vec<u64> = dirty_pages
                .iter()
                .map(|p| PageNum::new(*p).chunk_base(gran).index())
                .collect();
            chunks.sort_unstable();
            chunks.dedup();
            for chunk in chunks {
                self.consider_migration(sim, PageNum::new(chunk), policy);
            }
        }
        for page_idx in dirty_pages {
            let batch = self.cfg.batch_diffs.then_some(&mut batches);
            let (home, pre, arrival) = self.diff_page(sim, page_idx, batch);
            max_arrival = max_arrival.max(arrival);
            diffed += u64::from(home != node);

            // The releaser's own copy is complete only if nobody else
            // released this page since we fetched it; a copy with a stale
            // base misses the other writers' words, so it must not stay
            // readable.
            let stale_base = {
                let mut st = self.state.lock();
                // A remote diff of this node's own release feeds the
                // placement policy; the acquire-time early flush does not
                // — a remote writer's notice forced it.
                if home != node && self.cfg.placement_policy.is_some() {
                    let chunk = PageNum::new(page_idx).chunk_base(gran).index();
                    st.note_chunk_traffic(node, chunk);
                }
                let copy = st.nodes[node.0 as usize]
                    .copies
                    .get_mut(&page_idx)
                    .expect("copy");
                if copy.version == pre {
                    copy.version = pre + 1;
                    false
                } else {
                    home != node
                }
            };
            if stale_base {
                // Concurrent remote releases interleaved since this copy
                // was fetched: drop it (the diff above is already on its
                // way home) and refetch a complete page on next touch.
                self.invalidate_copy(sim, page_idx);
            } else {
                // Downgrade to read-only so new writes are tracked again.
                self.cluster
                    .mem
                    .set_prot(node, PageNum::new(page_idx), Prot::Read)
                    .expect("dirty page mapped");
            }
            sim.advance(self.cluster.mem.config().protect_ns);
        }
        // Ship the accumulated per-home batches: one multi-segment write
        // (one header, one fence contribution) per home instead of one
        // message per dirty run.
        for ((home_id, region_id), (mut segs, pages, t_first)) in batches {
            // Merge runs adjacent in region-offset space — this is where
            // dirty runs fuse across page boundaries within a chunk.
            segs.sort_by_key(|(off, _)| *off);
            let mut merged: Vec<(u64, Vec<u8>)> = Vec::with_capacity(segs.len());
            for (off, buf) in segs {
                match merged.last_mut() {
                    Some((m_off, m_buf)) if *m_off + m_buf.len() as u64 == off => {
                        m_buf.extend_from_slice(&buf);
                    }
                    _ => merged.push((off, buf)),
                }
            }
            let bytes: u64 = merged.iter().map(|(_, b)| b.len() as u64).sum();
            let region = RegionId(region_id);
            let t_issue = sim.now();
            let t = self
                .with_reimport(sim, node, "batched diff write failed", region, || {
                    let vmmc = &self.cluster.vmmc;
                    vmmc.remote_write_multi(node, region, &merged, t_first.min(sim.now()))
                })
                .unwrap_or_else(|e| panic!("{e}"));
            max_arrival = max_arrival.max(t.arrival);
            {
                let mut st = self.state.lock();
                let np = &mut st.nodes[node.0 as usize];
                np.stats.diffs_sent += 1;
                np.stats.diff_batches += 1;
                np.stats.batched_diff_bytes += bytes;
            }
            if let Some(o) = self.obs_if_on() {
                o.instant(
                    obs::Layer::Proto,
                    node,
                    sim.tid().0,
                    sim.now(),
                    obs::Event::DiffBatch {
                        home: home_id,
                        pages,
                        bytes,
                    },
                );
                if t.arrival > t_issue {
                    o.edge(
                        obs::EdgeKind::BatchDiff,
                        node,
                        sim.tid().0,
                        t_issue,
                        node,
                        sim.tid().0,
                        t.arrival,
                        home_id as u64,
                    );
                }
            }
        }
        // Release fence: diffs must be remotely visible.
        sim.clock_at_least(max_arrival);
        if let Some(o) = self.obs_if_on() {
            o.span(
                obs::Layer::Proto,
                node,
                sim.tid().0,
                t0,
                sim.now().saturating_since(t0),
                obs::Event::ReleaseSpan { diffs: diffed },
            );
        }
    }

    /// Acquire: applies all write notices this node has not yet seen,
    /// invalidating stale copies. Called after every barrier departure.
    pub fn acquire(&self, sim: &Sim) {
        self.apply_notices(sim, false);
    }

    /// Acquire executed on a lock grant. With lock-data forwarding on,
    /// pending write notices for *hot* pages (frequently demand-fetched)
    /// are resolved by refreshing the page contents from home in one
    /// batched fetch piggybacked on the grant — the acquirer keeps a
    /// current readable copy and skips the first post-acquire fault
    /// round trip. Cold pages are invalidated as usual.
    pub(crate) fn acquire_on_lock(&self, sim: &Sim) {
        self.apply_notices(sim, self.cfg.lock_forwarding);
    }

    /// Applies all write notices this node has not yet seen: stale clean
    /// copies are invalidated or, with `forwarding`, refreshed from home
    /// when hot; stale copies this node is still writing are flushed home
    /// first.
    fn apply_notices(&self, sim: &Sim, forwarding: bool) {
        let node = sim.node();
        let t0 = sim.now();
        let mut invalidate = Vec::new();
        let mut flush_first = Vec::new();
        // Hot stale pages grouped per (home, region): (page, region_off,
        // version to install).
        let mut forward: BTreeMap<(u32, u64), Vec<(u64, u64, u64)>> = BTreeMap::new();
        let applied;
        {
            let mut st = self.state.lock();
            let cursor = st.nodes[node.0 as usize].log_cursor;
            let end = st.log.len();
            applied = end - cursor;
            for &(page_idx, version) in &st.log[cursor..end] {
                if st.dir[&page_idx].home == node {
                    continue;
                }
                if let Some(copy) = st.nodes[node.0 as usize].copies.get(&page_idx) {
                    if copy.version < version {
                        if copy.dirty.is_none() {
                            invalidate.push(page_idx);
                        } else {
                            // This node is concurrently writing the page
                            // (another allocation sharing it, or a write
                            // outside any critical section): flush those
                            // words home first, then invalidate like the
                            // rest — never read past the notice. Never
                            // forwarded either: the grant cannot carry a
                            // page we still owe a diff.
                            flush_first.push(page_idx);
                        }
                    }
                }
            }
            // The log may hold several intervals for the same page.
            invalidate.sort_unstable();
            invalidate.dedup();
            if forwarding {
                // Hot pages are refreshed to the directory's version —
                // never older than any notice in the log — not dropped.
                invalidate.retain(|page_idx| {
                    let d = &st.dir[page_idx];
                    let hot = d.hot >= self.cfg.lock_forward_hot;
                    if hot {
                        let group = forward.entry((d.home.0, d.region.0)).or_default();
                        group.push((*page_idx, d.region_off, d.version));
                    }
                    !hot
                });
            }
            flush_first.sort_unstable();
            flush_first.dedup();
            st.nodes[node.0 as usize].log_cursor = end;
            let fwd: u64 = forward.values().map(|v| v.len() as u64).sum();
            st.nodes[node.0 as usize].stats.notices_applied +=
                (invalidate.len() + flush_first.len()) as u64 + fwd;
        }
        for page_idx in flush_first {
            // An early release of this one page — exactly what the next
            // release would have done for it, just sooner. The copy cannot
            // be invalidated while it holds unreleased words (they would
            // be lost), but skipping the notice would leave the node
            // reading words that miss the remote writer's update even
            // across a lock acquire.
            {
                let mut st = self.state.lock();
                st.nodes[node.0 as usize]
                    .dirty_pages
                    .retain(|p| *p != page_idx);
            }
            let (_, _, arrival) = self.diff_page(sim, page_idx, None);
            // The flushed words must be home before the copy goes — a
            // refetch racing the diff would resurrect the old words.
            sim.clock_at_least(arrival);
            invalidate.push(page_idx);
        }
        for page_idx in &invalidate {
            self.invalidate_copy(sim, *page_idx);
        }
        let mut forwarded_pages = 0u64;
        for ((home_id, region_id), pages) in &forward {
            let region = RegionId(*region_id);
            // The home region may never have been imported here (a copy
            // can originate from an earlier forward); import lazily.
            self.ensure_imported(sim, node, "region import failed", region, false)
                .unwrap_or_else(|e| panic!("{e}"));
            let segs: Vec<(u64, u64)> = pages.iter().map(|(_, off, _)| (*off, PAGE_SIZE)).collect();
            let t_issue = sim.now();
            let (all, times) = self
                .with_reimport(sim, node, "lock-forward fetch failed", region, || {
                    let vmmc = &self.cluster.vmmc;
                    vmmc.remote_fetch_multi(node, region, &segs, sim.now())
                })
                .unwrap_or_else(|e| panic!("{e}"));
            // The acquirer needs every forwarded page current before the
            // critical section runs, so it waits for the whole batch.
            let done = *times.last().expect("at least one segment");
            sim.clock_at_least(done);
            if done > t_issue {
                if let Some(o) = self.obs_if_on() {
                    o.edge(
                        obs::EdgeKind::BatchFetch,
                        node,
                        sim.tid().0,
                        t_issue,
                        node,
                        sim.tid().0,
                        done,
                        *home_id as u64,
                    );
                }
            }
            for ((page_idx, _, version), data) in pages.iter().zip(all) {
                let page = PageNum::new(*page_idx);
                let (frame, _) = self
                    .cluster
                    .mem
                    .translate(node, page)
                    .expect("stale copy mapped");
                self.cluster.mem.frame_write(frame, 0, &data);
                self.cluster
                    .mem
                    .set_prot(node, page, Prot::Read)
                    .expect("stale copy mapped");
                sim.advance(self.cluster.mem.config().protect_ns);
                let mut st = self.state.lock();
                let np = &mut st.nodes[node.0 as usize];
                // The copy may have been removed by a concurrent acquire
                // on this node; recreate it with the refreshed version.
                let copy = np.copies.entry(*page_idx).or_insert(CopyState {
                    version: 0,
                    dirty: None,
                });
                copy.version = *version;
                np.prefetched.remove(page_idx);
                forwarded_pages += 1;
            }
            {
                let mut st = self.state.lock();
                let np = &mut st.nodes[node.0 as usize];
                np.stats.lock_forwards += 1;
                np.stats.lock_forward_bytes += PAGE_SIZE * pages.len() as u64;
            }
        }
        if applied > 0 {
            sim.advance(self.cfg.costs.notice_apply_ns * invalidate.len().max(1) as u64);
            if forwarded_pages > 0 {
                self.proto_instant(
                    sim,
                    obs::Event::LockForward {
                        pages: forwarded_pages,
                        bytes: forwarded_pages * PAGE_SIZE,
                    },
                );
            }
            if let Some(o) = self.obs_if_on() {
                o.span(
                    obs::Layer::Proto,
                    node,
                    sim.tid().0,
                    t0,
                    sim.now().saturating_since(t0),
                    obs::Event::AcquireSpan {
                        invals: invalidate.len() as u64,
                    },
                );
            }
        }
    }

    /// Detailed misplacement list `(page, first_toucher, home)` for
    /// diagnostics.
    pub fn misplaced_pages(&self) -> Vec<(u64, NodeId, NodeId)> {
        let st = self.state.lock();
        let mut out = Vec::new();
        for (page, toucher) in &st.first_toucher {
            if let Some(d) = st.dir.get(page) {
                if d.home != *toucher {
                    out.push((*page, *toucher, d.home));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The placement policy for one dirty chunk at release time: migrate
    /// the chunk here when this node dominates its accumulated remote
    /// fetch+diff traffic, the traffic cleared the policy floor, and the
    /// chunk is out of its post-migration cooldown (hysteresis against
    /// home thrash). The dominance test refuses chunks whose traffic is
    /// split between alternating remote nodes; it does not see the home
    /// node's own writes (DESIGN §9).
    fn consider_migration(&self, sim: &Sim, page: PageNum, policy: PlacementPolicy) {
        let node = sim.node();
        let gran = self.cfg.home_granularity_pages;
        let chunk_base = page.chunk_base(gran);
        {
            let mut st = self.state.lock();
            let home = match st.dir.get(&page.index()) {
                Some(d) => d.home,
                None => return,
            };
            if home == node {
                return;
            }
            st.nodes[node.0 as usize].stats.policy_considered += 1;
            let nodes = st.nodes.len();
            let cs = st
                .chunk_sharing
                .entry(chunk_base.index())
                .or_insert_with(|| ChunkSharing::new(nodes));
            if cs.cooldown < policy.cooldown_releases {
                cs.cooldown += 1;
                return;
            }
            let total: u64 = cs.traffic.iter().map(|&t| t as u64).sum();
            let mine = cs
                .traffic
                .get(node.0 as usize)
                .copied()
                .unwrap_or(0) as u64;
            if total < policy.min_traffic as u64
                || mine * 100 < total * policy.dominance_pct as u64
            {
                return;
            }
            if !self.chunk_migratable(&st, node, chunk_base) {
                return;
            }
        }
        self.migrate_chunk(sim, chunk_base);
        let mut st = self.state.lock();
        st.nodes[node.0 as usize].stats.policy_migrations += 1;
        // Restart the chunk's sharing profile under the new home and arm
        // the cooldown clock.
        let nodes = st.nodes.len();
        let cs = st
            .chunk_sharing
            .entry(chunk_base.index())
            .or_insert_with(|| ChunkSharing::new(nodes));
        cs.traffic.iter_mut().for_each(|t| *t = 0);
        cs.last_node = None;
        cs.cooldown = 0;
    }

    /// Safety invariants of a migration: only migrate chunks whose local
    /// copies are all current (another interval's diff would otherwise be
    /// lost) and on which no other node holds unflushed dirty words.
    fn chunk_migratable(&self, st: &ProtoState, node: NodeId, chunk_base: PageNum) -> bool {
        let gran = self.cfg.home_granularity_pages;
        let current = (0..gran).all(|i| {
            let idx = chunk_base.index() + i;
            match (st.dir.get(&idx), st.nodes[node.0 as usize].copies.get(&idx)) {
                (Some(d), Some(c)) => c.version >= d.version,
                (Some(_), None) => true, // no copy: nothing to lose
                _ => true,
            }
        });
        let foreign_dirty = st.nodes.iter().enumerate().any(|(n, np)| {
            n != node.0 as usize
                && (0..gran).any(|i| {
                    np.copies
                        .get(&(chunk_base.index() + i))
                        .map(|c| c.dirty.is_some())
                        .unwrap_or(false)
                })
        });
        current && !foreign_dirty
    }

    /// Migrates the chunk at `base` to the calling node: new home frames
    /// are allocated in this node's home region, current contents are
    /// pulled over, the directory is updated and a write notice makes
    /// every stale copy refetch from the new home. (The mechanism of
    /// paper §2.1.3, driven by the policy above.)
    fn migrate_chunk(&self, sim: &Sim, base: PageNum) {
        debug_assert_eq!(self.cfg.mode, ProtoMode::Cables, "migration is a CableS mechanism");
        let node = sim.node();
        let gran = self.cfg.home_granularity_pages;
        let os = self.cluster.mem.config().clone();

        // New home frames in this node's (single) registered region.
        // Invariant: migration targets the faulting node's own memory,
        // which the workloads never exhaust — a failure here is fatal.
        let mut frames = Vec::with_capacity(gran as usize);
        for _ in 0..gran {
            frames.push(
                self.cluster
                    .mem
                    .alloc_frame(node)
                    .unwrap_or_else(|e| panic!("migration frame allocation failed: {e}")),
            );
        }
        sim.advance(os.frame_alloc_ns * gran);
        let (region, base_off) = {
            let entry = {
                let st = self.state.lock();
                st.home_region[node.0 as usize]
            };
            let (region, off) = match entry {
                Some((r, len)) => {
                    self.reg_op(sim, node, "migration region extension failed", Some(r), || {
                        self.cluster.vmmc.extend_region(r, frames.clone())
                    })
                    .unwrap_or_else(|e| panic!("{e}"));
                    (r, len)
                }
                None => {
                    let r = self
                        .reg_op(sim, node, "migration region export failed", None, || {
                            self.cluster.vmmc.export_region(node, frames.clone())
                        })
                        .unwrap_or_else(|e| panic!("{e}"));
                    (r, 0)
                }
            };
            let mut st = self.state.lock();
            st.home_region[node.0 as usize] = Some((region, off + gran * PAGE_SIZE));
            (region, off)
        };
        sim.advance(self.cluster.vmmc.config().extend_op_ns);

        // Pull current contents: from the local (current) copy when one
        // exists, otherwise fetched from the old home. An invalidated
        // page keeps its frame mapped (`Prot::None`) but has no copy
        // entry: its stale bytes must not become the new home's.
        for i in 0..gran {
            let idx = base.index() + i;
            let new_frame = frames[i as usize];
            let (old_region, old_off, in_dir, have_copy) = {
                let st = self.state.lock();
                let have_copy = st.nodes[node.0 as usize].copies.contains_key(&idx);
                match st.dir.get(&idx) {
                    Some(d) => (d.region, d.region_off, true, have_copy),
                    None => (region, 0, false, have_copy),
                }
            };
            let local = have_copy
                .then(|| self.cluster.mem.translate(node, PageNum::new(idx)))
                .flatten()
                .map(|(f, _)| f);
            match local {
                Some(f) => self.cluster.mem.copy_frame(f, new_frame),
                None if in_dir => {
                    let (data, done) = self
                        .with_reimport(sim, node, "migration fetch failed", old_region, || {
                            let vmmc = &self.cluster.vmmc;
                            vmmc.remote_fetch(node, old_region, old_off, PAGE_SIZE, sim.now())
                        })
                        .unwrap_or_else(|e| panic!("{e}"));
                    sim.clock_at_least(done);
                    self.cluster.mem.frame_write(new_frame, 0, &data);
                }
                None => {}
            }
        }

        // Remap the chunk locally onto the new home frames and update the
        // directory; the version bump invalidates every remote copy.
        self.cluster
            .mem
            .map_chunk(node, base, &frames, Prot::None)
            .expect("chunk-aligned migration mapping");
        sim.advance(os.map_op_ns);
        {
            let mut st = self.state.lock();
            let stx = &mut *st;
            for i in 0..gran {
                let idx = base.index() + i;
                if let Some(d) = stx.dir.get_mut(&idx) {
                    d.home = node;
                    d.region = region;
                    d.region_off = base_off + i * PAGE_SIZE;
                    d.version += 1;
                    let v = d.version;
                    stx.log.push((idx, v));
                    let np = &mut stx.nodes[node.0 as usize];
                    let copy = np.copies.entry(idx).or_insert(CopyState {
                        version: 0,
                        dirty: None,
                    });
                    copy.version = v;
                    // A pending dirty map stays attached: the flush that
                    // follows is now a (free) home-local release.
                }
            }
            stx.nodes[node.0 as usize].stats.migrations += 1;
        }
        self.proto_instant(sim, obs::Event::Migrate { base: base.index() });
        sim.op_point(self.cfg.costs.placement_bookkeeping_ns);
        if node != self.master {
            let t = self.cluster.san.send(node, self.master, 64, sim.now());
            sim.clock_at_least(t.local_done);
        }
    }

    /// Placement quality of the run so far (paper Fig. 6): a page is
    /// *misplaced* when its home is not its first toucher — i.e. when the
    /// 64 KB binding granularity overruled the page-granular first-touch
    /// placement the base system would have produced.
    pub fn placement_report(&self) -> PlacementReport {
        let st = self.state.lock();
        let mut rep = PlacementReport::default();
        for (page, toucher) in &st.first_toucher {
            if let Some(d) = st.dir.get(page) {
                rep.touched_pages += 1;
                if d.home != *toucher {
                    rep.misplaced_pages += 1;
                }
            }
        }
        rep
    }

    /// Protocol counters for `node`.
    pub fn node_stats(&self, node: NodeId) -> NodeStats {
        let st = self.state.lock();
        st.nodes[node.0 as usize].stats
    }

    /// Sum of protocol counters over all nodes.
    pub fn total_stats(&self) -> NodeStats {
        let st = self.state.lock();
        let mut out = NodeStats::default();
        for n in &st.nodes {
            let s = n.stats;
            out.read_faults += s.read_faults;
            out.write_faults += s.write_faults;
            out.remote_fetches += s.remote_fetches;
            out.fetch_bytes += s.fetch_bytes;
            out.diffs_sent += s.diffs_sent;
            out.diff_bytes += s.diff_bytes;
            out.notices_applied += s.notices_applied;
            out.placements += s.placements;
            out.migrations += s.migrations;
            out.lock_acquires += s.lock_acquires;
            out.barrier_waits += s.barrier_waits;
            out.diff_batches += s.diff_batches;
            out.batched_diff_bytes += s.batched_diff_bytes;
            out.prefetch_issued += s.prefetch_issued;
            out.prefetch_hits += s.prefetch_hits;
            out.prefetch_wasted += s.prefetch_wasted;
            out.lock_forwards += s.lock_forwards;
            out.lock_forward_bytes += s.lock_forward_bytes;
            out.pingpong_handoffs += s.pingpong_handoffs;
            out.policy_considered += s.policy_considered;
            out.policy_migrations += s.policy_migrations;
        }
        out
    }

    /// Per-node remote-pull counts: demand fetches each node has served
    /// as home. The thread-affinity placement hint the CableS runtime
    /// consults when `affinity_placement` is on (reading it never
    /// perturbs the protocol).
    pub fn home_pull(&self) -> Vec<u64> {
        self.state.lock().home_pull.clone()
    }
}

/// Sets bits `first..=last` of a dirty bitmap, one bitmap word at a time.
fn set_dirty_words(dirty: &mut [u64; BITMAP_WORDS], first: u64, last: u64) {
    for i in first / 64..=last / 64 {
        let lo = if i == first / 64 { first % 64 } else { 0 };
        let hi = if i == last / 64 { last % 64 } else { 63 };
        dirty[i as usize] |= (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
    }
}

/// Decodes a dirty bitmap into half-open word ranges `(first, last+1)`.
pub(crate) fn dirty_runs(bitmap: &[u64; BITMAP_WORDS]) -> Vec<(u64, u64)> {
    let total = WORDS_PER_PAGE as u64;
    let mut runs = Vec::new();
    let mut w = 0u64;
    while w < total {
        // Skip clear bits, one bitmap word at a time.
        let rest = bitmap[(w / 64) as usize] >> (w % 64);
        if rest == 0 {
            w = (w / 64 + 1) * 64;
            continue;
        }
        w += u64::from(rest.trailing_zeros());
        let start = w;
        // Then the set bits; a run may continue into the next word.
        while w < total {
            let left = 64 - w % 64;
            let clear = !bitmap[(w / 64) as usize] >> (w % 64);
            let ones = u64::from(clear.trailing_zeros()).min(left);
            w += ones;
            if ones < left {
                break;
            }
        }
        runs.push((start, w));
    }
    runs
}

/// Typed read/write entry points live on [`SvmSystem`]; see `api.rs`.
impl SvmSystem {
    /// Reads a scalar from the shared address space, faulting into the
    /// protocol as needed.
    pub fn read<T: Scalar>(&self, sim: &Sim, addr: GAddr) -> T {
        self.crash_check(sim);
        sim.advance(self.cfg.costs.access_check_ns);
        loop {
            match self.cluster.mem.read_scalar::<T>(sim.node(), addr) {
                Ok(v) => return v,
                Err(f) => self.handle_fault(sim, f.page, f.kind),
            }
        }
    }

    /// Writes a scalar to the shared address space, faulting into the
    /// protocol as needed; the touched words become part of the next
    /// release's diff.
    pub fn write<T: Scalar>(&self, sim: &Sim, addr: GAddr, v: T) {
        self.crash_check(sim);
        sim.advance(self.cfg.costs.access_check_ns);
        loop {
            match self.cluster.mem.write_scalar::<T>(sim.node(), addr, v) {
                Ok(()) => {
                    self.mark_dirty(sim.node(), addr, T::SIZE as u64);
                    return;
                }
                Err(f) => self.handle_fault(sim, f.page, f.kind),
            }
        }
    }

    fn assert_bulk_align<T: Scalar>(addr: GAddr) {
        assert_eq!(
            addr.raw() % T::SIZE as u64,
            0,
            "bulk access must be aligned to the element size ({} bytes)",
            T::SIZE
        );
    }

    /// Reads `out.len()` consecutive scalars starting at `addr`.
    ///
    /// Semantically identical to a loop of [`SvmSystem::read`] — same
    /// faults, same virtual time, same protocol traffic — but one
    /// translation and one copy per contiguous page run instead of per
    /// element. Equivalence holds because consecutive [`Sim::advance`]
    /// charges sum, and once the first element of a run succeeds the rest
    /// of the run cannot fault (there is no scheduling point in between,
    /// so no other thread can change the page's protection).
    /// `tests/hotpath.rs` holds it to that loop on random programs.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not aligned to `T`'s size.
    pub fn read_slice<T: Scalar>(&self, sim: &Sim, addr: GAddr, out: &mut [T]) {
        self.crash_check(sim);
        Self::assert_bulk_align::<T>(addr);
        let a = self.cfg.costs.access_check_ns;
        let node = sim.node();
        let total = out.len() * T::SIZE;
        let mut off = 0usize;
        while off < total {
            let run_addr = addr + off as u64;
            let n = (total - off).min((PAGE_SIZE - run_addr.page_offset()) as usize);
            let k = (n / T::SIZE) as u64;
            let run = &mut out[off / T::SIZE..(off + n) / T::SIZE];
            // One access check up front so a fault is charged exactly as
            // the scalar path charges it; the remaining k-1 checks follow
            // the successful copy.
            sim.advance(a);
            loop {
                match self.cluster.mem.read_scalar_run(node, run_addr, run) {
                    Ok(()) => break,
                    Err(f) => self.handle_fault(sim, f.page, f.kind),
                }
            }
            sim.advance((k - 1) * a);
            off += n;
        }
    }

    /// Writes `data` as consecutive scalars starting at `addr`.
    ///
    /// Semantically identical to a loop of [`SvmSystem::write`]; the dirty
    /// bitmap is marked once per page run (the same word bits a per-scalar
    /// loop would set), so release diffs are unchanged. See
    /// [`SvmSystem::read_slice`] for the equivalence argument.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not aligned to `T`'s size.
    pub fn write_slice<T: Scalar>(&self, sim: &Sim, addr: GAddr, data: &[T]) {
        self.crash_check(sim);
        Self::assert_bulk_align::<T>(addr);
        let a = self.cfg.costs.access_check_ns;
        let node = sim.node();
        let total = data.len() * T::SIZE;
        let mut off = 0usize;
        while off < total {
            let run_addr = addr + off as u64;
            let n = (total - off).min((PAGE_SIZE - run_addr.page_offset()) as usize);
            let k = (n / T::SIZE) as u64;
            let run = &data[off / T::SIZE..(off + n) / T::SIZE];
            sim.advance(a);
            loop {
                match self.cluster.mem.write_scalar_run(node, run_addr, run) {
                    Ok(()) => break,
                    Err(f) => self.handle_fault(sim, f.page, f.kind),
                }
            }
            self.mark_dirty(node, run_addr, n as u64);
            sim.advance((k - 1) * a);
            off += n;
        }
    }

    /// Writes `count` copies of `v` starting at `addr` — the bulk
    /// equivalent of a `for i in 0..count { write(addr + i*size, v) }`
    /// initialization loop.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not aligned to `T`'s size.
    pub fn fill<T: Scalar>(&self, sim: &Sim, addr: GAddr, v: T, count: usize) {
        self.crash_check(sim);
        Self::assert_bulk_align::<T>(addr);
        let mut pat = [0u8; 8];
        v.store(&mut pat[..T::SIZE]);
        // A uniform byte pattern (zeros, 0xFF…) can use the memset path;
        // anything else goes through a pre-tiled page buffer.
        let uniform = pat[..T::SIZE].iter().all(|&b| b == pat[0]);
        let mut buf = [0u8; PAGE_SIZE as usize];
        if !uniform {
            for chunk in buf.chunks_exact_mut(T::SIZE) {
                chunk.copy_from_slice(&pat[..T::SIZE]);
            }
        }
        let a = self.cfg.costs.access_check_ns;
        let node = sim.node();
        let total = count * T::SIZE;
        let mut off = 0usize;
        while off < total {
            let run_addr = addr + off as u64;
            let n = (total - off).min((PAGE_SIZE - run_addr.page_offset()) as usize);
            let k = (n / T::SIZE) as u64;
            sim.advance(a);
            loop {
                let res = if uniform {
                    self.cluster.mem.fill_page_run(node, run_addr, pat[0], n)
                } else {
                    self.cluster.mem.write_page_run(node, run_addr, &buf[..n])
                };
                match res {
                    Ok(_) => break,
                    Err(f) => self.handle_fault(sim, f.page, f.kind),
                }
            }
            self.mark_dirty(node, run_addr, n as u64);
            sim.advance((k - 1) * a);
            off += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_runs_empty() {
        let bm = [0u64; BITMAP_WORDS];
        assert!(dirty_runs(&bm).is_empty());
    }

    #[test]
    fn dirty_runs_single_word() {
        let mut bm = [0u64; BITMAP_WORDS];
        bm[0] |= 1 << 5;
        assert_eq!(dirty_runs(&bm), vec![(5, 6)]);
    }

    #[test]
    fn dirty_runs_merges_adjacent() {
        let mut bm = [0u64; BITMAP_WORDS];
        for w in 10..20 {
            bm[w / 64] |= 1 << (w % 64);
        }
        bm[1] |= 1; // word 64, separate run
        assert_eq!(dirty_runs(&bm), vec![(10, 20), (64, 65)]);
    }

    #[test]
    fn dirty_runs_tail_run() {
        let mut bm = [0u64; BITMAP_WORDS];
        let last = WORDS_PER_PAGE as u64 - 1;
        bm[(last / 64) as usize] |= 1 << (last % 64);
        assert_eq!(dirty_runs(&bm), vec![(last, last + 1)]);
    }

    /// The bit-at-a-time definitions the word-at-a-time code must match.
    fn runs_bitwise(bitmap: &[u64; BITMAP_WORDS]) -> Vec<(u64, u64)> {
        let mut runs = Vec::new();
        let mut start = None;
        for w in 0..=WORDS_PER_PAGE as u64 {
            let set =
                w < WORDS_PER_PAGE as u64 && bitmap[(w / 64) as usize] >> (w % 64) & 1 == 1;
            match (set, start) {
                (true, None) => start = Some(w),
                (false, Some(s)) => {
                    runs.push((s, w));
                    start = None;
                }
                _ => {}
            }
        }
        runs
    }

    #[test]
    fn dirty_words_and_runs_match_bitwise_definitions() {
        let last_word = WORDS_PER_PAGE as u64 - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = [0u64; BITMAP_WORDS];
        for round in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let first = x % (last_word + 1);
            // Short spans, word-crossing spans, and spans to the page end.
            let len = match round % 3 {
                0 => (x >> 20) % 4,
                1 => (x >> 20) % 200,
                _ => last_word,
            };
            let last = (first + len).min(last_word);
            let mut got = [0u64; BITMAP_WORDS];
            set_dirty_words(&mut got, first, last);
            let mut want = [0u64; BITMAP_WORDS];
            for w in first..=last {
                want[(w / 64) as usize] |= 1u64 << (w % 64);
            }
            assert_eq!(got, want, "span {first}..={last}");
            assert_eq!(dirty_runs(&got), vec![(first, last + 1)]);
            // Accumulate a few spans into one bitmap, then start over.
            if round % 7 == 0 {
                acc = [0; BITMAP_WORDS];
            }
            set_dirty_words(&mut acc, first, last.min(first + 9));
            assert_eq!(dirty_runs(&acc), runs_bitwise(&acc));
        }
        let full = [u64::MAX; BITMAP_WORDS];
        assert_eq!(dirty_runs(&full), vec![(0, WORDS_PER_PAGE as u64)]);
    }

    #[test]
    fn placement_report_pct() {
        let r = PlacementReport {
            touched_pages: 200,
            misplaced_pages: 50,
        };
        assert!((r.misplaced_pct() - 25.0).abs() < 1e-9);
        assert_eq!(PlacementReport::default().misplaced_pct(), 0.0);
    }
}
