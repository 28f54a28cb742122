//! The page protocol's interpreter: performs what [`crate::core`] decides.
//!
//! One protocol serves both systems of the paper:
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
//! Every step here is decide → perform → commit: borrow the directory (a
//! `sim::Local`), run one core transition, end the borrow, then perform
//! the effects it returned — frame allocation and mapping, `vmmc`
//! registration, fetches and writes, protection changes — charging
//! simulated time exactly where the protocol spends it and emitting every
//! obs event. NIC-registration recovery (`reg_op`, `with_reimport`) lives
//! here too. Borrow discipline: the directory borrow is never held across
//! an effect, a scheduling point or another borrow of this crate; a
//! second borrow while one is live panics.

use std::collections::BTreeMap;
use std::fmt;

use chaos::ChaosEngine;
use memsim::{FaultKind, FrameId, GAddr, PageNum, Prot, Scalar, PAGE_SIZE};
use sim::{NodeId, Sim, SimTime};
use vmmc::{RegionId, VmmcError};

use crate::api::SvmSystem;
use crate::config::ProtoMode;
use crate::core::{Diff, Fetch, Migrate, Route, Ship};

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
const REG_RETRY_ATTEMPTS: u32 = 6;
/// Base backoff of the registration-recovery loop, ns (doubles per try).
const REG_RETRY_BASE_NS: u64 = 20_000;

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
        // OS fault entry + protocol handler, ordered against other ops.
        sim.advance(self.cluster.mem.config().fault_overhead_ns);
        sim.op_point(self.cfg.costs.fault_handler_ns);

        let prot = self.cluster.mem.translate(node, page).map(|(_, p)| p);
        let step = self.state.lock().fault(node, page, kind, prot);
        let Some((remote_lookup, route)) = step else {
            return;
        };
        let write = kind == FaultKind::Write;
        self.proto_instant(
            sim,
            obs::Event::Fault {
                page: page.index(),
                write,
            },
        );
        if remote_lookup {
            // Fetch the directory entry from the master (ACB owner).
            let done = self.cluster.san.fetch(node, self.master, 32, sim.now());
            sim.clock_at_least(done);
        }
        sim.advance(1_000);
        match route {
            Route::Place => self.place_chunk(sim, page, kind),
            Route::Home => self.grant(sim, page, kind),
            Route::Remote { home, region } => self.fetch_page(sim, page, home, region, kind),
        }
        if let Some(o) = self.obs_if_on() {
            let dur = sim.now().saturating_since(t0);
            let event = obs::Event::FaultSpan {
                page: page.index(),
                write,
            };
            o.span(obs::Layer::Proto, node, sim.tid().0, t0, dur, event);
        }
    }

    /// The attached chaos engine, when it can inject anything at all.
    #[inline]
    fn chaos_armed(&self) -> Option<&ChaosEngine> {
        match self.cluster.chaos() {
            Some(c) if c.armed() => Some(c),
            _ => None,
        }
    }

    /// Evicts one cold imported region from `node`'s NIC to free a
    /// registration slot (never `protect`, which the caller is using).
    /// The victim is the lowest-numbered import so replay is
    /// deterministic.
    fn evict_one_import(
        &self,
        sim: &Sim,
        node: NodeId,
        protect: Option<RegionId>,
        ch: &ChaosEngine,
    ) {
        let victim = {
            let mut st = self.state.lock();
            let imported = &mut st.nodes[node.0 as usize].imported;
            let victim = imported
                .iter()
                .copied()
                .filter(|r| Some(*r) != protect.map(|p| p.0))
                .min();
            victim.filter(|v| imported.remove(v))
        };
        let Some(victim) = victim else {
            return;
        };
        // The lazy-import paths re-import on the next touch, so dropping
        // a cold import costs latency, never data.
        let _ = self.cluster.vmmc.unimport_region(node, RegionId(victim));
        ch.note_eviction();
        if let Some(o) = self.obs_if_on() {
            let event = obs::Event::ChaosEvict { region: victim };
            o.instant(obs::Layer::Chaos, node, sim.tid().0, sim.now(), event);
        }
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
        let (me, t_fail) = (sim.tid().0, sim.now());
        if let Some(o) = self.obs_if_on() {
            let event = obs::Event::ChaosResourceFault { op: what };
            o.instant(obs::Layer::Chaos, node, me, t_fail, event);
        }
        let mut last = first;
        for attempt in 1..=REG_RETRY_ATTEMPTS {
            let backoff = REG_RETRY_BASE_NS << (attempt - 1);
            if let Some(o) = self.obs_if_on() {
                let event = obs::Event::ChaosRetry {
                    attempt: attempt as u64,
                    backoff_ns: backoff,
                };
                o.span(obs::Layer::Chaos, node, me, sim.now(), backoff, event);
            }
            ch.note_retry();
            sim.advance(backoff);
            if attempt > 1 {
                self.evict_one_import(sim, node, protect, ch);
            }
            match f() {
                Ok(v) => {
                    if let Some(o) = self.obs_if_on() {
                        let kind = obs::EdgeKind::Recovery;
                        o.edge(kind, node, me, t_fail, node, me, sim.now(), attempt as u64);
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
        let fresh = self.state.lock().nodes[node.0 as usize]
            .imported
            .insert(region.0);
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
    /// and a replay sees exactly one wire outcome per attempt. Failures
    /// panic with their text.
    fn with_reimport<T>(
        &self,
        sim: &Sim,
        node: NodeId,
        what: &'static str,
        region: RegionId,
        mut op: impl FnMut() -> Result<T, VmmcError>,
    ) -> T {
        loop {
            match op() {
                Ok(v) => return v,
                Err(VmmcError::NotImported { .. }) if self.chaos_armed().is_some() => {
                    self.ensure_imported(sim, node, what, region, true)
                        .unwrap_or_else(|e| panic!("{e}"));
                }
                Err(e) => panic!("{}", ProtoError::Vmmc { what, source: e }),
            }
        }
    }

    /// Records a protocol instant on the calling thread's lane.
    fn proto_instant(&self, sim: &Sim, event: obs::Event) {
        if let Some(o) = self.obs_if_on() {
            o.instant(obs::Layer::Proto, sim.node(), sim.tid().0, sim.now(), event);
        }
    }

    /// Allocates `n` fresh frames on `node` for home copies. Invariant:
    /// reachable only on genuine physical-frame exhaustion (the workloads
    /// are sized within node memory and chaos never injects here), so a
    /// failure stays fatal.
    fn alloc_frames(&self, sim: &Sim, node: NodeId, n: u64, what: &str) -> Vec<FrameId> {
        let mem = &self.cluster.mem;
        let alloc = |_| {
            mem.alloc_frame(node)
                .unwrap_or_else(|e| panic!("{what} frame allocation failed: {e}"))
        };
        let frames = (0..n).map(alloc).collect();
        sim.advance(mem.config().frame_alloc_ns * n);
        frames
    }

    /// Registers home `frames` with the NIC: extends `extend`, or exports a
    /// new region (`what` holds the two failure texts).
    fn register(
        &self,
        sim: &Sim,
        node: NodeId,
        extend: Option<RegionId>,
        frames: &[FrameId],
        what: [&'static str; 2],
    ) -> RegionId {
        let vmmc = &self.cluster.vmmc;
        let region = match extend {
            Some(r) => self
                .reg_op(sim, node, what[0], Some(r), || {
                    vmmc.extend_region(r, frames.to_vec())
                })
                .map(|()| r),
            None => self.reg_op(sim, node, what[1], None, || {
                vmmc.export_region(node, frames.to_vec())
            }),
        };
        region.unwrap_or_else(|e| panic!("{e}"))
    }

    /// Publishes a directory change to the master (ACB owner).
    fn publish(&self, sim: &Sim, node: NodeId) {
        if node != self.master {
            let t = self.cluster.san.send(node, self.master, 64, sim.now());
            sim.clock_at_least(t.local_done);
        }
    }

    /// First touch: registers and maps the chunk's home frames here, then
    /// — past the ordering point — publishes the entry and grants.
    fn place_chunk(&self, sim: &Sim, page: PageNum, kind: FaultKind) {
        let node = sim.node();
        let gran = self.cfg.home_granularity_pages;
        let base = page.chunk_base(gran);
        let (mem, vmmc) = (&self.cluster.mem, &self.cluster.vmmc);
        let frames = self.alloc_frames(sim, node, gran, "home");
        let (extend, off) = self.state.lock().place(node, page);
        let what = match self.cfg.mode {
            ProtoMode::Cables => ["home region extension failed", "home region export failed"],
            ProtoMode::Base => ["run extension failed", OCEAN_REGIME],
        };
        let region = self.register(sim, node, extend, &frames, what);
        let nic = vmmc.config();
        sim.advance(extend.map_or(nic.register_op_ns, |_| nic.extend_op_ns));

        // In the base system every other node registers each newly
        // exported region with its NIC at creation time (paper §2.1.3:
        // "Every other node in the system registers the newly allocated
        // virtual memory region with the NIC") — this is what exhausts
        // NIC region entries on irregular placements (OCEAN, §3.4).
        if self.cfg.mode == ProtoMode::Base && extend.is_none() {
            for &other in self.cluster.nodes().iter().filter(|n| **n != node) {
                let import = || vmmc.import_region(other, region);
                let done = self.reg_op(sim, other, OCEAN_REGIME, Some(region), import);
                done.unwrap_or_else(|e| panic!("{e}"));
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
                let mapped = mem.map_chunk(node, base, &frames, Prot::None);
                mapped.expect("chunk-aligned mapping");
            }
            ProtoMode::Base => {
                for (i, f) in (base.index()..).zip(&frames) {
                    mem.map_page(node, PageNum::new(i), *f, Prot::None);
                }
            }
        }
        sim.advance(mem.config().map_op_ns);
        self.state.lock().placed(node, page, region, off);
        self.proto_instant(sim, obs::Event::Place { base: base.index() });
        sim.op_point(self.cfg.costs.placement_bookkeeping_ns);
        self.publish(sim, node);
        if kind == FaultKind::Write {
            self.state.lock().start_write_tracking(node, page.index());
        }
        self.grant(sim, page, kind);
    }

    /// Opens `page` on the faulting node for the faulting access and
    /// charges the OS protection change.
    fn grant(&self, sim: &Sim, page: PageNum, kind: FaultKind) {
        let prot = match kind {
            FaultKind::Read => Prot::Read,
            FaultKind::Write => Prot::ReadWrite,
        };
        self.protect(sim, page.index(), prot, "faulting page mapped");
    }

    /// Changes `page`'s protection on the calling node and charges it.
    fn protect(&self, sim: &Sim, page: u64, prot: Prot, mapped: &str) {
        let mem = &self.cluster.mem;
        mem.set_prot(sim.node(), PageNum::new(page), prot)
            .expect(mapped);
        sim.advance(mem.config().protect_ns);
    }

    /// Fetches a page copy from its remote home `region`.
    fn fetch_page(
        &self,
        sim: &Sim,
        page: PageNum,
        home: NodeId,
        region: RegionId,
        kind: FaultKind,
    ) {
        let node = sim.node();
        let mem = &self.cluster.mem;
        self.ensure_imported(
            sim,
            node,
            "region import failed (paper §3.4 regime)",
            region,
            false,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        // Local frame for the copy (normal page-granular OS paging).
        // Invariant: copies are evicted before node memory fills, so frame
        // exhaustion here is a simulator bug, not injectable pressure.
        let have_frame = mem.translate(node, page).is_some();
        if !have_frame {
            let f = mem
                .alloc_frame(node)
                .unwrap_or_else(|e| panic!("copy frame allocation failed: {e}"));
            mem.map_page(node, page, f, Prot::None);
            sim.advance(mem.config().frame_alloc_ns);
        }
        let decided = self.state.lock().fetch(node, page, kind, have_frame);
        let Fetch::Remote { off } = decided else {
            self.grant(sim, page, kind);
            return;
        };

        // Fetch the page contents from the home.
        let t_fetch = sim.now();
        let (data, done) = self.with_reimport(sim, node, "page fetch failed", region, || {
            self.cluster
                .vmmc
                .remote_fetch(node, region, off, PAGE_SIZE, sim.now())
        });
        sim.clock_at_least(done);
        if let (true, Some(o)) = (done > t_fetch, self.obs_if_on()) {
            // Self-lane causal edge: the fault issued the home fetch at
            // t_fetch and resumed at `done`, the fetch wait the
            // critical-path walk can cross.
            let (kind, me) = (obs::EdgeKind::PageFetch, sim.tid().0);
            o.edge(kind, node, me, t_fetch, node, me, done, page.index());
        }
        let (frame, _) = mem.translate(node, page).expect("just mapped");
        mem.frame_write(frame, 0, &data);
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
        self.state.lock().mark_dirty(node, addr, len);
    }

    /// Ships one page's diff: charges its build, writes the dirty words to
    /// a remote home — directly, or queued on `batches` for one
    /// multi-segment write per home — and records it. Returns when the last
    /// directly written run is visible at the home.
    fn ship(&self, sim: &Sim, d: &Diff, batches: &mut DiffBatches) -> SimTime {
        let node = sim.node();
        let mut arrival = SimTime::ZERO;
        let build = self.cfg.costs.diff_build_ns;
        if d.ship == Ship::Home {
            // Home writer: data already authoritative, just a notice.
            sim.advance(build / 4);
            return arrival;
        }
        sim.advance(if d.ship == Ship::Through { 500 } else { build });
        // The home region may have changed (migration) since we fetched
        // this page; import lazily like the fetch path.
        self.ensure_imported(sim, node, "region import failed", d.region, false)
            .unwrap_or_else(|e| panic!("{e}"));
        let mem = &self.cluster.mem;
        let (frame, _) = mem
            .translate(node, PageNum::new(d.page))
            .expect("dirty page mapped");
        let segs = d.runs.iter().map(|(w0, w1)| {
            let mut buf = vec![0u8; ((w1 - w0) * 8) as usize];
            mem.frame_read(frame, (w0 * 8) as usize, &mut buf);
            (d.off + w0 * 8, buf)
        });
        if d.ship == Ship::Batch {
            // Per-page build cost, trace and version bump stay exactly as
            // in the unbatched path; only the messaging is amortized.
            let key = (d.home.0, d.region.0);
            let entry = batches
                .entry(key)
                .or_insert_with(|| (Vec::new(), 0, sim.now()));
            entry.0.extend(segs);
            entry.1 += 1;
        } else {
            for (off, buf) in segs {
                let t = self.with_reimport(sim, node, "diff write failed", d.region, || {
                    self.cluster
                        .vmmc
                        .remote_write(node, d.region, off, &buf, sim.now())
                });
                if d.ship == Ship::Direct {
                    arrival = arrival.max(t.arrival);
                }
            }
        }
        let bytes = d.runs.iter().map(|r| (r.1 - r.0) * 8).sum();
        self.proto_instant(
            sim,
            obs::Event::Diff {
                page: d.page,
                bytes,
            },
        );
        arrival
    }

    /// Unmaps the calling node's invalidated copy of a page and records
    /// the instant.
    fn invalidate_copy(&self, sim: &Sim, page: u64) {
        let mem = &self.cluster.mem;
        mem.set_prot(sim.node(), PageNum::new(page), Prot::None)
            .expect("cached copy mapped");
        self.proto_instant(sim, obs::Event::Invalidate { page });
    }

    /// Release: flushes this node's dirty pages to their homes and
    /// publishes write notices. Called before every lock release and
    /// barrier arrival.
    pub fn release(&self, sim: &Sim) {
        let node = sim.node();
        let t0 = sim.now();
        sim.sync_point();
        let diffs = self.state.lock().release(node);
        if diffs.is_empty() {
            return;
        }
        let mut max_arrival = sim.now();
        // Diff batching: runs destined to the same home region accumulate
        // here and ship as one multi-segment write per home after the
        // loop. BTreeMap keeps the per-home issue order deterministic. The
        // SimTime is when the batch's first segment was posted: the NIC
        // streams the gather descriptor while the CPU diffs the remaining
        // pages (zero-copy gather DMA), so the wire transfer overlaps the
        // rest of the loop exactly as the unbatched per-run sends do.
        let mut batches = DiffBatches::new();
        for (d, stale) in &diffs {
            max_arrival = max_arrival.max(self.ship(sim, d, &mut batches));
            if *stale {
                // Concurrent remote releases interleaved since this copy
                // was fetched: drop it (the diff above is already on its
                // way home) and refetch a complete page on next touch.
                self.invalidate_copy(sim, d.page);
                sim.advance(self.cluster.mem.config().protect_ns);
            } else {
                // Downgrade to read-only so new writes are tracked again.
                self.protect(sim, d.page, Prot::Read, "dirty page mapped");
            }
        }
        // Ship the accumulated per-home batches: one multi-segment write
        // (one header, one fence contribution) per home instead of one
        // message per dirty run.
        for ((home, region), (mut segs, pages, t_first)) in batches {
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
            let bytes = merged.iter().map(|(_, b)| b.len() as u64).sum();
            let region = RegionId(region);
            let t_issue = sim.now();
            let t = self.with_reimport(sim, node, "batched diff write failed", region, || {
                let at = t_first.min(sim.now());
                self.cluster
                    .vmmc
                    .remote_write_multi(node, region, &merged, at)
            });
            max_arrival = max_arrival.max(t.arrival);
            if let Some(o) = self.obs_if_on() {
                let (me, now) = (sim.tid().0, sim.now());
                let event = obs::Event::DiffBatch { home, pages, bytes };
                o.instant(obs::Layer::Proto, node, me, now, event);
                if t.arrival > t_issue {
                    let kind = obs::EdgeKind::BatchDiff;
                    o.edge(kind, node, me, t_issue, node, me, t.arrival, home as u64);
                }
            }
        }
        // Release fence: diffs must be remotely visible.
        sim.clock_at_least(max_arrival);
        if let Some(o) = self.obs_if_on() {
            let dur = sim.now().saturating_since(t0);
            let diffs = diffs.iter().filter(|(d, _)| d.home != node).count() as u64;
            let event = obs::Event::ReleaseSpan { diffs };
            o.span(obs::Layer::Proto, node, sim.tid().0, t0, dur, event);
        }
    }

    /// Acquire: applies all write notices this node has not yet seen,
    /// invalidating stale copies (see [`crate::core::ProtoState::acquire`]).
    /// Called after every barrier departure and lock grant.
    pub fn acquire(&self, sim: &Sim) {
        let node = sim.node();
        let t0 = sim.now();
        let a = self.state.lock().acquire(node);
        for d in &a.flush {
            // The flushed words must be home before the copy goes — a
            // refetch racing the diff would resurrect the old words.
            let arrival = self.ship(sim, d, &mut DiffBatches::new());
            sim.clock_at_least(arrival);
        }
        for page in &a.invalidate {
            self.invalidate_copy(sim, *page);
        }
        if a.applied {
            let invals = a.invalidate.len() as u64;
            sim.advance(self.cfg.costs.notice_apply_ns * invals.max(1));
            if let Some(o) = self.obs_if_on() {
                let dur = sim.now().saturating_since(t0);
                let event = obs::Event::AcquireSpan { invals };
                o.span(obs::Layer::Proto, node, sim.tid().0, t0, dur, event);
            }
        }
    }

    /// Migrates the home of the chunk holding `addr` to the calling node
    /// (CableS mode; the paper's mechanism, §2.1.3, with no policy
    /// deciding when): its new home frames extend the node's home region,
    /// each page's current contents are pulled over and the move is
    /// published. `false`, with nothing done, when the chunk is unplaced
    /// or already homed here, a local copy in it is stale, or another
    /// node holds unflushed writes in it.
    pub fn migrate_home(&self, sim: &Sim, addr: GAddr) -> bool {
        sim.sync_point();
        let base = addr.page().chunk_base(self.cfg.home_granularity_pages);
        let Some(m) = self.state.lock().migrate(sim.node(), base) else {
            return false;
        };
        self.migrate_chunk(sim, m);
        true
    }

    /// Performs a migration of a chunk to the calling node: new home
    /// frames in its home region, current contents pulled over, the chunk
    /// remapped locally, then — past the ordering point — published.
    fn migrate_chunk(&self, sim: &Sim, m: Migrate) {
        let node = sim.node();
        let mem = &self.cluster.mem;
        let gran = self.cfg.home_granularity_pages;
        // Invariant: migration targets the node's own memory, which the
        // workloads never exhaust — a failure here is fatal.
        let frames = self.alloc_frames(sim, node, gran, "migration");
        let what = [
            "migration region extension failed",
            "migration region export failed",
        ];
        let region = self.register(sim, node, m.extend, &frames, what);
        sim.advance(self.cluster.vmmc.config().extend_op_ns);
        for (pull, &new_frame) in m.pulls.iter().zip(&frames) {
            let page = PageNum::new(pull.page);
            let local = pull
                .prefer_local
                .then(|| mem.translate(node, page))
                .flatten();
            match (local, pull.from) {
                (Some((f, _)), _) => mem.copy_frame(f, new_frame),
                (None, Some((old, off))) => {
                    // A node may take a chunk it never touched.
                    self.ensure_imported(sim, node, "migration import failed", old, false)
                        .unwrap_or_else(|e| panic!("{e}"));
                    let (data, done) =
                        self.with_reimport(sim, node, "migration fetch failed", old, || {
                            self.cluster
                                .vmmc
                                .remote_fetch(node, old, off, PAGE_SIZE, sim.now())
                        });
                    sim.clock_at_least(done);
                    mem.frame_write(new_frame, 0, &data);
                }
                (None, None) => {}
            }
        }
        let mapped = mem.map_chunk(node, m.base, &frames, Prot::None);
        mapped.expect("chunk-aligned migration mapping");
        sim.advance(mem.config().map_op_ns);
        self.state.lock().migrated(node, m.base, region, m.off);
        self.proto_instant(
            sim,
            obs::Event::Migrate {
                base: m.base.index(),
            },
        );
        sim.op_point(self.cfg.costs.placement_bookkeeping_ns);
        self.publish(sim, node);
    }
}

/// The base system's registration failure text (paper §3.4).
const OCEAN_REGIME: &str = "registration failed (paper §3.4 OCEAN regime)";

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
