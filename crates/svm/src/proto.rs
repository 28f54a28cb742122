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
//! Every step here is decide → perform → commit: borrow the directory, run
//! one core transition, end the borrow, then perform the effects it
//! returned — frame allocation and mapping, NIC registration, fetches and
//! writes, protection changes — charging simulated time exactly where the
//! protocol spends it and emitting every obs event. The interpreter is
//! written once, generic over [`Effects`], and runs on two effect sets:
//! the simulated cluster ([`Real`], a `sim::Local` directory borrow,
//! `memsim` and `vmmc`) and the small-scope explorer's in-memory model.
//! Both implement state only — memory, NIC and data; every time, wire and
//! obs effect has one body, written through [`SyncEffects::real`], that
//! does nothing in the explorer. NIC-registration recovery (`reg_op`,
//! `with_reimport`) is the real set's. Borrow
//! discipline: the directory borrow is never held across an effect, a
//! scheduling point or another borrow of this crate; a second borrow while
//! one is live panics.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use chaos::ChaosEngine;
use memsim::cost as os;
use memsim::{Fault, FaultKind, FrameId, GAddr, PageNum, Prot, Scalar, PAGE_SIZE};
use obs::Layer::Proto;
use sim::{NodeId, Sim, SimTime};
use vmmc::cost as nic;
use vmmc::{RegionId, VmmcError};

use crate::api::SvmSystem;
use crate::config::{cost, ProtoMode};
use crate::core::{Diff, Fetch, Migrate, Route, Ship};
use crate::sync::{Real, SyncEffects};

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

/// Everything the page interpreter does outside [`ProtoState`], for one
/// thread of [`Effects::node`]: the node's memory, NIC and data. Statically
/// dispatched, so the real set compiles to the calls the interpreter made
/// before it was generic. Time, the wire and obs are [`SyncEffects`]'
/// (written through [`SyncEffects::real`]; an OS or NIC cost is a constant
/// the interpreter advances by); the explorer's model keeps no NIC import
/// table, so the imports are [`Real`]'s only.
pub(crate) trait Effects: SyncEffects {
    // The node's memory and NIC.
    fn translate(&self, page: PageNum) -> Option<(FrameId, Prot)>;
    fn alloc_frame(&mut self, what: &str) -> FrameId;
    /// Registers home `frames`: extends `extend`, or exports a new region
    /// (`what` holds the two failure texts), and charges the NIC for it.
    fn register(
        &mut self,
        extend: Option<RegionId>,
        frames: &[FrameId],
        what: [&'static str; 2],
    ) -> RegionId;
    /// Maps `frames` inaccessible from `base` on: as one OS chunk (which
    /// fails with `chunk`), else page by page.
    fn map(&mut self, base: PageNum, frames: &[FrameId], chunk: Option<&str>);
    fn set_prot(&mut self, page: u64, prot: Prot, mapped: &str);
    /// Makes the copy of `page` inaccessible; the simulator also drops its
    /// stale bytes (the frame is dead until the next fetch lands).
    fn invalidate(&mut self, page: u64, mapped: &str) {
        self.set_prot(page, Prot::None, mapped);
    }
    /// Imports `region` into this node's NIC, once.
    fn import(&self, _region: RegionId, _what: &'static str) {}
    /// Imports a newly exported `region` into every other node's NIC.
    fn import_everywhere(&self, _region: RegionId) {}

    // Data: frame copies here, pages from and diff runs to a home; the
    // transfers return when they are complete at their destination.
    fn copy_frame(&mut self, from: FrameId, to: FrameId);
    fn read(&self, frame: FrameId, off: u64, len: u64) -> Vec<u8>;
    /// Lands the page at `off` of `region` in `to`: sharing the home's
    /// bytes until either side writes (`share`, a page read next), else
    /// as a private copy.
    fn fetch(
        &mut self,
        region: RegionId,
        off: u64,
        to: FrameId,
        share: bool,
        what: &'static str,
    ) -> SimTime;
    fn write(&mut self, region: RegionId, off: u64, data: &[u8]) -> SimTime;
    /// One multi-segment write, its first segment posted at `first`.
    fn write_batch(&mut self, region: RegionId, segs: &[(u64, Vec<u8>)], first: SimTime)
        -> SimTime;
}

/// The simulated cluster's page effects; NIC-registration recovery lives
/// here.
impl Effects for Real<'_> {
    fn translate(&self, page: PageNum) -> Option<(FrameId, Prot)> {
        self.sys.cluster.mem.translate(self.sim.node(), page)
    }

    /// Invariant: reachable only on genuine physical-frame exhaustion (the
    /// workloads are sized within node memory, copies are evicted before
    /// it fills, and chaos never injects here), so a failure stays fatal.
    fn alloc_frame(&mut self, what: &str) -> FrameId {
        let frame = self.sys.cluster.mem.alloc_frame(self.sim.node());
        frame.unwrap_or_else(|e| panic!("{what} frame allocation failed: {e}"))
    }

    fn register(
        &mut self,
        extend: Option<RegionId>,
        frames: &[FrameId],
        what: [&'static str; 2],
    ) -> RegionId {
        let (vmmc, node) = (&self.sys.cluster.vmmc, self.sim.node());
        let region = match extend {
            Some(r) => {
                self.reg_op(node, what[0], Some(r), || {
                    vmmc.extend_region(r, frames.to_vec())
                });
                r
            }
            None => self.reg_op(node, what[1], None, || {
                vmmc.export_region(node, frames.to_vec())
            }),
        };
        self.sim
            .advance(extend.map_or(nic::REGISTER_OP_NS, |_| nic::EXTEND_OP_NS));
        region
    }

    fn map(&mut self, base: PageNum, frames: &[FrameId], chunk: Option<&str>) {
        let (mem, node) = (&self.sys.cluster.mem, self.sim.node());
        match chunk {
            Some(what) => mem.map_chunk(node, base, frames, Prot::None).expect(what),
            None => {
                for (i, f) in (base.index()..).zip(frames) {
                    mem.map_page(node, PageNum::new(i), *f, Prot::None);
                }
            }
        }
    }

    fn set_prot(&mut self, page: u64, prot: Prot, mapped: &str) {
        let mem = &self.sys.cluster.mem;
        mem.set_prot(self.sim.node(), PageNum::new(page), prot)
            .expect(mapped);
    }

    fn invalidate(&mut self, page: u64, mapped: &str) {
        let mem = &self.sys.cluster.mem;
        mem.invalidate(self.sim.node(), PageNum::new(page))
            .expect(mapped);
    }

    fn import(&self, region: RegionId, what: &'static str) {
        self.ensure_imported(what, region, false);
    }

    fn import_everywhere(&self, region: RegionId) {
        let (vmmc, node) = (&self.sys.cluster.vmmc, self.sim.node());
        for &other in self.sys.cluster.nodes().iter().filter(|n| **n != node) {
            let import = || vmmc.import_region(other, region);
            self.reg_op(other, OCEAN_REGIME, Some(region), import);
        }
    }

    fn copy_frame(&mut self, from: FrameId, to: FrameId) {
        self.sys.cluster.mem.copy_frame(from, to);
    }

    fn read(&self, frame: FrameId, off: u64, len: u64) -> Vec<u8> {
        let (mem, mut buf) = (&self.sys.cluster.mem, vec![0u8; len as usize]);
        mem.frame_read(frame, off as usize, &mut buf);
        buf
    }

    fn fetch(
        &mut self,
        region: RegionId,
        off: u64,
        to: FrameId,
        share: bool,
        what: &'static str,
    ) -> SimTime {
        let (vmmc, sim) = (&self.sys.cluster.vmmc, self.sim);
        self.with_reimport(what, region, || {
            vmmc.remote_fetch_page(sim.node(), region, off, to, share, sim.now())
        })
    }

    fn write(&mut self, region: RegionId, off: u64, data: &[u8]) -> SimTime {
        let (vmmc, sim) = (&self.sys.cluster.vmmc, self.sim);
        let t = self.with_reimport("diff write failed", region, || {
            vmmc.remote_write(sim.node(), region, off, data, sim.now())
        });
        t.arrival
    }

    fn write_batch(
        &mut self,
        region: RegionId,
        segs: &[(u64, Vec<u8>)],
        first: SimTime,
    ) -> SimTime {
        let (vmmc, sim) = (&self.sys.cluster.vmmc, self.sim);
        let t = self.with_reimport("batched diff write failed", region, || {
            vmmc.remote_write_multi(sim.node(), region, segs, first.min(sim.now()))
        });
        t.arrival
    }
}

impl Real<'_> {
    /// The attached chaos engine, when it can inject anything at all.
    #[inline]
    fn chaos_armed(&self) -> Option<&ChaosEngine> {
        match self.sys.cluster.chaos() {
            Some(c) if c.armed() => Some(c),
            _ => None,
        }
    }

    /// Evicts one cold imported region from `node`'s NIC to free a
    /// registration slot (never `protect`, which the caller is using).
    /// The victim is the lowest-numbered import so replay is
    /// deterministic.
    fn evict_one_import(&self, node: NodeId, protect: Option<RegionId>, ch: &ChaosEngine) {
        let victim = {
            let mut st = self.sys.state.lock();
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
        let _ = self
            .sys
            .cluster
            .vmmc
            .unimport_region(node, RegionId(victim));
        ch.note_eviction();
        let event = obs::Event::ChaosEvict { region: victim };
        self.instant(obs::Layer::Chaos, node, event);
    }

    /// Runs a registration-class VMMC operation of `node` with recovery;
    /// a failure panics with its [`ProtoError`] text.
    ///
    /// Without chaos the operation runs exactly once (legacy §3.4
    /// semantics). With chaos armed the operation is retried with
    /// exponential backoff, evicting one cold import per retry after the
    /// first, so transient (injected) NIC pressure degrades the run
    /// instead of killing it.
    fn reg_op<T>(
        &self,
        node: NodeId,
        what: &'static str,
        protect: Option<RegionId>,
        mut f: impl FnMut() -> Result<T, VmmcError>,
    ) -> T {
        let first = match f() {
            Ok(v) => return v,
            Err(e) => e,
        };
        let Some(ch) = self.chaos_armed() else {
            panic!(
                "{}",
                ProtoError::Vmmc {
                    what,
                    source: first
                }
            );
        };
        let (sim, t_fail) = (self.sim, self.sim.now());
        let event = obs::Event::ChaosResourceFault { op: what };
        self.instant(obs::Layer::Chaos, node, event);
        let mut last = first;
        for attempt in 1..=REG_RETRY_ATTEMPTS {
            let backoff = REG_RETRY_BASE_NS << (attempt - 1);
            if let Some((o, me)) = self.obs() {
                let event = obs::Event::ChaosRetry {
                    attempt: attempt as u64,
                    backoff_ns: backoff,
                };
                o.span(obs::Layer::Chaos, node, me, sim.now(), backoff, event);
            }
            ch.note_retry();
            sim.advance(backoff);
            if attempt > 1 {
                self.evict_one_import(node, protect, ch);
            }
            match f() {
                Ok(v) => {
                    let (from, to) = ((node, None, t_fail), (node, None, sim.now()));
                    self.edge(obs::EdgeKind::Recovery, from, to, attempt as u64);
                    return v;
                }
                Err(e) => last = e,
            }
        }
        let attempts = REG_RETRY_ATTEMPTS;
        panic!(
            "{}",
            ProtoError::Exhausted {
                what,
                attempts,
                last
            }
        )
    }

    /// Makes sure `region` is imported into this node's NIC before a
    /// remote operation on it: a no-op once the bookkeeping has seen the
    /// region, unless `force` says the NIC disagrees (the import was
    /// evicted).
    fn ensure_imported(&self, what: &'static str, region: RegionId, force: bool) {
        let node = self.sim.node();
        let fresh = self.sys.state.lock().nodes[node.0 as usize]
            .imported
            .insert(region.0);
        if fresh || force {
            let vmmc = &self.sys.cluster.vmmc;
            self.reg_op(node, what, Some(region), || {
                vmmc.import_region(node, region)
            });
            self.sim.advance(nic::IMPORT_OP_NS);
        }
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
        what: &'static str,
        region: RegionId,
        mut op: impl FnMut() -> Result<T, VmmcError>,
    ) -> T {
        loop {
            match op() {
                Ok(v) => return v,
                Err(VmmcError::NotImported { .. }) if self.chaos_armed().is_some() => {
                    self.ensure_imported(what, region, true);
                }
                Err(e) => panic!("{}", ProtoError::Vmmc { what, source: e }),
            }
        }
    }
}

impl SvmSystem {
    /// Release: flushes this node's dirty pages to their homes and
    /// publishes write notices. Called before every lock release and
    /// barrier arrival.
    pub fn release(&self, sim: &Sim) {
        release(&mut self.at(sim));
    }

    /// Acquire: applies all write notices this node has not yet seen,
    /// invalidating stale copies (see [`crate::core::ProtoState::acquire`]).
    /// Called after every barrier departure and lock grant.
    pub fn acquire(&self, sim: &Sim) {
        acquire(&mut self.at(sim));
    }

    /// Migrates the home of the chunk holding `addr` to the calling node
    /// (CableS mode; the paper's mechanism, §2.1.3, with no policy
    /// deciding when): its new home frames extend the node's home region,
    /// each page's current contents are pulled over and the move is
    /// published. `false`, with nothing done, when the chunk is unplaced
    /// or already homed here, a local copy in it is stale, or another
    /// node holds unflushed writes in it.
    pub fn migrate_home(&self, sim: &Sim, addr: GAddr) -> bool {
        migrate_home(&mut self.at(sim), addr)
    }
}

/// Handles a page fault: placement on first touch, page fetch from a
/// remote home, or a write upgrade.
///
/// # Panics
///
/// Panics if a NIC registration limit is exceeded — this mirrors the
/// paper's base system failing to run OCEAN on 32 processors; the
/// benchmark harness reports such runs as failed.
pub(crate) fn handle_fault<E: Effects>(e: &mut E, page: PageNum, kind: FaultKind) {
    let (node, t0) = (e.node(), e.entry());
    // OS fault entry + protocol handler, ordered against other ops.
    e.advance(os::FAULT_OVERHEAD_NS);
    e.op_point(cost::FAULT_HANDLER_NS);

    let prot = e.translate(page).map(|(_, p)| p);
    let step = e.with_proto(|c| c.fault(node, page, kind, prot));
    let Some((remote_lookup, route)) = step else {
        return;
    };
    let write = kind == FaultKind::Write;
    let event = obs::Event::Fault {
        page: page.index(),
        write,
    };
    e.instant(Proto, node, event);
    if remote_lookup {
        // The directory entry, read on the master.
        e.fetch_master(32);
    }
    e.advance(1_000);
    match route {
        Route::Place => place_chunk(e, page, kind),
        Route::Home => grant(e, page, kind),
        Route::Remote { home, region } => fetch_page(e, page, home, region, kind),
    }
    e.span(Proto, t0, || obs::Event::FaultSpan {
        page: page.index(),
        write,
    });
}

/// Allocates `n` fresh frames on the calling node for home copies.
fn alloc_frames<E: Effects>(e: &mut E, n: u64, what: &str) -> Vec<FrameId> {
    let frames = (0..n).map(|_| e.alloc_frame(what)).collect();
    e.advance(os::FRAME_ALLOC_NS * n);
    frames
}

/// First touch: registers and maps the chunk's home frames here, then
/// — past the ordering point — publishes the entry and grants.
fn place_chunk<E: Effects>(e: &mut E, page: PageNum, kind: FaultKind) {
    let node = e.node();
    let (mode, gran) = (e.cfg().mode, e.cfg().home_granularity_pages);
    let base = page.chunk_base(gran);
    let frames = alloc_frames(e, gran, "home");
    let (extend, off) = e.with_proto(|c| c.place(node, page));
    let what = match mode {
        ProtoMode::Cables => ["home region extension failed", "home region export failed"],
        ProtoMode::Base => ["run extension failed", OCEAN_REGIME],
    };
    let region = e.register(extend, &frames, what);

    // In the base system every other node registers each newly
    // exported region with its NIC at creation time (paper §2.1.3:
    // "Every other node in the system registers the newly allocated
    // virtual memory region with the NIC") — this is what exhausts
    // NIC region entries on irregular placements (OCEAN, §3.4).
    if mode == ProtoMode::Base && extend.is_none() {
        e.import_everywhere(region);
        // Announce the new region to the cluster.
        e.send_master(32);
    }

    // Map the chunk into the application address space. All pages
    // start inaccessible so later first touches are observable.
    let chunk = (mode == ProtoMode::Cables).then_some("chunk-aligned mapping");
    e.map(base, &frames, chunk);
    e.advance(os::MAP_OP_NS);
    e.with_proto(|c| c.placed(node, page, region, off));
    e.instant(Proto, node, obs::Event::Place { base: base.index() });
    e.op_point(cost::PLACEMENT_BOOKKEEPING_NS);
    // Publish the directory change to the master.
    e.send_master(64);
    if kind == FaultKind::Write {
        e.with_proto(|c| c.start_write_tracking(node, page.index()));
    }
    grant(e, page, kind);
}

/// Opens `page` on the faulting node for the faulting access and
/// charges the OS protection change.
fn grant<E: Effects>(e: &mut E, page: PageNum, kind: FaultKind) {
    let prot = match kind {
        FaultKind::Read => Prot::Read,
        FaultKind::Write => Prot::ReadWrite,
    };
    protect(e, page.index(), prot, "faulting page mapped");
}

/// Changes `page`'s protection on the calling node and charges it.
fn protect<E: Effects>(e: &mut E, page: u64, prot: Prot, mapped: &str) {
    e.set_prot(page, prot, mapped);
    e.advance(os::PROTECT_NS);
}

/// Fetches a page copy from its remote home `region`.
fn fetch_page<E: Effects>(
    e: &mut E,
    page: PageNum,
    home: NodeId,
    region: RegionId,
    kind: FaultKind,
) {
    let node = e.node();
    e.import(region, "region import failed (paper §3.4 regime)");
    // Local frame for the copy (normal page-granular OS paging).
    let have_frame = e.translate(page).is_some();
    if !have_frame {
        let f = e.alloc_frame("copy");
        e.map(page, &[f], None);
        e.advance(os::FRAME_ALLOC_NS);
    }
    let decided = e.with_proto(|c| c.fetch(node, page, kind, have_frame));
    let Fetch::Remote { off } = decided else {
        grant(e, page, kind);
        return;
    };

    // Fetch the page contents from the home: a read shares the home's
    // bytes, a write lands a private copy it is about to write.
    let (frame, _) = e.translate(page).expect("just mapped");
    let t_fetch = e.now();
    let share = kind == FaultKind::Read;
    let done = e.fetch(region, off, frame, share, "page fetch failed");
    e.clock_at_least(done);
    if done > t_fetch {
        let (from, to) = ((node, None, t_fetch), (node, None, done));
        e.edge(obs::EdgeKind::PageFetch, from, to, page.index());
    }
    let (page_no, home) = (page.index(), home.0);
    e.instant(
        Proto,
        node,
        obs::Event::Fetch {
            page: page_no,
            home,
        },
    );
    grant(e, page, kind);
}

/// Ships one page's diff: charges its build, writes the dirty words to
/// a remote home — directly, or queued on `batches` for one
/// multi-segment write per home — and records it. Returns when the last
/// directly written run is visible at the home.
fn ship<E: Effects>(e: &mut E, d: &Diff, batches: &mut DiffBatches) -> SimTime {
    let mut arrival = SimTime::ZERO;
    let build = cost::DIFF_BUILD_NS;
    if d.ship == Ship::Home {
        // Home writer: data already authoritative, just a notice.
        e.advance(build / 4);
        return arrival;
    }
    e.advance(if d.ship == Ship::Through { 500 } else { build });
    // The home region may have changed (migration) since we fetched
    // this page; import lazily like the fetch path.
    e.import(d.region, "region import failed");
    let (frame, _) = e
        .translate(PageNum::new(d.page))
        .expect("dirty page mapped");
    // One dirty run as a `(home offset, bytes)` segment.
    let seg = |e: &E, &(w0, w1): &(u64, u64)| {
        let bytes = e.read(frame, w0 * 8, (w1 - w0) * 8);
        (d.off + w0 * 8, bytes)
    };
    if d.ship == Ship::Batch {
        // Per-page build cost, trace and version bump stay exactly as
        // in the unbatched path; only the messaging is amortized.
        let key = (d.home.0, d.region.0);
        let entry = batches
            .entry(key)
            .or_insert_with(|| (Vec::new(), 0, e.now()));
        entry.0.extend(d.runs.iter().map(|r| seg(e, r)));
        entry.1 += 1;
    } else {
        for r in &d.runs {
            let (off, buf) = seg(e, r);
            let t = e.write(d.region, off, &buf);
            if d.ship == Ship::Direct {
                arrival = arrival.max(t);
            }
        }
    }
    let bytes = d.runs.iter().map(|r| (r.1 - r.0) * 8).sum();
    e.instant(
        Proto,
        e.node(),
        obs::Event::Diff {
            page: d.page,
            bytes,
        },
    );
    arrival
}

/// Invalidates the calling node's copy of a page and records the
/// instant.
fn invalidate_copy<E: Effects>(e: &mut E, page: u64) {
    e.invalidate(page, "cached copy mapped");
    e.instant(Proto, e.node(), obs::Event::Invalidate { page });
}

/// Release: flushes the calling node's dirty pages to their homes and
/// publishes write notices.
pub(crate) fn release<E: Effects>(e: &mut E) {
    let node = e.node();
    let t0 = e.now();
    e.op_point(0);
    let diffs = e.with_proto(|c| c.release(node));
    if diffs.is_empty() {
        return;
    }
    let mut max_arrival = e.now();
    // Diff batching: runs destined to the same home region accumulate
    // here and ship as one multi-segment write per home after the
    // loop. BTreeMap keeps the per-home issue order deterministic. The
    // SimTime is when the batch's first segment was posted: the NIC
    // streams the gather descriptor while the CPU diffs the remaining
    // pages (zero-copy gather DMA), so the wire transfer overlaps the
    // rest of the loop exactly as the unbatched per-run sends do.
    let mut batches = DiffBatches::new();
    for (d, stale) in &diffs {
        max_arrival = max_arrival.max(ship(e, d, &mut batches));
        if *stale {
            // Concurrent remote releases interleaved since this copy
            // was fetched: drop it (the diff above is already on its
            // way home) and refetch a complete page on next touch.
            invalidate_copy(e, d.page);
            e.advance(os::PROTECT_NS);
        } else {
            // Downgrade to read-only so new writes are tracked again.
            protect(e, d.page, Prot::Read, "dirty page mapped");
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
        let t_issue = e.now();
        let arrival = e.write_batch(RegionId(region), &merged, t_first);
        max_arrival = max_arrival.max(arrival);
        e.instant(Proto, node, obs::Event::DiffBatch { home, pages, bytes });
        if arrival > t_issue {
            let (from, to) = ((node, None, t_issue), (node, None, arrival));
            e.edge(obs::EdgeKind::BatchDiff, from, to, home as u64);
        }
    }
    // Release fence: diffs must be remotely visible.
    e.clock_at_least(max_arrival);
    e.span(Proto, t0, || {
        let diffs = diffs.iter().filter(|(d, _)| d.home != node).count() as u64;
        obs::Event::ReleaseSpan { diffs }
    });
}

/// Acquire: applies all write notices the calling node has not yet seen.
pub(crate) fn acquire<E: Effects>(e: &mut E) {
    let node = e.node();
    let t0 = e.now();
    let a = e.with_proto(|c| c.acquire(node));
    for d in &a.flush {
        // The flushed words must be home before the copy goes — a
        // refetch racing the diff would resurrect the old words.
        let arrival = ship(e, d, &mut DiffBatches::new());
        e.clock_at_least(arrival);
    }
    for page in &a.invalidate {
        invalidate_copy(e, *page);
    }
    if a.applied {
        let invals = a.invalidate.len() as u64;
        e.advance(cost::NOTICE_APPLY_NS * invals.max(1));
        e.span(Proto, t0, || obs::Event::AcquireSpan { invals });
    }
}

/// Migrates the home of the chunk holding `addr` to the calling node, if
/// the core allows it now.
pub(crate) fn migrate_home<E: Effects>(e: &mut E, addr: GAddr) -> bool {
    e.op_point(0);
    let (node, base) = (
        e.node(),
        addr.page().chunk_base(e.cfg().home_granularity_pages),
    );
    let Some(m) = e.with_proto(|c| c.migrate(node, base)) else {
        return false;
    };
    migrate_chunk(e, m);
    true
}

/// Performs a migration of a chunk to the calling node: new home
/// frames in its home region, current contents pulled over, the chunk
/// remapped locally, then — past the ordering point — published.
fn migrate_chunk<E: Effects>(e: &mut E, m: Migrate) {
    let node = e.node();
    let gran = e.cfg().home_granularity_pages;
    let frames = alloc_frames(e, gran, "migration");
    let what = [
        "migration region extension failed",
        "migration region export failed",
    ];
    let region = e.register(m.extend, &frames, what);
    for (pull, &new_frame) in m.pulls.iter().zip(&frames) {
        let page = PageNum::new(pull.page);
        let local = pull.prefer_local.then(|| e.translate(page)).flatten();
        match (local, pull.from) {
            (Some((f, _)), _) => e.copy_frame(f, new_frame),
            (None, Some((old, off))) => {
                // A node may take a chunk it never touched.
                e.import(old, "migration import failed");
                let done = e.fetch(old, off, new_frame, false, "migration fetch failed");
                e.clock_at_least(done);
            }
            (None, None) => {}
        }
    }
    e.map(m.base, &frames, Some("chunk-aligned migration mapping"));
    e.advance(os::MAP_OP_NS);
    e.with_proto(|c| c.migrated(node, m.base, region, m.off));
    e.instant(
        Proto,
        node,
        obs::Event::Migrate {
            base: m.base.index(),
        },
    );
    e.op_point(cost::PLACEMENT_BOOKKEEPING_NS);
    e.send_master(64);
}

/// The base system's registration failure text (paper §3.4).
const OCEAN_REGIME: &str = "registration failed (paper §3.4 OCEAN regime)";

/// Typed read/write entry points live on [`SvmSystem`]; see `api.rs`.
impl SvmSystem {
    /// Reads a scalar from the shared address space, faulting into the
    /// protocol as needed.
    pub fn read<T: Scalar>(&self, sim: &Sim, addr: GAddr) -> T {
        self.crash_check(sim);
        sim.advance(cost::ACCESS_CHECK_NS);
        loop {
            match self.cluster.mem.read_scalar::<T>(sim.node(), addr) {
                Ok(v) => return v,
                Err(f) => handle_fault(&mut self.at(sim), f.page, f.kind),
            }
        }
    }

    /// Writes a scalar to the shared address space, faulting into the
    /// protocol as needed; the touched words become part of the next
    /// release's diff.
    pub fn write<T: Scalar>(&self, sim: &Sim, addr: GAddr, v: T) {
        self.crash_check(sim);
        sim.advance(cost::ACCESS_CHECK_NS);
        loop {
            match self.cluster.mem.write_scalar::<T>(sim.node(), addr, v) {
                Ok(()) => {
                    self.state
                        .lock()
                        .mark_dirty(sim.node(), addr, T::SIZE as u64);
                    return;
                }
                Err(f) => handle_fault(&mut self.at(sim), f.page, f.kind),
            }
        }
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
        let (mem, node, size) = (&self.cluster.mem, sim.node(), T::SIZE);
        self.page_runs::<T>(sim, addr, out.len() * size, false, |at, r| {
            mem.read_scalar_run(node, at, &mut out[r.start / size..r.end / size])
        });
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
        let (mem, node, size) = (&self.cluster.mem, sim.node(), T::SIZE);
        self.page_runs::<T>(sim, addr, data.len() * size, true, |at, r| {
            mem.write_scalar_run(node, at, &data[r.start / size..r.end / size])
        });
    }

    /// Writes `count` copies of `v` starting at `addr` — the bulk
    /// equivalent of a `for i in 0..count { write(addr + i*size, v) }`
    /// initialization loop.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not aligned to `T`'s size.
    pub fn fill<T: Scalar>(&self, sim: &Sim, addr: GAddr, v: T, count: usize) {
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
        let (mem, node) = (&self.cluster.mem, sim.node());
        self.page_runs::<T>(sim, addr, count * T::SIZE, true, |at, r| {
            let done = if uniform {
                mem.fill_page_run(node, at, pat[0], r.len())
            } else {
                mem.write_page_run(node, at, &buf[..r.len()])
            };
            done.map(drop)
        });
    }

    /// A bulk access of `total` bytes at `addr`, one page run at a time:
    /// one access check is charged before each run, so a fault is charged
    /// exactly as the scalar path charges it; `run(address, byte range)`
    /// is retried through the fault handler until the mapping allows it;
    /// a write marks the run's words dirty; the run's other `k - 1` checks
    /// follow.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not aligned to `T`'s size.
    fn page_runs<T: Scalar>(
        &self,
        sim: &Sim,
        addr: GAddr,
        total: usize,
        write: bool,
        mut run: impl FnMut(GAddr, Range<usize>) -> Result<(), Fault>,
    ) {
        self.crash_check(sim);
        assert_eq!(
            addr.raw() % T::SIZE as u64,
            0,
            "bulk access must be aligned to the element size ({} bytes)",
            T::SIZE
        );
        let a = cost::ACCESS_CHECK_NS;
        let mut off = 0usize;
        while off < total {
            let run_addr = addr + off as u64;
            let n = (total - off).min((PAGE_SIZE - run_addr.page_offset()) as usize);
            sim.advance(a);
            while let Err(f) = run(run_addr, off..off + n) {
                handle_fault(&mut self.at(sim), f.page, f.kind);
            }
            if write {
                self.state.lock().mark_dirty(sim.node(), run_addr, n as u64);
            }
            sim.advance((n / T::SIZE - 1) as u64 * a);
            off += n;
        }
    }
}
