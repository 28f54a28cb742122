//! The page protocol's decisions, as a sans-I/O state machine.
//!
//! [`ProtoState`] is the protocol's whole directory: homes, versions,
//! per-node copies with their dirty-word bitmaps, the write-notice log,
//! home regions and the event counters. Its transitions are plain
//! `&mut self` methods that take (node, page, access kind, the facts the
//! interpreter observed) and return what must happen next: a [`Route`]
//! or [`Fetch`] for a fault, a registration for a placement or a
//! [`Migrate`] plan, [`Diff`]s to ship, an [`Acquire`]'s flushes and
//! invalidations. Nothing here charges time, moves bytes or records an
//! event; `proto.rs` performs every effect, in order, and is the only
//! interpreter: the small-scope explorer runs it too, on an in-memory
//! model.
//!
//! Each transition commits its bookkeeping when it decides: no transition
//! spans a scheduling point, so nothing else runs between a decision and
//! its effects. A placement and a migration are therefore two
//! transitions each, one on either side of their ordering point.
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

use std::collections::BTreeSet;

use memsim::{FaultKind, GAddr, PageNum, Prot, PAGE_SIZE};
use sim::{IdMap, IdSet, NodeId, SimTime, Tid};
use vmmc::RegionId;

use crate::config::{cost, ProtoMode, SvmConfig};
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

#[derive(Debug, Clone)]
pub(crate) struct PageDir {
    pub home: NodeId,
    pub version: u64,
    pub region: RegionId,
    pub region_off: u64,
    pub first_writer: Option<NodeId>,
    pub multi_writer: bool,
}

#[derive(Debug, Clone, Default)]
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
    /// Chunks whose home migrated to this node.
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
}

#[derive(Debug, Default, Clone)]
pub(crate) struct NodeProto {
    pub copies: IdMap<u64, CopyState>,
    pub dirty_pages: Vec<u64>,
    pub seg_cache: IdSet<u64>,
    pub imported: IdSet<u64>,
    pub log_cursor: usize,
    pub stats: NodeStats,
}

impl NodeProto {
    /// This node's copy of `page`, created clean at version 0 if absent.
    fn copy(&mut self, page: u64) -> &mut CopyState {
        self.copies.entry(page).or_default()
    }
}

#[derive(Debug, Clone)]
#[doc(hidden)]
pub struct ProtoState {
    pub(crate) cfg: SvmConfig,
    pub(crate) master: NodeId,
    pub(crate) dir: IdMap<u64, PageDir>,
    pub(crate) nodes: Vec<NodeProto>,
    /// Global interval log of write notices `(page, version)`.
    pub(crate) log: Vec<(u64, u64)>,
    /// CableS mode: the single growing home region per node, with its
    /// current length in bytes.
    pub(crate) home_region: Vec<Option<(RegionId, u64)>>,
    pub(crate) first_toucher: IdMap<u64, NodeId>,
    /// Demand fetches each node has served as home — the thread-affinity
    /// placement hint (maintained unconditionally; one add per remote
    /// fetch, never branched on by the protocol itself).
    pub(crate) home_pull: Vec<u64>,
    pub(crate) alloc_next: u64,
    pub(crate) alloc_ranges: Vec<(u64, u64)>,
    pub(crate) locks: IdMap<u64, LockState>,
    pub(crate) barriers: IdMap<u64, BarrierState>,
    /// Barrier arrivals forgiven for threads that node-crash recovery
    /// removed; always zero without chaos, so a barrier opens on its
    /// full count in normal runs.
    pub forgiven: u64,
    pub(crate) next_proc: usize,
    pub(crate) created: Vec<Tid>,
}

/// Where a fault goes once its directory entry is known.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Route {
    /// First touch of the chunk: place it here.
    Place,
    /// The page is homed here: grant the access.
    Home,
    /// Fetch from a remote home, once `region` is imported.
    Remote { home: NodeId, region: RegionId },
}

/// A remote-homed fault, decided.
#[derive(Debug, Clone)]
pub(crate) enum Fetch {
    /// A write on a current clean copy: grant it in place.
    Local,
    /// Fetch the page at `off` in the home region.
    Remote { off: u64 },
}

/// How a diff travels to its home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ship {
    /// The writer is the home: the data is already there.
    Home,
    /// Single-writer write-through: streamed during computation, the
    /// release only fences.
    Through,
    /// One remote write per dirty run.
    Direct,
    /// Queued on the release's per-home batch.
    Batch,
}

/// One page's dirty words, on their way to the home's copy at `off` in
/// `region`. `runs` are half-open word ranges.
#[derive(Debug, Clone)]
pub(crate) struct Diff {
    pub page: u64,
    pub home: NodeId,
    pub region: RegionId,
    pub off: u64,
    pub runs: Vec<(u64, u64)>,
    pub ship: Ship,
}

/// An acquire, decided: flush the stale pages this node is still writing
/// (in order), then invalidate (clean stale copies, then the flushed
/// ones). `applied` says whether any notice was new.
#[derive(Debug, Clone)]
pub(crate) struct Acquire {
    pub flush: Vec<Diff>,
    pub invalidate: Vec<u64>,
    pub applied: bool,
}

/// A chunk migration to the deciding node, decided: register the new
/// home frames by extending `extend` (else export a region) at `off`,
/// then pull each page's contents.
#[derive(Debug, Clone)]
pub(crate) struct Migrate {
    pub base: PageNum,
    pub extend: Option<RegionId>,
    pub off: u64,
    pub pulls: Vec<Pull>,
}

/// Where a migrating page's contents come from: the local frame when the
/// node holds a copy (`prefer_local`) — an invalidated page keeps its
/// frame mapped but has no copy, and its stale bytes must not become the
/// new home's — else the old home's `(region, offset)`, if any.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pull {
    pub page: u64,
    pub prefer_local: bool,
    pub from: Option<(RegionId, u64)>,
}

impl ProtoState {
    pub fn new(nodes: usize, cfg: SvmConfig, master: NodeId) -> Self {
        ProtoState {
            cfg,
            master,
            dir: IdMap::default(),
            nodes: vec![NodeProto::default(); nodes],
            log: Vec::new(),
            home_region: vec![None; nodes],
            first_toucher: IdMap::default(),
            home_pull: vec![0; nodes],
            alloc_next: HEAP_BASE.raw(),
            alloc_ranges: Vec::new(),
            locks: IdMap::default(),
            barriers: IdMap::default(),
            forgiven: 0,
            next_proc: 1,
            created: Vec::new(),
        }
    }

    fn np(&mut self, node: NodeId) -> &mut NodeProto {
        &mut self.nodes[node.0 as usize]
    }

    /// The home of `page`, once placed.
    pub(crate) fn home(&self, page: PageNum) -> Option<NodeId> {
        self.dir.get(&page.index()).map(|d| d.home)
    }

    /// A fault on `page` past its ordering point. `prot` is the page's
    /// protection on `node` now: another thread of the node may have
    /// serviced the same fault meanwhile, and then there is nothing to do
    /// (`None`). Otherwise returns whether the directory lookup must ask
    /// the master ("segment owner detect": CableS caches entries per node;
    /// the base system broadcasts placement, so its lookups are local) and
    /// the route. First-touch attribution happens here, at fault order.
    pub(crate) fn fault(
        &mut self,
        node: NodeId,
        page: PageNum,
        kind: FaultKind,
        prot: Option<Prot>,
    ) -> Option<(bool, Route)> {
        let idx = page.index();
        self.first_toucher.entry(idx).or_insert(node);
        let satisfied = prot.is_some_and(|p| match kind {
            FaultKind::Read => p != Prot::None,
            FaultKind::Write => p == Prot::ReadWrite,
        });
        if satisfied {
            return None;
        }
        let (master, cables) = (self.master, self.cfg.mode == ProtoMode::Cables);
        let chunk = page.chunk(self.cfg.home_granularity_pages);
        let np = self.np(node);
        match kind {
            FaultKind::Read => np.stats.read_faults += 1,
            FaultKind::Write => np.stats.write_faults += 1,
        }
        let remote = cables && np.seg_cache.insert(chunk) && node != master;
        let route = match self.dir.get(&idx) {
            None => Route::Place,
            Some(d) if d.home == node => {
                if kind == FaultKind::Write {
                    self.start_write_tracking(node, idx);
                }
                Route::Home
            }
            Some(d) => Route::Remote {
                home: d.home,
                region: d.region,
            },
        };
        Some((remote, route))
    }

    /// First touch: `node` becomes home of the whole placement chunk (1
    /// page for base, 16 pages / 64 KB for CableS-on-NT). Decides where
    /// its home frames are registered — at an offset of the region to
    /// extend (`Some`), else of a new one: CableS extends the node's
    /// single home region (the double virtual mapping); the base system
    /// extends the same-home run ending just below the chunk (runs only
    /// ever grow at their end, so that page ends its region).
    pub(crate) fn place(&self, node: NodeId, page: PageNum) -> (Option<RegionId>, u64) {
        let base = page.chunk_base(self.cfg.home_granularity_pages).index();
        match self.cfg.mode {
            ProtoMode::Cables => match self.home_region[node.0 as usize] {
                Some((r, len)) => (Some(r), len),
                None => (None, 0),
            },
            ProtoMode::Base => match self.dir.get(&base.wrapping_sub(1)) {
                Some(d) if d.home == node => (Some(d.region), d.region_off + PAGE_SIZE),
                _ => (None, 0),
            },
        }
    }

    /// The placement's directory update, once its frames are registered
    /// at `off` in `region` (on the master / ACB owner).
    pub(crate) fn placed(&mut self, node: NodeId, page: PageNum, region: RegionId, off: u64) {
        let gran = self.cfg.home_granularity_pages;
        let base = page.chunk_base(gran).index();
        if self.cfg.mode == ProtoMode::Cables {
            self.home_region[node.0 as usize] = Some((region, off + gran * PAGE_SIZE));
        }
        for i in 0..gran {
            let dir = PageDir {
                home: node,
                version: 0,
                region,
                region_off: off + i * PAGE_SIZE,
                first_writer: None,
                multi_writer: false,
            };
            self.dir.insert(base + i, dir);
            self.np(node).copies.insert(base + i, CopyState::default());
        }
        self.np(node).stats.placements += 1;
    }

    /// Starts dirty-word tracking on `node`'s copy of `page` (a write
    /// access is being granted) and records the writer in the directory.
    pub(crate) fn start_write_tracking(&mut self, node: NodeId, page: u64) {
        let np = self.np(node);
        let copy = np.copy(page);
        if copy.dirty.is_none() {
            copy.dirty = Some(Box::new([0; BITMAP_WORDS]));
            np.dirty_pages.push(page);
        }
        let d = self.dir.get_mut(&page).expect("dir entry");
        match d.first_writer {
            None => d.first_writer = Some(node),
            Some(w) if w != node => d.multi_writer = true,
            _ => {}
        }
    }

    /// Marks the dirty words covered by a write of `len` bytes at `addr`.
    pub(crate) fn mark_dirty(&mut self, node: NodeId, addr: GAddr, len: u64) {
        let copy = self.np(node).copies.get_mut(&addr.page().index());
        if let Some(dirty) = copy.and_then(|c| c.dirty.as_mut()) {
            let first = addr.page_offset() / 8;
            set_dirty_words(dirty, first, (addr.page_offset() + len - 1) / 8);
        }
    }

    /// A fault served by a remote home, with the home region imported and
    /// the page given a local frame (`have_frame`: it had one already). A
    /// write fault on a current clean copy needs no transfer, only the
    /// protection change; a read fault always refetches.
    pub(crate) fn fetch(
        &mut self,
        node: NodeId,
        page: PageNum,
        kind: FaultKind,
        have_frame: bool,
    ) -> Fetch {
        let idx = page.index();
        let d = &self.dir[&idx];
        let (home, off, version) = (d.home, d.region_off, d.version);
        let np = &mut self.nodes[node.0 as usize];
        let (dirty, current) = np.copies.get(&idx).map_or((false, false), |c| {
            (c.dirty.is_some(), c.version >= version)
        });
        // A locally dirty copy is never overwritten by a refetch — its
        // unflushed words would be lost.
        assert!(!dirty, "refetch of a locally dirty page {page} on {node}");
        if current && have_frame && kind == FaultKind::Write {
            self.start_write_tracking(node, idx);
            return Fetch::Local;
        }
        np.stats.remote_fetches += 1;
        np.stats.fetch_bytes += PAGE_SIZE;
        np.copy(idx).version = version;
        // Affinity hint: credit the home that served this fetch.
        self.home_pull[home.0 as usize] += 1;
        if kind == FaultKind::Write {
            self.start_write_tracking(node, idx);
        }
        Fetch::Remote { off }
    }

    /// Migrates the chunk at `base` to `node` (the mechanism of paper
    /// §2.1.3): its new home frames extend the node's single home region,
    /// and each page's current contents are pulled over. Refused (`None`)
    /// unless the chunk is placed and homed elsewhere, every local copy in
    /// it is current (another interval's diff would otherwise be lost) and
    /// no other node holds unflushed dirty words in it.
    pub(crate) fn migrate(&self, node: NodeId, base: PageNum) -> Option<Migrate> {
        debug_assert_eq!(
            self.cfg.mode,
            ProtoMode::Cables,
            "migration is a CableS mechanism"
        );
        if self.home(base)? == node {
            return None;
        }
        let pages = base.index()..base.index() + self.cfg.home_granularity_pages;
        let me = &self.nodes[node.0 as usize];
        let current = pages
            .clone()
            .all(|i| match (self.dir.get(&i), me.copies.get(&i)) {
                (Some(d), Some(c)) => c.version >= d.version,
                _ => true,
            });
        let foreign_dirty = self.nodes.iter().enumerate().any(|(n, np)| {
            n != node.0 as usize
                && pages
                    .clone()
                    .any(|i| np.copies.get(&i).is_some_and(|c| c.dirty.is_some()))
        });
        if !current || foreign_dirty {
            return None;
        }
        let (extend, off) =
            self.home_region[node.0 as usize].map_or((None, 0), |(r, l)| (Some(r), l));
        let pulls = pages
            .map(|page| Pull {
                page,
                prefer_local: me.copies.contains_key(&page),
                from: self.dir.get(&page).map(|d| (d.region, d.region_off)),
            })
            .collect();
        Some(Migrate {
            base,
            extend,
            off,
            pulls,
        })
    }

    /// The migration's directory update, once the new frames are
    /// registered at `off` in `region` and filled: the version bump
    /// invalidates every remote copy. A pending dirty map stays attached:
    /// the flush that follows is a (free) home-local release.
    pub(crate) fn migrated(&mut self, node: NodeId, base: PageNum, region: RegionId, off: u64) {
        let gran = self.cfg.home_granularity_pages;
        self.home_region[node.0 as usize] = Some((region, off + gran * PAGE_SIZE));
        for i in 0..gran {
            let idx = base.index() + i;
            if let Some(d) = self.dir.get_mut(&idx) {
                d.home = node;
                d.region = region;
                d.region_off = off + i * PAGE_SIZE;
                d.version += 1;
                let v = d.version;
                self.log.push((idx, v));
                self.np(node).copy(idx).version = v;
            }
        }
        self.np(node).stats.migrations += 1;
    }

    /// Takes `node`'s dirty bitmap of `page`, bumps the page's version and
    /// logs the write notice. Returns the diff and the version before it.
    /// Every release of a page runs through here, whether a whole-node
    /// release or the acquire-time early flush.
    fn diff(&mut self, node: NodeId, page: u64, batch: bool) -> (Diff, u64) {
        let wt = self.cfg.write_through_single_writer;
        let bitmap = self
            .np(node)
            .copies
            .get_mut(&page)
            .expect("dirty page has copy");
        let bitmap = bitmap.dirty.take().expect("dirty page has bitmap");
        let d = self.dir.get_mut(&page).expect("dir entry");
        let through = wt && !d.multi_writer && d.first_writer == Some(node);
        let ship = match () {
            _ if d.home == node => Ship::Home,
            _ if through => Ship::Through,
            _ if batch => Ship::Batch,
            _ => Ship::Direct,
        };
        let diff = Diff {
            page,
            home: d.home,
            region: d.region,
            off: d.region_off,
            runs: dirty_runs(&bitmap),
            ship,
        };
        let pre = d.version;
        d.version += 1;
        self.log.push((page, pre + 1));
        if ship != Ship::Home {
            let bytes: u64 = diff.runs.iter().map(|r| (r.1 - r.0) * 8).sum();
            let stats = &mut self.np(node).stats;
            stats.diffs_sent += u64::from(ship != Ship::Batch);
            stats.diff_bytes += bytes;
            if ship == Ship::Batch {
                stats.batched_diff_bytes += bytes;
            }
        }
        (diff, pre)
    }

    /// A release takes `node`'s dirty pages: each page's diff, and
    /// whether the copy must then be invalidated — a copy with a stale
    /// base (someone else released the page since it was fetched) misses
    /// the other writers' words, so it must not stay readable — rather
    /// than downgraded to read-only.
    pub(crate) fn release(&mut self, node: NodeId) -> Vec<(Diff, bool)> {
        let mut batches = BTreeSet::new();
        let out = std::mem::take(&mut self.np(node).dirty_pages)
            .into_iter()
            .map(|page| {
                let (diff, pre) = self.diff(node, page, self.cfg.batch_diffs);
                if diff.ship == Ship::Batch {
                    batches.insert((diff.home.0, diff.region.0));
                }
                let np = self.np(node);
                let copy = np.copies.get_mut(&page).expect("copy");
                let stale = copy.version != pre && diff.home != node;
                if copy.version == pre {
                    copy.version = pre + 1;
                } else if stale {
                    np.copies.remove(&page);
                }
                (diff, stale)
            })
            .collect();
        let stats = &mut self.np(node).stats;
        stats.diffs_sent += batches.len() as u64;
        stats.diff_batches += batches.len() as u64;
        out
    }

    /// Acquire: applies all write notices `node` has not yet seen. Stale
    /// clean copies are invalidated; stale copies this node is still
    /// writing are flushed home first, then invalidated like the rest —
    /// never read past the notice.
    pub(crate) fn acquire(&mut self, node: NodeId) -> Acquire {
        let me = &self.nodes[node.0 as usize];
        let (cursor, end) = (me.log_cursor, self.log.len());
        let (mut invalidate, mut flush) = (Vec::new(), Vec::new());
        for &(page, version) in &self.log[cursor..end] {
            if self.dir[&page].home == node {
                continue;
            }
            match me.copies.get(&page) {
                Some(c) if c.version < version && c.dirty.is_none() => invalidate.push(page),
                Some(c) if c.version < version => flush.push(page),
                _ => {}
            }
        }
        // The log may hold several intervals for the same page.
        invalidate.sort_unstable();
        invalidate.dedup();
        flush.sort_unstable();
        flush.dedup();
        let np = &mut self.nodes[node.0 as usize];
        np.log_cursor = end;
        np.stats.notices_applied += (invalidate.len() + flush.len()) as u64;
        // An early release of each still-written page — exactly what the
        // next release would have done for it, just sooner.
        let flush: Vec<Diff> = flush
            .into_iter()
            .map(|page| {
                self.np(node).dirty_pages.retain(|p| *p != page);
                self.diff(node, page, false).0
            })
            .collect();
        invalidate.extend(flush.iter().map(|d| d.page));
        let np = self.np(node);
        for &page in &invalidate {
            np.copies.remove(&page);
        }
        Acquire {
            flush,
            invalidate,
            applied: end > cursor,
        }
    }

    /// Detailed misplacement list `(page, first_toucher, home)`.
    pub(crate) fn misplaced_pages(&self) -> Vec<(u64, NodeId, NodeId)> {
        let mut out: Vec<_> = self
            .first_toucher
            .iter()
            .filter_map(|(page, toucher)| {
                let home = self.dir.get(page)?.home;
                (home != *toucher).then_some((*page, *toucher, home))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Placement quality of the run so far (paper Fig. 6): a page is
    /// *misplaced* when its home is not its first toucher — i.e. when the
    /// 64 KB binding granularity overruled the page-granular first-touch
    /// placement the base system would have produced.
    pub(crate) fn placement_report(&self) -> PlacementReport {
        let placed = self
            .first_toucher
            .keys()
            .filter(|p| self.dir.contains_key(p));
        PlacementReport {
            touched_pages: placed.count() as u64,
            misplaced_pages: self.misplaced_pages().len() as u64,
        }
    }

    /// Sum of protocol counters over all nodes.
    pub(crate) fn total_stats(&self) -> NodeStats {
        let mut out = NodeStats::default();
        for s in self.nodes.iter().map(|n| &n.stats) {
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
        }
        out
    }
}

/// A system lock's manager record.
#[derive(Debug, Clone)]
pub(crate) struct LockState {
    pub manager: NodeId,
    pub holder: Option<Tid>,
    pub holder_node: Option<NodeId>,
    pub waiters: WaitQueue,
    pub acquired_from: IdSet<u32>,
}

/// A native barrier's manager record.
#[derive(Debug, Default, Clone)]
pub(crate) struct BarrierState {
    pub count: usize,
    pub waiters: WaitQueue,
    pub max_arrival: SimTime,
    /// Membership of the current episode, recorded on every arrival so a
    /// crash recovery can release the barrier when the survivors plus the
    /// crashed-thread discount cover it.
    pub expected: usize,
}

/// A lock request, decided: whether the requester holds the lock now,
/// whether it is its node's first acquire, whether ownership was cached
/// at its node, and the lock's manager.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    pub granted: bool,
    pub first_time: bool,
    pub local: bool,
    pub manager: NodeId,
}

/// A barrier the last arrival (or crash recovery) opened: its waiters
/// and the nominal release time at the manager.
pub type Opened = (WaitQueue, SimTime);

/// What crash recovery must perform for the lock and barrier managers:
/// wake the dead that sat parked in a queue, grant the locks the dead
/// held (`(lock, grantee)`) and release the barriers the forgiven
/// arrivals opened, both in id order.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct Crash {
    pub parked: Vec<Tid>,
    pub grants: Vec<(u64, (Tid, NodeId))>,
    pub opened: Vec<(u64, Opened)>,
}

impl LockState {
    /// The grant decision, shared by `unlock` and crash recovery: the
    /// head waiter becomes the holder, or the lock falls free.
    fn pass_on(&mut self) -> Option<(Tid, NodeId)> {
        self.holder = None;
        let (tid, node, ()) = self.waiters.0.pop_front()?;
        (self.holder, self.holder_node) = (Some(tid), Some(node));
        Some((tid, node))
    }
}

impl BarrierState {
    /// The release decision, shared by the last arriver and crash
    /// recovery: takes the waiters and resets the episode.
    fn open(&mut self) -> Opened {
        let release_t = self.max_arrival + cost::BARRIER_PER_NODE_NS * self.expected as u64;
        self.count = 0;
        self.max_arrival = SimTime::ZERO;
        (std::mem::take(&mut self.waiters), release_t)
    }
}

/// The lock and barrier managers. Lock ownership is cached at nodes; the
/// first acquirer's node manages a lock (GeNIMA's distributed managers,
/// assigned at first use); barriers are managed on the master.
impl ProtoState {
    /// `tid` on `node` requests lock `id`: it takes the lock if it is free,
    /// else queues for it (`wait`) or gives up. A probe records its node
    /// in `acquired_from` but counts as an acquire only when it succeeds.
    pub fn lock(&mut self, id: u64, tid: Tid, node: NodeId, wait: bool) -> Grant {
        let l = self.locks.entry(id).or_insert_with(|| LockState {
            manager: node,
            holder: None,
            holder_node: None,
            waiters: WaitQueue::default(),
            acquired_from: IdSet::default(),
        });
        let first_time = l.acquired_from.insert(node.0);
        let granted = l.holder.is_none();
        // A fresh lock acquired by its manager is also local.
        let local = granted
            && (l.holder_node == Some(node) || (l.holder_node.is_none() && l.manager == node));
        if granted {
            l.holder = Some(tid);
            l.holder_node = Some(node);
        } else if wait {
            l.waiters.push(tid, node, ());
        }
        let manager = l.manager;
        if granted || wait {
            self.np(node).stats.lock_acquires += 1;
        }
        Grant {
            granted,
            first_time,
            local,
            manager,
        }
    }

    /// The thread holding lock `id`, if any.
    pub fn lock_holder(&self, id: u64) -> Option<Tid> {
        self.locks.get(&id).and_then(|l| l.holder)
    }

    /// `tid` releases lock `id`: the grantee and the lock's manager, when
    /// a waiter takes it over. Panics if `tid` does not hold the lock.
    pub fn unlock(&mut self, id: u64, tid: Tid) -> Option<((Tid, NodeId), NodeId)> {
        let l = self.locks.get_mut(&id).expect("unlock of unknown lock");
        assert_eq!(l.holder, Some(tid), "unlock by non-holder");
        l.pass_on().map(|to| (to, l.manager))
    }

    /// `tid` on `node` arrives at barrier `id` of `n` threads, its arrival
    /// reaching the manager at `at`: `None` while it must wait, else the
    /// opened barrier. Arrivals forgiven by crash recovery count.
    pub fn arrive(
        &mut self,
        id: u64,
        tid: Tid,
        node: NodeId,
        n: usize,
        at: SimTime,
    ) -> Option<Opened> {
        self.np(node).stats.barrier_waits += 1;
        let discount = self.forgiven as usize;
        let b = self.barriers.entry(id).or_default();
        b.count += 1;
        b.expected = n;
        b.max_arrival = b.max_arrival.max(at);
        if b.count + discount < n {
            b.waiters.push(tid, node, ());
            return None;
        }
        Some(b.open())
    }

    /// `dead` are gone: they leave every lock and barrier queue (a queued
    /// barrier arrival is retracted, the discount stands in for it),
    /// `forgive` future barrier arrivals are forgiven, and every lock a
    /// dead thread holds passes to its next waiter. A node's recovery
    /// (`open`) also opens every barrier that only the dead kept closed.
    /// Iteration is in sorted id order, so replay stays deterministic.
    pub fn crash(&mut self, dead: &[Tid], forgive: u64, open: bool) -> Crash {
        let mut out = Crash::default();
        for &tid in dead {
            let mut found = false;
            for l in self.locks.values_mut() {
                found |= l.waiters.purge(tid);
            }
            for b in self.barriers.values_mut() {
                if b.waiters.purge(tid) {
                    b.count -= 1;
                    found = true;
                }
            }
            if found {
                out.parked.push(tid);
            }
        }
        self.forgiven += forgive;
        for (&id, l) in self.locks.iter_mut() {
            if !l.holder.is_some_and(|h| dead.contains(&h)) {
                continue;
            }
            match l.pass_on() {
                Some(to) => out.grants.push((id, to)),
                // Never leave ownership cached at a dead node: the next
                // acquirer must pay the remote path.
                None => l.holder_node = None,
            }
        }
        out.grants.sort_unstable_by_key(|g| g.0);
        let discount = self.forgiven as usize;
        if open && discount > 0 {
            for (&id, b) in self.barriers.iter_mut() {
                if b.count > 0 && b.expected > 0 && b.count + discount >= b.expected {
                    out.opened.push((id, b.open()));
                }
            }
            out.opened.sort_unstable_by_key(|o| o.0);
        }
        out
    }
}

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
            let set = w < WORDS_PER_PAGE as u64 && bitmap[(w / 64) as usize] >> (w % 64) & 1 == 1;
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
    fn a_current_clean_copy_refetches_on_read_and_upgrades_on_write() {
        let (home, other) = (NodeId(0), NodeId(1));
        let mut st = ProtoState::new(2, SvmConfig::cables(), home);
        let page = HEAP_BASE.page();
        st.placed(home, page, RegionId(0), 0);
        let first = st.fetch(other, page, FaultKind::Read, false);
        assert!(matches!(first, Fetch::Remote { off: 0 }));
        // The copy is current, yet a read fault still goes to the home.
        let again = st.fetch(other, page, FaultKind::Read, true);
        assert!(matches!(again, Fetch::Remote { off: 0 }));
        // A write fault on it upgrades in place and starts dirty tracking.
        let write = st.fetch(other, page, FaultKind::Write, true);
        assert!(matches!(write, Fetch::Local));
        assert_eq!(st.nodes[1].dirty_pages, vec![page.index()]);
        assert_eq!(st.nodes[1].stats.remote_fetches, 2);
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

    #[test]
    fn one_crash_grants_the_dead_holders_lock_and_opens_the_barrier_once() {
        let mut st = ProtoState::new(2, SvmConfig::cables(), NodeId(0));
        let (n0, n1) = (NodeId(0), NodeId(1));
        let (holder, waiter) = (Tid(1), Tid(2));
        let (arrived, dead_arrived) = (Tid(3), Tid(4));
        let (other, other_dead) = (Tid(5), Tid(6));
        assert!(st.lock(7, holder, n1, true).granted);
        assert!(!st.lock(7, waiter, n0, true).granted);
        let at = SimTime::ZERO + 10;
        // Barrier 9 of 3 threads: a live and a dead arrival, the dead
        // holder never comes. Barrier 10 of 5 threads shows the dead
        // arrival retracted: counted, it would open too.
        assert!(st.arrive(9, arrived, n0, 3, at).is_none());
        assert!(st.arrive(9, dead_arrived, n1, 3, at).is_none());
        assert!(st.arrive(10, other, n0, 5, at).is_none());
        assert!(st.arrive(10, other_dead, n1, 5, at).is_none());

        let c = st.crash(&[holder, dead_arrived, other_dead], 3, true);
        assert_eq!(c.parked, vec![dead_arrived, other_dead]);
        assert_eq!(c.grants, vec![(7, (waiter, n0))]);
        assert_eq!(st.lock_holder(7), Some(waiter));
        assert_eq!(c.opened.len(), 1);
        let (id, (waiters, _)) = &c.opened[0];
        assert_eq!((*id, &waiters.0), (9, &[(arrived, n0, ())].into()));
        assert_eq!((st.barriers[&10].count, st.forgiven), (1, 3));

        let again = st.crash(&[], 0, true);
        assert!(again.grants.is_empty() && again.opened.is_empty());
        assert_eq!(st.lock_holder(7), Some(waiter));
    }
}
