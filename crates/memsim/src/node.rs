//! Per-node physical memory and page tables.
//!
//! Concurrency model: the simulation engine unparks exactly one simulated
//! thread at a time, on one carrier OS thread, so these structures see no
//! contention and need no lock. A node's page table, frames, software TLB
//! and hit/miss counts are one `NodeMem` in that node's own [`sim::Local`]
//! (a borrow flag, never a global one), in a table of [`MAX_NODES`] slots
//! allocated with the [`ClusterMem`] and filled once, so finding it takes
//! no lock and no refcount. The hot path is the node's software TLB, a
//! direct-mapped cache of `page → (frame, prot)`: a hit runs the access on
//! the frame inside that one borrow — a flag check, no page-table walk, no
//! refcount, no counter shared with another node — and a miss walks the
//! page table and installs inside the same borrow. A page mapped to another
//! node's frame copies `(frame, prot)` out, ends its own borrow and takes
//! the owner's: no thread ever holds two node borrows. Invalidation is
//! precise — a mapping or protection change clears exactly the affected
//! page's slot, and `free_frame` clears entries caching the freed frame on
//! every node, since a cached [`FrameId`] would otherwise reach whatever
//! frame next takes its index.

use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};
use sim::{IdMap, Local, NodeId};

use crate::addr::{GAddr, PageNum, PAGE_SIZE};
use crate::scalar::Scalar;

/// Access rights of a mapped page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Prot {
    /// Mapped but inaccessible (protocol-invalidated copy).
    None,
    /// Readable only; a write triggers a fault.
    Read,
    /// Readable and writable.
    ReadWrite,
}

/// Why an access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Read access to an unmapped or `Prot::None` page.
    Read,
    /// Write access to a page without write permission.
    Write,
}

/// A simulated page fault, surfaced to the DSM protocol layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Faulting node.
    pub node: NodeId,
    /// Faulting page.
    pub page: PageNum,
    /// Kind of access that faulted.
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} fault on {} at {}", self.kind, self.node, self.page)
    }
}

impl std::error::Error for Fault {}

/// A physical page frame on some node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId {
    /// Owning node.
    pub node: NodeId,
    /// Frame index within the node.
    pub index: u32,
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:f{}", self.node, self.index)
    }
}

/// Errors from memory-management operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The node's physical memory is exhausted.
    OutOfMemory {
        /// Node that ran out.
        node: NodeId,
    },
    /// A mapping request violated the OS mapping granularity.
    Granularity {
        /// Offending base page.
        base: PageNum,
        /// Pages requested.
        pages: usize,
        /// Required chunk size in pages.
        chunk_pages: u64,
    },
    /// Operation referenced an unknown node.
    NoSuchNode(NodeId),
    /// Operation referenced an unmapped page.
    Unmapped(NodeId, PageNum),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory { node } => write!(f, "out of physical memory on {node}"),
            MemError::Granularity {
                base,
                pages,
                chunk_pages,
            } => write!(
                f,
                "mapping of {pages} pages at {base} violates the {chunk_pages}-page OS mapping granularity"
            ),
            MemError::NoSuchNode(n) => write!(f, "no such node {n}"),
            MemError::Unmapped(n, p) => write!(f, "page {p} not mapped on {n}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Operating-system virtual-memory model parameters.
///
/// The defaults model WindowsNT on the paper's cluster: 4 KB pages, but
/// virtual-to-physical *mappings* can only be established at **64 KB
/// granularity** (16 pages) — the limitation responsible for the paper's
/// misplaced-page results (Fig. 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OsVmConfig {
    /// Mapping granularity in pages (16 = 64 KB on NT; 1 = page-granular).
    pub map_chunk_pages: u64,
    /// Physical memory per node, bytes.
    pub node_mem_bytes: u64,
    /// Cost of establishing or changing one mapping region, ns.
    pub map_op_ns: u64,
    /// Cost of changing page protection, ns.
    pub protect_ns: u64,
    /// Cost of allocating a physical frame, ns.
    pub frame_alloc_ns: u64,
    /// Cost of a local memory copy, per byte, ns.
    pub copy_per_byte_ns: f64,
    /// Kernel page-fault entry/exit overhead, ns.
    pub fault_overhead_ns: u64,
}

impl Default for OsVmConfig {
    fn default() -> Self {
        OsVmConfig {
            map_chunk_pages: 16,
            node_mem_bytes: 512 << 20,
            map_op_ns: 20_000,
            protect_ns: 4_000,
            frame_alloc_ns: 2_000,
            copy_per_byte_ns: 0.5,
            fault_overhead_ns: 6_000,
        }
    }
}

impl OsVmConfig {
    /// The WindowsNT model used in the paper (64 KB mapping granularity).
    pub fn windows_nt() -> Self {
        OsVmConfig::default()
    }

    /// A page-granular OS model (used by the ablation benches).
    pub fn page_granular() -> Self {
        OsVmConfig {
            map_chunk_pages: 1,
            ..OsVmConfig::default()
        }
    }

    /// Mapping granularity in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.map_chunk_pages * PAGE_SIZE
    }
}

#[derive(Debug, Clone, Copy)]
struct Pte {
    frame: FrameId,
    prot: Prot,
}

/// Most nodes a [`ClusterMem`] can hold: the size of the table of node
/// slots it allocates up front, so finding a node's memory takes no lock.
pub const MAX_NODES: usize = 64;

/// Number of direct-mapped entries in each node's software TLB: 2 MB of
/// pages, RADIX's scatter target. At 256 its bucket cursors, two pages
/// apart across a 512-page array, alias and evict each other on every key;
/// past 512 the miss count barely moves (DESIGN §5.1).
const TLB_ENTRIES: usize = 512;

/// One cached translation. Valid while it occupies its slot — mapping,
/// protection and frame-free operations clear the affected slots directly.
#[derive(Clone, Copy)]
struct TlbEntry {
    page: u64,
    frame: FrameId,
    prot: Prot,
}

/// One node's memory: frames, page table, software TLB and its hit/miss
/// counts, all inside the node's one borrow.
struct NodeMem {
    frames: Vec<Option<Box<[u8]>>>,
    free_frames: Vec<u32>,
    pinned: Vec<bool>,
    page_table: IdMap<u64, Pte>,
    used_bytes: u64,
    pinned_bytes: u64,
    faults: u64,
    tlb: Box<[Option<TlbEntry>]>,
    tlb_hits: u64,
    tlb_misses: u64,
}

impl NodeMem {
    fn new() -> Self {
        NodeMem {
            frames: Vec::new(),
            free_frames: Vec::new(),
            pinned: Vec::new(),
            page_table: IdMap::default(),
            used_bytes: 0,
            pinned_bytes: 0,
            faults: 0,
            tlb: vec![None; TLB_ENTRIES].into_boxed_slice(),
            tlb_hits: 0,
            tlb_misses: 0,
        }
    }

    /// Translates `page` on `node` (this node), trying the TLB first; a
    /// successful walk installs the translation. Debug builds check every
    /// hit against the page table, the TLB's specification (the counters
    /// see the hit only).
    fn translate(&mut self, node: NodeId, page: PageNum) -> Option<(FrameId, Prot)> {
        let idx = page.index() as usize % TLB_ENTRIES;
        if let Some(e) = self.tlb[idx].filter(|e| e.page == page.index()) {
            self.tlb_hits += 1;
            debug_assert!(
                self.page_table
                    .get(&page.index())
                    .map(|p| (p.frame, p.prot))
                    == Some((e.frame, e.prot)),
                "stale TLB entry for {page:?} on {node}"
            );
            return Some((e.frame, e.prot));
        }
        self.tlb_misses += 1;
        let Pte { frame, prot } = *self.page_table.get(&page.index())?;
        self.tlb[idx] = Some(TlbEntry {
            page: page.index(),
            frame,
            prot,
        });
        Some((frame, prot))
    }

    /// Drops any cached translation for `page`.
    fn invalidate_page(&mut self, page: u64) {
        let e = &mut self.tlb[page as usize % TLB_ENTRIES];
        if e.is_some_and(|e| e.page == page) {
            *e = None;
        }
    }

    /// Drops every cached translation that points at `frame`.
    fn invalidate_frame(&mut self, frame: FrameId) {
        for e in self.tlb.iter_mut() {
            if e.is_some_and(|e| e.frame == frame) {
                *e = None;
            }
        }
    }

    /// The data of `frame`, which this node owns.
    fn frame_mut(&mut self, frame: FrameId, what: &str) -> &mut [u8] {
        self.frames[frame.index as usize]
            .as_deref_mut()
            .unwrap_or_else(|| panic!("{what} of freed frame {frame}"))
    }
}

/// Software-TLB hit/miss counters, cluster-wide.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations served from a node's TLB.
    pub hits: u64,
    /// Translations that had to walk the page table (or found no mapping).
    pub misses: u64,
}

/// Per-node memory usage counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes of physical memory in use.
    pub used_bytes: u64,
    /// Bytes pinned (never swappable).
    pub pinned_bytes: u64,
    /// Page faults taken on this node.
    pub faults: u64,
    /// Pages currently mapped.
    pub mapped_pages: u64,
}

/// All nodes' physical memories and page tables.
///
/// Every operation is an explicit method because the simulation replaces
/// the MMU: shared accesses go through [`ClusterMem::read_scalar`] /
/// [`ClusterMem::write_scalar`], which return a [`Fault`] exactly where
/// hardware would have trapped.
pub struct ClusterMem {
    cfg: OsVmConfig,
    /// One slot per possible node, allocated once. `ensure_node` fills
    /// slots and nothing empties them, so reading one takes no lock.
    shards: Box<[OnceLock<Local<NodeMem>>]>,
}

impl fmt::Debug for ClusterMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterMem")
            .field("nodes", &self.live().count())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl ClusterMem {
    /// Creates an empty cluster memory with the given OS model.
    pub fn new(cfg: OsVmConfig) -> Self {
        ClusterMem {
            cfg,
            shards: (0..MAX_NODES).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The OS virtual-memory model.
    pub fn config(&self) -> &OsVmConfig {
        &self.cfg
    }

    /// Ensures per-node state exists for nodes `0..=node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is past [`MAX_NODES`].
    pub fn ensure_node(&self, node: NodeId) {
        let n = node.0 as usize;
        assert!(
            n < MAX_NODES,
            "node {node} is past MAX_NODES = {MAX_NODES}, the size of memsim's node table"
        );
        for s in &self.shards[..=n] {
            s.get_or_init(|| Local::new(NodeMem::new()));
        }
    }

    fn shard(&self, node: NodeId) -> Option<&Local<NodeMem>> {
        self.shards.get(node.0 as usize)?.get()
    }

    fn shard_must(&self, node: NodeId) -> &Local<NodeMem> {
        self.shard(node)
            .unwrap_or_else(|| panic!("no such node {node}"))
    }

    fn live(&self) -> impl Iterator<Item = &Local<NodeMem>> {
        self.shards.iter().filter_map(OnceLock::get)
    }

    /// Software-TLB counters accumulated since construction, summed over
    /// every node.
    pub fn tlb_stats(&self) -> TlbStats {
        self.live().fold(TlbStats::default(), |t, s| {
            let m = s.lock();
            TlbStats {
                hits: t.hits + m.tlb_hits,
                misses: t.misses + m.tlb_misses,
            }
        })
    }

    /// Usage counters for `node`.
    pub fn stats(&self, node: NodeId) -> MemStats {
        match self.shard(node) {
            None => MemStats::default(),
            Some(s) => {
                let n = s.lock();
                MemStats {
                    used_bytes: n.used_bytes,
                    pinned_bytes: n.pinned_bytes,
                    faults: n.faults,
                    mapped_pages: n.page_table.len() as u64,
                }
            }
        }
    }

    /// Allocates a zeroed physical frame on `node`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when the node's physical memory is full.
    pub fn alloc_frame(&self, node: NodeId) -> Result<FrameId, MemError> {
        let shard = self.shard(node).ok_or(MemError::NoSuchNode(node))?;
        let mut n = shard.lock();
        if n.used_bytes + PAGE_SIZE > self.cfg.node_mem_bytes {
            return Err(MemError::OutOfMemory { node });
        }
        n.used_bytes += PAGE_SIZE;
        let zeroed = vec![0u8; PAGE_SIZE as usize].into_boxed_slice();
        let index = if let Some(i) = n.free_frames.pop() {
            n.frames[i as usize] = Some(zeroed);
            i
        } else {
            n.frames.push(Some(zeroed));
            n.pinned.push(false);
            (n.frames.len() - 1) as u32
        };
        n.pinned[index as usize] = false;
        Ok(FrameId { node, index })
    }

    /// Releases a frame back to the node's pool.
    ///
    /// Clears TLB entries caching this frame on every node: a frame freed
    /// on one node may be cached by mappings on any other.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not allocated (double free).
    pub fn free_frame(&self, frame: FrameId) {
        {
            let mut n = self.shard_must(frame.node).lock();
            let slot = &mut n.frames[frame.index as usize];
            assert!(slot.is_some(), "double free of {frame}");
            *slot = None;
            if n.pinned[frame.index as usize] {
                n.pinned[frame.index as usize] = false;
                n.pinned_bytes -= PAGE_SIZE;
            }
            n.used_bytes -= PAGE_SIZE;
            n.free_frames.push(frame.index);
        }
        for s in self.live() {
            s.lock().invalidate_frame(frame);
        }
    }

    /// Pins a frame (it will never be swapped; required before the NIC may
    /// target it with remote operations).
    pub fn pin_frame(&self, frame: FrameId) {
        let mut n = self.shard_must(frame.node).lock();
        if !n.pinned[frame.index as usize] {
            n.pinned[frame.index as usize] = true;
            n.pinned_bytes += PAGE_SIZE;
        }
    }

    /// Whether a frame is pinned.
    pub fn is_pinned(&self, frame: FrameId) -> bool {
        self.shard_must(frame.node).lock().pinned[frame.index as usize]
    }

    /// Maps `page` on `node` to `frame` with protection `prot`, at page
    /// granularity. This models the *protocol* mapping (and protection
    /// changes), which are page-granular on every OS.
    pub fn map_page(&self, node: NodeId, page: PageNum, frame: FrameId, prot: Prot) {
        let mut n = self.shard_must(node).lock();
        n.page_table.insert(page.index(), Pte { frame, prot });
        n.invalidate_page(page.index());
    }

    /// Maps a whole OS chunk (e.g. 64 KB) of the application address space
    /// in one operation, as WindowsNT requires for CableS's remapping of
    /// home frames (`frames.len()` must equal the chunk size and `base`
    /// must be chunk-aligned).
    ///
    /// # Errors
    ///
    /// [`MemError::Granularity`] if alignment or size is violated.
    pub fn map_chunk(
        &self,
        node: NodeId,
        base: PageNum,
        frames: &[FrameId],
        prot: Prot,
    ) -> Result<(), MemError> {
        let cp = self.cfg.map_chunk_pages;
        if base.index() % cp != 0 || frames.len() as u64 != cp {
            return Err(MemError::Granularity {
                base,
                pages: frames.len(),
                chunk_pages: cp,
            });
        }
        let mut n = self.shard_must(node).lock();
        for (i, &frame) in frames.iter().enumerate() {
            let page = base.index() + i as u64;
            n.page_table.insert(page, Pte { frame, prot });
            n.invalidate_page(page);
        }
        Ok(())
    }

    /// Removes a mapping.
    pub fn unmap_page(&self, node: NodeId, page: PageNum) {
        let mut n = self.shard_must(node).lock();
        n.page_table.remove(&page.index());
        n.invalidate_page(page.index());
    }

    /// Changes the protection of a mapped page (page-granular, like
    /// `mprotect`/`VirtualProtect`).
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if the page has no mapping on `node`.
    pub fn set_prot(&self, node: NodeId, page: PageNum, prot: Prot) -> Result<(), MemError> {
        let mut n = self.shard_must(node).lock();
        match n.page_table.get_mut(&page.index()) {
            Some(pte) => {
                pte.prot = prot;
                n.invalidate_page(page.index());
                Ok(())
            }
            None => Err(MemError::Unmapped(node, page)),
        }
    }

    /// Returns `(frame, prot)` for a mapped page (TLB-accelerated).
    pub fn translate(&self, node: NodeId, page: PageNum) -> Option<(FrameId, Prot)> {
        self.shard(node)?.lock().translate(node, page)
    }

    /// Runs `f` on the data of the frame `page` maps to on `node` if the
    /// mapping allows a `kind` access; otherwise counts the fault on `node`
    /// and returns it. A local frame is accessed inside the node borrow the
    /// translation took; another node's frame inside its owner's borrow,
    /// taken after this node's ends.
    fn access<R>(
        &self,
        node: NodeId,
        page: PageNum,
        kind: FaultKind,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, Fault> {
        let allowed = |prot| match kind {
            FaultKind::Read => prot != Prot::None,
            FaultKind::Write => prot == Prot::ReadWrite,
        };
        let mut n = self.shard_must(node).lock();
        match n.translate(node, page) {
            Some((frame, prot)) if allowed(prot) => Ok(if frame.node == node {
                f(n.frame_mut(frame, "access"))
            } else {
                drop(n);
                self.with_frame(frame, "access", f)
            }),
            _ => {
                n.faults += 1;
                Err(Fault { node, page, kind })
            }
        }
    }

    /// Reads a scalar at `addr` through `node`'s page table.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if the page is unmapped or `Prot::None`.
    ///
    /// # Panics
    ///
    /// Panics if the value straddles a page boundary (the allocators keep
    /// scalars naturally aligned, so this indicates a corrupted address).
    pub fn read_scalar<T: Scalar>(&self, node: NodeId, addr: GAddr) -> Result<T, Fault> {
        assert!(
            addr.fits_in_page(T::SIZE as u64),
            "scalar read at {addr} straddles a page"
        );
        let off = addr.page_offset() as usize;
        self.access(node, addr.page(), FaultKind::Read, |data| {
            T::load(&data[off..off + T::SIZE])
        })
    }

    /// Writes a scalar at `addr` through `node`'s page table.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if the page is unmapped or not writable.
    ///
    /// # Panics
    ///
    /// Panics if the value straddles a page boundary.
    pub fn write_scalar<T: Scalar>(&self, node: NodeId, addr: GAddr, v: T) -> Result<(), Fault> {
        assert!(
            addr.fits_in_page(T::SIZE as u64),
            "scalar write at {addr} straddles a page"
        );
        let off = addr.page_offset() as usize;
        self.access(node, addr.page(), FaultKind::Write, |data| {
            v.store(&mut data[off..off + T::SIZE])
        })
    }

    /// Reads the intersection of `[addr, addr + out.len())` with `addr`'s
    /// page: one translation (TLB-accelerated) and one `memcpy`. Returns
    /// the number of bytes copied, which is `out.len()` clamped to the end
    /// of the page.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] (copying nothing) if the page is unmapped or
    /// `Prot::None`.
    pub fn read_page_run(&self, node: NodeId, addr: GAddr, out: &mut [u8]) -> Result<usize, Fault> {
        let off = addr.page_offset() as usize;
        let n = out.len().min(PAGE_SIZE as usize - off);
        self.access(node, addr.page(), FaultKind::Read, |data| {
            out[..n].copy_from_slice(&data[off..off + n]);
            n
        })
    }

    /// Typed [`ClusterMem::read_page_run`]: decodes `out.len()` scalars
    /// straight out of the frame. The run must not leave `addr`'s page.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] (decoding nothing) if the page is unmapped or
    /// `Prot::None`.
    pub fn read_scalar_run<T: Scalar>(
        &self,
        node: NodeId,
        addr: GAddr,
        out: &mut [T],
    ) -> Result<(), Fault> {
        let off = addr.page_offset() as usize;
        self.access(node, addr.page(), FaultKind::Read, |data| {
            let bytes = &data[off..off + out.len() * T::SIZE];
            for (v, b) in out.iter_mut().zip(bytes.chunks_exact(T::SIZE)) {
                *v = T::load(b);
            }
        })
    }

    /// Typed [`ClusterMem::write_page_run`]: encodes `data` straight into
    /// the frame. The run must not leave `addr`'s page.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] (writing nothing) if the page is not writable.
    pub fn write_scalar_run<T: Scalar>(
        &self,
        node: NodeId,
        addr: GAddr,
        data: &[T],
    ) -> Result<(), Fault> {
        let off = addr.page_offset() as usize;
        self.access(node, addr.page(), FaultKind::Write, |buf| {
            let bytes = &mut buf[off..off + data.len() * T::SIZE];
            for (v, b) in data.iter().zip(bytes.chunks_exact_mut(T::SIZE)) {
                v.store(b);
            }
        })
    }

    /// Write-side counterpart of [`ClusterMem::read_page_run`]: one
    /// translation, one `memcpy`, bytes written clamped to `addr`'s page.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] (writing nothing) if the page is not writable.
    pub fn write_page_run(&self, node: NodeId, addr: GAddr, data: &[u8]) -> Result<usize, Fault> {
        let off = addr.page_offset() as usize;
        let n = data.len().min(PAGE_SIZE as usize - off);
        self.access(node, addr.page(), FaultKind::Write, |buf| {
            buf[off..off + n].copy_from_slice(&data[..n]);
            n
        })
    }

    /// Fill-side counterpart of [`ClusterMem::write_page_run`]: sets up to
    /// `len` bytes starting at `addr` (clamped to `addr`'s page) to `byte`.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] (writing nothing) if the page is not writable.
    pub fn fill_page_run(
        &self,
        node: NodeId,
        addr: GAddr,
        byte: u8,
        len: usize,
    ) -> Result<usize, Fault> {
        let off = addr.page_offset() as usize;
        let n = len.min(PAGE_SIZE as usize - off);
        self.access(node, addr.page(), FaultKind::Write, |buf| {
            buf[off..off + n].fill(byte);
            n
        })
    }

    /// Reads `out.len()` bytes starting at `addr`, one page run at a time.
    ///
    /// # Errors
    ///
    /// Stops at the first faulting page; bytes before the fault have
    /// already been copied into `out`.
    pub fn read_slice(&self, node: NodeId, addr: GAddr, out: &mut [u8]) -> Result<(), Fault> {
        let mut done = 0;
        while done < out.len() {
            let n = self.read_page_run(node, addr + done as u64, &mut out[done..])?;
            done += n;
        }
        Ok(())
    }

    /// Writes `data` starting at `addr`, one page run at a time.
    ///
    /// # Errors
    ///
    /// Stops at the first faulting page; bytes before the fault have
    /// already been written.
    pub fn write_slice(&self, node: NodeId, addr: GAddr, data: &[u8]) -> Result<(), Fault> {
        let mut done = 0;
        while done < data.len() {
            let n = self.write_page_run(node, addr + done as u64, &data[done..])?;
            done += n;
        }
        Ok(())
    }

    /// Sets `len` bytes starting at `addr` to `byte`, one page run at a
    /// time.
    ///
    /// # Errors
    ///
    /// Stops at the first faulting page; bytes before the fault have
    /// already been filled.
    pub fn fill(&self, node: NodeId, addr: GAddr, byte: u8, len: u64) -> Result<(), Fault> {
        let mut done = 0u64;
        while done < len {
            let n = self.fill_page_run(node, addr + done, byte, (len - done) as usize)?;
            done += n as u64;
        }
        Ok(())
    }

    /// Runs `f` on a physical frame's data inside its owner's node borrow.
    fn with_frame<R>(&self, frame: FrameId, what: &str, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(self.shard_must(frame.node).lock().frame_mut(frame, what))
    }

    /// Copies bytes out of a physical frame (NIC DMA read path).
    pub fn frame_read(&self, frame: FrameId, offset: usize, out: &mut [u8]) {
        self.with_frame(frame, "frame_read", |data| {
            out.copy_from_slice(&data[offset..offset + out.len()])
        });
    }

    /// Copies bytes into a physical frame (NIC DMA write path).
    pub fn frame_write(&self, frame: FrameId, offset: usize, data: &[u8]) {
        self.with_frame(frame, "frame_write", |buf| {
            buf[offset..offset + data.len()].copy_from_slice(data)
        });
    }

    /// Copies a whole frame `src` → `dst` (page transfer landing), through
    /// a stack buffer so that no two node borrows are ever held at once.
    pub fn copy_frame(&self, src: FrameId, dst: FrameId) {
        let mut buf = [0u8; PAGE_SIZE as usize];
        self.frame_read(src, 0, &mut buf);
        self.frame_write(dst, 0, &buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> ClusterMem {
        let m = ClusterMem::new(OsVmConfig::windows_nt());
        m.ensure_node(NodeId(0));
        m.ensure_node(NodeId(1));
        m
    }

    #[test]
    fn alloc_and_free_frames() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        assert_eq!(m.stats(NodeId(0)).used_bytes, PAGE_SIZE);
        m.free_frame(f);
        assert_eq!(m.stats(NodeId(0)).used_bytes, 0);
        // Reuse of the freed slot.
        let f2 = m.alloc_frame(NodeId(0)).unwrap();
        assert_eq!(f2.index, f.index);
    }

    #[test]
    fn out_of_memory() {
        let m = ClusterMem::new(OsVmConfig {
            node_mem_bytes: 2 * PAGE_SIZE,
            ..OsVmConfig::default()
        });
        m.ensure_node(NodeId(0));
        m.alloc_frame(NodeId(0)).unwrap();
        m.alloc_frame(NodeId(0)).unwrap();
        assert!(matches!(
            m.alloc_frame(NodeId(0)),
            Err(MemError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn pinning_accounts_bytes() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        assert!(!m.is_pinned(f));
        m.pin_frame(f);
        m.pin_frame(f); // idempotent
        assert!(m.is_pinned(f));
        assert_eq!(m.stats(NodeId(0)).pinned_bytes, PAGE_SIZE);
        m.free_frame(f);
        assert_eq!(m.stats(NodeId(0)).pinned_bytes, 0);
    }

    #[test]
    fn scalar_roundtrip_through_mapping() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        let page = PageNum::new(5);
        m.map_page(NodeId(0), page, f, Prot::ReadWrite);
        let addr = page.base() + 64;
        m.write_scalar(NodeId(0), addr, 0xABCD_EF01u32).unwrap();
        assert_eq!(m.read_scalar::<u32>(NodeId(0), addr).unwrap(), 0xABCD_EF01);
    }

    #[test]
    fn unmapped_read_faults() {
        let m = mem();
        let err = m
            .read_scalar::<u32>(NodeId(0), GAddr::new(0))
            .expect_err("should fault");
        assert_eq!(err.kind, FaultKind::Read);
        assert_eq!(m.stats(NodeId(0)).faults, 1);
    }

    /// The debug walk is the TLB's referee: a page-table change that
    /// skips the invalidation is caught at the next hit.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale TLB entry")]
    fn stale_tlb_entry_trips_the_debug_walk() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        let page = PageNum::new(0);
        m.map_page(NodeId(0), page, f, Prot::ReadWrite);
        m.read_scalar::<u8>(NodeId(0), page.base()).unwrap();
        m.shard_must(NodeId(0))
            .lock()
            .page_table
            .get_mut(&0)
            .unwrap()
            .prot = Prot::Read;
        let _ = m.read_scalar::<u8>(NodeId(0), page.base());
    }

    #[test]
    fn readonly_write_faults() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        let page = PageNum::new(0);
        m.map_page(NodeId(0), page, f, Prot::Read);
        assert!(m.read_scalar::<u8>(NodeId(0), page.base()).is_ok());
        let err = m
            .write_scalar(NodeId(0), page.base(), 1u8)
            .expect_err("should fault");
        assert_eq!(err.kind, FaultKind::Write);
    }

    #[test]
    fn prot_none_read_faults() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        let page = PageNum::new(0);
        m.map_page(NodeId(0), page, f, Prot::None);
        assert!(m.read_scalar::<u8>(NodeId(0), page.base()).is_err());
        m.set_prot(NodeId(0), page, Prot::Read).unwrap();
        assert!(m.read_scalar::<u8>(NodeId(0), page.base()).is_ok());
    }

    #[test]
    fn chunk_mapping_enforces_granularity() {
        let m = mem();
        let frames: Vec<FrameId> = (0..16).map(|_| m.alloc_frame(NodeId(0)).unwrap()).collect();
        // Misaligned base.
        assert!(matches!(
            m.map_chunk(NodeId(0), PageNum::new(8), &frames, Prot::ReadWrite),
            Err(MemError::Granularity { .. })
        ));
        // Wrong size.
        assert!(matches!(
            m.map_chunk(NodeId(0), PageNum::new(16), &frames[..8], Prot::ReadWrite),
            Err(MemError::Granularity { .. })
        ));
        // Correct.
        m.map_chunk(NodeId(0), PageNum::new(16), &frames, Prot::ReadWrite)
            .unwrap();
        assert_eq!(m.stats(NodeId(0)).mapped_pages, 16);
    }

    #[test]
    fn page_granular_os_allows_single_pages() {
        let m = ClusterMem::new(OsVmConfig::page_granular());
        m.ensure_node(NodeId(0));
        let f = m.alloc_frame(NodeId(0)).unwrap();
        m.map_chunk(NodeId(0), PageNum::new(3), &[f], Prot::Read)
            .unwrap();
        assert!(m.translate(NodeId(0), PageNum::new(3)).is_some());
    }

    #[test]
    fn remote_frame_dma() {
        let m = mem();
        let f0 = m.alloc_frame(NodeId(0)).unwrap();
        let f1 = m.alloc_frame(NodeId(1)).unwrap();
        m.frame_write(f0, 100, &[1, 2, 3, 4]);
        m.copy_frame(f0, f1);
        let mut buf = [0u8; 4];
        m.frame_read(f1, 100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    /// A TLB hit on a frame another node owns reads the frame's one copy
    /// of the data, so NIC DMA into it shows at the next hit; each node
    /// counts its own hits and misses, and `tlb_stats` is their sum.
    #[test]
    fn remote_frame_tlb_hit_sees_dma() {
        let m = mem();
        let f = m.alloc_frame(NodeId(1)).unwrap();
        let page = PageNum::new(9);
        m.map_page(NodeId(0), page, f, Prot::Read);
        m.map_page(NodeId(1), page, f, Prot::ReadWrite);
        assert_eq!(m.read_scalar::<u32>(NodeId(0), page.base()).unwrap(), 0);
        assert_eq!(m.translate(NodeId(0), page), Some((f, Prot::Read)));
        m.frame_write(f, 0, &7u32.to_le_bytes());
        assert_eq!(m.read_scalar::<u32>(NodeId(0), page.base()).unwrap(), 7);
        m.write_scalar(NodeId(1), page.base() + 4, 9u32).unwrap();
        assert_eq!(m.read_scalar::<u32>(NodeId(0), page.base() + 4).unwrap(), 9);
        let counts = |n| {
            let t = m.shard_must(NodeId(n)).lock();
            (t.tlb_hits, t.tlb_misses)
        };
        assert_eq!((counts(0), counts(1)), ((3, 1), (0, 1)));
        assert_eq!(m.tlb_stats(), TlbStats { hits: 3, misses: 2 });
    }

    /// A frame freed on its owner and reallocated at the same index is a
    /// new frame: another node must not reach it through the translation
    /// it cached for the old one. `free_frame` drops that entry, so the
    /// caching node's next access walks its page table — a miss, not a hit.
    #[test]
    fn reallocated_frame_is_not_reached_through_a_remote_cached_translation() {
        let m = mem();
        let f = m.alloc_frame(NodeId(1)).unwrap();
        let page = PageNum::new(9);
        m.map_page(NodeId(0), page, f, Prot::ReadWrite);
        m.write_scalar(NodeId(0), page.base(), 5u32).unwrap();
        assert_eq!(m.read_scalar::<u32>(NodeId(0), page.base()).unwrap(), 5);
        assert_eq!(m.tlb_stats(), TlbStats { hits: 1, misses: 1 });
        m.free_frame(f);
        let g = m.alloc_frame(NodeId(1)).unwrap();
        assert_eq!(g, f, "the freed index is reused");
        assert_eq!(m.read_scalar::<u32>(NodeId(0), page.base()).unwrap(), 0);
        assert_eq!(m.tlb_stats(), TlbStats { hits: 1, misses: 2 });
    }

    #[test]
    #[should_panic(expected = "past MAX_NODES = 64")]
    fn ensure_node_past_the_cap_panics() {
        let m = ClusterMem::new(OsVmConfig::windows_nt());
        m.ensure_node(NodeId(MAX_NODES as u32 - 1));
        assert!(m.alloc_frame(NodeId(0)).is_ok());
        m.ensure_node(NodeId(MAX_NODES as u32));
    }

    #[test]
    fn double_mapping_same_frame() {
        // CableS double virtual mapping: protocol + application views of
        // the same home frame.
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        m.map_page(NodeId(0), PageNum::new(10), f, Prot::ReadWrite);
        m.map_page(NodeId(0), PageNum::new(999), f, Prot::ReadWrite);
        m.write_scalar(NodeId(0), PageNum::new(10).base(), 42u64)
            .unwrap();
        assert_eq!(
            m.read_scalar::<u64>(NodeId(0), PageNum::new(999).base())
                .unwrap(),
            42
        );
    }

    #[test]
    #[should_panic(expected = "straddles a page")]
    fn straddling_scalar_panics() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        m.map_page(NodeId(0), PageNum::new(0), f, Prot::ReadWrite);
        let _ = m.read_scalar::<u64>(NodeId(0), GAddr::new(PAGE_SIZE - 4));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        m.free_frame(f);
        m.free_frame(f);
    }

    #[test]
    fn tlb_hits_on_repeat_access() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        let page = PageNum::new(7);
        m.map_page(NodeId(0), page, f, Prot::ReadWrite);
        m.write_scalar(NodeId(0), page.base(), 1u64).unwrap();
        let before = m.tlb_stats();
        for _ in 0..100 {
            m.read_scalar::<u64>(NodeId(0), page.base()).unwrap();
        }
        let after = m.tlb_stats();
        assert_eq!(after.hits - before.hits, 100);
        assert_eq!(after.misses, before.misses);
    }

    /// RADIX's bucket cursors walk a 512-page (2 MB) destination array;
    /// at 256 entries page `p` and `p + 256` evicted each other on every
    /// key. The whole array must stay resident.
    #[test]
    fn tlb_holds_a_two_megabyte_working_set() {
        let m = mem();
        let pages = (2 << 20) / PAGE_SIZE;
        for p in 0..pages {
            let f = m.alloc_frame(NodeId(0)).unwrap();
            m.map_page(NodeId(0), PageNum::new(1000 + p), f, Prot::ReadWrite);
        }
        let sweep = || {
            let before = m.tlb_stats();
            for p in 0..pages {
                m.read_scalar::<u64>(NodeId(0), PageNum::new(1000 + p).base())
                    .unwrap();
            }
            let after = m.tlb_stats();
            (after.hits - before.hits, after.misses - before.misses)
        };
        assert_eq!(sweep(), (0, pages));
        assert_eq!(sweep(), (pages, 0));
    }

    #[test]
    fn tlb_invalidated_by_set_prot() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        let page = PageNum::new(3);
        m.map_page(NodeId(0), page, f, Prot::ReadWrite);
        m.write_scalar(NodeId(0), page.base(), 9u32).unwrap();
        // Downgrade: the cached RW translation must not satisfy a write.
        m.set_prot(NodeId(0), page, Prot::Read).unwrap();
        assert!(m.write_scalar(NodeId(0), page.base(), 1u32).is_err());
        assert_eq!(m.read_scalar::<u32>(NodeId(0), page.base()).unwrap(), 9);
    }

    #[test]
    fn tlb_invalidated_by_remap() {
        let m = mem();
        let f1 = m.alloc_frame(NodeId(0)).unwrap();
        let f2 = m.alloc_frame(NodeId(0)).unwrap();
        let page = PageNum::new(4);
        m.map_page(NodeId(0), page, f1, Prot::ReadWrite);
        m.write_scalar(NodeId(0), page.base(), 0xAAu8).unwrap();
        // Remap the same virtual page to a different frame.
        m.map_page(NodeId(0), page, f2, Prot::ReadWrite);
        assert_eq!(m.read_scalar::<u8>(NodeId(0), page.base()).unwrap(), 0);
    }

    #[test]
    fn tlb_invalidated_by_unmap_and_free() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        let page = PageNum::new(5);
        m.map_page(NodeId(0), page, f, Prot::ReadWrite);
        m.read_scalar::<u8>(NodeId(0), page.base()).unwrap();
        m.unmap_page(NodeId(0), page);
        assert!(m.read_scalar::<u8>(NodeId(0), page.base()).is_err());
        m.free_frame(f);
        assert!(m.read_scalar::<u8>(NodeId(0), page.base()).is_err());
    }

    #[test]
    fn slice_round_trip_across_pages() {
        let m = mem();
        for p in 0..3 {
            let f = m.alloc_frame(NodeId(0)).unwrap();
            m.map_page(NodeId(0), PageNum::new(p), f, Prot::ReadWrite);
        }
        // A write that straddles all three pages.
        let base = GAddr::new(100);
        let data: Vec<u8> = (0..2 * PAGE_SIZE as usize + 500).map(|i| i as u8).collect();
        m.write_slice(NodeId(0), base, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read_slice(NodeId(0), base, &mut back).unwrap();
        assert_eq!(back, data);
        // Byte-identical with the scalar path.
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read_scalar::<u8>(NodeId(0), base + i as u64).unwrap(), b);
        }
    }

    #[test]
    fn slice_fault_reports_faulting_page() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        m.map_page(NodeId(0), PageNum::new(0), f, Prot::ReadWrite);
        // Page 1 unmapped: the slice faults there, not at the start.
        let mut buf = vec![0u8; 2 * PAGE_SIZE as usize];
        let err = m
            .read_slice(NodeId(0), GAddr::new(0), &mut buf)
            .expect_err("page 1 unmapped");
        assert_eq!(err.page, PageNum::new(1));
    }

    #[test]
    fn fill_matches_scalar_writes() {
        let m = mem();
        for p in 0..2 {
            let f = m.alloc_frame(NodeId(0)).unwrap();
            m.map_page(NodeId(0), PageNum::new(p), f, Prot::ReadWrite);
        }
        let base = GAddr::new(PAGE_SIZE - 17);
        m.fill(NodeId(0), base, 0x5A, 40).unwrap();
        for i in 0..40u64 {
            assert_eq!(m.read_scalar::<u8>(NodeId(0), base + i).unwrap(), 0x5A);
        }
        assert_eq!(m.read_scalar::<u8>(NodeId(0), base + 40).unwrap(), 0);
    }

    #[test]
    fn write_page_run_clamps_to_page_end() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        m.map_page(NodeId(0), PageNum::new(0), f, Prot::ReadWrite);
        let addr = GAddr::new(PAGE_SIZE - 8);
        let n = m.write_page_run(NodeId(0), addr, &[1u8; 64]).unwrap();
        assert_eq!(n, 8);
    }

    #[test]
    fn scalar_runs_agree_with_byte_runs_and_fault_alike() {
        let m = mem();
        let f = m.alloc_frame(NodeId(0)).unwrap();
        m.map_page(NodeId(0), PageNum::new(0), f, Prot::ReadWrite);
        let addr = GAddr::new(PAGE_SIZE - 32);
        let vals = [1.5f64, -2.25, f64::MAX, 0.0];
        m.write_scalar_run(NodeId(0), addr, &vals).unwrap();
        let mut bytes = [0u8; 32];
        m.read_page_run(NodeId(0), addr, &mut bytes).unwrap();
        for (v, b) in vals.iter().zip(bytes.chunks_exact(8)) {
            assert_eq!(v.to_le_bytes(), b);
        }
        let mut back = [0.0f64; 4];
        m.read_scalar_run(NodeId(0), addr, &mut back).unwrap();
        assert_eq!(back, vals);

        // Read-only: reads pass, writes fault and write nothing.
        m.set_prot(NodeId(0), PageNum::new(0), Prot::Read).unwrap();
        let faults = m.stats(NodeId(0)).faults;
        let e = m.write_scalar_run(NodeId(0), addr, &[9.0f64]).unwrap_err();
        assert_eq!((e.page, e.kind), (PageNum::new(0), FaultKind::Write));
        m.read_scalar_run(NodeId(0), addr, &mut back).unwrap();
        assert_eq!(back, vals);
        // Unmapped: the read faults, and every fault is counted.
        let e = m
            .read_scalar_run(NodeId(0), GAddr::new(PAGE_SIZE), &mut back)
            .unwrap_err();
        assert_eq!((e.page, e.kind), (PageNum::new(1), FaultKind::Read));
        assert_eq!(m.stats(NodeId(0)).faults, faults + 2);
    }
}
